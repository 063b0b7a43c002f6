//! Crash-safe durability for [`Engine`] sessions: a data directory holding a
//! versioned snapshot plus an append-only transaction log (see [`crate::wal`]),
//! replayed on startup and compacted once the log grows past a threshold.
//!
//! # Data directory layout
//!
//! ```text
//! <dir>/snapshot.fl      textual session snapshot (`% factorlog snapshot v1`,
//!                        plus a `% wal-seq: N` comment recording the last log
//!                        sequence number the snapshot includes)
//! <dir>/snapshot.fl.tmp  compaction staging file (ignored and removed on open)
//! <dir>/wal.log          the record log of committed mutations since the snapshot
//! <dir>/LOCK             single-writer lock: the PID of the live opener
//! ```
//!
//! # Write path
//!
//! Every committed mutation — a [`Txn`](crate::Txn) batch, a single
//! [`Engine::insert`], a [`Engine::load_source`] (rules and bulk facts travel as
//! one source record) or [`Engine::add_rules`] — is appended to the log *before*
//! it is applied in memory, and fsync'd (by default) before the commit call
//! returns. A commit that returns an error therefore either never reached the log
//! (validation failures, torn appends — recovery truncates those) or is fully
//! logged; there is no state a crash can expose where the log has less than the
//! acknowledged history.
//!
//! # Recovery
//!
//! [`Engine::open_durable`] loads the newest valid snapshot, truncates the log's
//! torn tail (see [`crate::wal::read_log`]), and replays every record whose
//! sequence number the snapshot does not already include through the ordinary
//! transactional path — the factored-evaluation machinery then rebuilds derived
//! views on the first query, exactly as it would for a freshly loaded session.
//!
//! # Compaction
//!
//! Once the log exceeds [`DurabilityOptions::compact_threshold`] bytes, the
//! engine rewrites the snapshot (to a temp file, fsync, atomic rename, directory
//! fsync) and resets the log. A crash at *any* point of that sequence leaves a
//! recoverable image: before the rename, the old snapshot + full log; after it,
//! the new snapshot + a log whose stale records are skipped by sequence number.

use std::fs::File;
use std::path::{Path, PathBuf};

use factorlog_datalog::ast::Const;
use factorlog_datalog::eval::EvalOptions;
use factorlog_datalog::fault::FaultSite;
use factorlog_datalog::symbol::Symbol;

use crate::engine::{Engine, EngineError, Snapshot, TxnOp};
use crate::wal::{self, FaultPoint, WalError, WalOp, WalRecord, WalWriter};

/// File name of the session snapshot inside a data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.fl";
/// Staging name the compactor writes the next snapshot under before renaming it.
pub const SNAPSHOT_TMP_FILE: &str = "snapshot.fl.tmp";
/// File name of the transaction log inside a data directory.
pub const WAL_FILE: &str = "wal.log";
/// File name of the single-writer lock inside a data directory. Holds the PID
/// of the live opener; a second [`Engine::open_durable`] of the same directory
/// refuses with [`EngineError::Locked`] while that process is alive, and
/// reclaims the lock when it is not (a stale lock from a crash).
pub const LOCK_FILE: &str = "LOCK";

/// The comment line (after the snapshot header) recording the last log sequence
/// number a snapshot includes. Being a `%` comment it is invisible to the parser,
/// so sequenced snapshots remain ordinary v1 snapshots.
const WAL_SEQ_PREFIX: &str = "% wal-seq:";

/// Default log size (bytes) past which a commit triggers snapshot compaction.
pub const DEFAULT_COMPACT_THRESHOLD: u64 = 1 << 20;

/// Configuration of a durable session.
#[derive(Clone, Copy, Debug)]
pub struct DurabilityOptions {
    /// fsync the log after every appended record (and snapshots after every
    /// compaction step). On: a commit that returns is on stable storage — the
    /// crash guarantee this subsystem exists for. Off: commits are buffered by the
    /// OS (a machine crash may lose the newest ones; a mere process crash cannot),
    /// which is only appropriate for bulk loads and benchmarks.
    pub fsync: bool,
    /// Log size (bytes) past which the next commit compacts: rewrites the
    /// snapshot atomically and resets the log. `u64::MAX` disables automatic
    /// compaction (explicit [`Engine::compact`] still works).
    pub compact_threshold: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            fsync: true,
            compact_threshold: DEFAULT_COMPACT_THRESHOLD,
        }
    }
}

/// What [`Engine::open_durable`] found and did.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Was a snapshot file present (and valid)?
    pub snapshot_loaded: bool,
    /// The last log sequence number the snapshot includes (0 = none).
    pub snapshot_seq: u64,
    /// Log records replayed through the transactional path.
    pub records_replayed: usize,
    /// Log records skipped because the snapshot already includes them (left
    /// behind by a compaction that crashed between snapshot rename and log reset).
    pub records_skipped: usize,
    /// Bytes of torn/corrupt log tail truncated away.
    pub torn_bytes_truncated: u64,
}

impl RecoveryReport {
    /// One-line human summary, shared by every front end's recovery banner:
    /// `snapshot loaded, 3 wal record(s) replayed, 42 torn byte(s) truncated`.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "snapshot {}, {} wal record(s) replayed",
            if self.snapshot_loaded {
                "loaded"
            } else {
                "absent"
            },
            self.records_replayed
        );
        if self.torn_bytes_truncated > 0 {
            let _ = write!(
                out,
                ", {} torn byte(s) truncated",
                self.torn_bytes_truncated
            );
        }
        out
    }
}

/// What one [`Engine::compact`] did.
#[derive(Clone, Copy, Debug)]
pub struct CompactReport {
    /// Log bytes before compaction (header included).
    pub log_bytes_before: u64,
    /// Log bytes after compaction (a fresh header).
    pub log_bytes_after: u64,
    /// The sequence number the new snapshot includes.
    pub snapshot_seq: u64,
}

/// Crash-injection points for the compactor (test harness only): compaction
/// aborts with [`EngineError::Durability`] *after* the named step, leaving the
/// directory exactly as a crash at that moment would. Both interrupted states
/// must recover to the same session image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompactionFault {
    /// Crash after writing the staging snapshot but before the atomic rename:
    /// readers still see the old snapshot + full log.
    AfterTempWrite,
    /// Crash after the rename but before the log reset: readers see the new
    /// snapshot + a stale log whose records are sequence-skipped.
    AfterRename,
}

/// The durable half of a session: the log writer plus the directory bookkeeping.
pub(crate) struct Durability {
    dir: PathBuf,
    writer: WalWriter,
    options: DurabilityOptions,
    /// Sequence number the next appended record gets (last applied + 1).
    next_seq: u64,
    recovery: RecoveryReport,
    compaction_fault: Option<CompactionFault>,
    /// Held for the session's lifetime; releasing the `LOCK` file on drop.
    _lock: DirLock,
}

/// Canonical paths of every data directory this process currently holds open.
/// The PID in the lock file cannot catch a same-process double-open (our own
/// PID is very much alive), so that case is caught here.
fn lock_registry() -> &'static std::sync::Mutex<std::collections::HashSet<PathBuf>> {
    static REGISTRY: std::sync::OnceLock<std::sync::Mutex<std::collections::HashSet<PathBuf>>> =
        std::sync::OnceLock::new();
    REGISTRY.get_or_init(Default::default)
}

/// Is the process with `pid` alive? Linux answer via `/proc`; on platforms
/// without procfs this conservatively reports dead, degrading to the
/// pre-lock-file last-writer-wins behavior instead of wedging on stale locks.
fn process_alive(pid: u32) -> bool {
    cfg!(target_os = "linux") && Path::new("/proc").join(pid.to_string()).exists()
}

/// An acquired single-writer lock on a data directory: the `LOCK` file holding
/// this process's PID plus the in-process registry entry. Both are released on
/// drop, so dropping a durable [`Engine`] (or [`Engine::close_durable`]) lets
/// the next opener in.
pub(crate) struct DirLock {
    canonical: PathBuf,
    lock_path: PathBuf,
}

impl DirLock {
    /// Acquire the lock on `dir` (which must already exist). Refuses with
    /// [`EngineError::Locked`] when the directory is open in this process or
    /// the `LOCK` file names a live foreign process; reclaims stale locks left
    /// by dead processes.
    fn acquire(dir: &Path) -> Result<DirLock, EngineError> {
        let canonical = dir
            .canonicalize()
            .map_err(|e| EngineError::Io(format!("cannot canonicalize {}: {e}", dir.display())))?;
        let lock_path = dir.join(LOCK_FILE);
        let mut held = lock_registry().lock().expect("lock registry poisoned");
        if held.contains(&canonical) {
            return Err(EngineError::Locked {
                dir: dir.to_path_buf(),
                pid: std::process::id(),
            });
        }
        match std::fs::read_to_string(&lock_path) {
            Ok(text) => {
                // A foreign live process holds the directory. Our own PID here
                // without a registry entry means a prior holder in this process
                // is gone (or the PID was recycled onto us): stale either way.
                if let Ok(pid) = text.trim().parse::<u32>() {
                    if pid != std::process::id() && process_alive(pid) {
                        return Err(EngineError::Locked {
                            dir: dir.to_path_buf(),
                            pid,
                        });
                    }
                }
                // Unparseable or stale: reclaim by overwriting below.
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                return Err(EngineError::Io(format!(
                    "cannot read {}: {e}",
                    lock_path.display()
                )))
            }
        }
        std::fs::write(&lock_path, format!("{}\n", std::process::id()))
            .map_err(|e| EngineError::Io(format!("cannot write {}: {e}", lock_path.display())))?;
        held.insert(canonical.clone());
        Ok(DirLock {
            canonical,
            lock_path,
        })
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        std::fs::remove_file(&self.lock_path).ok();
        if let Ok(mut held) = lock_registry().lock() {
            held.remove(&self.canonical);
        }
    }
}

impl From<WalError> for EngineError {
    fn from(e: WalError) -> Self {
        EngineError::Durability(e.to_string())
    }
}

/// Insert the `% wal-seq: N` line after the snapshot header.
fn snapshot_text_with_seq(snapshot: &Snapshot, seq: u64) -> String {
    let text = snapshot.as_str();
    match text.find('\n') {
        Some(pos) => format!(
            "{}\n{WAL_SEQ_PREFIX} {seq}\n{}",
            &text[..pos],
            &text[pos + 1..]
        ),
        None => format!("{text}\n{WAL_SEQ_PREFIX} {seq}\n"),
    }
}

/// The `% wal-seq: N` value of a snapshot text (0 when absent — e.g. a snapshot
/// written by `:save` and copied into a data directory by hand).
pub(crate) fn parse_wal_seq(text: &str) -> u64 {
    text.lines()
        .take(8)
        .find_map(|line| line.trim().strip_prefix(WAL_SEQ_PREFIX))
        .and_then(|rest| rest.trim().parse().ok())
        .unwrap_or(0)
}

/// Best-effort fsync of a directory (required on Linux for a rename to be
/// durable; a no-op error elsewhere is acceptable — the rename itself is atomic
/// either way).
fn sync_dir(dir: &Path) {
    if let Ok(handle) = File::open(dir) {
        handle.sync_all().ok();
    }
}

/// Stage `text` beside the live snapshot and atomically rename it into place
/// (write tmp → fsync → rename → dir fsync), honoring the compactor's injected
/// crash points. On error nothing the directory's recovery depends on has
/// changed: a leftover tmp file is ignored and removed by the next open.
fn persist_snapshot_atomically(
    dir: &Path,
    text: &str,
    fsync: bool,
    fault: Option<CompactionFault>,
) -> Result<(), EngineError> {
    let tmp_path = dir.join(SNAPSHOT_TMP_FILE);
    let write_tmp = || -> std::io::Result<()> {
        let mut tmp = File::create(&tmp_path)?;
        use std::io::Write as _;
        tmp.write_all(text.as_bytes())?;
        if fsync {
            tmp.sync_data()?;
        }
        Ok(())
    };
    write_tmp()
        .map_err(|e| EngineError::Io(format!("cannot write {}: {e}", tmp_path.display())))?;
    if fault == Some(CompactionFault::AfterTempWrite) {
        return Err(EngineError::Durability(
            "injected compaction fault after staging write".to_string(),
        ));
    }
    let snapshot_path = dir.join(SNAPSHOT_FILE);
    std::fs::rename(&tmp_path, &snapshot_path).map_err(|e| {
        EngineError::Io(format!(
            "cannot rename {} over {}: {e}",
            tmp_path.display(),
            snapshot_path.display()
        ))
    })?;
    sync_dir(dir);
    if fault == Some(CompactionFault::AfterRename) {
        return Err(EngineError::Durability(
            "injected compaction fault after snapshot rename".to_string(),
        ));
    }
    Ok(())
}

impl Engine {
    /// Open (or create) a durable session in `dir` with default durability and
    /// evaluation options: loads the newest valid snapshot, truncates the log's
    /// torn tail, replays the remaining records, and logs every subsequent
    /// committed mutation. See the [crate docs](crate) for the crash guarantees.
    ///
    /// The directory has exactly one live writer, enforced by a `LOCK` file
    /// holding the opener's PID: a second open of the same directory — from
    /// this process or another — fails with [`EngineError::Locked`] while the
    /// first session is alive, and a stale lock left by a dead process is
    /// reclaimed automatically. Dropping the engine (or
    /// [`Engine::close_durable`]) releases the lock.
    pub fn open_durable(dir: impl AsRef<Path>) -> Result<Engine, EngineError> {
        Engine::open_durable_with(dir, DurabilityOptions::default())
    }

    /// [`Engine::open_durable`] with explicit durability options.
    pub fn open_durable_with(
        dir: impl AsRef<Path>,
        options: DurabilityOptions,
    ) -> Result<Engine, EngineError> {
        Engine::open_durable_with_options(dir, options, EvalOptions::default())
    }

    /// [`Engine::open_durable`] with explicit durability *and* evaluation
    /// options (the latter as in [`Engine::with_options`]).
    pub fn open_durable_with_options(
        dir: impl AsRef<Path>,
        options: DurabilityOptions,
        eval_options: EvalOptions,
    ) -> Result<Engine, EngineError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| EngineError::Io(format!("cannot create {}: {e}", dir.display())))?;
        // Single-writer: take the directory lock before reading anything, so a
        // concurrent opener cannot interleave with recovery.
        let lock = DirLock::acquire(dir)?;
        let mut engine = Engine::with_options(eval_options);

        // 1. The newest valid snapshot. A leftover staging file is from a crashed
        //    compaction that never renamed: the real snapshot + log supersede it.
        std::fs::remove_file(dir.join(SNAPSHOT_TMP_FILE)).ok();
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let mut report = RecoveryReport::default();
        match std::fs::read_to_string(&snapshot_path) {
            Ok(text) => {
                let snapshot = Snapshot::from_text(&text)?;
                engine.restore(&snapshot)?;
                report.snapshot_seq = parse_wal_seq(&text);
                report.snapshot_loaded = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                return Err(EngineError::Io(format!(
                    "cannot read {}: {e}",
                    snapshot_path.display()
                )))
            }
        }

        // 2. The log: truncate the torn tail, replay what the snapshot lacks.
        //    Replay runs through the ordinary (unlogged — durability is not
        //    attached yet) transactional path, so IDB assertion routing and exit
        //    rules are re-derived exactly as they were live. Replay is a
        //    deterministic re-execution from the same base state, so any error a
        //    record raises here is the error it raised live (e.g. a bulk load whose
        //    trailing facts failed arity validation applied its valid prefix, was
        //    logged whole, and re-applies the same prefix) — errors are therefore
        //    deliberately ignored rather than aborting recovery halfway.
        let wal_path = dir.join(WAL_FILE);
        let (scan, writer) = wal::recover_log(&wal_path, options.fsync)?;
        report.torn_bytes_truncated = scan.torn_bytes;
        let mut last_seq = report.snapshot_seq;
        for record in scan.records {
            if record.seq() <= report.snapshot_seq {
                report.records_skipped += 1;
                continue;
            }
            last_seq = record.seq();
            match record {
                WalRecord::Txn { ops, .. } => {
                    let ops = ops
                        .into_iter()
                        .map(|(op, predicate, tuple)| {
                            let op = match op {
                                WalOp::Assert => TxnOp::Assert,
                                WalOp::Retract => TxnOp::Retract,
                            };
                            (op, predicate, tuple)
                        })
                        .collect();
                    let _ = engine.apply_txn(ops);
                }
                WalRecord::Source { text, .. } => {
                    let _ = engine.load_source(&text);
                }
            }
            report.records_replayed += 1;
        }
        engine.stats.wal_replays += report.records_replayed;
        if report.torn_bytes_truncated > 0 {
            engine.stats.wal_torn_truncations += 1;
        }

        engine.durability = Some(Durability {
            dir: dir.to_path_buf(),
            writer,
            options,
            next_seq: last_seq + 1,
            recovery: report,
            compaction_fault: None,
            _lock: lock,
        });
        Ok(engine)
    }

    /// Is this session durable (opened via [`Engine::open_durable`])?
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Detach the durable half of this session: drop the log writer and
    /// release the single-writer `LOCK`, keeping the in-memory state (rules,
    /// facts, model). Returns `true` when the session was durable. Subsequent
    /// mutations are no longer logged — used before re-opening the same
    /// directory from the same process (e.g. the REPL's `:open`).
    pub fn close_durable(&mut self) -> bool {
        self.durability.take().is_some()
    }

    /// Force an fsync of the transaction log now (a no-op for in-memory
    /// sessions). With fsync-per-append on (the default) every acknowledged
    /// commit is already durable and this adds nothing; with it off, this is
    /// the flush point bulk loaders and graceful server shutdown call before
    /// declaring the directory quiescent.
    pub fn sync_wal(&mut self) -> Result<(), EngineError> {
        if let Some(dur) = self.durability.as_mut() {
            dur.writer.sync()?;
        }
        Ok(())
    }

    /// The durable session's data directory, if any.
    pub fn data_dir(&self) -> Option<&Path> {
        self.durability.as_ref().map(|d| d.dir.as_path())
    }

    /// What recovery found when this durable session was opened.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.durability.as_ref().map(|d| &d.recovery)
    }

    /// Current size of the transaction log in bytes (header included), if
    /// durable. Monotonic between compactions; each committed mutation advances
    /// it by exactly one record, so consecutive values are the record boundaries
    /// crash tests cut at.
    pub fn wal_len(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.writer.len())
    }

    /// Arm the log writer's crash-injection point (see
    /// [`FaultPoint`](crate::wal::FaultPoint)). Returns `false` when the session
    /// is not durable. Test harness only.
    pub fn set_wal_fault(&mut self, fault: Option<FaultPoint>) -> bool {
        match self.durability.as_mut() {
            Some(dur) => {
                dur.writer.set_fault(fault);
                true
            }
            None => false,
        }
    }

    /// Arm the compactor's crash-injection point. Returns `false` when the
    /// session is not durable. Test harness only.
    pub fn set_compaction_fault(&mut self, fault: Option<CompactionFault>) -> bool {
        match self.durability.as_mut() {
            Some(dur) => {
                dur.compaction_fault = fault;
                true
            }
            None => false,
        }
    }

    /// Compact now: atomically rewrite the snapshot to include everything the log
    /// holds, then reset the log. A crash (or injected fault) anywhere in the
    /// sequence leaves a directory that recovers to exactly the same session.
    /// Errors when the session is not durable.
    pub fn compact(&mut self) -> Result<CompactReport, EngineError> {
        if self.durability.is_none() {
            return Err(EngineError::Durability(
                "session is not durable (open it with open_durable)".to_string(),
            ));
        }
        self.contained(|engine| {
            engine.chaos_hit(FaultSite::Compaction)?;
            let dur = engine.durability.as_ref().expect("checked durable above");
            let snapshot_seq = dur.next_seq - 1;
            let log_bytes_before = dur.writer.len();
            let dir = dur.dir.clone();
            let fsync = dur.options.fsync;
            let fault = dur.compaction_fault;
            let start = engine.tracing.then(std::time::Instant::now);

            // Steps 1–2: stage the new snapshot and atomically cut over. After the
            // rename the snapshot includes every logged record; the (still-untruncated)
            // log's records are all stale and sequence-skipped by recovery.
            let text = snapshot_text_with_seq(&engine.snapshot(), snapshot_seq);
            persist_snapshot_atomically(&dir, &text, fsync, fault)?;

            // Step 3: reset the log.
            let writer = WalWriter::create(dir.join(WAL_FILE), fsync)?;
            let log_bytes_after = writer.len();
            let dur = engine.durability.as_mut().expect("checked durable above");
            dur.writer = writer;
            engine.stats.wal_compactions += 1;
            if let (Some(start), Some(metrics)) = (start, engine.metrics.as_deref_mut()) {
                metrics.compaction.record(start.elapsed());
            }
            Ok(CompactReport {
                log_bytes_before,
                log_bytes_after,
                snapshot_seq,
            })
        })
    }

    /// Append one committed transaction batch to the log (no-op for in-memory
    /// sessions). Called by the engine *after* validation and *before* any state
    /// mutation: an append failure aborts the commit with the session untouched.
    pub(crate) fn wal_log_txn(
        &mut self,
        ops: &[(TxnOp, Symbol, Vec<Const>)],
    ) -> Result<(), EngineError> {
        if self.durability.is_none() {
            return Ok(());
        }
        self.contained(|engine| {
            engine.chaos_hit(FaultSite::WalAppend)?;
            engine.check_wal_not_poisoned()?;
            let dur = engine.durability.as_mut().expect("checked durable above");
            let record = WalRecord::Txn {
                seq: dur.next_seq,
                ops: ops
                    .iter()
                    .map(|(op, predicate, tuple)| {
                        let op = match op {
                            TxnOp::Assert => WalOp::Assert,
                            TxnOp::Retract => WalOp::Retract,
                        };
                        (op, *predicate, tuple.clone())
                    })
                    .collect(),
            };
            let start = engine.tracing.then(std::time::Instant::now);
            let dur = engine.durability.as_mut().expect("checked durable above");
            dur.writer.append(&record)?;
            dur.next_seq += 1;
            engine.stats.wal_appends += 1;
            engine.record_wal_append(start);
            Ok(())
        })
    }

    /// Append a whole group of validated transaction batches to the log under a
    /// *single* fsync (group commit; no-op for in-memory sessions or an empty
    /// group). Each batch gets its own record and consecutive sequence number,
    /// exactly as if committed one by one — recovery cannot tell a group from
    /// a burst of singles — but the durability cost is one sync. All-or-
    /// nothing: on error no batch was acknowledged (see
    /// [`crate::wal::WalWriter::append_all`]).
    pub(crate) fn wal_log_txn_group(
        &mut self,
        batches: &[&[(TxnOp, Symbol, Vec<Const>)]],
    ) -> Result<(), EngineError> {
        if self.durability.is_none() || batches.is_empty() {
            return Ok(());
        }
        self.contained(|engine| {
            engine.chaos_hit(FaultSite::WalAppend)?;
            engine.check_wal_not_poisoned()?;
            let dur = engine.durability.as_mut().expect("checked durable above");
            let mut seq = dur.next_seq;
            let records: Vec<WalRecord> = batches
                .iter()
                .map(|ops| {
                    let record = WalRecord::Txn {
                        seq,
                        ops: ops
                            .iter()
                            .map(|(op, predicate, tuple)| {
                                let op = match op {
                                    TxnOp::Assert => WalOp::Assert,
                                    TxnOp::Retract => WalOp::Retract,
                                };
                                (op, *predicate, tuple.clone())
                            })
                            .collect(),
                    };
                    seq += 1;
                    record
                })
                .collect();
            let start = engine.tracing.then(std::time::Instant::now);
            let dur = engine.durability.as_mut().expect("checked durable above");
            dur.writer.append_all(&records)?;
            dur.next_seq = seq;
            engine.stats.wal_appends += records.len();
            engine.stats.wal_group_commits += 1;
            engine.stats.wal_group_txns += records.len();
            engine.record_wal_append(start);
            Ok(())
        })
    }

    /// Append one absorbed source text (rules and bulk facts) to the log (no-op
    /// for in-memory sessions). Same contract as [`Engine::wal_log_txn`].
    pub(crate) fn wal_log_source(&mut self, text: &str) -> Result<(), EngineError> {
        if self.durability.is_none() {
            return Ok(());
        }
        self.contained(|engine| {
            engine.chaos_hit(FaultSite::WalAppend)?;
            engine.check_wal_not_poisoned()?;
            let dur = engine.durability.as_mut().expect("checked durable above");
            let record = WalRecord::Source {
                seq: dur.next_seq,
                text: text.to_string(),
            };
            let start = engine.tracing.then(std::time::Instant::now);
            dur.writer.append(&record)?;
            dur.next_seq += 1;
            engine.stats.wal_appends += 1;
            engine.record_wal_append(start);
            Ok(())
        })
    }

    /// Last sequence number this durable session has logged: `None` for
    /// in-memory sessions, `Some(0)` before the first record. On a leader this
    /// is the publisher position followers chase; on a follower it is the
    /// replication position (the two advance in lockstep because shipped
    /// frames keep their leader sequence numbers).
    pub fn wal_last_seq(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.next_seq - 1)
    }

    /// Apply a batch of shipped log records (replication's follower path):
    /// each record is appended to this session's own log *verbatim* — keeping
    /// the leader's sequence number, so the follower's log position mirrors the
    /// leader's — and then applied through the recovery-replay path. At-most-
    /// once: records at sequences already applied are skipped silently (poll
    /// redelivery); a sequence *gap* is an error, because applying past it
    /// would silently diverge from the leader. Returns how many records were
    /// newly applied. Errors when the session is not durable — a follower
    /// without its own log could not survive its own crash.
    pub(crate) fn apply_replicated(
        &mut self,
        records: Vec<WalRecord>,
    ) -> Result<usize, EngineError> {
        if self.durability.is_none() {
            return Err(EngineError::Durability(
                "replication requires a durable session (open it with open_durable)".to_string(),
            ));
        }
        let mut applied = 0usize;
        for record in records {
            let expected = self
                .durability
                .as_ref()
                .expect("checked durable above")
                .next_seq;
            let seq = record.seq();
            if seq < expected {
                continue;
            }
            if seq > expected {
                return Err(EngineError::Durability(format!(
                    "replication gap: expected frame {expected}, got {seq}"
                )));
            }
            self.check_wal_not_poisoned()?;
            {
                let dur = self.durability.as_mut().expect("checked durable above");
                dur.writer.append(&record)?;
                dur.next_seq = seq + 1;
            }
            self.stats.wal_appends += 1;
            // Apply with durability detached: the nested apply must not log a
            // second copy of the record it is replaying. Errors are ignored
            // exactly as recovery ignores them — a shipped record is a
            // deterministic re-execution of something the leader already
            // committed, so any error it raises here is one the leader's
            // history already includes.
            let dur = self.durability.take();
            match record {
                WalRecord::Txn { ops, .. } => {
                    let ops = ops
                        .into_iter()
                        .map(|(op, predicate, tuple)| {
                            let op = match op {
                                WalOp::Assert => TxnOp::Assert,
                                WalOp::Retract => TxnOp::Retract,
                            };
                            (op, predicate, tuple)
                        })
                        .collect();
                    let _ = self.apply_txn(ops);
                }
                WalRecord::Source { text, .. } => {
                    let _ = self.load_source(&text);
                }
            }
            self.durability = dur;
            self.stats.wal_replays += 1;
            applied += 1;
        }
        self.wal_maybe_compact()?;
        Ok(applied)
    }

    /// Replace this durable session's state with a shipped snapshot text
    /// (replication's full bootstrap: the leader compacted past the follower's
    /// position, so frames alone cannot catch it up). The snapshot's
    /// `% wal-seq` stamp becomes the session's log position — the restore
    /// persists the snapshot locally and resets the log, so a crash right
    /// after bootstrap recovers to exactly the shipped image. Returns the
    /// sequence number the snapshot includes.
    pub(crate) fn bootstrap_from_snapshot_text(&mut self, text: &str) -> Result<u64, EngineError> {
        let Some(dur) = self.durability.as_mut() else {
            return Err(EngineError::Durability(
                "replication requires a durable session (open it with open_durable)".to_string(),
            ));
        };
        let snapshot = Snapshot::from_text(text)?;
        let seq = parse_wal_seq(text);
        let prev_next_seq = dur.next_seq;
        // Stamp the position *before* the restore: `wal_persist_restore` writes
        // the local snapshot with `next_seq - 1`, which must be the shipped seq.
        dur.next_seq = seq + 1;
        if let Err(error) = self.restore(&snapshot) {
            if let Some(dur) = self.durability.as_mut() {
                dur.next_seq = prev_next_seq;
            }
            return Err(error);
        }
        Ok(seq)
    }

    /// A writer poisoned by an earlier mid-commit failure behaves like a crashed
    /// process: every further append is rejected with a message pointing at the
    /// recovery path (reopen the data directory, which truncates the torn
    /// record) instead of a confusing low-level write error.
    fn check_wal_not_poisoned(&self) -> Result<(), EngineError> {
        let poisoned = self
            .durability
            .as_ref()
            .is_some_and(|dur| dur.writer.is_poisoned());
        if poisoned {
            return Err(EngineError::Durability(
                "the transaction log failed mid-commit; reopen the data directory to \
                 recover (the torn record is discarded on replay)"
                    .to_string(),
            ));
        }
        Ok(())
    }

    /// Record one successful WAL append into the tracing layer: the whole append
    /// as a `wal_append` span and, when the append fsync'd, the fsync portion
    /// alone into the `wal_fsync` histogram. No-op when `start` is `None`
    /// (tracing was off when the append began).
    fn record_wal_append(&mut self, start: Option<std::time::Instant>) {
        let Some(start) = start else { return };
        let elapsed = start.elapsed();
        let fsync_ns = self
            .durability
            .as_ref()
            .and_then(|dur| dur.writer.last_fsync_ns());
        if let Some(metrics) = self.metrics.as_deref_mut() {
            metrics.wal_append.record(elapsed);
            if let Some(ns) = fsync_ns {
                metrics.wal_fsync.record_ns(ns);
            }
        }
    }

    /// Compact if the log has outgrown the configured threshold. Called at the
    /// end of every logged mutation; a compaction error surfaces on that commit
    /// (the commit itself is already durable — both the old and the half-compacted
    /// directory recover to it).
    pub(crate) fn wal_maybe_compact(&mut self) -> Result<(), EngineError> {
        let Some(dur) = self.durability.as_ref() else {
            return Ok(());
        };
        if dur.writer.is_empty() || dur.writer.len() <= dur.options.compact_threshold {
            return Ok(());
        }
        self.compact()?;
        Ok(())
    }

    /// Persist a full state replacement ([`Engine::restore`] on a durable
    /// session): the *staged* image becomes the on-disk snapshot and the log
    /// resets — there is no meaningful log delta against a replaced state.
    ///
    /// Called *before* the staged state is swapped into memory, so an error here
    /// (snapshot unwritable) leaves memory and disk agreeing on the old state.
    /// Once the rename lands the restore is durable; resetting the log after it is
    /// best-effort — a reset failure keeps the old writer, whose stale records are
    /// sequence-skipped by recovery while new appends replay normally.
    pub(crate) fn wal_persist_restore(&mut self, staged: &Engine) -> Result<(), EngineError> {
        let Some(dur) = self.durability.as_ref() else {
            return Ok(());
        };
        let snapshot_seq = dur.next_seq - 1;
        let dir = dur.dir.clone();
        let fsync = dur.options.fsync;
        let fault = dur.compaction_fault;
        let text = snapshot_text_with_seq(&staged.snapshot(), snapshot_seq);
        persist_snapshot_atomically(&dir, &text, fsync, fault)?;
        if let Ok(writer) = WalWriter::create(dir.join(WAL_FILE), fsync) {
            self.durability
                .as_mut()
                .expect("checked durable above")
                .writer = writer;
        }
        self.stats.wal_compactions += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use factorlog_datalog::parser::parse_query;

    fn c(i: i64) -> Const {
        Const::Int(i)
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "factorlog_durability_{tag}_{}_{n}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    const TC: &str = "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).";

    #[test]
    fn durable_sessions_survive_reopen() {
        let dir = fresh_dir("reopen");
        let query = parse_query("t(0, Y)").unwrap();
        {
            let mut engine = Engine::open_durable(&dir).unwrap();
            assert!(engine.is_durable());
            assert_eq!(engine.data_dir(), Some(dir.as_path()));
            engine.load_source(TC).unwrap();
            for i in 0..4 {
                engine.insert("e", &[c(i), c(i + 1)]).unwrap();
            }
            let mut txn = engine.transaction();
            txn.retract("e", &[c(1), c(2)]).assert("e", &[c(1), c(9)]);
            txn.commit().unwrap();
            assert_eq!(engine.stats().wal_appends, 6);
            // Dropped without any clean-shutdown step: the log is the truth.
        }
        let mut reopened = Engine::open_durable(&dir).unwrap();
        let report = reopened.recovery_report().unwrap().clone();
        assert!(!report.snapshot_loaded);
        assert_eq!(report.records_replayed, 6);
        assert_eq!(reopened.stats().wal_replays, 6);
        let answers = reopened.query(&query).unwrap();
        assert_eq!(answers, vec![vec![c(1)], vec![c(9)]]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_resets_the_log_and_preserves_the_image() {
        let dir = fresh_dir("compact");
        let query = parse_query("t(0, Y)").unwrap();
        let mut engine = Engine::open_durable(&dir).unwrap();
        engine.load_source(TC).unwrap();
        for i in 0..5 {
            engine.insert("e", &[c(i), c(i + 1)]).unwrap();
        }
        let before = engine.wal_len().unwrap();
        let report = engine.compact().unwrap();
        assert_eq!(report.log_bytes_before, before);
        assert!(report.log_bytes_after < before);
        assert_eq!(engine.stats().wal_compactions, 1);
        assert_eq!(report.snapshot_seq, 6);

        // More commits after the compaction land in the fresh log.
        engine.insert("e", &[c(5), c(6)]).unwrap();
        let answers = engine.query(&query).unwrap();
        drop(engine);

        let mut reopened = Engine::open_durable(&dir).unwrap();
        let rec = reopened.recovery_report().unwrap().clone();
        assert!(rec.snapshot_loaded);
        assert_eq!(rec.snapshot_seq, 6);
        assert_eq!(rec.records_replayed, 1);
        assert_eq!(reopened.query(&query).unwrap(), answers);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn automatic_compaction_honors_the_threshold() {
        let dir = fresh_dir("auto");
        let options = DurabilityOptions {
            fsync: false,
            compact_threshold: 64,
        };
        let mut engine = Engine::open_durable_with(&dir, options).unwrap();
        engine.load_source(TC).unwrap();
        for i in 0..12 {
            engine.insert("e", &[c(i), c(i + 1)]).unwrap();
        }
        assert!(
            engine.stats().wal_compactions > 0,
            "64-byte threshold must have compacted"
        );
        assert!(engine.wal_len().unwrap() <= 64 + 8);
        let query = parse_query("t(0, Y)").unwrap();
        assert_eq!(engine.query(&query).unwrap().len(), 12);
        drop(engine);
        let mut reopened = Engine::open_durable(&dir).unwrap();
        assert_eq!(reopened.query(&query).unwrap().len(), 12);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_seq_round_trips_through_the_comment_line() {
        let mut engine = Engine::new();
        engine.load_source("e(1, 2).").unwrap();
        let text = snapshot_text_with_seq(&engine.snapshot(), 42);
        assert!(text.starts_with(crate::engine::SNAPSHOT_HEADER));
        assert!(text.contains("% wal-seq: 42"));
        assert_eq!(parse_wal_seq(&text), 42);
        // Still a valid v1 snapshot.
        let snapshot = Snapshot::from_text(&text).unwrap();
        let restored = Engine::from_snapshot(&snapshot).unwrap();
        assert_eq!(restored.facts().count("e"), 1);
        // A hand-copied :save snapshot has no seq line: defaults to 0.
        assert_eq!(parse_wal_seq(engine.snapshot().as_str()), 0);
    }

    #[test]
    fn torn_log_append_fails_the_commit_but_keeps_history() {
        let dir = fresh_dir("torn_commit");
        let query = parse_query("t(0, Y)").unwrap();
        let mut engine = Engine::open_durable(&dir).unwrap();
        engine.load_source(TC).unwrap();
        engine.insert("e", &[c(0), c(1)]).unwrap();
        // Crash the writer 3 bytes into the next record.
        engine.set_wal_fault(Some(FaultPoint { budget: 3 }));
        let err = engine.insert("e", &[c(1), c(2)]).unwrap_err();
        assert!(matches!(err, EngineError::Durability(_)));
        // The failed commit did not apply in memory…
        assert_eq!(engine.facts().count("e"), 1);
        drop(engine);
        // …and recovery truncates the torn bytes, keeping the first commit.
        let mut reopened = Engine::open_durable(&dir).unwrap();
        let report = reopened.recovery_report().unwrap().clone();
        assert_eq!(report.torn_bytes_truncated, 3);
        assert_eq!(reopened.stats().wal_torn_truncations, 1);
        assert_eq!(reopened.query(&query).unwrap(), vec![vec![c(1)]]);
        // The reopened session appends cleanly where the tear was.
        reopened.insert("e", &[c(1), c(2)]).unwrap();
        assert_eq!(reopened.query(&query).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_inserts_do_not_grow_the_log() {
        let dir = fresh_dir("dup");
        let mut engine = Engine::open_durable(&dir).unwrap();
        engine.load_source(TC).unwrap();
        assert!(engine.insert("e", &[c(1), c(2)]).unwrap());
        assert!(engine.insert("t", &[c(9), c(10)]).unwrap()); // asserted IDB fact
        let len = engine.wal_len().unwrap();
        let appends = engine.stats().wal_appends;
        // Idempotent re-inserts (EDB and IDB alike) are no-ops: no record, no fsync.
        assert!(!engine.insert("e", &[c(1), c(2)]).unwrap());
        assert!(!engine.insert("t", &[c(9), c(10)]).unwrap());
        assert_eq!(engine.wal_len().unwrap(), len);
        assert_eq!(engine.stats().wal_appends, appends);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_on_a_durable_session_persists_the_new_image() {
        let dir = fresh_dir("restore");
        let query = parse_query("t(0, Y)").unwrap();
        let mut other = Engine::new();
        other.load_source(TC).unwrap();
        other.insert("e", &[c(0), c(7)]).unwrap();
        let snapshot = other.snapshot();

        let mut engine = Engine::open_durable(&dir).unwrap();
        engine.load_source("junk(1).").unwrap();
        engine.restore(&snapshot).unwrap();
        assert_eq!(engine.query(&query).unwrap(), vec![vec![c(7)]]);
        drop(engine);

        let mut reopened = Engine::open_durable(&dir).unwrap();
        assert_eq!(reopened.query(&query).unwrap(), vec![vec![c(7)]]);
        assert_eq!(reopened.facts().count("junk"), 0, "old state replaced");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn second_open_of_a_locked_directory_is_refused() {
        let dir = fresh_dir("lock");
        let mut engine = Engine::open_durable(&dir).unwrap();
        engine.insert("e", &[c(1), c(2)]).unwrap();
        assert!(dir.join(LOCK_FILE).exists(), "LOCK is on disk while open");

        // Double-open (same process) is refused with the structured error.
        let Err(err) = Engine::open_durable(&dir) else {
            panic!("double-open must be refused");
        };
        let EngineError::Locked { dir: locked, pid } = err else {
            panic!("expected Locked, got {err}");
        };
        assert_eq!(locked, dir);
        assert_eq!(pid, std::process::id());
        // The refused opener must not have clobbered the holder's lock.
        assert!(dir.join(LOCK_FILE).exists());
        engine.insert("e", &[c(2), c(3)]).unwrap();

        // Dropping the holder releases the lock; the next opener gets in and
        // sees the full history.
        drop(engine);
        assert!(!dir.join(LOCK_FILE).exists(), "drop releases the LOCK");
        let reopened = Engine::open_durable(&dir).unwrap();
        assert_eq!(reopened.facts().count("e"), 2);
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_lock_from_a_dead_process_is_reclaimed() {
        let dir = fresh_dir("stale_lock");
        std::fs::create_dir_all(&dir).unwrap();
        // No live process has this PID (kernel pid_max caps real PIDs well
        // below u32::MAX), so the lock must be treated as stale.
        std::fs::write(dir.join(LOCK_FILE), format!("{}\n", u32::MAX)).unwrap();
        let engine = Engine::open_durable(&dir).expect("stale lock is reclaimed");
        let text = std::fs::read_to_string(dir.join(LOCK_FILE)).unwrap();
        assert_eq!(text.trim().parse::<u32>().unwrap(), std::process::id());
        drop(engine);

        // Garbage lock contents are also reclaimed, not wedged on.
        std::fs::write(dir.join(LOCK_FILE), "not a pid").unwrap();
        let engine = Engine::open_durable(&dir).expect("garbage lock is reclaimed");
        drop(engine);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn close_durable_releases_the_lock_and_keeps_state() {
        let dir = fresh_dir("close");
        let mut engine = Engine::open_durable(&dir).unwrap();
        engine.load_source(TC).unwrap();
        engine.insert("e", &[c(0), c(1)]).unwrap();
        assert!(engine.close_durable());
        assert!(!engine.is_durable());
        assert!(!engine.close_durable(), "second close is a no-op");
        assert!(!dir.join(LOCK_FILE).exists());
        // In-memory state survives the detach; mutations are no longer logged.
        engine.insert("e", &[c(1), c(2)]).unwrap();
        let query = parse_query("t(0, Y)").unwrap();
        assert_eq!(engine.query(&query).unwrap().len(), 2);
        // The directory is re-openable while the detached session lives, and
        // only holds the logged prefix.
        let mut reopened = Engine::open_durable(&dir).unwrap();
        assert_eq!(reopened.query(&query).unwrap().len(), 1);
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_requires_a_durable_session() {
        let mut engine = Engine::new();
        assert!(matches!(engine.compact(), Err(EngineError::Durability(_))));
        assert!(!engine.set_wal_fault(None));
        assert!(!engine.set_compaction_fault(None));
        assert!(engine.wal_len().is_none());
        assert!(engine.recovery_report().is_none());
        assert!(engine.data_dir().is_none());
    }
}
