//! WAL log-shipping replication: read replicas that follow a leader's
//! transaction log over the line protocol, plus lease-based failover.
//!
//! # Topology
//!
//! ```text
//!                       ┌───────────────────────────────┐
//!    writers ── TXN ──▶ │ leader (serve)                │
//!                       │  wal.log = committed truth    │
//!                       └──────┬────────────┬───────────┘
//!          REPL SUBSCRIBE <seq>│            │REPL SUBSCRIBE <seq>
//!              FRAME*/SNAP ────▼──          ▼
//!                       ┌───────────┐ ┌───────────┐
//!    readers ─ QUERY ──▶│ follower  │ │ follower  │  lock-free snapshot reads
//!                       │ (replica) │ │ (replica) │  (stale-bounded by poll lag)
//!                       └───────────┘ └───────────┘
//! ```
//!
//! Followers poll the leader with `REPL SUBSCRIBE <from_seq> term=<T> id=<I>`;
//! the leader streams the committed WAL frames at and after `from_seq`
//! (hex-encoded, one per `FRAME` line) straight from its on-disk log — commits
//! are fsync'd before they are acknowledged, so the log *is* the publisher and
//! no writer-side coupling is needed. When the leader has compacted past the
//! follower's position it ships its snapshot instead (`SNAP` line); the
//! follower bootstraps from it and resumes frame catch-up from the snapshot's
//! sequence number.
//!
//! # Consistency
//!
//! * **Apply-at-most-once.** Shipped frames keep the leader's sequence
//!   numbers; a follower appends each to its own log verbatim and applies it
//!   through the recovery-replay path, skipping sequences it already holds and
//!   refusing gaps. Replay of one totally ordered log on every node is why
//!   replicas converge: the WAL fixes one serialization out of the many
//!   admissible interleavings of concurrent transactions.
//! * **Stale-bounded reads.** A follower serves queries from its latest
//!   applied view — a consistent committed prefix of the leader's history, at
//!   most one poll interval (plus in-flight frames) behind.
//! * **Lease-based failover.** A follower counts the leader as live while any
//!   poll succeeded within the lease timeout. Promotion (`PROMOTE`, REPL
//!   `:promote`, or [`Replica::promote`]) is refused while the lease is
//!   valid, and otherwise bumps the node's *term* (persisted in a `TERM` file
//!   in the data directory) and starts accepting writes. A revived ex-leader
//!   is *fenced* the moment it sees a newer term — from any subscriber's poll
//!   — and refuses writes until it is restarted as a follower of the new
//!   leader, which demotes it cleanly (its committed history is a prefix of
//!   the new leader's, so catch-up is ordinary frame shipping).

use std::collections::HashMap;
use std::net::ToSocketAddrs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use factorlog_datalog::ast::Const;

use crate::durability::{parse_wal_seq, DurabilityOptions, SNAPSHOT_FILE, WAL_FILE};
use crate::engine::{Engine, EngineError};
use crate::server::codec::{render_err, Promoted, Reply, Request};
use crate::server::{serve_inner, Client, ClientError, ServeError, ServerHandle, ServerOptions};
use crate::wal::{self, WalRecord};

/// Most WAL frames the leader ships per `REPL SUBSCRIBE` poll (bounds both the
/// reply size and how long one poll holds the reactor).
const REPL_BATCH_FRAMES: usize = 512;

/// Followers absent from `REPL SUBSCRIBE` for this long drop out of the
/// leader's lag accounting (they are likely gone, not lagging).
const FOLLOWER_PRUNE: Duration = Duration::from_secs(60);

/// File name (inside a data directory) persisting the node's replication term:
/// a monotonically increasing integer bumped by every promotion, the fencing
/// token that lets a new leader supersede a revived old one.
pub const TERM_FILE: &str = "TERM";

/// The replication role a node is in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReplicaRole {
    /// Accepts writes and publishes its log to subscribers. Every plain
    /// [`serve`](crate::serve)d node is a leader (possibly with no followers).
    #[default]
    Leader,
    /// Read-only: applies the leader's shipped frames, serves snapshot
    /// queries, and can promote once the leader's lease expires.
    Follower,
    /// An ex-leader that observed a newer term: refuses writes (a split brain
    /// would otherwise fork the history) until restarted as a follower.
    Fenced,
}

impl ReplicaRole {
    /// The lowercase protocol name (`leader` / `follower` / `fenced`).
    pub fn as_str(self) -> &'static str {
        match self {
            ReplicaRole::Leader => "leader",
            ReplicaRole::Follower => "follower",
            ReplicaRole::Fenced => "fenced",
        }
    }

    pub(crate) fn as_u8(self) -> u8 {
        match self {
            ReplicaRole::Leader => 0,
            ReplicaRole::Follower => 1,
            ReplicaRole::Fenced => 2,
        }
    }

    pub(crate) fn from_u8(v: u8) -> ReplicaRole {
        match v {
            1 => ReplicaRole::Follower,
            2 => ReplicaRole::Fenced,
            _ => ReplicaRole::Leader,
        }
    }
}

impl std::fmt::Display for ReplicaRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Parse a protocol role name (the inverse of [`ReplicaRole::as_str`]).
impl std::str::FromStr for ReplicaRole {
    type Err = String;

    fn from_str(s: &str) -> Result<ReplicaRole, String> {
        match s {
            "leader" => Ok(ReplicaRole::Leader),
            "follower" => Ok(ReplicaRole::Follower),
            "fenced" => Ok(ReplicaRole::Fenced),
            _ => Err(format!("unknown replication role `{s}`")),
        }
    }
}

/// Tuning knobs of a follower.
#[derive(Clone, Debug)]
pub struct ReplicationOptions {
    /// How often the follower polls the leader for new frames.
    pub poll_interval: Duration,
    /// How long after the last successful leader contact the leader's lease is
    /// considered expired (promotion is refused before that — the leader may
    /// merely be slow, and two live leaders would fork the history).
    pub lease_timeout: Duration,
    /// Most frames one poll will request (the leader may cap lower).
    pub batch_frames: usize,
}

impl Default for ReplicationOptions {
    fn default() -> Self {
        ReplicationOptions {
            poll_interval: Duration::from_millis(20),
            lease_timeout: Duration::from_millis(750),
            batch_frames: 512,
        }
    }
}

/// Read the persisted term of a data directory (0 when the `TERM` file is
/// absent or unreadable — a node that never took part in a failover).
pub(crate) fn read_term(dir: &Path) -> u64 {
    std::fs::read_to_string(dir.join(TERM_FILE))
        .ok()
        .and_then(|text| text.trim().parse().ok())
        .unwrap_or(0)
}

/// Persist `term` in the data directory's `TERM` file (fsync'd: a promotion
/// must survive the promoted node's own crash, or a revived ex-leader could
/// reclaim leadership it already lost).
pub(crate) fn persist_term(dir: &Path, term: u64) -> Result<(), EngineError> {
    let path = dir.join(TERM_FILE);
    let write = || -> std::io::Result<()> {
        use std::io::Write as _;
        let mut file = std::fs::File::create(&path)?;
        file.write_all(format!("{term}\n").as_bytes())?;
        file.sync_data()
    };
    write().map_err(|e| EngineError::Io(format!("cannot write {}: {e}", path.display())))
}

/// Hex-encode `bytes` (lowercase) — WAL frames and snapshots ship hex-encoded
/// so the line protocol stays line-safe.
pub(crate) fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0xF) as usize] as char);
    }
    out
}

/// Decode a hex string produced by [`to_hex`].
pub(crate) fn from_hex(text: &str) -> Result<Vec<u8>, String> {
    let text = text.trim();
    if !text.len().is_multiple_of(2) {
        return Err("odd-length hex payload".to_string());
    }
    let nibble = |c: u8| -> Result<u8, String> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(format!("bad hex digit `{}`", c as char)),
        }
    };
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
    }
    Ok(out)
}

/// Compute the leader-side answer to one subscription poll, straight from the
/// data directory: the on-disk log is the committed truth (commits fsync
/// before acknowledging), so no coupling to the writer thread is needed.
/// Ships a contiguous run of frames from `from_seq` (none when caught up, or
/// transiently mid-compaction), or the snapshot when compaction reset the log
/// past `from_seq`. The reply's `term` is left for the caller to stamp.
pub(crate) fn stream_step(
    dir: &Path,
    from_seq: u64,
    max_frames: usize,
) -> Result<SubscribeReply, EngineError> {
    let snapshot = match std::fs::read_to_string(dir.join(SNAPSHOT_FILE)) {
        Ok(text) => Some(text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(EngineError::Io(format!("cannot read snapshot: {e}"))),
    };
    let snap_seq = snapshot.as_deref().map(parse_wal_seq).unwrap_or(0);
    let read = wal::read_frames_from(&dir.join(WAL_FILE), from_seq, max_frames)?;
    let last_seq = read.last_seq.unwrap_or(0).max(snap_seq);
    let reply = |snapshot, frames| SubscribeReply {
        snapshot,
        frames,
        last_seq,
        term: 0,
    };
    Ok(match read.first_seq {
        // The log supplies `from_seq` contiguously: ship frames.
        Some(first) if first == from_seq => reply(None, read.frames),
        // Caught up (or ahead — a stale node polling a behind one): nothing to ship.
        None if from_seq > last_seq => reply(None, Vec::new()),
        // The log starts after `from_seq` (a compaction raced the follower):
        // bootstrap from the snapshot when it covers the gap.
        _ => match snapshot {
            Some(text) if snap_seq + 1 >= from_seq => reply(Some(text), Vec::new()),
            // No snapshot that reaches back far enough — a transient state
            // (e.g. mid-compaction): ship nothing, the follower retries.
            _ => reply(None, Vec::new()),
        },
    })
}

/// The parsed reply of one `REPL SUBSCRIBE` poll (see [`Client::subscribe`]).
#[derive(Debug, PartialEq)]
pub struct SubscribeReply {
    /// A full snapshot to bootstrap from (the leader compacted past the
    /// requested position); `None` on ordinary frame polls.
    pub snapshot: Option<String>,
    /// The shipped frames, in log order (empty when caught up or when a
    /// snapshot is shipped instead).
    pub frames: Vec<WalRecord>,
    /// The leader's overall committed position (lag = `last_seq` minus the
    /// follower's applied position).
    pub last_seq: u64,
    /// The leader's term.
    pub term: u64,
}

impl Client {
    /// One replication poll: ask the server for committed WAL frames from
    /// `from_seq` on, identifying ourselves with our `term` (fencing: a term
    /// newer than the server's proves a newer leader exists and demotes it)
    /// and follower `id` (per-follower lag tracking in the leader's `STATS`).
    pub fn subscribe(
        &mut self,
        from_seq: u64,
        term: u64,
        id: u64,
    ) -> Result<SubscribeReply, ClientError> {
        self.call(Request::Subscribe { from_seq, term, id })
    }

    /// Ask the server to promote itself to leader. Succeeds (idempotently)
    /// when it already leads, errs with code `lease` while the current
    /// leader's lease is still valid, and with code `fenced` on a superseded
    /// ex-leader. Returns the server's role and term after the call.
    pub fn promote(&mut self) -> Result<(ReplicaRole, u64), ClientError> {
        self.call(Request::Promote)
            .map(|Promoted { role, term }| (role, term))
    }
}

/// Why [`RoleState::promote`] refused.
pub(crate) enum PromoteError {
    /// A superseded ex-leader; carries the newer term.
    Fenced(u64),
    /// The leader's lease is still valid for this many ms.
    Lease(u64),
    /// The bumped term could not be persisted; nothing changed.
    Persist(EngineError),
}

/// A node's one promotion state: role, term, lease clock and leader position.
/// A [`Replica`] and the server serving it hold the same `Arc`, so `PROMOTE`
/// over the wire and [`Replica::promote`] run the same lease-gated,
/// persist-then-flip [`RoleState::promote`], and neither side mirrors the
/// other. A plain served leader holds one too (term from its `TERM` file).
pub(crate) struct RoleState {
    /// [`ReplicaRole`] as a `u8` (`as_u8`/`from_u8`).
    role: AtomicU8,
    term: AtomicU64,
    /// The leader's committed position as of the last successful poll.
    leader_seq: AtomicU64,
    /// ms since `started` of the last successful leader contact — the lease
    /// clock. 0 means "contacted at creation": a fresh follower must wait out
    /// one full lease before it can promote.
    last_contact_ms: AtomicU64,
    started: Instant,
    lease_timeout: Duration,
    /// Where the term persists (`None`: a non-durable leader, nothing to fence).
    data_dir: Option<PathBuf>,
}

impl RoleState {
    /// A node in `role` whose term is the one persisted in `data_dir`.
    pub(crate) fn new(
        role: ReplicaRole,
        data_dir: Option<PathBuf>,
        lease_timeout: Duration,
    ) -> RoleState {
        RoleState {
            role: AtomicU8::new(role.as_u8()),
            term: AtomicU64::new(data_dir.as_deref().map(read_term).unwrap_or(0)),
            leader_seq: AtomicU64::new(0),
            last_contact_ms: AtomicU64::new(0),
            started: Instant::now(),
            lease_timeout,
            data_dir,
        }
    }

    pub(crate) fn role(&self) -> ReplicaRole {
        ReplicaRole::from_u8(self.role.load(Ordering::Acquire))
    }

    pub(crate) fn term(&self) -> u64 {
        self.term.load(Ordering::Acquire)
    }

    pub(crate) fn leader_seq(&self) -> u64 {
        self.leader_seq.load(Ordering::Acquire)
    }

    /// A poll reached a live leader at `leader_seq`: renew the lease.
    pub(crate) fn contacted(&self, leader_seq: u64) {
        self.leader_seq.store(leader_seq, Ordering::Release);
        self.last_contact_ms
            .store(self.started.elapsed().as_millis() as u64, Ordering::Release);
    }

    /// Milliseconds since the last successful leader contact.
    ///
    /// The contact stamp is loaded FIRST: `started.elapsed()` taken after the
    /// load is ≥ every stamp recorded before it, so the subtraction cannot
    /// underflow. A contact landing after the load only makes the result an
    /// overestimate bounded by the load-to-elapsed gap, which is the safe
    /// direction for both the lease gate and the lag stat.
    pub(crate) fn ms_since_contact(&self) -> u64 {
        let contact = self.last_contact_ms.load(Ordering::Acquire);
        (self.started.elapsed().as_millis() as u64).saturating_sub(contact)
    }

    /// Milliseconds left on the leader's lease (0 once it has expired).
    fn lease_remaining_ms(&self) -> u64 {
        (self.lease_timeout.as_millis() as u64).saturating_sub(self.ms_since_contact())
    }

    /// A peer proved a leader of `term` exists: adopt a newer term (persisted)
    /// and, if this node was leading, fence it.
    pub(crate) fn observe_term(&self, term: u64) -> Result<(), EngineError> {
        if term <= self.term() {
            return Ok(());
        }
        self.term.fetch_max(term, Ordering::AcqRel);
        let _ = self.role.compare_exchange(
            ReplicaRole::Leader.as_u8(),
            ReplicaRole::Fenced.as_u8(),
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        match &self.data_dir {
            Some(dir) => persist_term(dir, term),
            None => Ok(()),
        }
    }

    /// Promote to leader: idempotent on a leader, refused on a fenced
    /// ex-leader, and on a follower gated by the lease — only once the leader
    /// has been out of contact for a full lease timeout does the term bump,
    /// persisted BEFORE the role flips (a promotion that did not survive our
    /// own crash could let the old leader fence us back). Returns the term.
    pub(crate) fn promote(&self) -> Result<u64, PromoteError> {
        match self.role() {
            ReplicaRole::Leader => Ok(self.term()),
            ReplicaRole::Fenced => Err(PromoteError::Fenced(self.term())),
            ReplicaRole::Follower => {
                let remaining = self.lease_remaining_ms();
                if remaining > 0 {
                    return Err(PromoteError::Lease(remaining));
                }
                let new_term = self.term() + 1;
                if let Some(dir) = &self.data_dir {
                    persist_term(dir, new_term).map_err(PromoteError::Persist)?;
                }
                self.term.store(new_term, Ordering::Release);
                // A concurrent PROMOTE may win this race; both persisted the
                // same term, so reporting the shared outcome is correct.
                let _ = self.role.compare_exchange(
                    ReplicaRole::Follower.as_u8(),
                    ReplicaRole::Leader.as_u8(),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
                Ok(self.term())
            }
        }
    }
}

/// One follower's drain position, as observed from its `REPL SUBSCRIBE` polls
/// (leader-side lag accounting for `STATS`).
struct FollowerLag {
    /// The last sequence number the follower holds (its poll asked for the
    /// next one).
    seq: u64,
    last_poll: Instant,
}

/// The replication facet of a served node: its [`RoleState`] plus what only
/// the server tracks. Present on every server — a plain
/// [`serve`](crate::serve)d node is simply a leader (possibly of term 0, with
/// no followers).
pub(crate) struct ReplState {
    pub(crate) state: Arc<RoleState>,
    /// The log position the published view includes: the leader's writer
    /// advances it after each group commit, a follower after each view it
    /// publishes.
    pub(crate) last_seq: AtomicU64,
    /// Started as a follower: lag is measured against the leader.
    follows: bool,
    /// Leader only: per-follower drain positions from recent polls.
    followers: Mutex<HashMap<u64, FollowerLag>>,
}

impl ReplState {
    pub(crate) fn new(state: Arc<RoleState>, last_seq: u64, follows: bool) -> ReplState {
        ReplState {
            state,
            last_seq: AtomicU64::new(last_seq),
            follows,
            followers: Mutex::new(HashMap::new()),
        }
    }

    /// `(followers, lag_frames, lag_ms)` for `STATS`: a replica's published
    /// view against its leader (`lag_ms` = ms since the last leader contact),
    /// or a leader's worst lag over the followers polling it recently.
    pub(crate) fn lag(&self) -> (u64, u64, u64) {
        let last_seq = self.last_seq.load(Ordering::Acquire);
        if self.follows {
            let lag = self.state.leader_seq().saturating_sub(last_seq);
            return (0, lag, self.state.ms_since_contact());
        }
        let mut followers = self.followers.lock().expect("follower map poisoned");
        followers.retain(|_, lag| lag.last_poll.elapsed() < FOLLOWER_PRUNE);
        let lag_frames = followers
            .values()
            .map(|f| last_seq.saturating_sub(f.seq))
            .max()
            .unwrap_or(0);
        let lag_ms = followers
            .values()
            .map(|f| f.last_poll.elapsed().as_millis() as u64)
            .max()
            .unwrap_or(0);
        (followers.len() as u64, lag_frames, lag_ms)
    }
}

/// Answer `REPL SUBSCRIBE`: stream committed WAL frames (or a snapshot when
/// compaction outran the subscriber) straight from the data directory, and
/// fence ourselves when the poll proves a newer term.
pub(crate) fn handle_subscribe(
    repl: &ReplState,
    from_seq: u64,
    term: u64,
    id: u64,
    out: &mut Vec<u8>,
) {
    let state = &repl.state;
    let Some(dir) = state.data_dir.as_deref() else {
        return render_err(
            out,
            "repl",
            "this server is not durable; nothing to replicate",
        );
    };
    // Fencing: a subscriber carrying a newer term proves a newer leader was
    // elected. A leader flips to fenced before answering; a follower simply
    // adopts the term and keeps serving frames (chained replication stays
    // valid: our log is a committed prefix).
    let _ = state.observe_term(term);
    if state.role() == ReplicaRole::Fenced {
        return render_err(
            out,
            "fenced",
            &format!("superseded by term {}", state.term()),
        );
    }
    let reply = match stream_step(dir, from_seq, REPL_BATCH_FRAMES) {
        Ok(reply) => reply,
        Err(error) => return render_err(out, "repl", &error.to_string()),
    };
    // Record this follower's drain position for leader-side lag accounting.
    if id != 0 {
        let mut followers = repl.followers.lock().expect("follower map poisoned");
        followers.retain(|_, lag| lag.last_poll.elapsed() < FOLLOWER_PRUNE);
        followers.insert(
            id,
            FollowerLag {
                seq: from_seq.saturating_sub(1),
                last_poll: Instant::now(),
            },
        );
    }
    SubscribeReply {
        term: state.term(),
        ..reply
    }
    .render(out);
}

/// Answer `PROMOTE` through [`RoleState::promote`]; once the role flips, the
/// follower's apply loop becomes the writer.
pub(crate) fn handle_promote(repl: &ReplState, out: &mut Vec<u8>) {
    match repl.state.promote() {
        Ok(term) => Promoted {
            role: ReplicaRole::Leader,
            term,
        }
        .render(out),
        Err(PromoteError::Fenced(term)) => render_err(
            out,
            "fenced",
            &format!("superseded by term {term}; restart this node as a follower"),
        ),
        Err(PromoteError::Lease(ms)) => render_err(
            out,
            "lease",
            &format!("leader lease still valid for {ms} more ms; refusing promotion"),
        ),
        Err(PromoteError::Persist(error)) => render_err(out, "repl", &error.to_string()),
    }
}

/// What one [`Replica::sync_once`] poll did.
#[derive(Clone, Copy, Debug, Default)]
pub struct SyncReport {
    /// Did the poll reach a live, non-fenced publisher? (Renews the lease.)
    pub contacted: bool,
    /// Frames newly applied by this poll.
    pub frames_applied: usize,
    /// Did this poll bootstrap from a shipped snapshot?
    pub bootstrapped: bool,
    /// Did the polled node report *itself* fenced (our term supersedes it)?
    pub fenced_leader: bool,
}

/// A point-in-time view of a replica's replication state, surfaced in the
/// REPL's `:stats` and the metrics JSON document.
#[derive(Clone, Debug)]
pub struct ReplicaStatus {
    /// Current role.
    pub role: ReplicaRole,
    /// Current term.
    pub term: u64,
    /// Last log sequence number applied locally.
    pub applied_seq: u64,
    /// The leader's position as of the last successful poll.
    pub leader_seq: u64,
    /// `leader_seq - applied_seq` (frames still to ship).
    pub lag_frames: u64,
    /// Frames applied over this replica's lifetime.
    pub frames_applied: u64,
    /// Snapshot bootstraps over this replica's lifetime.
    pub bootstraps: u64,
    /// The leader address this replica follows.
    pub leader: String,
}

/// An embeddable follower: a durable [`Engine`] plus the subscription loop
/// state — the building block under `factorlog serve --follow`, the REPL's
/// `:follow`, and the replication test harnesses. Call [`Replica::sync_once`]
/// (or [`Replica::catch_up`]) to poll; queries are served from the applied
/// state at any time; writes are refused until [`Replica::promote`] succeeds.
pub struct Replica {
    engine: Engine,
    leader: String,
    options: ReplicationOptions,
    client: Option<Client>,
    id: u64,
    /// Role, term, lease clock and leader position — shared with the server
    /// when this replica is served.
    state: Arc<RoleState>,
    frames_applied: u64,
    bootstraps: u64,
}

impl Replica {
    /// Open (or create) a durable data directory and follow `leader`, with
    /// default durability and replication options.
    pub fn open(dir: impl AsRef<Path>, leader: impl Into<String>) -> Result<Replica, EngineError> {
        let engine = Engine::open_durable_with(dir, DurabilityOptions::default())?;
        Replica::from_engine(engine, leader, ReplicationOptions::default())
    }

    /// Wrap an already-open durable engine as a follower of `leader`. The
    /// engine's persisted term (the `TERM` file) carries over. Errors when the
    /// engine is not durable — a follower without its own log could not
    /// survive its own crash.
    pub fn from_engine(
        engine: Engine,
        leader: impl Into<String>,
        options: ReplicationOptions,
    ) -> Result<Replica, EngineError> {
        let Some(dir) = engine.data_dir() else {
            return Err(EngineError::Durability(
                "a replica must be durable (open it with open_durable)".to_string(),
            ));
        };
        let state = RoleState::new(
            ReplicaRole::Follower,
            Some(dir.to_path_buf()),
            options.lease_timeout,
        );
        // A follower identity for the leader's per-follower lag map: unique
        // enough across processes and restarts (clock nanos xor pid).
        let id = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
            ^ ((std::process::id() as u64) << 32);
        Ok(Replica {
            engine,
            leader: leader.into(),
            options,
            client: None,
            id,
            state: Arc::new(state),
            frames_applied: 0,
            bootstraps: 0,
        })
    }

    /// The promotion state, for a server to share.
    pub(crate) fn role_state(&self) -> Arc<RoleState> {
        self.state.clone()
    }

    /// One subscription poll: connect (or reuse the connection), fetch the
    /// next batch, apply it. Network failures are *not* errors — the report
    /// comes back with `contacted: false` and the next poll reconnects; only
    /// local durability failures (this replica's own log or snapshot) err.
    pub fn sync_once(&mut self) -> Result<SyncReport, EngineError> {
        let mut report = SyncReport::default();
        if self.role() != ReplicaRole::Follower {
            self.client = None;
            return Ok(report);
        }
        let mut client = match self.client.take() {
            Some(client) => client,
            None => match Client::connect(self.leader.as_str()) {
                Ok(client) => client,
                Err(_) => return Ok(report),
            },
        };
        let from_seq = self.engine.wal_last_seq().unwrap_or(0) + 1;
        match client.subscribe(from_seq, self.term(), self.id) {
            Ok(reply) => {
                report.contacted = true;
                self.state.contacted(reply.last_seq);
                // A failover happened upstream: adopt the new term so our
                // own polls carry it onward.
                self.state.observe_term(reply.term)?;
                if let Some(text) = reply.snapshot {
                    self.engine.bootstrap_from_snapshot_text(&text)?;
                    report.bootstrapped = true;
                    self.bootstraps += 1;
                }
                if !reply.frames.is_empty() {
                    let applied = self.engine.apply_replicated(reply.frames)?;
                    report.frames_applied = applied;
                    self.frames_applied += applied as u64;
                }
                self.client = Some(client);
            }
            Err(ClientError::Server { code, .. }) if code == "fenced" => {
                // The polled node fenced itself against our newer term: it is
                // not a live leader, so the lease is deliberately NOT renewed.
                report.fenced_leader = true;
                self.client = Some(client);
            }
            Err(_) => {
                // Leader unreachable or mid-restart: drop the connection and
                // let the next poll redial. The lease keeps aging.
            }
        }
        Ok(report)
    }

    /// Poll until fully caught up with the publisher (no frames shipped and
    /// zero lag) or `attempts` polls have run. Returns whether catch-up
    /// completed.
    pub fn catch_up(&mut self, attempts: usize) -> Result<bool, EngineError> {
        for _ in 0..attempts.max(1) {
            let report = self.sync_once()?;
            if report.contacted
                && report.frames_applied == 0
                && !report.bootstrapped
                && self.lag_frames() == 0
            {
                return Ok(true);
            }
            if !report.contacted {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        Ok(false)
    }

    /// Drop the current connection (the next poll redials). Simulates a
    /// network partition in tests; harmless otherwise.
    pub fn disconnect(&mut self) {
        self.client = None;
    }

    /// Last log sequence number applied locally.
    pub fn applied_seq(&self) -> u64 {
        self.engine.wal_last_seq().unwrap_or(0)
    }

    /// The leader's position as of the last successful poll.
    pub fn leader_seq(&self) -> u64 {
        self.state.leader_seq()
    }

    /// Frames between the leader's last known position and ours.
    pub fn lag_frames(&self) -> u64 {
        self.leader_seq().saturating_sub(self.applied_seq())
    }

    /// Has the leader's lease expired (no successful contact within the
    /// configured lease timeout)? Promotion requires this.
    pub fn lease_expired(&self) -> bool {
        self.state.lease_remaining_ms() == 0
    }

    /// Current role.
    pub fn role(&self) -> ReplicaRole {
        self.state.role()
    }

    /// Current term.
    pub fn term(&self) -> u64 {
        self.state.term()
    }

    /// The replication options this replica polls with.
    pub fn options(&self) -> &ReplicationOptions {
        &self.options
    }

    /// Promote this replica to leader: requires the leader's lease to have
    /// expired (err code-free [`EngineError::Durability`] otherwise), bumps
    /// and persists the term, and unlocks writes. Idempotent on an already
    /// promoted replica; refused on a fenced one.
    pub fn promote(&mut self) -> Result<u64, EngineError> {
        let term = self.state.promote().map_err(|error| match error {
            PromoteError::Fenced(term) => EngineError::Durability(format!(
                "fenced: superseded by term {term}; restart as a follower of the new leader"
            )),
            PromoteError::Lease(ms) => EngineError::Durability(format!(
                "leader lease still valid for {ms} more ms; refusing promotion"
            )),
            PromoteError::Persist(error) => error,
        })?;
        self.client = None;
        Ok(term)
    }

    /// Insert one ground fact — role-gated: only a promoted (leader) replica
    /// accepts writes; a follower or fenced replica refuses with a
    /// [`EngineError::Durability`] naming its role.
    pub fn insert(&mut self, predicate: &str, tuple: &[Const]) -> Result<bool, EngineError> {
        self.require_leader()?;
        self.engine.insert(predicate, tuple)
    }

    /// Retract one ground fact — role-gated like [`Replica::insert`].
    pub fn retract(&mut self, predicate: &str, tuple: &[Const]) -> Result<bool, EngineError> {
        self.require_leader()?;
        self.engine.retract(predicate, tuple)
    }

    fn require_leader(&self) -> Result<(), EngineError> {
        match self.role() {
            ReplicaRole::Leader => Ok(()),
            ReplicaRole::Follower => Err(EngineError::Durability(
                "replica is read-only (role follower): write to the leader or promote it"
                    .to_string(),
            )),
            ReplicaRole::Fenced => Err(EngineError::Durability(format!(
                "fenced: superseded by term {}; this ex-leader refuses writes",
                self.term()
            ))),
        }
    }

    /// Snapshot of the replication state for `:stats` and metrics JSON.
    pub fn status(&self) -> ReplicaStatus {
        ReplicaStatus {
            role: self.role(),
            term: self.term(),
            applied_seq: self.applied_seq(),
            leader_seq: self.leader_seq(),
            lag_frames: self.lag_frames(),
            frames_applied: self.frames_applied,
            bootstraps: self.bootstraps,
            leader: self.leader.clone(),
        }
    }

    /// The wrapped engine (read-only access; queries are always allowed).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable access to the wrapped engine — for queries that refresh views.
    /// Durability-level mutations through this handle bypass the role gate;
    /// front ends route writes through [`Replica::insert`]/[`Replica::retract`]
    /// instead.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Unwrap the engine (e.g. to serve it, or to reclaim a promoted session).
    pub fn into_engine(self) -> Engine {
        self.engine
    }
}

/// Serve a durable engine as a *follower* of `leader` on `addr`: queries are
/// answered from the continuously applied replica state, transactions are
/// refused with `ERR readonly` until a `PROMOTE` succeeds (after the leader's
/// lease expires), at which point the node starts committing writes as an
/// ordinary leader. See [`serve`](crate::serve) for the non-replicating form.
pub fn serve_follower(
    engine: Engine,
    leader: impl Into<String>,
    addr: impl ToSocketAddrs,
    options: ServerOptions,
    replication: ReplicationOptions,
) -> Result<ServerHandle, ServeError> {
    serve_inner(engine, addr, options, Some((leader.into(), replication)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips() {
        for bytes in [&b""[..], &b"\x00\xff\x10abc"[..]] {
            assert_eq!(from_hex(&to_hex(bytes)).unwrap(), bytes);
        }
        assert_eq!(to_hex(b"\x01\xab"), "01ab");
        assert!(from_hex("abc").is_err(), "odd length");
        assert!(from_hex("zz").is_err(), "bad digit");
        assert_eq!(from_hex("ABCD").unwrap(), vec![0xAB, 0xCD]);
    }

    #[test]
    fn roles_round_trip_through_protocol_names() {
        for role in [
            ReplicaRole::Leader,
            ReplicaRole::Follower,
            ReplicaRole::Fenced,
        ] {
            assert_eq!(role.as_str().parse(), Ok(role));
            assert_eq!(ReplicaRole::from_u8(role.as_u8()), role);
        }
        assert!("president".parse::<ReplicaRole>().is_err());
    }

    #[test]
    fn terms_persist_in_the_data_directory() {
        let dir = std::env::temp_dir().join(format!("factorlog_term_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::remove_file(dir.join(TERM_FILE)).ok();
        assert_eq!(read_term(&dir), 0, "absent TERM file reads as 0");
        persist_term(&dir, 7).unwrap();
        assert_eq!(read_term(&dir), 7);
        std::fs::remove_dir_all(&dir).ok();
    }
}
