//! A concurrent multi-session TCP front end for the [`Engine`]: a single
//! reactor thread serves every connection from an immutable, atomically
//! swappable materialized view, while one writer thread owns the engine and
//! group-commits concurrently submitted transactions under a single WAL fsync.
//!
//! # Architecture
//!
//! ```text
//!                    ┌────────────────────────────────────────────┐
//!   reactor  ──────▶ │  Arc<View { epoch, model: Arc<Database> }> │  lock-free reads
//!   (poll(2) over    │  (RwLock'd Arc swap; the reactor clones    │  (Database::answers
//!    every conn)     │   the Arc and answers without the engine)  │   on the full model)
//!     QUERY/EXEC     └────────────────▲───────────────────────────┘
//!                                     │ publish after each group
//!   reactor  ──────▶ bounded queue ──▶ writer thread (owns Engine)
//!     TXN             (try_send;        · drains the queue into a batch
//!                      Full = shed)     · Engine::commit_group → ONE fsync
//!                                       · refresh + publish the next view
//!                                       · outcomes → wake pipe → reactor
//! ```
//!
//! The files follow those seams: `reactor.rs` (with its `poll(2)` shim
//! `poll.rs`) serves connections, `writer.rs` commits and publishes,
//! `codec.rs` is the one request/reply implementation (the protocol is
//! documented there), and `client.rs` holds [`Client`].
//!
//! Replication (`REPL SUBSCRIBE`, `PROMOTE`, follower mode via
//! [`serve_follower`](crate::replication::serve_follower)) is documented and
//! answered in [`crate::replication`].
//!
//! # Guarantees
//!
//! * **Snapshot isolation for readers.** A query is answered entirely from one
//!   `Arc`'d view: it can never observe a partially applied batch, and the
//!   epoch it reports always equals a committed prefix of the transaction
//!   stream.
//! * **Admission control sheds, never queues unboundedly.** A request beyond
//!   `max_in_flight` (or a transaction finding the commit queue full) is
//!   rejected immediately with `ERR overloaded: … retry after N ms` — the
//!   client backs off and retries ([`Client::txn_with_retry`]).
//! * **Committed or structured error.** Every transaction either reports
//!   `OK … epoch=E` (durable on the log, and visible in every view from
//!   epoch E on, before the reply is sent) or a structured `ERR`; a connection
//!   killed mid-request loses only its reply, never the store's consistency.
//! * **Graceful shutdown.** [`ServerHandle::shutdown`] stops admitting, drains
//!   in-flight requests (bounded by `drain_timeout`), cancels stragglers via
//!   the engine's [`CancelToken`], flushes the WAL, and hands the engine back.

mod client;
pub(crate) mod codec;
mod poll;
mod reactor;
mod writer;

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use factorlog_datalog::fault::CancelToken;
use factorlog_datalog::storage::Database;

pub use client::{Client, ClientError};
pub use codec::{Prepared, QueryReply, StatsReply, TxnReply};

use crate::engine::{Engine, EngineError};
use crate::replication::{ReplState, Replica, ReplicaRole, ReplicationOptions, RoleState};
use reactor::Reactor;
use writer::{Completions, WriteReq, Writer};

/// Tuning knobs of a served engine.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Requests allowed in service at once (readers and writers together).
    /// The one past the cap is shed with `ERR overloaded`, never queued.
    pub max_in_flight: usize,
    /// Bound of the commit pipeline between the reactor and the writer; a
    /// transaction finding it full is shed with `ERR overloaded`.
    pub write_queue_depth: usize,
    /// Per-request wall-clock deadline: applied to the writer's evaluations
    /// (via the engine governor) and to reader-side row streaming. `None`
    /// disables it.
    pub request_deadline: Option<Duration>,
    /// Memory budget for the writer's evaluations (see
    /// [`EvalOptions::memory_budget_bytes`](factorlog_datalog::eval::EvalOptions)).
    pub memory_budget_bytes: Option<usize>,
    /// The `retry after` hint shed requests carry.
    pub retry_after: Duration,
    /// How long the committer lingers after the first queued transaction to
    /// let concurrent submitters join its group.
    pub group_window: Duration,
    /// How long [`ServerHandle::shutdown`] waits for in-flight requests before
    /// cancelling the stragglers.
    pub drain_timeout: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            max_in_flight: 64,
            write_queue_depth: 64,
            request_deadline: Some(Duration::from_secs(5)),
            memory_budget_bytes: None,
            retry_after: Duration::from_millis(25),
            group_window: Duration::from_millis(1),
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// The immutable unit readers work against: one epoch, one fully materialized
/// model. Swapped atomically (as an `Arc`) after every committed group, so a
/// reader holding a view can never observe a half-applied batch.
struct View {
    /// Number of committed transaction batches this model includes — always a
    /// prefix of the commit order.
    epoch: u64,
    /// The materialized model ([`Database::answers`] serves any atom query).
    model: Arc<Database>,
}

/// Reactor-side counters, reported in [`StatsReply`]. All incremented from
/// the reactor thread with relaxed ordering.
#[derive(Default)]
struct ServerCounters {
    reactor_wakeups: AtomicU64,
    pipelined_batches: AtomicU64,
    pipelined_requests: AtomicU64,
    max_batch_depth: AtomicU64,
    prepared_execs: AtomicU64,
    reply_cache_hits: AtomicU64,
}

/// State shared by the reactor thread and the writer.
struct Shared {
    view: RwLock<Arc<View>>,
    epoch: AtomicU64,
    in_flight: AtomicUsize,
    shed: AtomicU64,
    group_commits: AtomicU64,
    group_txns: AtomicU64,
    stopping: AtomicBool,
    cancel: CancelToken,
    options: ServerOptions,
    counters: ServerCounters,
    repl: ReplState,
}

impl Shared {
    fn current_view(&self) -> Arc<View> {
        self.view.read().expect("view lock poisoned").clone()
    }

    /// Admission control: take one in-flight slot if under the cap; count the
    /// shed otherwise. Never blocks, never queues.
    fn try_acquire_slot(&self) -> bool {
        let prev = self.in_flight.fetch_add(1, Ordering::AcqRel);
        if prev >= self.options.max_in_flight {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            self.shed.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Release a slot taken by [`Shared::try_acquire_slot`]. Reads release
    /// once the reply is rendered; transactions hold their slot across the
    /// commit pipeline and release it when the outcome is delivered (or the
    /// submitter is found dead).
    fn release_slot(&self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }

    /// The one counter snapshot: admission, commit, replication and reactor
    /// counters, as `STATS` reports them.
    fn stats(&self) -> StatsReply {
        let group_commits = self.group_commits.load(Ordering::Relaxed);
        let group_txns = self.group_txns.load(Ordering::Relaxed);
        let (repl_followers, repl_lag_frames, repl_lag_ms) = self.repl.lag();
        let c = &self.counters;
        StatsReply {
            epoch: self.epoch.load(Ordering::Acquire),
            in_flight: self.in_flight.load(Ordering::Acquire),
            shed: self.shed.load(Ordering::Relaxed),
            group_commits,
            group_txns,
            txns_per_fsync: if group_commits > 0 {
                group_txns as f64 / group_commits as f64
            } else {
                0.0
            },
            role: self.repl.state.role(),
            term: self.repl.state.term(),
            repl_followers,
            repl_lag_frames,
            repl_lag_ms,
            reactor_wakeups: c.reactor_wakeups.load(Ordering::Relaxed),
            pipelined_batches: c.pipelined_batches.load(Ordering::Relaxed),
            pipelined_requests: c.pipelined_requests.load(Ordering::Relaxed),
            max_batch_depth: c.max_batch_depth.load(Ordering::Relaxed),
            prepared_execs: c.prepared_execs.load(Ordering::Relaxed),
            reply_cache_hits: c.reply_cache_hits.load(Ordering::Relaxed),
        }
    }
}

/// What [`ServerHandle::shutdown`] did, with the engine handed back.
pub struct ShutdownReport {
    /// The engine, drained and WAL-flushed, ready for further single-owner use
    /// (or to be dropped, releasing the data-directory lock).
    pub engine: Engine,
    /// Epoch at shutdown: committed transaction batches over the server's life.
    pub epoch: u64,
    /// Requests shed by admission control over the server's life.
    pub shed: u64,
    /// Did the drain finish inside `drain_timeout` (`false` = stragglers were
    /// cancelled via the engine's [`CancelToken`])?
    pub drained_cleanly: bool,
    /// The final counter snapshot (reactor wakeups, pipeline depth, prepared
    /// execs, reply-cache hits, …).
    pub server_metrics: StatsReply,
}

/// A running server: the listener address plus the join handles needed to shut
/// it down. Obtain one from [`serve`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    write_tx: mpsc::SyncSender<WriteReq>,
    completions: Arc<Completions>,
    reactor_thread: Option<JoinHandle<bool>>,
    writer_thread: Option<JoinHandle<Engine>>,
}

impl ServerHandle {
    /// The address the server is listening on (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The currently published epoch (committed transaction batches).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Requests shed by admission control so far.
    pub fn shed(&self) -> u64 {
        self.shared.shed.load(Ordering::Relaxed)
    }

    /// The server's current replication role (a plain [`serve`]d node is a
    /// leader; a [`serve_follower`](crate::replication::serve_follower)'d one
    /// starts as a follower and may be promoted or fenced while running).
    pub fn role(&self) -> ReplicaRole {
        self.shared.repl.state.role()
    }

    /// The server's current replication term.
    pub fn term(&self) -> u64 {
        self.shared.repl.state.term()
    }

    /// A live snapshot of the server's counters — the same one `STATS`
    /// reports.
    pub fn server_metrics(&self) -> StatsReply {
        self.shared.stats()
    }

    /// Gracefully shut down: stop admitting (new requests get `ERR shutdown`),
    /// drain in-flight requests for up to `drain_timeout`, cancel stragglers
    /// via the engine's [`CancelToken`], flush the WAL, and return the engine.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shared.stopping.store(true, Ordering::Release);
        // The reactor owns the drain: it wakes on the pipe, stops accepting,
        // refuses buffered requests with `ERR shutdown`, waits out in-flight
        // transactions (cancelling stragglers at the drain deadline), flushes
        // reply buffers, and reports whether it finished inside the timeout.
        self.completions.wake();
        let drained_cleanly = self
            .reactor_thread
            .take()
            .expect("reactor thread present until shutdown")
            .join()
            .unwrap_or(false);
        // Senders are all gone once the reactor is joined and our own clone is
        // dropped: the writer drains what is queued, flushes the WAL, and
        // returns the engine.
        drop(self.write_tx);
        let mut engine = self
            .writer_thread
            .take()
            .expect("writer thread present until shutdown")
            .join()
            .expect("writer thread never panics (engine-contained)");
        // A cancellation fired during drain must not outlive the server: the
        // returned engine is immediately reusable.
        self.shared.cancel.reset();
        engine.sync_wal().ok();
        ShutdownReport {
            engine,
            epoch: self.shared.epoch.load(Ordering::Acquire),
            shed: self.shared.shed.load(Ordering::Relaxed),
            drained_cleanly,
            server_metrics: self.shared.stats(),
        }
    }
}

/// [`serve`] failed before any thread started: the engine comes back unchanged
/// so a front end (e.g. the REPL's `:serve`) does not lose session state to a
/// typo'd address.
pub struct ServeError {
    /// The engine, exactly as it was passed in.
    pub engine: Box<Engine>,
    /// Why serving did not start.
    pub error: EngineError,
}

impl std::fmt::Debug for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServeError({})", self.error)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.error.fmt(f)
    }
}

impl std::error::Error for ServeError {}

/// Serve `engine` on `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
/// The engine moves into the server's writer thread; [`ServerHandle::shutdown`]
/// hands it back. Durable engines keep their data-directory `LOCK` for the
/// server's lifetime (single writer).
///
/// # Panics
///
/// If the reactor or writer OS thread cannot be spawned (resource exhaustion).
pub fn serve(
    engine: Engine,
    addr: impl ToSocketAddrs,
    options: ServerOptions,
) -> Result<ServerHandle, ServeError> {
    serve_inner(engine, addr, options, None)
}

/// [`serve`], or with `follow = Some((leader, replication))` what
/// [`serve_follower`](crate::replication::serve_follower) adds on top: a
/// leader to subscribe to and the polling/lease knobs.
pub(crate) fn serve_inner(
    mut engine: Engine,
    addr: impl ToSocketAddrs,
    options: ServerOptions,
    follow: Option<(String, ReplicationOptions)>,
) -> Result<ServerHandle, ServeError> {
    // Everything that can fail runs before any thread starts, so a failure
    // hands the engine back unchanged.
    let io = |what: &'static str| move |e: std::io::Error| EngineError::Io(format!("{what}: {e}"));
    let setup = (|| {
        if follow.is_some() && !engine.is_durable() {
            return Err(EngineError::Durability(
                "a follower must be durable (open the engine with open_durable)".to_string(),
            ));
        }
        let listener = TcpListener::bind(addr).map_err(io("cannot bind server socket"))?;
        listener
            .set_nonblocking(true)
            .map_err(io("cannot configure listener"))?;
        let addr = listener
            .local_addr()
            .map_err(io("cannot resolve listener address"))?;
        let completions = Completions::new().map_err(io("cannot open reactor wake pipe"))?;
        // Per-request governance rides on the engine's own governor.
        engine.set_limits(
            options.request_deadline,
            engine.options().max_derived_facts,
            options.memory_budget_bytes,
        );
        engine.cancel_token().reset();
        // The initial view: epoch 0 is the committed prefix "everything
        // recovered or loaded before serving".
        let model = engine.refreshed_model()?;
        Ok((listener, addr, Arc::new(completions), model))
    })();
    let (listener, addr, completions, model) = match setup {
        Ok(setup) => setup,
        Err(error) => {
            let engine = Box::new(engine);
            return Err(ServeError { engine, error });
        }
    };
    let cancel = engine.cancel_token();
    let group_commits = AtomicU64::new(engine.stats().wal_group_commits as u64);
    let group_txns = AtomicU64::new(engine.stats().wal_group_txns as u64);
    let last_seq = engine.wal_last_seq().unwrap_or(0);
    // A follower's replica shares its promotion state with `PROMOTE`.
    let (role, writer) = match follow {
        None => {
            let lease = ReplicationOptions::default().lease_timeout;
            let dir = engine.data_dir().map(|dir| dir.to_path_buf());
            let role = RoleState::new(ReplicaRole::Leader, dir, lease);
            (Arc::new(role), Writer::Leader(engine))
        }
        Some((leader, replication)) => {
            let replica = Replica::from_engine(engine, leader, replication)
                .expect("durability checked above");
            (replica.role_state(), Writer::Follower(replica))
        }
    };
    let shared = Arc::new(Shared {
        view: RwLock::new(Arc::new(View {
            epoch: 0,
            model: Arc::new(model),
        })),
        epoch: AtomicU64::new(0),
        in_flight: AtomicUsize::new(0),
        shed: AtomicU64::new(0),
        group_commits,
        group_txns,
        stopping: AtomicBool::new(false),
        cancel,
        options: options.clone(),
        counters: ServerCounters::default(),
        repl: ReplState::new(role, last_seq, matches!(writer, Writer::Follower(_))),
    });

    let (write_tx, write_rx) = mpsc::sync_channel::<WriteReq>(options.write_queue_depth);

    let writer_shared = shared.clone();
    let writer_name = match writer {
        Writer::Leader(_) => "factorlog-writer",
        Writer::Follower(_) => "factorlog-follower",
    };
    let writer_thread = std::thread::Builder::new()
        .name(writer_name.to_string())
        .spawn(move || writer.run(write_rx, &writer_shared))
        .expect("cannot spawn writer thread");

    let reactor_shared = shared.clone();
    let reactor_tx = write_tx.clone();
    let reactor_completions = completions.clone();
    let reactor_thread = std::thread::Builder::new()
        .name("factorlog-reactor".to_string())
        .spawn(move || {
            Reactor::new(listener, reactor_shared, reactor_tx, reactor_completions).run()
        })
        .expect("cannot spawn reactor thread");

    Ok(ServerHandle {
        addr,
        shared,
        write_tx,
        completions,
        reactor_thread: Some(reactor_thread),
        writer_thread: Some(writer_thread),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::time::Instant;

    use factorlog_datalog::ast::Const;
    use factorlog_datalog::parser::parse_query as pq;

    use super::client::jittered;
    use super::codec::{parse_txn_ops, Request};
    use super::reactor::{bind_prepared, prepare_statement};
    use crate::engine::TxnOp;

    const TC: &str = "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).";

    fn tc_engine(edges: i64) -> Engine {
        let mut engine = Engine::new();
        engine.load_source(TC).unwrap();
        for i in 0..edges {
            engine
                .insert("e", &[Const::Int(i), Const::Int(i + 1)])
                .unwrap();
        }
        engine
    }

    fn quick_options() -> ServerOptions {
        ServerOptions {
            drain_timeout: Duration::from_secs(2),
            ..ServerOptions::default()
        }
    }

    #[test]
    fn queries_transactions_and_epochs_round_trip() {
        let handle = serve(tc_engine(4), "127.0.0.1:0", quick_options()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        client.ping().unwrap();

        let reply = client.query("t(0, Y)").unwrap();
        assert_eq!(reply.epoch, 0);
        assert_eq!(reply.rows, vec!["1", "2", "3", "4"]);

        let txn = client.txn("+e(4, 5); -e(0, 1)").unwrap();
        assert_eq!((txn.asserted, txn.retracted), (1, 1));
        assert_eq!(txn.epoch, 1);
        // Read-your-writes: the reply's epoch is already published.
        let reply = client.query("t(1, Y)").unwrap();
        assert!(reply.epoch >= txn.epoch);
        assert_eq!(reply.rows, vec!["2", "3", "4", "5"]);
        let reply = client.query("t(0, Y)").unwrap();
        assert!(reply.rows.is_empty(), "e(0,1) was retracted");

        // Structured parse errors, not dropped connections.
        let err = client.query("t(0, Y").unwrap_err();
        assert!(matches!(err, ClientError::Server { ref code, .. } if code == "parse"));
        let err = client.txn("e(1, 2)").unwrap_err();
        assert!(matches!(err, ClientError::Server { ref code, .. } if code == "parse"));
        let err = client.txn("+e(1)").unwrap_err();
        assert!(
            matches!(err, ClientError::Server { ref code, .. } if code == "txn"),
            "arity mismatch is a structured txn error: {err}"
        );
        // The session survives all of it.
        client.ping().unwrap();
        assert_eq!(client.epoch().unwrap(), 1);
        client.quit();

        let report = handle.shutdown();
        assert_eq!(report.epoch, 1);
        assert!(report.drained_cleanly);
        // The engine comes back with the committed state.
        let mut engine = report.engine;
        assert_eq!(engine.query(&pq("t(1, Y)").unwrap()).unwrap().len(), 4);
    }

    #[test]
    fn slow_writers_are_not_truncated_across_read_timeouts() {
        // Regression: a client that writes half a request, pauses longer than
        // the connection read timeout, then writes the rest must get the
        // answer to the WHOLE request — not have the first half discarded and
        // the tail parsed as a different (possibly valid) request.
        let handle = serve(tc_engine(4), "127.0.0.1:0", quick_options()).unwrap();
        let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        // On the broken read loop the truncated tail can be an empty request
        // (swallowed silently): a bounded read turns that hang into a failure.
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let request = b"QUERY t(0, Y)\n";
        for (i, byte) in request.iter().enumerate() {
            // Byte at a time, stalling past the poll interval at several
            // mid-request boundaries (after the verb, inside the atom, and
            // right before the terminating newline).
            if [6, 9, request.len() - 1].contains(&i) {
                std::thread::sleep(Duration::from_millis(150));
            }
            stream.write_all(&[*byte]).unwrap();
            stream.flush().unwrap();
        }
        let mut rows = Vec::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end();
            if let Some(row) = line.strip_prefix("ROW ") {
                rows.push(row.to_string());
                continue;
            }
            assert_eq!(line, "OK rows=4 epoch=0", "slow request mangled");
            break;
        }
        assert_eq!(rows, vec!["1", "2", "3", "4"]);
        handle.shutdown();
    }

    #[test]
    fn rows_render_symbols_in_parseable_syntax() {
        let mut engine = Engine::new();
        engine
            .load_source("label(a, \"blue metal\").\nlabel(b, plain).")
            .unwrap();
        let handle = serve(engine, "127.0.0.1:0", quick_options()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let reply = client.query("label(X, Y)").unwrap();
        assert_eq!(reply.rows, vec!["a, \"blue metal\"", "b, plain"]);
        handle.shutdown();
    }

    #[test]
    fn concurrent_clients_group_commit_under_shared_fsyncs() {
        let dir = std::env::temp_dir().join(format!(
            "factorlog_server_group_{}_{}",
            std::process::id(),
            line!()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let mut engine = Engine::open_durable(&dir).unwrap();
        engine.load_source(TC).unwrap();
        let handle = serve(
            engine,
            "127.0.0.1:0",
            ServerOptions {
                group_window: Duration::from_millis(10),
                ..quick_options()
            },
        )
        .unwrap();
        let addr = handle.addr();
        let writers: Vec<_> = (0..8)
            .map(|w| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    for i in 0..5i64 {
                        client
                            .txn_with_retry(&format!("+e({}, {})", 100 * w + i, 100 * w + i + 1), 8)
                            .unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let mut client = Client::connect(addr).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.epoch, 40, "all 40 txns committed");
        assert_eq!(stats.group_txns, 40);
        assert!(
            stats.group_commits < stats.group_txns,
            "concurrent submitters must share fsyncs: {} groups for {} txns",
            stats.group_commits,
            stats.group_txns
        );
        assert!(
            stats.txns_per_fsync > 1.0,
            "measured batching ratio surfaces in STATS: {}",
            stats.txns_per_fsync
        );
        assert_eq!(stats.role, ReplicaRole::Leader);
        assert_eq!(stats.repl_followers, 0, "no follower ever subscribed");
        let report = handle.shutdown();
        drop(report);
        // And the groups are replay-equivalent to singles.
        let reopened = Engine::open_durable(&dir).unwrap();
        assert_eq!(reopened.facts().count("e"), 40);
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overload_sheds_with_a_retryable_error_instead_of_queueing() {
        // max_in_flight = 0: every governed request is shed immediately.
        let handle = serve(
            tc_engine(2),
            "127.0.0.1:0",
            ServerOptions {
                max_in_flight: 0,
                ..quick_options()
            },
        )
        .unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let err = client.query("t(0, Y)").unwrap_err();
        assert!(err.is_retryable(), "sheds are retryable: {err}");
        assert!(err.to_string().contains("retry after"));
        // Ungoverned liveness probes still answer.
        client.ping().unwrap();
        assert!(handle.shed() >= 1);
        let report = handle.shutdown();
        assert!(report.shed >= 1);
    }

    #[test]
    fn shutdown_rejects_new_requests_and_returns_a_reusable_engine() {
        let handle = serve(tc_engine(3), "127.0.0.1:0", quick_options()).unwrap();
        let addr = handle.addr();
        let mut client = Client::connect(addr).unwrap();
        client.query("t(0, Y)").unwrap();
        let report = handle.shutdown();
        assert!(report.drained_cleanly);
        // The old connection and new connections both see refusal, not a hang.
        assert!(client.query("t(0, Y)").is_err());
        assert!(Client::connect(addr).map(|mut c| c.ping()).is_err());
        let mut engine = report.engine;
        engine.insert("e", &[Const::Int(3), Const::Int(4)]).unwrap();
        assert_eq!(engine.query(&pq("t(0, Y)").unwrap()).unwrap().len(), 4);
    }

    #[test]
    fn jittered_delays_stay_in_the_half_open_band() {
        for _ in 0..200 {
            let d = jittered(Duration::from_millis(100));
            assert!(
                d > Duration::from_millis(50) && d <= Duration::from_millis(100),
                "jitter must stay in (delay/2, delay]: {d:?}"
            );
        }
    }

    #[test]
    fn txn_ops_parse_and_reject_malformed_input() {
        let ops = parse_txn_ops("+e(1, 2); -e(2, 1);").unwrap();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].0, TxnOp::Assert);
        assert_eq!(ops[1].0, TxnOp::Retract);
        assert!(parse_txn_ops("").is_err());
        assert!(parse_txn_ops("e(1, 2)").is_err());
        assert!(parse_txn_ops("+e(X, 2)").is_err(), "non-ground atom");
        assert!(parse_txn_ops("+e(1, ").is_err());
    }

    #[test]
    fn pipelined_requests_answer_in_order_from_one_packet() {
        let handle = serve(tc_engine(4), "127.0.0.1:0", quick_options()).unwrap();
        let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Five requests in ONE write: the reactor must serve all of them
        // before re-arming, and the replies must come back in request order.
        stream
            .write_all(b"PING\nQUERY t(0, Y)\nEPOCH\nQUERY t(3, Y)\nPING\n")
            .unwrap();
        let mut reader = BufReader::new(stream);
        let mut lines = Vec::new();
        while lines.len() < 8 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            lines.push(line.trim_end().to_string());
        }
        assert_eq!(
            lines,
            vec![
                "OK pong",
                "ROW 1",
                "ROW 2",
                "ROW 3",
                "ROW 4",
                "OK rows=4 epoch=0",
                "OK epoch=0",
                "ROW 4",
            ]
        );
        let metrics = handle.server_metrics();
        assert!(metrics.pipelined_batches >= 1);
        assert!(
            metrics.max_batch_depth >= 5,
            "five requests in one packet should drain as one batch: {metrics:?}"
        );
        handle.shutdown();
    }

    #[test]
    fn prepare_exec_binds_placeholders_without_reparsing() {
        let handle = serve(tc_engine(4), "127.0.0.1:0", quick_options()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();

        let stmt = client.prepare("t(?, Y)").unwrap();
        assert_eq!(stmt.params, 1);
        // The same statement serves different constants (rebinding).
        assert_eq!(
            client.exec(stmt, "0").unwrap().rows,
            vec!["1", "2", "3", "4"]
        );
        assert_eq!(client.exec(stmt, "2").unwrap().rows, vec!["3", "4"]);

        // Zero-parameter statements are legal; a miss is an empty row set.
        let all = client.prepare("t(X, Y)").unwrap();
        assert_eq!(all.params, 0);
        assert_eq!(client.exec(all, "").unwrap().rows.len(), 10);
        assert!(client.exec(stmt, "99").unwrap().rows.is_empty());

        // Structured errors: wrong arity, variables as args, unknown id.
        let err = client.exec(stmt, "1, 2").unwrap_err();
        assert!(matches!(err, ClientError::Server { ref code, .. } if code == "parse"));
        let err = client.exec(stmt, "X").unwrap_err();
        assert!(matches!(err, ClientError::Server { ref code, .. } if code == "parse"));
        let err = client
            .exec(Prepared { id: 999, params: 0 }, "")
            .unwrap_err();
        assert!(matches!(err, ClientError::Server { ref code, .. } if code == "parse"));

        // Placeholders inside string literals are literal text, not params.
        let lit = client.prepare("t(?, \"a?b\")").unwrap();
        assert_eq!(lit.params, 1);

        // EXEC results track the live view across commits.
        client.txn("+e(4, 5)").unwrap();
        assert_eq!(
            client.exec(stmt, "0").unwrap().rows,
            vec!["1", "2", "3", "4", "5"]
        );

        let stats = client.stats().unwrap();
        assert!(stats.prepared_execs >= 7, "stats: {stats:?}");
        handle.shutdown();
    }

    #[test]
    fn repeated_reads_hit_the_reply_cache_until_the_epoch_moves() {
        let handle = serve(tc_engine(4), "127.0.0.1:0", quick_options()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let first = client.query("t(0, Y)").unwrap();
        let second = client.query("t(0, Y)").unwrap();
        assert_eq!(first.rows, second.rows);
        assert!(
            client.stats().unwrap().reply_cache_hits >= 1,
            "identical queries in one epoch must share a rendered reply"
        );
        // A commit moves the epoch; the cached reply must NOT be served stale.
        client.txn("+e(4, 5)").unwrap();
        let third = client.query("t(0, Y)").unwrap();
        assert_eq!(third.rows, vec!["1", "2", "3", "4", "5"]);
        handle.shutdown();
    }

    #[test]
    fn query_reconnects_once_after_a_dropped_connection_but_txn_refuses() {
        let handle = serve(tc_engine(3), "127.0.0.1:0", quick_options()).unwrap();

        // QUIT makes the server close this connection while staying up — the
        // cheapest honest stand-in for a broken TCP session.
        let mut client = Client::connect(handle.addr()).unwrap();
        client.send(Request::Quit).unwrap();
        assert_eq!(client.read_reply_line().unwrap(), "OK bye");
        let reply = client.query("t(0, Y)").unwrap();
        assert_eq!(reply.rows, vec!["1", "2", "3"], "query must reconnect");

        // Writes never silently retry: the commit may have landed.
        let mut client = Client::connect(handle.addr()).unwrap();
        client.send(Request::Quit).unwrap();
        assert_eq!(client.read_reply_line().unwrap(), "OK bye");
        let err = client.txn("+e(7, 8)").unwrap_err();
        assert!(
            matches!(err, ClientError::Io(_)),
            "txn on a dropped connection surfaces the I/O error: {err}"
        );
        handle.shutdown();
    }

    #[test]
    fn follower_lag_never_underflows_when_contact_lands_mid_read() {
        let state = RoleState::new(ReplicaRole::Follower, None, Duration::from_secs(1));
        // A sync thread hammers the contact stamp while readers compute lag:
        // with the stamp loaded before the elapsed capture, lag can never be
        // a giant underflow and stays bounded by the loop's runtime.
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let deadline = Instant::now() + Duration::from_millis(120);
                while Instant::now() < deadline {
                    state.contacted(0);
                }
            });
            while !writer.is_finished() {
                let lag = state.ms_since_contact();
                assert!(
                    lag < 10_000,
                    "lag must track the (sub-second) test duration, got {lag}"
                );
            }
        });
    }

    /// Publish order pins the reply-cache's correctness: the epoch atomic
    /// must never run ahead of the readable view, or a reply rendered from
    /// the old view could be cached under the new epoch and served stale for
    /// the rest of that epoch (breaking read-your-writes after a TXN ack).
    #[test]
    fn publish_never_lets_the_epoch_atomic_run_ahead_of_the_view() {
        let handle = serve(tc_engine(2), "127.0.0.1:0", quick_options()).unwrap();
        let shared = handle.shared.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let observer = {
            let shared = shared.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let epoch = shared.epoch.load(Ordering::Acquire);
                    let view = shared.current_view();
                    assert!(
                        view.epoch >= epoch,
                        "observed view at epoch {} behind the epoch atomic ({epoch}): \
                         a reply rendered now could be cached under an epoch it \
                         does not reflect",
                        view.epoch
                    );
                }
            })
        };
        let mut client = Client::connect(handle.addr()).unwrap();
        for i in 0..100 {
            client
                .txn(&format!("+e({}, {})", 500 + i, 501 + i))
                .unwrap();
        }
        stop.store(true, Ordering::Release);
        observer.join().expect("no stale-epoch observation");
        handle.shutdown();
    }

    #[test]
    fn prepare_statement_rejects_placeholders_outside_term_positions() {
        assert!(prepare_statement("t(?, Y)").is_ok());
        assert!(prepare_statement("t(??, Y)").is_err(), "?? is not a term");
        assert!(prepare_statement("?(X, Y)").is_err(), "predicate position");
        let stmt = prepare_statement("t(?, ?)").unwrap();
        assert_eq!(stmt.params.len(), 2);
        let bound = bind_prepared(&stmt, "1, 2").unwrap();
        assert_eq!(bound.atom.terms.len(), 2);
        assert!(bound.atom.terms.iter().all(|t| !t.is_var()));
        assert!(bind_prepared(&stmt, "1").is_err(), "arity mismatch");
    }
}
