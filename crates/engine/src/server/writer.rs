//! The writer thread: a leader's group-commit pipeline ([`writer_core`]) or a
//! follower's apply loop ([`follower_loop`]), and the view [`publish`] both
//! end in.
//!
//! [`publish`]: Shared::publish

use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use factorlog_datalog::ast::Const;
use factorlog_datalog::symbol::Symbol;

use super::poll::WakePipe;
use super::{Shared, View};
use crate::engine::{Engine, EngineError, TxnOp, TxnSummary};
use crate::replication::{Replica, ReplicaRole};

/// Cap on how many queued transactions one group commit will absorb.
const MAX_GROUP: usize = 128;

/// Outcome of one transaction, as the writer reports it.
pub(super) enum TxnOutcome {
    /// Committed and visible in every view with epoch >= the carried epoch:
    /// answered `OK … epoch=E`.
    Committed(TxnSummary, u64),
    /// Committed durably (first included at the carried epoch), but no view
    /// including it could be published: answered `ERR unpublished`, never `OK`.
    Unpublished(u64, EngineError),
    /// Refused: nothing was committed.
    Failed(EngineError),
}

/// The writer→reactor completion channel: outcomes queue here and the wake
/// pipe interrupts the reactor's `poll` so replies go out immediately. The
/// pipe lives *inside* this Arc'd struct so a writer draining the queue after
/// the reactor exited still holds a valid (if unread) descriptor — never a
/// recycled one.
pub(super) struct Completions {
    queue: Mutex<Vec<(u64, TxnOutcome)>>,
    pub(super) pipe: WakePipe,
}

impl Completions {
    pub(super) fn new() -> std::io::Result<Completions> {
        Ok(Completions {
            queue: Mutex::new(Vec::new()),
            pipe: WakePipe::new()?,
        })
    }

    fn push(&self, conn_id: u64, outcome: TxnOutcome) {
        self.queue
            .lock()
            .expect("completion queue poisoned")
            .push((conn_id, outcome));
        self.pipe.handle().wake();
    }

    pub(super) fn take(&self) -> Vec<(u64, TxnOutcome)> {
        std::mem::take(&mut *self.queue.lock().expect("completion queue poisoned"))
    }

    pub(super) fn wake(&self) {
        self.pipe.handle().wake();
    }
}

/// Where a transaction's outcome goes: back to the reactor, addressed to the
/// submitting connection. Dropping an unsent ticket (a request discarded
/// without a verdict — only possible mid-shutdown) delivers a structured
/// shutdown error so the connection's admission slot is always released.
pub(super) struct TxnTicket {
    pub(super) conn_id: u64,
    pub(super) completions: Arc<Completions>,
    pub(super) sent: bool,
}

impl TxnTicket {
    fn send(mut self, outcome: TxnOutcome) {
        self.sent = true;
        self.completions.push(self.conn_id, outcome);
    }
}

impl Drop for TxnTicket {
    fn drop(&mut self) {
        if !self.sent {
            self.completions.push(
                self.conn_id,
                TxnOutcome::Failed(EngineError::Durability(
                    "server is shutting down".to_string(),
                )),
            );
        }
    }
}

/// A transaction submitted to the commit pipeline.
pub(super) struct WriteReq {
    pub(super) ops: Vec<(TxnOp, Symbol, Vec<Const>)>,
    pub(super) reply: TxnTicket,
}

/// What the writer thread runs: a leader's commit pipeline, or a follower's
/// apply loop (which becomes the commit pipeline once promoted).
pub(super) enum Writer {
    Leader(Engine),
    Follower(Replica),
}

impl Writer {
    /// Run until every sender is gone; returns the engine.
    pub(super) fn run(self, rx: mpsc::Receiver<WriteReq>, shared: &Shared) -> Engine {
        match self {
            Writer::Leader(engine) => writer_core(engine, rx, shared, None),
            Writer::Follower(replica) => follower_loop(replica, rx, shared),
        }
    }
}

impl Shared {
    fn publish(&self, view: View) {
        // View first, epoch second: the epoch atomic must never run ahead of
        // the view a reader can observe, or a reply rendered from the old
        // view could be filed under the new epoch (stale-reply poisoning).
        let epoch = view.epoch;
        *self.view.write().expect("view lock poisoned") = Arc::new(view);
        self.epoch.store(epoch, Ordering::Release);
    }
}

/// The commit pipeline: block for a first transaction (or take the
/// already-received `pending` one — a follower promoted mid-`recv` hands the
/// raced request over instead of bouncing it), linger `group_window` to let
/// concurrent submitters pile on, commit the whole batch under one fsync,
/// publish the next view, then reply to every submitter.
fn writer_core(
    mut engine: Engine,
    rx: mpsc::Receiver<WriteReq>,
    shared: &Shared,
    mut pending: Option<WriteReq>,
) -> Engine {
    let mut epoch = shared.epoch.load(Ordering::Acquire);
    loop {
        let first = match pending.take() {
            Some(req) => req,
            None => match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(req) => req,
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                // Every sender gone: the server is shutting down and the queue
                // is fully drained (recv yields buffered requests before
                // reporting disconnection).
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            },
        };
        let mut batch = vec![first];
        while batch.len() < MAX_GROUP {
            match rx.recv_timeout(shared.options.group_window) {
                Ok(req) => batch.push(req),
                Err(_) => break,
            }
        }

        let (ops, replies): (Vec<_>, Vec<_>) = batch.into_iter().map(|r| (r.ops, r.reply)).unzip();
        let results = engine.commit_group(ops);

        // Assign each committed batch the epoch that first includes it; the
        // view published below carries the last of them, so a client holding
        // `OK … epoch=E` observes its write in every view with epoch >= E.
        let results: Vec<_> = results
            .into_iter()
            .map(|result| {
                result.map(|summary| {
                    epoch += 1;
                    (summary, epoch)
                })
            })
            .collect();
        // Publish before replying: `OK` is only sent once the write is visible.
        // A failed refresh (injected fault, tripped limit) drops the engine's
        // model; retry once, re-materializing under the same governance limits.
        // If that fails too, the previous view stays (still a committed prefix),
        // the next group's publish includes these commits, and they are
        // answered `ERR unpublished` — they are durable either way.
        let unpublished = match engine
            .refreshed_model()
            .or_else(|_| engine.refreshed_model())
        {
            Ok(model) => {
                shared.publish(View {
                    epoch,
                    model: Arc::new(model),
                });
                None
            }
            Err(error) => Some(error),
        };
        let outcomes = results
            .into_iter()
            .map(|result| match (result, &unpublished) {
                (Ok((summary, epoch)), None) => TxnOutcome::Committed(summary, epoch),
                (Ok((_, epoch)), Some(error)) => TxnOutcome::Unpublished(epoch, error.clone()),
                (Err(error), _) => TxnOutcome::Failed(error),
            });
        shared
            .group_commits
            .store(engine.stats().wal_group_commits as u64, Ordering::Relaxed);
        shared
            .group_txns
            .store(engine.stats().wal_group_txns as u64, Ordering::Relaxed);
        // Publish our committed log position for subscribers' lag accounting.
        shared
            .repl
            .last_seq
            .store(engine.wal_last_seq().unwrap_or(0), Ordering::Release);
        for (outcome, reply) in outcomes.into_iter().zip(replies) {
            // A submitter that died (connection killed mid-request) simply
            // never reads its reply; the commit stands.
            reply.send(outcome);
        }
    }
    engine
}

/// The follower's apply loop, standing where a leader's [`writer_core`]
/// stands: instead of committing submitted transactions (those are refused
/// with `ERR readonly` before they reach the queue), it polls the leader,
/// applies shipped frames, and publishes each applied prefix as a fresh view —
/// readers on this node see the leader's history, stale-bounded by one poll.
/// The replica shares its promotion state with the server: when `PROMOTE`
/// flips the role, the loop hands the engine to [`writer_core`] and the node
/// starts committing writes as a leader.
fn follower_loop(mut replica: Replica, rx: mpsc::Receiver<WriteReq>, shared: &Shared) -> Engine {
    let poll_interval = replica.options().poll_interval;
    let promoted = || shared.repl.state.role() == ReplicaRole::Leader;
    loop {
        if promoted() {
            return writer_core(replica.into_engine(), rx, shared, None);
        }
        match rx.recv_timeout(poll_interval) {
            // Promoted while we were blocked in recv: this request is valid —
            // carry it into the writer loop.
            Ok(req) if promoted() => {
                return writer_core(replica.into_engine(), rx, shared, Some(req));
            }
            Ok(req) => {
                req.reply.send(TxnOutcome::Failed(EngineError::Durability(
                    "replica is read-only: write to the leader or promote it".to_string(),
                )));
                continue;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return replica.into_engine(),
        }
        // A local durability failure (our own log or snapshot) leaves the
        // current view serving; the next poll retries.
        let bootstrapped = replica.sync_once().is_ok_and(|report| report.bootstrapped);
        // Publish the applied prefix — the epoch is the leader's log position,
        // so a reader can relate replies across the fleet. The published
        // position advances only with a published view: a failed refresh is
        // retried on every poll until the view catches up, and `STATS` lag
        // counts from the view readers actually see.
        let applied = replica.applied_seq();
        if bootstrapped || applied != shared.repl.last_seq.load(Ordering::Acquire) {
            if let Ok(model) = replica.engine_mut().refreshed_model() {
                shared.publish(View {
                    epoch: applied,
                    model: Arc::new(model),
                });
                shared.repl.last_seq.store(applied, Ordering::Release);
            }
        }
    }
}
