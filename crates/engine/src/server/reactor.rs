//! The event-driven front end: ONE thread drives the listener and every
//! connection through a `poll(2)` readiness loop over nonblocking sockets.
//! Idle connections cost one pollfd entry, not a thread; every complete
//! request already buffered is served before re-arming (pipelining), and the
//! batch's replies leave in one write.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use factorlog_datalog::ast::{Const, Query, Term};
use factorlog_datalog::parser::parse_query;

use super::codec::{
    self, parse_txn_ops, render_engine_error, render_err, Epoch, Pong, Reply, Request, TxnReply,
};
use super::poll::{poll_fds, PollFd, POLL_FAIL, POLL_IN, POLL_OUT};
use super::writer::{Completions, TxnOutcome, TxnTicket, WriteReq};
use super::{Shared, View};
use crate::engine::write_const;
use crate::replication::{self, ReplicaRole};

/// Safety-net poll timeout of the reactor (ms): readiness events and the wake
/// pipe drive the loop; this only bounds how stale a missed wake can go.
const REACTOR_POLL_MS: i32 = 100;

/// Bytes the reactor reads per `read(2)` on a ready connection.
const READ_CHUNK: usize = 16 * 1024;

/// Hard cap on a single request line. An unterminated (or terminated) line
/// longer than this is a protocol violation; a *backlog* of complete
/// pipelined requests larger than this is load, answered with backpressure
/// (stop reading until the backlog drains), never with a close.
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// How long the reactor leaves the listener out of the poll set after a
/// persistent `accept` error (e.g. `EMFILE`).
const ACCEPT_BACKOFF_MS: u64 = 50;

/// Most prepared statements one connection may hold at once.
const MAX_PREPARED_PER_CONN: usize = 64;

/// Bound on the epoch-keyed rendered-reply cache (entries and bytes per entry).
const REPLY_CACHE_MAX_ENTRIES: usize = 256;
const REPLY_CACHE_MAX_REPLY_BYTES: usize = 64 * 1024;

/// How often reader-side row streaming re-checks the deadline and cancel token.
const ROW_CHECK_INTERVAL: usize = 256;

/// One connection's reactor-side state: the nonblocking socket plus the
/// incremental read and write buffers that make partial requests survive
/// readiness boundaries and let a whole pipelined batch of replies leave in
/// one write.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet consumed; a request is complete once it has
    /// a terminating `\n`. Partial tails persist across readiness events.
    inbuf: Vec<u8>,
    /// Rendered replies not yet written to the socket (`outpos` marks the
    /// already-written prefix).
    outbuf: Vec<u8>,
    outpos: usize,
    /// A transaction is in the commit pipeline: request draining is paused so
    /// replies stay in request order, and one admission slot is held.
    awaiting_txn: bool,
    /// Flush the remaining `outbuf`, then close (set by `QUIT`, protocol
    /// violations, and shutdown).
    closing: bool,
    /// Drop the connection now (peer gone, socket error).
    dead: bool,
    /// `PREPARE`d statements, addressed by the id `EXEC` carries.
    prepared: HashMap<u64, PreparedStmt>,
    next_prepared: u64,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            outpos: 0,
            awaiting_txn: false,
            closing: false,
            dead: false,
            prepared: HashMap::new(),
            next_prepared: 1,
        }
    }

    /// Write as much of `outbuf` as the socket accepts without blocking.
    fn flush_out(&mut self) {
        while self.outpos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.outpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.outpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.outpos == self.outbuf.len() {
            self.outbuf.clear();
            self.outpos = 0;
            if self.closing {
                self.dead = true;
            }
        } else if self.outpos > READ_CHUNK {
            // Reclaim the written prefix of a large, partially flushed reply.
            self.outbuf.drain(..self.outpos);
            self.outpos = 0;
        }
    }
}

/// A `PREPARE`d query: parsed once, its `?` placeholders recorded as term
/// positions so `EXEC` only parses the constants it binds.
pub(super) struct PreparedStmt {
    /// Normalized source text — the reply-cache fingerprint, so two
    /// connections preparing the same text share cached replies.
    src: String,
    query: Query,
    /// Term positions of the `?` placeholders, in placeholder order.
    pub(super) params: Vec<usize>,
}

/// Rendered replies keyed by request fingerprint, valid for exactly one
/// epoch: any published view invalidates the whole cache. Lives on the
/// reactor thread — no locks.
struct ReplyCache {
    epoch: u64,
    map: HashMap<String, Vec<u8>>,
}

impl ReplyCache {
    fn new() -> ReplyCache {
        ReplyCache {
            epoch: u64::MAX,
            map: HashMap::new(),
        }
    }

    fn lookup(&mut self, epoch: u64, key: &str) -> Option<&Vec<u8>> {
        if self.epoch != epoch {
            self.epoch = epoch;
            self.map.clear();
            return None;
        }
        self.map.get(key)
    }

    fn insert(&mut self, epoch: u64, key: String, reply: Vec<u8>) {
        if self.epoch != epoch || reply.len() > REPLY_CACHE_MAX_REPLY_BYTES {
            return;
        }
        if self.map.len() >= REPLY_CACHE_MAX_ENTRIES {
            self.map.clear();
        }
        self.map.insert(key, reply);
    }
}

/// The reactor: the listener, every connection, and the reply cache.
pub(super) struct Reactor {
    listener: TcpListener,
    shared: Arc<Shared>,
    write_tx: mpsc::SyncSender<WriteReq>,
    completions: Arc<Completions>,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    cache: ReplyCache,
    /// Scratch: rendered reply of the request being served (moved to the
    /// conn's outbuf, optionally copied into the cache).
    scratch: Vec<u8>,
    /// Set after a persistent `accept` error (e.g. `EMFILE`): the listener is
    /// left out of the poll set until this instant, so a readable listener we
    /// cannot accept from does not spin the reactor.
    accept_backoff_until: Option<Instant>,
}

impl Reactor {
    pub(super) fn new(
        listener: TcpListener,
        shared: Arc<Shared>,
        write_tx: mpsc::SyncSender<WriteReq>,
        completions: Arc<Completions>,
    ) -> Reactor {
        Reactor {
            listener,
            shared,
            write_tx,
            completions,
            conns: HashMap::new(),
            next_conn: 1,
            cache: ReplyCache::new(),
            scratch: Vec::new(),
            accept_backoff_until: None,
        }
    }

    /// Run until shutdown; returns whether the drain finished inside
    /// `drain_timeout` (`false` = straggling transactions were cancelled).
    pub(super) fn run(mut self) -> bool {
        let mut fds: Vec<PollFd> = Vec::new();
        let mut fd_conns: Vec<u64> = Vec::new();
        loop {
            let stopping = self.shared.stopping.load(Ordering::Acquire);
            fds.clear();
            fd_conns.clear();
            fds.push(PollFd::new(self.completions.pipe.poll_fd(), POLL_IN));
            let accepting = !stopping
                && match self.accept_backoff_until {
                    Some(until) if Instant::now() < until => false,
                    _ => {
                        self.accept_backoff_until = None;
                        true
                    }
                };
            let listener_slot = if accepting {
                fds.push(PollFd::new(self.listener.as_raw_fd(), POLL_IN));
                1
            } else {
                usize::MAX
            };
            for (&id, conn) in &self.conns {
                // No POLL_IN for a closing conn (unread inbound bytes would
                // make every poll return instantly while we wait out a slow
                // reader's flush) or while the inbuf backlog is over the cap
                // (backpressure: drain before reading more). Error/hangup
                // conditions are reported even with no requested events.
                let mut events = 0;
                if !conn.closing && conn.inbuf.len() <= MAX_REQUEST_BYTES {
                    events |= POLL_IN;
                }
                if conn.outpos < conn.outbuf.len() {
                    events |= POLL_OUT;
                }
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                fd_conns.push(id);
            }
            if poll_fds(&mut fds, REACTOR_POLL_MS).is_err() {
                // Only EINVAL-class failures reach here (EINTR is absorbed);
                // back off instead of spinning.
                std::thread::sleep(Duration::from_millis(5));
            }
            self.shared
                .counters
                .reactor_wakeups
                .fetch_add(1, Ordering::Relaxed);
            if fds[0].ready(POLL_IN) {
                self.completions.pipe.drain();
            }
            self.deliver_completions();
            if self.shared.stopping.load(Ordering::Acquire) {
                return self.drain();
            }
            if listener_slot != usize::MAX && fds[listener_slot].ready(POLL_IN | POLL_FAIL) {
                self.accept_ready();
            }
            let conn_fds_base = if listener_slot == usize::MAX { 1 } else { 2 };
            for (slot, &id) in fd_conns.iter().enumerate() {
                let pollfd = fds[conn_fds_base + slot];
                let Some(conn) = self.conns.get_mut(&id) else {
                    continue;
                };
                if pollfd.ready(POLL_IN | POLL_FAIL) && !conn.closing {
                    self.read_and_serve(id);
                }
                if let Some(conn) = self.conns.get_mut(&id) {
                    if pollfd.ready(POLL_OUT | POLL_FAIL) || !conn.outbuf.is_empty() {
                        conn.flush_out();
                    }
                }
            }
            self.reap_dead();
        }
    }

    /// Deliver queued transaction outcomes to their connections. Each outcome
    /// releases the admission slot its submission took — whether or not the
    /// submitter is still alive — and resumes the connection's paused request
    /// draining (pipelined requests behind a TXN).
    fn deliver_completions(&mut self) {
        for (conn_id, outcome) in self.completions.take() {
            self.shared.release_slot();
            let Some(conn) = self.conns.get_mut(&conn_id) else {
                continue; // submitter died mid-commit; the commit stands
            };
            conn.awaiting_txn = false;
            match outcome {
                TxnOutcome::Committed(summary, epoch) => TxnReply {
                    asserted: summary.asserted,
                    retracted: summary.retracted,
                    epoch,
                }
                .render(&mut conn.outbuf),
                TxnOutcome::Unpublished(epoch, cause) => render_err(
                    &mut conn.outbuf,
                    "unpublished",
                    &format!("committed durably at epoch={epoch} but not yet visible: {cause}"),
                ),
                TxnOutcome::Failed(error) => render_engine_error(&mut conn.outbuf, &error),
            }
            self.serve_buffered(conn_id);
            if let Some(conn) = self.conns.get_mut(&conn_id) {
                conn.flush_out();
            }
        }
    }

    /// Accept every pending connection (the listener is nonblocking).
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let id = self.next_conn;
                    self.next_conn += 1;
                    self.conns.insert(id, Conn::new(stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Persistent failure (EMFILE and kin): the listener stays
                    // readable, so back off briefly instead of re-polling it
                    // into a busy loop.
                    self.accept_backoff_until =
                        Some(Instant::now() + Duration::from_millis(ACCEPT_BACKOFF_MS));
                    break;
                }
            }
        }
    }

    /// Pull every byte the socket has, then serve every complete request.
    fn read_and_serve(&mut self, conn_id: u64) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        let mut buf = [0u8; READ_CHUNK];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => {
                    conn.inbuf.extend_from_slice(&buf[..n]);
                    // The limit is per LINE, not per buffer: only an
                    // unterminated line longer than the cap is a protocol
                    // violation. A backlog of complete pipelined requests is
                    // load, not a violation — stop reading and let
                    // `serve_buffered` drain it (backpressure), then resume.
                    let partial = match conn.inbuf.iter().rposition(|&b| b == b'\n') {
                        Some(nl) => conn.inbuf.len() - nl - 1,
                        None => conn.inbuf.len(),
                    };
                    if partial > MAX_REQUEST_BYTES {
                        render_err(
                            &mut conn.outbuf,
                            "parse",
                            "request exceeds the 1 MiB line limit",
                        );
                        conn.closing = true;
                        conn.inbuf.clear();
                        break;
                    }
                    if conn.inbuf.len() > MAX_REQUEST_BYTES {
                        break;
                    }
                    if n < buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        self.serve_buffered(conn_id);
        if let Some(conn) = self.conns.get_mut(&conn_id) {
            // One write carries the whole batch's replies.
            conn.flush_out();
        }
    }

    /// Serve every complete request in the connection's buffer — the
    /// pipelining core. Draining pauses at a submitted transaction (replies
    /// must stay in request order) and resumes when its outcome is delivered.
    fn serve_buffered(&mut self, conn_id: u64) {
        let mut served = 0u64;
        let mut consumed = 0usize;
        let mut line = String::new();
        while let Some(conn) = self.conns.get_mut(&conn_id) {
            if conn.awaiting_txn || conn.closing || conn.dead {
                break;
            }
            let Some(nl) = conn.inbuf[consumed..].iter().position(|&b| b == b'\n') else {
                break;
            };
            if nl > MAX_REQUEST_BYTES {
                // A terminated line can slip past the partial-line check in
                // `read_and_serve` when its newline lands in the same read
                // chunk that pushes it over the cap.
                render_err(
                    &mut conn.outbuf,
                    "parse",
                    "request exceeds the 1 MiB line limit",
                );
                conn.closing = true;
                consumed = conn.inbuf.len();
                break;
            }
            let raw = &conn.inbuf[consumed..consumed + nl];
            consumed += nl + 1;
            line.clear();
            match std::str::from_utf8(raw) {
                Ok(text) => line.push_str(text.trim()),
                Err(_) => {
                    render_err(&mut conn.outbuf, "parse", "request is not valid UTF-8");
                    continue;
                }
            }
            if line.is_empty() {
                continue;
            }
            served += 1;
            self.serve_request(conn_id, &line);
        }
        if let Some(conn) = self.conns.get_mut(&conn_id) {
            conn.inbuf.drain(..consumed);
        }
        if served > 0 {
            let counters = &self.shared.counters;
            counters.pipelined_batches.fetch_add(1, Ordering::Relaxed);
            counters
                .pipelined_requests
                .fetch_add(served, Ordering::Relaxed);
            counters
                .max_batch_depth
                .fetch_max(served, Ordering::Relaxed);
        }
    }

    /// Parse one request line and dispatch it, appending the reply (or
    /// submitting the transaction) for `conn_id`.
    fn serve_request(&mut self, conn_id: u64, line: &str) {
        let shared = self.shared.clone();
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        let out = &mut conn.outbuf;
        if shared.stopping.load(Ordering::Acquire) {
            render_err(out, "shutdown", "server is shutting down");
            conn.closing = true;
            return;
        }
        let request = match Request::parse(line) {
            Ok(request) => request,
            Err(message) => return render_err(out, "parse", &message),
        };
        match request {
            Request::Query(text) => {
                let key = format!("QUERY\u{1}{text}");
                self.serve_cached(conn_id, &key, || {
                    parse_query(text).map_err(|e| e.to_string())
                });
            }
            Request::Exec { id, args } => self.serve_exec(conn_id, id, args),
            Request::Prepare(text) => handle_prepare(conn, text),
            Request::Txn(spec) => self.submit_txn(conn_id, spec),
            Request::Ping => Pong.render(out),
            Request::Epoch => Epoch(shared.epoch.load(Ordering::Acquire)).render(out),
            // STATS and the replication verbs are ungoverned: replication must
            // stay alive under reader load, or a shed storm would starve every
            // follower into failover.
            Request::Stats => shared.stats().render(out),
            Request::Subscribe { from_seq, term, id } => {
                replication::handle_subscribe(&shared.repl, from_seq, term, id, out)
            }
            Request::Promote => replication::handle_promote(&shared.repl, out),
            Request::Quit => {
                out.extend_from_slice(codec::BYE);
                conn.closing = true;
            }
        }
    }

    /// Serve a read under one admission slot, through the epoch-keyed
    /// rendered-reply cache: a hit is a byte copy; a miss builds the query (a
    /// parse error is answered, never cached) and answers it from the view.
    /// Returns whether the read was admitted.
    fn serve_cached(
        &mut self,
        conn_id: u64,
        key: &str,
        query: impl FnOnce() -> Result<Query, String>,
    ) -> bool {
        let shared = &self.shared;
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return false;
        };
        if !shared.try_acquire_slot() {
            overloaded(&mut conn.outbuf, shared);
            return false;
        }
        // Snapshot the view ONCE and key the cache by ITS epoch. Loading the
        // epoch atomic separately races with `publish`: a reply rendered from
        // the old view could be cached under the new epoch and served stale
        // for the rest of that epoch, breaking read-your-writes after a TXN
        // ack (`OK … epoch=E` promises the write is visible at every epoch
        // >= E).
        let view = shared.current_view();
        if let Some(reply) = self.cache.lookup(view.epoch, key) {
            shared
                .counters
                .reply_cache_hits
                .fetch_add(1, Ordering::Relaxed);
            conn.outbuf.extend_from_slice(reply);
        } else {
            let scratch = &mut self.scratch;
            scratch.clear();
            let ok = match query() {
                Ok(query) => answer_query(&query, shared, &view, scratch),
                Err(message) => {
                    render_err(scratch, "parse", &message);
                    false
                }
            };
            conn.outbuf.extend_from_slice(scratch);
            if ok {
                self.cache
                    .insert(view.epoch, key.to_string(), scratch.clone());
            }
        }
        shared.release_slot();
        true
    }

    /// Answer `EXEC <id> [consts]`: bind the prepared statement's placeholders
    /// and answer from the current view without re-parsing the query.
    fn serve_exec(&mut self, conn_id: u64, id: u64, args: &str) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        // A bad id is a protocol error, not load: answer it before admitting.
        let Some(stmt) = conn.prepared.get(&id) else {
            return render_err(
                &mut conn.outbuf,
                "parse",
                &format!("no prepared statement with id {id} on this connection"),
            );
        };
        let key = format!("EXEC\u{1}{}\u{1}{args}", stmt.src);
        let bound = bind_prepared(stmt, args);
        if self.serve_cached(conn_id, &key, || bound) {
            let execs = &self.shared.counters.prepared_execs;
            execs.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Parse, admit, and submit a transaction; the reply is delivered by
    /// [`Reactor::deliver_completions`] when the writer reports the outcome.
    fn submit_txn(&mut self, conn_id: u64, spec: &str) {
        let shared = &self.shared;
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        let out = &mut conn.outbuf;
        match shared.repl.state.role() {
            ReplicaRole::Leader => {}
            ReplicaRole::Follower => {
                return render_err(
                    out,
                    "readonly",
                    "this node is a replica: write to the leader or PROMOTE it",
                );
            }
            ReplicaRole::Fenced => {
                return render_err(
                    out,
                    "fenced",
                    &format!(
                        "superseded by term {}; this ex-leader refuses writes",
                        shared.repl.state.term()
                    ),
                );
            }
        }
        let ops = match parse_txn_ops(spec) {
            Ok(ops) => ops,
            Err(message) => return render_err(out, "parse", &message),
        };
        if !shared.try_acquire_slot() {
            return overloaded(out, shared);
        }
        let req = WriteReq {
            ops,
            reply: TxnTicket {
                conn_id,
                completions: self.completions.clone(),
                sent: false,
            },
        };
        // A full queue is overload, not a reason to block the reactor. The
        // refused ticket's Drop would release the slot via a completion; do it
        // directly so the shed is synchronous like every other shed.
        let refused = match self.write_tx.try_send(req) {
            Ok(()) => return conn.awaiting_txn = true,
            Err(mpsc::TrySendError::Full(req)) => {
                overloaded(out, shared);
                req
            }
            Err(mpsc::TrySendError::Disconnected(req)) => {
                render_err(out, "shutdown", "server is shutting down");
                req
            }
        };
        let mut ticket = refused.reply;
        ticket.sent = true; // suppress the Drop completion
        shared.release_slot();
    }

    /// Drain mode, entered once `stopping` is observed: refuse buffered
    /// requests, deliver outstanding transaction outcomes, flush reply
    /// buffers — all bounded by `drain_timeout`, after which stragglers are
    /// cancelled via the engine's [`CancelToken`](crate::CancelToken) and
    /// given one grace period.
    fn drain(&mut self) -> bool {
        let deadline = Instant::now() + self.shared.options.drain_timeout;
        // Refuse whatever is already buffered (`ERR shutdown`), then flush.
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.serve_buffered(id);
            if let Some(conn) = self.conns.get_mut(&id) {
                if !conn.awaiting_txn {
                    conn.closing = true;
                }
                conn.flush_out();
            }
        }
        self.reap_dead();
        let mut cancelled = false;
        loop {
            let outstanding = self.conns.values().any(|c| c.awaiting_txn);
            let unflushed = self.conns.values().any(|c| c.outpos < c.outbuf.len());
            if !outstanding && !unflushed {
                return !cancelled;
            }
            let now = Instant::now();
            if now >= deadline {
                if !cancelled {
                    cancelled = true;
                    // Stragglers: abort their evaluations cooperatively. They
                    // surface as structured `ERR cancelled` replies.
                    self.shared.cancel.cancel();
                } else if now >= deadline + self.shared.options.drain_timeout {
                    // The grace period is over; the writer will still drain
                    // the queue after we exit, but clients get EOF.
                    return false;
                }
            }
            let mut fds = vec![PollFd::new(self.completions.pipe.poll_fd(), POLL_IN)];
            let mut fd_conns = Vec::new();
            for (&id, conn) in &self.conns {
                if conn.outpos < conn.outbuf.len() {
                    fds.push(PollFd::new(conn.stream.as_raw_fd(), POLL_OUT));
                    fd_conns.push(id);
                }
            }
            if poll_fds(&mut fds, 20).is_err() {
                std::thread::sleep(Duration::from_millis(5));
            }
            if fds[0].ready(POLL_IN) {
                self.completions.pipe.drain();
            }
            self.deliver_completions();
            for (slot, &id) in fd_conns.iter().enumerate() {
                if fds[1 + slot].ready(POLL_OUT | POLL_FAIL) {
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.flush_out();
                    }
                }
            }
            self.reap_dead();
        }
    }

    /// Drop dead connections. A dead submitter's admission slot is NOT
    /// released here — its outcome is still coming and releases the slot in
    /// [`Reactor::deliver_completions`].
    fn reap_dead(&mut self) {
        self.conns.retain(|_, conn| !conn.dead);
    }
}

/// Shed a request: `ERR overloaded` with the configured retry hint.
fn overloaded(out: &mut Vec<u8>, shared: &Shared) {
    render_err(
        out,
        "overloaded",
        &format!(
            "server at capacity; retry after {} ms",
            shared.options.retry_after.as_millis()
        ),
    )
}

/// Answer an already-parsed query from the caller's view snapshot (whose
/// epoch keys the reply cache — see [`Reactor::serve_cached`]), with periodic
/// deadline/cancellation checks while rendering rows. Returns whether the
/// reply is an `OK` verdict.
fn answer_query(query: &Query, shared: &Shared, view: &View, out: &mut Vec<u8>) -> bool {
    let started = Instant::now();
    let answers = view.model.answers(query);
    let mut rendered = String::new();
    for (i, row) in answers.iter().enumerate() {
        if i % ROW_CHECK_INTERVAL == 0 && i > 0 {
            if let Some(deadline) = shared.options.request_deadline {
                if started.elapsed() >= deadline {
                    render_err(
                        out,
                        "deadline",
                        &format!(
                            "deadline of {deadline:.1?} exceeded after {:.1?} ({i} of {} row(s) sent)",
                            started.elapsed(),
                            answers.len()
                        ),
                    );
                    return false;
                }
            }
            if shared.cancel.is_cancelled() || shared.stopping.load(Ordering::Acquire) {
                render_err(out, "shutdown", "server is shutting down");
                return false;
            }
        }
        rendered.clear();
        for (j, value) in row.iter().enumerate() {
            if j > 0 {
                rendered.push_str(", ");
            }
            write_const(&mut rendered, value);
        }
        codec::render_row(out, &rendered);
    }
    codec::render_rows_verdict(out, answers.len(), view.epoch);
    true
}

/// Handle `PREPARE <query>`: parse once with `?` placeholders, store the
/// statement on the connection, and reply `OK id=<id> params=<count>`.
fn handle_prepare(conn: &mut Conn, text: &str) {
    if conn.prepared.len() >= MAX_PREPARED_PER_CONN {
        return render_err(
            &mut conn.outbuf,
            "limit",
            &format!("connection already holds {MAX_PREPARED_PER_CONN} prepared statements"),
        );
    }
    match prepare_statement(text) {
        Ok(stmt) => {
            let id = conn.next_prepared;
            conn.next_prepared += 1;
            let params = stmt.params.len();
            conn.prepared.insert(id, stmt);
            codec::Prepared { id, params }.render(&mut conn.outbuf);
        }
        Err(message) => render_err(&mut conn.outbuf, "parse", &message),
    }
}

/// Compile `PREPARE` text (already normalized by [`Request::parse`]) into a
/// [`PreparedStmt`]: each `?` outside a string literal becomes a fresh
/// variable, the rewritten query is parsed once, and the placeholder term
/// positions are recorded in placeholder order.
pub(super) fn prepare_statement(src: &str) -> Result<PreparedStmt, String> {
    let mut rewritten = String::with_capacity(src.len() + 16);
    let mut names: Vec<String> = Vec::new();
    let mut in_string = false;
    for ch in src.chars() {
        if in_string {
            rewritten.push(ch);
            // The lexer has no escapes: a string runs to the next `"`.
            if ch == '"' {
                in_string = false;
            }
            continue;
        }
        match ch {
            '"' => {
                in_string = true;
                rewritten.push(ch);
            }
            '?' => {
                // `_Param` prefix: uppercase-or-underscore start makes it a
                // variable; distinct from the parser's `_anon` names, and
                // suffixed past any collision with the query's own text.
                let mut name = format!("_Param{}", names.len());
                while src.contains(&name) {
                    name.push('_');
                }
                rewritten.push_str(&name);
                names.push(name);
            }
            _ => rewritten.push(ch),
        }
    }
    // Zero-placeholder statements are legal: EXEC then behaves like a cached,
    // re-parse-free QUERY.
    let query = parse_query(&rewritten).map_err(|e| e.to_string())?;
    let mut params = vec![usize::MAX; names.len()];
    for (pos, term) in query.atom.terms.iter().enumerate() {
        if let Term::Var(symbol) = term {
            if let Some(slot) = names.iter().position(|n| n == symbol.as_str()) {
                if params[slot] != usize::MAX {
                    return Err("internal: placeholder bound twice".to_string());
                }
                params[slot] = pos;
            }
        }
    }
    if params.contains(&usize::MAX) {
        return Err("placeholders are only supported in term positions".to_string());
    }
    Ok(PreparedStmt {
        src: src.to_string(),
        query,
        params,
    })
}

/// Bind `EXEC` arguments into a prepared statement, yielding a ground-where-
/// bound query. Arguments are parsed as constants by wrapping them in a tiny
/// synthetic atom — the only parsing `EXEC` does.
pub(super) fn bind_prepared(stmt: &PreparedStmt, args: &str) -> Result<Query, String> {
    let consts: Vec<Const> = if args.is_empty() {
        Vec::new()
    } else {
        let parsed = parse_query(&format!("x({args})"))
            .map_err(|e| format!("bad EXEC arguments `{args}`: {e}"))?;
        let mut consts = Vec::with_capacity(parsed.atom.terms.len());
        for term in &parsed.atom.terms {
            match term {
                Term::Const(value) => consts.push(*value),
                Term::Var(_) => {
                    return Err(format!(
                        "EXEC arguments must be constants, got variable in `{args}`"
                    ))
                }
            }
        }
        consts
    };
    if consts.len() != stmt.params.len() {
        return Err(format!(
            "prepared statement takes {} argument(s), got {}",
            stmt.params.len(),
            consts.len()
        ));
    }
    let mut query = stmt.query.clone();
    for (&pos, &value) in stmt.params.iter().zip(consts.iter()) {
        query.atom.terms[pos] = Term::Const(value);
    }
    Ok(query)
}
