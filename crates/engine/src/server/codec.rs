//! The line protocol's one codec. Every request line is parsed once into a
//! [`Request`]; every reply type renders and reads back side by side (the
//! [`Reply`] trait), so the reactor and the [`Client`](super::Client) share
//! one implementation of each wire shape.
//!
//! # Protocol
//!
//! One request per line; every response ends with exactly one `OK …` or
//! `ERR <code>: <message>` line (rows precede it):
//!
//! ```text
//! QUERY t(0, Y)        →  ROW 1 ⏎ ROW 2 ⏎ OK rows=2 epoch=7
//! PREPARE t(?, Y)      →  OK id=1 params=1
//! EXEC 1 0             →  ROW 1 ⏎ ROW 2 ⏎ OK rows=2 epoch=7
//! TXN +e(1, 2); -e(0, 1)  →  OK asserted=1 retracted=1 epoch=8
//! EPOCH                →  OK epoch=8
//! STATS                →  OK epoch=8 in_flight=1 shed=0 … reply_cache_hits=12
//!                         (one line: every StatsReply field as key=value)
//! PING                 →  OK pong
//! REPL SUBSCRIBE 12 term=0 id=7  →  FRAME <hex>* (or SNAP <hex>) ⏎
//!                                   OK frames=2 last_seq=13 term=0
//! PROMOTE              →  OK role=leader term=3
//! QUIT                 →  OK bye (server closes the connection)
//! ```
//!
//! Verbs are case-insensitive. Error codes: `parse`, `overloaded` (retryable
//! — the message carries a `retry after N ms` hint), `deadline`, `cancelled`,
//! `limit`, `shutdown`, `txn`, `eval`, `durability`, `internal`, `unpublished`
//! (the TXN is durable on the log but no view including it could be published
//! yet), and for replication `readonly` (TXN on a follower), `fenced` (a
//! superseded ex-leader refuses writes and polls), `lease` (PROMOTE while the
//! leader's lease is still valid), `repl` (subscription against a non-durable
//! server, or a log/snapshot read failure).

use std::fmt;
use std::io::Write;
use std::str::FromStr;

use factorlog_datalog::ast::Const;
use factorlog_datalog::eval::{EvalError, LimitReason};
use factorlog_datalog::parser::parse_query;
use factorlog_datalog::symbol::Symbol;

use super::client::ClientError;
use crate::durability::parse_wal_seq;
use crate::engine::{EngineError, TxnOp};
use crate::replication::{from_hex, to_hex, ReplicaRole, SubscribeReply};
use crate::wal::WalRecord;

/// One request line, parsed once; text payloads borrow from the line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Request<'a> {
    /// `QUERY <atom>` (a trailing `.` is dropped).
    Query(&'a str),
    /// `PREPARE <atom>` with `?` placeholders (a trailing `.` is dropped).
    Prepare(&'a str),
    /// `EXEC <id> [consts]`: comma-separated constants bound to the
    /// statement's placeholders.
    Exec {
        id: u64,
        args: &'a str,
    },
    /// `TXN <ops>`: `+p(..)` / `-p(..)` separated by `;`.
    Txn(&'a str),
    Epoch,
    Stats,
    Ping,
    /// `REPL SUBSCRIBE <from_seq> [term=T] [id=I]`.
    Subscribe {
        from_seq: u64,
        term: u64,
        id: u64,
    },
    Promote,
    Quit,
}

const SUBSCRIBE_USAGE: &str = "usage: REPL SUBSCRIBE <from_seq> [term=T] [id=I]";

impl<'a> Request<'a> {
    /// Parse one trimmed, non-empty request line. `Err` is the message of the
    /// `ERR parse` reply.
    pub(crate) fn parse(line: &'a str) -> Result<Request<'a>, String> {
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((verb, rest)) => (verb, rest.trim()),
            None => (line, ""),
        };
        let is = |name: &str| verb.eq_ignore_ascii_case(name);
        let atom = || rest.trim_end_matches('.').trim_end();
        Ok(if is("QUERY") {
            Request::Query(atom())
        } else if is("EXEC") {
            let (id, args) = match rest.split_once(char::is_whitespace) {
                Some((id, args)) => (id, args.trim()),
                None => (rest, ""),
            };
            let id = id.parse().map_err(|_| "usage: EXEC <id> [consts]")?;
            Request::Exec { id, args }
        } else if is("PREPARE") {
            Request::Prepare(atom())
        } else if is("TXN") {
            Request::Txn(rest)
        } else if is("PING") {
            Request::Ping
        } else if is("EPOCH") {
            Request::Epoch
        } else if is("STATS") {
            Request::Stats
        } else if is("REPL") {
            parse_subscribe(rest)?
        } else if is("PROMOTE") {
            Request::Promote
        } else if is("QUIT") && rest.is_empty() {
            Request::Quit
        } else {
            return Err(format!("unknown request `{verb}`"));
        })
    }
}

/// The arguments of `REPL SUBSCRIBE`. A malformed field is refused, never
/// defaulted: a `term=` read as 0 would skip the fencing comparison.
fn parse_subscribe(rest: &str) -> Result<Request<'_>, String> {
    let mut words = rest.split_whitespace();
    if !words
        .next()
        .is_some_and(|sub| sub.eq_ignore_ascii_case("SUBSCRIBE"))
    {
        return Err(SUBSCRIBE_USAGE.to_string());
    }
    let (mut from_seq, mut term, mut id) = (None, 0, 0);
    for word in words {
        let parsed = match word.split_once('=') {
            Some(("term", value)) => value.parse().map(|v| term = v),
            Some(("id", value)) => value.parse().map(|v| id = v),
            _ => word.parse().map(|v| from_seq = Some(v)),
        };
        if parsed.is_err() {
            return Err(format!("malformed `{word}`; {SUBSCRIBE_USAGE}"));
        }
    }
    let from_seq = from_seq.ok_or(SUBSCRIBE_USAGE)?;
    Ok(Request::Subscribe { from_seq, term, id })
}

impl fmt::Display for Request<'_> {
    /// The request line, without its terminating newline.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Request::Query(text) => write!(f, "QUERY {text}"),
            Request::Prepare(text) => write!(f, "PREPARE {text}"),
            Request::Exec { id, args: "" } => write!(f, "EXEC {id}"),
            Request::Exec { id, args } => write!(f, "EXEC {id} {args}"),
            Request::Txn(spec) => write!(f, "TXN {spec}"),
            Request::Epoch => f.write_str("EPOCH"),
            Request::Stats => f.write_str("STATS"),
            Request::Ping => f.write_str("PING"),
            Request::Subscribe { from_seq, term, id } => {
                write!(f, "REPL SUBSCRIBE {from_seq} term={term} id={id}")
            }
            Request::Promote => f.write_str("PROMOTE"),
            Request::Quit => f.write_str("QUIT"),
        }
    }
}

/// Parse `+p(1, 2); -q(foo)` into transaction ops. Every atom must be ground.
pub(crate) fn parse_txn_ops(spec: &str) -> Result<Vec<(TxnOp, Symbol, Vec<Const>)>, String> {
    let mut ops = Vec::new();
    for part in spec.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (op, atom_text) = match part.split_at(1) {
            ("+", rest) => (TxnOp::Assert, rest.trim().trim_end_matches('.')),
            ("-", rest) => (TxnOp::Retract, rest.trim().trim_end_matches('.')),
            _ => {
                return Err(format!(
                    "transaction op `{part}` must start with `+` (assert) or `-` (retract)"
                ))
            }
        };
        let atom = parse_query(atom_text)
            .map_err(|e| format!("bad atom in `{part}`: {e}"))?
            .atom;
        let Some(tuple) = atom.as_fact() else {
            return Err(format!("transaction atom `{atom_text}` must be ground"));
        };
        ops.push((op, atom.predicate, tuple));
    }
    if ops.is_empty() {
        return Err("empty transaction".to_string());
    }
    Ok(ops)
}

/// `QUIT`'s reply; the server closes the connection after it.
pub(crate) const BYE: &[u8] = b"OK bye\n";

/// Render an `ERR <code>: <message>` verdict. Protocol lines are single
/// lines: embedded newlines flatten to ` | `.
pub(crate) fn render_err(out: &mut Vec<u8>, code: &str, message: &str) {
    let _ = writeln!(out, "ERR {code}: {}", message.replace('\n', " | "));
}

/// Render an engine error under its protocol error code.
pub(crate) fn render_engine_error(out: &mut Vec<u8>, error: &EngineError) {
    let code = match error {
        EngineError::Parse(_) => "parse",
        EngineError::ArityMismatch { .. } | EngineError::NonGroundFact(_) => "txn",
        EngineError::Eval(EvalError::LimitExceeded { reason, .. }) => match reason {
            LimitReason::Cancelled => "cancelled",
            LimitReason::Deadline { .. } => "deadline",
            LimitReason::DerivedFacts { .. } | LimitReason::MemoryBudget { .. } => "limit",
        },
        EngineError::Eval(_) => "eval",
        EngineError::Durability(_) | EngineError::Locked { .. } => "durability",
        EngineError::Snapshot(_) | EngineError::Io(_) | EngineError::Transform(_) => "internal",
    };
    render_err(out, code, &error.to_string())
}

/// Read a verdict line: the fields after `OK`, or the server's structured
/// `ERR` as [`ClientError::Server`].
pub(crate) fn verdict(line: &str) -> Result<&str, ClientError> {
    if let Some(rest) = line.strip_prefix("OK") {
        return Ok(rest.trim());
    }
    if let Some(rest) = line.strip_prefix("ERR ") {
        let (code, message) = rest.split_once(':').unwrap_or((rest, ""));
        return Err(ClientError::Server {
            code: code.trim().to_string(),
            message: message.trim().to_string(),
        });
    }
    Err(ClientError::Protocol(format!(
        "expected OK/ERR, got `{line}`"
    )))
}

/// The value of `key=` among a verdict's fields. Missing and malformed are
/// both protocol errors — never a default.
pub(crate) fn field<T: FromStr>(fields: &str, key: &str) -> Result<T, ClientError> {
    fields
        .split_whitespace()
        .find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
        .and_then(|value| value.parse().ok())
        .ok_or_else(|| {
            ClientError::Protocol(format!("missing or malformed `{key}=` in `{fields}`"))
        })
}

/// A reply shape: the server renders it, the client reads it back.
pub(crate) trait Reply: Sized {
    /// Append the reply's lines, ending in its `OK` verdict.
    fn render(&self, out: &mut Vec<u8>);
    /// Build the reply from its `OK` verdict's fields.
    fn parse(fields: &str) -> Result<Self, ClientError>;
    /// Read the reply from successive newline-stripped lines: the verdict
    /// alone, unless the reply has body lines before it.
    fn read(
        mut next_line: impl FnMut() -> Result<String, ClientError>,
    ) -> Result<Self, ClientError> {
        Self::parse(verdict(&next_line()?)?)
    }
}

/// `PING`'s reply.
#[derive(Debug, PartialEq)]
pub(crate) struct Pong;

impl Reply for Pong {
    fn render(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"OK pong\n");
    }
    fn parse(_: &str) -> Result<Self, ClientError> {
        Ok(Pong)
    }
}

/// `EPOCH`'s reply: the currently published epoch.
#[derive(Debug, PartialEq)]
pub(crate) struct Epoch(pub(crate) u64);

impl Reply for Epoch {
    fn render(&self, out: &mut Vec<u8>) {
        let _ = writeln!(out, "OK epoch={}", self.0);
    }
    fn parse(f: &str) -> Result<Self, ClientError> {
        Ok(Epoch(field(f, "epoch")?))
    }
}

/// A successful `QUERY` (or `EXEC`) response.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryReply {
    /// One rendered row per answer, in the server's (sorted) answer order.
    pub rows: Vec<String>,
    /// Epoch of the view the query was answered from.
    pub epoch: u64,
}

/// Append one `ROW` line; `row` is the comma-separated rendered constants.
pub(crate) fn render_row(out: &mut Vec<u8>, row: &str) {
    out.extend_from_slice(b"ROW ");
    out.extend_from_slice(row.as_bytes());
    out.push(b'\n');
}

/// Append the `OK` verdict that closes `rows` rows answered at `epoch`.
pub(crate) fn render_rows_verdict(out: &mut Vec<u8>, rows: usize, epoch: u64) {
    let _ = writeln!(out, "OK rows={rows} epoch={epoch}");
}

impl Reply for QueryReply {
    fn render(&self, out: &mut Vec<u8>) {
        for row in &self.rows {
            render_row(out, row);
        }
        render_rows_verdict(out, self.rows.len(), self.epoch);
    }
    fn parse(f: &str) -> Result<Self, ClientError> {
        let epoch = field(f, "epoch")?;
        Ok(QueryReply {
            rows: Vec::new(),
            epoch,
        })
    }
    fn read(
        mut next_line: impl FnMut() -> Result<String, ClientError>,
    ) -> Result<Self, ClientError> {
        let mut rows = Vec::new();
        loop {
            let line = next_line()?;
            match line.strip_prefix("ROW ") {
                Some(row) => rows.push(row.to_string()),
                None => {
                    return Ok(QueryReply {
                        rows,
                        ..Self::parse(verdict(&line)?)?
                    })
                }
            }
        }
    }
}

/// A server-side prepared statement handle, scoped to the
/// [`Client`](super::Client) connection that created it (`PREPARE`'s reply).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prepared {
    /// The id `EXEC` sends.
    pub id: u64,
    /// Number of `?` placeholders the statement takes.
    pub params: usize,
}

impl Reply for Prepared {
    fn render(&self, out: &mut Vec<u8>) {
        let _ = writeln!(out, "OK id={} params={}", self.id, self.params);
    }
    fn parse(f: &str) -> Result<Self, ClientError> {
        Ok(Prepared {
            id: field(f, "id")?,
            params: field(f, "params")?,
        })
    }
}

/// A successful `TXN` response.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TxnReply {
    /// Facts asserted (new).
    pub asserted: usize,
    /// Facts retracted (present and removed).
    pub retracted: usize,
    /// The first epoch whose view includes this transaction.
    pub epoch: u64,
}

impl Reply for TxnReply {
    fn render(&self, out: &mut Vec<u8>) {
        let _ = writeln!(
            out,
            "OK asserted={} retracted={} epoch={}",
            self.asserted, self.retracted, self.epoch
        );
    }
    fn parse(f: &str) -> Result<Self, ClientError> {
        Ok(TxnReply {
            asserted: field(f, "asserted")?,
            retracted: field(f, "retracted")?,
            epoch: field(f, "epoch")?,
        })
    }
}

/// A server's counters: the `STATS` reply, and the one snapshot behind
/// [`ServerHandle::server_metrics`](super::ServerHandle::server_metrics),
/// [`ShutdownReport::server_metrics`](super::ShutdownReport::server_metrics)
/// and the metrics JSON `server` object.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StatsReply {
    /// Current published epoch.
    pub epoch: u64,
    /// Requests in service right now.
    pub in_flight: usize,
    /// Requests shed by admission control so far.
    pub shed: u64,
    /// Group commits the engine performed (each one fsync).
    pub group_commits: u64,
    /// Transactions committed through those groups.
    pub group_txns: u64,
    /// Measured batching ratio: `group_txns / group_commits` (0 before the
    /// first commit).
    pub txns_per_fsync: f64,
    /// The server's replication role.
    pub role: ReplicaRole,
    /// The server's replication term.
    pub term: u64,
    /// Leader only: followers seen polling within the prune horizon.
    pub repl_followers: u64,
    /// Replication lag in frames: a follower's published view's distance
    /// behind its leader, or a leader's worst-follower distance.
    pub repl_lag_frames: u64,
    /// Replication lag in wall-clock ms: time since the follower's last
    /// successful leader contact, or since the leader's stalest follower poll.
    pub repl_lag_ms: u64,
    /// Times the reactor's poll loop woke (readiness, wake pipe, or timeout).
    pub reactor_wakeups: u64,
    /// Read-drain rounds that served at least one request.
    pub pipelined_batches: u64,
    /// Requests served across those rounds (`/ pipelined_batches` = mean
    /// pipelining depth).
    pub pipelined_requests: u64,
    /// Deepest single pipelined batch seen.
    pub max_batch_depth: u64,
    /// `EXEC` requests served from prepared statements.
    pub prepared_execs: u64,
    /// Reads answered from the epoch-keyed rendered-reply cache.
    pub reply_cache_hits: u64,
}

impl Reply for StatsReply {
    fn render(&self, out: &mut Vec<u8>) {
        let _ = writeln!(
            out,
            "OK epoch={} in_flight={} shed={} group_commits={} group_txns={} \
             txns_per_fsync={:.2} role={} term={} repl_followers={} repl_lag_frames={} \
             repl_lag_ms={} reactor_wakeups={} pipelined_batches={} pipelined_requests={} \
             max_batch_depth={} prepared_execs={} reply_cache_hits={}",
            self.epoch,
            self.in_flight,
            self.shed,
            self.group_commits,
            self.group_txns,
            self.txns_per_fsync,
            self.role,
            self.term,
            self.repl_followers,
            self.repl_lag_frames,
            self.repl_lag_ms,
            self.reactor_wakeups,
            self.pipelined_batches,
            self.pipelined_requests,
            self.max_batch_depth,
            self.prepared_execs,
            self.reply_cache_hits,
        );
    }
    fn parse(f: &str) -> Result<Self, ClientError> {
        Ok(StatsReply {
            epoch: field(f, "epoch")?,
            in_flight: field(f, "in_flight")?,
            shed: field(f, "shed")?,
            group_commits: field(f, "group_commits")?,
            group_txns: field(f, "group_txns")?,
            txns_per_fsync: field(f, "txns_per_fsync")?,
            role: field(f, "role")?,
            term: field(f, "term")?,
            repl_followers: field(f, "repl_followers")?,
            repl_lag_frames: field(f, "repl_lag_frames")?,
            repl_lag_ms: field(f, "repl_lag_ms")?,
            reactor_wakeups: field(f, "reactor_wakeups")?,
            pipelined_batches: field(f, "pipelined_batches")?,
            pipelined_requests: field(f, "pipelined_requests")?,
            max_batch_depth: field(f, "max_batch_depth")?,
            prepared_execs: field(f, "prepared_execs")?,
            reply_cache_hits: field(f, "reply_cache_hits")?,
        })
    }
}

/// `PROMOTE`'s reply: the role and term after the call.
#[derive(Debug, PartialEq)]
pub(crate) struct Promoted {
    pub(crate) role: ReplicaRole,
    pub(crate) term: u64,
}

impl Reply for Promoted {
    fn render(&self, out: &mut Vec<u8>) {
        let _ = writeln!(out, "OK role={} term={}", self.role, self.term);
    }
    fn parse(f: &str) -> Result<Self, ClientError> {
        Ok(Promoted {
            role: field(f, "role")?,
            term: field(f, "term")?,
        })
    }
}

impl Reply for SubscribeReply {
    /// `SNAP` (when bootstrapping) or `FRAME` lines, hex-encoded so the
    /// payload stays line-safe, then the verdict. A snapshot's verdict also
    /// names the sequence number its `% wal-seq` stamp includes.
    fn render(&self, out: &mut Vec<u8>) {
        if let Some(text) = &self.snapshot {
            let _ = writeln!(out, "SNAP {}", to_hex(text.as_bytes()));
        }
        for frame in &self.frames {
            let _ = writeln!(out, "FRAME {}", to_hex(&frame.encode()));
        }
        let _ = write!(out, "OK frames={}", self.frames.len());
        if let Some(text) = &self.snapshot {
            let _ = write!(out, " snapshot_seq={}", parse_wal_seq(text));
        }
        let _ = writeln!(out, " last_seq={} term={}", self.last_seq, self.term);
    }
    fn parse(f: &str) -> Result<Self, ClientError> {
        Ok(SubscribeReply {
            snapshot: None,
            frames: Vec::new(),
            last_seq: field(f, "last_seq")?,
            term: field(f, "term")?,
        })
    }
    fn read(
        mut next_line: impl FnMut() -> Result<String, ClientError>,
    ) -> Result<Self, ClientError> {
        let mut snapshot = None;
        let mut frames = Vec::new();
        loop {
            let line = next_line()?;
            if let Some(hex) = line.strip_prefix("SNAP ") {
                let bytes = from_hex(hex).map_err(ClientError::Protocol)?;
                snapshot = Some(String::from_utf8(bytes).map_err(|_| {
                    ClientError::Protocol("shipped snapshot is not utf-8".to_string())
                })?);
            } else if let Some(hex) = line.strip_prefix("FRAME ") {
                let bytes = from_hex(hex).map_err(ClientError::Protocol)?;
                let record = WalRecord::decode(&bytes)
                    .map_err(|e| ClientError::Protocol(format!("bad shipped frame: {e}")))?;
                frames.push(record);
            } else {
                let verdict = Self::parse(verdict(&line)?)?;
                return Ok(SubscribeReply {
                    snapshot,
                    frames,
                    ..verdict
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalOp;

    /// Feed `bytes` to a reply reader line by line, as the client's socket
    /// reader would (newline-stripped).
    fn read_back<R: Reply>(bytes: &[u8]) -> Result<R, ClientError> {
        let text = std::str::from_utf8(bytes).expect("replies are utf-8");
        let mut lines = text.lines();
        R::read(|| {
            lines
                .next()
                .map(str::to_string)
                .ok_or_else(|| ClientError::Io("eof".to_string()))
        })
    }

    fn round_trip<R: Reply + PartialEq + fmt::Debug>(reply: R) {
        let mut out = Vec::new();
        reply.render(&mut out);
        assert_eq!(read_back::<R>(&out).expect("reads back"), reply);
    }

    fn rendered(reply: &impl Reply) -> String {
        let mut out = Vec::new();
        reply.render(&mut out);
        String::from_utf8(out).unwrap()
    }

    fn stats() -> StatsReply {
        StatsReply {
            epoch: 8,
            in_flight: 1,
            shed: 2,
            group_commits: 3,
            group_txns: 7,
            txns_per_fsync: 2.5,
            role: ReplicaRole::Follower,
            term: 4,
            repl_followers: 5,
            repl_lag_frames: 6,
            repl_lag_ms: 9,
            reactor_wakeups: 10,
            pipelined_batches: 11,
            pipelined_requests: 12,
            max_batch_depth: 13,
            prepared_execs: 14,
            reply_cache_hits: 15,
        }
    }

    #[test]
    fn requests_round_trip_through_render_and_parse() {
        for request in [
            Request::Query("t(0, Y)"),
            Request::Query("label(X, \"blue metal\")"),
            Request::Prepare("t(?, \"a?b\")"),
            Request::Exec { id: 3, args: "" },
            Request::Exec {
                id: 3,
                args: "0, \"two words\"",
            },
            Request::Txn("+e(1, 2); -e(0, \"x y\")"),
            Request::Epoch,
            Request::Stats,
            Request::Ping,
            Request::Subscribe {
                from_seq: 12,
                term: 3,
                id: 7,
            },
            Request::Promote,
            Request::Quit,
        ] {
            let line = request.to_string();
            assert_eq!(Request::parse(&line), Ok(request), "{line}");
        }
    }

    #[test]
    fn replies_round_trip_through_render_and_read() {
        round_trip(Pong);
        round_trip(Epoch(42));
        round_trip(QueryReply {
            rows: vec!["1, a".to_string(), "2, \"blue metal\"".to_string()],
            epoch: 7,
        });
        round_trip(QueryReply {
            rows: Vec::new(),
            epoch: 0,
        });
        round_trip(Prepared { id: 1, params: 2 });
        round_trip(TxnReply {
            asserted: 1,
            retracted: 2,
            epoch: 3,
        });
        round_trip(stats());
        round_trip(Promoted {
            role: ReplicaRole::Leader,
            term: 3,
        });
        round_trip(SubscribeReply {
            snapshot: None,
            frames: vec![WalRecord::Txn {
                seq: 12,
                ops: vec![(WalOp::Assert, Symbol::intern("e"), vec![Const::Int(1)])],
            }],
            last_seq: 13,
            term: 0,
        });
        round_trip(SubscribeReply {
            snapshot: Some("% wal-seq: 9\ne(1, 2).\n".to_string()),
            frames: Vec::new(),
            last_seq: 11,
            term: 2,
        });
    }

    #[test]
    fn errors_flatten_newlines_and_read_back_as_server_errors() {
        let mut out = Vec::new();
        render_err(&mut out, "internal", "first line\nsecond: line");
        assert_eq!(out, b"ERR internal: first line | second: line\n");
        match read_back::<Pong>(&out) {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, "internal");
                assert_eq!(message, "first line | second: line");
            }
            other => panic!("expected a server error, got {other:?}"),
        }
    }

    /// One golden byte string per verb and per reply: the wire format is
    /// pinned here, not only by the harnesses that drive it.
    #[test]
    fn golden_wire_bytes() {
        let requests = [
            (Request::Query("t(0, Y)"), "QUERY t(0, Y)"),
            (Request::Prepare("t(?, Y)"), "PREPARE t(?, Y)"),
            (Request::Exec { id: 1, args: "0" }, "EXEC 1 0"),
            (Request::Exec { id: 1, args: "" }, "EXEC 1"),
            (Request::Txn("+e(1, 2); -e(0, 1)"), "TXN +e(1, 2); -e(0, 1)"),
            (Request::Epoch, "EPOCH"),
            (Request::Stats, "STATS"),
            (Request::Ping, "PING"),
            (
                Request::Subscribe {
                    from_seq: 12,
                    term: 0,
                    id: 7,
                },
                "REPL SUBSCRIBE 12 term=0 id=7",
            ),
            (Request::Promote, "PROMOTE"),
            (Request::Quit, "QUIT"),
        ];
        for (request, line) in requests {
            assert_eq!(request.to_string(), line);
        }
        assert_eq!(rendered(&Pong), "OK pong\n");
        assert_eq!(BYE, b"OK bye\n");
        assert_eq!(rendered(&Epoch(8)), "OK epoch=8\n");
        assert_eq!(
            rendered(&QueryReply {
                rows: vec!["1".to_string(), "2".to_string()],
                epoch: 7
            }),
            "ROW 1\nROW 2\nOK rows=2 epoch=7\n"
        );
        assert_eq!(
            rendered(&Prepared { id: 1, params: 1 }),
            "OK id=1 params=1\n"
        );
        assert_eq!(
            rendered(&TxnReply {
                asserted: 1,
                retracted: 1,
                epoch: 8
            }),
            "OK asserted=1 retracted=1 epoch=8\n"
        );
        assert_eq!(
            rendered(&stats()),
            "OK epoch=8 in_flight=1 shed=2 group_commits=3 group_txns=7 txns_per_fsync=2.50 \
             role=follower term=4 repl_followers=5 repl_lag_frames=6 repl_lag_ms=9 \
             reactor_wakeups=10 pipelined_batches=11 pipelined_requests=12 max_batch_depth=13 \
             prepared_execs=14 reply_cache_hits=15\n"
        );
        assert_eq!(
            rendered(&Promoted {
                role: ReplicaRole::Leader,
                term: 3
            }),
            "OK role=leader term=3\n"
        );
        assert_eq!(
            rendered(&SubscribeReply {
                snapshot: Some("% wal-seq: 9\n".to_string()),
                frames: Vec::new(),
                last_seq: 11,
                term: 2,
            }),
            format!(
                "SNAP {}\nOK frames=0 snapshot_seq=9 last_seq=11 term=2\n",
                to_hex(b"% wal-seq: 9\n")
            )
        );
        let frame = WalRecord::Txn {
            seq: 12,
            ops: vec![(WalOp::Assert, Symbol::intern("e"), vec![Const::Int(1)])],
        };
        assert_eq!(
            rendered(&SubscribeReply {
                snapshot: None,
                frames: vec![frame.clone()],
                last_seq: 13,
                term: 0,
            }),
            format!(
                "FRAME {}\nOK frames=1 last_seq=13 term=0\n",
                to_hex(&frame.encode())
            )
        );
    }

    #[test]
    fn parse_normalizes_and_refuses_malformed_requests() {
        assert_eq!(
            Request::parse("query t(0, Y)."),
            Ok(Request::Query("t(0, Y)"))
        );
        assert_eq!(
            Request::parse("EXEC 4   1, 2"),
            Ok(Request::Exec {
                id: 4,
                args: "1, 2"
            })
        );
        assert_eq!(
            Request::parse("REPL SUBSCRIBE 5"),
            Ok(Request::Subscribe {
                from_seq: 5,
                term: 0,
                id: 0
            })
        );
        for (line, message) in [
            ("FROB", "unknown request `FROB`"),
            ("QUIT now", "unknown request `QUIT`"),
            ("EXEC", "usage: EXEC <id> [consts]"),
            ("EXEC x 1", "usage: EXEC <id> [consts]"),
            ("REPL FOLLOW 5", SUBSCRIBE_USAGE),
            ("REPL SUBSCRIBE", SUBSCRIBE_USAGE),
        ] {
            assert_eq!(Request::parse(line), Err(message.to_string()), "{line}");
        }
    }

    /// A malformed `term=` must not read as term 0 (that would skip the
    /// fencing comparison), nor a malformed `id=` as 0 (skipping lag
    /// accounting), nor a malformed sequence as "absent".
    #[test]
    fn subscribe_refuses_malformed_fields_instead_of_defaulting_them() {
        for line in [
            "REPL SUBSCRIBE 5 term=abc",
            "REPL SUBSCRIBE 5 id=abc",
            "REPL SUBSCRIBE 5 term=",
            "REPL SUBSCRIBE abc 5",
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.starts_with("malformed"), "{line}: {err}");
        }
    }

    /// A missing or unknown `role=` is a protocol error, not `leader`.
    #[test]
    fn stats_refuses_a_missing_or_unknown_role() {
        let line = rendered(&stats());
        for bad in [
            line.replace("role=follower ", ""),
            line.replace("role=follower", "role=president"),
        ] {
            match read_back::<StatsReply>(bad.as_bytes()) {
                Err(ClientError::Protocol(message)) => {
                    assert!(message.contains("role="), "{message}")
                }
                other => panic!("expected a protocol error, got {other:?}"),
            }
        }
        match read_back::<Promoted>(b"OK role=king term=1\n") {
            Err(ClientError::Protocol(_)) => {}
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }
}
