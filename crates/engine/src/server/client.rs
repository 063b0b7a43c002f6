//! The line-protocol client: one synchronous connection speaking the
//! requests and replies of [`codec`](super::codec).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use super::codec::{Epoch, Pong, Prepared, QueryReply, Reply, Request, StatsReply, TxnReply};

/// A client-side error.
#[derive(Clone, Debug)]
pub enum ClientError {
    /// The socket failed (connect refused, disconnect mid-response).
    Io(String),
    /// The server sent something the client cannot interpret.
    Protocol(String),
    /// The server answered with a structured `ERR` line.
    Server {
        /// The error code (`overloaded`, `deadline`, `shutdown`, …).
        code: String,
        /// The human-readable message after the code.
        message: String,
    },
}

impl ClientError {
    /// Is this an `overloaded` shed — the one error class the server asks the
    /// client to retry after a backoff?
    pub fn is_retryable(&self) -> bool {
        matches!(self, ClientError::Server { code, .. } if code == "overloaded")
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(m) => write!(f, "io: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server { code, message } => write!(f, "server ({code}): {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Jitter a backoff delay uniformly into `(delay/2, delay]`. Without this,
/// every client shed by the same overload retries on the same schedule and the
/// herd stampedes back in lockstep. Dependency-free: a splitmix64 stream over
/// a process-global counter seeded from the clock and pid.
pub(super) fn jittered(delay: Duration) -> Duration {
    static STATE: AtomicU64 = AtomicU64::new(0);
    if STATE.load(Ordering::Relaxed) == 0 {
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5_DEEC_E66D)
            ^ ((std::process::id() as u64) << 32);
        // `| 1`: never store 0, the "unseeded" sentinel.
        let _ = STATE.compare_exchange(0, seed | 1, Ordering::Relaxed, Ordering::Relaxed);
    }
    let mut x = STATE.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    let nanos = delay.as_nanos() as u64;
    let span = (nanos / 2).max(1);
    Duration::from_nanos(nanos - span + 1 + x % span)
}

/// A line-protocol client with exponential-backoff retry for shed requests.
/// One request in flight at a time per client (the protocol is synchronous).
///
/// Idempotent reads ([`Client::query`]) transparently reconnect and retry
/// once when the connection drops; writes ([`Client::txn`]) never do — a
/// dropped connection mid-commit leaves the outcome unknown, and a blind
/// retry could double-apply.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The server's resolved address, kept for reconnects.
    addr: SocketAddr,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(|e| ClientError::Io(e.to_string()))?;
        stream.set_nodelay(true).ok();
        let addr = stream
            .peer_addr()
            .map_err(|e| ClientError::Io(e.to_string()))?;
        let reader = stream
            .try_clone()
            .map_err(|e| ClientError::Io(e.to_string()))?;
        Ok(Client {
            reader: BufReader::new(reader),
            writer: stream,
            addr,
        })
    }

    /// Replace the dropped connection with a fresh one to the same address.
    /// Connection-scoped state (prepared statements) does not survive.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let fresh = Client::connect(self.addr)?;
        self.reader = fresh.reader;
        self.writer = fresh.writer;
        Ok(())
    }

    /// Connect with exponential backoff — for races against a server that is
    /// still binding (e.g. a test or smoke script that just spawned it).
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Clone,
        attempts: usize,
    ) -> Result<Client, ClientError> {
        let mut delay = Duration::from_millis(10);
        let mut last = ClientError::Io("no connection attempts made".to_string());
        for _ in 0..attempts.max(1) {
            match Client::connect(addr.clone()) {
                Ok(client) => return Ok(client),
                Err(e) => last = e,
            }
            std::thread::sleep(jittered(delay));
            delay = (delay * 2).min(Duration::from_secs(1));
        }
        Err(last)
    }

    /// Send one request line (one write).
    pub(crate) fn send(&mut self, request: Request<'_>) -> Result<(), ClientError> {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| ClientError::Io(e.to_string()))
    }

    pub(crate) fn read_reply_line(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err(ClientError::Io("server closed the connection".to_string())),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(ClientError::Io(e.to_string())),
        }
    }

    /// Send `request` and read its reply.
    pub(crate) fn call<R: Reply>(&mut self, request: Request<'_>) -> Result<R, ClientError> {
        self.send(request)?;
        R::read(|| self.read_reply_line())
    }

    /// Run one query; rows come back rendered exactly as the server printed
    /// them (parseable constant syntax, comma-separated).
    ///
    /// Queries are idempotent, so a dropped connection is repaired by one
    /// transparent reconnect-and-retry before the error surfaces.
    pub fn query(&mut self, atom: &str) -> Result<QueryReply, ClientError> {
        match self.call(Request::Query(atom)) {
            Err(ClientError::Io(_)) => {
                self.reconnect()?;
                self.call(Request::Query(atom))
            }
            other => other,
        }
    }

    /// `PREPARE` a query with `?` placeholders; [`Client::exec`] binds them.
    /// The statement lives on this connection — a reconnect discards it.
    pub fn prepare(&mut self, query: &str) -> Result<Prepared, ClientError> {
        self.call(Request::Prepare(query))
    }

    /// `EXEC` a prepared statement with comma-separated constant arguments
    /// (e.g. `"0, foo"`; empty string for zero-parameter statements).
    ///
    /// No transparent reconnect: prepared statements are connection-scoped,
    /// so after a drop the id no longer exists — re-`PREPARE` instead.
    pub fn exec(&mut self, stmt: Prepared, args: &str) -> Result<QueryReply, ClientError> {
        self.call(Request::Exec { id: stmt.id, args })
    }

    /// Commit a transaction, e.g. `"+e(1, 2); -e(0, 1)"`.
    ///
    /// Never reconnects on I/O errors: the transaction may have committed
    /// before the drop, and blindly retrying could double-apply it. Callers
    /// who know their ops are idempotent can reconnect and retry themselves.
    pub fn txn(&mut self, spec: &str) -> Result<TxnReply, ClientError> {
        self.call(Request::Txn(spec))
    }

    /// Retry wrapper around [`Client::query`]: exponential backoff on
    /// `overloaded` sheds, up to `attempts` tries.
    pub fn query_with_retry(
        &mut self,
        atom: &str,
        attempts: usize,
    ) -> Result<QueryReply, ClientError> {
        Self::with_backoff(attempts, || self.query(atom))
    }

    /// Retry wrapper around [`Client::txn`]: exponential backoff on
    /// `overloaded` sheds, up to `attempts` tries.
    pub fn txn_with_retry(&mut self, spec: &str, attempts: usize) -> Result<TxnReply, ClientError> {
        Self::with_backoff(attempts, || self.txn(spec))
    }

    fn with_backoff<T>(
        attempts: usize,
        mut call: impl FnMut() -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut delay = Duration::from_millis(5);
        let mut last_err = None;
        for _ in 0..attempts.max(1) {
            match call() {
                Ok(value) => return Ok(value),
                Err(e) if e.is_retryable() => {
                    last_err = Some(e);
                    std::thread::sleep(jittered(delay));
                    delay = (delay * 2).min(Duration::from_millis(500));
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.expect("at least one attempt was made"))
    }

    /// The server's current epoch.
    pub fn epoch(&mut self) -> Result<u64, ClientError> {
        self.call(Request::Epoch).map(|Epoch(epoch)| epoch)
    }

    /// The server's counters.
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        self.call(Request::Stats)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.call(Request::Ping).map(|Pong| ())
    }

    /// Say goodbye; the server closes the connection.
    pub fn quit(mut self) {
        let _ = self.send(Request::Quit);
        let mut sink = String::new();
        let _ = self.reader.read_to_string(&mut sink);
    }
}
