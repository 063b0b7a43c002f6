//! The served workloads, `serve_hot` and `serve_mixed`: a durable session
//! behind `serve`, driven over TCP through `Client` only.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use factorlog_datalog::ast::Const;
use factorlog_engine::{serve, Client, Engine, ServerHandle, ServerOptions, StatsReply};

use crate::inputs::{facts_checksum, Forest, Rng, TxnStream};
use crate::layers;
use crate::trace::{ms, quantile, Tracer, Windows, ROOT, SUBWINDOWS};
use crate::{Ctx, Figures, Outcome, Sizes};

/// The `serve_mixed` reader's pause between reads. Without it the reader and
/// the reactor keep one of two cores busy and the writer competes with them
/// for the other, so its latency follows whatever CPU the host lends; with it
/// they use about a third of a core.
const MIXED_THINK: Duration = Duration::from_millis(1);

/// Read counts by (chain, epoch): `[without spare edge, with spare edge]`.
/// Bounded by chains x epochs, not by the number of reads.
type Seen = HashMap<(usize, u64), [u64; 2]>;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Two readers over a few hot keys; writes only between sub-windows.
    Hot,
    /// One reader over every key, one open-loop writer.
    Mixed,
}

struct Served {
    handle: ServerHandle,
    dir: PathBuf,
}

/// Open a fresh durable session, load the forest, serve it, and wait for the
/// first reply: everything a user pays before the first real query.
fn set_up(forest: &Forest, dir: &Path) -> Result<Served, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut engine = Engine::open_durable(dir).map_err(|e| format!("open: {e}"))?;
    engine
        .load_source(&forest.source())
        .map_err(|e| format!("load: {e}"))?;
    let handle = serve(engine, "127.0.0.1:0", ServerOptions::default())
        .map_err(|e| format!("serve: {e}"))?;
    Client::connect(handle.addr())
        .and_then(|mut c| c.ping())
        .map_err(|e| format!("first ping: {e}"))?;
    Ok(Served {
        handle,
        dir: dir.to_path_buf(),
    })
}

/// The measured window: `SUBWINDOWS` equal parts from `start`. The traced run
/// spans the second half only, so the first half is its untraced baseline.
#[derive(Clone, Copy)]
struct Window {
    start: Instant,
    sub: Duration,
    trace: bool,
}

impl Window {
    fn sub_at(&self, t: Instant) -> usize {
        let elapsed = t.saturating_duration_since(self.start).as_nanos();
        ((elapsed / self.sub.as_nanos().max(1)) as usize).min(SUBWINDOWS - 1)
    }

    fn traced(&self, t: Instant) -> bool {
        self.trace && self.sub_at(t) >= SUBWINDOWS / 2
    }
}

/// What reader connections saw.
struct Reads {
    latency: Windows,
    /// Process CPU seconds spent while reads ran.
    cpu: f64,
    seen: Seen,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    tracer: Tracer,
}

impl Reads {
    fn new(origin: Instant) -> Reads {
        Reads {
            latency: Windows::new(),
            cpu: 0.0,
            seen: Seen::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            tracer: Tracer::new(origin),
        }
    }

    fn absorb(&mut self, other: Reads) {
        self.latency.merge(&other.latency);
        self.cpu += other.cpu;
        for (key, [without, with]) in other.seen {
            let counts = self.seen.entry(key).or_default();
            counts[0] += without;
            counts[1] += with;
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems.into_iter().take(5));
        self.tracer.absorb(other.tracer);
    }
}

/// A closed-loop reader: alternates `QUERY t(c, Y)` and `EXEC` of a prepared
/// `t(?, Y)` until `until`, pausing `think` between reads, after an untimed
/// pass over `warm_keys` in both forms.
#[allow(clippy::too_many_arguments)]
fn read_loop(
    addr: SocketAddr,
    forest: &Forest,
    mut key: impl FnMut() -> i64,
    warm_keys: &[i64],
    window: Window,
    until: Instant,
    think: Duration,
    origin: Instant,
    reader: u64,
) -> Reads {
    let mut out = Reads::new(origin);
    let connected = Client::connect(addr).and_then(|mut c| c.prepare("t(?, Y)").map(|s| (c, s)));
    let (mut client, stmt) = match connected {
        Ok(pair) => pair,
        Err(e) => {
            out.attempted = 1;
            out.failed = 1;
            out.problems
                .push(format!("reader {reader}: connect/prepare: {e}"));
            return out;
        }
    };
    let mut one = |out: &mut Reads, n: u64, c: i64, record: bool| {
        let start = Instant::now();
        let traced = record && window.traced(start);
        let query = n.is_multiple_of(2);
        let name = if query { "client.query" } else { "client.exec" };
        let span = traced.then(|| out.tracer.open(name, ROOT, (reader << 40) | n));
        let reply = if query {
            client.query(&format!("t({c}, Y)"))
        } else {
            client.exec(stmt, &c.to_string())
        };
        let elapsed = start.elapsed();
        if let Some(span) = span {
            out.tracer.close(span);
        }
        out.attempted += 1;
        let reply = match reply {
            Ok(reply) => reply,
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("read t({c}, Y): {e}"));
                return;
            }
        };
        let rows: Result<Vec<i64>, _> = reply.rows.iter().map(|r| r.parse::<i64>()).collect();
        match rows.ok().and_then(|rows| forest.classify(c, &rows)) {
            Some(spare) => {
                let (chain, _) = forest.place(c);
                out.seen.entry((chain, reply.epoch)).or_default()[usize::from(spare)] += 1;
            }
            None => {
                out.failed += 1;
                out.problems.push(format!(
                    "read t({c}, Y) at epoch {}: wrong rows",
                    reply.epoch
                ));
            }
        }
        if record {
            out.latency.hists[window.sub_at(start)].record(elapsed);
        }
    };
    let mut n = 0u64;
    for &c in warm_keys {
        for _ in 0..2 {
            one(&mut out, n, c, false);
            n += 1;
        }
    }
    while Instant::now() < until {
        let c = key();
        one(&mut out, n, c, true);
        n += 1;
        if !think.is_zero() {
            std::thread::sleep(think);
        }
    }
    client.quit();
    out
}

/// One transaction as the writer logged it.
struct Ack {
    txn: usize,
    /// The acked epoch, or `None` when the server refused the transaction.
    epoch: Option<u64>,
    /// From the time the send was due to the ack, in ms.
    latency: f64,
    /// How late the send left after it was due, in ms.
    lateness: f64,
}

struct Writes {
    client: Option<Client>,
    acks: Vec<Ack>,
    problems: Vec<String>,
    tracer: Tracer,
}

impl Writes {
    fn connect(addr: SocketAddr, origin: Instant) -> Writes {
        let mut problems = Vec::new();
        let client = Client::connect(addr)
            .map_err(|e| problems.push(format!("writer connect: {e}")))
            .ok();
        Writes {
            client,
            acks: Vec::new(),
            problems,
            tracer: Tracer::new(origin),
        }
    }

    /// Send transaction `j`, due at `due`, and log its ack.
    fn send(
        &mut self,
        forest: &Forest,
        stream: &TxnStream,
        j: usize,
        due: Instant,
        window: Window,
    ) {
        let sent = Instant::now();
        let span = window
            .traced(sent)
            .then(|| self.tracer.open("client.txn", ROOT, (1 << 62) | j as u64));
        let reply = match self.client.as_mut() {
            Some(client) => client
                .txn(&stream.spec(forest, j))
                .map_err(|e| e.to_string()),
            None => Err("not connected".to_string()),
        };
        if let Some(span) = span {
            self.tracer.close(span);
        }
        let epoch = match reply {
            Ok(reply) => Some(reply.epoch),
            Err(e) => {
                self.problems.push(format!("txn {j}: {e}"));
                None
            }
        };
        self.acks.push(Ack {
            txn: j,
            epoch,
            latency: ms(due.elapsed()),
            lateness: ms(sent.saturating_duration_since(due)),
        });
    }
}

/// Drive one window of `mode`'s traffic.
#[allow(clippy::too_many_arguments)]
fn traffic(
    mode: Mode,
    sizes: &Sizes,
    forest: &Forest,
    stream: &TxnStream,
    heads: &[i64],
    addr: SocketAddr,
    window: Window,
    ctx: &Ctx,
) -> (Reads, Writes) {
    let origin = ctx.origin;
    let mut reads = Reads::new(origin);
    let mut writes = Writes::connect(addr, origin);
    match mode {
        Mode::Hot => {
            // Readers run alone for each sub-window, then a closed-loop batch
            // of the transaction stream follows, so the writes spread over
            // the run as the reads do. Each sub-window's fresh connections
            // warm the reply cache again after the batch moved the epoch.
            let batch = sizes.write_probe.div_ceil(SUBWINDOWS);
            for s in 0..SUBWINDOWS {
                let now = Instant::now();
                // Re-anchor so that this sub-window, however late the batches
                // made it start, maps to index `s`.
                let sub = Window {
                    start: now - window.sub * s as u32,
                    ..window
                };
                let until = now + window.sub;
                let cpu = crate::cpu_seconds();
                let pair: Vec<Reads> = std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..2u64)
                        .map(|r| {
                            let mut rng = Rng::new(ctx.seed ^ (((s as u64) << 8 | r) + 1));
                            scope.spawn(move || {
                                let key = move || heads[rng.below(heads.len())];
                                read_loop(
                                    addr,
                                    forest,
                                    key,
                                    heads,
                                    sub,
                                    until,
                                    Duration::ZERO,
                                    origin,
                                    r,
                                )
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("reader thread"))
                        .collect()
                });
                reads.cpu += crate::cpu_seconds() - cpu;
                for r in pair {
                    reads.absorb(r);
                }
                for j in s * batch..((s + 1) * batch).min(sizes.write_probe) {
                    writes.send(forest, stream, j, Instant::now(), sub);
                }
            }
        }
        Mode::Mixed => {
            let mut rng = Rng::new(ctx.seed ^ 0x6D69_7865);
            let nodes = forest.nodes();
            let until = window.start + window.sub * SUBWINDOWS as u32;
            // The writer runs beside the reader, so its CPU counts too.
            let cpu = crate::cpu_seconds();
            std::thread::scope(|scope| {
                let reader = scope.spawn(move || {
                    let key = move || rng.below(nodes) as i64;
                    read_loop(
                        addr,
                        forest,
                        key,
                        &[],
                        window,
                        until,
                        MIXED_THINK,
                        origin,
                        0,
                    )
                });
                // Open loop: transaction j is due at start + j / rate.
                for j in 0.. {
                    let due = window.start + Duration::from_secs_f64(j as f64 / sizes.txn_rate);
                    if due >= until {
                        break;
                    }
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    writes.send(forest, stream, j, due, window);
                }
                reads.absorb(reader.join().expect("reader thread"));
            });
            reads.cpu += crate::cpu_seconds() - cpu;
        }
    }
    if let Some(client) = writes.client.take() {
        client.quit();
    }
    (reads, writes)
}

/// Reads that disagree with the transactions acked at or before their epoch.
fn visibility_violations(
    forest: &Forest,
    stream: &TxnStream,
    acked: &[(u64, usize)],
    seen: &Seen,
) -> (u64, Vec<String>) {
    // Per chain: (epoch, spare edge present afterwards), in epoch order.
    let mut history: Vec<Vec<(u64, bool)>> = vec![Vec::new(); forest.chains];
    for &(epoch, txn) in acked {
        for op in stream.ops(txn) {
            history[op.chain].push((epoch, op.assert));
        }
    }
    let mut bad = 0;
    let mut problems = Vec::new();
    for (&(chain, epoch), counts) in seen {
        let expected = history[chain]
            .iter()
            .take_while(|(e, _)| *e <= epoch)
            .last()
            .is_some_and(|&(_, present)| present);
        let wrong = counts[usize::from(!expected)];
        if wrong > 0 {
            bad += wrong;
            if problems.len() < 5 {
                problems.push(format!(
                    "{wrong} read(s) of chain {chain} at epoch {epoch} disagree with the acked log (spare edge {expected})"
                ));
            }
        }
    }
    (bad, problems)
}

/// The facts the acked transactions leave behind.
fn predicted_checksum(forest: &Forest, stream: &TxnStream, acked: &[(u64, usize)]) -> u32 {
    let mut db = forest.database();
    for &(_, txn) in acked {
        for op in stream.ops(txn) {
            let tuple = [
                Const::Int(forest.tail(op.chain)),
                Const::Int(forest.spare(op.chain)),
            ];
            if op.assert {
                db.add_fact("e", &tuple);
            } else {
                db.remove_fact("e", &tuple);
            }
        }
    }
    facts_checksum(&db)
}

fn wal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join(factorlog_engine::WAL_FILE))
        .map(|m| m.len())
        .unwrap_or(0)
}

pub fn run(mode: Mode, sizes: &Sizes, ctx: &Ctx) -> Result<Outcome, String> {
    let forest = Forest::new(sizes.chains, sizes.len, ctx.seed);
    let stream = TxnStream::new(sizes.chains, ctx.seed);
    let mut chains: Vec<usize> = (0..forest.chains).collect();
    Rng::new(ctx.seed ^ 0x6B65_7973).shuffle(&mut chains);
    let heads: Vec<i64> = chains[..sizes.hot_keys.min(forest.chains)]
        .iter()
        .map(|&k| forest.head(k))
        .collect();
    let mut out = Outcome::default();

    // The measured session is the first set-up, so the peak memory read
    // after its window is that of one session.
    let begin = Instant::now();
    let Served { handle, dir } = set_up(&forest, &ctx.data.join("session"))?;
    let mut setup_s = vec![begin.elapsed().as_secs_f64()];
    let addr = handle.addr();
    let mut control = Client::connect(addr).map_err(|e| format!("control connect: {e}"))?;
    let initial_epoch = control.epoch().map_err(|e| format!("EPOCH: {e}"))?;
    let stats_before = control.stats().map_err(|e| format!("STATS: {e}"))?;
    let wal_before = wal_len(&dir);

    let window = Window {
        start: Instant::now(),
        sub: ctx.seconds / SUBWINDOWS as u32,
        trace: ctx.trace,
    };
    let (reads, writes) = traffic(mode, sizes, &forest, &stream, &heads, addr, window, ctx);
    let peak_rss_mb = crate::peak_rss_mb();
    let stats_after = control.stats().map_err(|e| format!("STATS: {e}"))?;
    let final_epoch = control.epoch().map_err(|e| format!("EPOCH: {e}"))?;
    let wal_after = wal_len(&dir);

    // Every read's rows were checked as it came back; every transaction
    // must have been acked.
    let mut tracer = Tracer::new(ctx.origin);
    out.attempted += reads.attempted;
    out.failed += reads.failed;
    out.problems.extend(reads.problems);
    tracer.absorb(reads.tracer);
    let mut acked: Vec<(u64, usize)> = writes
        .acks
        .iter()
        .filter_map(|a| a.epoch.map(|e| (e, a.txn)))
        .collect();
    acked.sort_unstable();
    let (sent, acked_n) = (writes.acks.len() as u64, acked.len() as u64);
    out.attempted += sent;
    out.failed += sent - acked_n;
    out.problems.extend(writes.problems.into_iter().take(5));
    tracer.absorb(writes.tracer);

    // Visibility: each read reflects exactly the transactions acked at or
    // before its epoch.
    let (bad, problems) = visibility_violations(&forest, &stream, &acked, &reads.seen);
    out.failed += bad;
    out.problems.extend(problems);

    // Durability: epochs count acked transactions, the store holds what the
    // acks say, and reopening the directory finds the same facts.
    out.check(final_epoch - initial_epoch == acked_n, || {
        format!("epoch moved {initial_epoch} -> {final_epoch} for {acked_n} acked transaction(s)")
    });
    if ctx.trace {
        let probe = tracer.open("probe.server", ROOT, 0);
        for n in 0..sizes.pings {
            let pong = tracer.span("server.ping", probe, n as u64, || control.ping());
            out.check(pong.is_ok(), || "PING failed".to_string());
        }
        tracer.close(probe);
    }
    control.quit();
    let report = handle.shutdown();
    let served_sum = facts_checksum(report.engine.facts());
    drop(report.engine);
    out.check(
        served_sum == predicted_checksum(&forest, &stream, &acked),
        || "served store differs from the acked transactions".to_string(),
    );
    let reopened = Engine::open_durable(&dir).map(|e| facts_checksum(e.facts()));
    out.check(reopened.as_ref().ok() == Some(&served_sum), || {
        format!("reopened store differs: {:?}", reopened.err())
    });
    let _ = std::fs::remove_dir_all(&dir);

    let txn_latency: Vec<f64> = writes
        .acks
        .iter()
        .filter(|a| a.epoch.is_some())
        .map(|a| a.latency)
        .collect();
    let lateness: Vec<f64> = writes.acks.iter().map(|a| a.lateness).collect();
    if mode == Mode::Mixed {
        let note = open_loop_note(&lateness, sizes.txn_rate, &mut out);
        out.notes.push(note);
    }

    // The untraced run sets up again, so that setup_s is a median.
    let setups = if ctx.trace { 1 } else { sizes.setups };
    for i in 1..setups {
        let begin = Instant::now();
        let extra = set_up(&forest, &ctx.data.join(format!("setup-{i}")))?;
        setup_s.push(begin.elapsed().as_secs_f64());
        drop(extra.handle.shutdown());
        let _ = std::fs::remove_dir_all(&extra.dir);
    }
    let figures = Figures {
        setup_s: &setup_s,
        peak_rss_mb,
        latency: &reads.latency,
        sub: window.sub,
        cpu: reads.cpu,
        reads: reads.attempted,
        txn_latency: &txn_latency,
    };
    if !ctx.trace {
        out.end_to_end(&figures);
        return Ok(out);
    }

    // Traced run: counters from STATS deltas, spans from the traffic, then
    // each layer timed on the same inputs.
    server_counters(
        &mut out,
        &stats_before,
        &stats_after,
        reads.attempted,
        acked_n,
    );
    out.metric_us("server.ping_rtt_us", &tracer.durations("server.ping"));
    out.metric(
        "wal.bytes_per_txn",
        wal_after.saturating_sub(wal_before) as f64 / acked_n.max(1) as f64,
        acked_n as usize,
    );
    if mode == Mode::Mixed {
        out.metric(
            "bench.txn_send_lag_p90_ms",
            quantile(&lateness, 0.9),
            lateness.len(),
        );
    }
    out.traced_window(&figures);
    let keys: Vec<i64> = match mode {
        Mode::Hot => heads,
        Mode::Mixed => (0..forest.nodes() as i64).collect(),
    };
    layers::served(&mut out, &mut tracer, sizes, &forest, &stream, &keys, ctx)?;
    ctx.write_trace(&tracer);
    Ok(out)
}

/// Report how late the open-loop writer ran, and fail a run whose lateness
/// grows, which means a backlog: its latencies are not a steady state.
fn open_loop_note(lateness: &[f64], rate: f64, out: &mut Outcome) -> String {
    let quarter = (lateness.len() / 4).max(1).min(lateness.len());
    let first = quantile(&lateness[..quarter], 0.5);
    let last = quantile(&lateness[lateness.len() - quarter..], 0.5);
    let period_ms = 1e3 / rate;
    let backlog = last > first + period_ms;
    out.check(!backlog, || {
        format!("open-loop writer fell behind: median lateness {first:.2} ms in the first quarter, {last:.2} ms in the last")
    });
    format!(
        "open-loop writer at {rate} txn/s: lateness p50 {:.3} ms, p90 {:.3} ms, max {:.3} ms over {} sends; first/last quarter median {first:.3}/{last:.3} ms -> {}",
        quantile(lateness, 0.5),
        quantile(lateness, 0.9),
        quantile(lateness, 1.0),
        lateness.len(),
        if backlog { "BACKLOG (not a steady latency)" } else { "steady" }
    )
}

fn server_counters(
    out: &mut Outcome,
    before: &StatsReply,
    after: &StatsReply,
    reads: u64,
    txns: u64,
) {
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let requests = d(after.pipelined_requests, before.pipelined_requests);
    out.metric(
        "server.reply_cache_hit_ratio",
        d(after.reply_cache_hits, before.reply_cache_hits) / reads.max(1) as f64,
        reads as usize,
    );
    out.metric(
        "server.wakeups_per_request",
        d(after.reactor_wakeups, before.reactor_wakeups) / requests.max(1.0),
        requests as usize,
    );
    out.metric(
        "server.shed",
        d(after.shed, before.shed),
        (reads + txns) as usize,
    );
    let commits = d(after.group_commits, before.group_commits);
    out.metric(
        "server.txns_per_fsync",
        d(after.group_txns, before.group_txns) / commits.max(1.0),
        commits as usize,
    );
}
