//! The repository benchmark. One run measures one workload for `--seconds`
//! and prints every metric by name, unit and sample count, then one JSON
//! result line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_mixed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, measured with no spans.
//! `--trace 1` is the separate traced run: it records a span around every
//! call into a layer, writes the spans to `.perfbench/trace-<workload>.jsonl`,
//! and reports the per-layer metrics. See `README.md` for why each workload
//! exists and which end-to-end metric each per-layer metric should move.

mod demand;
mod inputs;
mod layers;
mod serve;
mod trace;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use factorlog_datalog::eval::EvalOptions;
use factorlog_engine::{DurabilityOptions, ServerOptions};

/// Workloads and why each exists.
const WORKLOADS: &[(&str, &str)] = &[
    (
        "serve_hot",
        "every read after warm-up is a reply-cache hit and no write runs beside the readers, so the time is the reactor, codec and syscalls",
    ),
    (
        "serve_mixed",
        "uniform keys and moving epochs defeat the reply cache, so every read pays the storage lookup and every write pays WAL, maintenance and publish",
    ),
    (
        "demand_eval",
        "the paper's own setting: a bound query answered by the factored magic plan without materializing the closure, so all time is the optimizer's plan and the evaluator",
    ),
];

/// End-to-end metrics: (name, unit, what it times on each workload).
const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "median of several set-ups: open, load, first materialization or plan, serve-ready"),
    ("peak_rss_mb", "MB", "peak resident memory of the benchmark process"),
    ("read_p50_ms", "ms", "median read: served QUERY/EXEC send to reply, or Engine::query_prepared on demand_eval"),
    ("cpu_per_read_us", "us", "CPU time of the whole process (server and load generator) while reads ran, per read; on serve_mixed the concurrent writer's too"),
    ("txn_p50_ms", "ms", "median transaction: scheduled send to ack on serve_mixed, send to ack on serve_hot, commit plus the query that sees it on demand_eval"),
];

/// Per-layer metrics of the traced run: (name, unit, the end-to-end metric
/// and workload it should move). A metric measured on another workload reads
/// 0 and is printed as n/a.
const PER_LAYER: &[(&str, &str, &str)] = &[
    ("server.ping_rtt_us", "us", "read_p50_ms on serve_hot"),
    ("server.reply_cache_hit_ratio", "ratio", "read_p50_ms on serve_hot (~1) and serve_mixed (~0)"),
    ("server.wakeups_per_request", "ratio", "cpu_per_read_us on serve_hot"),
    ("server.shed", "count", "failed operations on every served workload"),
    ("server.txns_per_fsync", "ratio", "txn_p50_ms on serve_mixed"),
    ("parser.parse_query_us", "us", "read_p50_ms on serve_hot (the QUERY half)"),
    ("storage.answers_us", "us", "read_p50_ms on serve_mixed"),
    ("storage.answers_growth_4x", "ratio", "read_p50_ms on serve_mixed"),
    ("storage.model_clone_ms", "ms", "txn_p50_ms on serve_mixed"),
    ("storage.model_clone_growth_4x", "ratio", "txn_p50_ms on serve_mixed"),
    ("engine.commit_ms", "ms", "txn_p50_ms on serve_mixed"),
    ("engine.refresh_ms", "ms", "txn_p50_ms on serve_mixed"),
    ("engine.retractions_per_txn", "count", "txn_p50_ms on serve_mixed"),
    ("engine.rederivations_per_txn", "count", "txn_p50_ms on serve_mixed"),
    ("engine.inferences_per_txn", "count", "txn_p50_ms on serve_mixed"),
    ("engine.plan_hit_ratio", "ratio", "read_p50_ms on demand_eval"),
    ("wal.append_us", "us", "txn_p50_ms on serve_mixed"),
    ("wal.fsync_us", "us", "txn_p50_ms on serve_mixed"),
    ("wal.bytes_per_txn", "bytes", "txn_p50_ms on serve_mixed"),
    ("core.optimize_ms", "ms", "setup_s on demand_eval"),
    ("core.rebind_us", "us", "read_p50_ms on demand_eval"),
    ("eval.plan_evaluate_ms", "ms", "read_p50_ms on demand_eval"),
    ("eval.answers_ms", "ms", "read_p50_ms on demand_eval"),
    ("eval.inferences_per_query", "count", "read_p50_ms on demand_eval"),
    ("eval.index_probes_per_query", "count", "read_p50_ms on demand_eval"),
    ("eval.full_scans_per_query", "count", "read_p50_ms on demand_eval"),
    ("eval.materialize_ms", "ms", "setup_s on serve_hot and serve_mixed"),
    ("eval.materialize_speedup_2t", "ratio", "setup_s on serve_hot and serve_mixed"),
    ("eval.demand_speedup_2t", "ratio", "read_p50_ms on demand_eval"),
    ("bench.txn_send_lag_p90_ms", "ms", "txn_p50_ms on serve_mixed (generator validity)"),
    ("bench.read_ops_s", "1/s", "none: reads per wall-clock second in the untraced half (CPU steal moves it; cpu_per_read_us is the bounded form)"),
    ("bench.read_p90_ms", "ms", "none: the read tail in the untraced half (host noise moves it)"),
    ("bench.read_p99_ms", "ms", "none: the far read tail in the untraced half (host noise moves it)"),
    ("bench.txn_p90_ms", "ms", "none: the transaction tail (host noise moves it)"),
    ("trace.overhead_pct", "%", "none: traced against untraced reads in the same run"),
];

/// Input sizes and repetition counts.
pub struct Sizes {
    pub chains: usize,
    pub len: usize,
    pub hot_keys: usize,
    pub txn_rate: f64,
    /// Closed-loop transactions run in batches between read sub-windows, on
    /// the workloads that have no writer of their own.
    pub write_probe: usize,
    pub setups: usize,
    pub demand_nodes: usize,
    pub demand_edges: usize,
    pub demand_keys: usize,
    pub pings: usize,
    pub probe_calls: usize,
    pub materializations: usize,
    pub clones: usize,
    pub probe_txns: usize,
    pub optimizations: usize,
    pub probe_evals: usize,
}

impl Sizes {
    /// ~86k model rows served; a 10k-node, 20k-edge graph for demand.
    fn full() -> Sizes {
        Sizes {
            chains: 100,
            len: 40,
            hot_keys: 32,
            // A third of the writer's closed-loop capacity on the served
            // model (~12 txn/s measured on a 2-core x86-64 host).
            txn_rate: 4.0,
            write_probe: 100,
            setups: 9,
            demand_nodes: 10_000,
            demand_edges: 20_000,
            demand_keys: 64,
            pings: 2000,
            probe_calls: 2000,
            materializations: 3,
            clones: 5,
            probe_txns: 50,
            optimizations: 5,
            probe_evals: 20,
        }
    }

    #[cfg(test)]
    fn tiny() -> Sizes {
        Sizes {
            chains: 8,
            len: 5,
            hot_keys: 4,
            txn_rate: 50.0,
            write_probe: 10,
            setups: 2,
            demand_nodes: 300,
            demand_edges: 600,
            demand_keys: 8,
            pings: 20,
            probe_calls: 20,
            materializations: 1,
            clones: 2,
            probe_txns: 10,
            optimizations: 2,
            probe_evals: 4,
        }
    }
}

/// One run's settings.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// This run's data directories and scratch files.
    pub data: PathBuf,
    /// Time origin of every span.
    pub origin: Instant,
    /// Where the traced run writes its spans.
    trace_file: PathBuf,
}

impl Ctx {
    pub fn write_trace(&self, tracer: &trace::Tracer) {
        if let Err(e) = tracer.write(&self.trace_file) {
            eprintln!("cannot write {}: {e}", self.trace_file.display());
        }
    }
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
    /// (name, value, samples)
    metrics: Vec<(&'static str, f64, usize)>,
}

impl Outcome {
    /// Count one checked operation, and a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push((name, value, samples));
    }

    pub fn metric_us(&mut self, name: &'static str, samples: &[Duration]) {
        let values: Vec<f64> = samples.iter().map(|&d| trace::us(d)).collect();
        self.metric(name, trace::median(&values), values.len());
    }

    pub fn metric_ms(&mut self, name: &'static str, samples: &[Duration]) {
        let values: Vec<f64> = samples.iter().map(|&d| trace::ms(d)).collect();
        self.metric(name, trace::median(&values), values.len());
    }
}

/// What a workload measured in its window, reported the same way by all.
pub struct Figures<'a> {
    pub setup_s: &'a [f64],
    pub peak_rss_mb: f64,
    pub latency: &'a trace::Windows,
    pub sub: Duration,
    /// Process CPU seconds while reads ran, and the reads completed then.
    pub cpu: f64,
    pub reads: u64,
    pub txn_latency: &'a [f64],
}

impl Outcome {
    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(&mut self, f: &Figures<'_>) {
        let n = f.latency.len(0..trace::SUBWINDOWS);
        let txns = f.txn_latency.len();
        self.metric("setup_s", trace::median(f.setup_s), f.setup_s.len());
        self.metric("peak_rss_mb", f.peak_rss_mb, 1);
        self.metric(
            "read_p50_ms",
            f.latency.quantile_ms(0.5, 0..trace::SUBWINDOWS),
            n,
        );
        self.metric("cpu_per_read_us", f.cpu * 1e6 / f.reads.max(1) as f64, n);
        self.metric("txn_p50_ms", trace::quantile(f.txn_latency, 0.5), txns);
    }

    /// The traced run's wall-clock figures, which host noise moves too much
    /// to carry a bound: the untraced half's read rate and tails, the
    /// transaction tail, and what tracing the second half cost.
    pub fn traced_window(&mut self, f: &Figures<'_>) {
        let (untraced, traced) = (
            0..trace::SUBWINDOWS / 2,
            trace::SUBWINDOWS / 2..trace::SUBWINDOWS,
        );
        let (latency, n) = (f.latency, f.latency.len(untraced.clone()));
        self.metric("bench.read_ops_s", latency.rate(f.sub, untraced.clone()), n);
        self.metric(
            "bench.read_p90_ms",
            latency.tail_ms(0.9, untraced.clone()),
            n,
        );
        self.metric(
            "bench.read_p99_ms",
            latency.tail_ms(0.99, untraced.clone()),
            n,
        );
        let txns = f.txn_latency.len();
        self.metric(
            "bench.txn_p90_ms",
            trace::quantile(f.txn_latency, 0.9),
            txns,
        );
        let overhead =
            latency.quantile_ms(0.5, traced.clone()) / latency.quantile_ms(0.5, untraced);
        self.metric(
            "trace.overhead_pct",
            (overhead - 1.0) * 100.0,
            latency.len(traced),
        );
    }
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (user + system) this process has used so far, in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 12th and 13th of them, in clock ticks (100 per second on Linux).
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The filesystem type holding `path`, from the longest matching mount point.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mount_point = line.split(' ').nth(4)?;
            let fs_type = line.split(" - ").nth(1)?.split(' ').next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs_type.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// CRC-32 over the program's sources, so runs of different code differ even
/// in a checkout without version control.
fn source_crc() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml" | "lock")
            ) {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for dir in ["src", "crates", "perfbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.push(PathBuf::from("perfbench/Cargo.toml"));
    files.sort();
    let mut bytes = Vec::new();
    for file in files {
        bytes.extend_from_slice(file.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&file).unwrap_or_default());
    }
    format!("{:08x}", factorlog_engine::wal::crc32(&bytes))
}

/// The commit, when the checkout has git metadata.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "none (not a git checkout)".to_string(),
    }
}

fn run_record(ctx: &Ctx) -> String {
    let eval = EvalOptions::default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fsync = if DurabilityOptions::default().fsync {
        "every commit"
    } else {
        "off"
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"eval_threads\": {}, \"eval_threads_effective\": {}, \"fsync\": {}, \"data_dir_fs\": {}, \"build_profile\": {}, \"commit\": {}, \"source_crc32\": {}, \"server_options\": {}}}",
        json_str(ctx.workload),
        ctx.seed,
        ctx.seconds.as_secs_f64(),
        u8::from(ctx.trace),
        eval.threads,
        eval.effective_threads(),
        json_str(fsync),
        json_str(&filesystem_of(&ctx.data)),
        json_str(profile),
        json_str(&commit()),
        json_str(&source_crc()),
        json_str(&format!("{:?}", ServerOptions::default())),
    )
}

fn run(ctx: &Ctx, sizes: &Sizes) -> Result<Outcome, String> {
    match ctx.workload {
        "serve_hot" => serve::run(serve::Mode::Hot, sizes, ctx),
        "serve_mixed" => serve::run(serve::Mode::Mixed, sizes, ctx),
        "demand_eval" => demand::run(sizes, ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Print every metric of the run's kind with unit and sample count, then the
/// result line. A metric the workload does not measure reads 0.
fn report(ctx: &Ctx, out: &Outcome) -> String {
    let mut lines = Vec::new();
    for note in &out.notes {
        lines.push(format!("# {note}"));
    }
    let kind: Vec<(&str, &str, &str)> = if ctx.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let mut fields = Vec::new();
    for (name, unit, about) in kind {
        let found = out.metrics.iter().find(|m| m.0 == name);
        let (value, samples) = found.map_or((0.0, 0), |m| (m.1, m.2));
        let value = if value.is_finite() { value } else { 0.0 };
        let shown = if found.is_some() {
            format!("{value} {unit} (n={samples})")
        } else {
            "n/a on this workload".to_string()
        };
        if ctx.trace {
            lines.push(format!("layer {name} = {shown}  -> moves {about}"));
        } else {
            lines.push(format!("metric {name} = {shown}  [{about}]"));
        }
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    let ratio = out.failed as f64 / out.attempted.max(1) as f64;
    lines.push(format!(
        "# failed_ratio = {ratio} ({} failed of {} attempted)",
        out.failed, out.attempted
    ));
    for problem in out.problems.iter().take(20) {
        lines.push(format!("# problem: {problem}"));
    }
    lines.push(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    ));
    lines.join("\n")
}

fn parse_args() -> Result<(&'static str, u64, u64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = value("--workload")?;
    let workload = WORKLOADS
        .iter()
        .map(|w| w.0)
        .find(|w| w == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".to_string()),
    };
    Ok((
        workload,
        number("--seed")?,
        number("--seconds")?.max(1),
        trace,
    ))
}

fn main() {
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: --workload <serve_hot|serve_mixed|demand_eval> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".perfbench");
    let data = root.join(workload);
    let _ = std::fs::remove_dir_all(&data);
    if let Err(e) = std::fs::create_dir_all(&data) {
        eprintln!("perfbench: cannot create {}: {e}", data.display());
        std::process::exit(1);
    }
    let ctx = Ctx {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        trace_file: root.join(format!("trace-{workload}.jsonl")),
        data,
        origin: Instant::now(),
    };
    println!("# run {}", run_record(&ctx));
    let why = WORKLOADS
        .iter()
        .find(|w| w.0 == workload)
        .map_or("", |w| w.1);
    println!("# {workload}: {why}");
    let result = run(&ctx, &Sizes::full());
    let _ = std::fs::remove_dir_all(&ctx.data);
    match result {
        Ok(out) => {
            if trace {
                println!("# spans written to {}", ctx.trace_file.display());
            }
            println!("{}", report(&ctx, &out));
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, untraced and traced, at tiny sizes: all correctness
    /// checks pass and every metric of the run's kind is measured or n/a.
    #[test]
    fn tiny_runs_pass_every_correctness_check() {
        let root = std::env::temp_dir().join(format!("perfbench-selftest-{}", std::process::id()));
        for &(workload, _) in WORKLOADS {
            for trace in [false, true] {
                let data = root.join(workload);
                std::fs::create_dir_all(&data).unwrap();
                let ctx = Ctx {
                    workload,
                    seed: 3,
                    seconds: Duration::from_secs(1),
                    trace,
                    trace_file: root.join(format!("trace-{workload}.jsonl")),
                    data,
                    origin: Instant::now(),
                };
                let out = run(&ctx, &Sizes::tiny()).unwrap();
                assert_eq!(
                    out.failed, 0,
                    "{workload} trace={trace}: {:?}",
                    out.problems
                );
                assert!(out.attempted > 0);
                if !trace {
                    for (name, _, _) in END_TO_END {
                        let m = out.metrics.iter().find(|m| m.0 == *name);
                        assert!(
                            m.is_some_and(|m| m.1 > 0.0),
                            "{workload}: {name} missing or 0"
                        );
                    }
                }
                let last = report(&ctx, &out);
                assert!(last
                    .lines()
                    .last()
                    .unwrap()
                    .starts_with("{\"correct\": true"));
            }
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}
