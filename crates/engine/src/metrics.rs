//! Engine-level metrics: latency histograms, subsystem spans, and the
//! machine-readable JSON document behind `factorlog repl --metrics-json`.
//!
//! The eval-side profile ([`EvalProfile`]) rides on
//! [`EvalStats`] and accumulates across a
//! session's evaluations; [`EngineMetrics`] holds everything *above* the
//! evaluators — end-to-end query latency, prepared-plan lookup time, optimizer
//! pass times, WAL append/fsync latency, snapshot compaction time. Both are
//! collected only while [`Engine::set_tracing`](crate::Engine::set_tracing) is
//! on; the disabled fast path is one branch on an `Option` per site.
//!
//! # JSON schema (version 3)
//!
//! [`render_metrics_json`] emits a single versioned object, hand-formatted (the
//! workspace is dependency-free):
//!
//! ```text
//! {
//!   "factorlog_metrics_version": 3,
//!   "tracing": bool,
//!   "host": { "cores": n, "threads_configured": n },
//!   "txns_per_fsync": f,
//!   "replication": {"role": "...", "term": n, "applied_seq": n,
//!                   "leader_seq": n, "lag_frames": n} | null,
//!   "server": {"reactor_wakeups": n, "pipelined_batches": n,
//!              "pipelined_requests": n, "max_batch_depth": n,
//!              "prepared_execs": n, "reply_cache_hits": n} | null,
//!   "counters": { <every EvalStats counter>: n, ... },
//!   "phases": { "<phase>": {"count": n, "total_ns": n, "max_ns": n}, ... },
//!   "optimize_passes": { "<pass>": {"count": n, "total_ns": n, "max_ns": n}, ... },
//!   "engine_spans": { "prepared_lookup": {...}, "wal_append": {...}, "compaction": {...} },
//!   "rules": [ {"rule": "...", "firings": n, "time_ns": n, "rows_in": n, "rows_out": n}, ... ],
//!   "histograms": {
//!     "query_latency": {"count": n, "p50_ns": n, "p95_ns": n, "p99_ns": n, "max_ns": n, "total_ns": n},
//!     "wal_fsync":     { same fields }
//!   }
//! }
//! ```
//!
//! Version 2 added `txns_per_fsync` (the measured group-commit batching ratio,
//! `wal_group_txns / wal_group_commits`, 0 before the first commit), the
//! `wal_group_commits`/`wal_group_txns` counters, and the `replication` object
//! (`null` for a session that is not replicating; a replica reports its role,
//! term, and how far behind its leader it is).
//!
//! Version 3 added the `server` object: the event-driven front end's reactor
//! counters (poll-loop wakeups, pipelined batch/request totals, deepest batch,
//! prepared-statement executions, rendered-reply cache hits). `null` for a
//! session that is not serving.
//!
//! `phases` and `rules` come from the accumulated eval profile and are empty
//! when tracing was never enabled; every `*_ns` field is wall-clock nanoseconds.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use factorlog_datalog::ast::Program;
use factorlog_datalog::eval::{EvalProfile, EvalStats, Histogram, SpanStats};

/// Version stamp of the metrics JSON document.
pub const METRICS_JSON_VERSION: u32 = 3;

/// Metrics collected above the evaluators while tracing is enabled: latency
/// histograms and subsystem span timers. See the [module docs](self).
#[derive(Clone, Debug, Default)]
pub struct EngineMetrics {
    /// End-to-end latency of [`Engine::query`](crate::Engine::query) and
    /// [`Engine::query_prepared`](crate::Engine::query_prepared) calls
    /// (refresh/evaluate + answer projection), one sample per call.
    pub query_latency: Histogram,
    /// Prepared-plan cache lookups — rebind time on hits, the full optimizer
    /// pipeline plus compilation on misses.
    pub prepared_lookup: SpanStats,
    /// WAL record appends (encode + frame + write + fsync), one per committed
    /// durable mutation.
    pub wal_append: SpanStats,
    /// The fsync portion of WAL appends alone (zero samples when the session
    /// runs with `fsync` off).
    pub wal_fsync: Histogram,
    /// Snapshot compactions (write temp + fsync + rename + dir fsync + log
    /// reset).
    pub compaction: SpanStats,
    /// Optimizer pass wall time by pass name, accumulated from
    /// [`Optimized::pass_times`](factorlog_core::pipeline::Optimized) on every
    /// prepared-plan miss.
    pub optimize_passes: BTreeMap<&'static str, SpanStats>,
}

impl EngineMetrics {
    /// Fold one pipeline run's per-pass times into the accumulated spans.
    pub fn absorb_pass_times(&mut self, pass_times: &[(&'static str, u64)]) {
        for &(name, ns) in pass_times {
            let span = self.optimize_passes.entry(name).or_default();
            span.count += 1;
            span.total_ns = span.total_ns.saturating_add(ns);
            span.max_ns = span.max_ns.max(ns);
        }
    }
}

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn span_json(span: &SpanStats) -> String {
    format!(
        "{{\"count\": {}, \"total_ns\": {}, \"max_ns\": {}}}",
        span.count, span.total_ns, span.max_ns
    )
}

fn histogram_json(h: &Histogram) -> String {
    format!(
        "{{\"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}, \"total_ns\": {}}}",
        h.count(),
        h.p50_ns(),
        h.p95_ns(),
        h.p99_ns(),
        h.max_ns(),
        h.total_ns()
    )
}

/// Render the versioned metrics JSON document for one session. `tracing` says
/// whether collection is currently enabled; `threads` is the session's
/// configured worker-thread setting
/// ([`EvalOptions::threads`](factorlog_datalog::eval::EvalOptions::threads),
/// 0 = one per core). The eval-side phase spans and per-rule profiles come from
/// `stats.profile` (rule text is looked up in `program` by rule index);
/// everything else from `metrics`.
/// `replication` is a replica's point-in-time status (`None` renders the
/// `replication` key as `null` — the session is not replicating). `server` is
/// a serving front end's reactor counters (`None` renders the `server` key as
/// `null` — the session is not serving).
pub fn render_metrics_json(
    metrics: &EngineMetrics,
    stats: &EvalStats,
    program: &Program,
    tracing: bool,
    threads: usize,
    replication: Option<&crate::replication::ReplicaStatus>,
    server: Option<&crate::server::StatsReply>,
) -> String {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"factorlog_metrics_version\": {METRICS_JSON_VERSION},"
    );
    let _ = writeln!(out, "  \"tracing\": {tracing},");
    let _ = writeln!(
        out,
        "  \"host\": {{\"cores\": {cores}, \"threads_configured\": {threads}}},"
    );
    let txns_per_fsync = if stats.wal_group_commits > 0 {
        stats.wal_group_txns as f64 / stats.wal_group_commits as f64
    } else {
        0.0
    };
    let _ = writeln!(out, "  \"txns_per_fsync\": {txns_per_fsync:.2},");
    match replication {
        Some(status) => {
            let _ = writeln!(
                out,
                "  \"replication\": {{\"role\": \"{}\", \"term\": {}, \"applied_seq\": {}, \
                 \"leader_seq\": {}, \"lag_frames\": {}}},",
                status.role, status.term, status.applied_seq, status.leader_seq, status.lag_frames
            );
        }
        None => {
            let _ = writeln!(out, "  \"replication\": null,");
        }
    }
    match server {
        Some(m) => {
            let _ = writeln!(
                out,
                "  \"server\": {{\"reactor_wakeups\": {}, \"pipelined_batches\": {}, \
                 \"pipelined_requests\": {}, \"max_batch_depth\": {}, \"prepared_execs\": {}, \
                 \"reply_cache_hits\": {}}},",
                m.reactor_wakeups,
                m.pipelined_batches,
                m.pipelined_requests,
                m.max_batch_depth,
                m.prepared_execs,
                m.reply_cache_hits
            );
        }
        None => {
            let _ = writeln!(out, "  \"server\": null,");
        }
    }

    let _ = writeln!(out, "  \"counters\": {{");
    let counters: &[(&str, usize)] = &[
        ("iterations", stats.iterations),
        ("inferences", stats.inferences),
        ("duplicates", stats.duplicates),
        ("facts_derived", stats.facts_derived),
        ("plan_cache_hits", stats.plan_cache_hits),
        ("plan_cache_misses", stats.plan_cache_misses),
        ("plan_cache_evictions", stats.plan_cache_evictions),
        ("index_probes", stats.index_probes),
        ("full_scans", stats.full_scans),
        ("membership_checks", stats.membership_checks),
        ("scratch_allocs", stats.scratch_allocs),
        ("literal_reorders", stats.literal_reorders),
        ("parallel_rounds", stats.parallel_rounds),
        ("parallel_firings", stats.parallel_firings),
        ("threads_used", stats.threads_used),
        ("retractions", stats.retractions),
        ("rederivations", stats.rederivations),
        ("delete_rounds", stats.delete_rounds),
        ("wal_appends", stats.wal_appends),
        ("wal_replays", stats.wal_replays),
        ("wal_torn_truncations", stats.wal_torn_truncations),
        ("wal_compactions", stats.wal_compactions),
        ("wal_group_commits", stats.wal_group_commits),
        ("wal_group_txns", stats.wal_group_txns),
    ];
    for (i, (name, value)) in counters.iter().enumerate() {
        let comma = if i + 1 < counters.len() { "," } else { "" };
        let _ = writeln!(out, "    \"{name}\": {value}{comma}");
    }
    out.push_str("  },\n");

    let empty_profile = EvalProfile::default();
    let profile = stats.profile.as_deref().unwrap_or(&empty_profile);
    let _ = writeln!(out, "  \"phases\": {{");
    for (i, (name, span)) in profile.phases.iter().enumerate() {
        let comma = if i + 1 < profile.phases.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(out, "    \"{name}\": {}{comma}", span_json(span));
    }
    out.push_str("  },\n");

    let _ = writeln!(out, "  \"optimize_passes\": {{");
    for (i, (name, span)) in metrics.optimize_passes.iter().enumerate() {
        let comma = if i + 1 < metrics.optimize_passes.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(out, "    \"{name}\": {}{comma}", span_json(span));
    }
    out.push_str("  },\n");

    let _ = writeln!(out, "  \"engine_spans\": {{");
    let _ = writeln!(
        out,
        "    \"prepared_lookup\": {},",
        span_json(&metrics.prepared_lookup)
    );
    let _ = writeln!(
        out,
        "    \"wal_append\": {},",
        span_json(&metrics.wal_append)
    );
    let _ = writeln!(
        out,
        "    \"compaction\": {}",
        span_json(&metrics.compaction)
    );
    out.push_str("  },\n");

    let _ = writeln!(out, "  \"rules\": [");
    for (i, rule) in profile.rules.iter().enumerate() {
        let text = program
            .rules
            .get(i)
            .map(|r| json_escape(&r.to_string()))
            .unwrap_or_else(|| format!("rule #{i}"));
        let comma = if i + 1 < profile.rules.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"rule\": \"{text}\", \"firings\": {}, \"time_ns\": {}, \"rows_in\": {}, \"rows_out\": {}}}{comma}",
            rule.firings, rule.time_ns, rule.rows_in, rule.rows_out
        );
    }
    out.push_str("  ],\n");

    let _ = writeln!(out, "  \"histograms\": {{");
    let _ = writeln!(
        out,
        "    \"query_latency\": {},",
        histogram_json(&metrics.query_latency)
    );
    let _ = writeln!(
        out,
        "    \"wal_fsync\": {}",
        histogram_json(&metrics.wal_fsync)
    );
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\ny");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn absorb_pass_times_accumulates() {
        let mut m = EngineMetrics::default();
        m.absorb_pass_times(&[("adorn", 10), ("magic", 20)]);
        m.absorb_pass_times(&[("adorn", 30)]);
        assert_eq!(m.optimize_passes["adorn"].count, 2);
        assert_eq!(m.optimize_passes["adorn"].total_ns, 40);
        assert_eq!(m.optimize_passes["adorn"].max_ns, 30);
        assert_eq!(m.optimize_passes["magic"].count, 1);
    }

    #[test]
    fn render_produces_versioned_document_with_required_keys() {
        let mut metrics = EngineMetrics::default();
        metrics.query_latency.record(Duration::from_micros(42));
        metrics.wal_fsync.record(Duration::from_micros(120));
        metrics.absorb_pass_times(&[("adorn", 5)]);
        let stats = EvalStats::default();
        let program = Program::new();
        let text = render_metrics_json(&metrics, &stats, &program, true, 4, None, None);
        for key in [
            "\"factorlog_metrics_version\": 3",
            "\"tracing\": true",
            "\"host\"",
            "\"threads_configured\": 4",
            "\"txns_per_fsync\": 0.00",
            "\"replication\": null",
            "\"server\": null",
            "\"counters\"",
            "\"wal_group_commits\"",
            "\"phases\"",
            "\"optimize_passes\"",
            "\"engine_spans\"",
            "\"rules\"",
            "\"histograms\"",
            "\"query_latency\"",
            "\"wal_fsync\"",
            "\"p50_ns\"",
            "\"p95_ns\"",
            "\"p99_ns\"",
        ] {
            assert!(text.contains(key), "missing {key} in:\n{text}");
        }
        // Balanced braces — a cheap well-formedness check without a parser.
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes, "{text}");
    }

    #[test]
    fn render_includes_a_replication_object_for_replicas() {
        let status = crate::replication::ReplicaStatus {
            role: crate::replication::ReplicaRole::Follower,
            term: 3,
            applied_seq: 120,
            leader_seq: 128,
            lag_frames: 8,
            frames_applied: 120,
            bootstraps: 1,
            leader: "127.0.0.1:7070".to_string(),
        };
        let text = render_metrics_json(
            &EngineMetrics::default(),
            &EvalStats::default(),
            &Program::new(),
            false,
            1,
            Some(&status),
            None,
        );
        for key in [
            "\"replication\": {\"role\": \"follower\", \"term\": 3",
            "\"applied_seq\": 120",
            "\"lag_frames\": 8",
        ] {
            assert!(text.contains(key), "missing {key} in:\n{text}");
        }
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }

    #[test]
    fn render_includes_a_server_object_for_serving_sessions() {
        let server = crate::server::StatsReply {
            reactor_wakeups: 17,
            pipelined_batches: 4,
            pipelined_requests: 12,
            max_batch_depth: 5,
            prepared_execs: 3,
            reply_cache_hits: 2,
            ..Default::default()
        };
        let text = render_metrics_json(
            &EngineMetrics::default(),
            &EvalStats::default(),
            &Program::new(),
            false,
            1,
            None,
            Some(&server),
        );
        for key in [
            "\"server\": {\"reactor_wakeups\": 17",
            "\"pipelined_batches\": 4",
            "\"pipelined_requests\": 12",
            "\"max_batch_depth\": 5",
            "\"prepared_execs\": 3",
            "\"reply_cache_hits\": 2",
        ] {
            assert!(text.contains(key), "missing {key} in:\n{text}");
        }
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }
}
