//! Shared harness for the benchmark suite: build the evaluation strategies the paper
//! compares (plain semi-naive evaluation, Magic Sets, Magic + factoring + §5, and —
//! where applicable — Counting), run them over a workload, and collect
//! machine-independent counters alongside wall-clock time.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::time::{Duration, Instant};

use factorlog_core::counting::counting;
use factorlog_core::pipeline::{optimize_query, PipelineOptions, Strategy};
use factorlog_core::{adorn, classify};
use factorlog_datalog::ast::{Const, Program, Query};
use factorlog_datalog::eval::{seminaive_evaluate, EvalOptions};
use factorlog_datalog::parser::{parse_program, parse_query};
use factorlog_datalog::storage::Database;
use factorlog_engine::Engine;

/// One program/query pair to evaluate, labelled with the strategy it embodies.
#[derive(Clone, Debug)]
pub struct StrategyRun {
    /// Label used in tables and benchmark ids.
    pub name: &'static str,
    /// The program to evaluate.
    pub program: Program,
    /// The query whose answers are extracted.
    pub query: Query,
}

/// The result of evaluating one strategy over one workload.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Strategy label.
    pub name: &'static str,
    /// Wall-clock evaluation time.
    pub duration: Duration,
    /// Number of successful rule-body instantiations.
    pub inferences: usize,
    /// Number of facts derived.
    pub facts: usize,
    /// Fixpoint iterations.
    pub iterations: usize,
    /// Number of answers to the query.
    pub answers: usize,
}

/// Build the three standard strategies for a program/query pair:
/// plain semi-naive evaluation of the original program, the Magic program, and the
/// pipeline output (Magic + factoring + §5 when factorable, otherwise optimized Magic).
pub fn standard_strategies(source: &str, query_text: &str) -> Vec<StrategyRun> {
    let program = parse_program(source)
        .expect("benchmark program parses")
        .program;
    let query = parse_query(query_text).expect("benchmark query parses");
    let optimized = optimize_query(&program, &query, &PipelineOptions::default())
        .expect("benchmark pipeline succeeds");
    let factored_name = match optimized.strategy {
        Strategy::FactoredMagic => "magic+factoring",
        Strategy::MagicOnly => "magic(optimized)",
    };
    vec![
        StrategyRun {
            name: "original",
            program,
            query,
        },
        StrategyRun {
            name: "magic",
            program: optimized.magic.program.clone(),
            query: optimized.adorned.query.clone(),
        },
        StrategyRun {
            name: factored_name,
            program: optimized.program.clone(),
            query: optimized.query.clone(),
        },
    ]
}

/// Build the Counting strategy for a right-linear program/query pair.
pub fn counting_strategy(source: &str, query_text: &str) -> StrategyRun {
    let program = parse_program(source).expect("program parses").program;
    let query = parse_query(query_text).expect("query parses");
    let adorned = adorn(&program, &query).expect("adornment succeeds");
    let classification = classify(&adorned).expect("classification succeeds");
    let cnt = counting(&adorned, &classification).expect("counting applies");
    StrategyRun {
        name: "counting",
        program: cnt.program,
        query: cnt.query,
    }
}

/// Evaluate one strategy over one workload.
pub fn measure(run: &StrategyRun, edb: &Database) -> Measurement {
    let start = Instant::now();
    let result = seminaive_evaluate(&run.program, edb, &EvalOptions::default())
        .expect("benchmark evaluation succeeds");
    let duration = start.elapsed();
    let answers = result.answers(&run.query).len();
    Measurement {
        name: run.name,
        duration,
        inferences: result.stats.inferences,
        facts: result.stats.facts_derived,
        iterations: result.stats.iterations,
        answers,
    }
}

/// Evaluate every strategy over the workload, asserting that they all agree on the
/// number of answers (a cheap cross-check that the benchmark is measuring equivalent
/// computations).
pub fn measure_all(runs: &[StrategyRun], edb: &Database) -> Vec<Measurement> {
    let measurements: Vec<Measurement> = runs.iter().map(|r| measure(r, edb)).collect();
    if let Some(first) = measurements.first() {
        for m in &measurements {
            assert_eq!(
                m.answers, first.answers,
                "strategy {} disagrees with {} on the answer count",
                m.name, first.name
            );
        }
    }
    measurements
}

/// A stream of fact insertions interleaved with queries: the workload shape of the
/// incremental-vs-batch comparison. Each element is `(predicate, tuple)`.
pub type InsertStream = Vec<(&'static str, Vec<Const>)>;

/// Play an insert/query stream against a persistent [`Engine`]: materialize once,
/// then absorb each insert with a delta-seeded resume. Returns the total answer count
/// across all queries (a checksum the batch variant must reproduce).
pub fn stream_incremental(
    program: &Program,
    base: &Database,
    stream: &InsertStream,
    query: &Query,
) -> usize {
    let mut engine = Engine::new();
    engine
        .add_rules(program.clone())
        .expect("rule registration succeeds");
    for (pred, rel) in base.iter() {
        for tuple in rel.iter() {
            engine.insert(pred, tuple).expect("base fact inserts");
        }
    }
    let mut total = engine.query(query).expect("initial query").len();
    for (pred, tuple) in stream {
        engine.insert(*pred, tuple).expect("stream insert");
        total += engine.query(query).expect("stream query").len();
    }
    total
}

/// Play the same stream with from-scratch re-evaluation after every insert — the
/// baseline the incremental engine must beat.
pub fn stream_batch(
    program: &Program,
    base: &Database,
    stream: &InsertStream,
    query: &Query,
) -> usize {
    let mut edb = base.clone();
    let evaluate = |edb: &Database| {
        seminaive_evaluate(program, edb, &EvalOptions::default())
            .expect("batch evaluation")
            .answers(query)
            .len()
    };
    let mut total = evaluate(&edb);
    for (pred, tuple) in stream {
        edb.add_fact(*pred, tuple);
        total += evaluate(&edb);
    }
    total
}

/// JSON fragment describing the measuring host, emitted by every suite's
/// `to_json`: the machine's core count and the worker-thread setting the
/// suite's evaluations were configured with (0 = one per core).
pub fn host_json(threads_configured: usize) -> String {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    format!("  \"host\": {{\"cores\": {cores}, \"threads_configured\": {threads_configured}}},\n")
}

/// Format a table of measurements (one row per strategy).
pub fn format_table(title: &str, parameter: &str, rows: &[(String, Vec<Measurement>)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "### {title}\n");
    let _ = writeln!(
        out,
        "| {parameter} | strategy | time (ms) | inferences | facts | answers |"
    );
    let _ = writeln!(out, "|---|---|---:|---:|---:|---:|");
    for (param, measurements) in rows {
        for m in measurements {
            let _ = writeln!(
                out,
                "| {param} | {} | {:.3} | {} | {} | {} |",
                m.name,
                m.duration.as_secs_f64() * 1e3,
                m.inferences,
                m.facts,
                m.answers
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use factorlog_workloads::{graphs, programs};

    #[test]
    fn standard_strategies_agree_on_a_chain() {
        let runs = standard_strategies(programs::RIGHT_LINEAR_TC, programs::TC_QUERY);
        assert_eq!(runs.len(), 3);
        let edb = graphs::chain(30);
        let measurements = measure_all(&runs, &edb);
        assert!(measurements.iter().all(|m| m.answers == 30));
        // The factored strategy must not derive more facts than magic on this chain.
        let magic = measurements.iter().find(|m| m.name == "magic").unwrap();
        let factored = measurements
            .iter()
            .find(|m| m.name == "magic+factoring")
            .unwrap();
        assert!(factored.facts <= magic.facts);
    }

    #[test]
    fn counting_strategy_matches_the_others() {
        let mut runs = standard_strategies(programs::RIGHT_LINEAR_TC, programs::TC_QUERY);
        runs.push(counting_strategy(
            programs::RIGHT_LINEAR_TC,
            programs::TC_QUERY,
        ));
        let edb = graphs::chain(20);
        let measurements = measure_all(&runs, &edb);
        assert_eq!(measurements.len(), 4);
    }

    #[test]
    fn incremental_stream_matches_batch_stream() {
        let program = parse_program(programs::RIGHT_LINEAR_TC).unwrap().program;
        let query = parse_query(programs::TC_QUERY).unwrap();
        let base = graphs::chain(20);
        let stream: InsertStream = (20..30)
            .map(|i| ("e", vec![Const::Int(i), Const::Int(i + 1)]))
            .collect();
        let incremental = stream_incremental(&program, &base, &stream, &query);
        let batch = stream_batch(&program, &base, &stream, &query);
        assert_eq!(incremental, batch);
        // 20 answers initially, one more per extension edge.
        assert_eq!(batch, (20..=30).sum::<i64>() as usize);
    }

    #[test]
    fn incremental_stream_matches_batch_on_same_generation() {
        let program = parse_program(programs::SAME_GENERATION).unwrap().program;
        let query = parse_query(programs::SG_QUERY).unwrap();
        let base = graphs::same_generation_tree(3);
        let stream: InsertStream = (0..4)
            .map(|i| ("flat", vec![Const::Int(i), Const::Int(i + 3)]))
            .collect();
        let incremental = stream_incremental(&program, &base, &stream, &query);
        let batch = stream_batch(&program, &base, &stream, &query);
        assert_eq!(incremental, batch);
        assert!(batch > 0);
    }

    #[test]
    fn format_table_produces_markdown() {
        let runs = standard_strategies(programs::LEFT_LINEAR_TC, programs::TC_QUERY);
        let edb = graphs::chain(10);
        let rows = vec![("10".to_string(), measure_all(&runs, &edb))];
        let table = format_table("test", "n", &rows);
        assert!(table.contains("| n | strategy |"));
        assert!(table.contains("magic+factoring"));
    }
}

/// The `joins` measurement suite: the fixed workload set behind the checked-in
/// `BENCH_joins.json` baseline and the `report --json joins` mode. Each workload
/// exercises the compiled join pipeline differently — full batch fixpoints over wide
/// and deep graphs (index probes on the full relations *and* on the semi-naive
/// deltas), the incremental engine's resume path, and the factored list-membership
/// program of the paper.
pub mod joins {
    use std::time::Instant;

    use factorlog_datalog::ast::Const;
    use factorlog_datalog::eval::{seminaive_evaluate, EvalOptions, EvalStats};
    use factorlog_datalog::parser::{parse_program, parse_query};
    use factorlog_workloads::lists::pmem_list;
    use factorlog_workloads::{graphs, programs};

    use crate::{stream_incremental, InsertStream};

    /// One measured workload of the suite.
    #[derive(Clone, Debug)]
    pub struct JoinMeasurement {
        /// Workload id (stable across runs; keys of `BENCH_joins.json`).
        pub name: &'static str,
        /// Median wall-clock milliseconds over the samples.
        pub millis: f64,
        /// Inference count (machine-independent size of the join work; 0 for the
        /// engine-driven incremental workload, whose per-call stats stay inside the
        /// engine).
        pub inferences: usize,
        /// Facts derived.
        pub facts: usize,
        /// Index probes performed (0 on builds that predate the counter).
        pub index_probes: usize,
        /// Full relation scans performed (0 on builds that predate the counter).
        pub full_scans: usize,
        /// Machine-independent answer-total checksum of streamed workloads (0 for
        /// batch workloads) — a correctness cross-check across builds, not a cost.
        pub answer_checksum: usize,
    }

    fn median(mut samples: Vec<f64>) -> f64 {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        samples[samples.len() / 2]
    }

    fn measure_batch(
        name: &'static str,
        source: &str,
        edb: &factorlog_datalog::storage::Database,
        samples: usize,
    ) -> JoinMeasurement {
        let program = parse_program(source).expect("suite program parses").program;
        let mut timings = Vec::with_capacity(samples);
        let mut stats = EvalStats::default();
        for _ in 0..samples {
            let start = Instant::now();
            let result = seminaive_evaluate(&program, edb, &EvalOptions::default())
                .expect("suite evaluation succeeds");
            timings.push(start.elapsed().as_secs_f64() * 1e3);
            stats = result.stats;
        }
        JoinMeasurement {
            name,
            millis: median(timings),
            inferences: stats.inferences,
            facts: stats.facts_derived,
            index_probes: stats.index_probes,
            full_scans: stats.full_scans,
            answer_checksum: 0,
        }
    }

    /// Run the whole suite. `quick` shrinks the workloads and sample counts to a smoke
    /// test (used by CI to keep the benchmark code honest without paying for a full
    /// measurement run).
    pub fn run_suite(quick: bool) -> Vec<JoinMeasurement> {
        let samples = if quick { 1 } else { 5 };
        let mut out = Vec::new();

        // Transitive closure over a 10-ary tree: 11_110 edges (the ">= 10k edges"
        // acceptance workload). Deltas are wide, so recursive-literal delta probes
        // dominate.
        let (width, depth) = if quick { (4, 3) } else { (10, 4) };
        out.push(measure_batch(
            "tc_tree_10k_edges",
            programs::RIGHT_LINEAR_TC,
            &graphs::tree(width, depth),
            samples,
        ));

        // Transitive closure of a chain: long dependency depth, small deltas.
        let n = if quick { 64 } else { 400 };
        out.push(measure_batch(
            "tc_chain_400",
            programs::RIGHT_LINEAR_TC,
            &graphs::chain(n),
            samples,
        ));

        // Same generation over a balanced binary tree (the non-factorable control).
        let depth = if quick { 4 } else { 8 };
        out.push(measure_batch(
            "sg_tree_depth_8",
            programs::SAME_GENERATION,
            &graphs::same_generation_tree(depth),
            samples,
        ));

        // List membership (Example 1.2/4.6): the original quadratic program.
        let n = if quick { 50 } else { 400 };
        out.push(measure_batch(
            "pmem_list_400",
            programs::PMEM,
            &pmem_list(n, 1).edb,
            samples,
        ));

        // Incremental engine: materialize a chain closure, then absorb a stream of
        // edge inserts with delta-seeded resumes, querying after each.
        let n = if quick { 64 } else { 1000 };
        let inserts = if quick { 4 } else { 20 };
        let program = parse_program(programs::RIGHT_LINEAR_TC)
            .expect("tc program parses")
            .program;
        let query = parse_query(programs::TC_QUERY).expect("tc query parses");
        let base = graphs::chain(n);
        let stream: InsertStream = (0..inserts)
            .map(|i| {
                let from = (n + i) as i64;
                ("e", vec![Const::Int(from), Const::Int(from + 1)])
            })
            .collect();
        let mut timings = Vec::with_capacity(samples);
        let mut checksum = 0usize;
        for _ in 0..samples {
            let start = Instant::now();
            checksum = stream_incremental(&program, &base, &stream, &query);
            timings.push(start.elapsed().as_secs_f64() * 1e3);
        }
        out.push(JoinMeasurement {
            name: "tc_chain_1000_incremental",
            millis: median(timings),
            inferences: 0,
            facts: 0,
            index_probes: 0,
            full_scans: 0,
            answer_checksum: checksum,
        });

        out
    }

    /// Render the suite results as a JSON object (manual formatting keeps the
    /// workspace dependency-free). `quick` marks smoke runs: their workload ids name
    /// the *full-size* workloads, so the marker keeps shrunken numbers from being
    /// mistaken for the checked-in baseline.
    pub fn to_json(results: &[JoinMeasurement], quick: bool) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n");
        out.push_str(&crate::host_json(EvalOptions::default().threads));
        if quick {
            out.push_str(
                "  \"quick\": true,\n  \"warning\": \"smoke run on shrunken workloads — not comparable to BENCH_joins.json\",\n",
            );
        }
        for (i, m) in results.iter().enumerate() {
            let _ = write!(
                out,
                "  \"{}\": {{\"millis\": {:.3}, \"inferences\": {}, \"facts\": {}, \"index_probes\": {}, \"full_scans\": {}, \"answer_checksum\": {}}}",
                m.name,
                m.millis,
                m.inferences,
                m.facts,
                m.index_probes,
                m.full_scans,
                m.answer_checksum
            );
            out.push_str(if i + 1 == results.len() { "\n" } else { ",\n" });
        }
        out.push('}');
        out
    }
}

/// The `incremental` measurement suite: the workload set behind the checked-in
/// `BENCH_incremental.json` baseline and the `report --json incremental` mode. The
/// headline workload is *churn*: a materialized transitive closure absorbing a
/// stream of retract+assert transactions (counting-based delete propagation through
/// the maintained model), measured against from-scratch re-evaluation of every
/// post-transaction EDB. The suite asserts on every run — including the CI smoke
/// run — that the maintained answers checksum-match the from-scratch answers.
pub mod incremental {
    use std::time::Instant;

    use factorlog_datalog::ast::Const;
    use factorlog_datalog::eval::{seminaive_evaluate, EvalOptions};
    use factorlog_datalog::parser::{parse_program, parse_query};
    use factorlog_datalog::storage::Database;
    use factorlog_engine::Engine;
    use factorlog_workloads::programs;

    /// One measured workload of the suite.
    #[derive(Clone, Debug)]
    pub struct IncrementalMeasurement {
        /// Workload id (stable across runs; keys of `BENCH_incremental.json`).
        pub name: &'static str,
        /// Median wall-clock milliseconds over the samples.
        pub millis: f64,
        /// Facts removed from the model by delete propagation (0 for the
        /// from-scratch baseline, which has no model to maintain).
        pub retractions: usize,
        /// Over-deleted facts restored by the counting re-derivation pass.
        pub rederivations: usize,
        /// Negative-delta fixpoint rounds.
        pub delete_rounds: usize,
        /// Total answers across the stream's queries — the machine-independent
        /// correctness checksum the maintained and scratch runs must share.
        pub answer_checksum: usize,
    }

    fn median(mut samples: Vec<f64>) -> f64 {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        samples[samples.len() / 2]
    }

    /// The churn workload's base EDB: a chain 0→1→…→n plus skip edges (j → j+2 for
    /// even j), so a retracted chain edge usually leaves reachability intact through
    /// the skips — maximal re-derivation work for the counting pass.
    fn churn_base(n: i64) -> Vec<(i64, i64)> {
        let mut edges: Vec<(i64, i64)> = (0..n).map(|i| (i, i + 1)).collect();
        edges.extend((0..n - 1).step_by(2).map(|j| (j, j + 2)));
        edges
    }

    /// The mutation stream: transaction `i` retracts chain edge (s_i → s_i+1) and
    /// asserts a fresh detour edge (s_i → n + i).
    fn churn_stream(n: i64, churns: usize) -> Vec<((i64, i64), (i64, i64))> {
        (0..churns as i64)
            .map(|i| {
                let cut = (i * 7 + 1) % (n - 1);
                ((cut, cut + 1), (cut, n + i))
            })
            .collect()
    }

    /// Play the churn stream against a persistent engine: materialize once, then
    /// absorb each retract+assert transaction with incremental maintenance, querying
    /// after each. Returns (total answers, mutation counters).
    fn churn_maintained(n: i64, churns: usize) -> (usize, (usize, usize, usize)) {
        let mut engine = Engine::new();
        engine
            .load_source(programs::RIGHT_LINEAR_TC)
            .expect("program loads");
        for (a, b) in churn_base(n) {
            engine
                .insert("e", &[Const::Int(a), Const::Int(b)])
                .expect("base insert");
        }
        let query = parse_query(programs::TC_QUERY).expect("query parses");
        let mut checksum = engine.query(&query).expect("initial query").len();
        for ((ra, rb), (aa, ab)) in churn_stream(n, churns) {
            let mut txn = engine.transaction();
            txn.retract("e", &[Const::Int(ra), Const::Int(rb)])
                .assert("e", &[Const::Int(aa), Const::Int(ab)]);
            txn.commit().expect("churn commit");
            checksum += engine.query(&query).expect("churn query").len();
        }
        let stats = engine.stats();
        (
            checksum,
            (stats.retractions, stats.rederivations, stats.delete_rounds),
        )
    }

    /// The baseline: the same stream with a from-scratch evaluation of the whole EDB
    /// after every transaction.
    fn churn_scratch(n: i64, churns: usize) -> usize {
        let program = parse_program(programs::RIGHT_LINEAR_TC)
            .expect("program parses")
            .program;
        let query = parse_query(programs::TC_QUERY).expect("query parses");
        let mut edb = Database::new();
        for (a, b) in churn_base(n) {
            edb.add_fact("e", &[Const::Int(a), Const::Int(b)]);
        }
        let evaluate = |edb: &Database| {
            seminaive_evaluate(&program, edb, &EvalOptions::default())
                .expect("scratch evaluation")
                .answers(&query)
                .len()
        };
        let mut checksum = evaluate(&edb);
        for ((ra, rb), (aa, ab)) in churn_stream(n, churns) {
            edb.remove_fact("e", &[Const::Int(ra), Const::Int(rb)]);
            edb.add_fact("e", &[Const::Int(aa), Const::Int(ab)]);
            checksum += evaluate(&edb);
        }
        checksum
    }

    /// Run the whole suite. `quick` shrinks the workloads and sample counts to a
    /// smoke test; the maintained-vs-scratch checksum assertion runs either way.
    pub fn run_suite(quick: bool) -> Vec<IncrementalMeasurement> {
        let samples = if quick { 1 } else { 5 };
        let (n, churns) = if quick { (60i64, 4usize) } else { (400, 20) };
        let mut out = Vec::new();

        let mut timings = Vec::with_capacity(samples);
        let mut maintained = None;
        for _ in 0..samples {
            let start = Instant::now();
            let result = churn_maintained(n, churns);
            timings.push(start.elapsed().as_secs_f64() * 1e3);
            maintained = Some(result);
        }
        let (checksum, (retractions, rederivations, delete_rounds)) =
            maintained.expect("at least one sample");
        out.push(IncrementalMeasurement {
            name: "tc_churn_400_maintained",
            millis: median(timings),
            retractions,
            rederivations,
            delete_rounds,
            answer_checksum: checksum,
        });
        assert!(
            rederivations > 0,
            "the skip edges must force counting re-derivations"
        );

        let mut timings = Vec::with_capacity(samples);
        let mut scratch_checksum = 0usize;
        for _ in 0..samples {
            let start = Instant::now();
            scratch_checksum = churn_scratch(n, churns);
            timings.push(start.elapsed().as_secs_f64() * 1e3);
        }
        assert_eq!(
            checksum, scratch_checksum,
            "maintained and from-scratch answers must agree"
        );
        out.push(IncrementalMeasurement {
            name: "tc_churn_400_scratch",
            millis: median(timings),
            retractions: 0,
            rederivations: 0,
            delete_rounds: 0,
            answer_checksum: scratch_checksum,
        });

        out
    }

    /// Render the suite results as a JSON object (manual formatting keeps the
    /// workspace dependency-free). `quick` marks smoke runs on shrunken workloads.
    pub fn to_json(results: &[IncrementalMeasurement], quick: bool) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n");
        out.push_str(&crate::host_json(EvalOptions::default().threads));
        if quick {
            out.push_str(
                "  \"quick\": true,\n  \"warning\": \"smoke run on shrunken workloads — not comparable to BENCH_incremental.json\",\n",
            );
        }
        for (i, m) in results.iter().enumerate() {
            let _ = write!(
                out,
                "  \"{}\": {{\"millis\": {:.3}, \"retractions\": {}, \"rederivations\": {}, \"delete_rounds\": {}, \"answer_checksum\": {}}}",
                m.name, m.millis, m.retractions, m.rederivations, m.delete_rounds, m.answer_checksum
            );
            out.push_str(if i + 1 == results.len() { "\n" } else { ",\n" });
        }
        out.push('}');
        out
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn quick_suite_is_internally_consistent() {
            let results = super::run_suite(true);
            assert_eq!(results.len(), 2);
            assert_eq!(
                results[0].answer_checksum, results[1].answer_checksum,
                "run_suite asserts this itself; pin it here too"
            );
            assert!(results[0].retractions > 0);
            let json = super::to_json(&results, true);
            assert!(json.contains("tc_churn_400_maintained"));
            assert!(json.contains("\"quick\": true"));
        }
    }
}

/// The `durability` measurement suite: the workload set behind the checked-in
/// `BENCH_durability.json` baseline and the `report --json durability` mode. It
/// measures the write-path overhead of the transaction log (with and without
/// per-commit fsync) and the two recovery paths (log replay vs snapshot load after
/// compaction), asserting on every run — including the CI smoke run — that each
/// recovered session's base facts checksum-match the session that wrote them.
pub mod durability {
    use std::path::PathBuf;
    use std::time::Instant;

    use factorlog_datalog::ast::Const;
    use factorlog_datalog::parser::parse_query;
    use factorlog_engine::{DurabilityOptions, Engine};
    use factorlog_workloads::programs;

    use crate::parallel::database_checksum;

    /// One measured scenario of the suite.
    #[derive(Clone, Debug)]
    pub struct DurabilityMeasurement {
        /// Scenario id (stable across runs; keys of `BENCH_durability.json`).
        pub name: &'static str,
        /// Median wall-clock milliseconds over the samples.
        pub millis: f64,
        /// Log size (bytes) the scenario ends with (0 after compaction).
        pub wal_bytes: u64,
        /// Log records appended (commit scenarios) or replayed (recovery
        /// scenarios).
        pub records: usize,
        /// Order-sensitive checksum of the session's base facts — every recovery
        /// scenario must reproduce the writer's checksum exactly.
        pub answer_checksum: u64,
    }

    fn median(mut samples: Vec<f64>) -> f64 {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        samples[samples.len() / 2]
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "factorlog_bench_durability_{tag}_{}_{n}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Build the churn commit stream: transaction `i` retracts a chain edge and
    /// asserts a detour plus a fresh extension edge.
    fn churn_ops(n: i64, churns: usize) -> Vec<[(bool, i64, i64); 3]> {
        (0..churns as i64)
            .map(|i| {
                let cut = (i * 11 + 1) % (n - 1);
                [
                    (false, cut, cut + 1),
                    (true, cut, n + 2 * i),
                    (true, n + 2 * i, cut + 1),
                ]
            })
            .collect()
    }

    /// Open a durable session, load the TC program and an n-edge chain, then play
    /// the churn commits. Returns the session and the appended record count.
    fn write_session(dir: &PathBuf, fsync: bool, n: i64, churns: usize) -> (Engine, usize) {
        let options = DurabilityOptions {
            fsync,
            compact_threshold: u64::MAX,
        };
        let mut engine = Engine::open_durable_with(dir, options).expect("durable open");
        let mut source = String::from(programs::RIGHT_LINEAR_TC);
        source.push('\n');
        for i in 0..n {
            use std::fmt::Write as _;
            let _ = writeln!(source, "e({i}, {}).", i + 1);
        }
        engine.load_source(&source).expect("bulk load");
        for ops in churn_ops(n, churns) {
            let mut txn = engine.transaction();
            for (assert, a, b) in ops {
                if assert {
                    txn.assert("e", &[Const::Int(a), Const::Int(b)]);
                } else {
                    txn.retract("e", &[Const::Int(a), Const::Int(b)]);
                }
            }
            txn.commit().expect("churn commit");
        }
        let records = engine.stats().wal_appends;
        (engine, records)
    }

    /// Run the whole suite. `quick` shrinks the workloads and sample counts to a
    /// smoke test; the recovered-checksum assertions run either way.
    pub fn run_suite(quick: bool) -> Vec<DurabilityMeasurement> {
        let samples = if quick { 1 } else { 5 };
        let (n, churns) = if quick { (60i64, 10usize) } else { (400, 100) };
        let query = parse_query(programs::TC_QUERY).expect("query parses");
        let mut out = Vec::new();

        // Write path, fsync on and off: the cost of one record append (+ sync) per
        // commit.
        for (name, fsync) in [
            ("commit_churn_100_fsync", true),
            ("commit_churn_100_nofsync", false),
        ] {
            let mut timings = Vec::with_capacity(samples);
            let mut measured = None;
            for _ in 0..samples {
                let dir = scratch_dir(name);
                let start = Instant::now();
                let (engine, records) = write_session(&dir, fsync, n, churns);
                timings.push(start.elapsed().as_secs_f64() * 1e3);
                measured = Some(DurabilityMeasurement {
                    name,
                    millis: 0.0,
                    wal_bytes: engine.wal_len().expect("durable"),
                    records,
                    answer_checksum: database_checksum(engine.facts()),
                });
                std::fs::remove_dir_all(&dir).ok();
            }
            let mut m = measured.expect("at least one sample");
            m.millis = median(timings);
            out.push(m);
        }

        // Recovery, replay-heavy: reopen a directory whose whole history lives in
        // the log (no snapshot).
        let dir = scratch_dir("recover_replay");
        let (writer_engine, records) = write_session(&dir, false, n, churns);
        let written_checksum = database_checksum(writer_engine.facts());
        let mut live = writer_engine;
        let live_answers = live.query(&query).expect("live query").len();
        drop(live);
        let mut timings = Vec::with_capacity(samples);
        for _ in 0..samples {
            let start = Instant::now();
            let recovered = Engine::open_durable(&dir).expect("recovery");
            timings.push(start.elapsed().as_secs_f64() * 1e3);
            assert_eq!(
                database_checksum(recovered.facts()),
                written_checksum,
                "replay recovery must reproduce the writer's facts"
            );
        }
        let mut recovered = Engine::open_durable(&dir).expect("recovery");
        assert_eq!(
            recovered.query(&query).expect("recovered query").len(),
            live_answers,
            "recovered answers must match the live session"
        );
        out.push(DurabilityMeasurement {
            name: "recover_replay_100_txns",
            millis: median(timings),
            wal_bytes: recovered.wal_len().expect("durable"),
            records,
            answer_checksum: written_checksum,
        });

        // Recovery, snapshot-heavy: compact, then reopen (replay shrinks to zero).
        recovered.compact().expect("compaction");
        drop(recovered);
        let mut timings = Vec::with_capacity(samples);
        for _ in 0..samples {
            let start = Instant::now();
            let reopened = Engine::open_durable(&dir).expect("recovery");
            timings.push(start.elapsed().as_secs_f64() * 1e3);
            assert_eq!(
                database_checksum(reopened.facts()),
                written_checksum,
                "snapshot recovery must reproduce the writer's facts"
            );
            assert_eq!(
                reopened
                    .recovery_report()
                    .expect("durable session")
                    .records_replayed,
                0,
                "a freshly compacted directory replays nothing"
            );
        }
        let reopened = Engine::open_durable(&dir).expect("recovery");
        out.push(DurabilityMeasurement {
            name: "recover_after_compaction",
            millis: median(timings),
            wal_bytes: reopened.wal_len().expect("durable"),
            records: 0,
            answer_checksum: written_checksum,
        });
        std::fs::remove_dir_all(&dir).ok();

        out
    }

    /// Render the suite results as a JSON object (manual formatting keeps the
    /// workspace dependency-free). `quick` marks smoke runs on shrunken workloads.
    pub fn to_json(results: &[DurabilityMeasurement], quick: bool) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n");
        out.push_str(&crate::host_json(
            factorlog_engine::EvalOptions::default().threads,
        ));
        if quick {
            out.push_str(
                "  \"quick\": true,\n  \"warning\": \"smoke run on shrunken workloads — not comparable to BENCH_durability.json\",\n",
            );
        }
        for (i, m) in results.iter().enumerate() {
            let _ = write!(
                out,
                "  \"{}\": {{\"millis\": {:.3}, \"wal_bytes\": {}, \"records\": {}, \"answer_checksum\": {}}}",
                m.name, m.millis, m.wal_bytes, m.records, m.answer_checksum
            );
            out.push_str(if i + 1 == results.len() { "\n" } else { ",\n" });
        }
        out.push('}');
        out
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn quick_suite_recovers_checksums() {
            // run_suite asserts recovered == written internally; surviving the call
            // IS the test. Sanity-check the shape on top.
            let results = super::run_suite(true);
            assert_eq!(results.len(), 4);
            let replay = results
                .iter()
                .find(|m| m.name == "recover_replay_100_txns")
                .unwrap();
            assert!(replay.records > 0);
            let fsync = results
                .iter()
                .find(|m| m.name == "commit_churn_100_fsync")
                .unwrap();
            assert_eq!(fsync.answer_checksum, replay.answer_checksum);
            let json = super::to_json(&results, true);
            assert!(json.contains("recover_after_compaction"));
            assert!(json.contains("\"quick\": true"));
        }
    }
}

/// The `parallel` measurement suite: the workload set behind the checked-in
/// `BENCH_parallel.json` baseline and the `report --json parallel` mode. Each workload
/// is evaluated at several worker-thread counts ([`parallel::THREAD_COUNTS`]); the
/// suite itself asserts the acceptance invariant — identical inference counts and
/// answer checksums at every thread count — so any run (including the CI smoke run)
/// re-verifies that parallel evaluation is bit-identical to sequential.
pub mod parallel {
    use std::time::Instant;

    use factorlog_datalog::eval::{seminaive_evaluate, EvalOptions};
    use factorlog_datalog::fx::fx_hash_one;
    use factorlog_datalog::parser::parse_program;
    use factorlog_datalog::storage::Database;
    use factorlog_workloads::lists::pmem_list;
    use factorlog_workloads::{graphs, programs};

    /// Thread counts every workload is measured at.
    pub const THREAD_COUNTS: &[usize] = &[1, 2, 4];

    /// One workload measured at one thread count.
    #[derive(Clone, Debug)]
    pub struct ParallelMeasurement {
        /// Workload id (stable across runs; keys of `BENCH_parallel.json`).
        pub name: &'static str,
        /// Worker threads the evaluation ran with.
        pub threads: usize,
        /// Median wall-clock milliseconds over the samples.
        pub millis: f64,
        /// Inference count — must be identical at every thread count.
        pub inferences: usize,
        /// Facts derived — must be identical at every thread count.
        pub facts: usize,
        /// Rounds that actually ran chunked across workers (0 when the deltas never
        /// reached the parallel threshold — the chain-shaped control workloads).
        pub parallel_rounds: usize,
        /// Order-sensitive checksum of the final database — identical across thread
        /// counts if and only if the fact sets AND relation insertion orders match.
        pub answer_checksum: u64,
    }

    /// Order-sensitive digest of every relation (predicates in name order, tuples in
    /// insertion order): pins both the derived fact set and the deterministic-merge
    /// guarantee.
    pub fn database_checksum(db: &Database) -> u64 {
        let mut preds: Vec<_> = db.iter().collect();
        preds.sort_by_key(|(p, _)| p.as_str());
        let mut checksum = 0u64;
        for (pred, rel) in preds {
            checksum = checksum
                .wrapping_mul(1_000_003)
                .wrapping_add(fx_hash_one(&pred.as_str()));
            for tuple in rel.iter() {
                for value in tuple {
                    checksum = checksum.wrapping_mul(31).wrapping_add(fx_hash_one(value));
                }
            }
        }
        checksum
    }

    fn median(mut samples: Vec<f64>) -> f64 {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        samples[samples.len() / 2]
    }

    fn measure_workload(
        name: &'static str,
        source: &str,
        edb: &Database,
        samples: usize,
        parallel_threshold: usize,
        out: &mut Vec<ParallelMeasurement>,
    ) {
        let program = parse_program(source).expect("suite program parses").program;
        let mut baseline: Option<(usize, u64)> = None;
        for &threads in THREAD_COUNTS {
            let options = EvalOptions {
                threads,
                parallel_threshold,
                ..EvalOptions::default()
            };
            let mut timings = Vec::with_capacity(samples);
            let mut measurement: Option<ParallelMeasurement> = None;
            for _ in 0..samples {
                let start = Instant::now();
                let result =
                    seminaive_evaluate(&program, edb, &options).expect("suite evaluation succeeds");
                timings.push(start.elapsed().as_secs_f64() * 1e3);
                match &measurement {
                    // Counters and checksum are deterministic: capture them on the
                    // first sample, cheaply cross-check the rest against it.
                    Some(first) => assert_eq!(
                        first.inferences, result.stats.inferences,
                        "{name}: inference count varies across samples"
                    ),
                    None => {
                        measurement = Some(ParallelMeasurement {
                            name,
                            threads,
                            millis: 0.0,
                            inferences: result.stats.inferences,
                            facts: result.stats.facts_derived,
                            parallel_rounds: result.stats.parallel_rounds,
                            answer_checksum: database_checksum(&result.database),
                        });
                    }
                }
            }
            let mut m = measurement.expect("at least one sample");
            m.millis = median(timings);
            // The acceptance invariant, enforced on every run: thread count must not
            // change what is computed, only how fast.
            match baseline {
                None => baseline = Some((m.inferences, m.answer_checksum)),
                Some((inferences, checksum)) => {
                    assert_eq!(
                        inferences, m.inferences,
                        "{name}: inference count differs at {threads} threads"
                    );
                    assert_eq!(
                        checksum, m.answer_checksum,
                        "{name}: database checksum differs at {threads} threads"
                    );
                }
            }
            out.push(m);
        }
    }

    /// Run the whole suite. `quick` shrinks the workloads and sample counts to a
    /// smoke test (used by CI to keep the invariant checks honest without paying for
    /// a full measurement run).
    pub fn run_suite(quick: bool) -> Vec<ParallelMeasurement> {
        let samples = if quick { 1 } else { 5 };
        // Quick smoke runs shrink the workloads below the production partition
        // threshold; forcing the threshold down keeps the partitioned code path (and
        // its bit-identity assertions) exercised anyway.
        let threshold = if quick {
            1
        } else {
            factorlog_datalog::eval::EvalOptions::default().parallel_threshold
        };
        let mut out = Vec::new();

        // Transitive closure over a 10-ary tree: 11_110 edges, wide deltas — every
        // delta round clears the partition threshold (the acceptance workload).
        let (width, depth) = if quick { (4, 3) } else { (10, 4) };
        measure_workload(
            "tc_tree_10k_edges",
            programs::RIGHT_LINEAR_TC,
            &graphs::tree(width, depth),
            samples,
            threshold,
            &mut out,
        );

        // One order of magnitude larger (111_110 edges): partition overhead
        // amortizes further — the workload the acceptance criteria fall back to when
        // per-round overhead dominates at 10k edges.
        let (width, depth) = if quick { (4, 4) } else { (10, 5) };
        measure_workload(
            "tc_tree_100k_edges",
            programs::RIGHT_LINEAR_TC,
            &graphs::tree(width, depth),
            if quick { 1 } else { 3 },
            threshold,
            &mut out,
        );

        // List membership: a chain-shaped recursion whose per-round deltas stay far
        // below the production threshold — the control showing parallelism never
        // taxes workloads it cannot help (t4 must track t1; parallel_rounds stays 0
        // in full runs).
        let n = if quick { 50 } else { 400 };
        measure_workload(
            "pmem_list_400",
            programs::PMEM,
            &pmem_list(n, 1).edb,
            samples,
            threshold,
            &mut out,
        );

        out
    }

    /// Render the suite results as a JSON object, grouped per workload with a
    /// `speedup_t4` summary. `quick` marks smoke runs (shrunken workloads keep their
    /// full-size ids, so the marker prevents confusing them with the baseline).
    pub fn to_json(results: &[ParallelMeasurement], quick: bool) -> String {
        use std::fmt::Write as _;
        let host = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"suite\": \"parallel\",");
        let _ = writeln!(out, "  \"host_cores\": {host},");
        // Uniform host object (host_cores above predates it and is kept for
        // comparability with older BENCH_parallel.json baselines). The suite
        // sweeps THREAD_COUNTS explicitly, so threads_configured reports the
        // sweep's maximum.
        out.push_str(&crate::host_json(
            THREAD_COUNTS.iter().copied().max().unwrap_or(1),
        ));
        if quick {
            out.push_str(
                "  \"quick\": true,\n  \"warning\": \"smoke run on shrunken workloads — not comparable to BENCH_parallel.json\",\n",
            );
        }
        let mut names: Vec<&'static str> = Vec::new();
        for m in results {
            if !names.contains(&m.name) {
                names.push(m.name);
            }
        }
        for (i, name) in names.iter().enumerate() {
            let rows: Vec<&ParallelMeasurement> =
                results.iter().filter(|m| m.name == *name).collect();
            let _ = writeln!(out, "  \"{name}\": {{");
            for row in &rows {
                let _ = writeln!(
                    out,
                    "    \"t{}\": {{\"millis\": {:.3}, \"inferences\": {}, \"facts\": {}, \"parallel_rounds\": {}, \"answer_checksum\": {}}},",
                    row.threads,
                    row.millis,
                    row.inferences,
                    row.facts,
                    row.parallel_rounds,
                    row.answer_checksum
                );
            }
            let t1 = rows.iter().find(|m| m.threads == 1);
            let t4 = rows.iter().find(|m| m.threads == 4);
            let speedup = match (t1, t4) {
                (Some(a), Some(b)) if b.millis > 0.0 => {
                    format!("{:.2}x", a.millis / b.millis)
                }
                _ => "n/a".to_string(),
            };
            let _ = writeln!(out, "    \"speedup_t4\": \"{speedup}\"");
            out.push_str(if i + 1 == names.len() {
                "  }\n"
            } else {
                "  },\n"
            });
        }
        out.push('}');
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use factorlog_datalog::ast::Const;

        #[test]
        fn quick_suite_upholds_the_thread_invariance_contract() {
            // run_suite asserts identical inferences/checksums internally; surviving
            // the call IS the test. Sanity-check the shape on top.
            let results = run_suite(true);
            assert_eq!(results.len(), 3 * THREAD_COUNTS.len());
            let json = to_json(&results, true);
            assert!(json.contains("\"quick\": true"));
            assert!(json.contains("\"tc_tree_10k_edges\""));
            assert!(json.contains("\"speedup_t4\""));
        }

        #[test]
        fn checksum_is_order_sensitive() {
            let mut a = Database::new();
            a.add_fact("e", &[Const::Int(1), Const::Int(2)]);
            a.add_fact("e", &[Const::Int(3), Const::Int(4)]);
            let mut b = Database::new();
            b.add_fact("e", &[Const::Int(3), Const::Int(4)]);
            b.add_fact("e", &[Const::Int(1), Const::Int(2)]);
            assert_ne!(database_checksum(&a), database_checksum(&b));
            let mut c = Database::new();
            c.add_fact("e", &[Const::Int(1), Const::Int(2)]);
            c.add_fact("e", &[Const::Int(3), Const::Int(4)]);
            assert_eq!(database_checksum(&a), database_checksum(&c));
        }
    }
}

/// The `observability` measurement suite: the workload set behind the checked-in
/// `BENCH_observability.json` baseline and the `report --json observability`
/// mode. It runs the joins suite's batch workloads twice — tracing off and
/// tracing on — and measures the overhead the instrumentation adds when
/// *enabled* (span timers around every phase, per-rule firing clocks, row
/// counters at the staging sink). Full runs assert the enabled overhead stays
/// under [`observability::OVERHEAD_BUDGET_PCT`]; every run (including the CI
/// smoke run) asserts tracing changes nothing about *what* is computed —
/// identical inference counts and database checksums with tracing off and on —
/// and that the traced run actually produced a profile.
///
/// The suite also carries the resource-governance guardrail gate: the same
/// workloads with every limit armed (deadline, derived-fact cap, memory
/// budget, cancellation token — none tripping) versus all limits off, asserted
/// under [`observability::GUARDRAIL_BUDGET_PCT`] on full runs.
pub mod observability {
    use std::time::Instant;

    use factorlog_datalog::eval::{seminaive_evaluate, EvalOptions, EvalProfile};
    use factorlog_datalog::fault::CancelToken;
    use factorlog_datalog::parser::parse_program;
    use factorlog_datalog::storage::Database;
    use factorlog_workloads::{graphs, programs};

    use crate::parallel::database_checksum;

    /// The enabled-tracing overhead budget, in percent, asserted by full runs
    /// and recorded in `BENCH_observability.json`.
    pub const OVERHEAD_BUDGET_PCT: f64 = 3.0;

    /// The armed-guardrail overhead budget, in percent: the cost of running with
    /// every governance limit armed (deadline, derived-fact cap, memory budget,
    /// cancellation token — none of them tripping) over running with all of them
    /// disabled. Asserted by full runs and recorded in
    /// `BENCH_observability.json` (this PR's acceptance gate).
    pub const GUARDRAIL_BUDGET_PCT: f64 = 2.0;

    /// One workload measured with tracing off and on.
    #[derive(Clone, Debug)]
    pub struct ObservabilityMeasurement {
        /// Workload id (stable across runs; keys of `BENCH_observability.json`).
        pub name: &'static str,
        /// Best-of-N wall-clock milliseconds with tracing off.
        pub millis_off: f64,
        /// Best-of-N wall-clock milliseconds with tracing on.
        pub millis_on: f64,
        /// Enabled-tracing overhead in percent: `(on - off) / off * 100`
        /// (negative values are measurement noise).
        pub overhead_pct: f64,
        /// Inference count — identical off and on (asserted).
        pub inferences: usize,
        /// Distinct phase spans the traced run recorded.
        pub phases_recorded: usize,
        /// Total rule firings the traced run's per-rule profile recorded.
        pub rule_firings: u64,
    }

    /// Best-of-N is the right statistic for an overhead bound: the minimum of
    /// repeated runs of deterministic CPU-bound work converges on the true cost,
    /// while medians keep scheduler noise that can dwarf a few clock reads.
    fn min_millis(samples: &[f64]) -> f64 {
        samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    fn measure_pair(
        name: &'static str,
        source: &str,
        edb: &Database,
        samples: usize,
    ) -> ObservabilityMeasurement {
        let program = parse_program(source).expect("suite program parses").program;
        let traced_options = EvalOptions {
            trace: true,
            ..EvalOptions::default()
        };
        let mut timings_off = Vec::with_capacity(samples);
        let mut timings_on = Vec::with_capacity(samples);
        let mut untraced: Option<(usize, u64)> = None;
        let mut traced: Option<(usize, u64)> = None;
        let mut profile: Option<Box<EvalProfile>> = None;
        // One untimed warmup of each configuration (first-touch page faults and
        // symbol interning land here, not in a timed sample).
        seminaive_evaluate(&program, edb, &EvalOptions::default()).expect("warmup succeeds");
        seminaive_evaluate(&program, edb, &traced_options).expect("warmup succeeds");
        // Interleave the off/on runs so thermal and frequency drift hits both
        // sides equally, and alternate which goes first within each pair so
        // neither side systematically inherits the other's warmed caches.
        for s in 0..samples {
            for on in [s % 2 == 0, s % 2 != 0] {
                if on {
                    let start = Instant::now();
                    let result = seminaive_evaluate(&program, edb, &traced_options)
                        .expect("traced evaluation succeeds");
                    timings_on.push(start.elapsed().as_secs_f64() * 1e3);
                    traced = Some((result.stats.inferences, database_checksum(&result.database)));
                    profile = result.stats.profile;
                } else {
                    let start = Instant::now();
                    let result = seminaive_evaluate(&program, edb, &EvalOptions::default())
                        .expect("untraced evaluation succeeds");
                    timings_off.push(start.elapsed().as_secs_f64() * 1e3);
                    untraced = Some((result.stats.inferences, database_checksum(&result.database)));
                }
            }
        }
        let (inferences, checksum_off) = untraced.expect("at least one sample");
        let (inferences_on, checksum_on) = traced.expect("at least one sample");
        assert_eq!(
            inferences, inferences_on,
            "{name}: tracing changed the inference count"
        );
        assert_eq!(
            checksum_off, checksum_on,
            "{name}: tracing changed the derived database"
        );
        let profile = profile.expect("traced run collects a profile");
        assert!(
            profile.phases.contains_key("eval.round"),
            "{name}: traced run recorded no eval.round span"
        );
        let rule_firings: u64 = profile.rules.iter().map(|r| r.firings).sum();
        assert!(rule_firings > 0, "{name}: no rule firings recorded");

        let millis_off = min_millis(&timings_off);
        let millis_on = min_millis(&timings_on);
        ObservabilityMeasurement {
            name,
            millis_off,
            millis_on,
            overhead_pct: (millis_on - millis_off) / millis_off * 100.0,
            inferences,
            phases_recorded: profile.phases.len(),
            rule_firings,
        }
    }

    /// Measure a workload and assert the enabled-tracing overhead budget.
    /// Shared-host scheduler noise can poison every sample on one side of a
    /// single attempt (the workloads run tens of milliseconds, well within one
    /// noisy scheduling burst), so the budget gets [`BUDGET_ATTEMPTS`] fresh
    /// measurements before failing: a real regression exceeds the budget on
    /// every attempt, a noise burst does not survive three. Quick smoke
    /// workloads finish in microseconds, where the ratio is pure noise; they
    /// skip the assertion (a single attempt, no budget check).
    fn measure_with_budget(
        name: &'static str,
        source: &str,
        edb: &Database,
        samples: usize,
        quick: bool,
    ) -> ObservabilityMeasurement {
        const BUDGET_ATTEMPTS: usize = 3;
        let mut best: Option<ObservabilityMeasurement> = None;
        for _ in 0..BUDGET_ATTEMPTS {
            let m = measure_pair(name, source, edb, samples);
            let better = best
                .as_ref()
                .is_none_or(|b| m.overhead_pct < b.overhead_pct);
            if better {
                best = Some(m);
            }
            let current = best.as_ref().expect("just set");
            if quick || current.overhead_pct <= OVERHEAD_BUDGET_PCT {
                break;
            }
        }
        let m = best.expect("at least one attempt");
        if !quick {
            assert!(
                m.overhead_pct <= OVERHEAD_BUDGET_PCT,
                "{name}: enabled tracing costs {:.2}% (> {OVERHEAD_BUDGET_PCT}% budget) across \
                 {BUDGET_ATTEMPTS} attempts; off {:.3}ms, on {:.3}ms",
                m.overhead_pct,
                m.millis_off,
                m.millis_on
            );
        }
        m
    }

    /// One workload measured with every governance guardrail disarmed and then
    /// armed (limits present but never tripping).
    #[derive(Clone, Debug)]
    pub struct GuardrailMeasurement {
        /// Workload id (stable across runs; keys of `BENCH_observability.json`).
        pub name: &'static str,
        /// Best-of-N wall-clock milliseconds with no limits set.
        pub millis_unarmed: f64,
        /// Best-of-N wall-clock milliseconds with deadline, derived-fact cap,
        /// memory budget and a cancellation token all armed (none tripping).
        pub millis_armed: f64,
        /// Armed-guardrail overhead in percent: `(armed - unarmed) / unarmed * 100`
        /// (negative values are measurement noise).
        pub overhead_pct: f64,
        /// Inference count — identical unarmed and armed (asserted).
        pub inferences: usize,
        /// Cancellation polls the armed run performed — proves the guardrails
        /// were live, not compiled away (asserted non-zero).
        pub cancel_checks: u64,
    }

    fn measure_guardrail_pair(
        name: &'static str,
        source: &str,
        edb: &Database,
        samples: usize,
    ) -> GuardrailMeasurement {
        let program = parse_program(source).expect("suite program parses").program;
        // Every guardrail armed, none remotely close to tripping: the
        // measurement isolates the polling cost, not an abort.
        let armed_options = EvalOptions {
            deadline: Some(std::time::Duration::from_secs(3600)),
            max_derived_facts: Some(usize::MAX),
            memory_budget_bytes: Some(usize::MAX),
            cancel: Some(CancelToken::new()),
            ..EvalOptions::default()
        };
        let mut timings_unarmed = Vec::with_capacity(samples);
        let mut timings_armed = Vec::with_capacity(samples);
        let mut unarmed: Option<(usize, u64)> = None;
        let mut armed: Option<(usize, u64, u64)> = None;
        seminaive_evaluate(&program, edb, &EvalOptions::default()).expect("warmup succeeds");
        seminaive_evaluate(&program, edb, &armed_options).expect("warmup succeeds");
        // Same interleaving discipline as the tracing pair: alternate sides and
        // alternate which goes first, so drift and cache warmth hit both evenly.
        for s in 0..samples {
            for on in [s % 2 == 0, s % 2 != 0] {
                if on {
                    let start = Instant::now();
                    let result = seminaive_evaluate(&program, edb, &armed_options)
                        .expect("armed evaluation succeeds");
                    timings_armed.push(start.elapsed().as_secs_f64() * 1e3);
                    armed = Some((
                        result.stats.inferences,
                        database_checksum(&result.database),
                        result.stats.cancel_checks as u64,
                    ));
                } else {
                    let start = Instant::now();
                    let result = seminaive_evaluate(&program, edb, &EvalOptions::default())
                        .expect("unarmed evaluation succeeds");
                    timings_unarmed.push(start.elapsed().as_secs_f64() * 1e3);
                    unarmed = Some((result.stats.inferences, database_checksum(&result.database)));
                }
            }
        }
        let (inferences, checksum_unarmed) = unarmed.expect("at least one sample");
        let (inferences_armed, checksum_armed, cancel_checks) = armed.expect("at least one sample");
        assert_eq!(
            inferences, inferences_armed,
            "{name}: armed guardrails changed the inference count"
        );
        assert_eq!(
            checksum_unarmed, checksum_armed,
            "{name}: armed guardrails changed the derived database"
        );
        assert!(
            cancel_checks > 0,
            "{name}: the armed run never polled its guardrails"
        );
        let millis_unarmed = min_millis(&timings_unarmed);
        let millis_armed = min_millis(&timings_armed);
        GuardrailMeasurement {
            name,
            millis_unarmed,
            millis_armed,
            overhead_pct: (millis_armed - millis_unarmed) / millis_unarmed * 100.0,
            inferences,
            cancel_checks,
        }
    }

    /// Measure a workload's armed-guardrail overhead and assert the budget,
    /// with the same noise-tolerant retry discipline as
    /// [`measure_with_budget`]: a real regression exceeds the budget on every
    /// attempt, a scheduler burst does not survive three. Quick smoke runs
    /// skip the assertion (microsecond workloads make the ratio pure noise).
    fn measure_guardrails(
        name: &'static str,
        source: &str,
        edb: &Database,
        samples: usize,
        quick: bool,
    ) -> GuardrailMeasurement {
        const BUDGET_ATTEMPTS: usize = 3;
        let mut best: Option<GuardrailMeasurement> = None;
        for _ in 0..BUDGET_ATTEMPTS {
            let m = measure_guardrail_pair(name, source, edb, samples);
            let better = best
                .as_ref()
                .is_none_or(|b| m.overhead_pct < b.overhead_pct);
            if better {
                best = Some(m);
            }
            let current = best.as_ref().expect("just set");
            if quick || current.overhead_pct <= GUARDRAIL_BUDGET_PCT {
                break;
            }
        }
        let m = best.expect("at least one attempt");
        if !quick {
            assert!(
                m.overhead_pct <= GUARDRAIL_BUDGET_PCT,
                "{name}: armed guardrails cost {:.2}% (> {GUARDRAIL_BUDGET_PCT}% budget) across \
                 {BUDGET_ATTEMPTS} attempts; unarmed {:.3}ms, armed {:.3}ms",
                m.overhead_pct,
                m.millis_unarmed,
                m.millis_armed
            );
        }
        m
    }

    /// The whole observability suite: tracing-overhead measurements plus the
    /// armed-guardrail gate, serialized together into
    /// `BENCH_observability.json` by [`to_json`].
    #[derive(Clone, Debug)]
    pub struct SuiteResults {
        /// Tracing off-vs-on measurements (the PR-6 gate).
        pub tracing: Vec<ObservabilityMeasurement>,
        /// Guardrails unarmed-vs-armed measurements (this PR's gate).
        pub guardrails: Vec<GuardrailMeasurement>,
    }

    /// Run the whole suite. `quick` shrinks workloads and sample counts to a
    /// smoke test: the identical-results and profile-shape assertions still run,
    /// the overhead budgets (meaningless at microsecond scale) do not.
    pub fn run_suite(quick: bool) -> SuiteResults {
        let samples = if quick { 3 } else { 9 };
        let mut out = Vec::new();

        // Wide deltas: many instantiations per rule firing, so per-firing clock
        // reads amortize well — the common case.
        let (width, depth) = if quick { (4, 3) } else { (10, 4) };
        out.push(measure_with_budget(
            "tc_tree_10k_edges",
            programs::RIGHT_LINEAR_TC,
            &graphs::tree(width, depth),
            samples,
            quick,
        ));

        // A long chain: hundreds of near-empty rounds, the worst case for
        // per-round span overhead (two clock reads per round against almost no
        // join work).
        let n = if quick { 64 } else { 400 };
        out.push(measure_with_budget(
            "tc_chain_400",
            programs::RIGHT_LINEAR_TC,
            &graphs::chain(n),
            samples,
            quick,
        ));

        // The guardrail gate runs the same two workload shapes: the wide-delta
        // tree amortizes the per-row join poll, the long chain is the worst
        // case for the per-round limit checks.
        let guardrails = vec![
            measure_guardrails(
                "tc_tree_10k_edges",
                programs::RIGHT_LINEAR_TC,
                &graphs::tree(width, depth),
                samples,
                quick,
            ),
            measure_guardrails(
                "tc_chain_400",
                programs::RIGHT_LINEAR_TC,
                &graphs::chain(n),
                samples,
                quick,
            ),
        ];

        SuiteResults {
            tracing: out,
            guardrails,
        }
    }

    /// Render the suite results as a JSON object (manual formatting keeps the
    /// workspace dependency-free). `quick` marks smoke runs on shrunken
    /// workloads whose overhead numbers are noise.
    pub fn to_json(results: &SuiteResults, quick: bool) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n");
        out.push_str(&crate::host_json(EvalOptions::default().threads));
        let _ = writeln!(out, "  \"overhead_budget_pct\": {OVERHEAD_BUDGET_PCT},");
        let _ = writeln!(out, "  \"guardrail_budget_pct\": {GUARDRAIL_BUDGET_PCT},");
        if quick {
            out.push_str(
                "  \"quick\": true,\n  \"warning\": \"smoke run on shrunken workloads — not comparable to BENCH_observability.json\",\n",
            );
        }
        for m in &results.tracing {
            let _ = writeln!(
                out,
                "  \"{}\": {{\"millis_off\": {:.3}, \"millis_on\": {:.3}, \"overhead_pct\": {:.2}, \"inferences\": {}, \"phases_recorded\": {}, \"rule_firings\": {}}},",
                m.name,
                m.millis_off,
                m.millis_on,
                m.overhead_pct,
                m.inferences,
                m.phases_recorded,
                m.rule_firings
            );
        }
        for (i, m) in results.guardrails.iter().enumerate() {
            let _ = write!(
                out,
                "  \"guardrails_{}\": {{\"millis_unarmed\": {:.3}, \"millis_armed\": {:.3}, \"overhead_pct\": {:.2}, \"inferences\": {}, \"cancel_checks\": {}}}",
                m.name,
                m.millis_unarmed,
                m.millis_armed,
                m.overhead_pct,
                m.inferences,
                m.cancel_checks
            );
            out.push_str(if i + 1 == results.guardrails.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push('}');
        out
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn quick_suite_traces_without_changing_results() {
            // measure_pair / measure_guardrail_pair assert identical
            // inferences/checksums (and a populated profile, and live guardrail
            // polls) internally; surviving the call IS the test.
            let results = super::run_suite(true);
            assert_eq!(results.tracing.len(), 2);
            for m in &results.tracing {
                assert!(m.phases_recorded > 0, "{m:?}");
                assert!(m.rule_firings > 0, "{m:?}");
            }
            assert_eq!(results.guardrails.len(), 2);
            for m in &results.guardrails {
                assert!(m.cancel_checks > 0, "{m:?}");
            }
            let json = super::to_json(&results, true);
            assert!(json.contains("\"overhead_budget_pct\": 3"));
            assert!(json.contains("\"guardrail_budget_pct\": 2"));
            assert!(json.contains("\"tc_tree_10k_edges\""));
            assert!(json.contains("\"guardrails_tc_chain_400\""));
            assert!(json.contains("\"host\""));
            assert!(json.contains("\"quick\": true"));
        }
    }
}

/// The `concurrent` measurement suite: the workload behind the checked-in
/// `BENCH_concurrent.json` baseline and the `report --json concurrent` mode. A served
/// engine ([`factorlog_engine::serve`]) answers point queries from 1/4/16/64 reader
/// connections while [`concurrent::WRITERS`] writer connections sustain a mutation
/// stream of single-edge transactions; the suite itself asserts the acceptance
/// invariants — every reader observes the same full answer set on every query
/// (snapshot isolation under concurrent writes), every acknowledged transaction is
/// durable across a restart, and the group-commit pipeline shares each fsync across
/// at least two transactions under the concurrent stream.
pub mod concurrent {
    use std::net::SocketAddr;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use factorlog_datalog::fx::fx_hash_one;
    use factorlog_engine::{serve, Client, DurabilityOptions, Engine, ServerOptions};
    use factorlog_workloads::programs;

    use crate::parallel::database_checksum;

    /// Reader connection counts measured by the suite. The 64-connection point
    /// exists to exercise the reactor well past thread-per-connection scale.
    pub const CONNECTIONS: [usize; 4] = [1, 4, 16, 64];
    /// Writer connections sustaining the mutation stream during every run.
    pub const WRITERS: usize = 4;
    /// Acceptance floor: transactions per WAL fsync under the concurrent stream.
    pub const BATCHING_FLOOR: f64 = 2.0;

    /// One measured scenario (one reader connection count, writers held constant).
    #[derive(Clone, Debug)]
    pub struct ConcurrentMeasurement {
        /// Scenario id (stable across runs; keys of `BENCH_concurrent.json`).
        pub name: String,
        /// Reader connections issuing point queries.
        pub connections: usize,
        /// Point queries answered across all readers.
        pub queries: usize,
        /// Point queries answered per second of reader wall-clock.
        pub qps: f64,
        /// Rows every reply carried — the full `t(0, Y)` answer set.
        pub rows_per_query: usize,
        /// Order-sensitive checksum of the reply rows — identical for every query
        /// of every run (the mutation stream touches a disjoint id range).
        pub row_checksum: u64,
        /// Transactions the writers streamed and the server acknowledged.
        pub txns_committed: usize,
        /// Group commits (one WAL fsync each) those transactions rode through.
        pub group_commits: u64,
        /// Transactions covered by those group commits.
        pub group_txns: u64,
        /// Batching factor `group_txns / group_commits` — asserted ≥ 2.
        pub txns_per_fsync: f64,
        /// Checksum of the engine's facts after shutdown — asserted equal to a
        /// fresh recovery of the data directory (every ack was durable).
        pub facts_checksum: u64,
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "factorlog_bench_concurrent_{tag}_{}_{n}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Order-sensitive digest of a reply's rendered rows.
    fn rows_checksum(rows: &[String]) -> u64 {
        let mut checksum = 0u64;
        for row in rows {
            checksum = checksum
                .wrapping_mul(1_000_003)
                .wrapping_add(fx_hash_one(&row.as_str()));
        }
        checksum
    }

    /// Serve a durable TC session over an `n`-edge chain and hammer it: `conns`
    /// readers issue `queries_per_reader` point queries each while [`WRITERS`]
    /// writer connections stream disjoint-range edge transactions (at least
    /// `min_txns` each, then until the readers finish).
    fn measure_run(
        conns: usize,
        n: i64,
        queries_per_reader: usize,
        min_txns: usize,
    ) -> ConcurrentMeasurement {
        let dir = scratch_dir(&format!("{conns}conn"));
        let options = DurabilityOptions {
            fsync: true,
            compact_threshold: u64::MAX,
        };
        let mut engine = Engine::open_durable_with(&dir, options).expect("durable open");
        let mut source = String::from(programs::RIGHT_LINEAR_TC);
        source.push('\n');
        for i in 0..n {
            use std::fmt::Write as _;
            let _ = writeln!(source, "e({i}, {}).", i + 1);
        }
        engine.load_source(&source).expect("bulk load");
        let handle = serve(
            engine,
            "127.0.0.1:0",
            ServerOptions {
                group_window: Duration::from_millis(2),
                ..ServerOptions::default()
            },
        )
        .expect("serve");
        let addr: SocketAddr = handle.addr();

        let mut control = Client::connect(addr).expect("control connect");
        let before = control.stats().expect("baseline stats");

        // The mutation stream: edges in an id range disjoint from (and unreachable
        // by) the chain, so reader answers stay byte-identical throughout.
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("writer connect");
                    let mut committed = 0usize;
                    while committed < min_txns || !stop.load(Ordering::Relaxed) {
                        let a = 1_000_000 + (w as i64) * 100_000 + committed as i64;
                        let b = a + 10_000_000;
                        client
                            .txn_with_retry(&format!("+e({a}, {b})"), 8)
                            .expect("writer txn acknowledged");
                        committed += 1;
                    }
                    client.quit();
                    committed
                })
            })
            .collect();

        let start = Instant::now();
        let readers: Vec<_> = (0..conns)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("reader connect");
                    let mut shape: Option<(usize, u64)> = None;
                    for _ in 0..queries_per_reader {
                        let reply = client.query_with_retry("t(0, Y)", 8).expect("point query");
                        let got = (reply.rows.len(), rows_checksum(&reply.rows));
                        match shape {
                            Some(first) => assert_eq!(
                                first, got,
                                "reader answers must not vary under the mutation stream"
                            ),
                            None => shape = Some(got),
                        }
                    }
                    client.quit();
                    shape.expect("at least one query")
                })
            })
            .collect();
        let shapes: Vec<(usize, u64)> = readers
            .into_iter()
            .map(|r| r.join().expect("reader thread"))
            .collect();
        let elapsed = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        let txns_committed: usize = writers
            .into_iter()
            .map(|w| w.join().expect("writer thread"))
            .sum();

        let (rows_per_query, row_checksum) = shapes[0];
        for &shape in &shapes {
            assert_eq!(shape, shapes[0], "all readers must agree on the answer set");
        }
        assert_eq!(
            rows_per_query, n as usize,
            "the full t(0, Y) answer set is served on every query"
        );

        let after = control.stats().expect("final stats");
        control.quit();
        let group_commits = after.group_commits - before.group_commits;
        let group_txns = after.group_txns - before.group_txns;
        assert_eq!(
            group_txns as usize, txns_committed,
            "every acknowledged transaction rode a group commit"
        );
        assert_eq!(
            after.epoch,
            before.epoch + txns_committed as u64,
            "each committed transaction advances the epoch exactly once"
        );
        let txns_per_fsync = group_txns as f64 / group_commits.max(1) as f64;
        assert!(
            txns_per_fsync >= BATCHING_FLOOR,
            "group commit must share fsyncs under a concurrent stream \
             ({group_txns} txns over {group_commits} fsyncs)"
        );

        let report = handle.shutdown();
        assert!(report.drained_cleanly, "all clients had already quit");
        let facts_checksum = database_checksum(report.engine.facts());
        drop(report); // releases the data-directory lock
        let recovered = Engine::open_durable(&dir).expect("recovery");
        assert_eq!(
            database_checksum(recovered.facts()),
            facts_checksum,
            "recovery must reproduce every acknowledged transaction"
        );
        drop(recovered);
        std::fs::remove_dir_all(&dir).ok();

        let queries = conns * queries_per_reader;
        ConcurrentMeasurement {
            name: format!("point_query_{conns}_conn"),
            connections: conns,
            queries,
            qps: queries as f64 / elapsed,
            rows_per_query,
            row_checksum,
            txns_committed,
            group_commits,
            group_txns,
            txns_per_fsync,
            facts_checksum,
        }
    }

    /// Run the whole suite. `quick` shrinks the chain and per-reader query counts
    /// to a smoke test; every isolation/durability/batching assertion runs either
    /// way.
    pub fn run_suite(quick: bool) -> Vec<ConcurrentMeasurement> {
        let (n, queries_per_reader, min_txns) = if quick {
            (30i64, 25usize, 5usize)
        } else {
            (200, 200, 25)
        };
        let mut out = Vec::new();
        for &conns in &CONNECTIONS {
            let m = measure_run(conns, n, queries_per_reader, min_txns);
            if let Some(first) = out.first() {
                let first: &ConcurrentMeasurement = first;
                assert_eq!(
                    m.row_checksum, first.row_checksum,
                    "the served answer set is independent of the connection count"
                );
            }
            out.push(m);
        }
        out
    }

    /// Render the suite results as a JSON object (manual formatting keeps the
    /// workspace dependency-free). `quick` marks smoke runs on shrunken workloads.
    pub fn to_json(results: &[ConcurrentMeasurement], quick: bool) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n");
        out.push_str(&crate::host_json(
            factorlog_engine::EvalOptions::default().threads,
        ));
        let _ = writeln!(
            out,
            "  \"writers\": {WRITERS},\n  \"batching_floor_txns_per_fsync\": {BATCHING_FLOOR},"
        );
        if quick {
            out.push_str(
                "  \"quick\": true,\n  \"warning\": \"smoke run on shrunken workloads — not comparable to BENCH_concurrent.json\",\n",
            );
        }
        for (i, m) in results.iter().enumerate() {
            let _ = write!(
                out,
                "  \"{}\": {{\"connections\": {}, \"qps\": {:.1}, \"queries\": {}, \"rows_per_query\": {}, \"row_checksum\": {}, \"txns_committed\": {}, \"group_commits\": {}, \"group_txns\": {}, \"txns_per_fsync\": {:.2}, \"facts_checksum\": {}}}",
                m.name,
                m.connections,
                m.qps,
                m.queries,
                m.rows_per_query,
                m.row_checksum,
                m.txns_committed,
                m.group_commits,
                m.group_txns,
                m.txns_per_fsync,
                m.facts_checksum
            );
            out.push_str(if i + 1 == results.len() { "\n" } else { ",\n" });
        }
        out.push('}');
        out
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn quick_suite_batches_fsyncs_and_agrees_on_answers() {
            // measure_run asserts snapshot isolation, epoch accounting, durability
            // and the batching floor internally; surviving the call IS the test.
            let results = super::run_suite(true);
            assert_eq!(results.len(), 4);
            for m in &results {
                assert!(m.txns_per_fsync >= super::BATCHING_FLOOR, "{m:?}");
                assert!(m.qps > 0.0, "{m:?}");
                assert_eq!(m.row_checksum, results[0].row_checksum);
            }
            let json = super::to_json(&results, true);
            assert!(json.contains("point_query_16_conn"));
            assert!(json.contains("\"writers\": 4"));
            assert!(json.contains("\"quick\": true"));
        }
    }
}

/// The `replication` measurement suite: the workload behind the checked-in
/// `BENCH_replication.json` baseline and the `report --json replication` mode. A
/// durable leader with a pre-built WAL backlog is served over TCP; a follower
/// replica subscribes, and the suite measures (a) catch-up throughput — committed
/// WAL frames applied per second until the follower's lag reaches zero — and (b)
/// steady-state lag — the follower's frame lag sampled after every poll while
/// writer connections sustain a live transaction stream. The suite itself asserts
/// the acceptance invariant: after the final catch-up the follower's fact store is
/// checksum-identical to the leader's.
pub mod replication {
    use std::path::PathBuf;
    use std::time::{Duration, Instant};

    use factorlog_datalog::ast::Const;
    use factorlog_engine::{
        serve, Client, DurabilityOptions, Engine, Replica, ReplicationOptions, ServerOptions,
    };
    use factorlog_workloads::programs;

    use crate::parallel::database_checksum;

    /// Writer connections sustaining the live stream during the steady phase.
    pub const WRITERS: usize = 2;

    /// One measured scenario (one backlog size).
    #[derive(Clone, Debug)]
    pub struct ReplicationMeasurement {
        /// Scenario id (stable across runs; keys of `BENCH_replication.json`).
        pub name: String,
        /// Committed WAL frames in the leader's log before the follower starts.
        pub backlog_frames: u64,
        /// Wall-clock seconds the follower took to drain the backlog.
        pub catchup_secs: f64,
        /// Catch-up throughput: backlog frames applied per second.
        pub catchup_frames_per_sec: f64,
        /// Snapshot bootstraps during catch-up (0 when the log was intact).
        pub bootstraps: u64,
        /// Transactions the writers committed during the steady phase.
        pub steady_txns: usize,
        /// Follower lag samples taken during the steady phase (one per poll).
        pub lag_samples: usize,
        /// Maximum sampled lag, in frames.
        pub steady_lag_max: u64,
        /// Mean sampled lag, in frames.
        pub steady_lag_mean: f64,
        /// Checksum of the leader's fact store after shutdown — asserted equal
        /// to the follower's (the replica converged to an identical copy).
        pub facts_checksum: u64,
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "factorlog_bench_replication_{tag}_{}_{n}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Build a leader with `backlog` single-fact commits in its log, serve it,
    /// catch a fresh follower up, then sustain a live stream of `steady_txns`
    /// transactions per writer while the follower polls and its lag is sampled.
    fn measure_run(backlog: u64, steady_txns: usize) -> ReplicationMeasurement {
        let leader_dir = scratch_dir("leader");
        let follower_dir = scratch_dir("follower");
        let options = DurabilityOptions {
            fsync: false,
            compact_threshold: u64::MAX,
        };
        let mut engine = Engine::open_durable_with(&leader_dir, options).expect("durable open");
        engine
            .load_source(programs::RIGHT_LINEAR_TC)
            .expect("program loads");
        // Disjoint (non-chaining) edges: one WAL frame each, and the TC rules
        // derive only linearly many facts, so the log — not evaluation — is
        // what the catch-up phase measures.
        for i in 0..backlog as i64 {
            engine
                .insert("e", &[Const::Int(i), Const::Int(i + 100_000_000)])
                .expect("backlog insert");
        }
        let backlog_frames = engine.wal_last_seq().expect("leader is durable");
        let handle = serve(
            engine,
            "127.0.0.1:0",
            ServerOptions {
                group_window: Duration::from_millis(2),
                ..ServerOptions::default()
            },
        )
        .expect("serve");
        let addr = handle.addr();

        // Catch-up phase: a fresh follower drains the whole backlog.
        let follower_engine =
            Engine::open_durable_with(&follower_dir, options).expect("follower open");
        let mut follower = Replica::from_engine(
            follower_engine,
            addr.to_string(),
            ReplicationOptions {
                poll_interval: Duration::from_millis(1),
                ..ReplicationOptions::default()
            },
        )
        .expect("replica wraps");
        let start = Instant::now();
        while follower.applied_seq() < backlog_frames {
            let report = follower.sync_once().expect("sync");
            assert!(report.contacted, "the served leader must be reachable");
        }
        let catchup_secs = start.elapsed().as_secs_f64();
        let bootstraps = follower.status().bootstraps;

        // Steady phase: writers stream live transactions; the follower polls
        // continuously and its frame lag is sampled after every poll.
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("writer connect");
                    for k in 0..steady_txns {
                        let a = 10_000_000 + (w as i64) * 1_000_000 + k as i64;
                        client
                            .txn_with_retry(&format!("+e({a}, {})", a + 1), 8)
                            .expect("writer txn acknowledged");
                    }
                    client.quit();
                })
            })
            .collect();
        let mut lag_samples = Vec::new();
        let mut writers_done = false;
        loop {
            follower.sync_once().expect("steady sync");
            lag_samples.push(follower.lag_frames());
            if writers_done && follower.lag_frames() == 0 {
                break;
            }
            if !writers_done && writers.iter().all(|w| w.is_finished()) {
                writers_done = true;
            }
        }
        for w in writers {
            w.join().expect("writer thread");
        }
        assert!(follower.catch_up(200).expect("final catch-up"));
        let steady_lag_max = lag_samples.iter().copied().max().unwrap_or(0);
        let steady_lag_mean =
            lag_samples.iter().sum::<u64>() as f64 / lag_samples.len().max(1) as f64;

        // Acceptance invariant: the follower converged to a checksum-identical
        // copy of the leader's committed fact store.
        let leader_engine = handle.shutdown().engine;
        let facts_checksum = database_checksum(leader_engine.facts());
        assert_eq!(
            database_checksum(follower.engine().facts()),
            facts_checksum,
            "follower and leader must be checksum-identical after catch-up"
        );
        drop((leader_engine, follower));
        std::fs::remove_dir_all(&leader_dir).ok();
        std::fs::remove_dir_all(&follower_dir).ok();

        ReplicationMeasurement {
            name: format!("backlog_{backlog}"),
            backlog_frames,
            catchup_secs,
            catchup_frames_per_sec: backlog_frames as f64 / catchup_secs.max(1e-9),
            bootstraps,
            steady_txns: steady_txns * WRITERS,
            lag_samples: lag_samples.len(),
            steady_lag_max,
            steady_lag_mean,
            facts_checksum,
        }
    }

    /// Run the whole suite. `quick` shrinks the backlog and the live stream to
    /// a smoke test; the checksum-equality assertion runs either way.
    pub fn run_suite(quick: bool) -> Vec<ReplicationMeasurement> {
        let scenarios: &[(u64, usize)] = if quick {
            &[(100, 10), (300, 20)]
        } else {
            &[(1_000, 100), (5_000, 200)]
        };
        scenarios
            .iter()
            .map(|&(backlog, steady)| measure_run(backlog, steady))
            .collect()
    }

    /// Render the suite results as a JSON object (manual formatting keeps the
    /// workspace dependency-free). `quick` marks smoke runs on shrunken workloads.
    pub fn to_json(results: &[ReplicationMeasurement], quick: bool) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n");
        out.push_str(&crate::host_json(
            factorlog_engine::EvalOptions::default().threads,
        ));
        let _ = writeln!(out, "  \"writers\": {WRITERS},");
        if quick {
            out.push_str(
                "  \"quick\": true,\n  \"warning\": \"smoke run on shrunken workloads — not comparable to BENCH_replication.json\",\n",
            );
        }
        for (i, m) in results.iter().enumerate() {
            let _ = write!(
                out,
                "  \"{}\": {{\"backlog_frames\": {}, \"catchup_secs\": {:.4}, \"catchup_frames_per_sec\": {:.1}, \"bootstraps\": {}, \"steady_txns\": {}, \"lag_samples\": {}, \"steady_lag_max\": {}, \"steady_lag_mean\": {:.2}, \"facts_checksum\": {}}}",
                m.name,
                m.backlog_frames,
                m.catchup_secs,
                m.catchup_frames_per_sec,
                m.bootstraps,
                m.steady_txns,
                m.lag_samples,
                m.steady_lag_max,
                m.steady_lag_mean,
                m.facts_checksum
            );
            out.push_str(if i + 1 == results.len() { "\n" } else { ",\n" });
        }
        out.push('}');
        out
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn quick_suite_catches_up_and_checksums_match() {
            // measure_run asserts leader/follower checksum equality internally;
            // surviving the call IS the test.
            let results = super::run_suite(true);
            assert_eq!(results.len(), 2);
            for m in &results {
                assert!(m.catchup_frames_per_sec > 0.0, "{m:?}");
                assert!(m.backlog_frames > 0, "{m:?}");
                assert!(m.lag_samples > 0, "{m:?}");
            }
            let json = super::to_json(&results, true);
            assert!(json.contains("\"backlog_100\""));
            assert!(json.contains("\"catchup_frames_per_sec\""));
            assert!(json.contains("\"quick\": true"));
        }
    }
}
