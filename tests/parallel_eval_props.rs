//! Property tests for the parallel evaluator, where each worker fires one
//! contiguous chunk of every firing's depth-0 enumeration and the chunks are
//! staged back in worker order: for random programs and databases, evaluation at
//! 2/4/8 worker threads must be *bit-identical* to the single-thread evaluation —
//! the same fact set, the same relation insertion order (chunks concatenated in
//! order replay the sequential emission order), and the same machine-independent
//! counters — for both batch evaluation and `seminaive_resume`. A companion property pins the
//! ordering-invariance contract of the join-ordering heuristic: permuting rule bodies
//! never changes the computed model.

use factorlog::datalog::ast::Const;
use factorlog::datalog::eval::{
    seminaive_evaluate, seminaive_resume, CompiledProgram, EvalOptions,
};
use factorlog::datalog::fx::FxHashMap;
use factorlog::datalog::parser::parse_program;
use factorlog::datalog::storage::{Database, Relation};
use factorlog::datalog::symbol::Symbol;
use proptest::prelude::*;

fn c(i: i64) -> Const {
    Const::Int(i)
}

/// The program pool random cases draw from: linear, nonlinear, and multi-rule
/// recursion plus a two-relation join — the body shapes that stress delta
/// substitution at every literal position.
const PROGRAMS: &[&str] = &[
    "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).",
    "t(X, Y) :- e(X, Y).\nt(X, Y) :- t(X, W), t(W, Y).",
    "t(X, Y) :- t(X, W), t(W, Y).\nt(X, Y) :- e(X, W), t(W, Y).\n\
     t(X, Y) :- t(X, W), e(W, Y).\nt(X, Y) :- e(X, Y).",
    "p(X, Y) :- e(X, W), f(W, Y).\np(X, Y) :- e(X, W), p(W, Y).",
];

/// Evaluation options forcing the chunked parallel path at any size.
fn options(threads: usize) -> EvalOptions {
    EvalOptions {
        threads,
        parallel_threshold: 0,
        ..EvalOptions::default()
    }
}

fn build_db(edges: &[(i64, i64)], extra_pred: Option<&str>) -> Database {
    let mut db = Database::new();
    for &(a, b) in edges {
        db.add_fact("e", &[c(a), c(b)]);
        if let Some(pred) = extra_pred {
            // A second relation derived from the same pairs (shifted) so two-relation
            // joins have matches.
            db.add_fact(pred, &[c(b), c(a + 1)]);
        }
    }
    db
}

/// Snapshot of a database: per-predicate tuple lists in insertion order, predicates
/// sorted by name — equality means identical content AND identical insertion order.
fn snapshot(db: &Database) -> Vec<(String, Vec<Vec<Const>>)> {
    let mut out: Vec<(String, Vec<Vec<Const>>)> = db
        .iter()
        .map(|(p, rel)| (p.as_str().to_string(), rel.to_vec()))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batch evaluation at 2/4/8 threads reproduces the single-thread run exactly.
    #[test]
    fn parallel_batch_is_bit_identical(
        raw_edges in prop::collection::vec((0i64..12, 0i64..12), 1..50),
        prog_idx in 0usize..4,
    ) {
        let program = parse_program(PROGRAMS[prog_idx]).unwrap().program;
        let needs_f = prog_idx == 3;
        let db = build_db(&raw_edges, needs_f.then_some("f"));
        let baseline = seminaive_evaluate(&program, &db, &options(1)).unwrap();
        let reference = snapshot(&baseline.database);
        for threads in [2usize, 4, 8] {
            let parallel = seminaive_evaluate(&program, &db, &options(threads)).unwrap();
            prop_assert_eq!(&snapshot(&parallel.database), &reference,
                "model must be bit-identical at {} threads", threads);
            prop_assert_eq!(parallel.stats.inferences, baseline.stats.inferences);
            prop_assert_eq!(parallel.stats.duplicates, baseline.stats.duplicates);
            prop_assert_eq!(parallel.stats.facts_derived, baseline.stats.facts_derived);
            prop_assert_eq!(parallel.stats.index_probes, baseline.stats.index_probes);
            prop_assert_eq!(parallel.stats.full_scans, baseline.stats.full_scans);
        }
    }

    /// Incremental resume at 2/4/8 threads reproduces the single-thread resume
    /// exactly: same final model (order included), same counters.
    #[test]
    fn parallel_resume_is_bit_identical(
        base_edges in prop::collection::vec((0i64..10, 0i64..10), 1..30),
        extra_edges in prop::collection::vec((0i64..10, 0i64..10), 1..10),
        prog_idx in 0usize..3,
    ) {
        let program = parse_program(PROGRAMS[prog_idx]).unwrap().program;
        let run = |threads: usize| {
            let opts = options(threads);
            let compiled = CompiledProgram::compile(&program, &opts).unwrap();
            let base_db = build_db(&base_edges, None);
            let mut model = seminaive_evaluate(&program, &base_db, &opts).unwrap().database;
            let mut seed_rel = Relation::new(2);
            for &(a, b) in &extra_edges {
                if model.add_fact("e", &[c(a), c(b)]) {
                    seed_rel.insert(&[c(a), c(b)]);
                }
            }
            let mut seeds: FxHashMap<Symbol, Relation> = FxHashMap::default();
            seeds.insert(Symbol::intern("e"), seed_rel);
            let stats = seminaive_resume(&compiled, &mut model, &seeds, &opts).unwrap();
            (snapshot(&model), stats)
        };
        let (reference, base_stats) = run(1);
        for threads in [2usize, 4, 8] {
            let (model, stats) = run(threads);
            prop_assert_eq!(&model, &reference,
                "resumed model must be bit-identical at {} threads", threads);
            prop_assert_eq!(stats.inferences, base_stats.inferences);
            prop_assert_eq!(stats.facts_derived, base_stats.facts_derived);
        }
    }

    /// Ordering invariance: reversing every rule body changes neither the computed
    /// model (sorted comparison — execution order legitimately differs) nor the
    /// inference count, with the reorder heuristic on or off.
    #[test]
    fn body_order_never_changes_the_model(
        raw_edges in prop::collection::vec((0i64..10, 0i64..10), 1..40),
        prog_idx in 0usize..4,
    ) {
        let program = parse_program(PROGRAMS[prog_idx]).unwrap().program;
        let mut reversed = program.clone();
        for rule in &mut reversed.rules {
            rule.body.reverse();
        }
        let needs_f = prog_idx == 3;
        let db = build_db(&raw_edges, needs_f.then_some("f"));
        let sorted_model = |db: &Database| {
            let mut out: Vec<(String, Vec<Vec<Const>>)> = db
                .iter()
                .map(|(p, rel)| (p.as_str().to_string(), rel.to_sorted_vec()))
                .collect();
            out.sort_by(|a, b| a.0.cmp(&b.0));
            out
        };
        let mut results = Vec::new();
        for reorder in [true, false] {
            let opts = EvalOptions {
                threads: 1,
                reorder_literals: reorder,
                ..EvalOptions::default()
            };
            for p in [&program, &reversed] {
                let result = seminaive_evaluate(p, &db, &opts).unwrap();
                results.push(sorted_model(&result.database));
            }
        }
        for other in &results[1..] {
            prop_assert_eq!(other, &results[0], "all orders and both heuristic settings agree");
        }
    }
}

/// The observability contract, as a deterministic companion to the bit-identity
/// properties above: tracing the same program over the same data must yield an
/// identical profile *shape* — phase span counts (`parallel.*` phases excluded)
/// and per-rule firings / rows in / rows out — at 1, 2, and 4 worker threads.
/// Rows are counted at the shared staging sink and firings once per rule per
/// round, so partitioning changes only the wall-clock times, which the shape
/// deliberately drops.
#[test]
fn profile_shape_is_identical_across_thread_counts() {
    let program = parse_program(PROGRAMS[2]).unwrap().program;
    let edges: Vec<(i64, i64)> = (0..12i64)
        .flat_map(|a| [(a, (a + 1) % 12), (a, (a + 5) % 12)])
        .collect();
    let db = build_db(&edges, None);
    let traced = |threads: usize| {
        let opts = EvalOptions {
            trace: true,
            ..options(threads)
        };
        let result = seminaive_evaluate(&program, &db, &opts).unwrap();
        result
            .stats
            .profile
            .expect("tracing collects a profile")
            .shape()
    };
    let baseline = traced(1);
    assert!(!baseline.0.is_empty(), "phase counts recorded");
    assert!(
        baseline.1.iter().any(|&(firings, _, _)| firings > 0),
        "rule firings recorded"
    );
    assert!(
        baseline.1.iter().any(|&(_, _, rows_out)| rows_out > 0),
        "rows out recorded"
    );
    for threads in [2usize, 4] {
        assert_eq!(
            traced(threads),
            baseline,
            "profile shape differs at {threads} threads"
        );
    }
}
