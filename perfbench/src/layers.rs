//! The traced run's layer probes: each times calls into one layer's public
//! functions on the workload's own seeded inputs, one span per call, and
//! checks what the calls return.

use factorlog_core::pipeline::{optimize_query, PipelineOptions, PreparedPlan, Strategy};
use factorlog_datalog::ast::{Const, Program};
use factorlog_datalog::eval::{evaluate, evaluate_default, EvalOptions, Strategy as Fixpoint};
use factorlog_datalog::parser::{parse_program, parse_query};
use factorlog_datalog::storage::Database;
use factorlog_engine::wal::WalWriter;
use factorlog_engine::Engine;
use factorlog_workloads::programs::{RIGHT_LINEAR_TC, THREE_RULE_TC};

use crate::inputs::{ints, tc_query, Forest, Graph, Rng, TxnStream};
use crate::trace::{median, Tracer, ROOT};
use crate::{Ctx, Outcome, Sizes};

fn program(source: &str) -> Result<Program, String> {
    Ok(parse_program(source).map_err(|e| e.to_string())?.program)
}

fn threads(n: usize) -> EvalOptions {
    EvalOptions {
        threads: n,
        ..EvalOptions::default()
    }
}

fn ratio_of_medians(tracer: &Tracer, over: &str, under: &str) -> f64 {
    let m = |name| {
        let d: Vec<f64> = tracer
            .durations(name)
            .iter()
            .map(|d| d.as_secs_f64())
            .collect();
        median(&d)
    };
    m(over) / m(under)
}

/// Materialize `edb` under `name` spans; returns the last model.
fn materialize(
    tracer: &mut Tracer,
    name: &'static str,
    parent: u32,
    runs: usize,
    program: &Program,
    edb: &Database,
    options: Option<&EvalOptions>,
) -> Result<Database, String> {
    let mut model = None;
    for n in 0..runs {
        let result = tracer.span(name, parent, n as u64, || match options {
            Some(options) => evaluate(program, edb, Fixpoint::SemiNaive, options),
            None => evaluate_default(program, edb),
        });
        model = Some(result.map_err(|e| format!("{name}: {e}"))?.database);
    }
    Ok(model.expect("at least one run"))
}

/// Probes for the served workloads: parser, storage, engine maintenance, WAL
/// and materialization, over the served forest and the workload's keys.
pub fn served(
    out: &mut Outcome,
    tracer: &mut Tracer,
    sizes: &Sizes,
    forest: &Forest,
    stream: &TxnStream,
    keys: &[i64],
    ctx: &Ctx,
) -> Result<(), String> {
    let program = program(RIGHT_LINEAR_TC)?;
    let mut rng = Rng::new(ctx.seed ^ 0x6C61_7965);
    let mut key = || keys[rng.below(keys.len())];

    // datalog::parser — what every QUERY request pays before the lookup.
    let probe = tracer.open("probe.parser", ROOT, 0);
    for n in 0..sizes.probe_calls {
        let text = format!("t({}, Y)", key());
        let parsed = tracer.span("parser.parse_query", probe, n as u64, || parse_query(&text));
        out.check(parsed.is_ok(), || format!("parse {text}"));
    }
    tracer.close(probe);
    out.metric_us(
        "parser.parse_query_us",
        &tracer.durations("parser.parse_query"),
    );

    // datalog::eval — materializing the served model, at the default thread
    // count and at 1 and 2 threads.
    let edb = forest.database();
    let probe = tracer.open("probe.materialize", ROOT, 0);
    let runs = sizes.materializations;
    let model = materialize(
        tracer,
        "eval.materialize",
        probe,
        runs,
        &program,
        &edb,
        None,
    )?;
    materialize(
        tracer,
        "eval.materialize_1t",
        probe,
        runs,
        &program,
        &edb,
        Some(&threads(1)),
    )?;
    materialize(
        tracer,
        "eval.materialize_2t",
        probe,
        runs,
        &program,
        &edb,
        Some(&threads(2)),
    )?;
    tracer.close(probe);
    let rows = model.total_facts();
    out.check(rows == forest.model_rows(), || {
        format!("model has {rows} rows, expected {}", forest.model_rows())
    });
    out.metric_ms("eval.materialize_ms", &tracer.durations("eval.materialize"));
    out.metric(
        "eval.materialize_speedup_2t",
        ratio_of_medians(tracer, "eval.materialize_1t", "eval.materialize_2t"),
        runs,
    );

    // datalog::storage — served lookups and the per-commit model clone, at 1x
    // and at 4x the model size (same chain length, four times the chains).
    let big = Forest::new(forest.chains * 4, forest.len, ctx.seed);
    let big_model = {
        let probe = tracer.open("probe.model_4x", ROOT, 0);
        let m = materialize(
            tracer,
            "eval.materialize_4x",
            probe,
            1,
            &program,
            &big.database(),
            None,
        );
        tracer.close(probe);
        m?
    };
    for (model, sized, answers, clone) in [
        (&model, forest, "storage.answers", "storage.model_clone"),
        (
            &big_model,
            &big,
            "storage.answers_4x",
            "storage.model_clone_4x",
        ),
    ] {
        let probe = tracer.open("probe.storage", ROOT, 0);
        for n in 0..sizes.probe_calls {
            // The same (chain, position) at either size, so both answer
            // equally many rows.
            let (chain, position) = forest.place(key());
            let c = sized.node(chain, position);
            let query = tc_query(c);
            let rows = tracer.span(answers, probe, n as u64, || model.answers(&query));
            out.check(ints(&rows) == sized.answer(c, false), || {
                format!("{answers} t({c}, Y) returned wrong rows")
            });
        }
        for n in 0..sizes.clones {
            tracer.span(clone, probe, n as u64, || {
                std::hint::black_box(model.clone())
            });
        }
        tracer.close(probe);
    }
    drop(big_model);
    out.metric_us("storage.answers_us", &tracer.durations("storage.answers"));
    out.metric(
        "storage.answers_growth_4x",
        ratio_of_medians(tracer, "storage.answers_4x", "storage.answers"),
        sizes.probe_calls,
    );
    out.metric_ms(
        "storage.model_clone_ms",
        &tracer.durations("storage.model_clone"),
    );
    out.metric(
        "storage.model_clone_growth_4x",
        ratio_of_medians(tracer, "storage.model_clone_4x", "storage.model_clone"),
        sizes.clones,
    );

    // engine::engine — the writer's maintenance, replayed on a non-durable
    // copy: commit (retractions propagate here), then the query that absorbs
    // the assertion.
    let mut engine = Engine::new();
    engine
        .load_source(&forest.source())
        .map_err(|e| e.to_string())?;
    engine
        .query(&tc_query(forest.head(0)))
        .map_err(|e| e.to_string())?;
    let (mut retractions, mut rederivations, mut inferences) = (0, 0, 0);
    let probe = tracer.open("probe.engine", ROOT, 0);
    for j in 0..sizes.probe_txns {
        let before = engine.stats().clone();
        let ops = stream.ops(j);
        let mut txn = engine.transaction();
        for op in &ops {
            let tuple = [
                Const::Int(forest.tail(op.chain)),
                Const::Int(forest.spare(op.chain)),
            ];
            if op.assert {
                txn.assert("e", &tuple);
            } else {
                txn.retract("e", &tuple);
            }
        }
        let span = tracer.open("probe.txn", probe, j as u64);
        let committed = tracer.span("engine.commit", span, j as u64, || txn.commit());
        let asserted = ops.last().expect("every txn asserts").chain;
        let c = forest.head(asserted);
        let query = tc_query(c);
        let rows = tracer.span("engine.refresh", span, j as u64, || engine.query(&query));
        tracer.close(span);
        let ok = committed.is_ok() && rows.is_ok_and(|r| ints(&r) == forest.answer(c, true));
        out.check(ok, || format!("engine replay of txn {j} went wrong"));
        let after = engine.stats();
        retractions += after.retractions - before.retractions;
        rederivations += after.rederivations - before.rederivations;
        inferences += after.inferences - before.inferences;
    }
    tracer.close(probe);
    drop(engine);
    let txns = sizes.probe_txns;
    out.metric_ms("engine.commit_ms", &tracer.durations("engine.commit"));
    out.metric_ms("engine.refresh_ms", &tracer.durations("engine.refresh"));
    out.metric(
        "engine.retractions_per_txn",
        retractions as f64 / txns as f64,
        txns,
    );
    out.metric(
        "engine.rederivations_per_txn",
        rederivations as f64 / txns as f64,
        txns,
    );
    out.metric(
        "engine.inferences_per_txn",
        inferences as f64 / txns as f64,
        txns,
    );

    // engine::wal — append and fsync of the same records on a scratch log.
    let path = ctx.data.join(format!("{}-probe.wal", ctx.workload));
    let mut wal = WalWriter::create(&path, false).map_err(|e| e.to_string())?;
    let probe = tracer.open("probe.wal", ROOT, 0);
    for j in 0..txns {
        let record = stream.wal_record(forest, j);
        let appended = tracer.span("wal.append", probe, j as u64, || wal.append(&record));
        let synced = tracer.span("wal.fsync", probe, j as u64, || wal.sync());
        out.check(appended.is_ok() && synced.is_ok(), || {
            format!("wal record {j}")
        });
    }
    tracer.close(probe);
    drop(wal);
    let _ = std::fs::remove_file(&path);
    out.metric_us("wal.append_us", &tracer.durations("wal.append"));
    out.metric_us("wal.fsync_us", &tracer.durations("wal.fsync"));
    Ok(())
}

/// Probes for `demand_eval`: the optimizer's plan, rebinding, and the
/// semi-naive evaluation of the prepared plan, over the workload's graph and
/// keys.
pub fn demand(
    out: &mut Outcome,
    tracer: &mut Tracer,
    sizes: &Sizes,
    graph: &Graph,
    keys: &[i64],
    ctx: &Ctx,
) -> Result<(), String> {
    let program = program(THREE_RULE_TC)?;
    let options = EvalOptions::default();
    let mut rng = Rng::new(ctx.seed ^ 0x6465_6D61);
    let mut key = || keys[rng.below(keys.len())];

    // core::pipeline — optimize_query plus Optimized::prepare.
    let probe = tracer.open("probe.optimize", ROOT, 0);
    let mut plan: Option<PreparedPlan> = None;
    for n in 0..sizes.optimizations {
        let query = tc_query(key());
        let span = tracer.open("core.optimize", probe, n as u64);
        let optimized = tracer.span("core.optimize_query", span, n as u64, || {
            optimize_query(&program, &query, &PipelineOptions::default())
        });
        let optimized = optimized.map_err(|e| e.to_string())?;
        let prepared = tracer.span("core.prepare", span, n as u64, || {
            optimized.prepare(&options)
        });
        tracer.close(span);
        out.check(optimized.strategy == Strategy::FactoredMagic, || {
            format!(
                "planned {} instead of magic + factoring",
                optimized.strategy
            )
        });
        plan = Some(prepared.map_err(|e| e.to_string())?);
    }
    tracer.close(probe);
    let plan = plan.expect("at least one optimization");
    out.metric_ms("core.optimize_ms", &tracer.durations("core.optimize"));

    // core::pipeline — rebinding the cached plan to a new constant.
    let probe = tracer.open("probe.rebind", ROOT, 0);
    for n in 0..sizes.probe_calls {
        let c = key();
        let rebound = tracer.span("core.rebind", probe, n as u64, || {
            plan.rebind(&[Const::Int(c)])
        });
        out.check(rebound.is_some(), || format!("rebind to {c} refused"));
    }
    tracer.close(probe);
    out.metric_us("core.rebind_us", &tracer.durations("core.rebind"));

    // datalog::eval — PreparedPlan::evaluate and EvalResult::answers, with
    // the evaluator's own counters, then the same plans at 1 and 2 threads.
    let (mut inferences, mut probes, mut scans) = (0, 0, 0);
    let probe = tracer.open("probe.demand_eval", ROOT, 0);
    for n in 0..sizes.probe_evals {
        let c = key();
        let Some(p) = plan.rebind(&[Const::Int(c)]) else {
            out.check(false, || format!("rebind to {c} refused"));
            continue;
        };
        let result = tracer.span("eval.plan_evaluate", probe, n as u64, || {
            p.evaluate(&graph.db, &options)
        });
        let result = result.map_err(|e| e.to_string())?;
        let rows = tracer.span("eval.answers", probe, n as u64, || {
            result.answers(p.query())
        });
        out.check(ints(&rows) == graph.reach(c as usize), || {
            format!("plan answers to t({c}, Y) differ from reachability")
        });
        inferences += result.stats.inferences;
        probes += result.stats.index_probes;
        scans += result.stats.full_scans;
        for (name, threads) in [("eval.plan_evaluate_1t", 1), ("eval.plan_evaluate_2t", 2)] {
            let opts = self::threads(threads);
            let again = tracer.span(name, probe, n as u64, || p.evaluate(&graph.db, &opts));
            out.check(again.is_ok_and(|r| r.answers(p.query()) == rows), || {
                format!("{threads}-thread evaluation of t({c}, Y) differs")
            });
        }
    }
    tracer.close(probe);
    let evals = sizes.probe_evals;
    out.metric_ms(
        "eval.plan_evaluate_ms",
        &tracer.durations("eval.plan_evaluate"),
    );
    out.metric_ms("eval.answers_ms", &tracer.durations("eval.answers"));
    out.metric(
        "eval.inferences_per_query",
        inferences as f64 / evals as f64,
        evals,
    );
    out.metric(
        "eval.index_probes_per_query",
        probes as f64 / evals as f64,
        evals,
    );
    out.metric(
        "eval.full_scans_per_query",
        scans as f64 / evals as f64,
        evals,
    );
    out.metric(
        "eval.demand_speedup_2t",
        ratio_of_medians(tracer, "eval.plan_evaluate_1t", "eval.plan_evaluate_2t"),
        evals,
    );
    Ok(())
}
