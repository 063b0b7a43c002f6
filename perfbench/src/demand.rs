//! `demand_eval`: bound queries `t(c, Y)` over the paper's three-rule TC,
//! answered in-process by `Engine::query_prepared` through the cached
//! magic + factoring plan, with no server and no durability.

use std::time::Instant;

use factorlog_core::pipeline::Strategy;
use factorlog_datalog::ast::Const;
use factorlog_engine::Engine;

use crate::inputs::{ints, tc_query, Graph, Rng};
use crate::layers;
use crate::trace::{ms, Tracer, Windows, ROOT, SUBWINDOWS};
use crate::{Ctx, Figures, Outcome, Sizes};

/// A session holding the graph, with the plan for `t(c, Y)` cached by a first
/// query: everything a user pays before the first real query.
fn set_up(source: &str, first: i64) -> Result<(Engine, Vec<Vec<Const>>), String> {
    let mut engine = Engine::new();
    engine
        .load_source(source)
        .map_err(|e| format!("load: {e}"))?;
    let rows = engine
        .query_prepared(&tc_query(first))
        .map_err(|e| format!("first query: {e}"))?;
    Ok((engine, rows))
}

pub fn run(sizes: &Sizes, ctx: &Ctx) -> Result<Outcome, String> {
    let graph = Graph::new(sizes.demand_nodes, sizes.demand_edges, ctx.seed);
    let source = graph.source();
    let mut rng = Rng::new(ctx.seed ^ 0x6B65_7973);
    // Keys are seeded nodes that reach at least half the graph, i.e. the
    // giant component: every query does comparable work, so a run's figures
    // do not hinge on how many trivial keys the seed happened to draw.
    let (mut keys, mut oracle) = (Vec::new(), Vec::new());
    while keys.len() < sizes.demand_keys {
        let c = rng.below(graph.nodes);
        let reach = graph.reach(c);
        if reach.len() * 2 >= graph.nodes {
            keys.push(c as i64);
            oracle.push(reach);
        }
    }
    let mut out = Outcome::default();

    // The measured session is the first set-up, so the peak memory read
    // after its window is that of one session.
    let begin = Instant::now();
    let (mut engine, first) = set_up(&source, keys[0])?;
    let mut setup_s = vec![begin.elapsed().as_secs_f64()];
    out.check(ints(&first) == oracle[0], || {
        format!("first t({}, Y) differs from reachability", keys[0])
    });
    let strategy = engine.prepared_strategy(&tc_query(keys[0]));
    out.check(strategy == Some(Strategy::FactoredMagic), || {
        format!("prepared strategy is {strategy:?}, not magic + factoring")
    });
    // Closed loop over seeded keys, one sub-window at a time; a batch of the
    // write probe follows each. Each probe transaction moves the edge out of
    // a fresh node to a new key, and is timed through the query that must
    // see it. The traced run spans its second half.
    let mut tracer = Tracer::new(ctx.origin);
    let mut latency = Windows::new();
    let mut txn_latency = Vec::new();
    let sub = ctx.seconds / SUBWINDOWS as u32;
    let (hits, misses) = (
        engine.stats().plan_cache_hits,
        engine.stats().plan_cache_misses,
    );
    let fresh = graph.nodes as i64;
    let mut previous: Option<i64> = None;
    let batch = sizes.write_probe.div_ceil(SUBWINDOWS);
    let mut n = 0u64;
    let mut cpu = 0.0;
    for s in 0..SUBWINDOWS {
        let until = Instant::now() + sub;
        let traced = ctx.trace && s >= SUBWINDOWS / 2;
        let cpu_before = crate::cpu_seconds();
        while Instant::now() < until {
            let i = rng.below(keys.len());
            let query = tc_query(keys[i]);
            let span = traced.then(|| tracer.open("engine.query_prepared", ROOT, n));
            let begin = Instant::now();
            let rows = engine.query_prepared(&query);
            latency.hists[s].record(begin.elapsed());
            if let Some(span) = span {
                tracer.close(span);
            }
            out.check(rows.is_ok_and(|r| ints(&r) == oracle[i]), || {
                format!("t({}, Y) differs from reachability", keys[i])
            });
            n += 1;
        }
        cpu += crate::cpu_seconds() - cpu_before;
        for _ in 0..batch.min(sizes.write_probe - txn_latency.len()) {
            let i = rng.below(keys.len());
            let query = tc_query(fresh);
            let mut txn = engine.transaction();
            if let Some(p) = previous {
                txn.retract("e", &[Const::Int(fresh), Const::Int(p)]);
            }
            txn.assert("e", &[Const::Int(fresh), Const::Int(keys[i])]);
            let begin = Instant::now();
            let rows = txn.commit().and_then(|_| engine.query_prepared(&query));
            txn_latency.push(ms(begin.elapsed()));
            let mut expected = oracle[i].clone();
            if let Err(at) = expected.binary_search(&keys[i]) {
                expected.insert(at, keys[i]);
            }
            out.check(rows.is_ok_and(|r| ints(&r) == expected), || {
                format!("after e({fresh}, {}) t({fresh}, Y) is wrong", keys[i])
            });
            previous = Some(keys[i]);
        }
    }
    let peak_rss_mb = crate::peak_rss_mb();
    let plan_hits = engine.stats().plan_cache_hits - hits;
    let plan_lookups = plan_hits + engine.stats().plan_cache_misses - misses;
    drop(engine);

    // The untraced run sets up again, so that setup_s is a median.
    let setups = if ctx.trace { 1 } else { sizes.setups };
    for _ in 1..setups {
        let begin = Instant::now();
        let session = set_up(&source, keys[0])?;
        setup_s.push(begin.elapsed().as_secs_f64());
        drop(session);
    }
    let figures = Figures {
        setup_s: &setup_s,
        peak_rss_mb,
        latency: &latency,
        sub,
        cpu,
        reads: n,
        txn_latency: &txn_latency,
    };
    if !ctx.trace {
        out.end_to_end(&figures);
        return Ok(out);
    }

    out.metric(
        "engine.plan_hit_ratio",
        plan_hits as f64 / plan_lookups.max(1) as f64,
        plan_lookups,
    );
    out.traced_window(&figures);
    layers::demand(&mut out, &mut tracer, sizes, &graph, &keys, ctx)?;
    ctx.write_trace(&tracer);
    Ok(out)
}
