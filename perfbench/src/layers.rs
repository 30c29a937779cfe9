//! Per-layer attribution shared by the workloads: the counters every
//! workload reads from `StateStats`, the set-up and tracing figures, and
//! the engine split from replayed assignments.

use crate::spans::{self, NameTotals};
use crate::stats::{median, ratio};
use crate::{Episode, Outcome, Runs};
use sparcle_core::{DynamicRankingAssigner, StateSnapshot, StateStats, SystemConfig};
use sparcle_model::{Application, CapacityMap, QoeClass};
use std::collections::BTreeMap;

/// The capacities a fresh assignment of `app` is ranked against: the
/// predicted BE share for Best-Effort, the raw GR residual otherwise.
pub fn replay_caps(snapshot: &StateSnapshot, app: &Application) -> CapacityMap {
    match app.qoe() {
        QoeClass::BestEffort { priority, .. } => snapshot.predicted_capacities(*priority),
        QoeClass::GuaranteedRate { .. } => snapshot.gr_residual().clone(),
    }
}

/// An assigner configured like the system's own, for engine replays.
pub fn replayer() -> DynamicRankingAssigner {
    let cfg = SystemConfig::default();
    DynamicRankingAssigner::with_threads(cfg.assigner_threads).with_repr(cfg.graph_repr)
}

/// Reports the layers every workload has — CSR build, generator time,
/// tracing overhead, and the state-core and solver counters (medians
/// over the traced episodes) — and returns the traced episodes' span
/// totals by name.
pub fn common<E: Episode>(out: &mut Outcome, runs: &Runs<E>) -> BTreeMap<&'static str, NameTotals> {
    let traced: Vec<&E> = runs.traced.iter().map(|(e, _)| e).collect();
    let n = traced.len();
    let med = |f: &dyn Fn(&E) -> f64| median(&traced.iter().map(|e| f(e)).collect::<Vec<_>>());

    let csr: Vec<f64> = runs.all().map(|e| e.csr_ms()).collect();
    out.metric("model.csr_build_ms", median(&csr), "ms", csr.len());
    out.metric("gen.source_ms", med(&|e| e.gen_ms()), "ms", n);
    let plain_wall = median(&runs.plain.iter().map(|e| e.wall_s()).collect::<Vec<_>>());
    let overhead = med(&|e| e.wall_s()) / plain_wall;
    out.metric("trace.overhead_ratio", overhead, "ratio", n);

    let stat = |f: fn(&StateStats) -> u64| med(&|e| f(e.stats()) as f64);
    let hits = stat(|s| s.gamma_cache_hits);
    let misses = stat(|s| s.gamma_cache_misses);
    out.metric("core.engine.rows_filled", misses, "count", n);
    let hit_ratio = ratio(hits, hits + misses);
    out.metric("core.engine.cache_hit_ratio", hit_ratio, "ratio", n);
    out.metric(
        "core.state.txn_commits",
        stat(|s| s.txn_commits),
        "count",
        n,
    );
    out.metric(
        "core.state.txn_rollbacks",
        stat(|s| s.txn_rollbacks),
        "count",
        n,
    );
    let updates = stat(|s| s.residual_element_updates);
    out.metric("core.state.residual_element_updates", updates, "count", n);
    let recomputes = stat(|s| s.residual_full_recomputes);
    out.metric(
        "core.state.residual_full_recomputes",
        recomputes,
        "count",
        n,
    );
    let solve_ms = |e: &E| e.stats().solve_nanos as f64 / 1e6;
    out.metric("alloc.solve_ms", med(&solve_ms), "ms", n);
    let share = med(&|e| ratio(solve_ms(e), e.wall_s() * 1e3));
    out.metric("alloc.solve_share", share, "ratio", n);
    let per_solve = med(&|e| ratio(solve_ms(e), e.stats().solves as f64));
    out.metric("alloc.ms_per_solve", per_solve, "ms", n);
    out.metric("alloc.solves", stat(|s| s.solves), "count", n);
    out.metric("alloc.cold_solves", stat(|s| s.cold_solves), "count", n);
    let warm = med(&|e| {
        ratio(
            e.stats().inner_iters_warm as f64,
            e.stats().warm_solves as f64,
        )
    });
    out.metric("alloc.newton_iters_per_warm_solve", warm, "count", n);
    let cold = med(&|e| {
        ratio(
            e.stats().inner_iters_cold as f64,
            e.stats().cold_solves as f64,
        )
    });
    out.metric("alloc.newton_iters_per_cold_solve", cold, "count", n);
    let live = med(&|e| e.be_apps_at_end() as f64);
    out.metric("alloc.be_apps_at_end", live, "count", n);

    let mut totals = BTreeMap::new();
    for (_, t) in &runs.traced {
        spans::merge_totals(&mut totals, &t.log.self_times());
    }
    totals
}

/// Splits `assign_ms` by the engine spans' self-time shares.
pub fn engine_split(
    out: &mut Outcome,
    totals: &BTreeMap<&'static str, NameTotals>,
    assign_ms: f64,
    samples: usize,
) {
    let shares = spans::engine_shares(totals);
    let names = [
        "core.engine.row_fill_self_ms",
        "core.engine.rank_merge_self_ms",
        "core.engine.commit_self_ms",
        "core.engine.route_self_ms",
    ];
    for (name, share) in names.into_iter().zip(shares) {
        out.metric(name, share * assign_ms, "ms", samples);
    }
}
