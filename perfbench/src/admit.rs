//! `admit_scale`: a seeded stream of mixed BE/GR pipelines decided one
//! at a time on the 5,000-NCP hub-and-spoke topology.
//!
//! Each pipeline is decided by `begin → SystemTxn::submit → commit`;
//! FIFO `remove`s keep about [`LIVE`] applications placed. The live set
//! is small, so the BE solve is a small share of a decision and the
//! CSR widest-path search and γ-row fill carry the latency.

use crate::gen::{self, GenClock};
use crate::layers::{self, engine_split, replay_caps, replayer};
use crate::spans::{NameTotals, Tracing};
use crate::stats::{quantile, ratio, Fingerprint};
use crate::{check, close, drive, median_of_means, open, timed, Ctx, Outcome, Runs};
use sparcle_core::{Admission, AssignError, SparcleSystem, StateStats, SystemConfig, TraceHandle};
use sparcle_model::{AppId, Application};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// NCPs of the topology.
const NCPS: usize = 5_000;
/// Decisions per episode.
const DECISIONS: u64 = 300;
/// Independent application streams a run cycles through.
const VARIANTS: u64 = 2;
/// Live applications kept by FIFO removal.
const LIVE: usize = 16;
/// Capacity/placement checks per episode (plus one at the end).
const CHECKPOINTS: u64 = 8;

#[derive(Default)]
struct Episode {
    csr_ms: f64,
    gen_ms: f64,
    /// Wall of the operations the client blocked on (decisions and
    /// removals), seconds.
    wall_s: f64,
    decision_ms: Vec<f64>,
    /// Every decision and removal in order; sums to `wall_s`.
    op_ms: Vec<f64>,
    /// Per decision: submit wall minus the BE-solve wall inside it.
    assign_ms: Vec<f64>,
    attempted: u64,
    failures: BTreeMap<String, u64>,
    admitted: u64,
    utility_mean: f64,
    stats: StateStats,
    be_apps_at_end: usize,
    variant: u64,
    fingerprint: u64,
    violations: Vec<String>,
}

/// A failed operation's kind: the error variant, with the model error
/// variant underneath for `AssignError::Model`.
fn error_kind(e: &AssignError) -> String {
    fn variant(d: String) -> String {
        d.split(|c: char| !c.is_alphanumeric() && c != '_')
            .next()
            .unwrap_or_default()
            .to_owned()
    }
    match e {
        AssignError::Model(m) => format!("Model::{}", variant(format!("{m:?}"))),
        other => variant(format!("{other:?}")),
    }
}

/// Set-up: the network, its CSR arrays (timed on their own, ms) and
/// the system under the production default config.
fn setup() -> (SparcleSystem, f64) {
    let network = gen::hub_and_spoke(NCPS);
    let (_, csr_s) = timed(|| {
        network.csr();
    });
    (
        SparcleSystem::with_config(network, SystemConfig::default()),
        csr_s * 1e3,
    )
}

fn episode(seed: u64, variant: u64, tracing: Option<&Tracing>) -> Episode {
    let seed = gen::sub_seed(seed, 1000 + variant);
    let mut ep = Episode::default();
    let gen_clock = GenClock::default();

    let (mut sys, csr_ms) = setup();
    ep.csr_ms = csr_ms;
    let leaves = gen::leaves(NCPS);
    let replayer = replayer();

    let app_seed = gen::sub_seed(seed, 1);
    let mut live: VecDeque<AppId> = VecDeque::new();
    let mut fp = Fingerprint::default();
    let mut utility_sum = 0.0;
    let mut snapshot = tracing.map(|_| sys.snapshot());
    for i in 0..DECISIONS {
        let app: Arc<Application> =
            Arc::new(gen_clock.time(|| gen::pipeline_app(app_seed, i, &leaves)));
        if let (Some(t), Some(snap)) = (tracing, &snapshot) {
            // Engine split: the same assignment through the engine's
            // public traced entry point, against the current state.
            let caps = replay_caps(snap, &app);
            let trace = TraceHandle::with_spans(&t.log, &t.tracker);
            let _ = replayer.assign_traced_with_stats(&app, sys.network(), &caps, trace);
        }

        ep.attempted += 1;
        let solve_before = sys.state_stats().solve_nanos;
        let start = Instant::now();
        let mut txn = sys.begin();
        let span = open(tracing, "core.state.submit");
        let submit_start = Instant::now();
        let result = txn.submit(Arc::clone(&app));
        let submit_ns = submit_start.elapsed().as_nanos() as u64;
        close(span);
        if result.is_ok() {
            let span = open(tracing, "core.state.commit");
            txn.commit();
            close(span);
        } else {
            // Dropping the transaction rolls it back.
            drop(txn);
        }
        let decision = start.elapsed();
        let solve_ns = sys.state_stats().solve_nanos - solve_before;
        ep.decision_ms.push(decision.as_secs_f64() * 1e3);
        ep.op_ms.push(decision.as_secs_f64() * 1e3);
        ep.assign_ms
            .push(submit_ns.saturating_sub(solve_ns) as f64 / 1e6);
        ep.wall_s += decision.as_secs_f64();

        match result {
            Ok(Admission::Admitted(id)) => {
                ep.admitted += 1;
                fp.word(0);
                fp.word(id.index() as u64);
                fp.word(rate_of(&sys, id).to_bits());
                live.push_back(id);
            }
            Ok(Admission::Rejected(reason)) => {
                fp.word(1);
                fp.str(reason.cause_code());
            }
            Err(e) => {
                let kind = error_kind(&e);
                fp.word(2);
                fp.str(&kind);
                *ep.failures.entry(kind).or_default() += 1;
            }
        }
        if live.len() > LIVE {
            let id = live.pop_front().expect("live set is non-empty");
            ep.attempted += 1;
            let start = Instant::now();
            let span = open(tracing, "core.state.remove");
            let removed = sys.remove(id);
            close(span);
            let removal = start.elapsed().as_secs_f64();
            ep.wall_s += removal;
            ep.op_ms.push(removal * 1e3);
            if !removed {
                *ep.failures
                    .entry("remove_unknown_id".to_owned())
                    .or_default() += 1;
            }
        }
        if tracing.is_some() {
            let span = open(tracing, "core.snapshot.capture");
            snapshot = Some(sys.snapshot());
            close(span);
        }
        utility_sum += sys.be_utility();
        if (i + 1) % (DECISIONS / CHECKPOINTS) == 0 {
            ep.violations
                .extend(check::messages(check::system(&sys, false)));
        }
    }
    ep.violations
        .extend(check::messages(check::system(&sys, false)));
    for a in sys.be_apps() {
        fp.word(a.id.index() as u64);
        fp.word(a.allocated_rate.to_bits());
    }
    ep.fingerprint = fp.finish();
    ep.variant = variant;
    ep.utility_mean = utility_sum / DECISIONS as f64;
    ep.stats = sys.state_stats().clone();
    ep.be_apps_at_end = sys.be_apps().len();
    ep.gen_ms = gen_clock.nanos() as f64 / 1e6;
    ep
}

/// The allocated (BE) or guaranteed (GR) rate of an admitted app.
fn rate_of(sys: &SparcleSystem, id: AppId) -> f64 {
    let be = sys.be_apps().iter().find(|a| a.id == id);
    be.map(|a| a.allocated_rate).unwrap_or_else(|| {
        sys.gr_apps()
            .iter()
            .find(|a| a.id == id)
            .map_or(0.0, |a| a.guaranteed_rate())
    })
}

impl crate::Episode for Episode {
    fn variant(&self) -> u64 {
        self.variant
    }
    fn wall_s(&self) -> f64 {
        self.wall_s
    }
    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
    fn csr_ms(&self) -> f64 {
        self.csr_ms
    }
    fn gen_ms(&self) -> f64 {
        self.gen_ms
    }
    fn stats(&self) -> &StateStats {
        &self.stats
    }
    fn be_apps_at_end(&self) -> usize {
        self.be_apps_at_end
    }
    fn violations(&self) -> &[String] {
        &self.violations
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let runs = drive(
        ctx,
        VARIANTS,
        || timed(setup).1,
        |v, t| episode(ctx.seed, v, t),
    );
    let mut out = Outcome::default();
    runs.count_into(&mut out, |e| (e.attempted, e.failures.clone()));

    out.metric(
        "setup_s",
        median_of_means(&runs.setup_s),
        "s",
        runs.setup_s.len(),
    );
    let lat = runs.least_disturbed(|e| &e.decision_ms);
    out.metric("decision_p50_ms", quantile(&lat, 0.5), "ms", lat.len());
    out.metric("decision_p90_ms", quantile(&lat, 0.9), "ms", lat.len());
    let wall = runs.least_disturbed(|e| &e.op_ms).iter().sum::<f64>() / 1e3;
    out.metric("decisions_per_s", lat.len() as f64 / wall, "1/s", lat.len());
    let variants = runs.variants();
    let requests = DECISIONS as usize * variants.len();
    let admitted: u64 = variants.iter().map(|e| e.admitted).sum();
    let admit_ratio = admitted as f64 / requests as f64;
    out.metric("admit_ratio", admit_ratio, "ratio", requests);
    let utility = variants.iter().map(|e| e.utility_mean).sum::<f64>() / variants.len() as f64;
    out.metric("be_utility", utility, "utility", requests);

    if ctx.trace {
        layers(ctx, &runs, &mut out);
    }
    out
}

fn layers(ctx: &Ctx, runs: &Runs<Episode>, out: &mut Outcome) {
    let totals = layers::common(out, runs);
    let n = runs.traced.len();
    let eps: Vec<&Episode> = runs.traced.iter().map(|(e, _)| e).collect();
    let per_call_ms = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| ratio(t.total_ns as f64 / 1e6, t.count as f64))
    };
    let wall_ms: f64 = eps.iter().map(|e| e.wall_s * 1e3).sum();
    let span_share = |name: &str| {
        ratio(
            totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6),
            wall_ms,
        )
    };

    let assign: Vec<f64> = eps
        .iter()
        .flat_map(|e| e.assign_ms.iter().copied())
        .collect();
    let assign_ms = assign.iter().sum::<f64>() / assign.len() as f64;
    out.metric("core.engine.assign_ms", assign_ms, "ms", assign.len());
    engine_split(out, &totals, assign_ms, assign.len());
    out.metric(
        "core.state.commit_ms",
        per_call_ms("core.state.commit"),
        "ms",
        count(&totals, "core.state.commit"),
    );
    out.metric(
        "core.state.remove_ms",
        per_call_ms("core.state.remove"),
        "ms",
        count(&totals, "core.state.remove"),
    );
    out.metric(
        "core.state.commit_share",
        span_share("core.state.commit"),
        "ratio",
        n,
    );
    out.metric(
        "core.state.remove_share",
        span_share("core.state.remove"),
        "ratio",
        n,
    );
    out.metric(
        "core.snapshot.capture_ms",
        per_call_ms("core.snapshot.capture"),
        "ms",
        count(&totals, "core.snapshot.capture"),
    );
    out.absent(&[
        ("runtime.reconcile_self_share", "ratio"),
        ("runtime.defrag_self_share", "ratio"),
        ("runtime.events", "count"),
        ("runtime.reconciles", "count"),
        ("runtime.displacements", "count"),
        ("runtime.defrag_probes", "count"),
        ("runtime.defrag_moves", "count"),
        ("runtime.defrag_move_ratio", "ratio"),
        ("runtime.defrag_skip_ratio", "ratio"),
        ("service.enqueue_share", "ratio"),
        ("service.batches", "count"),
        ("service.batch_size_mean", "count"),
        ("service.windows_deferred", "count"),
        ("service.sheds", "count"),
        ("service.probe_feasible_ratio", "ratio"),
    ]);

    let decision_mean: f64 = eps.iter().flat_map(|e| e.decision_ms.iter()).sum::<f64>()
        / eps.iter().map(|e| e.decision_ms.len()).sum::<usize>() as f64;
    let engine_share = ratio(assign_ms, decision_mean);
    let solve_share = ratio(
        eps.iter().map(|e| e.stats.solve_nanos as f64).sum::<f64>(),
        eps.iter().map(|e| e.wall_s * 1e9).sum::<f64>(),
    );
    out.notes.push(format!(
        "contrast engine-dominant: non-solve submit time is {:.1}% of a decision, BE solve {:.1}% of the timed wall -> {}",
        100.0 * engine_share,
        100.0 * solve_share,
        if engine_share > solve_share { "holds" } else { "does not hold" }
    ));
    out.spans_note(ctx, &runs.traced);
}

fn count(totals: &BTreeMap<&'static str, NameTotals>, name: &str) -> usize {
    totals.get(name).map_or(0, |t| t.count as usize)
}
