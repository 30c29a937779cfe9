//! `service_flash`: the admission service on a 1,000-NCP hub-and-spoke
//! network under a flash crowd (base → burst → base), every 4th request
//! a read-only probe, 0.5 s batch windows and no departures — so the
//! live BE set grows into the hundreds and each window close runs one
//! batched solve whose cost grows with it.
//!
//! The service consumes the whole request stream in one call, so the
//! benchmark wraps the stream: each gap between two pulls is the
//! service handling one request, and it is classified by whether a
//! `k × batch_window` boundary with queued requests falls inside it
//! (a window close, which decides the queued requests), or else by the
//! request's kind (a probe, or an enqueue).

use crate::gen::{self, GenClock};
use crate::layers::{self, engine_split, replay_caps, replayer};
use crate::spans::{Span, Tracing};
use crate::stats::{median, quantile, ratio, Fingerprint};
use crate::{check, close, drive, median_of_means, open, timed, Ctx, Outcome, Runs};
use sparcle_core::{StateStats, TraceHandle};
use sparcle_model::Application;
use sparcle_service::{AdmissionService, ServiceConfig};
use sparcle_workloads::{RequestKind, ServiceRequest};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// NCPs of the topology.
const NCPS: usize = 1_000;
/// The flash crowd as `(start, end, requests per sim-second)` segments:
/// base, burst, base.
const CROWD: [(f64, f64, f64); 3] = [(0.0, 5.0, 3.0), (5.0, 20.0, 15.0), (20.0, 25.0, 3.0)];
/// Independent request streams a run cycles through.
const VARIANTS: u64 = 3;
/// Seed of the application catalogue (request index → application).
/// The solve cost depends strongly on which pipelines share elements,
/// so the catalogue is part of the workload and the run seed varies the
/// request timing that carries it (one stream per variant).
const CATALOGUE_SEED: u64 = 0x5eed;
/// Every `PROBE_EVERY`-th request is a probe.
const PROBE_EVERY: u64 = 4;
/// Batch window, simulated seconds.
const BATCH_WINDOW: f64 = 0.5;

#[derive(Clone, Copy, PartialEq)]
enum Gap {
    Close,
    Probe,
    Enqueue,
}

impl Gap {
    fn span_name(self) -> &'static str {
        match self {
            Gap::Close => "service.window_close",
            Gap::Probe => "service.probe",
            Gap::Enqueue => "service.enqueue",
        }
    }
}

#[derive(Default)]
struct Episode {
    csr_ms: f64,
    gen_ms: f64,
    wall_s: f64,
    /// One sample per decided request: the wall of the window close
    /// that decided it.
    decision_ms: Vec<f64>,
    probe_ms: Vec<f64>,
    enqueue_ms: Vec<f64>,
    /// Every gap in order; sums to `wall_s`.
    gap_ms: Vec<f64>,
    close_ms_total: f64,
    /// Window closes the benchmark's replica of the batching rule
    /// counted; compared with the service's own batch count.
    closes: u64,
    requests: u64,
    probe_indices: Vec<u64>,
    decisions: u64,
    admitted: u64,
    sheds: u64,
    batches: u64,
    windows_deferred: u64,
    probes: u64,
    probes_feasible: u64,
    wait_p99_ms: f64,
    be_utility: f64,
    stats: StateStats,
    be_apps_at_end: usize,
    capture_ms: Vec<f64>,
    variant: u64,
    fingerprint: u64,
    violations: Vec<String>,
}

/// The pull side of the wrapped stream: times each gap and classifies
/// it with a replica of the service's window rule (queue drained up to
/// `max_batch` at each boundary that has queued requests).
struct Pulls<'a> {
    max_batch: usize,
    window_seq: u64,
    pending: usize,
    /// The gap in progress: kind, start, generator time at its start,
    /// requests it decides, and its span when traced.
    open: Option<(Gap, Instant, u64, usize, Option<Span<'a>>)>,
    tracing: Option<&'a Tracing>,
    ep: Episode,
}

impl<'a> Pulls<'a> {
    fn end_gap(&mut self, gen_ns: u64) {
        if let Some((kind, start, gen_at, decided, span)) = self.open.take() {
            close(span);
            let ms =
                (start.elapsed().as_nanos() as u64).saturating_sub(gen_ns - gen_at) as f64 / 1e6;
            match kind {
                Gap::Close => {
                    self.ep.close_ms_total += ms;
                    self.ep.decision_ms.extend(std::iter::repeat_n(ms, decided));
                }
                Gap::Probe => self.ep.probe_ms.push(ms),
                Gap::Enqueue => self.ep.enqueue_ms.push(ms),
            }
            self.ep.gap_ms.push(ms);
        }
    }

    fn begin_gap(&mut self, kind: Gap, decided: usize, gen_ns: u64) {
        let span = open(self.tracing, kind.span_name());
        self.open = Some((kind, Instant::now(), gen_ns, decided, span));
    }

    /// Boundaries up to `t` the service closes before handling the
    /// request at `t`; returns the requests they decide.
    fn advance_to(&mut self, t: f64) -> usize {
        let mut decided = 0;
        loop {
            let boundary = (self.window_seq + 1) as f64 * BATCH_WINDOW;
            if boundary > t {
                return decided;
            }
            if self.pending == 0 {
                self.window_seq = self.window_seq.max((t / BATCH_WINDOW).floor() as u64);
                return decided;
            }
            let take = self.pending.min(self.max_batch);
            self.pending -= take;
            decided += take;
            self.ep.closes += 1;
            self.window_seq += 1;
        }
    }
}

struct Wrapped<'a, 'p> {
    inner: std::vec::IntoIter<ServiceRequest>,
    pulls: &'p RefCell<Pulls<'a>>,
    gen: &'p GenClock,
}

impl Iterator for Wrapped<'_, '_> {
    type Item = ServiceRequest;

    fn next(&mut self) -> Option<ServiceRequest> {
        let mut p = self.pulls.borrow_mut();
        p.end_gap(self.gen.nanos());
        let request = self.gen.time(|| self.inner.next());
        if let Some(r) = request {
            p.ep.requests += 1;
            let decided = p.advance_to(r.time);
            let kind = match r.kind {
                _ if decided > 0 => Gap::Close,
                RequestKind::Probe => Gap::Probe,
                RequestKind::Admit => Gap::Enqueue,
            };
            match r.kind {
                RequestKind::Admit => p.pending += 1,
                RequestKind::Probe => p.ep.probe_indices.push(r.index),
            }
            p.begin_gap(kind, decided, self.gen.nanos());
        } else {
            // The service drains the queue after the stream ends.
            let decided = p.pending;
            p.pending = 0;
            p.ep.closes += decided.div_ceil(p.max_batch) as u64;
            p.begin_gap(Gap::Close, decided, self.gen.nanos());
        }
        request
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        batch_window: BATCH_WINDOW,
        ..ServiceConfig::default()
    }
}

/// Set-up: the network, its CSR arrays (timed on their own, ms) and the
/// service.
fn setup<F: FnMut(u64) -> Application>(source: F) -> (AdmissionService<F>, f64) {
    let network = gen::hub_and_spoke(NCPS);
    let (_, csr_s) = timed(|| {
        network.csr();
    });
    (
        AdmissionService::new(network, service_config(), source),
        csr_s * 1e3,
    )
}

fn episode(seed: u64, variant: u64, tracing: Option<&Tracing>) -> Episode {
    let seed = gen::sub_seed(seed, 1000 + variant);
    let gen_clock = GenClock::default();
    let leaves = gen::leaves(NCPS);
    let source = |index: u64| gen_clock.time(|| gen::pipeline_app(CATALOGUE_SEED, index, &leaves));
    let (mut service, csr_ms) = setup(source);
    let max_batch = service_config().max_batch;

    let pulls = RefCell::new(Pulls {
        max_batch,
        window_seq: 0,
        pending: 0,
        open: None,
        tracing,
        ep: Episode {
            csr_ms,
            ..Episode::default()
        },
    });
    let stream = Wrapped {
        inner: gen_clock
            .time(|| gen::flash_crowd(gen::sub_seed(seed, 21), &CROWD, PROBE_EVERY))
            .into_iter(),
        pulls: &pulls,
        gen: &gen_clock,
    };
    let start = Instant::now();
    match tracing {
        Some(t) => service.run_traced(stream, TraceHandle::with_spans(&t.log, &t.tracker)),
        None => service.run(stream),
    }
    pulls.borrow_mut().end_gap(gen_clock.nanos());
    let wall = start.elapsed().as_secs_f64();
    let mut ep = pulls.into_inner().ep;
    ep.gen_ms = gen_clock.nanos() as f64 / 1e6;
    ep.wall_s = wall - ep.gen_ms / 1e3;

    let stats = *service.stats();
    ep.decisions = stats.decisions;
    ep.admitted = stats.admitted;
    ep.sheds = stats.shed;
    ep.batches = stats.batches;
    ep.windows_deferred = stats.windows_deferred;
    ep.probes = stats.probes;
    ep.probes_feasible = stats.probes_feasible;
    ep.wait_p99_ms = service.decision_wait_quantile(0.99) * 1e3;
    let sys = service.system();
    ep.be_utility = sys.be_utility();
    ep.stats = sys.state_stats().clone();
    ep.be_apps_at_end = sys.be_apps().len();
    ep.violations = check::messages(check::system(sys, false));

    let mut fp = Fingerprint::default();
    for w in [
        stats.batches,
        stats.windows_deferred,
        stats.decisions,
        stats.admitted,
        stats.rejected,
        stats.shed,
        stats.probes,
        stats.probes_feasible,
    ] {
        fp.word(w);
    }
    for w in service.decision_waits() {
        fp.word(w.to_bits());
    }
    for a in sys.be_apps() {
        fp.word(a.id.index() as u64);
        fp.word(a.allocated_rate.to_bits());
    }
    ep.fingerprint = fp.finish();
    ep.variant = variant;

    if let Some(t) = tracing {
        for _ in 0..5 {
            let s = Instant::now();
            std::hint::black_box(sys.snapshot());
            ep.capture_ms.push(s.elapsed().as_secs_f64() * 1e3);
        }
        // Engine split: every probe's application through the engine's
        // public traced entry point, against the final snapshot.
        let snapshot = service.snapshot();
        let replayer = replayer();
        for &index in &ep.probe_indices {
            let app = gen::pipeline_app(CATALOGUE_SEED, index, &leaves);
            let caps = replay_caps(snapshot, &app);
            let trace = TraceHandle::with_spans(&t.log, &t.tracker);
            let _ = replayer.assign_traced_with_stats(&app, sys.network(), &caps, trace);
        }
    }
    ep
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
    let leaves = gen::leaves(NCPS);
    let setup_once = || timed(|| setup(|i| gen::pipeline_app(0, i, &leaves))).1;
    let runs = drive(ctx, VARIANTS, setup_once, |v, t| episode(ctx.seed, v, t));
    let mut out = Outcome::default();
    runs.count_into(&mut out, |e| (e.requests, BTreeMap::new()));

    out.metric(
        "setup_s",
        median_of_means(&runs.setup_s),
        "s",
        runs.setup_s.len(),
    );
    let lat = runs.least_disturbed(|e| &e.decision_ms);
    out.metric("decision_p50_ms", quantile(&lat, 0.5), "ms", lat.len());
    out.metric("decision_p90_ms", quantile(&lat, 0.9), "ms", lat.len());
    let probes = runs.least_disturbed(|e| &e.probe_ms);
    out.metric("probe_p50_ms", quantile(&probes, 0.5), "ms", probes.len());
    out.metric("probe_p90_ms", quantile(&probes, 0.9), "ms", probes.len());
    let wall = runs.least_disturbed(|e| &e.gap_ms).iter().sum::<f64>() / 1e3;
    out.metric("decisions_per_s", lat.len() as f64 / wall, "1/s", lat.len());
    // Decision quality: every variant once (decisions are deterministic).
    let variants = runs.variants();
    let n = variants.len();
    let sum = |f: fn(&Episode) -> f64| variants.iter().map(f).sum::<f64>();
    for e in variants {
        if e.closes != e.batches || e.windows_deferred > 0 || e.sheds > 0 {
            out.notes.push(format!(
                "attribution approximate: {} closes replicated vs {} batches, {} deferred windows, {} sheds",
                e.closes, e.batches, e.windows_deferred, e.sheds
            ));
        }
    }
    let requests = sum(|e| (e.decisions + e.sheds) as f64);
    let admit_ratio = ratio(sum(|e| e.admitted as f64), requests);
    out.metric("admit_ratio", admit_ratio, "ratio", requests as usize);
    out.metric("be_utility", sum(|e| e.be_utility) / n as f64, "utility", n);
    let wait = sum(|e| e.wait_p99_ms) / n as f64;
    let decided = sum(|e| e.decisions as f64) as usize;
    out.metric("decision_wait_p99_sim_ms", wait, "sim-ms", decided);

    if ctx.trace {
        layers(ctx, &runs, &mut out);
    }
    out
}

fn layers(ctx: &Ctx, runs: &Runs<Episode>, out: &mut Outcome) {
    let totals = layers::common(out, runs);
    let n = runs.traced.len();
    let eps: Vec<&Episode> = runs.traced.iter().map(|(e, _)| e).collect();
    let mean = |f: fn(&Episode) -> f64| eps.iter().map(|e| f(e)).sum::<f64>() / n as f64;
    let wall_ms: f64 = eps.iter().map(|e| e.wall_s * 1e3).sum();

    // Writer time outside the BE solver, per decided request.
    let solve_ms: f64 = eps.iter().map(|e| e.stats.solve_nanos as f64 / 1e6).sum();
    let close_ms: f64 = eps.iter().map(|e| e.close_ms_total).sum();
    let decisions: u64 = eps.iter().map(|e| e.decisions).sum();
    let assign_ms = ratio(close_ms - solve_ms, decisions as f64);
    out.metric("core.engine.assign_ms", assign_ms, "ms", decisions as usize);
    engine_split(out, &totals, assign_ms, decisions as usize);
    let captures: Vec<f64> = eps
        .iter()
        .flat_map(|e| e.capture_ms.iter().copied())
        .collect();
    out.metric(
        "core.snapshot.capture_ms",
        median(&captures),
        "ms",
        captures.len(),
    );

    let enqueue: Vec<f64> = eps
        .iter()
        .flat_map(|e| e.enqueue_ms.iter().copied())
        .collect();
    let probes: Vec<f64> = eps
        .iter()
        .flat_map(|e| e.probe_ms.iter().copied())
        .collect();
    out.metric(
        "service.enqueue_p50_us",
        median(&enqueue) * 1e3,
        "us",
        enqueue.len(),
    );
    out.metric(
        "service.enqueue_share",
        ratio(enqueue.iter().sum(), wall_ms),
        "ratio",
        enqueue.len(),
    );
    out.metric(
        "service.probe_share",
        ratio(probes.iter().sum(), wall_ms),
        "ratio",
        probes.len(),
    );
    out.metric("service.close_share", ratio(close_ms, wall_ms), "ratio", n);
    out.metric("service.batches", mean(|e| e.batches as f64), "count", n);
    out.metric(
        "service.batch_size_mean",
        ratio(mean(|e| e.decisions as f64), mean(|e| e.batches as f64)),
        "count",
        n,
    );
    let deferred = mean(|e| e.windows_deferred as f64);
    out.metric("service.windows_deferred", deferred, "count", n);
    out.metric("service.sheds", mean(|e| e.sheds as f64), "count", n);
    out.metric(
        "service.probe_feasible_ratio",
        ratio(
            mean(|e| e.probes_feasible as f64),
            mean(|e| e.probes as f64),
        ),
        "ratio",
        n,
    );
    out.absent(&[
        ("core.state.commit_share", "ratio"),
        ("core.state.remove_share", "ratio"),
        ("runtime.reconcile_self_share", "ratio"),
        ("runtime.defrag_self_share", "ratio"),
        ("runtime.events", "count"),
        ("runtime.reconciles", "count"),
        ("runtime.displacements", "count"),
        ("runtime.defrag_probes", "count"),
        ("runtime.defrag_moves", "count"),
        ("runtime.defrag_move_ratio", "ratio"),
        ("runtime.defrag_skip_ratio", "ratio"),
    ]);

    let solve_in_close = ratio(solve_ms, close_ms);
    let probe_p50 = median(&probes);
    let decision_p50 = median(
        &eps.iter()
            .flat_map(|e| e.decision_ms.iter().copied())
            .collect::<Vec<_>>(),
    );
    out.notes.push(format!(
        "contrast writer-vs-probe: BE solve is {:.1}% of window-close wall and 0% of probe wall; decision p50 {:.3} ms vs probe p50 {:.3} ms -> {}",
        100.0 * solve_in_close,
        decision_p50,
        probe_p50,
        if decision_p50 > probe_p50 && solve_in_close > 0.0 { "holds" } else { "does not hold" }
    ));
    out.spans_note(ctx, &runs.traced);
}
