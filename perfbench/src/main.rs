//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <admit_scale|churn_defrag|service_flash> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop with one client that drives the
//! control plane single-threaded under the production default config,
//! through public functions only. A run repeats seeded *episodes*
//! (set-up, then the timed loop) in rounds over a few input variants
//! for about `--seconds`; wall-clock metrics take each operation's
//! fastest repeat. Every repeat must reproduce its variant's decision
//! fingerprint, and every episode ends with the capacity and placement
//! checks of `check.rs`. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` adds a traced twin of each variant's first episode and
//! reports the per-layer metrics from the traced ones. The report lists every metric with its
//! unit and sample count; the last line of standard output is the JSON
//! result. The exit code is non-zero when a check fails.
//!
//! See `perfbench/README.md` for the workloads, the metric → layer map
//! and the measured noise.

mod admit;
mod check;
mod churn;
mod gen;
mod layers;
mod service;
mod spans;
mod stats;

use spans::Tracing;
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics the JSON result carries (identical names in
/// `BENCHMARK.json`). Every workload reports every one of them.
const E2E_JSON: [&str; 6] = [
    "setup_s",
    "decision_p50_ms",
    "decision_p90_ms",
    "decisions_per_s",
    "admit_ratio",
    "peak_rss_mb",
];

/// Per-layer metrics the JSON result carries with `--trace 1`
/// (identical names in `BENCHMARK.json`). Every workload reports every
/// one; a layer a workload does not exercise reads as a zero count or
/// ratio, never as a time.
const LAYER_JSON: [&str; 40] = [
    "model.csr_build_ms",
    "gen.source_ms",
    "trace.overhead_ratio",
    "core.engine.assign_ms",
    "core.engine.row_fill_self_ms",
    "core.engine.rank_merge_self_ms",
    "core.engine.commit_self_ms",
    "core.engine.route_self_ms",
    "core.engine.rows_filled",
    "core.engine.cache_hit_ratio",
    "core.state.txn_commits",
    "core.state.txn_rollbacks",
    "core.state.residual_element_updates",
    "core.state.residual_full_recomputes",
    "core.state.commit_share",
    "core.state.remove_share",
    "core.snapshot.capture_ms",
    "alloc.solve_ms",
    "alloc.solve_share",
    "alloc.ms_per_solve",
    "alloc.solves",
    "alloc.cold_solves",
    "alloc.newton_iters_per_warm_solve",
    "alloc.newton_iters_per_cold_solve",
    "alloc.be_apps_at_end",
    "runtime.reconcile_self_share",
    "runtime.defrag_self_share",
    "runtime.events",
    "runtime.reconciles",
    "runtime.displacements",
    "runtime.defrag_probes",
    "runtime.defrag_moves",
    "runtime.defrag_move_ratio",
    "runtime.defrag_skip_ratio",
    "service.enqueue_share",
    "service.batches",
    "service.batch_size_mean",
    "service.windows_deferred",
    "service.sheds",
    "service.probe_feasible_ratio",
];

/// Set-ups timed before every episode. The machine this was tuned on
/// alternates between a fast and a 1.6× slower state every few tens of
/// milliseconds, so single set-ups are bimodal; `setup_s` is therefore a
/// median of means over set-ups spread across the whole run.
const SETUPS_PER_EPISODE: usize = 12;
/// Groups of the median-of-means estimate of `setup_s`.
const SETUP_GROUPS: usize = 5;

/// Median of [`SETUP_GROUPS`] means, group `g` holding every
/// [`SETUP_GROUPS`]-th sample from `g` on, so each mean draws from the
/// whole run.
pub fn median_of_means(samples: &[f64]) -> f64 {
    let means: Vec<f64> = (0..SETUP_GROUPS)
        .map(|g| {
            let group: Vec<f64> = samples
                .iter()
                .skip(g)
                .step_by(SETUP_GROUPS)
                .copied()
                .collect();
            group.iter().sum::<f64>() / group.len() as f64
        })
        .collect();
    stats::median(&means)
}

/// Runs `build` and returns its result with its wall time in seconds.
pub fn timed<T>(build: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let built = build();
    (built, start.elapsed().as_secs_f64())
}

/// Command-line arguments.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What a workload hands back: work and failure counts, check results,
/// and every metric it measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed operations by error kind.
    pub failures: BTreeMap<String, u64>,
    /// Correctness-check violations (each also counts as failed).
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Free-form report lines (predicted contrasts, attribution notes).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Folds one episode's counts into the run totals.
    pub fn count(
        &mut self,
        attempted: u64,
        failures: &BTreeMap<String, u64>,
        violations: &[String],
    ) {
        self.attempted += attempted;
        for (k, n) in failures {
            *self.failures.entry(k.clone()).or_default() += n;
            self.failed += n;
        }
        self.failed += violations.len() as u64;
        self.violations.extend_from_slice(violations);
    }

    /// Reports layers this workload does not exercise as zero counts or
    /// ratios, so every run carries every per-layer metric.
    pub fn absent(&mut self, names: &[(&'static str, &'static str)]) {
        for &(name, unit) in names {
            debug_assert!(unit != "ms", "an absent layer never reads as a time");
            self.metric(name, 0.0, unit, 0);
        }
    }

    /// Writes the traced episodes' spans and notes where they went.
    pub fn spans_note<E>(&mut self, ctx: &Ctx, traced: &[(E, Tracing)]) {
        self.notes.push(match write_spans(ctx, traced) {
            Ok(path) => format!("spans written to {path}"),
            Err(e) => format!("spans not written: {e}"),
        });
    }

    /// Flags every episode whose decision fingerprint differs from the
    /// first episode of the same input variant (`(variant, fingerprint)`
    /// pairs).
    pub fn same_fingerprint(&mut self, fingerprints: &[(u64, u64)]) {
        let mut first: BTreeMap<u64, u64> = BTreeMap::new();
        for (i, &(variant, f)) in fingerprints.iter().enumerate() {
            let expect = *first.entry(variant).or_insert(f);
            if f != expect {
                self.violations.push(format!(
                    "episode {i} (variant {variant}) decision fingerprint {f:016x} differs from its first run ({expect:016x})"
                ));
                self.failed += 1;
            }
        }
    }
}

/// What the run loop and the shared layer report read from an episode.
pub trait Episode {
    /// The input variant it ran.
    fn variant(&self) -> u64;
    /// Wall time of its timed loop, seconds.
    fn wall_s(&self) -> f64;
    /// Decision fingerprint (outcomes and rate bits).
    fn fingerprint(&self) -> u64;
    /// CSR build at set-up, ms.
    fn csr_ms(&self) -> f64;
    /// Time in the benchmark's own generators, ms.
    fn gen_ms(&self) -> f64;
    /// State-core work counters of the episode's system.
    fn stats(&self) -> &sparcle_core::StateStats;
    /// Best-Effort applications placed when the episode ended.
    fn be_apps_at_end(&self) -> usize;
    /// Correctness-check violations found in the episode.
    fn violations(&self) -> &[String];
}

/// The episodes of one run.
pub struct Runs<E> {
    /// Untraced episodes; the first `variants` are one of each variant.
    pub plain: Vec<E>,
    /// Traced episodes with their span captures.
    pub traced: Vec<(E, Tracing)>,
    /// Wall time of every timed set-up, seconds, in run order.
    pub setup_s: Vec<f64>,
    variants: usize,
}

impl<E: Episode> Runs<E> {
    /// One untraced episode of each variant. Decisions are deterministic,
    /// so these carry the run's decision-quality metrics.
    pub fn variants(&self) -> &[E] {
        &self.plain[..self.variants]
    }

    /// The least-disturbed time of every operation: for each variant,
    /// the element-wise minimum of `samples` over its untraced repeats,
    /// then every variant's list in variant order. Repeats of a variant
    /// do identical work in the same order (the fingerprint check holds
    /// them to it), so one operation's repeats differ only by the load
    /// other tenants put on the machine at the time. That load comes in
    /// bursts from tens of milliseconds to seconds long; the fastest
    /// repeat of each operation drops it, where a per-episode choice
    /// keeps or drops whole repeats and a median keeps every burst that
    /// hit half of them.
    pub fn least_disturbed(&self, samples: impl Fn(&E) -> &[f64]) -> Vec<f64> {
        let mut best: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for e in &self.plain {
            let s = samples(e);
            let b = best.entry(e.variant()).or_insert_with(|| s.to_vec());
            b.truncate(s.len());
            for (b, &x) in b.iter_mut().zip(s) {
                *b = b.min(x);
            }
        }
        best.into_values().flatten().collect()
    }

    /// Counts the run's operations and failures into `out`. Repeats of a
    /// variant replay identical operations, so `attempted` and `failed`
    /// count each variant once, which makes them a function of the seed
    /// alone rather than of how many repeats fit into `--seconds`; a
    /// correctness violation in any episode counts as a failure.
    pub fn count_into(
        &self,
        out: &mut Outcome,
        counts: impl Fn(&E) -> (u64, BTreeMap<String, u64>),
    ) {
        for (i, e) in self.all().enumerate() {
            if i < self.variants {
                let (attempted, failures) = counts(e);
                out.count(attempted, &failures, e.violations());
            } else {
                out.count(0, &BTreeMap::new(), e.violations());
            }
        }
        out.same_fingerprint(&self.fingerprints());
    }

    /// Every episode, untraced then traced.
    pub fn all(&self) -> impl Iterator<Item = &E> {
        self.plain.iter().chain(self.traced.iter().map(|(e, _)| e))
    }

    /// `(variant, fingerprint)` of every episode.
    pub fn fingerprints(&self) -> Vec<(u64, u64)> {
        self.all().map(|e| (e.variant(), e.fingerprint())).collect()
    }
}

/// Repeats `episode` in rounds, one episode of each input variant per
/// round, for about `ctx.seconds` and at least two rounds. Episode `i`
/// runs variant `i % variants`, an independent sub-stream of the run
/// seed, so a run averages over `variants` inputs; the repeats give each
/// variant a fingerprint check and a least-disturbed time per
/// operation. Runs end on a round boundary, so every variant has the
/// same number of repeats: the first one past `ctx.seconds` less half
/// a round. With `--trace 1` the first run of each variant is followed
/// by a traced twin with a fresh span capture. Before every episode,
/// `setup` (which returns the wall time of one set-up) is sampled.
pub fn drive<E>(
    ctx: &Ctx,
    variants: u64,
    mut setup: impl FnMut() -> f64,
    mut episode: impl FnMut(u64, Option<&Tracing>) -> E,
) -> Runs<E> {
    let start = Instant::now();
    let mut runs = Runs {
        plain: Vec::new(),
        traced: Vec::new(),
        setup_s: Vec::new(),
        variants: variants as usize,
    };
    for i in 0.. {
        runs.setup_s
            .extend((0..SETUPS_PER_EPISODE).map(|_| setup()));
        let variant = i % variants;
        runs.plain.push(episode(variant, None));
        if ctx.trace && i < variants {
            let tracing = Tracing::default();
            let e = episode(variant, Some(&tracing));
            runs.traced.push((e, tracing));
        }
        let rounds = (i + 1) / variants;
        if (i + 1) % variants == 0 && rounds >= 2 {
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed + 0.5 * elapsed / rounds as f64 >= ctx.seconds {
                break;
            }
        }
    }
    runs
}

/// Opens a benchmark-side span around a call into a layer (traced
/// episodes only).
pub fn open<'a>(tracing: Option<&'a Tracing>, name: &'static str) -> Option<spans::Span<'a>> {
    tracing.map(|t| t.tracker.open(&t.log, name))
}

/// Closes a span from [`open`].
pub fn close(span: Option<spans::Span<'_>>) {
    if let Some(s) = span {
        s.finish();
    }
}

/// Writes the traced episodes' spans as JSON lines under
/// `.perfbench_out/` (relative to the working directory) once the run
/// has ended; returns the file written.
pub fn write_spans<E>(ctx: &Ctx, traced: &[(E, Tracing)]) -> std::io::Result<String> {
    use std::io::Write;
    std::fs::create_dir_all(".perfbench_out")?;
    let path = format!(
        ".perfbench_out/{}-seed{}.spans.jsonl",
        ctx.workload, ctx.seed
    );
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for (i, (_, t)) in traced.iter().enumerate() {
        t.log.write_jsonl(&mut out, i)?;
    }
    out.flush()?;
    Ok(path)
}

fn parse_args() -> Result<Ctx, String> {
    let mut args = std::env::args().skip(1);
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => ctx.workload = value,
            "--seed" => ctx.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                ctx.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(ctx.seconds.is_finite() && ctx.seconds > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(ctx)
}

fn main() {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <admit_scale|churn_defrag|service_flash> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut out = match ctx.workload.as_str() {
        "admit_scale" => admit::run(&ctx),
        "churn_defrag" => churn::run(&ctx),
        "service_flash" => service::run(&ctx),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    out.metric("peak_rss_mb", stats::peak_rss_mb(), "MB", 1);
    out.metric(
        "failed_ratio",
        stats::ratio(out.failed as f64, out.attempted as f64),
        "ratio",
        out.attempted as usize,
    );
    let broken: Vec<String> = (out.metrics.iter())
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("metric {} is not a finite number", m.name))
        .collect();
    out.violations.extend(broken);

    println!(
        "workload {} seed {} seconds {} trace {}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    for m in &out.metrics {
        println!(
            "  {:<40} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for (kind, n) in &out.failures {
        println!("  failure {kind}: {n}");
    }
    for v in &out.violations {
        println!("  VIOLATION {v}");
    }
    for note in &out.notes {
        println!("  {note}");
    }

    let wanted: &[&str] = if ctx.trace { &LAYER_JSON } else { &E2E_JSON };
    let fields: Vec<String> = wanted
        .iter()
        .map(|name| {
            let m = out
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("workload did not report {name}"));
            // JSON has no NaN or infinity; a non-finite value already
            // failed the run above.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.unit
            )
        })
        .collect();
    let correct = out.violations.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
