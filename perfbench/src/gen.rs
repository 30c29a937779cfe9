//! Input generators. Everything a workload feeds the program is built
//! here, with its randomness drawn from the `--seed` argument (parts a
//! workload fixes take a constant seed instead); the program only ever
//! sees the generated networks, applications and request streams.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparcle_model::{
    Application, LinkDirection, NcpId, Network, NetworkBuilder, QoeClass, ResourceVec,
};
use sparcle_workloads::graphs::linear_task_graph;
use sparcle_workloads::{RequestKind, ScaleSpec, ServiceRequest};
use std::cell::Cell;
use std::time::Instant;

/// Derives an independent sub-seed for one input stream of a run.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    // splitmix64 finalizer over (seed, stream).
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Wall time spent inside the benchmark's own generators; subtracted
/// from every layer and reported as `gen.source_ms`.
#[derive(Default)]
pub struct GenClock {
    nanos: Cell<u64>,
}

impl GenClock {
    /// Runs `f`, charging its wall time to the generator.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.nanos
            .set(self.nanos.get() + start.elapsed().as_nanos() as u64);
        out
    }

    pub fn nanos(&self) -> u64 {
        self.nanos.get()
    }
}

/// The repository's two-level hub-and-spoke topology at `ncps` NCPs
/// (`ScaleSpec` with its default shape and seed): a fixed network, so
/// the run seed varies only the application stream.
pub fn hub_and_spoke(ncps: usize) -> Network {
    ScaleSpec::new(ncps)
        .build()
        .expect("scale topology parameters are valid")
        .network
}

/// Dense ids of the leaves of [`hub_and_spoke`] (hubs come first).
pub fn leaves(ncps: usize) -> std::ops::Range<u32> {
    ScaleSpec::new(ncps).hub_count() as u32..ncps as u32
}

/// A linear pipeline of 2–5 stages with both endpoints pinned at
/// distinct random leaves; every fourth (`index % 4 == 1`) is
/// Guaranteed-Rate, so the class mix does not vary with the seed.
pub fn pipeline_app(seed: u64, index: u64, leaves: &std::ops::Range<u32>) -> Application {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, index));
    let stages = rng.gen_range(2usize..=5);
    let cycles: Vec<f64> = (0..stages).map(|_| rng.gen_range(5.0..15.0)).collect();
    let bits: Vec<f64> = (0..=stages).map(|_| rng.gen_range(5.0..15.0)).collect();
    let graph = linear_task_graph(&cycles, &bits).expect("pipeline shape is valid");
    let (src, sink) = (graph.sources()[0], graph.sinks()[0]);
    let src_host = rng.gen_range(leaves.clone());
    let mut sink_host = rng.gen_range(leaves.start..leaves.end - 1);
    if sink_host >= src_host {
        sink_host += 1;
    }
    let qoe = if index % 4 == 1 {
        QoeClass::guaranteed_rate(rng.gen_range(2.0..8.0), 0.9)
    } else {
        QoeClass::best_effort(f64::from(rng.gen_range(1u32..=4)))
    };
    Application::new(
        graph,
        qoe,
        [(src, NcpId::new(src_host)), (sink, NcpId::new(sink_host))],
    )
    .expect("pins name existing leaves")
}

/// A flash-crowd request stream: each `(start, end, rate)` segment
/// carries `rate × (end − start)` requests, the `k`-th at
/// `start + (k + u) / rate` with seeded jitter `u ∈ [0, 1)`, so the
/// crowd's shape and size are fixed and the seed moves only the timing.
/// Every `probe_every`-th request (1-based) is a read-only probe.
pub fn flash_crowd(
    seed: u64,
    segments: &[(f64, f64, f64)],
    probe_every: u64,
) -> Vec<ServiceRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<ServiceRequest> = Vec::new();
    for &(start, end, rate) in segments {
        let count = ((end - start) * rate).round() as u64;
        for k in 0..count {
            let index = out.len() as u64;
            let kind = if (index + 1).is_multiple_of(probe_every) {
                RequestKind::Probe
            } else {
                RequestKind::Admit
            };
            out.push(ServiceRequest {
                time: start + (k as f64 + rng.gen_range(0.0..1.0)) / rate,
                index,
                kind,
            });
        }
    }
    out
}

/// Edge hosts of [`churn_network`] (dense ids `0..CHURN_EDGES`).
pub const CHURN_EDGES: u32 = 4;

/// Four edge hosts and two compute hubs; the fast hub's links fail
/// four times as often as the slow hub's.
pub fn churn_network() -> Network {
    const FLAKY: f64 = 0.08;
    let mut b = NetworkBuilder::new();
    let edges: Vec<NcpId> = (0..CHURN_EDGES)
        .map(|i| b.add_ncp(format!("edge{i}"), ResourceVec::cpu(20.0)))
        .collect();
    let fast = b.add_ncp("hub-fast", ResourceVec::cpu(2000.0));
    let slow = b.add_ncp("hub-slow", ResourceVec::cpu(1500.0));
    for (i, &e) in edges.iter().enumerate() {
        b.add_link_full(
            format!("fast{i}"),
            e,
            fast,
            2e4,
            LinkDirection::Undirected,
            FLAKY,
        )
        .expect("valid link");
        b.add_link_full(
            format!("slow{i}"),
            e,
            slow,
            8e3,
            LinkDirection::Undirected,
            FLAKY / 4.0,
        )
        .expect("valid link");
    }
    b.build().expect("valid network")
}

/// A one- or two-stage pipeline between two distinct edge hosts; every
/// third is Guaranteed-Rate.
pub fn churn_app(seed: u64, index: u64) -> Application {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, index));
    let graph = if rng.gen_bool(0.5) {
        linear_task_graph(&[rng.gen_range(40.0..80.0)], &[1200.0, 600.0])
    } else {
        let c = rng.gen_range(30.0..50.0);
        linear_task_graph(&[c, c], &[1000.0, 800.0, 400.0])
    }
    .expect("pipeline shape is valid");
    let (src, sink) = (graph.sources()[0], graph.sinks()[0]);
    let src_host = rng.gen_range(0..CHURN_EDGES);
    let sink_host = (src_host + rng.gen_range(1..CHURN_EDGES)) % CHURN_EDGES;
    let qoe = if index.is_multiple_of(3) {
        QoeClass::guaranteed_rate(1.5, 0.5)
    } else {
        QoeClass::best_effort(f64::from(rng.gen_range(1u32..=4)))
    };
    Application::new(
        graph,
        qoe,
        [(src, NcpId::new(src_host)), (sink, NcpId::new(sink_host))],
    )
    .expect("pins name existing edges")
}
