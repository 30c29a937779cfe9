//! In-memory span capture for traced runs.
//!
//! [`SpanLog`] is a telemetry sink that keeps only `span_open` /
//! `span_close` events (every other event kind is dropped on arrival),
//! so a traced run holds its spans in memory and writes them out once,
//! when the run ends. [`SpanLog::self_times`] reduces them to per-name
//! totals: a span's self time is its duration minus the durations of
//! its direct children, which never overlap because spans are opened
//! from one control thread.

pub use sparcle_telemetry::Span;
use sparcle_telemetry::{Event, Recorder, SpanTracker};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;

#[derive(Debug, Clone)]
struct SpanRec {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    t_ns: u64,
    dur_ns: u64,
}

/// Wall-clock totals of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Span sink of one traced episode.
#[derive(Default)]
pub struct SpanLog {
    spans: Mutex<Vec<SpanRec>>,
}

impl Recorder for SpanLog {
    fn event_caused(&self, event: &Event, _causes: &[u64]) -> u64 {
        let mut spans = self.spans.lock().expect("span log poisoned");
        match *event {
            Event::SpanOpen {
                id,
                parent,
                name,
                t_ns,
            } => spans.push(SpanRec {
                id,
                parent,
                name,
                t_ns,
                dur_ns: 0,
            }),
            Event::SpanClose { id, dur_ns, .. } => {
                if let Some(s) = spans.iter_mut().rev().find(|s| s.id == id) {
                    s.dur_ns = dur_ns;
                }
            }
            _ => {}
        }
        0
    }
}

impl SpanLog {
    /// Per-name count, total and self time over every recorded span.
    pub fn self_times(&self) -> BTreeMap<&'static str, NameTotals> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.dur_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for s in spans.iter() {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns;
            t.self_ns += s
                .dur_ns
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        }
        out
    }

    /// Appends every span as one JSON line tagged with `episode`.
    pub fn write_jsonl(&self, out: &mut impl Write, episode: usize) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log poisoned");
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"episode\":{episode},\"span\":{},\"parent\":{parent},\"name\":\"{}\",\"t_ns\":{},\"dur_ns\":{}}}",
                s.id, s.name, s.t_ns, s.dur_ns
            )?;
        }
        Ok(())
    }
}

/// Span capture of one traced episode: the sink plus the tracker that
/// parents and times its spans.
#[derive(Default)]
pub struct Tracing {
    pub log: SpanLog,
    pub tracker: SpanTracker,
}

/// Names of the engine's own spans whose self times split an
/// assignment into layers.
pub const ENGINE_SPANS: [&str; 4] = [
    "engine.row_fill",
    "engine.rank_merge",
    "engine.commit",
    "engine.route",
];

/// Share of all `engine.*` self time that each of [`ENGINE_SPANS`]
/// took, in that order.
pub fn engine_shares(totals: &BTreeMap<&'static str, NameTotals>) -> [f64; 4] {
    let engine_ns: u64 = totals
        .iter()
        .filter(|(n, _)| n.starts_with("engine."))
        .map(|(_, t)| t.self_ns)
        .sum();
    ENGINE_SPANS.map(|n| {
        let s = totals.get(n).map_or(0, |t| t.self_ns);
        crate::stats::ratio(s as f64, engine_ns as f64)
    })
}

/// Adds `from` into `into`, name by name.
pub fn merge_totals(
    into: &mut BTreeMap<&'static str, NameTotals>,
    from: &BTreeMap<&'static str, NameTotals>,
) {
    for (name, t) in from {
        let e = into.entry(name).or_default();
        e.count += t.count;
        e.total_ns += t.total_ns;
        e.self_ns += t.self_ns;
    }
}
