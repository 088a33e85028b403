//! In-memory spans recorded by the benchmark's own code around its calls
//! into each layer, and the arithmetic that turns them into per-layer
//! figures: a layer's self time is its span minus the part its children
//! cover, and what the layers of a path leave of its traced total is the
//! path's one named residual, which must not be negative.
//!
//! Each thread records into its own [`Lane`] (no lock, no allocation
//! beyond the lane's vector on the timed path) and hands it back to the
//! [`Tracer`] when it is done. With tracing off a lane runs the wrapped
//! call and reads no clock.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// Spans one lane keeps before it only counts: per-request spans on a
/// fast server would otherwise grow the trace (and the traced run's
/// memory) with the throughput it measures.
const LANE_CAPACITY: usize = 100_000;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// The operation this span belongs to (request index, epoch, ...);
    /// spans of one operation share it.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    state: Mutex<TracerState>,
}

#[derive(Default)]
struct TracerState {
    lanes: u64,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { origin: Instant::now(), enabled, state: Mutex::default() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A recording lane for one thread.
    pub fn lane(&self) -> Lane<'_> {
        let mut st = self.state.lock().expect("tracer state poisoned");
        st.lanes += 1;
        Lane {
            tracer: self,
            lane: st.lanes,
            next: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// The spans of every lane that has finished so far, and how many
    /// spans those lanes dropped past their capacity.
    pub fn snapshot(&self) -> (Vec<Span>, u64) {
        let st = self.state.lock().expect("tracer state poisoned");
        (st.spans.clone(), st.dropped)
    }
}

pub struct Lane<'t> {
    tracer: &'t Tracer,
    lane: u64,
    next: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
    dropped: u64,
}

impl Lane<'_> {
    /// Nanoseconds since the tracer was made (0 with tracing off).
    pub fn now_ns(&self) -> u64 {
        if self.tracer.enabled {
            self.tracer.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    fn push(&mut self, name: &'static str, op: u64, start_ns: u64, end_ns: u64) -> Option<usize> {
        if self.spans.len() >= LANE_CAPACITY {
            self.dropped += 1;
            return None;
        }
        let id = (self.lane << 40) | self.next;
        self.next += 1;
        let parent = self.stack.last().map(|&i| self.spans[i].id);
        self.spans.push(Span { id, parent, name, op, start_ns, end_ns });
        Some(self.spans.len() - 1)
    }

    /// Records an interval that already ended (one a callback reported,
    /// say) as a child of the span currently open on this lane.
    pub fn record(&mut self, name: &'static str, op: u64, start_ns: u64, end_ns: u64) {
        if self.tracer.enabled {
            self.push(name, op, start_ns, end_ns);
        }
    }

    /// Runs `f` inside a span named `name`, child of the span currently
    /// open on this lane.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.tracer.enabled {
            return f(self);
        }
        let start_ns = self.now_ns();
        let Some(idx) = self.push(name, op, start_ns, start_ns) else {
            return f(self);
        };
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }
}

impl Drop for Lane<'_> {
    fn drop(&mut self) {
        // A lane dropped while unwinding must not panic again; a poisoned
        // tracer just loses this lane's spans.
        if let Ok(mut st) = self.tracer.state.lock() {
            st.spans.append(&mut self.spans);
            st.dropped += self.dropped;
        }
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: its duration minus its direct children's
/// (children of one span run one after another on one lane, so their
/// durations do not overlap). A child that outlasts its parent is
/// clipped at zero rather than wrapping.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut own: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.dur_ns())).collect();
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(t) = own.get_mut(&p) {
                *t = t.saturating_sub(s.dur_ns());
            }
        }
    }
    own
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let own = self_times(spans);
    let mut by: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = by.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += own.get(&s.id).copied().unwrap_or(0);
    }
    by
}

/// The named residual of one path: `total - sum(layers)`. A negative
/// residual means the layers were measured larger than the path that
/// contains them, which no real decomposition can produce — an error,
/// not a number to report.
pub fn residual(total: f64, layers: &[(&str, f64)], residual_name: &str) -> Result<f64, String> {
    let sum: f64 = layers.iter().map(|(_, v)| v).sum();
    let r = total - sum;
    if r < 0.0 {
        let parts: Vec<String> = layers.iter().map(|(n, v)| format!("{n}={v}")).collect();
        return Err(format!(
            "negative residual {residual_name}={r}: layers {} sum to {sum}, above the traced total {total}",
            parts.join(" + ")
        ));
    }
    Ok(r)
}

/// The trace as a JSON document: one row per span.
pub fn to_json(spans: &[Span], dropped: u64) -> Json {
    Json::obj([
        (
            "columns",
            Json::Arr(["id", "parent", "name", "op", "start_ns", "end_ns"].map(Json::str).to_vec()),
        ),
        ("dropped", Json::Num(dropped as f64)),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        Json::Arr(vec![
                            Json::Num(s.id as f64),
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            Json::str(s.name),
                            Json::Num(s.op as f64),
                            Json::Num(s.start_ns as f64),
                            Json::Num(s.end_ns as f64),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name, op: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_the_span_minus_its_direct_children() {
        let spans = vec![
            span(1, None, "request", 0, 100),
            span(2, Some(1), "parse", 10, 30),
            span(3, Some(1), "predict", 30, 80),
            span(4, Some(3), "kernel", 40, 70),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 20 - 50, "grandchildren are not subtracted twice");
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 50 - 30);
        assert_eq!(own[&4], 30);
        // Self times partition the root: nothing is lost or counted twice.
        assert_eq!(own.values().sum::<u64>(), 100);
        let by = totals_by_name(&spans);
        assert_eq!(by["predict"], NameTotals { count: 1, total_ns: 50, self_ns: 20 });
    }

    #[test]
    fn a_child_longer_than_its_parent_clips_at_zero() {
        let spans = vec![span(1, None, "a", 0, 10), span(2, Some(1), "b", 0, 15)];
        assert_eq!(self_times(&spans)[&1], 0);
    }

    #[test]
    fn lanes_nest_spans_and_share_nothing_across_threads() {
        let tracer = Tracer::new(true);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let tracer = &tracer;
                s.spawn(move || {
                    let mut lane = tracer.lane();
                    lane.span("outer", t, |lane| {
                        lane.span("inner", t, |_| std::hint::black_box(1 + 1));
                    });
                });
            }
        });
        let (spans, dropped) = tracer.snapshot();
        assert_eq!(dropped, 0);
        assert_eq!(spans.len(), 4);
        for inner in spans.iter().filter(|s| s.name == "inner") {
            let parent = spans.iter().find(|s| Some(s.id) == inner.parent).expect("has a parent");
            assert_eq!(parent.name, "outer");
            assert_eq!(parent.op, inner.op, "a child nests under its own thread's span");
            assert!(parent.start_ns <= inner.start_ns && inner.end_ns <= parent.end_ns);
        }
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "ids are unique across lanes");
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let out = tracer.lane().span("x", 0, |_| 7);
        assert_eq!(out, 7);
        assert!(tracer.snapshot().0.is_empty());
    }

    #[test]
    fn residual_is_what_the_layers_leave_and_never_negative() {
        let layers = [("framing", 10.0), ("parse", 25.0)];
        assert_eq!(residual(100.0, &layers, "socket"), Ok(65.0));
        let err = residual(30.0, &layers, "socket").expect_err("35 > 30");
        assert!(err.contains("negative residual socket"), "{err}");
    }
}
