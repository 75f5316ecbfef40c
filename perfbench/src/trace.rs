//! Host-time spans around the benchmark's calls into each layer.
//!
//! A span carries a layer name, start, end, parent span and item id. Spans
//! stay in memory and are written once, at exit, as chrome-trace JSON on a
//! process lane of their own ([`PID_HOST`]), marked nondeterministic: they
//! are wall-clock times and never enter the byte-stable modeled-time
//! traces. When tracing is off, [`Tracer::begin`] and [`Tracer::end`] do
//! nothing.

use memconv_obs::{ArgValue, TraceEvent};
use std::collections::BTreeMap;
use std::time::Instant;

/// Chrome-trace process id of the host-time lane (the modeled-time lanes
/// use 1–5, see `memconv_obs::timeline`).
pub const PID_HOST: u32 = 16;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the call went into (`core.ours`, `serve.fleet`, ...).
    pub layer: &'static str,
    /// Start, seconds since the tracer was created.
    pub start_s: f64,
    /// End, seconds since the tracer was created.
    pub end_s: f64,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// The workload item the call served.
    pub item: u64,
}

/// Open-span handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span recorder; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span for `layer`; it nests under the innermost open span.
    pub fn begin(&mut self, layer: &'static str, item: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        let start_s = self.t0.elapsed().as_secs_f64();
        self.spans.push(Span {
            layer,
            start_s,
            end_s: start_s,
            parent: self.open.last().copied(),
            item,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Close a span opened by [`Tracer::begin`] (spans close innermost
    /// first).
    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_s = self.t0.elapsed().as_secs_f64();
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, layer: &'static str, item: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(layer, item);
        let r = f();
        self.end(id);
        r
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times_s(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end_s - s.start_s).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_s - s.start_s;
            }
        }
        own
    }

    /// Per layer: total self seconds and span count.
    pub fn by_layer(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times_s()) {
            let e = out.entry(s.layer).or_insert((0.0, 0));
            e.0 += own;
            e.1 += 1;
        }
        out
    }

    /// Total self seconds of one layer.
    pub fn self_s(&self, layer: &str) -> f64 {
        self.by_layer().get(layer).map_or(0.0, |e| e.0)
    }

    /// Span count of one layer.
    pub fn count(&self, layer: &str) -> u64 {
        self.by_layer().get(layer).map_or(0, |e| e.1)
    }

    /// The spans as chrome-trace events on the host-time lane.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.spans
            .iter()
            .zip(self.self_times_s())
            .enumerate()
            .map(|(i, (s, own))| TraceEvent {
                name: s.layer.to_string(),
                cat: "host-nondeterministic".to_string(),
                ts_us: s.start_s * 1e6,
                dur_us: (s.end_s - s.start_s) * 1e6,
                pid: PID_HOST,
                tid: 0,
                args: vec![
                    ("span".into(), ArgValue::U64(i as u64)),
                    (
                        "parent".into(),
                        s.parent
                            .map_or(ArgValue::Str("none".into()), |p| ArgValue::U64(p as u64)),
                    ),
                    ("item".into(), ArgValue::U64(s.item)),
                    ("self_us".into(), ArgValue::F64(own * 1e6)),
                ],
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 0);
        let inner = t.begin("inner", 0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(inner);
        t.end(outer);
        let own = t.self_times_s();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(own[1] >= 0.004);
        assert!(own[0] < own[1]);
        assert_eq!(t.count("inner"), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", 1, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
