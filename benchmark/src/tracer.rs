//! Host-time spans recorded from the benchmark's side of every layer
//! boundary. Spans stay in memory and are written as Chrome-trace JSON
//! when the run ends; a disabled tracer is one branch per call.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (`layer.call`); per-layer time metrics are keyed on it.
    pub name: &'static str,
    /// The crate whose public function the span wraps.
    pub layer: &'static str,
    /// The op the span belongs to (shared by every span of one op).
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Span duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or passes calls straight through.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            layer,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Adds `n` to a named count, recorded at the same boundary as the
    /// spans it divides (a disabled tracer counts nothing).
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    /// A named count (zero if never counted).
    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
    }

    /// Total duration (ns) of every span with this name.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time per layer in ns: each span's duration minus what its
    /// direct children cover.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.layer).or_insert(0) += s.dur_ns().saturating_sub(child_ns[i]);
        }
        out
    }

    /// Chrome-trace JSON (`chrome://tracing`, `ui.perfetto.dev`): one
    /// complete event per span, one track per layer.
    pub fn chrome_trace_json(&self) -> String {
        let mut layers: Vec<&'static str> = self.spans.iter().map(|s| s.layer).collect();
        layers.sort_unstable();
        layers.dedup();
        let mut out = String::with_capacity(self.spans.len() * 128 + 64);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (tid, layer) in layers.iter().enumerate() {
            if tid > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{layer}\"}}}}"
            ));
        }
        for (i, s) in self.spans.iter().enumerate() {
            let tid = layers.binary_search(&s.layer).expect("layer was collected above");
            out.push_str(&format!(
                ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"op\":{},\"parent\":{}}}}}",
                s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op,
                s.parent.map_or("null".to_string(), |p| p.to_string())
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.span("bench.op", "bench", |t| {
            t.span("a.x", "a", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            t.span("b.y", "b", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        let own = t.layer_self_ns();
        assert!(own["a"] >= 2_000_000 && own["b"] >= 2_000_000);
        assert!(own["bench"] < own["a"], "the root's self time excludes its children");
        assert!(crate::json::parse(&t.chrome_trace_json()).is_ok());

        let mut off = Tracer::new(false);
        assert_eq!(off.span("a.x", "a", |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
