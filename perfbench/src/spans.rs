//! In-memory span recorder for the traced run.
//!
//! Each span is one call into a layer's public function (or one whole
//! operation): name, wall-clock start and end, the enclosing span and
//! the operation it belongs to, plus the allocation count at both
//! boundaries. The spans are kept until the run ends and then written
//! as Chrome trace-event JSON, the format `vpcec --trace` writes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    pub allocs_start: u64,
    pub allocs_end: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
    fn allocs(&self) -> u64 {
        self.allocs_end - self.allocs_start
    }
}

/// The recorder: spans in start order plus the stack of open spans.
pub struct Spans {
    epoch: Instant,
    alloc_count: fn() -> u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// What one layer cost over the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCost {
    pub calls: u64,
    /// Span time minus the time of its child spans, milliseconds.
    pub self_ms: f64,
    /// Span time including children, milliseconds.
    pub total_ms: f64,
    /// Allocations inside the span minus those of its child spans.
    pub self_allocs: u64,
}

impl Spans {
    /// A recorder reading allocation counts from `alloc_count`.
    pub fn new(alloc_count: fn() -> u64) -> Self {
        Spans {
            epoch: Instant::now(),
            alloc_count,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Later spans belong to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Record `f` as a span named `name`, nested in the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
            allocs_start: (self.alloc_count)(),
            allocs_end: 0,
        });
        self.open.push(id);
        self.spans[id].start_ns = self.now_ns();
        let out = f(self);
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].allocs_end = (self.alloc_count)();
        self.open.pop();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name cost: self time (duration minus child durations; the
    /// children of a span are sequential, so their union is their sum)
    /// and inclusive time.
    pub fn layer_costs(&self) -> BTreeMap<&'static str, LayerCost> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
                child_allocs[p] += s.allocs();
            }
        }
        let mut out: BTreeMap<&'static str, LayerCost> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let c = out.entry(s.name).or_default();
            c.calls += 1;
            c.self_ms += s.dur_ns().saturating_sub(child_ns[i]) as f64 / 1e6;
            c.total_ms += s.dur_ns() as f64 / 1e6;
            c.self_allocs += s.allocs().saturating_sub(child_allocs[i]);
        }
        out
    }

    /// Share (0..=1) of the time of the spans named `root` that no
    /// child span covers.
    pub fn uncovered_share(&self, root: &str) -> f64 {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        let (mut total, mut bare) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == root {
                total += s.dur_ns();
                bare += s.dur_ns().saturating_sub(covered[i]);
            }
        }
        if total == 0 {
            0.0
        } else {
            bare as f64 / total as f64
        }
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per
    /// span on a single `perfbench` thread lane, microsecond times.
    pub fn to_chrome_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[\n");
        let _ = write!(
            s,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{{\"name\":\"perfbench host\"}}}}"
        );
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                s,
                ",\n{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{},\"allocs\":{}}}}}",
                sp.name,
                sp.start_ns as f64 / 1e3,
                sp.dur_ns() as f64 / 1e3,
                i,
                parent,
                sp.op,
                sp.allocs()
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static FAKE_ALLOCS: AtomicU64 = AtomicU64::new(0);
    fn fake_allocs() -> u64 {
        FAKE_ALLOCS.load(Ordering::SeqCst)
    }

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_excludes_children_and_nesting_is_recorded() {
        let mut sp = Spans::new(fake_allocs);
        sp.set_op(7);
        sp.span("op", |sp| {
            spin(200_000);
            sp.span("fe", |_| {
                FAKE_ALLOCS.fetch_add(3, Ordering::SeqCst);
                spin(300_000)
            });
            FAKE_ALLOCS.fetch_add(2, Ordering::SeqCst);
        });
        let s = sp.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].parent, None);
        assert!(s.iter().all(|x| x.op == 7));
        let costs = sp.layer_costs();
        let (op, fe) = (costs["op"], costs["fe"]);
        assert!(fe.self_ms >= 0.3);
        assert!((op.total_ms - op.self_ms - fe.total_ms).abs() < 1e-9);
        assert_eq!(fe.self_allocs, 3);
        assert_eq!(op.self_allocs, 2);
        let bare = sp.uncovered_share("op");
        assert!(bare > 0.0 && bare < 1.0, "{bare}");
    }

    #[test]
    fn chrome_json_has_one_complete_event_per_span() {
        let mut sp = Spans::new(fake_allocs);
        sp.span("a", |sp| sp.span("b", |_| ()));
        let json = sp.to_chrome_json();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"parent\":0"));
        assert!(json.starts_with("{\"traceEvents\":["));
    }
}
