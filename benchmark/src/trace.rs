//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions. Nothing inside the program is traced.
//!
//! A span records its name, start, end and parent. The per-layer metrics
//! are derived from the spans after the run: busy time, count, and self
//! time (a span's duration minus the part of it its children cover).

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within one tracer.
    pub id: usize,
    /// Layer-qualified name, e.g. `"distill.train_student_epochs"`.
    pub name: &'static str,
    /// The span that was open on the same thread when this one started.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

thread_local! {
    static OPEN: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Records spans when on; when off, [`Tracer::span`] only calls its closure.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`on`) or does nothing (`!on`).
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| o.replace(Some(id)));
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        OPEN.with(|o| o.set(parent));
        let span = Span { id, name, parent, start, end };
        self.spans.lock().expect("a span recorder panicked").push(span);
        out
    }

    /// Every span finished so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("a span recorder panicked").clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Self time of each span, in order: its duration minus the union of its
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            kids.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut iv: Vec<(u64, u64)> = kids
                .get(&span.id)
                .into_iter()
                .flatten()
                .map(|&(a, b)| (a.max(span.start), b.min(span.end)))
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            span.dur() - covered
        })
        .collect()
}

/// Durations (ns) of every span named `name`, in id order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur() as f64).collect()
}

/// Median duration in milliseconds of the spans named `name`.
pub fn median_ms(spans: &[Span], name: &str) -> f64 {
    crate::stats::median(&durations(spans, name)) / 1e6
}

/// Total busy time in seconds of the spans named `name`.
pub fn busy_s(spans: &[Span], name: &str) -> f64 {
    durations(spans, name).iter().sum::<f64>() / 1e9
}

/// Renders spans as JSON lines with their self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id,
            s.name,
            parent,
            s.start,
            s.end,
            own
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: usize, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span { id, name: "x", parent, start, end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            sp(0, None, 0, 100),
            sp(1, Some(0), 10, 30),
            // overlaps child 1 (another thread): counted once
            sp(2, Some(0), 20, 40),
            sp(3, Some(0), 60, 70),
            // grandchild: covered by its parent, not by the root directly
            sp(4, Some(3), 61, 69),
            // runs past the root's end: clipped
            sp(5, Some(0), 95, 120),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 30 - 10 - 5);
        assert_eq!(own[3], 10 - 8);
        assert_eq!(own[4], 8);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a", || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let t = Tracer::new(true);
        t.span("outer", || {
            t.span("inner", || {});
            t.span("inner", || {});
        });
        t.span("after", || {});
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.parent, None);
        let inner: Vec<_> = spans.iter().filter(|s| s.name == "inner").collect();
        assert!(inner.iter().all(|s| s.parent == Some(outer.id)));
        assert!(inner.iter().all(|s| s.start >= outer.start && s.end <= outer.end));
        assert_eq!(spans.iter().find(|s| s.name == "after").unwrap().parent, None);
        let kids: u64 = inner.iter().map(|s| s.dur()).sum();
        let at = spans.iter().position(|s| s.id == outer.id).unwrap();
        assert_eq!(self_times(&spans)[at], outer.dur() - kids);
        assert_eq!(durations(&spans, "inner").len(), 2);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let spans = vec![sp(0, None, 0, 10), sp(1, Some(0), 2, 5)];
        let text = to_jsonl(&spans);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"parent\":0"));
        assert!(text.contains("\"self_ns\":7"));
    }
}
