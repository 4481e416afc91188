//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps its own calls into each layer's public functions
//! in spans (name, start, end, parent, work item). Spans stay in memory
//! until the run ends and are then written out as one JSON document.
//! Self time is a span's duration minus the durations of its children;
//! children of one parent never overlap because the recorder is used
//! from one thread, so "minus the covered part" is a plain subtraction.

use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// Work item the span belongs to (field, job payload or item index).
    pub item: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, item: u32) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            item,
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.now();
    }

    /// Time `f` as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, item: u32, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, item);
        let r = f();
        self.close(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Index the next span will get (marks the start of a pass).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Total duration in ms of spans named `name` recorded since `from`.
    pub fn sum_ms(&self, name: &str, from: usize) -> f64 {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .sum()
    }

    pub fn children_ns(&self, id: usize) -> u64 {
        self.spans[id + 1..]
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ns)
            .sum()
    }

    /// Duration minus the children's durations.
    pub fn self_ns(&self, id: usize) -> u64 {
        self.spans[id].ns().saturating_sub(self.children_ns(id))
    }

    /// Total self time in ms of spans named `name` recorded since `from`.
    pub fn self_ms(&self, name: &str, from: usize) -> f64 {
        (from..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ns(i) as f64 / 1e6)
            .sum()
    }

    /// The spans as a JSON array (one object per span, recording order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"item\": {}}}{}\n",
                s.name,
                s.start,
                s.end,
                s.item,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(n: u64) -> u64 {
        (0..n).fold(0u64, |a, x| std::hint::black_box(a.wrapping_add(x * x)))
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let mut t = Tracer::new();
        let root = t.open("root", 3);
        t.time("a", 3, || spin(200_000));
        t.time("b", 3, || spin(200_000));
        t.close(root);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(root));
        assert_eq!(s[2].item, 3);
        assert_eq!(t.children_ns(root), s[1].ns() + s[2].ns());
        assert_eq!(t.self_ns(root), s[0].ns() - s[1].ns() - s[2].ns());
        assert!(t.sum_ms("a", 0) > 0.0);
        assert_eq!(t.sum_ms("a", 2), 0.0);
        let doc = hpdr_metrics::parse_json(&t.to_json()).expect("spans are valid JSON");
        assert_eq!(doc.as_arr().map(<[_]>::len), Some(3));
    }
}
