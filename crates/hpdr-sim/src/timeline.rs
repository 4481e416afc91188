//! Timeline records and derived metrics (makespan, engine busy time,
//! overlap ratio, per-category breakdowns).
//!
//! The overlap ratio follows the paper's definition (§V-C):
//!
//! ```text
//! Overlap = Total overlapped H2D and D2H time / Total H2D and D2H time
//! ```
//!
//! where a DMA-busy instant counts as *overlapped* if the owning device is
//! concurrently doing anything else (compute, or the opposite-direction
//! DMA).

use crate::sim::{DeviceId, Engine, OpId};
use crate::spec::KernelClass;
use crate::time::Ns;

/// One scheduled operation instance.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub label: String,
    pub engine: Engine,
    pub start: Ns,
    pub end: Ns,
    pub bytes: u64,
    pub class: Option<KernelClass>,
}

impl OpRecord {
    pub fn duration(&self) -> Ns {
        self.end - self.start
    }
}

/// Immutable result of a [`crate::Sim::run`].
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    records: Vec<OpRecord>,
}

/// High-level categories for time-breakdown reporting (paper Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    H2D,
    D2H,
    Compute,
    MemMgmt,
    Host,
}

impl Category {
    pub const ALL: [Category; 5] = [
        Category::H2D,
        Category::D2H,
        Category::Compute,
        Category::MemMgmt,
        Category::Host,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Category::H2D => "H2D copy",
            Category::D2H => "D2H copy",
            Category::Compute => "compute",
            Category::MemMgmt => "mem mgmt",
            Category::Host => "host",
        }
    }
}

fn categorize(e: Engine) -> Category {
    match e {
        Engine::H2D(_) => Category::H2D,
        Engine::D2H(_) => Category::D2H,
        Engine::Compute(_) => Category::Compute,
        Engine::Runtime(_) => Category::MemMgmt,
        Engine::Staging(_) => Category::Host,
        Engine::Host => Category::Host,
    }
}

/// Merge possibly-overlapping intervals into a disjoint sorted list.
fn merge(mut iv: Vec<(Ns, Ns)>) -> Vec<(Ns, Ns)> {
    iv.sort();
    let mut out: Vec<(Ns, Ns)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        if s >= e {
            continue;
        }
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

fn total(iv: &[(Ns, Ns)]) -> Ns {
    iv.iter().map(|&(s, e)| e - s).sum()
}

/// Total length of the intersection of two disjoint sorted interval lists.
fn intersection(a: &[(Ns, Ns)], b: &[(Ns, Ns)]) -> Ns {
    let (mut i, mut j) = (0, 0);
    let mut acc = Ns::ZERO;
    while i < a.len() && j < b.len() {
        let s = a[i].0.max(b[j].0);
        let e = a[i].1.min(b[j].1);
        if s < e {
            acc += e - s;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    acc
}

impl Timeline {
    pub(crate) fn new(records: Vec<OpRecord>) -> Timeline {
        Timeline { records }
    }

    pub fn record(&self, id: OpId) -> &OpRecord {
        &self.records[id.0]
    }

    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// End of the last op (total virtual time of the run).
    pub fn makespan(&self) -> Ns {
        self.records.iter().map(|r| r.end).max().unwrap_or(Ns::ZERO)
    }

    /// Total busy time of ops matching a predicate (sum of durations; ops
    /// on the same engine never overlap by construction).
    pub fn busy_where<F: Fn(&OpRecord) -> bool>(&self, pred: F) -> Ns {
        self.records
            .iter()
            .filter(|r| pred(r))
            .map(|r| r.duration())
            .sum()
    }

    /// Busy time of a specific engine.
    pub fn engine_busy(&self, engine: Engine) -> Ns {
        self.busy_where(|r| r.engine == engine)
    }

    /// Busy intervals of a specific engine, merged/disjoint.
    fn engine_intervals(&self, engine: Engine) -> Vec<(Ns, Ns)> {
        merge(
            self.records
                .iter()
                .filter(|r| r.engine == engine)
                .map(|r| (r.start, r.end))
                .collect(),
        )
    }

    /// Paper §V-C overlap ratio for one device.
    ///
    /// Returns `None` if the device performed no DMA at all.
    pub fn overlap_ratio(&self, dev: DeviceId) -> Option<f64> {
        let h2d = self.engine_intervals(Engine::H2D(dev));
        let d2h = self.engine_intervals(Engine::D2H(dev));
        let compute = self.engine_intervals(Engine::Compute(dev));
        let dma_total = total(&h2d) + total(&d2h);
        if dma_total.is_zero() {
            return None;
        }
        // H2D instants overlapped with (compute ∪ D2H):
        let other_for_h2d = merge([compute.clone(), d2h.clone()].concat());
        let other_for_d2h = merge([compute, h2d.clone()].concat());
        let overlapped = intersection(&h2d, &other_for_h2d) + intersection(&d2h, &other_for_d2h);
        Some(overlapped.0 as f64 / dma_total.0 as f64)
    }

    /// Per-category busy time (paper Fig. 1 style breakdown).
    pub fn breakdown(&self) -> Vec<(Category, Ns)> {
        Category::ALL
            .iter()
            .map(|&c| (c, self.busy_where(|r| categorize(r.engine) == c)))
            .collect()
    }

    /// Fraction of total busy time spent on memory operations
    /// (H2D + D2H + host buffer copies + mem-mgmt) — the paper's
    /// "34–89%" metric.
    pub fn memory_fraction(&self) -> f64 {
        let mut mem = Ns::ZERO;
        let mut all = Ns::ZERO;
        for r in &self.records {
            let d = r.duration();
            all += d;
            match categorize(r.engine) {
                Category::H2D | Category::D2H | Category::MemMgmt | Category::Host => mem += d,
                _ => {}
            }
        }
        if all.is_zero() {
            0.0
        } else {
            mem.0 as f64 / all.0 as f64
        }
    }

    /// Throughput in GB/s given a logical byte count for the whole run.
    pub fn throughput_gbps(&self, bytes: u64) -> f64 {
        crate::time::gbps(bytes, self.makespan())
    }

    /// Concatenate another timeline (e.g. from an independent device run),
    /// preserving both sets of records. Times are *not* shifted.
    pub fn extend(&mut self, other: Timeline) {
        self.records.extend(other.records);
    }

    /// Render a compact textual Gantt-ish dump, for debugging/reports.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for r in &self.records {
            let _ = writeln!(
                s,
                "{:>12} .. {:>12}  {:?}  {} ({} B)",
                r.start.to_string(),
                r.end.to_string(),
                r.engine,
                r.label,
                r.bytes
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(engine: Engine, start: u64, end: u64) -> OpRecord {
        OpRecord {
            label: String::new(),
            engine,
            start: Ns(start),
            end: Ns(end),
            bytes: 0,
            class: None,
        }
    }

    const D: DeviceId = DeviceId(0);

    #[test]
    fn merge_coalesces_adjacent_and_overlapping() {
        let m = merge(vec![
            (Ns(5), Ns(10)),
            (Ns(0), Ns(5)),
            (Ns(8), Ns(12)),
            (Ns(20), Ns(21)),
        ]);
        assert_eq!(m, vec![(Ns(0), Ns(12)), (Ns(20), Ns(21))]);
    }

    #[test]
    fn intersection_counts_shared_time() {
        let a = vec![(Ns(0), Ns(10)), (Ns(20), Ns(30))];
        let b = vec![(Ns(5), Ns(25))];
        assert_eq!(intersection(&a, &b), Ns(10)); // 5..10 and 20..25
    }

    #[test]
    fn makespan_is_last_end() {
        let tl = Timeline::new(vec![
            rec(Engine::Compute(D), 0, 10),
            rec(Engine::H2D(D), 3, 25),
        ]);
        assert_eq!(tl.makespan(), Ns(25));
    }

    #[test]
    fn full_overlap_ratio_is_one() {
        let tl = Timeline::new(vec![
            rec(Engine::Compute(D), 0, 100),
            rec(Engine::H2D(D), 10, 40),
            rec(Engine::D2H(D), 50, 90),
        ]);
        let r = tl.overlap_ratio(D).unwrap();
        assert!((r - 1.0).abs() < 1e-12, "r={r}");
    }

    #[test]
    fn no_overlap_ratio_is_zero() {
        let tl = Timeline::new(vec![
            rec(Engine::H2D(D), 0, 10),
            rec(Engine::Compute(D), 10, 20),
            rec(Engine::D2H(D), 20, 30),
        ]);
        let r = tl.overlap_ratio(D).unwrap();
        assert!(r.abs() < 1e-12, "r={r}");
    }

    #[test]
    fn partial_overlap_ratio() {
        // H2D busy 0..20; compute busy 10..30 ⇒ 10 of 20 DMA ns overlapped.
        let tl = Timeline::new(vec![
            rec(Engine::H2D(D), 0, 20),
            rec(Engine::Compute(D), 10, 30),
        ]);
        let r = tl.overlap_ratio(D).unwrap();
        assert!((r - 0.5).abs() < 1e-12, "r={r}");
    }

    #[test]
    fn h2d_overlapping_d2h_counts() {
        let tl = Timeline::new(vec![rec(Engine::H2D(D), 0, 10), rec(Engine::D2H(D), 0, 10)]);
        assert!((tl.overlap_ratio(D).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_none_without_dma() {
        let tl = Timeline::new(vec![rec(Engine::Compute(D), 0, 10)]);
        assert!(tl.overlap_ratio(D).is_none());
    }

    #[test]
    fn memory_fraction_counts_dma_and_mgmt() {
        let tl = Timeline::new(vec![
            rec(Engine::H2D(D), 0, 30),
            rec(Engine::Compute(D), 30, 40),
            rec(Engine::Runtime(crate::sim::RuntimeId(0)), 40, 50),
        ]);
        // mem = 30 + 10; all = 50.
        assert!((tl.memory_fraction() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn breakdown_sums_by_category() {
        let tl = Timeline::new(vec![
            rec(Engine::H2D(D), 0, 5),
            rec(Engine::H2D(D), 5, 9),
            rec(Engine::Compute(D), 0, 7),
        ]);
        let b = tl.breakdown();
        let h2d = b.iter().find(|(c, _)| *c == Category::H2D).unwrap().1;
        let comp = b.iter().find(|(c, _)| *c == Category::Compute).unwrap().1;
        assert_eq!(h2d, Ns(9));
        assert_eq!(comp, Ns(7));
    }
}
