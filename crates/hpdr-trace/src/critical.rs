//! Critical-path extraction through the happens-before DAG.
//!
//! The scheduler (`hpdr_sim::Sim::run`) starts each op at
//! `max(dep ends, queue tail, engine free)` — exactly the three
//! happens-before edge families of the static analyzer
//! (`hpdr-sim/verify`): explicit dependencies, queue program order and
//! engine serialization. Whenever an op starts later than t=0, one of
//! those three predecessors finished *exactly* at its start time, so
//! walking backward from the op that defines the makespan and always
//! stepping to a predecessor with `end == start` yields a chain of
//! back-to-back spans whose durations sum to the makespan — the ops
//! that bound end-to-end time. Shortening any op *off* this path cannot
//! improve the run.

use hpdr_sim::{Category, Ns, Trace};
use std::collections::HashMap;

/// The extracted critical path of a trace.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Op ids on the path, in execution order (first starts at the path
    /// start, last ends at the makespan).
    pub ops: Vec<usize>,
    /// Sum of the path ops' durations. Equals [`CriticalPath::makespan`]
    /// for any trace recorded by the scheduler.
    pub length: Ns,
    /// Makespan of the trace the path was extracted from.
    pub makespan: Ns,
    /// Path time per Fig. 1 category, in [`Category::ALL`] order.
    pub by_category: Vec<(Category, Ns)>,
}

impl CriticalPath {
    /// Path time spent in one category.
    pub fn category_time(&self, cat: Category) -> Ns {
        self.by_category
            .iter()
            .find(|(c, _)| *c == cat)
            .map(|(_, t)| *t)
            .unwrap_or(Ns::ZERO)
    }

    /// Fraction of the path on memory operations (everything but
    /// compute) — which share of the end-to-end bound sits on
    /// H2D/D2H/staging/mem-mgmt rather than kernels.
    pub fn memory_share(&self) -> f64 {
        if self.length.is_zero() {
            return 0.0;
        }
        let compute = self.category_time(Category::Compute);
        (self.length - compute).0 as f64 / self.length.0 as f64
    }
}

/// Extract the critical path of a trace.
///
/// Walks backward from the span with the latest end (ties: smallest op
/// id), at each step choosing a happens-before predecessor — explicit
/// dependency, queue predecessor or engine predecessor — whose end
/// equals the current op's start (ties: smallest op id). For traces
/// recorded by the scheduler such a predecessor always exists while
/// `start > 0`; for hand-built traces with gaps the walk falls back to
/// the latest-ending predecessor and the gap simply isn't attributed.
pub fn critical_path(trace: &Trace) -> CriticalPath {
    let spans = trace.spans();
    let makespan = trace.makespan();
    if spans.is_empty() {
        return CriticalPath {
            ops: Vec::new(),
            length: Ns::ZERO,
            makespan,
            by_category: Category::ALL.iter().map(|&c| (c, Ns::ZERO)).collect(),
        };
    }

    // Index spans by op id and find each op's queue/engine predecessor
    // by scanning in submission order (ops are submitted in id order).
    let mut index_of: HashMap<usize, usize> = HashMap::with_capacity(spans.len());
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| spans[i].op);
    let mut queue_pred: HashMap<usize, usize> = HashMap::new();
    let mut engine_pred: HashMap<usize, usize> = HashMap::new();
    let mut queue_last: HashMap<usize, usize> = HashMap::new();
    let mut engine_last: HashMap<hpdr_sim::Engine, usize> = HashMap::new();
    for &i in &order {
        let s = &spans[i];
        index_of.insert(s.op, i);
        if let Some(q) = s.queue {
            if let Some(&prev) = queue_last.get(&q) {
                queue_pred.insert(s.op, prev);
            }
            queue_last.insert(q, s.op);
        }
        if let Some(&prev) = engine_last.get(&s.engine) {
            engine_pred.insert(s.op, prev);
        }
        engine_last.insert(s.engine, s.op);
    }

    // Terminal op: latest end, smallest op id on ties.
    let terminal = order
        .iter()
        .copied()
        .max_by(|&a, &b| {
            spans[a]
                .end
                .cmp(&spans[b].end)
                .then(spans[b].op.cmp(&spans[a].op))
        })
        .expect("non-empty");

    let mut path_rev: Vec<usize> = Vec::new();
    let mut cur = terminal;
    loop {
        path_rev.push(spans[cur].op);
        let start = spans[cur].start;
        if start.is_zero() {
            break;
        }
        let mut candidates: Vec<usize> = spans[cur].deps.clone();
        if let Some(&p) = queue_pred.get(&spans[cur].op) {
            candidates.push(p);
        }
        if let Some(&p) = engine_pred.get(&spans[cur].op) {
            candidates.push(p);
        }
        candidates.sort_unstable();
        candidates.dedup();
        let binding = candidates
            .iter()
            .copied()
            .filter_map(|op| index_of.get(&op).copied())
            .filter(|&i| spans[i].end == start)
            .min_by_key(|&i| spans[i].op);
        let next = binding.or_else(|| {
            // Gap (hand-built trace): step to the latest-ending
            // predecessor that finished before our start.
            candidates
                .iter()
                .copied()
                .filter_map(|op| index_of.get(&op).copied())
                .filter(|&i| spans[i].end <= start)
                .max_by(|&a, &b| {
                    spans[a]
                        .end
                        .cmp(&spans[b].end)
                        .then(spans[b].op.cmp(&spans[a].op))
                })
        });
        match next {
            Some(n) => cur = n,
            None => break,
        }
    }
    path_rev.reverse();

    let mut by_category: Vec<(Category, Ns)> =
        Category::ALL.iter().map(|&c| (c, Ns::ZERO)).collect();
    let mut length = Ns::ZERO;
    for op in &path_rev {
        let s = &spans[index_of[op]];
        let d = s.duration();
        length += d;
        by_category[Category::of(s.engine) as usize].1 += d;
    }

    CriticalPath {
        ops: path_rev,
        length,
        makespan,
        by_category,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_sim::{DeviceId, Engine, KernelClass, OpKind, SpanRecord};

    fn span(
        op: usize,
        engine: Engine,
        queue: Option<usize>,
        deps: Vec<usize>,
        start: u64,
        end: u64,
    ) -> SpanRecord {
        SpanRecord {
            op,
            label: format!("op{op}"),
            engine,
            queue,
            deps,
            kind: match engine {
                Engine::Compute(_) => OpKind::Kernel,
                Engine::H2D(_) | Engine::D2H(_) => OpKind::Transfer,
                _ => OpKind::Fixed,
            },
            class: matches!(engine, Engine::Compute(_)).then_some(KernelClass::Other),
            start: Ns(start),
            end: Ns(end),
            bytes: 0,
            footprint_bytes: 0,
            ready: Ns(start),
            wall_start: Ns::ZERO,
            wall: Ns::ZERO,
        }
    }

    fn d0() -> DeviceId {
        DeviceId(0)
    }

    #[test]
    fn empty_trace_has_empty_path() {
        let cp = critical_path(&Trace::from_spans(vec![]));
        assert!(cp.ops.is_empty());
        assert_eq!(cp.length, Ns::ZERO);
    }

    /// Hand-built DAG mirroring a 2-chunk pipeline:
    ///
    /// ```text
    /// op0 h2d(a)   [0,100)   queue 0
    /// op1 k(a)     [100,250) queue 0, dep 0      <- critical
    /// op2 h2d(b)   [100,200) queue 1 (engine pred: op0)
    /// op3 k(b)     [250,380) queue 1, dep 2 (engine pred: op1) <- critical
    /// op4 d2h(b)   [380,400) queue 1, dep 3      <- critical
    /// ```
    ///
    /// The expected exact chain is 0 → 1 → 3 → 4: op3 starts when the
    /// compute engine frees (end of op1), not when its dep (op2, ends
    /// 200) is ready — engine serialization is on the bound.
    #[test]
    fn known_dag_returns_exact_chain() {
        let trace = Trace::from_spans(vec![
            span(0, Engine::H2D(d0()), Some(0), vec![], 0, 100),
            span(1, Engine::Compute(d0()), Some(0), vec![0], 100, 250),
            span(2, Engine::H2D(d0()), Some(1), vec![], 100, 200),
            span(3, Engine::Compute(d0()), Some(1), vec![2], 250, 380),
            span(4, Engine::D2H(d0()), Some(1), vec![3], 380, 400),
        ]);
        let cp = critical_path(&trace);
        assert_eq!(cp.ops, vec![0, 1, 3, 4]);
        assert_eq!(cp.length, Ns(400));
        assert_eq!(cp.makespan, Ns(400));
        assert_eq!(cp.category_time(Category::Compute), Ns(280));
        assert_eq!(cp.category_time(Category::H2D), Ns(100));
        assert_eq!(cp.category_time(Category::D2H), Ns(20));
        assert!((cp.memory_share() - 120.0 / 400.0).abs() < 1e-12);
    }

    #[test]
    fn queue_order_edge_is_followed() {
        // op1 has no deps but queues behind op0; the path must use the
        // queue program-order edge.
        let trace = Trace::from_spans(vec![
            span(0, Engine::H2D(d0()), Some(0), vec![], 0, 60),
            span(1, Engine::Compute(d0()), Some(0), vec![], 60, 150),
        ]);
        let cp = critical_path(&trace);
        assert_eq!(cp.ops, vec![0, 1]);
        assert_eq!(cp.length, Ns(150));
    }

    #[test]
    fn gap_fallback_does_not_panic() {
        // op1 starts at 80 but its only predecessor ends at 50 (a gap a
        // scheduler trace can't produce).
        let trace = Trace::from_spans(vec![
            span(0, Engine::H2D(d0()), Some(0), vec![], 0, 50),
            span(1, Engine::Compute(d0()), Some(1), vec![0], 80, 150),
        ]);
        let cp = critical_path(&trace);
        assert_eq!(cp.ops, vec![0, 1]);
        assert_eq!(cp.length, Ns(120)); // durations only; gap unattributed
        assert_eq!(cp.makespan, Ns(150));
    }
}
