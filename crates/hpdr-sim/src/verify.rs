//! Static hazard analysis of a submitted op-DAG.
//!
//! The pipeline schedules in this codebase (paper Fig. 9) are correct
//! only if the *declared* event dependencies order every conflicting
//! buffer access — exactly the property a real CUDA/HIP runtime will not
//! check for you. This module verifies it before virtual-time execution:
//!
//! 1. **Structure** — dependencies must point at earlier submissions
//!    (forward/dangling/self deps are launch-order bugs), and the dep
//!    graph must be acyclic (a cycle is a guaranteed deadlock: every op
//!    waits on an event that transitively waits on it).
//! 2. **Happens-before** — from three edge families mirroring the
//!    runtime model: explicit event deps, queue program order, and
//!    engine serialization (each engine executes one op at a time in
//!    submission order, paper §V-B).
//! 3. **Effect conflicts** — two accesses to the same [`BufId`] where at
//!    least one writes/allocs/frees must be HB-ordered; unordered pairs
//!    are **data races**, accesses unordered-with or after a free are
//!    **use-after-free**, double frees and use-before-alloc likewise.
//!
//! The analysis is exact with respect to the machine model (no false
//! positives: an unordered conflicting pair really can interleave under
//! some legal engine timing), and reports a minimal unordered pair per
//! hazard for diagnosis.

use crate::effects::Effects;
use crate::mem::BufId;
use crate::sim::Engine;

/// Coarse operation class, preserved from [`crate::Cost`] for linting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// DMA transfer (static or dynamic size).
    Transfer,
    /// Compute kernel.
    Kernel,
    /// Runtime allocator call.
    Alloc,
    /// Runtime free call.
    Free,
    /// Host staging copy.
    HostCopy,
    /// Fixed-duration op.
    Fixed,
}

/// One operation of the DAG under analysis.
#[derive(Debug, Clone)]
pub struct DagOp {
    pub label: String,
    pub engine: Engine,
    /// Queue index, if the op was submitted to a queue.
    pub queue: Option<usize>,
    /// Indices of ops this op waits on (event dependencies).
    pub deps: Vec<usize>,
    pub effects: Effects,
    pub kind: OpKind,
}

/// A submission-ordered op-DAG (index order = submission order).
#[derive(Debug, Clone, Default)]
pub struct Dag {
    pub ops: Vec<DagOp>,
}

impl Dag {
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Label of op `i`, safe on any index.
    pub fn label(&self, i: usize) -> &str {
        self.ops.get(i).map(|o| o.label.as_str()).unwrap_or("?")
    }
}

/// A hazard found by [`analyze`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hazard {
    /// `op` depends on an op submitted after it (illegal in the model:
    /// events can only be recorded on earlier submissions).
    ForwardDep { op: usize, dep: usize },
    /// `op` depends on an index that was never submitted.
    DanglingDep { op: usize, dep: usize },
    /// `op` depends on itself.
    SelfDep { op: usize },
    /// A dependency cycle — guaranteed deadlock. Ops listed in cycle order.
    Deadlock { cycle: Vec<usize> },
    /// Conflicting accesses to `buf` with no happens-before edge.
    DataRace {
        buf: BufId,
        first: usize,
        second: usize,
    },
    /// `access` touches `buf` after — or unordered with — `free`.
    UseAfterFree {
        buf: BufId,
        access: usize,
        free: usize,
        /// True when free →HB→ access (definite); false when unordered.
        definite: bool,
    },
    /// Two frees of the same buffer.
    DoubleFree {
        buf: BufId,
        first: usize,
        second: usize,
    },
    /// `access` touches `buf` before — or unordered with — its `alloc`.
    UseBeforeAlloc {
        buf: BufId,
        access: usize,
        alloc: usize,
    },
}

impl Hazard {
    /// Stable machine-readable kind tag.
    pub fn kind(&self) -> &'static str {
        match self {
            Hazard::ForwardDep { .. } => "forward-dep",
            Hazard::DanglingDep { .. } => "dangling-dep",
            Hazard::SelfDep { .. } => "self-dep",
            Hazard::Deadlock { .. } => "deadlock",
            Hazard::DataRace { .. } => "data-race",
            Hazard::UseAfterFree { .. } => "use-after-free",
            Hazard::DoubleFree { .. } => "double-free",
            Hazard::UseBeforeAlloc { .. } => "use-before-alloc",
        }
    }

    /// Human-readable diagnostic with op labels.
    pub fn describe(&self, dag: &Dag) -> String {
        match self {
            Hazard::ForwardDep { op, dep } => format!(
                "forward dependency: op #{op} '{}' waits on later submission #{dep} '{}'",
                dag.label(*op),
                dag.label(*dep)
            ),
            Hazard::DanglingDep { op, dep } => format!(
                "dangling dependency: op #{op} '{}' waits on #{dep}, which was never submitted",
                dag.label(*op)
            ),
            Hazard::SelfDep { op } => {
                format!(
                    "self dependency: op #{op} '{}' waits on itself",
                    dag.label(*op)
                )
            }
            Hazard::Deadlock { cycle } => {
                let names: Vec<String> = cycle
                    .iter()
                    .map(|&i| format!("#{i} '{}'", dag.label(i)))
                    .collect();
                format!("dependency cycle (deadlock): {}", names.join(" -> "))
            }
            Hazard::DataRace { buf, first, second } => format!(
                "data race on buffer {}: #{first} '{}' and #{second} '{}' conflict \
                 with no happens-before edge",
                buf.index(),
                dag.label(*first),
                dag.label(*second)
            ),
            Hazard::UseAfterFree {
                buf,
                access,
                free,
                definite,
            } => format!(
                "use-after-free on buffer {}: #{access} '{}' is {} free #{free} '{}'",
                buf.index(),
                dag.label(*access),
                if *definite {
                    "ordered after"
                } else {
                    "unordered with"
                },
                dag.label(*free)
            ),
            Hazard::DoubleFree { buf, first, second } => format!(
                "double free of buffer {}: #{first} '{}' and #{second} '{}'",
                buf.index(),
                dag.label(*first),
                dag.label(*second)
            ),
            Hazard::UseBeforeAlloc { buf, access, alloc } => format!(
                "use-before-alloc on buffer {}: #{access} '{}' is not ordered after \
                 alloc #{alloc} '{}'",
                buf.index(),
                dag.label(*access),
                dag.label(*alloc)
            ),
        }
    }
}

/// Happens-before relation over a structurally valid DAG, as per-op
/// predecessor bitsets (O(N²/64) memory; pipeline DAGs are small).
pub struct Reachability {
    words: usize,
    rows: Vec<u64>,
}

impl Reachability {
    /// Compute HB from explicit deps + queue program order + engine
    /// serialization. Requires deps to point strictly earlier (checked
    /// by the structural pass); returns `None` otherwise.
    pub fn compute(dag: &Dag) -> Option<Reachability> {
        let n = dag.len();
        for (i, op) in dag.ops.iter().enumerate() {
            if op.deps.iter().any(|&d| d >= i) {
                return None;
            }
        }
        let words = n.div_ceil(64);
        let mut rows = vec![0u64; n * words];
        let mut last_on_queue: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        let mut last_on_engine: std::collections::HashMap<Engine, usize> =
            std::collections::HashMap::new();
        for (i, op) in dag.ops.iter().enumerate() {
            let mut preds: Vec<usize> = op.deps.clone();
            if let Some(q) = op.queue {
                if let Some(&p) = last_on_queue.get(&q) {
                    preds.push(p);
                }
                last_on_queue.insert(q, i);
            }
            if let Some(&p) = last_on_engine.get(&op.engine) {
                preds.push(p);
            }
            last_on_engine.insert(op.engine, i);
            for p in preds {
                // row_i |= row_p; row_i |= {p}
                let (lo, hi) = if p < i { (p, i) } else { (i, p) };
                debug_assert!(lo == p);
                let (head, tail) = rows.split_at_mut(hi * words);
                let row_p = &head[lo * words..lo * words + words];
                let row_i = &mut tail[..words];
                for w in 0..words {
                    row_i[w] |= row_p[w];
                }
                row_i[p / 64] |= 1u64 << (p % 64);
            }
        }
        Some(Reachability { words, rows })
    }

    /// Whether op `a` happens-before op `b`.
    pub fn ordered(&self, a: usize, b: usize) -> bool {
        a != b && (self.rows[b * self.words + a / 64] >> (a % 64)) & 1 == 1
    }

    /// Whether `a` and `b` are ordered either way.
    pub fn ordered_either(&self, a: usize, b: usize) -> bool {
        self.ordered(a, b) || self.ordered(b, a)
    }

    /// Number of 64-bit words per predecessor row (bitsets over ops).
    pub fn row_words(&self) -> usize {
        self.words
    }

    /// Predecessor bitset of op `i`: bit `p` is set iff `p` happens-before
    /// `i`. The schedule-space explorer uses these rows to decide which
    /// ops are ready given an executed set.
    pub fn preds(&self, i: usize) -> &[u64] {
        &self.rows[i * self.words..(i + 1) * self.words]
    }
}

/// Cap on reported hazards per buffer (a broken schedule repeats the
/// same pattern for every chunk; the first few pairs tell the story).
const PER_BUFFER_HAZARD_CAP: usize = 4;

/// Result of [`analyze`].
#[derive(Debug, Default)]
pub struct VerifyReport {
    pub hazards: Vec<Hazard>,
    pub num_ops: usize,
    /// Conflicting access pairs that were checked against HB.
    pub checked_pairs: usize,
    /// Hazards suppressed by the per-buffer cap.
    pub truncated: usize,
}

impl VerifyReport {
    pub fn is_clean(&self) -> bool {
        self.hazards.is_empty()
    }

    /// Multi-line human-readable report.
    pub fn describe(&self, dag: &Dag) -> String {
        if self.is_clean() {
            return format!(
                "schedule verified: {} ops, {} conflicting pairs all ordered",
                self.num_ops, self.checked_pairs
            );
        }
        let mut out = format!(
            "schedule verification FAILED: {} hazard(s) in {} ops",
            self.hazards.len(),
            self.num_ops
        );
        for h in &self.hazards {
            out.push_str("\n  - ");
            out.push_str(&h.describe(dag));
        }
        if self.truncated > 0 {
            out.push_str(&format!(
                "\n  ({} further hazard(s) suppressed by the per-buffer cap)",
                self.truncated
            ));
        }
        out
    }

    /// Machine-readable JSON report (hand-rolled; no serde offline).
    pub fn to_json(&self, dag: &Dag) -> String {
        let mut items = Vec::with_capacity(self.hazards.len());
        for h in &self.hazards {
            items.push(format!(
                "{{\"kind\":\"{}\",\"detail\":\"{}\"}}",
                h.kind(),
                crate::json::esc(&h.describe(dag))
            ));
        }
        format!(
            "{{\"ops\":{},\"checked_pairs\":{},\"hazards\":[{}],\"truncated\":{}}}",
            self.num_ops,
            self.checked_pairs,
            items.join(","),
            self.truncated
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessKind {
    Read,
    Write,
    Alloc,
    Free,
}

/// Run the full static analysis over a DAG.
pub fn analyze(dag: &Dag) -> VerifyReport {
    let mut report = VerifyReport {
        num_ops: dag.len(),
        ..VerifyReport::default()
    };
    structural_hazards(dag, &mut report.hazards);
    if !report.hazards.is_empty() {
        // Ordering is undefined under structural errors; effect analysis
        // would only produce noise on top of the real defect.
        return report;
    }
    let reach = Reachability::compute(dag).expect("structurally valid DAG");
    effect_hazards(dag, &reach, &mut report);
    report
}

fn structural_hazards(dag: &Dag, out: &mut Vec<Hazard>) {
    let n = dag.len();
    for (i, op) in dag.ops.iter().enumerate() {
        for &d in &op.deps {
            if d >= n {
                out.push(Hazard::DanglingDep { op: i, dep: d });
            } else if d == i {
                out.push(Hazard::SelfDep { op: i });
            } else if d > i {
                out.push(Hazard::ForwardDep { op: i, dep: d });
            }
        }
    }
    // Cycle detection over explicit dep edges (only cycles through valid
    // indices can deadlock; dangling deps were reported above).
    if let Some(cycle) = find_cycle(dag) {
        out.push(Hazard::Deadlock { cycle });
    }
}

/// Iterative three-color DFS over dep edges; returns one cycle if any.
fn find_cycle(dag: &Dag) -> Option<Vec<usize>> {
    let n = dag.len();
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color = vec![Color::White; n];
    let mut parent = vec![usize::MAX; n];
    for root in 0..n {
        if color[root] != Color::White {
            continue;
        }
        // Stack of (node, next dep index to visit).
        let mut stack = vec![(root, 0usize)];
        color[root] = Color::Grey;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let deps = &dag.ops[node].deps;
            if *next >= deps.len() {
                color[node] = Color::Black;
                stack.pop();
                continue;
            }
            let d = deps[*next];
            *next += 1;
            if d >= n {
                continue;
            }
            match color[d] {
                Color::White => {
                    parent[d] = node;
                    color[d] = Color::Grey;
                    stack.push((d, 0));
                }
                Color::Grey => {
                    // Found a back edge node -> d; unwind the cycle.
                    let mut cycle = vec![d];
                    let mut cur = node;
                    while cur != d && cur != usize::MAX {
                        cycle.push(cur);
                        cur = parent[cur];
                    }
                    cycle.reverse();
                    return Some(cycle);
                }
                Color::Black => {}
            }
        }
    }
    None
}

fn effect_hazards(dag: &Dag, reach: &Reachability, report: &mut VerifyReport) {
    use std::collections::HashMap;
    // buf -> [(op, kind)], in submission order.
    let mut accesses: HashMap<BufId, Vec<(usize, AccessKind)>> = HashMap::new();
    for (i, op) in dag.ops.iter().enumerate() {
        let fx = &op.effects;
        let mut push = |buf: BufId, kind: AccessKind| {
            accesses.entry(buf).or_default().push((i, kind));
        };
        for &b in &fx.writes {
            push(b, AccessKind::Write);
        }
        for &b in &fx.reads {
            // A buffer declared in both reads and writes is a write for
            // conflict purposes; skip the duplicate entry.
            if !fx.writes.contains(&b) {
                push(b, AccessKind::Read);
            }
        }
        for &b in &fx.allocs {
            push(b, AccessKind::Alloc);
        }
        for &b in &fx.frees {
            push(b, AccessKind::Free);
        }
    }

    let mut bufs: Vec<&BufId> = accesses.keys().collect();
    bufs.sort_by_key(|b| b.index());
    for buf in bufs {
        let list = &accesses[buf];
        let mut reported_here = 0usize;
        let mut report_hazard = |h: Hazard, report: &mut VerifyReport| {
            if reported_here < PER_BUFFER_HAZARD_CAP {
                report.hazards.push(h);
            } else {
                report.truncated += 1;
            }
            reported_here += 1;
        };
        for (x, &(a, ka)) in list.iter().enumerate() {
            for &(b, kb) in &list[x + 1..] {
                if a == b {
                    continue;
                }
                use AccessKind::*;
                if ka == Read && kb == Read {
                    continue;
                }
                report.checked_pairs += 1;
                match (ka, kb) {
                    (Free, Free) => {
                        report_hazard(
                            Hazard::DoubleFree {
                                buf: *buf,
                                first: a,
                                second: b,
                            },
                            report,
                        );
                    }
                    (Free, _) | (_, Free) => {
                        let (free, access) = if ka == Free { (a, b) } else { (b, a) };
                        // Safe only if the access happens-before the free.
                        if !reach.ordered(access, free) {
                            report_hazard(
                                Hazard::UseAfterFree {
                                    buf: *buf,
                                    access,
                                    free,
                                    definite: reach.ordered(free, access),
                                },
                                report,
                            );
                        }
                    }
                    (Alloc, _) | (_, Alloc) => {
                        let (alloc, access) = if ka == Alloc { (a, b) } else { (b, a) };
                        if !reach.ordered(alloc, access) {
                            report_hazard(
                                Hazard::UseBeforeAlloc {
                                    buf: *buf,
                                    access,
                                    alloc,
                                },
                                report,
                            );
                        }
                    }
                    _ => {
                        if !reach.ordered_either(a, b) {
                            report_hazard(
                                Hazard::DataRace {
                                    buf: *buf,
                                    first: a,
                                    second: b,
                                },
                                report,
                            );
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::DeviceId;

    fn buf(i: usize) -> BufId {
        BufId::from_index(i)
    }

    fn op(
        label: &str,
        engine: Engine,
        queue: Option<usize>,
        deps: Vec<usize>,
        effects: Effects,
    ) -> DagOp {
        DagOp {
            label: label.into(),
            engine,
            queue,
            deps,
            effects,
            kind: OpKind::Fixed,
        }
    }

    fn dev() -> DeviceId {
        DeviceId(0)
    }

    #[test]
    fn ordered_chain_is_clean() {
        let dag = Dag {
            ops: vec![
                op(
                    "w",
                    Engine::H2D(dev()),
                    Some(0),
                    vec![],
                    Effects::write(buf(0)),
                ),
                op(
                    "r",
                    Engine::Compute(dev()),
                    Some(0),
                    vec![],
                    Effects::read(buf(0)),
                ),
            ],
        };
        let r = analyze(&dag);
        assert!(r.is_clean(), "{}", r.describe(&dag));
        assert_eq!(r.checked_pairs, 1);
    }

    #[test]
    fn unordered_write_read_races() {
        // Different queues, different engines, no dep.
        let dag = Dag {
            ops: vec![
                op(
                    "w",
                    Engine::H2D(dev()),
                    Some(0),
                    vec![],
                    Effects::write(buf(0)),
                ),
                op(
                    "r",
                    Engine::Compute(dev()),
                    Some(1),
                    vec![],
                    Effects::read(buf(0)),
                ),
            ],
        };
        let r = analyze(&dag);
        assert_eq!(r.hazards.len(), 1);
        assert!(matches!(r.hazards[0], Hazard::DataRace { .. }));
        assert!(r.describe(&dag).contains("data race"));
    }

    #[test]
    fn dep_orders_across_queues() {
        let dag = Dag {
            ops: vec![
                op(
                    "w",
                    Engine::H2D(dev()),
                    Some(0),
                    vec![],
                    Effects::write(buf(0)),
                ),
                op(
                    "r",
                    Engine::Compute(dev()),
                    Some(1),
                    vec![0],
                    Effects::read(buf(0)),
                ),
            ],
        };
        assert!(analyze(&dag).is_clean());
    }

    #[test]
    fn engine_serialization_orders() {
        // Two writes on the same engine from different queues: the engine
        // executes them in submission order, so no race in this model.
        let dag = Dag {
            ops: vec![
                op(
                    "w1",
                    Engine::H2D(dev()),
                    Some(0),
                    vec![],
                    Effects::write(buf(0)),
                ),
                op(
                    "w2",
                    Engine::H2D(dev()),
                    Some(1),
                    vec![],
                    Effects::write(buf(0)),
                ),
            ],
        };
        assert!(analyze(&dag).is_clean());
    }

    #[test]
    fn transitive_order_through_effectless_op() {
        // w -> (dep) barrier -> (dep) r, barrier touches nothing.
        let dag = Dag {
            ops: vec![
                op(
                    "w",
                    Engine::H2D(dev()),
                    Some(0),
                    vec![],
                    Effects::write(buf(0)),
                ),
                op("barrier", Engine::Host, None, vec![0], Effects::none()),
                op(
                    "r",
                    Engine::Compute(dev()),
                    Some(1),
                    vec![1],
                    Effects::read(buf(0)),
                ),
            ],
        };
        assert!(analyze(&dag).is_clean());
    }

    #[test]
    fn use_after_free_detected() {
        let dag = Dag {
            ops: vec![
                op(
                    "f",
                    Engine::Runtime(crate::sim::RuntimeId(0)),
                    Some(0),
                    vec![],
                    Effects::free(buf(3)),
                ),
                op(
                    "r",
                    Engine::Compute(dev()),
                    Some(0),
                    vec![],
                    Effects::read(buf(3)),
                ),
            ],
        };
        let r = analyze(&dag);
        assert_eq!(r.hazards.len(), 1);
        match &r.hazards[0] {
            Hazard::UseAfterFree { definite, .. } => assert!(*definite),
            h => panic!("wrong hazard {h:?}"),
        }
    }

    #[test]
    fn double_free_detected() {
        let dag = Dag {
            ops: vec![
                op("f1", Engine::Host, Some(0), vec![], Effects::free(buf(0))),
                op("f2", Engine::Host, Some(0), vec![0], Effects::free(buf(0))),
            ],
        };
        let r = analyze(&dag);
        assert!(matches!(r.hazards[0], Hazard::DoubleFree { .. }));
    }

    #[test]
    fn forward_and_dangling_deps_detected() {
        let dag = Dag {
            ops: vec![
                op("a", Engine::Host, None, vec![1], Effects::none()),
                op("b", Engine::Host, None, vec![7], Effects::none()),
            ],
        };
        let r = analyze(&dag);
        let kinds: Vec<&str> = r.hazards.iter().map(|h| h.kind()).collect();
        assert!(kinds.contains(&"forward-dep"));
        assert!(kinds.contains(&"dangling-dep"));
    }

    #[test]
    fn cycle_reported_as_deadlock() {
        let dag = Dag {
            ops: vec![
                op("a", Engine::Host, None, vec![1], Effects::none()),
                op("b", Engine::Host, None, vec![0], Effects::none()),
            ],
        };
        let r = analyze(&dag);
        assert!(r.hazards.iter().any(|h| h.kind() == "deadlock"));
    }

    #[test]
    fn use_before_alloc_detected() {
        let dag = Dag {
            ops: vec![
                op(
                    "r",
                    Engine::Compute(dev()),
                    Some(0),
                    vec![],
                    Effects::read(buf(0)),
                ),
                op(
                    "alloc",
                    Engine::Runtime(crate::sim::RuntimeId(0)),
                    Some(1),
                    vec![],
                    Effects::alloc(buf(0)),
                ),
            ],
        };
        let r = analyze(&dag);
        assert!(matches!(r.hazards[0], Hazard::UseBeforeAlloc { .. }));
    }

    #[test]
    fn json_report_is_well_formed_enough() {
        let dag = Dag {
            ops: vec![
                op(
                    "w\"x\"",
                    Engine::H2D(dev()),
                    Some(0),
                    vec![],
                    Effects::write(buf(0)),
                ),
                op(
                    "r",
                    Engine::Compute(dev()),
                    Some(1),
                    vec![],
                    Effects::read(buf(0)),
                ),
            ],
        };
        let r = analyze(&dag);
        let json = r.to_json(&dag);
        assert!(json.contains("\"hazards\":[{"));
        assert!(json.contains("data-race"));
        assert!(json.contains("\\\"x\\\""));
    }

    #[test]
    fn per_buffer_cap_truncates() {
        // Six unordered writers to one buffer on six engines/queues.
        let ops: Vec<DagOp> = (0..6)
            .map(|i| {
                op(
                    &format!("w{i}"),
                    Engine::Compute(DeviceId(i)), // distinct engines: no serialization
                    Some(i),
                    vec![],
                    Effects::write(buf(0)),
                )
            })
            .collect();
        let dag = Dag { ops };
        let r = analyze(&dag);
        assert_eq!(r.hazards.len(), super::PER_BUFFER_HAZARD_CAP);
        assert!(r.truncated > 0);
    }
}
