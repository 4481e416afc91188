//! The span trace: the one record of a [`crate::Sim::run`].
//!
//! The scheduler writes one [`SpanRecord`] per op, in submission order,
//! as it computes the op's virtual start and end. A span carries the
//! submission index, engine, queue, explicit dependencies, op kind and
//! kernel class, the bytes moved, the declared buffer footprint, the
//! *ready* time (when the op's explicit dependencies were all satisfied;
//! the gap to `start` is engine/queue contention, e.g. allocator-lock
//! wait on [`crate::Engine::Runtime`] ops) and the measured wall-clock
//! time of its payload.

use crate::sim::Engine;
use crate::spec::KernelClass;
use crate::time::Ns;
use crate::verify::OpKind;

/// High-level categories for time-breakdown reporting (paper Fig. 1).
/// The discriminants follow [`Category::ALL`], so `category as usize`
/// indexes arrays kept in that order.
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

    /// The category an engine's busy time counts under.
    pub fn of(engine: Engine) -> Category {
        match engine {
            Engine::H2D(_) => Category::H2D,
            Engine::D2H(_) => Category::D2H,
            Engine::Compute(_) => Category::Compute,
            Engine::Runtime(_) => Category::MemMgmt,
            Engine::Staging(_) | Engine::Host => Category::Host,
        }
    }

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

/// One executed op.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Submission index (equals the op's [`crate::OpId`]).
    pub op: usize,
    pub label: String,
    pub engine: Engine,
    pub queue: Option<usize>,
    /// Explicit event dependencies (submission indices).
    pub deps: Vec<usize>,
    pub kind: OpKind,
    pub class: Option<KernelClass>,
    pub start: Ns,
    pub end: Ns,
    /// Bytes moved or processed by the op (0 for alloc/free/fixed).
    pub bytes: u64,
    /// Declared buffer footprint at completion.
    pub footprint_bytes: u64,
    /// When the op's explicit dependencies were satisfied.
    pub ready: Ns,
    /// Measured wall-clock start of the op's payload, from the start of
    /// the run (zero when the op had no payload). Payloads that ran side
    /// by side overlap in `[wall_start, wall_start + wall)`.
    pub wall_start: Ns,
    /// Measured wall-clock time of the op's payload (zero when the op
    /// had no payload). Lets profiles report real host time next to the
    /// modeled virtual time.
    pub wall: Ns,
}

impl SpanRecord {
    pub fn duration(&self) -> Ns {
        self.end - self.start
    }

    /// Time spent waiting on queue/engine availability after the op was
    /// data-ready (allocator contention, for Runtime-engine ops).
    pub fn wait(&self) -> Ns {
        self.start.saturating_sub(self.ready)
    }
}

/// Execution-runtime counters for one traced run: real wall-clock time
/// plus persistent-worker-pool activity. Filled in by the pipeline layer
/// (this crate models devices and cannot depend on the pool), so the
/// fields are plain data.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Measured wall-clock time of the whole traced run.
    pub wall: Ns,
    /// Pool jobs dispatched during the run.
    pub pool_jobs: u64,
    /// Worker wakeups during the run.
    pub pool_wakeups: u64,
    /// Chunk tasks executed during the run.
    pub pool_tasks: u64,
    /// Staging arenas reused without reallocation.
    pub scratch_reuses: u64,
    /// Staging arenas grown (allocations).
    pub scratch_allocs: u64,
}

/// The record of one run: one span per executed op, in submission order.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    spans: Vec<SpanRecord>,
    runtime: Option<RuntimeStats>,
}

impl Trace {
    /// Build a trace from spans in submission order: the result of
    /// [`crate::Sim::run`], or a test fixture.
    pub fn from_spans(spans: Vec<SpanRecord>) -> Trace {
        Trace {
            spans,
            runtime: None,
        }
    }

    /// Attach measured runtime counters (see [`RuntimeStats`]).
    pub fn set_runtime_stats(&mut self, stats: RuntimeStats) {
        self.runtime = Some(stats);
    }

    /// Measured runtime counters, when the producer recorded them.
    pub fn runtime_stats(&self) -> Option<RuntimeStats> {
        self.runtime
    }

    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// End of the last span (total virtual time of the traced run).
    pub fn makespan(&self) -> Ns {
        self.spans.iter().map(|s| s.end).max().unwrap_or(Ns::ZERO)
    }

    /// Devices that appear in the trace, ascending.
    pub fn devices(&self) -> Vec<crate::sim::DeviceId> {
        let mut ids: Vec<usize> = self
            .spans
            .iter()
            .filter_map(|s| s.engine.device().map(|d| d.0))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter().map(crate::sim::DeviceId).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effects::Effects;
    use crate::mem::MemPool;
    use crate::sim::{Cost, DeviceId, OpSpec, Sim};
    use crate::spec::v100;

    /// The scheduler is the recorder: each op's begin (ready, start) and
    /// end (end, footprint, wall time) land in that op's one span, in
    /// submission order, even when a later op finishes first.
    #[test]
    fn recorder_pairs_begin_end() {
        let mut sim = Sim::new();
        let rt = sim.add_runtime();
        let dev = sim.add_device(v100(), rt);
        let buf = sim.create_buffer(dev, 64);
        let (q0, q1) = (sim.add_queue(), sim.add_queue());
        let op = |engine, queue, ns, label: &str, effects| OpSpec {
            engine,
            queue: Some(queue),
            deps: vec![],
            cost: Cost::Fixed(Ns(ns)),
            label: label.into(),
            effects,
        };
        sim.push(
            op(Engine::H2D(dev), q0, 100, "copy", Effects::write(buf)),
            Some(Box::new(move |pool: &mut MemPool| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                pool.get_mut(buf).fill(1);
            })),
        );
        sim.push(
            op(Engine::Compute(dev), q1, 30, "kernel", Effects::none()),
            None,
        );
        let trace = sim.run();
        assert_eq!(trace.len(), 2);
        let [copy, kernel] = [&trace.spans()[0], &trace.spans()[1]];
        assert_eq!((copy.op, copy.label.as_str()), (0, "copy"));
        assert_eq!(
            (copy.ready, copy.start, copy.end),
            (Ns::ZERO, Ns::ZERO, Ns(100))
        );
        assert_eq!(copy.duration(), Ns(100));
        assert_eq!(copy.footprint_bytes, 64);
        assert!(copy.wall >= Ns(1_000_000), "wall {}", copy.wall);
        assert_eq!((kernel.op, kernel.label.as_str()), (1, "kernel"));
        assert_eq!((kernel.start, kernel.end), (Ns::ZERO, Ns(30)));
        assert_eq!(kernel.footprint_bytes, 0);
        assert_eq!((kernel.wall_start, kernel.wall), (Ns::ZERO, Ns::ZERO));
        assert_eq!(trace.makespan(), Ns(100));
        assert_eq!(trace.devices(), vec![dev]);
    }

    #[test]
    fn categories_index_in_all_order() {
        for (i, c) in Category::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i);
        }
        assert_eq!(Category::of(Engine::Staging(DeviceId(0))), Category::Host);
        assert_eq!(
            Category::of(Engine::Runtime(crate::sim::RuntimeId(0))),
            Category::MemMgmt
        );
    }

    #[test]
    fn wait_is_start_minus_ready() {
        let s = SpanRecord {
            op: 0,
            label: "a".into(),
            engine: Engine::Runtime(crate::sim::RuntimeId(0)),
            queue: None,
            deps: vec![],
            kind: OpKind::Alloc,
            class: None,
            start: Ns(70),
            end: Ns(90),
            bytes: 0,
            footprint_bytes: 0,
            ready: Ns(30),
            wall_start: Ns::ZERO,
            wall: Ns::ZERO,
        };
        assert_eq!(s.wait(), Ns(40));
    }
}
