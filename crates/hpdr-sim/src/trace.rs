//! Structured span events emitted by the scheduler (the tracing
//! backbone of `hpdr-trace`).
//!
//! When tracing is enabled ([`crate::Sim::set_trace`]), every executed
//! op emits a begin event at its virtual start time and an end event at
//! its virtual end time into a [`Recorder`] — an append-only event
//! buffer, so the recording cost is one `Vec` push per event and zero
//! when disabled. [`Recorder::into_trace`] pairs the events into
//! [`SpanRecord`]s.
//!
//! A span carries everything the observability layer needs and the
//! [`crate::timeline::Timeline`] does not keep: the submission index,
//! queue, explicit dependencies, op kind, declared buffer footprint and
//! the *ready* time (when the op's explicit dependencies were all
//! satisfied — the gap to `start` is engine/queue contention, e.g.
//! allocator-lock wait on [`crate::Engine::Runtime`] ops).

use crate::sim::Engine;
use crate::spec::KernelClass;
use crate::time::Ns;
use crate::verify::OpKind;

/// One scheduler event. Begin carries the op metadata; End carries the
/// buffer footprint, which is sampled after the op's payload ran (so
/// dynamically-sized outputs, e.g. compressed streams, are reflected).
#[derive(Debug, Clone)]
pub enum SpanEvent {
    Begin {
        op: usize,
        t: Ns,
        label: String,
        engine: Engine,
        queue: Option<usize>,
        deps: Vec<usize>,
        kind: OpKind,
        class: Option<KernelClass>,
        bytes: u64,
        /// When all explicit dependencies had finished.
        ready: Ns,
    },
    End {
        op: usize,
        t: Ns,
        /// Total live bytes of the device buffers the op declared it
        /// touches, sampled after its payload executed.
        footprint_bytes: u64,
        /// When the op's payload started on the wall clock, from the
        /// start of the run (zero for ops without a payload). Measured,
        /// like `wall`.
        wall_start: Ns,
        /// Real elapsed wall-clock time of the op's payload on the host
        /// (zero for ops without a payload). Unlike the virtual times,
        /// this is measured, not modeled.
        wall: Ns,
    },
}

/// One completed op span, paired from a begin/end event.
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

/// Low-overhead event sink: an append-only buffer filled by
/// [`crate::Sim::run`] when tracing is on.
#[derive(Debug, Default)]
pub struct Recorder {
    events: Vec<SpanEvent>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::default()
    }

    pub fn emit(&mut self, event: SpanEvent) {
        self.events.push(event);
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Pair begin/end events into spans, in submission order.
    ///
    /// Panics if an op has a begin without an end (a truncated stream —
    /// cannot happen for recorders filled by [`crate::Sim::run`]).
    pub fn into_trace(self) -> Trace {
        let mut spans: Vec<SpanRecord> = Vec::with_capacity(self.events.len() / 2);
        let mut open: Vec<Option<usize>> = Vec::new();
        for event in self.events {
            match event {
                SpanEvent::Begin {
                    op,
                    t,
                    label,
                    engine,
                    queue,
                    deps,
                    kind,
                    class,
                    bytes,
                    ready,
                } => {
                    if open.len() <= op {
                        open.resize(op + 1, None);
                    }
                    open[op] = Some(spans.len());
                    spans.push(SpanRecord {
                        op,
                        label,
                        engine,
                        queue,
                        deps,
                        kind,
                        class,
                        start: t,
                        end: t,
                        bytes,
                        footprint_bytes: 0,
                        ready,
                        wall_start: Ns::ZERO,
                        wall: Ns::ZERO,
                    });
                }
                SpanEvent::End {
                    op,
                    t,
                    footprint_bytes,
                    wall_start,
                    wall,
                } => {
                    let idx = open
                        .get(op)
                        .copied()
                        .flatten()
                        .unwrap_or_else(|| panic!("end event for op {op} without a begin"));
                    spans[idx].end = t;
                    spans[idx].footprint_bytes = footprint_bytes;
                    spans[idx].wall_start = wall_start;
                    spans[idx].wall = wall;
                    open[op] = None;
                }
            }
        }
        assert!(
            open.iter().all(Option::is_none),
            "trace has begin events without matching ends"
        );
        Trace {
            spans,
            runtime: None,
        }
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

/// A completed recording: one span per executed op, in submission order.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    spans: Vec<SpanRecord>,
    runtime: Option<RuntimeStats>,
}

impl Trace {
    /// Build a trace directly from spans (fixtures and tests).
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
    use crate::sim::DeviceId;

    fn begin(op: usize, t: u64) -> SpanEvent {
        SpanEvent::Begin {
            op,
            t: Ns(t),
            label: format!("op{op}"),
            engine: Engine::Compute(DeviceId(0)),
            queue: Some(0),
            deps: vec![],
            kind: OpKind::Kernel,
            class: Some(KernelClass::Other),
            bytes: 10,
            ready: Ns(t),
        }
    }

    #[test]
    fn recorder_pairs_begin_end() {
        let mut r = Recorder::new();
        r.emit(begin(0, 0));
        r.emit(SpanEvent::End {
            op: 0,
            t: Ns(100),
            footprint_bytes: 64,
            wall_start: Ns::ZERO,
            wall: Ns(7),
        });
        r.emit(begin(1, 50));
        r.emit(SpanEvent::End {
            op: 1,
            t: Ns(150),
            footprint_bytes: 0,
            wall_start: Ns::ZERO,
            wall: Ns::ZERO,
        });
        let trace = r.into_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.spans()[0].duration(), Ns(100));
        assert_eq!(trace.spans()[0].footprint_bytes, 64);
        assert_eq!(trace.spans()[0].wall, Ns(7));
        assert_eq!(trace.spans()[1].start, Ns(50));
        assert_eq!(trace.makespan(), Ns(150));
        assert_eq!(trace.devices(), vec![DeviceId(0)]);
    }

    #[test]
    #[should_panic(expected = "without matching ends")]
    fn unmatched_begin_panics() {
        let mut r = Recorder::new();
        r.emit(begin(0, 0));
        r.into_trace();
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
