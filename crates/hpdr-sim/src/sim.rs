//! The deterministic virtual-time scheduler.
//!
//! A [`Sim`] owns a set of devices (each with an H2D DMA engine, a D2H DMA
//! engine, and a compute engine), shared runtimes (whose allocator
//! serializes alloc/free across all devices of a node — the multi-GPU
//! contention source identified in paper §III-B), and a list of operations.
//!
//! Scheduling semantics mirror a CUDA/HIP runtime:
//!
//! * ops in the same **queue** (stream) execute in submission order;
//! * each **engine** executes at most one op at a time, in submission order
//!   (one kernel at a time, one DMA per direction — paper §V-B restrictions);
//! * explicit **dependencies** (events) may only point at earlier-submitted
//!   ops, so launch order is part of the model (the paper's Fig. 9 red-arrow
//!   optimization is expressed by reordering submissions).
//!
//! Every op may carry a *payload* closure that runs against the real
//! [`MemPool`], so simulated pipelines produce real output bytes. With
//! workers attached ([`Sim::set_workers`]), payloads that the DAG lets
//! overlap run concurrently ([`crate::exec`]); virtual time is the same
//! either way.

use crate::effects::Effects;
use crate::exec::{self, Exec, Guard, Run, Workers};
use crate::mem::{BufId, MemPool};
use crate::spec::{DeviceSpec, KernelClass};
use crate::time::Ns;
use crate::timeline::{OpRecord, Timeline};
use crate::trace::{Recorder, SpanEvent, Trace};
use crate::verify::{self, Dag, DagOp, OpKind};

/// Handle to a simulated device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceId(pub usize);

/// Handle to a shared runtime (one per node; owns the allocator lock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RuntimeId(pub usize);

/// Handle to an execution queue (CUDA-stream analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueueId(pub usize);

/// Handle to a submitted operation (usable as a dependency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub usize);

/// The hardware engine an op occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Host→device DMA engine of a device.
    H2D(DeviceId),
    /// Device→host DMA engine of a device.
    D2H(DeviceId),
    /// Compute engine of a device.
    Compute(DeviceId),
    /// The shared-runtime allocator lock (serializes across devices).
    Runtime(RuntimeId),
    /// Host-side staging copies for one device's driver thread
    /// (application ↔ reduction ↔ I/O buffers).
    Staging(DeviceId),
    /// Host-side work (untimed unless a fixed cost is given).
    Host,
}

impl Engine {
    /// The device this engine belongs to, if any.
    pub fn device(&self) -> Option<DeviceId> {
        match self {
            Engine::H2D(d) | Engine::D2H(d) | Engine::Compute(d) | Engine::Staging(d) => Some(*d),
            _ => None,
        }
    }
}

/// How the virtual duration of an op is derived.
#[derive(Debug, Clone)]
pub enum Cost {
    /// A DMA transfer of `bytes` (engine must be H2D or D2H).
    Transfer { bytes: u64 },
    /// A DMA transfer whose size becomes known only when an earlier
    /// payload runs (e.g. the compressed size produced by a reduction
    /// kernel). The cell is read when virtual time is computed, after
    /// every payload of the run has executed, so exactly one payload may
    /// write it.
    TransferDyn {
        bytes: std::sync::Arc<std::sync::atomic::AtomicU64>,
    },
    /// A compute kernel over `bytes` of input (engine must be Compute).
    Kernel { class: KernelClass, bytes: u64 },
    /// One device-memory allocation (engine must be Runtime).
    Alloc { device: DeviceId },
    /// One device-memory free (engine must be Runtime).
    Free { device: DeviceId },
    /// A fixed duration.
    Fixed(Ns),
    /// A host-memory copy (pageable staging between application,
    /// reduction and I/O buffers — paper §II-B). Engine must be Host;
    /// rate set by [`Sim::set_host_copy_gbps`]. Size may be dynamic.
    HostCopy {
        bytes: std::sync::Arc<std::sync::atomic::AtomicU64>,
    },
}

/// Payload executed against the memory pool when the op "runs". It may
/// borrow anything that outlives the [`Sim`], and it may run on a worker
/// thread.
pub type Payload<'a> = Box<dyn FnOnce(&mut MemPool) + Send + 'a>;

/// Shadow-access record of one executed op, collected when auditing is
/// enabled ([`Sim::set_audit`]): the buffer accesses the payload *actually*
/// performed, as opposed to the [`Effects`] its [`OpSpec`] declared.
#[derive(Debug, Clone)]
pub struct OpAudit {
    pub label: String,
    /// Whether the op carried a payload at all. Payload-less ops (pure
    /// timing models) observe nothing, and their declarations are the
    /// model itself — auditors skip the over-declaration check for them.
    pub had_payload: bool,
    /// The observed access set (empty for payload-less ops).
    pub observed: Effects,
}

/// A fully-specified operation prior to submission.
pub struct OpSpec {
    pub engine: Engine,
    pub queue: Option<QueueId>,
    pub deps: Vec<OpId>,
    pub cost: Cost,
    pub label: String,
    /// Declared buffer effects — the static analyzer's ([`crate::verify`])
    /// source of truth, enforced against the payload in debug builds.
    pub effects: Effects,
}

struct Device {
    spec: DeviceSpec,
    runtime: RuntimeId,
}

struct PendingOp<'a> {
    spec: OpSpec,
    payload: Option<Payload<'a>>,
}

/// The virtual machine: devices, queues, submitted ops and the memory pool.
/// `'a` bounds what payloads borrow.
pub struct Sim<'a> {
    devices: Vec<Device>,
    runtimes: usize,
    queues: usize,
    ops: Vec<PendingOp<'a>>,
    pool: MemPool,
    /// Pageable host-memory copy bandwidth (GB/s) for [`Cost::HostCopy`].
    host_copy_gbps: f64,
    /// Run the static hazard analyzer before executing (defaults to on in
    /// debug builds — i.e. on under `cargo test`, off in release benches).
    verify_enabled: bool,
    /// Span recorder; present only while tracing is enabled so a disabled
    /// recorder costs one `Option` check per op and changes nothing else.
    recorder: Option<Recorder>,
    /// Shadow-access auditing: record what each payload actually touches
    /// instead of enforcing the declaration ([`Sim::set_audit`]).
    audit_enabled: bool,
    /// Per-op observation log of the last audited [`Sim::run`].
    observed: Vec<OpAudit>,
    /// Threads for concurrent payload execution, and how many of them
    /// one run may use ([`Sim::set_workers`]).
    workers: Option<(&'a dyn Workers, usize)>,
}

impl Default for Sim<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> Sim<'a> {
    pub fn new() -> Sim<'a> {
        Sim {
            devices: Vec::new(),
            runtimes: 0,
            queues: 0,
            ops: Vec::new(),
            pool: MemPool::new(),
            host_copy_gbps: 18.0,
            verify_enabled: cfg!(debug_assertions),
            recorder: None,
            audit_enabled: false,
            observed: Vec::new(),
            workers: None,
        }
    }

    /// Run payloads on up to `participants` threads of `workers` when the
    /// DAG lets two large kernel payloads overlap ([`crate::exec`]).
    /// Outputs, timelines and traces are identical to the serial
    /// executor's, apart from measured wall-clock times.
    pub fn set_workers(&mut self, workers: &'a dyn Workers, participants: usize) {
        self.workers = Some((workers, participants));
    }

    /// Enable or disable span tracing for the next [`Sim::run`]. Tracing
    /// never changes scheduling: virtual times are identical on and off.
    pub fn set_trace(&mut self, on: bool) {
        if on {
            if self.recorder.is_none() {
                self.recorder = Some(Recorder::new());
            }
        } else {
            self.recorder = None;
        }
    }

    /// Take the trace recorded by the last [`Sim::run`], if tracing was on.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.recorder.take().map(Recorder::into_trace)
    }

    /// Enable or disable pre-execution schedule verification.
    pub fn set_verify(&mut self, on: bool) {
        self.verify_enabled = on;
    }

    /// Enable or disable shadow-access auditing for the next [`Sim::run`].
    /// With auditing on, the memory pool *records* every buffer access a
    /// payload performs (instead of panicking on undeclared ones) and the
    /// per-op observation log is retrievable via [`Sim::take_observed`].
    /// Auditing never changes scheduling: virtual times are identical.
    pub fn set_audit(&mut self, on: bool) {
        self.audit_enabled = on;
        self.observed.clear();
    }

    /// Take the shadow-access log of the last audited [`Sim::run`]
    /// (one entry per executed op, in submission order). Empty if
    /// auditing was off.
    pub fn take_observed(&mut self) -> Vec<OpAudit> {
        std::mem::take(&mut self.observed)
    }

    /// Override the pageable host-copy bandwidth (default 18 GB/s).
    pub fn set_host_copy_gbps(&mut self, gbps: f64) {
        assert!(gbps > 0.0 && gbps.is_finite());
        self.host_copy_gbps = gbps;
    }

    /// Register a shared runtime (one per simulated node).
    pub fn add_runtime(&mut self) -> RuntimeId {
        let id = RuntimeId(self.runtimes);
        self.runtimes += 1;
        id
    }

    /// Register a device under a runtime.
    pub fn add_device(&mut self, spec: DeviceSpec, runtime: RuntimeId) -> DeviceId {
        assert!(runtime.0 < self.runtimes, "unknown runtime");
        let id = DeviceId(self.devices.len());
        self.devices.push(Device { spec, runtime });
        id
    }

    /// Create an execution queue.
    pub fn add_queue(&mut self) -> QueueId {
        let id = QueueId(self.queues);
        self.queues += 1;
        id
    }

    pub fn device_spec(&self, dev: DeviceId) -> &DeviceSpec {
        &self.devices[dev.0].spec
    }

    pub fn device_runtime(&self, dev: DeviceId) -> RuntimeId {
        self.devices[dev.0].runtime
    }

    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Create a device buffer (backing store only; charge time separately
    /// with an [`Cost::Alloc`] op, or don't — that's what the CMM avoids).
    pub fn create_buffer(&mut self, device: DeviceId, bytes: usize) -> BufId {
        self.pool.create(device, bytes)
    }

    /// Direct access to the memory pool (e.g. to seed input buffers).
    pub fn pool_mut(&mut self) -> &mut MemPool {
        &mut self.pool
    }

    pub fn pool(&self) -> &MemPool {
        &self.pool
    }

    /// Submit an operation. Dependencies must reference earlier submissions.
    pub fn push(&mut self, spec: OpSpec, payload: Option<Payload<'a>>) -> OpId {
        let id = OpId(self.ops.len());
        for d in &spec.deps {
            assert!(d.0 < id.0, "dependency {:?} not yet submitted", d);
        }
        if let Some(q) = spec.queue {
            assert!(q.0 < self.queues, "unknown queue");
        }
        match (&spec.cost, &spec.engine) {
            (Cost::Transfer { .. } | Cost::TransferDyn { .. }, Engine::H2D(_) | Engine::D2H(_)) => {
            }
            (Cost::Kernel { .. }, Engine::Compute(_)) => {}
            (Cost::Alloc { .. } | Cost::Free { .. }, Engine::Runtime(_)) => {}
            (Cost::HostCopy { .. }, Engine::Host | Engine::Staging(_)) => {}
            (Cost::Fixed(_), _) => {}
            (c, e) => panic!("cost {c:?} not valid on engine {e:?}"),
        }
        self.ops.push(PendingOp { spec, payload });
        id
    }

    /// Convenience: allocate a device buffer *with* a timed runtime op.
    pub fn alloc_timed(
        &mut self,
        queue: QueueId,
        device: DeviceId,
        bytes: usize,
        label: &str,
    ) -> (BufId, OpId) {
        let buf = self.create_buffer(device, bytes);
        let rt = self.device_runtime(device);
        let op = self.push(
            OpSpec {
                engine: Engine::Runtime(rt),
                queue: Some(queue),
                deps: vec![],
                cost: Cost::Alloc { device },
                label: label.to_string(),
                effects: Effects::alloc(buf),
            },
            None,
        );
        (buf, op)
    }

    /// Convenience: free a buffer with a timed runtime op.
    pub fn free_timed(&mut self, queue: QueueId, buf: BufId, deps: Vec<OpId>, label: &str) -> OpId {
        let device = self.pool.device(buf);
        let rt = self.device_runtime(device);
        self.push(
            OpSpec {
                engine: Engine::Runtime(rt),
                queue: Some(queue),
                deps,
                cost: Cost::Free { device },
                label: label.to_string(),
                effects: Effects::free(buf),
            },
            Some(Box::new(move |pool: &mut MemPool| pool.mark_freed(buf))),
        )
    }

    fn resolve_duration(&self, spec: &OpSpec) -> (Ns, u64, Option<KernelClass>) {
        let dma_model = |engine: &Engine| match engine {
            Engine::H2D(d) => &self.devices[d.0].spec.h2d,
            Engine::D2H(d) => &self.devices[d.0].spec.d2h,
            _ => unreachable!(),
        };
        match &spec.cost {
            Cost::Transfer { bytes } => (dma_model(&spec.engine).duration(*bytes), *bytes, None),
            Cost::TransferDyn { bytes } => {
                let b = bytes.load(std::sync::atomic::Ordering::SeqCst);
                (dma_model(&spec.engine).duration(b), b, None)
            }
            Cost::Kernel { class, bytes } => {
                let d = match spec.engine {
                    Engine::Compute(d) => d,
                    _ => unreachable!(),
                };
                (
                    self.devices[d.0].spec.kernel_duration(*class, *bytes),
                    *bytes,
                    Some(*class),
                )
            }
            Cost::Alloc { device } => (self.devices[device.0].spec.alloc_latency, 0, None),
            Cost::Free { device } => (self.devices[device.0].spec.free_latency, 0, None),
            Cost::Fixed(ns) => (*ns, 0, None),
            Cost::HostCopy { bytes } => {
                let b = bytes.load(std::sync::atomic::Ordering::SeqCst);
                (Ns((b as f64 / self.host_copy_gbps).round() as u64), b, None)
            }
        }
    }

    /// Snapshot the currently submitted (not yet run) ops as an analyzable
    /// [`Dag`] for [`verify::analyze`] and the schedule linters.
    pub fn dag(&self) -> Dag {
        let ops = self
            .ops
            .iter()
            .map(|p| {
                let spec = &p.spec;
                let kind = kind_of(&spec.cost);
                DagOp {
                    label: spec.label.clone(),
                    engine: spec.engine,
                    queue: spec.queue.map(|q| q.0),
                    deps: spec.deps.iter().map(|d| d.0).collect(),
                    effects: spec.effects.clone(),
                    kind,
                }
            })
            .collect();
        Dag { ops }
    }

    /// Execute every submitted op: run the payloads, then compute virtual
    /// start/end times in submission order.
    ///
    /// Payloads run in submission (and therefore dependency-safe) order,
    /// or, with workers attached, concurrently wherever the DAG allows
    /// ([`crate::exec`]). Either way the outputs and the virtual times are
    /// the same.
    ///
    /// When verification is enabled ([`Sim::set_verify`]; default on in
    /// debug builds), the static hazard analyzer runs over the DAG first
    /// and panics with a full report if any hazard is found — nothing
    /// executes against the memory pool on a broken schedule.
    ///
    /// Returns the resulting [`Timeline`]; the memory pool stays available
    /// via [`Sim::pool`] / [`Sim::take_buffer`] for output extraction.
    pub fn run(&mut self) -> Timeline {
        let dag = (self.verify_enabled || self.workers.is_some()).then(|| self.dag());
        if let Some(dag) = dag.as_ref().filter(|_| self.verify_enabled) {
            let report = verify::analyze(dag);
            assert!(report.is_clean(), "{}", report.describe(dag));
        }
        let (specs, payloads): (Vec<OpSpec>, Vec<Option<Payload<'a>>>) =
            std::mem::take(&mut self.ops)
                .into_iter()
                .map(|p| (p.spec, p.payload))
                .unzip();
        let run = Run {
            specs: &specs,
            footprints: self.recorder.is_some(),
            guard: if self.audit_enabled {
                Guard::Record
            } else if cfg!(debug_assertions) {
                Guard::Enforce
            } else {
                Guard::Off
            },
            t0: std::time::Instant::now(),
        };
        let has_payload: Vec<bool> = payloads.iter().map(Option::is_some).collect();
        let concurrent = self
            .workers
            .filter(|&(_, participants)| participants > 1 && !self.audit_enabled)
            .and_then(|(workers, participants)| {
                Some((
                    workers,
                    participants,
                    exec::plan(dag.as_ref()?, &specs, &has_payload)?,
                ))
            });
        let execs = match concurrent {
            Some((workers, participants, plan)) => {
                let participants = participants.min(has_payload.iter().filter(|&&p| p).count());
                exec::run_concurrent(workers, participants, &plan, &run, &mut self.pool, payloads)
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            }
            None => exec::run_serial(&run, &mut self.pool, payloads),
        };
        if self.audit_enabled {
            self.observed = specs
                .iter()
                .zip(&execs)
                .map(|(spec, e)| OpAudit {
                    label: spec.label.clone(),
                    had_payload: e.observed.is_some(),
                    observed: e.observed.clone().unwrap_or_default(),
                })
                .collect();
        }
        self.schedule(specs, &execs)
    }

    /// Virtual start/end times of the executed ops, in submission order.
    fn schedule(&mut self, specs: Vec<OpSpec>, execs: &[Exec]) -> Timeline {
        use std::collections::HashMap;
        let mut engine_free: HashMap<Engine, Ns> = HashMap::new();
        let mut queue_tail: Vec<Ns> = vec![Ns::ZERO; self.queues];
        let mut ends: Vec<Ns> = Vec::with_capacity(specs.len());
        let mut records: Vec<OpRecord> = Vec::with_capacity(specs.len());
        for (op, (spec, e)) in specs.into_iter().zip(execs).enumerate() {
            let mut ready = Ns::ZERO;
            for d in &spec.deps {
                ready = ready.max(ends[d.0]);
            }
            let mut start = ready;
            if let Some(q) = spec.queue {
                start = start.max(queue_tail[q.0]);
            }
            if let Some(&free) = engine_free.get(&spec.engine) {
                start = start.max(free);
            }
            let (dur, bytes, class) = self.resolve_duration(&spec);
            let end = start + dur;
            engine_free.insert(spec.engine, end);
            if let Some(q) = spec.queue {
                queue_tail[q.0] = end;
            }
            ends.push(end);
            if let Some(rec) = &mut self.recorder {
                rec.emit(SpanEvent::Begin {
                    op,
                    t: start,
                    label: spec.label.clone(),
                    engine: spec.engine,
                    queue: spec.queue.map(|q| q.0),
                    deps: spec.deps.iter().map(|d| d.0).collect(),
                    kind: kind_of(&spec.cost),
                    class,
                    bytes,
                    ready,
                });
                rec.emit(SpanEvent::End {
                    op,
                    t: end,
                    footprint_bytes: e.footprint,
                    wall_start: e.wall_start,
                    wall: e.wall,
                });
            }
            records.push(OpRecord {
                label: spec.label,
                engine: spec.engine,
                start,
                end,
                bytes,
                class,
            });
        }
        Timeline::new(records)
    }

    /// Move a buffer's contents out of the pool after a run.
    pub fn take_buffer(&mut self, buf: BufId) -> Vec<u8> {
        self.pool.take(buf)
    }
}

/// The analyzer/trace op kind of a cost model.
pub fn kind_of(cost: &Cost) -> OpKind {
    match cost {
        Cost::Transfer { .. } | Cost::TransferDyn { .. } => OpKind::Transfer,
        Cost::Kernel { .. } => OpKind::Kernel,
        Cost::Alloc { .. } => OpKind::Alloc,
        Cost::Free { .. } => OpKind::Free,
        Cost::HostCopy { .. } => OpKind::HostCopy,
        Cost::Fixed(_) => OpKind::Fixed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::v100;

    fn one_device() -> (Sim<'static>, DeviceId, QueueId) {
        let mut sim = Sim::new();
        let rt = sim.add_runtime();
        let dev = sim.add_device(v100(), rt);
        let q = sim.add_queue();
        (sim, dev, q)
    }

    #[test]
    fn queue_serializes_in_order() {
        let (mut sim, dev, q) = one_device();
        let a = sim.push(
            OpSpec {
                engine: Engine::Compute(dev),
                queue: Some(q),
                deps: vec![],
                cost: Cost::Fixed(Ns(100)),
                label: "a".into(),
                effects: Effects::none(),
            },
            None,
        );
        let b = sim.push(
            OpSpec {
                engine: Engine::H2D(dev),
                queue: Some(q),
                deps: vec![],
                cost: Cost::Fixed(Ns(50)),
                label: "b".into(),
                effects: Effects::none(),
            },
            None,
        );
        let tl = sim.run();
        assert_eq!(tl.record(a).start, Ns(0));
        assert_eq!(tl.record(a).end, Ns(100));
        // Same queue ⇒ b waits even though it's a different engine.
        assert_eq!(tl.record(b).start, Ns(100));
        assert_eq!(tl.record(b).end, Ns(150));
    }

    #[test]
    fn different_queues_overlap_on_different_engines() {
        let (mut sim, dev, _q) = one_device();
        let q1 = sim.add_queue();
        let q2 = sim.add_queue();
        let a = sim.push(
            OpSpec {
                engine: Engine::Compute(dev),
                queue: Some(q1),
                deps: vec![],
                cost: Cost::Fixed(Ns(100)),
                label: "k".into(),
                effects: Effects::none(),
            },
            None,
        );
        let b = sim.push(
            OpSpec {
                engine: Engine::H2D(dev),
                queue: Some(q2),
                deps: vec![],
                cost: Cost::Fixed(Ns(80)),
                label: "h2d".into(),
                effects: Effects::none(),
            },
            None,
        );
        let tl = sim.run();
        assert_eq!(tl.record(a).start, Ns(0));
        assert_eq!(tl.record(b).start, Ns(0)); // fully overlapped
    }

    #[test]
    fn same_engine_serializes_across_queues() {
        let (mut sim, dev, _) = one_device();
        let q1 = sim.add_queue();
        let q2 = sim.add_queue();
        let mk = |sim: &mut Sim, q| {
            sim.push(
                OpSpec {
                    engine: Engine::Compute(dev),
                    queue: Some(q),
                    deps: vec![],
                    cost: Cost::Fixed(Ns(100)),
                    label: "k".into(),
                    effects: Effects::none(),
                },
                None,
            )
        };
        let a = mk(&mut sim, q1);
        let b = mk(&mut sim, q2);
        let tl = sim.run();
        assert_eq!(tl.record(a).end, Ns(100));
        assert_eq!(tl.record(b).start, Ns(100)); // one kernel at a time
    }

    #[test]
    fn deps_delay_start() {
        let (mut sim, dev, _) = one_device();
        let q1 = sim.add_queue();
        let q2 = sim.add_queue();
        let a = sim.push(
            OpSpec {
                engine: Engine::H2D(dev),
                queue: Some(q1),
                deps: vec![],
                cost: Cost::Fixed(Ns(300)),
                label: "h2d".into(),
                effects: Effects::none(),
            },
            None,
        );
        let b = sim.push(
            OpSpec {
                engine: Engine::Compute(dev),
                queue: Some(q2),
                deps: vec![a],
                cost: Cost::Fixed(Ns(10)),
                label: "k".into(),
                effects: Effects::none(),
            },
            None,
        );
        let tl = sim.run();
        assert_eq!(tl.record(b).start, Ns(300));
    }

    #[test]
    fn runtime_lock_serializes_allocs_across_devices() {
        let mut sim = Sim::new();
        let rt = sim.add_runtime();
        let d0 = sim.add_device(v100(), rt);
        let d1 = sim.add_device(v100(), rt);
        let q0 = sim.add_queue();
        let q1 = sim.add_queue();
        let (_, a) = sim.alloc_timed(q0, d0, 1024, "alloc0");
        let (_, b) = sim.alloc_timed(q1, d1, 1024, "alloc1");
        let tl = sim.run();
        let lat = v100().alloc_latency;
        assert_eq!(tl.record(a).end, lat);
        // Second device's alloc is blocked behind the shared runtime lock.
        assert_eq!(tl.record(b).start, lat);
        assert_eq!(tl.record(b).end, lat + lat);
    }

    #[test]
    fn separate_runtimes_do_not_contend() {
        let mut sim = Sim::new();
        let rt0 = sim.add_runtime();
        let rt1 = sim.add_runtime();
        let d0 = sim.add_device(v100(), rt0);
        let d1 = sim.add_device(v100(), rt1);
        let q0 = sim.add_queue();
        let q1 = sim.add_queue();
        let (_, a) = sim.alloc_timed(q0, d0, 1024, "alloc0");
        let (_, b) = sim.alloc_timed(q1, d1, 1024, "alloc1");
        let tl = sim.run();
        assert_eq!(tl.record(a).start, Ns(0));
        assert_eq!(tl.record(b).start, Ns(0));
    }

    #[test]
    fn payloads_move_real_bytes() {
        let (mut sim, dev, q) = one_device();
        let src = sim.create_buffer(dev, 4);
        let dst = sim.create_buffer(dev, 4);
        sim.pool_mut().get_mut(src).copy_from_slice(&[1, 2, 3, 4]);
        sim.push(
            OpSpec {
                engine: Engine::Compute(dev),
                queue: Some(q),
                deps: vec![],
                cost: Cost::Kernel {
                    class: KernelClass::Memcpy,
                    bytes: 4,
                },
                label: "copy".into(),
                effects: Effects::read(src).and_write(dst),
            },
            Some(Box::new(move |pool: &mut MemPool| {
                let (s, d) = pool.get_pair_mut(src, dst);
                d.copy_from_slice(s);
            })),
        );
        sim.run();
        assert_eq!(sim.take_buffer(dst), vec![1, 2, 3, 4]);
    }

    #[test]
    fn audit_mode_records_observed_accesses_per_op() {
        let (mut sim, dev, q) = one_device();
        sim.set_audit(true);
        let src = sim.create_buffer(dev, 4);
        let dst = sim.create_buffer(dev, 4);
        let stray = sim.create_buffer(dev, 4);
        sim.pool_mut().get_mut(src).copy_from_slice(&[1, 2, 3, 4]);
        let a = sim.push(
            OpSpec {
                engine: Engine::Compute(dev),
                queue: Some(q),
                deps: vec![],
                cost: Cost::Kernel {
                    class: KernelClass::Memcpy,
                    bytes: 4,
                },
                label: "copy".into(),
                effects: Effects::read(src).and_write(dst),
            },
            Some(Box::new(move |pool: &mut MemPool| {
                let (s, d) = pool.get_pair_mut(src, dst);
                d.copy_from_slice(s);
                // Undeclared write: recorded, not fatal, in audit mode.
                pool.get_mut(stray).fill(9);
            })),
        );
        sim.push(
            OpSpec {
                engine: Engine::Compute(dev),
                queue: Some(q),
                deps: vec![],
                cost: Cost::Fixed(Ns(10)),
                label: "noop".into(),
                effects: Effects::none(),
            },
            None,
        );
        let tl = sim.run();
        let obs = sim.take_observed();
        assert_eq!(obs.len(), 2);
        assert!(obs[0].had_payload);
        assert!(obs[0].observed.reads.contains(&src));
        assert!(obs[0].observed.writes.contains(&dst));
        assert!(obs[0].observed.writes.contains(&stray));
        assert_eq!(obs[1].label, "noop");
        assert!(!obs[1].had_payload);
        assert!(obs[1].observed.is_empty());
        // Auditing changes neither virtual timing nor data movement.
        assert_eq!(tl.record(a).start, Ns(0));
        assert_eq!(sim.take_buffer(dst), vec![1, 2, 3, 4]);
    }

    #[test]
    fn transfer_cost_uses_dma_model() {
        let (mut sim, dev, q) = one_device();
        let bytes = 64 << 20; // saturated region: 45 GB/s NVLink on V100
        let a = sim.push(
            OpSpec {
                engine: Engine::H2D(dev),
                queue: Some(q),
                deps: vec![],
                cost: Cost::Transfer { bytes },
                label: "h2d".into(),
                effects: Effects::none(),
            },
            None,
        );
        let tl = sim.run();
        let dur = tl.record(a).end - tl.record(a).start;
        let expect = v100().h2d.duration(bytes);
        assert_eq!(dur, expect);
        // ~1.5 ms for 64 MiB at 45 GB/s.
        let got_gbps = bytes as f64 / dur.0 as f64;
        assert!((got_gbps - 45.0).abs() < 1.5, "got {got_gbps} GB/s");
    }

    #[test]
    #[should_panic(expected = "not yet submitted")]
    fn forward_dependency_rejected() {
        let (mut sim, dev, q) = one_device();
        sim.push(
            OpSpec {
                engine: Engine::Compute(dev),
                queue: Some(q),
                deps: vec![OpId(5)],
                cost: Cost::Fixed(Ns(1)),
                label: "bad".into(),
                effects: Effects::none(),
            },
            None,
        );
    }

    #[test]
    #[should_panic(expected = "not valid on engine")]
    fn kernel_cost_on_dma_engine_rejected() {
        let (mut sim, dev, q) = one_device();
        sim.push(
            OpSpec {
                engine: Engine::H2D(dev),
                queue: Some(q),
                deps: vec![],
                cost: Cost::Kernel {
                    class: KernelClass::Other,
                    bytes: 1,
                },
                label: "bad".into(),
                effects: Effects::none(),
            },
            None,
        );
    }

    #[test]
    fn free_timed_marks_buffer() {
        let (mut sim, dev, q) = one_device();
        let (buf, op) = sim.alloc_timed(q, dev, 16, "a");
        sim.free_timed(q, buf, vec![op], "f");
        sim.run();
        assert_eq!(sim.pool().resident_bytes(dev), 0);
    }

    fn mixed_op_schedule(sim: &mut Sim, dev: DeviceId, q: QueueId) {
        let q2 = sim.add_queue();
        let buf = sim.create_buffer(dev, 256);
        let h = sim.push(
            OpSpec {
                engine: Engine::H2D(dev),
                queue: Some(q),
                deps: vec![],
                cost: Cost::Transfer { bytes: 256 },
                label: "h2d".into(),
                effects: Effects::write(buf),
            },
            Some(Box::new(move |pool: &mut MemPool| {
                pool.get_mut(buf).fill(7);
            })),
        );
        let k = sim.push(
            OpSpec {
                engine: Engine::Compute(dev),
                queue: Some(q2),
                deps: vec![h],
                cost: Cost::Kernel {
                    class: KernelClass::Huffman,
                    bytes: 256,
                },
                label: "kernel".into(),
                effects: Effects::read(buf),
            },
            None,
        );
        sim.free_timed(q, buf, vec![k], "free");
    }

    #[test]
    fn trace_records_all_ops_with_scheduler_times() {
        let (mut sim, dev, q) = one_device();
        mixed_op_schedule(&mut sim, dev, q);
        sim.set_trace(true);
        let tl = sim.run();
        let trace = sim.take_trace().expect("tracing was on");
        assert_eq!(trace.len(), 3);
        for (i, span) in trace.spans().iter().enumerate() {
            assert_eq!(span.op, i);
            assert_eq!(span.start, tl.record(OpId(i)).start);
            assert_eq!(span.end, tl.record(OpId(i)).end);
        }
        // The kernel became ready when the h2d finished.
        assert_eq!(trace.spans()[1].ready, tl.record(OpId(0)).end);
        assert_eq!(trace.spans()[1].deps, vec![0]);
        // h2d footprint: its 256-byte destination buffer was live.
        assert_eq!(trace.spans()[0].footprint_bytes, 256);
        // free footprint: the buffer is gone by the time the free ends.
        assert_eq!(trace.spans()[2].footprint_bytes, 0);
        assert_eq!(trace.makespan(), tl.makespan());
    }

    #[test]
    fn tracing_does_not_change_virtual_times() {
        let build = |trace: bool| {
            let (mut sim, dev, q) = one_device();
            mixed_op_schedule(&mut sim, dev, q);
            sim.set_trace(trace);
            sim.run()
        };
        let off = build(false);
        let on = build(true);
        assert_eq!(off.makespan(), on.makespan());
        for i in 0..3 {
            assert_eq!(off.record(OpId(i)).start, on.record(OpId(i)).start);
            assert_eq!(off.record(OpId(i)).end, on.record(OpId(i)).end);
        }
    }

    #[test]
    fn take_trace_is_none_when_tracing_off() {
        let (mut sim, dev, q) = one_device();
        mixed_op_schedule(&mut sim, dev, q);
        sim.run();
        assert!(sim.take_trace().is_none());
    }
}
