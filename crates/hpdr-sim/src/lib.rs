//! # hpdr-sim — virtual-time machine model
//!
//! The HPDR paper evaluates on NVIDIA and AMD GPUs. This reproduction has
//! no GPU hardware, so the CUDA/HIP device adapters are backed by a
//! **deterministic virtual-time discrete-event simulator**: kernels and
//! DMA copies execute *for real* on the host (payload closures moving real
//! bytes through a [`mem::MemPool`]), while their *timing* is charged
//! against calibrated engine models ([`spec::DeviceSpec`]).
//!
//! This preserves every effect the paper studies:
//!
//! * host↔device transfer vs. compute overlap (two DMA engines + one
//!   compute engine per device, paper Fig. 8);
//! * pipeline depth & chunk-size trade-offs (per-size roofline throughput,
//!   paper Fig. 11 / Algorithm 4);
//! * allocation contention between GPUs sharing one runtime
//!   (a node-wide [`sim::Engine::Runtime`] lock engine, paper §III-B);
//! * launch-order effects (engines execute in submission order, so the
//!   Fig. 9 dependency/ordering optimizations are directly expressible).
//!
//! Virtual time is deterministic, which makes pipeline schedules
//! unit-testable down to the nanosecond. Payloads run serially, or
//! concurrently where the DAG allows ([`exec`]); the outputs and the
//! virtual times are the same either way.

pub mod effects;
pub mod exec;
pub mod horizon;
pub mod json;
pub mod mem;
pub mod sim;
pub mod spec;
pub mod time;
pub mod trace;
pub mod verify;

pub use effects::Effects;
pub use exec::Workers;
pub use horizon::BusyHorizon;
pub use mem::{BufId, MemPool};
pub use sim::{
    kind_of, Cost, DeviceId, Engine, OpAudit, OpId, OpSpec, Payload, QueueId, RuntimeId, Sim,
};
pub use spec::{
    a100, all_gpus, mi250x, rtx3090, v100, Arch, DeviceSpec, KernelClass, ThroughputModel,
};
pub use time::{gbps, Ns};
pub use trace::{Category, RuntimeStats, SpanRecord, Trace};
pub use verify::{analyze, Dag, DagOp, Hazard, OpKind, VerifyReport};
