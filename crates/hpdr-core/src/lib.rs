//! # hpdr-core — the HPDR framework layers
//!
//! Implements the three bottom layers of the HPDR stack (paper Fig. 2):
//!
//! 1. **Parallelization abstractions** ([`abstractions`]): Locality,
//!    Iterative, Map&Process, Global-Pipeline — the vocabulary reduction
//!    algorithms are written in.
//! 2. **Machine abstraction**: the Group and Domain Execution Models are
//!    the two entry points of the [`adapter::DeviceAdapter`] trait; the
//!    Context Memory Model lives in [`cmm`]. (The Host-Device Execution
//!    Model is the `hpdr-pipeline` crate.)
//! 3. **Device adapters** ([`adapter`], [`gpu_sim`]): Serial,
//!    CPU-parallel (OpenMP analogue) and simulated CUDA/HIP devices.
//!
//! Plus the shared plumbing every algorithm crate needs: scalar/type
//! abstractions ([`float`]), shapes ([`shape`]), little-endian stream I/O
//! ([`bytesio`]), disjoint-write shared slices ([`shared`]) and the error
//! type ([`error`]).

pub mod abstractions;
pub mod adapter;
pub mod bytesio;
pub mod cmm;
pub mod error;
pub mod float;
pub mod gpu_sim;
pub mod pool;
pub mod reducer;
pub mod shape;
pub mod shared;

pub use abstractions::{global_pipeline, GlobalStage, Iterative, Locality, MapAndProcess};
pub use adapter::{
    AdapterInfo, AdapterKind, CpuParallelAdapter, DeviceAdapter, KernelCharge, ScratchPolicy,
    SerialAdapter,
};
pub use bytesio::{ByteReader, ByteWriter, FrameHeader};
pub use cmm::{fnv1a, CmmStats, ContextCache, ContextKey};
pub use error::{HpdrError, LowestError, Result};
pub use float::{DType, Float};
pub use gpu_sim::GpuSimAdapter;
pub use pool::{PoolPanic, PoolStats, WorkerPool};
pub use reducer::Reducer;
pub use shape::{ArrayMeta, Shape};
pub use shared::SharedSlice;

// Re-exported so algorithm crates can charge kernel costs without a
// direct hpdr-sim dependency.
pub use hpdr_sim::{KernelClass, Ns};
