//! # hpdr-core — the HPDR framework layers
//!
//! Implements the three bottom layers of the HPDR stack (paper Fig. 2):
//!
//! 1. **Parallelization abstractions** ([`abstractions`]): the Locality
//!    and Iterative group launches the codecs' block, row and solve
//!    stages run on; the Map&Process and Global-Pipeline rows run as
//!    plain adapter launches (the module doc names the code behind each
//!    Table I row).
//! 2. **Machine abstraction**: the Group and Domain Execution Models are
//!    the two entry points of the [`adapter::DeviceAdapter`] trait (GEM
//!    staging comes uninitialized, as GPU shared memory does); the
//!    Context Memory Model lives in [`cmm`]. (The Host-Device Execution
//!    Model is the `hpdr-pipeline` crate.)
//! 3. **Device adapters** ([`adapter`], [`gpu_sim`]): Serial,
//!    CPU-parallel (OpenMP analogue) and simulated CUDA/HIP devices.
//!
//! Plus the shared plumbing every algorithm crate needs: scalar/type
//! abstractions ([`float`]), shapes and the array header ([`shape`]),
//! little-endian stream I/O and the container frame ([`bytesio`]), the
//! typed codec adapter ([`reducer`]), disjoint-write shared slices
//! ([`shared`]) and the error type ([`error`]).

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

pub use abstractions::{Iterative, Locality};
pub use adapter::{AdapterInfo, AdapterKind, CpuParallelAdapter, DeviceAdapter, SerialAdapter};
pub use bytesio::{ByteReader, ByteWriter, FrameHeader};
pub use cmm::{fnv1a, CmmStats, ContextCache, ContextKey};
pub use error::{HpdrError, LowestError, Result};
pub use float::{DType, Float};
pub use gpu_sim::GpuSimAdapter;
pub use pool::{PoolPanic, PoolStats, WorkerPool};
pub use reducer::{Reducer, TypedCodec};
pub use shape::{ArrayMeta, Shape};
pub use shared::SharedSlice;

// Re-exported so algorithm crates can charge kernel costs without a
// direct hpdr-sim dependency.
pub use hpdr_sim::{KernelClass, Ns};
