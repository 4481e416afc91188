//! # HPDR — High-Performance Portable Scientific Data Reduction
//!
//! A Rust reproduction of *"HPDR: High-Performance Portable Scientific
//! Data Reduction Framework"* (IPDPS 2025). The framework layers
//! (paper Fig. 2), bottom to top:
//!
//! | Layer | Crate | Contents |
//! |---|---|---|
//! | Device adapters | `hpdr_core::adapter`, `hpdr_core::gpu_sim` | Serial / CPU-parallel / simulated CUDA & HIP devices |
//! | Machine abstraction | `hpdr_core` (GEM/DEM, CMM), `hpdr_pipeline` (HDEM) | execution models, context memory model, host-device pipeline |
//! | Parallel abstractions | `hpdr_core::abstractions` | Locality and Iterative group launches; the Map&Process and Global rows run as plain adapter launches |
//! | Reduction algorithms | `hpdr_mgard`, `hpdr_zfp`, `hpdr_huffman`, `hpdr_baselines` | MGARD-X, ZFP-X, Huffman-X + cuSZ/LZ4 comparators |
//! | Pipeline optimization | `hpdr_pipeline` | Fig. 9 overlapped DAG, Algorithm 4 adaptive chunking, multi-GPU |
//! | I/O integration | `hpdr_io` | BP5-like files, filesystem model, cluster scaling harness |
//!
//! ## Quickstart
//!
//! ```
//! use hpdr::{compress_slice, decompress_slice, Codec};
//! use hpdr::MgardConfig;
//! use hpdr::{CpuParallelAdapter, Shape};
//!
//! let adapter = CpuParallelAdapter::with_defaults();
//! let shape = Shape::new(&[64, 64]);
//! let data: Vec<f32> = (0..64 * 64)
//!     .map(|i| ((i / 64) as f32 * 0.1).sin() + ((i % 64) as f32 * 0.07).cos())
//!     .collect();
//!
//! let (stream, stats) =
//!     compress_slice(&adapter, &data, &shape, Codec::Mgard(MgardConfig::relative(1e-2)))
//!         .unwrap();
//! assert!(stats.ratio > 4.0, "smooth data compresses well");
//!
//! let (restored, restored_shape) = decompress_slice::<f32>(&adapter, &stream).unwrap();
//! assert_eq!(restored_shape, shape);
//! assert_eq!(restored.len(), data.len());
//! ```
//!
//! Because no GPU hardware is assumed, the CUDA/HIP adapters run on a
//! deterministic virtual-time device simulator (see `hpdr-sim`): kernels
//! execute for real on host threads while timing is charged against
//! calibrated engine models — every compressed byte is real, every
//! reported overlap/throughput number comes from the simulated engines.

pub mod api;

pub use api::{
    compress, compress_slice, decompress, decompress_slice, detect_codec, reducer_by_name, Codec,
    CompressionStats,
};

// Layer re-exports under stable names.
pub use hpdr_baselines as baselines;
pub use hpdr_core as framework;
pub use hpdr_data as data;
pub use hpdr_huffman as huffman;
pub use hpdr_io as io;
pub use hpdr_kernels as kernels;
pub use hpdr_mgard as mgard;
pub use hpdr_pipeline as pipeline;
pub use hpdr_progressive as progressive;
pub use hpdr_sim as sim;
pub use hpdr_trace as trace;
pub use hpdr_zfp as zfp;

// The most-used types at the top level.
pub use hpdr_baselines::SzConfig;
pub use hpdr_core::{
    ArrayMeta, CpuParallelAdapter, DType, DeviceAdapter, GpuSimAdapter, HpdrError, Reducer, Result,
    SerialAdapter, Shape,
};
pub use hpdr_mgard::{ErrorBound, MgardConfig};
pub use hpdr_pipeline::{PipelineMode, PipelineOptions};
pub use hpdr_zfp::{ZfpConfig, ZfpMode};

pub mod bench;
pub mod cli;
pub mod slo;
