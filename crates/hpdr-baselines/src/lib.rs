//! # hpdr-baselines — comparator reduction pipelines
//!
//! The non-HPDR compressors the paper evaluates against (§VI-A):
//!
//! * [`szlike`] — "cuSZ v0.6" analogue: dual-quant Lorenzo prediction +
//!   Huffman with escape-coded outliers (guaranteed error bound);
//! * [`lz4like`] — "nvCOMP-LZ4 v2.2" analogue: greedy hash-table LZ77
//!   (lossless, ~1.1× on float data);
//!
//! The MGARD-GPU / ZFP-CUDA comparators need no crate of their own: they
//! run the portable kernels under the non-optimized schedules (no
//! transfer overlap, per-call allocations, CMM off),
//! `hpdr_pipeline::PipelineOptions::baseline_unoptimized` and
//! `baseline_per_step`.

pub mod lorenzo;
pub mod lz4like;
pub mod szlike;

pub use lz4like::{lz_compress, lz_decompress, Lz4Reducer};
pub use szlike::{SzConfig, SzReducer};
