//! # hpdr-mgard — MGARD-X
//!
//! Portable multigrid error-bounded lossy compressor on the HPDR
//! abstractions (paper §IV-A, Algorithm 1): multilevel decomposition
//! (multilinear-interpolation coefficients + L2-projection corrections
//! via mass-transfer and batched tridiagonal solves), per-level linear
//! quantization via Map&Process, and Huffman entropy coding.
//!
//! Works on 1–4D uniform grids of arbitrary extent (4D folds into 3D),
//! `f32`/`f64`, with relative or absolute L∞ error bounds. Reduction
//! contexts (hierarchy, node-level maps, scratch) are cached through the
//! Context Memory Model.

// The coefficient kernels write disjoint index sets of shared outputs through
// `hpdr_core::SharedSlice` (each site documents its disjointness
// argument) — part of the workspace's sanctioned `unsafe` island under
// `unsafe_code = "deny"`.
#![allow(unsafe_code)]

pub mod codec;
pub mod decompose;
pub mod hierarchy;
pub mod operators;
pub mod quantize;

pub use codec::{
    compress, context_cache, context_for, decompress, ErrorBound, MgardConfig, MgardContext,
};
pub use hierarchy::Hierarchy;
pub mod reducer;
pub use reducer::MgardReducer;
