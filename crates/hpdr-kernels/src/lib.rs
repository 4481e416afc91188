//! # hpdr-kernels — shared device primitives
//!
//! The reduction pipelines (Huffman-X, ZFP-X, MGARD-X) share a small set
//! of data-parallel building blocks, each expressed against the
//! [`hpdr_core::DeviceAdapter`] trait so they run unchanged on every
//! adapter:
//!
//! * [`histogram`] — replicated-private-copy histograms;
//! * [`sort`] — the codebook's radix sort;
//! * [`reduce`] — the min/max reduction (range and finiteness check);
//! * [`bitstream`] — portable LSB-first bit streams;
//! * [`blocks`] — n-dimensional block gather/scatter with edge padding;
//! * [`simd`] — runtime-dispatched kernel tiers (scalar/AVX2) for the
//!   codec hot loops, byte-identical across tiers.
//
// Kernels write disjoint index sets of shared outputs through
// `hpdr_core::SharedSlice` (each call site documents its disjointness
// argument); together with `hpdr-core/src/shared.rs` this crate forms the
// workspace's sanctioned `unsafe` island under `unsafe_code = "deny"`.
#![allow(unsafe_code)]

pub mod bitstream;
pub mod blocks;
pub mod histogram;
pub mod reduce;
pub mod simd;
pub mod sort;

pub use bitstream::{BitReader, BitWriter};
pub use blocks::BlockGrid;
pub use histogram::{histogram_u32, histogram_u8};
pub use reduce::min_max;
pub use simd::{kernels, kernels_for_par, KernelDispatch, SimdTier};
pub use sort::radix_sort_by_key;
