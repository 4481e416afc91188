//! # hpdr-huffman — Huffman-X
//!
//! Portable parallel Huffman entropy codec built on the HPDR abstractions
//! (paper §IV-B, Algorithm 2). The pipeline is: Global histogram → sort →
//! filter → two-phase treeless canonical codebook generation → Locality
//! encode → Global serialize (scan + atomic-OR bit packing). Decoding is
//! chunk-parallel via recorded bit offsets.
//!
//! Streams are canonical and little-endian, so data compressed on any
//! adapter decompresses bit-identically on any other — the portability
//! property HPDR is built around.

// The encode/decode kernels write disjoint index sets of shared outputs through
// `hpdr_core::SharedSlice` (each site documents its disjointness
// argument) — part of the workspace's sanctioned `unsafe` island under
// `unsafe_code = "deny"`.
#![allow(unsafe_code)]

pub mod codebook;
pub mod codec;

pub use codebook::{Code, Codebook, TwoLevelTable, MAX_CODE_LEN};
pub use codec::{
    compress_bytes, compress_u32, decompress_bytes, decompress_u32, stream_dict_size, HuffKey,
    HuffmanConfig,
};
pub mod reducer;
pub use reducer::ByteHuffmanReducer;
