//! # hpdr-progressive — multi-fidelity refactoring & progressive retrieval
//!
//! The paper positions HPDR as the substrate for downstream
//! refactoring/retrieval stacks; this crate is that layer (HP-MDR
//! style). It refactors MGARD-X output into per-**(level × bit-plane)
//! components**, each independently Huffman-coded, stored as separate
//! variable blocks in the `hpdr-io` BP container next to a [`Manifest`]
//! recording every component's size and error-contribution estimate.
//!
//! A [`ProgressiveReader`] plans the minimal fetch for a tolerance
//! (greedy by error-contribution per byte), reads exactly those blocks,
//! and [`ProgressiveReader::refine`]s to tighter tolerances by fetching
//! strictly the delta while reusing all decoded state — one stored
//! container serves every reader at the fidelity it needs.
//!
//! Retrieval also exists as a scheduled op DAG ([`RetrieveJob`],
//! [`plan_retrieve`]) with declared buffer effects: it is one of the
//! pipeline's chunk jobs (`hpdr_pipeline::ChunkJob`), so `hpdr verify`
//! and `hpdr audit` certify progressive schedules exactly like the
//! compress/decompress pipelines, and `hpdr-serve` batches
//! `JobKind::Retrieve` jobs through the same launch path.

pub mod job;
pub mod plan;
pub mod refactoring;
pub mod store;

pub use job::{plan_retrieve, RetrieveJob};
pub use plan::{plan_fetch, FetchPlan};
pub use refactoring::{
    level_counts, reconstruct, reconstruct_bytes, refactor_progressive, ComponentInfo, DecodeState,
    Manifest, ProgressiveConfig, Refactoring, Retrieval, OPERATOR_GAIN,
};
pub use store::{write_bp, ProgressiveReader, MANIFEST_VAR};
