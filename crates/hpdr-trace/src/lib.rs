//! # hpdr-trace — observability over the virtual-time machine
//!
//! PR 1 gave the scheduler a *static* twin (the happens-before hazard
//! analyzer in `hpdr-sim/verify`); this crate is its *dynamic* twin.
//! A [`hpdr_sim::Trace`] — one span per executed op, recorded by
//! [`hpdr_sim::Sim::set_trace`] — is turned into:
//!
//! * **Chrome-trace / Perfetto JSON** ([`to_chrome_trace`]): pid =
//!   device, tid = engine, one complete event per span, ready to drop
//!   into `chrome://tracing` or <https://ui.perfetto.dev>;
//! * **aggregated metrics** ([`metrics`]): per-engine busy/utilization,
//!   the paper §V-C compute↔DMA overlap ratio, the Fig. 1 memory-op
//!   time share, per-op-class latency histograms, and allocator
//!   contention time (CMM on vs off);
//! * **critical-path extraction** ([`critical_path`]): the chain of ops
//!   that bounds end-to-end time, walked backward through the three
//!   happens-before edge families (explicit deps, queue program order,
//!   engine serialization), with a per-category breakdown of where the
//!   bound sits (H2D/D2H vs compute — the Fig. 1 story derived from a
//!   trace instead of hand-rolled counters);
//! * a one-stop [`Profile`] report combining all of the above with
//!   internal invariant checks (used by `hpdr profile` and CI smoke).

pub mod chrome;
pub mod critical;
pub mod metrics;
pub mod report;

pub use chrome::{to_chrome_trace, validate_chrome_trace, ChromeTraceSummary};
pub use critical::{critical_path, CriticalPath};
pub use metrics::{
    alloc_contention, batch_digest, batch_digest_with, category_of, engine_name, engine_stats,
    job_span_stats, latency_histograms, memory_fraction, merge_shard_traces, overlap_ratio,
    wall_overlap_ratio, BatchDigest, DigestScratch, EngineStats, JobSpanStats, LatencyHistogram,
};
pub use report::Profile;
