//! # hpdr-trace — observability over the virtual-time machine
//!
//! PR 1 gave the scheduler a *static* twin (the happens-before hazard
//! analyzer in `hpdr-sim/verify`); this crate is its *dynamic* twin.
//! A [`hpdr_sim::Trace`] — one span per executed op, the record
//! [`hpdr_sim::Sim::run`] returns — is turned into:
//!
//! * **Chrome-trace / Perfetto JSON** ([`to_chrome_trace`]): pid =
//!   device, tid = engine, one complete event per span, ready to drop
//!   into `chrome://tracing` or <https://ui.perfetto.dev>;
//! * **aggregated metrics** ([`metrics`]): per-engine busy/utilization,
//!   per-op-class latency histograms, and one [`Digest`] per trace with
//!   the per-category busy time, the paper §V-C compute↔DMA overlap
//!   ratio, the Fig. 1 memory-op time share, and allocator contention
//!   time (CMM on vs off);
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
mod timeline;

pub use chrome::{to_chrome_trace, validate_chrome_trace, ChromeTraceSummary};
pub use critical::{critical_path, CriticalPath};
pub use metrics::{
    digest, digest_with, engine_name, engine_stats, latency_histograms, wall_overlap_ratio, Digest,
    DigestScratch, EngineStats, LatencyHistogram,
};
pub use report::Profile;
