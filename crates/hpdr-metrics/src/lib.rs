//! HPDR observability: a virtual-time instrument registry with
//! per-tenant SLO tracking.
//!
//! The framework's serving and pipeline layers run on a deterministic
//! virtual clock (1 byte/ns); this crate makes that observable without
//! giving the determinism up. A [`Registry`] holds monotonic counters,
//! gauges and log-linear [`StreamingHistogram`]s, scrapes them at fixed
//! virtual intervals into bounded ring series, and renders them as
//! Prometheus-style text exposition or `hpdr-metrics/v1` JSON — both
//! byte-identical across runs with the same seed. [`SloTracker`] layers
//! per-tenant latency objectives and sliding-window error-budget burn
//! rates on top, firing rising-edge alerts into `slo_alerts_total` and
//! the metrics document.
//!
//! See DESIGN.md §13 for the metrics model and the SLO/burn-rate math.

pub mod collect;
pub mod histogram;
pub mod registry;
pub mod slo;

pub use collect::{record_batch_trace, record_pool_stats, BatchTraceIds};
pub use histogram::{bucket_width, exact_quantile, StreamingHistogram};
pub use hpdr_sim::json::{parse_json, JsonValue};
pub use registry::{validate_metrics_json, InstrumentId, MetricsConfig, Registry, METRICS_SCHEMA};
pub use slo::{SloAlert, SloAttainment, SloConfig, SloTracker};
