//! # hpdr-flight — per-job causal tracing for the serving cluster
//!
//! PR 9's sharded cluster made job latency multi-causal: admission
//! queueing, off-home transfers, batching delays, node-failure
//! re-routing and retries all stack into one number. This crate makes
//! the attribution a first-class artifact:
//!
//! - [`TraceContext`] rides on every `JobRequest` and survives shard
//!   re-routes, transfers, batch launches, and retries.
//! - Each lifecycle transition is a typed [`JobEvent`] recorded into a
//!   fixed-capacity ring-buffer [`FlightRecorder`] per shard — cheap
//!   enough to leave on, and a black-box dump when a node dies.
//! - A deterministic tail-based sampler ([`analyze`]) keeps full event
//!   streams only for interesting jobs: p99 outliers against a
//!   streaming quantile sketch, all failures/timeouts/retries, and a
//!   seeded 1-in-N baseline.
//! - The causal analyzer decomposes each job's latency into an additive
//!   queue / placement / transfer / batch / service / retry breakdown
//!   that provably sums to the end-to-end virtual-time latency, plus
//!   per-tenant and per-shard blame tables.
//! - [`report::to_json`] emits the schema-validated `hpdr-flight/v1`
//!   document on the shared envelope; [`report::explain_lines`] renders
//!   `hpdr explain`.

pub mod analyze;
pub mod record;
pub mod report;

pub use analyze::{analyze, sample_hash, Blackbox, BlameRow, FlightReport, JobSummary};
pub use record::{
    sort_events, FlightConfig, FlightLog, FlightRecorder, JobEvent, JobEventKind, TraceContext,
};
pub use report::{
    check_flight, explain_lines, parse_flight_rows, to_json, validate_flight_json, FlightRow,
    FLIGHT_SCHEMA,
};
