//! hpdr-serve: a multi-tenant reduction job scheduler.
//!
//! This crate turns the HPDR pipeline into a *service*: many concurrent
//! compress/decompress jobs (codec × error bound × shape), admitted
//! under a byte-budget admission controller with bounded-queue
//! backpressure, batched into shared pipeline launches (continuous
//! batching over [`hpdr_pipeline::run_batch`], reusing CMM context
//! memory per device), and dispatched across the simulated multi-GPU
//! device pool with per-tenant fair scheduling, priorities, deadlines
//! and cooperative cancellation.
//!
//! Everything is driven by virtual time ([`hpdr_sim::Ns`]): per-job
//! latency and queue wait come from the one [`JobRecord`] the scheduler
//! writes per admitted job, and a full run serializes to a
//! schema-validated, byte-reproducible [`ServeReport`]. The [`loadgen`] module generates deterministic
//! seeded workloads and reports p50/p95/p99 latency, goodput, and
//! rejection rate, plus a batched-vs-serial scheduler microbench.
//!
//! Module map:
//! - [`job`] — job model: tenants, codecs, payloads, outcomes.
//! - [`admission`] — byte-budget + depth admission control.
//! - [`scheduler`] — the deterministic event-loop scheduler.
//! - [`report`] — `hpdr-serve/v1` JSON reports and their validator.
//! - [`histogram`] — bounded-memory latency quantile sketch.
//! - [`script`] — line-oriented job scripts (`hpdr serve --jobs`).
//! - [`loadgen`] — seeded open/closed-loop workload generation.

pub mod admission;
pub mod error;
pub mod histogram;
pub mod job;
pub mod loadgen;
pub mod report;
pub mod scheduler;
pub mod script;

pub use admission::{Admission, AdmissionConfig};
pub use error::ServeError;
pub use histogram::{exact_quantile, StreamingHistogram};
pub use job::{
    CancelToken, JobId, JobKind, JobOutcome, JobPayload, JobRecord, JobRequest, ServeCodec,
    TenantId,
};
pub use loadgen::{
    run_loadgen, validate_loadgen_json, LoadgenOptions, LoadgenReport, LOADGEN_SCHEMA,
};
pub use report::{check_serve, validate_serve_json, LatencySummary, ServeReport, SERVE_SCHEMA};
pub use scheduler::{
    serve, JobSource, Policy, Scheduler, ServeConfig, ServeOutcome, VecSource, NODE_FAILURE,
};
pub use script::{parse_script, parse_script_with, CacheStats, PayloadCache, DEMO_SCRIPT};

// Metrics types callers need to configure `ServeConfig::metrics` and
// consume `ServeReport::metrics` without a direct hpdr-metrics dep.
pub use hpdr_metrics::{
    validate_metrics_json, MetricsConfig, Registry, SloAlert, SloConfig, METRICS_SCHEMA,
};

// Flight-recorder types callers need to configure `ServeConfig::flight`
// and consume `ServeOutcome::flight` without a direct hpdr-flight dep.
pub use hpdr_flight::{FlightConfig, FlightLog, TraceContext};
