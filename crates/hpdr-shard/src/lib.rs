//! hpdr-shard: sharded cross-node serving for HPDR reduction jobs.
//!
//! A cluster front-end that places tenants' compress / decompress /
//! progressive-retrieve jobs across N independent `hpdr-serve`
//! scheduler shards — one per simulated node — behind a single logical
//! queue, all on one shared virtual clock:
//!
//! - **Placement** ([`placement`]): deterministic rendezvous (HRW)
//!   hashing with data affinity — jobs that consume the same stored
//!   container or progressive component set land on the node where it
//!   lives — plus byte-weighted least-loaded spill-over when the
//!   preferred shard's admission controller backpressures. A seeded
//!   random policy serves as the locality baseline.
//! - **Cross-node exchange** ([`cluster`]): off-home data jobs trigger
//!   fetches costed through the `hpdr-io` filesystem model; the bytes
//!   become resident in the node's payload cache (per-shard hit rates
//!   make locality measurable) and the transfer is counted in the
//!   report and recorded in the job's flight events.
//! - **Failure recovery** ([`cluster`]): a shard can be killed mid-run
//!   on the virtual clock; its queued and in-flight jobs re-route to
//!   survivors under a bounded retry budget, counted in the report and
//!   checked by the cluster zero-lost-jobs invariant.
//! - **Reporting** ([`report`]): `hpdr-shard/v1` envelope documents
//!   aggregating the per-shard `hpdr-serve/v1` reports with shard-merged
//!   latency histograms, placement / steal / retry counters and
//!   per-shard utilization — byte-reproducible per seed.
//!
//! Module map:
//! - [`placement`] — placement policies, data keys, rendezvous hashing.
//! - [`cluster`] — the shard-stepping event loop, transfers, failure.
//! - [`report`] — `hpdr-shard/v1` reports and their validator.
//! - [`loadgen`] — the seeded loadgen workloads through the cluster.

pub mod cluster;
pub mod loadgen;
pub mod placement;
pub mod report;

pub use cluster::{run_cluster, Cluster, ClusterConfig, ClusterOutcome};
pub use loadgen::{cluster_config, run_cluster_loadgen, ClusterLoadOptions};
pub use placement::{data_key, home_of, hrw_pick, DataKey, PlacementPolicy};
pub use report::{validate_cluster_json, ClusterReport, ShardRow, CLUSTER_SCHEMA};

// Flight-recorder surface cluster callers need (the full API lives in
// `hpdr_flight`).
pub use hpdr_flight::{explain_lines, validate_flight_json, FlightConfig, FlightReport};
