//! The cluster front-end: one logical job queue over N scheduler
//! shards.
//!
//! Each shard is an independent [`hpdr_serve::Scheduler`] (one per
//! simulated node) stepped by this module's event loop on one shared
//! virtual clock. Jobs are placed by [`crate::placement`]: rendezvous
//! hashing with data affinity (or seeded random scatter as the
//! baseline), with byte-weighted least-loaded spill-over when the
//! preferred shard's admission controller backpressures.
//!
//! **Data residency.** Every stored object (a container or progressive
//! component set) has a *home* node — the rendezvous winner for its
//! [`DataKey`] — where reads are local. Each node also keeps a
//! [`PayloadCache`] residency tracker: a job placed where its object is
//! neither home nor cached triggers a cross-node fetch costed through
//! the `hpdr-io` filesystem model ([`FetchCostModel`]) — the job waits
//! out the virtual transfer, the bytes land in the node's cache, and
//! the exchange shows up in the merged trace as an `xfer[…]` span.
//! Concurrent fetches of the same object to the same node coalesce.
//! Granularity is deliberately coarse: one fetch makes the whole
//! object resident (components of a set are not tracked separately).
//!
//! **Failure and recovery.** At most one node can be killed mid-run on
//! the virtual clock. [`Scheduler::fail`] drains its queued and
//! in-flight jobs; the non-cancelled, non-expired ones — plus any jobs
//! parked on in-flight transfers targeting the dead node — are
//! re-placed across the survivors with a bounded per-job retry budget.
//! Every re-placement leaves a `reroute[…]` span, and the accounting
//! distinguishes re-routed jobs (the dead shard's `NODE_FAILURE`
//! records) from real codec failures, so the cluster-level
//! zero-lost-jobs invariant stays checkable.

use crate::placement::{
    data_key, home_of, hrw_pick, placement_bytes, random_pick, DataKey, PlacementPolicy,
};
use hpdr_core::{DeviceAdapter, PoolStats};
use hpdr_flight::{
    analyze, Blackbox, FlightConfig, FlightRecorder, FlightReport, JobEvent as FlightEvent,
    JobEventKind as FlightEventKind, TraceContext,
};
use hpdr_io::{summit_gpfs, FetchCostModel};
use hpdr_serve::{
    JobPayload, JobRequest, JobSource, PayloadCache, Scheduler, ServeConfig, ServeReport, VecSource,
};
use hpdr_sim::{Engine, Ns, OpKind, SpanRecord};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Span-op namespace for cluster-level spans (`xfer[…]`, `reroute[…]`).
/// Matches the namespace [`hpdr_trace::merge_shard_traces`] passes
/// through un-rebased, above every per-shard namespace.
const CLUSTER_OP_BASE: usize = 1 << 42;

/// Cluster configuration.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of scheduler shards (simulated nodes).
    pub nodes: usize,
    pub policy: PlacementPolicy,
    /// Per-shard scheduler configuration. Shards always run unmetered
    /// (`metrics` is forced to `None`): cluster counters live in the
    /// [`crate::report::ClusterReport`].
    pub shard: ServeConfig,
    /// Cost model for cross-node object exchange.
    pub fetch: FetchCostModel,
    /// Kill shard `.0` at virtual instant `.1`.
    pub fail: Option<(usize, Ns)>,
    /// Re-placement budget per job after node failures.
    pub max_retries: u32,
    /// Seed for the random placement policy (and echoed in reports).
    pub seed: u64,
    /// Flight-recorder configuration (`None` disables causal tracing).
    /// [`Cluster::new`] copies it into each shard's own `flight`
    /// setting, so per-shard lifecycle events and cluster-level
    /// placement/transfer/re-route events land in one merged log.
    pub flight: Option<FlightConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 4,
            policy: PlacementPolicy::Locality,
            shard: ServeConfig::default(),
            fetch: FetchCostModel::new(summit_gpfs(), 4),
            fail: None,
            max_retries: 3,
            seed: 7,
            flight: Some(FlightConfig::default()),
        }
    }
}

/// An in-flight cross-node fetch: jobs parked until `ready`.
struct Transfer {
    ready: Ns,
    jobs: Vec<(JobRequest, u32)>,
}

/// Everything a cluster run produces; the serializable
/// [`ClusterReport`](crate::report::ClusterReport) is built from this.
pub struct ClusterOutcome {
    pub nodes: usize,
    pub policy: PlacementPolicy,
    pub seed: u64,
    /// Configured devices per shard (utilization denominator).
    pub shard_devices: usize,
    pub reports: Vec<ServeReport>,
    pub alive: Vec<bool>,
    pub placed: Vec<u64>,
    pub cache_hits: Vec<u64>,
    pub cache_misses: Vec<u64>,
    /// Jobs popped from the logical source (each counted once, however
    /// many shards it visits).
    pub logical_submitted: u64,
    /// Placements diverted off the preferred shard by backpressure.
    pub steals: u64,
    /// Re-placements after the node failure.
    pub rerouted: u64,
    /// Jobs dropped because their retry budget ran out (terminal at the
    /// cluster level; still counted, never lost).
    pub retries_exhausted: u64,
    /// `NODE_FAILURE` records drained out of the dead shard.
    pub drained: u64,
    pub remote_fetches: u64,
    pub remote_fetch_bytes: u64,
    pub remote_fetch_ns: u64,
    /// The failure that actually fired, if any.
    pub failure: Option<(usize, Ns)>,
    /// Cluster-level spans (`xfer`, `reroute`) for the merged trace.
    pub extra_spans: Vec<SpanRecord>,
    /// Causal flight analysis of the merged cluster + shard event logs.
    pub flight: Option<FlightReport>,
}

/// The cluster front-end. Owns the shards, their residency caches, the
/// transfer queue and the shared virtual clock.
pub struct Cluster {
    cfg: ClusterConfig,
    shards: Vec<Scheduler>,
    caches: Vec<PayloadCache>,
    alive: Vec<bool>,
    clock: Ns,
    transfers: BTreeMap<(usize, DataKey), Transfer>,
    /// Retry attempt of each submitted job, keyed (shard, local job id).
    attempts: BTreeMap<(usize, u64), u32>,
    placed: Vec<u64>,
    hits: Vec<u64>,
    misses: Vec<u64>,
    logical_submitted: u64,
    steals: u64,
    rerouted: u64,
    retries_exhausted: u64,
    drained: u64,
    remote_fetches: u64,
    remote_fetch_bytes: u64,
    remote_fetch_ns: u64,
    extra_spans: Vec<SpanRecord>,
    span_seq: usize,
    place_seq: u64,
    fired: bool,
    /// Cluster-level flight recorder (placement, transfers, re-routes).
    recorder: Option<FlightRecorder>,
    /// The dead shard's ring buffer, dumped at the failure instant.
    blackbox: Option<Blackbox>,
}

impl Cluster {
    pub fn new(mut cfg: ClusterConfig, work: Arc<dyn DeviceAdapter>) -> Cluster {
        cfg.nodes = cfg.nodes.max(1);
        cfg.shard.metrics = None;
        cfg.shard.flight = cfg.flight;
        let shards: Vec<Scheduler> = (0..cfg.nodes)
            .map(|_| Scheduler::new(cfg.shard.clone(), Arc::clone(&work)))
            .collect();
        Cluster {
            shards,
            caches: (0..cfg.nodes).map(|_| PayloadCache::new()).collect(),
            alive: vec![true; cfg.nodes],
            clock: Ns::ZERO,
            transfers: BTreeMap::new(),
            attempts: BTreeMap::new(),
            placed: vec![0; cfg.nodes],
            hits: vec![0; cfg.nodes],
            misses: vec![0; cfg.nodes],
            logical_submitted: 0,
            steals: 0,
            rerouted: 0,
            retries_exhausted: 0,
            drained: 0,
            remote_fetches: 0,
            remote_fetch_bytes: 0,
            remote_fetch_ns: 0,
            extra_spans: Vec::new(),
            span_seq: 0,
            place_seq: 0,
            fired: false,
            recorder: cfg.flight.map(FlightRecorder::new),
            blackbox: None,
            cfg,
        }
    }

    /// Record a cluster-level flight event for `req` (no-op when
    /// recording is off; `shard` is `u32::MAX` for events with no
    /// target shard).
    fn flight_event(&mut self, at: Ns, shard: u32, req: &JobRequest, kind: FlightEventKind) {
        if let Some(rec) = self.recorder.as_mut() {
            if req.trace.is_assigned() {
                rec.record(FlightEvent {
                    at,
                    trace: req.trace.trace,
                    hop: req.trace.hop,
                    shard,
                    tenant: req.tenant.0,
                    kind,
                });
            }
        }
    }

    fn live(&self) -> Vec<usize> {
        (0..self.shards.len()).filter(|&s| self.alive[s]).collect()
    }

    /// Drive the logical job stream to completion across the shards.
    pub fn run(mut self, source: &mut dyn JobSource) -> ClusterOutcome {
        loop {
            if let Some((node, at)) = self.cfg.fail {
                if !self.fired && at <= self.clock {
                    self.fire_failure(node);
                }
            }
            self.deliver_due();
            for mut req in source.pop_ready(self.clock) {
                self.logical_submitted += 1;
                if self.recorder.is_some() {
                    // The cluster assigns trace ids: 1-based pop order.
                    req.trace = TraceContext::root(self.logical_submitted);
                    self.flight_event(self.clock, u32::MAX, &req, FlightEventKind::Submit);
                }
                self.place_and_submit(req, 0);
            }
            for s in 0..self.shards.len() {
                if self.alive[s] {
                    self.shards[s].service();
                }
            }
            let mut next: Option<Ns> = None;
            let mut consider = |t: Ns| {
                next = Some(next.map_or(t, |n: Ns| n.min(t)));
            };
            if let Some(t) = source.peek() {
                consider(t.max(self.clock));
            }
            for t in self.transfers.values() {
                consider(t.ready.max(self.clock));
            }
            for (s, sched) in self.shards.iter().enumerate() {
                if self.alive[s] {
                    if let Some(t) = sched.next_event() {
                        consider(t.max(self.clock));
                    }
                }
            }
            if let Some((_, at)) = self.cfg.fail {
                if !self.fired {
                    consider(at.max(self.clock));
                }
            }
            let Some(next) = next else {
                break;
            };
            self.clock = self.clock.max(next);
            let clock = self.clock;
            for s in 0..self.shards.len() {
                if !self.alive[s] {
                    continue;
                }
                for (tenant, at) in self.shards[s].advance_to(clock) {
                    source.on_complete(tenant, at);
                }
            }
        }
        self.finish()
    }

    /// Kill `node` at the current instant and re-place its work.
    fn fire_failure(&mut self, node: usize) {
        self.fired = true;
        if node >= self.shards.len() || !self.alive[node] {
            return;
        }
        self.alive[node] = false;
        let mut to_place: Vec<(JobRequest, u32)> = Vec::new();
        // Fetches targeting the dead node: their jobs were never
        // submitted there, so they re-place like the drained ones.
        let orphaned: Vec<(usize, DataKey)> = self
            .transfers
            .keys()
            .filter(|(t, _)| *t == node)
            .cloned()
            .collect();
        for key in orphaned {
            let tr = self.transfers.remove(&key).expect("key just listed");
            for (req, attempt) in tr.jobs {
                to_place.push((req, attempt + 1));
            }
        }
        let survivors = self.shards[node].fail(self.clock);
        // Black-box dump: the dying shard's ring buffer as it stood
        // when the failure fired (drain terminals included).
        if let Some(mut log) = self.shards[node].flight_snapshot() {
            for e in &mut log.events {
                e.shard = node as u32;
            }
            self.blackbox = Some(Blackbox {
                shard: node as u32,
                log,
            });
        }
        self.drained += survivors.len() as u64;
        for (id, req) in survivors {
            let attempt = self.attempts.remove(&(node, id.0)).unwrap_or(0) + 1;
            to_place.push((req, attempt));
        }
        for (mut req, attempt) in to_place {
            if attempt > self.cfg.max_retries || self.live().is_empty() {
                self.retries_exhausted += 1;
                self.flight_event(self.clock, u32::MAX, &req, FlightEventKind::Failed);
            } else {
                self.rerouted += 1;
                req.trace = req.trace.retry();
                self.flight_event(
                    self.clock,
                    u32::MAX,
                    &req,
                    FlightEventKind::Reroute { attempt },
                );
                self.push_reroute_span(&req, attempt);
                self.place_and_submit(req, attempt);
            }
        }
    }

    /// Deliver every transfer whose virtual completion has been
    /// reached: the object becomes resident and its parked jobs submit.
    fn deliver_due(&mut self) {
        let mut due: Vec<(Ns, usize, DataKey)> = self
            .transfers
            .iter()
            .filter(|(_, t)| t.ready <= self.clock)
            .map(|((s, k), t)| (t.ready, *s, k.clone()))
            .collect();
        due.sort();
        for (_, shard, key) in due {
            let tr = self
                .transfers
                .remove(&(shard, key.clone()))
                .expect("key just listed");
            debug_assert!(self.alive[shard], "transfer delivered to a dead shard");
            if let Some((req, _)) = tr.jobs.first() {
                admit(&mut self.caches[shard], &key, req);
            }
            let ready = tr.ready;
            for (req, attempt) in tr.jobs {
                self.flight_event(ready, shard as u32, &req, FlightEventKind::XferReady);
                self.submit_now(shard, req, attempt);
            }
        }
    }

    /// Place one job: preferred shard by policy, spill-over on
    /// backpressure, then local submit / residency hit / remote fetch.
    fn place_and_submit(&mut self, req: JobRequest, attempt: u32) {
        let live = self.live();
        if live.is_empty() {
            self.retries_exhausted += 1;
            self.flight_event(self.clock, u32::MAX, &req, FlightEventKind::Failed);
            return;
        }
        let bytes = req.payload.raw_bytes();
        let preferred = match self.cfg.policy {
            PlacementPolicy::Locality => hrw_pick(&placement_bytes(&req), &live),
            PlacementPolicy::Random => {
                let s = random_pick(self.cfg.seed, self.place_seq, &live);
                self.place_seq += 1;
                s
            }
        };
        let target = if self.shards[preferred].would_admit(bytes) {
            preferred
        } else {
            // Byte-weighted least-loaded spill-over (ties to lowest id);
            // if every shard backpressures, the preferred one eats the
            // rejection so the loss is accounted where it was aimed.
            match live
                .iter()
                .copied()
                .filter(|&s| self.shards[s].would_admit(bytes))
                .min_by_key(|&s| (self.shards[s].admission().queued_bytes(), s))
            {
                Some(s) => {
                    if s != preferred {
                        self.steals += 1;
                    }
                    s
                }
                None => preferred,
            }
        };
        self.placed[target] += 1;
        self.flight_event(
            self.clock,
            u32::MAX,
            &req,
            FlightEventKind::Place {
                target: target as u32,
                preferred: preferred as u32,
                steal: target != preferred,
            },
        );
        let Some(key) = data_key(&req) else {
            self.submit_now(target, req, attempt);
            return;
        };
        let resident = match key.kind {
            1 => self.caches[target].container_resident(req.codec, key.side),
            _ => self.caches[target].refactoring_resident(req.codec, key.side),
        };
        if resident {
            self.hits[target] += 1;
            self.submit_now(target, req, attempt);
        } else if home_of(&key, &live) == target {
            // The object's home node reads it locally (and it becomes
            // cache-resident, surviving later re-homing).
            self.hits[target] += 1;
            admit(&mut self.caches[target], &key, &req);
            self.submit_now(target, req, attempt);
        } else {
            self.misses[target] += 1;
            let (fb, blk) = fetch_size(&req.payload);
            let (xfer, md) = self.cfg.fetch.fetch_detail(fb, blk);
            self.flight_event(
                self.clock,
                target as u32,
                &req,
                FlightEventKind::XferStart {
                    bytes: fb,
                    xfer_ns: xfer.0,
                    metadata_ns: md.0,
                },
            );
            match self.transfers.get_mut(&(target, key.clone())) {
                Some(tr) => tr.jobs.push((req, attempt)),
                None => {
                    let (fetch_bytes, blocks) = fetch_size(&req.payload);
                    let dur = self.cfg.fetch.fetch_time(fetch_bytes, blocks);
                    let ready = self.clock + dur;
                    self.remote_fetches += 1;
                    self.remote_fetch_bytes += fetch_bytes;
                    self.remote_fetch_ns += dur.0;
                    self.push_xfer_span(target, &key, fetch_bytes, ready);
                    self.transfers.insert(
                        (target, key),
                        Transfer {
                            ready,
                            jobs: vec![(req, attempt)],
                        },
                    );
                }
            }
        }
    }

    fn submit_now(&mut self, shard: usize, req: JobRequest, attempt: u32) {
        match self.shards[shard].try_submit(req) {
            Ok(id) => {
                self.attempts.insert((shard, id.0), attempt);
            }
            Err(_) => {
                // Recorded as a rejection in the shard's own report —
                // terminal at the cluster level too.
            }
        }
    }

    fn push_xfer_span(&mut self, target: usize, key: &DataKey, bytes: u64, ready_at: Ns) {
        let op = CLUSTER_OP_BASE + self.span_seq;
        self.span_seq += 1;
        let kind = if key.kind == 1 {
            "decompress"
        } else {
            "retrieve"
        };
        self.extra_spans.push(SpanRecord {
            op,
            label: format!("xfer[s{target} {kind} {}:{}]", key.codec, key.side),
            engine: Engine::Host,
            queue: None,
            deps: vec![],
            kind: OpKind::Transfer,
            class: None,
            start: self.clock,
            end: ready_at,
            bytes,
            footprint_bytes: 0,
            ready: self.clock,
            wall_start: Ns::ZERO,
            wall: Ns::ZERO,
        });
    }

    fn push_reroute_span(&mut self, req: &JobRequest, attempt: u32) {
        let op = CLUSTER_OP_BASE + self.span_seq;
        self.span_seq += 1;
        self.extra_spans.push(SpanRecord {
            op,
            label: format!(
                "reroute[t{} {} {} attempt={attempt}]",
                req.tenant.0,
                req.payload.kind().name(),
                req.codec.label()
            ),
            engine: Engine::Host,
            queue: None,
            deps: vec![],
            kind: OpKind::Fixed,
            class: None,
            start: self.clock,
            end: self.clock,
            bytes: 0,
            footprint_bytes: 0,
            ready: self.clock,
            wall_start: Ns::ZERO,
            wall: Ns::ZERO,
        });
    }

    fn finish(self) -> ClusterOutcome {
        debug_assert!(self.transfers.is_empty(), "undelivered transfers at end");
        let policy = self.cfg.shard.policy;
        // Merge each shard's flight log into the cluster-level one,
        // re-stamping shard-recorded events (shard id 0 inside a
        // scheduler) with the shard's cluster index.
        let mut flight_log = self.recorder.map(FlightRecorder::into_log);
        let mut reports: Vec<ServeReport> = Vec::with_capacity(self.shards.len());
        for (s, shard) in self.shards.into_iter().enumerate() {
            let mut outcome = shard.into_outcome(PoolStats::default());
            if let (Some(cluster_log), Some(mut log)) = (flight_log.as_mut(), outcome.flight.take())
            {
                for e in &mut log.events {
                    e.shard = s as u32;
                }
                cluster_log.merge(log);
            }
            reports.push(ServeReport::build(policy, outcome));
        }
        let flight = flight_log.map(|log| {
            analyze(
                &log,
                &self.cfg.flight.unwrap_or_default(),
                self.blackbox.clone(),
            )
        });
        ClusterOutcome {
            nodes: self.cfg.nodes,
            policy: self.cfg.policy,
            seed: self.cfg.seed,
            shard_devices: self.cfg.shard.devices.max(1),
            reports,
            alive: self.alive,
            placed: self.placed,
            cache_hits: self.hits,
            cache_misses: self.misses,
            logical_submitted: self.logical_submitted,
            steals: self.steals,
            rerouted: self.rerouted,
            retries_exhausted: self.retries_exhausted,
            drained: self.drained,
            remote_fetches: self.remote_fetches,
            remote_fetch_bytes: self.remote_fetch_bytes,
            remote_fetch_ns: self.remote_fetch_ns,
            failure: if self.fired { self.cfg.fail } else { None },
            extra_spans: self.extra_spans,
            flight,
        }
    }
}

/// Uncompressed-side residency admit for a delivered (or home) object.
fn admit(cache: &mut PayloadCache, key: &DataKey, req: &JobRequest) {
    match &req.payload {
        JobPayload::Decompress { container } => {
            cache.admit_container(req.codec, key.side, Arc::clone(container));
        }
        JobPayload::Retrieve { set, .. } => {
            cache.admit_refactoring(req.codec, key.side, Arc::clone(set));
        }
        JobPayload::Compress { .. } => {}
    }
}

/// Bytes and block count a cross-node fetch moves: the compressed
/// stream for containers, the fetch plan's picked components for
/// progressive sets (the progressive win applies to exchange too — a
/// loose tolerance ships fewer bytes between nodes).
fn fetch_size(payload: &JobPayload) -> (u64, u64) {
    match payload {
        JobPayload::Decompress { container } => (
            container.total_stream_bytes().max(1),
            container.chunks.len().max(1) as u64,
        ),
        JobPayload::Retrieve { plan, .. } => (plan.bytes.max(1), plan.picks.len().max(1) as u64),
        JobPayload::Compress { .. } => (1, 1),
    }
}

/// Convenience: run a pre-scripted job stream through a fresh cluster.
pub fn run_cluster(
    cfg: ClusterConfig,
    work: Arc<dyn DeviceAdapter>,
    jobs: Vec<JobRequest>,
) -> ClusterOutcome {
    let mut source = VecSource::new(jobs);
    Cluster::new(cfg, work).run(&mut source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ClusterReport;
    use hpdr_core::SerialAdapter;
    use hpdr_serve::parse_script;

    fn work() -> Arc<dyn DeviceAdapter> {
        Arc::new(SerialAdapter::new())
    }

    const SCRIPT: &str = "\
0 0 compress zfp:16 8
10 1 retrieve mgard:1e-5 8 tol=1e-1
20 2 retrieve mgard:1e-5 8 tol=1e-2
30 0 decompress lz4 8
40 1 retrieve mgard:1e-5 8 tol=1e-1
50 2 decompress lz4 8
";

    fn jobs() -> Vec<JobRequest> {
        let w = work();
        parse_script(SCRIPT, w.as_ref()).unwrap()
    }

    #[test]
    fn locality_sends_same_key_jobs_to_one_shard() {
        let outcome = run_cluster(ClusterConfig::default(), work(), jobs());
        let report = ClusterReport::build(outcome);
        assert_eq!(report.lost, 0, "no job may be lost");
        assert_eq!(report.logical_submitted, 6);
        // All three retrieves share one data key: first access is the
        // home hit, the rest are residency hits — zero transfers for
        // them; same for the two lz4 decompresses.
        assert_eq!(report.cache_hits + report.cache_misses, 5);
        assert_eq!(
            report.cache_misses, 0,
            "locality placement must not fetch remotely in this workload"
        );
    }

    #[test]
    fn single_node_cluster_matches_plain_serve_outcomes() {
        let cfg = ClusterConfig {
            nodes: 1,
            ..ClusterConfig::default()
        };
        let outcome = run_cluster(cfg.clone(), work(), jobs());
        assert_eq!(outcome.remote_fetches, 0, "one node: everything is home");
        let cluster_records = &outcome.reports[0].records;

        let mut source = VecSource::new(jobs());
        let plain = hpdr_serve::serve(cfg.shard, work(), &mut source);
        assert_eq!(cluster_records.len(), plain.records.len());
        for (a, b) in cluster_records.iter().zip(&plain.records) {
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.finished, b.finished);
            assert_eq!(a.tenant, b.tenant);
        }
    }

    #[test]
    fn cluster_report_is_seed_deterministic() {
        let a = ClusterReport::build(run_cluster(ClusterConfig::default(), work(), jobs()));
        let b = ClusterReport::build(run_cluster(ClusterConfig::default(), work(), jobs()));
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn random_policy_fetches_remotely_and_costs_time() {
        let cfg = ClusterConfig {
            policy: PlacementPolicy::Random,
            ..ClusterConfig::default()
        };
        let report = ClusterReport::build(run_cluster(cfg, work(), jobs()));
        assert_eq!(report.lost, 0);
        // Scatter placement must produce at least one off-home data job.
        assert!(report.remote_fetches > 0, "random placement never missed");
        assert!(report.remote_fetch_ns > 0, "fetches must cost virtual time");
        let xfers = report
            .trace
            .spans()
            .iter()
            .filter(|s| s.label.starts_with("xfer["))
            .count();
        assert_eq!(xfers as u64, report.remote_fetches);
    }

    #[test]
    fn node_failure_reroutes_without_losing_jobs() {
        let cfg = ClusterConfig {
            nodes: 3,
            fail: Some((0, Ns::from_micros(15))),
            ..ClusterConfig::default()
        };
        let report = ClusterReport::build(run_cluster(cfg, work(), jobs()));
        assert_eq!(report.lost, 0, "failure must not lose jobs");
        assert!(report.ok());
        assert_eq!(report.failure, Some((0, Ns::from_micros(15))));
        assert!(!report.shards[0].alive);
        // Whatever was on shard 0 either completed before the kill or
        // was drained and re-routed.
        assert_eq!(report.rerouted + report.retries_exhausted, report.drained);
    }
}
