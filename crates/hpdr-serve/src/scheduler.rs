//! The serving scheduler: a deterministic discrete-event loop over
//! virtual time.
//!
//! Jobs arrive from a [`JobSource`], pass the admission controller
//! ([`crate::admission::Admission`]), wait in a priority/fair-share
//! queue, and are dispatched to the simulated device pool in **shared
//! pipeline launches** (continuous batching): compatible queued jobs
//! (same direction and codec family) are folded into one
//! [`hpdr_pipeline::run_batch`] launch so per-launch fixed costs
//! amortize and chunks of different jobs overlap on the device engines.
//! Kernels execute *for real* on the persistent
//! [`hpdr_core::WorkerPool`] via the configured device adapter; timing
//! is charged to each device's [`BusyHorizon`].
//!
//! Determinism: everything — arrivals, deadlines, service times,
//! completions — lives on the virtual clock, tenant state is kept in
//! ordered maps, and batch formation uses a total order over queued
//! jobs, so the same seed and job stream reproduce a byte-identical
//! [`ServeReport`](crate::report::ServeReport).
//!
//! Fairness: queued jobs order by (priority desc, tenant served-bytes
//! asc, arrival, id). The served-bytes deficit term implements
//! byte-weighted fair queuing — a tenant that has consumed less device
//! time sorts first, so a 10× heavier tenant cannot starve a light one.

use crate::admission::{Admission, AdmissionConfig};
use crate::error::ServeError;
use crate::job::{JobId, JobOutcome, JobRecord, JobRequest, TenantId};
use hpdr_core::{ContextCache, DeviceAdapter, PoolStats, WorkerPool};
use hpdr_flight::{
    FlightConfig, FlightLog, FlightRecorder, JobEvent as FlightEvent,
    JobEventKind as FlightEventKind, TraceContext,
};
use hpdr_metrics::{
    record_batch_trace, record_pool_stats, BatchTraceIds, InstrumentId, MetricsConfig, Registry,
};
use hpdr_pipeline::{run_batch, BatchItem, PipelineOptions};
use hpdr_progressive::RetrieveJob;
use hpdr_sim::{BusyHorizon, DeviceSpec, Ns};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Failure string recorded on jobs drained by [`Scheduler::fail`]: the
/// shard died while they were queued or in flight. A cluster front-end
/// matches on this to re-route rather than count a real codec failure.
pub const NODE_FAILURE: &str = "node failure";

/// Dispatch policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// One job per launch, pinned to device 0 — the one-at-a-time
    /// comparator (and the policy whose reports are identical for any
    /// configured device count).
    Serial,
    /// Continuous batching across all configured devices.
    Batched,
}

impl Policy {
    pub fn name(self) -> &'static str {
        match self {
            Policy::Serial => "serial",
            Policy::Batched => "batched",
        }
    }
}

/// Scheduler configuration.
#[derive(Clone)]
pub struct ServeConfig {
    /// Simulated devices in the pool.
    pub devices: usize,
    pub policy: Policy,
    /// Per-device cost model.
    pub spec: DeviceSpec,
    pub admission: AdmissionConfig,
    /// Batch caps (continuous batching folds queued jobs up to these).
    pub max_batch_jobs: usize,
    pub max_batch_bytes: u64,
    /// Fixed virtual cost per shared launch (runtime/stream setup).
    pub launch_overhead: Ns,
    /// Virtual cost of building one reduction context on a CMM miss.
    pub context_setup: Ns,
    /// CMM capacity per device. Keep generous: the cache evicts
    /// arbitrarily at capacity, which would break report determinism.
    pub cmm_capacity: usize,
    /// Chunking/overlap options for the shared launches.
    pub pipeline: PipelineOptions,
    /// Install a metrics registry (scrape cadence, SLO objective).
    /// `None` keeps the hot path metrics-free.
    pub metrics: Option<MetricsConfig>,
    /// Install a flight recorder: per-job lifecycle events into a
    /// fixed-capacity ring. `None` keeps the hot path recorder-free.
    pub flight: Option<FlightConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            devices: 1,
            policy: Policy::Batched,
            spec: hpdr_sim::v100(),
            admission: AdmissionConfig::default(),
            max_batch_jobs: 8,
            max_batch_bytes: 8 << 20,
            launch_overhead: Ns::from_micros(40),
            context_setup: Ns::from_micros(120),
            cmm_capacity: 128,
            pipeline: PipelineOptions::fixed(32 * 1024),
            metrics: None,
            flight: None,
        }
    }
}

/// Reusable per-(codec, shape, device) reduction context cached by the
/// CMM: staging memory a job family keeps across launches.
pub struct ServeContext {
    pub staging: Vec<u8>,
}

/// Where jobs come from. `peek` lets the event loop find the next
/// arrival instant; `on_complete` lets closed-loop generators key the
/// next request off a completion.
pub trait JobSource {
    /// Arrival instant of the earliest job not yet popped.
    fn peek(&self) -> Option<Ns>;
    /// Remove and return every job with `arrival <= now`, in order.
    fn pop_ready(&mut self, now: Ns) -> Vec<JobRequest>;
    /// A job of `tenant` reached a terminal state at `now`.
    fn on_complete(&mut self, _tenant: TenantId, _now: Ns) {}
}

/// A pre-scripted job stream (arrival-sorted).
pub struct VecSource {
    jobs: Vec<JobRequest>,
    next: usize,
}

impl VecSource {
    pub fn new(mut jobs: Vec<JobRequest>) -> VecSource {
        jobs.sort_by_key(|j| j.arrival);
        VecSource { jobs, next: 0 }
    }
}

impl JobSource for VecSource {
    fn peek(&self) -> Option<Ns> {
        self.jobs.get(self.next).map(|j| j.arrival)
    }

    fn pop_ready(&mut self, now: Ns) -> Vec<JobRequest> {
        let start = self.next;
        while self.next < self.jobs.len() && self.jobs[self.next].arrival <= now {
            self.next += 1;
        }
        self.jobs[start..self.next].to_vec()
    }
}

/// Per-tenant accounting (ordered map ⇒ deterministic reports).
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantStats {
    pub submitted: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub completed: u64,
    /// Uncompressed bytes of completed jobs.
    pub bytes: u64,
    /// Bytes dispatched so far — the fair-queuing deficit key.
    served_bytes: u64,
}

/// Per-device accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceStats {
    pub batches: u64,
    pub jobs: u64,
    pub busy: Ns,
    pub utilization: f64,
}

/// Cached instrument handles so the hot path never formats a metric
/// name or walks the registry's name index: labels are rendered once
/// (first submission of a tenant, first launch on a device) and every
/// later update is an O(1) slab access. With names formatted per event
/// the metering showed up as measurable serve overhead; with handles it
/// sits well inside the 2% `hpdr bench --compare` budget.
#[derive(Default)]
struct MeterIds {
    tenants: BTreeMap<u32, TenantIds>,
    devices: Vec<Option<DeviceMeterIds>>,
    batch_trace: Vec<BatchTraceIds>,
    batch_jobs: Option<InstrumentId>,
    batch_bytes: Option<InstrumentId>,
    margin: Option<InstrumentId>,
    latency: Option<InstrumentId>,
}

/// Per-tenant counter handles, created together on the tenant's first
/// submission — so every tenant exposes the complete family (a tenant
/// with no rejections still shows a zero rejected counter).
#[derive(Clone, Copy)]
struct TenantIds {
    submitted: InstrumentId,
    admitted: InstrumentId,
    rejected: InstrumentId,
    goodput: InstrumentId,
}

impl TenantIds {
    fn new(reg: &mut Registry, tenant: u32) -> TenantIds {
        TenantIds {
            submitted: reg.counter_handle(&tenant_metric("serve_submitted_total", tenant)),
            admitted: reg.counter_handle(&tenant_metric("serve_admitted_total", tenant)),
            rejected: reg.counter_handle(&tenant_metric("serve_rejected_total", tenant)),
            goodput: reg.counter_handle(&tenant_metric("serve_tenant_goodput_bytes_total", tenant)),
        }
    }
}

/// Per-device batch instrument handles, created on the device's first
/// launch.
#[derive(Clone, Copy)]
struct DeviceMeterIds {
    batches: InstrumentId,
    chunks: InstrumentId,
    goodput: InstrumentId,
}

impl DeviceMeterIds {
    fn new(reg: &mut Registry, device: usize) -> DeviceMeterIds {
        DeviceMeterIds {
            batches: reg.counter_handle(&device_metric("serve_batches_total", device)),
            chunks: reg.counter_handle(&device_metric("pipeline_chunks_total", device)),
            goodput: reg.gauge_handle(&device_metric("pipeline_batch_goodput_gbps", device)),
        }
    }
}

struct QueuedJob {
    id: JobId,
    req: JobRequest,
    bytes: u64,
}

struct InFlight {
    id: JobId,
    req: JobRequest,
    bytes: u64,
    device: usize,
    started: Ns,
    result: Result<(), String>,
}

struct PendingBatch {
    end: Ns,
    device: usize,
    jobs: Vec<InFlight>,
}

/// Everything a serve run produces (the printable/serializable
/// [`ServeReport`](crate::report::ServeReport) is built from this).
pub struct ServeOutcome {
    /// One record per admitted job, written at its terminal transition
    /// and sorted by job id.
    pub records: Vec<JobRecord>,
    pub tenants: BTreeMap<u32, TenantStats>,
    pub devices: BTreeMap<usize, DeviceStats>,
    pub admission: Admission,
    pub makespan: Ns,
    pub cmm_hits: u64,
    pub cmm_misses: u64,
    /// Contexts resident in the per-device CMM caches at the end.
    pub cmm_contexts: usize,
    /// Of those, contexts with no live attachment — equal to
    /// `cmm_contexts` iff every job (including cancelled and timed-out
    /// ones) released its context.
    pub cmm_idle: usize,
    /// Jobs still occupying a device slot at the end (must be 0).
    pub in_flight_end: u64,
    /// Worker-pool jobs dispatched during the run (PoolStats delta).
    pub pool_jobs: u64,
    /// The metrics registry, flushed at the makespan (present iff
    /// `ServeConfig::metrics` was set).
    pub metrics: Option<Registry>,
    /// The drained flight recorder (present iff `ServeConfig::flight`
    /// was set). Events carry shard id 0; a cluster front-end rewrites
    /// that to the shard's index before merging.
    pub flight: Option<FlightLog>,
}

/// The scheduler. Owns the virtual clock, queue, device horizons and
/// per-device CMM caches.
pub struct Scheduler {
    cfg: ServeConfig,
    work: Arc<dyn DeviceAdapter>,
    clock: Ns,
    next_id: u64,
    queue: Vec<QueuedJob>,
    pending: Vec<PendingBatch>,
    horizons: Vec<BusyHorizon>,
    device_jobs: Vec<(u64, u64)>, // (batches, jobs) per device
    in_flight_jobs: Vec<u64>,     // live gauge per device
    cmm: Vec<ContextCache<ServeContext>>,
    admission: Admission,
    tenants: BTreeMap<u32, TenantStats>,
    records: Vec<JobRecord>,
    registry: Option<Registry>,
    ids: MeterIds,
    recorder: Option<FlightRecorder>,
    next_trace: u64,
}

impl Scheduler {
    pub fn new(cfg: ServeConfig, work: Arc<dyn DeviceAdapter>) -> Scheduler {
        let devices = cfg.devices.max(1);
        Scheduler {
            admission: Admission::new(cfg.admission),
            horizons: vec![BusyHorizon::new(); devices],
            device_jobs: vec![(0, 0); devices],
            in_flight_jobs: vec![0; devices],
            cmm: (0..devices)
                .map(|_| ContextCache::new(cfg.cmm_capacity))
                .collect(),
            registry: cfg.metrics.map(Registry::new),
            recorder: cfg.flight.map(FlightRecorder::new),
            ids: MeterIds {
                devices: vec![None; devices],
                batch_trace: vec![BatchTraceIds::default(); devices],
                ..MeterIds::default()
            },
            cfg,
            work,
            clock: Ns::ZERO,
            next_id: 0,
            queue: Vec::new(),
            pending: Vec::new(),
            tenants: BTreeMap::new(),
            records: Vec::new(),
            next_trace: 1,
        }
    }

    /// Jobs currently in flight on `device` (dispatch → completion).
    pub fn in_flight(&self, device: usize) -> u64 {
        self.in_flight_jobs[device]
    }

    /// Current virtual instant of this scheduler's clock.
    pub fn clock(&self) -> Ns {
        self.clock
    }

    /// The admission controller (live queue gauges for load-aware
    /// placement across shards).
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// Would a submission of `bytes` pass admission right now? A pure
    /// probe — no counters move. Cluster front-ends use this to spill
    /// jobs to a less-loaded shard instead of eating the rejection.
    pub fn would_admit(&self, bytes: u64) -> bool {
        self.admission.would_admit(bytes)
    }

    /// The metrics registry, if one was configured. Front-ends use this
    /// to install extra gauges (e.g. payload-cache stats) alongside the
    /// scheduler's own instrument families.
    pub fn registry_mut(&mut self) -> Option<&mut Registry> {
        self.registry.as_mut()
    }

    /// Per-device CMM cache (tests assert context release through it).
    pub fn cmm(&self, device: usize) -> &ContextCache<ServeContext> {
        &self.cmm[device]
    }

    /// Copy the flight recorder's ring as it stands — the black-box dump
    /// a cluster front-end takes right after [`fail`](Self::fail).
    pub fn flight_snapshot(&self) -> Option<FlightLog> {
        self.recorder.as_ref().map(FlightRecorder::snapshot)
    }

    /// Record one lifecycle event for `req` when a recorder is installed
    /// and the request carries an assigned trace context. Events are
    /// stamped with shard id 0; cluster front-ends rewrite it on merge.
    fn flight_event(&mut self, at: Ns, req: &JobRequest, kind: FlightEventKind) {
        if let Some(rec) = self.recorder.as_mut() {
            if req.trace.is_assigned() {
                rec.record(FlightEvent {
                    at,
                    trace: req.trace.trace,
                    hop: req.trace.hop,
                    shard: 0,
                    tenant: req.tenant.0,
                    kind,
                });
            }
        }
    }

    /// Submit one job at its arrival instant. Typed backpressure: a
    /// full queue rejects immediately with [`ServeError`].
    pub fn try_submit(&mut self, req: JobRequest) -> Result<JobId, ServeError> {
        let mut req = req;
        // Whoever assigns the trace context records the submission: a
        // cluster front-end assigns (and records) at its own queue, a
        // standalone scheduler claims unassigned requests here.
        if self.recorder.is_some() && !req.trace.is_assigned() {
            req.trace = TraceContext::root(self.next_trace);
            self.next_trace += 1;
            self.flight_event(self.clock.max(req.arrival), &req, FlightEventKind::Submit);
        }
        let now = self.clock.max(req.arrival);
        let tenant_id = req.tenant.0;
        let tenant = self.tenants.entry(tenant_id).or_default();
        tenant.submitted += 1;
        if let Some(reg) = self.registry.as_mut() {
            let t = *self
                .ids
                .tenants
                .entry(tenant_id)
                .or_insert_with(|| TenantIds::new(reg, tenant_id));
            reg.counter_add_id(t.submitted, 1);
        }
        let bytes = req.payload.raw_bytes();
        if bytes == 0 {
            // Invalid submissions count as rejections like any other, so
            // the admission counters account for every submission.
            self.tenants.entry(tenant_id).or_default().rejected += 1;
            self.admission.reject_invalid();
            self.count_reject(&req);
            self.flight_event(now, &req, FlightEventKind::Reject);
            return Err(ServeError::InvalidJob("empty payload".into()));
        }
        match self.admission.try_admit(bytes) {
            Ok(()) => {
                let id = JobId(self.next_id);
                self.next_id += 1;
                let tenant = self.tenants.entry(tenant_id).or_default();
                tenant.admitted += 1;
                if let Some(reg) = self.registry.as_mut() {
                    let t = *self
                        .ids
                        .tenants
                        .entry(tenant_id)
                        .or_insert_with(|| TenantIds::new(reg, tenant_id));
                    reg.counter_add_id(t.admitted, 1);
                }
                self.flight_event(now, &req, FlightEventKind::Admit);
                self.queue.push(QueuedJob { id, req, bytes });
                Ok(id)
            }
            Err(e) => {
                let tenant = self.tenants.entry(tenant_id).or_default();
                tenant.rejected += 1;
                self.count_reject(&req);
                self.flight_event(now, &req, FlightEventKind::Reject);
                Err(e)
            }
        }
    }

    /// Count a rejected submission in the tenant's metered family.
    fn count_reject(&mut self, req: &JobRequest) {
        if let Some(reg) = self.registry.as_mut() {
            let tenant = req.tenant.0;
            let t = *self
                .ids
                .tenants
                .entry(tenant)
                .or_insert_with(|| TenantIds::new(reg, tenant));
            reg.counter_add_id(t.rejected, 1);
        }
    }

    /// Drive the full job stream to completion and produce the outcome.
    pub fn run(mut self, source: &mut dyn JobSource) -> ServeOutcome {
        let pool_before = WorkerPool::global().stats();
        loop {
            self.ingest(source);
            self.service();
            let mut next = self.next_event();
            if let Some(t) = source.peek() {
                let t = t.max(self.clock);
                next = Some(next.map_or(t, |n| n.min(t)));
            }
            let Some(next) = next else {
                debug_assert!(self.queue.is_empty(), "queue stuck with no events");
                break;
            };
            for (tenant, at) in self.advance_to(next) {
                source.on_complete(tenant, at);
            }
        }
        let pool_delta = WorkerPool::global().stats().since(pool_before);
        self.finish(pool_delta)
    }

    /// One service step at the current instant: expire queued jobs whose
    /// deadline or cancellation has passed, then dispatch free devices.
    /// Front-ends call this after submitting work; [`run`](Self::run)
    /// calls it every loop iteration.
    pub fn service(&mut self) {
        self.expire_queued();
        self.dispatch();
    }

    /// The next internal event instant: a pending batch completion or a
    /// queued job's deadline/cancellation. Source arrivals are the
    /// caller's to merge in (the shard front-end owns the global queue).
    pub fn next_event(&self) -> Option<Ns> {
        let mut next: Option<Ns> = None;
        let mut consider = |t: Ns| {
            next = Some(match next {
                Some(n) => n.min(t),
                None => t,
            });
        };
        for b in &self.pending {
            consider(b.end);
        }
        for q in &self.queue {
            if let Some(d) = q.req.deadline {
                consider(d.max(self.clock));
            }
            if let Some(c) = q.req.cancel_at {
                consider(c.max(self.clock));
            }
        }
        next
    }

    /// Advance the clock to `now` (never backwards), scrape any metric
    /// boundaries crossed, and finalize batches whose virtual completion
    /// has been reached. Returns one `(tenant, instant)` notification
    /// per terminal job so the caller can feed closed-loop sources.
    pub fn advance_to(&mut self, now: Ns) -> Vec<(TenantId, Ns)> {
        self.clock = self.clock.max(now);
        // Sample every scrape boundary crossed by this clock advance
        // *before* processing the events at the new instant.
        self.tick_metrics();
        self.complete_batches()
    }

    /// Kill this shard at `now`: every queued and in-flight job reaches
    /// a terminal state on this scheduler, and the non-cancelled,
    /// non-expired ones are returned (with the local id they died
    /// under) for the caller to re-route. Their records here read
    /// `Failed(NODE_FAILURE)`; a cluster front-end counts those as
    /// re-placements, not losses.
    pub fn fail(&mut self, now: Ns) -> Vec<(JobId, JobRequest)> {
        self.clock = self.clock.max(now);
        let now = self.clock;
        let mut survivors = Vec::new();
        for q in std::mem::take(&mut self.queue) {
            self.admission.release(q.bytes);
            if q.req.cancelled_at(now) {
                let at = q
                    .req
                    .cancel_at
                    .map_or(now, |c| c.max(q.req.arrival).min(now));
                self.terminal(q.id, &q.req, q.bytes, None, None, at, JobOutcome::Cancelled);
            } else if q.req.deadline.is_some_and(|d| d <= now) {
                let at = q.req.deadline.unwrap_or(now).max(q.req.arrival).min(now);
                self.terminal(q.id, &q.req, q.bytes, None, None, at, JobOutcome::TimedOut);
            } else {
                self.terminal(
                    q.id,
                    &q.req,
                    q.bytes,
                    None,
                    None,
                    now,
                    JobOutcome::Failed(NODE_FAILURE.to_string()),
                );
                survivors.push((q.id, q.req));
            }
        }
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_by_key(|b| (b.end, b.device));
        for b in pending {
            for j in b.jobs {
                self.in_flight_jobs[b.device] -= 1;
                if j.req.cancelled_at(now) {
                    self.terminal(
                        j.id,
                        &j.req,
                        j.bytes,
                        Some(j.device),
                        Some(j.started),
                        now,
                        JobOutcome::Cancelled,
                    );
                } else {
                    self.terminal(
                        j.id,
                        &j.req,
                        j.bytes,
                        Some(j.device),
                        Some(j.started),
                        now,
                        JobOutcome::Failed(NODE_FAILURE.to_string()),
                    );
                    survivors.push((j.id, j.req));
                }
            }
        }
        survivors
    }

    /// Finalize this scheduler into its outcome. The shard front-end
    /// calls this once per shard after the cluster loop drains; pass the
    /// worker-pool delta attributable to this shard (or
    /// `PoolStats::default()` when the pool is accounted cluster-wide).
    pub fn into_outcome(self, pool_delta: PoolStats) -> ServeOutcome {
        self.finish(pool_delta)
    }

    /// Refresh the live gauges and let the registry scrape any virtual
    /// interval boundaries crossed.
    fn tick_metrics(&mut self) {
        let Some(reg) = self.registry.as_ref() else {
            return;
        };
        // Sampled gauges are only observed at scrape instants. When this
        // clock advance crosses no boundary, neither the refresh (a
        // handful of formats and map lookups per device) nor the tick
        // would be visible, so the whole thing reduces to one comparison
        // — keeping metering off the per-event hot path.
        if !reg.boundary_due(self.clock) {
            return;
        }
        self.refresh_gauges();
        let clock = self.clock;
        self.registry.as_mut().expect("checked above").tick(clock);
    }

    /// Refresh the sampled gauges from live scheduler state. Must run
    /// right before any scrape — boundary ticks and the final flush —
    /// so the sampled values reflect the state at the scrape instant.
    fn refresh_gauges(&mut self) {
        let Some(reg) = self.registry.as_mut() else {
            return;
        };
        reg.gauge_set("serve_queue_jobs", self.admission.queued_jobs() as f64);
        reg.gauge_set("serve_queue_bytes", self.admission.queued_bytes() as f64);
        let clock = self.clock;
        for (d, h) in self.horizons.iter().enumerate() {
            reg.gauge_set(
                &device_metric("serve_inflight_jobs", d),
                self.in_flight_jobs[d] as f64,
            );
            let busy_frac = if clock.is_zero() {
                0.0
            } else {
                h.busy_before(clock).0 as f64 / clock.0 as f64
            };
            reg.gauge_set(&device_metric("serve_device_busy_fraction", d), busy_frac);
        }
    }

    fn ingest(&mut self, source: &mut dyn JobSource) {
        for req in source.pop_ready(self.clock) {
            let _ = self.try_submit(req);
        }
    }

    /// Remove queued jobs whose deadline or cancellation instant has
    /// passed (their admission gauges release — backpressure reopens).
    fn expire_queued(&mut self) {
        let now = self.clock;
        let queue = std::mem::take(&mut self.queue);
        let mut kept = Vec::with_capacity(queue.len());
        for q in queue {
            let outcome = if q.req.cancelled_at(now) {
                Some(JobOutcome::Cancelled)
            } else if q.req.deadline.is_some_and(|d| d <= now) {
                Some(JobOutcome::TimedOut)
            } else {
                None
            };
            match outcome {
                None => kept.push(q),
                Some(outcome) => {
                    self.admission.release(q.bytes);
                    let terminal = match outcome {
                        JobOutcome::Cancelled => q
                            .req
                            .cancel_at
                            .map_or(now, |c| c.max(q.req.arrival).min(now)),
                        _ => q.req.deadline.unwrap_or(now).max(q.req.arrival).min(now),
                    };
                    self.terminal(q.id, &q.req, q.bytes, None, None, terminal, outcome);
                }
            }
        }
        self.queue = kept;
    }

    /// Dispatch free devices at the current instant.
    fn dispatch(&mut self) {
        let usable = match self.cfg.policy {
            Policy::Serial => 1,
            Policy::Batched => self.horizons.len(),
        };
        for d in 0..usable {
            while !self.queue.is_empty() && self.horizons[d].is_free_at(self.clock) {
                self.launch_on(d);
            }
        }
    }

    /// Total order for batch head selection: priority desc, tenant
    /// deficit (served bytes) asc, arrival asc, id asc.
    fn queue_rank(&self, q: &QueuedJob) -> (u8, u64, Ns, u64) {
        let served = self
            .tenants
            .get(&q.req.tenant.0)
            .map_or(0, |t| t.served_bytes);
        (u8::MAX - q.req.priority, served, q.req.arrival, q.id.0)
    }

    /// Form one batch and launch it on device `d`.
    fn launch_on(&mut self, d: usize) {
        // Head job: best-ranked queued job.
        let head_idx = (0..self.queue.len())
            .min_by_key(|&i| self.queue_rank(&self.queue[i]))
            .expect("launch_on with empty queue");
        // Compatibility is by kind *name*: retrieve jobs at different
        // tolerances fold into one shared launch.
        let head_kind = self.queue[head_idx].req.payload.kind().name();
        let head_codec = self.queue[head_idx].req.codec.name();

        // Fold compatible jobs (same direction + codec family) into the
        // batch, best-ranked first, up to the caps.
        let (max_jobs, max_bytes) = match self.cfg.policy {
            Policy::Serial => (1, u64::MAX),
            Policy::Batched => (self.cfg.max_batch_jobs.max(1), self.cfg.max_batch_bytes),
        };
        let mut order: Vec<usize> = (0..self.queue.len()).collect();
        order.sort_by_key(|&i| self.queue_rank(&self.queue[i]));
        let mut picked: Vec<usize> = Vec::with_capacity(max_jobs);
        let mut batch_bytes = 0u64;
        for i in order {
            if picked.len() >= max_jobs {
                break;
            }
            let q = &self.queue[i];
            if q.req.payload.kind().name() != head_kind || q.req.codec.name() != head_codec {
                continue;
            }
            // Always take at least the head, even if it alone exceeds
            // the byte cap (it must run eventually).
            if !picked.is_empty() && batch_bytes + q.bytes > max_bytes {
                continue;
            }
            batch_bytes += q.bytes;
            picked.push(i);
        }
        debug_assert!(picked.contains(&head_idx));

        // Extract picked jobs from the queue (descending index keeps
        // the remaining indices valid).
        picked.sort_unstable();
        let mut batch: Vec<QueuedJob> = Vec::with_capacity(picked.len());
        for i in picked.into_iter().rev() {
            batch.push(self.queue.swap_remove(i));
        }
        batch.sort_by_key(|q| q.id.0);

        // Leaving the queue: admission gauges release now (the byte
        // budget bounds *queued* work; in-flight work is bounded by the
        // batch caps and device count).
        for q in &batch {
            self.admission.release(q.bytes);
        }

        // Cooperative cancellation checkpoint between admission and
        // launch: drop jobs cancelled while queued. Their CMM contexts
        // are never attached and no kernel runs for them.
        let now = self.clock;
        let (cancelled, live): (Vec<QueuedJob>, Vec<QueuedJob>) =
            batch.into_iter().partition(|q| q.req.cancelled_at(now));
        for q in cancelled {
            self.terminal(
                q.id,
                &q.req,
                q.bytes,
                None,
                None,
                now,
                JobOutcome::Cancelled,
            );
        }
        if live.is_empty() {
            return;
        }

        // Attach CMM contexts (setup cost on miss), run the shared
        // launch for real, then release the contexts.
        let mut setup = Ns::ZERO;
        let mut attached = Vec::with_capacity(live.len());
        for q in &live {
            let key = q.req.context_key(d);
            let before = self.cmm[d].stats().misses;
            let staging = q.bytes as usize;
            let ctx = self.cmm[d].get_or_create(&key, || ServeContext {
                staging: vec![0u8; staging],
            });
            if self.cmm[d].stats().misses > before {
                setup += self.cfg.context_setup;
            }
            // Touch the staging arena so reuse is real, not notional.
            {
                let mut c = ctx.lock();
                if c.staging.len() < staging {
                    c.staging.resize(staging, 0);
                }
                c.staging[0] = c.staging[0].wrapping_add(1);
            }
            attached.push(ctx);
        }

        // Members share the payloads: inputs and refactorings by `Arc`,
        // containers by reference, and retrievals run the cached plan.
        let items: Vec<BatchItem> = live
            .iter()
            .map(|q| match &q.req.payload {
                crate::job::JobPayload::Compress { input, meta } => {
                    BatchItem::compress(q.req.codec.reducer(), Arc::clone(input), meta.clone())
                }
                crate::job::JobPayload::Decompress { container } => {
                    BatchItem::decompress(q.req.codec.reducer(), container)
                }
                crate::job::JobPayload::Retrieve { set, plan, .. } => {
                    RetrieveJob::batch_item(Arc::clone(set), Arc::clone(plan))
                }
            })
            .collect();
        let (results, report) = run_batch(
            &self.cfg.spec,
            Arc::clone(&self.work),
            items,
            &self.cfg.pipeline,
        );
        if let Some(reg) = self.registry.as_mut() {
            let ids = &mut self.ids;
            let dev = *ids.devices[d].get_or_insert_with(|| DeviceMeterIds::new(reg, d));
            reg.counter_add_id(dev.batches, 1);
            reg.counter_add_id(dev.chunks, report.num_chunks as u64);
            reg.gauge_set_id(dev.goodput, report.goodput_gbps());
            let bj = *ids
                .batch_jobs
                .get_or_insert_with(|| reg.hist_handle("serve_batch_jobs"));
            reg.hist_record_id(bj, live.len() as u64);
            let bb = *ids
                .batch_bytes
                .get_or_insert_with(|| reg.hist_handle("serve_batch_bytes"));
            reg.hist_record_id(bb, live.iter().map(|q| q.bytes).sum::<u64>());
            record_batch_trace(reg, &report.trace, d, &mut ids.batch_trace[d]);
        }
        let per_job: Vec<Result<(), String>> = results
            .into_iter()
            .map(|r| r.map(|_| ()).map_err(|e| e.to_string()))
            .collect();
        let makespan = report.makespan;
        drop(attached); // contexts release (idle in the CMM again)

        let service = self.cfg.launch_overhead + setup + makespan;
        let (start, end) = self.horizons[d].schedule(now, service);
        debug_assert_eq!(start, now, "device was checked free");
        let dispatch_overhead = (self.cfg.launch_overhead + setup).0;
        for q in &live {
            self.flight_event(
                start,
                &q.req,
                FlightEventKind::Dispatch {
                    device: d as u32,
                    overhead_ns: dispatch_overhead,
                },
            );
        }
        self.device_jobs[d].0 += 1;
        self.device_jobs[d].1 += live.len() as u64;
        self.in_flight_jobs[d] += live.len() as u64;
        let jobs = live
            .into_iter()
            .zip(per_job)
            .map(|(q, result)| {
                // Dispatch charges the tenant's fair-share deficit.
                self.tenants.entry(q.req.tenant.0).or_default().served_bytes += q.bytes;
                InFlight {
                    id: q.id,
                    req: q.req,
                    bytes: q.bytes,
                    device: d,
                    started: start,
                    result,
                }
            })
            .collect();
        self.pending.push(PendingBatch {
            end,
            device: d,
            jobs,
        });
    }

    /// Finalize batches whose virtual completion has been reached and
    /// return the `(tenant, instant)` completion notifications in the
    /// order they fired.
    fn complete_batches(&mut self) -> Vec<(TenantId, Ns)> {
        let now = self.clock;
        let mut done = Vec::new();
        let mut still = Vec::new();
        for b in self.pending.drain(..) {
            if b.end <= now {
                done.push(b);
            } else {
                still.push(b);
            }
        }
        self.pending = still;
        // Deterministic completion order: by end time, then device.
        done.sort_by_key(|b| (b.end, b.device));
        let mut notices = Vec::new();
        for b in done {
            for j in b.jobs {
                self.in_flight_jobs[b.device] -= 1;
                let outcome = match &j.result {
                    Err(e) => JobOutcome::Failed(e.clone()),
                    Ok(()) if j.req.cancel_at.is_some_and(|c| c < b.end) => JobOutcome::Cancelled,
                    Ok(()) if j.req.deadline.is_some_and(|dl| b.end > dl) => JobOutcome::TimedOut,
                    Ok(()) => JobOutcome::Completed,
                };
                let tenant = j.req.tenant;
                self.terminal(
                    j.id,
                    &j.req,
                    j.bytes,
                    Some(j.device),
                    Some(j.started),
                    b.end,
                    outcome,
                );
                notices.push((tenant, b.end));
            }
        }
        notices
    }

    /// Record the terminal state of an admitted job: its one
    /// [`JobRecord`], which every report reads.
    #[allow(clippy::too_many_arguments)]
    fn terminal(
        &mut self,
        id: JobId,
        req: &JobRequest,
        bytes: u64,
        device: Option<usize>,
        started: Option<Ns>,
        finished: Ns,
        outcome: JobOutcome,
    ) {
        if outcome == JobOutcome::Completed {
            let t = self.tenants.entry(req.tenant.0).or_default();
            t.completed += 1;
            t.bytes += bytes;
        }
        self.flight_event(
            finished,
            req,
            match &outcome {
                JobOutcome::Completed => FlightEventKind::Complete,
                JobOutcome::TimedOut => FlightEventKind::TimedOut,
                JobOutcome::Cancelled => FlightEventKind::Cancelled,
                JobOutcome::Failed(_) => FlightEventKind::Failed,
            },
        );
        // Exemplar attachment: with both metering and flight recording
        // on, terminal latencies feed a histogram whose worst sample
        // carries its trace id — a metric spike links to a trace.
        if self.recorder.is_some() && req.trace.is_assigned() {
            if let Some(reg) = self.registry.as_mut() {
                let l = *self
                    .ids
                    .latency
                    .get_or_insert_with(|| reg.hist_handle("serve_latency_ns"));
                reg.hist_record_exemplar_id(
                    l,
                    finished.saturating_sub(req.arrival).0,
                    req.trace.trace,
                );
            }
        }
        if let Some(reg) = self.registry.as_mut() {
            let ids = &mut self.ids;
            let completed = outcome == JobOutcome::Completed;
            if completed {
                let tenant = req.tenant.0;
                let t = *ids
                    .tenants
                    .entry(tenant)
                    .or_insert_with(|| TenantIds::new(reg, tenant));
                reg.counter_add_id(t.goodput, bytes);
                if let Some(dl) = req.deadline {
                    let m = *ids
                        .margin
                        .get_or_insert_with(|| reg.hist_handle("serve_deadline_margin_ns"));
                    reg.hist_record_id(m, dl.saturating_sub(finished).0);
                }
            }
            // Good = completed within the SLO latency target.
            if let Some(slo) = reg.config().slo {
                let latency = finished.saturating_sub(req.arrival);
                let good = completed && latency <= slo.latency_target;
                reg.slo_record(req.tenant.0, finished, good);
            }
        }
        self.records.push(JobRecord {
            id,
            tenant: req.tenant,
            kind: req.payload.kind(),
            codec: req.codec.label(),
            bytes,
            device,
            arrival: req.arrival,
            started,
            finished,
            outcome,
        });
    }

    fn finish(mut self, pool_delta: PoolStats) -> ServeOutcome {
        debug_assert!(self.pending.is_empty());
        debug_assert_eq!(self.admission.queued_jobs(), 0);
        self.records.sort_by_key(|r| r.id.0);
        let makespan = self
            .records
            .iter()
            .map(|r| r.finished)
            .max()
            .unwrap_or(Ns::ZERO);
        // Final scrape at the makespan so the series cover the full run,
        // then fold in the (volatile) worker-pool counters. `flush`
        // ticks any remaining boundaries itself; the gauges just need
        // one last refresh so the off-boundary sample sees live state.
        self.clock = self.clock.max(makespan);
        self.refresh_gauges();
        if let Some(reg) = self.registry.as_mut() {
            reg.flush(makespan);
            record_pool_stats(reg, pool_delta, WorkerPool::global().workers());
        }
        let mut devices = BTreeMap::new();
        for (d, h) in self.horizons.iter().enumerate() {
            let (batches, jobs) = self.device_jobs[d];
            if batches == 0 {
                continue; // only devices that did work appear in reports
            }
            devices.insert(
                d,
                DeviceStats {
                    batches,
                    jobs,
                    busy: h.busy(),
                    utilization: h.utilization(makespan),
                },
            );
        }
        let (mut hits, mut misses) = (0, 0);
        let (mut contexts, mut idle) = (0, 0);
        for c in &self.cmm {
            let s = c.stats();
            hits += s.hits;
            misses += s.misses;
            contexts += c.len();
            idle += c.idle_count();
        }
        ServeOutcome {
            records: self.records,
            tenants: self.tenants,
            devices,
            admission: self.admission,
            makespan,
            cmm_hits: hits,
            cmm_misses: misses,
            cmm_contexts: contexts,
            cmm_idle: idle,
            in_flight_end: self.in_flight_jobs.iter().sum(),
            pool_jobs: pool_delta.jobs,
            metrics: self.registry,
            flight: self.recorder.map(FlightRecorder::into_log),
        }
    }
}

/// `family{tenant="N"}` instrument name.
fn tenant_metric(family: &str, tenant: u32) -> String {
    format!("{family}{{tenant=\"{tenant}\"}}")
}

/// `family{device="N"}` instrument name.
fn device_metric(family: &str, device: usize) -> String {
    format!("{family}{{device=\"{device}\"}}")
}

/// Convenience: run a job stream through a fresh scheduler.
pub fn serve(
    cfg: ServeConfig,
    work: Arc<dyn DeviceAdapter>,
    source: &mut dyn JobSource,
) -> ServeOutcome {
    Scheduler::new(cfg, work).run(source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobOutcome;
    use crate::script::parse_script;
    use hpdr_core::CpuParallelAdapter;

    /// Mixed-fidelity retrievals from three tenants: all three fold
    /// into one shared launch (same kind name despite different
    /// tolerances), share one coarse component set at parse time, and
    /// share one CMM context family at serve time (1 miss + 2 hits).
    #[test]
    fn mixed_fidelity_retrievals_batch_and_share_contexts() {
        let work: Arc<dyn DeviceAdapter> = Arc::new(CpuParallelAdapter::new(2));
        let script = "\
0 0 retrieve mgard:1e-5 8 tol=1e-1
0 1 retrieve mgard:1e-5 8 tol=1e-3
0 2 retrieve mgard:1e-5 8 tol=1e-1
";
        let jobs = parse_script(script, work.as_ref()).unwrap();
        let mut source = VecSource::new(jobs);
        let outcome = serve(ServeConfig::default(), Arc::clone(&work), &mut source);
        assert_eq!(outcome.records.len(), 3);
        for r in &outcome.records {
            assert_eq!(r.outcome, JobOutcome::Completed, "job {:?}", r.id);
            assert_eq!(r.kind.name(), "retrieve");
        }
        // One shared launch carried all three fidelities.
        let dev = outcome.devices.get(&0).expect("device 0 did the work");
        assert_eq!(dev.batches, 1);
        assert_eq!(dev.jobs, 3);
        // One context family across tenants and tolerances.
        assert_eq!(outcome.cmm_misses, 1);
        assert_eq!(outcome.cmm_hits, 2);
        assert_eq!(outcome.in_flight_end, 0);
    }

    /// Retrieve jobs never fold with compress/decompress work, and a
    /// looser tolerance moves strictly fewer bytes through the device
    /// (the progressive win, visible in the span trace's byte counts).
    #[test]
    fn retrieve_batches_stay_separate_from_compress() {
        let work: Arc<dyn DeviceAdapter> = Arc::new(CpuParallelAdapter::new(2));
        let script = "\
0 0 retrieve mgard:1e-5 8 tol=1e-1
0 1 compress mgard:1e-5 8
";
        let jobs = parse_script(script, work.as_ref()).unwrap();
        let mut source = VecSource::new(jobs);
        let outcome = serve(ServeConfig::default(), Arc::clone(&work), &mut source);
        assert_eq!(outcome.records.len(), 2);
        for r in &outcome.records {
            assert_eq!(r.outcome, JobOutcome::Completed);
        }
        let dev = outcome.devices.get(&0).expect("device 0 did the work");
        assert_eq!(dev.batches, 2, "retrieve must not fold with compress");
    }
}
