//! Deterministic load generation for the serving layer.
//!
//! Seeded synthetic workloads over the scripted payload cache: Poisson
//! (open-loop) arrivals or a closed loop with one outstanding request
//! per tenant, a fixed job mix (sides 8/12/16, 80% compress, uniform
//! codecs, a sprinkle of priorities, deadlines and cancellations), and
//! a schema-validated JSON report with record-derived p50/p95/p99
//! latency, goodput and rejection rate. The report also embeds a
//! batching microbench: the same job prefix replayed one-at-a-time
//! (`Policy::Serial`) versus continuously batched, whose goodput ratio
//! is the `batching_speedup` headline.

use crate::error::ServeError;
use crate::job::{JobRequest, ServeCodec, TenantId};
use crate::report::{check_serve, ServeReport};
use crate::scheduler::{serve, JobSource, Policy, Scheduler, ServeConfig, VecSource};
use crate::script::PayloadCache;
use hpdr_core::{CpuParallelAdapter, DeviceAdapter};
use hpdr_sim::json::{need, need_f64, parse_json, JsonValue};
use hpdr_sim::Ns;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Schema identifier for loadgen reports.
pub const LOADGEN_SCHEMA: &str = "hpdr-loadgen/v1";

/// Load-generator options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadgenOptions {
    /// Mean arrival rate (jobs per virtual second).
    pub rps: f64,
    /// Virtual duration of the arrival window, seconds.
    pub duration_s: f64,
    pub tenants: u32,
    pub devices: usize,
    pub seed: u64,
    /// Closed loop: one outstanding request per tenant.
    pub closed: bool,
    /// Install a metrics registry (default cadence + SLO) on the main
    /// serve run. The microbench replays always run metrics-free.
    pub metrics: bool,
    /// Install a flight recorder (default config) on the main serve
    /// run. The microbench replays always run recorder-free.
    pub flight: bool,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            rps: 100.0,
            duration_s: 1.0,
            tenants: 4,
            devices: 2,
            seed: 7,
            closed: false,
            metrics: false,
            flight: false,
        }
    }
}

impl LoadgenOptions {
    /// The `--quick` smoke preset: small and seconds-fast, same mix.
    pub fn quick() -> LoadgenOptions {
        LoadgenOptions {
            rps: 64.0,
            duration_s: 0.5,
            tenants: 4,
            devices: 2,
            seed: 7,
            closed: false,
            metrics: false,
            flight: false,
        }
    }
}

const SIDES: [usize; 3] = [8, 12, 16];
const CODECS: [ServeCodec; 5] = [
    ServeCodec::Zfp { rate: 16 },
    ServeCodec::Mgard { rel_eb: 1e-3 },
    ServeCodec::Sz { rel_eb: 1e-3 },
    ServeCodec::Huffman,
    ServeCodec::Lz4,
];
/// Codec for progressive retrieve jobs (the `rel_eb` sets the
/// refactoring's full-precision floor, below every drawn tolerance).
const RETRIEVE_CODEC: ServeCodec = ServeCodec::Mgard { rel_eb: 1e-4 };
/// Relative tolerances retrieve jobs draw from — mixed fidelities of
/// the *same* stored field, so fair queuing and batching see retrieve
/// jobs of very different fetch sizes side by side.
const RETRIEVE_TOLS: [f64; 3] = [1e-1, 1e-2, 1e-3];

/// Draw one job from the mix (70% compress, 15% decompress, 15%
/// progressive retrieve at a mixed tolerance). `arrival` is absolute
/// for open-loop jobs and a relative think offset for closed-loop
/// ones.
fn draw_job(
    rng: &mut StdRng,
    cache: &mut PayloadCache,
    work: &dyn DeviceAdapter,
    tenants: u32,
    arrival: Ns,
    with_hazards: bool,
) -> Result<JobRequest, ServeError> {
    let tenant = TenantId(rng.gen_range(0..tenants.max(1)));
    let side = SIDES[rng.gen_range(0..SIDES.len())];
    let codec = CODECS[rng.gen_range(0..CODECS.len())];
    let roll = rng.gen_range(0.0..1.0);
    let (codec, payload) = if roll < 0.70 {
        (codec, cache.payload(true, codec, side, work)?)
    } else if roll < 0.85 {
        (codec, cache.payload(false, codec, side, work)?)
    } else {
        let tol = RETRIEVE_TOLS[rng.gen_range(0..RETRIEVE_TOLS.len())];
        (
            RETRIEVE_CODEC,
            cache.retrieval_for(tenant.0, RETRIEVE_CODEC, side, tol, work)?,
        )
    };
    let mut req = JobRequest::new(tenant, arrival, codec, payload);
    if rng.gen_range(0.0..1.0) < 0.10 {
        req.priority = rng.gen_range(1u8..=3);
    }
    if with_hazards {
        if rng.gen_range(0.0..1.0) < 0.05 {
            req.deadline = Some(arrival + Ns::from_micros(rng.gen_range(2_000u64..=10_000)));
        }
        if rng.gen_range(0.0..1.0) < 0.02 {
            req.cancel_at = Some(arrival + Ns::from_micros(rng.gen_range(0u64..=500)));
        }
    }
    Ok(req)
}

/// Generate the open-loop (Poisson) job stream.
pub fn generate_open(
    opts: &LoadgenOptions,
    work: &dyn DeviceAdapter,
) -> Result<Vec<JobRequest>, ServeError> {
    generate_open_with(opts, work, &mut PayloadCache::new())
}

/// [`generate_open`] with a caller-owned payload cache (stats and
/// cross-run sharing).
pub fn generate_open_with(
    opts: &LoadgenOptions,
    work: &dyn DeviceAdapter,
    cache: &mut PayloadCache,
) -> Result<Vec<JobRequest>, ServeError> {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let horizon_ns = opts.duration_s * 1e9;
    let mut t_ns = 0.0f64;
    let mut jobs = Vec::new();
    loop {
        let u: f64 = rng.gen_range(1e-12..1.0);
        t_ns += -u.ln() / opts.rps * 1e9;
        if t_ns > horizon_ns {
            break;
        }
        jobs.push(draw_job(
            &mut rng,
            cache,
            work,
            opts.tenants,
            Ns(t_ns as u64),
            true,
        )?);
    }
    Ok(jobs)
}

/// Closed-loop source: each tenant keeps exactly one request
/// outstanding; the next one is released at completion plus a seeded
/// think time (carried in the pre-generated job's `arrival` field as a
/// relative offset).
pub struct ClosedSource {
    pending: BTreeMap<u32, VecDeque<JobRequest>>,
    released: Vec<JobRequest>,
}

impl ClosedSource {
    /// Build from per-tenant job queues; each tenant's first job is
    /// released at its own think offset from time zero.
    pub fn new(mut pending: BTreeMap<u32, VecDeque<JobRequest>>) -> ClosedSource {
        let mut released = Vec::new();
        for queue in pending.values_mut() {
            if let Some(first) = queue.pop_front() {
                released.push(first);
            }
        }
        ClosedSource { pending, released }
    }
}

impl JobSource for ClosedSource {
    fn peek(&self) -> Option<Ns> {
        self.released.iter().map(|j| j.arrival).min()
    }

    fn pop_ready(&mut self, now: Ns) -> Vec<JobRequest> {
        let mut ready: Vec<JobRequest> = Vec::new();
        let mut keep = Vec::with_capacity(self.released.len());
        for j in self.released.drain(..) {
            if j.arrival <= now {
                ready.push(j);
            } else {
                keep.push(j);
            }
        }
        self.released = keep;
        ready.sort_by_key(|j| (j.arrival, j.tenant.0));
        ready
    }

    fn on_complete(&mut self, tenant: TenantId, now: Ns) {
        if let Some(mut next) = self.pending.get_mut(&tenant.0).and_then(|q| q.pop_front()) {
            next.arrival = now + next.arrival; // arrival held the think offset
            self.released.push(next);
        }
    }
}

/// Generate the closed-loop per-tenant queues.
pub fn generate_closed(
    opts: &LoadgenOptions,
    work: &dyn DeviceAdapter,
) -> Result<ClosedSource, ServeError> {
    generate_closed_with(opts, work, &mut PayloadCache::new())
}

/// [`generate_closed`] with a caller-owned payload cache.
pub fn generate_closed_with(
    opts: &LoadgenOptions,
    work: &dyn DeviceAdapter,
    cache: &mut PayloadCache,
) -> Result<ClosedSource, ServeError> {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let total = (opts.rps * opts.duration_s).ceil() as u64;
    let tenants = opts.tenants.max(1);
    let per_tenant_rps = opts.rps / tenants as f64;
    let mut pending: BTreeMap<u32, VecDeque<JobRequest>> = BTreeMap::new();
    for i in 0..total {
        let u: f64 = rng.gen_range(1e-12..1.0);
        let think = Ns((-u.ln() / per_tenant_rps * 1e9) as u64);
        // Closed-loop jobs carry no deadlines/cancellations: their
        // arrival is completion-relative, so absolute hazards would be
        // meaningless at generation time.
        let mut job = draw_job(&mut rng, cache, work, tenants, think, false)?;
        job.tenant = TenantId((i % tenants as u64) as u32);
        pending.entry(job.tenant.0).or_default().push_back(job);
    }
    Ok(ClosedSource::new(pending))
}

/// Result of a loadgen run: the serve report plus the batching
/// microbench.
pub struct LoadgenReport {
    pub opts: LoadgenOptions,
    pub serve: ServeReport,
    /// Goodput of the batched prefix replay.
    pub batched_goodput_gbps: f64,
    /// Goodput of the same prefix one-job-at-a-time.
    pub serial_goodput_gbps: f64,
    /// `batched / serial` — continuous batching's win.
    pub batching_speedup: f64,
    /// Causal flight analysis of the main run (present iff
    /// `LoadgenOptions::flight`). Not embedded in [`to_json`](Self::to_json):
    /// the CLI writes it as a standalone `hpdr-flight/v1` document.
    pub flight: Option<hpdr_flight::FlightReport>,
}

impl LoadgenReport {
    /// Human-readable summary: workload headline, serve summary, and
    /// the batching microbench verdict.
    pub fn render(&self) -> Vec<String> {
        let mut out = vec![format!(
            "loadgen: seed {} — {:.0} rps x {:.2}s, {} tenants, {} loop",
            self.opts.seed,
            self.opts.rps,
            self.opts.duration_s,
            self.opts.tenants,
            if self.opts.closed { "closed" } else { "open" },
        )];
        out.extend(self.serve.render());
        let rate = if self.serve.submitted > 0 {
            self.serve.rejected as f64 / self.serve.submitted as f64
        } else {
            0.0
        };
        out.push(format!("rejection rate: {:.2}%", rate * 100.0));
        out.push(format!(
            "continuous batching: {:.4} GB/s vs {:.4} GB/s serial — {:.2}x",
            self.batched_goodput_gbps, self.serial_goodput_gbps, self.batching_speedup
        ));
        out
    }

    pub fn to_json(&self) -> String {
        let serve = self.serve.to_json();
        let serve = serve.trim_end();
        format!(
            "{{\n  \"schema\": \"{LOADGEN_SCHEMA}\",\n  \"seed\": {},\n  \"rps\": {:.3},\n  \
             \"duration_s\": {:.3},\n  \"tenants\": {},\n  \"loop\": \"{}\",\n  \
             \"batched_goodput_gbps\": {:.6},\n  \"serial_goodput_gbps\": {:.6},\n  \
             \"batching_speedup\": {:.4},\n  \"serve\": {}\n}}\n",
            self.opts.seed,
            self.opts.rps,
            self.opts.duration_s,
            self.opts.tenants,
            if self.opts.closed { "closed" } else { "open" },
            self.batched_goodput_gbps,
            self.serial_goodput_gbps,
            self.batching_speedup,
            serve.replace('\n', "\n  "),
        )
    }
}

/// Validate a loadgen JSON document: schema id, the batching
/// microbench fields, and the embedded serve report's walk.
pub fn validate_loadgen_json(json: &str) -> Result<(), String> {
    let doc = parse_json(json)?;
    if doc.get("schema").and_then(JsonValue::as_str) != Some(LOADGEN_SCHEMA) {
        return Err(format!("missing schema id {LOADGEN_SCHEMA}"));
    }
    for k in ["batching_speedup", "serial_goodput_gbps"] {
        need_f64(&doc, k, "loadgen report")?;
    }
    check_serve(need(&doc, "serve", "loadgen report")?)
}

/// The scheduler microbench: replay `prefix` (arrivals zeroed, hazards
/// stripped) under each policy on one device and compare goodput.
fn replay_goodput(
    prefix: &[JobRequest],
    policy: Policy,
    base: &ServeConfig,
    work: &Arc<dyn DeviceAdapter>,
) -> f64 {
    let jobs: Vec<JobRequest> = prefix
        .iter()
        .map(|j| {
            let mut j = JobRequest::new(j.tenant, Ns::ZERO, j.codec, j.payload.clone());
            j.priority = 0;
            j
        })
        .collect();
    let cfg = ServeConfig {
        devices: 1,
        policy,
        admission: crate::admission::AdmissionConfig {
            max_queued_jobs: jobs.len().max(1),
            max_queued_bytes: u64::MAX,
        },
        // The microbench compares raw goodput; never meter or trace it.
        metrics: None,
        flight: None,
        ..base.clone()
    };
    let mut source = VecSource::new(jobs);
    let outcome = serve(cfg, Arc::clone(work), &mut source);
    ServeReport::build(policy, outcome).goodput_gbps
}

/// Surface the payload cache's occupancy and per-tenant plan hit/miss
/// counters as registry gauges: generation fully populates the cache
/// before serving, so the values are exact for the whole run and show
/// up in `hpdr top`, the exposition dump and the metrics JSON — not
/// only the final report. No-op when the run is unmetered.
fn set_cache_gauges(sched: &mut Scheduler, cache: &PayloadCache) {
    let stats = cache.stats();
    let tenants = cache.tenant_plan_stats().clone();
    let Some(reg) = sched.registry_mut() else {
        return;
    };
    reg.gauge_set(
        "payload_cache_retrieval_bytes",
        stats.retrieval_bytes as f64,
    );
    reg.gauge_set(
        "payload_cache_retrieval_evictions",
        stats.retrieval_evictions as f64,
    );
    reg.gauge_set("payload_cache_plan_bytes", stats.plan_bytes as f64);
    reg.gauge_set("payload_cache_plan_evictions", stats.plan_evictions as f64);
    for (tenant, (hits, misses)) in tenants {
        reg.gauge_set(
            &format!("payload_cache_plan_hits{{tenant=\"{tenant}\"}}"),
            hits as f64,
        );
        reg.gauge_set(
            &format!("payload_cache_plan_misses{{tenant=\"{tenant}\"}}"),
            misses as f64,
        );
    }
}

/// Run a full load-generation session: generate, serve, microbench.
pub fn run_loadgen(opts: LoadgenOptions) -> Result<LoadgenReport, ServeError> {
    let work: Arc<dyn DeviceAdapter> = Arc::new(CpuParallelAdapter::with_defaults());
    let cfg = ServeConfig {
        devices: opts.devices.max(1),
        policy: Policy::Batched,
        metrics: opts.metrics.then(|| hpdr_metrics::MetricsConfig {
            slo: Some(hpdr_metrics::SloConfig::default()),
            ..hpdr_metrics::MetricsConfig::default()
        }),
        flight: opts.flight.then(hpdr_flight::FlightConfig::default),
        ..ServeConfig::default()
    };

    let mut cache = PayloadCache::new();
    let (outcome, prefix) = if opts.closed {
        let mut source = generate_closed_with(&opts, work.as_ref(), &mut cache)?;
        let prefix_opts = LoadgenOptions {
            closed: false,
            ..opts
        };
        let prefix = generate_open_with(&prefix_opts, work.as_ref(), &mut cache)?;
        let mut sched = Scheduler::new(cfg.clone(), Arc::clone(&work));
        set_cache_gauges(&mut sched, &cache);
        (sched.run(&mut source), prefix)
    } else {
        let jobs = generate_open_with(&opts, work.as_ref(), &mut cache)?;
        let prefix = jobs.clone();
        let mut source = VecSource::new(jobs);
        let mut sched = Scheduler::new(cfg.clone(), Arc::clone(&work));
        set_cache_gauges(&mut sched, &cache);
        (sched.run(&mut source), prefix)
    };
    let mut outcome = outcome;
    // ServeReport::build consumes the outcome; the flight log leaves it
    // first and is analyzed under the same (default) recorder config.
    let flight = outcome
        .flight
        .take()
        .map(|log| hpdr_flight::analyze(&log, &hpdr_flight::FlightConfig::default(), None));
    let mut serve_report = ServeReport::build(cfg.policy, outcome);
    serve_report.payload_cache = Some(cache.stats());

    let prefix: Vec<JobRequest> = prefix.into_iter().take(64).collect();
    let batched = replay_goodput(&prefix, Policy::Batched, &cfg, &work);
    let serial = replay_goodput(&prefix, Policy::Serial, &cfg, &work);
    let speedup = if serial > 0.0 { batched / serial } else { 0.0 };
    Ok(LoadgenReport {
        opts,
        serve: serve_report,
        batched_goodput_gbps: batched,
        serial_goodput_gbps: serial,
        batching_speedup: speedup,
        flight,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_core::SerialAdapter;

    #[test]
    fn open_loop_generation_is_seed_deterministic() {
        let opts = LoadgenOptions {
            rps: 500.0,
            duration_s: 0.05,
            ..LoadgenOptions::default()
        };
        let work = SerialAdapter::new();
        let a = generate_open(&opts, &work).unwrap();
        let b = generate_open(&opts, &work).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.codec, y.codec);
            assert_eq!(x.priority, y.priority);
        }
        let c = generate_open(&LoadgenOptions { seed: 8, ..opts }, &work).unwrap();
        assert!(
            a.len() != c.len() || a.iter().zip(&c).any(|(x, y)| x.arrival != y.arrival),
            "different seeds should differ"
        );
    }

    #[test]
    fn closed_source_keeps_one_outstanding_per_tenant() {
        let opts = LoadgenOptions {
            rps: 100.0,
            duration_s: 0.1,
            tenants: 2,
            ..LoadgenOptions::default()
        };
        let work = SerialAdapter::new();
        let mut src = generate_closed(&opts, &work).unwrap();
        // At most one released job per tenant before any completion.
        let first = src.pop_ready(Ns(u64::MAX / 2));
        assert!(first.len() <= 2);
        let before = src.peek();
        src.on_complete(TenantId(0), Ns(1_000_000));
        // Completion released tenant 0's next job.
        assert!(src.peek().is_some() || before.is_none());
    }

    #[test]
    fn quick_preset_is_small() {
        let q = LoadgenOptions::quick();
        assert!(q.rps * q.duration_s <= 64.0);
    }
}
