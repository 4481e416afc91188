//! The serve-mix workload: the loadgen 70/15/15 compress / decompress /
//! progressive-retrieve mix over five codecs (8–16³ fields, 4 tenants,
//! deadlines and cancellations) through `hpdr_serve::Scheduler::run` on
//! 2 simulated devices with the batched policy.
//!
//! The loop is open: Poisson arrivals at a fixed virtual rate, chosen so
//! the busier device sits near half utilisation. Latency runs from each
//! job's virtual arrival, so a stall delays every job queued behind it.

use crate::check;
use crate::env::Stopwatch;
use crate::fields::rel_bound;
use crate::report::{Clock, Metric, Tally};
use crate::spans::Tracer;
use crate::stats::{summarize, tail, Summary};
use crate::Size;
use hpdr_core::{ArrayMeta, CpuParallelAdapter, DeviceAdapter, Float};
use hpdr_serve::loadgen::generate_open_with;
use hpdr_serve::{
    JobOutcome, JobPayload, JobRequest, LoadgenOptions, PayloadCache, Policy, Scheduler,
    ServeConfig, ServeOutcome, VecSource,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Jobs per virtual second.
pub const RATE: f64 = 8000.0;

pub struct ServeWorkload {
    pub jobs: Vec<JobRequest>,
    pub cfg: ServeConfig,
    pub work: Arc<dyn DeviceAdapter>,
    pub ratio: f64,
    pub max_rel_err: f64,
    /// Original field of each cube side, for the layer replays.
    pub inputs: BTreeMap<usize, (Arc<Vec<u8>>, ArrayMeta)>,
    /// Outcome digest of the warm-up run.
    pub reference: u64,
}

pub fn options(seed: u64, size: Size) -> LoadgenOptions {
    LoadgenOptions {
        rps: RATE,
        duration_s: match size {
            Size::Full => 0.5,
            Size::Tiny => 0.01,
        },
        seed,
        ..LoadgenOptions::default()
    }
}

/// Identity of a job's work: the loadgen shares one payload `Arc` per
/// distinct input (compress jobs of every codec share the side's field),
/// container or fetch plan, so the pointer plus the codec names it.
pub fn payload_key(job: &JobRequest) -> (usize, String) {
    let ptr = match &job.payload {
        JobPayload::Compress { input, .. } => Arc::as_ptr(input) as usize,
        JobPayload::Decompress { container } => Arc::as_ptr(container) as usize,
        JobPayload::Retrieve { plan, .. } => Arc::as_ptr(plan) as usize,
    };
    (
        ptr,
        format!("{} {}", job.payload.kind().name(), job.codec.label()),
    )
}

/// Generate the job stream, check every distinct payload through its
/// public codec call (the scheduler discards outputs, so this is where
/// the served codecs' results are checked), and warm up with one full run.
pub fn setup(seed: u64, size: Size, tally: &mut Tally) -> ServeWorkload {
    let work: Arc<dyn DeviceAdapter> =
        Arc::new(CpuParallelAdapter::new(crate::env::adapter_threads()));
    let opts = options(seed, size);
    let mut cache = PayloadCache::new();
    let jobs = generate_open_with(&opts, work.as_ref(), &mut cache).expect("job generation failed");
    let mut streams: BTreeMap<(usize, String), u64> = BTreeMap::new();
    let mut inputs = BTreeMap::new();
    let mut max_rel_err = 0.0f64;
    let (mut raw, mut packed) = (0u64, 0u64);
    for job in &jobs {
        let key = payload_key(job);
        let side = job.payload.meta().shape.dims()[0];
        let (orig, meta) = cache.input(side);
        inputs.insert(side, (Arc::clone(&orig), meta.clone()));
        let len =
            *streams
                .entry(key)
                .or_insert_with(|| match verify(job, &orig, &meta, work.as_ref()) {
                    Ok((rel, len)) => {
                        tally.check(true, String::new);
                        max_rel_err = max_rel_err.max(rel);
                        len
                    }
                    Err(e) => {
                        let what = format!(
                            "{} {} {side}^3",
                            job.payload.kind().name(),
                            job.codec.label()
                        );
                        tally.check(false, || format!("{what}: {e}"));
                        1
                    }
                });
        if let JobPayload::Compress { input, .. } = &job.payload {
            raw += input.len() as u64;
            packed += len;
        }
    }
    let cfg = ServeConfig {
        devices: opts.devices,
        policy: Policy::Batched,
        ..ServeConfig::default()
    };
    let mut wl = ServeWorkload {
        jobs,
        cfg,
        work,
        ratio: raw as f64 / packed.max(1) as f64,
        max_rel_err,
        inputs,
        reference: 0,
    };
    // Warm-up: one full run, whose outcome every measured run must match.
    wl.reference = tally_outcome(&run(&wl, None).1, &mut Tally::default()).digest;
    wl
}

/// Check one payload's result through its public call. Returns the
/// relative error and, for compress payloads, the stream length.
fn verify(
    job: &JobRequest,
    orig: &[u8],
    meta: &ArrayMeta,
    work: &dyn DeviceAdapter,
) -> Result<(f64, u64), String> {
    let reducer = job.codec.reducer();
    let lossless = reducer.is_lossless();
    match &job.payload {
        JobPayload::Compress { input, meta } => {
            let stream = reducer
                .compress(work, input, meta)
                .map_err(|e| e.to_string())?;
            let (out, m) = reducer
                .decompress(work, &stream)
                .map_err(|e| e.to_string())?;
            let rel = check::reconstruction(input, &out, &m, meta, lossless, rel_bound(job.codec))?;
            Ok((rel, stream.len() as u64))
        }
        JobPayload::Decompress { container } => {
            let mut out = Vec::with_capacity(meta.num_bytes());
            for (_, stream) in &container.chunks {
                out.extend(
                    reducer
                        .decompress(work, stream)
                        .map_err(|e| e.to_string())?
                        .0,
                );
            }
            let rel = check::reconstruction(
                orig,
                &out,
                &container.meta,
                meta,
                lossless,
                rel_bound(job.codec),
            )?;
            Ok((rel, 0))
        }
        JobPayload::Retrieve {
            set,
            plan,
            tolerance,
            ..
        } => {
            let r = set
                .retrieve::<f32>(work, *tolerance)
                .map_err(|e| e.to_string())?;
            if r.fetched_bytes != plan.bytes {
                return Err(format!(
                    "fetched {} bytes, plan said {}",
                    r.fetched_bytes, plan.bytes
                ));
            }
            let out = f32::slice_to_bytes(&r.data);
            let e = check::extent(orig, meta.dtype);
            let err = check::max_abs_err(orig, &out, meta.dtype).ok_or("bad retrieval output")?;
            if !check::within(err, *tolerance, e, meta.dtype) {
                return Err(format!(
                    "retrieval error {err} exceeds tolerance {tolerance}"
                ));
            }
            Ok((err / e.range, 0))
        }
    }
}

/// What one serve run measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub wall_ns: u64,
    /// Process CPU time of `Scheduler::run`.
    pub cpu_ns: u64,
    pub completed: u64,
    pub compress_raw: u64,
    pub restore_raw: u64,
    pub makespan_ns: u64,
    pub latency_ms_virtual: Vec<f64>,
    pub digest: u64,
}

/// Run the whole stream once through a fresh scheduler; returns the
/// run's `(wall ns, cpu ns)` and its outcome.
pub fn run(wl: &ServeWorkload, tracer: Option<&mut Tracer>) -> ((u64, u64), ServeOutcome) {
    let sched = Scheduler::new(wl.cfg.clone(), Arc::clone(&wl.work));
    let mut source = VecSource::new(wl.jobs.clone());
    let span = tracer.map(|t| (t.open("serve.run", 0), t));
    let t = Stopwatch::start();
    let outcome = sched.run(&mut source);
    let elapsed = t.elapsed_ns();
    if let Some((id, t)) = span {
        t.close(id);
    }
    (elapsed, outcome)
}

/// One measured serve run with its checks, including that the outcome
/// is identical to the warm-up run's.
pub fn pass(wl: &ServeWorkload, tally: &mut Tally) -> Pass {
    let ((wall_ns, cpu_ns), outcome) = run(wl, None);
    let p = Pass {
        wall_ns,
        cpu_ns,
        ..tally_outcome(&outcome, tally)
    };
    tally.check(wl.reference == p.digest, || {
        "serve outcome changed between runs".into()
    });
    p
}

/// Check every job of a serve outcome: scripted cancellations are
/// neither attempted nor failed; every other job must complete.
pub fn tally_outcome(outcome: &ServeOutcome, tally: &mut Tally) -> Pass {
    let mut p = Pass {
        makespan_ns: outcome.makespan.0,
        ..Pass::default()
    };
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in &outcome.records {
        for v in [
            r.id.0,
            r.finished.0,
            r.device.map_or(u64::MAX, |d| d as u64),
        ] {
            h = (h ^ v).wrapping_mul(0x100_0000_01b3);
        }
        match &r.outcome {
            JobOutcome::Cancelled => continue,
            JobOutcome::Completed => {
                p.completed += 1;
                p.latency_ms_virtual.push(r.latency().0 as f64 / 1e6);
                match r.kind {
                    hpdr_serve::JobKind::Compress => p.compress_raw += r.bytes,
                    _ => p.restore_raw += r.bytes,
                }
            }
            _ => {}
        }
        tally.check(r.outcome == JobOutcome::Completed, || {
            format!(
                "job {} ({} {}): {:?}",
                r.id.0,
                r.kind.name(),
                r.codec,
                r.outcome
            )
        });
    }
    let rejected: u64 = outcome.tenants.values().map(|t| t.rejected).sum();
    for _ in 0..rejected {
        tally.check(false, || "job rejected by admission".into());
    }
    p.digest = h;
    p
}

pub fn metrics(wl: &ServeWorkload, passes: &[Pass]) -> Vec<Metric> {
    let per = |f: &dyn Fn(&Pass) -> f64| summarize(&passes.iter().map(f).collect::<Vec<_>>());
    let lat = &passes[0].latency_ms_virtual;
    let (p99, beyond) = tail(lat, 0.99);
    let compress_jobs = wl
        .jobs
        .iter()
        .filter(|j| matches!(j.payload, JobPayload::Compress { .. }))
        .count();
    vec![
        Metric::of(
            "compress_gbps",
            per(&|p| p.compress_raw as f64 / p.cpu_ns as f64),
        )
        .with_note("raw bytes of completed compress jobs / process CPU time of Scheduler::run"),
        Metric::of(
            "decompress_gbps",
            per(&|p| p.restore_raw as f64 / p.cpu_ns as f64),
        )
        .with_note(
            "raw bytes of completed decompress and retrieve jobs / process CPU time of Scheduler::run",
        ),
        Metric::of("ratio", Summary::single(wl.ratio, compress_jobs))
            .with_note("raw / stream bytes over compress jobs"),
        Metric::of(
            "max_rel_err",
            Summary::single(wl.max_rel_err, compress_jobs),
        )
        .with_note("max |x - x'| / range over checked payloads, retrievals included"),
        Metric::of(
            "virtual_gbps",
            per(&|p| (p.compress_raw + p.restore_raw) as f64 / p.makespan_ns as f64),
        )
        .with_note("raw bytes of completed jobs / virtual makespan"),
        Metric::of(
            "jobs_per_s",
            per(&|p| p.completed as f64 * 1e9 / p.cpu_ns as f64),
        )
        .with_note("completed jobs per process CPU second of Scheduler::run"),
        Metric::of("job_p50_ms_virtual", summarize(lat))
            .with_note("arrival to completion, virtual; quartiles over jobs"),
        Metric::of("job_p99_ms_virtual", Summary::single(p99, lat.len()))
            .with_note(format!("{beyond} jobs beyond it")),
        Metric::extra(
            "compress_gbps_wall".into(),
            "GB/s",
            Clock::Wall,
            per(&|p| p.compress_raw as f64 / p.wall_ns as f64),
        ),
        Metric::extra(
            "decompress_gbps_wall".into(),
            "GB/s",
            Clock::Wall,
            per(&|p| p.restore_raw as f64 / p.wall_ns as f64),
        ),
        Metric::extra(
            "jobs_per_s_wall".into(),
            "1/s",
            Clock::Wall,
            per(&|p| p.completed as f64 * 1e9 / p.wall_ns as f64),
        ),
    ]
}
