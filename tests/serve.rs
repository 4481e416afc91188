//! Integration tests for the serving layer (`hpdr-serve`): scheduler
//! determinism, per-tenant fairness, typed backpressure, CMM/slot
//! release on cancellation and timeout, histogram quantile accuracy,
//! and the continuous-batching goodput win.

use hpdr_core::{CpuParallelAdapter, DeviceAdapter};
use hpdr_serve::histogram::bucket_width;
use hpdr_serve::{
    exact_quantile, parse_script, run_loadgen, serve, validate_loadgen_json, validate_serve_json,
    AdmissionConfig, JobOutcome, JobRequest, LoadgenOptions, PayloadCache, Policy, Scheduler,
    ServeCodec, ServeConfig, ServeError, ServeReport, StreamingHistogram, TenantId, VecSource,
    DEMO_SCRIPT,
};
use hpdr_sim::Ns;
use proptest::prelude::*;
use std::sync::Arc;

fn work() -> Arc<dyn DeviceAdapter> {
    Arc::new(CpuParallelAdapter::with_defaults())
}

/// A compress job built from the deterministic synthetic field.
fn compress_job(cache: &mut PayloadCache, tenant: u32, arrival_us: u64, side: usize) -> JobRequest {
    let (input, meta) = cache.input(side);
    JobRequest::new(
        TenantId(tenant),
        Ns::from_micros(arrival_us),
        ServeCodec::Zfp { rate: 16 },
        hpdr_serve::JobPayload::Compress { input, meta },
    )
}

fn demo_report_json(policy: Policy, devices: usize) -> String {
    let work = work();
    let jobs = parse_script(DEMO_SCRIPT, work.as_ref()).expect("demo script parses");
    let cfg = ServeConfig {
        devices,
        policy,
        ..ServeConfig::default()
    };
    let mut source = VecSource::new(jobs);
    let outcome = serve(cfg, work, &mut source);
    ServeReport::build(policy, outcome).to_json()
}

#[test]
fn serial_report_is_byte_identical_across_runs_and_device_counts() {
    // The serial-queue policy uses one device regardless of pool size,
    // so the same job file must serialize byte-identically for any
    // `--devices` — and across repeated runs.
    let base = demo_report_json(Policy::Serial, 1);
    validate_serve_json(&base).expect("valid serve report");
    for devices in 1..=4 {
        assert_eq!(
            demo_report_json(Policy::Serial, devices),
            base,
            "serial report diverged at devices={devices}"
        );
    }
}

#[test]
fn batched_report_is_deterministic_across_runs() {
    let a = demo_report_json(Policy::Batched, 2);
    let b = demo_report_json(Policy::Batched, 2);
    assert_eq!(a, b);
    validate_serve_json(&a).expect("valid serve report");
}

#[test]
fn light_tenant_does_not_starve_under_skewed_load() {
    // Tenant 0 submits 10x the jobs of tenant 1, all contending for one
    // device. Byte-weighted fair queuing must keep the light tenant's
    // latency in the same ballpark — not behind the heavy backlog.
    let work = work();
    let mut cache = PayloadCache::new();
    let mut jobs = Vec::new();
    for i in 0..100u64 {
        jobs.push(compress_job(&mut cache, 0, i, 16));
    }
    for i in 0..10u64 {
        jobs.push(compress_job(&mut cache, 1, i * 10, 16));
    }
    let cfg = ServeConfig {
        devices: 1,
        policy: Policy::Batched,
        admission: AdmissionConfig {
            max_queued_jobs: 256,
            max_queued_bytes: 1 << 30,
        },
        ..ServeConfig::default()
    };
    let mut source = VecSource::new(jobs);
    let outcome = serve(cfg, work, &mut source);
    let report = ServeReport::build(Policy::Batched, outcome);
    assert_eq!(report.completed, 110, "all jobs complete");
    let light = report.per_tenant.iter().find(|t| t.tenant == 1).unwrap();
    let heavy = report.per_tenant.iter().find(|t| t.tenant == 0).unwrap();
    assert_eq!(light.completed, 10, "light tenant finished everything");
    assert!(
        light.mean_latency_ns <= heavy.mean_latency_ns * 2,
        "light tenant starved: {} ns vs heavy {} ns",
        light.mean_latency_ns,
        heavy.mean_latency_ns
    );
}

#[test]
fn full_queue_rejects_with_typed_backpressure() {
    let mut cache = PayloadCache::new();
    let cfg = ServeConfig {
        admission: AdmissionConfig {
            max_queued_jobs: 2,
            max_queued_bytes: 1 << 30,
        },
        ..ServeConfig::default()
    };
    let mut sched = Scheduler::new(cfg, work());
    sched.try_submit(compress_job(&mut cache, 0, 0, 8)).unwrap();
    sched.try_submit(compress_job(&mut cache, 0, 0, 8)).unwrap();
    let err = sched
        .try_submit(compress_job(&mut cache, 0, 0, 8))
        .unwrap_err();
    assert!(matches!(err, ServeError::QueueFull { depth: 2, limit: 2 }));
    assert!(err.is_backpressure());

    // Byte-budget rejection is the other typed variant.
    let tiny = ServeConfig {
        admission: AdmissionConfig {
            max_queued_jobs: 64,
            max_queued_bytes: 100,
        },
        ..ServeConfig::default()
    };
    let mut sched2 = Scheduler::new(tiny, work());
    let err = sched2
        .try_submit(compress_job(&mut cache, 0, 0, 8))
        .unwrap_err();
    assert!(matches!(err, ServeError::BudgetExceeded { .. }));

    // The run still drains the admitted jobs and the report balances:
    // nothing was lost, the rejection is visible, never silently dropped.
    let mut empty = VecSource::new(Vec::new());
    let outcome = sched.run(&mut empty);
    let report = ServeReport::build(Policy::Batched, outcome);
    assert_eq!(report.submitted, 3);
    assert_eq!(report.admitted, 2);
    assert_eq!(report.rejected, 1);
    assert_eq!(report.completed, 2);
    validate_serve_json(&report.to_json()).expect("balanced report");
}

#[test]
fn queued_cancellation_never_attaches_context_or_device() {
    let mut cache = PayloadCache::new();
    let mut job = compress_job(&mut cache, 0, 0, 8);
    job.cancel_at = Some(Ns::ZERO); // client gave up immediately
    let mut source = VecSource::new(vec![job]);
    let outcome = serve(ServeConfig::default(), work(), &mut source);
    assert_eq!(outcome.records.len(), 1);
    assert_eq!(outcome.records[0].outcome, JobOutcome::Cancelled);
    assert_eq!(outcome.records[0].device, None, "never dispatched");
    assert_eq!(outcome.cmm_misses, 0, "no context was ever built");
    assert_eq!(outcome.cmm_contexts, 0);
    assert_eq!(outcome.in_flight_end, 0);
    assert_eq!(outcome.admission.queued_jobs(), 0, "admission released");
    assert!(outcome.devices.is_empty(), "no device slot consumed");
}

#[test]
fn in_flight_cancellation_and_timeout_release_context_and_slot() {
    let mut cache = PayloadCache::new();
    // Job 0 runs normally; job 1 is cancelled mid-service; job 2 has a
    // deadline far shorter than any service time.
    let a = compress_job(&mut cache, 0, 0, 16);
    let mut b = compress_job(&mut cache, 1, 0, 16);
    b.cancel_at = Some(Ns(1));
    let mut c = compress_job(&mut cache, 2, 0, 16);
    c.deadline = Some(Ns(2));
    // Distinct codecs force distinct batches so each job is its own
    // launch (the hazards land in flight, not in the queue).
    b.codec = ServeCodec::Lz4;
    c.codec = ServeCodec::Huffman;
    let mut source = VecSource::new(vec![a, b, c]);
    let cfg = ServeConfig {
        devices: 3,
        ..ServeConfig::default()
    };
    let outcome = serve(cfg, work(), &mut source);

    let by_tenant = |t: u32| {
        outcome
            .records
            .iter()
            .find(|r| r.tenant == TenantId(t))
            .unwrap()
    };
    assert_eq!(by_tenant(0).outcome, JobOutcome::Completed);
    let cancelled = by_tenant(1);
    assert_eq!(cancelled.outcome, JobOutcome::Cancelled);
    assert!(cancelled.device.is_some(), "was in flight when cancelled");
    let timed_out = by_tenant(2);
    assert_eq!(timed_out.outcome, JobOutcome::TimedOut);
    assert!(
        timed_out.device.is_some(),
        "was in flight past its deadline"
    );

    // Release invariants: every context idle again, every device slot
    // freed, admission gauges empty.
    assert_eq!(outcome.cmm_contexts, 3, "each codec built one context");
    assert_eq!(
        outcome.cmm_idle, outcome.cmm_contexts,
        "cancelled/timed-out jobs must release their CMM contexts"
    );
    assert_eq!(outcome.in_flight_end, 0, "device slots all released");
    assert_eq!(outcome.admission.queued_jobs(), 0);
    assert_eq!(outcome.admission.queued_bytes(), 0);
    assert!(outcome.pool_jobs > 0, "kernels really ran on the pool");
}

#[test]
fn acceptance_loadgen_loses_no_jobs_and_batching_wins() {
    // The ISSUE acceptance run: rps 200 for 2 virtual seconds, seed 7.
    let opts = LoadgenOptions {
        rps: 200.0,
        duration_s: 2.0,
        tenants: 4,
        devices: 2,
        seed: 7,
        closed: false,
        metrics: false,
        flight: false,
    };
    let report = run_loadgen(opts).expect("loadgen runs");
    let s = &report.serve;
    assert!(s.admitted > 0);
    assert_eq!(
        s.admitted,
        s.completed + s.timed_out + s.cancelled + s.failed,
        "zero lost jobs"
    );
    assert!(s.latency.p99 > 0, "p99 latency is record-derived and real");
    assert!(
        report.batching_speedup >= 1.5,
        "continuous batching must beat one-job-at-a-time by >= 1.5x, got {:.3}",
        report.batching_speedup
    );
    let doc = report.to_json();
    validate_loadgen_json(&doc).expect("schema-valid loadgen report");

    // The whole document is virtual-time-derived, so a second run is
    // byte-identical.
    let again = run_loadgen(opts).expect("loadgen runs again");
    assert_eq!(again.to_json(), doc, "loadgen report must be reproducible");
}

#[test]
fn closed_loop_loadgen_balances_too() {
    let opts = LoadgenOptions {
        rps: 50.0,
        duration_s: 0.5,
        tenants: 3,
        devices: 2,
        seed: 11,
        closed: true,
        metrics: false,
        flight: false,
    };
    let report = run_loadgen(opts).expect("closed-loop loadgen runs");
    let s = &report.serve;
    assert!(s.admitted > 0);
    assert_eq!(
        s.admitted,
        s.completed + s.timed_out + s.cancelled + s.failed
    );
    validate_loadgen_json(&report.to_json()).expect("valid report");
}

/// The report's one per-job source agrees with the flight recorder:
/// completed-job latencies from the `JobRecord`s and from the flight
/// rows are the same list, on the seed-7 quick stream in both loop
/// modes.
#[test]
fn job_records_and_flight_rows_agree_on_completed_latencies() {
    for closed in [false, true] {
        let opts = LoadgenOptions {
            closed,
            flight: true,
            ..LoadgenOptions::quick()
        };
        let report = run_loadgen(opts).expect("loadgen runs");
        let flight = report.flight.as_ref().expect("flight recorder on");
        assert_eq!(flight.dropped, 0, "the ring kept every event");
        let mut from_records: Vec<u64> = report
            .serve
            .records
            .iter()
            .filter(|r| r.outcome == JobOutcome::Completed)
            .map(|r| r.latency().0)
            .collect();
        let mut from_flight: Vec<u64> = flight
            .rows
            .iter()
            .filter(|r| r.outcome == "completed")
            .map(|r| r.latency)
            .collect();
        from_records.sort_unstable();
        from_flight.sort_unstable();
        assert!(!from_records.is_empty());
        assert_eq!(from_records, from_flight, "closed loop: {closed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The streaming histogram's nearest-rank quantile stays within one
    /// bucket width of the sorted-array quantile over the same samples.
    #[test]
    fn histogram_quantiles_match_exact_within_one_bucket(
        samples in proptest::collection::vec(0u64..3_000_000, 1..500),
        q in 0.01f64..1.0,
    ) {
        let mut h = StreamingHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let exact = exact_quantile(&sorted, q);
        let approx = h.quantile(q);
        prop_assert!(approx >= exact, "sketch went below exact: {approx} < {exact}");
        prop_assert!(
            approx - exact < bucket_width(exact).max(1),
            "q={q}: sketch {approx} vs exact {exact} (width {})",
            bucket_width(exact)
        );
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.max(), *sorted.last().unwrap());
    }
}
