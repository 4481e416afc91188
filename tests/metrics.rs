//! Integration tests for the metrics layer (`hpdr-metrics`) wired
//! through the serving stack: histogram merge accuracy, scrape
//! determinism end-to-end through loadgen, the overlap gauge of every
//! serve device, injected SLO burn-rate breaches, record hygiene at
//! admission, and the serve report's edge cases.

use hpdr_core::{ArrayMeta, CpuParallelAdapter, DType, DeviceAdapter, Shape};
use hpdr_metrics::{
    bucket_width, exact_quantile, validate_metrics_json, MetricsConfig, SloConfig,
    StreamingHistogram,
};
use hpdr_pipeline::{run_batch, BatchItem};
use hpdr_serve::{
    run_loadgen, serve, validate_loadgen_json, validate_serve_json, AdmissionConfig, JobPayload,
    JobRequest, LoadgenOptions, PayloadCache, Policy, Scheduler, ServeCodec, ServeConfig,
    ServeError, ServeReport, TenantId, VecSource,
};
use hpdr_sim::{DeviceId, Ns};
use proptest::prelude::*;
use std::sync::Arc;

fn work() -> Arc<dyn DeviceAdapter> {
    Arc::new(CpuParallelAdapter::with_defaults())
}

fn compress_job(cache: &mut PayloadCache, tenant: u32, arrival_us: u64, side: usize) -> JobRequest {
    let (input, meta) = cache.input(side);
    JobRequest::new(
        TenantId(tenant),
        Ns::from_micros(arrival_us),
        ServeCodec::Zfp { rate: 16 },
        JobPayload::Compress { input, meta },
    )
}

// ---------------------------------------------------------------- merge

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging two sketches is lossless (bucket-wise sum), so the
    /// merged quantile stays within the same one-bucket (~3.1%) error
    /// bound as a single sketch fed every sample.
    #[test]
    fn merged_histogram_quantiles_stay_within_sketch_bound(
        a in proptest::collection::vec(0u64..3_000_000, 1..300),
        b in proptest::collection::vec(0u64..3_000_000, 0..300),
        q in 0.01f64..1.0,
    ) {
        let mut ha = StreamingHistogram::new();
        for &s in &a {
            ha.record(s);
        }
        let mut hb = StreamingHistogram::new();
        for &s in &b {
            hb.record(s);
        }
        ha.merge(&hb);

        let mut all: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        all.sort_unstable();
        let exact = exact_quantile(&all, q);
        let approx = ha.quantile(q);
        prop_assert!(approx >= exact, "merged sketch went below exact: {approx} < {exact}");
        prop_assert!(
            approx - exact < bucket_width(exact).max(1),
            "q={q}: merged sketch {approx} vs exact {exact} (width {})",
            bucket_width(exact)
        );

        // Lossless: merged sketch is indistinguishable from one sketch
        // that recorded everything.
        let mut one = StreamingHistogram::new();
        for &s in &all {
            one.record(s);
        }
        prop_assert_eq!(ha.quantile(q), one.quantile(q));
        prop_assert_eq!(ha.count(), all.len() as u64);
        prop_assert_eq!(ha.max(), one.max());
        prop_assert_eq!(ha.sum(), one.sum());
    }
}

// ---------------------------------------------------------- determinism

/// The ISSUE acceptance run: two metered loadgen runs with the same
/// seed produce byte-identical scrape series, exposition text, and
/// embedded report JSON.
#[test]
fn metered_loadgen_scrapes_are_byte_identical_across_runs() {
    let opts = LoadgenOptions {
        seed: 7,
        metrics: true,
        ..LoadgenOptions::quick()
    };
    let a = run_loadgen(opts).expect("metered loadgen runs");
    let b = run_loadgen(opts).expect("metered loadgen runs again");
    let ra = a.serve.metrics.as_ref().expect("registry installed");
    let rb = b.serve.metrics.as_ref().expect("registry installed");
    assert!(
        ra.scrape_count() > 1,
        "virtual clock crossed scrape boundaries"
    );
    assert_eq!(
        ra.to_json(),
        rb.to_json(),
        "metrics JSON must be reproducible"
    );
    assert_eq!(
        ra.exposition(),
        rb.exposition(),
        "exposition must be reproducible"
    );
    validate_metrics_json(&ra.to_json()).expect("schema-valid metrics document");
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "whole metered report is reproducible"
    );
    validate_loadgen_json(&a.to_json()).expect("schema-valid loadgen report");

    // Key serving instruments actually got wired (counters carry a
    // tenant or device label, gauges like queue depth are bare).
    let names: Vec<&str> = ra.series_names().collect();
    for family in [
        "serve_submitted_total{",
        "serve_admitted_total{",
        "serve_device_busy_fraction{",
        "serve_queue_jobs",
    ] {
        assert!(
            names.iter().any(|n| n.starts_with(family)),
            "missing series for {family}: {names:?}"
        );
    }
}

/// Installing the registry must not change what the scheduler does —
/// only observe it. Job accounting is identical with metrics on or off.
#[test]
fn metrics_are_observational_only() {
    let base = LoadgenOptions {
        seed: 13,
        ..LoadgenOptions::quick()
    };
    let off = run_loadgen(base).expect("plain run");
    let on = run_loadgen(LoadgenOptions {
        metrics: true,
        ..base
    })
    .expect("metered run");
    assert_eq!(off.serve.admitted, on.serve.admitted);
    assert_eq!(off.serve.completed, on.serve.completed);
    assert_eq!(off.serve.rejected, on.serve.rejected);
    assert_eq!(off.serve.latency.p99, on.serve.latency.p99);
    assert!(off.serve.metrics.is_none());
    assert!(on.serve.metrics.is_some());
}

/// Every serve device's batches run on a one-device simulator of their
/// own, so device 1's batch traces hold that simulator's device, like
/// device 0's. Its overlap gauge must read that device's overlap, under
/// its own label.
#[test]
fn every_serve_device_reports_its_batch_overlap() {
    let mut cache = PayloadCache::new();
    // One job per batch: device 0 takes the 32³ job, device 1 the 24³ one.
    let sides = [32, 24];
    let jobs = sides
        .iter()
        .enumerate()
        .map(|(tenant, &side)| compress_job(&mut cache, tenant as u32, 0, side))
        .collect();
    let cfg = ServeConfig {
        devices: 2,
        max_batch_jobs: 1,
        metrics: Some(MetricsConfig::default()),
        ..ServeConfig::default()
    };
    let outcome = serve(cfg.clone(), work(), &mut VecSource::new(jobs));
    let devices: Vec<Option<usize>> = outcome.records.iter().map(|r| r.device).collect();
    assert_eq!(devices, vec![Some(0), Some(1)]);
    let reg = outcome.metrics.as_ref().expect("registry installed");
    let mut overlaps = Vec::new();
    for (dev, side) in sides.into_iter().enumerate() {
        let (input, meta) = cache.input(side);
        let item = BatchItem::compress(ServeCodec::Zfp { rate: 16 }.reducer(), input, meta);
        let (_, batch) = run_batch(&cfg.spec, work(), vec![item], &cfg.pipeline);
        let want = hpdr::trace::digest(&batch.trace, DeviceId(0)).overlap;
        assert!(want.is_some(), "the batch moved bytes over DMA");
        let gauge = reg.gauge_value(&format!("pipeline_overlap_fraction{{device=\"{dev}\"}}"));
        assert_eq!(gauge, want, "device {dev}");
        overlaps.push(want);
    }
    assert_ne!(overlaps[0], overlaps[1], "the two batches differ");
}

// ------------------------------------------------------------ SLO burn

/// An unattainable 1 ns latency target makes every job "bad", driving
/// the burn rate to 1/(1−goal) — far past the alert threshold. The
/// breach must fire alerts and show up in attainment.
#[test]
fn injected_slo_breach_fires_alerts_into_the_trace() {
    let mut cache = PayloadCache::new();
    let jobs: Vec<JobRequest> = (0..8)
        .map(|i| compress_job(&mut cache, (i % 2) as u32, i * 100, 16))
        .collect();
    let cfg = ServeConfig {
        metrics: Some(MetricsConfig {
            slo: Some(SloConfig {
                latency_target: Ns(1),
                ..SloConfig::default()
            }),
            ..MetricsConfig::default()
        }),
        ..ServeConfig::default()
    };
    let mut source = VecSource::new(jobs);
    let outcome = serve(cfg, work(), &mut source);
    let reg = outcome.metrics.as_ref().expect("registry installed");
    let slo = reg.slo().expect("tracker configured");

    assert!(!slo.alerts().is_empty(), "1 ns target must breach");
    let attainment = slo.attainment();
    assert_eq!(attainment.len(), 2, "both tenants tracked");
    for row in &attainment {
        assert_eq!(row.good, 0, "no job can meet a 1 ns target");
        assert!(row.total > 0);
        assert_eq!(row.attainment, 0.0);
    }
    validate_metrics_json(&reg.to_json()).expect("valid metrics document");

    // The report embeds the registry and still balances.
    let report = ServeReport::build(Policy::Batched, outcome);
    assert!(report.metrics.is_some());
    validate_serve_json(&report.to_json()).expect("valid serve report");
}

// ------------------------------------------------------- record hygiene

/// Regression: invalid submissions, backpressure rejections and
/// queued cancellations must all be accounted for — every admitted job
/// leaves exactly one terminal record, every rejection is counted.
#[test]
fn every_begin_span_gets_a_matching_end() {
    let mut cache = PayloadCache::new();
    let cfg = ServeConfig {
        admission: AdmissionConfig {
            max_queued_jobs: 2,
            max_queued_bytes: 1 << 30,
        },
        ..ServeConfig::default()
    };
    let mut sched = Scheduler::new(cfg, work());
    sched
        .try_submit(compress_job(&mut cache, 0, 0, 8))
        .expect("first job admitted");
    let mut cancelled = compress_job(&mut cache, 1, 0, 8);
    cancelled.cancel_at = Some(Ns::ZERO); // client gives up while queued
    sched.try_submit(cancelled).expect("second job admitted");
    // Queue is full: typed backpressure rejection.
    assert!(sched.try_submit(compress_job(&mut cache, 2, 0, 8)).is_err());
    // Malformed: empty payload is rejected at admission.
    let invalid = JobRequest::new(
        TenantId(3),
        Ns::ZERO,
        ServeCodec::Lz4,
        JobPayload::Compress {
            input: Arc::new(Vec::new()),
            meta: ArrayMeta::new(DType::F32, Shape::new(&[16])),
        },
    );
    assert!(matches!(
        sched.try_submit(invalid),
        Err(ServeError::InvalidJob(_))
    ));

    let mut empty = VecSource::new(Vec::new());
    let outcome = sched.run(&mut empty);
    let report = ServeReport::build(Policy::Batched, outcome);
    assert_eq!(
        report.records.len() as u64,
        report.admitted,
        "one record per admitted job"
    );
    assert_eq!(report.submitted, 4);
    assert_eq!(report.rejected, 2);
    assert_eq!(report.rejected_invalid, 1);
    assert_eq!(report.completed + report.cancelled, 2);
    validate_serve_json(&report.to_json()).expect("balanced report");
}

// ---------------------------------------------------------- report edges

#[test]
fn report_handles_empty_run() {
    let mut source = VecSource::new(Vec::new());
    let outcome = serve(ServeConfig::default(), work(), &mut source);
    let report = ServeReport::build(Policy::Batched, outcome);
    assert!(report.records.is_empty());
    assert_eq!(
        (report.submitted, report.rejected, report.completed),
        (0, 0, 0)
    );
    assert_eq!(report.latency.max, 0);
    assert_eq!(report.queue_wait.max, 0);
    validate_serve_json(&report.to_json()).expect("balanced report");
}

#[test]
fn report_handles_all_cancelled_script() {
    let mut cache = PayloadCache::new();
    let jobs: Vec<JobRequest> = (0..3)
        .map(|t| {
            let mut j = compress_job(&mut cache, t, 0, 8);
            j.cancel_at = Some(Ns::ZERO);
            j
        })
        .collect();
    let mut source = VecSource::new(jobs);
    let outcome = serve(ServeConfig::default(), work(), &mut source);
    let report = ServeReport::build(Policy::Batched, outcome);
    assert_eq!(
        report.records.len(),
        3,
        "cancelled jobs still leave records"
    );
    assert_eq!(report.cancelled, 3);
    assert_eq!(report.completed, 0);
    assert_eq!(
        report.latency.max, 0,
        "no completed jobs in an all-cancelled run"
    );
    assert_eq!(report.rejected, 0);
}

#[test]
fn report_handles_single_job_script() {
    let mut cache = PayloadCache::new();
    let mut source = VecSource::new(vec![compress_job(&mut cache, 0, 0, 8)]);
    let outcome = serve(ServeConfig::default(), work(), &mut source);
    let report = ServeReport::build(Policy::Batched, outcome);
    assert_eq!(report.records.len(), 1);
    assert_eq!(report.completed, 1);
    assert_eq!(report.rejected, 0);
    let latency = report.records[0].latency().0;
    assert!(latency > 0, "latency is virtual-time derived");
    // One sample: every quantile of the sketch is that sample's bucket.
    assert_eq!(report.latency.max, latency);
    assert_eq!(report.latency.mean, latency);
    assert_eq!(report.queue_wait.max, report.records[0].queue_wait().0);
}
