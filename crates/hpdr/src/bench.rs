//! `hpdr bench` — wall-clock throughput measurement.
//!
//! Measured (not modeled):
//!
//! * **Codec throughput**: compress/decompress GB/s per codec × adapter
//!   × input size, best of N timed runs after warmup (wall-clock noise
//!   is additive, so the minimum converges on the true cost);
//! * **Paired overheads**: serve metering and the flight recorder, each
//!   timed off and on in one process.
//!
//! Results serialize to a `BENCH_<label>.json` document with schema id
//! [`BENCH_SCHEMA`]; [`validate_bench_json`] structurally checks a
//! document before it is written, so CI can gate on well-formed output.

use crate::Codec;
use hpdr_baselines::SzConfig;
use hpdr_core::{
    ArrayMeta, CpuParallelAdapter, DType, DeviceAdapter, HpdrError, Result, SerialAdapter,
    WorkerPool,
};
use hpdr_mgard::MgardConfig;
use hpdr_sim::json::{esc, need, need_arr, need_f64, need_str, need_u64, parse_json, JsonValue};
use hpdr_zfp::ZfpConfig;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Schema identifier embedded in every bench document.
pub const BENCH_SCHEMA: &str = "hpdr-bench/v2";

/// Previous schema id, still accepted by [`validate_bench_json`] and
/// `--compare` so old baselines keep working.
pub const BENCH_SCHEMA_V1: &str = "hpdr-bench/v1";

/// Bench configuration (from CLI flags).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchOptions {
    /// Small inputs and few repetitions (CI smoke).
    pub quick: bool,
    /// Add the paper-scale 512³ point to the size axis (slow; minutes).
    pub paper_scale: bool,
    /// Document label: the output file is `BENCH_<label>.json`.
    pub label: String,
    /// Explicit output path (overrides the label-derived name).
    pub out: Option<String>,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            quick: false,
            paper_scale: false,
            label: "local".to_string(),
            out: None,
        }
    }
}

/// One timed direction (compress or decompress).
#[derive(Debug, Clone, Copy)]
pub struct Throughput {
    /// Best (minimum) wall-clock time over the measured repetitions.
    /// Wall-clock noise is strictly additive — scheduler preemption,
    /// pool wakeup latency, cache pollution all only ever slow a rep
    /// down — so the minimum is the estimator that converges on the
    /// codec's true cost; medians of µs-scale reps still carry several
    /// percent of jitter (same argument as [`ServeOverhead::off`]).
    pub best: Duration,
    /// Uncompressed gigabytes per second at the best rep.
    pub gbps: f64,
}

/// One codec × adapter × size × thread-count measurement.
#[derive(Debug, Clone)]
pub struct CodecResult {
    pub codec: String,
    pub adapter: String,
    /// Cube side of the synthetic input (`side³` f32 elements).
    pub side: usize,
    /// Thread count the adapter was configured with (1 for serial).
    pub threads: usize,
    pub elements: usize,
    pub bytes: usize,
    pub compress: Throughput,
    pub decompress: Throughput,
    pub ratio: f64,
}

/// Metrics-registry overhead on the serving path, measured *paired*:
/// the same deterministic job stream served with no registry installed
/// and with a full registry + SLO tracker, interleaved in one process
/// so machine noise cancels. The no-registry side is byte-for-byte the
/// pre-metrics serve path (every instrument site is an `if let`), so
/// `overhead` bounds what the metrics layer adds even when ON; when no
/// registry is installed the cost is the skipped `Option` checks alone.
#[derive(Debug, Clone)]
pub struct ServeOverhead {
    /// Jobs in the measured stream.
    pub jobs: usize,
    /// Timed off/on pairs.
    pub reps: usize,
    /// Best (minimum) wall-clock with `ServeConfig::metrics = None`.
    /// Wall-clock noise is strictly additive, so the minimum over reps
    /// is the best single-side estimate (medians still carry several
    /// percent of scheduler jitter at these run lengths).
    pub off: Duration,
    /// Best (minimum) wall-clock with the registry + SLO tracker
    /// installed.
    pub on: Duration,
    /// Trimmed mean of the per-pair `on/off − 1` ratios (middle half of
    /// the pairs, sorted). Noise *within* a back-to-back pair is highly
    /// correlated and cancels in the ratio; trimming discards the pairs
    /// a load burst split down the middle. Empirically this estimator's
    /// run-to-run scatter is several times tighter than `min(on)/
    /// min(off)`, which matters because the compare gate has to resolve
    /// a sub-2% effect. May be slightly negative under noise.
    pub overhead: f64,
}

/// A complete bench run.
#[derive(Debug, Clone)]
pub struct BenchReport {
    pub label: String,
    pub quick: bool,
    pub threads: usize,
    /// SIMD tier the kernel dispatch selected for this run
    /// ("scalar", "sse2", or "avx2").
    pub simd: String,
    pub serve: ServeOverhead,
    /// Flight-recorder overhead, measured with the same paired
    /// methodology as `serve` (recorder off vs on, metrics off on both
    /// sides so the two budgets don't confound each other).
    pub flight: ServeOverhead,
    pub results: Vec<CodecResult>,
}

/// Minimum wall-clock over `reps` timed runs (see [`Throughput::best`]
/// for why minimum, not median, is the right point estimate here).
fn time_best<F: FnMut()>(reps: usize, warmup: usize, mut f: F) -> Duration {
    for _ in 0..warmup {
        f();
    }
    (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .min()
        .expect("reps >= 1")
}

fn gbps(bytes: usize, t: Duration) -> f64 {
    bytes as f64 / t.as_secs_f64().max(1e-12) / 1e9
}

fn bench_codecs() -> Vec<Codec> {
    vec![
        Codec::Mgard(MgardConfig::relative(1e-3)),
        Codec::Zfp(ZfpConfig::fixed_rate(16)),
        Codec::Huffman,
        Codec::Sz(SzConfig::relative(1e-3)),
        Codec::Lz4,
    ]
}

/// The adapter × thread axis: the serial adapter plus the CPU-parallel
/// adapter at 1, 2, and 4 threads (oversubscription data on small
/// hosts, scaling data on large ones).
fn bench_adapters() -> Vec<(&'static str, usize, Box<dyn DeviceAdapter>)> {
    vec![
        ("serial", 1, Box::new(SerialAdapter::new())),
        ("openmp", 1, Box::new(CpuParallelAdapter::new(1))),
        ("openmp", 2, Box::new(CpuParallelAdapter::new(2))),
        ("openmp", 4, Box::new(CpuParallelAdapter::new(4))),
    ]
}

/// The deterministic job stream both paired serving benches run.
fn overhead_bench_jobs(njobs: usize) -> Vec<hpdr_serve::JobRequest> {
    let mut cache = hpdr_serve::PayloadCache::new();
    (0..njobs)
        .map(|i| {
            let (input, meta) = cache.input(16);
            hpdr_serve::JobRequest::new(
                hpdr_serve::TenantId((i % 4) as u32),
                hpdr_sim::Ns::from_micros(i as u64 * 50),
                hpdr_serve::ServeCodec::Zfp { rate: 16 },
                hpdr_serve::JobPayload::Compress { input, meta },
            )
        })
        .collect()
}

/// Paired on/off measurement engine shared by the metering and flight
/// overhead benches: interleave the two sides rep by rep so cache state
/// and machine noise hit both equally, alternating which side runs
/// first within each pair so slow drift in machine load cancels instead
/// of biasing one side.
fn paired_overhead(njobs: usize, reps: usize, warmup: usize, run: impl Fn(bool)) -> ServeOverhead {
    for _ in 0..warmup {
        run(false);
        run(true);
    }
    let mut off_samples = Vec::with_capacity(reps);
    let mut on_samples = Vec::with_capacity(reps);
    let mut ratios = Vec::with_capacity(reps);
    for i in 0..reps {
        let first_on = i % 2 == 1;
        let t0 = Instant::now();
        run(first_on);
        let d0 = t0.elapsed();
        let t1 = Instant::now();
        run(!first_on);
        let d1 = t1.elapsed();
        let (off_d, on_d) = if first_on { (d1, d0) } else { (d0, d1) };
        ratios.push(on_d.as_secs_f64() / off_d.as_secs_f64().max(1e-12) - 1.0);
        off_samples.push(off_d);
        on_samples.push(on_d);
    }
    let off = off_samples.into_iter().min().expect("reps >= 1");
    let on = on_samples.into_iter().min().expect("reps >= 1");
    // Trimmed mean of per-pair ratios: see the `ServeOverhead::overhead`
    // docs for why this beats a ratio of minimums here.
    ratios.sort_by(f64::total_cmp);
    let keep = &ratios[reps / 4..reps - reps / 4];
    let overhead = keep.iter().sum::<f64>() / keep.len() as f64;
    ServeOverhead {
        jobs: njobs,
        reps,
        off,
        on,
        overhead,
    }
}

/// Paired metering-overhead microbench: serve one deterministic job
/// stream with and without the metrics registry.
fn serve_overhead_bench(quick: bool) -> ServeOverhead {
    use std::sync::Arc;

    let njobs = if quick { 48 } else { 96 };
    let jobs = overhead_bench_jobs(njobs);
    let run = |metered: bool| {
        let cfg = hpdr_serve::ServeConfig {
            devices: 2,
            metrics: metered.then(|| hpdr_serve::MetricsConfig {
                slo: Some(hpdr_serve::SloConfig::default()),
                ..hpdr_serve::MetricsConfig::default()
            }),
            ..hpdr_serve::ServeConfig::default()
        };
        // Serial adapter on purpose: the metering cost lives in the
        // scheduler, not the codec, and the worker pool's wakeup jitter
        // is an order of magnitude larger than the 2% budget this bench
        // has to resolve.
        let work: Arc<dyn DeviceAdapter> = Arc::new(hpdr_core::SerialAdapter::new());
        let mut source = hpdr_serve::VecSource::new(jobs.clone());
        let outcome = hpdr_serve::serve(cfg, work, &mut source);
        assert_eq!(outcome.records.len(), njobs, "bench stream must drain");
        std::hint::black_box(outcome.makespan);
    };
    let (reps, warmup) = if quick { (150, 3) } else { (200, 3) };
    paired_overhead(njobs, reps, warmup, run)
}

/// Paired flight-recorder overhead microbench: the same stream served
/// with the causal trace recorder off and on. Metrics stay off on both
/// sides so the flight number isolates the recorder's own cost — the
/// per-event ring-buffer pushes plus the end-of-run analysis.
fn flight_overhead_bench(quick: bool) -> ServeOverhead {
    use std::sync::Arc;

    let njobs = if quick { 48 } else { 96 };
    let jobs = overhead_bench_jobs(njobs);
    let run = |traced: bool| {
        let cfg = hpdr_serve::ServeConfig {
            devices: 2,
            flight: traced.then(hpdr_serve::FlightConfig::default),
            ..hpdr_serve::ServeConfig::default()
        };
        let work: Arc<dyn DeviceAdapter> = Arc::new(hpdr_core::SerialAdapter::new());
        let mut source = hpdr_serve::VecSource::new(jobs.clone());
        let mut outcome = hpdr_serve::serve(cfg, work, &mut source);
        assert_eq!(outcome.records.len(), njobs, "bench stream must drain");
        // The traced side pays for the analysis too: that is part of
        // what `--flight-out` costs a serving run.
        if let Some(log) = outcome.flight.take() {
            let report = hpdr_flight::analyze(&log, &hpdr_flight::FlightConfig::default(), None);
            std::hint::black_box(report.total_jobs);
        }
        std::hint::black_box(outcome.makespan);
    };
    let (reps, warmup) = if quick { (150, 3) } else { (200, 3) };
    paired_overhead(njobs, reps, warmup, run)
}

/// Run the full benchmark matrix: size axis 16³ (4 KiB-class) → 32³ →
/// 128³, with the paper-scale 512³ point opt-in behind `--paper-scale`;
/// thread axis 1/2/4 via the CPU-parallel adapter plus the serial
/// baseline. Quick mode keeps two sizes so size-dependent effects stay
/// visible even in CI smoke runs.
pub fn run_bench(opts: &BenchOptions) -> Result<BenchReport> {
    let mut sides: Vec<usize> = if opts.quick {
        vec![16, 32]
    } else {
        vec![16, 32, 128]
    };
    if opts.paper_scale {
        sides.push(512);
    }
    let mut results = Vec::new();
    for &side in &sides {
        // Repetition budget shrinks with input volume: the large points
        // are seconds-per-run, and run-to-run spread scales down as the
        // timed region grows. The µs-scale small sides need a deep
        // median to survive scheduler jitter — a 16³ row at 25 reps is
        // still tens of milliseconds total.
        let (reps, warmup) = match (opts.quick, side) {
            (_, s) if s >= 512 => (1, 0),
            (_, s) if s >= 128 => (5, 1),
            (true, _) => (3, 1),
            (false, s) if s <= 16 => (25, 3),
            (false, _) => (15, 2),
        };
        let data = hpdr_data::nyx_density(side, 7);
        let meta = ArrayMeta::new(DType::F32, data.shape.clone());
        let bytes = data.bytes.len();
        for codec in bench_codecs() {
            for (aname, threads, adapter) in bench_adapters() {
                // One untimed run to produce the stream for decompression
                // and to verify the round trip before timing it.
                let (stream, stats) = crate::compress(adapter.as_ref(), &data.bytes, &meta, codec)?;
                let (back, _) = crate::decompress(adapter.as_ref(), &stream)?;
                if back.len() != bytes {
                    return Err(HpdrError::invalid(format!(
                        "{} on {aname}: round trip returned {} bytes, expected {bytes}",
                        codec.name(),
                        back.len()
                    )));
                }
                let c_best = time_best(reps, warmup, || {
                    crate::compress(adapter.as_ref(), &data.bytes, &meta, codec).expect("compress");
                });
                let d_best = time_best(reps, warmup, || {
                    crate::decompress(adapter.as_ref(), &stream).expect("decompress");
                });
                results.push(CodecResult {
                    codec: codec.name().to_string(),
                    adapter: aname.to_string(),
                    side,
                    threads,
                    elements: bytes / 4,
                    bytes,
                    compress: Throughput {
                        best: c_best,
                        gbps: gbps(bytes, c_best),
                    },
                    decompress: Throughput {
                        best: d_best,
                        gbps: gbps(bytes, d_best),
                    },
                    ratio: stats.ratio,
                });
            }
        }
    }
    Ok(BenchReport {
        label: opts.label.clone(),
        quick: opts.quick,
        threads: WorkerPool::global().workers() + 1,
        simd: hpdr_kernels::kernels().tier.name().to_string(),
        serve: serve_overhead_bench(opts.quick),
        flight: flight_overhead_bench(opts.quick),
        results,
    })
}

impl BenchReport {
    /// Hand-rolled JSON document (schema [`BENCH_SCHEMA`]), wrapped in
    /// the shared `hpdr-verify` envelope header. A report only
    /// serializes after every measurement succeeded, so `ok` is true.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(s, "\"label\":\"{}\"", esc(&self.label));
        let _ = write!(s, ",\"quick\":{}", self.quick);
        let _ = write!(s, ",\"threads\":{}", self.threads);
        let _ = write!(s, ",\"simd\":\"{}\"", self.simd);
        let _ = write!(
            s,
            ",\"serve_overhead\":{{\"jobs\":{},\"reps\":{},\"off_ns\":{},\"on_ns\":{},\
             \"overhead\":{:.4}}}",
            self.serve.jobs,
            self.serve.reps,
            self.serve.off.as_nanos(),
            self.serve.on.as_nanos(),
            self.serve.overhead
        );
        let _ = write!(
            s,
            ",\"flight_overhead\":{{\"jobs\":{},\"reps\":{},\"off_ns\":{},\"on_ns\":{},\
             \"overhead\":{:.4}}}",
            self.flight.jobs,
            self.flight.reps,
            self.flight.off.as_nanos(),
            self.flight.on.as_nanos(),
            self.flight.overhead
        );
        s.push_str(",\"results\":[");
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"codec\":\"{}\",\"adapter\":\"{}\",\"side\":{},\"threads\":{},\
                 \"elements\":{},\"bytes\":{},\
                 \"ratio\":{:.4},\
                 \"compress\":{{\"best_ns\":{},\"gbps\":{:.6}}},\
                 \"decompress\":{{\"best_ns\":{},\"gbps\":{:.6}}}}}",
                r.codec,
                r.adapter,
                r.side,
                r.threads,
                r.elements,
                r.bytes,
                r.ratio,
                r.compress.best.as_nanos(),
                r.compress.gbps,
                r.decompress.best.as_nanos(),
                r.decompress.gbps
            );
        }
        s.push(']');
        hpdr_verify::envelope::wrap(BENCH_SCHEMA, true, &s)
    }

    /// Human-readable table.
    pub fn render(&self) -> Vec<String> {
        let mut out = vec![format!(
            "bench '{}' ({} threads, simd {}, {})",
            self.label,
            self.threads,
            self.simd,
            if self.quick { "quick" } else { "full" }
        )];
        out.push(format!(
            "serve metering overhead over {} jobs x {} reps (paired): \
             {:+.2}% (off {:?}, on {:?})",
            self.serve.jobs,
            self.serve.reps,
            self.serve.overhead * 100.0,
            self.serve.off,
            self.serve.on
        ));
        out.push(format!(
            "flight recorder overhead over {} jobs x {} reps (paired): \
             {:+.2}% (off {:?}, on {:?})",
            self.flight.jobs,
            self.flight.reps,
            self.flight.overhead * 100.0,
            self.flight.off,
            self.flight.on
        ));
        out.push(format!(
            "{:10} {:8} {:>4} {:>3} {:>10} {:>14} {:>14} {:>8}",
            "codec", "adapter", "side", "thr", "bytes", "comp GB/s", "decomp GB/s", "ratio"
        ));
        for r in &self.results {
            out.push(format!(
                "{:10} {:8} {:>4} {:>3} {:>10} {:>14.4} {:>14.4} {:>8.2}",
                r.codec,
                r.adapter,
                r.side,
                r.threads,
                r.bytes,
                r.compress.gbps,
                r.decompress.gbps,
                r.ratio
            ));
        }
        out
    }
}

/// Structural validation of a bench JSON document: schema id (v2, or v1
/// for old baselines), the sections CI relies on, a non-empty results
/// array, and a positive finite throughput in every row. Documents
/// recorded before the envelope carry no `ok`, and older ones no
/// `flight_overhead` section; both stay valid.
pub fn validate_bench_json(json: &str) -> std::result::Result<(), String> {
    bench_rows(&parse_json(json)?).map(drop)
}

/// One `(codec, adapter)` row extracted from a bench JSON document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    pub codec: String,
    pub adapter: String,
    /// Thread-count axis (`None` for v1 documents, which predate it).
    pub threads: Option<u64>,
    pub bytes: u64,
    pub compress_gbps: f64,
    pub decompress_gbps: f64,
}

/// The walk behind [`validate_bench_json`]: check a parsed bench
/// document and return its result rows.
fn bench_rows(doc: &JsonValue) -> std::result::Result<Vec<BenchEntry>, String> {
    let ctx = "bench document";
    let schema = need_str(doc, "schema", ctx)?;
    if schema != BENCH_SCHEMA && schema != BENCH_SCHEMA_V1 {
        return Err(format!(
            "wrong schema id '{schema}' (expected {BENCH_SCHEMA} or {BENCH_SCHEMA_V1})"
        ));
    }
    need_str(doc, "label", ctx)?;
    need_u64(doc, "threads", ctx)?;
    need(doc, "serve_overhead", ctx)?;
    let results = need_arr(doc, "results", ctx)?;
    if results.is_empty() {
        return Err("results array is empty".into());
    }
    let mut entries = Vec::with_capacity(results.len());
    for (i, r) in results.iter().enumerate() {
        let ctx = format!("results[{i}]");
        let gbps = |dir: &str| {
            let v = need_f64(need(r, dir, &ctx)?, "gbps", &format!("{ctx}.{dir}"))?;
            if v.is_finite() && v > 0.0 {
                Ok(v)
            } else {
                Err(format!("{ctx}.{dir}: non-positive gbps value {v}"))
            }
        };
        entries.push(BenchEntry {
            codec: need_str(r, "codec", &ctx)?.to_string(),
            adapter: need_str(r, "adapter", &ctx)?.to_string(),
            threads: r.get("threads").and_then(JsonValue::as_u64),
            bytes: need_u64(r, "bytes", &ctx)?,
            compress_gbps: gbps("compress")?,
            decompress_gbps: gbps("decompress")?,
        });
    }
    Ok(entries)
}

/// Extract the per-result rows from a bench JSON document.
pub fn parse_bench_entries(json: &str) -> std::result::Result<Vec<BenchEntry>, String> {
    bench_rows(&parse_json(json)?)
}

/// Ceiling on the paired serve-metering overhead accepted by
/// `bench --compare` (the zero-overhead-when-off contract).
pub const METERING_OVERHEAD_CEILING: f64 = 0.02;

/// `overhead` of a paired-overhead section (`serve_overhead`,
/// `flight_overhead`); `None` when the document predates the section.
fn section_overhead(doc: &JsonValue, section: &str) -> Option<f64> {
    doc.get(section)?.get("overhead")?.as_f64()
}

/// `hpdr bench --compare A.json B.json`: diff two bench documents and
/// flag regressions beyond `threshold` (fractional, e.g. 0.10 = 10%).
///
/// Rows are matched on `(codec, adapter, bytes)`; each direction's
/// throughput in B is compared against A (the baseline). Returns `Err`
/// — a non-zero exit — if any matched direction regressed by more than
/// the threshold, listing every offender.
///
/// Additionally gates the candidate's *paired* serve-metering overhead
/// at [`METERING_OVERHEAD_CEILING`] (2%). Cross-run wall-clock numbers
/// carry machine noise (hence the caller-chosen row threshold), but the
/// paired measurement interleaves metered and unmetered serves in one
/// process, so 2% is a real bound, not a noise floor.
pub fn compare_command(a_path: &str, b_path: &str, threshold: f64) -> Result<Vec<String>> {
    let load = |p: &str| -> Result<(Vec<BenchEntry>, JsonValue)> {
        let text = std::fs::read_to_string(p)?;
        let doc = parse_json(&text).map_err(|e| HpdrError::invalid(format!("{p}: {e}")))?;
        let entries = bench_rows(&doc).map_err(|e| HpdrError::invalid(format!("{p}: {e}")))?;
        Ok((entries, doc))
    };
    let (a, _a_doc) = load(a_path)?;
    let (b, b_doc) = load(b_path)?;
    let mut lines = vec![format!(
        "bench compare: {a_path} (baseline) vs {b_path}, threshold {:.1}%",
        threshold * 100.0
    )];
    lines.push(format!(
        "{:10} {:8} {:>3} {:>10} {:>10} {:>10} {:>7} {:>10} {:>10} {:>7}",
        "codec",
        "adapter",
        "thr",
        "bytes",
        "comp A",
        "comp B",
        "c B/A",
        "decomp A",
        "decomp B",
        "d B/A"
    ));
    let mut regressions = Vec::new();
    let mut matched = 0usize;
    for ea in &a {
        // Rows match on (codec, adapter, bytes), plus the thread axis
        // when both documents carry it (v1 baselines omit threads and
        // match any thread count at the same size).
        let Some(eb) = b.iter().find(|e| {
            e.codec == ea.codec
                && e.adapter == ea.adapter
                && e.bytes == ea.bytes
                && match (ea.threads, e.threads) {
                    (Some(ta), Some(tb)) => ta == tb,
                    _ => true,
                }
        }) else {
            lines.push(format!(
                "{:10} {:8} {:>3} {:>10} — only in baseline",
                ea.codec,
                ea.adapter,
                ea.threads.map_or("-".to_string(), |t| t.to_string()),
                ea.bytes
            ));
            continue;
        };
        matched += 1;
        lines.push(format!(
            "{:10} {:8} {:>3} {:>10} {:>10.4} {:>10.4} {:>6.2}x {:>10.4} {:>10.4} {:>6.2}x",
            ea.codec,
            ea.adapter,
            eb.threads
                .or(ea.threads)
                .map_or("-".to_string(), |t| t.to_string()),
            ea.bytes,
            ea.compress_gbps,
            eb.compress_gbps,
            eb.compress_gbps / ea.compress_gbps.max(1e-12),
            ea.decompress_gbps,
            eb.decompress_gbps,
            eb.decompress_gbps / ea.decompress_gbps.max(1e-12)
        ));
        for (dir, base, new) in [
            ("compress", ea.compress_gbps, eb.compress_gbps),
            ("decompress", ea.decompress_gbps, eb.decompress_gbps),
        ] {
            if new < base * (1.0 - threshold) {
                regressions.push(format!(
                    "{} {} {} {}: {:.4} -> {:.4} GB/s ({:+.1}%)",
                    ea.codec,
                    ea.adapter,
                    ea.bytes,
                    dir,
                    base,
                    new,
                    (new / base - 1.0) * 100.0
                ));
            }
        }
    }
    if matched == 0 {
        return Err(HpdrError::invalid(
            "no comparable rows between the two documents".to_string(),
        ));
    }
    match section_overhead(&b_doc, "serve_overhead") {
        Some(ov) if ov > METERING_OVERHEAD_CEILING => regressions.push(format!(
            "serve metering overhead {:.2}% exceeds the {:.0}% zero-overhead-when-off budget",
            ov * 100.0,
            METERING_OVERHEAD_CEILING * 100.0
        )),
        Some(ov) => lines.push(format!(
            "serve metering overhead {:+.2}% (paired, budget {:.0}%)",
            ov * 100.0,
            METERING_OVERHEAD_CEILING * 100.0
        )),
        None => lines.push("candidate carries no serve_overhead section".to_string()),
    }
    // The flight recorder shares the 2% paired-overhead budget. Old
    // baselines predate the section, so only the candidate is gated and
    // its absence there is informational, not an error.
    match section_overhead(&b_doc, "flight_overhead") {
        Some(ov) if ov > METERING_OVERHEAD_CEILING => regressions.push(format!(
            "flight recorder overhead {:.2}% exceeds the {:.0}% paired-overhead budget",
            ov * 100.0,
            METERING_OVERHEAD_CEILING * 100.0
        )),
        Some(ov) => lines.push(format!(
            "flight recorder overhead {:+.2}% (paired, budget {:.0}%)",
            ov * 100.0,
            METERING_OVERHEAD_CEILING * 100.0
        )),
        None => lines.push("candidate carries no flight_overhead section".to_string()),
    }
    if regressions.is_empty() {
        lines.push(format!(
            "{matched} row(s) compared, no regression beyond {:.1}%",
            threshold * 100.0
        ));
        Ok(lines)
    } else {
        Err(HpdrError::invalid(format!(
            "{} throughput regression(s) beyond {:.1}%:\n{}",
            regressions.len(),
            threshold * 100.0,
            regressions.join("\n")
        )))
    }
}

/// Execute `hpdr bench`: run, validate, write `BENCH_<label>.json`, and
/// return the printable lines (the raw JSON when `json` is set).
pub fn bench_command(opts: &BenchOptions, json: bool) -> Result<Vec<String>> {
    let report = run_bench(opts)?;
    let doc = report.to_json();
    validate_bench_json(&doc)
        .map_err(|e| HpdrError::invalid(format!("bench output failed schema validation: {e}")))?;
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("BENCH_{}.json", opts.label));
    std::fs::write(&path, doc.as_bytes())?;
    let mut lines = if json { vec![doc] } else { report.render() };
    lines.push(format!("wrote {path}"));
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_accepts_real_report_and_rejects_damage() {
        let report = BenchReport {
            label: "t".into(),
            quick: true,
            threads: 4,
            simd: "scalar".into(),
            serve: ServeOverhead {
                jobs: 48,
                reps: 5,
                off: Duration::from_millis(10),
                on: Duration::from_millis(10),
                overhead: 0.001,
            },
            flight: ServeOverhead {
                jobs: 48,
                reps: 5,
                off: Duration::from_millis(10),
                on: Duration::from_millis(10),
                overhead: 0.002,
            },
            results: vec![CodecResult {
                codec: "lz4".into(),
                adapter: "serial".into(),
                side: 16,
                threads: 1,
                elements: 1024,
                bytes: 4096,
                compress: Throughput {
                    best: Duration::from_micros(5),
                    gbps: 0.8,
                },
                decompress: Throughput {
                    best: Duration::from_micros(4),
                    gbps: 1.0,
                },
                ratio: 1.5,
            }],
        };
        let doc = report.to_json();
        validate_bench_json(&doc).expect("valid document");
        // A v1 schema id is still accepted (old baselines compare).
        validate_bench_json(&doc.replace("hpdr-bench/v2", "hpdr-bench/v1"))
            .expect("v1 documents stay valid");
        // Damage: wrong schema.
        assert!(validate_bench_json(&doc.replace("hpdr-bench/v2", "v0")).is_err());
        // Damage: truncation.
        assert!(validate_bench_json(&doc[..doc.len() - 1]).is_err());
        // Damage: empty results.
        let empty = doc.replace(
            &doc[doc.find("\"results\":[").unwrap()..doc.len() - 1],
            "\"results\":[]",
        );
        assert!(validate_bench_json(&empty).is_err());
        // Damage: zero throughput.
        assert!(validate_bench_json(&doc.replace("\"gbps\":0.8", "\"gbps\":0.0")).is_err());
        // Damage: missing serve-overhead section.
        assert!(validate_bench_json(&doc.replace("\"serve_overhead\"", "\"x\"")).is_err());
        // The flight section is emitted but stays optional to the
        // validator: committed baselines predate it and must keep
        // validating.
        assert!(doc.contains("\"flight_overhead\":"));
        validate_bench_json(&doc.replace("\"flight_overhead\"", "\"x\""))
            .expect("documents without a flight section stay valid");
        // Documents recorded before the pool-vs-spawn microbench was
        // removed carry a `pool` section the validator no longer reads.
        for committed in [
            include_str!("../../../BENCH_baseline.json"),
            include_str!("../../../BENCH_simd.json"),
        ] {
            assert!(committed.contains("\"pool\":"));
            validate_bench_json(committed).expect("committed bench documents validate");
        }
    }

    #[test]
    fn compare_gates_on_paired_metering_overhead() {
        let dir = std::env::temp_dir().join(format!("hpdr-cmp-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // The two sections' placeholder overheads must be distinct:
        // `str::replace` rewrites every match, so each section needs its
        // own needle.
        let mk = |name: &str, overhead: &str, flight: &str| {
            let doc = BenchReport {
                label: name.into(),
                quick: true,
                threads: 4,
                simd: "scalar".into(),
                serve: ServeOverhead {
                    jobs: 48,
                    reps: 5,
                    off: Duration::from_millis(10),
                    on: Duration::from_millis(10),
                    overhead: 0.0,
                },
                flight: ServeOverhead {
                    jobs: 48,
                    reps: 5,
                    off: Duration::from_millis(10),
                    on: Duration::from_millis(10),
                    overhead: 0.0005,
                },
                results: vec![CodecResult {
                    codec: "lz4".into(),
                    adapter: "serial".into(),
                    side: 16,
                    threads: 1,
                    elements: 1024,
                    bytes: 4096,
                    compress: Throughput {
                        best: Duration::from_micros(5),
                        gbps: 0.8,
                    },
                    decompress: Throughput {
                        best: Duration::from_micros(4),
                        gbps: 1.0,
                    },
                    ratio: 1.5,
                }],
            }
            .to_json()
            .replace("\"overhead\":0.0000", &format!("\"overhead\":{overhead}"))
            .replace("\"overhead\":0.0005", &format!("\"overhead\":{flight}"));
            let p = dir.join(format!("{name}.json"));
            std::fs::write(&p, doc).unwrap();
            p.display().to_string()
        };
        let base = mk("base", "0.0010", "0.0010");
        let ok = mk("ok", "0.0150", "0.0120");
        let bad = mk("bad", "0.0500", "0.0010");
        let badflight = mk("badflight", "0.0010", "0.0500");
        // Identical throughput rows, both overheads within budget:
        // passes and reports each.
        let lines = compare_command(&base, &ok, 0.10).unwrap();
        assert!(
            lines.iter().any(|l| l.contains("metering overhead +1.50%")),
            "{lines:?}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.contains("flight recorder overhead +1.20%")),
            "{lines:?}"
        );
        // Either overhead past the 2% ceiling fails even with clean rows.
        let err = compare_command(&base, &bad, 0.10).unwrap_err();
        assert!(err.to_string().contains("zero-overhead-when-off"), "{err}");
        let err = compare_command(&base, &badflight, 0.10).unwrap_err();
        assert!(
            err.to_string().contains("flight recorder overhead"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quick_bench_runs_and_validates() {
        let dir = std::env::temp_dir().join(format!("hpdr-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("BENCH_test.json");
        let opts = BenchOptions {
            quick: true,
            paper_scale: false,
            label: "test".into(),
            out: Some(out.display().to_string()),
        };
        let lines = bench_command(&opts, true).unwrap();
        assert!(lines[0].contains("\"schema\":\"hpdr-bench/v2\""));
        let on_disk = std::fs::read_to_string(&out).unwrap();
        validate_bench_json(&on_disk).expect("written document validates");
        // Five codecs × four adapter/thread configs × two sizes: quick
        // mode keeps at least two payload sizes on the axis.
        assert_eq!(on_disk.matches("\"codec\":").count(), 40);
        assert_eq!(on_disk.matches("\"side\":16,").count(), 20);
        assert_eq!(on_disk.matches("\"side\":32,").count(), 20);
        // Count parsed rows: the document's top-level `threads` (pool
        // workers + 1) is also 2 on a 2-core host.
        let rows = parse_bench_entries(&on_disk).expect("written document parses");
        assert_eq!(rows.iter().filter(|r| r.threads == Some(2)).count(), 10);
        // The document records which SIMD tier produced it.
        assert!(on_disk.contains("\"simd\":\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parse_accepts_v1_documents_and_compare_matches_threadless_rows() {
        let v1 = r#"{"schema":"hpdr-bench/v1","label":"old","threads":4,
            "pool":{"invocations":32,"pool_ns":1,"spawn_ns":3,"speedup":3.0},
            "serve_overhead":{"jobs":48,"reps":5,"off_ns":1,"on_ns":1,"overhead":0.001},
            "results":[{"codec":"lz4","adapter":"serial","elements":1024,"bytes":4096,
            "ratio":1.5,"compress":{"median_ns":5,"gbps":0.8},
            "decompress":{"median_ns":4,"gbps":1.0}}]}"#;
        let entries = parse_bench_entries(v1).expect("v1 parses");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].threads, None);
        assert_eq!(entries[0].bytes, 4096);
        // A v1 baseline compares against a v2 candidate: the threadless
        // row matches the same (codec, adapter, bytes) at any thread
        // count instead of being dropped.
        let v2 = v1
            .replace("hpdr-bench/v1", "hpdr-bench/v2")
            .replace(
                "\"adapter\":\"serial\",",
                "\"adapter\":\"serial\",\"side\":16,\"threads\":1,",
            )
            .replace("\"gbps\":0.8", "\"gbps\":1.6");
        let dir = std::env::temp_dir().join(format!("hpdr-v1v2-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pa = dir.join("a.json");
        let pb = dir.join("b.json");
        std::fs::write(&pa, v1).unwrap();
        std::fs::write(&pb, &v2).unwrap();
        let lines = compare_command(&pa.display().to_string(), &pb.display().to_string(), 0.10)
            .expect("v1-vs-v2 compare succeeds");
        assert!(
            lines.iter().any(|l| l.contains("2.00x")),
            "speedup column missing: {lines:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
