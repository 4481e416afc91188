//! The traced run: the workload's inputs through each layer's public
//! entry points, every call a span.
//!
//! Layers, bottom up, with the spans they record:
//! - `hpdr-kernels`: each dispatch-table entry the codecs call, over the
//!   workload's own arrays (`kernels.<entry>`, computed bytes moved).
//! - codec stages: MGARD-X replayed stage by stage (`mgard.compress` /
//!   `mgard.decompress` with children `mgard.<stage>`), ZFP-X, Huffman-X
//!   and the cuSZ-like baseline, on the chunks the pipeline chose.
//! - `hpdr-core` `Reducer`: the same chunks through `Reducer::compress` /
//!   `decompress` on the workload adapter and `compress` on
//!   `SerialAdapter`, plus worker-pool and CMM counters.
//! - `hpdr-pipeline` / `hpdr-sim`: `compress_pipelined` /
//!   `decompress_pipelined` per item, with the simulator's own wall time
//!   and virtual makespan and overlap.
//! - `hpdr-serve`: one `Scheduler::run` (`serve.run`) and each distinct
//!   payload replayed through its public call (`serve.replay`).
//! - `hpdr-progressive`: `plan_fetch` and `Refactoring::retrieve` at three
//!   relative tolerances.
//!
//! The whole set repeats until the run's seconds are spent; every metric
//! is the median over those passes.

use crate::check;
use crate::fields::{rel_bound, Field, MGARD, SZ, ZFP_RATE};
use crate::report::{Clock, Metric, Tally, PER_LAYER};
use crate::serve;
use crate::spans::Tracer;
use crate::stats::{summarize, tail};
use crate::Prepared;
use hpdr_baselines::{SzConfig, SzReducer};
use hpdr_core::{
    ArrayMeta, ByteReader, ByteWriter, DType, DeviceAdapter, Float, FrameHeader, HpdrError,
    Reducer, SerialAdapter, Shape, WorkerPool,
};
use hpdr_huffman::{compress_bytes, compress_u32, decompress_bytes, decompress_u32, HuffmanConfig};
use hpdr_mgard::decompose::{decompose, recompose};
use hpdr_mgard::quantize::{dequantize, escape_symbol, level_bin, quantize, Quantized};
use hpdr_mgard::{context_cache, ErrorBound, Hierarchy, MgardConfig, MgardContext, MgardReducer};
use hpdr_pipeline::{compress_pipelined, decompress_pipelined, Container, PipelineOptions};
use hpdr_progressive::{plan_fetch, refactor_progressive, ProgressiveConfig, Refactoring};
use hpdr_serve::{
    AdmissionConfig, JobPayload, JobRequest, Policy, ServeCodec, ServeConfig, TenantId,
};
use hpdr_sim::{DeviceSpec, Ns};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Stage spans under an MGARD replay must cover at least this share of
/// their parent; the rest is reported as `mgard.other_ms`.
pub const ADDUP_TOLERANCE: f64 = 0.05;

/// Relative tolerances of the progressive retrievals.
const TOLERANCES: [(f64, &str, &str); 3] = [
    (
        1e-1,
        "progressive.retrieve_ms.1e-1",
        "progressive.fetched_frac.1e-1",
    ),
    (
        1e-2,
        "progressive.retrieve_ms.1e-2",
        "progressive.fetched_frac.1e-2",
    ),
    (
        1e-3,
        "progressive.retrieve_ms.1e-3",
        "progressive.fetched_frac.1e-3",
    ),
];
const PLAN_REPS: usize = 64;
/// Serve-mix items for the reducer and pipeline layers: the payloads of
/// the stream's first compress and decompress jobs, as loadgen's batching
/// microbench takes its prefix.
const SERVE_PREFIX: usize = 64;
/// Each kernel entry repeats over its array until this much time passed.
const KERNEL_MIN_NS: u128 = 2_000_000;

/// Everything the layer passes run over.
struct Inputs {
    fields: Vec<Field>,
    /// Leading-dimension rows of each field's chunks.
    chunks: Vec<Vec<usize>>,
    /// (field, codec) round trips through the reducer and pipeline layers.
    items: Vec<(usize, ServeCodec)>,
    spec: DeviceSpec,
    opts: PipelineOptions,
    work: Arc<dyn DeviceAdapter>,
    jobs: Vec<JobRequest>,
    serve_cfg: ServeConfig,
    progressive: (usize, Arc<Refactoring>),
    kernel_arrays: Vec<KernelArrays>,
    serves_jobs: bool,
}

fn inputs(prepared: &Prepared, facts: &mut Vec<(String, String)>) -> Inputs {
    let t = Instant::now();
    let mut inp = match prepared {
        Prepared::Fields(wl) => {
            let chunks = (0..wl.fields.len())
                .map(|f| {
                    let i = wl
                        .items
                        .iter()
                        .position(|it| it.field == f)
                        .expect("item per field");
                    wl.containers[i].chunks.iter().map(|(r, _)| *r).collect()
                })
                .collect();
            let mut jobs = Vec::new();
            for (i, it) in wl.items.iter().enumerate() {
                let f = &wl.fields[it.field];
                let tenant = TenantId(i as u32 % 4);
                jobs.push(JobRequest::new(
                    tenant,
                    Ns::ZERO,
                    it.codec,
                    JobPayload::Compress {
                        input: Arc::clone(&f.bytes),
                        meta: f.meta.clone(),
                    },
                ));
                jobs.push(JobRequest::new(
                    tenant,
                    Ns::ZERO,
                    it.codec,
                    JobPayload::Decompress {
                        container: Arc::new(wl.containers[i].clone()),
                    },
                ));
            }
            let f0 = &wl.fields[0];
            let data = f32::bytes_to_vec(&f0.bytes);
            let set = refactor_progressive(
                wl.work.as_ref(),
                &data,
                &f0.meta.shape,
                &ProgressiveConfig {
                    rel_bound: 1e-4,
                    ..ProgressiveConfig::default()
                },
            )
            .expect("progressive refactoring failed");
            Inputs {
                fields: wl.fields.clone(),
                chunks,
                items: wl.items.iter().map(|it| (it.field, it.codec)).collect(),
                spec: wl.spec.clone(),
                opts: wl.opts,
                work: Arc::clone(&wl.work),
                jobs,
                // One device, so the items' jobs queue behind each other
                // and the queue-wait metric measures something.
                serve_cfg: ServeConfig {
                    devices: 1,
                    policy: Policy::Batched,
                    spec: wl.spec.clone(),
                    pipeline: wl.opts,
                    admission: AdmissionConfig {
                        max_queued_jobs: usize::MAX,
                        max_queued_bytes: u64::MAX,
                    },
                    ..ServeConfig::default()
                },
                progressive: (0, Arc::new(set)),
                kernel_arrays: Vec::new(),
                serves_jobs: false,
            }
        }
        Prepared::Serve(wl) => {
            let fields: Vec<Field> = wl
                .inputs
                .values()
                .map(|(b, m)| Field::new("NYX", b.to_vec(), m.clone()))
                .collect();
            let sides: Vec<usize> = wl.inputs.keys().copied().collect();
            let mut items = Vec::new();
            let mut set = None;
            for j in &wl.jobs {
                let side = j.payload.meta().shape.dims()[0];
                let f = sides
                    .iter()
                    .position(|&s| s == side)
                    .expect("side has a field");
                match &j.payload {
                    JobPayload::Retrieve { set: s, .. }
                        if set.as_ref().is_none_or(|(g, _)| *g < f) =>
                    {
                        set = Some((f, Arc::clone(s)));
                    }
                    JobPayload::Retrieve { .. } => {}
                    _ if items.len() < SERVE_PREFIX => items.push((f, j.codec)),
                    _ => {}
                }
            }
            Inputs {
                chunks: fields
                    .iter()
                    .map(|f| vec![f.meta.shape.dims()[0]])
                    .collect(),
                fields,
                items,
                spec: wl.cfg.spec.clone(),
                opts: wl.cfg.pipeline,
                work: Arc::clone(&wl.work),
                jobs: wl.jobs.clone(),
                serve_cfg: wl.cfg.clone(),
                progressive: set.expect("the mix has retrieve jobs"),
                kernel_arrays: Vec::new(),
                serves_jobs: true,
            }
        }
    };
    inp.kernel_arrays = inp.fields.iter().map(KernelArrays::new).collect();
    facts.push((
        "traced set-up".into(),
        format!(
            "{:.3} s (progressive refactoring, kernel arrays); {} fields, {} items, {} serve jobs",
            t.elapsed().as_secs_f64(),
            inp.fields.len(),
            inp.items.len(),
            inp.jobs.len()
        ),
    ));
    inp
}

/// The traced run. Returns the per-layer metrics and the span dump.
pub fn run(
    prepared: &Prepared,
    seconds: f64,
    tally: &mut Tally,
    integrity: &mut Vec<String>,
    facts: &mut Vec<(String, String)>,
) -> (Vec<Metric>, String) {
    let inp = inputs(prepared, facts);
    let mut tr = Tracer::new();
    let start = Instant::now();
    let mut passes: Vec<BTreeMap<String, f64>> = Vec::new();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let first = passes.is_empty();
        passes.push(layer_pass(&inp, &mut tr, tally, integrity, first));
    }
    let overhead = tracing_overhead(prepared, &mut tr);
    for p in &mut passes {
        p.insert("trace.overhead_pct".into(), overhead);
    }
    let mut names: Vec<String> = PER_LAYER.iter().map(|d| d.name.to_string()).collect();
    for p in &passes {
        for k in p.keys() {
            if !names.contains(k) {
                names.push(k.clone());
            }
        }
    }
    let metrics = names
        .into_iter()
        .filter_map(|name| {
            let vals: Vec<f64> = passes.iter().filter_map(|p| p.get(&name).copied()).collect();
            if vals.is_empty() {
                return None;
            }
            let s = summarize(&vals);
            Some(match PER_LAYER.iter().find(|d| d.name == name) {
                Some(_) => Metric::of(&name, s),
                // Breakdowns: per-codec and per-field times, and the
                // computed bytes each kernel entry moved.
                None if name.ends_with(".mb_moved") => {
                    Metric::extra(name.clone(), "MB", Clock::None, s)
                }
                None => Metric::extra(name.clone(), "ms", Clock::Wall, s),
            })
        })
        .map(|m| match m.name.as_str() {
            "trace.overhead_pct" => m.with_note("field passes or serve runs with call spans vs without; median of interleaved pairs"),
            "serve.self_us_per_job" => m.with_note("estimate: run wall minus each completed job's payload replayed through its public call"),
            "trace.unattributed_pct" => m.with_note(format!("MGARD stage spans must cover {}% of their parent", 100.0 * (1.0 - ADDUP_TOLERANCE))),
            _ => m,
        })
        .collect();
    facts.push(("traced passes".into(), passes.len().to_string()));
    facts.push((
        "simd tier".into(),
        hpdr_kernels::kernels().tier.name().into(),
    ));
    (metrics, tr.to_json())
}

fn rows_of(meta: &ArrayMeta, rows: usize) -> ArrayMeta {
    ArrayMeta::new(meta.dtype, meta.shape.with_leading(rows))
}

/// The chunk slices of field `f`: `(byte range, chunk metadata)`.
fn chunk_slices(inp: &Inputs, f: usize) -> Vec<(std::ops::Range<usize>, ArrayMeta)> {
    let field = &inp.fields[f];
    let row_bytes = field.meta.shape.row_elements() * field.meta.dtype.size();
    let mut at = 0;
    inp.chunks[f]
        .iter()
        .map(|&rows| {
            let r = at..at + rows * row_bytes;
            at = r.end;
            (r, rows_of(&field.meta, rows))
        })
        .collect()
}

fn layer_pass(
    inp: &Inputs,
    tr: &mut Tracer,
    tally: &mut Tally,
    integrity: &mut Vec<String>,
    first: bool,
) -> BTreeMap<String, f64> {
    let from = tr.mark();
    let mut m: BTreeMap<String, f64> = BTreeMap::new();

    // hpdr-kernels.
    let mut moved: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (f, arrays) in inp.kernel_arrays.iter().enumerate() {
        arrays.time_all(tr, f as u32, &mut moved);
    }
    for (entry, bytes) in &moved {
        let ms = tr.sum_ms(entry, from);
        m.insert(format!("{entry}.gbps"), bytes / (ms * 1e6));
        m.insert(format!("{entry}.mb_moved"), bytes / 1e6);
    }

    // Codec stages, on each field's chunks.
    let mut mgard_parent_ns = 0u64;
    let mut mgard_self_ns = 0u64;
    for f in 0..inp.fields.len() {
        let field = &inp.fields[f];
        for (c, (range, meta)) in chunk_slices(inp, f).into_iter().enumerate() {
            let bytes = &field.bytes[range];
            let item = f as u32;
            let label = format!("{} chunk {c}", field.name);
            match meta.dtype {
                DType::F32 => {
                    codec_stages::<f32>(inp, tr, item, bytes, &meta, first, tally, &label)
                }
                DType::F64 => {
                    codec_stages::<f64>(inp, tr, item, bytes, &meta, first, tally, &label)
                }
            }
        }
    }
    for i in from..tr.mark() {
        let s = &tr.spans()[i];
        if s.name == "mgard.compress" || s.name == "mgard.decompress" {
            mgard_parent_ns += s.ns();
            mgard_self_ns += tr.self_ns(i);
        }
    }
    let unattributed = mgard_self_ns as f64 / mgard_parent_ns.max(1) as f64;
    if unattributed > ADDUP_TOLERANCE {
        integrity.push(format!(
            "MGARD stage spans cover only {:.1}% of their parents",
            100.0 * (1.0 - unattributed)
        ));
    }
    m.insert("trace.unattributed_pct".into(), 100.0 * unattributed);
    for stage in [
        "context",
        "convert",
        "decompose",
        "quantize",
        "encode",
        "decode",
        "dequantize",
        "recompose",
    ] {
        let name = format!("mgard.{stage}");
        m.insert(format!("{name}_ms"), tr.sum_ms(&name, from));
    }
    m.insert(
        "mgard.other_ms".into(),
        tr.self_ms("mgard.compress", from) + tr.self_ms("mgard.decompress", from),
    );
    for name in [
        "zfp.compress",
        "zfp.decompress",
        "huffman.compress",
        "huffman.decompress",
        "sz.compress",
        "sz.decompress",
    ] {
        m.insert(format!("{name}_ms"), tr.sum_ms(name, from));
        for (f, field) in inp.fields.iter().enumerate() {
            let ms: f64 = tr.spans()[from..]
                .iter()
                .filter(|s| s.name == name && s.item == f as u32)
                .map(|s| s.ns() as f64 / 1e6)
                .sum();
            m.insert(
                format!("{name}_ms.{}{}", field.name, field.meta.shape.dims()[0]),
                ms,
            );
        }
    }

    // Reducer and pipeline layers, per item.
    let (mut pool_ops, mut pipe) = (0u64, Pipe::default());
    let mut pool_delta = hpdr_core::PoolStats::default();
    let mut cmm_delta = hpdr_core::CmmStats::default();
    for (i, &(f, codec)) in inp.items.iter().enumerate() {
        let before = (WorkerPool::global().stats(), context_cache().stats());
        let container = pipeline_item(inp, tr, i, f, codec, tally, &mut pipe);
        let (p, c) = (
            WorkerPool::global().stats().since(before.0),
            context_cache().stats(),
        );
        pool_delta = add_pool(pool_delta, p);
        cmm_delta.hits += c.hits - before.1.hits;
        cmm_delta.misses += c.misses - before.1.misses;
        pool_ops += 2;
        if let Some(container) = container {
            reducer_item(inp, tr, i, f, codec, &container, first, tally);
        }
    }
    let reducer_ms = tr.sum_ms("reducer.compress", from) + tr.sum_ms("reducer.decompress", from);
    let pipeline_ms = tr.sum_ms("pipeline.compress", from) + tr.sum_ms("pipeline.decompress", from);
    for name in [
        "reducer.compress",
        "reducer.decompress",
        "reducer.serial_compress",
        "pipeline.compress",
        "pipeline.decompress",
    ] {
        m.insert(format!("{name}_ms"), tr.sum_ms(name, from));
    }
    for name in [
        "reducer.compress",
        "reducer.decompress",
        "reducer.serial_compress",
    ] {
        let mut by_codec: BTreeMap<&str, f64> = BTreeMap::new();
        for s in tr.spans()[from..].iter().filter(|s| s.name == name) {
            *by_codec
                .entry(inp.items[s.item as usize].1.name())
                .or_default() += s.ns() as f64 / 1e6;
        }
        for (codec, ms) in by_codec {
            let op = name.trim_start_matches("reducer.");
            m.insert(format!("reducer.{codec}.{op}_ms"), ms);
        }
    }
    m.insert("pipeline.overhead_ms".into(), pipeline_ms - reducer_ms);
    m.insert("pipeline.sim_run_ms".into(), pipe.sim_run_ns as f64 / 1e6);
    m.insert("pipeline.chunks".into(), pipe.chunks as f64);
    m.insert(
        "pipeline.makespan_us_virtual".into(),
        pipe.makespan_ns as f64 / 1e3,
    );
    m.insert(
        "pipeline.overlap_virtual".into(),
        pipe.overlap_sum / pipe.calls.max(1) as f64,
    );

    // Serving layer.
    let serve_before = (WorkerPool::global().stats(), context_cache().stats());
    let (run_ns, outcome) = {
        let wl_cfg = inp.serve_cfg.clone();
        let sched = hpdr_serve::Scheduler::new(wl_cfg, Arc::clone(&inp.work));
        let mut source = hpdr_serve::VecSource::new(inp.jobs.clone());
        let id = tr.open("serve.run", 0);
        let t = Instant::now();
        let outcome = sched.run(&mut source);
        let ns = t.elapsed().as_nanos() as u64;
        tr.close(id);
        (ns, outcome)
    };
    let serve_pool = WorkerPool::global().stats().since(serve_before.0);
    let serve_cmm = context_cache().stats();
    let served = serve::tally_outcome(&outcome, tally);
    let replay_ns = replay_payloads(inp, tr, &outcome);
    let completed = served.completed.max(1) as f64;
    m.insert("serve.run_ms".into(), run_ns as f64 / 1e6);
    m.insert(
        "serve.self_us_per_job".into(),
        (run_ns as f64 - replay_ns) / completed / 1e3,
    );
    m.insert(
        "serve.batches".into(),
        outcome.devices.values().map(|d| d.batches).sum::<u64>() as f64,
    );
    m.insert(
        "serve.pool_jobs_per_job".into(),
        outcome.pool_jobs as f64 / completed,
    );
    m.insert("serve.cmm_misses".into(), outcome.cmm_misses as f64);
    let waits: Vec<f64> = outcome
        .records
        .iter()
        .filter(|r| r.started.is_some())
        .map(|r| r.queue_wait().0 as f64 / 1e6)
        .collect();
    m.insert(
        "serve.queue_wait_p99_ms_virtual".into(),
        if waits.is_empty() {
            0.0
        } else {
            tail(&waits, 0.99).0
        },
    );
    m.insert(
        "serve.device_util_virtual".into(),
        outcome
            .devices
            .values()
            .map(|d| d.utilization)
            .fold(0.0, f64::max),
    );

    // Pool and CMM counters per operation of the workload's own pass:
    // pipelined calls for field workloads, served jobs for the mix.
    let (pool, ops, hits, misses) = if inp.serves_jobs {
        (
            serve_pool,
            completed,
            outcome.cmm_hits + (serve_cmm.hits - serve_before.1.hits),
            outcome.cmm_misses + (serve_cmm.misses - serve_before.1.misses),
        )
    } else {
        (
            pool_delta,
            pool_ops as f64,
            cmm_delta.hits,
            cmm_delta.misses,
        )
    };
    m.insert("pool.jobs".into(), pool.jobs as f64 / ops);
    m.insert("pool.wakeups".into(), pool.wakeups as f64 / ops);
    m.insert(
        "pool.scratch_reuses".into(),
        pool.scratch_reuses as f64 / ops,
    );
    m.insert(
        "pool.scratch_allocs".into(),
        pool.scratch_allocs as f64 / ops,
    );
    m.insert("cmm.hits".into(), hits as f64);
    m.insert("cmm.misses".into(), misses as f64);

    // Progressive retrieval.
    let (pf, set) = &inp.progressive;
    let field = &inp.fields[*pf];
    let range = set.manifest.range;
    let held = vec![0u8; set.manifest.levels as usize];
    for (rel, retrieve_name, frac_name) in TOLERANCES {
        let tol = rel * range;
        tr.time("progressive.plan", *pf as u32, || {
            for _ in 0..PLAN_REPS {
                std::hint::black_box(plan_fetch(&set.manifest, &held, tol));
            }
        });
        let id = tr.open(retrieve_name, *pf as u32);
        let got = set.retrieve::<f32>(inp.work.as_ref(), tol);
        tr.close(id);
        match got {
            Ok(r) => {
                m.insert(
                    frac_name.into(),
                    r.fetched_bytes as f64 / set.total_bytes() as f64,
                );
                if first {
                    let out = f32::slice_to_bytes(&r.data);
                    let err = check::max_abs_err(&field.bytes, &out, DType::F32);
                    tally.check(
                        err.is_some_and(|e| check::within(e, tol, field.extent, DType::F32)),
                        || format!("progressive retrieve at {rel}: error {err:?} over {tol}"),
                    );
                }
            }
            Err(e) => tally.check(false, || format!("progressive retrieve at {rel}: {e}")),
        }
        m.insert(retrieve_name.into(), tr.sum_ms(retrieve_name, from));
    }
    m.insert(
        "progressive.plan_us".into(),
        tr.sum_ms("progressive.plan", from) * 1e3 / (PLAN_REPS * TOLERANCES.len()) as f64,
    );
    m
}

fn add_pool(a: hpdr_core::PoolStats, b: hpdr_core::PoolStats) -> hpdr_core::PoolStats {
    hpdr_core::PoolStats {
        jobs: a.jobs + b.jobs,
        wakeups: a.wakeups + b.wakeups,
        tasks: a.tasks + b.tasks,
        scratch_reuses: a.scratch_reuses + b.scratch_reuses,
        scratch_allocs: a.scratch_allocs + b.scratch_allocs,
    }
}

#[derive(Default)]
struct Pipe {
    sim_run_ns: u64,
    chunks: u64,
    makespan_ns: u64,
    overlap_sum: f64,
    calls: u64,
}

/// One item through the pipeline, both directions. Returns the container.
fn pipeline_item(
    inp: &Inputs,
    tr: &mut Tracer,
    i: usize,
    f: usize,
    codec: ServeCodec,
    tally: &mut Tally,
    pipe: &mut Pipe,
) -> Option<Container> {
    let field = &inp.fields[f];
    let label = || format!("pipeline {} {}", field.name, codec.label());
    let compressed = tr.time("pipeline.compress", i as u32, || {
        compress_pipelined(
            &inp.spec,
            Arc::clone(&inp.work),
            codec.reducer(),
            Arc::clone(&field.bytes),
            &field.meta,
            &inp.opts,
        )
    });
    let (container, crep) = match compressed {
        Ok(c) => c,
        Err(e) => {
            tally.check(false, || format!("{}: {e}", label()));
            return None;
        }
    };
    let restored = tr.time("pipeline.decompress", i as u32, || {
        decompress_pipelined(
            &inp.spec,
            Arc::clone(&inp.work),
            codec.reducer(),
            &container,
            &inp.opts,
        )
    });
    match restored {
        Ok((out, meta, drep)) => {
            let lossless = codec.reducer().is_lossless();
            let verdict = check::reconstruction(
                &field.bytes,
                &out,
                &meta,
                &field.meta,
                lossless,
                rel_bound(codec),
            );
            tally.check(verdict.is_ok(), || format!("{}: {verdict:?}", label()));
            for rep in [&crep, &drep] {
                pipe.sim_run_ns += rep.trace.runtime_stats().map_or(0, |s| s.wall.0);
                pipe.makespan_ns += rep.makespan.0;
                pipe.overlap_sum += rep.overlap.unwrap_or(0.0);
                pipe.calls += 1;
            }
            pipe.chunks += crep.num_chunks as u64;
        }
        Err(e) => tally.check(false, || format!("{}: {e}", label())),
    }
    Some(container)
}

/// The item's chunks through `Reducer` calls: the workload adapter both
/// ways, then `SerialAdapter` for the single-thread baseline. The first
/// pass checks each stream equals the pipeline's chunk stream.
#[allow(clippy::too_many_arguments)]
fn reducer_item(
    inp: &Inputs,
    tr: &mut Tracer,
    i: usize,
    f: usize,
    codec: ServeCodec,
    container: &Container,
    first: bool,
    tally: &mut Tally,
) {
    let field = &inp.fields[f];
    let reducer = codec.reducer();
    let row_bytes = field.meta.shape.row_elements() * field.meta.dtype.size();
    let serial = SerialAdapter::new();
    let mut at = 0usize;
    for (rows, stream) in &container.chunks {
        let bytes = &field.bytes[at..at + rows * row_bytes];
        at += rows * row_bytes;
        let meta = rows_of(&field.meta, *rows);
        let ours = tr.time("reducer.compress", i as u32, || {
            reducer.compress(inp.work.as_ref(), bytes, &meta)
        });
        let back = tr.time("reducer.decompress", i as u32, || {
            reducer.decompress(inp.work.as_ref(), stream)
        });
        let single = tr.time("reducer.serial_compress", i as u32, || {
            reducer.compress(&serial, bytes, &meta)
        });
        if first {
            let same = ours.as_ref().is_ok_and(|s| s == stream)
                && single.as_ref().is_ok_and(|s| s == stream)
                && back.is_ok();
            tally.check(same, || {
                format!(
                    "reducer {} on {}: stream differs from the pipeline's",
                    codec.label(),
                    field.name
                )
            });
        }
    }
}

/// Replay each distinct payload of the completed jobs once through its
/// public call; returns the summed replay wall time weighted by how
/// many completed jobs carried each payload.
fn replay_payloads(inp: &Inputs, tr: &mut Tracer, outcome: &hpdr_serve::ServeOutcome) -> f64 {
    let completed: Vec<usize> = outcome
        .records
        .iter()
        .filter(|r| r.outcome == hpdr_serve::JobOutcome::Completed)
        .map(|r| r.id.0 as usize)
        .collect();
    // Job ids count admitted submissions in arrival order; every job of
    // a passing run is admitted, so ids index the stream.
    let mut counts: BTreeMap<(usize, String), (usize, u64)> = BTreeMap::new();
    for id in completed {
        if let Some(j) = inp.jobs.get(id) {
            counts.entry(serve::payload_key(j)).or_insert((id, 0)).1 += 1;
        }
    }
    let mut total = 0.0;
    for (k, (id, n)) in counts.values().enumerate() {
        let job = &inp.jobs[*id];
        let span = tr.open("serve.replay", k as u32);
        let t = Instant::now();
        let reducer = job.codec.reducer();
        let work = inp.work.as_ref();
        let _ = std::hint::black_box(match &job.payload {
            JobPayload::Compress { input, meta } => reducer.compress(work, input, meta).map(|_| ()),
            JobPayload::Decompress { container } => container
                .chunks
                .iter()
                .try_for_each(|(_, s)| reducer.decompress(work, s).map(|_| ())),
            JobPayload::Retrieve { set, tolerance, .. } => {
                set.retrieve::<f32>(work, *tolerance).map(|_| ())
            }
        });
        total += t.elapsed().as_nanos() as f64 * *n as f64;
        tr.close(span);
    }
    total
}

/// The workload's own pass with call spans against without: the median
/// over interleaved pairs of the difference, in percent of the untraced.
fn tracing_overhead(prepared: &Prepared, tr: &mut Tracer) -> f64 {
    const PAIRS: usize = 4;
    let mut scratch = Tally::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..PAIRS {
        match prepared {
            Prepared::Fields(wl) => {
                let p = crate::fields::pass(wl, &mut scratch, None);
                plain.push((p.compress_ns + p.decompress_ns) as f64);
                let root = tr.open("overhead.traced_pass", 0);
                let p = crate::fields::pass(wl, &mut scratch, Some(tr));
                tr.close(root);
                traced.push((p.compress_ns + p.decompress_ns) as f64);
            }
            Prepared::Serve(wl) => {
                plain.push(serve::run(wl, None).0 .0 as f64);
                let root = tr.open("overhead.traced_pass", 0);
                traced.push(serve::run(wl, Some(tr)).0 .0 as f64);
                tr.close(root);
            }
        }
    }
    let diffs: Vec<f64> = plain
        .iter()
        .zip(&traced)
        .map(|(a, b)| 100.0 * (b - a) / a)
        .collect();
    summarize(&diffs).median
}

// ---------------------------------------------------------------------------
// Codec stages.
// ---------------------------------------------------------------------------

/// The MGARD-X container frame (must match `hpdr_mgard::codec`; the
/// replay check below fails if it ever stops doing so).
const MGARD_FRAME: FrameHeader = FrameHeader::new(0x4D47_5831, 1, "MGARD-X");
const MGARD_DICT_CHUNK: usize = 1 << 16;

/// MGARD folds 4D shapes into 3D by merging the two slowest dims.
fn mgard_shape(shape: &Shape) -> Shape {
    let d = shape.dims();
    if d.len() == 4 {
        Shape::new(&[d[0] * d[1], d[2], d[3]])
    } else {
        shape.clone()
    }
}

#[allow(clippy::too_many_arguments)]
fn codec_stages<T: Float>(
    inp: &Inputs,
    tr: &mut Tracer,
    item: u32,
    bytes: &[u8],
    meta: &ArrayMeta,
    first: bool,
    tally: &mut Tally,
    label: &str,
) {
    let work = inp.work.as_ref();
    let data: Vec<T> = T::bytes_to_vec(bytes);
    let cfg = MgardConfig::relative(rel_bound(MGARD).expect("MGARD-X is bounded"));

    // MGARD-X, stage by stage, then checked against the program.
    let replay = mgard_compress(tr, item, work, &data, &meta.shape, &cfg);
    let restored = replay
        .as_ref()
        .map_err(|e| e.to_string())
        .and_then(|(stream, _)| {
            mgard_decompress::<T>(tr, item, work, stream).map_err(|e| e.to_string())
        });
    if first {
        let program = MgardReducer(cfg).compress(work, bytes, meta);
        let verdict = match (&replay, &restored, &program) {
            (Ok((stream, symbols)), Ok((out, decoded)), Ok(real)) => {
                let real_out = MgardReducer(cfg).decompress(work, real).map(|(b, _)| b);
                if stream != real {
                    Err("replayed container differs from Reducer::compress".to_string())
                } else if symbols != decoded {
                    Err("decoded symbol stream differs from the quantized one".to_string())
                } else if real_out.ok().as_deref() != Some(&T::slice_to_bytes(out)[..]) {
                    Err("replayed reconstruction differs from Reducer::decompress".to_string())
                } else {
                    Ok(())
                }
            }
            _ => Err(format!(
                "{:?} / {:?} / {:?}",
                replay.as_ref().err(),
                restored.as_ref().err(),
                program.as_ref().err()
            )),
        };
        tally.check(verdict.is_ok(), || {
            format!("MGARD replay on {label}: {verdict:?}")
        });
    }

    // ZFP-X.
    let zcfg = hpdr_zfp::ZfpConfig::fixed_rate(ZFP_RATE);
    let z = tr.time("zfp.compress", item, || {
        hpdr_zfp::compress(work, &data, &meta.shape, &zcfg)
    });
    let zback = z.as_ref().map_err(HpdrError::to_string).and_then(|s| {
        tr.time("zfp.decompress", item, || {
            hpdr_zfp::decompress::<T>(work, s)
        })
        .map_err(|e| e.to_string())
    });

    // Huffman-X over the raw bytes.
    let hcfg = HuffmanConfig {
        dict_size: 256,
        chunk_elems: MGARD_DICT_CHUNK,
    };
    let h = tr.time("huffman.compress", item, || {
        compress_bytes(work, bytes, &hcfg)
    });
    let hback = h.as_ref().map_err(HpdrError::to_string).and_then(|s| {
        tr.time("huffman.decompress", item, || decompress_bytes(work, s))
            .map_err(|e| e.to_string())
    });

    // cuSZ-like (its typed entry points are private: the reducer is the
    // codec's public surface).
    let sz = SzReducer(SzConfig::relative(rel_bound(SZ).expect("SZ is bounded")));
    let s = tr.time("sz.compress", item, || sz.compress(work, bytes, meta));
    let sback = s.as_ref().map_err(HpdrError::to_string).and_then(|st| {
        tr.time("sz.decompress", item, || sz.decompress(work, st))
            .map_err(|e| e.to_string())
    });

    if first {
        let zv = zback.and_then(|(v, shape)| {
            check::reconstruction(
                bytes,
                &T::slice_to_bytes(&v),
                &ArrayMeta::new(meta.dtype, shape),
                meta,
                false,
                None,
            )
        });
        tally.check(zv.is_ok(), || format!("zfp on {label}: {zv:?}"));
        let hv = hback.and_then(|b| check::reconstruction(bytes, &b, meta, meta, true, None));
        tally.check(hv.is_ok(), || format!("huffman on {label}: {hv:?}"));
        let sv = sback
            .and_then(|(b, m)| check::reconstruction(bytes, &b, &m, meta, false, rel_bound(SZ)));
        tally.check(sv.is_ok(), || format!("sz on {label}: {sv:?}"));
    }
}

/// `hpdr_mgard::compress`, one span per stage. Returns the container and
/// the quantized symbol stream.
fn mgard_compress<T: Float>(
    tr: &mut Tracer,
    item: u32,
    work: &dyn DeviceAdapter,
    data: &[T],
    shape: &Shape,
    cfg: &MgardConfig,
) -> hpdr_core::Result<(Vec<u8>, Vec<u32>)> {
    let root = tr.open("mgard.compress", item);
    let out = (|| -> hpdr_core::Result<(Vec<u8>, Vec<u32>)> {
        let abs_eb = tr.time("mgard.convert", item, || -> hpdr_core::Result<f64> {
            if data.iter().any(|v| !v.is_finite()) {
                return Err(HpdrError::invalid("non-finite value in MGARD input"));
            }
            Ok(match cfg.error_bound {
                ErrorBound::Absolute(e) => e,
                ErrorBound::Relative(rel) => {
                    let (mn, mx) = hpdr_kernels::min_max(work, data);
                    let range = mx.to_f64() - mn.to_f64();
                    if range == 0.0 {
                        rel
                    } else {
                        rel * range
                    }
                }
            })
        })?;
        let eff = mgard_shape(shape);
        let mut ctx = tr.time("mgard.context", item, || MgardContext::new(&eff));
        let levels = ctx.hierarchy.total_levels();
        let MgardContext {
            hierarchy,
            node_levels,
            work: u,
        } = &mut ctx;
        tr.time("mgard.convert", item, || {
            u.extend(data.iter().map(|v| v.to_f64()))
        });
        tr.time("mgard.decompose", item, || decompose(work, u, hierarchy));
        let q = tr.time("mgard.quantize", item, || {
            let bins: Vec<f64> = (0..levels).map(|l| level_bin(abs_eb, levels, l)).collect();
            quantize(work, u, node_levels, &bins, cfg.dict_size)
        });
        let hcfg = HuffmanConfig {
            dict_size: cfg.dict_size,
            chunk_elems: MGARD_DICT_CHUNK,
        };
        let encoded = tr.time("mgard.encode", item, || {
            compress_u32(work, &q.symbols, &hcfg)
        })?;
        let stream = tr.time("mgard.convert", item, || {
            let mut w = ByteWriter::with_capacity(encoded.len() + 128);
            MGARD_FRAME.write(&mut w);
            w.put_u8(T::DTYPE.tag());
            w.put_u8(shape.ndims() as u8);
            for &d in shape.dims() {
                w.put_u64(d as u64);
            }
            w.put_f64(abs_eb);
            w.put_u8(levels as u8);
            w.put_u32(cfg.dict_size);
            w.put_u64(q.outliers.len() as u64);
            for &(idx, qi) in &q.outliers {
                w.put_u64(idx);
                w.put_i64(qi);
            }
            w.put_block(&encoded);
            w.into_vec()
        });
        Ok((stream, q.symbols))
    })();
    tr.close(root);
    out
}

struct MgardHeader<'a> {
    shape: Shape,
    abs_eb: f64,
    levels: usize,
    dict_size: u32,
    outliers: Vec<(u64, i64)>,
    encoded: &'a [u8],
}

fn mgard_parse<T: Float>(bytes: &[u8]) -> hpdr_core::Result<MgardHeader<'_>> {
    let mut r = ByteReader::new(bytes);
    MGARD_FRAME.read(&mut r)?;
    if r.get_u8()? != T::DTYPE.tag() {
        return Err(HpdrError::invalid("dtype mismatch in MGARD-X stream"));
    }
    let nd = r.get_u8()? as usize;
    let dims = (0..nd)
        .map(|_| r.get_u64().map(|d| d as usize))
        .collect::<hpdr_core::Result<Vec<_>>>()?;
    let shape = Shape::try_new(&dims)?;
    let abs_eb = r.get_f64()?;
    let levels = r.get_u8()? as usize;
    let dict_size = r.get_u32()?;
    let n = r.get_u64()? as usize;
    if n > shape.num_elements() {
        return Err(HpdrError::corrupt("more outliers than elements"));
    }
    let outliers = (0..n)
        .map(|_| Ok((r.get_u64()?, r.get_i64()?)))
        .collect::<hpdr_core::Result<Vec<_>>>()?;
    let encoded = r.get_block()?;
    r.expect_exhausted()?;
    Ok(MgardHeader {
        shape,
        abs_eb,
        levels,
        dict_size,
        outliers,
        encoded,
    })
}

/// `hpdr_mgard::decompress`, one span per stage. Returns the values and
/// the decoded symbol stream.
fn mgard_decompress<T: Float>(
    tr: &mut Tracer,
    item: u32,
    work: &dyn DeviceAdapter,
    bytes: &[u8],
) -> hpdr_core::Result<(Vec<T>, Vec<u32>)> {
    let root = tr.open("mgard.decompress", item);
    let out = (|| -> hpdr_core::Result<(Vec<T>, Vec<u32>)> {
        let h = tr.time("mgard.convert", item, || mgard_parse::<T>(bytes))?;
        let symbols = tr.time("mgard.decode", item, || decompress_u32(work, h.encoded))?;
        if symbols.len() != h.shape.num_elements() {
            return Err(HpdrError::corrupt("symbol count does not match shape"));
        }
        let ctx = tr.time("mgard.context", item, || {
            MgardContext::new(&mgard_shape(&h.shape))
        });
        if ctx.hierarchy.total_levels() != h.levels || h.dict_size < 16 {
            return Err(HpdrError::corrupt("level count or dictionary mismatch"));
        }
        let q = Quantized {
            symbols,
            outliers: h.outliers,
        };
        let mut coeffs = tr.time("mgard.dequantize", item, || {
            let bins: Vec<f64> = (0..h.levels)
                .map(|l| level_bin(h.abs_eb, h.levels, l))
                .collect();
            dequantize(work, &q, &ctx.node_levels, &bins, h.dict_size)
        });
        tr.time("mgard.recompose", item, || {
            recompose(work, &mut coeffs, &ctx.hierarchy)
        });
        let out: Vec<T> = tr.time("mgard.convert", item, || {
            coeffs.iter().map(|&v| T::from_f64(v)).collect()
        });
        Ok((out, q.symbols))
    })();
    tr.close(root);
    out
}

// ---------------------------------------------------------------------------
// Kernel entries.
// ---------------------------------------------------------------------------

/// A field's arrays in the shapes the dispatch-table entries take: the
/// f64 values with MGARD's node levels and bins, their quantized
/// symbols, ZFP-style fixed-point 4³ blocks and their negabinary planes.
struct KernelArrays {
    /// The values at their own precision (f32 fields only).
    narrow: Vec<f32>,
    dtype: DType,
    vals: Vec<f64>,
    levels: Vec<u8>,
    bins: Vec<f64>,
    syms: Vec<u32>,
    blocks: Vec<i64>,
    planes: Vec<u64>,
}

const DICT: u32 = 8192;
const TILE: usize = 1024;

impl KernelArrays {
    fn new(f: &Field) -> KernelArrays {
        let vals: Vec<f64> = match f.meta.dtype {
            DType::F32 => f32::bytes_to_vec(&f.bytes)
                .into_iter()
                .map(f64::from)
                .collect(),
            DType::F64 => f64::bytes_to_vec(&f.bytes),
        };
        let h = Hierarchy::new(&mgard_shape(&f.meta.shape));
        let levels = h.node_levels();
        let abs_eb = 1e-3 * f.extent.range.max(f64::MIN_POSITIVE);
        let n_levels = h.total_levels();
        let bins: Vec<f64> = (0..n_levels)
            .map(|l| level_bin(abs_eb, n_levels, l))
            .collect();
        let k = hpdr_kernels::kernels();
        let mut q = vec![0.0; vals.len()];
        (k.quantize_quotients)(&vals, &levels, &bins, &mut q);
        let radius = (DICT / 2) as f64;
        let syms = q
            .iter()
            .map(|&x| (x + radius).clamp(0.0, (DICT - 1) as f64) as u32)
            .collect();
        let scale = 2f64.powi(40) / f.extent.max_abs.max(f64::MIN_POSITIVE);
        let whole = vals.len() / 64 * 64;
        let blocks: Vec<i64> = vals[..whole].iter().map(|&v| (v * scale) as i64).collect();
        let mut planes = vec![0u64; whole];
        (k.negabinary_fwd)(&blocks, &mut planes);
        KernelArrays {
            narrow: match f.meta.dtype {
                DType::F32 => f32::bytes_to_vec(&f.bytes),
                DType::F64 => Vec::new(),
            },
            dtype: f.meta.dtype,
            vals,
            levels,
            bins,
            syms,
            blocks,
            planes,
        }
    }

    /// Time every entry; `moved` accumulates computed bytes per entry.
    fn time_all(&self, tr: &mut Tracer, item: u32, moved: &mut BTreeMap<&'static str, f64>) {
        let k = hpdr_kernels::kernels();
        let n = self.vals.len();
        let nb = self.blocks.len();
        let mut tile = [0.0f64; TILE];
        let mut row = vec![0u64; DICT as usize + 1];
        let mut blk = [0i64; 64];
        let mut plane = [0u64; 64];
        let radius = (DICT / 2) as i64;
        let escape = escape_symbol(DICT);
        let mut entry = |name: &'static str, bytes_per_rep: usize, body: &mut dyn FnMut()| {
            let id = tr.open(name, item);
            let t = Instant::now();
            let mut reps = 0usize;
            while reps == 0 || t.elapsed().as_nanos() < KERNEL_MIN_NS {
                body();
                reps += 1;
            }
            tr.close(id);
            *moved.entry(name).or_default() += (bytes_per_rep * reps) as f64;
        };
        entry("kernels.quantize", n * 17, &mut || {
            for (c, (v, l)) in self
                .vals
                .chunks(TILE)
                .zip(self.levels.chunks(TILE))
                .enumerate()
            {
                (k.quantize_quotients)(v, l, &self.bins, &mut tile[..v.len()]);
                std::hint::black_box((c, &tile));
            }
        });
        entry("kernels.dequantize", n * 13, &mut || {
            for (s, l) in self.syms.chunks(TILE).zip(self.levels.chunks(TILE)) {
                (k.dequantize_vals)(s, l, &self.bins, radius, escape, &mut tile[..s.len()]);
                std::hint::black_box(&tile);
            }
        });
        entry("kernels.histogram", n * 4, &mut || {
            row.fill(0);
            (k.histogram_fill)(&self.syms, DICT as usize, &mut row);
            std::hint::black_box(&row);
        });
        entry("kernels.zfp_fwd_transform", nb * 16, &mut || {
            for b in self.blocks.chunks_exact(64) {
                blk.copy_from_slice(b);
                (k.zfp_fwd_transform)(&mut blk, 3);
                std::hint::black_box(&blk);
            }
        });
        entry("kernels.zfp_inv_transform", nb * 16, &mut || {
            for b in self.blocks.chunks_exact(64) {
                blk.copy_from_slice(b);
                (k.zfp_inv_transform)(&mut blk, 3);
                std::hint::black_box(&blk);
            }
        });
        entry("kernels.bit_transpose", nb * 16, &mut || {
            for p in self.planes.chunks_exact(64) {
                plane.copy_from_slice(p);
                (k.bit_transpose64)(&mut plane);
                std::hint::black_box(&plane);
            }
        });
        let width = self.dtype.size();
        entry("kernels.min_max", n * width, &mut || match self.dtype {
            DType::F32 => {
                std::hint::black_box((k.min_max_f32)(&self.narrow));
            }
            DType::F64 => {
                std::hint::black_box((k.min_max_f64)(&self.vals));
            }
        });
    }
}
