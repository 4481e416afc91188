//! Multi-GPU dispatch (paper §VI-E, Fig. 16).
//!
//! All devices of a node share one runtime, so alloc/free ops serialize
//! on the runtime-lock engine. With the Context Memory Model enabled,
//! HPDR performs no per-chunk allocator traffic and scales near-ideally;
//! with it disabled (the comparators' behaviour), the shared lock
//! throttles every device. Chunk submissions are interleaved round-robin
//! across devices by `submit`, matching concurrent host threads
//! launching work.

use crate::container::Container;
use crate::runner::{
    node, submit, timed_run, ChunkJob, CompressJob, DecompressJob, Payloads, PipelineOptions,
};
use hpdr_core::{ArrayMeta, DeviceAdapter, Reducer, Result, WorkerPool};
use hpdr_sim::{DeviceId, DeviceSpec, Ns, Sim, Trace};
use std::sync::Arc;

/// Result of a multi-GPU run.
#[derive(Debug)]
pub struct MultiGpuReport {
    /// Total raw bytes across devices.
    pub input_bytes: u64,
    pub compressed_bytes: u64,
    pub makespan: Ns,
    /// Aggregate throughput (GB/s).
    pub aggregate_gbps: f64,
    /// Per-device overlap ratios (trace-derived, paper §V-C).
    pub overlaps: Vec<Option<f64>>,
    pub num_devices: usize,
    /// Span trace of the whole multi-device run (all devices share one
    /// virtual clock, so one trace covers the node).
    pub trace: Trace,
}

/// Build job `i` on device `i` of an `n`-device node, submit them all,
/// run the DAG on the serial executor (one participant), and read every
/// device's overlap off the trace.
fn run_node<'a, J: ChunkJob<'a>>(
    spec: &DeviceSpec,
    n: usize,
    mut new_job: impl FnMut(&mut Sim<'a>, DeviceId, usize) -> Result<J>,
) -> Result<(Vec<J>, Trace, Vec<Option<f64>>)> {
    let (mut sim, devices) = node(spec, n);
    let mut jobs = devices
        .iter()
        .enumerate()
        .map(|(i, &dev)| new_job(&mut sim, dev, i))
        .collect::<Result<Vec<J>>>()?;
    submit(&mut sim, &mut jobs.iter_mut().collect::<Vec<_>>());
    let serial = Payloads {
        pool: WorkerPool::global(),
        participants: 1,
    };
    let trace = timed_run(&mut sim, serial);
    let mut scratch = hpdr_trace::DigestScratch::default();
    let overlaps = devices
        .iter()
        .map(|&d| hpdr_trace::digest_with(&trace, d, &mut scratch).overlap)
        .collect();
    Ok((jobs, trace, overlaps))
}

impl MultiGpuReport {
    fn new(
        input_bytes: u64,
        compressed_bytes: u64,
        trace: Trace,
        overlaps: Vec<Option<f64>>,
    ) -> MultiGpuReport {
        let makespan = trace.makespan();
        MultiGpuReport {
            input_bytes,
            compressed_bytes,
            makespan,
            aggregate_gbps: hpdr_sim::gbps(input_bytes, makespan),
            num_devices: overlaps.len(),
            overlaps,
            trace,
        }
    }
}

/// Compress one array per device, all devices sharing a runtime.
/// Returns the per-device containers and the aggregate report.
pub fn compress_multi_gpu(
    spec: &DeviceSpec,
    n_devices: usize,
    work: Arc<dyn DeviceAdapter>,
    reducer: Arc<dyn Reducer>,
    inputs: Vec<Arc<Vec<u8>>>,
    meta: &ArrayMeta,
    opts: &PipelineOptions,
) -> Result<(Vec<Container>, MultiGpuReport)> {
    assert_eq!(inputs.len(), n_devices, "one input per device");
    let input_bytes = inputs.iter().map(|i| i.len() as u64).sum();
    let (jobs, trace, overlaps) = run_node(spec, n_devices, |sim, dev, i| {
        let (reducer, work) = (Arc::clone(&reducer), Arc::clone(&work));
        let input = Arc::clone(&inputs[i]);
        CompressJob::new(sim, dev, reducer, work, input, meta.clone(), *opts)
    })?;
    let containers: Vec<Container> = jobs
        .into_iter()
        .map(CompressJob::into_container)
        .collect::<Result<_>>()?;
    let compressed_bytes = containers.iter().map(|c| c.total_stream_bytes()).sum();
    let report = MultiGpuReport::new(input_bytes, compressed_bytes, trace, overlaps);
    Ok((containers, report))
}

/// Reconstruct one container per device, all devices sharing a runtime.
pub fn decompress_multi_gpu(
    spec: &DeviceSpec,
    n_devices: usize,
    work: Arc<dyn DeviceAdapter>,
    reducer: Arc<dyn Reducer>,
    containers: &[&Container],
    opts: &PipelineOptions,
) -> Result<(Vec<Vec<u8>>, MultiGpuReport)> {
    assert_eq!(containers.len(), n_devices, "one container per device");
    let compressed_bytes = containers.iter().map(|c| c.total_stream_bytes()).sum();
    let (jobs, trace, overlaps) = run_node(spec, n_devices, |sim, dev, i| {
        let (reducer, work) = (Arc::clone(&reducer), Arc::clone(&work));
        DecompressJob::new(sim, dev, reducer, work, containers[i], *opts)
    })?;
    let outputs: Vec<Vec<u8>> = jobs
        .into_iter()
        .map(|job| job.into_output().map(|(bytes, _)| bytes))
        .collect::<Result<_>>()?;
    let input_bytes = outputs.iter().map(|o| o.len() as u64).sum();
    let report = MultiGpuReport::new(input_bytes, compressed_bytes, trace, overlaps);
    Ok((outputs, report))
}

/// Scalability study: run 1..=max_devices and report
/// `(devices, aggregate_gbps, real_to_ideal_ratio)` — the paper's
/// Fig. 16 metric, where ideal speed is `single-device × N`. Every device
/// compresses `input`.
pub fn scalability_sweep(
    spec: &DeviceSpec,
    max_devices: usize,
    work: Arc<dyn DeviceAdapter>,
    reducer: Arc<dyn Reducer>,
    input: Arc<Vec<u8>>,
    meta: &ArrayMeta,
    opts: &PipelineOptions,
) -> Result<Vec<(usize, f64, f64)>> {
    sweep(max_devices, |n| {
        let (work, reducer) = (Arc::clone(&work), Arc::clone(&reducer));
        let inputs = vec![Arc::clone(&input); n];
        compress_multi_gpu(spec, n, work, reducer, inputs, meta, opts).map(|(_, r)| r)
    })
}

/// Fig. 16's decompression counterpart of [`scalability_sweep`]: every
/// device reconstructs `container`.
pub fn decompress_scalability_sweep(
    spec: &DeviceSpec,
    max_devices: usize,
    work: Arc<dyn DeviceAdapter>,
    reducer: Arc<dyn Reducer>,
    container: &Container,
    opts: &PipelineOptions,
) -> Result<Vec<(usize, f64, f64)>> {
    sweep(max_devices, |n| {
        let (work, reducer) = (Arc::clone(&work), Arc::clone(&reducer));
        decompress_multi_gpu(spec, n, work, reducer, &vec![container; n], opts).map(|(_, r)| r)
    })
}

fn sweep(
    max_devices: usize,
    mut run: impl FnMut(usize) -> Result<MultiGpuReport>,
) -> Result<Vec<(usize, f64, f64)>> {
    let mut out = Vec::new();
    let mut single = 0.0f64;
    for n in 1..=max_devices {
        let gbps = run(n)?.aggregate_gbps;
        if n == 1 {
            single = gbps;
        }
        let ideal = single * n as f64;
        out.push((n, gbps, gbps / ideal));
    }
    Ok(out)
}

/// Average real-to-ideal ratio of a sweep (the number the paper quotes:
/// "96% avg. scalability").
pub fn average_scalability(sweep: &[(usize, f64, f64)]) -> f64 {
    if sweep.is_empty() {
        return 0.0;
    }
    sweep.iter().map(|&(_, _, r)| r).sum::<f64>() / sweep.len() as f64
}
