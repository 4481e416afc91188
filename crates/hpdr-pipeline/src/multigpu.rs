//! Multi-GPU dispatch (paper §VI-E, Fig. 16).
//!
//! All devices of a node share one runtime, so alloc/free ops serialize
//! on the runtime-lock engine. With the Context Memory Model enabled,
//! HPDR performs no per-chunk allocator traffic and scales near-ideally;
//! with it disabled (the comparators' behaviour), the shared lock
//! throttles every device. Chunk submissions are interleaved round-robin
//! across devices, matching concurrent host threads launching work.

use crate::container::Container;
use crate::runner::{CompressJob, DecompressJob, PipelineOptions};
use hpdr_core::{ArrayMeta, DeviceAdapter, Reducer, Result};
use hpdr_sim::{DeviceSpec, Ns, Sim, Trace};
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
    let mut sim = Sim::new();
    let rt = sim.add_runtime();
    let devices: Vec<_> = (0..n_devices)
        .map(|_| sim.add_device(spec.clone(), rt))
        .collect();
    let input_bytes: u64 = inputs.iter().map(|i| i.len() as u64).sum();

    let mut jobs: Vec<CompressJob> = devices
        .iter()
        .zip(inputs)
        .map(|(&dev, input)| {
            CompressJob::new(
                &mut sim,
                dev,
                Arc::clone(&reducer),
                Arc::clone(&work),
                input,
                meta.clone(),
                *opts,
            )
        })
        .collect::<Result<_>>()?;

    // Round-robin interleaved submission across devices (concurrent host
    // threads each driving one GPU).
    let max_chunks = jobs.iter().map(|j| j.num_chunks()).max().unwrap_or(0);
    for k in 0..max_chunks {
        for job in jobs.iter_mut() {
            if k < job.num_chunks() {
                job.submit_chunk(&mut sim, k);
            }
        }
    }
    sim.set_trace(true);
    let timeline = sim.run();
    let trace = sim.take_trace().expect("tracing was enabled");
    let makespan = timeline.makespan();
    let overlaps = devices
        .iter()
        .map(|&d| hpdr_trace::overlap_ratio(&trace, d))
        .collect();
    let containers: Vec<Container> = jobs
        .into_iter()
        .map(|j| j.finish())
        .collect::<Result<_>>()?;
    let compressed_bytes = containers.iter().map(|c| c.total_stream_bytes()).sum();
    Ok((
        containers,
        MultiGpuReport {
            input_bytes,
            compressed_bytes,
            makespan,
            aggregate_gbps: hpdr_sim::gbps(input_bytes, makespan),
            overlaps,
            num_devices: n_devices,
            trace,
        },
    ))
}

/// Reconstruct one container per device, all devices sharing a runtime.
pub fn decompress_multi_gpu(
    spec: &DeviceSpec,
    n_devices: usize,
    work: Arc<dyn DeviceAdapter>,
    reducer: Arc<dyn Reducer>,
    containers: &[Container],
    opts: &PipelineOptions,
) -> Result<(Vec<Vec<u8>>, MultiGpuReport)> {
    assert_eq!(containers.len(), n_devices, "one container per device");
    let mut sim = Sim::new();
    let rt = sim.add_runtime();
    let devices: Vec<_> = (0..n_devices)
        .map(|_| sim.add_device(spec.clone(), rt))
        .collect();
    let compressed_bytes: u64 = containers.iter().map(|c| c.total_stream_bytes()).sum();

    let mut jobs: Vec<DecompressJob> = devices
        .iter()
        .zip(containers)
        .map(|(&dev, container)| {
            DecompressJob::new(
                &mut sim,
                dev,
                Arc::clone(&reducer),
                Arc::clone(&work),
                container,
                *opts,
            )
        })
        .collect::<Result<_>>()?;

    let max_chunks = jobs.iter().map(|j| j.num_chunks()).max().unwrap_or(0);
    for k in 0..max_chunks {
        for job in jobs.iter_mut() {
            if k < job.num_chunks() {
                job.submit_chunk(&mut sim, k);
            }
        }
    }
    for job in jobs.iter_mut() {
        job.finish_submission(&mut sim);
    }
    sim.set_trace(true);
    let timeline = sim.run();
    let trace = sim.take_trace().expect("tracing was enabled");
    let makespan = timeline.makespan();
    let overlaps = devices
        .iter()
        .map(|&d| hpdr_trace::overlap_ratio(&trace, d))
        .collect();
    let mut outputs = Vec::with_capacity(n_devices);
    let mut input_bytes = 0u64;
    for job in jobs {
        let (bytes, _) = job.finish()?;
        input_bytes += bytes.len() as u64;
        outputs.push(bytes);
    }
    Ok((
        outputs,
        MultiGpuReport {
            input_bytes,
            compressed_bytes,
            makespan,
            aggregate_gbps: hpdr_sim::gbps(input_bytes, makespan),
            overlaps,
            num_devices: n_devices,
            trace,
        },
    ))
}

/// Fig. 16's decompression counterpart of [`scalability_sweep`].
pub fn decompress_scalability_sweep(
    spec: &DeviceSpec,
    max_devices: usize,
    work: Arc<dyn DeviceAdapter>,
    reducer: Arc<dyn Reducer>,
    container: &Container,
    opts: &PipelineOptions,
) -> Result<Vec<(usize, f64, f64)>> {
    let mut out = Vec::new();
    let mut single = 0.0f64;
    for n in 1..=max_devices {
        let containers: Vec<Container> = (0..n).map(|_| container.clone()).collect();
        let (_, report) = decompress_multi_gpu(
            spec,
            n,
            Arc::clone(&work),
            Arc::clone(&reducer),
            &containers,
            opts,
        )?;
        if n == 1 {
            single = report.aggregate_gbps;
        }
        let ideal = single * n as f64;
        out.push((n, report.aggregate_gbps, report.aggregate_gbps / ideal));
    }
    Ok(out)
}

/// Scalability study: run 1..=max_devices and report
/// `(devices, aggregate_gbps, real_to_ideal_ratio)` — the paper's
/// Fig. 16 metric, where ideal speed is `single-device × N`.
pub fn scalability_sweep(
    spec: &DeviceSpec,
    max_devices: usize,
    work: Arc<dyn DeviceAdapter>,
    reducer: Arc<dyn Reducer>,
    make_input: impl Fn() -> Arc<Vec<u8>>,
    meta: &ArrayMeta,
    opts: &PipelineOptions,
) -> Result<Vec<(usize, f64, f64)>> {
    let mut out = Vec::new();
    let mut single = 0.0f64;
    for n in 1..=max_devices {
        let inputs: Vec<Arc<Vec<u8>>> = (0..n).map(|_| make_input()).collect();
        let (_, report) = compress_multi_gpu(
            spec,
            n,
            Arc::clone(&work),
            Arc::clone(&reducer),
            inputs,
            meta,
            opts,
        )?;
        if n == 1 {
            single = report.aggregate_gbps;
        }
        let ideal = single * n as f64;
        out.push((n, report.aggregate_gbps, report.aggregate_gbps / ideal));
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
