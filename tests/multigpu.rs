//! Multi-GPU behaviour (paper §VI-E): dense nodes share one runtime;
//! the CMM determines whether allocation traffic serializes the devices.

use hpdr::{Codec, MgardConfig};
use hpdr_core::{ArrayMeta, CpuParallelAdapter, DType, DeviceAdapter, Reducer};
use hpdr_data::nyx_density;
use hpdr_pipeline::{
    average_scalability, compress_multi_gpu, decompress_multi_gpu, scalability_sweep,
    PipelineOptions,
};
use std::sync::Arc;

mod support;

#[allow(clippy::type_complexity)]
fn setup() -> (
    Arc<Vec<u8>>,
    ArrayMeta,
    Arc<dyn DeviceAdapter>,
    Arc<dyn Reducer>,
) {
    let d = nyx_density(24, 8);
    (
        Arc::new(d.bytes.clone()),
        ArrayMeta::new(DType::F32, d.shape.clone()),
        Arc::new(CpuParallelAdapter::new(4)),
        Codec::Mgard(MgardConfig::relative(1e-2)).reducer(),
    )
}

#[test]
fn six_gpu_summit_node_compresses_all_inputs() {
    let (input, meta, work, reducer) = setup();
    let inputs: Vec<_> = (0..6).map(|_| Arc::clone(&input)).collect();
    let (containers, report) = compress_multi_gpu(
        &hpdr_sim::spec::v100(),
        6,
        work,
        reducer,
        inputs,
        &meta,
        &PipelineOptions::fixed(32 * 1024),
    )
    .unwrap();
    assert_eq!(containers.len(), 6);
    assert_eq!(report.num_devices, 6);
    assert_eq!(report.input_bytes, input.len() as u64 * 6);
    // All devices produce identical streams for identical inputs.
    for c in &containers[1..] {
        assert_eq!(c.chunks, containers[0].chunks);
    }
    // Per-device overlap present on every device.
    for o in &report.overlaps {
        assert!(o.unwrap_or(0.0) > 0.1);
    }
}

#[test]
fn multi_gpu_runs_are_deterministic() {
    let (input, meta, work, reducer) = setup();
    let run = || {
        let inputs: Vec<_> = (0..3).map(|_| Arc::clone(&input)).collect();
        compress_multi_gpu(
            &hpdr_sim::spec::mi250x(),
            3,
            Arc::clone(&work),
            Arc::clone(&reducer),
            inputs,
            &meta,
            &PipelineOptions::fixed(48 * 1024),
        )
        .unwrap()
        .1
    };
    let a = run();
    let b = run();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.compressed_bytes, b.compressed_bytes);
}

#[test]
fn cmm_recovers_scalability_lost_to_the_shared_runtime() {
    let (input, meta, work, reducer) = setup();
    let cmm = scalability_sweep(
        &hpdr_sim::spec::v100(),
        6,
        Arc::clone(&work),
        Arc::clone(&reducer),
        Arc::clone(&input),
        &meta,
        &PipelineOptions::fixed(32 * 1024),
    )
    .unwrap();
    let nocmm = scalability_sweep(
        &hpdr_sim::spec::v100(),
        6,
        work,
        reducer,
        input,
        &meta,
        &PipelineOptions {
            cmm: false,
            ..PipelineOptions::fixed(32 * 1024)
        },
    )
    .unwrap();
    let g = average_scalability(&cmm);
    let b = average_scalability(&nocmm);
    assert!(g > b, "cmm {g:.3} vs no-cmm {b:.3}");
    // Paper's shape: optimized ≥ ~90%, unoptimized visibly below.
    assert!(g > 0.85, "cmm scalability {g:.3}");
    assert!(
        b < g - 0.02,
        "contention effect too small: {b:.3} vs {g:.3}"
    );
    // Scalability degrades (or stays flat) as devices are added when the
    // runtime lock is contended.
    let last = nocmm.last().unwrap().2;
    let first = nocmm.first().unwrap().2;
    assert!(last <= first + 1e-9);
}

#[test]
fn aggregate_throughput_grows_with_devices() {
    let (input, meta, work, reducer) = setup();
    let mut last = 0.0;
    for n in [1usize, 2, 4] {
        let inputs: Vec<_> = (0..n).map(|_| Arc::clone(&input)).collect();
        let (_, report) = compress_multi_gpu(
            &hpdr_sim::spec::v100(),
            n,
            Arc::clone(&work),
            Arc::clone(&reducer),
            inputs,
            &meta,
            &PipelineOptions::fixed(32 * 1024),
        )
        .unwrap();
        assert!(
            report.aggregate_gbps > last,
            "throughput did not grow at {n} devices"
        );
        last = report.aggregate_gbps;
    }
}

/// Digests of a 3-device node's compress and decompress launches:
/// containers, outputs, and both span traces without the wall clock.
fn node_digests(opts: &PipelineOptions) -> [u64; 4] {
    let (input, meta, work, reducer) = setup();
    let spec = hpdr_sim::spec::v100();
    let inputs = vec![Arc::clone(&input); 3];
    let (containers, comp) = compress_multi_gpu(
        &spec,
        3,
        Arc::clone(&work),
        Arc::clone(&reducer),
        inputs,
        &meta,
        opts,
    )
    .unwrap();
    let borrowed: Vec<_> = containers.iter().collect();
    let (outputs, decomp) = decompress_multi_gpu(&spec, 3, work, reducer, &borrowed, opts).unwrap();
    let bytes: Vec<u8> = containers.iter().flat_map(|c| c.to_bytes()).collect();
    [
        hpdr_core::fnv1a(&bytes),
        hpdr_core::fnv1a(&outputs.concat()),
        support::spans_digest(&comp.trace),
        support::spans_digest(&decomp.trace),
    ]
}

/// The multi-GPU DAGs, pinned op for op: recorded before every launch
/// went through one chunk-job path, in debug, release and under
/// `HPDR_FORCE_SCALAR=1`. Never re-recorded to make a change pass.
#[test]
fn multi_gpu_dags_match_golden() {
    assert_eq!(
        node_digests(&PipelineOptions::fixed(32 * 1024)),
        [
            0x233f30a3b0747f67,
            0x1c47b0ea7f507e4d,
            0x2274d6fe6dac59d4,
            0x3780cf164e592394
        ]
    );
    assert_eq!(
        node_digests(&PipelineOptions::baseline_per_step(16 * 1024)),
        [
            0x61d0f625f5b78c1b,
            0xc60aa8723f3a77e2,
            0xf036e410b31f7271,
            0x992a381b5b0770c4
        ]
    );
}
