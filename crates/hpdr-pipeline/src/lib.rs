//! # hpdr-pipeline — the Host-Device Execution Model (HDEM)
//!
//! Implements the paper's §V pipeline optimization: the 3-queue /
//! 2-buffer overlapped reduction & reconstruction DAGs (Fig. 9), the
//! roofline-driven adaptive chunk sizing (Algorithm 4, Fig. 11), and the
//! multi-GPU dispatcher whose scalability depends on the Context Memory
//! Model (Fig. 16).
//!
//! Pipelines execute on the `hpdr-sim` virtual-time machine: every DMA
//! and kernel is charged against calibrated engine models while the real
//! portable kernels run inside op payloads, so the output containers hold
//! real compressed bytes, and each run's span trace, the one record of
//! its executed ops, gives the overlap ratios and time breakdowns.
//!
//! Every launch goes through one job interface, [`ChunkJob`]: a
//! reduction, a reconstruction, or (from `hpdr-progressive`) a
//! progressive retrieval. One submission loop interleaves any set of
//! jobs into one simulator, so a single-device run ([`plan`]), a shared
//! serving launch ([`run_batch`]) and a multi-GPU node build their DAGs
//! one way, and every job rotates its chunks over queues and buffer sets
//! with [`Rotation`].

pub mod batch;
pub mod container;
pub mod multigpu;
pub mod roofline;
pub mod runner;

pub use batch::{run_batch, BatchItem, BatchOutput, BatchReport};
pub use container::{fixed_chunks, Container};
pub use multigpu::{
    average_scalability, compress_multi_gpu, decompress_multi_gpu, decompress_scalability_sweep,
    scalability_sweep, MultiGpuReport,
};
pub use roofline::{adaptive_chunks, default_sweep, fit, profile_kernel, theta, Roofline};
pub use runner::{
    compress_pipelined, decompress_pipelined, plan, plan_compress, plan_decompress, ChunkJob,
    PipelineMode, PipelineOptions, PipelineReport, Rotation,
};

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_core::{ArrayMeta, CpuParallelAdapter, DType, DeviceAdapter, Float, Reducer, Shape};
    use hpdr_mgard::{MgardConfig, MgardReducer};
    use hpdr_sim::spec::v100;
    use hpdr_zfp::{ZfpConfig, ZfpReducer};
    use std::sync::Arc;

    fn work() -> Arc<dyn DeviceAdapter> {
        Arc::new(CpuParallelAdapter::new(4))
    }

    /// A V100 with its saturation knees scaled down so test-size inputs
    /// (hundreds of KB) exercise the same saturated-DMA regime that
    /// paper-size inputs (hundreds of MB) exercise on the real spec.
    fn test_spec() -> hpdr_sim::DeviceSpec {
        let mut spec = v100();
        let shrink = |m: &mut hpdr_sim::ThroughputModel| {
            m.latency = hpdr_sim::Ns(200);
            m.saturate_bytes = (m.saturate_bytes / 16384).max(1);
        };
        shrink(&mut spec.h2d);
        shrink(&mut spec.d2h);
        for class in hpdr_sim::KernelClass::ALL {
            let mut m = *spec.kernel_model(class);
            shrink(&mut m);
            spec.set_kernel_model(class, m);
        }
        spec
    }

    fn nyx_small() -> (Arc<Vec<u8>>, ArrayMeta) {
        let d = hpdr_data::nyx_density(32, 3);
        (
            Arc::new(d.bytes.clone()),
            ArrayMeta::new(DType::F32, d.shape.clone()),
        )
    }

    fn mgard() -> Arc<dyn Reducer> {
        Arc::new(MgardReducer(MgardConfig::relative(1e-2)))
    }

    #[test]
    fn pipelined_compress_decompress_roundtrip() {
        let (input, meta) = nyx_small();
        let opts = PipelineOptions::fixed(64 * 1024);
        let (container, report) = compress_pipelined(
            &test_spec(),
            work(),
            mgard(),
            Arc::clone(&input),
            &meta,
            &opts,
        )
        .unwrap();
        assert!(report.num_chunks > 1);
        assert!(container.total_stream_bytes() < input.len() as u64);
        let (bytes, meta2, _) =
            decompress_pipelined(&test_spec(), work(), mgard(), &container, &opts).unwrap();
        assert_eq!(meta2, meta);
        let orig = f32::bytes_to_vec(&input);
        let out = f32::bytes_to_vec(&bytes);
        let range = {
            let mx = orig.iter().cloned().fold(f32::MIN, f32::max);
            let mn = orig.iter().cloned().fold(f32::MAX, f32::min);
            (mx - mn) as f64
        };
        let err = orig
            .iter()
            .zip(&out)
            .map(|(a, b)| (a - b).abs() as f64)
            .fold(0.0, f64::max);
        assert!(err <= 1e-2 * range * 1.01, "err {err}");
    }

    #[test]
    fn pipelined_equals_unpipelined_output_when_single_chunk() {
        let (input, meta) = nyx_small();
        let a = compress_pipelined(
            &test_spec(),
            work(),
            mgard(),
            Arc::clone(&input),
            &meta,
            &PipelineOptions::unpipelined(),
        )
        .unwrap()
        .0;
        let b = compress_pipelined(
            &test_spec(),
            work(),
            mgard(),
            Arc::clone(&input),
            &meta,
            &PipelineOptions::baseline_unoptimized(),
        )
        .unwrap()
        .0;
        // CMM / buffering choices must not change the bytes.
        assert_eq!(a.chunks, b.chunks);
    }

    #[test]
    fn overlap_improves_with_pipelining() {
        let (input, meta) = nyx_small();
        let none = compress_pipelined(
            &test_spec(),
            work(),
            mgard(),
            Arc::clone(&input),
            &meta,
            &PipelineOptions::unpipelined(),
        )
        .unwrap()
        .1;
        let fixed = compress_pipelined(
            &test_spec(),
            work(),
            mgard(),
            Arc::clone(&input),
            &meta,
            &PipelineOptions::fixed(16 * 1024),
        )
        .unwrap()
        .1;
        assert!(
            none.overlap.unwrap_or(0.0) < 1e-9,
            "unpipelined must not overlap"
        );
        assert!(
            fixed.overlap.unwrap_or(0.0) > 0.3,
            "pipelined overlap too low: {:?}",
            fixed.overlap
        );
        assert!(fixed.end_to_end_gbps > none.end_to_end_gbps);
        assert!(fixed.makespan < none.makespan);
    }

    #[test]
    fn adaptive_beats_tiny_fixed_chunks() {
        let (input, meta) = nyx_small();
        // A device whose reduction kernel (6 GB/s) is slower than its
        // link (12 GB/s): Algorithm 4 must grow chunks toward the limit.
        let mut spec = test_spec();
        spec.set_kernel_model(
            hpdr_sim::KernelClass::Mgard,
            hpdr_sim::ThroughputModel::flat(6.0),
        );
        let tiny = compress_pipelined(
            &spec,
            work(),
            mgard(),
            Arc::clone(&input),
            &meta,
            &PipelineOptions::fixed(8 * 1024),
        )
        .unwrap()
        .1;
        let adaptive = compress_pipelined(
            &spec,
            work(),
            mgard(),
            Arc::clone(&input),
            &meta,
            &PipelineOptions {
                mode: PipelineMode::Adaptive {
                    init_bytes: 8 * 1024,
                    limit_bytes: 1 << 20,
                },
                ..Default::default()
            },
        )
        .unwrap()
        .1;
        assert!(adaptive.num_chunks < tiny.num_chunks);
        assert!(adaptive.end_to_end_gbps >= tiny.end_to_end_gbps * 0.95);
    }

    #[test]
    fn zfp_pipeline_roundtrip_exact_chunks() {
        let (input, meta) = nyx_small();
        let zfp: Arc<dyn Reducer> = Arc::new(ZfpReducer(ZfpConfig::fixed_rate(16)));
        let opts = PipelineOptions::fixed(32 * 1024);
        let (container, _) = compress_pipelined(
            &test_spec(),
            work(),
            Arc::clone(&zfp),
            Arc::clone(&input),
            &meta,
            &opts,
        )
        .unwrap();
        let (bytes, _, report) =
            decompress_pipelined(&test_spec(), work(), zfp, &container, &opts).unwrap();
        assert_eq!(bytes.len(), input.len());
        assert!(report.overlap.unwrap_or(0.0) > 0.1);
    }

    #[test]
    fn wrong_reducer_for_container_rejected() {
        let (input, meta) = nyx_small();
        let opts = PipelineOptions::fixed(32 * 1024);
        let (container, _) =
            compress_pipelined(&test_spec(), work(), mgard(), input, &meta, &opts).unwrap();
        let zfp: Arc<dyn Reducer> = Arc::new(ZfpReducer(ZfpConfig::fixed_rate(16)));
        assert!(decompress_pipelined(&test_spec(), work(), zfp, &container, &opts).is_err());
    }

    #[test]
    fn two_vs_three_buffers_same_bytes() {
        let (input, meta) = nyx_small();
        let two = PipelineOptions::fixed(32 * 1024);
        let three = PipelineOptions {
            two_buffers: false,
            ..two
        };
        let a = compress_pipelined(
            &test_spec(),
            work(),
            mgard(),
            Arc::clone(&input),
            &meta,
            &two,
        )
        .unwrap()
        .0;
        let b = compress_pipelined(
            &test_spec(),
            work(),
            mgard(),
            Arc::clone(&input),
            &meta,
            &three,
        )
        .unwrap()
        .0;
        assert_eq!(a.chunks, b.chunks);
    }

    #[test]
    fn no_cmm_adds_memory_management_time() {
        let (input, meta) = nyx_small();
        let with = compress_pipelined(
            &test_spec(),
            work(),
            mgard(),
            Arc::clone(&input),
            &meta,
            &PipelineOptions::fixed(32 * 1024),
        )
        .unwrap()
        .1;
        let without = compress_pipelined(
            &test_spec(),
            work(),
            mgard(),
            Arc::clone(&input),
            &meta,
            &PipelineOptions {
                cmm: false,
                ..PipelineOptions::fixed(32 * 1024)
            },
        )
        .unwrap()
        .1;
        assert!(without.makespan > with.makespan);
        assert!(without.memory_fraction > with.memory_fraction);
    }

    #[test]
    fn multigpu_cmm_scales_better_than_no_cmm() {
        let (input, meta) = nyx_small();
        let good = scalability_sweep(
            &v100(),
            4,
            work(),
            mgard(),
            Arc::clone(&input),
            &meta,
            &PipelineOptions::fixed(32 * 1024),
        )
        .unwrap();
        let bad = scalability_sweep(
            &v100(),
            4,
            work(),
            mgard(),
            input,
            &meta,
            &PipelineOptions {
                cmm: false,
                ..PipelineOptions::fixed(32 * 1024)
            },
        )
        .unwrap();
        let g = average_scalability(&good);
        let b = average_scalability(&bad);
        assert!(g > b, "cmm {g:.3} !> no-cmm {b:.3}");
        assert!(g > 0.85, "cmm scalability {g:.3}");
    }

    #[test]
    fn shape_helper_sanity() {
        // Guard the leading-dim chunking convention used by the runner.
        let meta = ArrayMeta::new(DType::F32, Shape::new(&[10, 6, 4]));
        assert_eq!(meta.shape.row_elements() * meta.dtype.size(), 96);
    }
}
