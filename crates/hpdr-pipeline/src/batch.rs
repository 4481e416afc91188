//! Shared pipeline launches: many small jobs, one device, one `Sim`.
//!
//! The serving layer batches small requests into a single launch so the
//! per-launch fixed costs (runtime setup, kernel-launch latency ramps)
//! are paid once, and so chunks of *different* jobs overlap on the
//! device's H2D/compute/D2H engines exactly like chunks of one large
//! array do in Fig. 9. This module provides that launch primitive:
//! [`run_batch`] builds every member's [`ChunkJob`] in one simulator,
//! submits them together (the multi-GPU dispatcher's interleave,
//! collapsed onto a single device) and returns per-job results plus the
//! shared span trace, so callers can attribute virtual time back to each
//! job.

use crate::container::Container;
use crate::runner::{
    node, submit, timed_run, ChunkJob, CompressJob, DecompressJob, Payloads, PipelineOptions,
};
use hpdr_core::{ArrayMeta, DeviceAdapter, Reducer, Result};
use hpdr_sim::{DeviceId, DeviceSpec, Ns, Sim, Trace};
use std::sync::Arc;

/// A launch member's job, built in the launch's simulator.
type MemberJob<'a> = Box<dyn ChunkJob<'a> + 'a>;

type Build<'a> = Box<
    dyn FnOnce(
            &mut Sim<'a>,
            DeviceId,
            Arc<dyn DeviceAdapter>,
            &PipelineOptions,
        ) -> Result<MemberJob<'a>>
        + 'a,
>;

/// One job in a shared launch: its uncompressed size and how to build
/// its [`ChunkJob`] on the launch's device.
pub struct BatchItem<'a> {
    /// Bytes on the uncompressed side (the goodput numerator).
    raw_bytes: u64,
    build: Build<'a>,
}

impl<'a> BatchItem<'a> {
    /// A member whose job `build` constructs: how a crate above this one
    /// (progressive retrieval) adds a job kind.
    pub fn new(
        raw_bytes: u64,
        build: impl FnOnce(
                &mut Sim<'a>,
                DeviceId,
                Arc<dyn DeviceAdapter>,
                &PipelineOptions,
            ) -> Result<MemberJob<'a>>
            + 'a,
    ) -> BatchItem<'a> {
        BatchItem {
            raw_bytes,
            build: Box::new(build),
        }
    }

    pub fn compress(
        reducer: Arc<dyn Reducer>,
        input: Arc<Vec<u8>>,
        meta: ArrayMeta,
    ) -> BatchItem<'a> {
        BatchItem::new(input.len() as u64, move |sim, dev, work, opts| {
            let job = CompressJob::new(sim, dev, reducer, work, input, meta, *opts)?;
            Ok(Box::new(job))
        })
    }

    /// Reconstruct `container`, which the launch borrows.
    pub fn decompress(reducer: Arc<dyn Reducer>, container: &'a Container) -> BatchItem<'a> {
        let raw_bytes = container.meta.num_bytes() as u64;
        BatchItem::new(raw_bytes, move |sim, dev, work, opts| {
            let job = DecompressJob::new(sim, dev, reducer, work, container, *opts)?;
            Ok(Box::new(job))
        })
    }
}

/// Per-job output of a shared launch.
pub enum BatchOutput {
    Compressed(Container),
    Restored(Vec<u8>, ArrayMeta),
}

/// Shared-launch accounting.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Virtual time of the whole launch (all jobs complete together).
    pub makespan: Ns,
    /// Uncompressed bytes moved across all jobs.
    pub raw_bytes: u64,
    /// Total chunks submitted across all jobs.
    pub num_chunks: usize,
    /// Span trace of the shared launch.
    pub trace: Trace,
}

impl BatchReport {
    /// Uncompressed throughput of the launch in GB/s of virtual time
    /// (1 byte/ns ⇒ bytes/ns is GB/s; 0 for an empty launch).
    pub fn goodput_gbps(&self) -> f64 {
        if self.makespan.is_zero() {
            0.0
        } else {
            self.raw_bytes as f64 / self.makespan.0 as f64
        }
    }
}

/// Run `items` as one shared launch on a single simulated device.
///
/// A job that cannot be built (bad metadata, wrong codec) keeps its
/// error in its own result slot and submits nothing; a job that fails at
/// run time (corrupt stream) reports it in its slot too. Neither sinks
/// the rest of the batch.
pub fn run_batch<'a>(
    spec: &DeviceSpec,
    work: Arc<dyn DeviceAdapter>,
    items: Vec<BatchItem<'a>>,
    opts: &PipelineOptions,
) -> (Vec<Result<BatchOutput>>, BatchReport) {
    let raw_bytes = items.iter().map(|item| item.raw_bytes).sum();
    let (mut sim, devices) = node(spec, 1);
    let mut jobs: Vec<Result<MemberJob<'a>>> = items
        .into_iter()
        .map(|item| (item.build)(&mut sim, devices[0], Arc::clone(&work), opts))
        .collect();
    let mut built: Vec<_> = jobs
        .iter_mut()
        .filter_map(|job| job.as_deref_mut().ok())
        .collect();
    let num_chunks = submit(&mut sim, &mut built);
    let trace = timed_run(&mut sim, Payloads::for_adapter(work.as_ref()));
    let results = jobs
        .into_iter()
        .map(|job| job.and_then(|job| job.finish()))
        .collect();
    let report = BatchReport {
        makespan: trace.makespan(),
        raw_bytes,
        num_chunks,
        trace,
    };
    (results, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_core::{CpuParallelAdapter, DType};
    use hpdr_huffman::ByteHuffmanReducer;
    use hpdr_zfp::{ZfpConfig, ZfpReducer};

    fn work() -> Arc<dyn DeviceAdapter> {
        Arc::new(CpuParallelAdapter::new(4))
    }

    fn item(side: usize, seed: u64) -> (Arc<Vec<u8>>, ArrayMeta) {
        let d = hpdr_data::nyx_density(side, seed);
        (
            Arc::new(d.bytes.clone()),
            ArrayMeta::new(DType::F32, d.shape.clone()),
        )
    }

    fn zfp() -> Arc<dyn Reducer> {
        Arc::new(ZfpReducer(ZfpConfig::fixed_rate(16)))
    }

    #[test]
    fn batched_outputs_match_solo_outputs() {
        let spec = hpdr_sim::v100();
        let opts = PipelineOptions::fixed(16 * 1024);
        let inputs: Vec<_> = (0..3).map(|s| item(16, s)).collect();
        let items = inputs
            .iter()
            .map(|(input, meta)| BatchItem::compress(zfp(), Arc::clone(input), meta.clone()))
            .collect();
        let (results, report) = run_batch(&spec, work(), items, &opts);
        assert_eq!(results.len(), 3);
        assert!(report.makespan > Ns::ZERO);
        assert!(report.num_chunks >= 3);
        for (r, (input, meta)) in results.into_iter().zip(&inputs) {
            let BatchOutput::Compressed(c) = r.unwrap() else {
                panic!("expected compressed output");
            };
            // Byte-identical to a solo pipelined run of the same job.
            let (solo, _) = crate::runner::compress_pipelined(
                &spec,
                work(),
                zfp(),
                Arc::clone(input),
                meta,
                &opts,
            )
            .unwrap();
            assert_eq!(c.chunks, solo.chunks);
        }
    }

    #[test]
    fn mixed_compress_decompress_roundtrip_in_one_launch() {
        let spec = hpdr_sim::v100();
        let opts = PipelineOptions::fixed(16 * 1024);
        let (input, meta) = item(16, 11);
        let (container, _) = crate::runner::compress_pipelined(
            &spec,
            work(),
            zfp(),
            Arc::clone(&input),
            &meta,
            &opts,
        )
        .unwrap();
        let items = vec![
            BatchItem::compress(zfp(), Arc::clone(&input), meta.clone()),
            BatchItem::decompress(zfp(), &container),
        ];
        let (mut results, report) = run_batch(&spec, work(), items, &opts);
        assert_eq!(report.raw_bytes, 2 * input.len() as u64);
        let BatchOutput::Restored(bytes, rmeta) = results.pop().unwrap().unwrap() else {
            panic!("expected restored output");
        };
        assert_eq!(rmeta, meta);
        assert_eq!(bytes.len(), input.len());
        assert!(matches!(
            results.pop().unwrap().unwrap(),
            BatchOutput::Compressed(_)
        ));
    }

    #[test]
    fn per_job_failure_does_not_sink_the_batch() {
        let spec = hpdr_sim::v100();
        let opts = PipelineOptions::fixed(16 * 1024);
        let (input, meta) = item(8, 1);
        let bad_meta = ArrayMeta::new(DType::F64, meta.shape.clone()); // wrong byte count
        let huffman = || Arc::new(ByteHuffmanReducer::default());
        let items = vec![
            BatchItem::compress(huffman(), Arc::clone(&input), bad_meta),
            BatchItem::compress(huffman(), Arc::clone(&input), meta),
        ];
        let (results, _) = run_batch(&spec, work(), items, &opts);
        assert!(results[0].is_err());
        assert!(results[1].is_ok());
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (results, report) = run_batch(
            &hpdr_sim::v100(),
            work(),
            Vec::new(),
            &PipelineOptions::default(),
        );
        assert!(results.is_empty());
        assert_eq!(report.makespan, Ns::ZERO);
    }

    #[test]
    fn batching_amortizes_virtual_time_over_solo_launches() {
        // N small jobs through one shared launch vs N solo launches:
        // the shared launch's makespan must beat the sum of the solos.
        let spec = hpdr_sim::v100();
        let opts = PipelineOptions::fixed(8 * 1024);
        let inputs: Vec<_> = (0..6).map(|s| item(12, s)).collect();
        let items = inputs
            .iter()
            .map(|(input, meta)| BatchItem::compress(zfp(), Arc::clone(input), meta.clone()))
            .collect();
        let (_, shared) = run_batch(&spec, work(), items, &opts);
        let solo_total: Ns = inputs
            .iter()
            .map(|(input, meta)| {
                crate::runner::compress_pipelined(
                    &spec,
                    work(),
                    zfp(),
                    Arc::clone(input),
                    meta,
                    &opts,
                )
                .unwrap()
                .1
                .makespan
            })
            .sum();
        assert!(
            shared.makespan < solo_total,
            "shared {} !< solo sum {}",
            shared.makespan,
            solo_total
        );
    }
}
