//! Shared pipeline launches: many small jobs, one device, one `Sim`.
//!
//! The serving layer batches small requests into a single launch so the
//! per-launch fixed costs (runtime setup, kernel-launch latency ramps)
//! are paid once, and so chunks of *different* jobs overlap on the
//! device's H2D/compute/D2H engines exactly like chunks of one large
//! array do in Fig. 9. This module provides that launch primitive:
//! [`run_batch`] submits every job's chunk DAG round-robin into one
//! simulator (the multi-GPU dispatcher's interleave pattern, collapsed
//! onto a single device) and returns per-job results plus the shared
//! span trace, so callers can attribute virtual time back to each job.

use crate::container::Container;
use crate::runner::{timed_run, CompressJob, DecompressJob, Payloads, PipelineOptions};
use hpdr_core::{ArrayMeta, DeviceAdapter, HpdrError, Reducer, Result};
use hpdr_sim::{DeviceId, DeviceSpec, Ns, Sim, Trace};
use std::sync::Arc;

/// A job type foreign to this crate that rides in a shared launch —
/// e.g. progressive retrieval from `hpdr-progressive` (which sits
/// *above* this crate in the dependency graph, so the batch primitive
/// takes it through this trait instead of naming it). The item builds
/// its own op DAG into the shared simulator and surfaces restored
/// bytes like a decompress job.
pub trait ExternalBatchJob {
    /// Bytes on the uncompressed side (the goodput numerator).
    fn raw_bytes(&self) -> u64;
    /// Construct the job's per-launch state in the shared simulator.
    fn build(
        &self,
        sim: &mut Sim,
        dev: DeviceId,
        work: Arc<dyn DeviceAdapter>,
    ) -> Result<Box<dyn SubmittedBatchJob>>;
}

/// An external job after construction: chunk submission hooks mirror
/// [`CompressJob`]/[`DecompressJob`] so `run_batch` interleaves it
/// round-robin like any native job.
pub trait SubmittedBatchJob {
    fn num_chunks(&self) -> usize;
    fn submit_chunk(&mut self, sim: &mut Sim, k: usize);
    /// Trailing ops after the last chunk (gather/output stages).
    fn finish_submission(&mut self, sim: &mut Sim);
    /// Collect the restored bytes after `sim.run()`.
    fn finish(self: Box<Self>) -> Result<(Vec<u8>, ArrayMeta)>;
}

/// One job in a shared launch.
pub enum BatchItem {
    Compress {
        reducer: Arc<dyn Reducer>,
        input: Arc<Vec<u8>>,
        meta: ArrayMeta,
    },
    Decompress {
        reducer: Arc<dyn Reducer>,
        container: Container,
    },
    External(Box<dyn ExternalBatchJob>),
}

impl BatchItem {
    /// Bytes on the uncompressed side (the goodput numerator).
    pub fn raw_bytes(&self) -> u64 {
        match self {
            BatchItem::Compress { input, .. } => input.len() as u64,
            BatchItem::Decompress { container, .. } => container.meta.num_bytes() as u64,
            BatchItem::External(job) => job.raw_bytes(),
        }
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

enum JobState<'a> {
    Compress(CompressJob),
    Decompress(DecompressJob<'a>),
    External(Box<dyn SubmittedBatchJob>),
    /// Construction failed; the error is already in the output slot.
    Failed,
}

impl JobState<'_> {
    fn num_chunks(&self) -> usize {
        match self {
            JobState::Compress(j) => j.num_chunks(),
            JobState::Decompress(job) => job.num_chunks(),
            JobState::External(job) => job.num_chunks(),
            JobState::Failed => 0,
        }
    }
}

/// Run `items` as one shared launch on a single simulated device.
///
/// Per-job failures (bad metadata, corrupt stream) land in that job's
/// result slot without sinking the rest of the batch; only systemic
/// failures (a poisoned simulator) return `Err` at the top level.
pub fn run_batch(
    spec: &DeviceSpec,
    work: Arc<dyn DeviceAdapter>,
    items: Vec<BatchItem>,
    opts: &PipelineOptions,
) -> Result<(Vec<Result<BatchOutput>>, BatchReport)> {
    if items.is_empty() {
        return Ok((
            Vec::new(),
            BatchReport {
                makespan: Ns::ZERO,
                raw_bytes: 0,
                num_chunks: 0,
                trace: Trace::default(),
            },
        ));
    }
    let raw_bytes: u64 = items.iter().map(BatchItem::raw_bytes).sum();
    let mut sim = Sim::new();
    let rt = sim.add_runtime();
    let dev = sim.add_device(spec.clone(), rt);

    let mut outputs: Vec<Option<Result<BatchOutput>>> = Vec::with_capacity(items.len());
    let mut jobs: Vec<JobState> = Vec::with_capacity(items.len());
    for item in &items {
        match item {
            BatchItem::Compress {
                reducer,
                input,
                meta,
            } => match CompressJob::new(
                &mut sim,
                dev,
                Arc::clone(reducer),
                Arc::clone(&work),
                Arc::clone(input),
                meta.clone(),
                *opts,
            ) {
                Ok(job) => {
                    jobs.push(JobState::Compress(job));
                    outputs.push(None);
                }
                Err(e) => {
                    jobs.push(JobState::Failed);
                    outputs.push(Some(Err(e)));
                }
            },
            BatchItem::Decompress { reducer, container } => match DecompressJob::new(
                &mut sim,
                dev,
                Arc::clone(reducer),
                Arc::clone(&work),
                container,
                *opts,
            ) {
                Ok(job) => {
                    jobs.push(JobState::Decompress(job));
                    outputs.push(None);
                }
                Err(e) => {
                    jobs.push(JobState::Failed);
                    outputs.push(Some(Err(e)));
                }
            },
            BatchItem::External(ext) => match ext.build(&mut sim, dev, Arc::clone(&work)) {
                Ok(job) => {
                    jobs.push(JobState::External(job));
                    outputs.push(None);
                }
                Err(e) => {
                    jobs.push(JobState::Failed);
                    outputs.push(Some(Err(e)));
                }
            },
        }
    }

    // Round-robin chunk submission across jobs — the interleave that
    // lets job B's H2D ride under job A's compute.
    let max_chunks = jobs.iter().map(JobState::num_chunks).max().unwrap_or(0);
    let mut total_chunks = 0usize;
    for k in 0..max_chunks {
        for state in &mut jobs {
            if k >= state.num_chunks() {
                continue;
            }
            total_chunks += 1;
            match state {
                JobState::Compress(job) => job.submit_chunk(&mut sim, k),
                JobState::Decompress(job) => job.submit_chunk(&mut sim, k),
                JobState::External(job) => job.submit_chunk(&mut sim, k),
                JobState::Failed => unreachable!("failed jobs have zero chunks"),
            }
        }
    }
    for state in &mut jobs {
        match state {
            JobState::Decompress(job) => job.finish_submission(&mut sim),
            JobState::External(job) => job.finish_submission(&mut sim),
            _ => {}
        }
    }

    let trace = timed_run(&mut sim, Payloads::for_adapter(work.as_ref()));

    for (state, slot) in jobs.into_iter().zip(outputs.iter_mut()) {
        match state {
            JobState::Compress(job) => {
                *slot = Some(job.finish().map(BatchOutput::Compressed));
            }
            JobState::Decompress(job) => {
                *slot = Some(
                    job.finish()
                        .map(|(bytes, meta)| BatchOutput::Restored(bytes, meta)),
                );
            }
            JobState::External(job) => {
                *slot = Some(
                    job.finish()
                        .map(|(bytes, meta)| BatchOutput::Restored(bytes, meta)),
                );
            }
            JobState::Failed => debug_assert!(slot.is_some()),
        }
    }
    let results = outputs
        .into_iter()
        .map(|slot| slot.ok_or_else(|| HpdrError::invalid("batch job produced no result")))
        .map(|r| r.and_then(|inner| inner))
        .collect();
    Ok((
        results,
        BatchReport {
            makespan: trace.makespan(),
            raw_bytes,
            num_chunks: total_chunks,
            trace,
        },
    ))
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
            .map(|(input, meta)| BatchItem::Compress {
                reducer: zfp(),
                input: Arc::clone(input),
                meta: meta.clone(),
            })
            .collect();
        let (results, report) = run_batch(&spec, work(), items, &opts).unwrap();
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
            BatchItem::Compress {
                reducer: zfp(),
                input: Arc::clone(&input),
                meta: meta.clone(),
            },
            BatchItem::Decompress {
                reducer: zfp(),
                container,
            },
        ];
        let (mut results, report) = run_batch(&spec, work(), items, &opts).unwrap();
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
        let items = vec![
            BatchItem::Compress {
                reducer: Arc::new(ByteHuffmanReducer::default()),
                input: Arc::clone(&input),
                meta: bad_meta,
            },
            BatchItem::Compress {
                reducer: Arc::new(ByteHuffmanReducer::default()),
                input: Arc::clone(&input),
                meta,
            },
        ];
        let (results, _) = run_batch(&spec, work(), items, &opts).unwrap();
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
        )
        .unwrap();
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
            .map(|(input, meta)| BatchItem::Compress {
                reducer: zfp(),
                input: Arc::clone(input),
                meta: meta.clone(),
            })
            .collect();
        let (_, shared) = run_batch(&spec, work(), items, &opts).unwrap();
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
