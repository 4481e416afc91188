//! Retrieval as a scheduled op DAG: fetch (H2D) → Huffman decode per
//! component, then one recomposition kernel and an output D2H, with
//! declared buffer effects so the static verifier and the dynamic
//! auditor certify every progressive plan exactly like the
//! compress/decompress pipelines.
//!
//! A retrieval is a [`ChunkJob`] whose chunks are its planned
//! components, so it rides in shared launches and plans like any other
//! job. Components rotate through two staging buffers and three queues
//! with the pipeline runner's [`Rotation`]: `H2D[k]` carries an
//! anti-dependency on `decode[k − 2]` (the op that last read its
//! buffer), the same Fig. 9 discipline.

use crate::plan::{plan_fetch, FetchPlan};
use crate::refactoring::{level_counts, reconstruct_bytes, DecodeState, Refactoring};
use hpdr_core::{ArrayMeta, DeviceAdapter, HpdrError, KernelClass, LowestError, Result};
use hpdr_pipeline::{BatchItem, BatchOutput, ChunkJob, Rotation};
use hpdr_sim::{BufId, Cost, DeviceId, DeviceSpec, Effects, Engine, OpId, OpSpec, Sim};
use parking_lot::Mutex;
use std::sync::Arc;

type OutputSlot = Arc<Mutex<Option<(Vec<u8>, ArrayMeta)>>>;

/// State shared between the DAG payloads of one retrieval.
pub struct RetrieveJob {
    dev: DeviceId,
    rotation: Rotation,
    in_bufs: Vec<BufId>,
    out_buf: BufId,
    set: Arc<Refactoring>,
    plan: Arc<FetchPlan>,
    level_counts: Vec<usize>,
    state: Arc<Mutex<DecodeState>>,
    work: Arc<dyn DeviceAdapter>,
    output: OutputSlot,
    error: Arc<LowestError>,
    decode_ops: Vec<OpId>,
}

impl RetrieveJob {
    /// Fetch and decode the components `plan` picks from `set`, then
    /// recompose.
    pub fn new(
        sim: &mut Sim,
        dev: DeviceId,
        work: Arc<dyn DeviceAdapter>,
        set: Arc<Refactoring>,
        plan: Arc<FetchPlan>,
    ) -> Result<RetrieveJob> {
        if plan.tolerance <= 0.0 || !plan.tolerance.is_finite() {
            return Err(HpdrError::invalid("tolerance must be positive"));
        }
        let manifest = &set.manifest;
        let counts = level_counts(manifest)?;
        let max_comp = plan
            .picks
            .iter()
            .map(|&i| set.components[i].len())
            .max()
            .unwrap_or(1);
        // Two staging buffers with anti-dependencies, three queues.
        let rotation = Rotation::new(sim, true, false);
        let in_bufs = (0..rotation.sets())
            .map(|_| sim.create_buffer(dev, max_comp))
            .collect();
        let out_buf = sim.create_buffer(dev, manifest.meta.num_bytes());
        Ok(RetrieveJob {
            dev,
            rotation,
            in_bufs,
            out_buf,
            state: Arc::new(Mutex::new(DecodeState::new(manifest))),
            plan,
            level_counts: counts,
            set,
            work,
            output: Arc::new(Mutex::new(None)),
            error: Arc::new(LowestError::default()),
            decode_ops: Vec::new(),
        })
    }

    /// A retrieval as a member of a shared launch.
    pub fn batch_item<'a>(set: Arc<Refactoring>, plan: Arc<FetchPlan>) -> BatchItem<'a> {
        let raw_bytes = set.manifest.meta.num_bytes() as u64;
        BatchItem::new(raw_bytes, move |sim, dev, work, _| {
            Ok(Box::new(RetrieveJob::new(sim, dev, work, set, plan)?))
        })
    }

    /// Collect the reconstructed bytes after `sim.run()`.
    pub fn into_output(self) -> Result<(Vec<u8>, ArrayMeta)> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.output
            .lock()
            .take()
            .ok_or_else(|| HpdrError::invalid("retrieval payload never executed"))
    }
}

impl<'a> ChunkJob<'a> for RetrieveJob {
    fn num_chunks(&self) -> usize {
        self.plan.picks.len()
    }

    /// Component `k`'s ops (fetch H2D → Huffman decode).
    fn submit_chunk(&mut self, sim: &mut Sim<'a>, k: usize) {
        let idx = self.plan.picks[k];
        let c = self.set.manifest.components[idx].clone();
        let blob_len = self.set.components[idx].len();
        let q = self.rotation.queue(k);
        let in_buf = self.in_bufs[self.rotation.set(k)];

        // The fetch waits until the previous tenant of its staging
        // buffer has been decoded.
        let set = Arc::clone(&self.set);
        let h2d = sim.push(
            OpSpec {
                engine: Engine::H2D(self.dev),
                queue: Some(q),
                deps: self.rotation.anti_dep(k, &self.decode_ops),
                cost: Cost::Transfer {
                    bytes: blob_len as u64,
                },
                label: format!("F[{k}:c{}.{}]", c.level, c.plane),
                effects: Effects::write(in_buf),
            },
            Some(Box::new(move |pool| {
                pool.resize(in_buf, blob_len);
                pool.get_mut(in_buf).copy_from_slice(&set.components[idx]);
            })),
        );

        let state = Arc::clone(&self.state);
        let work = Arc::clone(&self.work);
        let error = Arc::clone(&self.error);
        let nodes = self.level_counts[c.level as usize];
        let decode = sim.push(
            OpSpec {
                engine: Engine::Compute(self.dev),
                queue: Some(q),
                deps: vec![h2d],
                cost: Cost::Kernel {
                    class: KernelClass::Huffman,
                    bytes: blob_len as u64,
                },
                label: format!("Dec[{k}:c{}.{}]", c.level, c.plane),
                effects: Effects::read(in_buf),
            },
            Some(Box::new(move |pool| {
                let blob: Vec<u8> = pool.get(in_buf)[..blob_len].to_vec();
                let result = hpdr_huffman::decompress_u32(work.as_ref(), &blob)
                    .and_then(|decoded| state.lock().apply(c.level, c.plane, &decoded, nodes));
                if let Err(e) = result {
                    error.record(k, e);
                }
            })),
        );
        self.decode_ops.push(decode);
    }

    /// The trailing recomposition + output copy.
    fn finish_submission(&mut self, sim: &mut Sim<'a>) {
        let set = Arc::clone(&self.set);
        let state = Arc::clone(&self.state);
        let work = Arc::clone(&self.work);
        let error = Arc::clone(&self.error);
        let out_buf = self.out_buf;
        let out_bytes = self.set.manifest.meta.num_bytes();
        let last = self.plan.picks.len();
        let rec = sim.push(
            OpSpec {
                engine: Engine::Compute(self.dev),
                queue: Some(self.rotation.queue(0)),
                deps: self.decode_ops.clone(),
                cost: Cost::Kernel {
                    class: KernelClass::Mgard,
                    bytes: out_bytes as u64,
                },
                label: "Rec".to_string(),
                effects: Effects::write(out_buf),
            },
            Some(Box::new(move |pool| {
                match reconstruct_bytes(work.as_ref(), &set.manifest, &state.lock()) {
                    Ok((bytes, _)) => {
                        pool.resize(out_buf, bytes.len());
                        pool.get_mut(out_buf).copy_from_slice(&bytes);
                    }
                    Err(e) => error.record(last, e),
                }
            })),
        );
        let output = Arc::clone(&self.output);
        let meta = self.set.manifest.meta.clone();
        sim.push(
            OpSpec {
                engine: Engine::D2H(self.dev),
                queue: Some(self.rotation.queue(0)),
                deps: vec![rec],
                cost: Cost::Transfer {
                    bytes: out_bytes as u64,
                },
                label: "D2Hout".to_string(),
                effects: Effects::read(out_buf),
            },
            Some(Box::new(move |pool| {
                *output.lock() = Some((pool.get(out_buf).to_vec(), meta));
            })),
        );
    }

    fn finish(self: Box<Self>) -> Result<BatchOutput> {
        let (bytes, meta) = self.into_output()?;
        Ok(BatchOutput::Restored(bytes, meta))
    }
}

/// Build and submit a full retrieval DAG **without executing it** —
/// the schedule goes to [`hpdr_sim::Sim::dag`] for offline
/// verification and auditing, exactly like `plan_compress`.
pub fn plan_retrieve(
    spec: &DeviceSpec,
    work: Arc<dyn DeviceAdapter>,
    set: Arc<Refactoring>,
    tolerance: f64,
) -> Result<Sim<'static>> {
    let fetch = Arc::new(plan_fetch(&set.manifest, &[], tolerance));
    let (sim, _) = hpdr_pipeline::plan(spec, |sim, dev| {
        RetrieveJob::new(sim, dev, work, set, fetch)
    })?;
    Ok(sim)
}
