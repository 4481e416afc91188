//! Retrieval as a scheduled op DAG: fetch (H2D) → Huffman decode per
//! component, then one recomposition kernel and an output D2H, with
//! declared buffer effects so the static verifier and the dynamic
//! auditor certify every progressive plan exactly like the
//! compress/decompress pipelines.
//!
//! Components rotate through two staging buffers and three queues;
//! `H2D[k]` carries an anti-dependency on `decode[k − 2]` (the op that
//! last read its buffer), the same Fig. 9 discipline the pipeline
//! runner uses.

use crate::plan::{plan_fetch, FetchPlan};
use crate::refactoring::{level_counts, reconstruct_bytes, DecodeState, Refactoring};
use hpdr_core::{ArrayMeta, DeviceAdapter, HpdrError, KernelClass, LowestError, Result};
use hpdr_sim::{BufId, Cost, DeviceId, DeviceSpec, Effects, Engine, OpId, OpSpec, QueueId, Sim};
use parking_lot::Mutex;
use std::sync::Arc;

type OutputSlot = Arc<Mutex<Option<(Vec<u8>, ArrayMeta)>>>;

/// State shared between the DAG payloads of one retrieval.
pub struct RetrieveJob {
    pub dev: DeviceId,
    queues: [QueueId; 3],
    in_bufs: Vec<BufId>,
    out_buf: BufId,
    set: Arc<Refactoring>,
    plan: FetchPlan,
    level_counts: Vec<usize>,
    state: Arc<Mutex<DecodeState>>,
    work: Arc<dyn DeviceAdapter>,
    output: OutputSlot,
    error: Arc<LowestError>,
    decode_ops: Vec<OpId>,
    meta: ArrayMeta,
}

impl RetrieveJob {
    pub fn new(
        sim: &mut Sim,
        dev: DeviceId,
        work: Arc<dyn DeviceAdapter>,
        set: Arc<Refactoring>,
        tolerance: f64,
    ) -> Result<RetrieveJob> {
        if tolerance <= 0.0 || !tolerance.is_finite() {
            return Err(HpdrError::invalid("tolerance must be positive"));
        }
        let manifest = &set.manifest;
        let plan = plan_fetch(manifest, &vec![0; manifest.levels as usize], tolerance);
        let counts = level_counts(manifest)?;
        let meta = manifest.meta()?;
        let max_comp = plan
            .picks
            .iter()
            .map(|&i| set.components[i].len())
            .max()
            .unwrap_or(1);
        let queues = [sim.add_queue(), sim.add_queue(), sim.add_queue()];
        let in_bufs = (0..2).map(|_| sim.create_buffer(dev, max_comp)).collect();
        let out_buf = sim.create_buffer(dev, meta.num_bytes());
        Ok(RetrieveJob {
            dev,
            queues,
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
            meta,
        })
    }

    pub fn num_components(&self) -> usize {
        self.plan.picks.len()
    }

    /// Bytes the plan fetches (the job's transfer volume).
    pub fn planned_bytes(&self) -> u64 {
        self.plan.bytes
    }

    /// Guaranteed bound once the plan completes.
    pub fn bound(&self) -> f64 {
        self.plan.bound
    }

    /// Submit component `k`'s ops (fetch H2D → Huffman decode).
    pub fn submit_component(&mut self, sim: &mut Sim, k: usize) {
        let idx = self.plan.picks[k];
        let c = self.set.manifest.components[idx].clone();
        let blob_len = self.set.components[idx].len();
        let q = self.queues[k % 3];
        let n_buf = self.in_bufs.len();
        let in_buf = self.in_bufs[k % n_buf];

        // Buffer anti-dependency: the previous tenant of this staging
        // buffer must have been consumed before we overwrite it.
        let mut deps = Vec::new();
        if k >= n_buf {
            deps.push(self.decode_ops[k - n_buf]);
        }
        let set = Arc::clone(&self.set);
        let h2d = sim.push(
            OpSpec {
                engine: Engine::H2D(self.dev),
                queue: Some(q),
                deps,
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

    /// Submit the trailing recomposition + output copy (call after the
    /// last component).
    pub fn finish_submission(&mut self, sim: &mut Sim) {
        let set = Arc::clone(&self.set);
        let state = Arc::clone(&self.state);
        let work = Arc::clone(&self.work);
        let error = Arc::clone(&self.error);
        let out_buf = self.out_buf;
        let out_bytes = self.meta.num_bytes();
        let last = self.num_components();
        let rec = sim.push(
            OpSpec {
                engine: Engine::Compute(self.dev),
                queue: Some(self.queues[0]),
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
        let meta = self.meta.clone();
        sim.push(
            OpSpec {
                engine: Engine::D2H(self.dev),
                queue: Some(self.queues[0]),
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

    /// Collect the reconstructed bytes after `sim.run()`.
    pub fn finish(self) -> Result<(Vec<u8>, ArrayMeta)> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.output
            .lock()
            .take()
            .ok_or_else(|| HpdrError::invalid("retrieval payload never executed"))
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
    let mut sim = Sim::new();
    let rt = sim.add_runtime();
    let dev = sim.add_device(spec.clone(), rt);
    let mut job = RetrieveJob::new(&mut sim, dev, work, set, tolerance)?;
    for k in 0..job.num_components() {
        job.submit_component(&mut sim, k);
    }
    job.finish_submission(&mut sim);
    Ok(sim)
}
