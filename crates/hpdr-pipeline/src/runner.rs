//! The optimized reduction/reconstruction pipeline (paper §V, Fig. 9).
//!
//! Each chunk flows through one of **three queues** (the minimum depth by
//! Little's law): `H2D → Reduce → Serialize(D2H)` for reduction, and
//! `H2D → Deserialize(D2H) → Reconstruct → D2H` for reconstruction. The
//! H2D DMA, D2H DMA and compute engines each execute one op at a time, so
//! queue interleaving yields transfer/compute overlap exactly as on a
//! real device.
//!
//! Options reproduce the paper's design points and our ablations:
//!
//! * **two_buffers** — the dotted anti-dependencies of Fig. 9
//!   (`H2D(k+2)` waits on `S(k)`), which cut the required buffer sets
//!   from three to two;
//! * **cmm** — with the Context Memory Model *off*, every chunk issues
//!   device alloc/free ops through the shared runtime (the per-call
//!   allocation behaviour of the non-HPDR comparators);
//! * **deser_first** — the red-arrow launch-order swap: the next chunk's
//!   deserialization is issued before the previous chunk's output copy,
//!   since both contend for the D2H engine.
//!
//! Kernels execute *for real* inside op payloads (producing real
//! compressed bytes); engine occupancy is charged from the device's
//! calibrated cost models.

use crate::batch::BatchOutput;
use crate::container::{fixed_chunks, Container};
use crate::roofline::{adaptive_chunks, default_sweep, fit, profile_kernel, Roofline};
use hpdr_core::{ArrayMeta, DeviceAdapter, HpdrError, LowestError, Reducer, Result, WorkerPool};
use hpdr_sim::{
    BufId, Cost, DeviceId, DeviceSpec, Effects, Engine, Ns, OpId, OpSpec, QueueId, RuntimeStats,
    Sim, Trace,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Pipeline operating mode (paper Fig. 13's None / Fixed / Adaptive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PipelineMode {
    /// No overlap: the whole array moves and reduces as one block.
    Unpipelined,
    /// Fixed chunk size in bytes (paper uses 100 MB).
    Fixed { chunk_bytes: u64 },
    /// Algorithm 4: start small, grow by the roofline model.
    Adaptive { init_bytes: u64, limit_bytes: u64 },
}

/// Full pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    pub mode: PipelineMode,
    /// Fig. 9 anti-dependencies (2 buffer sets instead of 3).
    pub two_buffers: bool,
    /// Context Memory Model: reuse persistent buffers/contexts.
    pub cmm: bool,
    /// Reconstruction launch-order swap (red arrows in Fig. 9).
    pub deser_first: bool,
    /// Force all chunks through one queue and one buffer set: each chunk
    /// becomes a fully synchronous invocation, like calling a standalone
    /// compression tool once per time step (the comparators' behaviour).
    pub serial_queue: bool,
    /// Pay pageable host staging copies between the application buffer,
    /// the reduction buffer and the I/O buffer (paper §II-B — the
    /// overlooked overhead of the non-HPDR pipelines). HPDR registers
    /// pinned buffers and overlaps these, so its pipelines skip them.
    pub host_staging: bool,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            mode: PipelineMode::Adaptive {
                init_bytes: 16 << 20,
                limit_bytes: 1 << 30,
            },
            two_buffers: true,
            cmm: true,
            deser_first: true,
            serial_queue: false,
            host_staging: false,
        }
    }
}

impl PipelineOptions {
    pub fn unpipelined() -> Self {
        PipelineOptions {
            mode: PipelineMode::Unpipelined,
            ..Default::default()
        }
    }

    pub fn fixed(chunk_bytes: u64) -> Self {
        PipelineOptions {
            mode: PipelineMode::Fixed { chunk_bytes },
            ..Default::default()
        }
    }

    /// The comparator configuration: no overlap, per-call allocations,
    /// fully synchronous invocations.
    pub fn baseline_unoptimized() -> Self {
        PipelineOptions {
            mode: PipelineMode::Unpipelined,
            two_buffers: false,
            cmm: false,
            deser_first: false,
            serial_queue: true,
            host_staging: true,
        }
    }

    /// Comparator behaviour over a multi-step stream: one synchronous
    /// whole-buffer invocation per `step_bytes` of input.
    pub fn baseline_per_step(step_bytes: u64) -> Self {
        PipelineOptions {
            mode: PipelineMode::Fixed {
                chunk_bytes: step_bytes,
            },
            two_buffers: false,
            cmm: false,
            deser_first: false,
            serial_queue: true,
            host_staging: true,
        }
    }
}

/// Timing/throughput results of one pipelined run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    pub makespan: Ns,
    pub input_bytes: u64,
    pub compressed_bytes: u64,
    /// End-to-end throughput (raw bytes / makespan) in GB/s.
    pub end_to_end_gbps: f64,
    /// Paper §V-C overlap ratio (None if no DMA occurred), from the span
    /// trace's `hpdr_trace::Digest`. Virtual time.
    pub overlap: Option<f64>,
    /// Share of payload wall-clock time that ran beside another payload
    /// (None if no payload ran), via `hpdr_trace::wall_overlap_ratio`.
    /// Measured, not modeled: 0 when the payloads ran one at a time.
    pub overlap_wall: Option<f64>,
    /// Fraction of busy time spent on memory operations (Fig. 1 metric),
    /// from the trace's digest.
    pub memory_fraction: f64,
    pub num_chunks: usize,
    /// Span trace of the run, the one record of every executed op: feed
    /// it to `hpdr-trace` for Chrome export, critical paths, histograms.
    pub trace: Trace,
}

fn report_from(
    trace: Trace,
    dev: DeviceId,
    input_bytes: u64,
    compressed: u64,
    chunks: usize,
) -> PipelineReport {
    let makespan = trace.makespan();
    let digest = hpdr_trace::digest(&trace, dev);
    PipelineReport {
        makespan,
        input_bytes,
        compressed_bytes: compressed,
        end_to_end_gbps: hpdr_sim::gbps(input_bytes, makespan),
        overlap: digest.overlap,
        overlap_wall: hpdr_trace::wall_overlap_ratio(&trace),
        memory_fraction: digest.memory_fraction(),
        num_chunks: chunks,
        trace,
    }
}

/// Device allocations per invocation when the CMM is off. Calibrated to
/// the comparators' behaviour: MGARD-GPU v1.5 allocates the level
/// hierarchy (several buffers per level per dimension) on every call,
/// cuSZ/ZFP allocate workspace + codebook + output buffers. Frees are
/// issued lazily at the next invocation (and implicitly synchronize,
/// like `cudaFree`).
const NOCMM_ALLOCS: usize = 24;

/// A reconstruction reserves its host output up front only while the
/// container's claimed size is at most this many times its stream
/// bytes, so a forged header costs at most that much memory. A container
/// that expands further (long zero runs, very loose bounds) grows its
/// output as its chunks decode.
const PRESIZE_RATIO: usize = 64;

/// Resolve the chunk row schedule for an input.
fn chunk_schedule(
    spec: &DeviceSpec,
    reducer: &dyn Reducer,
    meta: &ArrayMeta,
    mode: PipelineMode,
) -> Vec<usize> {
    let total_rows = meta.shape.dims()[0];
    let row_bytes = meta.shape.row_elements() * meta.dtype.size();
    match mode {
        PipelineMode::Unpipelined => vec![total_rows],
        PipelineMode::Fixed { chunk_bytes } => {
            fixed_chunks(total_rows, row_bytes, chunk_bytes as usize)
        }
        PipelineMode::Adaptive {
            init_bytes,
            limit_bytes,
        } => {
            let model: Roofline = fit(
                &profile_kernel(spec, reducer.kernel_class(), &default_sweep()),
                0.9,
            );
            adaptive_chunks(
                total_rows,
                row_bytes,
                init_bytes,
                limit_bytes,
                &model,
                spec.h2d.saturated_gbps,
            )
        }
    }
}

/// One chunked HDEM job on one device: a reduction, a reconstruction or
/// a progressive retrieval. `submit` interleaves any set of them into
/// one [`Sim`], so single-device runs, plans, shared launches and
/// multi-GPU nodes all build their DAGs one way.
pub trait ChunkJob<'a> {
    /// Chunks the job submits (a retrieval's components).
    fn num_chunks(&self) -> usize;
    /// Submit chunk `k`'s ops; a job's chunks are submitted in order.
    fn submit_chunk(&mut self, sim: &mut Sim<'a>, k: usize);
    /// Submit the ops that follow the last chunk (none by default).
    fn finish_submission(&mut self, _sim: &mut Sim<'a>) {}
    /// Collect the job's output after `sim.run()`.
    fn finish(self: Box<Self>) -> Result<BatchOutput>;
}

/// Submit chunk `k` of every job before chunk `k + 1` of any job, then
/// each job's trailing ops, in list order; return the chunks submitted.
/// With one job this is chunk order; with many it lets one job's H2D
/// ride under another's compute, as concurrent host threads would.
pub(crate) fn submit<'a, J>(sim: &mut Sim<'a>, jobs: &mut [&mut J]) -> usize
where
    J: ChunkJob<'a> + ?Sized,
{
    let rounds = jobs.iter().map(|job| job.num_chunks()).max().unwrap_or(0);
    let mut submitted = 0;
    for k in 0..rounds {
        for job in jobs.iter_mut().filter(|job| k < job.num_chunks()) {
            job.submit_chunk(sim, k);
            submitted += 1;
        }
    }
    for job in jobs.iter_mut() {
        job.finish_submission(sim);
    }
    submitted
}

/// A simulator of `n` devices of `spec` sharing one runtime: a dense
/// multi-GPU node, or with `n = 1` one device of its own.
pub(crate) fn node<'a>(spec: &DeviceSpec, n: usize) -> (Sim<'a>, Vec<DeviceId>) {
    let mut sim = Sim::new();
    let rt = sim.add_runtime();
    let devices = (0..n).map(|_| sim.add_device(spec.clone(), rt)).collect();
    (sim, devices)
}

/// Build one job on a device of its own and submit it **without
/// executing it**: run the simulator for the job's output, or hand its
/// schedule to [`hpdr_sim::Sim::dag`] for offline verification.
pub fn plan<'a, J: ChunkJob<'a>>(
    spec: &DeviceSpec,
    build: impl FnOnce(&mut Sim<'a>, DeviceId) -> Result<J>,
) -> Result<(Sim<'a>, J)> {
    let (mut sim, devices) = node(spec, 1);
    let mut job = build(&mut sim, devices[0])?;
    submit(&mut sim, &mut [&mut job]);
    Ok((sim, job))
}

/// How one job's chunks rotate over its three queues and its buffer sets
/// (Fig. 9): chunk `k` runs on queue `k mod 3` with buffer set
/// `k mod sets`, and with anti-dependencies its H2D waits for the op that
/// last read that set, `sets` chunks earlier.
pub struct Rotation {
    queues: [QueueId; 3],
    sets: usize,
    serial: bool,
    anti_deps: bool,
}

impl Rotation {
    /// Three new queues in `sim`, and two buffer sets with
    /// anti-dependencies or three without. `serial` sends every chunk
    /// through the first queue and set, with no anti-dependencies.
    pub fn new(sim: &mut Sim, two_buffers: bool, serial: bool) -> Rotation {
        Rotation {
            queues: [sim.add_queue(), sim.add_queue(), sim.add_queue()],
            sets: if two_buffers { 2 } else { 3 },
            serial,
            anti_deps: two_buffers && !serial,
        }
    }

    /// Buffer sets the job allocates.
    pub fn sets(&self) -> usize {
        self.sets
    }

    pub fn queue(&self, k: usize) -> QueueId {
        self.queues[if self.serial { 0 } else { k % 3 }]
    }

    pub fn set(&self, k: usize) -> usize {
        if self.serial {
            0
        } else {
            k % self.sets
        }
    }

    /// Chunk `k`'s H2D dependencies: the op that last read its buffer
    /// set, from `readers` (each earlier chunk's, once submitted).
    pub fn anti_dep(&self, k: usize, readers: &[OpId]) -> Vec<OpId> {
        match k.checked_sub(self.sets) {
            Some(prev) if self.anti_deps => readers.get(prev).copied().into_iter().collect(),
            _ => Vec::new(),
        }
    }
}

/// What the chunks of one reduction or reconstruction share: the device,
/// the rotation over queues and buffer sets, and the ops the options add
/// around each chunk's transfers and kernel.
struct Lanes {
    dev: DeviceId,
    rotation: Rotation,
    in_bufs: Vec<BufId>,
    out_bufs: Vec<BufId>,
    opts: PipelineOptions,
}

impl Lanes {
    /// Queues and buffer sets: input buffers of `in_bytes`, output
    /// buffers sized by what the kernels produce.
    fn new(sim: &mut Sim, dev: DeviceId, opts: PipelineOptions, in_bytes: usize) -> Lanes {
        let rotation = Rotation::new(sim, opts.two_buffers, opts.serial_queue);
        let in_bufs = (0..rotation.sets)
            .map(|_| sim.create_buffer(dev, in_bytes))
            .collect();
        let out_bufs = (0..rotation.sets)
            .map(|_| sim.create_buffer(dev, 0))
            .collect();
        Lanes {
            dev,
            rotation,
            in_bufs,
            out_bufs,
            opts,
        }
    }

    /// Chunk `k`'s queue, input buffer and output buffer.
    fn at(&self, k: usize) -> (QueueId, BufId, BufId) {
        let j = self.rotation.set(k);
        (self.rotation.queue(k), self.in_bufs[j], self.out_bufs[j])
    }

    fn runtime_op(
        &self,
        sim: &mut Sim,
        label: String,
        queue: Option<QueueId>,
        deps: Vec<OpId>,
        cost: &Cost,
    ) -> OpId {
        let engine = Engine::Runtime(sim.device_runtime(self.dev));
        let op = OpSpec {
            engine,
            queue,
            deps,
            cost: cost.clone(),
            label,
            effects: Effects::none(),
        };
        sim.push(op, None)
    }

    /// CMM off: chunk `k` is a fresh invocation. It frees the previous
    /// invocation's workspaces lazily once `prev` (that invocation's last
    /// op) is done, then allocates its own through the shared runtime
    /// (timing ops; the backing store is preallocated).
    fn invocation(&self, sim: &mut Sim, k: usize, q: QueueId, prev: Option<OpId>) {
        if self.opts.cmm {
            return;
        }
        let device = self.dev;
        let (free, alloc) = (Cost::Free { device }, Cost::Alloc { device });
        if let Some(prev) = prev {
            // One synchronizing free: cudaFree holds the allocator lock
            // while waiting for the device's pending work, so every later
            // lock request (from any device) queues behind it.
            self.runtime_op(sim, format!("syncfree[{k}]"), Some(q), vec![prev], &free);
            for f in 0..NOCMM_ALLOCS {
                self.runtime_op(sim, format!("free[{k}.{f}]"), None, vec![prev], &free);
            }
        }
        for a in 0..NOCMM_ALLOCS / 2 {
            self.runtime_op(sim, format!("alloc[{k}.{a}]"), Some(q), vec![], &alloc);
        }
    }

    /// CMM off: workspace allocations `label[k.a]` issued mid-pipeline,
    /// each holding the shared allocator's FIFO slot until `deps`
    /// complete — the cross-device contention the CMM removes. Returns
    /// the last, which the next stage waits for.
    fn allocs(&self, sim: &mut Sim, label: &str, k: usize, deps: &[OpId]) -> Option<OpId> {
        if self.opts.cmm {
            return None;
        }
        let alloc = Cost::Alloc { device: self.dev };
        let mut last = None;
        for a in 0..NOCMM_ALLOCS / 2 {
            let label = format!("{label}[{k}.{a}]");
            last = Some(self.runtime_op(sim, label, None, deps.to_vec(), &alloc));
        }
        last
    }

    /// Host staging on: a pageable host copy `label[k]` of `bytes`
    /// after `deps`.
    fn stage(
        &self,
        sim: &mut Sim,
        label: &str,
        k: usize,
        q: QueueId,
        deps: Vec<OpId>,
        bytes: Arc<AtomicU64>,
    ) {
        if self.opts.host_staging {
            let op = OpSpec {
                engine: Engine::Staging(self.dev),
                queue: Some(q),
                deps,
                cost: Cost::HostCopy { bytes },
                label: format!("{label}[{k}]"),
                effects: Effects::none(),
            };
            sim.push(op, None);
        }
    }
}

/// State shared between the DAG payloads of one device's compression run.
pub(crate) struct CompressJob {
    lanes: Lanes,
    /// `(row_start, rows)` per chunk.
    chunks: Vec<(usize, usize)>,
    input: Arc<Vec<u8>>,
    meta: ArrayMeta,
    reducer: Arc<dyn Reducer>,
    work: Arc<dyn DeviceAdapter>,
    results: Arc<Mutex<Vec<Option<Vec<u8>>>>>,
    error: Arc<LowestError>,
    s_ops: Vec<OpId>,
    row_bytes: usize,
}

impl CompressJob {
    pub fn new(
        sim: &mut Sim,
        dev: DeviceId,
        reducer: Arc<dyn Reducer>,
        work: Arc<dyn DeviceAdapter>,
        input: Arc<Vec<u8>>,
        meta: ArrayMeta,
        opts: PipelineOptions,
    ) -> Result<CompressJob> {
        if input.len() != meta.num_bytes() {
            return Err(HpdrError::invalid("input length does not match metadata"));
        }
        let rows_schedule =
            chunk_schedule(sim.device_spec(dev), reducer.as_ref(), &meta, opts.mode);
        let row_bytes = meta.shape.row_elements() * meta.dtype.size();
        let max_chunk_bytes = rows_schedule.iter().max().copied().unwrap_or(1) * row_bytes;
        let mut chunks = Vec::with_capacity(rows_schedule.len());
        let mut start = 0usize;
        for rows in rows_schedule {
            chunks.push((start, rows));
            start += rows;
        }
        let n = chunks.len();
        Ok(CompressJob {
            lanes: Lanes::new(sim, dev, opts, max_chunk_bytes),
            chunks,
            input,
            meta,
            reducer,
            work,
            results: Arc::new(Mutex::new(vec![None; n])),
            error: Arc::new(LowestError::default()),
            s_ops: Vec::with_capacity(n),
            row_bytes,
        })
    }

    /// Collect the container after `sim.run()`.
    pub fn into_container(self) -> Result<Container> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let results = Arc::try_unwrap(self.results)
            .map_err(|_| HpdrError::invalid("pipeline results still shared"))?
            .into_inner();
        let mut chunks = Vec::with_capacity(results.len());
        for ((_, rows), stream) in self.chunks.iter().zip(results) {
            let stream =
                stream.ok_or_else(|| HpdrError::invalid("chunk payload never executed"))?;
            chunks.push((*rows, stream));
        }
        Ok(Container {
            reducer: self.reducer.name().to_string(),
            meta: self.meta,
            chunks,
        })
    }
}

impl<'a> ChunkJob<'a> for CompressJob {
    fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Chunk `k`'s ops (H2D → Reduce → Serialize/D2H).
    fn submit_chunk(&mut self, sim: &mut Sim<'a>, k: usize) {
        let (row_start, rows) = self.chunks[k];
        let chunk_bytes = rows * self.row_bytes;
        let byte_start = row_start * self.row_bytes;
        let lanes = &self.lanes;
        let dev = lanes.dev;
        let (q, in_buf, out_buf) = lanes.at(k);
        lanes.invocation(sim, k, q, self.s_ops.last().copied());
        // Application buffer → reduction (staging) buffer host copy.
        let staged = Arc::new(AtomicU64::new(chunk_bytes as u64));
        lanes.stage(sim, "stage-in", k, q, vec![], staged);

        // H2D, behind the Fig. 9 anti-dependency on its buffer set.
        let input = Arc::clone(&self.input);
        let h2d = sim.push(
            OpSpec {
                engine: Engine::H2D(dev),
                queue: Some(q),
                deps: lanes.rotation.anti_dep(k, &self.s_ops),
                cost: Cost::Transfer {
                    bytes: chunk_bytes as u64,
                },
                label: format!("H2D[{k}]"),
                effects: Effects::write(in_buf),
            },
            Some(Box::new(move |pool| {
                pool.get_mut(in_buf)[..chunk_bytes]
                    .copy_from_slice(&input[byte_start..byte_start + chunk_bytes]);
            })),
        );

        // Workspace sized by the arrived data.
        let mut compute_deps = vec![h2d];
        compute_deps.extend(lanes.allocs(sim, "midalloc", k, &[h2d]));

        // Reduce.
        let size_cell = Arc::new(AtomicU64::new(0));
        let chunk_meta = ArrayMeta::new(self.meta.dtype, self.meta.shape.with_leading(rows));
        let reducer = Arc::clone(&self.reducer);
        let work = Arc::clone(&self.work);
        let error = Arc::clone(&self.error);
        let size_for_payload = Arc::clone(&size_cell);
        let compute = sim.push(
            OpSpec {
                engine: Engine::Compute(dev),
                queue: Some(q),
                deps: compute_deps,
                cost: Cost::Kernel {
                    class: reducer.kernel_class(),
                    bytes: chunk_bytes as u64,
                },
                label: format!("R[{k}]"),
                effects: Effects::read(in_buf).and_write(out_buf),
            },
            Some(Box::new(move |pool| {
                let src = &pool.get(in_buf)[..chunk_bytes];
                match reducer.compress(work.as_ref(), src, &chunk_meta) {
                    Ok(stream) => {
                        size_for_payload.store(stream.len() as u64, Ordering::SeqCst);
                        pool.replace(out_buf, stream);
                    }
                    Err(e) => error.record(k, e),
                }
            })),
        );

        // Serialize: D2H of the compressed stream + metadata embedding.
        let results = Arc::clone(&self.results);
        let size_for_stage = Arc::clone(&size_cell);
        let s = sim.push(
            OpSpec {
                engine: Engine::D2H(dev),
                queue: Some(q),
                deps: vec![compute],
                cost: Cost::TransferDyn { bytes: size_cell },
                label: format!("S[{k}]"),
                effects: Effects::read(out_buf),
            },
            Some(Box::new(move |pool| {
                results.lock()[k] = Some(pool.get(out_buf).to_vec());
            })),
        );
        // Reduction buffer → I/O buffer host copy.
        lanes.stage(sim, "stage-out", k, q, vec![s], size_for_stage);
        self.s_ops.push(s);
    }

    fn finish(self: Box<Self>) -> Result<BatchOutput> {
        self.into_container().map(BatchOutput::Compressed)
    }
}

/// The reconstructed array, assembled from decoded chunks in array order
/// whatever order their output copies run in.
struct Output {
    /// The landed prefix of the array. The row counts the container
    /// claims reserve it only within `PRESIZE_RATIO`; past that it grows
    /// by decoded bytes alone.
    bytes: Vec<u8>,
    /// Chunks before this one have landed.
    next: usize,
    /// Chunks that arrived before a predecessor, until it lands.
    parked: Vec<(usize, Vec<u8>)>,
}

impl Output {
    /// Land chunk `k`: append it if every earlier chunk has landed, else
    /// park a copy; then append the parked chunks that now follow.
    fn land(&mut self, k: usize, chunk: &[u8]) {
        if k != self.next {
            self.parked.push((k, chunk.to_vec()));
            return;
        }
        self.bytes.extend_from_slice(chunk);
        self.next += 1;
        while let Some(i) = self.parked.iter().position(|(p, _)| *p == self.next) {
            let (_, chunk) = self.parked.swap_remove(i);
            self.bytes.extend_from_slice(&chunk);
            self.next += 1;
        }
    }
}

/// State shared between the DAG payloads of one device's reconstruction.
/// The H2D payloads read the chunk streams straight from the container.
pub(crate) struct DecompressJob<'a> {
    lanes: Lanes,
    container: &'a Container,
    reducer: Arc<dyn Reducer>,
    work: Arc<dyn DeviceAdapter>,
    output: Arc<Mutex<Output>>,
    error: Arc<LowestError>,
    d2h_ops: Vec<OpId>,
    /// The chunk whose output copy is not submitted yet, and the op the
    /// copy waits for (deferred behind the next deserialization when
    /// `deser_first` is on).
    pending_out: Option<(usize, OpId)>,
    row_bytes: usize,
}

impl<'a> DecompressJob<'a> {
    pub fn new(
        sim: &mut Sim<'a>,
        dev: DeviceId,
        reducer: Arc<dyn Reducer>,
        work: Arc<dyn DeviceAdapter>,
        container: &'a Container,
        opts: PipelineOptions,
    ) -> Result<DecompressJob<'a>> {
        if container.reducer != reducer.name() {
            return Err(HpdrError::invalid(format!(
                "container was produced by '{}', not '{}'",
                container.reducer,
                reducer.name()
            )));
        }
        let meta = &container.meta;
        let row_bytes = meta.shape.row_elements() * meta.dtype.size();
        let max_stream = container
            .chunks
            .iter()
            .map(|(_, s)| s.len())
            .max()
            .unwrap_or(1);
        // Output buffers take each decoded chunk as it is produced: the
        // header's row counts are untrusted, so no device buffer is sized
        // by them, and the host output only within `PRESIZE_RATIO`.
        let presize = meta
            .num_bytes()
            .min(PRESIZE_RATIO.saturating_mul(container.total_stream_bytes() as usize));
        Ok(DecompressJob {
            lanes: Lanes::new(sim, dev, opts, max_stream),
            container,
            reducer,
            work,
            output: Arc::new(Mutex::new(Output {
                bytes: Vec::with_capacity(presize),
                next: 0,
                parked: Vec::new(),
            })),
            error: Arc::new(LowestError::default()),
            d2h_ops: Vec::new(),
            pending_out: None,
            row_bytes,
        })
    }

    fn chunk_bytes(&self, k: usize) -> usize {
        self.container.chunks[k].0 * self.row_bytes
    }

    fn push_pending_out(&mut self, sim: &mut Sim<'a>) {
        let Some((k, dep)) = self.pending_out.take() else {
            return;
        };
        let (q, _, out_buf) = self.lanes.at(k);
        let chunk_bytes = self.chunk_bytes(k);
        let output = Arc::clone(&self.output);
        let d2h = sim.push(
            OpSpec {
                engine: Engine::D2H(self.lanes.dev),
                queue: Some(q),
                deps: vec![dep],
                cost: Cost::Transfer {
                    bytes: chunk_bytes as u64,
                },
                label: format!("D2Hout[{k}]"),
                effects: Effects::read(out_buf),
            },
            Some(Box::new(move |pool| {
                // A chunk that failed to decode left no output, and the
                // chunks after it never land; `into_output` reports the
                // error.
                let chunk = pool.get(out_buf);
                if chunk.len() == chunk_bytes {
                    output.lock().land(k, chunk);
                }
            })),
        );
        // Reduction buffer → application buffer host copy.
        let staged = Arc::new(AtomicU64::new(chunk_bytes as u64));
        self.lanes.stage(sim, "stage-out", k, q, vec![d2h], staged);
        self.d2h_ops.push(d2h);
    }

    /// Collect the raw output bytes after `sim.run()`.
    pub fn into_output(self) -> Result<(Vec<u8>, ArrayMeta)> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let out = Arc::try_unwrap(self.output)
            .map_err(|_| HpdrError::invalid("pipeline output still shared"))?
            .into_inner();
        let meta = &self.container.meta;
        if out.next != self.container.chunks.len() || out.bytes.len() != meta.num_bytes() {
            return Err(HpdrError::corrupt("chunk outputs do not cover the array"));
        }
        Ok((out.bytes, meta.clone()))
    }
}

impl<'a> ChunkJob<'a> for DecompressJob<'a> {
    fn num_chunks(&self) -> usize {
        self.container.chunks.len()
    }

    /// Chunk `k`'s ops (H2D → Deser(D2H) → Reconstruct → D2H).
    fn submit_chunk(&mut self, sim: &mut Sim<'a>, k: usize) {
        let (rows, ref stream) = self.container.chunks[k];
        let stream: &'a [u8] = stream;
        let stream_len = stream.len();
        let chunk_bytes = self.chunk_bytes(k);
        let lanes = &self.lanes;
        let dev = lanes.dev;
        let (q, in_buf, out_buf) = lanes.at(k);
        lanes.invocation(sim, k, q, self.d2h_ops.last().copied());
        // I/O buffer → reduction buffer host copy of the compressed data.
        let staged = Arc::new(AtomicU64::new(stream_len as u64));
        lanes.stage(sim, "stage-in", k, q, vec![], staged);

        // H2D of the compressed chunk, once its buffer set's previous
        // output has drained.
        let h2d = sim.push(
            OpSpec {
                engine: Engine::H2D(dev),
                queue: Some(q),
                deps: lanes.rotation.anti_dep(k, &self.d2h_ops),
                cost: Cost::Transfer {
                    bytes: stream_len as u64,
                },
                label: format!("H2D[{k}]"),
                effects: Effects::write(in_buf),
            },
            Some(Box::new(move |pool| {
                pool.resize(in_buf, stream_len);
                pool.get_mut(in_buf).copy_from_slice(stream);
            })),
        );

        // Deserialize: small D2H metadata read (contends with D2Hout —
        // the launch-order swap exists because of this op).
        let deser = sim.push(
            OpSpec {
                engine: Engine::D2H(dev),
                queue: Some(q),
                deps: vec![h2d],
                cost: Cost::Transfer {
                    bytes: 4096.min(stream_len as u64),
                },
                label: format!("Deser[{k}]"),
                effects: Effects::read(in_buf),
            },
            None,
        );

        // With deser_first, the *previous* chunk's output copy is issued
        // only now — after this chunk's deserialization (red arrows).
        if self.lanes.opts.deser_first {
            self.push_pending_out(sim);
        }
        let lanes = &self.lanes;

        // The output workspace is sized from the deserialized metadata.
        let mut compute_deps = vec![deser];
        compute_deps.extend(lanes.allocs(sim, "midalloc", k, &[h2d, deser]));

        // Reconstruct.
        let reducer = Arc::clone(&self.reducer);
        let work = Arc::clone(&self.work);
        let error = Arc::clone(&self.error);
        let meta = &self.container.meta;
        let expect_meta = ArrayMeta::new(meta.dtype, meta.shape.with_leading(rows));
        let compute = sim.push(
            OpSpec {
                engine: Engine::Compute(dev),
                queue: Some(q),
                deps: compute_deps,
                cost: Cost::Kernel {
                    class: reducer.kernel_class(),
                    bytes: chunk_bytes as u64,
                },
                label: format!("Rec[{k}]"),
                effects: Effects::read(in_buf).and_write(out_buf),
            },
            Some(Box::new(move |pool| {
                let decoded = reducer
                    .decompress(work.as_ref(), pool.get(in_buf))
                    .and_then(|(bytes, meta)| {
                        if meta == expect_meta {
                            Ok(bytes)
                        } else {
                            Err(HpdrError::corrupt("chunk metadata mismatch"))
                        }
                    });
                match decoded {
                    Ok(bytes) => pool.replace(out_buf, bytes),
                    Err(e) => {
                        pool.replace(out_buf, Vec::new());
                        error.record(k, e);
                    }
                }
            })),
        );

        // Output-side allocations issued between the reconstruction
        // kernels (cuSZ/MGARD-GPU allocate per-stage scratch mid-kernel
        // sequence): they hold the allocator's FIFO slot while this
        // device reconstructs.
        let out_dep = lanes.allocs(sim, "outalloc", k, &[compute]);
        self.pending_out = Some((k, out_dep.unwrap_or(compute)));
        if !self.lanes.opts.deser_first {
            self.push_pending_out(sim);
        }
    }

    /// Flush the trailing deferred output op.
    fn finish_submission(&mut self, sim: &mut Sim<'a>) {
        self.push_pending_out(sim);
    }

    fn finish(self: Box<Self>) -> Result<BatchOutput> {
        let (bytes, meta) = self.into_output()?;
        Ok(BatchOutput::Restored(bytes, meta))
    }
}

/// Build and submit the full compression DAG **without executing it** —
/// the schedule goes to [`hpdr_sim::Sim::dag`] for offline verification
/// and linting (`hpdr verify`), never to `run()`.
pub fn plan_compress(
    spec: &DeviceSpec,
    work: Arc<dyn DeviceAdapter>,
    reducer: Arc<dyn Reducer>,
    input: Arc<Vec<u8>>,
    meta: &ArrayMeta,
    opts: &PipelineOptions,
) -> Result<Sim<'static>> {
    let (sim, _) = plan(spec, |sim, dev| {
        CompressJob::new(sim, dev, reducer, work, input, meta.clone(), *opts)
    })?;
    Ok(sim)
}

/// Build and submit the full reconstruction DAG **without executing it**
/// (see [`plan_compress`]).
pub fn plan_decompress<'a>(
    spec: &DeviceSpec,
    work: Arc<dyn DeviceAdapter>,
    reducer: Arc<dyn Reducer>,
    container: &'a Container,
    opts: &PipelineOptions,
) -> Result<Sim<'a>> {
    let (sim, _) = plan(spec, |sim, dev| {
        DecompressJob::new(sim, dev, reducer, work, container, *opts)
    })?;
    Ok(sim)
}

/// Where a run's payloads execute: on `pool`, up to `participants` at
/// once wherever the DAG lets chunks overlap (`hpdr_sim::exec`), or one
/// after another when `participants` is 1.
#[derive(Clone, Copy)]
pub(crate) struct Payloads<'p> {
    pub pool: &'p WorkerPool,
    pub participants: usize,
}

impl Payloads<'static> {
    /// The global pool, one chunk per participant, up to the adapter's
    /// thread count: a payload that runs beside another runs its adapter
    /// calls inline, so chunk-level parallelism takes the place of the
    /// adapter's own.
    pub fn for_adapter(work: &dyn DeviceAdapter) -> Payloads<'static> {
        let pool = WorkerPool::global();
        Payloads {
            pool,
            participants: work.info().threads.min(pool.workers() + 1),
        }
    }
}

/// Run the sim under a wall clock and a worker-pool stats window, and
/// return its trace with the measured host time and pool activity
/// attached next to the modeled virtual times.
pub(crate) fn timed_run<'a>(sim: &mut Sim<'a>, on: Payloads<'a>) -> Trace {
    if on.participants > 1 {
        sim.set_workers(on.pool, on.participants);
    }
    let before = on.pool.stats();
    let t0 = std::time::Instant::now();
    let mut trace = sim.run();
    let wall = Ns(t0.elapsed().as_nanos() as u64);
    let delta = on.pool.stats().since(before);
    trace.set_runtime_stats(RuntimeStats {
        wall,
        pool_jobs: delta.jobs,
        pool_wakeups: delta.wakeups,
        pool_tasks: delta.tasks,
        scratch_reuses: delta.scratch_reuses,
        scratch_allocs: delta.scratch_allocs,
    });
    trace
}

/// Compress `input` on a single simulated device with the Fig. 9 pipeline.
pub fn compress_pipelined(
    spec: &DeviceSpec,
    work: Arc<dyn DeviceAdapter>,
    reducer: Arc<dyn Reducer>,
    input: Arc<Vec<u8>>,
    meta: &ArrayMeta,
    opts: &PipelineOptions,
) -> Result<(Container, PipelineReport)> {
    let on = Payloads::for_adapter(work.as_ref());
    compress_on(spec, work, reducer, input, meta, opts, on)
}

pub(crate) fn compress_on(
    spec: &DeviceSpec,
    work: Arc<dyn DeviceAdapter>,
    reducer: Arc<dyn Reducer>,
    input: Arc<Vec<u8>>,
    meta: &ArrayMeta,
    opts: &PipelineOptions,
    on: Payloads<'_>,
) -> Result<(Container, PipelineReport)> {
    let input_bytes = input.len() as u64;
    let (mut sim, job) = plan(spec, |sim, dev| {
        CompressJob::new(sim, dev, reducer, work, input, meta.clone(), *opts)
    })?;
    let trace = timed_run(&mut sim, on);
    let (dev, chunks) = (job.lanes.dev, job.chunks.len());
    let container = job.into_container()?;
    let compressed = container.total_stream_bytes();
    let report = report_from(trace, dev, input_bytes, compressed, chunks);
    Ok((container, report))
}

/// Reconstruct a container on a single simulated device.
pub fn decompress_pipelined(
    spec: &DeviceSpec,
    work: Arc<dyn DeviceAdapter>,
    reducer: Arc<dyn Reducer>,
    container: &Container,
    opts: &PipelineOptions,
) -> Result<(Vec<u8>, ArrayMeta, PipelineReport)> {
    let on = Payloads::for_adapter(work.as_ref());
    decompress_on(spec, work, reducer, container, opts, on)
}

pub(crate) fn decompress_on(
    spec: &DeviceSpec,
    work: Arc<dyn DeviceAdapter>,
    reducer: Arc<dyn Reducer>,
    container: &Container,
    opts: &PipelineOptions,
    on: Payloads<'_>,
) -> Result<(Vec<u8>, ArrayMeta, PipelineReport)> {
    let (mut sim, job) = plan(spec, |sim, dev| {
        DecompressJob::new(sim, dev, reducer, work, container, *opts)
    })?;
    let trace = timed_run(&mut sim, on);
    let (dev, chunks) = (job.lanes.dev, container.chunks.len());
    let (bytes, meta) = job.into_output()?;
    let compressed = container.total_stream_bytes();
    let report = report_from(trace, dev, bytes.len() as u64, compressed, chunks);
    Ok((bytes, meta, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_baselines::{Lz4Reducer, SzConfig, SzReducer};
    use hpdr_core::{CpuParallelAdapter, DType, KernelClass, SerialAdapter, Shape};
    use hpdr_huffman::ByteHuffmanReducer;
    use hpdr_mgard::{MgardConfig, MgardReducer};
    use hpdr_zfp::{ZfpConfig, ZfpReducer};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// A two-thread pool of the tests' own, so the concurrent executor
    /// runs two participants on any host.
    fn on(participants: usize) -> Payloads<'static> {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        Payloads {
            pool: POOL.get_or_init(|| WorkerPool::new(2)),
            participants,
        }
    }

    fn nyx(side: usize) -> (Arc<Vec<u8>>, ArrayMeta) {
        let d = hpdr_data::nyx_density(side, 5);
        (
            Arc::new(d.bytes.clone()),
            ArrayMeta::new(DType::F32, d.shape.clone()),
        )
    }

    fn codec(i: usize) -> Arc<dyn Reducer> {
        match i {
            0 => Arc::new(MgardReducer(MgardConfig::relative(1e-2))),
            1 => Arc::new(ZfpReducer(ZfpConfig::fixed_rate(8))),
            2 => Arc::new(ByteHuffmanReducer::default()),
            3 => Arc::new(SzReducer(SzConfig::relative(1e-3))),
            _ => Arc::new(Lz4Reducer),
        }
    }

    /// Everything a run's trace holds except the wall clock: labels,
    /// virtual times, sizes and footprints.
    fn spans(report: &PipelineReport) -> Vec<(String, Ns, Ns, Ns, u64, u64)> {
        report
            .trace
            .spans()
            .iter()
            .map(|s| {
                let (start, end, ready) = (s.start, s.end, s.ready);
                (
                    s.label.clone(),
                    start,
                    end,
                    ready,
                    s.bytes,
                    s.footprint_bytes,
                )
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// The serial executor is the oracle: over the shipped configs,
        /// every codec and both adapter kinds, the concurrent executor
        /// gives the same container bytes, outputs and spans.
        #[test]
        fn concurrent_executor_matches_the_serial_one(
            mode in 0usize..3,
            flags in 0u32..32,
            c in 0usize..5,
            threads in 1usize..3,
        ) {
            // 48³ f32, 9 KiB rows: 8-row chunks are the smallest kernel
            // payloads that run concurrently.
            let (input, meta) = nyx(48);
            let row = input.len() as u64 / 48;
            let opts = PipelineOptions {
                mode: match mode {
                    0 => PipelineMode::Unpipelined,
                    1 => PipelineMode::Fixed { chunk_bytes: 8 * row },
                    _ => PipelineMode::Adaptive {
                        init_bytes: 8 * row,
                        limit_bytes: 16 * row,
                    },
                },
                two_buffers: flags & 1 != 0,
                cmm: flags & 2 != 0,
                deser_first: flags & 4 != 0,
                serial_queue: flags & 8 != 0,
                host_staging: flags & 16 != 0,
            };
            let work: Arc<dyn DeviceAdapter> = if threads == 1 {
                Arc::new(SerialAdapter::new())
            } else {
                Arc::new(CpuParallelAdapter::new(2))
            };
            let spec = hpdr_sim::v100();
            let reducer = codec(c);
            let compress = |n| {
                compress_on(&spec, Arc::clone(&work), Arc::clone(&reducer), Arc::clone(&input), &meta, &opts, on(n))
                    .unwrap()
            };
            let ((serial, sr), (concurrent, cr)) = (compress(1), compress(2));
            prop_assert_eq!(serial.to_bytes(), concurrent.to_bytes());
            prop_assert_eq!(spans(&sr), spans(&cr));
            let decompress = |n| {
                decompress_on(&spec, Arc::clone(&work), Arc::clone(&reducer), &serial, &opts, on(n))
                    .unwrap()
            };
            let ((so, _, sr), (co, _, cr)) = (decompress(1), decompress(2));
            prop_assert_eq!(so, co);
            prop_assert_eq!(spans(&sr), spans(&cr));
        }
    }

    #[test]
    fn overlapping_chunks_run_on_the_executor_and_serial_queues_do_not() {
        // A pool of this test's own: its job count is the executor's.
        let pool = WorkerPool::new(2);
        let (input, meta) = nyx(48);
        let work: Arc<dyn DeviceAdapter> = Arc::new(SerialAdapter::new());
        let spec = hpdr_sim::v100();
        let jobs = |opts: PipelineOptions| {
            let on = Payloads {
                pool: &pool,
                participants: 2,
            };
            let (c, cr) = compress_on(
                &spec,
                Arc::clone(&work),
                codec(1),
                Arc::clone(&input),
                &meta,
                &opts,
                on,
            )
            .unwrap();
            let (_, _, dr) =
                decompress_on(&spec, Arc::clone(&work), codec(1), &c, &opts, on).unwrap();
            let stats = |r: &PipelineReport| r.trace.runtime_stats().unwrap().pool_jobs;
            (c.chunks.len(), stats(&cr), stats(&dr))
        };
        let fixed = PipelineOptions::fixed(8 * input.len() as u64 / 48);
        assert_eq!(jobs(fixed), (6, 1, 1));
        let serial_queue = PipelineOptions {
            serial_queue: true,
            ..fixed
        };
        assert_eq!(jobs(serial_queue), (6, 0, 0));
    }

    /// Delegates to `inner`, except that decoding the chunk of
    /// `first_rows` rows returns only once a later chunk has landed in
    /// `output`: the output copies then run in reverse order.
    struct LandLater {
        inner: Arc<dyn Reducer>,
        first_rows: usize,
        output: OnceLock<std::sync::Weak<Mutex<Output>>>,
    }

    impl Reducer for LandLater {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn kernel_class(&self) -> KernelClass {
            self.inner.kernel_class()
        }
        fn is_lossless(&self) -> bool {
            self.inner.is_lossless()
        }
        fn compress(
            &self,
            work: &dyn DeviceAdapter,
            data: &[u8],
            meta: &ArrayMeta,
        ) -> Result<Vec<u8>> {
            self.inner.compress(work, data, meta)
        }
        fn decompress(
            &self,
            work: &dyn DeviceAdapter,
            stream: &[u8],
        ) -> Result<(Vec<u8>, ArrayMeta)> {
            let out = self.inner.decompress(work, stream)?;
            if out.1.shape.dims()[0] == self.first_rows {
                let output = self
                    .output
                    .get()
                    .and_then(|o| o.upgrade())
                    .expect("output attached");
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
                while output.lock().parked.is_empty() {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "no later chunk landed"
                    );
                    std::thread::yield_now();
                }
            }
            Ok(out)
        }
    }

    #[test]
    fn output_copies_completing_in_reverse_order_restore_the_same_bytes() {
        let (input, meta) = nyx(64);
        let work: Arc<dyn DeviceAdapter> = Arc::new(SerialAdapter::new());
        let spec = hpdr_sim::v100();
        let inner = codec(1);
        // Chunks of 48 and 16 rows (768 and 256 KiB).
        let opts = PipelineOptions::fixed(48 * input.len() as u64 / 64);
        let (container, _) = compress_on(
            &spec,
            Arc::clone(&work),
            Arc::clone(&inner),
            input,
            &meta,
            &opts,
            on(1),
        )
        .unwrap();
        let rows: Vec<usize> = container.chunks.iter().map(|c| c.0).collect();
        assert_eq!(rows, [48, 16]);
        let (expect, _, _) = decompress_on(
            &spec,
            Arc::clone(&work),
            Arc::clone(&inner),
            &container,
            &opts,
            on(1),
        )
        .unwrap();
        let reducer = Arc::new(LandLater {
            inner,
            first_rows: 48,
            output: OnceLock::new(),
        });
        // A pool of this test's own: the forced order needs both
        // participants, which a pool shared with other tests cannot
        // promise.
        let pool = WorkerPool::new(2);
        let (mut sim, job) = plan(&spec, |sim, dev| {
            DecompressJob::new(sim, dev, Arc::clone(&reducer) as _, work, &container, opts)
        })
        .unwrap();
        let _ = reducer.output.set(Arc::downgrade(&job.output));
        let trace = timed_run(
            &mut sim,
            Payloads {
                pool: &pool,
                participants: 2,
            },
        );
        let (out, _) = job.into_output().unwrap();
        assert_eq!(out, expect);
        let wall_start = |label: &str| {
            let span = trace.spans().iter().find(|s| s.label == label).unwrap();
            span.wall_start
        };
        assert!(wall_start("D2Hout[1]") < wall_start("D2Hout[0]"));
        assert!(hpdr_trace::wall_overlap_ratio(&trace).unwrap() > 0.0);
    }

    #[test]
    fn chunks_land_in_array_order_whatever_order_they_complete_in() {
        let mut out = Output {
            bytes: Vec::new(),
            next: 0,
            parked: Vec::new(),
        };
        for k in (0..4u8).rev() {
            out.land(k as usize, &[k; 3]);
        }
        assert_eq!(out.next, 4);
        assert!(out.parked.is_empty());
        assert_eq!(out.bytes, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]);
    }

    /// Panics compressing the chunk whose first value is in `rows`.
    struct PanicAt(Vec<f32>);

    impl Reducer for PanicAt {
        fn name(&self) -> &'static str {
            "lz4-like"
        }
        fn kernel_class(&self) -> KernelClass {
            Lz4Reducer.kernel_class()
        }
        fn is_lossless(&self) -> bool {
            true
        }
        fn compress(
            &self,
            work: &dyn DeviceAdapter,
            data: &[u8],
            meta: &ArrayMeta,
        ) -> Result<Vec<u8>> {
            let first = f32::from_le_bytes(data[..4].try_into().unwrap());
            if self.0.contains(&first) {
                panic!("chunk at row {first}");
            }
            Lz4Reducer.compress(work, data, meta)
        }
        fn decompress(
            &self,
            work: &dyn DeviceAdapter,
            stream: &[u8],
        ) -> Result<(Vec<u8>, ArrayMeta)> {
            Lz4Reducer.decompress(work, stream)
        }
    }

    #[test]
    fn a_panicking_payload_reports_the_lowest_chunk_and_the_pool_stays_usable() {
        // Row r holds the value r, so a chunk's first value names its row.
        // Rows are 16 KiB: 4-row chunks are kernel payloads large enough
        // to run concurrently.
        const COLS: usize = 4096;
        let meta = ArrayMeta::new(DType::F32, Shape::new(&[16, COLS]));
        let input: Arc<Vec<u8>> = Arc::new(
            (0..16 * COLS)
                .flat_map(|i| ((i / COLS) as f32).to_le_bytes())
                .collect(),
        );
        let spec = hpdr_sim::v100();
        let work: Arc<dyn DeviceAdapter> = Arc::new(SerialAdapter::new());
        let opts = PipelineOptions::fixed(4 * COLS as u64 * 4);
        let reducer: Arc<dyn Reducer> = Arc::new(PanicAt(vec![4.0, 12.0]));
        for _ in 0..5 {
            let run = || {
                compress_on(
                    &spec,
                    Arc::clone(&work),
                    Arc::clone(&reducer),
                    Arc::clone(&input),
                    &meta,
                    &opts,
                    on(2),
                )
            };
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_err();
            let message = panic.downcast_ref::<String>().map(String::as_str);
            assert_eq!(message, Some("chunk at row 4"));
        }
        let fine: Arc<dyn Reducer> = Arc::new(Lz4Reducer);
        let (container, _) =
            compress_on(&spec, work, fine, Arc::clone(&input), &meta, &opts, on(2)).unwrap();
        assert_eq!(container.chunks.len(), 4);
    }
}
