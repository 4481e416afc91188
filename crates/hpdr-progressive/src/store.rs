//! On-disk storage of a progressive refactoring in the BP container,
//! and the [`ProgressiveReader`] that fetches the minimal component
//! set for a tolerance and refines in place.
//!
//! Layout: one step, one variable block per component (variable
//! `c<level>.<plane>`), plus the framed [`Manifest`] under the
//! `manifest` variable. Each component block is independently
//! decodable, so a reader seeks and reads exactly the blocks its plan
//! selects — `bytes_fetched` counts real `read_block` I/O.

use crate::plan::{plan_fetch, FetchPlan};
use crate::refactoring::{
    level_counts, reconstruct, DecodeState, Manifest, Refactoring, Retrieval,
};
use hpdr_core::{DeviceAdapter, Float, HpdrError, Result, Shape};
use hpdr_io::{BpReader, BpWriter, FetchCostModel};
use hpdr_sim::Ns;
use std::path::Path;

/// BP variable the manifest is stored under.
pub const MANIFEST_VAR: &str = "manifest";

/// Write a refactoring to `dir` as a BP dataset (one block per
/// component, spread round-robin over `aggregators` subfiles).
pub fn write_bp(
    dir: impl AsRef<Path>,
    refactoring: &Refactoring,
    aggregators: usize,
) -> Result<()> {
    let meta = &refactoring.manifest.meta;
    let mut w = BpWriter::create(dir, aggregators)?;
    w.begin_step();
    w.put(
        MANIFEST_VAR,
        meta,
        &refactoring.manifest.to_bytes(),
        "manifest",
    )?;
    for (c, blob) in refactoring
        .manifest
        .components
        .iter()
        .zip(&refactoring.components)
    {
        w.put(
            &Manifest::var_name(c.level, c.plane),
            meta,
            blob,
            "huffman-x",
        )?;
    }
    w.end_step()?;
    w.close()
}

/// Progressive reader over a BP dataset: plans fetches against the
/// manifest, reads only the selected component blocks, and keeps all
/// decoded state so `refine` fetches strictly the delta.
pub struct ProgressiveReader {
    bp: BpReader,
    manifest: Manifest,
    state: DecodeState,
    fetched: Vec<bool>,
    level_counts: Vec<usize>,
    bytes_fetched: u64,
    fetch_ops: u64,
    cost: Option<FetchCostModel>,
    io_time: Ns,
}

impl ProgressiveReader {
    pub fn open(dir: impl AsRef<Path>) -> Result<ProgressiveReader> {
        let bp = BpReader::open(dir)?;
        let blocks = bp.blocks(0, MANIFEST_VAR)?;
        let first = blocks
            .first()
            .ok_or_else(|| HpdrError::corrupt("empty progressive manifest variable"))?;
        let manifest = Manifest::from_bytes(&bp.read_block(first)?)?;
        let n = manifest.components.len();
        Ok(ProgressiveReader {
            state: DecodeState::new(&manifest),
            level_counts: level_counts(&manifest)?,
            fetched: vec![false; n],
            bytes_fetched: 0,
            fetch_ops: 0,
            cost: None,
            io_time: Ns::ZERO,
            bp,
            manifest,
        })
    }

    /// Charge every component fetch through a filesystem cost model:
    /// [`io_time`](Self::io_time) then accumulates the virtual time the
    /// retrieval I/O would take on that system, one node's reader
    /// parallelism per fetch.
    pub fn with_cost_model(mut self, model: FetchCostModel) -> ProgressiveReader {
        self.cost = Some(model);
        self
    }

    /// Accumulated virtual I/O time of all component fetches (zero
    /// without a cost model).
    pub fn io_time(&self) -> Ns {
        self.io_time
    }

    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Total bytes read from component blocks so far.
    pub fn bytes_fetched(&self) -> u64 {
        self.bytes_fetched
    }

    /// Number of component block reads issued (each component is read
    /// at most once — re-fetches would show up here).
    pub fn fetch_ops(&self) -> u64 {
        self.fetch_ops
    }

    /// Planes held per level (contiguous MSB-first prefix).
    pub fn held(&self) -> Vec<u8> {
        self.state.held()
    }

    /// Guaranteed bound of the currently held state.
    pub fn current_bound(&self) -> f64 {
        self.manifest.bound_with(&self.state.held())
    }

    /// Plan a fetch for `tolerance` against the currently held state.
    pub fn plan(&self, tolerance: f64) -> FetchPlan {
        plan_fetch(&self.manifest, &self.state.held(), tolerance)
    }

    /// Fetch + decode one component by manifest index. Returns `false`
    /// (and performs no I/O) when it is already held.
    pub fn fetch_component(&mut self, adapter: &dyn DeviceAdapter, idx: usize) -> Result<bool> {
        let c = self
            .manifest
            .components
            .get(idx)
            .ok_or_else(|| HpdrError::invalid("component index out of range"))?
            .clone();
        if self.fetched[idx] {
            return Ok(false);
        }
        let blocks = self.bp.blocks(0, &Manifest::var_name(c.level, c.plane))?;
        let info = blocks
            .first()
            .ok_or_else(|| HpdrError::corrupt("missing component block"))?;
        let blob = self.bp.read_block(info)?;
        self.bytes_fetched += blob.len() as u64;
        self.fetch_ops += 1;
        if let Some(model) = &self.cost {
            self.io_time += model.fetch_time(blob.len() as u64, 1);
        }
        let decoded = hpdr_huffman::decompress_u32(adapter, &blob)?;
        self.state.apply(
            c.level,
            c.plane,
            &decoded,
            self.level_counts[c.level as usize],
        )?;
        self.fetched[idx] = true;
        Ok(true)
    }

    /// Reconstruct from the currently held components.
    pub fn reconstruct<T: Float>(&self, adapter: &dyn DeviceAdapter) -> Result<(Vec<T>, Shape)> {
        reconstruct::<T>(adapter, &self.manifest, &self.state)
    }

    /// Fetch the minimal component set for `tolerance` (absolute L∞)
    /// and reconstruct. Already-held components are never re-fetched,
    /// so a second call with the same tolerance performs zero I/O.
    pub fn retrieve<T: Float>(
        &mut self,
        adapter: &dyn DeviceAdapter,
        tolerance: f64,
    ) -> Result<Retrieval<T>> {
        let plan = self.plan(tolerance);
        let before = self.bytes_fetched;
        let mut fetched = 0usize;
        for &idx in &plan.picks {
            if self.fetch_component(adapter, idx)? {
                fetched += 1;
            }
        }
        let (data, shape) = self.reconstruct::<T>(adapter)?;
        Ok(Retrieval {
            data,
            shape,
            bound: self.current_bound(),
            fetched_bytes: self.bytes_fetched - before,
            fetched_components: fetched,
        })
    }

    /// Refine to a tighter tolerance, fetching strictly the delta
    /// components and reusing all already-decoded state.
    pub fn refine<T: Float>(
        &mut self,
        adapter: &dyn DeviceAdapter,
        tolerance: f64,
    ) -> Result<Retrieval<T>> {
        self.retrieve(adapter, tolerance)
    }
}
