//! The four parallelization abstractions (paper §III-A, Fig. 3) and their
//! lowering onto the execution models (Table I):
//!
//! | Abstraction   | Execution model | Mapping                     |
//! |---------------|-----------------|-----------------------------|
//! | Locality      | GEM             | block → group               |
//! | Iterative     | GEM             | B vectors → group           |
//! | Map & Process | DEM             | all subsets → whole domain  |
//! | Global        | DEM             | domain → whole domain       |
//!
//! Reduction algorithms (MGARD-X / ZFP-X / Huffman-X) are written purely
//! in terms of these calls, which is what makes them portable across the
//! device adapters.

use crate::adapter::{DeviceAdapter, ScratchPolicy};
use crate::error::Result;
use std::ops::Range;

/// Locality abstraction: the input domain is decomposed into `blocks`
/// blocks (with algorithm-chosen size/halo handled inside the body); a
/// group of threads cooperatively executes `f` on each block with
/// exclusive staging memory.
#[derive(Debug, Clone, Copy)]
pub struct Locality {
    pub blocks: usize,
    /// Bytes of per-block fast-memory staging.
    pub staging_bytes: usize,
    /// Staging initialization contract (zeroed by default; see
    /// [`ScratchPolicy`] for when `Dirty` is sound).
    pub policy: ScratchPolicy,
}

impl Locality {
    pub fn new(blocks: usize) -> Locality {
        Locality {
            blocks,
            staging_bytes: 0,
            policy: ScratchPolicy::Zeroed,
        }
    }

    pub fn with_staging(mut self, bytes: usize) -> Locality {
        self.staging_bytes = bytes;
        self
    }

    /// Opt out of per-block staging zeroing. The block body must fully
    /// overwrite any staging byte before reading it.
    pub fn with_dirty_staging(mut self) -> Locality {
        self.policy = ScratchPolicy::Dirty;
        self
    }

    /// Run `f(block_id, staging)` for every block. Lowered to GEM.
    /// Re-raises worker panics; see [`Locality::try_run`].
    pub fn run(&self, adapter: &dyn DeviceAdapter, f: &(dyn Fn(usize, &mut [u8]) + Sync)) {
        if let Err(e) = self.try_run(adapter, f) {
            panic!("{e}");
        }
    }

    /// Run `f(block_id, staging)` for every block, surfacing worker
    /// panics as [`HpdrError::WorkerPanic`](crate::HpdrError::WorkerPanic)
    /// with the failing block index.
    pub fn try_run(
        &self,
        adapter: &dyn DeviceAdapter,
        f: &(dyn Fn(usize, &mut [u8]) + Sync),
    ) -> Result<()> {
        adapter.try_gem(self.blocks, self.staging_bytes, self.policy, f)
    }
}

/// Iterative abstraction: `vectors` independent 1-D systems are processed
/// iteratively (e.g. tridiagonal solves); every `batch` (the paper's *B*)
/// vectors are organized into one group so a worker exploits memory
/// locality across neighbouring vectors.
#[derive(Debug, Clone, Copy)]
pub struct Iterative {
    pub vectors: usize,
    pub batch: usize,
    pub staging_bytes: usize,
}

impl Iterative {
    pub fn new(vectors: usize, batch: usize) -> Iterative {
        Iterative {
            vectors,
            batch: batch.max(1),
            staging_bytes: 0,
        }
    }

    /// Give every group `bytes` of per-worker staging. Staging is handed
    /// over dirty ([`ScratchPolicy::Dirty`]): the group body must
    /// overwrite any staging byte before reading it.
    pub fn with_staging(mut self, bytes: usize) -> Iterative {
        self.staging_bytes = bytes;
        self
    }

    pub fn groups(&self) -> usize {
        self.vectors.div_ceil(self.batch)
    }

    /// Run `f(vector_ids, staging)` once per group with the group's
    /// contiguous range of (at most `batch`) vector ids; the group's
    /// vectors share one worker and its staging, so the body can solve
    /// them together (e.g. as SIMD lanes). Lowered to GEM (B:1);
    /// re-raises worker panics.
    pub fn run(&self, adapter: &dyn DeviceAdapter, f: &(dyn Fn(Range<usize>, &mut [u8]) + Sync)) {
        let vectors = self.vectors;
        let batch = self.batch;
        let body = |g: usize, staging: &mut [u8]| {
            let start = g * batch;
            f(start..(start + batch).min(vectors), staging);
        };
        let staging = self.staging_bytes;
        if let Err(e) = adapter.try_gem(self.groups(), staging, ScratchPolicy::Dirty, &body) {
            panic!("{e}");
        }
    }
}

/// Map-and-process abstraction: the domain is mapped into `subsets`
/// (e.g. MGARD level coefficients), each processed with a possibly
/// different function. Lowered to a single DEM stage across the union.
#[derive(Debug, Clone)]
pub struct MapAndProcess {
    /// Element count per subset.
    pub subset_sizes: Vec<usize>,
    prefix: Vec<usize>,
}

impl MapAndProcess {
    pub fn new(subset_sizes: Vec<usize>) -> MapAndProcess {
        let mut prefix = Vec::with_capacity(subset_sizes.len() + 1);
        let mut acc = 0usize;
        prefix.push(0);
        for &s in &subset_sizes {
            acc += s;
            prefix.push(acc);
        }
        MapAndProcess {
            subset_sizes,
            prefix,
        }
    }

    pub fn total(&self) -> usize {
        *self.prefix.last().unwrap()
    }

    /// Subset owning global element `i`, and the offset within it.
    pub fn locate(&self, i: usize) -> (usize, usize) {
        debug_assert!(i < self.total());
        // partition_point returns the first subset whose end exceeds i.
        let subset = self.prefix.partition_point(|&p| p <= i) - 1;
        (subset, i - self.prefix[subset])
    }

    /// Run `f(subset, index_in_subset)` across all subsets at once.
    pub fn run(&self, adapter: &dyn DeviceAdapter, f: &(dyn Fn(usize, usize) + Sync)) {
        let this = self;
        adapter.dem(self.total(), &move |i| {
            let (s, j) = this.locate(i);
            f(s, j);
        });
    }
}

/// One stage of a global pipeline: a whole-domain parallel-for.
pub struct GlobalStage<'a> {
    pub name: &'static str,
    pub items: usize,
    pub body: &'a (dyn Fn(usize) + Sync),
}

/// Global pipeline abstraction: all threads process the whole domain with
/// global synchronization between stages (histogramming, parallel
/// serialization). Lowered to consecutive DEM stages.
pub fn global_pipeline(adapter: &dyn DeviceAdapter, stages: &[GlobalStage<'_>]) {
    for stage in stages {
        adapter.dem(stage.items, stage.body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{CpuParallelAdapter, SerialAdapter};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn locality_runs_every_block() {
        let a = SerialAdapter::new();
        let n = AtomicUsize::new(0);
        Locality::new(13).with_staging(8).run(&a, &|_, st| {
            assert_eq!(st.len(), 8);
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 13);
    }

    #[test]
    fn iterative_covers_all_vectors_in_batches() {
        let a = CpuParallelAdapter::new(4);
        let it = Iterative::new(103, 8).with_staging(16);
        assert_eq!(it.groups(), 13);
        let hits: Vec<AtomicUsize> = (0..103).map(|_| AtomicUsize::new(0)).collect();
        it.run(&a, &|vectors, staging| {
            assert_eq!(staging.len(), 16);
            assert_eq!(vectors.start % 8, 0);
            assert!(vectors.len() == 8 || vectors.end == 103, "{vectors:?}");
            for v in vectors {
                hits[v].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn map_and_process_locates_subsets() {
        let m = MapAndProcess::new(vec![3, 0, 5, 2]);
        assert_eq!(m.total(), 10);
        assert_eq!(m.locate(0), (0, 0));
        assert_eq!(m.locate(2), (0, 2));
        assert_eq!(m.locate(3), (2, 0)); // empty subset 1 skipped
        assert_eq!(m.locate(7), (2, 4));
        assert_eq!(m.locate(8), (3, 0));
        assert_eq!(m.locate(9), (3, 1));
    }

    #[test]
    fn map_and_process_runs_each_element_once() {
        let a = CpuParallelAdapter::new(4);
        let m = MapAndProcess::new(vec![10, 20, 30]);
        let per_subset: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        m.run(&a, &|s, _| {
            per_subset[s].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(per_subset[0].load(Ordering::Relaxed), 10);
        assert_eq!(per_subset[1].load(Ordering::Relaxed), 20);
        assert_eq!(per_subset[2].load(Ordering::Relaxed), 30);
    }

    #[test]
    fn global_pipeline_stage_order_is_barriered() {
        // Stage 2 must observe all of stage 1's writes.
        let a = CpuParallelAdapter::new(4);
        let n = 10_000;
        let data: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let ok = AtomicUsize::new(0);
        global_pipeline(
            &a,
            &[
                GlobalStage {
                    name: "fill",
                    items: n,
                    body: &|i| {
                        data[i].store(i + 1, Ordering::Relaxed);
                    },
                },
                GlobalStage {
                    name: "check",
                    items: n,
                    body: &|i| {
                        if data[i].load(Ordering::Relaxed) == i + 1 {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                    },
                },
            ],
        );
        assert_eq!(ok.load(Ordering::Relaxed), n);
    }
}
