//! The four parallelization abstractions of paper §III-A (Fig. 3) and
//! their lowering onto the execution models (Table I):
//!
//! | Abstraction   | Execution model | Mapping                     |
//! |---------------|-----------------|-----------------------------|
//! | Locality      | GEM             | block → group               |
//! | Iterative     | GEM             | B vectors → group           |
//! | Map & Process | DEM             | all subsets → whole domain  |
//! | Global        | DEM             | domain → whole domain       |
//!
//! The code that runs each row:
//! - Locality ([`Locality`]): ZFP-X block groups, Huffman-X chunk
//!   stages, MGARD-X interpolation rows.
//! - Iterative ([`Iterative`]): the MGARD-X correction solves.
//! - Map & Process: `hpdr_mgard::quantize`/`dequantize`, one DEM launch
//!   over the node-level map, where each node's level picks its bin.
//! - Global: Huffman-X histogram → codebook → encode, whole-domain
//!   stages with a barrier between them.
//!
//! Only Locality and Iterative need a type. A Map & Process type would
//! look up each element's subset with a binary search where the
//! node-level map already names it, and a Global type would only loop
//! over [`DeviceAdapter::dem`].

use crate::adapter::DeviceAdapter;
use std::ops::Range;

/// Locality abstraction: the input domain is decomposed into `blocks`
/// blocks (with algorithm-chosen size/halo handled inside the body), and
/// a group executes `f` on each block. No codec's block body needs
/// staging, so a Locality group asks GEM for none.
#[derive(Debug, Clone, Copy)]
pub struct Locality {
    pub blocks: usize,
}

impl Locality {
    pub fn new(blocks: usize) -> Locality {
        Locality { blocks }
    }

    /// Run `f(block_id)` for every block. Lowered to GEM; re-raises
    /// worker panics.
    pub fn run(&self, adapter: &dyn DeviceAdapter, f: &(dyn Fn(usize) + Sync)) {
        if let Err(e) = adapter.try_gem(self.blocks, 0, &|b, _| f(b)) {
            panic!("{e}");
        }
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

    /// Give every group `bytes` of per-worker staging, handed over as
    /// [`DeviceAdapter::try_gem`] does: the group body must write any
    /// staging byte before reading it.
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
        if let Err(e) = adapter.try_gem(self.groups(), self.staging_bytes, &body) {
            panic!("{e}");
        }
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
        Locality::new(13).run(&a, &|_| {
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
}
