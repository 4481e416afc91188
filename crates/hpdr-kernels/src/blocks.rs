//! N-dimensional block decomposition for the Locality abstraction
//! (paper Fig. 3a — customizable block sizes over 1–4D domains).

use hpdr_core::Shape;

/// Rank bound for the stack-allocated index scratch (arrays are 1–4D;
/// headroom costs nothing).
const MAX_RANK: usize = 8;

/// A grid of fixed-size blocks tiling an n-dimensional array.
#[derive(Debug, Clone)]
pub struct BlockGrid {
    shape: Shape,
    block: Vec<usize>,
    /// Blocks along each dimension.
    counts: Vec<usize>,
}

impl BlockGrid {
    pub fn new(shape: &Shape, block_dims: &[usize]) -> BlockGrid {
        assert_eq!(shape.ndims(), block_dims.len(), "block rank mismatch");
        assert!(block_dims.len() <= MAX_RANK, "rank exceeds {MAX_RANK}");
        assert!(block_dims.iter().all(|&b| b > 0), "zero block dim");
        let counts = shape
            .dims()
            .iter()
            .zip(block_dims)
            .map(|(&d, &b)| d.div_ceil(b))
            .collect();
        BlockGrid {
            shape: shape.clone(),
            block: block_dims.to_vec(),
            counts,
        }
    }

    pub fn num_blocks(&self) -> usize {
        self.counts.iter().product()
    }

    pub fn block_dims(&self) -> &[usize] {
        &self.block
    }

    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Elements in one full block.
    pub fn block_elements(&self) -> usize {
        self.block.iter().product()
    }

    /// Origin (multi-index) of block `b`.
    pub fn origin(&self, b: usize) -> Vec<usize> {
        let mut origin = [0usize; MAX_RANK];
        self.origin_into(b, &mut origin);
        origin[..self.counts.len()].to_vec()
    }

    fn origin_into(&self, b: usize, origin: &mut [usize; MAX_RANK]) {
        debug_assert!(b < self.num_blocks());
        let mut rem = b;
        for k in (0..self.counts.len()).rev() {
            origin[k] = (rem % self.counts[k]) * self.block[k];
            rem /= self.counts[k];
        }
    }

    /// Gather block `b` into `out` (length = block_elements), replicating
    /// edge values for partial blocks (ZFP-style padding).
    pub fn gather<T: Copy>(&self, data: &[T], b: usize, out: &mut [T]) {
        debug_assert_eq!(out.len(), self.block_elements());
        let mut origin = [0usize; MAX_RANK];
        self.origin_into(b, &mut origin);
        let dims = self.shape.dims();
        let strides = self.shape.strides();
        let nd = dims.len();
        // Fast path — fully interior block: every lane maps straight into
        // the window, so the block is `rows` contiguous runs of the
        // innermost block dim. An odometer over the outer dims replaces
        // the per-lane multi-index decode (div/mod per dimension), which
        // dominates encode-side time on large grids.
        if (0..nd).all(|k| origin[k] + self.block[k] <= dims[k]) {
            let row = self.block[nd - 1];
            let base: usize = (0..nd).map(|k| origin[k] * strides[k]).sum();
            let mut idx = [0usize; MAX_RANK];
            let mut src = base;
            for chunk in out.chunks_exact_mut(row) {
                chunk.copy_from_slice(&data[src..src + row]);
                for k in (0..nd - 1).rev() {
                    idx[k] += 1;
                    src += strides[k];
                    if idx[k] < self.block[k] {
                        break;
                    }
                    src -= self.block[k] * strides[k];
                    idx[k] = 0;
                }
            }
            return;
        }
        // Edge path: clamped per-lane indexing (replicate padding).
        let mut local = [0usize; MAX_RANK];
        for (slot, item) in out.iter_mut().enumerate() {
            // Decode local multi-index within the block (row-major).
            let mut rem = slot;
            for k in (0..nd).rev() {
                local[k] = rem % self.block[k];
                rem /= self.block[k];
            }
            let mut flat = 0usize;
            for k in 0..nd {
                // Clamp to the array edge: replicate padding.
                let idx = (origin[k] + local[k]).min(dims[k] - 1);
                flat += idx * strides[k];
            }
            *item = data[flat];
        }
    }

    /// Scatter block `b` from `src`, skipping padded (out-of-domain)
    /// lanes: `put(at, run)` receives each block row's in-domain lanes
    /// as one contiguous run starting at flat index `at`. Blocks tile the
    /// domain, so the runs of distinct blocks never overlap.
    ///
    /// An odometer over the outer block dims walks the rows whose outer
    /// indices lie in the domain (all of them for an interior block) and
    /// clips each row at the innermost edge — no per-lane index decode.
    pub fn scatter<T: Copy>(&self, b: usize, src: &[T], mut put: impl FnMut(usize, &[T])) {
        debug_assert_eq!(src.len(), self.block_elements());
        let mut origin = [0usize; MAX_RANK];
        self.origin_into(b, &mut origin);
        let dims = self.shape.dims();
        let strides = self.shape.strides();
        let nd = dims.len();
        // In-domain extent of the block along each dim, and the block's
        // own row-major strides.
        let mut keep = [0usize; MAX_RANK];
        let mut bstride = [0usize; MAX_RANK];
        let mut step = 1;
        for k in (0..nd).rev() {
            keep[k] = self.block[k].min(dims[k] - origin[k]);
            bstride[k] = step;
            step *= self.block[k];
        }
        let row = keep[nd - 1];
        let mut idx = [0usize; MAX_RANK];
        let mut at: usize = (0..nd).map(|k| origin[k] * strides[k]).sum();
        let mut from = 0usize;
        loop {
            put(at, &src[from..from + row]);
            let mut k = nd - 1;
            loop {
                if k == 0 {
                    return;
                }
                k -= 1;
                idx[k] += 1;
                at += strides[k];
                from += bstride[k];
                if idx[k] < keep[k] {
                    break;
                }
                at -= keep[k] * strides[k];
                from -= keep[k] * bstride[k];
                idx[k] = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_origins_2d() {
        let g = BlockGrid::new(&Shape::new(&[5, 6]), &[4, 4]);
        assert_eq!(g.num_blocks(), 4); // 2x2 blocks
        assert_eq!(g.origin(0), vec![0, 0]);
        assert_eq!(g.origin(1), vec![0, 4]);
        assert_eq!(g.origin(2), vec![4, 0]);
        assert_eq!(g.origin(3), vec![4, 4]);
        assert_eq!(g.block_elements(), 16);
    }

    #[test]
    fn gather_scatter_roundtrip_exact_fit() {
        let shape = Shape::new(&[8, 8]);
        let g = BlockGrid::new(&shape, &[4, 4]);
        let data: Vec<u32> = (0..64).collect();
        let mut rebuilt = vec![0u32; 64];
        let mut block = vec![0u32; 16];
        for b in 0..g.num_blocks() {
            g.gather(&data, b, &mut block);
            g.scatter(b, &block, |at, run| {
                rebuilt[at..at + run.len()].copy_from_slice(run)
            });
        }
        assert_eq!(rebuilt, data);
    }

    #[test]
    fn gather_scatter_roundtrip_partial_blocks() {
        let shape = Shape::new(&[5, 7, 3]);
        let g = BlockGrid::new(&shape, &[4, 4, 4]);
        let n = shape.num_elements();
        let data: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
        let mut rebuilt = vec![-1.0f32; n];
        let mut block = vec![0f32; g.block_elements()];
        for b in 0..g.num_blocks() {
            g.gather(&data, b, &mut block);
            g.scatter(b, &block, |at, run| {
                rebuilt[at..at + run.len()].copy_from_slice(run)
            });
        }
        assert_eq!(rebuilt, data);
    }

    #[test]
    fn scatter_writes_every_element_exactly_once() {
        // Disjoint runs are what lets parallel block groups scatter into
        // one shared output.
        let cases: [(&[usize], &[usize]); 5] = [
            (&[7], &[4]),
            (&[5, 6], &[4, 4]),
            (&[5, 7, 3], &[4, 4, 4]),
            (&[3, 5, 2, 6], &[4, 4, 4, 4]),
            (&[9, 10], &[2, 3]),
        ];
        for (dims, block) in cases {
            let shape = Shape::new(dims);
            let g = BlockGrid::new(&shape, block);
            let mut writes = vec![0u32; shape.num_elements()];
            let lanes = vec![0u8; g.block_elements()];
            for b in 0..g.num_blocks() {
                g.scatter(b, &lanes, |at, run| {
                    for w in &mut writes[at..at + run.len()] {
                        *w += 1;
                    }
                });
            }
            assert!(writes.iter().all(|&w| w == 1), "{dims:?} / {block:?}");
        }
    }

    #[test]
    fn padding_replicates_edge() {
        let shape = Shape::new(&[3]);
        let g = BlockGrid::new(&shape, &[4]);
        let data = [10.0f64, 20.0, 30.0];
        let mut block = [0f64; 4];
        g.gather(&data, 0, &mut block);
        assert_eq!(block, [10.0, 20.0, 30.0, 30.0]);
    }

    #[test]
    fn block_content_is_row_major_window() {
        let shape = Shape::new(&[4, 4]);
        let g = BlockGrid::new(&shape, &[2, 2]);
        let data: Vec<u32> = (0..16).collect();
        let mut block = vec![0u32; 4];
        g.gather(&data, 1, &mut block); // origin (0, 2)
        assert_eq!(block, vec![2, 3, 6, 7]);
        g.gather(&data, 2, &mut block); // origin (2, 0)
        assert_eq!(block, vec![8, 9, 12, 13]);
    }
}
