//! Multilevel grid hierarchy (paper §IV-A).
//!
//! MGARD treats the data as a piecewise-multilinear function and
//! decomposes it level by level. Each dimension's node set coarsens by
//! keeping every other node *and always the last* (so arbitrary — not
//! just 2^k+1 — sizes work; the trailing interval simply becomes
//! non-uniform, which all 1-D operators handle via true node
//! coordinates). A dimension stops coarsening once it has two nodes.
//!
//! Level `L` (finest) is the input grid; level `0` is the coarsest.

use hpdr_core::Shape;

/// Per-dimension, per-level node index lists.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// `nodes[l][dim]` = sorted node indices of level `l` along `dim`.
    nodes: Vec<Vec<Vec<usize>>>,
    shape: Shape,
}

/// Coarsen one dimension's node list: even positions plus the last node.
fn coarsen(list: &[usize]) -> Vec<usize> {
    if list.len() <= 2 {
        return list.to_vec();
    }
    let mut out: Vec<usize> = list.iter().copied().step_by(2).collect();
    if *out.last().unwrap() != *list.last().unwrap() {
        out.push(*list.last().unwrap());
    }
    out
}

impl Hierarchy {
    pub fn new(shape: &Shape) -> Hierarchy {
        let mut levels: Vec<Vec<Vec<usize>>> = Vec::new();
        let mut current: Vec<Vec<usize>> = shape
            .dims()
            .iter()
            .map(|&n| (0..n).collect::<Vec<usize>>())
            .collect();
        levels.push(current.clone());
        // Coarsen until every dimension bottoms out.
        while current.iter().any(|l| l.len() > 2) {
            current = current.iter().map(|l| coarsen(l)).collect();
            levels.push(current.clone());
        }
        levels.reverse(); // index 0 = coarsest
        Hierarchy {
            nodes: levels,
            shape: shape.clone(),
        }
    }

    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of levels (`L + 1`).
    pub fn total_levels(&self) -> usize {
        self.nodes.len()
    }

    /// The [`total_levels`](Self::total_levels) of the hierarchy over
    /// `shape`, from the dims alone: [`coarsen`] takes a dim of `m > 2`
    /// nodes to `m / 2 + 1`, so no node list is built. Decoders check a
    /// stored level count with it before they build a context.
    pub fn level_count(shape: &Shape) -> usize {
        let steps = |mut m: usize| {
            let mut s = 0;
            while m > 2 {
                m = m / 2 + 1;
                s += 1;
            }
            s
        };
        1 + shape.dims().iter().map(|&m| steps(m)).max().unwrap_or(0)
    }

    /// Index of the finest level (`L`).
    pub fn finest(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Node list of `level` along `dim`.
    pub fn dim_nodes(&self, level: usize, dim: usize) -> &[usize] {
        &self.nodes[level][dim]
    }

    /// Grid extents (list lengths per dim) at `level`.
    pub fn level_dims(&self, level: usize) -> Vec<usize> {
        self.nodes[level].iter().map(|l| l.len()).collect()
    }

    /// Number of grid nodes at `level`.
    pub fn level_nodes(&self, level: usize) -> usize {
        self.nodes[level].iter().map(|l| l.len()).product()
    }

    /// For every full-resolution flat index, the level at which that node
    /// first appears (its coefficient level). Level 0 nodes are the
    /// coarsest values; level `l >= 1` nodes are new at `l`.
    pub fn node_levels(&self) -> Vec<u8> {
        let dim_level = self.first_levels();
        // A node's level is the max of its per-dim levels: a row's outer
        // level, then the last dimension's table.
        let (last, outer) = dim_level.split_last().expect("at least one dimension");
        let mut out = vec![0u8; self.shape.num_elements()];
        let mut pos = vec![0usize; outer.len()];
        for row in out.chunks_exact_mut(last.len()) {
            let base = outer
                .iter()
                .zip(&pos)
                .map(|(t, &p)| t[p])
                .max()
                .unwrap_or(0);
            for (o, &l) in row.iter_mut().zip(last) {
                *o = base.max(l);
            }
            for (p, t) in pos.iter_mut().zip(outer).rev() {
                *p += 1;
                if *p < t.len() {
                    break;
                }
                *p = 0;
            }
        }
        out
    }

    /// Per dimension, the first level containing each index.
    fn first_levels(&self) -> Vec<Vec<u8>> {
        let dims = self.shape.dims();
        (0..dims.len())
            .map(|d| {
                // Walk from coarsest up; first time an index appears wins.
                let mut level = vec![0u8; dims[d]];
                let mut assigned = vec![false; dims[d]];
                for (l, nodes) in self.nodes.iter().enumerate() {
                    for &idx in &nodes[d] {
                        if !assigned[idx] {
                            assigned[idx] = true;
                            level[idx] = l as u8;
                        }
                    }
                }
                debug_assert!(assigned.into_iter().all(|a| a));
                level
            })
            .collect()
    }
}

/// Position classification of a fine-list position within one dimension's
/// coarsening step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// Also present on the coarse level (even position or the last node).
    Coarse {
        /// Position in the coarse list.
        coarse_pos: usize,
    },
    /// New at this level: interpolated from fine-list neighbours
    /// `pos - 1` and `pos + 1` (both coarse).
    New,
}

/// Classify position `pos` of a fine list of length `len`.
pub fn role_of(pos: usize, len: usize) -> NodeRole {
    debug_assert!(pos < len);
    if len <= 2 {
        return NodeRole::Coarse { coarse_pos: pos };
    }
    if pos == len - 1 {
        // Last node is always kept.
        let evens = len.div_ceil(2);
        let coarse_pos = if (len - 1).is_multiple_of(2) {
            evens - 1
        } else {
            evens // appended after the even positions
        };
        return NodeRole::Coarse { coarse_pos };
    }
    if pos.is_multiple_of(2) {
        NodeRole::Coarse {
            coarse_pos: pos / 2,
        }
    } else {
        NodeRole::New
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_count_matches_the_built_hierarchy() {
        for dims in [
            &[1][..],
            &[2],
            &[3],
            &[4],
            &[5],
            &[257],
            &[33, 12],
            &[16, 16, 16],
            &[19, 33, 65],
            &[2, 3, 10, 8],
        ] {
            let shape = Shape::new(dims);
            assert_eq!(
                Hierarchy::level_count(&shape),
                Hierarchy::new(&shape).total_levels(),
                "{dims:?}"
            );
        }
        // Huge dims cost a loop of about 64 halvings, not a node list.
        assert_eq!(Hierarchy::level_count(&Shape::new(&[1 << 32, 16, 16])), 33);
    }

    #[test]
    fn coarsen_odd_and_even_lengths() {
        assert_eq!(coarsen(&[0, 1, 2, 3, 4, 5, 6]), vec![0, 2, 4, 6]);
        assert_eq!(coarsen(&[0, 2, 4, 6]), vec![0, 4, 6]);
        assert_eq!(coarsen(&[0, 4, 6]), vec![0, 6]);
        assert_eq!(coarsen(&[0, 6]), vec![0, 6]);
        assert_eq!(coarsen(&[0]), vec![0]);
    }

    #[test]
    fn hierarchy_levels_for_power_of_two_plus_one() {
        let h = Hierarchy::new(&Shape::new(&[9]));
        assert_eq!(h.total_levels(), 4); // 9 → 5 → 3 → 2
        assert_eq!(h.dim_nodes(3, 0), &[0, 1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(h.dim_nodes(2, 0), &[0, 2, 4, 6, 8]);
        assert_eq!(h.dim_nodes(1, 0), &[0, 4, 8]);
        assert_eq!(h.dim_nodes(0, 0), &[0, 8]);
    }

    #[test]
    fn hierarchy_handles_arbitrary_sizes() {
        for n in [2usize, 3, 5, 7, 100, 511, 513] {
            let h = Hierarchy::new(&Shape::new(&[n]));
            // Coarsest level has exactly 2 nodes (or n if n < 3).
            let coarsest = h.dim_nodes(0, 0);
            assert!(coarsest.len() <= 2, "n={n}: {coarsest:?}");
            assert_eq!(*coarsest.first().unwrap(), 0);
            assert_eq!(*coarsest.last().unwrap(), n - 1);
            // Every level's nodes are a superset of the coarser level's.
            for l in 1..h.total_levels() {
                let fine = h.dim_nodes(l, 0);
                let coarse = h.dim_nodes(l - 1, 0);
                for c in coarse {
                    assert!(fine.contains(c), "n={n} l={l}");
                }
            }
            // Finest level is the full grid.
            assert_eq!(h.dim_nodes(h.finest(), 0).len(), n);
        }
    }

    #[test]
    fn mixed_dims_coarsen_together() {
        let h = Hierarchy::new(&Shape::new(&[17, 5]));
        // Dim 1 bottoms out earlier and then stays at 2 nodes.
        assert_eq!(h.dim_nodes(h.finest(), 1).len(), 5);
        assert_eq!(h.dim_nodes(0, 1).len(), 2);
        assert_eq!(h.dim_nodes(0, 0).len(), 2);
    }

    /// The per-node loop [`Hierarchy::node_levels`] replaced: every flat
    /// index unravelled by division, the max taken over its axes.
    fn node_levels_reference(h: &Hierarchy) -> Vec<u8> {
        let dim_level = h.first_levels();
        let strides = h.shape.strides();
        (0..h.shape.num_elements())
            .map(|flat| {
                let mut rem = flat;
                let mut lvl = 0u8;
                for (table, &stride) in dim_level.iter().zip(&strides) {
                    lvl = lvl.max(table[rem / stride]);
                    rem %= stride;
                }
                lvl
            })
            .collect()
    }

    #[test]
    fn node_levels_match_the_per_node_loop() {
        for dims in [
            &[1][..],
            &[2],
            &[7],
            &[257],
            &[1, 9],
            &[33, 12],
            &[9, 5],
            &[19, 33, 65],
            &[16, 1, 5],
            &[17, 17, 17],
        ] {
            let h = Hierarchy::new(&Shape::new(dims));
            assert_eq!(h.node_levels(), node_levels_reference(&h), "{dims:?}");
        }
        // 4-D shapes reach the codec folded to 3-D.
        for dims in [&[2, 3, 10, 8][..], &[5, 4, 9, 11]] {
            let h = Hierarchy::new(&Shape::new(dims).folded_to_3d());
            assert_eq!(h.node_levels(), node_levels_reference(&h), "{dims:?}");
        }
    }

    #[test]
    fn node_levels_partition_all_nodes() {
        let shape = Shape::new(&[9, 5]);
        let h = Hierarchy::new(&shape);
        let mut counts = vec![0usize; h.total_levels()];
        for l in h.node_levels() {
            counts[l as usize] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 45);
        // Coarsest level: 2x2 corners.
        assert_eq!(counts[0], 4);
        // All counts positive except possibly intermediate saturated dims.
        assert!(counts[h.finest()] > 0);
    }

    #[test]
    fn role_classification() {
        // len 7: coarse at 0,2,4,6.
        assert_eq!(role_of(0, 7), NodeRole::Coarse { coarse_pos: 0 });
        assert_eq!(role_of(1, 7), NodeRole::New);
        assert_eq!(role_of(6, 7), NodeRole::Coarse { coarse_pos: 3 });
        // len 4 ([0,2,4,6] → [0,4,6]): pos 3 (last) coarse at coarse_pos 2.
        assert_eq!(role_of(0, 4), NodeRole::Coarse { coarse_pos: 0 });
        assert_eq!(role_of(1, 4), NodeRole::New);
        assert_eq!(role_of(2, 4), NodeRole::Coarse { coarse_pos: 1 });
        assert_eq!(role_of(3, 4), NodeRole::Coarse { coarse_pos: 2 });
        // len 2: both coarse.
        assert_eq!(role_of(0, 2), NodeRole::Coarse { coarse_pos: 0 });
        assert_eq!(role_of(1, 2), NodeRole::Coarse { coarse_pos: 1 });
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // `pos` is the classified position
    fn roles_match_coarsen_output() {
        for len in 3usize..40 {
            let list: Vec<usize> = (0..len).collect();
            let coarse = coarsen(&list);
            for pos in 0..len {
                match role_of(pos, len) {
                    NodeRole::Coarse { coarse_pos } => {
                        assert_eq!(coarse[coarse_pos], list[pos], "len={len} pos={pos}");
                    }
                    NodeRole::New => {
                        assert!(!coarse.contains(&list[pos]), "len={len} pos={pos}");
                    }
                }
            }
        }
    }

    #[test]
    fn three_d_hierarchy_shapes() {
        let h = Hierarchy::new(&Shape::new(&[17, 17, 17]));
        assert_eq!(h.total_levels(), 5);
        assert_eq!(h.level_nodes(h.finest()), 17 * 17 * 17);
        assert_eq!(h.level_nodes(0), 8);
        assert_eq!(h.level_dims(2), vec![5, 5, 5]);
    }
}
