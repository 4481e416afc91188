//! Multilevel decomposition / recomposition (paper Algorithm 1, lines
//! 5–13, and its inverse).
//!
//! Per level `l → l−1`:
//! 1. **Coefficients** (Locality + `lerp`): every node new at level `l`
//!    becomes `mc = u − multilinear-interp(coarse neighbours)`, in place.
//! 2. **Correction** (Locality `mass_trans` + Iterative `tridiag`): the
//!    L2 projection of the coefficient function onto the coarse grid,
//!    computed dimension by dimension (`M_c⁻¹ · Pᵀ · M_f`).
//! 3. **Apply** (Locality `add`): `u[coarse] += correction`.
//!
//! Recomposition runs the exact same correction computation (the
//! coefficients are still in `u`), subtracts it, then re-interpolates.
//!
//! Each level step starts by building one [`DimGeom`] table per
//! dimension, so no kernel unravels a flat index or recomputes a weight:
//! interpolation walks rows of the last dimension with each row's outer
//! corners prepared once, new and coarse columns in loops of their own,
//! and the correction solves tiles of [`LANES`] adjacent lines with the
//! lane index innermost. Every value is computed by the same
//! floating-point operations, in the same order, as the per-line
//! reference in [`crate::operators`], so the results are bit-identical
//! to it (DESIGN.md §5.8).

use crate::hierarchy::{role_of, Hierarchy, NodeRole};
use crate::operators::interp_weights;
use hpdr_core::{DeviceAdapter, Iterative, Locality, SharedSlice};
use std::ops::Range;

/// Lines per correction tile — the Iterative abstraction's *B*. One group
/// solves this many adjacent lines together, lane index innermost, so
/// every kernel loop runs at unit stride across lanes.
const LANES: usize = 64;

/// Elements per interpolation / apply group: enough to amortize a group
/// dispatch, few enough to balance rows across workers.
const GROUP_ELEMS: usize = 4096;

/// Role of one fine position along a dimension in one level step.
#[derive(Debug, Clone, Copy)]
enum Node {
    /// Kept on the coarse level, at this coarse position.
    Coarse(usize),
    /// New at this level, between its two neighbours (both coarse), with
    /// interpolation weights `(wl, wr)`.
    New { wl: f64, wr: f64 },
}

/// The 1-D correction operator `M_c⁻¹ · Pᵀ · M_f` of one level step along
/// one dimension. Every line-independent coefficient is evaluated once,
/// by the expressions [`crate::operators`] evaluates per line.
struct LineOp<'h> {
    /// Fine node coordinates, which give the mass-matrix spacings.
    fine: &'h [usize],
    nodes: Vec<Node>,
    n_coarse: usize,
    /// Thomas coefficients of the coarse mass matrix: `diag(0)`, then per
    /// coarse row `i` the pivot `m[i]` (`i ≥ 1`), the coupling `off[i]`
    /// to row `i + 1`, and the eliminated coupling `cp[i]`.
    d0: f64,
    m: Vec<f64>,
    off: Vec<f64>,
    cp: Vec<f64>,
}

/// Spacing between nodes `i` and `i + 1` of a coordinate list.
fn gap(c: &[usize], i: usize) -> f64 {
    (c[i + 1] - c[i]) as f64
}

impl<'h> LineOp<'h> {
    fn new(fine: &'h [usize], coarse: &[usize]) -> LineOp<'h> {
        let nf = fine.len();
        let nodes = (0..nf)
            .map(|p| match role_of(p, nf) {
                NodeRole::Coarse { coarse_pos } => Node::Coarse(coarse_pos),
                NodeRole::New => {
                    let (wl, wr) = interp_weights(fine, p);
                    Node::New { wl, wr }
                }
            })
            .collect();
        let nc = coarse.len();
        let diag = |i: usize| {
            let hl = if i > 0 { gap(coarse, i - 1) } else { 0.0 };
            let hr = if i + 1 < nc { gap(coarse, i) } else { 0.0 };
            (hl + hr) / 3.0
        };
        let off: Vec<f64> = (0..nc.saturating_sub(1))
            .map(|i| gap(coarse, i) / 6.0)
            .collect();
        let mut m = vec![0.0; nc];
        let mut cp = vec![0.0; nc];
        let mut d0 = 1.0;
        if nc > 1 {
            d0 = diag(0);
            cp[0] = off[0] / d0;
            for i in 1..nc {
                m[i] = diag(i) - off[i - 1] * cp[i - 1];
                if i + 1 < nc {
                    cp[i] = off[i] / m[i];
                }
            }
        }
        LineOp {
            fine,
            nodes,
            n_coarse: nc,
            d0,
            m,
            off,
            cp,
        }
    }

    fn is_coarse(&self, p: usize) -> bool {
        matches!(self.nodes[p], Node::Coarse(_))
    }

    /// Correct `lanes` lines at once. `fine` holds their values lane-minor
    /// (`fine[p * lanes + lane]`); the coarse result goes to `out` the same
    /// way. Each lane sees exactly the operations of `mass_apply` →
    /// `restrict` → `mass_solve` on its own line. Needs at least three
    /// fine positions (shorter lists do not coarsen).
    fn apply(&self, lanes: usize, fine: &[f64], out: &mut [f64]) {
        let nf = self.nodes.len();
        let nc = self.n_coarse;
        debug_assert!(nf >= 3 && nc >= 2);
        let row = |p: usize| &fine[p * lanes..(p + 1) * lanes];
        let out = &mut out[..nc * lanes];
        out.fill(0.0);

        // Pᵀ · M_f: each mass row is restricted as it is formed, in
        // fine-position order. A mass row's spacings are `hl` and `hr`,
        // 0.0 past an end; the end positions are coarse.
        let (hl, hr) = (0.0, gap(self.fine, 0));
        let s = hl + hr;
        for ((o, &x), &xr) in out[..lanes].iter_mut().zip(row(0)).zip(row(1)) {
            *o += x * s / 3.0 + xr * hr / 6.0;
        }
        // Coarse slot of the latest coarse position: a new position sits
        // between it and the next slot.
        let mut left = 0;
        for p in 1..nf - 1 {
            let (hl, hr) = (gap(self.fine, p - 1), gap(self.fine, p));
            let s = hl + hr;
            let vals = row(p).iter().zip(row(p - 1)).zip(row(p + 1));
            let mass = |((&x, &xl), &xr): ((&f64, &f64), &f64)| {
                x * s / 3.0 + xl * hl / 6.0 + xr * hr / 6.0
            };
            match self.nodes[p] {
                Node::Coarse(c) => {
                    for (o, v) in out[c * lanes..(c + 1) * lanes].iter_mut().zip(vals) {
                        *o += mass(v);
                    }
                    left = c;
                }
                Node::New { wl, wr } => {
                    let (ol, or) = out[left * lanes..(left + 2) * lanes].split_at_mut(lanes);
                    for ((a, b), v) in ol.iter_mut().zip(or).zip(vals) {
                        let v = mass(v);
                        *a += wl * v;
                        *b += wr * v;
                    }
                }
            }
        }
        let (hl, hr) = (gap(self.fine, nf - 2), 0.0);
        let s = hl + hr;
        let last = &mut out[(nc - 1) * lanes..];
        for ((o, &x), &xl) in last.iter_mut().zip(row(nf - 1)).zip(row(nf - 2)) {
            *o += x * s / 3.0 + xl * hl / 6.0;
        }

        // M_c⁻¹: Thomas forward sweep and back substitution.
        for b in &mut out[..lanes] {
            *b /= self.d0;
        }
        for i in 1..nc {
            let (done, rest) = out.split_at_mut(i * lanes);
            let (off, m) = (self.off[i - 1], self.m[i]);
            for (b, &bp) in rest[..lanes].iter_mut().zip(&done[(i - 1) * lanes..]) {
                *b = (*b - off * bp) / m;
            }
        }
        for i in (0..nc - 1).rev() {
            let (head, tail) = out.split_at_mut((i + 1) * lanes);
            let cp = self.cp[i];
            for (b, &bn) in head[i * lanes..].iter_mut().zip(&tail[..lanes]) {
                *b -= cp * bn;
            }
        }
    }
}

/// One dimension of one level step: where its fine and coarse positions
/// sit in the full array, and its 1-D operator.
struct DimGeom<'h> {
    fine_off: Vec<usize>,
    coarse_off: Vec<usize>,
    /// The new positions' offsets and interpolation weights, in position
    /// order: new position `q` is fine position `2q + 1`, between coarse
    /// slots `q` and `q + 1`.
    new_off: Vec<usize>,
    wl: Vec<f64>,
    wr: Vec<f64>,
    op: LineOp<'h>,
}

impl DimGeom<'_> {
    fn n_fine(&self) -> usize {
        self.fine_off.len()
    }

    fn n_coarse(&self) -> usize {
        self.coarse_off.len()
    }

    /// A list of two or fewer nodes no longer coarsens: the step is the
    /// identity along this dimension.
    fn saturated(&self) -> bool {
        self.n_fine() == self.n_coarse()
    }

    /// The coarse slots and the new positions among fine positions
    /// `cols`. Coarse slot `k` sits at fine position `min(2k, n − 1)`
    /// unless the dimension is saturated ([`role_of`]).
    fn split_cols(&self, cols: Range<usize>) -> (Range<usize>, Range<usize>) {
        if self.saturated() {
            return (cols, 0..0);
        }
        let coarse_end = if cols.end == self.n_fine() {
            self.n_coarse()
        } else {
            cols.end.div_ceil(2)
        };
        let new_end = (cols.end / 2).min(self.new_off.len());
        (cols.start.div_ceil(2)..coarse_end, cols.start / 2..new_end)
    }
}

/// Geometry tables of level step `l → l−1`, one per dimension.
fn level_geometry(h: &Hierarchy, l: usize) -> Vec<DimGeom<'_>> {
    let strides = h.shape().strides();
    strides
        .iter()
        .enumerate()
        .map(|(d, &stride)| {
            let (fine, coarse) = (h.dim_nodes(l, d), h.dim_nodes(l - 1, d));
            let op = LineOp::new(fine, coarse);
            let (mut new_off, mut wl, mut wr) = (Vec::new(), Vec::new(), Vec::new());
            for (&i, node) in fine.iter().zip(&op.nodes) {
                if let Node::New { wl: l, wr: r } = *node {
                    new_off.push(i * stride);
                    wl.push(l);
                    wr.push(r);
                }
            }
            DimGeom {
                fine_off: fine.iter().map(|&i| i * stride).collect(),
                coarse_off: coarse.iter().map(|&i| i * stride).collect(),
                new_off,
                wl,
                wr,
                op,
            }
        })
        .collect()
}

/// Row-major multi-index over up to three `extents`, stepped in place.
struct Odometer<'a> {
    pos: [usize; 3],
    extents: &'a [usize],
}

impl<'a> Odometer<'a> {
    /// Starts at the multi-index of flat position `at`.
    fn new(mut at: usize, extents: &'a [usize]) -> Odometer<'a> {
        let mut pos = [0; 3];
        for (p, &n) in pos[..extents.len()].iter_mut().zip(extents).rev() {
            *p = at % n;
            at /= n;
        }
        Odometer { pos, extents }
    }

    fn pos(&self) -> &[usize] {
        &self.pos[..self.extents.len()]
    }

    fn advance(&mut self) {
        for (p, &n) in self.pos[..self.extents.len()]
            .iter_mut()
            .zip(self.extents)
            .rev()
        {
            *p += 1;
            if *p < n {
                return;
            }
            *p = 0;
        }
    }
}

/// Run `body(row, outer_pos, cols)` over a grid whose rows run along the
/// last dimension (`row_len` long) and whose outer extents are `outer`,
/// about [`GROUP_ELEMS`] elements per Locality group: several whole rows,
/// or one column range of a longer row (so a 1-D field still spreads
/// over the workers).
fn for_each_row(
    adapter: &dyn DeviceAdapter,
    outer: &[usize],
    row_len: usize,
    body: impl Fn(usize, &[usize], Range<usize>) + Sync,
) {
    let rows: usize = outer.iter().product();
    if row_len > GROUP_ELEMS {
        let pieces = row_len.div_ceil(GROUP_ELEMS);
        Locality::new(rows * pieces).run(adapter, &|g, _| {
            let (r, start) = (g / pieces, g % pieces * GROUP_ELEMS);
            let at = Odometer::new(r, outer);
            body(r, at.pos(), start..(start + GROUP_ELEMS).min(row_len));
        });
        return;
    }
    let per_group = GROUP_ELEMS / row_len;
    Locality::new(rows.div_ceil(per_group)).run(adapter, &|g, _| {
        let first = g * per_group;
        let mut at = Odometer::new(first, outer);
        for r in first..(first + per_group).min(rows) {
            body(r, at.pos(), 0..row_len);
            at.advance();
        }
    });
}

/// Coefficient pass: every level-`l` node with a new dimension becomes
/// `apply(value, interpolant)`, the interpolant summing its all-coarse
/// corners from `0.0` in mask order (lowest new dimension toggling
/// fastest) with weights multiplied in ascending-dimension order.
fn interpolate(
    adapter: &dyn DeviceAdapter,
    u: &mut [f64],
    geo: &[DimGeom<'_>],
    apply: impl Fn(f64, f64) -> f64 + Sync,
) {
    let (last, outer) = geo.split_last().expect("at least one dimension");
    let extents: Vec<usize> = outer.iter().map(DimGeom::n_fine).collect();
    let u_sh = SharedSlice::new(u);
    for_each_row(adapter, &extents, last.n_fine(), |_, pos, cols| {
        // The row's outer corners (offset, weight), one per left/right
        // choice over its new outer dimensions, built in mask order.
        let mut corners = [(0usize, 1.0f64); 8];
        let mut n = 1;
        let mut row = 0;
        for (g, &p) in outer.iter().zip(pos) {
            row += g.fine_off[p];
            match g.op.nodes[p] {
                Node::Coarse(_) => corners[..n].iter_mut().for_each(|c| c.0 += g.fine_off[p]),
                Node::New { wl, wr, .. } => {
                    for i in 0..n {
                        let (o, w) = corners[i];
                        corners[i] = (o + g.fine_off[p - 1], w * wl);
                        corners[n + i] = (o + g.fine_off[p + 1], w * wr);
                    }
                    n *= 2;
                }
            }
        }
        // Specialized on the corner count so the corner loops unroll.
        let corners = &corners[..n];
        match n {
            1 => interp_row::<1>(&u_sh, corners, row, cols, last, &apply),
            2 => interp_row::<2>(&u_sh, corners, row, cols, last, &apply),
            4 => interp_row::<4>(&u_sh, corners, row, cols, last, &apply),
            _ => interp_row::<8>(&u_sh, corners, row, cols, last, &apply),
        }
    });
}

/// Columns `cols` of one row of the coefficient pass, given the row's `N`
/// outer corners and its own offset `row`. New and coarse columns run in
/// loops of their own over the last dimension's tables, so no column
/// branches on its role.
fn interp_row<const N: usize>(
    u_sh: &SharedSlice<'_, f64>,
    corners: &[(usize, f64)],
    row: usize,
    cols: Range<usize>,
    last: &DimGeom<'_>,
    apply: &impl Fn(f64, f64) -> f64,
) {
    let corners: &[(usize, f64); N] = corners.try_into().expect("N corners");
    // Adds the corners at last-dimension offset `at`, each weighted by
    // `w · ws` (`ws = 1.0` leaves `w` exact).
    let gather = |acc: &mut f64, at: usize, ws: f64| {
        for &(o, w) in corners {
            // SAFETY: corners are all-coarse nodes, which this pass only
            // reads; every write below targets a node with a new dimension.
            *acc += w * ws * unsafe { u_sh.read(o + at) };
        }
    };
    let set = |at: usize, acc: f64| {
        let idx = row + at;
        // SAFETY: `idx` is a node of this row with a new dimension; no
        // other group, row or column reads or writes it.
        unsafe { u_sh.write(idx, apply(u_sh.read(idx), acc)) };
    };
    let (coarse, new) = last.split_cols(cols);
    // New columns, between coarse slots `q` and `q + 1`.
    let sides = last.coarse_off[new.start..].windows(2);
    for (((&at, &wl), &wr), lr) in last.new_off[new.clone()]
        .iter()
        .zip(&last.wl[new.clone()])
        .zip(&last.wr[new])
        .zip(sides)
    {
        let mut acc = 0.0;
        gather(&mut acc, lr[0], wl);
        gather(&mut acc, lr[1], wr);
        set(at, acc);
    }
    // Coarse columns of a row with a new outer dimension; a row without
    // one is all-coarse there.
    if N > 1 {
        for &at in &last.coarse_off[coarse] {
            let mut acc = 0.0;
            gather(&mut acc, at, 1.0);
            set(at, acc);
        }
    }
}

/// Per-dimension offsets of a row-major array of extents `dims`.
fn compact_offsets(dims: &[usize]) -> Vec<Vec<usize>> {
    let mut stride = 1;
    let mut off = vec![Vec::new(); dims.len()];
    for (o, &n) in off.iter_mut().zip(dims).rev() {
        *o = (0..n).map(|p| p * stride).collect();
        stride *= n;
    }
    off
}

/// What a correction pass reads: values and the offset of every position
/// along each dimension.
struct PassInput<'a> {
    data: &'a [f64],
    off: Vec<Vec<usize>>,
    /// Set on a level's first pass, which reads the coefficient function
    /// straight from `u`: the level's roles, so all-coarse nodes read 0.
    roles: Option<&'a [DimGeom<'a>]>,
}

/// Staging bytes for a tile of `lanes` lines of `nf` fine and `nc`
/// coarse positions, plus slack so its `f64`-aligned part holds the tile.
fn tile_bytes(nf: usize, nc: usize, lanes: usize) -> usize {
    (nf + nc) * lanes * std::mem::size_of::<f64>() + std::mem::align_of::<f64>()
}

/// The first `len` aligned `f64`s of a staging arena sized by
/// [`tile_bytes`].
fn staging_f64(staging: &mut [u8], len: usize) -> &mut [f64] {
    // A byte pointer can always be aligned at run time, within the
    // `align_of::<f64>()` slack `tile_bytes` adds.
    let skip = staging.as_ptr().align_offset(std::mem::align_of::<f64>());
    let bytes = &mut staging[skip..skip + len * std::mem::size_of::<f64>()];
    // SAFETY: `bytes` is `f64`-aligned, exactly `len` f64s long and part of
    // this group's exclusive staging arena, borrowed mutably for the
    // result's lifetime; every bit pattern is a valid `f64`.
    unsafe { std::slice::from_raw_parts_mut(bytes.as_mut_ptr().cast::<f64>(), len) }
}

/// One dimension of the correction: every line along `k` of the input,
/// mass → restrict → Thomas, into `out` (row-major over `out_dims`). Each
/// Iterative group gathers [`LANES`] adjacent lines into a lane-minor tile
/// in its staging, solves them together and scatters the coarse rows.
fn correction_pass(
    adapter: &dyn DeviceAdapter,
    input: &PassInput<'_>,
    k: usize,
    op: &LineOp<'_>,
    out_dims: &[usize],
    out: &mut [f64],
) {
    let nf = input.off[k].len();
    let nc = out_dims[k];
    let out_off = compact_offsets(out_dims);
    let others: Vec<usize> = (0..out_dims.len()).filter(|&d| d != k).collect();
    let extents: Vec<usize> = others.iter().map(|&d| input.off[d].len()).collect();
    let lines: usize = extents.iter().product();
    let out_sh = SharedSlice::new(out);
    Iterative::new(lines, LANES)
        .with_staging(tile_bytes(nf, nc, LANES.min(lines)))
        .run(adapter, &|span, staging| {
            let lanes = span.len();
            let (fine, coarse) = staging_f64(staging, (nf + nc) * lanes).split_at_mut(nf * lanes);
            let mut src = [0usize; LANES];
            let mut dst = [0usize; LANES];
            let mut zero = [false; LANES];
            // The tile's lines, a run along the innermost other dimension
            // at a time: a run shares its outer offsets and roles.
            let mut lane = 0;
            while lane < lanes {
                let at = Odometer::new(span.start + lane, &extents);
                let (pos, inner) = at.pos().split_at(others.len().saturating_sub(1));
                let (mut s0, mut d0) = (0, 0);
                for (&d, &p) in others.iter().zip(pos) {
                    s0 += input.off[d][p];
                    d0 += out_off[d][p];
                }
                let coarse =
                    |d: usize, p: usize| input.roles.is_some_and(|geo| geo[d].op.is_coarse(p));
                let outer_coarse =
                    input.roles.is_some() && others.iter().zip(pos).all(|(&d, &p)| coarse(d, p));
                let Some((&d, &p0)) = others.last().zip(inner.first()) else {
                    // A 1-D field: its one line starts at 0.
                    zero[0] = outer_coarse;
                    break;
                };
                let run = (extents[extents.len() - 1] - p0).min(lanes - lane);
                for (i, p) in (lane..lane + run).zip(p0..) {
                    src[i] = s0 + input.off[d][p];
                    dst[i] = d0 + out_off[d][p];
                    zero[i] = outer_coarse && coarse(d, p);
                }
                lane += run;
            }
            // Whole tile rows when several lanes are adjacent, else line
            // by line (the last dimension, `u` at coarser levels, and a
            // lone line, which one strided loop moves fastest).
            let adjacent = |at: &[usize]| lanes > 1 && (1..lanes).all(|i| at[i] == at[0] + i);
            if adjacent(&src) {
                for (row, &o) in fine.chunks_exact_mut(lanes).zip(&input.off[k]) {
                    let at = src[0] + o;
                    row.copy_from_slice(&input.data[at..at + lanes]);
                }
            } else {
                for (lane, &at) in src[..lanes].iter().enumerate() {
                    for (x, &o) in fine[lane..].iter_mut().step_by(lanes).zip(&input.off[k]) {
                        *x = input.data[at + o];
                    }
                }
            }
            if let Some(geo) = input.roles {
                for (p, row) in fine.chunks_exact_mut(lanes).enumerate() {
                    if geo[k].op.is_coarse(p) {
                        for (x, &z) in row.iter_mut().zip(&zero) {
                            if z {
                                *x = 0.0;
                            }
                        }
                    }
                }
            }
            op.apply(lanes, fine, coarse);
            // A line writes only positions whose coordinates off
            // dimension `k` are its own; lines are distinct, so tiles write
            // disjoint sets.
            if adjacent(&dst) {
                for (row, &o) in coarse.chunks_exact(lanes).zip(&out_off[k]) {
                    // SAFETY: the tile's lanes at coarse position `o`, a
                    // range only this tile writes.
                    unsafe { out_sh.slice_mut(dst[0] + o, lanes) }.copy_from_slice(row);
                }
            } else {
                for (lane, &at) in dst[..lanes].iter().enumerate() {
                    for (&v, &o) in coarse[lane..].iter().step_by(lanes).zip(&out_off[k]) {
                        // SAFETY: a position of this lane's own line.
                        unsafe { out_sh.write(at + o, v) };
                    }
                }
            }
        });
}

/// The two ping-pong buffers of the correction passes, sized for the
/// largest pass output of any level.
fn correction_buffers(h: &Hierarchy) -> [Vec<f64>; 2] {
    let mut len = [0usize; 2];
    for l in 1..=h.finest() {
        let mut dims = h.level_dims(l);
        let mut which = 0;
        for (k, nc) in h.level_dims(l - 1).into_iter().enumerate() {
            if nc != dims[k] {
                dims[k] = nc;
                len[which] = len[which].max(dims.iter().product());
                which ^= 1;
            }
        }
    }
    len.map(|n| vec![0.0; n])
}

/// Correction of one level step: the L2 projection of the coefficient
/// function (`u` at nodes with a new dimension, 0 at all-coarse nodes)
/// onto the coarse grid, one dimension at a time. The first pass reads
/// `u` directly; later passes alternate between `bufs`. Returns the
/// correction, row-major over the level-(l−1) grid.
fn compute_correction<'b>(
    adapter: &dyn DeviceAdapter,
    u: &[f64],
    geo: &[DimGeom<'_>],
    bufs: &'b mut [Vec<f64>; 2],
) -> &'b [f64] {
    let mut dims: Vec<usize> = geo.iter().map(DimGeom::n_fine).collect();
    let mut latest: Option<usize> = None;
    for (k, g) in geo.iter().enumerate().filter(|(_, g)| !g.saturated()) {
        let mut out_dims = dims.clone();
        out_dims[k] = g.n_coarse();
        let target = latest.map_or(0, |i| 1 - i);
        let [a, b] = &mut *bufs;
        let (out, prev) = if target == 0 { (a, &*b) } else { (b, &*a) };
        let input = match latest {
            None => PassInput {
                data: u,
                off: geo.iter().map(|g| g.fine_off.clone()).collect(),
                roles: Some(geo),
            },
            Some(_) => PassInput {
                data: prev,
                off: compact_offsets(&dims),
                roles: None,
            },
        };
        let len = out_dims.iter().product();
        correction_pass(adapter, &input, k, &g.op, &out_dims, &mut out[..len]);
        dims = out_dims;
        latest = Some(target);
    }
    let i = latest.expect("every level step coarsens some dimension");
    &bufs[i][..dims.iter().product()]
}

/// Add `sign · corr` (row-major over the level-(l−1) grid) into `u` at
/// the coarse nodes, a row of the last dimension at a time.
fn apply_on_coarse(
    adapter: &dyn DeviceAdapter,
    u: &mut [f64],
    geo: &[DimGeom<'_>],
    corr: &[f64],
    sign: f64,
) {
    let (last, outer) = geo.split_last().expect("at least one dimension");
    let extents: Vec<usize> = outer.iter().map(DimGeom::n_coarse).collect();
    let n = last.n_coarse();
    debug_assert_eq!(corr.len(), extents.iter().product::<usize>() * n);
    let u_sh = SharedSlice::new(u);
    for_each_row(adapter, &extents, n, |r, pos, cols| {
        let row: usize = outer.iter().zip(pos).map(|(g, &c)| g.coarse_off[c]).sum();
        let corr = &corr[r * n..(r + 1) * n];
        for (&at, &c) in last.coarse_off[cols.clone()].iter().zip(&corr[cols]) {
            let idx = row + at;
            // SAFETY: coarse positions are distinct full-array indices,
            // each visited by exactly one (row, column).
            unsafe { u_sh.write(idx, u_sh.read(idx) + sign * c) };
        }
    });
}

/// Full multilevel decomposition, in place: after this call, `u` holds
/// coarsest-level values at level-0 nodes and multilevel coefficients
/// everywhere else.
pub fn decompose(adapter: &dyn DeviceAdapter, u: &mut [f64], h: &Hierarchy) {
    let mut bufs = correction_buffers(h);
    for l in (1..=h.finest()).rev() {
        let geo = level_geometry(h, l);
        // 1. Coefficients: u[new] -= interp(coarse).
        interpolate(adapter, u, &geo, |old, interp| old - interp);
        // 2–3. Correction onto the coarse grid.
        let corr = compute_correction(adapter, u, &geo, &mut bufs);
        apply_on_coarse(adapter, u, &geo, corr, 1.0);
    }
}

/// Full multilevel recomposition, in place (inverse of [`decompose`]).
pub fn recompose(adapter: &dyn DeviceAdapter, u: &mut [f64], h: &Hierarchy) {
    let mut bufs = correction_buffers(h);
    for l in 1..=h.finest() {
        let geo = level_geometry(h, l);
        let corr = compute_correction(adapter, u, &geo, &mut bufs);
        apply_on_coarse(adapter, u, &geo, corr, -1.0);
        // u[new] = mc + interp(coarse).
        interpolate(adapter, u, &geo, |old, interp| old + interp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{mass_apply, mass_solve, restrict};
    use hpdr_core::{CpuParallelAdapter, SerialAdapter, Shape};
    use proptest::prelude::*;

    /// The per-column row kernel [`interp_row`] replaced: the oracle of
    /// the coefficient pass.
    fn interp_row_reference<const N: usize>(
        u_sh: &SharedSlice<'_, f64>,
        corners: &[(usize, f64)],
        row: usize,
        cols: Range<usize>,
        last: &DimGeom<'_>,
        apply: &impl Fn(f64, f64) -> f64,
    ) {
        let corners: &[(usize, f64); N] = corners.try_into().expect("N corners");
        let gather = |acc: &mut f64, at: usize, ws: f64| {
            for &(o, w) in corners {
                // SAFETY: corners are all-coarse nodes, which this pass only
                // reads; every write below targets a node with a new dimension.
                *acc += w * ws * unsafe { u_sh.read(o + at) };
            }
        };
        for (j, node) in cols.clone().zip(&last.op.nodes[cols]) {
            let mut acc = 0.0;
            match *node {
                Node::Coarse(_) if N == 1 => continue,
                Node::Coarse(_) => gather(&mut acc, last.fine_off[j], 1.0),
                Node::New { wl, wr, .. } => {
                    gather(&mut acc, last.fine_off[j - 1], wl);
                    gather(&mut acc, last.fine_off[j + 1], wr);
                }
            }
            let idx = row + last.fine_off[j];
            // SAFETY: `idx` is the node (row, j), which has a new dimension;
            // no other group, row or column reads or writes it.
            unsafe { u_sh.write(idx, apply(u_sh.read(idx), acc)) };
        }
    }

    /// [`interpolate`] over [`interp_row_reference`].
    fn interpolate_reference(
        adapter: &dyn DeviceAdapter,
        u: &mut [f64],
        geo: &[DimGeom<'_>],
        apply: impl Fn(f64, f64) -> f64 + Sync,
    ) {
        let (last, outer) = geo.split_last().expect("at least one dimension");
        let extents: Vec<usize> = outer.iter().map(DimGeom::n_fine).collect();
        let u_sh = SharedSlice::new(u);
        for_each_row(adapter, &extents, last.n_fine(), |_, pos, cols| {
            let mut corners = [(0usize, 1.0f64); 8];
            let mut n = 1;
            let mut row = 0;
            for (g, &p) in outer.iter().zip(pos) {
                row += g.fine_off[p];
                match g.op.nodes[p] {
                    Node::Coarse(_) => corners[..n].iter_mut().for_each(|c| c.0 += g.fine_off[p]),
                    Node::New { wl, wr, .. } => {
                        for i in 0..n {
                            let (o, w) = corners[i];
                            corners[i] = (o + g.fine_off[p - 1], w * wl);
                            corners[n + i] = (o + g.fine_off[p + 1], w * wr);
                        }
                        n *= 2;
                    }
                }
            }
            let corners = &corners[..n];
            match n {
                1 => interp_row_reference::<1>(&u_sh, corners, row, cols, last, &apply),
                2 => interp_row_reference::<2>(&u_sh, corners, row, cols, last, &apply),
                4 => interp_row_reference::<4>(&u_sh, corners, row, cols, last, &apply),
                _ => interp_row_reference::<8>(&u_sh, corners, row, cols, last, &apply),
            }
        });
    }

    /// The correction pass with its lines set up one lane at a time, as
    /// before lanes were set up a run at a time: the staged pass's oracle.
    fn correction_pass_reference(
        adapter: &dyn DeviceAdapter,
        input: &PassInput<'_>,
        k: usize,
        op: &LineOp<'_>,
        out_dims: &[usize],
        out: &mut [f64],
    ) {
        let nf = input.off[k].len();
        let nc = out_dims[k];
        let out_off = compact_offsets(out_dims);
        let others: Vec<usize> = (0..out_dims.len()).filter(|&d| d != k).collect();
        let extents: Vec<usize> = others.iter().map(|&d| input.off[d].len()).collect();
        let lines: usize = extents.iter().product();
        let out_sh = SharedSlice::new(out);
        Iterative::new(lines, LANES)
            .with_staging(tile_bytes(nf, nc, LANES.min(lines)))
            .run(adapter, &|span, staging| {
                let lanes = span.len();
                let (fine, coarse) =
                    staging_f64(staging, (nf + nc) * lanes).split_at_mut(nf * lanes);
                let mut src = [0usize; LANES];
                let mut dst = [0usize; LANES];
                let mut zero = [false; LANES];
                let mut line = Odometer::new(span.start, &extents);
                for lane in 0..lanes {
                    for (&d, &p) in others.iter().zip(line.pos()) {
                        src[lane] += input.off[d][p];
                        dst[lane] += out_off[d][p];
                    }
                    zero[lane] = input.roles.is_some_and(|geo| {
                        others
                            .iter()
                            .zip(line.pos())
                            .all(|(&d, &p)| geo[d].op.is_coarse(p))
                    });
                    line.advance();
                }
                for (lane, &at) in src[..lanes].iter().enumerate() {
                    for (x, &o) in fine[lane..].iter_mut().step_by(lanes).zip(&input.off[k]) {
                        *x = input.data[at + o];
                    }
                }
                if let Some(geo) = input.roles {
                    for (p, row) in fine.chunks_exact_mut(lanes).enumerate() {
                        if geo[k].op.is_coarse(p) {
                            for (x, &z) in row.iter_mut().zip(&zero) {
                                if z {
                                    *x = 0.0;
                                }
                            }
                        }
                    }
                }
                op.apply(lanes, fine, coarse);
                for (lane, &at) in dst[..lanes].iter().enumerate() {
                    for (&v, &o) in coarse[lane..].iter().step_by(lanes).zip(&out_off[k]) {
                        // SAFETY: a position of this lane's own line.
                        unsafe { out_sh.write(at + o, v) };
                    }
                }
            });
    }

    /// [`compute_correction`] over [`correction_pass_reference`].
    fn compute_correction_reference<'b>(
        adapter: &dyn DeviceAdapter,
        u: &[f64],
        geo: &[DimGeom<'_>],
        bufs: &'b mut [Vec<f64>; 2],
    ) -> &'b [f64] {
        let mut dims: Vec<usize> = geo.iter().map(DimGeom::n_fine).collect();
        let mut latest: Option<usize> = None;
        for (k, g) in geo.iter().enumerate().filter(|(_, g)| !g.saturated()) {
            let mut out_dims = dims.clone();
            out_dims[k] = g.n_coarse();
            let target = latest.map_or(0, |i| 1 - i);
            let [a, b] = &mut *bufs;
            let (out, prev) = if target == 0 { (a, &*b) } else { (b, &*a) };
            let input = match latest {
                None => PassInput {
                    data: u,
                    off: geo.iter().map(|g| g.fine_off.clone()).collect(),
                    roles: Some(geo),
                },
                Some(_) => PassInput {
                    data: prev,
                    off: compact_offsets(&dims),
                    roles: None,
                },
            };
            let len = out_dims.iter().product();
            correction_pass_reference(adapter, &input, k, &g.op, &out_dims, &mut out[..len]);
            dims = out_dims;
            latest = Some(target);
        }
        let i = latest.expect("every level step coarsens some dimension");
        &bufs[i][..dims.iter().product()]
    }

    /// [`decompose`] over the reference row kernel and pass.
    fn decompose_reference(adapter: &dyn DeviceAdapter, u: &mut [f64], h: &Hierarchy) {
        let mut bufs = correction_buffers(h);
        for l in (1..=h.finest()).rev() {
            let geo = level_geometry(h, l);
            interpolate_reference(adapter, u, &geo, |old, interp| old - interp);
            let corr = compute_correction_reference(adapter, u, &geo, &mut bufs);
            apply_on_coarse(adapter, u, &geo, corr, 1.0);
        }
    }

    /// [`recompose`] over the reference row kernel and pass.
    fn recompose_reference(adapter: &dyn DeviceAdapter, u: &mut [f64], h: &Hierarchy) {
        let mut bufs = correction_buffers(h);
        for l in 1..=h.finest() {
            let geo = level_geometry(h, l);
            let corr = compute_correction_reference(adapter, u, &geo, &mut bufs);
            apply_on_coarse(adapter, u, &geo, corr, -1.0);
            interpolate_reference(adapter, u, &geo, |old, interp| old + interp);
        }
    }

    /// A value stream with ±0 in a quarter of its draws.
    fn values(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            match state >> 61 {
                0 => -0.0,
                1 => 0.0,
                _ => (state >> 11) as f64 / (1u64 << 53) as f64 * 200.0 - 100.0,
            }
        }
    }

    fn roundtrip_check(shape: &Shape, data: &[f64], tol: f64) {
        let adapter = CpuParallelAdapter::new(4);
        let h = Hierarchy::new(shape);
        let mut u = data.to_vec();
        decompose(&adapter, &mut u, &h);
        recompose(&adapter, &mut u, &h);
        let max_err = data
            .iter()
            .zip(&u)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < tol, "shape {shape}: roundtrip err {max_err}");
    }

    #[test]
    fn roundtrip_1d_various_sizes() {
        for n in [2usize, 3, 5, 9, 17, 100, 257] {
            let data: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin() * 100.0).collect();
            roundtrip_check(&Shape::new(&[n]), &data, 1e-8);
        }
    }

    #[test]
    fn roundtrip_2d_and_3d() {
        let shape = Shape::new(&[17, 13]);
        let data: Vec<f64> = (0..shape.num_elements())
            .map(|i| ((i as f64) * 0.13).cos() * 50.0 + i as f64 * 0.01)
            .collect();
        roundtrip_check(&shape, &data, 1e-8);

        let shape = Shape::new(&[9, 10, 11]);
        let data: Vec<f64> = (0..shape.num_elements())
            .map(|i| ((i as f64) * 0.029).sin() * 10.0)
            .collect();
        roundtrip_check(&shape, &data, 1e-8);
    }

    #[test]
    fn linear_function_has_negligible_fine_coefficients() {
        // A multilinear function is exactly representable at every level:
        // all multilevel coefficients vanish (up to fp noise).
        let n = 17;
        let shape = Shape::new(&[n, n]);
        let mut u: Vec<f64> = (0..n * n)
            .map(|f| {
                let (i, j) = (f / n, f % n);
                3.0 * i as f64 - 2.0 * j as f64 + 5.0
            })
            .collect();
        let h = Hierarchy::new(&shape);
        let adapter = SerialAdapter::new();
        decompose(&adapter, &mut u, &h);
        let levels = h.node_levels();
        for (flat, &lvl) in levels.iter().enumerate() {
            if lvl > 0 {
                assert!(
                    u[flat].abs() < 1e-9,
                    "coefficient at {flat} (level {lvl}) = {}",
                    u[flat]
                );
            }
        }
    }

    #[test]
    fn smooth_data_coefficients_decay_with_level() {
        let n = 65;
        let shape = Shape::new(&[n]);
        let mut u: Vec<f64> = (0..n).map(|i| (i as f64 / 8.0).sin()).collect();
        let h = Hierarchy::new(&shape);
        let adapter = SerialAdapter::new();
        decompose(&adapter, &mut u, &h);
        let levels = h.node_levels();
        // Mean |coefficient| at the finest level should be much smaller
        // than at mid levels (smoothness ⇒ fine-scale detail is tiny).
        let mean = |lvl: u8| {
            let v: Vec<f64> = levels
                .iter()
                .zip(&u)
                .filter(|(l, _)| **l == lvl)
                .map(|(_, &x)| x.abs())
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let fine = mean(h.finest() as u8);
        let mid = mean(2);
        assert!(fine < mid, "fine {fine} mid {mid}");
    }

    /// Decomposition and recomposition on `threads` workers reproduce the
    /// serial bits.
    fn check_serial_parallel(dims: &[usize], threads: usize) {
        let shape = Shape::new(dims);
        let data: Vec<f64> = (0..shape.num_elements())
            .map(|i| ((i * 2654435761usize % 1000) as f64) / 7.0)
            .collect();
        let h = Hierarchy::new(&shape);
        let serial = SerialAdapter::new();
        let parallel = CpuParallelAdapter::new(threads);
        let mut a = data.clone();
        let mut b = data;
        decompose(&serial, &mut a, &h);
        decompose(&parallel, &mut b, &h);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits(), "bitwise determinism required");
        }
        recompose(&serial, &mut a, &h);
        recompose(&parallel, &mut b, &h);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits(), "bitwise determinism required");
        }
    }

    #[test]
    fn serial_and_parallel_decompositions_agree() {
        check_serial_parallel(&[33, 12], 8);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn serial_and_parallel_agree_on_partial_tiles_and_split_rows() {
        for threads in [1, 2, 4] {
            // 37 is not a multiple of LANES: tiles end partial and
            // straddle rows.
            check_serial_parallel(&[9, 7, 37], threads);
            // Rows longer than GROUP_ELEMS run as column ranges.
            check_serial_parallel(&[3 * GROUP_ELEMS + 5], threads);
            check_serial_parallel(&[3, GROUP_ELEMS + 7], threads);
        }
    }

    /// Small enough for Miri: every staging and shared-slice site runs on
    /// two workers.
    #[test]
    fn tiny_3d_on_two_threads_matches_serial() {
        check_serial_parallel(&[5, 6, 7], 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The lane-batched kernel equals the per-line reference in
        /// `operators.rs` bit for bit on every lane. Random extents make
        /// most levels end in a short trailing interval.
        #[test]
        #[cfg_attr(miri, ignore)]
        fn line_kernel_matches_reference_on_every_lane(
            n in 3usize..300,
            depth in 0usize..16,
            seed in any::<u64>(),
        ) {
            let h = Hierarchy::new(&Shape::new(&[n]));
            let l = h.finest() - depth % h.finest();
            let (fine, coarse) = (h.dim_nodes(l, 0), h.dim_nodes(l - 1, 0));
            let op = LineOp::new(fine, coarse);
            let mut value = values(seed);
            for lanes in [1, 3, LANES, LANES + 5] {
                let tile: Vec<f64> = (0..fine.len() * lanes).map(|_| value()).collect();
                let mut got = vec![f64::NAN; coarse.len() * lanes];
                op.apply(lanes, &tile, &mut got);
                for lane in 0..lanes {
                    let vals: Vec<f64> = tile.iter().skip(lane).step_by(lanes).copied().collect();
                    let mut massed = vec![0.0; fine.len()];
                    mass_apply(&vals, fine, &mut massed);
                    let mut want = vec![0.0; coarse.len()];
                    restrict(&massed, fine, &mut want);
                    let mut scratch = vec![0.0; coarse.len()];
                    mass_solve(&mut want, coarse, &mut scratch);
                    for (c, w) in want.iter().enumerate() {
                        prop_assert_eq!(
                            got[c * lanes + lane].to_bits(),
                            w.to_bits(),
                            "n={} l={} lanes={} lane={} c={}", n, l, lanes, lane, c
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `decompose` and `recompose` equal the per-column row kernel and
        /// the lane-at-a-time pass bit for bit: random 1–3-D extents (most
        /// levels end in a short trailing interval), rows past
        /// `GROUP_ELEMS`, ±0 inputs, and 1, 2 and 4 threads.
        #[test]
        #[cfg_attr(miri, ignore)]
        fn decompose_and_recompose_match_the_reference_kernels(
            rank in 1usize..4,
            a in 2usize..40,
            b in 2usize..40,
            c in 2usize..40,
            long in 0usize..3,
            seed in any::<u64>(),
        ) {
            let dims = match (rank, long) {
                (1, 0) => vec![a * b],
                (1, _) => vec![GROUP_ELEMS + a * b],
                (2, 0) => vec![a, b],
                (2, _) => vec![a % 3 + 1, GROUP_ELEMS + b],
                _ => vec![a, b, c % 20 + 2],
            };
            let shape = Shape::new(&dims);
            let h = Hierarchy::new(&shape);
            let mut value = values(seed);
            let data: Vec<f64> = (0..shape.num_elements()).map(|_| value()).collect();
            let mut want = data.clone();
            decompose_reference(&SerialAdapter::new(), &mut want, &h);
            let mut back = want.clone();
            recompose_reference(&SerialAdapter::new(), &mut back, &h);
            let same = |x: &[f64], y: &[f64]| x.iter().zip(y).all(|(x, y)| x.to_bits() == y.to_bits());
            for threads in [1, 2, 4] {
                let adapter = CpuParallelAdapter::new(threads);
                let mut got = data.clone();
                decompose(&adapter, &mut got, &h);
                prop_assert!(same(&got, &want), "decompose {:?} threads {}", dims, threads);
                recompose(&adapter, &mut got, &h);
                prop_assert!(same(&got, &back), "recompose {:?} threads {}", dims, threads);
            }
        }
    }

    #[test]
    fn split_cols_matches_the_roles() {
        for n in 1usize..70 {
            let h = Hierarchy::new(&Shape::new(&[n]));
            for l in 1..=h.finest() {
                let geo = level_geometry(&h, l);
                let g = &geo[0];
                let nf = g.n_fine();
                for start in 0..nf {
                    for end in start + 1..=nf {
                        let (coarse, new) = g.split_cols(start..end);
                        let want_coarse: Vec<usize> = (start..end)
                            .filter_map(|p| match g.op.nodes[p] {
                                Node::Coarse(c) => Some(c),
                                Node::New { .. } => None,
                            })
                            .collect();
                        let want_new: Vec<usize> = (start..end)
                            .filter(|&p| !g.op.is_coarse(p))
                            .map(|p| g.fine_off[p])
                            .collect();
                        assert_eq!(coarse.collect::<Vec<_>>(), want_coarse, "n={n} l={l}");
                        assert_eq!(&g.new_off[new], &want_new[..], "n={n} l={l}");
                    }
                }
            }
        }
    }

    #[test]
    fn decompose_preserves_coarsest_mean_roughly() {
        // The level-0 values approximate the function (projection), so
        // they must stay within the data range for smooth input.
        let n = 33;
        let shape = Shape::new(&[n]);
        let mut u: Vec<f64> = (0..n).map(|i| 10.0 + (i as f64 / 5.0).sin()).collect();
        let h = Hierarchy::new(&shape);
        decompose(&SerialAdapter::new(), &mut u, &h);
        assert!(u[0] > 5.0 && u[0] < 15.0);
        assert!(u[n - 1] > 5.0 && u[n - 1] < 15.0);
    }
}
