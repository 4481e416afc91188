//! Per-(level × bit-plane) component refactoring over the MGARD-X
//! decomposition (HP-MDR style).
//!
//! [`refactor_progressive`] decomposes the array with the multilevel
//! hierarchy, quantizes each level with its geometric bin, and then —
//! instead of one Huffman segment per level — splits each level's
//! quantized magnitudes into **bit-plane groups** of `plane_bits` bits,
//! most-significant first. Every `(level, plane)` pair becomes an
//! independently Huffman-coded *component*; sign bits ride in each
//! level's most-significant plane. A [`Manifest`] records every
//! component's encoded size and error-contribution estimate, which is
//! all a reader needs to plan a minimal fetch for a tolerance.
//!
//! Decoding is order-independent: a component only ORs its bit group
//! into the magnitude accumulator ([`DecodeState::apply`]), so
//! components may arrive out of order; the guaranteed error bound is
//! stated for contiguous MSB-first prefixes, which is what the greedy
//! planner fetches.

use hpdr_core::{
    ArrayMeta, ByteReader, ByteWriter, DType, DeviceAdapter, Float, FrameHeader, HpdrError,
    KernelClass, Result, Shape,
};
use hpdr_huffman::HuffmanConfig;
use hpdr_mgard::decompose::{decompose, recompose};
use hpdr_mgard::quantize::level_bin;
use hpdr_mgard::{context_for, Hierarchy, MgardContext};

const MANIFEST_FRAME: FrameHeader =
    FrameHeader::new(0x4850_4D46 /* "HPMF" */, 1, "progressive manifest");

/// Amplification of per-node coefficient error through recomposition
/// (the `1 + c` multilevel operator factor; see the error analysis in
/// `hpdr-mgard/src/quantize.rs`, `c ≈ 1.2` for multilinear bases).
pub const OPERATOR_GAIN: f64 = 2.2;

/// Configuration for progressive refactoring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressiveConfig {
    /// Relative (to data range) L∞ bound achieved when **all**
    /// components are retrieved — the finest quantizer resolution.
    pub rel_bound: f64,
    /// Bits per bit-plane group (1..=8). Smaller groups give finer
    /// fetch granularity at slightly worse entropy-coding efficiency.
    pub plane_bits: u32,
}

impl Default for ProgressiveConfig {
    fn default() -> Self {
        ProgressiveConfig {
            rel_bound: 1e-6,
            plane_bits: 4,
        }
    }
}

/// One component's manifest record.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentInfo {
    pub level: u8,
    /// Bit-plane index within the level, 0 = most significant.
    pub plane: u8,
    /// Encoded (Huffman) size in bytes.
    pub bytes: u64,
    /// Guaranteed L∞ error-bound reduction from fetching this
    /// component, given all shallower planes of its level are held.
    pub err_drop: f64,
}

/// Self-describing index of a progressive refactoring: everything a
/// reader needs to plan fetches without touching component data.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    pub meta: ArrayMeta,
    /// Absolute bound at full precision (`rel_bound · range`).
    pub abs_eb: f64,
    /// Data range at refactor time (for relative-tolerance requests).
    pub range: f64,
    pub plane_bits: u32,
    pub levels: u8,
    /// Bit-plane group count per level (0 for an all-zero level).
    pub level_planes: Vec<u8>,
    /// Level-major, plane-minor (MSB first) component records.
    pub components: Vec<ComponentInfo>,
}

impl Manifest {
    pub fn bin(&self, level: usize) -> f64 {
        level_bin(self.abs_eb, self.levels as usize, level)
    }

    /// Guaranteed L∞ contribution of `level` when the first `held`
    /// planes (MSB first) of that level are decoded.
    pub fn level_bound(&self, level: usize, held: u8) -> f64 {
        let planes = self.level_planes[level];
        let rem = self.plane_bits * planes.saturating_sub(held) as u32;
        let quantizer = if rem == 0 {
            // All planes held: only the rounding residual remains.
            0.5
        } else {
            // Unfetched low bits truncate toward zero: error is at most
            // `2^rem − 1` quantization steps plus the rounding residual.
            2f64.powi(rem as i32) - 0.5
        };
        OPERATOR_GAIN * self.bin(level) * quantizer
    }

    /// Bound reduction bought by `plane` of `level` once the shallower
    /// planes are held: the [`ComponentInfo::err_drop`] it records.
    fn err_drop(&self, level: u8, plane: u8) -> f64 {
        self.level_bound(level as usize, plane) - self.level_bound(level as usize, plane + 1)
    }

    /// Total guaranteed L∞ bound when `held[l]` planes of each level
    /// are decoded.
    pub fn bound_with(&self, held: &[u8]) -> f64 {
        (0..self.levels as usize)
            .map(|l| self.level_bound(l, held.get(l).copied().unwrap_or(0)))
            .sum()
    }

    /// Bound before fetching anything / after fetching everything.
    pub fn base_bound(&self) -> f64 {
        self.bound_with(&vec![0; self.levels as usize])
    }
    pub fn full_bound(&self) -> f64 {
        self.bound_with(&self.level_planes.clone())
    }

    /// Index into `components` of `(level, plane)`.
    pub fn component_index(&self, level: u8, plane: u8) -> Option<usize> {
        self.components
            .iter()
            .position(|c| c.level == level && c.plane == plane)
    }

    /// BP variable name a component is stored under.
    pub fn var_name(level: u8, plane: u8) -> String {
        format!("c{level}.{plane}")
    }

    pub fn total_component_bytes(&self) -> u64 {
        self.components.iter().map(|c| c.bytes).sum()
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        MANIFEST_FRAME.write(&mut w);
        self.meta.write(&mut w);
        w.put_f64(self.abs_eb);
        w.put_f64(self.range);
        w.put_u8(self.plane_bits as u8);
        w.put_u8(self.levels);
        for &p in &self.level_planes {
            w.put_u8(p);
        }
        w.put_u32(self.components.len() as u32);
        for c in &self.components {
            w.put_u8(c.level);
            w.put_u8(c.plane);
            w.put_u64(c.bytes);
            w.put_f64(c.err_drop);
        }
        w.into_vec()
    }

    pub fn from_bytes(bytes: &[u8]) -> Result<Manifest> {
        let mut r = ByteReader::new(bytes);
        MANIFEST_FRAME.read(&mut r)?;
        let meta = ArrayMeta::read(&mut r)?;
        let abs_eb = r.get_f64()?;
        if abs_eb <= 0.0 || !abs_eb.is_finite() {
            return Err(HpdrError::corrupt("bad bound in progressive manifest"));
        }
        let range = r.get_f64()?;
        if range <= 0.0 || !range.is_finite() {
            return Err(HpdrError::corrupt("bad range in progressive manifest"));
        }
        let plane_bits = r.get_u8()? as u32;
        if !(1..=8).contains(&plane_bits) {
            return Err(HpdrError::corrupt("bad plane bits in progressive manifest"));
        }
        // The hierarchy the dims imply, counted without building it: a
        // forged count would otherwise size a context from forged dims.
        let levels = r.get_u8()?;
        if levels as usize != Hierarchy::level_count(&meta.shape.folded_to_3d()) {
            return Err(HpdrError::corrupt(
                "bad level count in progressive manifest",
            ));
        }
        let mut level_planes = Vec::with_capacity(levels as usize);
        for _ in 0..levels {
            let p = r.get_u8()?;
            if p as u32 * plane_bits > 72 {
                return Err(HpdrError::corrupt(
                    "bad plane count in progressive manifest",
                ));
            }
            level_planes.push(p);
        }
        let n = r.get_u32()? as usize;
        let expected: usize = level_planes.iter().map(|&p| p as usize).sum();
        if n != expected {
            return Err(HpdrError::corrupt("component count mismatch in manifest"));
        }
        // `to_bytes` writes the components level-major, planes
        // ascending; the planner relies on finding each one.
        let mut components = Vec::with_capacity(n);
        let mut total = 0u64;
        for (level, &planes) in (0u8..).zip(&level_planes) {
            for plane in 0..planes {
                if r.get_u8()? != level || r.get_u8()? != plane {
                    return Err(HpdrError::corrupt("component out of order in manifest"));
                }
                let bytes = r.get_u64()?;
                total = total
                    .checked_add(bytes)
                    .ok_or_else(|| HpdrError::corrupt("component sizes overflow in manifest"))?;
                components.push(ComponentInfo {
                    level,
                    plane,
                    bytes,
                    err_drop: r.get_f64()?,
                });
            }
        }
        r.expect_exhausted()?;
        let manifest = Manifest {
            meta,
            abs_eb,
            range,
            plane_bits,
            levels,
            level_planes,
            components,
        };
        // The recorded contributions follow from the bound, the plane
        // width and the plane counts; a forged one of those (a narrower
        // plane makes the planner skip every component) shows here.
        if manifest
            .components
            .iter()
            .any(|c| c.err_drop != manifest.err_drop(c.level, c.plane))
        {
            return Err(HpdrError::corrupt(
                "error contribution disagrees with the manifest",
            ));
        }
        Ok(manifest)
    }
}

/// A refactored array held in memory: the manifest plus every encoded
/// component, parallel to `manifest.components`.
#[derive(Debug, Clone, PartialEq)]
pub struct Refactoring {
    pub manifest: Manifest,
    pub components: Vec<Vec<u8>>,
}

/// Result of one retrieval / refinement.
#[derive(Debug, Clone)]
pub struct Retrieval<T> {
    pub data: Vec<T>,
    pub shape: Shape,
    /// Guaranteed L∞ bound of this reconstruction.
    pub bound: f64,
    /// Bytes fetched **by this call** (zero for already-held state).
    pub fetched_bytes: u64,
    /// Components fetched by this call.
    pub fetched_components: usize,
}

impl Refactoring {
    pub fn total_bytes(&self) -> u64 {
        self.manifest.total_component_bytes()
    }

    /// Decode the minimal component set for `tolerance` (absolute L∞)
    /// and reconstruct. In-memory counterpart of
    /// [`crate::ProgressiveReader::retrieve`]; "fetched" bytes count
    /// the components decoded.
    pub fn retrieve<T: Float>(
        &self,
        adapter: &dyn DeviceAdapter,
        tolerance: f64,
    ) -> Result<Retrieval<T>> {
        let plan = crate::plan_fetch(
            &self.manifest,
            &vec![0; self.manifest.levels as usize],
            tolerance,
        );
        let counts = level_counts(&self.manifest)?;
        let mut state = DecodeState::new(&self.manifest);
        let mut bytes = 0u64;
        for &idx in &plan.picks {
            let c = &self.manifest.components[idx];
            let decoded = hpdr_huffman::decompress_u32(adapter, &self.components[idx])?;
            state.apply(c.level, c.plane, &decoded, counts[c.level as usize])?;
            bytes += c.bytes;
        }
        let (data, shape) = reconstruct::<T>(adapter, &self.manifest, &state)?;
        Ok(Retrieval {
            data,
            shape,
            bound: self.manifest.bound_with(&state.held()),
            fetched_bytes: bytes,
            fetched_components: plan.picks.len(),
        })
    }
}

/// Decoded-component accumulator: per level, the sign bits (carried by
/// plane 0) and the magnitude bits ORed in by each applied plane.
#[derive(Debug, Clone)]
pub struct DecodeState {
    plane_bits: u32,
    level_planes: Vec<u8>,
    signs: Vec<Vec<bool>>,
    mags: Vec<Vec<u64>>,
    applied: Vec<Vec<bool>>,
}

impl DecodeState {
    pub fn new(manifest: &Manifest) -> DecodeState {
        let levels = manifest.levels as usize;
        DecodeState {
            plane_bits: manifest.plane_bits,
            level_planes: manifest.level_planes.clone(),
            signs: vec![Vec::new(); levels],
            mags: vec![Vec::new(); levels],
            applied: manifest
                .level_planes
                .iter()
                .map(|&p| vec![false; p as usize])
                .collect(),
        }
    }

    /// Fold one decoded component into the accumulator. Idempotent
    /// rejection of duplicates, order-independent across planes.
    pub fn apply(&mut self, level: u8, plane: u8, decoded: &[u32], nodes: usize) -> Result<()> {
        let l = level as usize;
        if l >= self.level_planes.len() || plane >= self.level_planes[l] {
            return Err(HpdrError::invalid("component out of range"));
        }
        if decoded.len() != nodes {
            return Err(HpdrError::corrupt("component length mismatch"));
        }
        if self.applied[l][plane as usize] {
            return Ok(());
        }
        let g = self.plane_bits;
        let planes = self.level_planes[l] as u32;
        let shift = g * (planes - 1 - plane as u32);
        let mask = (1u64 << g) - 1;
        // Plane 0 carries the sign in bit 0. A group wider than the
        // plane comes from a stream the manifest does not describe.
        let sign_bit = u32::from(plane == 0);
        if decoded.iter().any(|&sym| u64::from(sym >> sign_bit) > mask) {
            return Err(HpdrError::corrupt("component symbol wider than its plane"));
        }
        if self.mags[l].is_empty() {
            self.mags[l] = vec![0; nodes];
            self.signs[l] = vec![false; nodes];
        }
        for (i, &sym) in decoded.iter().enumerate() {
            if plane == 0 {
                self.signs[l][i] = sym & 1 == 1;
            }
            self.mags[l][i] |= u64::from(sym >> sign_bit) << shift;
        }
        self.applied[l][plane as usize] = true;
        Ok(())
    }

    /// Contiguous MSB-first planes held for `level` (the prefix the
    /// error bound is stated for).
    pub fn planes_held(&self, level: usize) -> u8 {
        self.applied[level].iter().take_while(|&&a| a).count() as u8
    }

    pub fn held(&self) -> Vec<u8> {
        (0..self.applied.len())
            .map(|l| self.planes_held(l))
            .collect()
    }

    pub fn is_applied(&self, level: u8, plane: u8) -> bool {
        self.applied
            .get(level as usize)
            .and_then(|p| p.get(plane as usize))
            .copied()
            .unwrap_or(false)
    }

    fn value(&self, level: usize, cursor: usize) -> i64 {
        if self.mags[level].is_empty() {
            return 0;
        }
        let m = self.mags[level][cursor] as i64;
        if self.signs[level][cursor] {
            -m
        } else {
            m
        }
    }
}

/// Nodes per level for the manifest's (effective) hierarchy.
pub fn level_counts(manifest: &Manifest) -> Result<Vec<usize>> {
    let ctx = context_for(&manifest.meta.shape);
    let ctx = ctx.lock();
    if ctx.hierarchy.total_levels() != manifest.levels as usize {
        return Err(HpdrError::corrupt("level count mismatch with shape"));
    }
    let mut counts = vec![0usize; manifest.levels as usize];
    for &l in &ctx.node_levels {
        counts[l as usize] += 1;
    }
    Ok(counts)
}

/// Refactor `data` into per-(level, bit-plane) Huffman components.
pub fn refactor_progressive<T: Float>(
    adapter: &dyn DeviceAdapter,
    data: &[T],
    shape: &Shape,
    cfg: &ProgressiveConfig,
) -> Result<Refactoring> {
    if data.len() != shape.num_elements() {
        return Err(HpdrError::invalid("data length does not match shape"));
    }
    if cfg.rel_bound <= 0.0 || !cfg.rel_bound.is_finite() {
        return Err(HpdrError::invalid("bound must be positive"));
    }
    if !(1..=8).contains(&cfg.plane_bits) {
        return Err(HpdrError::invalid("plane_bits must be in 1..=8"));
    }
    // NaN and ±inf reach the min or the max, so the pair is the
    // finiteness check.
    let (mn, mx) = hpdr_kernels::min_max(adapter, data);
    if !(mn.is_finite() && mx.is_finite()) {
        return Err(HpdrError::invalid("non-finite input"));
    }
    let range = (mx.to_f64() - mn.to_f64()).max(f64::MIN_POSITIVE);
    let abs_eb = cfg.rel_bound * range;

    let ctx = context_for(shape);
    let mut ctx = ctx.lock();
    let levels = ctx.hierarchy.total_levels();
    let MgardContext {
        hierarchy,
        node_levels,
        work,
    } = &mut *ctx;
    work.clear();
    work.extend(data.iter().map(|v| v.to_f64()));
    decompose(adapter, work, hierarchy);

    let bins: Vec<f64> = (0..levels).map(|l| level_bin(abs_eb, levels, l)).collect();

    // Quantize each node against its level's bin, split by level in
    // node order (the order every decoder reproduces via cursors).
    let mut per_level_q: Vec<Vec<i64>> = vec![Vec::new(); levels];
    for (i, &v) in work.iter().enumerate() {
        let l = node_levels[i] as usize;
        per_level_q[l].push((v / bins[l]).round() as i64);
    }

    let g = cfg.plane_bits;
    let mut level_planes = Vec::with_capacity(levels);
    let mut infos = Vec::new();
    let mut blobs = Vec::new();
    for (l, q) in per_level_q.iter().enumerate() {
        let max_m = q.iter().map(|&x| x.unsigned_abs()).max().unwrap_or(0);
        let bits = 64 - max_m.leading_zeros();
        let planes = bits.div_ceil(g) as u8;
        level_planes.push(planes);
        let total_bits = planes as u32 * g;
        let mask = (1u64 << g) - 1;
        for p in 0..planes {
            let shift = total_bits - (p as u32 + 1) * g;
            let syms: Vec<u32> = q
                .iter()
                .map(|&x| {
                    let group = (x.unsigned_abs() >> shift) & mask;
                    if p == 0 {
                        ((group as u32) << 1) | u32::from(x < 0)
                    } else {
                        group as u32
                    }
                })
                .collect();
            let dict_size = 1u32 << if p == 0 { g + 1 } else { g };
            let hcfg = HuffmanConfig {
                dict_size,
                chunk_elems: 1 << 16,
            };
            let blob = hpdr_huffman::compress_u32(adapter, &syms, &hcfg)?;
            infos.push((l as u8, p, blob.len() as u64));
            blobs.push(blob);
        }
    }
    adapter.charge(KernelClass::Mgard, (data.len() * T::BYTES) as u64);

    let mut manifest = Manifest {
        meta: ArrayMeta::new(T::DTYPE, shape.clone()),
        abs_eb,
        range,
        plane_bits: g,
        levels: levels as u8,
        level_planes,
        components: Vec::with_capacity(infos.len()),
    };
    for (level, plane, bytes) in infos {
        let err_drop = manifest.err_drop(level, plane);
        manifest.components.push(ComponentInfo {
            level,
            plane,
            bytes,
            err_drop,
        });
    }
    Ok(Refactoring {
        manifest,
        components: blobs,
    })
}

/// Reconstruct from whatever components `state` holds (zero planes of
/// a level read as zero coefficients).
pub fn reconstruct<T: Float>(
    adapter: &dyn DeviceAdapter,
    manifest: &Manifest,
    state: &DecodeState,
) -> Result<(Vec<T>, Shape)> {
    if manifest.meta.dtype != T::DTYPE {
        return Err(HpdrError::invalid("dtype mismatch"));
    }
    let shape = manifest.meta.shape.clone();
    let ctx = context_for(&shape);
    let mut ctx = ctx.lock();
    if ctx.hierarchy.total_levels() != manifest.levels as usize {
        return Err(HpdrError::corrupt("level count mismatch with shape"));
    }
    let levels = manifest.levels as usize;
    let bins: Vec<f64> = (0..levels).map(|l| manifest.bin(l)).collect();
    let n = shape.num_elements();
    let MgardContext {
        hierarchy,
        node_levels,
        work,
    } = &mut *ctx;
    work.clear();
    work.resize(n, 0.0);
    let mut cursors = vec![0usize; levels];
    for i in 0..n {
        let l = node_levels[i] as usize;
        let c = cursors[l];
        cursors[l] += 1;
        work[i] = state.value(l, c) as f64 * bins[l];
    }
    recompose(adapter, work, hierarchy);
    adapter.charge(KernelClass::Mgard, (n * T::BYTES) as u64);
    Ok((work.iter().map(|&v| T::from_f64(v)).collect(), shape))
}

/// Type-erased reconstruction for byte-level pipelines: dispatches on
/// the manifest dtype and returns raw little-endian bytes + metadata.
pub fn reconstruct_bytes(
    adapter: &dyn DeviceAdapter,
    manifest: &Manifest,
    state: &DecodeState,
) -> Result<(Vec<u8>, ArrayMeta)> {
    let meta = manifest.meta.clone();
    let bytes = match meta.dtype {
        DType::F32 => {
            let (v, _) = reconstruct::<f32>(adapter, manifest, state)?;
            v.iter().flat_map(|x| x.to_le_bytes()).collect()
        }
        DType::F64 => {
            let (v, _) = reconstruct::<f64>(adapter, manifest, state)?;
            v.iter().flat_map(|x| x.to_le_bytes()).collect()
        }
    };
    Ok((bytes, meta))
}
