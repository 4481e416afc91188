//! Runtime-dispatched SIMD kernel tiers (DESIGN.md §16).
//!
//! The codec hot loops — ZFP's lifting transform and bit-plane
//! transpose, negabinary conversion, histogram filling, Huffman bit
//! counting, quantization — are expressed as function pointers in a
//! [`KernelDispatch`] table. The table is chosen **once** per process
//! (`is_x86_feature_detected!` cached in a `OnceLock`), so every call
//! site stays branch-free; the scalar tier is always available and the
//! vectorized tiers are required to be **byte-identical** to it
//! (`tests/simd_identity.rs` proptests every kernel across tiers).
//!
//! Tiers:
//! * `Scalar` — portable reference implementation, the only tier on
//!   non-x86-64 targets, under Miri, on x86-64 hosts without AVX2, and
//!   when `HPDR_FORCE_SCALAR=1`.
//! * `Avx2` — hand-written intrinsics (4×i64 / 4×f64 lanes, gathers) and
//!   4-way banked histograms only where they measurably beat the scalar
//!   body compiled for AVX2: the ZFP transform, block amax and
//!   fixed-point conversion, the bit-plane transpose, the SZ and MGARD
//!   symbolizers, SZ quantization, dequantization, min/max, Huffman bit
//!   counting and the line diff/prefix sum. Negabinary conversion, slice
//!   add/sub and the quantizer quotients run their scalar body compiled
//!   once more with AVX2 enabled (DESIGN.md §16 has the measurements).
//!
//! Every `unsafe` block carries a SAFETY argument per the workspace
//! `undocumented_unsafe_blocks` lint; the overarching invariant is that
//! a tier's function pointers are only ever installed in a table whose
//! construction verified the matching CPU feature.

use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Negabinary conversion mask: `nb = (x + M) ^ M`.
pub const NBMASK: u64 = 0xAAAA_AAAA_AAAA_AAAA;

/// Which instruction tier a dispatch table implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdTier {
    Scalar,
    Avx2,
}

impl SimdTier {
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
        }
    }
}

/// `(coeffs, levels, bins, out)` — see [`KernelDispatch::quantize_quotients`].
pub type QuantizeFn = fn(&[f64], &[u8], &[f64], &mut [f64]);
/// `(syms, levels, bins, radius, escape, out)` — see
/// [`KernelDispatch::dequantize_vals`].
pub type DequantizeFn = fn(&[u32], &[u8], &[f64], i64, u32, &mut [f64]);
/// `(quotients, radius, escape, out, escapes)` — see
/// [`KernelDispatch::quotient_symbols`].
pub type SymbolizeFn = fn(&[f64], i64, u32, &mut [u32], &mut Vec<(u64, i64)>);

/// The branch-free kernel dispatch table. One per tier, selected once at
/// startup; all pointers of a table belong to the same tier.
pub struct KernelDispatch {
    pub tier: SimdTier,
    /// `dst[i] = negabinary(src[i])`.
    pub negabinary_fwd: fn(&[i64], &mut [u64]),
    /// `dst[i] = negabinary⁻¹(src[i])`.
    pub negabinary_inv: fn(&[u64], &mut [i64]),
    /// In-place 64×64 bit-matrix transpose (involution):
    /// `out[r] bit c == in[c] bit r`.
    pub bit_transpose64: fn(&mut [u64; 64]),
    /// ZFP forward decorrelating transform of a 4^d block, d ∈ 1..=3.
    pub zfp_fwd_transform: fn(&mut [i64], usize),
    /// Inverse of `zfp_fwd_transform`.
    pub zfp_inv_transform: fn(&mut [i64], usize),
    /// Accumulate key counts into `row` (`bins + 1` slots; keys ≥ `bins`
    /// clamp into the final overflow slot).
    pub histogram_fill: fn(&[u32], usize, &mut [u64]),
    /// Accumulate byte counts into `row` (exactly 256 slots).
    pub byte_histogram_fill: fn(&[u8], &mut [u64]),
    /// `Σ lens[min(keys[i], lens.len()-1)]` (Huffman stage-A bit count).
    pub code_bits_sum: fn(&[u32], &[u32]) -> u64,
    /// Byte-keyed variant of `code_bits_sum`.
    pub byte_bits_sum: fn(&[u8], &[u32]) -> u64,
    /// `out[i] = round_ties_even(coeffs[i] / bins[levels[i]])` with the
    /// level index clamped to `bins.len() - 1`.
    pub quantize_quotients: QuantizeFn,
    /// MGARD symbolizer over integral quotients (`quantize_quotients`
    /// output): with `q` the quotient saturated to ±9·10^18 (NaN → 0),
    /// `out[i] = q + radius` when that sum lies in `[0, escape)`;
    /// otherwise `out[i] = escape` and `(i, q)` is appended to `escapes`.
    /// Equal lengths. Signature: `(quotients, radius, escape, out,
    /// escapes)`.
    pub quotient_symbols: SymbolizeFn,
    /// `out[i] = (syms[i] - radius) * bins[levels[i]]`, escape → `0.0`.
    /// Signature: `(syms, levels, bins, radius, escape, out)`.
    pub dequantize_vals: DequantizeFn,
    /// Max |v| over the slice; NaN if any element is NaN (infinities
    /// propagate through the max), so `result.is_finite()` doubles as the
    /// block's finiteness check.
    pub zfp_amax_f32: fn(&[f32]) -> f64,
    /// `f64` variant of `zfp_amax_f32`.
    pub zfp_amax_f64: fn(&[f64]) -> f64,
    /// `out[i] = round_ties_even(src[i] as f64 * scale) as i64`. Caller
    /// guarantees `|src[i] * scale| < 2^62` (ZFP's fixed-point headroom).
    pub zfp_fixedpoint_f32: fn(&[f32], f64, &mut [i64]),
    /// `f64` variant of `zfp_fixedpoint_f32`.
    pub zfp_fixedpoint_f64: fn(&[f64], f64, &mut [i64]),
    /// `(min, max)` over the slice; `(NaN, NaN)` if any element is NaN
    /// (infinities propagate), so finiteness of the pair doubles as the
    /// input finiteness check. Empty input yields `(+inf, -inf)`.
    pub min_max_f32: fn(&[f32]) -> (f32, f32),
    /// `f64` variant of `min_max_f32`.
    pub min_max_f64: fn(&[f64]) -> (f64, f64),
    /// SZ pre-quantizer: `out[i] = round_ties_even(src[i] as f64 / divisor)
    /// as i64`, fused widen + divide + round + integer convert. Caller
    /// guarantees `|src[i] / divisor| < 2^62`.
    pub sz_quantize_f32: fn(&[f32], f64, &mut [i64]),
    /// `f64` variant of `sz_quantize_f32`.
    pub sz_quantize_f64: fn(&[f64], f64, &mut [i64]),
    /// SZ dual-quant symbolizer: `out[i] = q[i] + radius` when that sum
    /// lies in `[0, escape)`, else `escape` with the position appended to
    /// `outliers` (escape-coded residual). Equal lengths.
    pub sz_symbolize: fn(&[i64], i64, u32, &mut [u32], &mut Vec<u64>),
    /// `cur[i] = cur[i].wrapping_sub(prev[i])` (equal lengths).
    pub slice_sub: fn(&mut [i64], &[i64]),
    /// `cur[i] = cur[i].wrapping_add(prev[i])` (equal lengths).
    pub slice_add: fn(&mut [i64], &[i64]),
    /// In-place backward difference: `p[i] -= p[i-1]` for i = n-1..1.
    pub line_backward_diff: fn(&mut [i64]),
    /// In-place inclusive prefix sum (wrapping): `p[i] += p[i-1]`.
    pub line_prefix_sum: fn(&mut [i64]),
}

/// The table selected for this process: `HPDR_FORCE_SCALAR=1` (or any
/// non-`0` value) forces the scalar tier; Miri always gets scalar;
/// otherwise AVX2 when the CPU has it, else scalar.
pub fn kernels() -> &'static KernelDispatch {
    static CHOICE: OnceLock<&'static KernelDispatch> = OnceLock::new();
    CHOICE.get_or_init(detect)
}

fn force_scalar() -> bool {
    matches!(std::env::var("HPDR_FORCE_SCALAR"), Ok(v) if !v.is_empty() && v != "0")
}

fn detect() -> &'static KernelDispatch {
    if force_scalar() {
        return &SCALAR_TABLE;
    }
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if std::arch::is_x86_feature_detected!("avx2") {
        return &AVX2_TABLE;
    }
    &SCALAR_TABLE
}

/// The always-available scalar reference table (tests compare the other
/// tiers against it).
pub fn scalar_kernels() -> &'static KernelDispatch {
    &SCALAR_TABLE
}

/// A specific tier's table, if this machine can run it (`None` on
/// non-x86-64, under Miri, or when AVX2 is not detected).
pub fn kernels_for_tier(tier: SimdTier) -> Option<&'static KernelDispatch> {
    match tier {
        SimdTier::Scalar => Some(&SCALAR_TABLE),
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        SimdTier::Avx2 => {
            if std::arch::is_x86_feature_detected!("avx2") {
                Some(&AVX2_TABLE)
            } else {
                None
            }
        }
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        _ => None,
    }
}

/// The table for a DEM launch that fans out over `threads` pool
/// workers. When the launch oversubscribes the host (more workers than
/// cores), each worker's µs-scale chunk is bracketed by forced context
/// switches, and any 256-bit register state a kernel dirties is
/// saved and restored on every one of them — the XSAVE init-state
/// optimization that makes scalar-thread switches cheap no longer
/// applies. Measured on a 1-core host, AVX2 kernels under a 4-thread
/// launch run the MGARD quantize path 25% *slower* end to end than
/// scalar, while the same kernels win at ≤ 1 worker per core. So
/// oversubscribed launches take the scalar table; properly-sized
/// launches get the full dispatch.
pub fn kernels_for_par(threads: usize) -> &'static KernelDispatch {
    if threads > host_parallelism() {
        scalar_kernels()
    } else {
        kernels()
    }
}

fn host_parallelism() -> usize {
    static P: OnceLock<usize> = OnceLock::new();
    *P.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Every tier runnable on this machine (scalar first).
pub fn available_tiers() -> Vec<&'static KernelDispatch> {
    [SimdTier::Scalar, SimdTier::Avx2]
        .into_iter()
        .filter_map(kernels_for_tier)
        .collect()
}

// ---------------------------------------------------------------------------
// Scalar tier
// ---------------------------------------------------------------------------

static SCALAR_TABLE: KernelDispatch = KernelDispatch {
    tier: SimdTier::Scalar,
    negabinary_fwd: negabinary_fwd_scalar,
    negabinary_inv: negabinary_inv_scalar,
    bit_transpose64: bit_transpose64_scalar,
    zfp_fwd_transform: zfp_fwd_transform_scalar,
    zfp_inv_transform: zfp_inv_transform_scalar,
    histogram_fill: histogram_fill_scalar,
    byte_histogram_fill: byte_histogram_fill_scalar,
    code_bits_sum: code_bits_sum_scalar,
    byte_bits_sum: byte_bits_sum_scalar,
    quantize_quotients: quantize_quotients_scalar,
    quotient_symbols: quotient_symbols_scalar,
    dequantize_vals: dequantize_vals_scalar,
    zfp_amax_f32: zfp_amax_f32_scalar,
    zfp_amax_f64: zfp_amax_f64_scalar,
    zfp_fixedpoint_f32: zfp_fixedpoint_f32_scalar,
    zfp_fixedpoint_f64: zfp_fixedpoint_f64_scalar,
    min_max_f32: min_max_f32_scalar,
    min_max_f64: min_max_f64_scalar,
    sz_quantize_f32: sz_quantize_f32_scalar,
    sz_quantize_f64: sz_quantize_f64_scalar,
    sz_symbolize: sz_symbolize_scalar,
    slice_sub: slice_sub_scalar,
    slice_add: slice_add_scalar,
    line_backward_diff: line_backward_diff_scalar,
    line_prefix_sum: line_prefix_sum_scalar,
};

/// Single-value negabinary forward (shared with `hpdr-zfp`).
#[inline]
pub fn int_to_negabinary(x: i64) -> u64 {
    ((x as u64).wrapping_add(NBMASK)) ^ NBMASK
}

/// Single-value negabinary inverse (shared with `hpdr-zfp`).
#[inline]
pub fn negabinary_to_int(u: u64) -> i64 {
    (u ^ NBMASK).wrapping_sub(NBMASK) as i64
}

#[inline(always)] // also the AVX2 tier's body
fn negabinary_fwd_scalar(src: &[i64], dst: &mut [u64]) {
    assert_eq!(src.len(), dst.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = int_to_negabinary(s);
    }
}

#[inline(always)] // also the AVX2 tier's body
fn negabinary_inv_scalar(src: &[u64], dst: &mut [i64]) {
    assert_eq!(src.len(), dst.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = negabinary_to_int(s);
    }
}

/// Hacker's Delight §7-3 recursive 64×64 bit-matrix transpose, in
/// LSB-column orientation: on return `a[r]` bit `c` equals the input's
/// `a[c]` bit `r`. Pure bitwise swaps, so it is its own inverse and
/// trivially byte-identical across tiers.
fn bit_transpose64_scalar(a: &mut [u64; 64]) {
    let mut j = 32u32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j as usize]) & m;
            a[k] ^= t << j;
            a[k + j as usize] ^= t;
            k = (k + j as usize + 1) & !(j as usize);
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// ZFP forward lift of one 4-vector at stride `s` (wrapping pair
/// average/difference ladder).
#[inline]
fn fwd_lift_scalar(p: &mut [i64], base: usize, s: usize) {
    let (mut x, mut y, mut z, mut w) = (p[base], p[base + s], p[base + 2 * s], p[base + 3 * s]);
    x = x.wrapping_add(w);
    x >>= 1;
    w = w.wrapping_sub(x);
    z = z.wrapping_add(y);
    z >>= 1;
    y = y.wrapping_sub(z);
    x = x.wrapping_add(z);
    x >>= 1;
    z = z.wrapping_sub(x);
    w = w.wrapping_add(y);
    w >>= 1;
    y = y.wrapping_sub(w);
    w = w.wrapping_add(y >> 1);
    y = y.wrapping_sub(w >> 1);
    p[base] = x;
    p[base + s] = y;
    p[base + 2 * s] = z;
    p[base + 3 * s] = w;
}

/// ZFP inverse lift of one 4-vector at stride `s`.
#[inline]
fn inv_lift_scalar(p: &mut [i64], base: usize, s: usize) {
    let (mut x, mut y, mut z, mut w) = (p[base], p[base + s], p[base + 2 * s], p[base + 3 * s]);
    y = y.wrapping_add(w >> 1);
    w = w.wrapping_sub(y >> 1);
    y = y.wrapping_add(w);
    w = w.wrapping_shl(1);
    w = w.wrapping_sub(y);
    z = z.wrapping_add(x);
    x = x.wrapping_shl(1);
    x = x.wrapping_sub(z);
    y = y.wrapping_add(z);
    z = z.wrapping_shl(1);
    z = z.wrapping_sub(y);
    w = w.wrapping_add(x);
    x = x.wrapping_shl(1);
    x = x.wrapping_sub(w);
    p[base] = x;
    p[base + s] = y;
    p[base + 2 * s] = z;
    p[base + 3 * s] = w;
}

fn zfp_fwd_transform_scalar(block: &mut [i64], d: usize) {
    match d {
        1 => fwd_lift_scalar(block, 0, 1),
        2 => {
            for r in 0..4 {
                fwd_lift_scalar(block, 4 * r, 1);
            }
            for c in 0..4 {
                fwd_lift_scalar(block, c, 4);
            }
        }
        3 => {
            for z in 0..4 {
                for y in 0..4 {
                    fwd_lift_scalar(block, 16 * z + 4 * y, 1);
                }
            }
            for z in 0..4 {
                for x in 0..4 {
                    fwd_lift_scalar(block, 16 * z + x, 4);
                }
            }
            for y in 0..4 {
                for x in 0..4 {
                    fwd_lift_scalar(block, 4 * y + x, 16);
                }
            }
        }
        _ => panic!("ZFP blocks are 1–3 dimensional"),
    }
}

fn zfp_inv_transform_scalar(block: &mut [i64], d: usize) {
    match d {
        1 => inv_lift_scalar(block, 0, 1),
        2 => {
            for c in 0..4 {
                inv_lift_scalar(block, c, 4);
            }
            for r in 0..4 {
                inv_lift_scalar(block, 4 * r, 1);
            }
        }
        3 => {
            for y in 0..4 {
                for x in 0..4 {
                    inv_lift_scalar(block, 4 * y + x, 16);
                }
            }
            for z in 0..4 {
                for x in 0..4 {
                    inv_lift_scalar(block, 16 * z + x, 4);
                }
            }
            for z in 0..4 {
                for y in 0..4 {
                    inv_lift_scalar(block, 16 * z + 4 * y, 1);
                }
            }
        }
        _ => panic!("ZFP blocks are 1–3 dimensional"),
    }
}

fn histogram_fill_scalar(keys: &[u32], bins: usize, row: &mut [u64]) {
    assert_eq!(row.len(), bins + 1);
    for &k in keys {
        row[(k as usize).min(bins)] += 1;
    }
}

fn byte_histogram_fill_scalar(bytes: &[u8], row: &mut [u64]) {
    assert_eq!(row.len(), 256);
    for &b in bytes {
        row[b as usize] += 1;
    }
}

fn code_bits_sum_scalar(keys: &[u32], lens: &[u32]) -> u64 {
    assert!(!lens.is_empty());
    let top = lens.len() - 1;
    keys.iter()
        .map(|&k| lens[(k as usize).min(top)] as u64)
        .sum()
}

fn byte_bits_sum_scalar(bytes: &[u8], lens: &[u32]) -> u64 {
    assert!(!lens.is_empty());
    let top = lens.len() - 1;
    bytes
        .iter()
        .map(|&b| lens[(b as usize).min(top)] as u64)
        .sum()
}

#[inline(always)] // also the AVX2 tier's body
fn quantize_quotients_scalar(coeffs: &[f64], levels: &[u8], bins: &[f64], out: &mut [f64]) {
    assert_eq!(coeffs.len(), levels.len());
    assert_eq!(coeffs.len(), out.len());
    assert!(!bins.is_empty());
    let top = bins.len() - 1;
    for i in 0..coeffs.len() {
        out[i] = (coeffs[i] / bins[(levels[i] as usize).min(top)]).round_ties_even();
    }
}

/// 2^52 + 2^51: adding it to an integral double of magnitude below 2^51
/// leaves that integer, two's complement, in the sum's low mantissa bits.
#[cfg(target_arch = "x86_64")]
const SYMBOL_MAGIC: f64 = 6_755_399_441_055_744.0;

/// The AVX2 symbolizer needs `-radius` and `escape - radius` exact and
/// in-range quotients below 2^51; wider radii (never produced by a real
/// dictionary) take the scalar tier.
#[cfg(target_arch = "x86_64")]
const SYMBOL_RADIUS_LIMIT: u64 = 1 << 50;

/// The MGARD symbol of one integral quotient `x`: with `q` the quotient
/// saturated to ±9·10^18 (NaN → 0), `Ok(q + radius)` when that sum lies
/// in `[0, escape)`; `Err(q)`, an escape with the quotient its outlier
/// keeps, otherwise. The one owner of the saturation rule.
#[inline]
fn quotient_symbol(x: f64, radius: i64, escape: u32) -> Result<u32, i64> {
    let q = x.clamp(-9.0e18, 9.0e18) as i64;
    let s = q + radius;
    if (0..escape as i64).contains(&s) {
        Ok(s as u32)
    } else {
        Err(q)
    }
}

fn quotient_symbols_scalar(
    quotients: &[f64],
    radius: i64,
    escape: u32,
    out: &mut [u32],
    escapes: &mut Vec<(u64, i64)>,
) {
    assert_eq!(quotients.len(), out.len());
    for (i, (&x, o)) in quotients.iter().zip(out.iter_mut()).enumerate() {
        *o = quotient_symbol(x, radius, escape).unwrap_or_else(|q| {
            escapes.push((i as u64, q));
            escape
        });
    }
}

fn dequantize_vals_scalar(
    syms: &[u32],
    levels: &[u8],
    bins: &[f64],
    radius: i64,
    escape: u32,
    out: &mut [f64],
) {
    assert_eq!(syms.len(), levels.len());
    assert_eq!(syms.len(), out.len());
    assert!(!bins.is_empty());
    let top = bins.len() - 1;
    for i in 0..syms.len() {
        out[i] = if syms[i] == escape {
            0.0 // the caller patches escapes from its outlier table
        } else {
            (syms[i] as i64 - radius) as f64 * bins[(levels[i] as usize).min(top)]
        };
    }
}

fn zfp_amax_f32_scalar(vals: &[f32]) -> f64 {
    let mut amax = 0.0f32;
    let mut nan = false;
    for &v in vals {
        nan |= v.is_nan();
        amax = amax.max(v.abs());
    }
    if nan {
        f64::NAN
    } else {
        amax as f64
    }
}

fn zfp_amax_f64_scalar(vals: &[f64]) -> f64 {
    let mut amax = 0.0f64;
    let mut nan = false;
    for &v in vals {
        nan |= v.is_nan();
        amax = amax.max(v.abs());
    }
    if nan {
        f64::NAN
    } else {
        amax
    }
}

fn zfp_fixedpoint_f32_scalar(src: &[f32], scale: f64, out: &mut [i64]) {
    for (o, &v) in out.iter_mut().zip(src) {
        *o = (v as f64 * scale).round_ties_even() as i64;
    }
}

fn zfp_fixedpoint_f64_scalar(src: &[f64], scale: f64, out: &mut [i64]) {
    for (o, &v) in out.iter_mut().zip(src) {
        *o = (v * scale).round_ties_even() as i64;
    }
}

// The explicit `if v < mn` form (not f32::min) pins the -0.0/+0.0 choice
// to the one `vminps` makes, keeping scalar and AVX2 bit-identical.
fn min_max_f32_scalar(vals: &[f32]) -> (f32, f32) {
    let mut mn = f32::INFINITY;
    let mut mx = f32::NEG_INFINITY;
    let mut nan = false;
    for &v in vals {
        nan |= v.is_nan();
        mn = if v < mn { v } else { mn };
        mx = if v > mx { v } else { mx };
    }
    if nan {
        (f32::NAN, f32::NAN)
    } else {
        (mn, mx)
    }
}

fn min_max_f64_scalar(vals: &[f64]) -> (f64, f64) {
    let mut mn = f64::INFINITY;
    let mut mx = f64::NEG_INFINITY;
    let mut nan = false;
    for &v in vals {
        nan |= v.is_nan();
        mn = if v < mn { v } else { mn };
        mx = if v > mx { v } else { mx };
    }
    if nan {
        (f64::NAN, f64::NAN)
    } else {
        (mn, mx)
    }
}

fn sz_quantize_f32_scalar(src: &[f32], divisor: f64, out: &mut [i64]) {
    for (o, &v) in out.iter_mut().zip(src) {
        *o = (v as f64 / divisor).round_ties_even() as i64;
    }
}

fn sz_quantize_f64_scalar(src: &[f64], divisor: f64, out: &mut [i64]) {
    for (o, &v) in out.iter_mut().zip(src) {
        *o = (v / divisor).round_ties_even() as i64;
    }
}

fn sz_symbolize_scalar(
    q: &[i64],
    radius: i64,
    escape: u32,
    out: &mut [u32],
    outliers: &mut Vec<u64>,
) {
    assert_eq!(q.len(), out.len());
    for (i, (&d, o)) in q.iter().zip(out.iter_mut()).enumerate() {
        // Wrapping mirrors the vector add; a wrapped sum is always
        // negative (radius < 2^32), so it lands in the outlier class.
        let s = d.wrapping_add(radius);
        if s >= 0 && s < escape as i64 {
            *o = s as u32;
        } else {
            *o = escape;
            outliers.push(i as u64);
        }
    }
}

#[inline(always)] // also the AVX2 tier's body
fn slice_sub_scalar(cur: &mut [i64], prev: &[i64]) {
    assert_eq!(cur.len(), prev.len());
    for (c, &p) in cur.iter_mut().zip(prev) {
        *c = c.wrapping_sub(p);
    }
}

#[inline(always)] // also the AVX2 tier's body
fn slice_add_scalar(cur: &mut [i64], prev: &[i64]) {
    assert_eq!(cur.len(), prev.len());
    for (c, &p) in cur.iter_mut().zip(prev) {
        *c = c.wrapping_add(p);
    }
}

fn line_backward_diff_scalar(p: &mut [i64]) {
    for i in (1..p.len()).rev() {
        p[i] = p[i].wrapping_sub(p[i - 1]);
    }
}

fn line_prefix_sum_scalar(p: &mut [i64]) {
    for i in 1..p.len() {
        p[i] = p[i].wrapping_add(p[i - 1]);
    }
}

// ---------------------------------------------------------------------------
// Banked histograms (AVX2 tier)
// ---------------------------------------------------------------------------
//
// A serial histogram's `row[slot] += 1` chain stalls on store-to-load
// forwarding whenever consecutive keys hash to the same slot. Four
// interleaved private banks break the dependency chain; u64 addition is
// commutative and never overflows here, so the bank merge reproduces
// the scalar counts exactly.

#[cfg(target_arch = "x86_64")]
fn histogram_fill_banked(keys: &[u32], bins: usize, row: &mut [u64]) {
    assert_eq!(row.len(), bins + 1);
    let width = bins + 1;
    let mut banks = vec![0u64; 4 * width];
    let mut it = keys.chunks_exact(4);
    for c in it.by_ref() {
        banks[(c[0] as usize).min(bins)] += 1;
        banks[width + (c[1] as usize).min(bins)] += 1;
        banks[2 * width + (c[2] as usize).min(bins)] += 1;
        banks[3 * width + (c[3] as usize).min(bins)] += 1;
    }
    for &k in it.remainder() {
        banks[(k as usize).min(bins)] += 1;
    }
    for b in 0..width {
        row[b] += banks[b] + banks[width + b] + banks[2 * width + b] + banks[3 * width + b];
    }
}

#[cfg(target_arch = "x86_64")]
fn byte_histogram_fill_banked(bytes: &[u8], row: &mut [u64]) {
    assert_eq!(row.len(), 256);
    let mut banks = vec![0u64; 4 * 256];
    let mut it = bytes.chunks_exact(4);
    for c in it.by_ref() {
        banks[c[0] as usize] += 1;
        banks[256 + c[1] as usize] += 1;
        banks[512 + c[2] as usize] += 1;
        banks[768 + c[3] as usize] += 1;
    }
    for &b in it.remainder() {
        banks[b as usize] += 1;
    }
    for b in 0..256 {
        row[b] += banks[b] + banks[256 + b] + banks[512 + b] + banks[768 + b];
    }
}

// ---------------------------------------------------------------------------
// AVX2 tier
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
static AVX2_TABLE: KernelDispatch = KernelDispatch {
    tier: SimdTier::Avx2,
    negabinary_fwd: negabinary_fwd_avx2,
    negabinary_inv: negabinary_inv_avx2,
    bit_transpose64: bit_transpose64_avx2,
    zfp_fwd_transform: zfp_fwd_transform_avx2,
    zfp_inv_transform: zfp_inv_transform_avx2,
    histogram_fill: histogram_fill_banked,
    byte_histogram_fill: byte_histogram_fill_banked,
    code_bits_sum: code_bits_sum_avx2,
    byte_bits_sum: byte_bits_sum_avx2,
    quantize_quotients: quantize_quotients_avx2,
    quotient_symbols: quotient_symbols_avx2,
    dequantize_vals: dequantize_vals_avx2,
    zfp_amax_f32: zfp_amax_f32_avx2,
    zfp_amax_f64: zfp_amax_f64_avx2,
    zfp_fixedpoint_f32: zfp_fixedpoint_f32_avx2,
    zfp_fixedpoint_f64: zfp_fixedpoint_f64_avx2,
    min_max_f32: min_max_f32_avx2,
    min_max_f64: min_max_f64_avx2,
    sz_quantize_f32: sz_quantize_f32_avx2,
    sz_quantize_f64: sz_quantize_f64_avx2,
    sz_symbolize: sz_symbolize_avx2,
    slice_sub: slice_sub_avx2,
    slice_add: slice_add_avx2,
    line_backward_diff: line_backward_diff_avx2,
    line_prefix_sum: line_prefix_sum_avx2,
};

/// Arithmetic shift right by one of 4×i64 lanes. AVX2 has no
/// `_mm256_srai_epi64`; `((x >>ᵘ 1) ^ m) - m` with `m = 1 << 62`
/// restores the sign bit (standard sign-extension identity).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sra1_epi64(v: __m256i) -> __m256i {
    let m = _mm256_set1_epi64x(1 << 62);
    _mm256_sub_epi64(_mm256_xor_si256(_mm256_srli_epi64(v, 1), m), m)
}

/// Wrapping `<< 1` of 4×i64 lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn shl1_epi64(v: __m256i) -> __m256i {
    _mm256_add_epi64(v, v)
}

// These entries run their `#[inline(always)]` scalar body inside a
// function with AVX2 enabled: hand-written intrinsics measured no faster
// than that (DESIGN.md §16).

#[cfg(target_arch = "x86_64")]
fn negabinary_fwd_avx2(src: &[i64], dst: &mut [u64]) {
    #[target_feature(enable = "avx2")]
    fn body(src: &[i64], dst: &mut [u64]) {
        negabinary_fwd_scalar(src, dst)
    }
    // SAFETY: this pointer is only installed in AVX2_TABLE, which is
    // selected after `is_x86_feature_detected!("avx2")` succeeds.
    unsafe { body(src, dst) }
}

#[cfg(target_arch = "x86_64")]
fn negabinary_inv_avx2(src: &[u64], dst: &mut [i64]) {
    #[target_feature(enable = "avx2")]
    fn body(src: &[u64], dst: &mut [i64]) {
        negabinary_inv_scalar(src, dst)
    }
    // SAFETY: only reachable through AVX2_TABLE (feature verified).
    unsafe { body(src, dst) }
}

#[cfg(target_arch = "x86_64")]
fn quantize_quotients_avx2(coeffs: &[f64], levels: &[u8], bins: &[f64], out: &mut [f64]) {
    #[target_feature(enable = "avx2")]
    fn body(coeffs: &[f64], levels: &[u8], bins: &[f64], out: &mut [f64]) {
        quantize_quotients_scalar(coeffs, levels, bins, out)
    }
    // SAFETY: only reachable through AVX2_TABLE (feature verified).
    unsafe { body(coeffs, levels, bins, out) }
}

#[cfg(target_arch = "x86_64")]
fn slice_sub_avx2(cur: &mut [i64], prev: &[i64]) {
    #[target_feature(enable = "avx2")]
    fn body(cur: &mut [i64], prev: &[i64]) {
        slice_sub_scalar(cur, prev)
    }
    // SAFETY: only reachable through AVX2_TABLE (feature verified).
    unsafe { body(cur, prev) }
}

#[cfg(target_arch = "x86_64")]
fn slice_add_avx2(cur: &mut [i64], prev: &[i64]) {
    #[target_feature(enable = "avx2")]
    fn body(cur: &mut [i64], prev: &[i64]) {
        slice_add_scalar(cur, prev)
    }
    // SAFETY: only reachable through AVX2_TABLE (feature verified).
    unsafe { body(cur, prev) }
}

#[cfg(target_arch = "x86_64")]
fn bit_transpose64_avx2(a: &mut [u64; 64]) {
    // SAFETY: only reachable through AVX2_TABLE (feature verified).
    unsafe { bit_transpose64_avx2_impl(a) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn bit_transpose64_avx2_impl(a: &mut [u64; 64]) {
    // Hacker's Delight transpose; stages j ∈ {32,16,8,4} swap groups of
    // ≥4 consecutive words, so their inner loops vectorize 4-wide. The
    // j ∈ {2,1} stages mix words closer than a vector and stay scalar.
    let mut j = 32u32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j >= 4 {
        let mv = _mm256_set1_epi64x(m as i64);
        let shift = _mm_cvtsi32_si128(j as i32);
        let mut k = 0usize;
        while k < 64 {
            let mut kk = k;
            while kk < k + j as usize {
                // SAFETY: kk + j + 4 <= 64 — k iterates blocks of j with
                // bit j clear, so kk ∈ [k, k+j) and kk + j stays < 64;
                // j ≥ 4 keeps every 4-word window inside its block.
                unsafe {
                    let lo = _mm256_loadu_si256(a.as_ptr().add(kk) as *const __m256i);
                    let hi = _mm256_loadu_si256(a.as_ptr().add(kk + j as usize) as *const __m256i);
                    let t = _mm256_and_si256(_mm256_xor_si256(_mm256_srl_epi64(lo, shift), hi), mv);
                    _mm256_storeu_si256(
                        a.as_mut_ptr().add(kk) as *mut __m256i,
                        _mm256_xor_si256(lo, _mm256_sll_epi64(t, shift)),
                    );
                    _mm256_storeu_si256(
                        a.as_mut_ptr().add(kk + j as usize) as *mut __m256i,
                        _mm256_xor_si256(hi, t),
                    );
                }
                kk += 4;
            }
            k += 2 * j as usize;
        }
        j >>= 1;
        m ^= m << j;
    }
    // Remaining stages j = 2, 1 (scalar; identical to the reference loop).
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j as usize]) & m;
            a[k] ^= t << j;
            a[k + j as usize] ^= t;
            k = (k + j as usize + 1) & !(j as usize);
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// 4×4 transpose of i64 lanes across four AVX2 registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose4x4_epi64(
    r0: __m256i,
    r1: __m256i,
    r2: __m256i,
    r3: __m256i,
) -> (__m256i, __m256i, __m256i, __m256i) {
    let t0 = _mm256_unpacklo_epi64(r0, r1); // [a0 b0 a2 b2]
    let t1 = _mm256_unpackhi_epi64(r0, r1); // [a1 b1 a3 b3]
    let t2 = _mm256_unpacklo_epi64(r2, r3); // [c0 d0 c2 d2]
    let t3 = _mm256_unpackhi_epi64(r2, r3); // [c1 d1 c3 d3]
    (
        _mm256_permute2x128_si256(t0, t2, 0x20), // [a0 b0 c0 d0]
        _mm256_permute2x128_si256(t1, t3, 0x20), // [a1 b1 c1 d1]
        _mm256_permute2x128_si256(t0, t2, 0x31), // [a2 b2 c2 d2]
        _mm256_permute2x128_si256(t1, t3, 0x31), // [a3 b3 c3 d3]
    )
}

/// ZFP forward lift of four independent 4-vectors held column-wise in
/// lanes. Mirrors `fwd_lift_scalar` exactly (wrapping adds, emulated
/// arithmetic shifts), so results are byte-identical.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fwd_lift_v(
    mut x: __m256i,
    mut y: __m256i,
    mut z: __m256i,
    mut w: __m256i,
) -> (__m256i, __m256i, __m256i, __m256i) {
    x = sra1_epi64(_mm256_add_epi64(x, w));
    w = _mm256_sub_epi64(w, x);
    z = sra1_epi64(_mm256_add_epi64(z, y));
    y = _mm256_sub_epi64(y, z);
    x = sra1_epi64(_mm256_add_epi64(x, z));
    z = _mm256_sub_epi64(z, x);
    w = sra1_epi64(_mm256_add_epi64(w, y));
    y = _mm256_sub_epi64(y, w);
    w = _mm256_add_epi64(w, sra1_epi64(y));
    y = _mm256_sub_epi64(y, sra1_epi64(w));
    (x, y, z, w)
}

/// Inverse of [`fwd_lift_v`]; mirrors `inv_lift_scalar`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn inv_lift_v(
    mut x: __m256i,
    mut y: __m256i,
    mut z: __m256i,
    mut w: __m256i,
) -> (__m256i, __m256i, __m256i, __m256i) {
    y = _mm256_add_epi64(y, sra1_epi64(w));
    w = _mm256_sub_epi64(w, sra1_epi64(y));
    y = _mm256_add_epi64(y, w);
    w = shl1_epi64(w);
    w = _mm256_sub_epi64(w, y);
    z = _mm256_add_epi64(z, x);
    x = shl1_epi64(x);
    x = _mm256_sub_epi64(x, z);
    y = _mm256_add_epi64(y, z);
    z = shl1_epi64(z);
    z = _mm256_sub_epi64(z, y);
    w = _mm256_add_epi64(w, x);
    x = shl1_epi64(x);
    x = _mm256_sub_epi64(x, w);
    (x, y, z, w)
}

/// Load 4 consecutive i64 starting at `p[off]`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn load4(p: &[i64], off: usize) -> __m256i {
    debug_assert!(off + 4 <= p.len());
    // SAFETY: caller guarantees off + 4 <= p.len(); unaligned load.
    unsafe { _mm256_loadu_si256(p.as_ptr().add(off) as *const __m256i) }
}

/// Store 4 consecutive i64 starting at `p[off]`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn store4(p: &mut [i64], off: usize, v: __m256i) {
    debug_assert!(off + 4 <= p.len());
    // SAFETY: caller guarantees off + 4 <= p.len(); unaligned store.
    unsafe { _mm256_storeu_si256(p.as_mut_ptr().add(off) as *mut __m256i, v) }
}

/// Row pass (stride 1) over a 16-element plane starting at `base`: the
/// four rows are loaded, transposed so each register holds one column,
/// lifted, transposed back, and stored.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lift_rows_fwd(block: &mut [i64], base: usize) {
    // SAFETY: callers pass base with base + 16 <= block.len().
    unsafe {
        let r0 = load4(block, base);
        let r1 = load4(block, base + 4);
        let r2 = load4(block, base + 8);
        let r3 = load4(block, base + 12);
        let (x, y, z, w) = transpose4x4_epi64(r0, r1, r2, r3);
        let (x, y, z, w) = fwd_lift_v(x, y, z, w);
        let (r0, r1, r2, r3) = transpose4x4_epi64(x, y, z, w);
        store4(block, base, r0);
        store4(block, base + 4, r1);
        store4(block, base + 8, r2);
        store4(block, base + 12, r3);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lift_rows_inv(block: &mut [i64], base: usize) {
    // SAFETY: callers pass base with base + 16 <= block.len().
    unsafe {
        let r0 = load4(block, base);
        let r1 = load4(block, base + 4);
        let r2 = load4(block, base + 8);
        let r3 = load4(block, base + 12);
        let (x, y, z, w) = transpose4x4_epi64(r0, r1, r2, r3);
        let (x, y, z, w) = inv_lift_v(x, y, z, w);
        let (r0, r1, r2, r3) = transpose4x4_epi64(x, y, z, w);
        store4(block, base, r0);
        store4(block, base + 4, r1);
        store4(block, base + 8, r2);
        store4(block, base + 12, r3);
    }
}

/// Strided pass: the four 4-vectors at `base + lane + j*s` (lane = 0..4,
/// s = 4 within a plane or 16 across planes) line up naturally when
/// loading 4 consecutive elements — no transpose needed.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lift_strided_fwd(block: &mut [i64], base: usize, s: usize) {
    // SAFETY: callers pass base/s with base + 3*s + 4 <= block.len().
    unsafe {
        let x = load4(block, base);
        let y = load4(block, base + s);
        let z = load4(block, base + 2 * s);
        let w = load4(block, base + 3 * s);
        let (x, y, z, w) = fwd_lift_v(x, y, z, w);
        store4(block, base, x);
        store4(block, base + s, y);
        store4(block, base + 2 * s, z);
        store4(block, base + 3 * s, w);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lift_strided_inv(block: &mut [i64], base: usize, s: usize) {
    // SAFETY: callers pass base/s with base + 3*s + 4 <= block.len().
    unsafe {
        let x = load4(block, base);
        let y = load4(block, base + s);
        let z = load4(block, base + 2 * s);
        let w = load4(block, base + 3 * s);
        let (x, y, z, w) = inv_lift_v(x, y, z, w);
        store4(block, base, x);
        store4(block, base + s, y);
        store4(block, base + 2 * s, z);
        store4(block, base + 3 * s, w);
    }
}

#[cfg(target_arch = "x86_64")]
fn zfp_fwd_transform_avx2(block: &mut [i64], d: usize) {
    // SAFETY: only reachable through AVX2_TABLE (feature verified).
    unsafe { zfp_fwd_transform_avx2_impl(block, d) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn zfp_fwd_transform_avx2_impl(block: &mut [i64], d: usize) {
    match d {
        1 => fwd_lift_scalar(block, 0, 1),
        2 => {
            assert!(block.len() >= 16);
            // SAFETY: length asserted ≥ 16 covers every window below.
            unsafe {
                lift_rows_fwd(block, 0); // rows (stride 1)
                lift_strided_fwd(block, 0, 4); // columns
            }
        }
        3 => {
            assert!(block.len() >= 64);
            // SAFETY: length asserted ≥ 64 covers every window below
            // (max offset 48 + 3·4 + 4 = 64).
            unsafe {
                for z in 0..4 {
                    lift_rows_fwd(block, 16 * z); // x-axis (stride 1)
                }
                for z in 0..4 {
                    lift_strided_fwd(block, 16 * z, 4); // y-axis
                }
                for y in 0..4 {
                    lift_strided_fwd(block, 4 * y, 16); // z-axis
                }
            }
        }
        _ => panic!("ZFP blocks are 1–3 dimensional"),
    }
}

#[cfg(target_arch = "x86_64")]
fn zfp_inv_transform_avx2(block: &mut [i64], d: usize) {
    // SAFETY: only reachable through AVX2_TABLE (feature verified).
    unsafe { zfp_inv_transform_avx2_impl(block, d) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn zfp_inv_transform_avx2_impl(block: &mut [i64], d: usize) {
    match d {
        1 => inv_lift_scalar(block, 0, 1),
        2 => {
            assert!(block.len() >= 16);
            // SAFETY: length asserted ≥ 16 covers every window below.
            unsafe {
                lift_strided_inv(block, 0, 4); // columns first (reverse order)
                lift_rows_inv(block, 0);
            }
        }
        3 => {
            assert!(block.len() >= 64);
            // SAFETY: length asserted ≥ 64 covers every window below.
            unsafe {
                for y in 0..4 {
                    lift_strided_inv(block, 4 * y, 16); // z-axis first
                }
                for z in 0..4 {
                    lift_strided_inv(block, 16 * z, 4); // y-axis
                }
                for z in 0..4 {
                    lift_rows_inv(block, 16 * z); // x-axis
                }
            }
        }
        _ => panic!("ZFP blocks are 1–3 dimensional"),
    }
}

#[cfg(target_arch = "x86_64")]
fn code_bits_sum_avx2(keys: &[u32], lens: &[u32]) -> u64 {
    // SAFETY: only reachable through AVX2_TABLE (feature verified).
    unsafe { code_bits_sum_avx2_impl(keys, lens) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn code_bits_sum_avx2_impl(keys: &[u32], lens: &[u32]) -> u64 {
    assert!(!lens.is_empty());
    let top = _mm256_set1_epi32((lens.len() - 1) as i32);
    let mut total = 0u64;
    // Blocks of ≤ 2^24 keys keep the 8 u32 lane accumulators below
    // 2^24/8 · 64 < 2^28, far from overflow.
    for block in keys.chunks(1 << 24) {
        let mut acc = _mm256_setzero_si256();
        let mut it = block.chunks_exact(8);
        for c in it.by_ref() {
            // SAFETY: chunks_exact(8) guarantees 8 readable u32s; the
            // gather indices are clamped below lens.len() by min_epu32,
            // so every lane reads inside `lens`.
            unsafe {
                let k = _mm256_loadu_si256(c.as_ptr() as *const __m256i);
                let idx = _mm256_min_epu32(k, top);
                let v = _mm256_i32gather_epi32(lens.as_ptr() as *const i32, idx, 4);
                acc = _mm256_add_epi32(acc, v);
            }
        }
        let mut lanes = [0u32; 8];
        // SAFETY: `lanes` is exactly 32 bytes, matching the store width.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc) };
        total += lanes.iter().map(|&v| v as u64).sum::<u64>();
        total += code_bits_sum_scalar(it.remainder(), lens);
    }
    total
}

#[cfg(target_arch = "x86_64")]
fn byte_bits_sum_avx2(bytes: &[u8], lens: &[u32]) -> u64 {
    // SAFETY: only reachable through AVX2_TABLE (feature verified).
    unsafe { byte_bits_sum_avx2_impl(bytes, lens) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn byte_bits_sum_avx2_impl(bytes: &[u8], lens: &[u32]) -> u64 {
    assert!(!lens.is_empty());
    let top = _mm256_set1_epi32((lens.len() - 1) as i32);
    let mut total = 0u64;
    for block in bytes.chunks(1 << 24) {
        let mut acc = _mm256_setzero_si256();
        let mut it = block.chunks_exact(8);
        for c in it.by_ref() {
            // SAFETY: chunks_exact(8) guarantees 8 readable bytes (one
            // 64-bit load); gather indices are clamped below lens.len().
            unsafe {
                let b = _mm_loadl_epi64(c.as_ptr() as *const __m128i);
                let k = _mm256_cvtepu8_epi32(b);
                let idx = _mm256_min_epu32(k, top);
                let v = _mm256_i32gather_epi32(lens.as_ptr() as *const i32, idx, 4);
                acc = _mm256_add_epi32(acc, v);
            }
        }
        let mut lanes = [0u32; 8];
        // SAFETY: `lanes` is exactly 32 bytes, matching the store width.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc) };
        total += lanes.iter().map(|&v| v as u64).sum::<u64>();
        total += byte_bits_sum_scalar(it.remainder(), lens);
    }
    total
}

#[cfg(target_arch = "x86_64")]
fn quotient_symbols_avx2(
    quotients: &[f64],
    radius: i64,
    escape: u32,
    out: &mut [u32],
    escapes: &mut Vec<(u64, i64)>,
) {
    if radius.unsigned_abs() >= SYMBOL_RADIUS_LIMIT {
        quotient_symbols_scalar(quotients, radius, escape, out, escapes);
        return;
    }
    // SAFETY: only reachable through AVX2_TABLE (feature verified).
    unsafe { quotient_symbols_avx2_impl(quotients, radius, escape, out, escapes) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quotient_symbols_avx2_impl(
    quotients: &[f64],
    radius: i64,
    escape: u32,
    out: &mut [u32],
    escapes: &mut Vec<(u64, i64)>,
) {
    assert_eq!(quotients.len(), out.len());
    let n = quotients.len();
    // A lane is a symbol when `-radius <= x < escape - radius`: both
    // bounds are exact doubles (the wrapper keeps |radius| < 2^50), and
    // NaN compares false. In range, `x + radius` lies in [0, escape), so
    // |x| < 2^51 and the magic add puts `x` in the low bits exactly; the
    // low dword plus the low dword of `radius` is then the symbol, the
    // value `quotient_symbol` gives. The other lanes (escapes and NaN)
    // and the tail go through `quotient_symbol`.
    let mut scalar = |j: usize, out: &mut [u32]| {
        out[j] = quotient_symbol(quotients[j], radius, escape).unwrap_or_else(|q| {
            escapes.push((j as u64, q));
            escape
        });
    };
    let lo = _mm256_set1_pd(-(radius as f64));
    let hi = _mm256_set1_pd((escape as i64 - radius) as f64);
    let magic = _mm256_set1_pd(SYMBOL_MAGIC);
    let rad = _mm_set1_epi32(radius as i32);
    let pick = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n bounds the 32-byte load and the 4-dword store.
        let mask = unsafe {
            let x = _mm256_loadu_pd(quotients.as_ptr().add(i));
            let ok = _mm256_and_pd(
                _mm256_cmp_pd(x, lo, _CMP_GE_OQ),
                _mm256_cmp_pd(x, hi, _CMP_LT_OQ),
            );
            let bits = _mm256_castpd_si256(_mm256_add_pd(x, magic));
            let low = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(bits, pick));
            _mm_storeu_si128(
                out.as_mut_ptr().add(i) as *mut __m128i,
                _mm_add_epi32(low, rad),
            );
            _mm256_movemask_pd(ok) as u32
        };
        if mask != 0xF {
            for lane in (0..4).filter(|lane| mask & (1 << lane) == 0) {
                scalar(i + lane, out);
            }
        }
        i += 4;
    }
    for j in i..n {
        scalar(j, out);
    }
}

#[cfg(target_arch = "x86_64")]
fn dequantize_vals_avx2(
    syms: &[u32],
    levels: &[u8],
    bins: &[f64],
    radius: i64,
    escape: u32,
    out: &mut [f64],
) {
    // The magic-constant i64→f64 conversion below is exact only for
    // |sym - radius| < 2^51; syms are u32 (< 2^32), so any |radius|
    // below 2^50 keeps the difference in range. Larger radii (never
    // produced by real quantizers) take the scalar path.
    if radius.unsigned_abs() >= (1 << 50) {
        dequantize_vals_scalar(syms, levels, bins, radius, escape, out);
        return;
    }
    // SAFETY: only reachable through AVX2_TABLE (feature verified).
    unsafe { dequantize_vals_avx2_impl(syms, levels, bins, radius, escape, out) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dequantize_vals_avx2_impl(
    syms: &[u32],
    levels: &[u8],
    bins: &[f64],
    radius: i64,
    escape: u32,
    out: &mut [f64],
) {
    assert_eq!(syms.len(), levels.len());
    assert_eq!(syms.len(), out.len());
    assert!(!bins.is_empty());
    let n = syms.len();
    let top = bins.len() - 1;
    // f64 bit pattern of 2^52 + 2^51: adding an i64 x with |x| < 2^51 to
    // these bits yields the bits of (2^52 + 2^51) + x, so subtracting the
    // constant back recovers an exact f64(x) — same value as `x as f64`.
    const MAGIC_BITS: i64 = 0x4338_0000_0000_0000;
    let esc = _mm256_set1_epi64x(escape as i64);
    let rad = _mm256_set1_epi64x(radius);
    let magic_i = _mm256_set1_epi64x(MAGIC_BITS);
    let magic_d = _mm256_castsi256_pd(magic_i);
    let mut i = 0;
    while i + 4 <= n {
        let idx = _mm_setr_epi32(
            (levels[i] as usize).min(top) as i32,
            (levels[i + 1] as usize).min(top) as i32,
            (levels[i + 2] as usize).min(top) as i32,
            (levels[i + 3] as usize).min(top) as i32,
        );
        // SAFETY: i + 4 <= n bounds the loads/stores; gather indices are
        // clamped to bins.len() - 1. Arithmetic is 64-bit: syms zero-
        // extend to i64, and |sym - radius| < 2^51 (wrapper guards
        // |radius| < 2^50), keeping the magic conversion exact.
        unsafe {
            let s = _mm_loadu_si128(syms.as_ptr().add(i) as *const __m128i);
            let s64 = _mm256_cvtepu32_epi64(s);
            let is_esc = _mm256_cmpeq_epi64(s64, esc);
            let qi = _mm256_sub_epi64(s64, rad);
            let qd = _mm256_sub_pd(_mm256_castsi256_pd(_mm256_add_epi64(qi, magic_i)), magic_d);
            let b = _mm256_i32gather_pd(bins.as_ptr(), idx, 8);
            let v = _mm256_mul_pd(qd, b);
            let v = _mm256_andnot_pd(_mm256_castsi256_pd(is_esc), v);
            _mm256_storeu_pd(out.as_mut_ptr().add(i), v);
        }
        i += 4;
    }
    while i < n {
        out[i] = if syms[i] == escape {
            0.0
        } else {
            (syms[i] as i64 - radius) as f64 * bins[(levels[i] as usize).min(top)]
        };
        i += 1;
    }
}

#[cfg(target_arch = "x86_64")]
fn zfp_amax_f32_avx2(vals: &[f32]) -> f64 {
    // SAFETY: only reachable through AVX2_TABLE (feature verified).
    unsafe { zfp_amax_f32_avx2_impl(vals) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn zfp_amax_f32_avx2_impl(vals: &[f32]) -> f64 {
    let n = vals.len();
    let absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
    let mut acc = _mm256_setzero_ps();
    let mut unord = _mm256_setzero_ps();
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: i + 8 <= n bounds the unaligned load.
        unsafe {
            let v = _mm256_loadu_ps(vals.as_ptr().add(i));
            // NaN tracked separately: maxps silently passes NaN through
            // (or drops it, depending on operand order), so the unordered
            // compare is the reliable detector.
            unord = _mm256_or_ps(unord, _mm256_cmp_ps(v, v, _CMP_UNORD_Q));
            acc = _mm256_max_ps(acc, _mm256_and_ps(v, absmask));
        }
        i += 8;
    }
    let mut nan = _mm256_movemask_ps(unord) != 0;
    let hi = _mm256_extractf128_ps(acc, 1);
    let mut q = _mm_max_ps(_mm256_castps256_ps128(acc), hi);
    q = _mm_max_ps(q, _mm_movehl_ps(q, q));
    q = _mm_max_ss(q, _mm_shuffle_ps(q, q, 1));
    let mut amax = _mm_cvtss_f32(q);
    for &v in &vals[i..] {
        nan |= v.is_nan();
        amax = amax.max(v.abs());
    }
    if nan {
        f64::NAN
    } else {
        amax as f64
    }
}

#[cfg(target_arch = "x86_64")]
fn zfp_amax_f64_avx2(vals: &[f64]) -> f64 {
    // SAFETY: only reachable through AVX2_TABLE (feature verified).
    unsafe { zfp_amax_f64_avx2_impl(vals) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn zfp_amax_f64_avx2_impl(vals: &[f64]) -> f64 {
    let n = vals.len();
    let absmask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFF_FFFF_FFFF_FFFF));
    let mut acc = _mm256_setzero_pd();
    let mut unord = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n bounds the unaligned load.
        unsafe {
            let v = _mm256_loadu_pd(vals.as_ptr().add(i));
            unord = _mm256_or_pd(unord, _mm256_cmp_pd(v, v, _CMP_UNORD_Q));
            acc = _mm256_max_pd(acc, _mm256_and_pd(v, absmask));
        }
        i += 4;
    }
    let mut nan = _mm256_movemask_pd(unord) != 0;
    let hi = _mm256_extractf128_pd(acc, 1);
    let mut q = _mm_max_pd(_mm256_castpd256_pd128(acc), hi);
    q = _mm_max_sd(q, _mm_unpackhi_pd(q, q));
    let mut amax = _mm_cvtsd_f64(q);
    for &v in &vals[i..] {
        nan |= v.is_nan();
        amax = amax.max(v.abs());
    }
    if nan {
        f64::NAN
    } else {
        amax
    }
}

/// Exact f64 → i64 for *integral* doubles with |x| < 2^63 (AVX2 has no
/// `vcvtpd2qq`): decode exponent and mantissa and shift the 53-bit
/// significand into place with per-lane variable shifts — counts ≥ 64
/// conveniently yield 0, which handles both ±0 (tiny exponent) and the
/// dead half of the left/right pair.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn cvt_integral_pd_epi64(x: __m256d) -> __m256i {
    let bits = _mm256_castpd_si256(x);
    let zero = _mm256_setzero_si256();
    let neg = _mm256_cmpgt_epi64(zero, bits);
    let exp = _mm256_and_si256(_mm256_srli_epi64(bits, 52), _mm256_set1_epi64x(0x7FF));
    // Shift distance from the 52-bit-aligned significand: e = exp - 1075.
    let e = _mm256_sub_epi64(exp, _mm256_set1_epi64x(1075));
    let mant = _mm256_or_si256(
        _mm256_and_si256(bits, _mm256_set1_epi64x((1i64 << 52) - 1)),
        _mm256_set1_epi64x(1i64 << 52),
    );
    let left = _mm256_sllv_epi64(mant, e);
    let right = _mm256_srlv_epi64(mant, _mm256_sub_epi64(zero, e));
    // Exactly one side is live (the other's count is ≥ 64 → 0); at e == 0
    // both equal `mant`, so OR is still exact.
    let mag = _mm256_or_si256(left, right);
    // Two's-complement negate where the sign bit was set.
    _mm256_sub_epi64(_mm256_xor_si256(mag, neg), neg)
}

#[cfg(target_arch = "x86_64")]
fn zfp_fixedpoint_f32_avx2(src: &[f32], scale: f64, out: &mut [i64]) {
    // SAFETY: only reachable through AVX2_TABLE (feature verified).
    unsafe { zfp_fixedpoint_f32_avx2_impl(src, scale, out) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn zfp_fixedpoint_f32_avx2_impl(src: &[f32], scale: f64, out: &mut [i64]) {
    assert_eq!(src.len(), out.len());
    let n = src.len();
    let s = _mm256_set1_pd(scale);
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n bounds the load and store. The widen → mul →
        // round sequence is IEEE-exact, so it matches the scalar
        // `(v as f64 * scale).round_ties_even()` bit for bit; the caller
        // bounds |v·scale| < 2^62, keeping the integral conversion exact.
        unsafe {
            let v = _mm_loadu_ps(src.as_ptr().add(i));
            let d = _mm256_mul_pd(_mm256_cvtps_pd(v), s);
            let r = _mm256_round_pd(d, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
            _mm256_storeu_si256(
                out.as_mut_ptr().add(i) as *mut __m256i,
                cvt_integral_pd_epi64(r),
            );
        }
        i += 4;
    }
    while i < n {
        out[i] = (src[i] as f64 * scale).round_ties_even() as i64;
        i += 1;
    }
}

#[cfg(target_arch = "x86_64")]
fn zfp_fixedpoint_f64_avx2(src: &[f64], scale: f64, out: &mut [i64]) {
    // SAFETY: only reachable through AVX2_TABLE (feature verified).
    unsafe { zfp_fixedpoint_f64_avx2_impl(src, scale, out) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn zfp_fixedpoint_f64_avx2_impl(src: &[f64], scale: f64, out: &mut [i64]) {
    assert_eq!(src.len(), out.len());
    let n = src.len();
    let s = _mm256_set1_pd(scale);
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n bounds the load and store; see the f32
        // variant for the exactness argument.
        unsafe {
            let v = _mm256_loadu_pd(src.as_ptr().add(i));
            let d = _mm256_mul_pd(v, s);
            let r = _mm256_round_pd(d, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
            _mm256_storeu_si256(
                out.as_mut_ptr().add(i) as *mut __m256i,
                cvt_integral_pd_epi64(r),
            );
        }
        i += 4;
    }
    while i < n {
        out[i] = (src[i] * scale).round_ties_even() as i64;
        i += 1;
    }
}

#[cfg(target_arch = "x86_64")]
fn min_max_f32_avx2(vals: &[f32]) -> (f32, f32) {
    // SAFETY: only reachable through AVX2_TABLE (feature verified).
    unsafe { min_max_f32_avx2_impl(vals) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn min_max_f32_avx2_impl(vals: &[f32]) -> (f32, f32) {
    let n = vals.len();
    // Accumulators start at ±inf and the data rides in the *first*
    // min/max operand, so NaN lanes fall through to the accumulator
    // (min/max return the second operand on unordered) — NaN is tracked
    // by the separate unordered compare, exactly like the amax kernels.
    let mut vmn = _mm256_set1_ps(f32::INFINITY);
    let mut vmx = _mm256_set1_ps(f32::NEG_INFINITY);
    let mut unord = _mm256_setzero_ps();
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: i + 8 <= n bounds the unaligned load.
        unsafe {
            let v = _mm256_loadu_ps(vals.as_ptr().add(i));
            unord = _mm256_or_ps(unord, _mm256_cmp_ps(v, v, _CMP_UNORD_Q));
            vmn = _mm256_min_ps(v, vmn);
            vmx = _mm256_max_ps(v, vmx);
        }
        i += 8;
    }
    let mut nan = _mm256_movemask_ps(unord) != 0;
    let mut q = _mm_min_ps(_mm256_castps256_ps128(vmn), _mm256_extractf128_ps(vmn, 1));
    q = _mm_min_ps(q, _mm_movehl_ps(q, q));
    q = _mm_min_ss(q, _mm_shuffle_ps(q, q, 1));
    let mut mn = _mm_cvtss_f32(q);
    let mut q = _mm_max_ps(_mm256_castps256_ps128(vmx), _mm256_extractf128_ps(vmx, 1));
    q = _mm_max_ps(q, _mm_movehl_ps(q, q));
    q = _mm_max_ss(q, _mm_shuffle_ps(q, q, 1));
    let mut mx = _mm_cvtss_f32(q);
    for &v in &vals[i..] {
        nan |= v.is_nan();
        mn = if v < mn { v } else { mn };
        mx = if v > mx { v } else { mx };
    }
    if nan {
        (f32::NAN, f32::NAN)
    } else {
        (mn, mx)
    }
}

#[cfg(target_arch = "x86_64")]
fn min_max_f64_avx2(vals: &[f64]) -> (f64, f64) {
    // SAFETY: only reachable through AVX2_TABLE (feature verified).
    unsafe { min_max_f64_avx2_impl(vals) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn min_max_f64_avx2_impl(vals: &[f64]) -> (f64, f64) {
    let n = vals.len();
    let mut vmn = _mm256_set1_pd(f64::INFINITY);
    let mut vmx = _mm256_set1_pd(f64::NEG_INFINITY);
    let mut unord = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n bounds the unaligned load.
        unsafe {
            let v = _mm256_loadu_pd(vals.as_ptr().add(i));
            unord = _mm256_or_pd(unord, _mm256_cmp_pd(v, v, _CMP_UNORD_Q));
            vmn = _mm256_min_pd(v, vmn);
            vmx = _mm256_max_pd(v, vmx);
        }
        i += 4;
    }
    let mut nan = _mm256_movemask_pd(unord) != 0;
    let mut q = _mm_min_pd(_mm256_castpd256_pd128(vmn), _mm256_extractf128_pd(vmn, 1));
    q = _mm_min_sd(q, _mm_unpackhi_pd(q, q));
    let mut mn = _mm_cvtsd_f64(q);
    let mut q = _mm_max_pd(_mm256_castpd256_pd128(vmx), _mm256_extractf128_pd(vmx, 1));
    q = _mm_max_sd(q, _mm_unpackhi_pd(q, q));
    let mut mx = _mm_cvtsd_f64(q);
    for &v in &vals[i..] {
        nan |= v.is_nan();
        mn = if v < mn { v } else { mn };
        mx = if v > mx { v } else { mx };
    }
    if nan {
        (f64::NAN, f64::NAN)
    } else {
        (mn, mx)
    }
}

#[cfg(target_arch = "x86_64")]
fn sz_quantize_f32_avx2(src: &[f32], divisor: f64, out: &mut [i64]) {
    // SAFETY: only reachable through AVX2_TABLE (feature verified).
    unsafe { sz_quantize_f32_avx2_impl(src, divisor, out) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sz_quantize_f32_avx2_impl(src: &[f32], divisor: f64, out: &mut [i64]) {
    assert_eq!(src.len(), out.len());
    let n = src.len();
    let d = _mm256_set1_pd(divisor);
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n bounds the load and store. Widen → divide →
        // round is IEEE-exact, matching the scalar form bit for bit; the
        // caller bounds |v / divisor| < 2^62 for the integral conversion.
        unsafe {
            let v = _mm_loadu_ps(src.as_ptr().add(i));
            let q = _mm256_div_pd(_mm256_cvtps_pd(v), d);
            let r = _mm256_round_pd(q, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
            _mm256_storeu_si256(
                out.as_mut_ptr().add(i) as *mut __m256i,
                cvt_integral_pd_epi64(r),
            );
        }
        i += 4;
    }
    while i < n {
        out[i] = (src[i] as f64 / divisor).round_ties_even() as i64;
        i += 1;
    }
}

#[cfg(target_arch = "x86_64")]
fn sz_quantize_f64_avx2(src: &[f64], divisor: f64, out: &mut [i64]) {
    // SAFETY: only reachable through AVX2_TABLE (feature verified).
    unsafe { sz_quantize_f64_avx2_impl(src, divisor, out) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sz_quantize_f64_avx2_impl(src: &[f64], divisor: f64, out: &mut [i64]) {
    assert_eq!(src.len(), out.len());
    let n = src.len();
    let d = _mm256_set1_pd(divisor);
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n bounds the load and store; see the f32
        // variant for the exactness argument.
        unsafe {
            let v = _mm256_loadu_pd(src.as_ptr().add(i));
            let q = _mm256_div_pd(v, d);
            let r = _mm256_round_pd(q, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
            _mm256_storeu_si256(
                out.as_mut_ptr().add(i) as *mut __m256i,
                cvt_integral_pd_epi64(r),
            );
        }
        i += 4;
    }
    while i < n {
        out[i] = (src[i] / divisor).round_ties_even() as i64;
        i += 1;
    }
}

#[cfg(target_arch = "x86_64")]
fn sz_symbolize_avx2(
    q: &[i64],
    radius: i64,
    escape: u32,
    out: &mut [u32],
    outliers: &mut Vec<u64>,
) {
    // SAFETY: only reachable through AVX2_TABLE (feature verified).
    unsafe { sz_symbolize_avx2_impl(q, radius, escape, out, outliers) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sz_symbolize_avx2_impl(
    q: &[i64],
    radius: i64,
    escape: u32,
    out: &mut [u32],
    outliers: &mut Vec<u64>,
) {
    assert_eq!(q.len(), out.len());
    let n = q.len();
    let rad = _mm256_set1_epi64x(radius);
    let esc = _mm256_set1_epi64x(escape as i64);
    let neg1 = _mm256_set1_epi64x(-1);
    // Low dword of each qword, compacted into the low 128 bits.
    let pick = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n bounds the load and the 4-dword store.
        unsafe {
            let d = _mm256_loadu_si256(q.as_ptr().add(i) as *const __m256i);
            let s = _mm256_add_epi64(d, rad);
            let ok = _mm256_and_si256(_mm256_cmpgt_epi64(s, neg1), _mm256_cmpgt_epi64(esc, s));
            // In-range sums fit in 32 bits (escape < 2^32), so the low
            // dword of each blended qword is the symbol.
            let sym = _mm256_blendv_epi8(esc, s, ok);
            let packed = _mm256_permutevar8x32_epi32(sym, pick);
            _mm_storeu_si128(
                out.as_mut_ptr().add(i) as *mut __m128i,
                _mm256_castsi256_si128(packed),
            );
            let mask = _mm256_movemask_pd(_mm256_castsi256_pd(ok)) as u32;
            if mask != 0xF {
                for lane in 0..4 {
                    if mask & (1 << lane) == 0 {
                        outliers.push((i + lane) as u64);
                    }
                }
            }
        }
        i += 4;
    }
    for (j, &d) in q[i..].iter().enumerate() {
        let s = d.wrapping_add(radius);
        if s >= 0 && s < escape as i64 {
            out[i + j] = s as u32;
        } else {
            out[i + j] = escape;
            outliers.push((i + j) as u64);
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn line_backward_diff_avx2(p: &mut [i64]) {
    // SAFETY: only reachable through AVX2_TABLE (feature verified).
    unsafe { line_backward_diff_avx2_impl(p) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn line_backward_diff_avx2_impl(p: &mut [i64]) {
    // High→low chunks: the window [i-4, i) reads [i-5, i-1), whose
    // values are only stored by this same chunk *after* both loads.
    let n = p.len();
    let mut i = n;
    while i >= 5 {
        // SAFETY: i >= 5 keeps both windows [i-4, i) and [i-5, i-1)
        // inside the slice; loads precede the store.
        unsafe {
            let cur = _mm256_loadu_si256(p.as_ptr().add(i - 4) as *const __m256i);
            let prev = _mm256_loadu_si256(p.as_ptr().add(i - 5) as *const __m256i);
            _mm256_storeu_si256(
                p.as_mut_ptr().add(i - 4) as *mut __m256i,
                _mm256_sub_epi64(cur, prev),
            );
        }
        i -= 4;
    }
    for j in (1..i).rev() {
        p[j] = p[j].wrapping_sub(p[j - 1]);
    }
}

#[cfg(target_arch = "x86_64")]
fn line_prefix_sum_avx2(p: &mut [i64]) {
    // SAFETY: only reachable through AVX2_TABLE (feature verified).
    unsafe { line_prefix_sum_avx2_impl(p) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn line_prefix_sum_avx2_impl(p: &mut [i64]) {
    // In-register inclusive scan: two log-steps of lane-shifted adds,
    // plus a broadcast carry from the previous chunk. Wrapping i64
    // addition is associative, so any association is byte-identical to
    // the scalar left fold.
    let n = p.len();
    let zero = _mm256_setzero_si256();
    let mut carry = zero;
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n bounds the unaligned load and store.
        unsafe {
            let v = _mm256_loadu_si256(p.as_ptr().add(i) as *const __m256i);
            // Shift lanes up by one (zero fill): [0, v0, v1, v2].
            let t1 = _mm256_blend_epi32(_mm256_permute4x64_epi64(v, 0x90), zero, 0x03);
            let v1 = _mm256_add_epi64(v, t1);
            // Shift lanes up by two: [0, 0, v1_0, v1_1].
            let t2 = _mm256_blend_epi32(_mm256_permute4x64_epi64(v1, 0x40), zero, 0x0F);
            let v2 = _mm256_add_epi64(v1, t2);
            let out = _mm256_add_epi64(v2, carry);
            _mm256_storeu_si256(p.as_mut_ptr().add(i) as *mut __m256i, out);
            carry = _mm256_permute4x64_epi64(out, 0xFF); // broadcast lane 3
        }
        i += 4;
    }
    for j in i.max(1)..n {
        p[j] = p[j].wrapping_add(p[j - 1]);
    }
}

// ---------------------------------------------------------------------------
// Tests (tier cross-checks live in tests/simd_identity.rs; these cover
// the scalar reference semantics and the dispatch plumbing).
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_is_cached_and_consistent() {
        let a = kernels();
        let b = kernels();
        assert!(std::ptr::eq(a, b));
        assert!(available_tiers().iter().any(|t| t.tier == SimdTier::Scalar));
    }

    #[test]
    fn scalar_table_is_always_available() {
        assert_eq!(scalar_kernels().tier, SimdTier::Scalar);
        assert!(kernels_for_tier(SimdTier::Scalar).is_some());
    }

    #[test]
    fn negabinary_roundtrip_all_tiers() {
        let vals: Vec<i64> = (-100..100)
            .map(|i| i * 0x1234_5679)
            .chain([i64::MIN / 4, i64::MAX / 4, 0, 1, -1])
            .collect();
        for k in available_tiers() {
            let mut nb = vec![0u64; vals.len()];
            let mut back = vec![0i64; vals.len()];
            (k.negabinary_fwd)(&vals, &mut nb);
            (k.negabinary_inv)(&nb, &mut back);
            assert_eq!(back, vals, "tier {:?}", k.tier);
        }
    }

    #[test]
    fn bit_transpose_matches_naive_extraction() {
        let mut a = [0u64; 64];
        for (i, v) in a.iter_mut().enumerate() {
            *v = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(9);
        }
        let orig = a;
        for k in available_tiers() {
            let mut t = orig;
            (k.bit_transpose64)(&mut t);
            for (r, row) in t.iter().enumerate() {
                for (c, col) in orig.iter().enumerate() {
                    assert_eq!(
                        (row >> c) & 1,
                        (col >> r) & 1,
                        "tier {:?} bit ({r},{c})",
                        k.tier
                    );
                }
            }
            // Involution.
            (k.bit_transpose64)(&mut t);
            assert_eq!(t, orig, "tier {:?}", k.tier);
        }
    }

    #[test]
    fn zfp_transform_tiers_match_scalar() {
        for d in 1..=3usize {
            let n = 4usize.pow(d as u32);
            let block: Vec<i64> = (0..n)
                .map(|i| ((i as i64 * 977) % 4001 - 2000) << 20)
                .collect();
            let mut reference = block.clone();
            zfp_fwd_transform_scalar(&mut reference, d);
            for k in available_tiers() {
                let mut b = block.clone();
                (k.zfp_fwd_transform)(&mut b, d);
                assert_eq!(b, reference, "fwd tier {:?} d={d}", k.tier);
                (k.zfp_inv_transform)(&mut b, d);
                let mut roundtrip = reference.clone();
                zfp_inv_transform_scalar(&mut roundtrip, d);
                assert_eq!(b, roundtrip, "inv tier {:?} d={d}", k.tier);
            }
        }
    }

    #[test]
    fn histogram_fill_tiers_match() {
        let keys: Vec<u32> = (0..10_000u32)
            .map(|i| i.wrapping_mul(2654435761) % 300)
            .collect();
        let mut reference = vec![0u64; 257];
        histogram_fill_scalar(&keys, 256, &mut reference);
        for k in available_tiers() {
            let mut row = vec![0u64; 257];
            (k.histogram_fill)(&keys, 256, &mut row);
            assert_eq!(row, reference, "tier {:?}", k.tier);
        }
    }

    #[test]
    fn quantize_and_dequantize_tiers_match() {
        let n = 1003;
        let coeffs: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin() * 5.0).collect();
        let levels: Vec<u8> = (0..n).map(|i| (i % 3) as u8).collect();
        let bins = [0.01, 0.005, 0.0025];
        let mut reference = vec![0.0f64; n];
        quantize_quotients_scalar(&coeffs, &levels, &bins, &mut reference);
        for k in available_tiers() {
            let mut out = vec![0.0f64; n];
            (k.quantize_quotients)(&coeffs, &levels, &bins, &mut out);
            assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "tier {:?}",
                k.tier
            );
        }
        let syms: Vec<u32> = reference
            .iter()
            .map(|&q| (q as i64 + 2048).clamp(0, 4095) as u32)
            .collect();
        let mut dref = vec![0.0f64; n];
        dequantize_vals_scalar(&syms, &levels, &bins, 2048, 4095, &mut dref);
        for k in available_tiers() {
            let mut out = vec![0.0f64; n];
            (k.dequantize_vals)(&syms, &levels, &bins, 2048, 4095, &mut out);
            assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                dref.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "tier {:?}",
                k.tier
            );
        }
    }

    #[test]
    fn prefix_and_diff_are_inverse_on_all_tiers() {
        let data: Vec<i64> = (0..517).map(|i| (i * i) as i64 - 1000).collect();
        for k in available_tiers() {
            let mut p = data.clone();
            (k.line_backward_diff)(&mut p);
            (k.line_prefix_sum)(&mut p);
            assert_eq!(p, data, "tier {:?}", k.tier);
        }
    }

    #[test]
    fn zfp_amax_tiers_match() {
        // Odd length exercises the scalar tail; values span signs and zero.
        let f64s: Vec<f64> = (0..1003)
            .map(|i| ((i as f64) * 0.7).sin() * 1e6 * if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let f32s: Vec<f32> = f64s.iter().map(|&v| v as f32).collect();
        let ref64 = zfp_amax_f64_scalar(&f64s);
        let ref32 = zfp_amax_f32_scalar(&f32s);
        for k in available_tiers() {
            assert_eq!(
                (k.zfp_amax_f64)(&f64s).to_bits(),
                ref64.to_bits(),
                "tier {:?}",
                k.tier
            );
            assert_eq!(
                (k.zfp_amax_f32)(&f32s).to_bits(),
                ref32.to_bits(),
                "tier {:?}",
                k.tier
            );
        }
        // Non-finite classification: any NaN → NaN on every tier; inf propagates.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut v = f64s.clone();
            v[501] = bad;
            for k in available_tiers() {
                let got = (k.zfp_amax_f64)(&v);
                assert!(!got.is_finite(), "tier {:?} bad={bad}", k.tier);
                assert_eq!(got.is_nan(), bad.is_nan(), "tier {:?} bad={bad}", k.tier);
            }
            let mut v = f32s.clone();
            v[501] = bad as f32;
            for k in available_tiers() {
                let got = (k.zfp_amax_f32)(&v);
                assert!(!got.is_finite(), "tier {:?} bad={bad}", k.tier);
                assert_eq!(got.is_nan(), bad.is_nan(), "tier {:?} bad={bad}", k.tier);
            }
        }
        for k in available_tiers() {
            assert_eq!((k.zfp_amax_f64)(&[]), 0.0, "tier {:?}", k.tier);
            assert_eq!((k.zfp_amax_f32)(&[]), 0.0, "tier {:?}", k.tier);
        }
    }

    #[test]
    fn zfp_fixedpoint_tiers_match() {
        // Magnitudes up to ~2^57 — the zfp fixed-point range (FRACBITS = 57) —
        // including exact halves to pin the ties-to-even behavior.
        let mut f64s: Vec<f64> = (0..1003)
            .map(|i| ((i as f64) * 0.37).sin() * (i as f64 % 97.0 + 0.25))
            .collect();
        f64s.extend([0.0, -0.0, 0.5, -0.5, 1.5, 2.5, -2.5]);
        let f32s: Vec<f32> = f64s.iter().map(|&v| v as f32).collect();
        for scale in [1.0, 1024.0, (1u64 << 50) as f64, (1u64 << 57) as f64 / 97.0] {
            let mut ref64 = vec![0i64; f64s.len()];
            zfp_fixedpoint_f64_scalar(&f64s, scale, &mut ref64);
            let mut ref32 = vec![0i64; f32s.len()];
            zfp_fixedpoint_f32_scalar(&f32s, scale, &mut ref32);
            for k in available_tiers() {
                let mut out = vec![0i64; f64s.len()];
                (k.zfp_fixedpoint_f64)(&f64s, scale, &mut out);
                assert_eq!(out, ref64, "tier {:?} scale {scale}", k.tier);
                let mut out = vec![0i64; f32s.len()];
                (k.zfp_fixedpoint_f32)(&f32s, scale, &mut out);
                assert_eq!(out, ref32, "tier {:?} scale {scale}", k.tier);
            }
        }
    }

    #[test]
    fn min_max_tiers_match() {
        let f64s: Vec<f64> = (0..1003)
            .map(|i| ((i as f64) * 0.61).sin() * 37.0 - 3.0)
            .collect();
        let f32s: Vec<f32> = f64s.iter().map(|&v| v as f32).collect();
        let ref64 = min_max_f64_scalar(&f64s);
        let ref32 = min_max_f32_scalar(&f32s);
        for k in available_tiers() {
            let got = (k.min_max_f64)(&f64s);
            assert_eq!(
                (got.0.to_bits(), got.1.to_bits()),
                (ref64.0.to_bits(), ref64.1.to_bits()),
                "tier {:?}",
                k.tier
            );
            let got = (k.min_max_f32)(&f32s);
            assert_eq!(
                (got.0.to_bits(), got.1.to_bits()),
                (ref32.0.to_bits(), ref32.1.to_bits()),
                "tier {:?}",
                k.tier
            );
        }
        // NaN anywhere poisons the pair; infinities propagate.
        let mut v = f64s.clone();
        v[77] = f64::NAN;
        for k in available_tiers() {
            let (mn, mx) = (k.min_max_f64)(&v);
            assert!(mn.is_nan() && mx.is_nan(), "tier {:?}", k.tier);
        }
        let mut v = f64s.clone();
        v[501] = f64::NEG_INFINITY;
        v[502] = f64::INFINITY;
        for k in available_tiers() {
            assert_eq!(
                (k.min_max_f64)(&v),
                (f64::NEG_INFINITY, f64::INFINITY),
                "tier {:?}",
                k.tier
            );
        }
        for k in available_tiers() {
            assert_eq!(
                (k.min_max_f32)(&[]),
                (f32::INFINITY, f32::NEG_INFINITY),
                "tier {:?}",
                k.tier
            );
        }
    }

    #[test]
    fn sz_quantize_tiers_match() {
        let mut f64s: Vec<f64> = (0..1003)
            .map(|i| ((i as f64) * 0.53).sin() * 1e8 - 40.0)
            .collect();
        f64s.extend([0.0, -0.0, 0.5, -0.5, 1.5, -2.5]);
        let f32s: Vec<f32> = f64s.iter().map(|&v| v as f32).collect();
        for divisor in [1.0, 0.001, 7.25e-10, 1e6] {
            let mut ref64 = vec![0i64; f64s.len()];
            sz_quantize_f64_scalar(&f64s, divisor, &mut ref64);
            let mut ref32 = vec![0i64; f32s.len()];
            sz_quantize_f32_scalar(&f32s, divisor, &mut ref32);
            for k in available_tiers() {
                let mut out = vec![0i64; f64s.len()];
                (k.sz_quantize_f64)(&f64s, divisor, &mut out);
                assert_eq!(out, ref64, "tier {:?} divisor {divisor}", k.tier);
                let mut out = vec![0i64; f32s.len()];
                (k.sz_quantize_f32)(&f32s, divisor, &mut out);
                assert_eq!(out, ref32, "tier {:?} divisor {divisor}", k.tier);
            }
        }
    }

    #[test]
    fn sz_symbolize_tiers_match() {
        // Mix of in-range values, outliers on both sides, and sums past
        // 2^32 (which must escape — truncating them to u32 would alias a
        // small symbol and break the error bound).
        let radius = 2048i64;
        let escape = 4095u32;
        let mut q: Vec<i64> = (0..1003).map(|i| ((i * 37) % 5000) as i64 - 2500).collect();
        q[13] = i64::MAX - 100;
        q[14] = i64::MIN + 100;
        q[15] = (1i64 << 32) + 5 - radius; // s = 2^32 + 5: truncation trap
        q[16] = escape as i64 - radius; // s == escape: boundary, must escape
        q[17] = -radius; // s == 0: in range
        let mut ref_sym = vec![0u32; q.len()];
        let mut ref_out = Vec::new();
        sz_symbolize_scalar(&q, radius, escape, &mut ref_sym, &mut ref_out);
        assert!(ref_out.contains(&15) && ref_out.contains(&16) && !ref_out.contains(&17));
        for k in available_tiers() {
            let mut sym = vec![0u32; q.len()];
            let mut out = Vec::new();
            (k.sz_symbolize)(&q, radius, escape, &mut sym, &mut out);
            assert_eq!(sym, ref_sym, "tier {:?}", k.tier);
            assert_eq!(out, ref_out, "tier {:?}", k.tier);
        }
    }

    #[test]
    fn ties_round_to_even() {
        // Exact ±k.5 ties, signed zeros, infinities and NaN through the
        // quantizer at unit bin width, slid across every lane offset.
        let cases = [
            0.5,
            1.5,
            2.5,
            3.5,
            -0.5,
            -1.5,
            -2.5,
            -3.5,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let want = [
            0.0,
            2.0,
            2.0,
            4.0,
            -0.0,
            -2.0,
            -2.0,
            -4.0,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for off in 0..=8 {
            let src: Vec<f64> = std::iter::repeat_n(7.0, off).chain(cases).collect();
            let levels = vec![0u8; src.len()];
            let run = |k: &KernelDispatch| {
                let mut out = vec![0.0f64; src.len()];
                (k.quantize_quotients)(&src, &levels, &[1.0], &mut out);
                out
            };
            let reference = run(scalar_kernels());
            for (got, want) in reference[off..].iter().zip(want) {
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "offset {off}: got {got}, want {want}"
                );
            }
            for k in available_tiers() {
                assert_eq!(
                    bits(&run(k)),
                    bits(&reference),
                    "tier {:?} offset {off}",
                    k.tier
                );
            }
        }
    }
}
