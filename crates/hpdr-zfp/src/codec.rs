//! ZFP-X compressor (paper Algorithm 3 / Fig. 7).
//!
//! Pipeline per 4^d block, all stages on the Locality abstraction:
//! exponent alignment → fixed-point conversion → near-orthogonal lifting
//! transform → sequency reordering → negabinary → embedded bit-plane
//! serialization.
//!
//! Fix-rate mode (the mode the paper evaluates) emits a constant number of
//! bits per block, rounded up to whole bytes so blocks occupy disjoint
//! byte ranges and encode/decode need no cross-block coordination
//! (Alg. 3: "all blocks output the same size bit streams"). Fix-accuracy
//! mode is provided as the extension the paper mentions ("the other two
//! modes can be implemented similarly").

use crate::embedded::{decode_ints, encode_ints};
use crate::negabinary::{int_to_negabinary_slice, negabinary_to_int_slice};
use crate::transform::{fwd_transform, inv_transform, sequency_order};
use hpdr_core::{
    ArrayMeta, ByteReader, ByteWriter, DeviceAdapter, Float, FrameHeader, HpdrError, KernelClass,
    Locality, Result, Shape, SharedSlice,
};
use hpdr_kernels::{BitReader, BitWriter, BlockGrid};

/// The frame every ZFP-X stream starts with.
pub const FRAME: FrameHeader = FrameHeader::new(0x5A46_5058 /* "ZFPX" */, 1, "ZFP-X");
/// Fixed-point fractional bits (shared by f32/f64 paths; headroom for the
/// ≤ 2^3 transform gain keeps |coefficients| < 2^61).
const FRACBITS: i32 = 57;
/// Per-block header: 1 nonzero flag bit + 16 biased-exponent bits.
const HEADER_BITS: u32 = 17;
const EMAX_BIAS: i32 = 16384;
/// Blocks processed per Locality group (fixed-rate encode, and decode in
/// every mode): amortizes the gather buffer and BitWriter/BitReader
/// scratch over a batch while leaving enough groups for the adapters'
/// dynamic chunked scheduling.
const RATE_BATCH: usize = 64;

/// Compression mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ZfpMode {
    /// `bits_per_value` bits per element (paper's evaluated mode).
    FixedRate(u32),
    /// Absolute error tolerance (extension).
    FixedAccuracy(f64),
    /// Keep the `precision` most-significant bit planes of every block
    /// (extension — the third mode the paper lists).
    FixedPrecision(u32),
}

/// ZFP-X configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZfpConfig {
    pub mode: ZfpMode,
}

impl ZfpConfig {
    pub fn fixed_rate(bits_per_value: u32) -> ZfpConfig {
        ZfpConfig {
            mode: ZfpMode::FixedRate(bits_per_value),
        }
    }

    pub fn fixed_accuracy(tolerance: f64) -> ZfpConfig {
        ZfpConfig {
            mode: ZfpMode::FixedAccuracy(tolerance),
        }
    }

    pub fn fixed_precision(planes: u32) -> ZfpConfig {
        ZfpConfig {
            mode: ZfpMode::FixedPrecision(planes),
        }
    }
}

struct BlockCtx {
    grid: BlockGrid,
    perm: Vec<usize>,
    d: usize,
    n: usize,
}

fn block_ctx(shape: &Shape) -> BlockCtx {
    // ZFP's block space is 1–3D: a 4D array is blocked as its 3D fold.
    let eff = shape.folded_to_3d();
    let d = eff.ndims();
    let block_dims = vec![4usize; d];
    let grid = BlockGrid::new(&eff, &block_dims);
    BlockCtx {
        perm: sequency_order(d),
        n: 4usize.pow(d as u32),
        grid,
        d,
    }
}

/// Per-group reusable block scratch: fixed-point coefficients, the
/// sequency-permuted copy, and the negabinary words. Every lane is
/// overwritten by each block, so reuse across a batch is exact.
struct BlockScratch {
    q: Vec<i64>,
    qp: Vec<i64>,
    nb: Vec<u64>,
}

impl BlockScratch {
    fn new(n: usize) -> BlockScratch {
        BlockScratch {
            q: vec![0; n],
            qp: vec![0; n],
            nb: vec![0; n],
        }
    }
}

/// Max |v| over a block via the width-specific SIMD kernel; NaN if any
/// lane is NaN, +inf if any lane is infinite.
fn block_amax<T: Float>(vals: &[T]) -> f64 {
    let k = hpdr_kernels::kernels();
    if let Some(v) = T::as_f32_slice(vals) {
        (k.zfp_amax_f32)(v)
    } else if let Some(v) = T::as_f64_slice(vals) {
        (k.zfp_amax_f64)(v)
    } else {
        let mut amax = 0.0f64;
        let mut nan = false;
        for &v in vals {
            let v = v.to_f64();
            nan |= v.is_nan();
            amax = amax.max(v.abs());
        }
        if nan {
            f64::NAN
        } else {
            amax
        }
    }
}

/// Fixed-point conversion `round_ties_even(v * scale)` via the
/// width-specific SIMD kernel. Caller guarantees |v·scale| < 2^62
/// (here |v·scale| < 2^FRACBITS by construction of `scale`).
fn block_fixedpoint<T: Float>(vals: &[T], scale: f64, out: &mut [i64]) {
    let k = hpdr_kernels::kernels();
    if let Some(v) = T::as_f32_slice(vals) {
        (k.zfp_fixedpoint_f32)(v, scale, out);
    } else if let Some(v) = T::as_f64_slice(vals) {
        (k.zfp_fixedpoint_f64)(v, scale, out);
    } else {
        for (qi, v) in out.iter_mut().zip(vals) {
            *qi = (v.to_f64() * scale).round_ties_even() as i64;
        }
    }
}

/// Encode one gathered block into `w`. Returns bits written.
fn encode_block<T: Float>(
    vals: &[T],
    ctx: &BlockCtx,
    maxbits: u32,
    kmin: u32,
    w: &mut BitWriter,
    s: &mut BlockScratch,
) -> Result<u32> {
    // Exponent alignment: emax over the block. The amax kernel doubles as
    // the finiteness check (NaN input → NaN amax, inf propagates).
    let amax = block_amax(vals);
    if !amax.is_finite() {
        return Err(HpdrError::invalid("non-finite value in ZFP input"));
    }
    if amax == 0.0 {
        w.write_bit(false);
        return Ok(1);
    }
    w.write_bit(true);
    let emax = amax.exponent();
    w.write_bits((emax + EMAX_BIAS) as u64, 16);
    // Fixed-point conversion.
    let scale = 2f64.powi(FRACBITS - emax);
    block_fixedpoint(vals, scale, &mut s.q);
    // Near-orthogonal transform.
    fwd_transform(&mut s.q, ctx.d);
    // Sequency reorder + negabinary (slice kernel over the gathered copy).
    for (slot, &i) in ctx.perm.iter().enumerate() {
        s.qp[slot] = s.q[i];
    }
    int_to_negabinary_slice(&s.qp, &mut s.nb);
    // Embedded bit-plane serialization.
    let used = encode_ints(w, maxbits, kmin, &s.nb);
    Ok(HEADER_BITS + used)
}

/// Which bit planes a block keeps, as its encoder chose them.
#[derive(Clone, Copy)]
enum Planes {
    /// Planes `kmin..64` (fixed rate: 0; fixed precision: `64 − p`).
    From(u32),
    /// Fixed accuracy: `kmin` follows from the block's own exponent.
    Tolerance(f64),
}

impl Planes {
    fn kmin(self, emax: i32, d: usize) -> u32 {
        match self {
            Planes::From(kmin) => kmin,
            Planes::Tolerance(tol) => kmin_for_tolerance(tol, emax, d),
        }
    }
}

/// Per-group decode scratch on the stack: the decoded coefficients, their
/// two's-complement values in sequency and in block order, and the block.
struct DecodeScratch<T> {
    nb: [u64; 64],
    qp: [i64; 64],
    q: [i64; 64],
    vals: [T; 64],
}

impl<T: Float> DecodeScratch<T> {
    fn new() -> DecodeScratch<T> {
        DecodeScratch {
            nb: [0; 64],
            qp: [0; 64],
            q: [0; 64],
            vals: [T::ZERO; 64],
        }
    }
}

/// Decode one block (inverse of [`encode_block`]) into `s.vals[..ctx.n]`.
fn decode_block<T: Float>(
    r: &mut BitReader<'_>,
    ctx: &BlockCtx,
    maxbits: u32,
    planes: Planes,
    s: &mut DecodeScratch<T>,
) -> Result<()> {
    let n = ctx.n;
    // Header: nonzero flag, then the biased exponent.
    let header = r.peek_padded();
    if header & 1 == 0 {
        r.seek(r.bit_pos() + 1)?;
        s.vals[..n].fill(T::ZERO);
        return Ok(());
    }
    r.seek(r.bit_pos() + u64::from(HEADER_BITS))?;
    let emax = ((header >> 1) & 0xFFFF) as i32 - EMAX_BIAS;
    if !(-4000..=4000).contains(&emax) {
        return Err(HpdrError::corrupt(format!(
            "implausible block exponent {emax}"
        )));
    }
    decode_ints(r, maxbits, planes.kmin(emax, ctx.d), n, &mut s.nb)?;
    negabinary_to_int_slice(&s.nb[..n], &mut s.qp[..n]);
    for (slot, &src) in ctx.perm.iter().enumerate() {
        s.q[src] = s.qp[slot];
    }
    inv_transform(&mut s.q[..n], ctx.d);
    let scale = 2f64.powi(emax - FRACBITS);
    for (o, &v) in s.vals[..n].iter_mut().zip(&s.q[..n]) {
        *o = T::from_f64(v as f64 * scale);
    }
    Ok(())
}

/// Derive the embedded-coder `kmin` for a tolerance (fix-accuracy mode):
/// planes whose fixed-point weight (including transform gain) is below the
/// tolerance are dropped.
fn kmin_for_tolerance(tol: f64, emax: i32, d: usize) -> u32 {
    if tol <= 0.0 {
        return 0;
    }
    // Plane k carries weight 2^(k - FRACBITS + emax); keep a guard of
    // d + 3 planes for transform gain and accumulation.
    let min_plane = (tol.log2().floor() as i32) - emax + FRACBITS - (d as i32 + 3);
    min_plane.clamp(0, 63) as u32
}

/// Compress `data` of `shape` with ZFP-X.
pub fn compress<T: Float>(
    adapter: &dyn DeviceAdapter,
    data: &[T],
    shape: &Shape,
    cfg: &ZfpConfig,
) -> Result<Vec<u8>> {
    if data.len() != shape.num_elements() {
        return Err(HpdrError::invalid(format!(
            "data length {} does not match shape {shape}",
            data.len()
        )));
    }
    let ctx = block_ctx(shape);
    let blocks = ctx.grid.num_blocks();
    let input_bytes = (data.len() * T::BYTES) as u64;

    let mut w = ByteWriter::with_capacity(64 + data.len());
    FRAME.write(&mut w);
    ArrayMeta::new(T::DTYPE, shape.clone()).write(&mut w);

    match cfg.mode {
        ZfpMode::FixedRate(rate) => {
            let block_bits = rate
                .checked_mul(ctx.n as u32)
                .ok_or_else(|| HpdrError::invalid("rate overflow"))?;
            if block_bits < HEADER_BITS + 1 || rate > 64 {
                return Err(HpdrError::invalid(format!(
                    "fixed rate {rate} bits/value out of range for {}D blocks",
                    ctx.d
                )));
            }
            let block_bytes = (block_bits as usize).div_ceil(8);
            let maxbits = block_bits - HEADER_BITS;
            w.put_u8(0);
            w.put_u32(rate);
            w.put_u64(blocks as u64);
            w.put_u32(block_bytes as u32);

            // Batch RATE_BATCH blocks per Locality group so the gather
            // buffer and BitWriter allocate once per group and are reused
            // across blocks (`gather` overwrites every lane and `clear`
            // keeps the writer's buffer) — the emitted bytes are identical
            // to the one-allocation-per-block formulation.
            let groups = blocks.div_ceil(RATE_BATCH);
            let mut payload = vec![0u8; blocks * block_bytes];
            let errors = std::sync::Mutex::new(Vec::new());
            {
                let payload_sh = SharedSlice::new(&mut payload);
                Locality::new(groups).run(adapter, &|g| {
                    let b0 = g * RATE_BATCH;
                    let b1 = (b0 + RATE_BATCH).min(blocks);
                    let mut vals = vec![T::ZERO; ctx.n];
                    let mut bw = BitWriter::with_bit_capacity(block_bits as usize);
                    let mut scratch = BlockScratch::new(ctx.n);
                    for b in b0..b1 {
                        ctx.grid.gather(data, b, &mut vals);
                        bw.clear();
                        match encode_block(&vals, &ctx, maxbits, 0, &mut bw, &mut scratch) {
                            Ok(_) => {
                                // Safety: block b owns its byte range.
                                let dst =
                                    unsafe { payload_sh.slice_mut(b * block_bytes, block_bytes) };
                                bw.copy_bytes_to(dst);
                            }
                            Err(e) => {
                                errors.lock().unwrap().push(e);
                                return;
                            }
                        }
                    }
                });
            }
            if let Some(e) = errors.into_inner().unwrap().into_iter().next() {
                return Err(e);
            }
            w.put_block(&payload);
        }
        ZfpMode::FixedAccuracy(tol) => {
            if tol <= 0.0 || !tol.is_finite() {
                return Err(HpdrError::invalid("tolerance must be positive and finite"));
            }
            w.put_u8(1);
            w.put_f64(tol);
            w.put_u64(blocks as u64);
            // Per-block encode into private buffers, then concatenate.
            let mut encoded: Vec<Vec<u8>> = vec![Vec::new(); blocks];
            let errors = std::sync::Mutex::new(Vec::new());
            {
                let enc_sh = SharedSlice::new(&mut encoded);
                Locality::new(blocks).run(adapter, &|b| {
                    let mut vals = vec![T::ZERO; ctx.n];
                    ctx.grid.gather(data, b, &mut vals);
                    let amax = block_amax(&vals);
                    let emax = if amax > 0.0 && amax.is_finite() {
                        amax.exponent()
                    } else {
                        0
                    };
                    let kmin = kmin_for_tolerance(tol, emax, ctx.d);
                    let mut bw = BitWriter::new();
                    let mut scratch = BlockScratch::new(ctx.n);
                    match encode_block(&vals, &ctx, 1 << 24, kmin, &mut bw, &mut scratch) {
                        Ok(_) => {
                            // Safety: block b owns slot b.
                            let slot = unsafe { enc_sh.slice_mut(b, 1) };
                            slot[0] = bw.into_bytes();
                        }
                        Err(e) => errors.lock().unwrap().push(e),
                    }
                });
            }
            if let Some(e) = errors.into_inner().unwrap().into_iter().next() {
                return Err(e);
            }
            for e in &encoded {
                w.put_u32(e.len() as u32);
            }
            let payload: Vec<u8> = encoded.concat();
            w.put_block(&payload);
        }
        ZfpMode::FixedPrecision(planes) => {
            if planes == 0 || planes > 64 {
                return Err(HpdrError::invalid("precision must be in 1..=64"));
            }
            w.put_u8(2);
            w.put_u32(planes);
            w.put_u64(blocks as u64);
            let kmin = 64 - planes;
            let mut encoded: Vec<Vec<u8>> = vec![Vec::new(); blocks];
            let errors = std::sync::Mutex::new(Vec::new());
            {
                let enc_sh = SharedSlice::new(&mut encoded);
                Locality::new(blocks).run(adapter, &|b| {
                    let mut vals = vec![T::ZERO; ctx.n];
                    ctx.grid.gather(data, b, &mut vals);
                    let mut bw = BitWriter::new();
                    let mut scratch = BlockScratch::new(ctx.n);
                    match encode_block(&vals, &ctx, 1 << 24, kmin, &mut bw, &mut scratch) {
                        Ok(_) => {
                            // Safety: block b owns slot b.
                            let slot = unsafe { enc_sh.slice_mut(b, 1) };
                            slot[0] = bw.into_bytes();
                        }
                        Err(e) => errors.lock().unwrap().push(e),
                    }
                });
            }
            if let Some(e) = errors.into_inner().unwrap().into_iter().next() {
                return Err(e);
            }
            for e in &encoded {
                w.put_u32(e.len() as u32);
            }
            let payload: Vec<u8> = encoded.concat();
            w.put_block(&payload);
        }
    }
    adapter.charge(KernelClass::Zfp, input_bytes);
    Ok(w.into_vec())
}

/// Decompress a ZFP-X stream. Returns the data and its shape.
pub fn decompress<T: Float>(adapter: &dyn DeviceAdapter, bytes: &[u8]) -> Result<(Vec<T>, Shape)> {
    let mut r = ByteReader::new(bytes);
    FRAME.read(&mut r)?;
    let meta = ArrayMeta::read(&mut r)?;
    if meta.dtype != T::DTYPE {
        return Err(HpdrError::invalid("dtype mismatch in ZFP-X stream"));
    }
    let shape = meta.shape;
    let ctx = block_ctx(&shape);
    let blocks = ctx.grid.num_blocks();
    // Every header field is checked against the payload before the output
    // is allocated, so a forged shape cannot trigger a huge allocation.
    let (layout, planes, payload) = match r.get_u8()? {
        0 => {
            let rate = r.get_u32()?;
            if r.get_u64()? != blocks as u64 {
                return Err(HpdrError::corrupt("block count mismatch"));
            }
            let block_bytes = r.get_u32()? as usize;
            let expected_bytes = (rate as usize * ctx.n).div_ceil(8);
            if block_bytes != expected_bytes
                || rate > 64
                || rate as usize * ctx.n < (HEADER_BITS + 1) as usize
            {
                return Err(HpdrError::corrupt("inconsistent fixed-rate parameters"));
            }
            let payload = r.get_block()?;
            if blocks.checked_mul(block_bytes) != Some(payload.len()) {
                return Err(HpdrError::corrupt("payload size mismatch"));
            }
            let maxbits = rate * ctx.n as u32 - HEADER_BITS;
            (
                Layout::Fixed {
                    block_bytes,
                    maxbits,
                },
                Planes::From(0),
                payload,
            )
        }
        mode @ (1 | 2) => {
            let planes = if mode == 1 {
                Planes::Tolerance(r.get_f64()?)
            } else {
                let p = r.get_u32()?;
                if p == 0 || p > 64 {
                    return Err(HpdrError::corrupt("bad precision"));
                }
                Planes::From(64 - p)
            };
            // The size table: one u32 per block, bounded by the bytes left.
            if r.get_count(4)? != blocks {
                return Err(HpdrError::corrupt("block count mismatch"));
            }
            let mut offsets = Vec::with_capacity(blocks + 1);
            let mut total = 0usize;
            offsets.push(0);
            for _ in 0..blocks {
                total = total
                    .checked_add(r.get_u32()? as usize)
                    .ok_or_else(|| HpdrError::corrupt("block sizes overflow"))?;
                offsets.push(total);
            }
            let payload = r.get_block()?;
            if total != payload.len() {
                return Err(HpdrError::corrupt("payload size mismatch"));
            }
            (Layout::Sized { offsets }, planes, payload)
        }
        _ => return Err(HpdrError::corrupt("unknown ZFP-X mode")),
    };
    r.expect_exhausted()?;

    let n_elems = shape.num_elements();
    let mut out = vec![T::ZERO; n_elems];
    let errors = std::sync::Mutex::new(Vec::new());
    {
        let out_sh = SharedSlice::new(&mut out);
        // Every mode runs the same batched loop: RATE_BATCH blocks per
        // Locality group, with one stack scratch reused across the group
        // (`decode_block` rewrites every lane it reads).
        Locality::new(blocks.div_ceil(RATE_BATCH)).run(adapter, &|g| {
            let b0 = g * RATE_BATCH;
            let b1 = (b0 + RATE_BATCH).min(blocks);
            let mut s = DecodeScratch::<T>::new();
            for b in b0..b1 {
                let (start, len, maxbits) = layout.block(b);
                // The reader spans the rest of the payload, limited to this
                // block's bits, so window peeks stay on the fast path.
                let decoded = BitReader::with_bit_limit(&payload[start..], len as u64 * 8)
                    .and_then(|mut br| {
                        decode_block(&mut br, &ctx, maxbits, planes, &mut s)?;
                        layout.check_end(len, br.bit_pos())
                    });
                if let Err(e) = decoded {
                    errors.lock().unwrap().push(e);
                    return;
                }
                ctx.grid.scatter(b, &s.vals[..ctx.n], |at, run| {
                    // SAFETY: blocks tile the domain disjointly and `scatter`
                    // yields only in-domain runs of block `b`, which only
                    // this group decodes; `at + run.len() <= n_elems`.
                    let dst = unsafe { out_sh.slice_mut(at, run.len()) };
                    dst.copy_from_slice(run);
                });
            }
        });
    }
    if let Some(e) = errors.into_inner().unwrap().into_iter().next() {
        return Err(e);
    }
    adapter.charge(KernelClass::Zfp, (n_elems * T::BYTES) as u64);
    Ok((out, shape))
}

/// Where each block's bits sit in the payload, and their budget.
enum Layout {
    /// Fixed rate: block `b` owns `block_bytes` bytes at `b · block_bytes`.
    Fixed { block_bytes: usize, maxbits: u32 },
    /// Fixed accuracy and precision: block `b` owns
    /// `offsets[b]..offsets[b + 1]`.
    Sized { offsets: Vec<usize> },
}

impl Layout {
    /// `(byte offset, byte length, plane budget)` of block `b`.
    fn block(&self, b: usize) -> (usize, usize, u32) {
        match self {
            Layout::Fixed {
                block_bytes,
                maxbits,
            } => (b * block_bytes, *block_bytes, *maxbits),
            Layout::Sized { offsets } => (offsets[b], offsets[b + 1] - offsets[b], 1 << 24),
        }
    }

    /// A sized block's coded bits end in its last byte: the encoder pads
    /// each block to whole bytes and no further, so a block that decodes
    /// short (a forged precision) or long is rejected. Fixed-rate blocks
    /// are padded to the rate and may end anywhere.
    fn check_end(&self, len: usize, bit_pos: u64) -> Result<()> {
        match self {
            Layout::Sized { .. } if bit_pos.div_ceil(8) != len as u64 => Err(HpdrError::corrupt(
                "block size disagrees with its coded bits",
            )),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_core::{CpuParallelAdapter, SerialAdapter};

    fn smooth_3d(n: usize) -> (Vec<f32>, Shape) {
        let shape = Shape::new(&[n, n, n]);
        let mut data = Vec::with_capacity(shape.num_elements());
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let (x, y, z) = (
                        i as f32 / n as f32,
                        j as f32 / n as f32,
                        k as f32 / n as f32,
                    );
                    data.push((6.0 * x).sin() * (4.0 * y).cos() + 0.5 * z);
                }
            }
        }
        (data, shape)
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn fixed_rate_size_is_exact() {
        let a = CpuParallelAdapter::new(4);
        let (data, shape) = smooth_3d(16);
        for rate in [4u32, 8, 16] {
            let c = compress(&a, &data, &shape, &ZfpConfig::fixed_rate(rate)).unwrap();
            let blocks = (16 / 4usize).pow(3);
            let block_bytes = (rate as usize * 64).div_ceil(8);
            // Header + exact payload.
            assert!(c.len() >= blocks * block_bytes);
            assert!(c.len() < blocks * block_bytes + 128);
            let (out, s) = decompress::<f32>(&a, &c).unwrap();
            assert_eq!(s, shape);
            assert_eq!(out.len(), data.len());
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn high_rate_roundtrip_is_tight() {
        let a = CpuParallelAdapter::new(4);
        let (data, shape) = smooth_3d(12);
        let c = compress(&a, &data, &shape, &ZfpConfig::fixed_rate(32)).unwrap();
        let (out, _) = decompress::<f32>(&a, &c).unwrap();
        let max_err = data
            .iter()
            .zip(&out)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        // 32 bits/value on f32 data: error at the fixed-point noise floor.
        assert!(max_err < 1e-5, "max_err={max_err}");
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn error_decreases_with_rate() {
        let a = CpuParallelAdapter::new(4);
        let (data, shape) = smooth_3d(16);
        let mut last = f64::INFINITY;
        for rate in [2u32, 4, 8, 16, 28] {
            let c = compress(&a, &data, &shape, &ZfpConfig::fixed_rate(rate)).unwrap();
            let (out, _) = decompress::<f32>(&a, &c).unwrap();
            let err = data
                .iter()
                .zip(&out)
                .map(|(x, y)| (x - y).abs() as f64)
                .fold(0.0, f64::max);
            assert!(err <= last * 1.5, "rate {rate}: {err} vs {last}");
            last = err.min(last);
        }
        assert!(last < 1e-3);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn fixed_accuracy_honours_tolerance() {
        let a = CpuParallelAdapter::new(4);
        let (data, shape) = smooth_3d(16);
        for tol in [1e-1f64, 1e-3, 1e-5] {
            let c = compress(&a, &data, &shape, &ZfpConfig::fixed_accuracy(tol)).unwrap();
            let (out, _) = decompress::<f32>(&a, &c).unwrap();
            let err = data
                .iter()
                .zip(&out)
                .map(|(x, y)| (x - y).abs() as f64)
                .fold(0.0, f64::max);
            assert!(err <= tol, "tol {tol}: err {err}");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn fixed_precision_mode_roundtrips_and_orders_error() {
        let a = CpuParallelAdapter::new(4);
        let (data, shape) = smooth_3d(12);
        let mut last = f64::INFINITY;
        for planes in [8u32, 16, 32, 60] {
            let c = compress(&a, &data, &shape, &ZfpConfig::fixed_precision(planes)).unwrap();
            let (out, s) = decompress::<f32>(&a, &c).unwrap();
            assert_eq!(s, shape);
            let err = data
                .iter()
                .zip(&out)
                .map(|(x, y)| (x - y).abs() as f64)
                .fold(0.0, f64::max);
            assert!(err <= last + 1e-12, "planes {planes}: {err} > {last}");
            last = err;
        }
        // 60 planes on f32 data: effectively exact.
        assert!(last < 1e-6, "err {last}");
        // Bad precision values rejected.
        assert!(compress(&a, &data, &shape, &ZfpConfig::fixed_precision(0)).is_err());
        assert!(compress(&a, &data, &shape, &ZfpConfig::fixed_precision(65)).is_err());
    }

    #[test]
    fn f64_roundtrip_1d_2d() {
        let a = SerialAdapter::new();
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.1).sin() * 1e6).collect();
        let shape = Shape::new(&[100]);
        let c = compress(&a, &data, &shape, &ZfpConfig::fixed_rate(40)).unwrap();
        let (out, _) = decompress::<f64>(&a, &c).unwrap();
        let err = data
            .iter()
            .zip(&out)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-4, "err {err}");

        let data2: Vec<f64> = (0..30 * 20).map(|i| (i % 30) as f64).collect();
        let shape2 = Shape::new(&[30, 20]);
        let c2 = compress(&a, &data2, &shape2, &ZfpConfig::fixed_rate(24)).unwrap();
        let (out2, s2) = decompress::<f64>(&a, &c2).unwrap();
        assert_eq!(s2, shape2);
        assert_eq!(out2.len(), data2.len());
    }

    #[test]
    fn four_d_arrays_are_folded() {
        let a = SerialAdapter::new();
        let shape = Shape::new(&[3, 5, 8, 6]);
        let data: Vec<f32> = (0..shape.num_elements())
            .map(|i| (i as f32).sqrt())
            .collect();
        let c = compress(&a, &data, &shape, &ZfpConfig::fixed_rate(24)).unwrap();
        let (out, s) = decompress::<f32>(&a, &c).unwrap();
        assert_eq!(s, shape);
        assert_eq!(out.len(), data.len());
    }

    #[test]
    fn zero_data_compresses_and_restores() {
        let a = SerialAdapter::new();
        let data = vec![0.0f32; 64];
        let shape = Shape::new(&[4, 4, 4]);
        let c = compress(&a, &data, &shape, &ZfpConfig::fixed_rate(8)).unwrap();
        let (out, _) = decompress::<f32>(&a, &c).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn adapter_independence() {
        let (data, shape) = smooth_3d(8);
        let cfg = ZfpConfig::fixed_rate(12);
        let s = compress(&SerialAdapter::new(), &data, &shape, &cfg).unwrap();
        let p = compress(&CpuParallelAdapter::new(8), &data, &shape, &cfg).unwrap();
        assert_eq!(s, p, "compressed stream must not depend on the adapter");
    }

    #[test]
    fn rejects_bad_inputs() {
        let a = SerialAdapter::new();
        let shape = Shape::new(&[4, 4]);
        // Length mismatch.
        assert!(compress(&a, &[0.0f32; 5], &shape, &ZfpConfig::fixed_rate(8)).is_err());
        // NaN.
        let mut data = vec![0.0f32; 16];
        data[3] = f32::NAN;
        assert!(compress(&a, &data, &shape, &ZfpConfig::fixed_rate(8)).is_err());
        // Rate too small to hold the header (1 bit/value on 1D block = 4 bits).
        let d1 = vec![1.0f32; 8];
        assert!(compress(&a, &d1, &Shape::new(&[8]), &ZfpConfig::fixed_rate(1)).is_err());
        // Bad tolerance.
        assert!(compress(&a, &[1.0f32; 16], &shape, &ZfpConfig::fixed_accuracy(0.0)).is_err());
    }

    #[test]
    fn two_thread_decode_matches_serial_in_every_mode() {
        // 72 blocks: two Locality groups of the batched decode loop, with
        // partial blocks along the innermost dim.
        let shape = Shape::new(&[36, 30]);
        let data: Vec<f32> = (0..shape.num_elements())
            .map(|i| (i as f32 * 0.05).sin() * 10.0)
            .collect();
        let (serial, two) = (SerialAdapter::new(), CpuParallelAdapter::new(2));
        for cfg in [
            ZfpConfig::fixed_rate(12),
            ZfpConfig::fixed_accuracy(1e-2),
            ZfpConfig::fixed_precision(20),
        ] {
            let c = compress(&serial, &data, &shape, &cfg).unwrap();
            let (a, _) = decompress::<f32>(&serial, &c).unwrap();
            let (b, _) = decompress::<f32>(&two, &c).unwrap();
            assert_eq!(a, b, "{cfg:?}");
        }
    }

    #[test]
    fn forged_dims_are_corrupt_not_an_abort() {
        // A valid 4×4×4 stream whose dims claim 2^40 × 2^20 × 1 (2^60
        // elements), in each mode: with the stream's own block count, and
        // with the count forged to match the dims (2^56 blocks, at byte 36
        // or, after the f64 tolerance, 40).
        let a = SerialAdapter::new();
        let (data, shape) = smooth_3d(4);
        let cases = [
            (ZfpConfig::fixed_rate(16), 36),
            (ZfpConfig::fixed_accuracy(1e-3), 40),
            (ZfpConfig::fixed_precision(16), 36),
        ];
        for (cfg, blocks_at) in cases {
            let mut c = compress(&a, &data, &shape, &cfg).unwrap();
            for (at, d) in [(7, 1u64 << 40), (15, 1 << 20), (23, 1)] {
                c[at..at + 8].copy_from_slice(&d.to_le_bytes());
            }
            let got = decompress::<f32>(&a, &c);
            assert!(matches!(got, Err(HpdrError::CorruptStream(_))), "{cfg:?}");
            c[blocks_at..blocks_at + 8].copy_from_slice(&(1u64 << 56).to_le_bytes());
            let got = decompress::<f32>(&a, &c);
            assert!(matches!(got, Err(HpdrError::CorruptStream(_))), "{cfg:?}");
        }
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let a = SerialAdapter::new();
        let (data, shape) = smooth_3d(8);
        let good = compress(&a, &data, &shape, &ZfpConfig::fixed_rate(16)).unwrap();
        for cut in [0, 3, 9, 17, good.len() / 2, good.len() - 1] {
            assert!(decompress::<f32>(&a, &good[..cut]).is_err(), "cut {cut}");
        }
        let mut bad = good.clone();
        bad[1] ^= 0x40;
        assert!(decompress::<f32>(&a, &bad).is_err());
        // dtype mismatch
        assert!(decompress::<f64>(&a, &good).is_err());
    }
}
