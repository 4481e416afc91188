//! MGARD-X end-to-end codec (paper Algorithm 1 / Fig. 5):
//! multilevel decomposition → per-level linear quantization → Huffman.

use crate::decompose::{decompose, recompose};
use crate::hierarchy::Hierarchy;
use crate::quantize::{dequantize, level_bin, quantize, EscapeDict, Quantized};
use hpdr_core::{
    ArrayMeta, ByteReader, ByteWriter, ContextCache, ContextKey, DType, DeviceAdapter, Float,
    FrameHeader, HpdrError, KernelClass, Result, Shape,
};
use parking_lot::Mutex;
use std::sync::Arc;

/// The frame every MGARD-X stream starts with.
pub const FRAME: FrameHeader = FrameHeader::new(0x4D47_5831 /* "MGX1" */, 1, "MGARD-X");

/// Error-bound specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Bound relative to the data range: `abs = rel · (max − min)`.
    Relative(f64),
    /// Absolute bound.
    Absolute(f64),
}

/// MGARD-X configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MgardConfig {
    pub error_bound: ErrorBound,
    /// Huffman dictionary size for quantized coefficients.
    pub dict_size: u32,
}

impl Default for MgardConfig {
    fn default() -> Self {
        MgardConfig {
            error_bound: ErrorBound::Relative(1e-3),
            dict_size: 8192,
        }
    }
}

impl MgardConfig {
    pub fn relative(eb: f64) -> MgardConfig {
        MgardConfig {
            error_bound: ErrorBound::Relative(eb),
            ..Default::default()
        }
    }

    pub fn absolute(eb: f64) -> MgardConfig {
        MgardConfig {
            error_bound: ErrorBound::Absolute(eb),
            ..Default::default()
        }
    }
}

/// Reusable per-shape reduction context (the CMM payload): hierarchy and
/// node-level map are shape-derived and allocation-heavy, so caching them
/// removes all per-call setup allocations (paper §III-B).
pub struct MgardContext {
    pub hierarchy: Hierarchy,
    pub node_levels: Vec<u8>,
    /// Scratch for the f64 working copy, reused across calls.
    pub work: Vec<f64>,
}

impl MgardContext {
    pub fn new(shape: &Shape) -> MgardContext {
        let hierarchy = Hierarchy::new(shape);
        let node_levels = hierarchy.node_levels();
        MgardContext {
            hierarchy,
            node_levels,
            work: Vec::new(),
        }
    }
}

/// Global context cache shared by all MGARD-X invocations.
pub fn context_cache() -> &'static ContextCache<MgardContext> {
    static CACHE: std::sync::OnceLock<ContextCache<MgardContext>> = std::sync::OnceLock::new();
    CACHE.get_or_init(|| ContextCache::new(16))
}

/// The cached context of arrays of `shape`. Its hierarchy and node-level
/// map depend on the folded 3-D shape alone, so a compression, a
/// decompression and a progressive refactoring or retrieval of one shape
/// share one context, whatever their dtype or configuration.
pub fn context_for(shape: &Shape) -> Arc<Mutex<MgardContext>> {
    let eff = shape.folded_to_3d();
    let key = ContextKey {
        algorithm: "mgard-x",
        // The working copy is f64 whatever the input's dtype.
        dtype: DType::F64,
        shape: eff.dims().to_vec(),
        config_hash: 0,
        device: 0,
    };
    context_cache().get_or_create(&key, || MgardContext::new(&eff))
}

/// The absolute bound of `bound` for data spanning `[mn, mx]`.
fn resolve_abs_eb(mn: f64, mx: f64, bound: ErrorBound) -> Result<f64> {
    let abs = match bound {
        ErrorBound::Absolute(e) => e,
        ErrorBound::Relative(rel) => {
            if rel <= 0.0 || !rel.is_finite() {
                return Err(HpdrError::invalid("relative bound must be positive"));
            }
            let range = mx - mn;
            if range == 0.0 {
                // Constant data: any positive bound works.
                rel
            } else {
                rel * range
            }
        }
    };
    if abs <= 0.0 || !abs.is_finite() {
        return Err(HpdrError::invalid(
            "error bound must be positive and finite",
        ));
    }
    Ok(abs)
}

/// Compress with MGARD-X. Uses (and populates) the shared context cache.
pub fn compress<T: Float>(
    adapter: &dyn DeviceAdapter,
    data: &[T],
    shape: &Shape,
    cfg: &MgardConfig,
) -> Result<Vec<u8>> {
    if data.len() != shape.num_elements() {
        return Err(HpdrError::invalid(format!(
            "data length {} does not match shape {shape}",
            data.len()
        )));
    }
    let dict = EscapeDict::new(cfg.dict_size)?;
    // One pass gives the range and, as NaN and ±inf reach the min or the
    // max, the finiteness check.
    let (mn, mx) = hpdr_kernels::min_max(adapter, data);
    if !(mn.is_finite() && mx.is_finite()) {
        return Err(HpdrError::invalid("non-finite value in MGARD input"));
    }
    let abs_eb = resolve_abs_eb(mn.to_f64(), mx.to_f64(), cfg.error_bound)?;

    // CMM lookup: hierarchy + node-level map keyed by shape.
    let ctx = context_for(shape);
    let mut ctx = ctx.lock();
    let levels = ctx.hierarchy.total_levels();

    // Decompose on an f64 working copy (reused across calls).
    ctx.work.clear();
    ctx.work.extend(data.iter().map(|v| v.to_f64()));
    let MgardContext {
        hierarchy,
        node_levels,
        work,
    } = &mut *ctx;
    decompose(adapter, work, hierarchy);

    // Per-level quantization: one DEM launch over the node-level map,
    // whose entry gives each coefficient its level's bin.
    let bins: Vec<f64> = (0..levels).map(|l| level_bin(abs_eb, levels, l)).collect();
    let q = quantize(adapter, work, node_levels, &bins, cfg.dict_size);

    // Container, ending in the Huffman-encoded symbols.
    let mut w = ByteWriter::new();
    FRAME.write(&mut w);
    ArrayMeta::new(T::DTYPE, shape.clone()).write(&mut w);
    w.put_f64(abs_eb);
    w.put_u8(levels as u8);
    q.write_escaped(adapter, dict, &mut w)?;
    adapter.charge(KernelClass::Mgard, (data.len() * T::BYTES) as u64);
    Ok(w.into_vec())
}

/// Decompress an MGARD-X stream.
pub fn decompress<T: Float>(adapter: &dyn DeviceAdapter, bytes: &[u8]) -> Result<(Vec<T>, Shape)> {
    let mut r = ByteReader::new(bytes);
    FRAME.read(&mut r)?;
    let meta = ArrayMeta::read(&mut r)?;
    if meta.dtype != T::DTYPE {
        return Err(HpdrError::invalid("dtype mismatch in MGARD-X stream"));
    }
    let shape = meta.shape;
    let abs_eb = r.get_f64()?;
    if abs_eb <= 0.0 || !abs_eb.is_finite() {
        return Err(HpdrError::corrupt("bad error bound in stream"));
    }
    let levels = r.get_u8()? as usize;
    let (q, dict) = Quantized::read_escaped(adapter, &mut r, shape.num_elements())?;

    let ctx = context_for(&shape);
    let mut ctx = ctx.lock();
    if ctx.hierarchy.total_levels() != levels {
        return Err(HpdrError::corrupt("level count mismatch with shape"));
    }
    let bins: Vec<f64> = (0..levels).map(|l| level_bin(abs_eb, levels, l)).collect();
    let MgardContext {
        hierarchy,
        node_levels,
        work,
    } = &mut *ctx;
    let mut coeffs = dequantize(adapter, &q, node_levels, &bins, dict.size());
    recompose(adapter, &mut coeffs, hierarchy);
    let _ = work;

    adapter.charge(KernelClass::Mgard, (coeffs.len() * T::BYTES) as u64);
    let out: Vec<T> = coeffs.iter().map(|&v| T::from_f64(v)).collect();
    Ok((out, shape))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_core::{CpuParallelAdapter, SerialAdapter};

    fn smooth_field(dims: &[usize]) -> (Vec<f64>, Shape) {
        let shape = Shape::new(dims);
        let n = shape.num_elements();
        let data: Vec<f64> = (0..n)
            .map(|i| {
                let idx = shape.unravel(i);
                let mut v = 10.0;
                for (d, &x) in idx.iter().enumerate() {
                    v += ((x as f64 / dims[d] as f64) * (3.0 + d as f64)).sin();
                }
                v
            })
            .collect();
        (data, shape)
    }

    fn max_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn error_bound_is_honoured_3d() {
        let adapter = CpuParallelAdapter::new(4);
        let (data, shape) = smooth_field(&[20, 20, 20]);
        let range: f64 = {
            let mx = data.iter().cloned().fold(f64::MIN, f64::max);
            let mn = data.iter().cloned().fold(f64::MAX, f64::min);
            mx - mn
        };
        for rel in [1e-1f64, 1e-2, 1e-4] {
            let c = compress(&adapter, &data, &shape, &MgardConfig::relative(rel)).unwrap();
            let (out, s) = decompress::<f64>(&adapter, &c).unwrap();
            assert_eq!(s, shape);
            let err = max_err(&data, &out);
            assert!(err <= rel * range, "rel={rel}: err {err} > {}", rel * range);
        }
    }

    #[test]
    fn compresses_smooth_data_well() {
        let adapter = CpuParallelAdapter::new(4);
        let (data, shape) = smooth_field(&[32, 32, 32]);
        let c = compress(&adapter, &data, &shape, &MgardConfig::relative(1e-2)).unwrap();
        let raw = data.len() * 8;
        let ratio = raw as f64 / c.len() as f64;
        assert!(ratio > 8.0, "ratio {ratio:.1} too low for smooth data");
    }

    #[test]
    fn tighter_bound_means_bigger_stream() {
        let adapter = CpuParallelAdapter::new(4);
        let (data, shape) = smooth_field(&[24, 24, 24]);
        let loose = compress(&adapter, &data, &shape, &MgardConfig::relative(1e-1))
            .unwrap()
            .len();
        let tight = compress(&adapter, &data, &shape, &MgardConfig::relative(1e-5))
            .unwrap()
            .len();
        assert!(tight > loose, "tight {tight} <= loose {loose}");
    }

    #[test]
    fn f32_roundtrip_and_bound() {
        let adapter = SerialAdapter::new();
        let shape = Shape::new(&[40, 30]);
        let data: Vec<f32> = (0..shape.num_elements())
            .map(|i| ((i as f32) * 0.01).sin() * 100.0)
            .collect();
        let c = compress(&adapter, &data, &shape, &MgardConfig::relative(1e-3)).unwrap();
        let (out, _) = decompress::<f32>(&adapter, &c).unwrap();
        let err = data
            .iter()
            .zip(&out)
            .map(|(x, y)| (x - y).abs() as f64)
            .fold(0.0, f64::max);
        assert!(err <= 1e-3 * 200.0 * 1.01, "err {err}");
    }

    #[test]
    fn absolute_bound_mode() {
        let adapter = SerialAdapter::new();
        let (data, shape) = smooth_field(&[25, 17]);
        let c = compress(&adapter, &data, &shape, &MgardConfig::absolute(0.05)).unwrap();
        let (out, _) = decompress::<f64>(&adapter, &c).unwrap();
        assert!(max_err(&data, &out) <= 0.05);
    }

    #[test]
    fn constant_and_tiny_inputs() {
        let adapter = SerialAdapter::new();
        let data = vec![7.25f64; 64];
        let shape = Shape::new(&[4, 4, 4]);
        let c = compress(&adapter, &data, &shape, &MgardConfig::relative(1e-3)).unwrap();
        let (out, _) = decompress::<f64>(&adapter, &c).unwrap();
        assert!(max_err(&data, &out) < 1e-3);

        let tiny = vec![1.0f64, 2.0];
        let c = compress(
            &adapter,
            &tiny,
            &Shape::new(&[2]),
            &MgardConfig::relative(1e-2),
        )
        .unwrap();
        let (out, _) = decompress::<f64>(&adapter, &c).unwrap();
        assert!(max_err(&tiny, &out) <= 1e-2);
    }

    #[test]
    fn four_d_input_is_folded() {
        let adapter = SerialAdapter::new();
        let shape = Shape::new(&[2, 3, 10, 8]);
        let data: Vec<f64> = (0..shape.num_elements())
            .map(|i| (i as f64 * 0.1).cos())
            .collect();
        let c = compress(&adapter, &data, &shape, &MgardConfig::relative(1e-3)).unwrap();
        let (out, s) = decompress::<f64>(&adapter, &c).unwrap();
        assert_eq!(s, shape);
        assert!(max_err(&data, &out) <= 2.0 * 1e-3 * 1.01);
    }

    #[test]
    fn adapter_independent_streams() {
        let (data, shape) = smooth_field(&[15, 15]);
        let cfg = MgardConfig::relative(1e-3);
        let a = compress(&SerialAdapter::new(), &data, &shape, &cfg).unwrap();
        let b = compress(&CpuParallelAdapter::new(8), &data, &shape, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_input() {
        let adapter = SerialAdapter::new();
        let shape = Shape::new(&[4, 4]);
        assert!(compress(&adapter, &[1.0f64; 3], &shape, &MgardConfig::default()).is_err());
        let mut nan = vec![0.0f64; 16];
        nan[5] = f64::NAN;
        assert!(compress(&adapter, &nan, &shape, &MgardConfig::default()).is_err());
        assert!(compress(
            &adapter,
            &[1.0f64; 16],
            &shape,
            &MgardConfig::relative(-1.0)
        )
        .is_err());
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let adapter = SerialAdapter::new();
        let (data, shape) = smooth_field(&[9, 9]);
        let good = compress(&adapter, &data, &shape, &MgardConfig::relative(1e-2)).unwrap();
        for cut in [0, 5, 12, 30, good.len() / 2, good.len() - 1] {
            assert!(
                decompress::<f64>(&adapter, &good[..cut]).is_err(),
                "cut {cut}"
            );
        }
        let mut bad = good.clone();
        bad[0] ^= 1;
        assert!(decompress::<f64>(&adapter, &bad).is_err());
        assert!(decompress::<f32>(&adapter, &good).is_err());
    }

    /// Overwrites the header fields of a 3-D f64 stream: the three dims
    /// (bytes 7..31) and the outlier count (bytes 44..52).
    fn patch_header(stream: &mut [u8], dims: [u64; 3], n_out: u64) {
        for (i, d) in dims.iter().enumerate() {
            stream[7 + 8 * i..15 + 8 * i].copy_from_slice(&d.to_le_bytes());
        }
        stream[44..52].copy_from_slice(&n_out.to_le_bytes());
    }

    #[test]
    fn crafted_counts_are_corrupt_not_aborts() {
        let adapter = SerialAdapter::new();
        let (data, shape) = smooth_field(&[16, 16, 16]);
        let good = compress(&adapter, &data, &shape, &MgardConfig::relative(1e-2)).unwrap();
        // A 2^35-entry outlier table behind plausible 4096³ dims would ask
        // for a 512 GiB allocation.
        let mut big = good.clone();
        patch_header(&mut big, [4096; 3], 1 << 35);
        assert!(matches!(
            decompress::<f64>(&adapter, &big),
            Err(HpdrError::CorruptStream(_))
        ));
        // Dims whose element count overflows usize.
        let mut overflow = good;
        patch_header(&mut overflow, [1 << 40; 3], 0);
        assert!(decompress::<f64>(&adapter, &overflow).is_err());
    }

    #[test]
    fn context_cache_hits_on_repeat() {
        let adapter = SerialAdapter::new();
        let (data, shape) = smooth_field(&[21, 13]);
        let cfg = MgardConfig::relative(1e-2);
        let before = context_cache().stats();
        compress(&adapter, &data, &shape, &cfg).unwrap();
        compress(&adapter, &data, &shape, &cfg).unwrap();
        compress(&adapter, &data, &shape, &cfg).unwrap();
        let after = context_cache().stats();
        assert!(after.hits >= before.hits + 2, "{before:?} -> {after:?}");
    }
}
