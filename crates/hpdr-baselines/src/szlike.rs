//! SZ-style error-bounded compressor (the cuSZ comparator, paper §VI-A):
//! dual-quant Lorenzo prediction + Huffman, with outlier escapes.
//!
//! Guarantees `|v − v'| ≤ eb` by construction: values are quantized to
//! `q = round(v / 2eb)` *before* prediction, and the integer Lorenzo
//! transform is exact.

use crate::lorenzo::{lorenzo_forward, lorenzo_inverse};
use hpdr_core::{
    ArrayMeta, ByteReader, ByteWriter, DeviceAdapter, Float, HpdrError, KernelClass, Result, Shape,
    TypedCodec,
};
use hpdr_mgard::quantize::{EscapeDict, Quantized};

/// The bare magic every cuSZ-like stream starts with (no version byte).
pub const MAGIC: u32 = 0x535A_4C4B; // "SZLK"

/// SZ-like configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SzConfig {
    /// Error bound relative to the data range.
    pub rel_bound: f64,
    pub dict_size: u32,
}

impl SzConfig {
    pub fn relative(rel_bound: f64) -> SzConfig {
        SzConfig {
            rel_bound,
            dict_size: 4096,
        }
    }
}

fn compress_typed<T: Float>(
    adapter: &dyn DeviceAdapter,
    data: &[T],
    shape: &Shape,
    cfg: &SzConfig,
) -> Result<Vec<u8>> {
    if cfg.rel_bound <= 0.0 || !cfg.rel_bound.is_finite() {
        return Err(HpdrError::invalid("relative bound must be positive"));
    }
    let dict = EscapeDict::new(cfg.dict_size)?;
    // min_max doubles as the finiteness check: NaN poisons the pair and
    // infinities propagate into it.
    let (mn, mx) = hpdr_kernels::min_max(adapter, data);
    if !(data.is_empty() || (mn.is_finite() && mx.is_finite())) {
        return Err(HpdrError::invalid("non-finite value in SZ input"));
    }
    let range = (mx.to_f64() - mn.to_f64()).max(f64::MIN_POSITIVE);
    let abs_eb = cfg.rel_bound * range;
    let twoe = 2.0 * abs_eb;
    // Both guards keep every quantized magnitude below 2^62: the second
    // catches data far from the origin (|v| ≫ range), where the i64
    // quantizer would otherwise saturate and silently break the bound.
    let amax = mn.to_f64().abs().max(mx.to_f64().abs());
    if range / abs_eb > 1e17 || amax / twoe >= 4.0e18 {
        return Err(HpdrError::unsupported(
            "error bound too tight for i64 quantization",
        ));
    }

    // Dual-quant: pre-quantize, then exact integer Lorenzo. The fused
    // widen + divide + round-ties-even + integer-convert kernel runs
    // through the SIMD dispatch.
    let n = data.len();
    let k = hpdr_kernels::kernels();
    let mut q = vec![0i64; n];
    if let Some(v) = T::as_f32_slice(data) {
        (k.sz_quantize_f32)(v, twoe, &mut q);
    } else if let Some(v) = T::as_f64_slice(data) {
        (k.sz_quantize_f64)(v, twoe, &mut q);
    } else {
        for (qi, v) in q.iter_mut().zip(data) {
            *qi = (v.to_f64() / twoe).round_ties_even() as i64;
        }
    }
    lorenzo_forward(&mut q, shape);

    // Symbolize with escape-coded outliers (SIMD kernel; the outlier
    // positions come back as indices into `q`, still in hand).
    let mut symbols = vec![0u32; q.len()];
    let mut outlier_pos: Vec<u64> = Vec::new();
    (hpdr_kernels::kernels().sz_symbolize)(
        &q,
        dict.radius(),
        dict.escape(),
        &mut symbols,
        &mut outlier_pos,
    );
    let outliers = outlier_pos.iter().map(|&i| (i, q[i as usize])).collect();

    let mut w = ByteWriter::new();
    w.put_u32(MAGIC);
    ArrayMeta::new(T::DTYPE, shape.clone()).write(&mut w);
    w.put_f64(abs_eb);
    Quantized { symbols, outliers }.write_escaped(adapter, dict, &mut w)?;
    adapter.charge(KernelClass::Lorenzo, (data.len() * T::BYTES) as u64);
    Ok(w.into_vec())
}

fn decompress_typed<T: Float>(
    adapter: &dyn DeviceAdapter,
    stream: &[u8],
) -> Result<(Vec<T>, Shape)> {
    let mut r = ByteReader::new(stream);
    if r.get_u32()? != MAGIC {
        return Err(HpdrError::corrupt("bad SZ-like magic"));
    }
    let meta = ArrayMeta::read(&mut r)?;
    if meta.dtype != T::DTYPE {
        return Err(HpdrError::invalid("dtype mismatch"));
    }
    let shape = meta.shape;
    let abs_eb = r.get_f64()?;
    if abs_eb <= 0.0 || !abs_eb.is_finite() {
        return Err(HpdrError::corrupt("bad error bound"));
    }
    let (quantized, dict) = Quantized::read_escaped(adapter, &mut r, shape.num_elements())?;
    let (radius, escape) = (dict.radius(), dict.escape());
    let mut q: Vec<i64> = quantized
        .symbols
        .iter()
        .map(|&s| if s == escape { 0 } else { s as i64 - radius })
        .collect();
    for &(idx, d) in &quantized.outliers {
        q[idx as usize] = d;
    }
    lorenzo_inverse(&mut q, &shape);
    let twoe = 2.0 * abs_eb;
    adapter.charge(KernelClass::Lorenzo, (q.len() * T::BYTES) as u64);
    Ok((
        q.iter().map(|&v| T::from_f64(v as f64 * twoe)).collect(),
        shape,
    ))
}

/// SZ-like (cuSZ analogue) as a byte-level reduction pipeline.
#[derive(Debug, Clone, Copy)]
pub struct SzReducer(pub SzConfig);

impl TypedCodec for SzReducer {
    const NAME: &'static str = "cusz-like";
    const KERNEL_CLASS: KernelClass = KernelClass::Lorenzo;
    const FRAME_LEN: usize = 4;

    fn compress_typed<T: Float>(
        &self,
        adapter: &dyn DeviceAdapter,
        data: &[T],
        shape: &Shape,
    ) -> Result<Vec<u8>> {
        compress_typed(adapter, data, shape, &self.0)
    }

    fn decompress_typed<T: Float>(
        &self,
        adapter: &dyn DeviceAdapter,
        stream: &[u8],
    ) -> Result<(Vec<T>, Shape)> {
        decompress_typed(adapter, stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_core::{CpuParallelAdapter, DType, Reducer, SerialAdapter};

    fn smooth(n: usize) -> Vec<f32> {
        (0..n * n)
            .map(|i| {
                let (x, y) = ((i / n) as f32 / n as f32, (i % n) as f32 / n as f32);
                (5.0 * x).sin() + (3.0 * y).cos()
            })
            .collect()
    }

    #[test]
    fn error_bound_guaranteed() {
        let adapter = CpuParallelAdapter::new(4);
        let data = smooth(48);
        let shape = Shape::new(&[48, 48]);
        for rel in [1e-2f64, 1e-4] {
            let c = compress_typed(&adapter, &data, &shape, &SzConfig::relative(rel)).unwrap();
            let (out, _) = decompress_typed::<f32>(&adapter, &c).unwrap();
            let range = 4.0f64; // ~[-2, 2]
            let err = data
                .iter()
                .zip(&out)
                .map(|(a, b)| (a - b).abs() as f64)
                .fold(0.0, f64::max);
            assert!(err <= rel * range, "rel={rel} err={err}");
        }
    }

    #[test]
    fn smooth_data_compresses_well() {
        let adapter = SerialAdapter::new();
        let data = smooth(64);
        let shape = Shape::new(&[64, 64]);
        let c = compress_typed(&adapter, &data, &shape, &SzConfig::relative(1e-3)).unwrap();
        let ratio = (data.len() * 4) as f64 / c.len() as f64;
        assert!(ratio > 4.0, "ratio {ratio:.2}");
    }

    #[test]
    fn reducer_roundtrip_and_corruption() {
        let adapter = SerialAdapter::new();
        let data = smooth(20);
        let meta = ArrayMeta::new(DType::F32, Shape::new(&[20, 20]));
        let r = SzReducer(SzConfig::relative(1e-3));
        let stream = r
            .compress(&adapter, &f32::slice_to_bytes(&data), &meta)
            .unwrap();
        let (bytes, meta2) = r.decompress(&adapter, &stream).unwrap();
        assert_eq!(meta2, meta);
        assert_eq!(bytes.len(), data.len() * 4);
        for cut in [0usize, 3, 11, stream.len() - 1] {
            assert!(r.decompress(&adapter, &stream[..cut]).is_err());
        }
    }

    #[test]
    fn forged_outlier_count_is_corrupt_not_an_abort() {
        // Dims 2^40 × 2^20 × 1 (at byte 6) and 2^50 outliers (at byte 42):
        // the count fits the forged shape but not the bytes that follow.
        let adapter = SerialAdapter::new();
        let data: Vec<f32> = (0..64).map(|i| (i as f32 * 0.3).sin()).collect();
        let shape = Shape::new(&[4, 4, 4]);
        let mut c = compress_typed(&adapter, &data, &shape, &SzConfig::relative(1e-2)).unwrap();
        for (at, d) in [(6, 1u64 << 40), (14, 1 << 20), (22, 1)] {
            c[at..at + 8].copy_from_slice(&d.to_le_bytes());
        }
        c[42..50].copy_from_slice(&(1u64 << 50).to_le_bytes());
        let got = decompress_typed::<f32>(&adapter, &c);
        assert!(matches!(got, Err(HpdrError::CorruptStream(_))));
    }

    #[test]
    fn outlier_heavy_data_still_bounded() {
        let adapter = SerialAdapter::new();
        // Spiky data: every 7th value is a huge spike → lots of escapes.
        let data: Vec<f64> = (0..500)
            .map(|i| {
                if i % 7 == 0 {
                    1e6
                } else {
                    (i as f64 * 0.1).sin()
                }
            })
            .collect();
        let shape = Shape::new(&[500]);
        let c = compress_typed(&adapter, &data, &shape, &SzConfig::relative(1e-4)).unwrap();
        let (out, _) = decompress_typed::<f64>(&adapter, &c).unwrap();
        let range = 1e6 + 1.0;
        let err = data
            .iter()
            .zip(&out)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err <= 1e-4 * range, "err {err}");
    }

    #[test]
    fn huge_residuals_past_u32_escape_exactly() {
        // rel chosen so the second value quantizes to exactly 2^32: its
        // Lorenzo residual + radius is ≡ radius (mod 2^32), the worst case
        // for a u32-truncating symbolizer (it would alias to the zero
        // symbol and decode with error ~= the full range).
        let adapter = SerialAdapter::new();
        let data = [0.0f64, 1000.0];
        let shape = Shape::new(&[2]);
        let rel = 1.0 / (2.0 * 4294967296.0);
        let cfg = SzConfig::relative(rel);
        let c = compress_typed(&adapter, &data, &shape, &cfg).unwrap();
        let (out, _) = decompress_typed::<f64>(&adapter, &c).unwrap();
        let bound = rel * 1000.0;
        for (a, b) in data.iter().zip(&out) {
            assert!((a - b).abs() <= bound, "{a} vs {b}");
        }
    }

    #[test]
    fn dictionaries_below_16_symbols_are_rejected_before_quantizing() {
        let adapter = SerialAdapter::new();
        let shape = Shape::new(&[16, 16, 16]);
        let data: Vec<f32> = (0..shape.num_elements())
            .map(|i| (i as f32 * 0.01).sin() * 10.0 + (i % 7) as f32)
            .collect();
        let bytes = f32::slice_to_bytes(&data);
        let meta = ArrayMeta::new(f32::DTYPE, shape);
        let cfg = |dict_size| SzConfig {
            dict_size,
            ..SzConfig::relative(1e-3)
        };
        for dict_size in [0, 1, 8, 15] {
            let got = SzReducer(cfg(dict_size)).compress(&adapter, &bytes, &meta);
            assert!(
                matches!(got, Err(HpdrError::InvalidArgument(_))),
                "dict_size {dict_size}: {got:?}"
            );
        }
        let r = SzReducer(cfg(16));
        let c = r.compress(&adapter, &bytes, &meta).unwrap();
        let (back, m) = r.decompress(&adapter, &c).unwrap();
        assert_eq!(m, meta);
        let (mn, mx) = hpdr_kernels::min_max(&adapter, &data);
        let bound = 1e-3 * (mx - mn) as f64;
        let err = data
            .iter()
            .zip(f32::bytes_to_vec(&back))
            .map(|(a, b)| (a - b).abs() as f64)
            .fold(0.0, f64::max);
        assert!(err <= bound, "err {err} > {bound}");
    }

    #[test]
    fn rejects_bad_config_and_nan() {
        let adapter = SerialAdapter::new();
        let shape = Shape::new(&[4]);
        assert!(compress_typed(&adapter, &[1.0f32; 4], &shape, &SzConfig::relative(0.0)).is_err());
        assert!(
            compress_typed(&adapter, &[f32::NAN; 4], &shape, &SzConfig::relative(1e-3)).is_err()
        );
    }
}
