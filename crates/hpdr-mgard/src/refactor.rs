//! Multilevel data refactoring and progressive retrieval.
//!
//! Beyond one-shot compression, MGARD's decomposition supports
//! *refactoring*: the multilevel coefficients are stored grouped by
//! level, so a reader can retrieve a prefix of levels and reconstruct a
//! coarse-but-faithful approximation, adding levels (and bytes) only as
//! more accuracy is needed. This is the "data refactoring" usage the
//! paper's introduction motivates (refs \[23\]–\[25\]) and what MGARD-X
//! ships in production.
//!
//! Layout: a header plus one independently Huffman-coded segment per
//! level. `retrieve(k)` decodes segments `0..=k`, zeroes the rest, and
//! recomposes.

use crate::codec::{context_cache, MgardContext};
use crate::decompose::{decompose, recompose};
use crate::quantize::{dequantize, level_bin, quantize, Quantized};
use hpdr_core::{
    ByteReader, ByteWriter, ContextKey, DeviceAdapter, Float, FrameHeader, HpdrError, KernelClass,
    Result, Shape,
};
use hpdr_huffman::HuffmanConfig;

const FRAME: FrameHeader = FrameHeader::new(0x4D47_5246 /* "MGRF" */, 1, "refactor");

/// Configuration for refactoring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefactorConfig {
    /// Finest-level quantizer resolution, expressed as a relative error
    /// bound achieved when *all* levels are retrieved.
    pub rel_bound: f64,
    pub dict_size: u32,
}

impl Default for RefactorConfig {
    fn default() -> Self {
        RefactorConfig {
            rel_bound: 1e-6,
            dict_size: 8192,
        }
    }
}

/// A refactored array: per-level segments retrievable incrementally.
#[derive(Debug, Clone, PartialEq)]
pub struct Refactored {
    pub dtype_tag: u8,
    pub shape: Shape,
    pub abs_eb: f64,
    pub levels: usize,
    pub dict_size: u32,
    /// Independently decodable per-level streams (level 0 = coarsest).
    pub segments: Vec<Vec<u8>>,
    /// Outliers (flat index, integer) stored with the coarsest segment.
    outliers: Vec<(u64, i64)>,
}

impl Refactored {
    /// Bytes needed to retrieve levels `0..=k`.
    pub fn bytes_up_to(&self, k: usize) -> usize {
        self.segments[..=k.min(self.levels - 1)]
            .iter()
            .map(|s| s.len())
            .sum::<usize>()
            + self.outliers.len() * 16
    }

    pub fn total_bytes(&self) -> usize {
        self.bytes_up_to(self.levels - 1)
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        FRAME.write(&mut w);
        w.put_u8(self.dtype_tag);
        w.put_u8(self.shape.ndims() as u8);
        for &d in self.shape.dims() {
            w.put_u64(d as u64);
        }
        w.put_f64(self.abs_eb);
        w.put_u32(self.dict_size);
        w.put_u8(self.levels as u8);
        w.put_u64(self.outliers.len() as u64);
        for &(i, q) in &self.outliers {
            w.put_u64(i);
            w.put_i64(q);
        }
        for seg in &self.segments {
            w.put_block(seg);
        }
        w.into_vec()
    }

    pub fn from_bytes(bytes: &[u8]) -> Result<Refactored> {
        let mut r = ByteReader::new(bytes);
        FRAME.read(&mut r)?;
        let dtype_tag = r.get_u8()?;
        let nd = r.get_u8()? as usize;
        if !(1..=4).contains(&nd) {
            return Err(HpdrError::corrupt("bad rank"));
        }
        let mut dims = Vec::with_capacity(nd);
        for _ in 0..nd {
            dims.push(r.get_u64()? as usize);
        }
        let shape = Shape::try_new(&dims)?;
        let abs_eb = r.get_f64()?;
        if abs_eb <= 0.0 || !abs_eb.is_finite() {
            return Err(HpdrError::corrupt("bad bound"));
        }
        let dict_size = r.get_u32()?;
        if dict_size < 16 {
            return Err(HpdrError::corrupt("bad dict size"));
        }
        let levels = r.get_u8()? as usize;
        if levels == 0 || levels > 64 {
            return Err(HpdrError::corrupt("bad level count"));
        }
        // Each outlier is a u64 index and an i64 value.
        let n_out = r.get_count(16)?;
        if n_out > shape.num_elements() {
            return Err(HpdrError::corrupt("too many outliers"));
        }
        let mut outliers = Vec::with_capacity(n_out);
        for _ in 0..n_out {
            let i = r.get_u64()?;
            if i as usize >= shape.num_elements() {
                return Err(HpdrError::corrupt("outlier out of range"));
            }
            outliers.push((i, r.get_i64()?));
        }
        let mut segments = Vec::with_capacity(levels);
        for _ in 0..levels {
            segments.push(r.get_block()?.to_vec());
        }
        r.expect_exhausted()?;
        Ok(Refactored {
            dtype_tag,
            shape,
            abs_eb,
            dict_size,
            levels,
            segments,
            outliers,
        })
    }
}

fn effective_shape(shape: &Shape) -> Shape {
    let d = shape.dims();
    if d.len() == 4 {
        Shape::new(&[d[0] * d[1], d[2], d[3]])
    } else {
        shape.clone()
    }
}

/// Refactor `data` into per-level segments.
pub fn refactor<T: Float>(
    adapter: &dyn DeviceAdapter,
    data: &[T],
    shape: &Shape,
    cfg: &RefactorConfig,
) -> Result<Refactored> {
    if data.len() != shape.num_elements() {
        return Err(HpdrError::invalid("data length does not match shape"));
    }
    if cfg.rel_bound <= 0.0 || !cfg.rel_bound.is_finite() {
        return Err(HpdrError::invalid("bound must be positive"));
    }
    for &v in data {
        if !v.is_finite() {
            return Err(HpdrError::invalid("non-finite input"));
        }
    }
    let (mn, mx) = hpdr_kernels::min_max(adapter, data);
    let range = (mx.to_f64() - mn.to_f64()).max(f64::MIN_POSITIVE);
    let abs_eb = cfg.rel_bound * range;
    let eff = effective_shape(shape);

    let key = ContextKey {
        algorithm: "mgard-refactor",
        dtype: T::DTYPE,
        shape: eff.dims().to_vec(),
        config_hash: 0,
        device: 0,
    };
    let ctx = context_cache().get_or_create(&key, || MgardContext::new(&eff));
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
    let q = quantize(adapter, work, node_levels, &bins, cfg.dict_size);

    // Split symbols by level and encode each level independently.
    let hcfg = HuffmanConfig {
        dict_size: cfg.dict_size,
        chunk_elems: 1 << 16,
    };
    let mut segments = Vec::with_capacity(levels);
    for l in 0..levels {
        let level_symbols: Vec<u32> = q
            .symbols
            .iter()
            .zip(node_levels.iter())
            .filter(|(_, &nl)| nl as usize == l)
            .map(|(&s, _)| s)
            .collect();
        segments.push(hpdr_huffman::compress_u32(adapter, &level_symbols, &hcfg)?);
    }
    adapter.charge(KernelClass::Mgard, (data.len() * T::BYTES) as u64);
    Ok(Refactored {
        dtype_tag: T::DTYPE.tag(),
        shape: shape.clone(),
        abs_eb,
        dict_size: cfg.dict_size,
        levels,
        segments,
        outliers: q.outliers,
    })
}

/// Reconstruct using only levels `0..=up_to_level` (coarser levels carry
/// the large-scale structure; adding levels refines). Retrieving all
/// levels reproduces the full-accuracy reconstruction.
pub fn retrieve<T: Float>(
    adapter: &dyn DeviceAdapter,
    refactored: &Refactored,
    up_to_level: usize,
) -> Result<(Vec<T>, Shape)> {
    if refactored.dtype_tag != T::DTYPE.tag() {
        return Err(HpdrError::invalid("dtype mismatch"));
    }
    let shape = refactored.shape.clone();
    let eff = effective_shape(&shape);
    let up_to = up_to_level.min(refactored.levels - 1);

    let key = ContextKey {
        algorithm: "mgard-refactor",
        dtype: T::DTYPE,
        shape: eff.dims().to_vec(),
        config_hash: 0,
        device: 0,
    };
    let ctx = context_cache().get_or_create(&key, || MgardContext::new(&eff));
    let mut ctx = ctx.lock();
    if ctx.hierarchy.total_levels() != refactored.levels {
        return Err(HpdrError::corrupt("level count mismatch with shape"));
    }
    let levels = refactored.levels;
    let MgardContext {
        hierarchy,
        node_levels,
        ..
    } = &mut *ctx;

    // Decode retrieved segments; deeper levels decode to empty (zeros).
    let mut per_level: Vec<Option<Vec<u32>>> = Vec::with_capacity(levels);
    for (l, seg) in refactored.segments.iter().enumerate() {
        if l <= up_to {
            per_level.push(Some(hpdr_huffman::decompress_u32(adapter, seg)?));
        } else {
            per_level.push(None);
        }
    }

    // Reassemble the full symbol array in node order.
    let n = eff.num_elements();
    let mut cursors = vec![0usize; levels];
    let mut symbols = vec![0u32; n];
    let mut suppressed = vec![false; n];
    for i in 0..n {
        let l = node_levels[i] as usize;
        match &per_level[l] {
            Some(syms) => {
                let c = cursors[l];
                let s = *syms
                    .get(c)
                    .ok_or_else(|| HpdrError::corrupt("level segment too short"))?;
                symbols[i] = s;
                cursors[l] += 1;
            }
            None => {
                suppressed[i] = true;
            }
        }
    }
    for (l, p) in per_level.iter().enumerate() {
        if let Some(syms) = p {
            if cursors[l] != syms.len() {
                return Err(HpdrError::corrupt("level segment too long"));
            }
        }
    }

    // Dequantize (suppressed coefficients read as exactly zero).
    let dict_size = refactored.dict_size;
    let bins: Vec<f64> = (0..levels)
        .map(|l| level_bin(refactored.abs_eb, levels, l))
        .collect();
    // Neutralize suppressed nodes: set them to the zero symbol.
    let zero_sym = dict_size / 2;
    for (i, s) in symbols.iter_mut().enumerate() {
        if suppressed[i] {
            *s = zero_sym;
        }
    }
    let outliers: Vec<(u64, i64)> = refactored
        .outliers
        .iter()
        .filter(|&&(i, _)| !suppressed[i as usize])
        .copied()
        .collect();
    let q = Quantized { symbols, outliers };
    let mut coeffs = dequantize(adapter, &q, node_levels, &bins, dict_size);
    recompose(adapter, &mut coeffs, hierarchy);
    adapter.charge(KernelClass::Mgard, (n * T::BYTES) as u64);
    Ok((coeffs.iter().map(|&v| T::from_f64(v)).collect(), shape))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_core::{CpuParallelAdapter, SerialAdapter};

    fn smooth(dims: &[usize]) -> (Vec<f64>, Shape) {
        let shape = Shape::new(dims);
        let data = (0..shape.num_elements())
            .map(|i| {
                let idx = shape.unravel(i);
                idx.iter()
                    .enumerate()
                    .map(|(d, &x)| ((x as f64 / dims[d] as f64) * (2.0 + d as f64)).sin())
                    .sum::<f64>()
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
    fn full_retrieval_meets_the_bound() {
        let adapter = CpuParallelAdapter::new(4);
        let (data, shape) = smooth(&[17, 17]);
        let cfg = RefactorConfig {
            rel_bound: 1e-4,
            dict_size: 8192,
        };
        let r = refactor(&adapter, &data, &shape, &cfg).unwrap();
        let (out, s) = retrieve::<f64>(&adapter, &r, r.levels - 1).unwrap();
        assert_eq!(s, shape);
        let range = 4.0;
        assert!(
            max_err(&data, &out) <= 1e-4 * range,
            "err {}",
            max_err(&data, &out)
        );
    }

    #[test]
    fn error_decreases_monotonically_with_levels() {
        let adapter = CpuParallelAdapter::new(4);
        let (data, shape) = smooth(&[33, 33]);
        let r = refactor(&adapter, &data, &shape, &RefactorConfig::default()).unwrap();
        let mut last = f64::INFINITY;
        for k in 0..r.levels {
            let (out, _) = retrieve::<f64>(&adapter, &r, k).unwrap();
            let err = max_err(&data, &out);
            assert!(
                err <= last * 1.05,
                "error grew adding level {k}: {err} > {last}"
            );
            last = err;
        }
        // Coarse retrieval is genuinely coarse, full retrieval is tight.
        assert!(last < 1e-5);
    }

    #[test]
    fn progressive_bytes_grow_with_levels() {
        let adapter = SerialAdapter::new();
        let (data, shape) = smooth(&[33, 17]);
        let r = refactor(&adapter, &data, &shape, &RefactorConfig::default()).unwrap();
        let mut last = 0usize;
        for k in 0..r.levels {
            let b = r.bytes_up_to(k);
            assert!(b >= last);
            last = b;
        }
        assert_eq!(last, r.total_bytes());
        // The coarse prefix is a strict subset of the full payload.
        assert!(r.bytes_up_to(0) < r.total_bytes());
    }

    #[test]
    fn container_roundtrip_and_corruption() {
        let adapter = SerialAdapter::new();
        let (data, shape) = smooth(&[9, 9, 9]);
        let r = refactor(&adapter, &data, &shape, &RefactorConfig::default()).unwrap();
        let bytes = r.to_bytes();
        let parsed = Refactored::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, r);
        for cut in [0usize, 4, 9, bytes.len() / 2, bytes.len() - 1] {
            assert!(Refactored::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Retrieval from the parsed container still works.
        let (out, _) = retrieve::<f64>(&adapter, &parsed, 0).unwrap();
        assert_eq!(out.len(), data.len());
    }

    #[test]
    fn coarse_retrieval_keeps_large_scale_structure() {
        let adapter = SerialAdapter::new();
        // Linear ramp: perfectly represented by the coarsest level alone.
        let shape = Shape::new(&[33]);
        let data: Vec<f64> = (0..33).map(|i| i as f64).collect();
        let r = refactor(
            &adapter,
            &data,
            &shape,
            &RefactorConfig {
                rel_bound: 1e-8,
                dict_size: 8192,
            },
        )
        .unwrap();
        let (coarse, _) = retrieve::<f64>(&adapter, &r, 0).unwrap();
        // A ramp has zero fine-level coefficients, so level 0 suffices.
        assert!(
            max_err(&data, &coarse) < 1e-3,
            "err {}",
            max_err(&data, &coarse)
        );
    }

    #[test]
    fn dtype_mismatch_rejected() {
        let adapter = SerialAdapter::new();
        let (data, shape) = smooth(&[9, 9]);
        let r = refactor(&adapter, &data, &shape, &RefactorConfig::default()).unwrap();
        assert!(retrieve::<f32>(&adapter, &r, 0).is_err());
    }
}
