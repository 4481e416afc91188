//! Per-level linear quantization (paper Algorithm 1 line 14).
//!
//! Different quantization bin widths are applied to different levels via
//! the Map&Process abstraction: each node's coefficient is quantized with
//! its level's bin. The bound is verified empirically by the property
//! tests in `tests/error_bounds.rs` (including adversarial random fields).
//!
//! Quantized integers become Huffman symbols centred on `dict_size / 2`;
//! codes that fall outside the dictionary are escaped and stored verbatim
//! in an outlier table (flat index + integer), the standard SZ/MGARD
//! outlier scheme. [`Quantized::write_escaped`] and
//! [`Quantized::read_escaped`] frame that table and the Huffman-X stream
//! as the block both MGARD-X and cuSZ-like containers end with.
//!
//! Bin allocation is geometric: level `l` gets `δ_l = eb·2^{-(L-l)}/2.5`,
//! so the finest level (which holds ~2^d/(2^d−1) of all coefficients)
//! receives the bulk of the error budget. Since recomposition propagates
//! per-level errors with operator norm ≈ 1 + c (interpolation is an
//! averaging operator; the correction projection is bounded by c ≈ 1.2),
//! the total is `Σ_l δ_l/2 · (1+c) ≤ (1+c)·eb/2.5 · Σ 2^{-(L-l)}/1
//! < 2.2·2·eb/5 = 0.88·eb`.

use hpdr_core::{ByteReader, ByteWriter, DeviceAdapter, HpdrError, Result, SharedSlice};
use hpdr_huffman::HuffmanConfig;
use parking_lot::Mutex;

/// Elements per SIMD-kernel tile: big enough to amortize dispatch, small
/// enough to stay in L1 (8 KiB of f64 scratch).
const TILE: usize = 1024;

/// Bin width for level `l` (0 = coarsest) of `levels` total with
/// absolute bound `abs_eb`: geometric allocation favouring fine levels.
pub fn level_bin(abs_eb: f64, levels: usize, l: usize) -> f64 {
    let depth = (levels - 1 - l) as i32;
    abs_eb * 2f64.powi(-depth) / 2.5
}

/// Result of quantization.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantized {
    /// Huffman symbols, one per node (escape = `dict_size - 1`).
    pub symbols: Vec<u32>,
    /// Outliers as `(flat_index, quantized_integer)` in ascending index
    /// order.
    pub outliers: Vec<(u64, i64)>,
}

/// The escape symbol for a dictionary of `dict_size`.
pub fn escape_symbol(dict_size: u32) -> u32 {
    dict_size - 1
}

/// A Huffman dictionary size the escape-coded block accepts: at least
/// 16 symbols. Encoders check it before they quantize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EscapeDict(u32);

impl EscapeDict {
    /// `InvalidArgument` for fewer than 16 symbols.
    pub fn new(dict_size: u32) -> Result<EscapeDict> {
        if dict_size < 16 {
            return Err(HpdrError::invalid("dict_size must be at least 16"));
        }
        Ok(EscapeDict(dict_size))
    }

    pub fn size(self) -> u32 {
        self.0
    }

    /// The symbol of quantized value 0.
    pub fn radius(self) -> i64 {
        (self.0 / 2) as i64
    }

    pub fn escape(self) -> u32 {
        escape_symbol(self.0)
    }
}

impl Quantized {
    /// Huffman-encode the symbols and append the escape-coded block:
    /// `dict_size u32 | outlier count u64 | (index u64, value i64)… |
    /// Huffman-X block`.
    pub fn write_escaped(
        &self,
        adapter: &dyn DeviceAdapter,
        dict: EscapeDict,
        w: &mut ByteWriter,
    ) -> Result<()> {
        let cfg = HuffmanConfig {
            dict_size: dict.0,
            chunk_elems: 1 << 16,
        };
        let encoded = hpdr_huffman::compress_u32(adapter, &self.symbols, &cfg)?;
        w.put_u32(dict.0);
        w.put_u64(self.outliers.len() as u64);
        for &(idx, v) in &self.outliers {
            w.put_u64(idx);
            w.put_i64(v);
        }
        w.put_block(&encoded);
        Ok(())
    }

    /// Read and decode a block written by [`Quantized::write_escaped`]
    /// for `elements` symbols; the block must end the stream.
    /// `CorruptStream` unless the dictionary holds at least 16 symbols
    /// and matches the embedded stream's, the outliers are no more than
    /// the elements, their indices ascend below `elements` and each sits
    /// on an escape symbol, and the stream decodes to `elements` symbols.
    pub fn read_escaped(
        adapter: &dyn DeviceAdapter,
        r: &mut ByteReader<'_>,
        elements: usize,
    ) -> Result<(Quantized, EscapeDict)> {
        let dict =
            EscapeDict::new(r.get_u32()?).map_err(|_| HpdrError::corrupt("bad dictionary size"))?;
        // Each outlier is a u64 index and an i64 value.
        let n_out = r.get_count(16)?;
        if n_out > elements {
            return Err(HpdrError::corrupt("more outliers than elements"));
        }
        let mut outliers = Vec::with_capacity(n_out);
        for _ in 0..n_out {
            let idx = r.get_u64()?;
            let v = r.get_i64()?;
            if idx >= elements as u64 {
                return Err(HpdrError::corrupt("outlier index out of range"));
            }
            outliers.push((idx, v));
        }
        let encoded = r.get_block()?;
        r.expect_exhausted()?;
        if hpdr_huffman::stream_dict_size(encoded)? != dict.0 {
            return Err(HpdrError::corrupt(
                "dictionary size disagrees with the embedded stream",
            ));
        }
        let symbols = hpdr_huffman::decompress_u32(adapter, encoded)?;
        if symbols.len() != elements {
            return Err(HpdrError::corrupt("symbol count does not match shape"));
        }
        // The encoders list outliers in ascending index order, each on an
        // escape symbol.
        let escape = dict.escape();
        if outliers.windows(2).any(|w| w[0].0 >= w[1].0)
            || outliers.iter().any(|&(i, _)| symbols[i as usize] != escape)
        {
            return Err(HpdrError::corrupt(
                "outliers disagree with the escape symbols",
            ));
        }
        Ok((Quantized { symbols, outliers }, dict))
    }
}

/// Quantize decomposed coefficients. `node_levels[i]` gives each node's
/// level; `bins[l]` the level's bin width.
pub fn quantize(
    adapter: &dyn DeviceAdapter,
    coeffs: &[f64],
    node_levels: &[u8],
    bins: &[f64],
    dict_size: u32,
) -> Quantized {
    assert_eq!(coeffs.len(), node_levels.len());
    assert!(dict_size >= 3, "dictionary too small");
    let n = coeffs.len();
    let radius = (dict_size / 2) as i64;
    let escape = escape_symbol(dict_size);
    let mut symbols = vec![0u32; n];
    let outliers = Mutex::new(Vec::new());
    {
        let sym_sh = SharedSlice::new(&mut symbols);
        let chunks = adapter.info().threads.clamp(1, 64);
        let chunk = n.div_ceil(chunks);
        // Both halves run through the SIMD dispatch table over L1-sized
        // tiles: the division + round-ties-even quotients, then the
        // symbolizer, which lists each escape with its saturated quotient
        // (the outlier kept). Oversubscribed launches stay scalar (see
        // `kernels_for_par`).
        let kernels = hpdr_kernels::kernels_for_par(chunks);
        let (quotients, symbolize) = (kernels.quantize_quotients, kernels.quotient_symbols);
        adapter.dem(chunks, &|c| {
            let lo = (c * chunk).min(n);
            let hi = ((c + 1) * chunk).min(n);
            // SAFETY: chunks write disjoint index ranges.
            let syms = unsafe { sym_sh.slice_mut(lo, hi - lo) };
            let mut local_outliers: Vec<(u64, i64)> = Vec::new();
            let mut escapes: Vec<(u64, i64)> = Vec::new();
            let mut tile = [0.0f64; TILE];
            for (k, out) in syms.chunks_mut(TILE).enumerate() {
                let t = lo + k * TILE;
                let tile = &mut tile[..out.len()];
                quotients(
                    &coeffs[t..t + out.len()],
                    &node_levels[t..t + out.len()],
                    bins,
                    tile,
                );
                escapes.clear();
                symbolize(tile, radius, escape, out, &mut escapes);
                local_outliers.extend(escapes.iter().map(|&(j, q)| (t as u64 + j, q)));
            }
            if !local_outliers.is_empty() {
                outliers.lock().extend(local_outliers);
            }
        });
    }
    let mut outliers = outliers.into_inner();
    outliers.sort_unstable_by_key(|&(i, _)| i);
    Quantized { symbols, outliers }
}

/// Invert [`quantize`]: rebuild coefficient values.
pub fn dequantize(
    adapter: &dyn DeviceAdapter,
    q: &Quantized,
    node_levels: &[u8],
    bins: &[f64],
    dict_size: u32,
) -> Vec<f64> {
    let n = q.symbols.len();
    assert_eq!(node_levels.len(), n);
    let radius = (dict_size / 2) as i64;
    let escape = escape_symbol(dict_size);
    let mut out = vec![0.0f64; n];
    {
        let out_sh = SharedSlice::new(&mut out);
        let symbols = &q.symbols;
        let chunks = adapter.info().threads.clamp(1, 64);
        let chunk = n.div_ceil(chunks);
        // Vectorized `(sym - radius) * bin` with escape slots written as
        // 0.0 (same as the skipped-write formulation) and patched from the
        // outlier table below. Oversubscribed launches stay scalar.
        let devals = hpdr_kernels::kernels_for_par(chunks).dequantize_vals;
        adapter.dem(chunks, &|c| {
            let lo = (c * chunk).min(n);
            let hi = ((c + 1) * chunk).min(n);
            if lo >= hi {
                return;
            }
            // Safety: chunks write disjoint index ranges.
            let dst = unsafe { out_sh.slice_mut(lo, hi - lo) };
            devals(
                &symbols[lo..hi],
                &node_levels[lo..hi],
                bins,
                radius,
                escape,
                dst,
            );
        });
    }
    for &(idx, qi) in &q.outliers {
        let i = idx as usize;
        out[i] = qi as f64 * bins[node_levels[i] as usize];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_core::{CpuParallelAdapter, SerialAdapter};

    /// The per-element quantizer the tiled kernels must equal: a symbol
    /// when the saturated quotient plus the radius lies in `[0, escape)`,
    /// an outlier otherwise.
    fn quantize_reference(
        coeffs: &[f64],
        node_levels: &[u8],
        bins: &[f64],
        dict_size: u32,
    ) -> Quantized {
        let radius = (dict_size / 2) as i64;
        let escape = escape_symbol(dict_size);
        let top = bins.len() - 1;
        let mut outliers = Vec::new();
        let mut symbols = Vec::new();
        for (i, (&c, &l)) in coeffs.iter().zip(node_levels).enumerate() {
            let quot = (c / bins[(l as usize).min(top)]).round_ties_even();
            // Saturate impossible magnitudes rather than wrapping.
            let q = quot.clamp(-9.0e18, 9.0e18) as i64;
            let sym = q + radius;
            symbols.push(if (0..escape as i64).contains(&sym) {
                sym as u32
            } else {
                outliers.push((i as u64, q));
                escape
            });
        }
        Quantized { symbols, outliers }
    }

    #[test]
    fn symbols_and_outliers_match_the_per_element_quantizer() {
        let radius = 2048.0;
        // Ties, ±0, both escape edges, sums past 2^32 whose low 32 bits
        // fall below the escape, |q| around 2^51, saturation, ±inf and NaN
        // quotients, spread over tiles and chunk edges.
        let specials = [
            0.5,
            1.5,
            -2.5,
            0.0,
            -0.0,
            -radius - 1.0,
            -radius,
            4095.0 - radius - 1.0,
            4095.0 - radius,
            (1u64 << 32) as f64,
            (1u64 << 32) as f64 + 3.0 - radius,
            (1u64 << 51) as f64 - 1.0,
            (1u64 << 51) as f64 + 2.0,
            -((1u64 << 51) as f64) - 2.0,
            9.0e18,
            -9.5e18,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let n = 5 * TILE + 37;
        let coeffs: Vec<f64> = (0..n)
            .map(|i| match i % 7 {
                0 => specials[(i / 7) % specials.len()],
                _ => ((i as f64) * 0.37).sin() * 3000.0,
            })
            .collect();
        let levels: Vec<u8> = (0..n).map(|i| (i % 3) as u8).collect();
        let bins = [1.0, 0.5, 2.0];
        let want = quantize_reference(&coeffs, &levels, &bins, 4096);
        assert!(!want.outliers.is_empty());
        for threads in [1, 2, 4] {
            let got = quantize(
                &CpuParallelAdapter::new(threads),
                &coeffs,
                &levels,
                &bins,
                4096,
            );
            assert_eq!(got, want, "threads {threads}");
        }
    }

    #[test]
    fn quantize_error_within_half_bin() {
        let adapter = SerialAdapter::new();
        let coeffs: Vec<f64> = (0..1000).map(|i| ((i as f64) * 0.7).sin() * 3.0).collect();
        let levels = vec![0u8; 1000];
        let bins = vec![0.01f64];
        let q = quantize(&adapter, &coeffs, &levels, &bins, 4096);
        let back = dequantize(&adapter, &q, &levels, &bins, 4096);
        for (a, b) in coeffs.iter().zip(&back) {
            assert!((a - b).abs() <= 0.005 + 1e-12);
        }
    }

    #[test]
    fn per_level_bins_are_respected() {
        let adapter = SerialAdapter::new();
        let coeffs = vec![1.0f64, 1.0];
        let levels = vec![0u8, 1u8];
        let bins = vec![0.5f64, 0.125];
        let q = quantize(&adapter, &coeffs, &levels, &bins, 4096);
        assert_eq!(q.symbols[0], 2048 + 2); // 1.0 / 0.5
        assert_eq!(q.symbols[1], 2048 + 8); // 1.0 / 0.125
    }

    #[test]
    fn outliers_escape_and_restore() {
        let adapter = CpuParallelAdapter::new(4);
        let mut coeffs = vec![0.0f64; 5000];
        coeffs[123] = 1e9; // way outside the dictionary
        coeffs[4567] = -1e9;
        let levels = vec![0u8; 5000];
        let bins = vec![0.001f64];
        let q = quantize(&adapter, &coeffs, &levels, &bins, 1024);
        assert_eq!(q.outliers.len(), 2);
        assert_eq!(q.symbols[123], escape_symbol(1024));
        let back = dequantize(&adapter, &q, &levels, &bins, 1024);
        assert!((back[123] - 1e9).abs() < 1.0);
        assert!((back[4567] + 1e9).abs() < 1.0);
        // Outliers sorted by index regardless of thread interleaving.
        assert!(q.outliers.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn quotients_past_u32_escape_and_restore() {
        // `q + radius` at 2^32 + 3 has low 32 bits below the escape; it is
        // still an outlier and restores exactly.
        let big = (1u64 << 32) as f64 + 3.0 - 2048.0;
        let coeffs = [(1u64 << 32) as f64, big, 5000.0, 7.0];
        for threads in [1, 4] {
            let adapter = CpuParallelAdapter::new(threads);
            let q = quantize(&adapter, &coeffs, &[0; 4], &[1.0], 4096);
            assert_eq!(q.outliers.len(), 3, "threads {threads}");
            let back = dequantize(&adapter, &q, &[0; 4], &[1.0], 4096);
            assert_eq!(back, coeffs, "threads {threads}");
        }
    }

    #[test]
    fn symbols_deterministic_across_adapters() {
        let coeffs: Vec<f64> = (0..10_000).map(|i| (i % 97) as f64 * 0.01 - 0.5).collect();
        let levels: Vec<u8> = (0..10_000).map(|i| (i % 3) as u8).collect();
        let bins = vec![0.01, 0.005, 0.0025];
        let a = quantize(&SerialAdapter::new(), &coeffs, &levels, &bins, 4096);
        let b = quantize(&CpuParallelAdapter::new(8), &coeffs, &levels, &bins, 4096);
        assert_eq!(a, b);
    }

    #[test]
    fn escaped_block_roundtrips_and_needs_16_symbols() {
        for d in [0, 1, 15] {
            assert!(matches!(
                EscapeDict::new(d),
                Err(HpdrError::InvalidArgument(_))
            ));
        }
        let adapter = SerialAdapter::new();
        let coeffs: Vec<f64> = (0..3000).map(|i| (i as f64 * 0.01).sin()).collect();
        let dict = EscapeDict::new(64).unwrap();
        let q = quantize(&adapter, &coeffs, &[0; 3000], &[0.01], dict.size());
        assert!(!q.outliers.is_empty());
        let mut w = ByteWriter::new();
        q.write_escaped(&adapter, dict, &mut w).unwrap();
        let bytes = w.into_vec();
        let read = |b: &[u8], n| Quantized::read_escaped(&adapter, &mut ByteReader::new(b), n);
        assert_eq!(read(&bytes, 3000).unwrap(), (q, dict));
        // The block ends its container and fixes its element count.
        assert!(read(&bytes, 2999).is_err());
        assert!(read(&[&bytes[..], &[0]].concat(), 3000).is_err());
    }

    #[test]
    fn level_bins_are_geometric_toward_fine_levels() {
        // Finest level gets the largest bin; each coarser level halves.
        let l = 4;
        let fine = level_bin(1.0, l, 3);
        assert!((fine - 1.0 / 2.5).abs() < 1e-12);
        for lev in 0..3 {
            assert!((level_bin(1.0, l, lev) * 2.0 - level_bin(1.0, l, lev + 1)).abs() < 1e-12);
        }
        // Total per-level error budget stays below the bound.
        let total: f64 = (0..l).map(|lev| level_bin(1.0, l, lev) / 2.0).sum();
        assert!(total < 0.5, "budget {total}");
    }
}
