//! Huffman-X compression pipeline (paper Algorithm 2 / Fig. 6):
//!
//! ```text
//! Histogram(Global) → Sort → Filter → GenCodebook(Global)
//!   → Encode(Locality) → Serialize(Global)
//! ```
//!
//! The encoded stream is chunked: every `chunk_elems` symbols start at a
//! recorded bit offset, so decoding parallelizes across chunks (the
//! coarse-grained scheme of Tian et al.'s GPU Huffman, ref \[40\]).

use crate::codebook::{Codebook, TwoLevelTable};
use hpdr_core::{ByteReader, ByteWriter, DeviceAdapter, HpdrError, KernelClass, Locality, Result};
use hpdr_kernels::bitstream::BitReader;
use hpdr_kernels::{histogram_u32, histogram_u8};

const MAGIC: u32 = 0x4855_4631; // "HUF1"

mod private {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for u8 {}
}

/// Symbol types the Huffman pipeline consumes directly (sealed: `u32` and
/// `u8`). The byte instantiation lets [`compress_bytes`] encode raw byte
/// streams without materializing a 4×-larger `u32` key vector, while both
/// instantiations share the exact container format and packing loop — the
/// emitted bytes for equal symbol sequences are identical.
pub trait HuffKey: Copy + Send + Sync + private::Sealed + 'static {
    fn as_u32(self) -> u32;
    fn from_u32(v: u32) -> Self;
    /// Device histogram over `0..dict`: `(freqs, overflow_count)`.
    fn histogram(adapter: &dyn DeviceAdapter, keys: &[Self], dict: usize) -> (Vec<u64>, u64);
    /// `Σ lens[key]` through the SIMD dispatch table (keys ≥ `lens.len()`
    /// clamp to the last slot; valid inputs never reach it).
    fn bits_sum(keys: &[Self], lens: &[u32]) -> u64;
}

impl HuffKey for u32 {
    fn as_u32(self) -> u32 {
        self
    }
    fn from_u32(v: u32) -> u32 {
        v
    }
    fn histogram(adapter: &dyn DeviceAdapter, keys: &[u32], dict: usize) -> (Vec<u64>, u64) {
        histogram_u32(adapter, keys, dict)
    }
    fn bits_sum(keys: &[u32], lens: &[u32]) -> u64 {
        (hpdr_kernels::kernels().code_bits_sum)(keys, lens)
    }
}

impl HuffKey for u8 {
    fn as_u32(self) -> u32 {
        self as u32
    }
    fn from_u32(v: u32) -> u8 {
        v as u8
    }
    fn histogram(adapter: &dyn DeviceAdapter, keys: &[u8], dict: usize) -> (Vec<u64>, u64) {
        let h = histogram_u8(adapter, keys);
        if dict >= 256 {
            let mut freqs = h;
            freqs.resize(dict, 0);
            (freqs, 0)
        } else {
            let overflow = h[dict..].iter().sum();
            (h[..dict].to_vec(), overflow)
        }
    }
    fn bits_sum(keys: &[u8], lens: &[u32]) -> u64 {
        (hpdr_kernels::kernels().byte_bits_sum)(keys, lens)
    }
}

/// Huffman-X configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HuffmanConfig {
    /// Dictionary size: symbols must lie in `0..dict_size`.
    pub dict_size: u32,
    /// Symbols per decode chunk (decode parallelism granularity).
    pub chunk_elems: usize,
}

impl Default for HuffmanConfig {
    fn default() -> Self {
        HuffmanConfig {
            dict_size: 4096,
            chunk_elems: 1 << 16,
        }
    }
}

impl HuffmanConfig {
    pub fn config_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(self.dict_size);
        w.put_u64(self.chunk_elems as u64);
        w.into_vec()
    }
}

/// Compress a symbol stream. All `keys` must be `< cfg.dict_size`.
pub fn compress_u32(
    adapter: &dyn DeviceAdapter,
    keys: &[u32],
    cfg: &HuffmanConfig,
) -> Result<Vec<u8>> {
    compress_keys(adapter, keys, cfg)
}

/// Compress a raw byte stream (`dict_size` must be ≤ 256 for the symbols
/// to be representable, typically exactly 256). Produces a byte-identical
/// container to [`compress_u32`] over the widened keys, without the 4×
/// `u32` key materialization.
pub fn compress_bytes(
    adapter: &dyn DeviceAdapter,
    bytes: &[u8],
    cfg: &HuffmanConfig,
) -> Result<Vec<u8>> {
    compress_keys(adapter, bytes, cfg)
}

/// Shared compression pipeline over any [`HuffKey`] symbol type.
pub fn compress_keys<K: HuffKey>(
    adapter: &dyn DeviceAdapter,
    keys: &[K],
    cfg: &HuffmanConfig,
) -> Result<Vec<u8>> {
    if cfg.dict_size == 0 {
        return Err(HpdrError::invalid("dict_size must be positive"));
    }
    // Alg. 2 line 2: Global histogram.
    let (freqs, overflow) = K::histogram(adapter, keys, cfg.dict_size as usize);
    if overflow > 0 {
        return Err(HpdrError::invalid(format!(
            "{overflow} symbols outside dictionary of {}",
            cfg.dict_size
        )));
    }
    // Lines 3–5: sort, filter, two-phase codebook generation.
    let book = Codebook::from_frequencies(&freqs)?;

    // Lines 6–7, fused: instead of materializing a `(bits, len)` pair per
    // element, scanning all n lengths, and atomically OR-packing, each
    // decode chunk (a) counts its encoded bits, then — after a host-side
    // byte-rounding scan of the chunk sizes — (b) re-encodes directly
    // into its own disjoint byte range with a local 64-bit accumulator.
    // Byte-aligning every chunk start costs ≤ 7 pad bits per chunk and
    // makes the packing ranges disjoint, so no atomics are needed and the
    // bytes are adapter-independent by construction.
    let n = keys.len();
    let chunk = cfg.chunk_elems.max(1);
    let num_chunks = n.div_ceil(chunk);

    // Stage A (Locality): per-chunk encoded bit counts, summed by the
    // SIMD-dispatched gather kernel over a dense code-length table.
    let lens: Vec<u32> = (0..cfg.dict_size).map(|s| book.code(s).len).collect();
    let mut chunk_bits = vec![0u64; num_chunks];
    if n > 0 {
        let bits_sh = hpdr_core::SharedSlice::new(&mut chunk_bits);
        Locality::new(num_chunks).run(adapter, &|c, _| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            let bits = K::bits_sum(&keys[lo..hi], &lens);
            // Safety: one writer per chunk index.
            unsafe { bits_sh.write(c, bits) };
        });
    }

    // Host scan: byte-aligned chunk starts (the chunk table doubles as
    // the parallel-decode seek table).
    let mut chunk_offsets = Vec::with_capacity(num_chunks);
    let mut cursor = 0u64; // bits; always a multiple of 8
    let mut total_bits = 0u64;
    for &bits in &chunk_bits {
        chunk_offsets.push(cursor);
        total_bits = cursor + bits;
        cursor = total_bits.div_ceil(8) * 8;
    }

    // Stage B (Locality): pack each chunk into its disjoint byte range.
    let mut payload = vec![0u8; (cursor / 8) as usize];
    if n > 0 {
        let payload_sh = hpdr_core::SharedSlice::new(&mut payload);
        Locality::new(num_chunks).run(adapter, &|c, _| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            let base = (chunk_offsets[c] / 8) as usize;
            let nbytes = chunk_bits[c].div_ceil(8) as usize;
            // Safety: chunk byte ranges are disjoint — each chunk starts
            // on the byte after its predecessor's last data byte.
            let dst = unsafe { payload_sh.slice_mut(base, nbytes) };
            let mut acc = 0u64;
            let mut nacc = 0u32; // invariant: nacc < 64 between symbols
            let mut wpos = 0usize;
            for &k in &keys[lo..hi] {
                let code = book.code(k.as_u32());
                debug_assert!(code.len > 0, "uncoded symbol in input");
                let spill = if nacc == 0 {
                    0
                } else {
                    code.bits_rev >> (64 - nacc)
                };
                acc |= code.bits_rev << nacc;
                nacc += code.len;
                if nacc >= 64 {
                    dst[wpos..wpos + 8].copy_from_slice(&acc.to_le_bytes());
                    wpos += 8;
                    nacc -= 64;
                    acc = spill;
                }
            }
            let tail = acc.to_le_bytes();
            let mut rem = nacc;
            let mut bi = 0usize;
            while rem > 0 {
                dst[wpos] = tail[bi];
                wpos += 1;
                bi += 1;
                rem = rem.saturating_sub(8);
            }
            debug_assert_eq!(wpos, nbytes);
        });
    }

    // Charge the whole Huffman kernel once against the device cost model.
    adapter.charge(KernelClass::Huffman, (n * 4) as u64);

    // Container.
    let mut w = ByteWriter::with_capacity(payload.len() + 64);
    w.put_u32(MAGIC);
    w.put_u32(cfg.dict_size);
    w.put_u64(n as u64);
    w.put_u64(chunk as u64);
    w.put_u64(total_bits);
    let pairs = book.length_pairs();
    w.put_u32(pairs.len() as u32);
    for (sym, len) in pairs {
        w.put_u32(sym);
        w.put_u8(len as u8);
    }
    w.put_u32(chunk_offsets.len() as u32);
    for off in chunk_offsets {
        w.put_u64(off);
    }
    w.put_block(&payload);
    Ok(w.into_vec())
}

/// Decompress a Huffman-X stream produced by [`compress_u32`].
pub fn decompress_u32(adapter: &dyn DeviceAdapter, bytes: &[u8]) -> Result<Vec<u32>> {
    decompress_keys::<u32>(adapter, bytes, u32::MAX)
}

/// Decompress a Huffman-X stream into bytes. Rejects streams whose
/// dictionary exceeds 256 (their symbols would not fit in a byte).
pub fn decompress_bytes(adapter: &dyn DeviceAdapter, bytes: &[u8]) -> Result<Vec<u8>> {
    decompress_keys::<u8>(adapter, bytes, 256)
}

/// A Huffman-X container whose header passed every check.
struct Stream<'a> {
    n: usize,
    chunk: usize,
    total_bits: u64,
    book: Codebook,
    chunk_offsets: Vec<u64>,
    payload: &'a [u8],
}

/// Parse and check a container; `max_dict` bounds the dictionary size
/// representable in the output symbol type.
fn parse_stream(bytes: &[u8], max_dict: u32) -> Result<Stream<'_>> {
    let mut r = ByteReader::new(bytes);
    if r.get_u32()? != MAGIC {
        return Err(HpdrError::corrupt("bad Huffman magic"));
    }
    let dict_size = r.get_u32()?;
    if dict_size > max_dict {
        return Err(HpdrError::invalid(format!(
            "dictionary of {dict_size} does not fit the requested symbol width"
        )));
    }
    let n = r.get_u64()? as usize;
    let chunk = r.get_u64()? as usize;
    let total_bits = r.get_u64()?;
    if chunk == 0 {
        return Err(HpdrError::corrupt("zero chunk size"));
    }
    // Each code pair is a u32 symbol and a u8 length.
    let num_pairs = r.get_count_u32(5)?;
    if num_pairs > dict_size as usize {
        return Err(HpdrError::corrupt("more codes than dictionary entries"));
    }
    let mut pairs = Vec::with_capacity(num_pairs);
    for _ in 0..num_pairs {
        let sym = r.get_u32()?;
        let len = r.get_u8()? as u32;
        pairs.push((sym, len));
    }
    let book = Codebook::from_lengths(dict_size, &pairs)?;
    let num_chunks = r.get_count_u32(8)?;
    let expected_chunks = n.div_ceil(chunk);
    if num_chunks != expected_chunks {
        return Err(HpdrError::corrupt(format!(
            "chunk table has {num_chunks} entries, expected {expected_chunks}"
        )));
    }
    let mut chunk_offsets = Vec::with_capacity(num_chunks);
    for _ in 0..num_chunks {
        chunk_offsets.push(r.get_u64()?);
    }
    let payload = r.get_block()?;
    r.expect_exhausted()?;
    if total_bits > payload.len() as u64 * 8 {
        return Err(HpdrError::corrupt(
            "payload shorter than declared bit length",
        ));
    }
    // Every codeword is at least one bit, so this bounds the output
    // allocation by the input size.
    if n as u64 > total_bits {
        return Err(HpdrError::corrupt("more symbols than coded bits"));
    }
    Ok(Stream {
        n,
        chunk,
        total_bits,
        book,
        chunk_offsets,
        payload,
    })
}

/// Shared decompression pipeline; `max_dict` bounds the dictionary size
/// representable in `K`.
fn decompress_keys<K: HuffKey>(
    adapter: &dyn DeviceAdapter,
    bytes: &[u8],
    max_dict: u32,
) -> Result<Vec<K>> {
    let s = parse_stream(bytes, max_dict)?;
    let n = s.n;
    if n == 0 {
        return Ok(Vec::new());
    }

    // Parallel chunk decode via the Locality abstraction; any codeword
    // error inside a worker is collected and surfaced after the join.
    let table = s.book.two_level_table(12);
    let mut out = vec![K::from_u32(0); n];
    let errors = std::sync::Mutex::new(Vec::new());
    {
        let out_sh = hpdr_core::SharedSlice::new(&mut out);
        Locality::new(s.chunk_offsets.len()).run(adapter, &|c, _| {
            let lo = c * s.chunk;
            let hi = (lo + s.chunk).min(n);
            // SAFETY: chunk `c` alone owns `out[lo..hi]` (chunks partition
            // `0..n`), and `hi <= n` keeps the range in bounds.
            let dst = unsafe { out_sh.slice_mut(lo, hi - lo) };
            if let Err(e) = decode_chunk(&s, &table, s.chunk_offsets[c], dst) {
                errors.lock().unwrap().push(e);
            }
        });
    }
    if let Some(e) = errors.into_inner().unwrap().into_iter().next() {
        return Err(e);
    }
    adapter.charge(KernelClass::Huffman, (n * 4) as u64);
    Ok(out)
}

/// Decode `dst.len()` symbols starting at bit `start` of the payload.
///
/// Window loop: one unaligned 8-byte load at `start`'s byte serves
/// every symbol until fewer than `max_hit` unread bits remain in it, so
/// each table hit is a shift, a probe and an add. While the whole window
/// lies inside `total_bits`, every hit is in bounds by construction; a
/// table miss decodes that one symbol with the canonical scan over a
/// full in-stream window, and the loop resumes. Symbols in the stream's
/// last 64 bits take the checked path: one zero-padded window per symbol,
/// with its consumption bounded by the bits that remain.
fn decode_chunk<K: HuffKey>(
    s: &Stream<'_>,
    table: &TwoLevelTable,
    start: u64,
    dst: &mut [K],
) -> Result<()> {
    let mut br = BitReader::with_bit_limit(s.payload, s.total_bits)?;
    // Whole 64-bit windows start at or before this bit.
    let last_window = s.total_bits.checked_sub(64);
    let in_window = |pos: u64| last_window.is_some_and(|last| pos <= last);
    let max_hit = table.max_hit();
    let mut pos = start;
    let mut i = 0;
    while i < dst.len() && in_window(pos) {
        // In bounds: `pos + 64 <= total_bits <= 8 · payload.len()`.
        let base = (pos / 8) as usize;
        let bytes = &s.payload[base..base + 8];
        let w = u64::from_le_bytes(bytes.try_into().expect("slice of 8 bytes"));
        let mut shift = (pos % 8) as u32;
        // `shift + max_hit <= 64` holds before every probe (max_hit ≤ 28
        // and shift starts ≤ 7), so each hit is decided by loaded bits.
        let mut missed = false;
        while i < dst.len() && shift + max_hit <= 64 {
            match table.decode(w >> shift) {
                Some((sym, len)) => {
                    dst[i] = K::from_u32(sym);
                    i += 1;
                    shift += len;
                }
                None => {
                    missed = true;
                    break;
                }
            }
        }
        pos = base as u64 * 8 + u64::from(shift);
        if missed {
            if !in_window(pos) {
                break;
            }
            br.seek(pos)?;
            let (sym, used) = s.book.decode_window(br.peek_padded())?;
            dst[i] = K::from_u32(sym);
            i += 1;
            pos += u64::from(used);
        }
    }
    if i == dst.len() {
        return Ok(());
    }
    br.seek(pos)?;
    for slot in &mut dst[i..] {
        let at = br.bit_pos();
        let window = br.peek_padded();
        let (sym, used) = match table.decode(window) {
            Some(hit) => hit,
            None => s.book.decode_window(window)?,
        };
        // Zero padding past the end could complete a truncated codeword.
        if u64::from(used) > br.remaining_bits() {
            return Err(HpdrError::corrupt("codeword extends past end of stream"));
        }
        br.seek(at + u64::from(used))?;
        *slot = K::from_u32(sym);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_core::{CpuParallelAdapter, SerialAdapter};

    fn roundtrip(keys: &[u32], cfg: &HuffmanConfig) {
        let a = CpuParallelAdapter::new(4);
        let compressed = compress_u32(&a, keys, cfg).unwrap();
        let out = decompress_u32(&a, &compressed).unwrap();
        assert_eq!(out, keys);
    }

    /// Stage-level profile of the byte-compress hot path on a 32³-f32-
    /// sized input (131072 bytes). Run with:
    ///   cargo test --release -p hpdr-huffman --lib -- --ignored profile --nocapture
    #[test]
    #[ignore = "profiling harness, run manually with --nocapture"]
    fn profile_compress_bytes_stages() {
        use std::time::Instant;
        // Byte stream shaped like a smooth f32 field's raw bytes: highly
        // skewed exponent/sign bytes, near-uniform mantissa bytes.
        let bytes: Vec<u8> = (0..32768usize)
            .flat_map(|i| {
                let x = (i as f32 * 0.003).sin() * (i as f32 * 0.0007).cos() + 1.5;
                x.to_le_bytes()
            })
            .collect();
        let n = bytes.len();
        let cfg = HuffmanConfig::default();
        let a = SerialAdapter::new();
        let reps = 300usize;

        let best = |label: &str, f: &mut dyn FnMut()| {
            let mut min = std::time::Duration::MAX;
            for _ in 0..reps {
                let t0 = Instant::now();
                f();
                min = min.min(t0.elapsed());
            }
            println!(
                "{label:>12}: {:>9.1} us  ({:.2} ns/sym)",
                min.as_secs_f64() * 1e6,
                min.as_secs_f64() * 1e9 / n as f64
            );
        };

        best("histogram", &mut || {
            std::hint::black_box(u8::histogram(&a, &bytes, cfg.dict_size as usize));
        });
        let (freqs, _) = u8::histogram(&a, &bytes, cfg.dict_size as usize);
        best("codebook", &mut || {
            std::hint::black_box(Codebook::from_frequencies(&freqs).unwrap());
        });
        let book = Codebook::from_frequencies(&freqs).unwrap();
        let lens: Vec<u32> = (0..cfg.dict_size).map(|s| book.code(s).len).collect();
        best("bits_sum", &mut || {
            std::hint::black_box(u8::bits_sum(&bytes, &lens));
        });
        let total_bits = u8::bits_sum(&bytes, &lens);
        let mut payload = vec![0u8; (total_bits as usize).div_ceil(8)];
        best("pack", &mut || {
            let dst = &mut payload[..];
            let mut acc = 0u64;
            let mut nacc = 0u32;
            let mut wpos = 0usize;
            for &k in &bytes {
                let code = book.code(k as u32);
                let spill = if nacc == 0 {
                    0
                } else {
                    code.bits_rev >> (64 - nacc)
                };
                acc |= code.bits_rev << nacc;
                nacc += code.len;
                if nacc >= 64 {
                    dst[wpos..wpos + 8].copy_from_slice(&acc.to_le_bytes());
                    wpos += 8;
                    nacc -= 64;
                    acc = spill;
                }
            }
            let tail = acc.to_le_bytes();
            let mut rem = nacc;
            let mut bi = 0usize;
            while rem > 0 {
                dst[wpos] = tail[bi];
                wpos += 1;
                bi += 1;
                rem = rem.saturating_sub(8);
            }
            std::hint::black_box(&dst);
        });
        best("full", &mut || {
            std::hint::black_box(compress_bytes(&a, &bytes, &cfg).unwrap());
        });
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn roundtrip_skewed_distribution() {
        let keys: Vec<u32> = (0..100_000u32)
            .map(|i| {
                // Geometric-ish skew around 2048 (a quantizer's zero bin).
                let r = i.wrapping_mul(2654435761) >> 16;
                2048 + (r % 64) * if i % 2 == 0 { 1 } else { 0 }
            })
            .collect();
        roundtrip(&keys, &HuffmanConfig::default());
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn roundtrip_uniform_and_tiny() {
        let cfg = HuffmanConfig {
            dict_size: 257,
            chunk_elems: 100,
        };
        let keys: Vec<u32> = (0..10_000u32).map(|i| i % 257).collect();
        roundtrip(&keys, &cfg);
        roundtrip(&[0], &cfg);
        roundtrip(&[5, 5, 5, 5], &cfg);
        roundtrip(&[], &cfg);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn serial_and_parallel_streams_identical() {
        // Portability: the bytes must not depend on the adapter.
        let keys: Vec<u32> = (0..50_000u32).map(|i| (i * 7) % 300).collect();
        let cfg = HuffmanConfig::default();
        let serial = compress_u32(&SerialAdapter::new(), &keys, &cfg).unwrap();
        let parallel = compress_u32(&CpuParallelAdapter::new(8), &keys, &cfg).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn cross_adapter_decode() {
        let keys: Vec<u32> = (0..20_000u32).map(|i| (i * 31) % 1000).collect();
        let cfg = HuffmanConfig::default();
        let stream = compress_u32(&CpuParallelAdapter::new(4), &keys, &cfg).unwrap();
        let out = decompress_u32(&SerialAdapter::new(), &stream).unwrap();
        assert_eq!(out, keys);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn compresses_skewed_data() {
        let a = SerialAdapter::new();
        let keys = vec![7u32; 100_000]; // maximally skewed
        let stream = compress_u32(&a, &keys, &HuffmanConfig::default()).unwrap();
        // 100k symbols at ~1 bit ≈ 12.5 KB plus headers — far below raw.
        assert!(stream.len() < 20_000, "got {}", stream.len());
    }

    #[test]
    fn out_of_dict_symbol_rejected() {
        let a = SerialAdapter::new();
        let cfg = HuffmanConfig {
            dict_size: 16,
            chunk_elems: 8,
        };
        assert!(compress_u32(&a, &[3, 99], &cfg).is_err());
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let a = SerialAdapter::new();
        let keys: Vec<u32> = (0..1000u32).map(|i| i % 50).collect();
        let good = compress_u32(&a, &keys, &HuffmanConfig::default()).unwrap();
        // Truncations at every length must return Err, never panic.
        for cut in [0, 1, 4, 10, good.len() / 2, good.len() - 1] {
            assert!(decompress_u32(&a, &good[..cut]).is_err(), "cut={cut}");
        }
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(decompress_u32(&a, &bad).is_err());
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn byte_path_is_stream_identical_to_u32_path() {
        // The u8 instantiation must emit the exact bytes of the widened
        // u32 instantiation — same histogram, same codebook, same packing.
        let a = CpuParallelAdapter::new(4);
        let bytes: Vec<u8> = (0..60_000usize)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        for dict in [256u32, 300, 100] {
            let cfg = HuffmanConfig {
                dict_size: dict,
                chunk_elems: 1 << 12,
            };
            let keys: Vec<u32> = bytes.iter().map(|&b| b as u32).collect();
            let via_u32 = compress_u32(&a, &keys, &cfg);
            let via_u8 = compress_bytes(&a, &bytes, &cfg);
            match (via_u32, via_u8) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x, y, "dict={dict}");
                    if dict <= 256 {
                        assert_eq!(decompress_bytes(&a, &y).unwrap(), bytes);
                    } else {
                        assert_eq!(decompress_u32(&a, &y).unwrap(), keys);
                    }
                }
                (Err(_), Err(_)) => {} // both reject out-of-dict symbols
                (x, y) => panic!("paths disagree for dict={dict}: {x:?} vs {y:?}"),
            }
        }
    }

    #[test]
    fn symbol_count_beyond_coded_bits_is_corrupt() {
        let a = SerialAdapter::new();
        let keys: Vec<u32> = (0..100u32).map(|i| i % 7).collect();
        let mut stream = compress_u32(&a, &keys, &HuffmanConfig::default()).unwrap();
        // Symbol count and chunk size (bytes 8..24) set to 2^40: still one
        // chunk, so only the bit-length bound stops a 4 TiB output.
        for at in [8, 16] {
            stream[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        }
        assert!(matches!(
            decompress_u32(&a, &stream),
            Err(HpdrError::CorruptStream(_))
        ));
    }

    #[test]
    fn byte_decode_rejects_wide_dictionaries() {
        let a = SerialAdapter::new();
        let keys = vec![300u32, 2, 3];
        let stream = compress_u32(&a, &keys, &HuffmanConfig::default()).unwrap();
        assert!(decompress_bytes(&a, &stream).is_err());
    }

    /// The bit-at-a-time oracle: each chunk decoded with
    /// [`Codebook::decode_one`] from single-bit reads bounded by
    /// `total_bits`.
    fn decompress_reference<K: HuffKey>(bytes: &[u8], max_dict: u32) -> Result<Vec<K>> {
        let s = parse_stream(bytes, max_dict)?;
        let mut out = Vec::with_capacity(s.n);
        for (c, &start) in s.chunk_offsets.iter().enumerate() {
            let lo = c * s.chunk;
            let hi = (lo + s.chunk).min(s.n);
            let mut br = BitReader::with_bit_limit(s.payload, s.total_bits)?;
            br.seek(start)?;
            for _ in lo..hi {
                out.push(K::from_u32(s.book.decode_one(|| br.read_bit())?));
            }
        }
        Ok(out)
    }

    /// A container over `keys` with the canonical book of `pairs`, laid
    /// out as [`compress_keys`] lays it out (byte-aligned chunk starts).
    /// Unlike the encoder it takes any book, so codes can be deeper than
    /// any test input could make them.
    fn container(dict: u32, pairs: &[(u32, u32)], keys: &[u32], chunk: usize) -> Vec<u8> {
        use hpdr_kernels::BitWriter;
        let book = Codebook::from_lengths(dict, pairs).unwrap();
        let mut bits = BitWriter::new();
        let mut offsets = Vec::new();
        let mut total_bits = 0;
        for part in keys.chunks(chunk) {
            bits.write_bits(0, ((8 - bits.bit_len() % 8) % 8) as u32);
            offsets.push(bits.bit_len());
            for &k in part {
                let c = book.code(k);
                bits.write_bits(c.bits_rev, c.len);
            }
            total_bits = bits.bit_len();
        }
        let mut w = ByteWriter::new();
        w.put_u32(MAGIC);
        w.put_u32(dict);
        w.put_u64(keys.len() as u64);
        w.put_u64(chunk as u64);
        w.put_u64(total_bits);
        let pairs = book.length_pairs();
        w.put_u32(pairs.len() as u32);
        for (sym, len) in pairs {
            w.put_u32(sym);
            w.put_u8(len as u8);
        }
        w.put_u32(offsets.len() as u32);
        for off in offsets {
            w.put_u64(off);
        }
        w.put_block(&bits.into_bytes());
        w.into_vec()
    }

    /// One random case: a book (frequency-built, geometric, Fibonacci-deep
    /// or incomplete), keys over its coded symbols, a chunk size, and
    /// damage (none, lowered `total_bits`, flipped payload bytes, both).
    fn random_case(seed: u64) -> (Vec<u8>, u32) {
        let mut state = seed | 1;
        let mut rng = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m.max(1)
        };
        let (dict, mut pairs) = match rng(4) {
            0 => {
                let dict = 1 + rng(300) as u32;
                let freqs: Vec<u64> = (0..dict).map(|_| rng(3) * rng(1000)).collect();
                let pairs = Codebook::from_frequencies(&freqs).unwrap().length_pairs();
                (dict, pairs)
            }
            1 => {
                let dict = 1 + rng(64) as u32;
                let freqs: Vec<u64> = (0..dict).map(|_| 1 << rng(40)).collect();
                let pairs = Codebook::from_frequencies(&freqs).unwrap().length_pairs();
                (dict, pairs)
            }
            2 => {
                // Lengths 1, 2, …, k − 1, k − 1: a complete book whose
                // deepest codes escape both table levels once k > 25.
                let k = 2 + rng(44) as u32;
                let pairs = (0..k).map(|s| (s, (s + 1).min(k - 1))).collect();
                (k, pairs)
            }
            _ => {
                // Incomplete: some codes of a complete book never assigned.
                let dict = 2 + rng(40) as u32;
                let freqs: Vec<u64> = (0..dict).map(|_| 1 + rng(50)).collect();
                let mut pairs = Codebook::from_frequencies(&freqs).unwrap().length_pairs();
                pairs.retain(|_| rng(3) != 0);
                if pairs.is_empty() {
                    pairs.push((0, 1));
                }
                (dict, pairs)
            }
        };
        pairs.sort_unstable();
        let coded: Vec<u32> = pairs.iter().map(|&(s, _)| s).collect();
        let n = rng(1500) as usize;
        let keys: Vec<u32> = (0..n)
            .map(|_| coded[rng(coded.len() as u64) as usize])
            .collect();
        let chunk = if rng(4) == 0 {
            1 << 16
        } else {
            1 + rng(300) as usize
        };
        let mut bytes = container(dict, &pairs, &keys, chunk);
        let damage = rng(4);
        if damage & 1 == 1 {
            let total = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
            let lowered = total.saturating_sub(1 + rng(80));
            bytes[24..32].copy_from_slice(&lowered.to_le_bytes());
        }
        let payload_len = parse_stream(&bytes, u32::MAX).map_or(0, |s| s.payload.len());
        if damage & 2 == 2 && payload_len > 0 {
            let at = bytes.len() - payload_len;
            for _ in 0..1 + rng(3) {
                let i = at + rng(payload_len as u64) as usize;
                bytes[i] ^= 1 << rng(8);
            }
        }
        (bytes, dict)
    }

    fn agree<K: HuffKey + PartialEq + std::fmt::Debug>(
        adapter: &dyn DeviceAdapter,
        bytes: &[u8],
        max_dict: u32,
    ) -> std::result::Result<(), String> {
        match (
            decompress_keys::<K>(adapter, bytes, max_dict),
            decompress_reference::<K>(bytes, max_dict),
        ) {
            (Ok(a), Ok(b)) if a == b => Ok(()),
            (Err(_), Err(_)) => Ok(()),
            (a, b) => Err(format!("window decoder {a:?} vs oracle {b:?}")),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(
            if cfg!(miri) { 4 } else { 400 }
        ))]
        #[test]
        fn window_decoder_matches_bitwise_oracle(seed in proptest::prelude::any::<u64>()) {
            let (bytes, dict) = random_case(seed);
            let a = SerialAdapter::new();
            let u32s = agree::<u32>(&a, &bytes, u32::MAX);
            proptest::prop_assert!(u32s.is_ok(), "u32 keys: {}", u32s.unwrap_err());
            if dict <= 256 {
                let u8s = agree::<u8>(&a, &bytes, 256);
                proptest::prop_assert!(u8s.is_ok(), "u8 keys: {}", u8s.unwrap_err());
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn test_container_matches_encoder_bytes() {
        // The oracle's container builder lays bytes out as the encoder
        // does, so the proptest's streams are the encoder's streams.
        let a = SerialAdapter::new();
        let keys: Vec<u32> = (0..5000u32).map(|i| (i * i + 7 * i) % 97).collect();
        for chunk_elems in [1, 77, 1 << 16] {
            let cfg = HuffmanConfig {
                dict_size: 97,
                chunk_elems,
            };
            let encoded = compress_u32(&a, &keys, &cfg).unwrap();
            let pairs = parse_stream(&encoded, u32::MAX)
                .unwrap()
                .book
                .length_pairs();
            assert_eq!(container(97, &pairs, &keys, chunk_elems), encoded);
        }
    }

    #[test]
    fn deep_codeword_cut_by_the_stream_end_is_an_error() {
        // 190 one-bit codes, then a 39-bit code that misses both table
        // levels, with `total_bits` lowered to keep only 34 of its bits.
        // The window loaded at bit 149 reaches the deep code at bit 190,
        // where fewer than 64 stream bits remain. Its first 34 bits, zero
        // padded, read as a 35-bit code: only the bound on the bits that
        // remain rejects it.
        let pairs: Vec<(u32, u32)> = (0..40u32).map(|s| (s, (s + 1).min(39))).collect();
        let mut keys = vec![0u32; 190];
        keys.push(39);
        let mut bytes = container(40, &pairs, &keys, 1 << 16);
        assert_eq!(&bytes[24..32], &229u64.to_le_bytes());
        bytes[24..32].copy_from_slice(&224u64.to_le_bytes());
        let a = SerialAdapter::new();
        assert!(decompress_reference::<u32>(&bytes, u32::MAX).is_err());
        assert!(matches!(
            decompress_u32(&a, &bytes),
            Err(HpdrError::CorruptStream(_))
        ));
    }

    #[test]
    fn parallel_decode_of_a_deep_book_matches_oracle() {
        // Two workers over many short chunks of a Fibonacci-deep book.
        let pairs: Vec<(u32, u32)> = (0..40u32).map(|s| (s, (s + 1).min(39))).collect();
        let keys: Vec<u32> = (0..3000u32).map(|i| (i * 7919) % 40).collect();
        let bytes = container(40, &pairs, &keys, 37);
        let a = CpuParallelAdapter::new(2);
        assert_eq!(decompress_u32(&a, &bytes).unwrap(), keys);
        assert_eq!(decompress_reference::<u32>(&bytes, u32::MAX).unwrap(), keys);
        assert_eq!(decompress_bytes(&a, &bytes).unwrap().len(), keys.len());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let a = SerialAdapter::new();
        let keys = vec![1u32, 2, 3];
        let mut stream = compress_u32(&a, &keys, &HuffmanConfig::default()).unwrap();
        stream.push(0xAB);
        assert!(decompress_u32(&a, &stream).is_err());
    }
}
