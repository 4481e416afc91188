//! LZ4-style byte-level lossless compressor (the nvCOMP-LZ4 comparator,
//! paper §VI-A). Greedy hash-table LZ77 with 16-bit offsets and
//! varint-coded literal/match lengths. On floating-point scientific data
//! this achieves ≈1.1× — the paper's point is precisely that a
//! general-purpose byte compressor cannot accelerate float-heavy I/O.

use hpdr_core::{
    ArrayMeta, ByteReader, ByteWriter, DeviceAdapter, HpdrError, KernelClass, Reducer, Result,
};

/// The bare magic every lz4-like stream starts with (no version byte).
pub const MAGIC: u32 = 0x4C5A_3442; // "LZ4B"
const MIN_MATCH: usize = 4;
const HASH_BITS: u32 = 16;
const MAX_OFFSET: usize = u16::MAX as usize;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes(bytes[..4].try_into().unwrap());
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

fn get_varint(r: &mut ByteReader<'_>) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = r.get_u8()?;
        if shift >= 63 {
            return Err(HpdrError::corrupt("varint too long"));
        }
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Compress a byte slice. Output format: sequences of
/// `[varint lit_len][literals][u16 offset][varint match_extra]` with a
/// final literal-only sequence (offset 0 marker).
pub fn lz_compress(input: &[u8]) -> Vec<u8> {
    let n = input.len();
    let mut out = Vec::with_capacity(n / 2 + 16);
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut i = 0usize;
    let mut lit_start = 0usize;
    while i + MIN_MATCH <= n {
        let h = hash4(&input[i..]);
        let cand = table[h];
        table[h] = i;
        if cand != usize::MAX && i - cand <= MAX_OFFSET && input[cand..cand + 4] == input[i..i + 4]
        {
            // Extend the match.
            let mut len = 4;
            while i + len < n && input[cand + len] == input[i + len] {
                len += 1;
            }
            // Emit sequence: literals since lit_start, then the match.
            put_varint(&mut out, (i - lit_start) as u64);
            out.extend_from_slice(&input[lit_start..i]);
            out.extend_from_slice(&((i - cand) as u16).to_le_bytes());
            put_varint(&mut out, (len - MIN_MATCH) as u64);
            // Index a few positions inside the match for future matches.
            let step = (len / 8).max(1);
            let mut j = i + 1;
            while j + MIN_MATCH <= n && j < i + len {
                table[hash4(&input[j..])] = j;
                j += step;
            }
            i += len;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    // Final literal run (offset 0 sentinel).
    put_varint(&mut out, (n - lit_start) as u64);
    out.extend_from_slice(&input[lit_start..]);
    out.extend_from_slice(&0u16.to_le_bytes());
    put_varint(&mut out, 0);
    out
}

/// Decompress [`lz_compress`] output, which must decode to exactly
/// `expected_len` bytes. `expected_len` comes from an untrusted header,
/// so it bounds the output but is not reserved: the output grows with
/// the decoded bytes, from a first reservation of at most 4× the input
/// (float data compresses about 1.1×).
pub fn lz_decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>> {
    let mut r = ByteReader::new(input);
    let mut out: Vec<u8> = Vec::with_capacity(expected_len.min(input.len().saturating_mul(4)));
    loop {
        let lit_len = get_varint(&mut r)? as usize;
        if out.len() + lit_len > expected_len {
            return Err(HpdrError::corrupt("literal run exceeds declared size"));
        }
        out.extend_from_slice(r.get_bytes(lit_len)?);
        let offset = r.get_u16()? as usize;
        let extra = get_varint(&mut r)? as usize;
        if offset == 0 {
            if extra != 0 {
                return Err(HpdrError::corrupt("bad terminator"));
            }
            break;
        }
        let match_len = MIN_MATCH + extra;
        if offset > out.len() {
            return Err(HpdrError::corrupt("match offset before stream start"));
        }
        if out.len() + match_len > expected_len {
            return Err(HpdrError::corrupt("match exceeds declared size"));
        }
        // Byte-wise copy: matches may self-overlap (RLE-style).
        let start = out.len() - offset;
        for k in 0..match_len {
            let b = out[start + k];
            out.push(b);
        }
    }
    if out.len() != expected_len {
        return Err(HpdrError::corrupt(format!(
            "decompressed {} bytes, expected {expected_len}",
            out.len()
        )));
    }
    r.expect_exhausted()?;
    Ok(out)
}

/// LZ4-like (nvCOMP analogue) as a byte-level reduction pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lz4Reducer;

impl Reducer for Lz4Reducer {
    fn name(&self) -> &'static str {
        "nvcomp-lz4-like"
    }

    fn kernel_class(&self) -> KernelClass {
        KernelClass::Lz4
    }

    fn is_lossless(&self) -> bool {
        true
    }

    fn compress(
        &self,
        adapter: &dyn DeviceAdapter,
        bytes: &[u8],
        meta: &ArrayMeta,
    ) -> Result<Vec<u8>> {
        if bytes.len() != meta.num_bytes() {
            return Err(HpdrError::invalid("byte length does not match metadata"));
        }
        let payload = lz_compress(bytes);
        adapter.charge(KernelClass::Lz4, bytes.len() as u64);
        let mut w = ByteWriter::with_capacity(payload.len() + 64);
        w.put_u32(MAGIC);
        meta.write(&mut w);
        w.put_u64(bytes.len() as u64);
        w.put_block(&payload);
        Ok(w.into_vec())
    }

    fn decompress(
        &self,
        adapter: &dyn DeviceAdapter,
        stream: &[u8],
    ) -> Result<(Vec<u8>, ArrayMeta)> {
        let mut r = ByteReader::new(stream);
        if r.get_u32()? != MAGIC {
            return Err(HpdrError::corrupt("bad LZ4-like magic"));
        }
        let meta = ArrayMeta::read(&mut r)?;
        let raw_len = r.get_u64()? as usize;
        if raw_len != meta.num_bytes() {
            return Err(HpdrError::corrupt("length/metadata mismatch"));
        }
        let payload = r.get_block()?;
        r.expect_exhausted()?;
        let out = lz_decompress(payload, raw_len)?;
        adapter.charge(KernelClass::Lz4, raw_len as u64);
        Ok((out, meta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_core::{DType, SerialAdapter, Shape};

    #[test]
    fn roundtrip_texty_and_binary() {
        let cases: Vec<Vec<u8>> = vec![
            b"the quick brown fox jumps over the lazy dog, the quick brown fox".to_vec(),
            vec![0u8; 10_000],
            (0..5000u32).flat_map(|i| (i % 251).to_le_bytes()).collect(),
            vec![],
            vec![7],
            b"abcd".repeat(1000),
        ];
        for data in cases {
            let c = lz_compress(&data);
            let d = lz_decompress(&c, data.len()).unwrap();
            assert_eq!(d, data);
        }
    }

    #[test]
    fn repetitive_data_compresses_floats_dont() {
        let repetitive = b"ABCDEFGH".repeat(4096);
        let c = lz_compress(&repetitive);
        assert!(c.len() < repetitive.len() / 10);

        // Float-ish noise: low ratio (the paper's nvCOMP-LZ4 story).
        let floats: Vec<u8> = (0..32_768u32)
            .flat_map(|i| ((i as f32 * 0.7919).sin() * 1e7).to_le_bytes())
            .collect();
        let c = lz_compress(&floats);
        let ratio = floats.len() as f64 / c.len() as f64;
        assert!(ratio < 1.6, "noise ratio {ratio:.2} suspiciously high");
        let d = lz_decompress(&c, floats.len()).unwrap();
        assert_eq!(d, floats);
    }

    #[test]
    fn overlapping_matches_rle() {
        let mut data = vec![9u8];
        data.extend(std::iter::repeat_n(9u8, 300)); // offset-1 match
        let c = lz_compress(&data);
        assert!(c.len() < 32);
        assert_eq!(lz_decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn corrupt_streams_rejected() {
        let data = b"hello world hello world hello world".to_vec();
        let c = lz_compress(&data);
        assert!(lz_decompress(&c, data.len() + 5).is_err());
        assert!(lz_decompress(&c[..c.len() - 2], data.len()).is_err());
        assert!(lz_decompress(&[0xFF; 3], 10).is_err());
    }

    #[test]
    fn reducer_roundtrip() {
        let adapter = SerialAdapter::new();
        let bytes: Vec<u8> = (0..4096u32).flat_map(|i| (i / 16).to_le_bytes()).collect();
        let meta = ArrayMeta::new(DType::F32, Shape::new(&[4096]));
        let r = Lz4Reducer;
        let stream = r.compress(&adapter, &bytes, &meta).unwrap();
        let (out, meta2) = r.decompress(&adapter, &stream).unwrap();
        assert_eq!(out, bytes);
        assert_eq!(meta2, meta);
        assert!(r.is_lossless());
    }
}
