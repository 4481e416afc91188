//! [`Reducer`] implementation for Huffman-X as a standalone lossless
//! byte compressor (dictionary = the 256 byte values).

use crate::codec::{compress_bytes, decompress_bytes, HuffmanConfig};
use hpdr_core::{
    ArrayMeta, ByteReader, ByteWriter, DeviceAdapter, HpdrError, KernelClass, Reducer, Result,
};

/// The bare magic every Huffman-X reducer container starts with (no
/// version byte).
pub const MAGIC: u32 = 0x4855_4658; // "HUFX"

/// Huffman-X over raw bytes (paper: "Huffman-X provides lossless
/// compression").
#[derive(Debug, Clone, Copy)]
pub struct ByteHuffmanReducer {
    pub chunk_elems: usize,
}

impl Default for ByteHuffmanReducer {
    fn default() -> Self {
        ByteHuffmanReducer {
            chunk_elems: 1 << 16,
        }
    }
}

impl Reducer for ByteHuffmanReducer {
    fn name(&self) -> &'static str {
        "huffman-x"
    }

    fn kernel_class(&self) -> KernelClass {
        KernelClass::Huffman
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
        let cfg = HuffmanConfig {
            dict_size: 256,
            chunk_elems: self.chunk_elems,
        };
        // Byte-keyed pipeline: same stream as the u32 path over widened
        // keys, without materializing the 4×-larger key vector.
        let encoded = compress_bytes(adapter, bytes, &cfg)?;
        let mut w = ByteWriter::with_capacity(encoded.len() + 64);
        w.put_u32(MAGIC);
        meta.write(&mut w);
        w.put_block(&encoded);
        Ok(w.into_vec())
    }

    fn decompress(
        &self,
        adapter: &dyn DeviceAdapter,
        stream: &[u8],
    ) -> Result<(Vec<u8>, ArrayMeta)> {
        let mut r = ByteReader::new(stream);
        if r.get_u32()? != MAGIC {
            return Err(HpdrError::corrupt("bad Huffman-X container magic"));
        }
        let meta = ArrayMeta::read(&mut r)?;
        let encoded = r.get_block()?;
        r.expect_exhausted()?;
        let out = decompress_bytes(adapter, encoded)?;
        if out.len() != meta.num_bytes() {
            return Err(HpdrError::corrupt("decoded length mismatch"));
        }
        Ok((out, meta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_core::{DType, SerialAdapter, Shape};

    #[test]
    fn lossless_byte_roundtrip() {
        let adapter = SerialAdapter::new();
        let data: Vec<f32> = (0..500).map(|i| ((i / 7) as f32) * 0.5).collect();
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        let meta = ArrayMeta::new(DType::F32, Shape::new(&[500]));
        let r = ByteHuffmanReducer::default();
        assert!(r.is_lossless());
        let stream = r.compress(&adapter, &bytes, &meta).unwrap();
        let (out, meta2) = r.decompress(&adapter, &stream).unwrap();
        assert_eq!(out, bytes);
        assert_eq!(meta2, meta);
    }

    #[test]
    fn repetitive_bytes_compress() {
        let adapter = SerialAdapter::new();
        let bytes = vec![42u8; 40_000];
        let meta = ArrayMeta::new(DType::F32, Shape::new(&[10_000]));
        let r = ByteHuffmanReducer::default();
        let stream = r.compress(&adapter, &bytes, &meta).unwrap();
        assert!(stream.len() < bytes.len() / 4);
    }
}
