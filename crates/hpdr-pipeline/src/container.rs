//! Chunked stream container.
//!
//! A pipelined reduction compresses the array in leading-dimension chunks
//! (each chunk is an independent codec stream, which is what lets the
//! pipeline overlap transfers with compute — and what costs compression
//! ratio when chunks are small, paper Fig. 14). The container records the
//! codec, array metadata and per-chunk streams.

use hpdr_core::{ArrayMeta, ByteReader, ByteWriter, HpdrError, Result};

const MAGIC: u32 = 0x4850_4331; // "HPC1"

/// A chunked compressed array.
#[derive(Debug, Clone, PartialEq)]
pub struct Container {
    pub reducer: String,
    pub meta: ArrayMeta,
    /// `(rows, stream)` per chunk, in leading-dimension order.
    pub chunks: Vec<(usize, Vec<u8>)>,
}

impl Container {
    pub fn total_stream_bytes(&self) -> u64 {
        self.chunks.iter().map(|(_, s)| s.len() as u64).sum()
    }

    /// Serialized container size (streams + metadata).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(self.total_stream_bytes() as usize + 128);
        w.put_u32(MAGIC);
        w.put_str(&self.reducer);
        self.meta.write(&mut w);
        w.put_u32(self.chunks.len() as u32);
        for (rows, stream) in &self.chunks {
            w.put_u64(*rows as u64);
            w.put_block(stream);
        }
        w.into_vec()
    }

    pub fn from_bytes(bytes: &[u8]) -> Result<Container> {
        let mut r = ByteReader::new(bytes);
        if r.get_u32()? != MAGIC {
            return Err(HpdrError::corrupt("bad container magic"));
        }
        let reducer = r.get_str()?;
        let meta = ArrayMeta::read(&mut r)?;
        // Each chunk is at least its u64 row count and u64 block length.
        let n_chunks = r.get_count_u32(16)?;
        let mut chunks = Vec::with_capacity(n_chunks);
        let mut total_rows = 0usize;
        for _ in 0..n_chunks {
            let rows = r.get_u64()? as usize;
            total_rows = total_rows
                .checked_add(rows)
                .ok_or_else(|| HpdrError::corrupt("chunk rows overflow"))?;
            let stream = r.get_block()?.to_vec();
            chunks.push((rows, stream));
        }
        r.expect_exhausted()?;
        let leading = meta.shape.dims()[0];
        if total_rows != leading {
            return Err(HpdrError::corrupt(format!(
                "chunk rows {total_rows} do not cover leading dim {leading}"
            )));
        }
        Ok(Container {
            reducer,
            meta,
            chunks,
        })
    }
}

/// Chunk row counts are aligned to multiples of this many rows (except
/// the final remainder): ZFP's 4^d blocks pad any slab thinner than 4
/// rows, and MGARD's hierarchy degenerates on 1–3 row slabs, so real
/// chunked deployments align to the block granularity.
pub const ROW_ALIGN: usize = 4;

fn align_rows(rows: usize, left: usize) -> usize {
    let aligned = rows.div_ceil(ROW_ALIGN) * ROW_ALIGN;
    aligned.clamp(1, left)
}

/// Split `total_rows` into chunk row counts of roughly `chunk_bytes`
/// each (aligned to [`ROW_ALIGN`]), given `row_bytes` per row.
pub fn fixed_chunks(total_rows: usize, row_bytes: usize, chunk_bytes: usize) -> Vec<usize> {
    let rows_per = (chunk_bytes / row_bytes.max(1)).max(1);
    let mut out = Vec::new();
    let mut left = total_rows;
    while left > 0 {
        let r = align_rows(rows_per.min(left), left);
        out.push(r);
        left -= r;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_core::{DType, Shape};

    #[test]
    fn roundtrip() {
        let c = Container {
            reducer: "mgard-x".into(),
            meta: ArrayMeta::new(DType::F32, Shape::new(&[10, 4])),
            chunks: vec![(6, vec![1, 2, 3]), (4, vec![9, 8])],
        };
        let bytes = c.to_bytes();
        assert_eq!(Container::from_bytes(&bytes).unwrap(), c);
    }

    #[test]
    fn row_coverage_validated() {
        let c = Container {
            reducer: "zfp-x".into(),
            meta: ArrayMeta::new(DType::F32, Shape::new(&[10])),
            chunks: vec![(4, vec![]), (4, vec![])], // only 8 of 10 rows
        };
        assert!(Container::from_bytes(&c.to_bytes()).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let c = Container {
            reducer: "x".into(),
            meta: ArrayMeta::new(DType::F64, Shape::new(&[2])),
            chunks: vec![(2, vec![5; 100])],
        };
        let bytes = c.to_bytes();
        for cut in [0, 4, 10, bytes.len() - 1] {
            assert!(Container::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn fixed_chunking_covers_exactly() {
        for (rows, rb, cb) in [(100, 40, 400), (7, 1000, 100), (1, 8, 1 << 20)] {
            let chunks = fixed_chunks(rows, rb, cb);
            assert_eq!(chunks.iter().sum::<usize>(), rows);
            assert!(chunks.iter().all(|&r| r > 0));
        }
        // 400-byte chunks of 40-byte rows = 10 rows, aligned up to 12.
        assert_eq!(fixed_chunks(25, 40, 400), vec![12, 12, 1]);
    }
}
