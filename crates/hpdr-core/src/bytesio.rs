//! Little-endian binary serialization helpers.
//!
//! All HPDR stream formats are fixed little-endian so compressed data is
//! portable across architectures — part of the paper's portability claim.

use crate::error::{HpdrError, Result};

/// Append-only little-endian writer over a `Vec<u8>`.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> ByteWriter {
        ByteWriter { buf: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> ByteWriter {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
    /// Length-prefixed byte block (u64 length).
    pub fn put_block(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.put_bytes(v);
    }
    /// Length-prefixed UTF-8 string (u32 length).
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.put_bytes(s.as_bytes());
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// A `u32` magic + `u8` version frame shared by the versioned HPDR
/// formats: MGARD-X and ZFP-X streams, the BP metadata index and the
/// progressive component manifest. Each format declares one constant
/// `FrameHeader` and uses it on both sides, so the framing — and the
/// corruption error wording — stays identical everywhere. (The
/// Huffman-X, cuSZ-like, lz4-like and pipeline containers predate it
/// and start with a bare `u32` magic.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    pub magic: u32,
    pub version: u8,
    /// Container family name used in error messages ("MGARD-X", …).
    pub what: &'static str,
}

impl FrameHeader {
    pub const fn new(magic: u32, version: u8, what: &'static str) -> FrameHeader {
        FrameHeader {
            magic,
            version,
            what,
        }
    }

    /// Number of bytes the frame occupies at the head of a stream.
    pub const LEN: usize = 5;

    /// Emit the magic + version prefix.
    pub fn write(&self, w: &mut ByteWriter) {
        w.put_u32(self.magic);
        w.put_u8(self.version);
    }

    /// Consume and check the prefix, distinguishing a foreign stream
    /// (bad magic) from a future format revision (bad version).
    pub fn read(&self, r: &mut ByteReader<'_>) -> Result<()> {
        if r.get_u32()? != self.magic {
            return Err(HpdrError::corrupt(format!("bad {} magic", self.what)));
        }
        if r.get_u8()? != self.version {
            return Err(HpdrError::corrupt(format!(
                "unsupported {} version",
                self.what
            )));
        }
        Ok(())
    }
}

/// Bounds-checked little-endian reader over a byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    fn need(&self, n: usize) -> Result<()> {
        if self.pos + n > self.buf.len() {
            Err(HpdrError::corrupt(format!(
                "unexpected end of stream at offset {} (need {} of {} bytes)",
                self.pos,
                n,
                self.buf.len()
            )))
        } else {
            Ok(())
        }
    }

    pub fn get_u8(&mut self) -> Result<u8> {
        self.need(1)?;
        let v = self.buf[self.pos];
        self.pos += 1;
        Ok(v)
    }

    pub fn get_u16(&mut self) -> Result<u16> {
        self.need(2)?;
        let v = u16::from_le_bytes(self.buf[self.pos..self.pos + 2].try_into().unwrap());
        self.pos += 2;
        Ok(v)
    }

    pub fn get_u32(&mut self) -> Result<u32> {
        self.need(4)?;
        let v = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap());
        self.pos += 4;
        Ok(v)
    }

    pub fn get_u64(&mut self) -> Result<u64> {
        self.need(8)?;
        let v = u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        Ok(v)
    }

    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(self.get_u64()? as i64)
    }

    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.need(n)?;
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a u64-length-prefixed block (with a sanity cap against
    /// maliciously-huge lengths in corrupt streams).
    pub fn get_block(&mut self) -> Result<&'a [u8]> {
        let n = self.get_u64()? as usize;
        if n > self.remaining() {
            return Err(HpdrError::corrupt(format!(
                "block length {n} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        self.get_bytes(n)
    }

    /// Read a u64 element count and check that that many elements of
    /// `elem_size` bytes still fit in the stream, so a corrupt count can
    /// never size an allocation beyond the input.
    pub fn get_count(&mut self, elem_size: usize) -> Result<usize> {
        let count = self.get_u64()?;
        self.check_count(count, elem_size)
    }

    /// [`ByteReader::get_count`] for a u32 count field.
    pub fn get_count_u32(&mut self, elem_size: usize) -> Result<usize> {
        let count = self.get_u32()?;
        self.check_count(u64::from(count), elem_size)
    }

    fn check_count(&self, count: u64, elem_size: usize) -> Result<usize> {
        usize::try_from(count)
            .ok()
            .filter(|&n| {
                n.checked_mul(elem_size)
                    .is_some_and(|b| b <= self.remaining())
            })
            .ok_or_else(|| {
                HpdrError::corrupt(format!(
                    "count {count} of {elem_size}-byte entries exceeds remaining {} bytes",
                    self.remaining()
                ))
            })
    }

    pub fn get_str(&mut self) -> Result<String> {
        let n = self.get_u32()? as usize;
        let bytes = self.get_bytes(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| HpdrError::corrupt("invalid utf-8 in string field"))
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn position(&self) -> usize {
        self.pos
    }

    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Fail unless the stream was fully consumed.
    pub fn expect_exhausted(&self) -> Result<()> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(HpdrError::corrupt(format!(
                "{} trailing bytes after stream end",
                self.remaining()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_i64(-42);
        w.put_f64(3.5);
        w.put_str("hpdr");
        w.put_block(&[1, 2, 3]);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 300);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), 3.5);
        assert_eq!(r.get_str().unwrap(), "hpdr");
        assert_eq!(r.get_block().unwrap(), &[1, 2, 3]);
        assert!(r.expect_exhausted().is_ok());
    }

    #[test]
    fn underflow_errors() {
        let buf = [1u8, 2];
        let mut r = ByteReader::new(&buf);
        assert!(r.get_u64().is_err());
        assert_eq!(r.get_u16().unwrap(), 0x0201);
        assert!(r.get_u8().is_err());
    }

    #[test]
    fn oversized_block_rejected() {
        let mut w = ByteWriter::new();
        w.put_u64(1 << 50); // lies about length
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert!(r.get_block().is_err());
    }

    #[test]
    fn counts_are_bounded_by_remaining_bytes() {
        let mut w = ByteWriter::new();
        w.put_u64(2);
        w.put_bytes(&[0; 16]);
        let buf = w.into_vec();
        assert_eq!(ByteReader::new(&buf).get_count(8).unwrap(), 2);
        assert!(ByteReader::new(&buf).get_count(9).is_err());
        let mut w = ByteWriter::new();
        w.put_u64(1 << 62); // count × 16 overflows usize
        assert!(ByteReader::new(w.as_slice()).get_count(16).is_err());
        let mut w = ByteWriter::new();
        w.put_u32(3);
        w.put_bytes(&[0; 15]);
        assert_eq!(ByteReader::new(w.as_slice()).get_count_u32(5).unwrap(), 3);
        assert!(ByteReader::new(w.as_slice()).get_count_u32(6).is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let buf = [0u8; 3];
        let mut r = ByteReader::new(&buf);
        r.get_u8().unwrap();
        assert!(r.expect_exhausted().is_err());
    }

    #[test]
    fn frame_header_roundtrip_and_rejections() {
        const FRAME: FrameHeader = FrameHeader::new(0xABCD_0102, 3, "test");
        let mut w = ByteWriter::new();
        FRAME.write(&mut w);
        w.put_u8(9);
        let buf = w.into_vec();
        assert_eq!(buf.len(), FrameHeader::LEN + 1);
        let mut r = ByteReader::new(&buf);
        FRAME.read(&mut r).unwrap();
        assert_eq!(r.get_u8().unwrap(), 9);

        // Wrong magic names the family.
        let mut r = ByteReader::new(&buf);
        let err = FrameHeader::new(0xABCD_0103, 3, "test")
            .read(&mut r)
            .unwrap_err();
        assert!(err.to_string().contains("bad test magic"), "{err}");
        // Wrong version is a distinct error.
        let mut r = ByteReader::new(&buf);
        let err = FrameHeader::new(0xABCD_0102, 4, "test")
            .read(&mut r)
            .unwrap_err();
        assert!(
            err.to_string().contains("unsupported test version"),
            "{err}"
        );
        // Truncated stream fails cleanly.
        let mut r = ByteReader::new(&buf[..3]);
        assert!(FRAME.read(&mut r).is_err());
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut w = ByteWriter::new();
        w.put_u32(2);
        w.put_bytes(&[0xff, 0xfe]);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert!(r.get_str().is_err());
    }
}
