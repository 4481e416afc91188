//! N-dimensional array shapes (row-major, last dimension fastest) and
//! the array header every container carries.

use crate::bytesio::{ByteReader, ByteWriter};
use crate::error::{HpdrError, Result};
use crate::float::DType;

/// Shape of an n-dimensional array, 1–4 dimensions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    pub fn new(dims: &[usize]) -> Shape {
        assert!(
            !dims.is_empty() && dims.len() <= 4,
            "HPDR supports 1–4 dimensional arrays, got {}",
            dims.len()
        );
        assert!(dims.iter().all(|&d| d > 0), "zero-sized dimension");
        Shape(dims.to_vec())
    }

    /// Fallible constructor for decoding paths: `InvalidArgument` for a
    /// bad rank or a zero dim, `CorruptStream` for more than
    /// `isize::MAX / 8` elements.
    pub fn try_new(dims: &[usize]) -> Result<Shape> {
        if dims.is_empty() || dims.len() > 4 {
            return Err(HpdrError::invalid(format!(
                "shape must have 1..=4 dims, got {}",
                dims.len()
            )));
        }
        if dims.contains(&0) {
            return Err(HpdrError::invalid("zero-sized dimension"));
        }
        // At most 8 bytes per element: `ArrayMeta::num_bytes` and every
        // byte offset into the array then fit an `isize`. No allocation
        // can hold a larger array, so a stream that declares one is
        // corrupt.
        let count = dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
        let fits = matches!(count, Some(n) if n <= isize::MAX as usize / 8);
        if !fits {
            return Err(HpdrError::corrupt(format!(
                "dims {dims:?} hold more than isize::MAX / 8 elements"
            )));
        }
        Ok(Shape(dims.to_vec()))
    }

    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    pub fn ndims(&self) -> usize {
        self.0.len()
    }

    pub fn num_elements(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major strides (in elements).
    pub fn strides(&self) -> Vec<usize> {
        let mut s = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            s[i] = s[i + 1] * self.0[i + 1];
        }
        s
    }

    /// Flat index of a multi-index.
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.0.len());
        let strides = self.strides();
        idx.iter().zip(&strides).map(|(i, s)| i * s).sum()
    }

    /// Multi-index of a flat index.
    pub fn unravel(&self, mut flat: usize) -> Vec<usize> {
        let strides = self.strides();
        let mut idx = vec![0usize; self.0.len()];
        for (k, s) in strides.iter().enumerate() {
            idx[k] = flat / s;
            flat %= s;
        }
        idx
    }

    /// The size of the largest dimension (used by Algorithm 4 chunking,
    /// which splits along the slowest-varying axis).
    pub fn largest_dim(&self) -> usize {
        *self.0.iter().max().unwrap()
    }

    /// Split along the first (slowest) axis into a sub-shape of `rows`
    /// leading entries. Used by pipeline chunking.
    pub fn with_leading(&self, rows: usize) -> Shape {
        let mut d = self.0.clone();
        d[0] = rows;
        Shape(d)
    }

    /// Elements per unit of the leading dimension.
    pub fn row_elements(&self) -> usize {
        self.0[1..].iter().product()
    }

    /// The shape MGARD-X, ZFP-X and progressive refactoring process: a
    /// 4-D shape with its two slowest dims merged into one, any other
    /// shape unchanged. Decorrelation across the merged boundary is
    /// lost; the error bound is not.
    pub fn folded_to_3d(&self) -> Shape {
        match *self.0.as_slice() {
            [a, b, c, d] => Shape(vec![a * b, c, d]),
            _ => self.clone(),
        }
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let strs: Vec<String> = self.0.iter().map(|d| d.to_string()).collect();
        write!(f, "{}", strs.join("x"))
    }
}

/// Metadata fully describing an array buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayMeta {
    pub dtype: DType,
    pub shape: Shape,
}

impl ArrayMeta {
    pub fn new(dtype: DType, shape: Shape) -> ArrayMeta {
        ArrayMeta { dtype, shape }
    }

    pub fn num_bytes(&self) -> usize {
        self.shape.num_elements() * self.dtype.size()
    }

    /// Append the array header every HPDR container carries:
    /// `dtype u8 | rank u8 | dims u64…`.
    pub fn write(&self, w: &mut ByteWriter) {
        w.put_u8(self.dtype.tag());
        w.put_u8(self.shape.ndims() as u8);
        for &d in self.shape.dims() {
            w.put_u64(d as u64);
        }
    }

    /// Parse an array header written by [`ArrayMeta::write`].
    /// `CorruptStream` unless the dtype tag is known, the rank is in
    /// 1..=4, every dim is in 1..=2^40 and [`Shape::try_new`] accepts
    /// the dims.
    pub fn read(r: &mut ByteReader<'_>) -> Result<ArrayMeta> {
        let dtype =
            DType::from_tag(r.get_u8()?).ok_or_else(|| HpdrError::corrupt("unknown dtype tag"))?;
        let rank = r.get_u8()?;
        if !(1..=4).contains(&rank) {
            return Err(HpdrError::corrupt(format!("bad rank {rank}")));
        }
        let mut dims = Vec::with_capacity(rank as usize);
        for _ in 0..rank {
            let d = r.get_u64()?;
            if !(1..=1 << 40).contains(&d) {
                return Err(HpdrError::corrupt(format!("implausible dimension {d}")));
            }
            dims.push(d as usize);
        }
        // With the rank and every dim in range, the element-count bound
        // is the only check left, and it fails as `CorruptStream`.
        Ok(ArrayMeta::new(dtype, Shape::try_new(&dims)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.num_elements(), 24);
    }

    #[test]
    fn offset_unravel_inverse() {
        let s = Shape::new(&[3, 5, 7]);
        for flat in 0..s.num_elements() {
            let idx = s.unravel(flat);
            assert_eq!(s.offset(&idx), flat);
        }
    }

    #[test]
    fn largest_dim_and_leading() {
        let s = Shape::new(&[8, 33, 111, 37]);
        assert_eq!(s.largest_dim(), 111);
        let sub = s.with_leading(2);
        assert_eq!(sub.dims(), &[2, 33, 111, 37]);
        assert_eq!(s.row_elements(), 33 * 111 * 37);
    }

    #[test]
    fn try_new_rejects_bad_shapes() {
        assert!(Shape::try_new(&[]).is_err());
        assert!(Shape::try_new(&[1, 2, 3, 4, 5]).is_err());
        assert!(Shape::try_new(&[3, 0]).is_err());
        assert!(Shape::try_new(&[3, 2]).is_ok());
        assert!(Shape::try_new(&[usize::MAX / 2, 3]).is_err());
        // 2^61 f64 elements would be 2^64 bytes.
        assert!(Shape::try_new(&[1 << 61]).is_err());
        assert!(Shape::try_new(&[isize::MAX as usize / 8 + 1]).is_err());
        assert!(Shape::try_new(&[isize::MAX as usize / 8]).is_ok());
    }

    #[test]
    fn display() {
        assert_eq!(Shape::new(&[512, 512, 512]).to_string(), "512x512x512");
    }

    #[test]
    fn meta_bytes() {
        let m = ArrayMeta::new(DType::F64, Shape::new(&[10, 10]));
        assert_eq!(m.num_bytes(), 800);
    }

    #[test]
    fn folding_merges_the_two_slowest_of_four_dims() {
        assert_eq!(Shape::new(&[2, 3, 5, 7]).folded_to_3d().dims(), &[6, 5, 7]);
        for dims in [&[9][..], &[4, 2], &[3, 4, 5]] {
            assert_eq!(Shape::new(dims).folded_to_3d().dims(), dims);
        }
    }

    #[test]
    fn array_header_roundtrips_and_rejects_every_bad_field() {
        let meta = ArrayMeta::new(DType::F32, Shape::new(&[3, 1 << 10, 2]));
        let mut w = ByteWriter::new();
        meta.write(&mut w);
        let good = w.into_vec();
        assert_eq!(good.len(), 2 + 3 * 8);
        let mut r = ByteReader::new(&good);
        assert_eq!(ArrayMeta::read(&mut r).unwrap(), meta);
        assert!(r.is_exhausted());

        let patched = |at: usize, bytes: &[u8]| {
            let mut b = good.clone();
            b[at..at + bytes.len()].copy_from_slice(bytes);
            ArrayMeta::read(&mut ByteReader::new(&b))
        };
        let corrupt = |got: Result<ArrayMeta>| matches!(got, Err(HpdrError::CorruptStream(_)));
        // Unknown dtype, ranks 0 and 5, dims 0 and 2^40 + 1, and dims
        // 2^40 · 2^10 · 2^20, whose element count is past the bound.
        assert!(corrupt(patched(0, &[2])));
        assert!(corrupt(patched(1, &[0])));
        assert!(corrupt(patched(1, &[5])));
        assert!(corrupt(patched(2, &0u64.to_le_bytes())));
        assert!(corrupt(patched(2, &((1u64 << 40) + 1).to_le_bytes())));
        let widest = patched(2, &(1u64 << 40).to_le_bytes()).unwrap();
        assert_eq!(widest.shape.dims()[0], 1 << 40);
        let mut huge = good.clone();
        huge[2..10].copy_from_slice(&(1u64 << 40).to_le_bytes());
        huge[18..26].copy_from_slice(&(1u64 << 20).to_le_bytes());
        assert!(corrupt(ArrayMeta::read(&mut ByteReader::new(&huge))));
        // A truncated header fails cleanly.
        assert!(corrupt(ArrayMeta::read(&mut ByteReader::new(&good[..9]))));
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn new_rejects_zero_dim() {
        Shape::new(&[4, 0]);
    }
}
