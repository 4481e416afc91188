//! N-dimensional array shapes (row-major, last dimension fastest).

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
    #[should_panic(expected = "zero-sized")]
    fn new_rejects_zero_dim() {
        Shape::new(&[4, 0]);
    }
}
