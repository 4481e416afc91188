//! Output checks shared by the workloads.

use hpdr_core::{ArrayMeta, DType, Float};

/// Digest of a container or output buffer, compared across passes.
pub fn digest(bytes: &[u8]) -> u64 {
    hpdr_core::fnv1a(bytes)
}

fn values(bytes: &[u8], dtype: DType) -> Vec<f64> {
    match dtype {
        DType::F32 => f32::bytes_to_vec(bytes)
            .into_iter()
            .map(f64::from)
            .collect(),
        DType::F64 => f64::bytes_to_vec(bytes),
    }
}

/// Value range and largest magnitude of a raw field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Extent {
    pub range: f64,
    pub max_abs: f64,
}

pub fn extent(bytes: &[u8], dtype: DType) -> Extent {
    let v = values(bytes, dtype);
    let (mn, mx) = v
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &x| {
            (a.min(x), b.max(x))
        });
    Extent {
        range: mx - mn,
        max_abs: mn.abs().max(mx.abs()),
    }
}

/// `max |x − x̂|`, or `None` when the lengths differ or an output value
/// is not finite.
pub fn max_abs_err(orig: &[u8], out: &[u8], dtype: DType) -> Option<f64> {
    if orig.len() != out.len() {
        return None;
    }
    let (a, b) = (values(orig, dtype), values(out, dtype));
    let mut worst = 0.0f64;
    for (x, y) in a.iter().zip(&b) {
        if !y.is_finite() {
            return None;
        }
        worst = worst.max((x - y).abs());
    }
    Some(worst)
}

/// Whether an error meets an absolute bound, allowing the rounding of
/// the reconstruction to the field's own precision.
pub fn within(err: f64, bound: f64, e: Extent, dtype: DType) -> bool {
    let ulp = match dtype {
        DType::F32 => f32::EPSILON as f64,
        DType::F64 => f64::EPSILON,
    };
    err <= bound + e.max_abs * ulp
}

/// Check one reconstruction against its original: lossless codecs must
/// be bit-exact, bounded codecs must meet `rel_bound × range`, unbounded
/// ones must at least return finite values of the right size. Returns
/// the relative error on success.
pub fn reconstruction(
    orig: &[u8],
    out: &[u8],
    out_meta: &ArrayMeta,
    meta: &ArrayMeta,
    lossless: bool,
    rel_bound: Option<f64>,
) -> Result<f64, String> {
    if out_meta != meta {
        return Err(format!("metadata {out_meta:?} differs from {meta:?}"));
    }
    if lossless {
        return if orig == out {
            Ok(0.0)
        } else {
            Err("lossless output is not bit-exact".into())
        };
    }
    let e = extent(orig, meta.dtype);
    let err =
        max_abs_err(orig, out, meta.dtype).ok_or("output has wrong length or non-finite values")?;
    if let Some(rel) = rel_bound {
        if !within(err, rel * e.range, e, meta.dtype) {
            return Err(format!("error {err} exceeds bound {}", rel * e.range));
        }
    }
    Ok(if e.range > 0.0 { err / e.range } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_core::Shape;

    #[test]
    fn bound_and_exactness() {
        let meta = ArrayMeta::new(DType::F32, Shape::new(&[4]));
        let a = f32::slice_to_bytes(&[0.0, 1.0, 2.0, 4.0]);
        let b = f32::slice_to_bytes(&[0.0, 1.0, 2.0, 4.01]);
        assert_eq!(reconstruction(&a, &a, &meta, &meta, true, None), Ok(0.0));
        assert!(reconstruction(&a, &b, &meta, &meta, true, None).is_err());
        let rel = reconstruction(&a, &b, &meta, &meta, false, Some(1e-2)).unwrap();
        assert!((rel - 0.0025).abs() < 1e-6);
        assert!(reconstruction(&a, &b, &meta, &meta, false, Some(1e-3)).is_err());
        assert!(reconstruction(&a, &b, &meta, &meta, false, None).is_ok());
    }
}
