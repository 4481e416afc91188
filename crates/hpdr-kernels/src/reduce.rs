//! Device-parallel min/max reduction over float slices.

use hpdr_core::{DeviceAdapter, Float, SharedSlice};

/// Per-chunk partial results combined on the host.
fn chunked_reduce<T: Float, R: Copy + Send + Sync>(
    adapter: &dyn DeviceAdapter,
    data: &[T],
    identity: R,
    local: impl Fn(&[T]) -> R + Sync,
    combine: impl Fn(R, R) -> R,
) -> R {
    let n = data.len();
    if n == 0 {
        return identity;
    }
    let chunks = adapter.info().threads.clamp(1, 64);
    let chunk = n.div_ceil(chunks);
    let mut partial = vec![identity; chunks];
    {
        let partial_sh = SharedSlice::new(&mut partial);
        adapter.dem(chunks, &|c| {
            let lo = c * chunk;
            let hi = ((c + 1) * chunk).min(n);
            if lo < hi {
                // Safety: each chunk id writes only its own slot.
                unsafe { partial_sh.write(c, local(&data[lo..hi])) };
            }
        });
    }
    partial.into_iter().fold(identity, combine)
}

/// Minimum and maximum of a slice via the width-specific SIMD kernel.
/// Returns `(NaN, NaN)` if any element is NaN (infinities propagate), so
/// finiteness of the pair doubles as the input finiteness check; `(0, 0)`
/// if empty.
pub fn min_max<T: Float>(adapter: &dyn DeviceAdapter, data: &[T]) -> (T, T) {
    if data.is_empty() {
        return (T::ZERO, T::ZERO);
    }
    let identity = (T::from_f64(f64::INFINITY), T::from_f64(f64::NEG_INFINITY));
    chunked_reduce(
        adapter,
        data,
        identity,
        |chunk| {
            let k = crate::simd::kernels();
            if let Some(v) = T::as_f32_slice(chunk) {
                let (mn, mx) = (k.min_max_f32)(v);
                (T::from_f64(mn as f64), T::from_f64(mx as f64))
            } else if let Some(v) = T::as_f64_slice(chunk) {
                let (mn, mx) = (k.min_max_f64)(v);
                (T::from_f64(mn), T::from_f64(mx))
            } else {
                let mut mn = identity.0;
                let mut mx = identity.1;
                let mut nan = false;
                for &v in chunk {
                    nan |= v.partial_cmp(&v).is_none();
                    mn = if v < mn { v } else { mn };
                    mx = if v > mx { v } else { mx };
                }
                if nan {
                    (T::from_f64(f64::NAN), T::from_f64(f64::NAN))
                } else {
                    (mn, mx)
                }
            }
        },
        // NaN poison from any chunk must survive the combine, so the
        // comparison keeps the accumulator (first arg) on unordered.
        |(amn, amx), (bmn, bmx)| {
            if bmn.partial_cmp(&bmn).is_none() {
                (bmn, bmx)
            } else {
                (
                    if bmn < amn { bmn } else { amn },
                    if bmx > amx { bmx } else { amx },
                )
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_core::{CpuParallelAdapter, SerialAdapter};

    #[test]
    fn min_max_matches_reference() {
        let adapter = CpuParallelAdapter::new(4);
        let data: Vec<f64> = (0..10_001)
            .map(|i| ((i * 37) % 1000) as f64 - 500.0)
            .collect();
        let (mn, mx) = min_max(&adapter, &data);
        assert_eq!(mn, data.iter().cloned().fold(f64::INFINITY, f64::min));
        assert_eq!(mx, data.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    }

    #[test]
    fn min_max_empty_and_single() {
        let adapter = SerialAdapter::new();
        assert_eq!(min_max::<f32>(&adapter, &[]), (0.0, 0.0));
        assert_eq!(min_max(&adapter, &[42.0f32]), (42.0, 42.0));
    }
}
