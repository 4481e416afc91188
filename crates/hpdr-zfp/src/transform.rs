//! ZFP's near-orthogonal integer lifting transform over 4^d blocks
//! (paper §IV-C "customized near-orthogonal transformation").
//!
//! The forward lift averages/differences pairs with arithmetic shifts;
//! the inverse reconstructs up to one fixed-point ulp per lift (the
//! transform is *near*-orthogonal, not bit-reversible). Fixed-point
//! headroom below the float mantissa absorbs the roundoff.

/// Forward transform of a 4^d block (row-major, d = 1..=3).
///
/// Dispatches through [`hpdr_kernels::simd`]: every tier runs the same
/// wrapping lift ladder (a corrupt stream decodes to garbage rather than
/// panicking), byte-identical across tiers.
pub fn fwd_transform(block: &mut [i64], d: usize) {
    (hpdr_kernels::kernels().zfp_fwd_transform)(block, d)
}

/// Inverse transform of a 4^d block (reverse axis order).
pub fn inv_transform(block: &mut [i64], d: usize) {
    (hpdr_kernels::kernels().zfp_inv_transform)(block, d)
}

/// Coefficient permutation ordering a 4^d block by total sequency
/// (low-frequency coefficients first), ties broken by index — the
/// serialization order used before bit-plane truncation.
pub fn sequency_order(d: usize) -> Vec<usize> {
    let n = 4usize.pow(d as u32);
    let mut idx: Vec<usize> = (0..n).collect();
    let degree = |i: usize| -> usize {
        let mut rem = i;
        let mut sum = 0;
        for _ in 0..d {
            sum += rem % 4;
            rem /= 4;
        }
        sum
    };
    idx.sort_by_key(|&i| (degree(i), i));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_error(vals: [i64; 4]) -> i64 {
        let mut p = vals.to_vec();
        fwd_transform(&mut p, 1);
        inv_transform(&mut p, 1);
        vals.iter()
            .zip(&p)
            .map(|(a, b)| (a - b).abs())
            .max()
            .unwrap()
    }

    #[test]
    fn lift_roundtrip_within_one_ulp_ladder() {
        // The pair ladder loses at most a couple of fixed-point units.
        for vals in [
            [0i64, 0, 0, 0],
            [100, 200, 300, 400],
            [-5, 7, -11, 13],
            [1 << 40, -(1 << 39), 12345, -6789],
            [i64::MAX >> 8, i64::MIN >> 8, 0, 1],
        ] {
            assert!(roundtrip_error(vals) <= 4, "vals {vals:?}");
        }
    }

    #[test]
    fn lift_exact_on_smooth_ramp() {
        let mut p = vec![0i64, 8, 16, 24];
        let orig = p.clone();
        fwd_transform(&mut p, 1);
        inv_transform(&mut p, 1);
        let err: i64 = orig
            .iter()
            .zip(&p)
            .map(|(a, b)| (a - b).abs())
            .max()
            .unwrap();
        assert!(err <= 2);
    }

    #[test]
    fn fwd_concentrates_energy_on_smooth_data() {
        // A linear ramp should decorrelate to (mean, slope-ish, ~0, ~0).
        let mut p: Vec<i64> = vec![1000, 2000, 3000, 4000];
        fwd_transform(&mut p, 1);
        assert!(p[0].abs() > p[2].abs());
        assert!(p[0].abs() > p[3].abs());
        // The quadratic/cubic coefficients vanish on linear input.
        assert!(p[2].abs() <= 2 && p[3].abs() <= 2, "{p:?}");
    }

    #[test]
    fn transform_roundtrip_3d_bounded_error() {
        let mut block: Vec<i64> = (0..64)
            .map(|i| ((i as i64 * 977) % 4001 - 2000) << 20)
            .collect();
        let orig = block.clone();
        fwd_transform(&mut block, 3);
        inv_transform(&mut block, 3);
        let max_err = orig
            .iter()
            .zip(&block)
            .map(|(a, b)| (a - b).abs())
            .max()
            .unwrap();
        // Error stays within a few fixed-point units per lift pass.
        assert!(max_err <= 32, "max_err={max_err}");
    }

    #[test]
    fn transform_roundtrip_2d_and_1d() {
        for d in [1usize, 2] {
            let n = 4usize.pow(d as u32);
            let mut block: Vec<i64> = (0..n).map(|i| ((i as i64 * 31) % 97 - 48) << 24).collect();
            let orig = block.clone();
            fwd_transform(&mut block, d);
            inv_transform(&mut block, d);
            let max_err = orig
                .iter()
                .zip(&block)
                .map(|(a, b)| (a - b).abs())
                .max()
                .unwrap();
            assert!(max_err <= 16, "d={d} max_err={max_err}");
        }
    }

    #[test]
    fn sequency_order_is_a_permutation() {
        for d in 1..=3usize {
            let n = 4usize.pow(d as u32);
            let perm = sequency_order(d);
            let mut seen = vec![false; n];
            for &p in &perm {
                assert!(!seen[p]);
                seen[p] = true;
            }
            assert!(seen.into_iter().all(|b| b));
            // DC coefficient first.
            assert_eq!(perm[0], 0);
            // Last coefficient is the all-high corner.
            assert_eq!(perm[n - 1], n - 1);
        }
    }
}
