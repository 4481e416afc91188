//! Interval arithmetic over a trace's timeline: the one copy of the
//! merge, length and intersection steps that [`crate::digest`] uses for
//! the paper §V-C overlap ratio.
//!
//! ```text
//! Overlap = Total overlapped H2D and D2H time / Total H2D and D2H time
//! ```
//!
//! A DMA-busy instant counts as *overlapped* if the owning device is
//! concurrently doing anything else (compute, or the opposite-direction
//! DMA).

use hpdr_sim::Ns;

/// Merge possibly-overlapping intervals into a disjoint sorted list,
/// in place (no allocation beyond the input's own buffer).
pub(crate) fn merge_in_place(iv: &mut Vec<(Ns, Ns)>) {
    iv.sort_unstable();
    let mut w = 0;
    for i in 0..iv.len() {
        let (s, e) = iv[i];
        if s >= e {
            continue;
        }
        if w > 0 && s <= iv[w - 1].1 {
            iv[w - 1].1 = iv[w - 1].1.max(e);
        } else {
            iv[w] = (s, e);
            w += 1;
        }
    }
    iv.truncate(w);
}

pub(crate) fn total(iv: &[(Ns, Ns)]) -> Ns {
    iv.iter().map(|&(s, e)| e - s).sum()
}

/// Total length of the intersection of two disjoint sorted interval lists.
pub(crate) fn intersection(a: &[(Ns, Ns)], b: &[(Ns, Ns)]) -> Ns {
    let (mut i, mut j) = (0, 0);
    let mut acc = Ns::ZERO;
    while i < a.len() && j < b.len() {
        let s = a[i].0.max(b[j].0);
        let e = a[i].1.min(b[j].1);
        if s < e {
            acc += e - s;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::tests::{trace, COMPUTE, D2H, H2D, RUNTIME};
    use crate::{digest, Digest};
    use hpdr_sim::{Category, DeviceId, Engine};

    fn digest_of(spans: &[(Engine, u64, u64)]) -> Digest {
        digest(&trace(spans), DeviceId(0))
    }

    #[test]
    fn merge_coalesces_adjacent_and_overlapping() {
        let mut m = vec![
            (Ns(5), Ns(10)),
            (Ns(0), Ns(5)),
            (Ns(8), Ns(12)),
            (Ns(20), Ns(21)),
        ];
        merge_in_place(&mut m);
        assert_eq!(m, vec![(Ns(0), Ns(12)), (Ns(20), Ns(21))]);
        assert_eq!(total(&m), Ns(13));
    }

    #[test]
    fn intersection_counts_shared_time() {
        let a = vec![(Ns(0), Ns(10)), (Ns(20), Ns(30))];
        let b = vec![(Ns(5), Ns(25))];
        assert_eq!(intersection(&a, &b), Ns(10)); // 5..10 and 20..25
    }

    #[test]
    fn makespan_is_last_end() {
        assert_eq!(trace(&[(COMPUTE, 0, 10), (H2D, 3, 25)]).makespan(), Ns(25));
    }

    #[test]
    fn full_overlap_ratio_is_one() {
        let d = digest_of(&[(COMPUTE, 0, 100), (H2D, 10, 40), (D2H, 50, 90)]);
        assert_eq!(d.overlap, Some(1.0));
    }

    #[test]
    fn no_overlap_ratio_is_zero() {
        // Copy, kernel, copy back to back: touching is not overlapping.
        let d = digest_of(&[(H2D, 0, 10), (COMPUTE, 10, 20), (D2H, 20, 30)]);
        assert_eq!(d.overlap, Some(0.0));
    }

    #[test]
    fn partial_overlap_ratio() {
        // H2D busy 0..20; compute busy 10..30 ⇒ 10 of 20 DMA ns overlapped.
        let d = digest_of(&[(H2D, 0, 20), (COMPUTE, 10, 30)]);
        assert_eq!(d.overlap, Some(0.5));
    }

    #[test]
    fn h2d_overlapping_d2h_counts() {
        let d = digest_of(&[(H2D, 0, 10), (D2H, 0, 10)]);
        assert_eq!(d.overlap, Some(1.0));
    }

    #[test]
    fn overlap_none_without_dma() {
        assert_eq!(digest_of(&[(COMPUTE, 0, 10)]).overlap, None);
    }

    #[test]
    fn memory_fraction_counts_dma_and_mgmt() {
        let d = digest_of(&[(H2D, 0, 30), (COMPUTE, 30, 40), (RUNTIME, 40, 50)]);
        // mem = 30 + 10; all = 50.
        assert!((d.memory_fraction() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn breakdown_sums_by_category() {
        let d = digest_of(&[(H2D, 0, 5), (H2D, 5, 9), (COMPUTE, 0, 7)]);
        // Durations sum per category, in `Category::ALL` order.
        assert_eq!(d.busy, [Ns(9), Ns::ZERO, Ns(7), Ns::ZERO, Ns::ZERO]);
        assert_eq!(
            d.busy_by_category().collect::<Vec<_>>(),
            vec![(Category::H2D, Ns(9)), (Category::Compute, Ns(7))]
        );
    }
}
