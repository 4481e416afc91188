//! Key sorting primitives.
//!
//! Codebook generation sorts (frequency, symbol) pairs (paper Alg. 2
//! line 2). Dictionary sizes are small (≤ 64 Ki symbols), but we provide
//! an LSD radix sort so the operation stays O(n) and deterministic.

/// Stable LSD radix sort of `(key, value)` pairs by `key`, ascending.
pub fn radix_sort_by_key(pairs: &mut Vec<(u64, u32)>) {
    let n = pairs.len();
    if n <= 1 {
        return;
    }
    let mut src = std::mem::take(pairs);
    let mut dst = vec![(0u64, 0u32); n];
    for shift in (0..64).step_by(8) {
        let mut counts = [0usize; 256];
        for &(k, _) in &src {
            counts[((k >> shift) & 0xFF) as usize] += 1;
        }
        // Skip passes where all keys share the same byte.
        if counts.contains(&n) {
            continue;
        }
        let mut offsets = [0usize; 256];
        let mut acc = 0;
        for b in 0..256 {
            offsets[b] = acc;
            acc += counts[b];
        }
        for &(k, v) in &src {
            let b = ((k >> shift) & 0xFF) as usize;
            dst[offsets[b]] = (k, v);
            offsets[b] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    *pairs = src;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix_sorts_ascending() {
        let mut pairs: Vec<(u64, u32)> = (0..10_000u32)
            .map(|i| (((i as u64).wrapping_mul(0x9E3779B97F4A7C15)) >> 3, i))
            .collect();
        radix_sort_by_key(&mut pairs);
        for w in pairs.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn radix_is_stable() {
        let mut pairs = vec![(5u64, 0u32), (5, 1), (3, 2), (5, 3), (3, 4)];
        radix_sort_by_key(&mut pairs);
        assert_eq!(pairs, vec![(3, 2), (3, 4), (5, 0), (5, 1), (5, 3)]);
    }

    #[test]
    fn radix_handles_trivial() {
        let mut empty: Vec<(u64, u32)> = vec![];
        radix_sort_by_key(&mut empty);
        assert!(empty.is_empty());
        let mut one = vec![(7u64, 1u32)];
        radix_sort_by_key(&mut one);
        assert_eq!(one, vec![(7, 1)]);
    }
}
