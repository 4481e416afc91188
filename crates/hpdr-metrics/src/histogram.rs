//! Streaming latency histogram (HDR-style log-linear buckets).
//!
//! The serving layer records one latency per completed job; quantiles
//! must come from bounded memory (a real server cannot keep every
//! sample) while staying deterministic and provably close to the exact
//! order statistics. Buckets are log-linear: 32 linear sub-buckets per
//! power of two, so the relative bucket width — and therefore the
//! maximum quantile error — is ≤ 1/32 ≈ 3.1%. The property tests in
//! `tests/serve.rs` check the "within one bucket width" guarantee
//! against sorted-array quantiles.

/// Linear sub-buckets per octave (2^5 = 32).
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

/// Index of the bucket containing `v`.
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let octave = (msb - SUB_BITS) as u64;
    let offset = (v >> octave) - SUB;
    (octave as usize * SUB as usize) + SUB as usize + offset as usize
}

/// Highest value mapping to bucket `idx` (the bucket's representative:
/// reporting the upper edge keeps quantiles conservative).
fn bucket_high(idx: usize) -> u64 {
    if idx < SUB as usize {
        return idx as u64;
    }
    let octave = ((idx - SUB as usize) / SUB as usize) as u32;
    let offset = ((idx - SUB as usize) % SUB as usize) as u64;
    ((SUB + offset + 1) << octave) - 1
}

/// Width of bucket `idx` (the quantile error bound for values in it).
pub fn bucket_width(v: u64) -> u64 {
    if v < SUB {
        return 1;
    }
    let octave = 63 - v.leading_zeros() - SUB_BITS;
    1 << octave
}

/// Bounded-memory quantile sketch over `u64` samples (nanoseconds).
#[derive(Debug, Clone, Default)]
pub struct StreamingHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl StreamingHistogram {
    pub fn new() -> StreamingHistogram {
        StreamingHistogram::default()
    }

    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact maximum recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact sum of the recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / self.count as u128) as u64
        }
    }

    /// Nearest-rank quantile: the representative of the bucket holding
    /// the `ceil(q·n)`-th smallest sample. Within one bucket width of
    /// [`exact_quantile`] over the same samples. `q` is clamped to
    /// (0, 1]; returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report past the true maximum.
                return bucket_high(idx).min(self.max);
            }
        }
        self.max
    }
}

/// Exact nearest-rank quantile of an ascending-sorted slice.
pub fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = StreamingHistogram::new();
        for v in [0u64, 1, 5, 17, 31] {
            h.record(v);
        }
        // Below SUB every value has its own bucket.
        assert_eq!(h.quantile(0.2), 0);
        assert_eq!(h.quantile(0.4), 1);
        assert_eq!(h.quantile(1.0), 31);
        assert_eq!(h.max(), 31);
    }

    #[test]
    fn exact_quantile_nearest_rank() {
        let s = [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(exact_quantile(&s, 0.5), 50);
        assert_eq!(exact_quantile(&s, 0.95), 100);
        assert_eq!(exact_quantile(&s, 0.99), 100);
        assert_eq!(exact_quantile(&s, 0.1), 10);
        assert_eq!(exact_quantile(&s, 1.0), 100);
        assert_eq!(exact_quantile(&[], 0.5), 0);
        // Single sample: every quantile is that sample.
        assert_eq!(exact_quantile(&[42], 0.01), 42);
        assert_eq!(exact_quantile(&[42], 0.99), 42);
    }

    #[test]
    fn bucket_index_and_high_are_consistent() {
        for v in (0u64..4096).chain([1 << 20, (1 << 20) + 12345, u64::MAX >> 1]) {
            let idx = bucket_index(v);
            let high = bucket_high(idx);
            assert!(high >= v, "high {high} < v {v}");
            assert!(high - v < bucket_width(v), "v {v} high {high}");
            // The representative maps back to its own bucket.
            assert_eq!(bucket_index(high), idx, "v {v}");
        }
    }

    #[test]
    fn quantile_within_one_bucket_width_of_exact() {
        let mut h = StreamingHistogram::new();
        let mut samples: Vec<u64> = (0..500).map(|i| (i * i * 37 + 1000) % 2_000_000).collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
            let exact = exact_quantile(&samples, q);
            let approx = h.quantile(q);
            assert!(
                approx.abs_diff(exact) < bucket_width(exact).max(1),
                "q={q}: approx {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn mean_and_count() {
        let mut h = StreamingHistogram::new();
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean(), 200);
        assert_eq!(h.sum(), 600);
        assert!(StreamingHistogram::new().is_empty());
        assert_eq!(StreamingHistogram::new().quantile(0.5), 0);
    }

    #[test]
    fn quantile_never_exceeds_max() {
        let mut h = StreamingHistogram::new();
        h.record(1_000_003);
        assert_eq!(h.quantile(0.99), 1_000_003);
        assert_eq!(h.quantile(0.01), 1_000_003);
    }
}
