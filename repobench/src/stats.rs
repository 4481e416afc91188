//! Sample summaries: median, quartiles and tail percentiles.

/// Median, quartiles and sample count of one metric over a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A value measured once (or exactly determined), with its count.
    pub fn single(value: f64, n: usize) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n,
        }
    }
}

/// Linear-interpolation quantile of an ascending slice (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        median: quantile(&s, 0.5),
        q1: quantile(&s, 0.25),
        q3: quantile(&s, 0.75),
        n: s.len(),
    }
}

/// The `q` quantile plus how many samples lie strictly above it — a
/// tail percentile is reported only with the count that supports it.
pub fn tail(samples: &[f64], q: f64) -> (f64, usize) {
    let s = sorted(samples);
    let v = quantile(&s, q);
    (v, s.iter().filter(|&&x| x > v).count())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert_eq!(summarize(&[1.0, 2.0]).median, 1.5);
    }

    #[test]
    fn tail_counts_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p99, beyond) = tail(&samples, 0.99);
        assert!((p99 - 990.01).abs() < 1e-9);
        assert_eq!(beyond, 10);
    }
}
