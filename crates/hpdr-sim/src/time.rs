//! Virtual time representation.
//!
//! All simulated activity is accounted in virtual nanoseconds. One byte per
//! nanosecond equals exactly 1 GB/s, which makes bandwidth arithmetic
//! trivially readable: `bytes as f64 / gbps` is a duration in nanoseconds.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A span or instant of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ns(pub u64);

impl Ns {
    pub const ZERO: Ns = Ns(0);

    /// Construct from seconds.
    pub fn from_secs_f64(s: f64) -> Ns {
        Ns((s * 1e9).round().max(0.0) as u64)
    }

    /// Construct from microseconds.
    pub fn from_micros(us: u64) -> Ns {
        Ns(us * 1_000)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> Ns {
        Ns(ms * 1_000_000)
    }

    /// The span as floating-point seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Ns) -> Ns {
        Ns(self.0.saturating_sub(other.0))
    }

    pub fn max(self, other: Ns) -> Ns {
        Ns(self.0.max(other.0))
    }

    pub fn min(self, other: Ns) -> Ns {
        Ns(self.0.min(other.0))
    }

    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Ns {
    type Output = Ns;
    fn add(self, rhs: Ns) -> Ns {
        Ns(self.0 + rhs.0)
    }
}

impl AddAssign for Ns {
    fn add_assign(&mut self, rhs: Ns) {
        self.0 += rhs.0;
    }
}

impl Sub for Ns {
    type Output = Ns;
    fn sub(self, rhs: Ns) -> Ns {
        Ns(self.0 - rhs.0)
    }
}

impl Sum for Ns {
    fn sum<I: Iterator<Item = Ns>>(iter: I) -> Ns {
        Ns(iter.map(|n| n.0).sum())
    }
}

impl fmt::Display for Ns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if v >= 1_000_000_000 {
            write!(f, "{:.3}s", v as f64 / 1e9)
        } else if v >= 1_000_000 {
            write!(f, "{:.3}ms", v as f64 / 1e6)
        } else if v >= 1_000 {
            write!(f, "{:.3}us", v as f64 / 1e3)
        } else {
            write!(f, "{v}ns")
        }
    }
}

/// Throughput helper: gigabytes per second over a span.
pub fn gbps(bytes: u64, elapsed: Ns) -> f64 {
    if elapsed.is_zero() {
        return f64::INFINITY;
    }
    bytes as f64 / elapsed.0 as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_display_units() {
        assert_eq!(Ns(12).to_string(), "12ns");
        assert_eq!(Ns(12_000).to_string(), "12.000us");
        assert_eq!(Ns(12_000_000).to_string(), "12.000ms");
        assert_eq!(Ns(12_000_000_000).to_string(), "12.000s");
    }

    #[test]
    fn ns_arithmetic() {
        assert_eq!(Ns(5) + Ns(7), Ns(12));
        assert_eq!(Ns(7) - Ns(5), Ns(2));
        assert_eq!(Ns(5).saturating_sub(Ns(7)), Ns::ZERO);
        assert_eq!(Ns::from_millis(1), Ns(1_000_000));
        assert_eq!(Ns::from_micros(1), Ns(1_000));
        assert_eq!(Ns::from_secs_f64(0.5), Ns(500_000_000));
    }

    #[test]
    fn one_byte_per_ns_is_one_gbps() {
        assert!((gbps(1_000, Ns(1_000)) - 1.0).abs() < 1e-12);
        assert!((gbps(16_000, Ns(1_000)) - 16.0).abs() < 1e-12);
    }

    #[test]
    fn gbps_of_zero_span_is_infinite() {
        assert!(gbps(10, Ns::ZERO).is_infinite());
    }

    #[test]
    fn ns_sum() {
        let total: Ns = [Ns(1), Ns(2), Ns(3)].into_iter().sum();
        assert_eq!(total, Ns(6));
    }
}
