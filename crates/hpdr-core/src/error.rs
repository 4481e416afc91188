//! Error type shared across the HPDR crates.

use std::fmt;

/// Errors produced by HPDR codecs, adapters and I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HpdrError {
    /// The input stream is truncated, has a bad magic/version, or fails a
    /// structural invariant. Decoders must return this instead of panicking.
    CorruptStream(String),
    /// A requested feature/parameter combination is not supported.
    Unsupported(String),
    /// An argument is out of range or inconsistent (e.g. shape/data mismatch).
    InvalidArgument(String),
    /// An underlying (real) I/O error while reading or writing files.
    Io(String),
    /// A stage body panicked on a pool worker; carries the failing
    /// GEM group / DEM item index. The pool itself stays reusable.
    WorkerPanic { group: usize, message: String },
}

impl HpdrError {
    pub fn corrupt(msg: impl Into<String>) -> HpdrError {
        HpdrError::CorruptStream(msg.into())
    }
    pub fn unsupported(msg: impl Into<String>) -> HpdrError {
        HpdrError::Unsupported(msg.into())
    }
    pub fn invalid(msg: impl Into<String>) -> HpdrError {
        HpdrError::InvalidArgument(msg.into())
    }
}

impl fmt::Display for HpdrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HpdrError::CorruptStream(m) => write!(f, "corrupt stream: {m}"),
            HpdrError::Unsupported(m) => write!(f, "unsupported: {m}"),
            HpdrError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            HpdrError::Io(m) => write!(f, "i/o error: {m}"),
            HpdrError::WorkerPanic { group, message } => {
                write!(f, "worker panic at group {group}: {message}")
            }
        }
    }
}

impl From<crate::pool::PoolPanic> for HpdrError {
    fn from(p: crate::pool::PoolPanic) -> Self {
        HpdrError::WorkerPanic {
            group: p.group,
            message: p.message,
        }
    }
}

impl std::error::Error for HpdrError {}

impl From<std::io::Error> for HpdrError {
    fn from(e: std::io::Error) -> Self {
        HpdrError::Io(e.to_string())
    }
}

/// Result alias used throughout HPDR.
pub type Result<T> = std::result::Result<T, HpdrError>;

/// The error of a job's lowest-numbered failing part (a chunk, a
/// component). The parts may run and fail in any order; keeping the
/// lowest makes a failure read the same on every run.
#[derive(Debug, Default)]
pub struct LowestError(parking_lot::Mutex<Option<(usize, HpdrError)>>);

impl LowestError {
    /// Record part `part`'s error unless a lower part already failed.
    pub fn record(&self, part: usize, e: HpdrError) {
        let mut slot = self.0.lock();
        if !matches!(*slot, Some((p, _)) if p <= part) {
            *slot = Some((part, e));
        }
    }

    pub fn take(&self) -> Option<HpdrError> {
        self.0.lock().take().map(|(_, e)| e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_error_keeps_the_lowest_part() {
        let slot = LowestError::default();
        slot.record(3, HpdrError::corrupt("three"));
        slot.record(1, HpdrError::corrupt("one"));
        slot.record(2, HpdrError::corrupt("two"));
        assert_eq!(slot.take(), Some(HpdrError::corrupt("one")));
        assert_eq!(slot.take(), None);
    }

    #[test]
    fn display_variants() {
        assert!(HpdrError::corrupt("x").to_string().contains("corrupt"));
        assert!(HpdrError::unsupported("x")
            .to_string()
            .contains("unsupported"));
        assert!(HpdrError::invalid("x").to_string().contains("invalid"));
    }

    #[test]
    fn from_io_error() {
        let e: HpdrError = std::io::Error::other("boom").into();
        assert!(matches!(e, HpdrError::Io(_)));
    }

    #[test]
    fn from_pool_panic() {
        let e: HpdrError = crate::pool::PoolPanic {
            group: 7,
            message: "kaboom".into(),
        }
        .into();
        assert!(matches!(e, HpdrError::WorkerPanic { group: 7, .. }));
        assert!(e.to_string().contains("group 7"));
        assert!(e.to_string().contains("kaboom"));
    }
}
