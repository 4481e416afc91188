//! Context Memory Model (paper §III-B).
//!
//! Data-reduction pipelines are memory-bound, so per-call allocation of
//! "reduction context" (device workspaces, hierarchies, codebook scratch)
//! can dominate cost — and on dense multi-GPU nodes every allocation takes
//! the runtime's shared allocator lock, wrecking scalability. The CMM
//! caches contexts in a hash map keyed by the data characteristics of the
//! call, so repeated reductions with similar inputs reuse persistent
//! allocations and perform **zero** allocator operations.
//!
//! MGARD-X keeps its contexts here (`hpdr_mgard::context_cache`); the
//! serve scheduler keeps a `ContextCache<()>` per device, recording only
//! which contexts the device holds, to count hits and misses.

use crate::float::DType;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Key identifying a reusable reduction context.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ContextKey {
    /// Algorithm id (e.g. "mgard-x").
    pub algorithm: &'static str,
    pub dtype: DType,
    pub shape: Vec<usize>,
    /// Hash of codec configuration (error bound, rate, dict size…).
    pub config_hash: u64,
    /// Device ordinal the context's buffers live on.
    pub device: usize,
}

/// FNV-1a — small, deterministic config hashing for [`ContextKey`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CmmStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// The context cache. `C` is the algorithm-specific context type.
pub struct ContextCache<C> {
    map: Mutex<HashMap<ContextKey, Arc<Mutex<C>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    capacity: usize,
}

impl<C> ContextCache<C> {
    /// A cache holding at most `capacity` contexts (evicting an
    /// arbitrary one, in hash order, beyond that — contexts are
    /// interchangeable across "similar" calls, so precise LRU is not
    /// needed for the paper's workloads). `usize::MAX` never evicts.
    pub fn new(capacity: usize) -> ContextCache<C> {
        ContextCache {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            capacity: capacity.max(1),
        }
    }

    /// Fetch the context for `key`, creating it with `init` on miss.
    /// `init` is where all allocations happen; on a hit no allocation
    /// (and no shared-runtime lock traffic) occurs.
    pub fn get_or_create(&self, key: &ContextKey, init: impl FnOnce() -> C) -> Arc<Mutex<C>> {
        let mut map = self.map.lock();
        if let Some(ctx) = map.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(ctx);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if map.len() >= self.capacity {
            // Evict one arbitrary entry to stay within capacity.
            if let Some(k) = map.keys().next().cloned() {
                map.remove(&k);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let ctx = Arc::new(Mutex::new(init()));
        map.insert(key.clone(), Arc::clone(&ctx));
        ctx
    }

    /// Drop every cached context.
    pub fn clear(&self) {
        self.map.lock().clear();
    }

    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> CmmStats {
        CmmStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(device: usize, shape: &[usize]) -> ContextKey {
        ContextKey {
            algorithm: "test",
            dtype: DType::F32,
            shape: shape.to_vec(),
            config_hash: fnv1a(&[1, 2, 3]),
            device,
        }
    }

    #[test]
    fn second_lookup_hits() {
        let cache: ContextCache<Vec<u8>> = ContextCache::new(8);
        let k = key(0, &[64, 64]);
        let a = cache.get_or_create(&k, || vec![0u8; 128]);
        let b = cache.get_or_create(&k, || panic!("must not re-init"));
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn different_keys_miss() {
        let cache: ContextCache<u32> = ContextCache::new(8);
        cache.get_or_create(&key(0, &[4]), || 0);
        cache.get_or_create(&key(1, &[4]), || 0); // different device
        cache.get_or_create(&key(0, &[8]), || 0); // different shape
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn capacity_evicts() {
        let cache: ContextCache<u32> = ContextCache::new(2);
        cache.get_or_create(&key(0, &[1]), || 0);
        cache.get_or_create(&key(0, &[2]), || 0);
        cache.get_or_create(&key(0, &[3]), || 0);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn clear_empties() {
        let cache: ContextCache<u32> = ContextCache::new(4);
        cache.get_or_create(&key(0, &[1]), || 7);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn fnv1a_is_stable_and_distinguishing() {
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
    }

    #[test]
    fn contexts_are_shared_across_threads() {
        let cache: Arc<ContextCache<u64>> = Arc::new(ContextCache::new(4));
        let k = key(0, &[16]);
        crossbeam::thread::scope(|s| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let k = k.clone();
                s.spawn(move |_| {
                    let ctx = cache.get_or_create(&k, || 0);
                    *ctx.lock() += 1;
                });
            }
        })
        .unwrap();
        let ctx = cache.get_or_create(&k, || unreachable!());
        assert_eq!(*ctx.lock(), 8);
        assert_eq!(cache.stats().misses, 1);
    }
}
