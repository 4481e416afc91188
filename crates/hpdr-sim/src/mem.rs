//! Simulated device memory.
//!
//! Device buffers are plain host allocations tagged with the owning device.
//! Payload closures receive a `&mut MemPool` so copies and kernels operate
//! on real bytes — the compressed output of a simulated pipeline is real,
//! only the *timing* is virtual.
//!
//! While a payload runs inside [`crate::Sim::run`], the pool carries an
//! **effect guard** (debug builds): every access is checked against the
//! running op's declared [`crate::Effects`], and any undeclared read,
//! write, or free panics with the op's label. This keeps the static
//! analyzer's input honest — a payload cannot touch a buffer the
//! analyzer does not know about.
//!
//! When payloads run concurrently ([`crate::exec`]), each one runs
//! against a **view**: a pool holding only the buffers its effects
//! declare, moved out of the run's pool by [`MemPool::lend`] and back by
//! [`MemPool::restore`]. Every other buffer is absent from the view, so
//! two running payloads cannot share a buffer, in any build.

use crate::effects::Effects;
use crate::sim::DeviceId;

/// Handle to a simulated device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufId(pub(crate) usize);

impl BufId {
    /// Stable dense index of this buffer (for reports and bitsets).
    pub fn index(&self) -> usize {
        self.0
    }

    /// Rebuild a handle from [`BufId::index`] (fixtures and reports only —
    /// the pool is the sole authority on which indices are live).
    pub fn from_index(i: usize) -> BufId {
        BufId(i)
    }
}

#[derive(Debug)]
struct Buffer {
    device: DeviceId,
    data: Vec<u8>,
    freed: bool,
    /// The bytes are not in this pool: lent to a running payload (in the
    /// run's pool), or never lent in (in a payload's view).
    away: bool,
}

impl Buffer {
    fn absent(device: DeviceId) -> Buffer {
        Buffer {
            device,
            data: Vec::new(),
            freed: false,
            away: true,
        }
    }
}

const AWAY: &str = "an op may touch only the buffers its effects declare";

/// What the effect guard does with each access it intercepts.
#[derive(Debug)]
enum GuardMode {
    /// Panic on any access outside the declared [`Effects`] (debug-build
    /// enforcement — keeps payloads honest during normal runs).
    Enforce,
    /// Record every access into a shadow [`Effects`] set without
    /// enforcing anything (the `hpdr audit` observation mode: the
    /// recorded set is later diffed against the declaration, so the
    /// payload must be allowed to stray in order to be caught).
    Record(std::cell::RefCell<Effects>),
}

/// Effect guard installed for the duration of one payload execution.
#[derive(Debug)]
struct Guard {
    label: String,
    effects: Effects,
    mode: GuardMode,
}

/// Backing store for every simulated device buffer in a [`crate::Sim`].
#[derive(Debug, Default)]
pub struct MemPool {
    buffers: Vec<Buffer>,
    guard: Option<Guard>,
}

impl MemPool {
    pub(crate) fn new() -> MemPool {
        MemPool {
            buffers: Vec::new(),
            guard: None,
        }
    }

    pub(crate) fn create(&mut self, device: DeviceId, bytes: usize) -> BufId {
        let id = BufId(self.buffers.len());
        self.buffers.push(Buffer {
            device,
            data: vec![0u8; bytes],
            freed: false,
            away: false,
        });
        id
    }

    /// Move the buffers `effects` names into a pool of their own, the
    /// view one payload runs against while others run beside it. The
    /// buffers are away from this pool until [`MemPool::restore`].
    pub(crate) fn lend(&mut self, effects: &Effects) -> MemPool {
        let touched = effects.touched();
        let len = touched.last().map_or(0, |b| b.0 + 1);
        let mut buffers: Vec<Buffer> = self.buffers[..len]
            .iter()
            .map(|b| Buffer::absent(b.device))
            .collect();
        for b in touched {
            debug_assert!(!self.buffers[b.0].away, "{b:?} lent twice");
            std::mem::swap(&mut buffers[b.0], &mut self.buffers[b.0]);
        }
        MemPool {
            buffers,
            guard: None,
        }
    }

    /// Take back the buffers of a view made by [`MemPool::lend`].
    pub(crate) fn restore(&mut self, view: MemPool) {
        for (slot, b) in self.buffers.iter_mut().zip(view.buffers) {
            if !b.away {
                *slot = b;
            }
        }
    }

    fn buf(&self, id: BufId) -> &Buffer {
        let b = &self.buffers[id.0];
        assert!(!b.away, "{id:?} is not in this memory pool: {AWAY}");
        b
    }

    fn buf_mut(&mut self, id: BufId) -> &mut Buffer {
        let b = &mut self.buffers[id.0];
        assert!(!b.away, "{id:?} is not in this memory pool: {AWAY}");
        b
    }

    /// Live bytes of the buffers `effects` names (the span footprint).
    pub(crate) fn footprint(&self, effects: &Effects) -> u64 {
        effects
            .touched()
            .into_iter()
            .filter(|b| !self.is_freed(*b))
            .map(|b| self.len(b) as u64)
            .sum()
    }

    /// Install the effect guard for one payload run (debug enforcement).
    pub(crate) fn begin_payload(&mut self, label: &str, effects: &Effects) {
        self.guard = Some(Guard {
            label: label.to_string(),
            effects: effects.clone(),
            mode: GuardMode::Enforce,
        });
    }

    /// Install the shadow-access recorder for one payload run: every
    /// read/write/free is logged instead of enforced, and
    /// [`MemPool::end_payload`] returns the observed set. Freed-buffer
    /// and bounds assertions still apply — the recorder observes *which*
    /// buffers a payload touches, it does not suspend memory safety.
    pub(crate) fn begin_payload_recording(&mut self, label: &str, effects: &Effects) {
        self.guard = Some(Guard {
            label: label.to_string(),
            effects: effects.clone(),
            mode: GuardMode::Record(std::cell::RefCell::new(Effects::none())),
        });
    }

    /// Remove the effect guard after a payload run; in recording mode the
    /// observed access set is returned.
    pub(crate) fn end_payload(&mut self) -> Option<Effects> {
        match self.guard.take() {
            Some(Guard {
                mode: GuardMode::Record(obs),
                ..
            }) => Some(obs.into_inner()),
            _ => None,
        }
    }

    fn check_read(&self, id: BufId) {
        if let Some(g) = &self.guard {
            match &g.mode {
                GuardMode::Enforce => assert!(
                    g.effects.may_read(id),
                    "op '{}' reads {id:?} without declaring it in its effects",
                    g.label
                ),
                GuardMode::Record(obs) => {
                    let mut o = obs.borrow_mut();
                    if !o.reads.contains(&id) {
                        o.reads.push(id);
                    }
                }
            }
        }
    }

    fn check_write(&self, id: BufId) {
        if let Some(g) = &self.guard {
            match &g.mode {
                GuardMode::Enforce => assert!(
                    g.effects.may_write(id),
                    "op '{}' writes {id:?} without declaring it in its effects",
                    g.label
                ),
                GuardMode::Record(obs) => {
                    let mut o = obs.borrow_mut();
                    if !o.writes.contains(&id) {
                        o.writes.push(id);
                    }
                }
            }
        }
    }

    fn check_free(&self, id: BufId) {
        if let Some(g) = &self.guard {
            match &g.mode {
                GuardMode::Enforce => assert!(
                    g.effects.may_free(id),
                    "op '{}' frees {id:?} without declaring it in its effects",
                    g.label
                ),
                GuardMode::Record(obs) => {
                    let mut o = obs.borrow_mut();
                    if !o.frees.contains(&id) {
                        o.frees.push(id);
                    }
                }
            }
        }
    }

    /// Read access to a buffer's bytes.
    pub fn get(&self, id: BufId) -> &[u8] {
        self.check_read(id);
        let b = self.buf(id);
        assert!(!b.freed, "use of freed device buffer {id:?}");
        &b.data
    }

    /// Write access to a buffer's bytes.
    pub fn get_mut(&mut self, id: BufId) -> &mut [u8] {
        self.check_write(id);
        let b = self.buf_mut(id);
        assert!(!b.freed, "use of freed device buffer {id:?}");
        &mut b.data
    }

    /// Two disjoint buffers borrowed simultaneously (src read, dst write).
    pub fn get_pair_mut(&mut self, src: BufId, dst: BufId) -> (&[u8], &mut [u8]) {
        assert_ne!(src.0, dst.0, "src and dst must differ");
        self.check_read(src);
        self.check_write(dst);
        assert!(
            !self.buf(src).freed && !self.buf(dst).freed,
            "use of freed device buffer (src {src:?} / dst {dst:?})"
        );
        let (lo, hi) = if src.0 < dst.0 {
            let (a, b) = self.buffers.split_at_mut(dst.0);
            (&a[src.0], &mut b[0])
        } else {
            let (a, b) = self.buffers.split_at_mut(src.0);
            return (&b[0].data, &mut a[dst.0].data);
        };
        (&lo.data, &mut hi.data)
    }

    /// Resize a buffer (e.g. to the actual compressed size after a kernel).
    pub fn resize(&mut self, id: BufId, bytes: usize) {
        self.check_write(id);
        let b = self.buf_mut(id);
        assert!(!b.freed, "resize of freed device buffer {id:?}");
        b.data.resize(bytes, 0);
    }

    /// Replace a buffer's contents with `data`: a kernel that produced
    /// its output in an allocation of its own hands it over uncopied.
    pub fn replace(&mut self, id: BufId, data: Vec<u8>) {
        self.check_write(id);
        let b = self.buf_mut(id);
        assert!(!b.freed, "replace of freed device buffer {id:?}");
        b.data = data;
    }

    /// Logical size of a buffer. Hard error on freed buffers: a freed
    /// buffer has no length, and code asking for one is reading stale
    /// state (the runtime check backing the analyzer's UAF lint).
    pub fn len(&self, id: BufId) -> usize {
        let b = self.buf(id);
        assert!(!b.freed, "len of freed device buffer {id:?}");
        b.data.len()
    }

    pub fn is_empty(&self, id: BufId) -> bool {
        self.len(id) == 0
    }

    /// Which device owns this buffer (valid even after a free — the
    /// handle's placement is immutable metadata, not contents).
    pub fn device(&self, id: BufId) -> DeviceId {
        self.buffers[id.0].device
    }

    /// Whether this buffer has been freed.
    pub fn is_freed(&self, id: BufId) -> bool {
        self.buffers[id.0].freed
    }

    /// Mark a buffer freed; later content access panics, and a second
    /// free panics (double-free detector backing the analyzer).
    pub fn mark_freed(&mut self, id: BufId) {
        self.check_free(id);
        let b = self.buf_mut(id);
        assert!(!b.freed, "double free of device buffer {id:?}");
        b.freed = true;
        b.data = Vec::new();
    }

    /// Move a buffer's contents out (typically after the run completes).
    pub fn take(&mut self, id: BufId) -> Vec<u8> {
        self.check_write(id);
        let b = self.buf_mut(id);
        assert!(!b.freed, "take of freed device buffer {id:?}");
        std::mem::take(&mut b.data)
    }

    /// Total live (non-freed) bytes currently resident, per device.
    pub fn resident_bytes(&self, device: DeviceId) -> u64 {
        self.buffers
            .iter()
            .filter(|b| !b.freed && b.device == device)
            .map(|b| b.data.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceId {
        DeviceId(0)
    }

    #[test]
    fn create_and_rw() {
        let mut pool = MemPool::new();
        let b = pool.create(dev(), 8);
        pool.get_mut(b).copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(pool.get(b)[3], 4);
        assert_eq!(pool.len(b), 8);
    }

    #[test]
    fn pair_mut_copies() {
        let mut pool = MemPool::new();
        let a = pool.create(dev(), 4);
        let b = pool.create(dev(), 4);
        pool.get_mut(a).copy_from_slice(&[9, 8, 7, 6]);
        {
            let (src, dst) = pool.get_pair_mut(a, b);
            dst.copy_from_slice(src);
        }
        assert_eq!(pool.get(b), &[9, 8, 7, 6]);
        // And in the reverse index order.
        {
            let (src, dst) = pool.get_pair_mut(b, a);
            dst.copy_from_slice(src);
        }
        assert_eq!(pool.get(a), &[9, 8, 7, 6]);
    }

    #[test]
    #[should_panic(expected = "freed")]
    fn use_after_free_panics() {
        let mut pool = MemPool::new();
        let b = pool.create(dev(), 4);
        pool.mark_freed(b);
        let _ = pool.get(b);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut pool = MemPool::new();
        let b = pool.create(dev(), 4);
        pool.mark_freed(b);
        pool.mark_freed(b);
    }

    #[test]
    #[should_panic(expected = "len of freed")]
    fn len_of_freed_panics() {
        let mut pool = MemPool::new();
        let b = pool.create(dev(), 4);
        pool.mark_freed(b);
        let _ = pool.len(b);
    }

    #[test]
    fn resident_bytes_tracks_frees() {
        let mut pool = MemPool::new();
        let a = pool.create(dev(), 100);
        let _b = pool.create(dev(), 50);
        assert_eq!(pool.resident_bytes(dev()), 150);
        pool.mark_freed(a);
        assert!(pool.is_freed(a));
        assert_eq!(pool.resident_bytes(dev()), 50);
    }

    #[test]
    fn replace_swaps_contents() {
        let mut pool = MemPool::new();
        let a = pool.create(dev(), 0);
        pool.replace(a, vec![1, 2, 3]);
        assert_eq!(pool.get(a), &[1, 2, 3]);
    }

    #[test]
    fn resize_changes_len() {
        let mut pool = MemPool::new();
        let a = pool.create(dev(), 10);
        pool.resize(a, 3);
        assert_eq!(pool.len(a), 3);
        assert!(!pool.is_empty(a));
    }

    #[test]
    fn guard_allows_declared_access() {
        let mut pool = MemPool::new();
        let src = pool.create(dev(), 4);
        let dst = pool.create(dev(), 4);
        pool.begin_payload("copy", &Effects::read(src).and_write(dst));
        let (s, d) = pool.get_pair_mut(src, dst);
        d.copy_from_slice(s);
        pool.end_payload();
        // Guard removed: undeclared access is fine again.
        let _ = pool.get(src);
    }

    #[test]
    #[should_panic(expected = "without declaring")]
    fn guard_rejects_undeclared_read() {
        let mut pool = MemPool::new();
        let a = pool.create(dev(), 4);
        pool.begin_payload("sneaky", &Effects::none());
        let _ = pool.get(a);
    }

    #[test]
    #[should_panic(expected = "without declaring")]
    fn guard_rejects_write_via_read_declaration() {
        let mut pool = MemPool::new();
        let a = pool.create(dev(), 4);
        pool.begin_payload("read-only", &Effects::read(a));
        let _ = pool.get_mut(a);
    }

    #[test]
    fn recorder_observes_undeclared_accesses_without_panicking() {
        let mut pool = MemPool::new();
        let a = pool.create(dev(), 4);
        let b = pool.create(dev(), 4);
        let c = pool.create(dev(), 4);
        // Declared effects say "read a" only; the payload strays.
        pool.begin_payload_recording("sneaky", &Effects::read(a));
        let _ = pool.get(a);
        let _ = pool.get(a); // deduplicated
        pool.get_mut(b).fill(1);
        pool.mark_freed(c);
        let obs = pool.end_payload().expect("recording mode returns the log");
        assert_eq!(obs.reads, vec![a]);
        assert_eq!(obs.writes, vec![b]);
        assert_eq!(obs.frees, vec![c]);
    }

    #[test]
    fn recorder_logs_pair_and_resize_accesses() {
        let mut pool = MemPool::new();
        let src = pool.create(dev(), 4);
        let dst = pool.create(dev(), 4);
        pool.begin_payload_recording("copy", &Effects::none());
        {
            let (s, d) = pool.get_pair_mut(src, dst);
            d.copy_from_slice(s);
        }
        pool.resize(dst, 2);
        let obs = pool.end_payload().unwrap();
        assert_eq!(obs.reads, vec![src]);
        assert_eq!(obs.writes, vec![dst]);
        assert!(obs.frees.is_empty());
    }

    #[test]
    #[should_panic(expected = "freed")]
    fn recorder_still_enforces_use_after_free() {
        let mut pool = MemPool::new();
        let a = pool.create(dev(), 4);
        pool.mark_freed(a);
        pool.begin_payload_recording("uaf", &Effects::none());
        let _ = pool.get(a);
    }

    #[test]
    fn enforce_mode_end_payload_returns_none() {
        let mut pool = MemPool::new();
        let a = pool.create(dev(), 4);
        pool.begin_payload("ok", &Effects::read(a));
        let _ = pool.get(a);
        assert!(pool.end_payload().is_none());
    }

    #[test]
    fn lent_buffers_leave_the_pool_and_come_back() {
        let mut pool = MemPool::new();
        let a = pool.create(dev(), 4);
        let b = pool.create(dev(), 4);
        let c = pool.create(dev(), 4);
        let mut view = pool.lend(&Effects::read(a).and_write(b));
        view.get_mut(b).copy_from_slice(&[5; 4]);
        view.mark_freed(a);
        // The undeclared buffer is absent from the view.
        let stray = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| view.len(c)));
        assert!(stray.is_err());
        pool.restore(view);
        assert_eq!(pool.get(b), &[5; 4]);
        assert!(pool.is_freed(a));
        assert_eq!(pool.len(c), 4);
    }

    #[test]
    #[should_panic(expected = "not in this memory pool")]
    fn lent_buffer_is_away_from_the_run_pool() {
        let mut pool = MemPool::new();
        let a = pool.create(dev(), 4);
        let _view = pool.lend(&Effects::write(a));
        let _ = pool.get(a);
    }

    #[test]
    #[should_panic(expected = "without declaring")]
    fn guard_rejects_undeclared_free() {
        let mut pool = MemPool::new();
        let a = pool.create(dev(), 4);
        pool.begin_payload("no-free", &Effects::read(a));
        pool.mark_freed(a);
    }
}
