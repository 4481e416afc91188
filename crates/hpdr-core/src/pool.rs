//! Persistent worker pool shared by every CPU-executing device adapter.
//!
//! The original implementation opened a fresh `crossbeam::thread::scope`
//! per GEM/DEM stage — an OS-thread spawn + join on *every* stage
//! invocation, hundreds of times per multi-chunk pipeline. This module
//! replaces that with a process-wide pool of long-lived workers woken
//! through a `parking_lot` mutex/condvar pair:
//!
//! * **Dynamic chunked scheduling is preserved** — participants pull
//!   `grain`-sized chunks off a shared atomic counter, the OpenMP
//!   `schedule(dynamic, grain)` analogue, exactly as before.
//! * **Scratch arenas persist** — each worker owns one reusable staging
//!   buffer (the GEM "faster memory tier"), grown on demand and handed to
//!   each group as the previous group left it. The old code allocated
//!   *and* zero-filled a fresh buffer per worker per call.
//! * **Panics propagate as values** — a panicking body poisons the job
//!   (remaining chunks are abandoned), and the submitter gets back
//!   [`PoolPanic`] with the failing group index instead of the process
//!   aborting through a bare `.expect`. The pool stays reusable.
//!
//! # How borrowed bodies stay sound
//!
//! Pool workers are `'static` threads but stage bodies capture locals by
//! reference. The borrow's lifetime is erased into a raw trait-object
//! pointer ([`BodyPtr`]) when a job is published; soundness rests on one
//! invariant: **the submitting thread does not return from
//! [`WorkerPool::run`]/[`WorkerPool::run_with_scratch`] until every
//! participant has finished executing the job** (it blocks until the
//! job's `active` count reaches zero). Workers never touch a job after
//! decrementing `active`, so no erased pointer outlives the borrow it
//! came from. This is the same reasoning `crossbeam::scope` encodes in
//! its API, applied to a single always-alive pool — and the reason this
//! file is one of the workspace's few sanctioned `unsafe` islands.
//!
//! Nested or contended submissions (a body that itself calls into the
//! pool, or two threads submitting at once) execute inline on the calling
//! thread — dynamic scheduling makes that a pure performance fallback,
//! never a correctness change, and it keeps the single-job-slot design
//! deadlock-free.

#![allow(unsafe_code)]

use parking_lot::{Condvar, Mutex};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// Number of workers to use by default (logical cores).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A panic captured inside a pool worker, returned to the submitter as a
/// structured error instead of aborting the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolPanic {
    /// Index (DEM item or GEM group) whose body panicked.
    pub group: usize,
    /// The panic payload, stringified.
    pub message: String,
}

impl fmt::Display for PoolPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "worker body panicked at group {}: {}",
            self.group, self.message
        )
    }
}

impl std::error::Error for PoolPanic {}

/// Cumulative pool activity counters (monotonic since pool creation).
///
/// Consumers snapshot before/after a region and diff with
/// [`PoolStats::since`]; the pipeline runner records the delta into trace
/// runtime stats so `hpdr profile` can report scheduler behaviour next to
/// virtual time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs submitted (one per GEM/DEM stage invocation).
    pub jobs: u64,
    /// Times a pooled worker woke up and joined a job.
    pub wakeups: u64,
    /// Chunks claimed off job counters (by workers and submitters).
    pub tasks: u64,
    /// Participations that reused an already-large-enough scratch arena.
    pub scratch_reuses: u64,
    /// Participations that had to grow a scratch arena.
    pub scratch_allocs: u64,
}

impl PoolStats {
    /// Component-wise difference against an earlier snapshot.
    pub fn since(self, earlier: PoolStats) -> PoolStats {
        PoolStats {
            jobs: self.jobs.saturating_sub(earlier.jobs),
            wakeups: self.wakeups.saturating_sub(earlier.wakeups),
            tasks: self.tasks.saturating_sub(earlier.tasks),
            scratch_reuses: self.scratch_reuses.saturating_sub(earlier.scratch_reuses),
            scratch_allocs: self.scratch_allocs.saturating_sub(earlier.scratch_allocs),
        }
    }

    /// Fraction of scratch-arena participations that reused an existing
    /// arena instead of growing one (1.0 when no participations — no
    /// allocation pressure).
    pub fn scratch_reuse_ratio(self) -> f64 {
        let total = self.scratch_reuses + self.scratch_allocs;
        if total == 0 {
            1.0
        } else {
            self.scratch_reuses as f64 / total as f64
        }
    }
}

/// Lifetime-erased pointer to a stage body. See the module docs for the
/// invariant that keeps dereferencing these sound.
#[derive(Clone, Copy)]
enum BodyPtr {
    Plain(*const (dyn Fn(usize) + Sync)),
    Scratch(*const (dyn Fn(usize, &mut [u8]) + Sync)),
}

/// One published unit of work. Lives in the dispatch slot while workers
/// may still join, and in each participant's hand (via `Arc`) while they
/// execute.
struct Job {
    body: BodyPtr,
    n: usize,
    grain: usize,
    scratch_bytes: usize,
    /// Next un-claimed index (dynamic schedule counter).
    next: AtomicUsize,
    /// Participants currently executing this job.
    active: AtomicUsize,
    /// Set on first panic; stops further chunk claims.
    poisoned: AtomicBool,
    panic: Mutex<Option<PoolPanic>>,
}

// SAFETY: `Job` is shared across threads only between publication and the
// submitter's final `active == 0` wait, during which the erased body
// borrow is alive (module-docs invariant). The bodies themselves are
// `Sync`, so concurrent invocation is sound.
unsafe impl Send for Job {}
// SAFETY: see the `Send` justification above.
unsafe impl Sync for Job {}

#[derive(Default)]
struct Dispatch {
    /// The single job slot. One queued job at a time; contended
    /// submissions run inline instead.
    job: Option<Arc<Job>>,
    /// Bumped per published job so a worker joins each job at most once.
    seq: u64,
    /// Remaining worker join slots for the current job.
    joiners_left: usize,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    disp: Mutex<Dispatch>,
    /// Workers park here waiting for a job (or shutdown).
    work_cv: Condvar,
    /// Submitters park here waiting for their job's participants.
    idle_cv: Condvar,
    jobs: AtomicU64,
    wakeups: AtomicU64,
    tasks: AtomicU64,
    scratch_reuses: AtomicU64,
    scratch_allocs: AtomicU64,
}

std::thread_local! {
    /// True on pool worker threads; nested submissions from a worker run
    /// inline (joining the pool again would deadlock the single slot).
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
    /// The submitting thread's persistent scratch arena (workers each own
    /// one in their loop; submitters participate too and need their own).
    static SUBMIT_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Participate in `job`: pull chunks until the counter is drained or the
/// job is poisoned. Shared by workers and submitting threads.
fn execute(shared: &Shared, job: &Job, scratch: &mut Vec<u8>) {
    let want = job.scratch_bytes;
    if matches!(job.body, BodyPtr::Scratch(_)) {
        if scratch.len() < want {
            // `resize` zero-fills the grown tail, so a fresh arena holds
            // deterministic zeros.
            scratch.resize(want, 0);
            shared.scratch_allocs.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.scratch_reuses.fetch_add(1, Ordering::Relaxed);
        }
    }
    while !job.poisoned.load(Ordering::Relaxed) {
        let start = job.next.fetch_add(job.grain, Ordering::Relaxed);
        if start >= job.n {
            break;
        }
        let end = start.saturating_add(job.grain).min(job.n);
        shared.tasks.fetch_add(1, Ordering::Relaxed);
        // Tracks the in-flight index so a panic can report *which* group
        // failed without a catch_unwind per element.
        let current = Cell::new(start);
        let result = catch_unwind(AssertUnwindSafe(|| match job.body {
            BodyPtr::Plain(p) => {
                // SAFETY: the submitter blocks until `active == 0` before
                // returning, so the borrow behind `p` is alive for the
                // whole participation (module-docs invariant).
                let f = unsafe { &*p };
                while current.get() < end {
                    f(current.get());
                    current.set(current.get() + 1);
                }
            }
            BodyPtr::Scratch(p) => {
                // SAFETY: as above.
                let f = unsafe { &*p };
                while current.get() < end {
                    f(current.get(), &mut scratch[..want]);
                    current.set(current.get() + 1);
                }
            }
        }));
        if let Err(payload) = result {
            job.poisoned.store(true, Ordering::Relaxed);
            let mut slot = job.panic.lock();
            if slot.is_none() {
                *slot = Some(PoolPanic {
                    group: current.get(),
                    message: panic_message(payload.as_ref()),
                });
            }
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    IN_POOL.with(|f| f.set(true));
    let mut scratch: Vec<u8> = Vec::new();
    let mut last_seq = 0u64;
    loop {
        let job = {
            let mut d = shared.disp.lock();
            loop {
                if d.shutdown {
                    return;
                }
                if let Some(job) = d.job.as_ref().map(Arc::clone) {
                    if d.seq != last_seq {
                        last_seq = d.seq;
                        if d.joiners_left > 0 {
                            d.joiners_left -= 1;
                            job.active.fetch_add(1, Ordering::AcqRel);
                            break job;
                        }
                    }
                }
                shared.work_cv.wait(&mut d);
            }
        };
        shared.wakeups.fetch_add(1, Ordering::Relaxed);
        execute(&shared, &job, &mut scratch);
        if job.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Lock/unlock pairs this notify with the submitter's
            // check-then-wait so the wakeup cannot be lost.
            drop(shared.disp.lock());
            shared.idle_cv.notify_all();
        }
    }
}

/// A persistent pool of `threads - 1` workers (the submitting thread is
/// always the remaining participant). Most callers want the process-wide
/// [`WorkerPool::global`] instance; dedicated pools exist for tests and
/// benchmarks.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Build a pool with capacity for `threads` total participants
    /// (spawning `threads - 1` workers).
    pub fn new(threads: usize) -> WorkerPool {
        let shared = Arc::new(Shared::default());
        let handles = (0..threads.max(1) - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hpdr-pool-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn hpdr pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// The process-wide pool, sized to [`default_threads`] on first use.
    /// All device adapters dispatch through this instance.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(default_threads()))
    }

    /// Number of spawned worker threads (total parallelism is one more:
    /// the submitter always participates).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Snapshot of the cumulative activity counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            jobs: self.shared.jobs.load(Ordering::Relaxed),
            wakeups: self.shared.wakeups.load(Ordering::Relaxed),
            tasks: self.shared.tasks.load(Ordering::Relaxed),
            scratch_reuses: self.shared.scratch_reuses.load(Ordering::Relaxed),
            scratch_allocs: self.shared.scratch_allocs.load(Ordering::Relaxed),
        }
    }

    /// Dynamic-schedule parallel for: invoke `body(i)` for every
    /// `i in 0..n` on up to `workers` participants, `grain` indices per
    /// claim. Returns the first captured panic, if any, once **all**
    /// participants have stopped (the pool remains reusable).
    pub fn run(
        &self,
        workers: usize,
        n: usize,
        grain: usize,
        body: &(dyn Fn(usize) + Sync),
    ) -> Result<(), PoolPanic> {
        // SAFETY: lifetime erasure only — same fat-pointer layout; the
        // submit/wait protocol keeps the borrow alive (module docs).
        let erased = unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), *const (dyn Fn(usize) + Sync)>(
                body,
            )
        };
        self.submit(workers, n, grain, 0, BodyPtr::Plain(erased))
    }

    /// GEM-style parallel for with persistent per-worker scratch arenas.
    /// Each group id `0..groups` runs exactly once with `scratch_bytes`
    /// of staging exclusive to its worker for the duration of the body,
    /// holding whatever the worker's previous group left there
    /// (deterministic zeros only on a freshly grown arena). See
    /// `DeviceAdapter::try_gem` for the contract.
    pub fn run_with_scratch(
        &self,
        workers: usize,
        groups: usize,
        scratch_bytes: usize,
        body: &(dyn Fn(usize, &mut [u8]) + Sync),
    ) -> Result<(), PoolPanic> {
        // SAFETY: lifetime erasure only, as in `run`.
        let erased = unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize, &mut [u8]) + Sync + '_),
                *const (dyn Fn(usize, &mut [u8]) + Sync),
            >(body)
        };
        self.submit(workers, groups, 1, scratch_bytes, BodyPtr::Scratch(erased))
    }

    fn submit(
        &self,
        workers: usize,
        n: usize,
        grain: usize,
        scratch_bytes: usize,
        body: BodyPtr,
    ) -> Result<(), PoolPanic> {
        if n == 0 {
            return Ok(());
        }
        let grain = grain.max(1).min(n);
        let participants = workers.clamp(1, n.div_ceil(grain));
        self.shared.jobs.fetch_add(1, Ordering::Relaxed);
        let job = Arc::new(Job {
            body,
            n,
            grain,
            scratch_bytes,
            next: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
        });
        // Publish to workers unless this is a serial job, a nested call
        // from a worker, or the slot is already taken (inline fallback —
        // see module docs).
        let published =
            participants > 1 && !self.handles.is_empty() && !IN_POOL.with(Cell::get) && {
                let mut d = self.shared.disp.lock();
                if d.job.is_none() && !d.shutdown {
                    d.seq = d.seq.wrapping_add(1);
                    d.joiners_left = participants - 1;
                    d.job = Some(Arc::clone(&job));
                    self.shared.work_cv.notify_all();
                    true
                } else {
                    false
                }
            };
        // The submitter always participates. A scratch body takes the
        // thread-local arena out, so a nested inline submit sees an empty
        // slot instead of a RefCell conflict; a plain body needs no arena
        // and leaves it in place for the scratch jobs nested inside it
        // (the concurrent executor's payloads).
        if matches!(job.body, BodyPtr::Scratch(_)) {
            let mut scratch = SUBMIT_SCRATCH.with(|c| std::mem::take(&mut *c.borrow_mut()));
            execute(&self.shared, &job, &mut scratch);
            SUBMIT_SCRATCH.with(|c| *c.borrow_mut() = scratch);
        } else {
            execute(&self.shared, &job, &mut Vec::new());
        }
        if published {
            let mut d = self.shared.disp.lock();
            if d.job.as_ref().is_some_and(|j| Arc::ptr_eq(j, &job)) {
                d.job = None;
                d.joiners_left = 0;
            }
            // The borrow behind `body` must outlive every participant:
            // block until the last one leaves.
            while job.active.load(Ordering::Acquire) > 0 {
                self.shared.idle_cv.wait(&mut d);
            }
        }
        let captured = job.panic.lock().take();
        match captured {
            Some(p) => Err(p),
            None => Ok(()),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut d = self.shared.disp.lock();
            d.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The pool as the simulator's concurrent executor sees it: one job whose
/// `participants` indices each run one ready-list loop. The executor
/// catches its payloads' panics itself, so a captured panic here is a
/// defect of the executor, re-raised on the submitting thread.
impl hpdr_sim::Workers for WorkerPool {
    fn run(&self, participants: usize, body: &(dyn Fn(usize) + Sync)) {
        if let Err(p) = WorkerPool::run(self, participants, participants, 1, body) {
            panic!("{p}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn covers_all_indices_once() {
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        WorkerPool::global()
            .run(4, 1000, 7, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_items_is_noop() {
        let pool = WorkerPool::global();
        pool.run(4, 0, 1, &|_| panic!("must not be called"))
            .unwrap();
        pool.run_with_scratch(4, 0, 16, &|_, _| panic!("must not be called"))
            .unwrap();
    }

    #[test]
    fn single_thread_path() {
        let sum = AtomicU64::new(0);
        WorkerPool::global()
            .run(1, 10, 100, &|i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            })
            .unwrap();
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn groups_each_run_once() {
        let hits: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        WorkerPool::global()
            .run_with_scratch(8, 64, 4, &|g, s| {
                assert_eq!(s.len(), 4);
                hits[g].fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn panic_returns_err_with_group_and_pool_stays_usable() {
        let pool = WorkerPool::new(4);
        let err = pool
            .run(4, 100, 1, &|i| {
                if i == 37 {
                    panic!("boom at {i}");
                }
            })
            .unwrap_err();
        assert_eq!(err.group, 37);
        assert!(err.message.contains("boom"));
        // The same pool keeps working after the panic.
        let sum = AtomicU64::new(0);
        pool.run(4, 100, 8, &|i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        })
        .expect("pool reusable after panic");
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn scratch_panic_reports_failing_group() {
        let pool = WorkerPool::new(2);
        let err = pool
            .run_with_scratch(2, 16, 8, &|g, _| {
                if g == 5 {
                    panic!("scratch group failure");
                }
            })
            .unwrap_err();
        assert_eq!(err.group, 5);
        let ran = AtomicU64::new(0);
        pool.run_with_scratch(2, 16, 8, &|_, s| {
            assert_eq!(s.len(), 8);
            ran.fetch_add(1, Ordering::Relaxed);
        })
        .expect("reusable");
        assert_eq!(ran.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn dirty_scratch_skips_rezero_and_reuses_arena() {
        let pool = WorkerPool::new(1); // single participant: deterministic
        let before = pool.stats();
        pool.run_with_scratch(1, 4, 16, &|g, s| {
            if g == 0 {
                assert!(s.iter().all(|&b| b == 0), "fresh arena starts zeroed");
            } else {
                assert!(s.iter().all(|&b| b == g as u8), "dirty arena persists");
            }
            s.fill(g as u8 + 1);
        })
        .expect("dirty run");
        // Second call on the same thread reuses the grown arena.
        pool.run_with_scratch(1, 1, 16, &|_, s| {
            assert!(s.iter().all(|&b| b == 4), "arena survives across calls");
        })
        .expect("reuse run");
        let d = pool.stats().since(before);
        assert_eq!(d.jobs, 2);
        assert_eq!(d.scratch_allocs, 1, "one growth on first participation");
        assert_eq!(d.scratch_reuses, 1, "second call reuses");
    }

    #[test]
    fn nested_submission_runs_inline_without_deadlock() {
        let pool = WorkerPool::global();
        let total = AtomicU64::new(0);
        pool.run(4, 8, 1, &|_| {
            // Nested call from inside a body: must fall back inline.
            let inner = AtomicU64::new(0);
            WorkerPool::global()
                .run(4, 10, 1, &|j| {
                    inner.fetch_add(j as u64, Ordering::Relaxed);
                })
                .expect("nested run");
            total.fetch_add(inner.load(Ordering::Relaxed), Ordering::Relaxed);
        })
        .expect("outer run");
        assert_eq!(total.load(Ordering::Relaxed), 8 * 45);
    }

    #[test]
    fn stats_count_jobs_and_tasks() {
        let pool = WorkerPool::new(2);
        let before = pool.stats();
        pool.run(2, 100, 10, &|_| {}).expect("run");
        let d = pool.stats().since(before);
        assert_eq!(d.jobs, 1);
        assert!(
            d.tasks >= 10,
            "at least n/grain chunk claims, got {}",
            d.tasks
        );
    }
}
