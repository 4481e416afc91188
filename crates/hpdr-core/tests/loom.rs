//! Exhaustive-interleaving checks (up to the preemption bound) for the
//! concurrency protocols `hpdr-core` relies on:
//!
//! * the [`WorkerPool`] single-job-slot publish/join/drain handoff and
//!   its panic-capture poisoning (`pool.rs`),
//! * the concurrent executor's ready-list hand-off, which runs on that
//!   pool (`hpdr-sim/src/exec.rs`),
//! * [`SharedSlice`]-style unsynchronized disjoint writes (`shared.rs`),
//! * [`ContextCache`] check-then-insert atomicity and idle/acquire
//!   accounting (`cmm.rs`).
//!
//! These are *protocol models*, not calls into the production types:
//! the production code hardwires `parking_lot`/`std::thread`, so each
//! test re-states the protocol in loom primitives, step for step, and
//! asserts the invariants the production comments promise. The models
//! must be kept in sync with the production code by hand — each one
//! cites the lines it mirrors.
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test -p hpdr-core --test loom`
//! (plain `cargo test` compiles this file to nothing).

#![cfg(loom)]
// The SharedSlice model reproduces the production type's raw-pointer
// writes; this test crate is a sanctioned unsafe island like shared.rs.
#![allow(unsafe_code)]

use loom::cell::UnsafeCell;
use loom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use loom::sync::{Arc, Condvar, Mutex};
use loom::thread;

// ---------------------------------------------------------------------------
// WorkerPool protocol model (pool.rs)
// ---------------------------------------------------------------------------

/// Mirror of `pool::Job`: dynamic-schedule counter, participant count,
/// poison flag and first-failure slot. `hits` tracks per-index
/// execution counts so every schedule can assert exactly-once coverage.
struct Job {
    n: usize,
    next: AtomicUsize,
    active: AtomicUsize,
    poisoned: AtomicBool,
    failure: Mutex<Option<usize>>,
    hits: [AtomicUsize; 2],
}

impl Job {
    fn new(n: usize) -> Job {
        Job {
            n,
            next: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            failure: Mutex::new(None),
            hits: [AtomicUsize::new(0), AtomicUsize::new(0)],
        }
    }
}

/// Mirror of `pool::Dispatch`: the single job slot.
struct Dispatch {
    job: Option<Arc<Job>>,
    seq: u64,
    joiners_left: usize,
    shutdown: bool,
}

struct Shared {
    disp: Mutex<Dispatch>,
    work_cv: Condvar,
    idle_cv: Condvar,
}

impl Shared {
    fn new() -> Shared {
        Shared {
            disp: Mutex::new(Dispatch {
                job: None,
                seq: 0,
                joiners_left: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
        }
    }
}

/// Mirror of `pool::execute`: claim chunks until drained or poisoned.
/// A "panic" at `fail_at` is modeled as a value (the unwinding
/// mechanics are std's business, already covered by pool.rs's own
/// tests; the protocol under check is poison-then-record-first).
fn execute(job: &Job, fail_at: Option<usize>) {
    while !job.poisoned.load(Ordering::Relaxed) {
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.n {
            break;
        }
        if fail_at == Some(i) {
            job.poisoned.store(true, Ordering::Relaxed);
            let mut slot = job.failure.lock().unwrap();
            if slot.is_none() {
                *slot = Some(i);
            }
        } else {
            job.hits[i].fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Mirror of `pool::worker_loop`: join each published job at most once
/// (seq check), participate, and pair the last-leaver notify with a
/// disp lock/unlock so the submitter's check-then-wait can't lose it.
fn worker_loop(shared: &Shared, fail_at: Option<usize>) {
    let mut last_seq = 0u64;
    loop {
        let job = {
            let mut d = shared.disp.lock().unwrap();
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
                d = shared.work_cv.wait(d).unwrap();
            }
        };
        execute(&job, fail_at);
        if job.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            drop(shared.disp.lock().unwrap());
            shared.idle_cv.notify_all();
        }
    }
}

/// Mirror of `pool::WorkerPool::submit`: publish to the slot (or fall
/// back inline), participate, retract the job and drain participants.
/// Returns the captured failure, like `submit` returns `PoolPanic`.
fn submit(shared: &Shared, job: &Arc<Job>, fail_at: Option<usize>) -> Option<usize> {
    let published = {
        let mut d = shared.disp.lock().unwrap();
        if d.job.is_none() && !d.shutdown {
            d.seq = d.seq.wrapping_add(1);
            d.joiners_left = 1;
            d.job = Some(Arc::clone(job));
            shared.work_cv.notify_all();
            true
        } else {
            false
        }
    };
    execute(job, fail_at);
    if published {
        let mut d = shared.disp.lock().unwrap();
        if d.job.as_ref().is_some_and(|j| Arc::ptr_eq(j, job)) {
            d.job = None;
            d.joiners_left = 0;
        }
        while job.active.load(Ordering::Acquire) > 0 {
            d = shared.idle_cv.wait(d).unwrap();
        }
    }
    job.failure.lock().unwrap().take()
}

fn shutdown(shared: &Shared) {
    {
        let mut d = shared.disp.lock().unwrap();
        d.shutdown = true;
    }
    shared.work_cv.notify_all();
}

/// The pool models need ≥3 preemptions to reach their deepest hazard
/// (publish → worker joins → submitter drains → worker's last-leaver
/// notify racing the check-then-wait), so don't rely on the default
/// bound of 2: removing the lock-pairing from `worker_loop` must make
/// these tests fail, and at bound 2 it does not.
fn pool_model<F: Fn() + Send + Sync + 'static>(f: F) {
    let mut b = loom::model::Builder::new();
    b.preemption_bound = b.preemption_bound.max(3);
    b.check(f);
}

#[test]
fn pool_handoff_covers_every_index_once_and_drains() {
    pool_model(|| {
        let shared = Arc::new(Shared::new());
        let worker = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || worker_loop(&shared, None))
        };
        let job = Arc::new(Job::new(2));
        let failure = submit(&shared, &job, None);
        assert_eq!(failure, None);
        // The drain wait returned: in *every* schedule all work is done
        // exactly once and no participant still touches the job (the
        // borrowed-body soundness invariant from the pool module docs).
        assert_eq!(job.hits[0].load(Ordering::Relaxed), 1);
        assert_eq!(job.hits[1].load(Ordering::Relaxed), 1);
        assert_eq!(job.active.load(Ordering::Relaxed), 0);
        shutdown(&shared);
        worker.join().unwrap();
    });
}

#[test]
fn pool_panic_capture_poisons_and_reports_first_failure() {
    pool_model(|| {
        let shared = Arc::new(Shared::new());
        let worker = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || worker_loop(&shared, Some(0)))
        };
        let job = Arc::new(Job::new(2));
        let failure = submit(&shared, &job, Some(0));
        // Whichever participant claimed index 0 "panicked"; the
        // submitter must observe it after the drain, exactly once.
        assert_eq!(failure, Some(0));
        assert!(job.poisoned.load(Ordering::Relaxed));
        assert_eq!(job.hits[0].load(Ordering::Relaxed), 0);
        // Index 1 ran at most once (it may be abandoned to poisoning).
        assert!(job.hits[1].load(Ordering::Relaxed) <= 1);
        assert_eq!(job.active.load(Ordering::Relaxed), 0);
        shutdown(&shared);
        worker.join().unwrap();
    });
}

#[test]
fn pool_contended_submission_falls_back_inline() {
    pool_model(|| {
        // Two submitters, no workers: at most one wins the slot, the
        // other must run inline, and neither may deadlock waiting for
        // participants that never join (joiners_left is retracted).
        let shared = Arc::new(Shared::new());
        let other = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                let job = Arc::new(Job::new(2));
                let failure = submit(&shared, &job, None);
                assert_eq!(failure, None);
                assert_eq!(job.hits[0].load(Ordering::Relaxed), 1);
                assert_eq!(job.hits[1].load(Ordering::Relaxed), 1);
            })
        };
        let job = Arc::new(Job::new(2));
        let failure = submit(&shared, &job, None);
        assert_eq!(failure, None);
        assert_eq!(job.hits[0].load(Ordering::Relaxed), 1);
        assert_eq!(job.hits[1].load(Ordering::Relaxed), 1);
        other.join().unwrap();
    });
}

// ---------------------------------------------------------------------------
// Ready-list executor model (hpdr-sim/src/exec.rs)
// ---------------------------------------------------------------------------

/// Mirror of `exec::Ready`: unfinished predecessors per op, the ready
/// list, the completion count, and the ops skipped after a panic.
struct Ready {
    waiting: Vec<usize>,
    ready: Vec<usize>,
    done: usize,
    skipped: Vec<bool>,
    panics: Vec<usize>,
}

/// A fork-join DAG: op 0 releases ops 1 and 2 at once, op 3 waits on
/// both. Ops 1 and 2 meet at a rendezvous, so they must run side by
/// side: a participant left waiting while a successor sits on the ready
/// list deadlocks the model. `ran` counts payload runs; `finished` lets
/// a successor check that its predecessors really returned.
struct Executor {
    state: Mutex<Ready>,
    wake: Condvar,
    succ: [Vec<usize>; 4],
    preds: [Vec<usize>; 4],
    fail_at: Option<usize>,
    ran: [AtomicUsize; 4],
    finished: [AtomicBool; 4],
    met: Mutex<usize>,
    meet: Condvar,
}

impl Executor {
    fn new(fail_at: Option<usize>) -> Executor {
        Executor {
            state: Mutex::new(Ready {
                waiting: vec![0, 1, 1, 2],
                ready: vec![0],
                done: 0,
                skipped: vec![false; 4],
                panics: Vec::new(),
            }),
            wake: Condvar::new(),
            succ: [vec![1, 2], vec![3], vec![3], vec![]],
            preds: [vec![], vec![0], vec![0], vec![1, 2]],
            fail_at,
            ran: [0, 0, 0, 0].map(AtomicUsize::new),
            finished: [false; 4].map(AtomicBool::new),
            met: Mutex::new(0),
            meet: Condvar::new(),
        }
    }

    /// Op `i`'s payload. Returns whether it "panicked".
    fn payload(&self, i: usize) -> bool {
        for &p in &self.preds[i] {
            assert!(
                self.finished[p].load(Ordering::Acquire),
                "op {i} ran before op {p}"
            );
        }
        self.ran[i].fetch_add(1, Ordering::Relaxed);
        if i == 1 || i == 2 {
            let mut met = self.met.lock().unwrap();
            *met += 1;
            self.meet.notify_all();
            while *met < 2 {
                met = self.meet.wait(met).unwrap();
            }
        }
        self.finished[i].store(true, Ordering::Release);
        self.fail_at == Some(i)
    }
}

/// Mirror of `exec::participate`: claim the lowest ready op, run its
/// payload outside the lock (a "panic" at `fail_at` is a value, as in
/// the pool model), complete it and release its successors, waking one
/// waiter per ready op left behind; wait while nothing is ready; return
/// once every op is done.
fn participate(ex: &Executor) {
    let n = ex.succ.len();
    let mut st = ex.state.lock().unwrap();
    loop {
        if st.done == n {
            return;
        }
        let Some(at) = (0..st.ready.len()).min_by_key(|&x| st.ready[x]) else {
            st = ex.wake.wait(st).unwrap();
            continue;
        };
        let i = st.ready.swap_remove(at);
        let mut panicked = false;
        if !st.skipped[i] {
            drop(st);
            panicked = ex.payload(i);
            st = ex.state.lock().unwrap();
        }
        if panicked {
            st.skipped[i] = true;
            st.panics.push(i);
        }
        st.done += 1;
        let skip = st.skipped[i];
        for &s in &ex.succ[i] {
            st.skipped[s] |= skip;
            st.waiting[s] -= 1;
            if st.waiting[s] == 0 {
                st.ready.push(s);
            }
        }
        if st.done == n {
            ex.wake.notify_all();
        } else {
            for _ in 1..st.ready.len() {
                ex.wake.notify_one();
            }
        }
    }
}

/// Two participants drain the DAG; returns the executor afterwards.
fn run_executor(fail_at: Option<usize>) -> Arc<Executor> {
    let ex = Arc::new(Executor::new(fail_at));
    let other = {
        let ex = Arc::clone(&ex);
        thread::spawn(move || participate(&ex))
    };
    participate(&ex);
    // Both participants return in every schedule: no lost wakeup strands
    // one on the condvar.
    other.join().unwrap();
    ex
}

#[test]
fn ready_list_runs_each_op_once_after_its_predecessors() {
    pool_model(|| {
        let ex = run_executor(None);
        for ran in &ex.ran {
            assert_eq!(ran.load(Ordering::Relaxed), 1);
        }
        let st = ex.state.lock().unwrap();
        assert_eq!(st.done, 4);
        assert!(st.ready.is_empty() && st.panics.is_empty());
    });
}

#[test]
fn ready_list_skips_successors_of_a_panic_and_still_shuts_down() {
    pool_model(|| {
        let ex = run_executor(Some(1));
        // Op 1 "panicked": its successor is skipped, the independent op
        // still ran, and every op completed so both participants left.
        let ran: Vec<usize> = ex.ran.iter().map(|r| r.load(Ordering::Relaxed)).collect();
        assert_eq!(ran, [1, 1, 1, 0]);
        let st = ex.state.lock().unwrap();
        assert_eq!(st.panics, vec![1]);
        assert_eq!(st.done, 4);
    });
}

// ---------------------------------------------------------------------------
// SharedSlice model (shared.rs)
// ---------------------------------------------------------------------------

/// Mirror of `shared::SharedSlice`: a shared buffer written through raw
/// pointers with *caller-promised* disjointness and no synchronization.
struct SharedBuf(UnsafeCell<[usize; 4]>);

// SAFETY: the model's two writers touch disjoint index sets (0..2 and
// 2..4), exactly the contract SharedSlice imposes on its callers, so no
// location is accessed concurrently from two threads.
unsafe impl Sync for SharedBuf {}

#[test]
fn shared_slice_disjoint_writes_land_in_all_interleavings() {
    loom::model(|| {
        let buf = Arc::new(SharedBuf(UnsafeCell::new([0usize; 4])));
        let writer = {
            let buf = Arc::clone(&buf);
            thread::spawn(move || {
                for i in 0..2 {
                    // SAFETY: this thread owns indices 0..2 exclusively.
                    buf.0.with_mut(|p| unsafe { (*p)[i] = i + 1 });
                }
            })
        };
        for i in 2..4 {
            // SAFETY: this thread owns indices 2..4 exclusively.
            buf.0.with_mut(|p| unsafe { (*p)[i] = i + 1 });
        }
        writer.join().unwrap();
        // SAFETY: both writers finished (join): no concurrent access.
        let seen = buf.0.with(|p| unsafe { *p });
        assert_eq!(seen, [1, 2, 3, 4]);
    });
}

// ---------------------------------------------------------------------------
// ContextCache model (cmm.rs)
// ---------------------------------------------------------------------------

type CacheMap = Mutex<Vec<(u8, Arc<Mutex<u64>>)>>;

/// Mirror of `cmm::ContextCache::get_or_create`: check-then-insert
/// under one lock tenure (a Vec stands in for the HashMap — loom model
/// bodies must be deterministic, and HashMap iteration order is not).
fn get_or_create(map: &CacheMap, key: u8, inits: &AtomicUsize) -> Arc<Mutex<u64>> {
    let mut m = map.lock().unwrap();
    if let Some((_, ctx)) = m.iter().find(|(k, _)| *k == key) {
        return Arc::clone(ctx);
    }
    inits.fetch_add(1, Ordering::Relaxed);
    let ctx = Arc::new(Mutex::new(0u64));
    m.push((key, Arc::clone(&ctx)));
    ctx
}

/// Mirror of `cmm::ContextCache::idle_count`: entries whose only strong
/// reference is the cache's own.
fn idle_count(map: &CacheMap) -> usize {
    map.lock()
        .unwrap()
        .iter()
        .filter(|(_, ctx)| Arc::strong_count(ctx) == 1)
        .count()
}

#[test]
fn context_cache_initializes_once_and_idle_accounting_settles() {
    loom::model(|| {
        let map: Arc<CacheMap> = Arc::new(Mutex::new(Vec::new()));
        let inits = Arc::new(AtomicUsize::new(0));
        let racer = {
            let (map, inits) = (Arc::clone(&map), Arc::clone(&inits));
            thread::spawn(move || {
                let ctx = get_or_create(&map, 7, &inits);
                *ctx.lock().unwrap() += 1;
            })
        };
        let ctx = get_or_create(&map, 7, &inits);
        *ctx.lock().unwrap() += 1;
        // While this caller holds its Arc the entry cannot be idle.
        assert_eq!(idle_count(&map), 0);
        drop(ctx);
        racer.join().unwrap();
        // Racing getters agreed on one context: a single init, both
        // increments on it, and — every borrower released — the cache
        // holds the only reference again (idle == len).
        assert_eq!(inits.load(Ordering::Relaxed), 1);
        let m = map.lock().unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(*m[0].1.lock().unwrap(), 2);
        assert_eq!(Arc::strong_count(&m[0].1), 1);
    });
}
