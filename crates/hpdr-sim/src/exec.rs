//! Concurrent execution of a DAG's payloads.
//!
//! [`crate::Sim::run`] runs payloads one after another in submission
//! order unless workers are attached ([`crate::Sim::set_workers`]),
//! auditing is off, and [`plan`] accepts the DAG: two kernel payloads of
//! at least [`MIN_CONCURRENT_KERNEL_BYTES`] can overlap, and the two
//! properties below hold. Then a ready list over
//! the DAG runs them: each participant on the worker pool takes the
//! lowest-numbered ready op, runs its payload, and releases the op's
//! successors. A participant that makes a successor ready runs it itself,
//! so a chain of ops pays no hand-off; it wakes another participant only
//! for the ready ops it leaves behind.
//!
//! Two properties make every output equal the serial executor's:
//!
//! * **Happens-before without engine edges.** An engine serializes ops
//!   only in virtual time, so the executor orders ops by explicit deps and
//!   queue order alone ([`Reachability::program_order`]). [`plan`] accepts
//!   a DAG only if every two ops that touch one buffer are ordered that
//!   way, unless both merely read it and neither carries a payload. Any
//!   order the executor allows then runs each such pair in submission
//!   order.
//! * **Buffer ownership.** A payload runs against a view that holds only
//!   the buffers its effects declare ([`MemPool::lend`]), moved out of the
//!   run's pool and back, so two running payloads cannot share a buffer.
//!
//! Virtual time does not come from here: [`crate::Sim::run`] computes it
//! afterwards, from the ops in submission order, exactly as the serial
//! executor's run does.
//!
//! A panicking payload does not stop the others. Its successors are
//! skipped, every op that does not depend on it still runs, and the run
//! then re-raises the panic of the lowest-numbered op that panicked: the
//! op at which the serial executor would have stopped.

use crate::effects::Effects;
use crate::mem::{BufId, MemPool};
use crate::sim::{Cost, OpSpec, Payload};
use crate::time::Ns;
use crate::verify::{Dag, Reachability};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Threads the concurrent executor runs its participants on (the worker
/// pool of `hpdr-core`, which sits above this crate).
pub trait Workers: Sync {
    /// Call `body(p)` for every `p in 0..participants`, at once where
    /// threads are free, and return when every call has returned.
    fn run(&self, participants: usize, body: &(dyn Fn(usize) + Sync));
}

/// Kernel payloads over fewer input bytes than this do not make a DAG
/// run concurrently. Side by side they save less than the hand-offs cost:
/// serving batches of 8–16³ fields (2–16 KiB) lost a quarter of their
/// CPU throughput that way, while the pipelined fields' chunks (256 KiB
/// and up) gained.
pub const MIN_CONCURRENT_KERNEL_BYTES: u64 = 64 << 10;

/// A DAG accepted for concurrent execution: successor lists and
/// predecessor counts under explicit deps and queue order.
pub(crate) struct Plan {
    succ: Vec<Vec<usize>>,
    preds: Vec<usize>,
}

/// Accept `dag` (built from `specs`) for concurrent execution, or `None`
/// when it must run serially: its structure is invalid, no two kernel
/// payloads of at least [`MIN_CONCURRENT_KERNEL_BYTES`] can run at once,
/// or two ops that touch one buffer, one of them exclusively (a write,
/// alloc or free, or any access by a payload), are ordered only by an
/// engine or not at all.
pub(crate) fn plan(dag: &Dag, specs: &[OpSpec], has_payload: &[bool]) -> Option<Plan> {
    let reach = Reachability::program_order(dag)?;
    let kernels: Vec<usize> = (0..dag.len())
        .filter(|&i| {
            has_payload[i]
                && matches!(specs[i].cost, Cost::Kernel { bytes, .. }
                    if bytes >= MIN_CONCURRENT_KERNEL_BYTES)
        })
        .collect();
    let overlap = kernels
        .iter()
        .enumerate()
        .any(|(x, &a)| kernels[x + 1..].iter().any(|&b| !reach.ordered(a, b)));
    if !overlap {
        return None;
    }
    let mut accesses: HashMap<BufId, Vec<(usize, bool)>> = HashMap::new();
    for (i, op) in dag.ops.iter().enumerate() {
        let fx = &op.effects;
        for b in fx.touched() {
            let exclusive = has_payload[i]
                || fx.writes.contains(&b)
                || fx.allocs.contains(&b)
                || fx.frees.contains(&b);
            accesses.entry(b).or_default().push((i, exclusive));
        }
    }
    for list in accesses.values() {
        for (x, &(a, ea)) in list.iter().enumerate() {
            for &(b, eb) in &list[x + 1..] {
                if (ea || eb) && !reach.ordered(a, b) {
                    return None;
                }
            }
        }
    }
    let n = dag.len();
    let mut succ = vec![Vec::new(); n];
    let mut preds = vec![0; n];
    let mut last_on_queue: HashMap<usize, usize> = HashMap::new();
    for (i, op) in dag.ops.iter().enumerate() {
        let mut before = op.deps.clone();
        if let Some(prev) = op.queue.and_then(|q| last_on_queue.insert(q, i)) {
            before.push(prev);
        }
        before.sort_unstable();
        before.dedup();
        preds[i] = before.len();
        for p in before {
            succ[p].push(i);
        }
    }
    Some(Plan { succ, preds })
}

/// What running one op measured.
#[derive(Debug, Clone, Default)]
pub(crate) struct Exec {
    /// Wall-clock start of the payload, from the start of the run.
    pub wall_start: Ns,
    /// Wall-clock duration of the payload (zero without one).
    pub wall: Ns,
    /// Live bytes of the op's declared buffers after it ran (when
    /// tracing).
    pub footprint: u64,
    /// The accesses the payload performed (audit mode only).
    pub observed: Option<Effects>,
}

/// How each payload is held to its declared effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Guard {
    Off,
    /// Panic on an undeclared access (debug builds).
    Enforce,
    /// Record every access (audit mode; serial executor only).
    Record,
}

/// The fixed inputs of one run, shared by both executors.
pub(crate) struct Run<'r> {
    pub specs: &'r [OpSpec],
    /// Sample each op's footprint (tracing is on).
    pub footprints: bool,
    pub guard: Guard,
    pub t0: Instant,
}

impl Run<'_> {
    /// Run op `i`'s payload against `pool`, catching a panic.
    fn payload(
        &self,
        i: usize,
        p: Payload<'_>,
        pool: &mut MemPool,
    ) -> (Exec, Option<Box<dyn Any + Send>>) {
        let spec = &self.specs[i];
        match self.guard {
            Guard::Off => {}
            Guard::Enforce => pool.begin_payload(&spec.label, &spec.effects),
            Guard::Record => pool.begin_payload_recording(&spec.label, &spec.effects),
        }
        let t = Instant::now();
        let panic = catch_unwind(AssertUnwindSafe(|| p(pool))).err();
        let wall = Ns(t.elapsed().as_nanos() as u64);
        let observed = pool.end_payload();
        let exec = Exec {
            wall_start: Ns(t.duration_since(self.t0).as_nanos() as u64),
            wall,
            footprint: self.footprint(pool, &spec.effects),
            observed,
        };
        (exec, panic)
    }

    /// What an op without a payload measured.
    fn bare(&self, i: usize, pool: &MemPool) -> Exec {
        Exec {
            footprint: self.footprint(pool, &self.specs[i].effects),
            ..Exec::default()
        }
    }

    fn footprint(&self, pool: &MemPool, effects: &Effects) -> u64 {
        if self.footprints {
            pool.footprint(effects)
        } else {
            0
        }
    }
}

/// The ready list, shared by the participants under one lock.
struct Ready<'p, 'a> {
    pool: &'p mut MemPool,
    payloads: Vec<Option<Payload<'a>>>,
    /// Unfinished predecessors per op.
    waiting: Vec<usize>,
    ready: BinaryHeap<Reverse<usize>>,
    done: usize,
    /// Ops after a panicking payload: completed without running.
    skipped: Vec<bool>,
    panics: Vec<(usize, Box<dyn Any + Send>)>,
    exec: Vec<Exec>,
}

/// Run every payload of an accepted DAG on up to `participants` workers.
/// Returns each op's measurements, or the panic of the lowest-numbered op
/// that panicked.
pub(crate) fn run_concurrent(
    workers: &dyn Workers,
    participants: usize,
    plan: &Plan,
    run: &Run<'_>,
    pool: &mut MemPool,
    payloads: Vec<Option<Payload<'_>>>,
) -> Result<Vec<Exec>, Box<dyn Any + Send>> {
    let n = plan.preds.len();
    let state = Mutex::new(Ready {
        pool,
        payloads,
        waiting: plan.preds.clone(),
        ready: (0..n)
            .filter(|&i| plan.preds[i] == 0)
            .map(Reverse)
            .collect(),
        done: 0,
        skipped: vec![false; n],
        panics: Vec::new(),
        exec: vec![Exec::default(); n],
    });
    let wake = Condvar::new();
    workers.run(participants, &|_| participate(plan, run, &state, &wake));
    let Ready { panics, exec, .. } = state.into_inner();
    match panics.into_iter().min_by_key(|(i, _)| *i) {
        Some((_, panic)) => Err(panic),
        None => Ok(exec),
    }
}

/// One participant: take the lowest ready op, run it, release its
/// successors; wait while nothing is ready; return when every op is done.
fn participate(plan: &Plan, run: &Run<'_>, state: &Mutex<Ready<'_, '_>>, wake: &Condvar) {
    let n = plan.preds.len();
    let mut st = state.lock();
    loop {
        if st.done == n {
            return;
        }
        let Some(Reverse(i)) = st.ready.pop() else {
            wake.wait(&mut st);
            continue;
        };
        let payload = if st.skipped[i] {
            None
        } else {
            st.payloads[i].take()
        };
        let (exec, panic) = match payload {
            Some(p) => {
                let mut view = st.pool.lend(&run.specs[i].effects);
                drop(st);
                let result = run.payload(i, p, &mut view);
                st = state.lock();
                st.pool.restore(view);
                result
            }
            None if st.skipped[i] => (Exec::default(), None),
            None => (run.bare(i, st.pool), None),
        };
        st.exec[i] = exec;
        if let Some(panic) = panic {
            st.skipped[i] = true;
            st.panics.push((i, panic));
        }
        st.done += 1;
        let skip = st.skipped[i];
        for &s in &plan.succ[i] {
            st.skipped[s] |= skip;
            st.waiting[s] -= 1;
            if st.waiting[s] == 0 {
                st.ready.push(Reverse(s));
            }
        }
        if st.done == n {
            wake.notify_all();
        } else {
            // This participant takes one ready op next; wake others for
            // the rest.
            for _ in 1..st.ready.len() {
                wake.notify_one();
            }
        }
    }
}

/// Run every payload in submission order (the serial executor: audit
/// mode, DAGs whose payloads cannot overlap, and the test oracle). A
/// panic propagates at once, as it always has.
pub(crate) fn run_serial(
    run: &Run<'_>,
    pool: &mut MemPool,
    payloads: Vec<Option<Payload<'_>>>,
) -> Vec<Exec> {
    let mut exec = Vec::with_capacity(payloads.len());
    for (i, payload) in payloads.into_iter().enumerate() {
        match payload {
            Some(p) => {
                let (e, panic) = run.payload(i, p, pool);
                if let Some(panic) = panic {
                    std::panic::resume_unwind(panic);
                }
                exec.push(e);
            }
            None => exec.push(run.bare(i, pool)),
        }
    }
    exec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{DeviceId, Engine, OpId, QueueId, Sim};
    use crate::spec::{v100, KernelClass};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// One scoped thread per participant, counting the jobs it ran.
    #[derive(Default)]
    struct Threads {
        jobs: AtomicUsize,
    }

    impl Workers for Threads {
        fn run(&self, participants: usize, body: &(dyn Fn(usize) + Sync)) {
            self.jobs.fetch_add(1, Ordering::Relaxed);
            std::thread::scope(|s| {
                for p in 1..participants {
                    s.spawn(move || body(p));
                }
                body(0);
            });
        }
    }

    fn device<'a>() -> (Sim<'a>, DeviceId) {
        let mut sim = Sim::new();
        let rt = sim.add_runtime();
        let dev = sim.add_device(v100(), rt);
        (sim, dev)
    }

    /// A compute op is a kernel just large enough to run concurrently.
    fn op(engine: Engine, queue: QueueId, deps: Vec<OpId>, effects: Effects) -> OpSpec {
        let cost = match engine {
            Engine::Compute(_) => Cost::Kernel {
                class: KernelClass::Other,
                bytes: MIN_CONCURRENT_KERNEL_BYTES,
            },
            _ => Cost::Fixed(Ns(10)),
        };
        OpSpec {
            engine,
            queue: Some(queue),
            deps,
            cost,
            label: "op".into(),
            effects,
        }
    }

    /// Two chunks on two queues, each H2D → kernel (with a dynamic-size
    /// D2H) → D2H, sharing the engines: the pipeline shape in small.
    fn two_chunks(sim: &mut Sim<'_>, dev: DeviceId) -> Vec<crate::mem::BufId> {
        let mut outs = Vec::new();
        for k in 0..2u8 {
            let q = sim.add_queue();
            let (a, b) = (sim.create_buffer(dev, 64), sim.create_buffer(dev, 0));
            let h2d = sim.push(
                op(Engine::H2D(dev), q, vec![], Effects::write(a)),
                Some(Box::new(move |pool: &mut MemPool| {
                    pool.get_mut(a).fill(k + 1)
                })),
            );
            let size = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
            let cell = std::sync::Arc::clone(&size);
            let kernel = sim.push(
                op(
                    Engine::Compute(dev),
                    q,
                    vec![h2d],
                    Effects::read(a).and_write(b),
                ),
                Some(Box::new(move |pool: &mut MemPool| {
                    let out: Vec<u8> = pool
                        .get(a)
                        .iter()
                        .map(|x| x * 3)
                        .take(20 + k as usize)
                        .collect();
                    cell.store(out.len() as u64, Ordering::SeqCst);
                    pool.replace(b, out);
                })),
            );
            sim.push(
                OpSpec {
                    cost: Cost::TransferDyn { bytes: size },
                    ..op(Engine::D2H(dev), q, vec![kernel], Effects::read(b))
                },
                None,
            );
            outs.push(b);
        }
        outs
    }

    #[test]
    fn concurrent_run_matches_the_serial_one() {
        let run = |workers: Option<&Threads>| {
            let (mut sim, dev) = device();
            let outs = two_chunks(&mut sim, dev);
            if let Some(w) = workers {
                sim.set_workers(w, 2);
            }
            sim.set_trace(true);
            let tl = sim.run();
            let trace = sim.take_trace().unwrap();
            let spans: Vec<_> = trace
                .spans()
                .iter()
                .map(|s| (s.start, s.end, s.ready, s.bytes, s.footprint_bytes))
                .collect();
            let records: Vec<_> = tl.records().iter().map(|r| (r.start, r.end)).collect();
            let bytes: Vec<Vec<u8>> = outs.iter().map(|&b| sim.take_buffer(b)).collect();
            (records, spans, bytes)
        };
        let threads = Threads::default();
        assert_eq!(run(None), run(Some(&threads)));
        assert_eq!(
            threads.jobs.load(Ordering::Relaxed),
            1,
            "ran on the workers"
        );
    }

    #[test]
    fn payloads_of_two_chunks_run_side_by_side() {
        // Each payload waits for the other: only side-by-side execution
        // lets both return in time.
        let threads = Threads::default();
        let (mut sim, dev) = device();
        let (to_b, from_a) = mpsc::channel::<()>();
        let (to_a, from_b) = mpsc::channel::<()>();
        for (tx, rx) in [(to_b, from_b), (to_a, from_a)] {
            let q = sim.add_queue();
            let buf = sim.create_buffer(dev, 1);
            sim.push(
                op(Engine::Compute(dev), q, vec![], Effects::write(buf)),
                Some(Box::new(move |_: &mut MemPool| {
                    tx.send(()).unwrap();
                    rx.recv_timeout(Duration::from_secs(30))
                        .expect("the other payload ran");
                })),
            );
        }
        sim.set_workers(&threads, 2);
        sim.set_trace(true);
        sim.run();
        let trace = sim.take_trace().unwrap();
        let [a, b] = [&trace.spans()[0], &trace.spans()[1]];
        assert!(a.wall_start < b.wall_start + b.wall && b.wall_start < a.wall_start + a.wall);
    }

    #[test]
    fn pairs_ordered_only_by_an_engine_run_serially() {
        // Two writes of one buffer from two queues: the compute engine
        // orders them in virtual time (so `verify` passes), but nothing
        // orders them on the wall clock.
        let build = |dep: bool| {
            let (mut sim, dev) = device();
            let buf = sim.create_buffer(dev, 4);
            let (q0, q1) = (sim.add_queue(), sim.add_queue());
            let first = sim.push(
                op(Engine::Compute(dev), q0, vec![], Effects::write(buf)),
                Some(Box::new(move |pool: &mut MemPool| {
                    pool.get_mut(buf).fill(1)
                })),
            );
            let deps = if dep { vec![first] } else { vec![] };
            sim.push(
                op(Engine::Compute(dev), q1, deps, Effects::write(buf)),
                Some(Box::new(move |pool: &mut MemPool| {
                    pool.get_mut(buf).fill(2)
                })),
            );
            let (other, q2) = (sim.create_buffer(dev, 4), sim.add_queue());
            sim.push(
                op(Engine::Compute(dev), q2, vec![], Effects::write(other)),
                Some(Box::new(move |pool: &mut MemPool| {
                    pool.get_mut(other).fill(3)
                })),
            );
            (sim, buf)
        };
        let run = |dep: bool| {
            let threads = Threads::default();
            let (mut sim, buf) = build(dep);
            assert!(crate::verify::analyze(&sim.dag()).is_clean());
            sim.set_workers(&threads, 2);
            sim.run();
            (threads.jobs.load(Ordering::Relaxed), sim.take_buffer(buf))
        };
        assert_eq!(run(false), (0, vec![2; 4]), "serial executor");
        // An explicit dep orders the pair, and the third payload can
        // overlap the first: the DAG runs concurrently.
        assert_eq!(run(true), (1, vec![2; 4]));
    }

    #[test]
    fn small_kernel_payloads_run_serially() {
        let threads = Threads::default();
        let (mut sim, dev) = device();
        for _ in 0..2 {
            let (q, buf) = (sim.add_queue(), sim.create_buffer(dev, 1));
            sim.push(
                OpSpec {
                    cost: Cost::Kernel {
                        class: KernelClass::Other,
                        bytes: MIN_CONCURRENT_KERNEL_BYTES - 1,
                    },
                    ..op(Engine::Compute(dev), q, vec![], Effects::write(buf))
                },
                Some(Box::new(|_: &mut MemPool| {})),
            );
        }
        sim.set_workers(&threads, 2);
        sim.run();
        assert_eq!(threads.jobs.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn totally_ordered_payloads_run_serially() {
        let threads = Threads::default();
        let (mut sim, dev) = device();
        let q = sim.add_queue();
        for _ in 0..3 {
            let buf = sim.create_buffer(dev, 1);
            sim.push(
                op(Engine::Compute(dev), q, vec![], Effects::write(buf)),
                Some(Box::new(|_: &mut MemPool| {})),
            );
        }
        sim.set_workers(&threads, 2);
        sim.run();
        assert_eq!(threads.jobs.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_panic_reraises_the_lowest_ops_and_spares_independent_ops() {
        let threads = Threads::default();
        for _ in 0..8 {
            let (mut sim, dev) = device();
            let (q0, q1) = (sim.add_queue(), sim.add_queue());
            let bufs: Vec<_> = (0..4).map(|_| sim.create_buffer(dev, 1)).collect();
            let ok = sim.create_buffer(dev, 1);
            // #0 (q0) is fine; #1 (q1) and #2 (q0) panic; #3 follows #1
            // on q1, so it is skipped; #4 (q2) depends on nothing.
            let panics = |n: usize| -> crate::sim::Payload<'static> {
                Box::new(move |_: &mut MemPool| panic!("op {n}"))
            };
            sim.push(
                op(Engine::Compute(dev), q0, vec![], Effects::write(bufs[0])),
                Some(Box::new(|_: &mut MemPool| {})),
            );
            sim.push(
                op(Engine::Compute(dev), q1, vec![], Effects::write(bufs[1])),
                Some(panics(1)),
            );
            sim.push(
                op(Engine::Compute(dev), q0, vec![], Effects::write(bufs[2])),
                Some(panics(2)),
            );
            sim.push(
                op(Engine::Compute(dev), q1, vec![], Effects::write(bufs[3])),
                Some(Box::new(|_: &mut MemPool| {
                    unreachable!("runs after a panic")
                })),
            );
            let q2 = sim.add_queue();
            sim.push(
                op(Engine::H2D(dev), q2, vec![], Effects::write(ok)),
                Some(Box::new(move |pool: &mut MemPool| pool.get_mut(ok).fill(9))),
            );
            sim.set_workers(&threads, 2);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
                .expect_err("a payload panicked");
            assert_eq!(
                err.downcast_ref::<String>().map(String::as_str),
                Some("op 1")
            );
            assert_eq!(sim.pool().get(ok), &[9]);
        }
    }
}
