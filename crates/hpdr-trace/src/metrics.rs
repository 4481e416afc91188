//! Aggregated metrics over a span trace: engine utilization, the paper
//! §V-C overlap ratio, the Fig. 1 memory-op share, per-op-class latency
//! histograms, and allocator contention.

use crate::timeline::{intersection, merge_in_place, total};
use hpdr_sim::{Category, DeviceId, Engine, Ns, OpKind, SpanRecord, Trace};

/// Stable human-readable engine name (also used for Perfetto thread
/// names).
pub fn engine_name(e: Engine) -> String {
    match e {
        Engine::H2D(d) => format!("dev{}.h2d", d.0),
        Engine::D2H(d) => format!("dev{}.d2h", d.0),
        Engine::Compute(d) => format!("dev{}.compute", d.0),
        Engine::Staging(d) => format!("dev{}.staging", d.0),
        Engine::Runtime(r) => format!("runtime{}.alloc", r.0),
        Engine::Host => "host".to_string(),
    }
}

/// Busy/utilization summary for one engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStats {
    pub engine: Engine,
    pub name: String,
    pub ops: usize,
    /// Total busy time (ops on one engine never overlap).
    pub busy: Ns,
    /// Idle time inside the trace's makespan.
    pub idle: Ns,
    /// busy / makespan; in (0, 1] for any engine that ran at least one
    /// timed op.
    pub utilization: f64,
}

/// Per-engine busy/idle/utilization, sorted by engine name for
/// deterministic output. Engines with no ops in the trace don't appear.
pub fn engine_stats(trace: &Trace) -> Vec<EngineStats> {
    let makespan = trace.makespan();
    let mut engines: Vec<Engine> = Vec::new();
    for s in trace.spans() {
        if !engines.contains(&s.engine) {
            engines.push(s.engine);
        }
    }
    let mut stats: Vec<EngineStats> = engines
        .into_iter()
        .map(|engine| {
            let spans: Vec<&SpanRecord> = trace
                .spans()
                .iter()
                .filter(|s| s.engine == engine)
                .collect();
            let busy: Ns = spans.iter().map(|s| s.duration()).sum();
            EngineStats {
                engine,
                name: engine_name(engine),
                ops: spans.len(),
                busy,
                idle: makespan.saturating_sub(busy),
                utilization: if makespan.is_zero() {
                    0.0
                } else {
                    busy.0 as f64 / makespan.0 as f64
                },
            }
        })
        .collect();
    stats.sort_by(|a, b| a.name.cmp(&b.name));
    stats
}

/// Share of payload wall-clock time that ran beside another payload: the
/// measured counterpart of [`Digest::overlap`], over the spans'
/// `[wall_start, wall_start + wall)` intervals. 0 when the payloads ran
/// one at a time; `None` when no payload ran.
pub fn wall_overlap_ratio(trace: &Trace) -> Option<f64> {
    let mut edges: Vec<(u64, i64)> = Vec::new();
    for s in trace.spans().iter().filter(|s| !s.wall.is_zero()) {
        edges.push((s.wall_start.0, 1));
        edges.push((s.wall_start.0 + s.wall.0, -1));
    }
    // Ends sort before starts at the same instant: touching is not
    // overlapping.
    edges.sort_unstable();
    let (mut running, mut last, mut total, mut beside) = (0u64, 0u64, 0u64, 0u64);
    for (t, step) in edges {
        let covered = (t - last) * running;
        total += covered;
        if running > 1 {
            beside += covered;
        }
        running = running.checked_add_signed(step).expect("balanced edges");
        last = t;
    }
    (total > 0).then(|| beside as f64 / total as f64)
}

/// The numbers derived from a trace, in one pass over its spans: busy
/// time per Fig. 1 category, the paper §V-C overlap ratio of one device,
/// and allocator contention. This is their only implementation: the
/// pipeline and multi-GPU reports, [`crate::Profile`], the serve
/// metering and the bench figures all read them from here.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Digest {
    /// Busy ns per Fig. 1 category, in [`Category::ALL`] order (the sum
    /// of span durations: ops on one engine never overlap).
    pub busy: [Ns; 5],
    /// Overlap ratio of the requested device: the fraction of its DMA
    /// time during which it was doing anything else (compute or the
    /// opposite-direction DMA). `None` if the device did no DMA.
    pub overlap: Option<f64>,
    /// Time alloc/free ops queued behind the shared runtime lock after
    /// their data dependencies were satisfied: the paper §III-B
    /// allocator-contention cost that the CMM eliminates (CMM schedules
    /// emit no per-call alloc/free ops, so theirs is zero).
    pub contention: Ns,
}

impl Digest {
    /// Categories that actually ran, with their busy time.
    pub fn busy_by_category(&self) -> impl Iterator<Item = (Category, Ns)> + '_ {
        Category::ALL
            .into_iter()
            .zip(self.busy)
            .filter(|(_, b)| !b.is_zero())
    }

    /// Fraction of busy time spent on memory operations (H2D + D2H +
    /// host staging copies + mem-mgmt, i.e. everything but compute): the
    /// paper's Fig. 1 "34–89%" metric.
    pub fn memory_fraction(&self) -> f64 {
        let all: Ns = self.busy.iter().copied().sum();
        if all.is_zero() {
            0.0
        } else {
            (all - self.busy[Category::Compute as usize]).0 as f64 / all.0 as f64
        }
    }
}

/// Reusable buffers for [`digest_with`]: interval lists stay allocated
/// across calls, so the steady-state digest does no heap work. It runs
/// once per launch on the serving hot path.
#[derive(Debug, Clone, Default)]
pub struct DigestScratch {
    h2d: Vec<(Ns, Ns)>,
    d2h: Vec<(Ns, Ns)>,
    compute: Vec<(Ns, Ns)>,
    other: Vec<(Ns, Ns)>,
}

/// Compute a [`Digest`] of `trace`, with the overlap ratio of `dev`.
pub fn digest(trace: &Trace, dev: DeviceId) -> Digest {
    digest_with(trace, dev, &mut DigestScratch::default())
}

/// [`digest`] with caller-owned scratch buffers (keep one
/// [`DigestScratch`] per device and the per-batch digest is
/// allocation-free after warm-up).
pub fn digest_with(trace: &Trace, dev: DeviceId, s: &mut DigestScratch) -> Digest {
    s.h2d.clear();
    s.d2h.clear();
    s.compute.clear();
    let mut busy = [Ns::ZERO; 5];
    let mut contention = Ns::ZERO;
    for sp in trace.spans() {
        busy[Category::of(sp.engine) as usize] += sp.duration();
        match sp.engine {
            Engine::H2D(d) if d == dev => s.h2d.push((sp.start, sp.end)),
            Engine::D2H(d) if d == dev => s.d2h.push((sp.start, sp.end)),
            Engine::Compute(d) if d == dev => s.compute.push((sp.start, sp.end)),
            Engine::Runtime(_) => contention += sp.wait(),
            _ => {}
        }
    }
    merge_in_place(&mut s.h2d);
    merge_in_place(&mut s.d2h);
    merge_in_place(&mut s.compute);
    let dma_total = total(&s.h2d) + total(&s.d2h);
    let overlap = if dma_total.is_zero() {
        None
    } else {
        s.other.clear();
        s.other.extend_from_slice(&s.compute);
        s.other.extend_from_slice(&s.d2h);
        merge_in_place(&mut s.other);
        let mut overlapped = intersection(&s.h2d, &s.other);
        s.other.clear();
        s.other.extend_from_slice(&s.compute);
        s.other.extend_from_slice(&s.h2d);
        merge_in_place(&mut s.other);
        overlapped += intersection(&s.d2h, &s.other);
        Some(overlapped.0 as f64 / dma_total.0 as f64)
    };
    Digest {
        busy,
        overlap,
        contention,
    }
}

/// A log2-bucketed latency histogram.
///
/// Bucket `i` counts ops whose duration `d` satisfies `2^i ≤ d < 2^(i+1)`
/// nanoseconds (bucket 0 also holds zero-duration ops).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    pub count: u64,
    pub total: Ns,
    pub min: Ns,
    pub max: Ns,
}

impl LatencyHistogram {
    fn add(&mut self, d: Ns) {
        let idx = if d.0 <= 1 {
            0
        } else {
            (63 - d.0.leading_zeros()) as usize
        };
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        if self.count == 0 {
            self.min = d;
            self.max = d;
        } else {
            self.min = self.min.min(d);
            self.max = self.max.max(d);
        }
        self.count += 1;
        self.total += d;
    }

    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    pub fn mean(&self) -> Ns {
        Ns(self.total.0.checked_div(self.count).unwrap_or(0))
    }
}

/// The histogram key of a span: kernels are split per [`hpdr_sim::KernelClass`]
/// ("kernel:mgard"), everything else by op kind on its engine category.
pub fn span_key(span: &SpanRecord) -> String {
    match span.kind {
        OpKind::Kernel => match span.class {
            Some(c) => format!("kernel:{}", format!("{c:?}").to_lowercase()),
            None => "kernel:?".to_string(),
        },
        OpKind::Transfer => match span.engine {
            Engine::H2D(_) => "h2d".to_string(),
            Engine::D2H(_) => "d2h".to_string(),
            _ => "transfer".to_string(),
        },
        OpKind::Alloc => "alloc".to_string(),
        OpKind::Free => "free".to_string(),
        OpKind::HostCopy => "host-copy".to_string(),
        OpKind::Fixed => "fixed".to_string(),
    }
}

/// Per-op-class latency histograms, sorted by key for deterministic
/// output.
pub fn latency_histograms(trace: &Trace) -> Vec<(String, LatencyHistogram)> {
    let mut hists: Vec<(String, LatencyHistogram)> = Vec::new();
    for span in trace.spans() {
        let key = span_key(span);
        let hist = match hists.iter_mut().find(|(k, _)| *k == key) {
            Some((_, h)) => h,
            None => {
                hists.push((key, LatencyHistogram::default()));
                &mut hists.last_mut().expect("just pushed").1
            }
        };
        hist.add(span.duration());
    }
    hists.sort_by(|a, b| a.0.cmp(&b.0));
    hists
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hpdr_sim::{KernelClass, RuntimeId};

    fn span(
        op: usize,
        engine: Engine,
        start: u64,
        end: u64,
        kind: OpKind,
        class: Option<KernelClass>,
    ) -> SpanRecord {
        SpanRecord {
            op,
            label: format!("op{op}"),
            engine,
            queue: Some(0),
            deps: vec![],
            kind,
            class,
            start: Ns(start),
            end: Ns(end),
            bytes: end - start,
            footprint_bytes: 0,
            ready: Ns(start),
            wall_start: Ns::ZERO,
            wall: Ns::ZERO,
        }
    }

    fn d0() -> DeviceId {
        DeviceId(0)
    }

    #[test]
    fn wall_overlap_counts_payload_time_beside_another() {
        let timed = |op, wall_start, wall| SpanRecord {
            wall_start: Ns(wall_start),
            wall: Ns(wall),
            ..span(op, Engine::Compute(d0()), 0, 1, OpKind::Kernel, None)
        };
        // One after another (touching ends): no overlap.
        let serial = Trace::from_spans(vec![timed(0, 0, 10), timed(1, 10, 10)]);
        assert_eq!(wall_overlap_ratio(&serial), Some(0.0));
        // [0, 10) and [5, 25): 5 ns run side by side, on each of two
        // payloads, out of 30 payload-ns.
        let overlapped = Trace::from_spans(vec![timed(0, 0, 10), timed(1, 5, 20)]);
        assert_eq!(wall_overlap_ratio(&overlapped), Some(10.0 / 30.0));
        // No payload ran.
        let bare = Trace::from_spans(vec![span(
            0,
            Engine::H2D(d0()),
            0,
            5,
            OpKind::Transfer,
            None,
        )]);
        assert_eq!(wall_overlap_ratio(&bare), None);
    }

    #[test]
    fn engine_stats_utilization() {
        let trace = Trace::from_spans(vec![
            span(0, Engine::H2D(d0()), 0, 50, OpKind::Transfer, None),
            span(
                1,
                Engine::Compute(d0()),
                50,
                100,
                OpKind::Kernel,
                Some(KernelClass::Mgard),
            ),
            span(2, Engine::H2D(d0()), 50, 80, OpKind::Transfer, None),
        ]);
        let stats = engine_stats(&trace);
        assert_eq!(stats.len(), 2);
        let compute = stats.iter().find(|s| s.name == "dev0.compute").unwrap();
        assert_eq!(compute.busy, Ns(50));
        assert_eq!(compute.idle, Ns(50));
        assert!((compute.utilization - 0.5).abs() < 1e-12);
        let h2d = stats.iter().find(|s| s.name == "dev0.h2d").unwrap();
        assert_eq!(h2d.ops, 2);
        assert_eq!(h2d.busy, Ns(80));
    }

    /// A trace of `(engine, start, end)` spans; kind and class do not
    /// enter the digest.
    pub(crate) fn trace(spans: &[(Engine, u64, u64)]) -> Trace {
        Trace::from_spans(
            spans
                .iter()
                .enumerate()
                .map(|(op, &(e, start, end))| span(op, e, start, end, OpKind::Fixed, None))
                .collect(),
        )
    }

    /// Spans and the number the digest must derive from them.
    type Case = (&'static [(Engine, u64, u64)], f64);

    pub(crate) const H2D: Engine = Engine::H2D(DeviceId(0));
    pub(crate) const D2H: Engine = Engine::D2H(DeviceId(0));
    pub(crate) const COMPUTE: Engine = Engine::Compute(DeviceId(0));
    const STAGING: Engine = Engine::Staging(DeviceId(0));
    pub(crate) const RUNTIME: Engine = Engine::Runtime(RuntimeId(0));

    #[test]
    fn overlap_counts_dma_under_compute() {
        let cases: [Case; 3] = [
            // H2D [0,100); compute [50,150) ⇒ 50 of 100 DMA ns overlapped.
            (&[(H2D, 0, 100), (COMPUTE, 50, 150)], 0.5),
            // One kernel across the gap of two copies: [5,10) and [20,25).
            (&[(H2D, 0, 10), (H2D, 20, 30), (COMPUTE, 5, 25)], 0.5),
            // Touching and overlapping kernels coalesce before the
            // intersection: [0,12) and [20,21) hide 13 of 30 H2D ns.
            (
                &[
                    (H2D, 0, 30),
                    (COMPUTE, 5, 10),
                    (COMPUTE, 0, 5),
                    (COMPUTE, 8, 12),
                    (COMPUTE, 20, 21),
                ],
                13.0 / 30.0,
            ),
        ];
        for (spans, want) in cases {
            let t = trace(spans);
            assert_eq!(digest(&t, d0()).overlap, Some(want), "{spans:?}");
            // No DMA on device 1.
            assert_eq!(digest(&t, DeviceId(1)).overlap, None);
        }
    }

    #[test]
    fn opposite_direction_dma_counts_as_overlap() {
        let cases: [Case; 2] = [
            (&[(H2D, 0, 100), (D2H, 0, 100)], 1.0),
            // 50 ns of each 100 ns copy runs beside the other.
            (&[(H2D, 0, 100), (D2H, 50, 150)], 0.5),
        ];
        for (spans, want) in cases {
            assert_eq!(digest(&trace(spans), d0()).overlap, Some(want), "{spans:?}");
        }
    }

    #[test]
    fn memory_fraction_fig1_style() {
        // 60 memory ns (h2d 30 + alloc 10 + staging 20) vs 40 compute ns.
        let t = trace(&[
            (H2D, 0, 30),
            (RUNTIME, 0, 10),
            (STAGING, 0, 20),
            (COMPUTE, 30, 70),
        ]);
        assert!((digest(&t, d0()).memory_fraction() - 0.6).abs() < 1e-12);
        assert_eq!(Digest::default().memory_fraction(), 0.0);
    }

    #[test]
    fn histogram_buckets_log2() {
        let mut h = LatencyHistogram::default();
        h.add(Ns(1)); // bucket 0
        h.add(Ns(2)); // bucket 1
        h.add(Ns(3)); // bucket 1
        h.add(Ns(1024)); // bucket 10
        assert_eq!(h.count, 4);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 2);
        assert_eq!(h.buckets()[10], 1);
        assert_eq!(h.min, Ns(1));
        assert_eq!(h.max, Ns(1024));
        assert_eq!(h.mean(), Ns((1 + 2 + 3 + 1024) / 4));
    }

    #[test]
    fn histograms_keyed_by_class() {
        let trace = Trace::from_spans(vec![
            span(
                0,
                Engine::Compute(d0()),
                0,
                10,
                OpKind::Kernel,
                Some(KernelClass::Mgard),
            ),
            span(1, Engine::H2D(d0()), 0, 10, OpKind::Transfer, None),
            span(2, Engine::Runtime(RuntimeId(0)), 0, 5, OpKind::Alloc, None),
        ]);
        let keys: Vec<String> = latency_histograms(&trace)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys, vec!["alloc", "h2d", "kernel:mgard"]);
    }

    #[test]
    fn alloc_contention_sums_runtime_waits() {
        let mut spans = trace(&[(RUNTIME, 0, 10), (RUNTIME, 10, 20), (COMPUTE, 30, 40)])
            .spans()
            .to_vec();
        // Everything was ready at 0: the second alloc queued 10 ns behind
        // the first; the kernel's wait is not allocator contention.
        for s in &mut spans {
            s.ready = Ns::ZERO;
        }
        assert_eq!(digest(&Trace::from_spans(spans), d0()).contention, Ns(10));
    }
}
