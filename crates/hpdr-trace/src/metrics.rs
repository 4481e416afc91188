//! Aggregated metrics over a span trace: engine utilization, the paper
//! §V-C overlap ratio, the Fig. 1 memory-op share, per-op-class latency
//! histograms, and allocator contention.

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

/// The Fig. 1 category of an engine (same mapping as
/// `Timeline::breakdown`).
pub fn category_of(e: Engine) -> Category {
    match e {
        Engine::H2D(_) => Category::H2D,
        Engine::D2H(_) => Category::D2H,
        Engine::Compute(_) => Category::Compute,
        Engine::Runtime(_) => Category::MemMgmt,
        Engine::Staging(_) | Engine::Host => Category::Host,
    }
}

/// Merge possibly-overlapping intervals into a disjoint sorted list,
/// in place (no allocation beyond the input's own buffer).
fn merge_in_place(iv: &mut Vec<(Ns, Ns)>) {
    iv.sort_unstable();
    let mut w = 0;
    for i in 0..iv.len() {
        let (s, e) = iv[i];
        if s >= e {
            continue;
        }
        if w > 0 && s <= iv[w - 1].1 {
            iv[w - 1].1 = iv[w - 1].1.max(e);
        } else {
            iv[w] = (s, e);
            w += 1;
        }
    }
    iv.truncate(w);
}

/// Merge possibly-overlapping intervals into a disjoint sorted list.
fn merge(mut iv: Vec<(Ns, Ns)>) -> Vec<(Ns, Ns)> {
    merge_in_place(&mut iv);
    iv
}

fn total(iv: &[(Ns, Ns)]) -> Ns {
    iv.iter().map(|&(s, e)| e - s).sum()
}

/// Total length of the intersection of two disjoint sorted interval lists.
fn intersection(a: &[(Ns, Ns)], b: &[(Ns, Ns)]) -> Ns {
    let (mut i, mut j) = (0, 0);
    let mut acc = Ns::ZERO;
    while i < a.len() && j < b.len() {
        let s = a[i].0.max(b[j].0);
        let e = a[i].1.min(b[j].1);
        if s < e {
            acc += e - s;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    acc
}

fn engine_intervals(trace: &Trace, engine: Engine) -> Vec<(Ns, Ns)> {
    merge(
        trace
            .spans()
            .iter()
            .filter(|s| s.engine == engine)
            .map(|s| (s.start, s.end))
            .collect(),
    )
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

/// Paper §V-C overlap ratio for one device, from the trace: the fraction
/// of DMA time during which the device was concurrently doing anything
/// else (compute or the opposite-direction DMA). `None` if the device
/// performed no DMA. This replaces and generalizes
/// `Timeline::overlap_ratio` — same definition, computed from spans.
pub fn overlap_ratio(trace: &Trace, dev: DeviceId) -> Option<f64> {
    let h2d = engine_intervals(trace, Engine::H2D(dev));
    let d2h = engine_intervals(trace, Engine::D2H(dev));
    let compute = engine_intervals(trace, Engine::Compute(dev));
    let dma_total = total(&h2d) + total(&d2h);
    if dma_total.is_zero() {
        return None;
    }
    let other_for_h2d = merge([compute.clone(), d2h.clone()].concat());
    let other_for_d2h = merge([compute, h2d.clone()].concat());
    let overlapped = intersection(&h2d, &other_for_h2d) + intersection(&d2h, &other_for_d2h);
    Some(overlapped.0 as f64 / dma_total.0 as f64)
}

/// Share of payload wall-clock time that ran beside another payload: the
/// measured counterpart of [`overlap_ratio`], over the spans'
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

/// One-pass digest of a batch trace for live metering: per-category
/// busy time, the §V-C overlap ratio for one device, and allocator
/// contention. Identical numbers to [`engine_stats`] +
/// [`overlap_ratio`] + [`alloc_contention`], but a single walk over
/// the spans instead of a dozen — this runs once per batch launch on
/// the serving hot path, where the separate passes showed up as
/// measurable metering overhead.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchDigest {
    /// Busy ns per Fig. 1 category, indexed by
    /// [`BatchDigest::CATEGORIES`] order.
    pub busy: [Ns; 5],
    /// Overlap ratio for the requested device (`None` if it did no DMA).
    pub overlap: Option<f64>,
    /// Total alloc/free queueing behind the runtime lock.
    pub contention: Ns,
}

impl BatchDigest {
    /// Index order of the `busy` array.
    pub const CATEGORIES: [Category; 5] = [
        Category::H2D,
        Category::D2H,
        Category::Compute,
        Category::MemMgmt,
        Category::Host,
    ];

    /// Categories that actually ran, with their busy time.
    pub fn busy_by_category(&self) -> impl Iterator<Item = (Category, Ns)> + '_ {
        Self::CATEGORIES
            .iter()
            .zip(self.busy)
            .filter(|(_, b)| !b.is_zero())
            .map(|(c, b)| (*c, b))
    }
}

/// Reusable buffers for [`batch_digest_with`]: interval lists stay
/// allocated across batches, so the steady-state digest does no heap
/// work — it runs once per launch on the serving hot path.
#[derive(Debug, Clone, Default)]
pub struct DigestScratch {
    h2d: Vec<(Ns, Ns)>,
    d2h: Vec<(Ns, Ns)>,
    compute: Vec<(Ns, Ns)>,
    other: Vec<(Ns, Ns)>,
}

/// Compute a [`BatchDigest`] in one pass over the trace.
pub fn batch_digest(trace: &Trace, dev: DeviceId) -> BatchDigest {
    batch_digest_with(trace, dev, &mut DigestScratch::default())
}

/// [`batch_digest`] with caller-owned scratch buffers (keep one
/// [`DigestScratch`] per device and the per-batch digest is
/// allocation-free after warm-up).
pub fn batch_digest_with(trace: &Trace, dev: DeviceId, s: &mut DigestScratch) -> BatchDigest {
    s.h2d.clear();
    s.d2h.clear();
    s.compute.clear();
    let mut busy = [Ns::ZERO; 5];
    let mut contention = Ns::ZERO;
    for sp in trace.spans() {
        let cat = category_of(sp.engine);
        let slot = BatchDigest::CATEGORIES
            .iter()
            .position(|c| *c == cat)
            .expect("mapped");
        busy[slot] += sp.duration();
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
    BatchDigest {
        busy,
        overlap,
        contention,
    }
}

/// Fraction of total busy time spent on memory operations (H2D + D2H +
/// host staging copies + mem-mgmt) — the paper's Fig. 1 "34–89%" metric,
/// computed from spans.
pub fn memory_fraction(trace: &Trace) -> f64 {
    let mut mem = Ns::ZERO;
    let mut all = Ns::ZERO;
    for s in trace.spans() {
        let d = s.duration();
        all += d;
        match category_of(s.engine) {
            Category::H2D | Category::D2H | Category::MemMgmt | Category::Host => mem += d,
            Category::Compute => {}
        }
    }
    if all.is_zero() {
        0.0
    } else {
        mem.0 as f64 / all.0 as f64
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

/// Per-job serving metrics extracted from a serve trace.
///
/// The serving scheduler (`hpdr-serve`) emits exactly one span per
/// admitted job — `ready` is the submission instant, `start` the
/// dispatch, `end` the terminal instant, and the label ends with the
/// terminal outcome name — plus one zero-length span per rejected
/// submission (label prefix `reject[`). This extractor is the single
/// source of truth for "latency is trace-derived": the serve report
/// builds its percentile sketches from these samples, never from
/// scheduler-internal counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobSpanStats {
    /// End-to-end latency (terminal − submission) per completed job,
    /// in span order.
    pub latencies: Vec<u64>,
    /// Queue wait (dispatch − submission) per completed job.
    pub waits: Vec<u64>,
    /// Rejected submissions (spans labelled `reject[...]`).
    pub rejected: u64,
    /// Admitted-job spans that never reached a terminal state (label
    /// still `job[?] ...`). Must be 0 for any completed serve run —
    /// every Begin span gets its matching End in place.
    pub open: u64,
}

/// Scan a trace for per-job serving spans. Non-job spans (kernel,
/// transfer, ...) pass through untouched, so the extractor also works
/// on mixed traces.
pub fn job_span_stats(trace: &Trace) -> JobSpanStats {
    let mut stats = JobSpanStats::default();
    for span in trace.spans() {
        if span.label.starts_with("reject[") {
            stats.rejected += 1;
        } else if span.label.starts_with("job[?]") {
            stats.open += 1;
        } else if span.label.ends_with(" completed") {
            stats.latencies.push(span.end.saturating_sub(span.ready).0);
            stats.waits.push(span.wait().0);
        }
    }
    stats
}

/// Serve-trace span-op namespaces (mirrors `hpdr-serve`'s scheduler:
/// job ops count up from 0, rejects from `1 << 40`, alerts from
/// `1 << 41`; ops at or above `1 << 42` belong to cluster front-ends).
const MERGE_NAMESPACE_BASES: [usize; 3] = [0, 1 << 40, 1 << 41];
const MERGE_CLUSTER_BASE: usize = 1 << 42;
/// Per-shard op stride inside each namespace: shards stay disjoint as
/// long as one shard emits fewer than 2^32 spans per namespace.
const MERGE_SHARD_STRIDE: usize = 1 << 32;

/// Merge per-shard serve traces into one cluster trace.
///
/// Each shard's span ops are re-based within their namespace by
/// `shard_index * 2^32`, so job/reject/alert ops from different shards
/// never collide while labels (and therefore [`job_span_stats`]) are
/// untouched — the merged trace's latency samples are exactly the
/// concatenation of the shards'. `extra` carries cluster-level spans
/// (cross-node transfers, re-route marks) whose ops must already live
/// in the cluster namespace (`>= 2^42`); they pass through unchanged.
/// Spans sort by `(ready, op)`, matching a single scheduler's output.
pub fn merge_shard_traces(shard_traces: &[Trace], extra: Vec<SpanRecord>) -> Trace {
    let mut spans: Vec<SpanRecord> = Vec::new();
    for (shard, trace) in shard_traces.iter().enumerate() {
        for span in trace.spans() {
            let mut s = span.clone();
            if s.op < MERGE_CLUSTER_BASE {
                let base = MERGE_NAMESPACE_BASES
                    .iter()
                    .rev()
                    .find(|&&b| s.op >= b)
                    .copied()
                    .unwrap_or(0);
                s.op = base + shard * MERGE_SHARD_STRIDE + (s.op - base);
            }
            spans.push(s);
        }
    }
    for s in &extra {
        debug_assert!(
            s.op >= MERGE_CLUSTER_BASE,
            "cluster span op {} below the cluster namespace",
            s.op
        );
    }
    spans.extend(extra);
    spans.sort_by_key(|s| (s.ready, s.op));
    Trace::from_spans(spans)
}

/// Total time alloc/free ops spent queued behind the shared runtime lock
/// after their data dependencies were satisfied — the paper §III-B
/// allocator-contention cost that the CMM eliminates (CMM schedules emit
/// no per-call alloc/free ops, so their contention is zero).
pub fn alloc_contention(trace: &Trace) -> Ns {
    trace
        .spans()
        .iter()
        .filter(|s| matches!(s.engine, Engine::Runtime(_)))
        .map(|s| s.wait())
        .sum()
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn overlap_counts_dma_under_compute() {
        // H2D [0,100); compute [50,150) ⇒ 50 of 100 DMA ns overlapped.
        let trace = Trace::from_spans(vec![
            span(0, Engine::H2D(d0()), 0, 100, OpKind::Transfer, None),
            span(
                1,
                Engine::Compute(d0()),
                50,
                150,
                OpKind::Kernel,
                Some(KernelClass::Zfp),
            ),
        ]);
        let r = overlap_ratio(&trace, d0()).unwrap();
        assert!((r - 0.5).abs() < 1e-12);
        // No DMA on device 1.
        assert!(overlap_ratio(&trace, DeviceId(1)).is_none());
    }

    #[test]
    fn opposite_direction_dma_counts_as_overlap() {
        let trace = Trace::from_spans(vec![
            span(0, Engine::H2D(d0()), 0, 100, OpKind::Transfer, None),
            span(1, Engine::D2H(d0()), 0, 100, OpKind::Transfer, None),
        ]);
        let r = overlap_ratio(&trace, d0()).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn memory_fraction_fig1_style() {
        // 60 memory ns (h2d 30 + alloc 10 + staging 20) vs 40 compute ns.
        let trace = Trace::from_spans(vec![
            span(0, Engine::H2D(d0()), 0, 30, OpKind::Transfer, None),
            span(1, Engine::Runtime(RuntimeId(0)), 0, 10, OpKind::Alloc, None),
            span(2, Engine::Staging(d0()), 0, 20, OpKind::HostCopy, None),
            span(
                3,
                Engine::Compute(d0()),
                30,
                70,
                OpKind::Kernel,
                Some(KernelClass::Huffman),
            ),
        ]);
        assert!((memory_fraction(&trace) - 0.6).abs() < 1e-12);
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
        let mut a = span(0, Engine::Runtime(RuntimeId(0)), 0, 10, OpKind::Alloc, None);
        let mut b = span(
            1,
            Engine::Runtime(RuntimeId(0)),
            10,
            20,
            OpKind::Alloc,
            None,
        );
        a.ready = Ns(0);
        b.ready = Ns(0); // ready at 0 but ran at 10 ⇒ 10 ns contention
        let trace = Trace::from_spans(vec![a, b]);
        assert_eq!(alloc_contention(&trace), Ns(10));
    }

    #[test]
    fn merge_handles_empty_shard_traces() {
        // An empty shard still occupies its index: the shard after it
        // keeps its own stride slot instead of sliding down into the
        // empty one's.
        let empty = Trace::from_spans(vec![]);
        let busy = Trace::from_spans(vec![span(
            3,
            Engine::Compute(d0()),
            0,
            10,
            OpKind::Kernel,
            None,
        )]);
        let merged = merge_shard_traces(&[empty, busy], vec![]);
        assert_eq!(merged.spans().len(), 1);
        assert_eq!(merged.spans()[0].op, MERGE_SHARD_STRIDE + 3);
        assert!(merge_shard_traces(&[], vec![]).spans().is_empty());
    }

    #[test]
    fn merge_of_a_single_shard_is_the_identity() {
        // Shard 0's re-base is `base + 0·stride + (op − base)` in every
        // namespace, so a one-shard cluster trace is span-for-span the
        // shard's own trace.
        let spans = vec![
            span(0, Engine::Compute(d0()), 0, 10, OpKind::Kernel, None),
            span(7, Engine::Compute(d0()), 10, 20, OpKind::Kernel, None),
            span(
                (1 << 40) + 1,
                Engine::Compute(d0()),
                20,
                21,
                OpKind::Kernel,
                None,
            ),
            span(
                (1 << 41) + 2,
                Engine::Compute(d0()),
                21,
                22,
                OpKind::Kernel,
                None,
            ),
        ];
        let merged = merge_shard_traces(&[Trace::from_spans(spans.clone())], vec![]);
        assert_eq!(merged.spans().len(), spans.len());
        for (m, s) in merged.spans().iter().zip(&spans) {
            assert_eq!(m.op, s.op);
            assert_eq!(m.label, s.label);
            assert_eq!((m.start, m.end), (s.start, s.end));
        }
    }

    #[test]
    fn merge_rebase_at_the_stride_boundary() {
        // The per-shard namespaces are disjoint only while a shard emits
        // fewer than 2^32 spans per namespace: op `stride − 1` is shard
        // 0's last private slot, and op `stride` lands exactly on shard
        // 1's slot 0. The merge keeps both colliding spans (it never
        // dedupes by op) — the collision is an aliasing hazard for op
        // lookups, not data loss.
        let s0 = Trace::from_spans(vec![
            span(
                MERGE_SHARD_STRIDE - 1,
                Engine::Compute(d0()),
                0,
                1,
                OpKind::Kernel,
                None,
            ),
            span(
                MERGE_SHARD_STRIDE,
                Engine::Compute(d0()),
                1,
                2,
                OpKind::Kernel,
                None,
            ),
        ]);
        let s1 = Trace::from_spans(vec![span(
            0,
            Engine::Compute(d0()),
            2,
            3,
            OpKind::Kernel,
            None,
        )]);
        let merged = merge_shard_traces(&[s0, s1], vec![]);
        let ops: Vec<usize> = merged.spans().iter().map(|s| s.op).collect();
        assert_eq!(merged.spans().len(), 3, "collision must not drop spans");
        assert!(ops.contains(&(MERGE_SHARD_STRIDE - 1)), "{ops:?}");
        assert_eq!(
            ops.iter().filter(|&&o| o == MERGE_SHARD_STRIDE).count(),
            2,
            "op `stride` from shard 0 aliases shard 1's op 0: {ops:?}"
        );
        // Cluster-namespace ops pass through un-rebased even when they
        // arrive inside a shard trace.
        let cluster = Trace::from_spans(vec![span(
            MERGE_CLUSTER_BASE + 5,
            Engine::Compute(d0()),
            0,
            1,
            OpKind::Kernel,
            None,
        )]);
        let merged = merge_shard_traces(&[Trace::from_spans(vec![]), cluster], vec![]);
        assert_eq!(merged.spans()[0].op, MERGE_CLUSTER_BASE + 5);
    }
}
