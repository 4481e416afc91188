//! Causal analysis: additive latency breakdowns, the deterministic
//! tail-based sampler, and per-tenant / per-shard blame aggregation.
//!
//! The breakdown is exact by construction: stage boundaries are taken
//! from the event stream (last re-route → last placement → last
//! admission → last dispatch → terminal), clamped monotone, and the six
//! components telescope over those boundaries — so they sum to the
//! end-to-end virtual-time latency, asserted on every job.

use crate::record::{sort_events, FlightConfig, FlightLog, JobEvent, JobEventKind};
use hpdr_metrics::StreamingHistogram;
use hpdr_sim::{Engine, Ns, OpKind, SpanRecord, Trace};
use std::collections::BTreeMap;

/// Span-op namespace of flight-derived spans — above the cluster base
/// (`1 << 42`), so `merge_shard_traces` passes them through unchanged.
pub const FLIGHT_OP_BASE: usize = 1 << 43;

/// One job's causal summary: terminal state plus the six-way additive
/// latency decomposition (all virtual nanoseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSummary {
    pub trace: u64,
    pub tenant: u32,
    /// Shard of the terminal event (where the job ended its life).
    pub shard: u32,
    /// Re-route generations survived (0 = never re-routed).
    pub hops: u32,
    pub outcome: &'static str,
    /// Terminal instant (sampler ordering key; not serialized).
    pub end: u64,
    /// `terminal − first submit`: the quantity the components sum to.
    pub latency: u64,
    /// Waiting admitted in a shard's queue before dispatch.
    pub queue: u64,
    /// Placement decision to admission (zero when both are instant).
    pub placement: u64,
    /// Off-home container fetch (placement → transfer-ready → admit).
    pub transfer: u64,
    /// Launch overhead + context setup of the dispatching batch.
    pub batch: u64,
    /// On-device service after the batch overhead.
    pub service: u64,
    /// Everything before the last re-route: the first hop's wasted
    /// queueing, service and re-fetch time.
    pub retry: u64,
    pub sampled: bool,
    pub why: &'static str,
}

impl JobSummary {
    pub fn components_sum(&self) -> u64 {
        self.queue + self.placement + self.transfer + self.batch + self.service + self.retry
    }
}

/// Aggregated blame row (per tenant or per shard): component sums over
/// every analyzed job with that key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlameRow {
    pub key: u32,
    pub jobs: u64,
    pub latency: u64,
    pub queue: u64,
    pub placement: u64,
    pub transfer: u64,
    pub batch: u64,
    pub service: u64,
    pub retry: u64,
}

impl BlameRow {
    fn add(&mut self, j: &JobSummary) {
        self.jobs += 1;
        self.latency += j.latency;
        self.queue += j.queue;
        self.placement += j.placement;
        self.transfer += j.transfer;
        self.batch += j.batch;
        self.service += j.service;
        self.retry += j.retry;
    }
}

/// The dying shard's ring buffer, dumped at the failure instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blackbox {
    pub shard: u32,
    pub log: FlightLog,
}

/// The full `hpdr-flight/v1` analysis of one run.
#[derive(Debug, Clone)]
pub struct FlightReport {
    pub total_jobs: u64,
    pub sampled: u64,
    /// Events the ring buffers overwrote before analysis.
    pub dropped: u64,
    pub sample_every: u64,
    /// Final p99 of the streaming latency sketch the sampler ran.
    pub p99: u64,
    /// One row per job (every job, not only sampled ones — `explain
    /// --worst` must rank the true population), sorted by trace id.
    pub rows: Vec<JobSummary>,
    /// Full event streams of the sampled jobs, sorted by trace id.
    pub events: Vec<(u64, Vec<JobEvent>)>,
    pub blame_tenant: Vec<BlameRow>,
    pub blame_shard: Vec<BlameRow>,
    pub blackbox: Option<Blackbox>,
}

impl FlightReport {
    /// The envelope `ok` flag: every row's components sum exactly to
    /// its latency (the additive-breakdown invariant).
    pub fn ok(&self) -> bool {
        self.rows.iter().all(|r| r.components_sum() == r.latency)
    }

    /// Exemplar trace ids of the sampled jobs, worst latency first —
    /// what metric spikes link to.
    pub fn exemplars(&self, n: usize) -> Vec<u64> {
        let mut sampled: Vec<&JobSummary> = self.rows.iter().filter(|r| r.sampled).collect();
        sampled.sort_by_key(|r| (std::cmp::Reverse(r.latency), r.trace));
        sampled.iter().take(n).map(|r| r.trace).collect()
    }
}

/// Deterministic per-trace sampling hash (FNV-1a over the trace id,
/// seeded).
pub fn sample_hash(seed: u64, trace: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x0100_0000_01b3);
    for b in trace.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Analyze one job's (sorted) event stream into its summary row.
fn analyze_trace(events: &[JobEvent]) -> JobSummary {
    debug_assert!(!events.is_empty());
    let t0 = events.first().map_or(0, |e| e.at.0);
    let terminal = events.iter().rev().find(|e| e.kind.is_terminal());
    let (end, outcome, shard) = match terminal {
        Some(t) => (
            t.at.0,
            match t.kind {
                JobEventKind::Complete => "completed",
                JobEventKind::TimedOut => "timed_out",
                JobEventKind::Cancelled => "cancelled",
                JobEventKind::Failed => "failed",
                _ => "rejected",
            },
            t.shard,
        ),
        // A job still in flight when the recorder was drained (or whose
        // early events the ring overwrote): close it at its last event.
        None => (
            events.last().map_or(t0, |e| e.at.0),
            "open",
            events.last().map_or(u32::MAX, |e| e.shard),
        ),
    };
    let last = |pred: &dyn Fn(&JobEvent) -> bool| -> Option<&JobEvent> {
        events.iter().rev().find(|e| pred(e) && e.at.0 <= end)
    };
    // Stage boundaries, clamped monotone into [t0, end] so the six
    // components telescope exactly even for degenerate streams.
    let r = last(&|e| matches!(e.kind, JobEventKind::Reroute { .. }))
        .map_or(t0, |e| e.at.0)
        .clamp(t0, end);
    let p = last(&|e| matches!(e.kind, JobEventKind::Place { .. }))
        .map_or(r, |e| e.at.0)
        .clamp(r, end);
    let a = last(&|e| matches!(e.kind, JobEventKind::Admit))
        .map_or(p, |e| e.at.0)
        .clamp(p, end);
    let dispatch = last(&|e| matches!(e.kind, JobEventKind::Dispatch { .. }));
    let d = dispatch.map_or(end, |e| e.at.0).clamp(a, end);
    let overhead = dispatch.map_or(0, |e| match e.kind {
        JobEventKind::Dispatch { overhead_ns, .. } => overhead_ns,
        _ => 0,
    });
    let batch = overhead.min(end - d);
    let summary = JobSummary {
        trace: events[0].trace,
        tenant: events[0].tenant,
        shard,
        hops: events.iter().map(|e| e.hop).max().unwrap_or(0),
        outcome,
        end,
        latency: end - t0,
        queue: d - a,
        placement: p - r,
        transfer: a - p,
        batch,
        service: (end - d) - batch,
        retry: r - t0,
        sampled: false,
        why: "",
    };
    assert_eq!(
        summary.components_sum(),
        summary.latency,
        "breakdown of trace {} must sum to its latency",
        summary.trace
    );
    summary
}

/// Run the full causal analysis over a merged flight log.
///
/// The sampler walks jobs in terminal order (the order a live system
/// would see them finish) feeding a streaming quantile sketch, and
/// keeps the full event stream of every failure/timeout/cancel, every
/// re-routed job, every p99 outlier, and a seeded 1-in-N baseline.
pub fn analyze(log: &FlightLog, cfg: &FlightConfig, blackbox: Option<Blackbox>) -> FlightReport {
    let mut events = log.events.clone();
    sort_events(&mut events);
    let mut by_trace: BTreeMap<u64, Vec<JobEvent>> = BTreeMap::new();
    for e in &events {
        by_trace.entry(e.trace).or_default().push(*e);
    }
    let mut rows: Vec<JobSummary> = by_trace.values().map(|evs| analyze_trace(evs)).collect();

    // Tail-based sampling in completion order.
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by_key(|&i| (rows[i].end, rows[i].trace));
    let mut sketch = StreamingHistogram::new();
    for (seen, i) in order.into_iter().enumerate() {
        let row = &mut rows[i];
        // `u64::is_multiple_of` postdates the workspace MSRV (1.77).
        #[allow(clippy::manual_is_multiple_of)]
        let baseline_hit = sample_hash(cfg.seed, row.trace) % cfg.sample_every.max(1) == 0;
        let (sampled, why) = if row.outcome != "completed" {
            (true, "failure")
        } else if row.hops > 0 {
            (true, "retry")
        } else if seen as u64 >= cfg.outlier_min_count && row.latency > sketch.quantile(0.99) {
            (true, "outlier")
        } else if baseline_hit {
            (true, "baseline")
        } else {
            (false, "")
        };
        row.sampled = sampled;
        row.why = why;
        sketch.record(row.latency);
    }

    let mut blame_tenant: BTreeMap<u32, BlameRow> = BTreeMap::new();
    let mut blame_shard: BTreeMap<u32, BlameRow> = BTreeMap::new();
    for r in &rows {
        blame_tenant.entry(r.tenant).or_default().add(r);
        blame_shard.entry(r.shard).or_default().add(r);
    }
    let finish = |m: BTreeMap<u32, BlameRow>| -> Vec<BlameRow> {
        m.into_iter()
            .map(|(k, mut v)| {
                v.key = k;
                v
            })
            .collect()
    };

    let sampled_events: Vec<(u64, Vec<JobEvent>)> = rows
        .iter()
        .filter(|r| r.sampled)
        .map(|r| (r.trace, by_trace[&r.trace].clone()))
        .collect();

    FlightReport {
        total_jobs: rows.len() as u64,
        sampled: rows.iter().filter(|r| r.sampled).count() as u64,
        dropped: log.dropped,
        sample_every: cfg.sample_every,
        p99: sketch.quantile(0.99),
        rows,
        events: sampled_events,
        blame_tenant: finish(blame_tenant),
        blame_shard: finish(blame_shard),
        blackbox,
    }
}

/// Bridge a flight log into trace spans: one span per job, op-numbered
/// in the flight namespace (≥ 2^43, disjoint from job/reject/alert and
/// cluster spans under `merge_shard_traces`), `ready` at submission,
/// `start` at dispatch, `end` at the terminal instant.
pub fn events_to_trace(log: &FlightLog) -> Trace {
    let mut events = log.events.clone();
    sort_events(&mut events);
    let mut by_trace: BTreeMap<u64, Vec<JobEvent>> = BTreeMap::new();
    for e in &events {
        by_trace.entry(e.trace).or_default().push(*e);
    }
    let spans = by_trace
        .values()
        .map(|evs| {
            let row = analyze_trace(evs);
            let t0 = evs.first().map_or(0, |e| e.at.0);
            let start = evs
                .iter()
                .rev()
                .find(|e| matches!(e.kind, JobEventKind::Dispatch { .. }))
                .map_or(t0, |e| e.at.0);
            SpanRecord {
                op: FLIGHT_OP_BASE + row.trace as usize,
                // Deliberately not the scheduler's "job[…] completed"
                // shape: job_span_stats must not double-count these.
                label: format!("flight[{}]={}", row.trace, row.outcome),
                engine: Engine::Host,
                queue: None,
                deps: vec![],
                kind: OpKind::Fixed,
                class: None,
                start: Ns(start.min(row.end)),
                end: Ns(row.end),
                bytes: 0,
                footprint_bytes: 0,
                ready: Ns(t0),
                wall_start: Ns::ZERO,
                wall: Ns::ZERO,
            }
        })
        .collect();
    Trace::from_spans(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, trace: u64, hop: u32, shard: u32, kind: JobEventKind) -> JobEvent {
        JobEvent {
            at: Ns(at),
            trace,
            hop,
            shard,
            tenant: trace as u32 % 4,
            kind,
        }
    }

    fn place(target: u32) -> JobEventKind {
        JobEventKind::Place {
            target,
            preferred: target,
            steal: false,
        }
    }

    /// A re-routed job with a transfer on its second hop: submit@100,
    /// first hop dies, reroute@500, place@500, xfer 500→700, admit@700,
    /// dispatch@900 (overhead 50), complete@1000.
    fn rerouted_stream() -> Vec<JobEvent> {
        vec![
            ev(100, 1, 0, u32::MAX, JobEventKind::Submit),
            ev(100, 1, 0, 0, place(0)),
            ev(100, 1, 0, 0, JobEventKind::Admit),
            ev(500, 1, 0, 0, JobEventKind::Failed),
            ev(500, 1, 1, 1, JobEventKind::Reroute { attempt: 1 }),
            ev(500, 1, 1, 1, place(1)),
            ev(
                500,
                1,
                1,
                1,
                JobEventKind::XferStart {
                    bytes: 4096,
                    xfer_ns: 150,
                    metadata_ns: 50,
                },
            ),
            ev(700, 1, 1, 1, JobEventKind::XferReady),
            ev(700, 1, 1, 1, JobEventKind::Admit),
            ev(
                900,
                1,
                1,
                1,
                JobEventKind::Dispatch {
                    device: 0,
                    overhead_ns: 50,
                },
            ),
            ev(1000, 1, 1, 1, JobEventKind::Complete),
        ]
    }

    #[test]
    fn rerouted_breakdown_sums_and_attributes_retry() {
        let row = analyze_trace(&rerouted_stream());
        assert_eq!(row.latency, 900);
        assert_eq!(row.retry, 400, "everything before the re-route");
        assert_eq!(row.transfer, 200, "xfer wait on the second hop");
        assert_eq!(row.queue, 200, "admit@700 → dispatch@900");
        assert_eq!(row.batch, 50);
        assert_eq!(row.service, 50);
        assert_eq!(row.placement, 0);
        assert_eq!(row.components_sum(), row.latency);
        assert_eq!(row.outcome, "completed");
        assert_eq!(row.hops, 1);
        assert_eq!(row.shard, 1, "blamed on the shard that finished it");
    }

    #[test]
    fn rejected_job_collapses_to_zero_components() {
        let row = analyze_trace(&[
            ev(50, 2, 0, u32::MAX, JobEventKind::Submit),
            ev(50, 2, 0, 0, JobEventKind::Reject),
        ]);
        assert_eq!(row.outcome, "rejected");
        assert_eq!(row.latency, 0);
        assert_eq!(row.components_sum(), 0);
    }

    #[test]
    fn queued_cancel_charges_queue_only() {
        let row = analyze_trace(&[
            ev(0, 3, 0, 0, JobEventKind::Submit),
            ev(0, 3, 0, 0, JobEventKind::Admit),
            ev(400, 3, 0, 0, JobEventKind::Cancelled),
        ]);
        assert_eq!(row.outcome, "cancelled");
        assert_eq!(row.queue, 400);
        assert_eq!(row.service, 0);
        assert_eq!(row.components_sum(), row.latency);
    }

    #[test]
    fn sampler_keeps_failures_retries_and_baseline() {
        let mut log = FlightLog::default();
        // 64 plain completed jobs + one failure.
        for t in 0..64u64 {
            log.events.push(ev(t * 10, t, 0, 0, JobEventKind::Submit));
            log.events.push(ev(t * 10, t, 0, 0, JobEventKind::Admit));
            log.events
                .push(ev(t * 10 + 100, t, 0, 0, JobEventKind::Complete));
        }
        log.events.push(ev(900, 99, 0, 0, JobEventKind::Submit));
        log.events.push(ev(950, 99, 0, 0, JobEventKind::Failed));
        let cfg = FlightConfig::default();
        let report = analyze(&log, &cfg, None);
        assert!(report.ok());
        assert_eq!(report.total_jobs, 65);
        let failure = report.rows.iter().find(|r| r.trace == 99).unwrap();
        assert!(failure.sampled);
        assert_eq!(failure.why, "failure");
        // The seeded 1-in-N baseline keeps some completed jobs, and
        // every sampled row carries its full event stream.
        assert!(report.sampled > 1);
        assert_eq!(report.events.len(), report.sampled as usize);
        for (trace, evs) in &report.events {
            assert!(evs.iter().all(|e| e.trace == *trace));
        }
        // Deterministic: the same log analyzes identically.
        let again = analyze(&log, &cfg, None);
        assert_eq!(report.rows, again.rows);
    }

    #[test]
    fn outlier_rule_arms_after_min_count() {
        let mut log = FlightLog::default();
        // 40 fast jobs, then one 100× slower straggler.
        for t in 0..40u64 {
            log.events.push(ev(t * 10, t, 0, 0, JobEventKind::Submit));
            log.events
                .push(ev(t * 10 + 20, t, 0, 0, JobEventKind::Complete));
        }
        log.events.push(ev(500, 77, 0, 0, JobEventKind::Submit));
        log.events.push(ev(2500, 77, 0, 0, JobEventKind::Complete));
        let cfg = FlightConfig {
            sample_every: u64::MAX, // baseline off: isolate the outlier rule
            ..FlightConfig::default()
        };
        let report = analyze(&log, &cfg, None);
        let straggler = report.rows.iter().find(|r| r.trace == 77).unwrap();
        assert!(straggler.sampled);
        assert_eq!(straggler.why, "outlier");
        assert_eq!(report.sampled, 1);
    }

    #[test]
    fn blame_tables_cover_every_job() {
        let log = FlightLog {
            events: rerouted_stream(),
            dropped: 0,
        };
        let report = analyze(&log, &FlightConfig::default(), None);
        assert_eq!(report.blame_tenant.iter().map(|b| b.jobs).sum::<u64>(), 1);
        assert_eq!(report.blame_shard[0].key, 1);
        assert_eq!(report.blame_shard[0].retry, 400);
        let total: u64 = report.blame_shard.iter().map(|b| b.latency).sum();
        assert_eq!(total, 900);
    }

    #[test]
    fn exemplars_rank_sampled_jobs_by_latency() {
        let mut log = FlightLog::default();
        for (t, lat) in [(1u64, 300u64), (2, 900), (3, 600)] {
            log.events.push(ev(0, t, 0, 0, JobEventKind::Submit));
            log.events.push(ev(lat, t, 0, 0, JobEventKind::Failed));
        }
        let report = analyze(&log, &FlightConfig::default(), None);
        assert_eq!(report.exemplars(2), vec![2, 3]);
    }

    #[test]
    fn span_bridge_emits_flight_namespace_ops() {
        let log = FlightLog {
            events: rerouted_stream(),
            dropped: 0,
        };
        let trace = events_to_trace(&log);
        assert_eq!(trace.spans().len(), 1);
        let s = &trace.spans()[0];
        assert_eq!(s.op, FLIGHT_OP_BASE + 1);
        assert_eq!(s.ready, Ns(100));
        assert_eq!(s.start, Ns(900));
        assert_eq!(s.end, Ns(1000));
        assert!(s.label.contains("completed"));
        assert!(!s.label.ends_with(" completed"), "{}", s.label);
    }
}
