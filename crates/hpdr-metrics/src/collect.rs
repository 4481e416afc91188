//! Collectors: adapt lower-layer telemetry (span traces, worker-pool
//! counters) into registry instruments.
//!
//! Trace-derived instruments are pure functions of the virtual event
//! stream and feed the deterministic series; pool counters depend on
//! host thread scheduling and are recorded as **volatile** gauges only.

use crate::registry::{InstrumentId, Registry};
use hpdr_core::pool::PoolStats;
use hpdr_sim::{Category, DeviceId, Trace};
use hpdr_trace::{batch_digest_with, DigestScratch};

/// Cached handles for one device's batch-trace instruments, plus the
/// digest's reusable interval buffers. Each handle is created lazily on
/// the first batch that exercises it, so only categories that actually
/// ran get instruments — identical output to formatting the names per
/// call, minus the per-batch string and heap work.
#[derive(Debug, Clone, Default)]
pub struct BatchTraceIds {
    busy: [Option<InstrumentId>; 5],
    overlap: Option<InstrumentId>,
    contention: Option<InstrumentId>,
    scratch: DigestScratch,
}

fn category_slot(c: Category) -> usize {
    match c {
        Category::H2D => 0,
        Category::D2H => 1,
        Category::Compute => 2,
        Category::MemMgmt => 3,
        Category::Host => 4,
    }
}

/// Fold one batch's span trace into the registry: per-category engine
/// busy time, the §V-C overlap fraction, and allocator-lock contention,
/// all labelled by the device the batch ran on. Runs once per launch on
/// the serving hot path, so the trace is walked exactly once via
/// [`batch_digest`] and every instrument is touched through a cached
/// handle in `ids` (keep one [`BatchTraceIds`] per device).
pub fn record_batch_trace(
    reg: &mut Registry,
    trace: &Trace,
    device: DeviceId,
    ids: &mut BatchTraceIds,
) {
    let dev = device.0;
    let digest = batch_digest_with(trace, device, &mut ids.scratch);
    for (category, busy) in digest.busy_by_category() {
        let id = *ids.busy[category_slot(category)].get_or_insert_with(|| {
            let c = format!("{category:?}").to_lowercase();
            reg.counter_handle(&format!(
                "engine_busy_ns_total{{category=\"{c}\",device=\"{dev}\"}}"
            ))
        });
        reg.counter_add_id(id, busy.0);
    }
    if let Some(overlap) = digest.overlap {
        let id = *ids.overlap.get_or_insert_with(|| {
            reg.gauge_handle(&format!("pipeline_overlap_fraction{{device=\"{dev}\"}}"))
        });
        reg.gauge_set_id(id, overlap);
    }
    if digest.contention.0 > 0 {
        let id = *ids.contention.get_or_insert_with(|| {
            reg.counter_handle(&format!("alloc_contention_ns_total{{device=\"{dev}\"}}"))
        });
        reg.counter_add_id(id, digest.contention.0);
    }
}

/// Record a worker-pool stats delta as **volatile** gauges (wakeup and
/// scratch counts depend on host scheduling, so they never enter the
/// deterministic series — they only show in `hpdr top`).
pub fn record_pool_stats(reg: &mut Registry, delta: PoolStats, workers: usize) {
    reg.gauge_set_volatile("pool_workers", workers as f64);
    reg.gauge_set_volatile("pool_jobs", delta.jobs as f64);
    reg.gauge_set_volatile("pool_wakeups", delta.wakeups as f64);
    reg.gauge_set_volatile("pool_tasks", delta.tasks as f64);
    reg.gauge_set_volatile("pool_scratch_reuse_ratio", delta.scratch_reuse_ratio());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsConfig;
    use hpdr_sim::{Engine, Ns, OpKind, SpanRecord};

    fn span(engine: Engine, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            op: 0,
            label: "x".to_string(),
            engine,
            queue: None,
            deps: Vec::new(),
            kind: OpKind::Fixed,
            class: None,
            start: Ns(start),
            end: Ns(end),
            bytes: 0,
            footprint_bytes: 0,
            ready: Ns(start),
            wall_start: Ns::ZERO,
            wall: Ns::ZERO,
        }
    }

    #[test]
    fn batch_trace_lands_in_labelled_counters() {
        let dev = DeviceId(0);
        let trace = Trace::from_spans(vec![
            span(Engine::H2D(dev), 0, 100),
            span(Engine::Compute(dev), 50, 250),
        ]);
        let mut reg = Registry::new(MetricsConfig::default());
        let mut ids = BatchTraceIds::default();
        record_batch_trace(&mut reg, &trace, dev, &mut ids);
        assert_eq!(
            reg.counter_value("engine_busy_ns_total{category=\"h2d\",device=\"0\"}"),
            Some(100)
        );
        assert_eq!(
            reg.counter_value("engine_busy_ns_total{category=\"compute\",device=\"0\"}"),
            Some(200)
        );
        let overlap = reg
            .gauge_value("pipeline_overlap_fraction{device=\"0\"}")
            .unwrap();
        assert!(overlap > 0.0, "h2d and compute overlap 50ns");
        // Two batches accumulate (handles cached after the first call).
        record_batch_trace(&mut reg, &trace, dev, &mut ids);
        assert_eq!(
            reg.counter_value("engine_busy_ns_total{category=\"h2d\",device=\"0\"}"),
            Some(200)
        );
    }

    #[test]
    fn pool_stats_are_volatile_only() {
        let mut reg = Registry::new(MetricsConfig::default());
        let delta = PoolStats {
            jobs: 3,
            wakeups: 17,
            tasks: 24,
            scratch_reuses: 9,
            scratch_allocs: 3,
        };
        record_pool_stats(&mut reg, delta, 8);
        assert_eq!(reg.gauge_value("pool_workers"), Some(8.0));
        assert_eq!(reg.gauge_value("pool_scratch_reuse_ratio"), Some(0.75));
        reg.flush(Ns(1_000_000));
        assert!(!reg.exposition().contains("pool_"));
        assert!(reg.series("pool_wakeups").is_none());
    }
}
