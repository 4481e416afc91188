//! Integration: causal flight tracing through a failing cluster.
//!
//! Drives the seeded quick loadgen through a 4-node cluster with a
//! mid-run node kill and checks the tentpole invariants end to end:
//! every analyzed job's six-way breakdown sums exactly to its
//! end-to-end virtual-time latency (re-routed jobs included) and the
//! completed latencies equal the shards' job records', `hpdr
//! explain --worst N` ranks the true top-N latency jobs, the dead
//! shard's ring buffer lands in the report as the black-box dump, and
//! the whole document is byte-identical across same-seed runs.

use hpdr_flight::{explain_lines, validate_flight_json};
use hpdr_serve::JobOutcome;
use hpdr_shard::{run_cluster_loadgen, ClusterLoadOptions};
use hpdr_sim::Ns;

/// A dense short workload with a mid-window node kill: high enough
/// arrival rate that shard 0 is guaranteed to hold queued/in-flight
/// jobs at the failure instant, so re-routing actually happens.
fn fail_opts() -> ClusterLoadOptions {
    let mut opts = ClusterLoadOptions::quick();
    opts.base.rps = 50_000.0;
    opts.base.duration_s = 0.01;
    opts.base.devices = 1;
    opts.fail = Some((0, Ns(5_000_000)));
    opts
}

#[test]
fn breakdowns_sum_exactly_for_every_job_including_rerouted() {
    let report = run_cluster_loadgen(&fail_opts()).unwrap();
    assert_eq!(report.lost, 0, "failure must not lose jobs");
    let flight = report.flight.as_ref().expect("flight tracing is on");
    assert!(flight.ok());
    assert_eq!(
        flight.total_jobs, report.logical_submitted,
        "every popped job must be traced"
    );
    assert!(flight.total_jobs > 0);
    for row in &flight.rows {
        assert_eq!(
            row.components_sum(),
            row.latency,
            "trace {}: breakdown must sum to its latency",
            row.trace
        );
    }
    // The kill actually re-routed work, and every re-routed job was
    // tail-sampled with a non-zero retry component charged up to its
    // last re-route.
    assert!(report.rerouted > 0, "the node kill must re-route jobs");
    let rerouted: Vec<_> = flight.rows.iter().filter(|r| r.hops > 0).collect();
    assert!(!rerouted.is_empty());
    for row in &rerouted {
        assert!(row.sampled, "re-routed trace {} must be sampled", row.trace);
        assert!(row.retry > 0, "re-routed trace {} charges retry", row.trace);
    }
    // The report's per-job source, the shards' job records, gives the
    // same completed-job latencies as the flight rows, re-routed jobs
    // included.
    let mut from_records: Vec<u64> = report
        .shards
        .iter()
        .flat_map(|s| &s.report.records)
        .filter(|r| r.outcome == JobOutcome::Completed)
        .map(|r| r.latency().0)
        .collect();
    let mut from_flight: Vec<u64> = flight
        .rows
        .iter()
        .filter(|r| r.outcome == "completed")
        .map(|r| r.latency)
        .collect();
    from_records.sort_unstable();
    from_flight.sort_unstable();
    assert_eq!(from_records.len() as u64, report.completed);
    assert_eq!(from_records, from_flight);
}

#[test]
fn blackbox_dump_carries_the_dead_shards_ring() {
    let report = run_cluster_loadgen(&fail_opts()).unwrap();
    let flight = report.flight.as_ref().unwrap();
    let bb = flight.blackbox.as_ref().expect("node 0 died: blackbox");
    assert_eq!(bb.shard, 0);
    assert!(!bb.log.events.is_empty(), "dead shard had recorded events");
    assert!(bb.log.events.iter().all(|e| e.shard == 0));
    let doc = report.to_json();
    assert!(doc.contains("\"blackbox\": {\"shard\":0,"));
}

#[test]
fn explain_worst_returns_the_true_top_latency_jobs() {
    let report = run_cluster_loadgen(&fail_opts()).unwrap();
    let flight = report.flight.as_ref().unwrap();
    let doc = report.to_json();
    validate_flight_json(&doc).unwrap();
    let mut ranked: Vec<_> = flight.rows.iter().collect();
    ranked.sort_by_key(|r| (std::cmp::Reverse(r.latency), r.trace));
    let lines = explain_lines(&doc, None, 5).unwrap();
    for (i, expect) in ranked.iter().take(5).enumerate() {
        let head = format!("#{} trace {} ", i + 1, expect.trace);
        assert!(
            lines[1 + 2 * i].starts_with(&head),
            "rank {}: expected `{head}…`, got `{}`",
            i + 1,
            lines[1 + 2 * i]
        );
        assert!(lines[1 + 2 * i].contains(&format!("latency={} ns", expect.latency)));
    }
}

#[test]
fn flight_reports_are_byte_identical_across_same_seed_runs() {
    let a = run_cluster_loadgen(&fail_opts()).unwrap();
    let b = run_cluster_loadgen(&fail_opts()).unwrap();
    assert_eq!(a.to_json(), b.to_json());
    let (fa, fb) = (a.flight.as_ref().unwrap(), b.flight.as_ref().unwrap());
    assert_eq!(hpdr_flight::to_json(fa), hpdr_flight::to_json(fb));
}
