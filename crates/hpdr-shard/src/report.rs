//! Cluster reports: the `hpdr-shard/v1` envelope document.
//!
//! A [`ClusterReport`] aggregates the per-shard
//! [`ServeReport`](hpdr_serve::ServeReport)s of one cluster run:
//! latency quantiles over the completed-job records of every shard
//! (one streaming histogram of the union, not averaged quantiles),
//! placement / steal / reroute / retry counters, per-shard cache
//! hit-rates and utilization.
//!
//! The envelope `ok` flag is the **cluster zero-lost-jobs invariant**:
//! every job popped from the logical source reaches exactly one
//! cluster-level terminal state — completed, timed out, cancelled,
//! rejected, failed (for real), or dropped after exhausting its retry
//! budget. Jobs a dead shard drained and a survivor finished are
//! counted once: the dead shard's `NODE_FAILURE` records are excluded
//! from the failure count.

use crate::cluster::ClusterOutcome;
use hpdr_flight::check_flight;
use hpdr_metrics::StreamingHistogram;
use hpdr_serve::{check_serve, JobOutcome, LatencySummary, ServeReport};
use hpdr_sim::json::{need, need_arr, need_f64, need_u64, parse_json, JsonValue};
use hpdr_sim::Ns;
use hpdr_verify::envelope;

/// Schema identifier embedded in every cluster report.
pub const CLUSTER_SCHEMA: &str = "hpdr-shard/v1";

/// Per-shard report row.
pub struct ShardRow {
    pub shard: usize,
    pub alive: bool,
    pub placed: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// `hits / (hits + misses)` over data-dependent placements (1.0
    /// when the shard saw none).
    pub hit_rate: f64,
    /// Busy time over `configured devices × cluster makespan`.
    pub utilization: f64,
    pub report: ServeReport,
}

/// The full result of a cluster run.
pub struct ClusterReport {
    pub nodes: usize,
    pub policy: &'static str,
    pub seed: u64,
    pub logical_submitted: u64,
    pub completed: u64,
    pub timed_out: u64,
    pub cancelled: u64,
    pub rejected: u64,
    /// Real failures (codec errors) — node-failure drains excluded.
    pub failed: u64,
    pub steals: u64,
    pub rerouted: u64,
    pub retries_exhausted: u64,
    pub drained: u64,
    /// `logical_submitted − cluster-level terminals` (0 on a sound run;
    /// signed so double counting shows as negative, not wraparound).
    pub lost: i64,
    pub remote_fetches: u64,
    pub remote_fetch_bytes: u64,
    pub remote_fetch_ns: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_hit_rate: f64,
    pub completed_bytes: u64,
    pub makespan: Ns,
    pub goodput_gbps: f64,
    /// Shard-merged end-to-end latency of completed jobs.
    pub latency: LatencySummary,
    pub failure: Option<(usize, Ns)>,
    pub shards: Vec<ShardRow>,
    /// Causal flight analysis (embedded as a nested `hpdr-flight/v1`
    /// document; `null` when tracing was off).
    pub flight: Option<hpdr_flight::FlightReport>,
}

impl ClusterReport {
    pub fn build(outcome: ClusterOutcome) -> ClusterReport {
        let (mut completed, mut timed_out, mut cancelled, mut rejected, mut failed_sum) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut completed_bytes = 0u64;
        let mut makespan = Ns::ZERO;
        let mut latency_hist = StreamingHistogram::new();
        for r in &outcome.reports {
            completed += r.completed;
            timed_out += r.timed_out;
            cancelled += r.cancelled;
            rejected += r.rejected;
            failed_sum += r.failed;
            completed_bytes += r.completed_bytes;
            makespan = makespan.max(r.makespan);
            for rec in &r.records {
                if rec.outcome == JobOutcome::Completed {
                    latency_hist.record(rec.latency().0);
                }
            }
        }
        makespan = makespan.max(outcome.last_transfer_or_reroute);
        // The dead shard's NODE_FAILURE records are re-placements, not
        // real failures; each drained job terminates elsewhere (or in
        // `retries_exhausted`).
        let failed = failed_sum.saturating_sub(outcome.drained);
        let terminals =
            completed + timed_out + cancelled + rejected + failed + outcome.retries_exhausted;
        let lost = outcome.logical_submitted as i64 - terminals as i64;
        let (hits, misses): (u64, u64) = (
            outcome.cache_hits.iter().sum(),
            outcome.cache_misses.iter().sum(),
        );
        let goodput_gbps = if makespan.is_zero() {
            0.0
        } else {
            completed_bytes as f64 / makespan.0 as f64
        };

        let shards = outcome
            .reports
            .into_iter()
            .enumerate()
            .map(|(s, report)| {
                let data = outcome.cache_hits[s] + outcome.cache_misses[s];
                let busy: u64 = report.per_device.iter().map(|d| d.busy_ns).sum();
                let capacity = outcome.shard_devices as u64 * makespan.0;
                ShardRow {
                    shard: s,
                    alive: outcome.alive[s],
                    placed: outcome.placed[s],
                    cache_hits: outcome.cache_hits[s],
                    cache_misses: outcome.cache_misses[s],
                    hit_rate: if data == 0 {
                        1.0
                    } else {
                        outcome.cache_hits[s] as f64 / data as f64
                    },
                    utilization: if capacity == 0 {
                        0.0
                    } else {
                        busy as f64 / capacity as f64
                    },
                    report,
                }
            })
            .collect();

        ClusterReport {
            nodes: outcome.nodes,
            policy: outcome.policy.name(),
            seed: outcome.seed,
            logical_submitted: outcome.logical_submitted,
            completed,
            timed_out,
            cancelled,
            rejected,
            failed,
            steals: outcome.steals,
            rerouted: outcome.rerouted,
            retries_exhausted: outcome.retries_exhausted,
            drained: outcome.drained,
            lost,
            remote_fetches: outcome.remote_fetches,
            remote_fetch_bytes: outcome.remote_fetch_bytes,
            remote_fetch_ns: outcome.remote_fetch_ns,
            cache_hits: hits,
            cache_misses: misses,
            cache_hit_rate: if hits + misses == 0 {
                1.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
            completed_bytes,
            makespan,
            goodput_gbps,
            latency: LatencySummary::from_histogram(&latency_hist),
            failure: outcome.failure,
            shards,
            flight: outcome.flight,
        }
    }

    /// The envelope `ok` flag: no job lost and every shard's own
    /// accounting balanced.
    pub fn ok(&self) -> bool {
        self.lost == 0 && self.shards.iter().all(|s| s.report.ok())
    }

    /// Human-readable summary lines.
    pub fn render(&self) -> Vec<String> {
        let mut out = vec![format!(
            "cluster: {} nodes, {} placement, seed {} — {} jobs, {} completed, \
             {} timed out, {} cancelled, {} rejected, {} failed ({} lost)",
            self.nodes,
            self.policy,
            self.seed,
            self.logical_submitted,
            self.completed,
            self.timed_out,
            self.cancelled,
            self.rejected,
            self.failed,
            self.lost
        )];
        out.push(format!(
            "placement: {} steals, {} rerouted, {} retries exhausted; \
             cache {}/{} hit/miss ({:.1}% hit rate), {} remote fetches \
             ({} bytes, {:.3} ms virtual)",
            self.steals,
            self.rerouted,
            self.retries_exhausted,
            self.cache_hits,
            self.cache_misses,
            self.cache_hit_rate * 100.0,
            self.remote_fetches,
            self.remote_fetch_bytes,
            self.remote_fetch_ns as f64 / 1e6
        ));
        if let Some((node, at)) = self.failure {
            out.push(format!(
                "failure: node {node} killed at {:.3} ms — {} jobs drained and re-placed",
                at.0 as f64 / 1e6,
                self.drained
            ));
        }
        out.push(format!(
            "goodput: {:.4} GB/s over {:.3} ms makespan; latency p50 {:.3} ms, \
             p99 {:.3} ms",
            self.goodput_gbps,
            self.makespan.0 as f64 / 1e6,
            self.latency.p50 as f64 / 1e6,
            self.latency.p99 as f64 / 1e6
        ));
        if let Some(f) = &self.flight {
            let worst: Vec<String> = f.exemplars(3).iter().map(u64::to_string).collect();
            out.push(format!(
                "flight: {} jobs traced, {} sampled, {} events dropped; \
                 worst sampled traces [{}] — `hpdr explain` breaks them down",
                f.total_jobs,
                f.sampled,
                f.dropped,
                worst.join(", ")
            ));
        }
        for s in &self.shards {
            out.push(format!(
                "shard {:>2}{}: {:>4} placed, cache {}/{} hit/miss ({:.1}%), \
                 utilization {:.1}%, {} completed",
                s.shard,
                if s.alive { "" } else { " (dead)" },
                s.placed,
                s.cache_hits,
                s.cache_misses,
                s.hit_rate * 100.0,
                s.utilization * 100.0,
                s.report.completed
            ));
        }
        out
    }

    /// Serialize to JSON: the shared `hpdr-verify` envelope over the
    /// cluster counters, with each shard's own `hpdr-serve/v1` document
    /// embedded under `per_shard[].report`. Deterministic: virtual-time
    /// quantities only, fixed float precision.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push('\n');
        s.push_str(&format!("  \"nodes\": {},\n", self.nodes));
        s.push_str(&format!("  \"policy\": \"{}\",\n", self.policy));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!(
            "  \"logical_submitted\": {},\n",
            self.logical_submitted
        ));
        s.push_str(&format!("  \"completed\": {},\n", self.completed));
        s.push_str(&format!("  \"timed_out\": {},\n", self.timed_out));
        s.push_str(&format!("  \"cancelled\": {},\n", self.cancelled));
        s.push_str(&format!("  \"rejected\": {},\n", self.rejected));
        s.push_str(&format!("  \"failed\": {},\n", self.failed));
        s.push_str(&format!("  \"steals\": {},\n", self.steals));
        s.push_str(&format!("  \"rerouted\": {},\n", self.rerouted));
        s.push_str(&format!(
            "  \"retries_exhausted\": {},\n",
            self.retries_exhausted
        ));
        s.push_str(&format!("  \"drained\": {},\n", self.drained));
        s.push_str(&format!("  \"lost\": {},\n", self.lost));
        s.push_str(&format!("  \"remote_fetches\": {},\n", self.remote_fetches));
        s.push_str(&format!(
            "  \"remote_fetch_bytes\": {},\n",
            self.remote_fetch_bytes
        ));
        s.push_str(&format!(
            "  \"remote_fetch_ns\": {},\n",
            self.remote_fetch_ns
        ));
        s.push_str(&format!("  \"cache_hits\": {},\n", self.cache_hits));
        s.push_str(&format!("  \"cache_misses\": {},\n", self.cache_misses));
        s.push_str(&format!(
            "  \"cache_hit_rate\": {:.6},\n",
            self.cache_hit_rate
        ));
        s.push_str(&format!(
            "  \"completed_bytes\": {},\n",
            self.completed_bytes
        ));
        s.push_str(&format!("  \"makespan_ns\": {},\n", self.makespan.0));
        s.push_str(&format!("  \"goodput_gbps\": {:.6},\n", self.goodput_gbps));
        s.push_str(&format!("  \"latency\": {},\n", self.latency.to_json()));
        match self.failure {
            Some((node, at)) => s.push_str(&format!(
                "  \"failure\": {{\"node\":{},\"at_ns\":{},\"drained\":{}}},\n",
                node, at.0, self.drained
            )),
            None => s.push_str("  \"failure\": null,\n"),
        }
        s.push_str("  \"per_shard\": [");
        for (i, row) in self.shards.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\n      \"shard\": {},\n      \"alive\": {},\n      \
                 \"placed\": {},\n      \"cache_hits\": {},\n      \
                 \"cache_misses\": {},\n      \"hit_rate\": {:.6},\n      \
                 \"utilization\": {:.6},\n      \"report\": ",
                row.shard,
                row.alive,
                row.placed,
                row.cache_hits,
                row.cache_misses,
                row.hit_rate,
                row.utilization
            ));
            let report = row.report.to_json();
            s.push_str(&report.trim_end().replace('\n', "\n      "));
            s.push_str("\n    }");
        }
        s.push_str("\n  ],\n");
        match &self.flight {
            Some(f) => {
                s.push_str("  \"flight\": ");
                s.push_str(&hpdr_flight::to_json(f).trim_end().replace('\n', "\n  "));
                s.push('\n');
            }
            None => s.push_str("  \"flight\": null\n"),
        }
        let mut doc = envelope::wrap(CLUSTER_SCHEMA, self.ok(), &s);
        doc.push('\n');
        doc
    }
}

/// Validate a cluster-report JSON document with one walk over the
/// parsed tree:
///
/// * the `hpdr-shard/v1` envelope header and the required fields;
/// * the cluster zero-lost-jobs invariant: `lost`, recomputed from the
///   top-level counts, must equal the stored value and be zero;
/// * every `per_shard[].report` through the serve report's walk;
/// * the envelope `ok`, which must agree with both;
/// * the embedded `flight` report, when the run recorded one (reports
///   written before flight recording carry no `flight` key).
pub fn validate_cluster_json(json: &str) -> Result<(), String> {
    let ctx = "cluster report";
    let doc = parse_json(json)?;
    let ok = envelope::header(&doc, CLUSTER_SCHEMA)?;
    for k in ["nodes", "cache_hit_rate", "goodput_gbps", "makespan_ns"] {
        need_f64(&doc, k, ctx)?;
    }
    let terminals = [
        "completed",
        "timed_out",
        "cancelled",
        "rejected",
        "failed",
        "retries_exhausted",
    ]
    .iter()
    .map(|k| need_u64(&doc, k, ctx).map(i128::from))
    .sum::<Result<i128, String>>()?;
    let lost = i128::from(need_u64(&doc, "logical_submitted", ctx)?) - terminals;
    if need_f64(&doc, "lost", ctx)? != lost as f64 {
        return Err(format!(
            "{ctx}: stored 'lost' disagrees with the counts, which lose {lost} jobs"
        ));
    }
    for (i, row) in need_arr(&doc, "per_shard", ctx)?.iter().enumerate() {
        check_serve(need(row, "report", ctx)?)
            .map_err(|e| format!("per_shard[{i}].report: {e}"))?;
    }
    if lost != 0 {
        return Err(format!("cluster lost {lost} jobs"));
    }
    if !ok {
        return Err(format!("{ctx}: envelope 'ok' is false on a sound ledger"));
    }
    match doc.get("flight") {
        None | Some(JsonValue::Null) => Ok(()),
        Some(flight) => check_flight(flight).map_err(|e| format!("embedded flight: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::loadgen::{run_cluster_loadgen, ClusterLoadOptions};

    /// `doc` with the integer after the first `needle` increased by one.
    fn bump(doc: &str, needle: &str) -> String {
        let at = doc.find(needle).expect("needle in document") + needle.len();
        let len = doc[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
        let n: u64 = doc[at..at + len].parse().unwrap();
        format!("{}{}{}", &doc[..at], n + 1, &doc[at + len..])
    }

    #[test]
    fn validator_requires_envelope_and_zero_lost() {
        // What `hpdr cluster --quick --fail-node 0@125000 --json` writes.
        let opts = ClusterLoadOptions {
            fail: Some((0, Ns::from_micros(125_000))),
            ..ClusterLoadOptions::quick()
        };
        let good = run_cluster_loadgen(&opts).unwrap().to_json();
        validate_cluster_json(&good).unwrap();
        let lossy = good.replacen("\"lost\": 0", "\"lost\": 1", 1);
        assert!(validate_cluster_json(&lossy).unwrap_err().contains("lost"));
        let wrong = good.replacen("hpdr-shard/v1", "hpdr-shard/v0", 1);
        assert!(validate_cluster_json(&wrong).is_err());
        // The envelope says the run failed.
        let not_ok = good.replacen("\"ok\":true", "\"ok\":false", 1);
        let err = validate_cluster_json(&not_ok).unwrap_err();
        assert!(err.contains("'ok'"), "{err}");
        // An inflated top-level count: the stored `lost` no longer follows.
        let inflated = bump(&good, "\n  \"completed\": ");
        let err = validate_cluster_json(&inflated).unwrap_err();
        assert!(err.contains("'lost'"), "{err}");
        // One embedded shard report whose own ledger no longer balances.
        let unbalanced = bump(&good, "\n        \"admitted\": ");
        let err = validate_cluster_json(&unbalanced).unwrap_err();
        assert!(err.contains("per_shard[0].report"), "{err}");
    }
}
