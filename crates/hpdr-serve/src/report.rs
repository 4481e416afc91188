//! Serve reports: schema-validated JSON over the scheduler's job
//! records.
//!
//! Latency percentiles come from the [`JobRecord`] the scheduler writes
//! for each admitted job at its terminal transition: a completed job's
//! latency is `finished − arrival`, its queue wait `started − arrival`.
//! Rejection counts come from the admission counters. The report
//! carries only virtual-time quantities, so the same seed and job
//! stream serialize byte-identically.
//!
//! The validator enforces the **zero-lost-jobs invariant**:
//! `admitted == completed + timed_out + cancelled + failed` and
//! `submitted == admitted + rejected` — every submission is accounted
//! for exactly once.

use crate::histogram::StreamingHistogram;
use crate::job::{JobOutcome, JobRecord};
use crate::scheduler::{Policy, ServeOutcome};
use hpdr_sim::json::{need_f64, need_u64, parse_json, JsonValue};
use hpdr_sim::Ns;

/// Schema identifier embedded in every serve report.
pub const SERVE_SCHEMA: &str = "hpdr-serve/v1";

/// Latency-style summary (all values virtual nanoseconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub max: u64,
    pub mean: u64,
}

impl LatencySummary {
    /// Summarize a quantile sketch (also used by the cluster report to
    /// summarize shard-merged histograms).
    pub fn from_histogram(h: &StreamingHistogram) -> LatencySummary {
        LatencySummary {
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
            max: h.max(),
            mean: h.mean(),
        }
    }

    /// Compact JSON object (shared with the cluster report).
    pub fn to_json(self) -> String {
        format!(
            "{{\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"max_ns\":{},\"mean_ns\":{}}}",
            self.p50, self.p95, self.p99, self.max, self.mean
        )
    }
}

/// Per-tenant report row.
#[derive(Debug, Clone)]
pub struct TenantRow {
    pub tenant: u32,
    pub submitted: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub completed: u64,
    pub bytes: u64,
    pub mean_latency_ns: u64,
}

/// Per-device report row (devices that dispatched at least one batch).
#[derive(Debug, Clone)]
pub struct DeviceRow {
    pub device: usize,
    pub batches: u64,
    pub jobs: u64,
    pub busy_ns: u64,
    pub utilization: f64,
}

/// The full result of a serve run.
pub struct ServeReport {
    pub policy: &'static str,
    /// Devices that dispatched at least one batch. Deliberately NOT the
    /// configured pool size: under `Policy::Serial` the report must be
    /// byte-identical for any `--devices`, so only observed work — never
    /// configuration that cannot affect it — may be serialized.
    pub devices: usize,
    pub submitted: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub rejected_depth: u64,
    pub rejected_bytes: u64,
    pub rejected_invalid: u64,
    pub completed: u64,
    pub timed_out: u64,
    pub cancelled: u64,
    pub failed: u64,
    /// Uncompressed bytes of completed jobs.
    pub completed_bytes: u64,
    pub makespan: Ns,
    /// Completed uncompressed bytes per virtual second (1 byte/ns ⇒ GB/s).
    pub goodput_gbps: f64,
    pub peak_queue_jobs: usize,
    pub peak_queue_bytes: u64,
    pub batches: u64,
    pub cmm_hits: u64,
    pub cmm_misses: u64,
    /// Worker-pool jobs dispatched while serving (host-side execution).
    /// Not serialized: the pool counter is process-global, so parallel
    /// runs in one process would perturb each other's deltas.
    pub pool_jobs: u64,
    /// End-to-end latency of completed jobs.
    pub latency: LatencySummary,
    /// Queue wait (dispatch − arrival) of completed jobs.
    pub queue_wait: LatencySummary,
    pub per_tenant: Vec<TenantRow>,
    pub per_device: Vec<DeviceRow>,
    /// Per-job terminal records (not serialized).
    pub records: Vec<JobRecord>,
    /// The metrics registry of the run (when `ServeConfig::metrics` was
    /// set): scrape series, exposition, SLO attainment.
    pub metrics: Option<hpdr_metrics::Registry>,
    /// Payload-cache occupancy/eviction counters of the run's
    /// materialization phase (attached by callers that own the cache —
    /// `ServeReport::build` has no access to it).
    pub payload_cache: Option<crate::script::CacheStats>,
}

impl ServeReport {
    /// Build the report from a scheduler outcome. Latency percentiles
    /// come from the completed jobs' records, the rejection count from
    /// the admission counters.
    pub fn build(policy: Policy, outcome: ServeOutcome) -> ServeReport {
        let mut latency = StreamingHistogram::new();
        let mut wait = StreamingHistogram::new();
        let rejected = outcome.admission.rejected();

        let (mut completed, mut timed_out, mut cancelled, mut failed) = (0u64, 0, 0, 0);
        let mut completed_bytes = 0u64;
        // Per-tenant latency sum and count over completed jobs.
        let mut tenant_lat: std::collections::BTreeMap<u32, (u128, u64)> = Default::default();
        for r in &outcome.records {
            match r.outcome {
                JobOutcome::Completed => {
                    completed += 1;
                    completed_bytes += r.bytes;
                    latency.record(r.latency().0);
                    wait.record(r.queue_wait().0);
                    let e = tenant_lat.entry(r.tenant.0).or_default();
                    e.0 += r.latency().0 as u128;
                    e.1 += 1;
                }
                JobOutcome::TimedOut => timed_out += 1,
                JobOutcome::Cancelled => cancelled += 1,
                JobOutcome::Failed(_) => failed += 1,
            }
        }

        let per_tenant = outcome
            .tenants
            .iter()
            .map(|(&t, s)| TenantRow {
                tenant: t,
                submitted: s.submitted,
                admitted: s.admitted,
                rejected: s.rejected,
                completed: s.completed,
                bytes: s.bytes,
                mean_latency_ns: tenant_lat
                    .get(&t)
                    .map_or(0, |&(sum, n)| (sum / n.max(1) as u128) as u64),
            })
            .collect();
        let per_device: Vec<DeviceRow> = outcome
            .devices
            .iter()
            .map(|(&d, s)| DeviceRow {
                device: d,
                batches: s.batches,
                jobs: s.jobs,
                busy_ns: s.busy.0,
                utilization: s.utilization,
            })
            .collect();

        let goodput_gbps = if outcome.makespan.is_zero() {
            0.0
        } else {
            completed_bytes as f64 / outcome.makespan.0 as f64
        };
        ServeReport {
            policy: policy.name(),
            devices: per_device.len(),
            submitted: outcome.admission.admitted + rejected,
            admitted: outcome.admission.admitted,
            rejected,
            rejected_depth: outcome.admission.rejected_depth,
            rejected_bytes: outcome.admission.rejected_bytes,
            rejected_invalid: outcome.admission.rejected_invalid,
            completed,
            timed_out,
            cancelled,
            failed,
            completed_bytes,
            makespan: outcome.makespan,
            goodput_gbps,
            peak_queue_jobs: outcome.admission.peak_jobs,
            peak_queue_bytes: outcome.admission.peak_bytes,
            batches: per_device.iter().map(|d| d.batches).sum(),
            cmm_hits: outcome.cmm_hits,
            cmm_misses: outcome.cmm_misses,
            pool_jobs: outcome.pool_jobs,
            latency: LatencySummary::from_histogram(&latency),
            queue_wait: LatencySummary::from_histogram(&wait),
            per_tenant,
            per_device,
            records: outcome.records,
            metrics: outcome.metrics,
            payload_cache: None,
        }
    }

    /// Human-readable summary lines.
    pub fn render(&self) -> Vec<String> {
        let mut out = vec![format!(
            "serve: policy={} active devices={} — {} submitted, {} admitted, {} rejected \
             ({} depth / {} bytes / {} invalid)",
            self.policy,
            self.devices,
            self.submitted,
            self.admitted,
            self.rejected,
            self.rejected_depth,
            self.rejected_bytes,
            self.rejected_invalid
        )];
        out.push(format!(
            "jobs: {} completed, {} timed out, {} cancelled, {} failed \
             ({} batches, CMM {}/{} hit/miss, {} pool jobs)",
            self.completed,
            self.timed_out,
            self.cancelled,
            self.failed,
            self.batches,
            self.cmm_hits,
            self.cmm_misses,
            self.pool_jobs
        ));
        out.push(format!(
            "latency: p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, max {:.3} ms \
             (queue wait p99 {:.3} ms)",
            self.latency.p50 as f64 / 1e6,
            self.latency.p95 as f64 / 1e6,
            self.latency.p99 as f64 / 1e6,
            self.latency.max as f64 / 1e6,
            self.queue_wait.p99 as f64 / 1e6
        ));
        out.push(format!(
            "goodput: {:.4} GB/s over {:.3} ms virtual makespan ({} completed bytes)",
            self.goodput_gbps,
            self.makespan.0 as f64 / 1e6,
            self.completed_bytes
        ));
        for t in &self.per_tenant {
            out.push(format!(
                "tenant {:>3}: {:>4} submitted, {:>4} completed, {:>4} rejected, \
                 {:>10} bytes, mean latency {:.3} ms",
                t.tenant,
                t.submitted,
                t.completed,
                t.rejected,
                t.bytes,
                t.mean_latency_ns as f64 / 1e6
            ));
        }
        for d in &self.per_device {
            out.push(format!(
                "device {:>2}: {:>4} batches, {:>4} jobs, busy {:.3} ms \
                 (utilization {:.1}%)",
                d.device,
                d.batches,
                d.jobs,
                d.busy_ns as f64 / 1e6,
                d.utilization * 100.0
            ));
        }
        if let Some(c) = &self.payload_cache {
            out.push(format!(
                "payload cache: refactorings {}/{} bytes ({} evicted), \
                 plans {}/{} bytes ({} evicted), plan hits/misses {}/{}",
                c.retrieval_bytes,
                c.retrieval_budget_bytes,
                c.retrieval_evictions,
                c.plan_bytes,
                c.plan_budget_bytes,
                c.plan_evictions,
                c.plan_hits,
                c.plan_misses
            ));
        }
        out
    }

    /// The envelope `ok` flag: the zero-lost-jobs invariants hold —
    /// every submission and every admitted job is accounted for once.
    pub fn ok(&self) -> bool {
        self.submitted == self.admitted + self.rejected
            && self.admitted == self.completed + self.timed_out + self.cancelled + self.failed
    }

    /// Serialize to JSON. Deterministic: virtual-time quantities only,
    /// fixed float precision, ordered maps behind every array. The
    /// header is the shared `hpdr-verify` envelope
    /// (`{"schema":"hpdr-serve/v1","ok":<bool>, ...}`).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push('\n');
        s.push_str(&format!("  \"policy\": \"{}\",\n", self.policy));
        s.push_str(&format!("  \"devices\": {},\n", self.devices));
        s.push_str(&format!("  \"submitted\": {},\n", self.submitted));
        s.push_str(&format!("  \"admitted\": {},\n", self.admitted));
        s.push_str(&format!("  \"rejected\": {},\n", self.rejected));
        s.push_str(&format!("  \"rejected_depth\": {},\n", self.rejected_depth));
        s.push_str(&format!("  \"rejected_bytes\": {},\n", self.rejected_bytes));
        s.push_str(&format!(
            "  \"rejected_invalid\": {},\n",
            self.rejected_invalid
        ));
        s.push_str(&format!("  \"completed\": {},\n", self.completed));
        s.push_str(&format!("  \"timed_out\": {},\n", self.timed_out));
        s.push_str(&format!("  \"cancelled\": {},\n", self.cancelled));
        s.push_str(&format!("  \"failed\": {},\n", self.failed));
        s.push_str(&format!(
            "  \"completed_bytes\": {},\n",
            self.completed_bytes
        ));
        s.push_str(&format!("  \"makespan_ns\": {},\n", self.makespan.0));
        s.push_str(&format!("  \"goodput_gbps\": {:.6},\n", self.goodput_gbps));
        s.push_str(&format!(
            "  \"peak_queue_jobs\": {},\n",
            self.peak_queue_jobs
        ));
        s.push_str(&format!(
            "  \"peak_queue_bytes\": {},\n",
            self.peak_queue_bytes
        ));
        s.push_str(&format!("  \"batches\": {},\n", self.batches));
        s.push_str(&format!("  \"cmm_hits\": {},\n", self.cmm_hits));
        s.push_str(&format!("  \"cmm_misses\": {},\n", self.cmm_misses));
        s.push_str(&format!("  \"latency\": {},\n", self.latency.to_json()));
        s.push_str(&format!(
            "  \"queue_wait\": {},\n",
            self.queue_wait.to_json()
        ));
        s.push_str("  \"per_tenant\": [");
        for (i, t) in self.per_tenant.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"tenant\":{},\"submitted\":{},\"admitted\":{},\"rejected\":{},\
                 \"completed\":{},\"bytes\":{},\"mean_latency_ns\":{}}}",
                t.tenant,
                t.submitted,
                t.admitted,
                t.rejected,
                t.completed,
                t.bytes,
                t.mean_latency_ns
            ));
        }
        s.push_str("\n  ],\n");
        s.push_str("  \"per_device\": [");
        for (i, d) in self.per_device.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"device\":{},\"batches\":{},\"jobs\":{},\"busy_ns\":{},\
                 \"utilization\":{:.6}}}",
                d.device, d.batches, d.jobs, d.busy_ns, d.utilization
            ));
        }
        s.push_str("\n  ]");
        if let Some(c) = &self.payload_cache {
            s.push_str(&format!(
                ",\n  \"payload_cache\": {{\"retrieval_bytes\":{},\
                 \"retrieval_budget_bytes\":{},\"retrieval_evictions\":{},\
                 \"plan_bytes\":{},\"plan_budget_bytes\":{},\"plan_evictions\":{},\
                 \"plan_hits\":{},\"plan_misses\":{}}}",
                c.retrieval_bytes,
                c.retrieval_budget_bytes,
                c.retrieval_evictions,
                c.plan_bytes,
                c.plan_budget_bytes,
                c.plan_evictions,
                c.plan_hits,
                c.plan_misses
            ));
        }
        if let Some(reg) = &self.metrics {
            // Embed the registry's own schema-validated document,
            // re-indented two spaces (same trick as the loadgen report).
            let metrics = reg.to_json();
            s.push_str(",\n  \"metrics\": ");
            s.push_str(&metrics.trim_end().replace('\n', "\n  "));
        }
        s.push('\n');
        let mut doc = hpdr_verify::envelope::wrap(SERVE_SCHEMA, self.ok(), &s);
        doc.push('\n');
        doc
    }
}

/// Walk a parsed serve report: schema id, required fields, and the
/// zero-lost-jobs invariant. Accepts both the envelope header and the
/// legacy pretty header without `ok`, so reports written before the
/// envelope migration keep validating; an `ok` that is present must
/// agree with the ledger.
pub fn check_serve(report: &JsonValue) -> Result<(), String> {
    let ctx = "serve report";
    if report.get("schema").and_then(JsonValue::as_str) != Some(SERVE_SCHEMA) {
        return Err(format!("missing schema id {SERVE_SCHEMA}"));
    }
    let field = |k: &str| need_u64(report, k, ctx).map(u128::from);
    let submitted = field("submitted")?;
    let admitted = field("admitted")?;
    let rejected = field("rejected")?;
    let completed = field("completed")?;
    let timed_out = field("timed_out")?;
    let cancelled = field("cancelled")?;
    let failed = field("failed")?;
    for k in ["makespan_ns", "goodput_gbps", "peak_queue_jobs"] {
        need_f64(report, k, ctx)?;
    }
    if submitted != admitted + rejected {
        return Err(format!(
            "lost submissions: submitted {submitted} != admitted {admitted} + rejected {rejected}"
        ));
    }
    let terminal = completed + timed_out + cancelled + failed;
    if admitted != terminal {
        return Err(format!(
            "lost jobs: admitted {admitted} != completed {completed} + timed_out {timed_out} \
             + cancelled {cancelled} + failed {failed}"
        ));
    }
    match report.get("ok") {
        None | Some(JsonValue::Bool(true)) => Ok(()),
        Some(_) => Err(format!(
            "{ctx}: envelope 'ok' is not true on a balanced ledger"
        )),
    }
}

/// Validate a serve-report JSON document with [`check_serve`].
pub fn validate_serve_json(json: &str) -> Result<(), String> {
    check_serve(&parse_json(json)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_json(submitted: u64, admitted: u64, completed: u64) -> String {
        format!(
            "{{\n  \"schema\": \"{SERVE_SCHEMA}\",\n  \"submitted\": {submitted},\n  \
             \"admitted\": {admitted},\n  \"rejected\": {},\n  \"completed\": {completed},\n  \
             \"timed_out\": 0,\n  \"cancelled\": 0,\n  \"failed\": 0,\n  \
             \"makespan_ns\": 10,\n  \"goodput_gbps\": 1.0,\n  \"peak_queue_jobs\": 1\n}}\n",
            submitted - admitted
        )
    }

    #[test]
    fn validator_accepts_balanced_report() {
        validate_serve_json(&sample_json(10, 8, 8)).unwrap();
    }

    #[test]
    fn validator_rejects_lost_jobs() {
        let err = validate_serve_json(&sample_json(10, 8, 7)).unwrap_err();
        assert!(err.contains("lost jobs"), "{err}");
    }

    #[test]
    fn validator_rejects_wrong_schema() {
        let json = sample_json(1, 1, 1).replace("hpdr-serve/v1", "hpdr-serve/v0");
        assert!(validate_serve_json(&json).is_err());
    }
}
