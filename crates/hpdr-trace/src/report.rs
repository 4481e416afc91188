//! One-stop profile report over a trace, with internal invariant
//! checks (used by the `hpdr profile` CLI and the CI smoke run).

use crate::critical::{critical_path, CriticalPath};
use crate::metrics::{
    alloc_contention, engine_stats, latency_histograms, memory_fraction, overlap_ratio,
    wall_overlap_ratio, EngineStats, LatencyHistogram,
};
use hpdr_sim::{DeviceId, Ns, RuntimeStats, Trace};
use std::fmt::Write as _;

/// Aggregated observability report for one traced run.
#[derive(Debug, Clone)]
pub struct Profile {
    pub makespan: Ns,
    pub engines: Vec<EngineStats>,
    /// §V-C overlap ratio per device appearing in the trace (virtual).
    pub overlap: Vec<(DeviceId, Option<f64>)>,
    /// Share of payload wall-clock time that ran beside another payload
    /// (measured; `None` when no payload ran).
    pub overlap_wall: Option<f64>,
    /// Fig. 1 memory-op share of total busy time.
    pub memory_fraction: f64,
    /// Time alloc/free ops queued behind the shared runtime lock.
    pub alloc_contention: Ns,
    pub critical: CriticalPath,
    pub histograms: Vec<(String, LatencyHistogram)>,
    /// Sum of per-op payload wall-clock times (measured host time, as
    /// opposed to the modeled virtual `makespan`).
    pub wall_total: Ns,
    /// Measured runtime counters (wall clock + worker-pool activity),
    /// when the trace producer recorded them.
    pub runtime: Option<RuntimeStats>,
}

impl Profile {
    /// Build a profile, checking the subsystem's own invariants:
    ///
    /// * the trace is non-empty;
    /// * every engine's utilization is in (0, 1];
    /// * the critical-path length equals the makespan exactly.
    ///
    /// Violations are returned as errors (the CI smoke run turns them
    /// into a non-zero exit).
    pub fn from_trace(trace: &Trace) -> Result<Profile, String> {
        if trace.is_empty() {
            return Err("trace is empty — was tracing enabled?".into());
        }
        let engines = engine_stats(trace);
        for e in &engines {
            // Zero-duration engines (e.g. untimed host ops) report 0.0
            // utilization; every *timed* engine must land in (0, 1].
            let in_bounds = e.utilization > 0.0 && e.utilization <= 1.0;
            if !e.busy.is_zero() && !in_bounds {
                return Err(format!(
                    "engine {} utilization {} outside (0, 1]",
                    e.name, e.utilization
                ));
            }
        }
        let critical = critical_path(trace);
        if critical.length != critical.makespan {
            return Err(format!(
                "critical path length {} != makespan {}",
                critical.length, critical.makespan
            ));
        }
        Ok(Profile {
            makespan: trace.makespan(),
            engines,
            overlap: trace
                .devices()
                .into_iter()
                .map(|d| (d, overlap_ratio(trace, d)))
                .collect(),
            overlap_wall: wall_overlap_ratio(trace),
            memory_fraction: memory_fraction(trace),
            alloc_contention: alloc_contention(trace),
            critical,
            histograms: latency_histograms(trace),
            wall_total: Ns(trace.spans().iter().map(|s| s.wall.0).sum()),
            runtime: trace.runtime_stats(),
        })
    }

    /// Human-readable report lines.
    pub fn render(&self) -> Vec<String> {
        let mut out = Vec::new();
        out.push(format!("makespan (virtual)  {}", self.makespan));
        out.push(format!("payload wall-clock  {}", self.wall_total));
        if let Some(rt) = &self.runtime {
            out.push(format!("run wall-clock      {}", rt.wall));
            out.push(format!(
                "worker pool         {} jobs, {} wakeups, {} tasks",
                rt.pool_jobs, rt.pool_wakeups, rt.pool_tasks
            ));
            out.push(format!(
                "staging scratch     {} reused, {} allocated",
                rt.scratch_reuses, rt.scratch_allocs
            ));
        }
        out.push(format!(
            "memory-op share     {:5.1}% of busy time",
            self.memory_fraction * 100.0
        ));
        for (d, r) in &self.overlap {
            match r {
                Some(r) => out.push(format!("overlap dev{}        {:5.1}%", d.0, r * 100.0)),
                None => out.push(format!("overlap dev{}        (no DMA)", d.0)),
            }
        }
        match self.overlap_wall {
            Some(r) => out.push(format!(
                "overlap wall-clock  {:5.1}% of payload time",
                r * 100.0
            )),
            None => out.push("overlap wall-clock  (no payloads)".to_string()),
        }
        out.push(format!("alloc contention    {}", self.alloc_contention));
        out.push("engines:".to_string());
        for e in &self.engines {
            out.push(format!(
                "  {:16} {:4} ops  busy {:>12}  util {:5.1}%",
                e.name,
                e.ops,
                e.busy.to_string(),
                e.utilization * 100.0
            ));
        }
        out.push(format!(
            "critical path       {} ops, {} (== makespan), {:.1}% on memory ops",
            self.critical.ops.len(),
            self.critical.length,
            self.critical.memory_share() * 100.0
        ));
        for (cat, t) in &self.critical.by_category {
            if !t.is_zero() {
                out.push(format!("  on {:9} {:>12}", cat.name(), t.to_string()));
            }
        }
        out.push("op-class latencies:".to_string());
        for (key, h) in &self.histograms {
            out.push(format!(
                "  {:14} n={:<4} mean {:>10}  min {:>10}  max {:>10}",
                key,
                h.count,
                h.mean().to_string(),
                h.min.to_string(),
                h.max.to_string()
            ));
        }
        out
    }

    /// Hand-rolled JSON rendering (no serde in the dependency tree).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(s, "\"makespan_ns\":{}", self.makespan.0);
        let _ = write!(s, ",\"payload_wall_ns\":{}", self.wall_total.0);
        match &self.runtime {
            Some(rt) => {
                let _ = write!(
                    s,
                    ",\"runtime\":{{\"wall_ns\":{},\"pool_jobs\":{},\"pool_wakeups\":{},\
                     \"pool_tasks\":{},\"scratch_reuses\":{},\"scratch_allocs\":{}}}",
                    rt.wall.0,
                    rt.pool_jobs,
                    rt.pool_wakeups,
                    rt.pool_tasks,
                    rt.scratch_reuses,
                    rt.scratch_allocs
                );
            }
            None => s.push_str(",\"runtime\":null"),
        }
        let _ = write!(s, ",\"memory_fraction\":{:.6}", self.memory_fraction);
        let _ = write!(s, ",\"alloc_contention_ns\":{}", self.alloc_contention.0);
        s.push_str(",\"engines\":[");
        for (i, e) in self.engines.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"ops\":{},\"busy_ns\":{},\"utilization\":{:.6}}}",
                e.name, e.ops, e.busy.0, e.utilization
            );
        }
        s.push_str("],\"overlap\":[");
        for (i, (d, r)) in self.overlap.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            match r {
                Some(r) => {
                    let _ = write!(s, "{{\"device\":{},\"ratio\":{:.6}}}", d.0, r);
                }
                None => {
                    let _ = write!(s, "{{\"device\":{},\"ratio\":null}}", d.0);
                }
            }
        }
        s.push(']');
        match self.overlap_wall {
            Some(r) => {
                let _ = write!(s, ",\"overlap_wall\":{r:.6}");
            }
            None => s.push_str(",\"overlap_wall\":null"),
        }
        s.push_str(",\"critical_path\":{");
        let _ = write!(
            s,
            "\"ops\":{:?},\"length_ns\":{},\"memory_share\":{:.6}",
            self.critical.ops,
            self.critical.length.0,
            self.critical.memory_share()
        );
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_sim::{Engine, KernelClass, OpKind, SpanRecord};

    fn two_op_trace() -> Trace {
        let d = DeviceId(0);
        Trace::from_spans(vec![
            SpanRecord {
                op: 0,
                label: "h2d".into(),
                engine: Engine::H2D(d),
                queue: Some(0),
                deps: vec![],
                kind: OpKind::Transfer,
                class: None,
                start: Ns(0),
                end: Ns(100),
                bytes: 100,
                footprint_bytes: 100,
                ready: Ns(0),
                wall_start: Ns::ZERO,
                wall: Ns(40),
            },
            SpanRecord {
                op: 1,
                label: "k".into(),
                engine: Engine::Compute(d),
                queue: Some(0),
                deps: vec![0],
                kind: OpKind::Kernel,
                class: Some(KernelClass::Zfp),
                start: Ns(100),
                end: Ns(300),
                bytes: 100,
                footprint_bytes: 100,
                ready: Ns(100),
                wall_start: Ns::ZERO,
                wall: Ns(60),
            },
        ])
    }

    #[test]
    fn profile_computes_and_checks_invariants() {
        let p = Profile::from_trace(&two_op_trace()).expect("clean");
        assert_eq!(p.makespan, Ns(300));
        assert_eq!(p.critical.ops, vec![0, 1]);
        assert!((p.memory_fraction - 100.0 / 300.0).abs() < 1e-12);
        assert!(!p.render().is_empty());
        let json = p.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"makespan_ns\":300"));
        assert_eq!(p.wall_total, Ns(100));
        assert!(json.contains("\"payload_wall_ns\":100"));
        assert!(json.contains("\"runtime\":null"));
    }

    #[test]
    fn runtime_stats_flow_into_report_and_json() {
        let mut t = two_op_trace();
        t.set_runtime_stats(RuntimeStats {
            wall: Ns(12345),
            pool_jobs: 4,
            pool_wakeups: 9,
            pool_tasks: 40,
            scratch_reuses: 3,
            scratch_allocs: 1,
        });
        let p = Profile::from_trace(&t).expect("clean");
        let rt = p.runtime.expect("runtime stats present");
        assert_eq!(rt.wall, Ns(12345));
        let json = p.to_json();
        assert!(json.contains("\"wall_ns\":12345"));
        assert!(json.contains("\"pool_jobs\":4"));
        assert!(json.contains("\"scratch_reuses\":3"));
        let text = p.render().join("\n");
        assert!(text.contains("worker pool"));
        assert!(text.contains("run wall-clock"));
    }

    #[test]
    fn empty_trace_is_an_error() {
        let err = Profile::from_trace(&Trace::default()).unwrap_err();
        assert!(err.contains("empty"));
    }
}
