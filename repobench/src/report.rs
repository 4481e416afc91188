//! Metric catalog, the result document, and its parser-based validator.
//!
//! A run prints a human-readable table, writes the full document
//! (`repobench/v1`: environment, every metric with quartiles and sample
//! count, check results) to the output directory, and ends its standard
//! output with one compact JSON line holding the catalog metrics of the
//! run's mode: the end-to-end metrics untraced, the per-layer metrics
//! traced.

use crate::env::Env;
use crate::stats::Summary;
use hpdr_metrics::{parse_json, JsonValue};

pub const SCHEMA: &str = "repobench/v1";

/// Whether a metric is measured on the host's wall clock, on the
/// process's CPU clock (every thread's on-CPU time, steal time left
/// out), on the simulator's virtual clock, or is not a time at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Wall,
    Cpu,
    Virtual,
    None,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Cpu => "cpu",
            Clock::Virtual => "virtual",
            Clock::None => "none",
        }
    }
}

/// One catalog entry (the names `BENCHMARK.json` lists).
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
    }
}

use Clock::{Cpu, None as Plain, Virtual, Wall};

/// End-to-end metrics, reported by every workload's untraced run. The
/// timed ones run on the CPU clock; their wall-clock twins are
/// document-only extras (`<name>_wall`).
pub const END_TO_END: &[MetricDef] = &[
    def("compress_gbps", "GB/s", Cpu, "higher"),
    def("decompress_gbps", "GB/s", Cpu, "higher"),
    def("ratio", "x", Plain, "higher"),
    def("max_rel_err", "rel", Plain, "lower"),
    def("virtual_gbps", "GB/s", Virtual, "higher"),
    def("jobs_per_s", "1/s", Cpu, "higher"),
    def("job_p50_ms_virtual", "ms", Virtual, "lower"),
    def("job_p99_ms_virtual", "ms", Virtual, "lower"),
    def("setup_s", "s", Cpu, "lower"),
    def("peak_rss_mb", "MiB", Plain, "lower"),
];

/// Per-layer metrics, reported by every workload's traced run.
pub const PER_LAYER: &[MetricDef] = &[
    def("kernels.quantize.gbps", "GB/s", Wall, "higher"),
    def("kernels.dequantize.gbps", "GB/s", Wall, "higher"),
    def("kernels.histogram.gbps", "GB/s", Wall, "higher"),
    def("kernels.zfp_fwd_transform.gbps", "GB/s", Wall, "higher"),
    def("kernels.zfp_inv_transform.gbps", "GB/s", Wall, "higher"),
    def("kernels.bit_transpose.gbps", "GB/s", Wall, "higher"),
    def("kernels.min_max.gbps", "GB/s", Wall, "higher"),
    def("mgard.context_ms", "ms", Wall, "lower"),
    def("mgard.convert_ms", "ms", Wall, "lower"),
    def("mgard.decompose_ms", "ms", Wall, "lower"),
    def("mgard.quantize_ms", "ms", Wall, "lower"),
    def("mgard.encode_ms", "ms", Wall, "lower"),
    def("mgard.decode_ms", "ms", Wall, "lower"),
    def("mgard.dequantize_ms", "ms", Wall, "lower"),
    def("mgard.recompose_ms", "ms", Wall, "lower"),
    def("mgard.other_ms", "ms", Wall, "lower"),
    def("zfp.compress_ms", "ms", Wall, "lower"),
    def("zfp.decompress_ms", "ms", Wall, "lower"),
    def("huffman.compress_ms", "ms", Wall, "lower"),
    def("huffman.decompress_ms", "ms", Wall, "lower"),
    def("sz.compress_ms", "ms", Wall, "lower"),
    def("sz.decompress_ms", "ms", Wall, "lower"),
    def("reducer.compress_ms", "ms", Wall, "lower"),
    def("reducer.decompress_ms", "ms", Wall, "lower"),
    def("reducer.serial_compress_ms", "ms", Wall, "lower"),
    def("pool.jobs", "count", Plain, "lower"),
    def("pool.wakeups", "count", Plain, "lower"),
    def("pool.scratch_reuses", "count", Plain, "higher"),
    def("pool.scratch_allocs", "count", Plain, "lower"),
    def("cmm.hits", "count", Plain, "higher"),
    def("cmm.misses", "count", Plain, "lower"),
    def("pipeline.compress_ms", "ms", Wall, "lower"),
    def("pipeline.decompress_ms", "ms", Wall, "lower"),
    def("pipeline.sim_run_ms", "ms", Wall, "lower"),
    def("pipeline.overhead_ms", "ms", Wall, "lower"),
    def("pipeline.chunks", "count", Plain, "lower"),
    def("pipeline.makespan_us_virtual", "us", Virtual, "lower"),
    def("pipeline.overlap_virtual", "ratio", Virtual, "higher"),
    def("serve.run_ms", "ms", Wall, "lower"),
    def("serve.self_us_per_job", "us", Wall, "lower"),
    def("serve.batches", "count", Plain, "lower"),
    def("serve.pool_jobs_per_job", "count", Plain, "lower"),
    def("serve.cmm_misses", "count", Plain, "lower"),
    def("serve.queue_wait_p99_ms_virtual", "ms", Virtual, "lower"),
    def("serve.device_util_virtual", "ratio", Virtual, "lower"),
    def("progressive.plan_us", "us", Wall, "lower"),
    def("progressive.retrieve_ms.1e-1", "ms", Wall, "lower"),
    def("progressive.retrieve_ms.1e-2", "ms", Wall, "lower"),
    def("progressive.retrieve_ms.1e-3", "ms", Wall, "lower"),
    def("progressive.fetched_frac.1e-1", "ratio", Plain, "lower"),
    def("progressive.fetched_frac.1e-2", "ratio", Plain, "lower"),
    def("progressive.fetched_frac.1e-3", "ratio", Plain, "lower"),
    def("trace.overhead_pct", "%", Wall, "lower"),
    def("trace.unattributed_pct", "%", Wall, "lower"),
];

pub fn catalog(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub clock: Clock,
    pub summary: Summary,
    /// How the value was formed, when the name alone does not say.
    pub note: String,
}

impl Metric {
    /// A catalog metric (unit and clock come from the catalog).
    pub fn of(name: &str, summary: Summary) -> Metric {
        let d = lookup(name).unwrap_or_else(|| panic!("metric '{name}' is not in the catalog"));
        Metric {
            name: name.to_string(),
            unit: d.unit,
            clock: d.clock,
            summary,
            note: String::new(),
        }
    }

    /// A breakdown metric outside the catalog (document only).
    pub fn extra(name: String, unit: &'static str, clock: Clock, summary: Summary) -> Metric {
        Metric {
            name,
            unit,
            clock,
            summary,
            note: String::new(),
        }
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// Operation accounting: every checked operation counts as attempted;
/// an `Err`, a bound violation, a lossless mismatch, a digest that
/// differs between passes, or a rejected, timed-out or failed job
/// counts as failed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub env: Env,
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Integrity problems of the measurement itself (stage spans that do
    /// not add up, a replay that diverges from the program).
    pub integrity: Vec<String>,
    /// Free-form facts about the run (sizes, counts), in print order.
    pub facts: Vec<(String, String)>,
    /// The traced run's span dump (JSON array).
    pub spans: Option<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0 && self.integrity.is_empty()
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Catalog names of this run's mode that the run did not produce.
    pub fn missing(&self) -> Vec<&'static str> {
        catalog(self.traced)
            .iter()
            .filter(|d| self.metric(d.name).is_none())
            .map(|d| d.name)
            .collect()
    }

    pub fn render(&self) -> Vec<String> {
        let e = &self.env;
        let mut out = vec![
            format!(
                "repobench {} — seed {}, {} s, {}",
                self.workload,
                self.seed,
                self.seconds,
                if self.traced { "traced (per-layer)" } else { "untraced (end-to-end)" }
            ),
            format!(
                "env: simd {} (HPDR_FORCE_SCALAR {}), nproc {}, adapter threads {}, pool workers {}, effective parallelism {:.2}, commit {}",
                e.simd_tier,
                if e.force_scalar { "set" } else { "unset" },
                e.nproc,
                e.adapter_threads,
                e.pool_workers,
                e.effective_parallelism,
                e.commit
            ),
        ];
        for (k, v) in &self.facts {
            out.push(format!("{k}: {v}"));
        }
        for m in &self.metrics {
            let s = m.summary;
            out.push(format!(
                "{:<38} {:>14.6} {:<6} {:<7} q1 {:.6} q3 {:.6} n {}{}",
                m.name,
                s.median,
                m.unit,
                m.clock.name(),
                s.q1,
                s.q3,
                s.n,
                if m.note.is_empty() {
                    String::new()
                } else {
                    format!("  ({})", m.note)
                }
            ));
        }
        out.push(format!(
            "checks: {} attempted, {} failed, failed_frac {}",
            self.tally.attempted,
            self.tally.failed,
            self.tally.failed_frac()
        ));
        for f in self.tally.failures.iter().chain(&self.integrity) {
            out.push(format!("FAIL: {f}"));
        }
        out
    }

    /// The full `repobench/v1` document.
    pub fn to_json(&self) -> String {
        let e = &self.env;
        let mut o = String::from("{\n");
        o += &format!("  \"schema\": {},\n", quote(SCHEMA));
        o += &format!("  \"workload\": {},\n", quote(&self.workload));
        o += &format!("  \"seed\": {},\n", self.seed);
        o += &format!("  \"seconds\": {},\n", self.seconds);
        o += &format!("  \"traced\": {},\n", self.traced);
        o += &format!(
            "  \"env\": {{\"simd_tier\": {}, \"force_scalar\": {}, \"nproc\": {}, \"adapter_threads\": {}, \"pool_workers\": {}, \"effective_parallelism\": {}, \"commit\": {}}},\n",
            quote(e.simd_tier),
            e.force_scalar,
            e.nproc,
            e.adapter_threads,
            e.pool_workers,
            num(e.effective_parallelism),
            quote(&e.commit)
        );
        o += "  \"facts\": {";
        o += &self
            .facts
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
            .collect::<Vec<_>>()
            .join(", ");
        o += "},\n  \"metrics\": [\n";
        let rows: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"clock\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"note\": {}}}",
                    quote(&m.name),
                    quote(m.unit),
                    quote(m.clock.name()),
                    num(m.summary.median),
                    num(m.summary.q1),
                    num(m.summary.q3),
                    m.summary.n,
                    quote(&m.note)
                )
            })
            .collect();
        o += &rows.join(",\n");
        o += "\n  ],\n";
        o += &format!(
            "  \"checks\": {{\"attempted\": {}, \"failed\": {}, \"failed_frac\": {}, \"failures\": [{}], \"integrity\": [{}]}},\n",
            self.tally.attempted,
            self.tally.failed,
            num(self.tally.failed_frac()),
            self.tally.failures.iter().map(|s| quote(s)).collect::<Vec<_>>().join(", "),
            self.integrity.iter().map(|s| quote(s)).collect::<Vec<_>>().join(", ")
        );
        o += &format!("  \"correct\": {}\n}}\n", self.correct());
        o
    }

    /// The last line of standard output: the catalog metrics of this
    /// run's mode, by name, with their units.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<String> = catalog(self.traced)
            .iter()
            .filter_map(|d| self.metric(d.name))
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    num(m.summary.median),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct() && self.missing().is_empty(),
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Full-precision JSON number (`null` for a non-finite value, which the
/// validator then rejects).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

fn number(v: &JsonValue, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .filter(|x| x.is_finite())
        .ok_or_else(|| format!("field '{key}' is not a finite number"))
}

fn text<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| format!("field '{key}' is not a string"))
}

/// Validate a `repobench/v1` document by walking its parsed tree.
pub fn validate(json: &str) -> Result<(), String> {
    let doc = parse_json(json)?;
    if text(&doc, "schema")? != SCHEMA {
        return Err(format!("schema is not {SCHEMA}"));
    }
    text(&doc, "workload")?;
    let traced = matches!(field(&doc, "traced")?, JsonValue::Bool(true));
    let env = field(&doc, "env")?;
    for k in ["simd_tier", "commit"] {
        text(env, k)?;
    }
    for k in ["nproc", "adapter_threads", "effective_parallelism"] {
        if number(env, k)? <= 0.0 {
            return Err(format!("env.{k} must be positive"));
        }
    }
    let metrics = field(&doc, "metrics")?
        .as_arr()
        .ok_or("metrics is not an array")?;
    let mut names = Vec::new();
    for m in metrics {
        let name = text(m, "name")?;
        let clock = text(m, "clock")?;
        if !["wall", "cpu", "virtual", "none"].contains(&clock) {
            return Err(format!("{name}: unknown clock '{clock}'"));
        }
        text(m, "unit")?;
        let (q1, med, q3) = (number(m, "q1")?, number(m, "median")?, number(m, "q3")?);
        if !(q1 <= med && med <= q3) {
            return Err(format!(
                "{name}: quartiles out of order ({q1}, {med}, {q3})"
            ));
        }
        if field(m, "n")?.as_u64().is_none_or(|n| n == 0) {
            return Err(format!("{name}: sample count must be a positive integer"));
        }
        if names.contains(&name) {
            return Err(format!("metric '{name}' appears twice"));
        }
        names.push(name);
    }
    for d in catalog(traced) {
        if !names.contains(&d.name) {
            return Err(format!("catalog metric '{}' missing", d.name));
        }
    }
    let checks = field(&doc, "checks")?;
    let attempted = field(checks, "attempted")?
        .as_u64()
        .ok_or("checks.attempted")?;
    let failed = field(checks, "failed")?.as_u64().ok_or("checks.failed")?;
    if attempted == 0 || failed > attempted {
        return Err(format!("bad check counts: {failed} of {attempted}"));
    }
    let frac = number(checks, "failed_frac")?;
    if (frac - failed as f64 / attempted as f64).abs() > 1e-12 {
        return Err("failed_frac disagrees with the counts".into());
    }
    let correct = matches!(field(&doc, "correct")?, JsonValue::Bool(true));
    let integrity = field(checks, "integrity")?
        .as_arr()
        .ok_or("checks.integrity")?;
    if correct != (failed == 0 && integrity.is_empty()) {
        return Err("'correct' disagrees with the checks".into());
    }
    Ok(())
}

/// Validate the last-line contract object against the catalog.
pub fn validate_contract(line: &str, traced: bool) -> Result<(), String> {
    let doc = parse_json(line)?;
    let keys: Vec<&str> = doc
        .as_obj()
        .ok_or("not an object")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("unexpected keys {keys:?}"));
    }
    let metrics = field(&doc, "metrics")?.as_obj().ok_or("metrics")?;
    let want: Vec<&str> = catalog(traced).iter().map(|d| d.name).collect();
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    if got != want {
        return Err(format!("metric names {got:?} differ from the catalog"));
    }
    for (name, m) in metrics {
        number(m, "value").map_err(|e| format!("{name}: {e}"))?;
        let unit = text(m, "unit")?;
        if lookup(name).map(|d| d.unit) != Some(unit) {
            return Err(format!("{name}: unit '{unit}' differs from the catalog"));
        }
    }
    Ok(())
}
