//! The `hpdr-flight/v1` report document: hand-rolled JSON on the shared
//! envelope, its validator, the row parser `hpdr explain` runs on, and
//! the human-readable explanation renderer.
//!
//! Every serialized quantity is an integer (virtual nanoseconds or
//! counts), so same-seed runs produce byte-identical documents — the
//! determinism gate in `scripts/check.sh` `cmp`s two of them.

use crate::analyze::{BlameRow, FlightReport};
use crate::record::{JobEvent, JobEventKind};
use hpdr_sim::json::{esc, need, need_arr, need_bool, need_str, need_u64, parse_json, JsonValue};
use hpdr_verify::envelope::{header, wrap};

/// Schema tag of flight reports.
pub const FLIGHT_SCHEMA: &str = "hpdr-flight/v1";

fn blame_json(b: &BlameRow) -> String {
    format!(
        "{{\"key\":{},\"jobs\":{},\"latency_ns\":{},\"queue_ns\":{},\"placement_ns\":{},\
         \"transfer_ns\":{},\"batch_ns\":{},\"service_ns\":{},\"retry_ns\":{}}}",
        b.key, b.jobs, b.latency, b.queue, b.placement, b.transfer, b.batch, b.service, b.retry
    )
}

fn event_json(e: &JobEvent) -> String {
    let mut extra = String::new();
    match e.kind {
        JobEventKind::Place {
            target,
            preferred,
            steal,
        } => extra = format!(",\"target\":{target},\"preferred\":{preferred},\"steal\":{steal}"),
        JobEventKind::XferStart {
            bytes,
            xfer_ns,
            metadata_ns,
        } => {
            extra =
                format!(",\"bytes\":{bytes},\"xfer_ns\":{xfer_ns},\"metadata_ns\":{metadata_ns}")
        }
        JobEventKind::Reroute { attempt } => extra = format!(",\"attempt\":{attempt}"),
        JobEventKind::Dispatch {
            device,
            overhead_ns,
        } => extra = format!(",\"device\":{device},\"overhead_ns\":{overhead_ns}"),
        _ => {}
    }
    format!(
        "{{\"at_ns\":{},\"shard\":{},\"hop\":{},\"kind\":\"{}\"{extra}}}",
        e.at.0,
        e.shard,
        e.hop,
        e.kind.name()
    )
}

/// Render a flight report as an `hpdr-flight/v1` envelope document.
pub fn to_json(report: &FlightReport) -> String {
    let mut p = String::new();
    p.push('\n');
    p.push_str(&format!("  \"jobs\": {},\n", report.total_jobs));
    p.push_str(&format!("  \"sampled\": {},\n", report.sampled));
    p.push_str(&format!("  \"dropped\": {},\n", report.dropped));
    p.push_str(&format!("  \"sample_every\": {},\n", report.sample_every));
    p.push_str(&format!("  \"p99_ns\": {},\n", report.p99));
    for (key, rows) in [
        ("blame_by_tenant", &report.blame_tenant),
        ("blame_by_shard", &report.blame_shard),
    ] {
        if rows.is_empty() {
            p.push_str(&format!("  \"{key}\": [],\n"));
        } else {
            p.push_str(&format!("  \"{key}\": [\n"));
            for (i, b) in rows.iter().enumerate() {
                let comma = if i + 1 < rows.len() { "," } else { "" };
                p.push_str(&format!("    {}{comma}\n", blame_json(b)));
            }
            p.push_str("  ],\n");
        }
    }
    if report.rows.is_empty() {
        p.push_str("  \"jobs_table\": [],\n");
    } else {
        p.push_str("  \"jobs_table\": [\n");
        for (i, r) in report.rows.iter().enumerate() {
            let comma = if i + 1 < report.rows.len() { "," } else { "" };
            p.push_str(&format!(
                "    {{\"trace\":{},\"tenant\":{},\"shard\":{},\"hops\":{},\"outcome\":\"{}\",\
                 \"latency_ns\":{},\"queue_ns\":{},\"placement_ns\":{},\"transfer_ns\":{},\
                 \"batch_ns\":{},\"service_ns\":{},\"retry_ns\":{},\"sampled\":{},\"why\":\"{}\"}}{comma}\n",
                r.trace,
                r.tenant,
                r.shard,
                r.hops,
                esc(r.outcome),
                r.latency,
                r.queue,
                r.placement,
                r.transfer,
                r.batch,
                r.service,
                r.retry,
                r.sampled,
                esc(r.why)
            ));
        }
        p.push_str("  ],\n");
    }
    if report.events.is_empty() {
        p.push_str("  \"events\": [],\n");
    } else {
        p.push_str("  \"events\": [\n");
        for (i, (trace, evs)) in report.events.iter().enumerate() {
            let comma = if i + 1 < report.events.len() { "," } else { "" };
            let body: Vec<String> = evs.iter().map(event_json).collect();
            p.push_str(&format!(
                "    {{\"trace\":{trace},\"events\":[{}]}}{comma}\n",
                body.join(",")
            ));
        }
        p.push_str("  ],\n");
    }
    match &report.blackbox {
        Some(b) => {
            let body: Vec<String> = b.log.events.iter().map(event_json).collect();
            p.push_str(&format!(
                "  \"blackbox\": {{\"shard\":{},\"dropped\":{},\"events\":[{}]}}\n",
                b.shard,
                b.log.dropped,
                body.join(",")
            ));
        }
        None => p.push_str("  \"blackbox\": null\n"),
    }
    wrap(FLIGHT_SCHEMA, report.ok(), &p)
}

/// One parsed `jobs_table` row (what `hpdr explain` renders).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRow {
    pub trace: u64,
    pub tenant: u32,
    pub shard: u32,
    pub hops: u32,
    pub outcome: String,
    pub latency_ns: u64,
    pub queue_ns: u64,
    pub placement_ns: u64,
    pub transfer_ns: u64,
    pub batch_ns: u64,
    pub service_ns: u64,
    pub retry_ns: u64,
    pub sampled: bool,
    pub why: String,
}

impl FlightRow {
    pub fn components_sum(&self) -> u64 {
        self.queue_ns
            + self.placement_ns
            + self.transfer_ns
            + self.batch_ns
            + self.service_ns
            + self.retry_ns
    }
}

/// The `hpdr-flight/v1` object of a parsed document: the document
/// itself, or the `flight` section a cluster report embeds.
fn flight_of(doc: &JsonValue) -> Result<&JsonValue, String> {
    [Some(doc), doc.get("flight")]
        .into_iter()
        .flatten()
        .find(|v| v.get("schema").and_then(JsonValue::as_str) == Some(FLIGHT_SCHEMA))
        .ok_or_else(|| "document carries no hpdr-flight/v1 section".to_string())
}

fn parse_row(v: &JsonValue, ctx: &str) -> Result<FlightRow, String> {
    let int = |key: &str| need_u64(v, key, ctx);
    Ok(FlightRow {
        trace: int("trace")?,
        tenant: int("tenant")? as u32,
        shard: int("shard")? as u32,
        hops: int("hops")? as u32,
        outcome: need_str(v, "outcome", ctx)?.to_string(),
        latency_ns: int("latency_ns")?,
        queue_ns: int("queue_ns")?,
        placement_ns: int("placement_ns")?,
        transfer_ns: int("transfer_ns")?,
        batch_ns: int("batch_ns")?,
        service_ns: int("service_ns")?,
        retry_ns: int("retry_ns")?,
        sampled: need_bool(v, "sampled", ctx)?,
        why: need_str(v, "why", ctx)?.to_string(),
    })
}

fn rows_of(flight: &JsonValue) -> Result<Vec<FlightRow>, String> {
    need_arr(flight, "jobs_table", "flight")?
        .iter()
        .enumerate()
        .map(|(i, r)| parse_row(r, &format!("flight jobs_table[{i}]")))
        .collect()
}

/// Parse every `jobs_table` row of the flight report in `doc`, a
/// standalone report or a cluster report embedding one.
pub fn parse_flight_rows(doc: &str) -> Result<Vec<FlightRow>, String> {
    rows_of(flight_of(&parse_json(doc)?)?)
}

/// Walk a parsed `hpdr-flight/v1` object: envelope header, required
/// sections, and — the core invariant — every row's components sum
/// exactly to its end-to-end latency.
pub fn check_flight(flight: &JsonValue) -> Result<(), String> {
    let ctx = "flight";
    if !header(flight, FLIGHT_SCHEMA)? {
        return Err("flight report envelope is not ok".to_string());
    }
    for key in ["dropped", "sample_every", "p99_ns"] {
        need_u64(flight, key, ctx)?;
    }
    for key in ["blame_by_tenant", "blame_by_shard", "events"] {
        need_arr(flight, key, ctx)?;
    }
    need(flight, "blackbox", ctx)?;
    let rows = rows_of(flight)?;
    if rows.len() as u64 != need_u64(flight, "jobs", ctx)? {
        return Err("flight 'jobs' does not match the jobs_table row count".to_string());
    }
    let sampled = rows.iter().filter(|r| r.sampled).count() as u64;
    if sampled != need_u64(flight, "sampled", ctx)? {
        return Err("flight 'sampled' does not match the sampled row count".to_string());
    }
    for r in &rows {
        if r.components_sum() != r.latency_ns {
            return Err(format!(
                "trace {}: breakdown components sum to {} but latency is {}",
                r.trace,
                r.components_sum(),
                r.latency_ns
            ));
        }
    }
    Ok(())
}

/// Validate an `hpdr-flight/v1` document (standalone or embedded in a
/// cluster report) with [`check_flight`].
pub fn validate_flight_json(doc: &str) -> Result<(), String> {
    check_flight(flight_of(&parse_json(doc)?)?)
}

fn shard_label(shard: u32) -> String {
    if shard == u32::MAX {
        "-".to_string()
    } else {
        shard.to_string()
    }
}

fn push_row(lines: &mut Vec<String>, rank: Option<usize>, r: &FlightRow) {
    let head = rank.map_or(String::new(), |n| format!("#{n} "));
    lines.push(format!(
        "{head}trace {} tenant={} shard={} outcome={} hops={} latency={} ns",
        r.trace,
        r.tenant,
        shard_label(r.shard),
        r.outcome,
        r.hops,
        r.latency_ns
    ));
    let tag = if r.sampled {
        format!(" [sampled: {}]", r.why)
    } else {
        String::new()
    };
    lines.push(format!(
        "   queue={} placement={} transfer={} batch={} service={} retry={}{tag}",
        r.queue_ns, r.placement_ns, r.transfer_ns, r.batch_ns, r.service_ns, r.retry_ns
    ));
}

/// Append the sampled event stream of `trace` (when the report kept
/// it) as indented timeline lines.
fn push_events(lines: &mut Vec<String>, flight: &JsonValue, trace: u64) -> Result<(), String> {
    let streams = need_arr(flight, "events", "flight")?;
    let Some(stream) = streams
        .iter()
        .find(|s| s.get("trace").and_then(JsonValue::as_u64) == Some(trace))
    else {
        return Ok(()); // not sampled: no stream kept
    };
    let ctx = format!("flight events of trace {trace}");
    for e in need_arr(stream, "events", &ctx)? {
        lines.push(format!(
            "   @{} shard={} hop={} {}",
            need_u64(e, "at_ns", &ctx)?,
            shard_label(need_u64(e, "shard", &ctx)? as u32),
            need_u64(e, "hop", &ctx)?,
            need_str(e, "kind", &ctx)?
        ));
    }
    Ok(())
}

/// Render `hpdr explain` output for a report document: the header, then
/// either one job's breakdown (with its event timeline when sampled) or
/// the true worst-`worst` jobs by latency.
pub fn explain_lines(doc: &str, job: Option<u64>, worst: usize) -> Result<Vec<String>, String> {
    let parsed = parse_json(doc)?;
    let flight = flight_of(&parsed)?;
    let rows = rows_of(flight)?;
    let count = |key: &str| need_u64(flight, key, "flight");
    let mut lines = vec![format!(
        "flight report: {} jobs, {} sampled, p99 {} ns, {} events dropped",
        count("jobs")?,
        count("sampled")?,
        count("p99_ns")?,
        count("dropped")?
    )];
    match job {
        Some(id) => {
            let row = rows
                .iter()
                .find(|r| r.trace == id)
                .ok_or_else(|| format!("no job with trace id {id} in the flight report"))?;
            push_row(&mut lines, None, row);
            push_events(&mut lines, flight, id)?;
        }
        None => {
            let mut ranked: Vec<&FlightRow> = rows.iter().collect();
            ranked.sort_by_key(|r| (std::cmp::Reverse(r.latency_ns), r.trace));
            for (i, r) in ranked.iter().take(worst.max(1)).enumerate() {
                push_row(&mut lines, Some(i + 1), r);
            }
        }
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze, Blackbox};
    use crate::record::{FlightConfig, FlightLog, JobEvent, JobEventKind};
    use hpdr_sim::Ns;

    fn ev(at: u64, trace: u64, hop: u32, shard: u32, kind: JobEventKind) -> JobEvent {
        JobEvent {
            at: Ns(at),
            trace,
            hop,
            shard,
            tenant: (trace % 3) as u32,
            kind,
        }
    }

    fn sample_log() -> FlightLog {
        let mut log = FlightLog::default();
        for t in 1..=6u64 {
            log.events.push(ev(t * 10, t, 0, 0, JobEventKind::Submit));
            log.events.push(ev(t * 10, t, 0, 0, JobEventKind::Admit));
            log.events.push(ev(
                t * 10 + 40,
                t,
                0,
                0,
                JobEventKind::Dispatch {
                    device: 0,
                    overhead_ns: 5,
                },
            ));
            log.events
                .push(ev(t * 10 + 100 * t, t, 0, 0, JobEventKind::Complete));
        }
        log.events.push(ev(5, 9, 0, 1, JobEventKind::Submit));
        log.events
            .push(ev(9, 9, 1, 1, JobEventKind::Reroute { attempt: 1 }));
        log.events.push(ev(9, 9, 1, 1, JobEventKind::Admit));
        log.events.push(ev(600, 9, 1, 1, JobEventKind::TimedOut));
        log
    }

    fn sample_report() -> crate::analyze::FlightReport {
        analyze(
            &sample_log(),
            &FlightConfig::default(),
            Some(Blackbox {
                shard: 1,
                log: FlightLog {
                    events: vec![ev(5, 9, 0, 1, JobEventKind::Submit)],
                    dropped: 3,
                },
            }),
        )
    }

    #[test]
    fn roundtrip_serializes_validates_and_parses() {
        let report = sample_report();
        let doc = to_json(&report);
        assert!(header(&parse_json(&doc).unwrap(), FLIGHT_SCHEMA).unwrap());
        validate_flight_json(&doc).unwrap();
        let rows = parse_flight_rows(&doc).unwrap();
        assert_eq!(rows.len(), report.rows.len());
        for (parsed, row) in rows.iter().zip(&report.rows) {
            assert_eq!(parsed.trace, row.trace);
            assert_eq!(parsed.latency_ns, row.latency);
            assert_eq!(parsed.components_sum(), parsed.latency_ns);
        }
        assert!(doc.contains("\"blackbox\": {\"shard\":1,\"dropped\":3"));
        // Determinism: serialization is a pure function of the report.
        assert_eq!(doc, to_json(&sample_report()));
    }

    #[test]
    fn validator_rejects_damaged_documents() {
        let doc = to_json(&sample_report());
        // Break the additive invariant on one row.
        let rows = parse_flight_rows(&doc).unwrap();
        let lat = rows.iter().find(|r| r.trace == 9).unwrap().latency_ns;
        let bad = doc.replace(
            &format!("\"latency_ns\":{lat}"),
            &format!("\"latency_ns\":{}", lat + 1),
        );
        let err = validate_flight_json(&bad).unwrap_err();
        assert!(err.contains("components sum"), "{err}");
        // Miscounted jobs field.
        let bad = doc.replace("\"jobs\": 7,", "\"jobs\": 6,");
        assert!(validate_flight_json(&bad)
            .unwrap_err()
            .contains("row count"));
        // Wrong schema entirely.
        assert!(validate_flight_json("{\"schema\":\"hpdr-serve/v1\",\"ok\":true}").is_err());
    }

    #[test]
    fn parser_survives_cluster_style_embedding() {
        let doc = to_json(&sample_report());
        // A cluster report re-indents the embedded document and nests it
        // under a "flight" key; the readers must not care.
        let embedded = format!(
            "{{\"schema\":\"hpdr-shard/v1\",\"ok\":true,\n  \"flight\": {}\n}}",
            doc.trim_end().replace('\n', "\n      ")
        );
        validate_flight_json(&embedded).unwrap();
        assert_eq!(
            parse_flight_rows(&embedded).unwrap(),
            parse_flight_rows(&doc).unwrap()
        );
    }

    #[test]
    fn explain_worst_ranks_true_top_latencies() {
        let doc = to_json(&sample_report());
        let lines = explain_lines(&doc, None, 3).unwrap();
        assert!(lines[0].starts_with("flight report: 7 jobs"));
        // Latencies: trace6=640, trace9=595, trace5=540, …
        assert!(lines[1].starts_with("#1 trace 6 "), "{}", lines[1]);
        assert!(lines[3].starts_with("#2 trace 9 "), "{}", lines[3]);
        assert!(lines[5].starts_with("#3 trace 5 "), "{}", lines[5]);
        assert_eq!(lines.len(), 7);
    }

    #[test]
    fn explain_job_prints_breakdown_and_timeline() {
        let doc = to_json(&sample_report());
        let lines = explain_lines(&doc, Some(9), 0).unwrap();
        assert!(lines[1].contains("outcome=timed_out"));
        assert!(lines[1].contains("hops=1"));
        // Trace 9 is sampled (failure), so its timeline is present.
        assert!(lines.iter().any(|l| l.contains("@9 shard=1 hop=1 reroute")));
        assert!(explain_lines(&doc, Some(12345), 0).is_err());
    }
}
