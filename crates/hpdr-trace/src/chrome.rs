//! Chrome-trace (Perfetto-loadable) JSON export.
//!
//! The emitted file is a JSON array of trace events in the Trace Event
//! Format: `M` (metadata) events naming processes and threads first,
//! then one `X` (complete) event per span, sorted by start time. The
//! mapping follows the issue's convention:
//!
//! * **pid = device**: device *d* gets pid *d*+1 (named `device<d>`);
//!   shared runtimes get pid 9000+*r* (`runtime<r>`), the host pid 9999;
//! * **tid = engine**: within a device pid, tid 1 = H2D, 2 = D2H,
//!   3 = compute, 4 = staging; runtime/host pids use tid 1.
//!
//! Timestamps and durations are microseconds (the format's unit) with
//! nanosecond precision kept in three decimals. Load the file at
//! <https://ui.perfetto.dev> or `chrome://tracing`.

use crate::metrics::engine_name;
use hpdr_sim::json::{esc, need, need_f64, need_str, need_u64, parse_json};
use hpdr_sim::{Engine, Trace};
use std::fmt::Write as _;

/// pid for an engine's process row.
fn pid_of(e: Engine) -> u64 {
    match e {
        Engine::H2D(d) | Engine::D2H(d) | Engine::Compute(d) | Engine::Staging(d) => d.0 as u64 + 1,
        Engine::Runtime(r) => 9000 + r.0 as u64,
        Engine::Host => 9999,
    }
}

/// tid within the engine's process row.
fn tid_of(e: Engine) -> u64 {
    match e {
        Engine::H2D(_) => 1,
        Engine::D2H(_) => 2,
        Engine::Compute(_) => 3,
        Engine::Staging(_) => 4,
        Engine::Runtime(_) | Engine::Host => 1,
    }
}

fn process_name(e: Engine) -> String {
    match e {
        Engine::H2D(d) | Engine::D2H(d) | Engine::Compute(d) | Engine::Staging(d) => {
            format!("device{}", d.0)
        }
        Engine::Runtime(r) => format!("runtime{}", r.0),
        Engine::Host => "host".to_string(),
    }
}

fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Render a trace as Chrome-trace JSON, one event per line.
pub fn to_chrome_trace(trace: &Trace) -> String {
    // Deterministic (pid, tid) rows: engines in first-appearance order,
    // then sorted by their ids.
    let mut rows: Vec<Engine> = Vec::new();
    for s in trace.spans() {
        if !rows.contains(&s.engine) {
            rows.push(s.engine);
        }
    }
    rows.sort_by_key(|&e| (pid_of(e), tid_of(e)));

    let mut lines: Vec<String> = Vec::new();
    let mut named_pids: Vec<u64> = Vec::new();
    for &e in &rows {
        let pid = pid_of(e);
        if !named_pids.contains(&pid) {
            named_pids.push(pid);
            lines.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
                process_name(e)
            ));
        }
        lines.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            tid_of(e),
            engine_name(e)
        ));
    }

    // X events sorted by (ts, pid, tid, op) so timestamps are monotone.
    let mut order: Vec<usize> = (0..trace.len()).collect();
    order.sort_by_key(|&i| {
        let s = &trace.spans()[i];
        (s.start, pid_of(s.engine), tid_of(s.engine), s.op)
    });
    for i in order {
        let s = &trace.spans()[i];
        let mut args = format!(
            "\"op\":{},\"bytes\":{},\"footprint\":{}",
            s.op, s.bytes, s.footprint_bytes
        );
        if let Some(q) = s.queue {
            let _ = write!(args, ",\"queue\":{q}");
        }
        if let Some(c) = s.class {
            let _ = write!(args, ",\"class\":\"{c:?}\"");
        }
        lines.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
            esc(&s.label),
            pid_of(s.engine),
            tid_of(s.engine),
            us(s.start.0),
            us(s.duration().0),
        ));
    }

    let mut out = String::from("[\n");
    for (i, line) in lines.iter().enumerate() {
        out.push_str(line);
        if i + 1 < lines.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// What [`validate_chrome_trace`] found in a well-formed file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    pub metadata_events: usize,
    pub complete_events: usize,
    /// Distinct pids of complete events, ascending.
    pub pids: Vec<u64>,
}

/// Validator for the schema emitted by [`to_chrome_trace`], a typed walk
/// over the parsed document:
///
/// * the document is a JSON array of event objects;
/// * every event has a string `name` and `ph`, integer `pid` ≥ 1 and
///   `tid`, and an `args` object;
/// * all metadata (`M`) events precede all complete (`X`) events;
/// * every `X` event has numeric `ts` ≥ 0 and `dur` ≥ 0;
/// * `X` timestamps are monotone non-decreasing in array order.
pub fn validate_chrome_trace(json: &str) -> Result<ChromeTraceSummary, String> {
    let doc = parse_json(json)?;
    let events = doc.as_arr().ok_or("trace must be a JSON array of events")?;
    let mut summary = ChromeTraceSummary {
        metadata_events: 0,
        complete_events: 0,
        pids: Vec::new(),
    };
    let mut seen_complete = false;
    let mut last_ts = -1.0f64;
    for (i, e) in events.iter().enumerate() {
        let ctx = format!("event {i}");
        need_str(e, "name", &ctx)?;
        need(e, "args", &ctx)?
            .as_obj()
            .ok_or_else(|| format!("{ctx}: 'args' is not an object"))?;
        let pid = need_u64(e, "pid", &ctx)?;
        need_u64(e, "tid", &ctx)?;
        if pid < 1 {
            return Err(format!("{ctx}: pid must be positive"));
        }
        match need_str(e, "ph", &ctx)? {
            "M" => {
                if seen_complete {
                    return Err(format!("{ctx}: metadata after complete events"));
                }
                summary.metadata_events += 1;
            }
            "X" => {
                seen_complete = true;
                let ts = need_f64(e, "ts", &ctx)?;
                let dur = need_f64(e, "dur", &ctx)?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("{ctx}: negative ts/dur"));
                }
                if ts < last_ts {
                    return Err(format!("{ctx}: timestamps not monotone ({ts} < {last_ts})"));
                }
                last_ts = ts;
                summary.complete_events += 1;
                if !summary.pids.contains(&pid) {
                    summary.pids.push(pid);
                }
            }
            other => return Err(format!("{ctx}: unknown event phase '{other}'")),
        }
    }
    summary.pids.sort_unstable();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_sim::{DeviceId, KernelClass, Ns, OpKind, RuntimeId, SpanRecord};

    fn span(op: usize, engine: Engine, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            op,
            label: format!("op \"{op}\""), // embedded quotes exercise escaping
            engine,
            queue: Some(op % 2),
            deps: vec![],
            kind: OpKind::Fixed,
            class: matches!(engine, Engine::Compute(_)).then_some(KernelClass::Mgard),
            start: Ns(start),
            end: Ns(end),
            bytes: 123,
            footprint_bytes: 456,
            ready: Ns(start),
            wall_start: Ns::ZERO,
            wall: Ns::ZERO,
        }
    }

    fn sample() -> Trace {
        Trace::from_spans(vec![
            span(0, Engine::H2D(DeviceId(0)), 0, 1500),
            span(1, Engine::Compute(DeviceId(0)), 1500, 4000),
            span(2, Engine::Runtime(RuntimeId(0)), 200, 400),
            span(3, Engine::Host, 0, 100),
        ])
    }

    #[test]
    fn export_validates() {
        let json = to_chrome_trace(&sample());
        let summary = validate_chrome_trace(&json).expect("valid");
        assert_eq!(summary.complete_events, 4);
        // device0=1, runtime0=9000, host=9999
        assert_eq!(summary.pids, vec![1, 9000, 9999]);
        // 3 process_name + 4 thread_name rows
        assert_eq!(summary.metadata_events, 7);
    }

    #[test]
    fn timestamps_are_microseconds() {
        let json = to_chrome_trace(&sample());
        // 1500 ns = 1.500 us
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"dur\":2.500"), "{json}");
    }

    #[test]
    fn pid_is_device_tid_is_engine() {
        let json = to_chrome_trace(&sample());
        assert!(json.contains("\"pid\":1,\"tid\":1,\"ts\":0.000")); // h2d
        assert!(json.contains("\"pid\":1,\"tid\":3")); // compute
        assert!(json.contains("\"name\":\"device0\""));
        assert!(json.contains("\"name\":\"dev0.compute\""));
    }

    #[test]
    fn validator_rejects_broken_traces() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("[\n]").is_ok());
        let out_of_order = "[\n{\"name\":\"a\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":5.0,\"dur\":1.0,\"args\":{}},\n{\"name\":\"b\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1.0,\"dur\":1.0,\"args\":{}}\n]";
        assert!(validate_chrome_trace(out_of_order)
            .unwrap_err()
            .contains("monotone"));
        let meta_late = "[\n{\"name\":\"a\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1.0,\"dur\":1.0,\"args\":{}},\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"p\"}}\n]";
        assert!(validate_chrome_trace(meta_late)
            .unwrap_err()
            .contains("metadata after"));
    }
}
