//! `hpdr slo` report rendering: per-tenant SLO attainment and the
//! burn-rate alert timeline, read back out of a saved JSON document.
//!
//! Accepts any of the three report schemas that can carry a metrics
//! registry — a bare `hpdr-metrics/v1` document, an `hpdr-serve/v1`
//! report (registry under `"metrics"`), or an `hpdr-loadgen/v1` report
//! (registry under `"serve"."metrics"`) — so `hpdr slo --report` works
//! on whatever file a metered run left behind.

use hpdr_sim::json::{need_f64, parse_json, JsonValue};

/// Locate the embedded metrics registry object in a parsed report.
fn find_metrics(doc: &JsonValue) -> Result<&JsonValue, String> {
    if doc.get("schema").and_then(JsonValue::as_str) == Some(hpdr_metrics::METRICS_SCHEMA) {
        return Ok(doc);
    }
    if let Some(m) = doc.get("metrics") {
        return Ok(m);
    }
    if let Some(m) = doc.get("serve").and_then(|s| s.get("metrics")) {
        return Ok(m);
    }
    Err("document carries no metrics registry (re-run with --metrics)".to_string())
}

fn num(v: &JsonValue, key: &str) -> Result<f64, String> {
    need_f64(v, key, "slo section")
}

/// Render the SLO section of a report: objectives, per-tenant
/// attainment, the alert timeline, and each tenant's burn-rate series
/// tail. Returns the lines plus the total number of alerts that fired.
pub fn render_slo_report(doc: &str) -> Result<(Vec<String>, u64), String> {
    let parsed = parse_json(doc)?;
    let metrics = find_metrics(&parsed)?;
    let slo = metrics
        .get("slo")
        .ok_or("metrics registry has no SLO tracker (enable MetricsConfig::slo)")?;

    let target_ns = num(slo, "latency_target_ns")?;
    let goal = num(slo, "goal")?;
    let window_ns = num(slo, "window_ns")?;
    let threshold = num(slo, "burn_threshold")?;
    let mut lines = vec![format!(
        "slo: latency target {:.3} ms, goal {:.1}% good, burn window {:.0} ms, alert at {:.2}x",
        target_ns / 1e6,
        goal * 100.0,
        window_ns / 1e6,
        threshold
    )];

    let rows = slo
        .get("attainment")
        .and_then(JsonValue::as_arr)
        .ok_or("slo section has no attainment array")?;
    lines.push(format!(
        "  {:<8} {:>10} {:>10} {:>12} {:>8}",
        "tenant", "good", "total", "attainment", "alerts"
    ));
    let mut total_alerts = 0u64;
    for row in rows {
        let tenant = num(row, "tenant")? as u32;
        let alerts = num(row, "alerts")? as u64;
        let attainment = num(row, "attainment")?;
        let met = if attainment >= goal {
            ""
        } else {
            "  << below goal"
        };
        lines.push(format!(
            "  t{tenant:<7} {:>10} {:>10} {:>11.2}% {alerts:>8}{met}",
            num(row, "good")? as u64,
            num(row, "total")? as u64,
            attainment * 100.0,
        ));
        total_alerts += alerts;
    }

    let alerts = slo
        .get("alerts")
        .and_then(JsonValue::as_arr)
        .ok_or("slo section has no alerts array")?;
    if alerts.is_empty() {
        lines.push("  no burn-rate alerts fired".to_string());
    } else {
        lines.push(format!("  {} burn-rate alert(s):", alerts.len()));
        for a in alerts {
            lines.push(format!(
                "    t{} at {:.3} ms virtual — burn {:.2}x budget",
                num(a, "tenant")? as u32,
                num(a, "at_ns")? / 1e6,
                num(a, "burn")?
            ));
        }
    }

    // Burn-rate timeline: tail of each tenant's scraped gauge series.
    if let Some(series) = metrics.get("series").and_then(JsonValue::as_obj) {
        for (name, ring) in series {
            if !name.starts_with("slo_burn_rate{") {
                continue;
            }
            let Some(points) = ring.as_arr() else {
                continue;
            };
            let tail: Vec<String> = points
                .iter()
                .rev()
                .take(8)
                .rev()
                .filter_map(|p| p.as_arr())
                .filter_map(|p| Some(format!("{:.2}", p.get(1)?.as_f64()?)))
                .collect();
            lines.push(format!("  {name:<28} burn tail: {}", tail.join(" ")));
        }
    }
    Ok((lines, total_alerts))
}

#[cfg(test)]
mod tests {
    use super::*;

    const METRICS_DOC: &str = r#"{
      "schema": "hpdr-metrics/v1",
      "scrape_interval_ns": 25000000,
      "scrapes": 2,
      "last_scrape_ns": 50000000,
      "counters": {},
      "gauges": {"slo_burn_rate{tenant=\"0\"}": 2.500000},
      "histograms": {},
      "series": {"slo_burn_rate{tenant=\"0\"}": [[25000000,0.0],[50000000,2.5]]},
      "slo": {
        "latency_target_ns": 10000000,
        "goal": 0.900000,
        "window_ns": 200000000,
        "burn_threshold": 2.000000,
        "attainment": [{"tenant":0,"good":3,"total":4,"attainment":0.750000,"alerts":1}],
        "alerts": [{"tenant":0,"at_ns":50000000,"burn":2.500000}]
      }
    }"#;

    #[test]
    fn renders_bare_metrics_document() {
        let (lines, alerts) = render_slo_report(METRICS_DOC).unwrap();
        assert_eq!(alerts, 1);
        let text = lines.join("\n");
        assert!(text.contains("latency target 10.000 ms"), "{text}");
        assert!(text.contains("below goal"), "{text}");
        assert!(text.contains("burn 2.50x budget"), "{text}");
        assert!(text.contains("burn tail: 0.00 2.50"), "{text}");
    }

    #[test]
    fn finds_registry_nested_in_loadgen_shape() {
        let nested = format!(
            "{{\"schema\":\"hpdr-loadgen/v1\",\"serve\":{{\"metrics\":{}}}}}",
            METRICS_DOC
        );
        let (_, alerts) = render_slo_report(&nested).unwrap();
        assert_eq!(alerts, 1);
    }

    #[test]
    fn missing_registry_and_missing_slo_are_errors() {
        let e = render_slo_report("{\"schema\":\"hpdr-serve/v1\"}").unwrap_err();
        assert!(e.contains("--metrics"), "{e}");
        let e = render_slo_report("{\"schema\":\"hpdr-metrics/v1\",\"series\":{}}").unwrap_err();
        assert!(e.contains("SLO tracker"), "{e}");
    }
}
