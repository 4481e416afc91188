//! The `hpdr-audit/v1` report document.
//!
//! One [`ConfigAudit`] per audited (configuration, direction) pair,
//! bundling the effect-soundness diff and the schedule-space
//! exploration. [`AuditReport`] renders the whole sweep as text or as
//! the schema-validated JSON document `hpdr audit --json` emits, using
//! the same envelope ([`hpdr_verify::envelope`]) and exit discipline as
//! `hpdr verify`.

use crate::effects_audit::EffectFinding;
use crate::explore::ExploreReport;
use hpdr_metrics::{parse_json, JsonValue};
use hpdr_sim::json::{esc, need, need_arr, need_bool, need_str, need_u64};
use hpdr_verify::envelope::{self, SCHEMA_AUDIT};

/// Audit results for one pipeline configuration in one direction.
#[derive(Debug)]
pub struct ConfigAudit {
    /// Configuration name (e.g. `huffman/fixed two_buffers=1 cmm=1`).
    pub name: String,
    /// `"compress"` or `"decompress"`.
    pub direction: &'static str,
    /// Observed-vs-declared effect findings.
    pub effects: Vec<EffectFinding>,
    /// Interleaving exploration result.
    pub explore: ExploreReport,
}

impl ConfigAudit {
    /// Unsound findings: under-declared effects + interleaving violations.
    pub fn errors(&self) -> usize {
        self.effects.iter().filter(|f| f.issue.is_error()).count() + self.explore.violations.len()
    }

    /// Imprecise-but-sound findings (over-declared effects).
    pub fn warnings(&self) -> usize {
        self.effects.iter().filter(|f| !f.issue.is_error()).count()
    }

    fn to_json(&self) -> String {
        let effects: Vec<String> = self
            .effects
            .iter()
            .map(|f| {
                format!(
                    "{{\"op\":{},\"label\":\"{}\",\"buf\":{},\"issue\":\"{}\",\
                     \"severity\":\"{}\"}}",
                    f.op,
                    esc(&f.label),
                    f.buf.index(),
                    f.issue.tag(),
                    f.issue.severity()
                )
            })
            .collect();
        let violations: Vec<String> = self
            .explore
            .violations
            .iter()
            .map(|v| {
                let buf = match v.buf {
                    Some(b) => b.index().to_string(),
                    None => "null".to_string(),
                };
                let witness: Vec<String> = v.witness.iter().map(|i| i.to_string()).collect();
                format!(
                    "{{\"kind\":\"{}\",\"op\":{},\"label\":\"{}\",\"buf\":{buf},\
                     \"witness\":[{}]}}",
                    v.kind,
                    v.op,
                    esc(&v.label),
                    witness.join(",")
                )
            })
            .collect();
        // u128 schedule counts overflow JSON numbers: emit as string.
        let schedules = match self.explore.schedules {
            Some(c) => format!("\"{c}\""),
            None => "null".to_string(),
        };
        format!(
            "{{\"name\":\"{}\",\"direction\":\"{}\",\"effects\":[{}],\
             \"explore\":{{\"ops\":{},\"states\":{},\"exhaustive\":{},\
             \"schedules\":{schedules},\"max_live\":{},\"violations\":[{}]}}}}",
            esc(&self.name),
            self.direction,
            effects.join(","),
            self.explore.ops,
            self.explore.states,
            self.explore.exhaustive,
            self.explore.max_live,
            violations.join(",")
        )
    }
}

/// The full audit sweep.
#[derive(Debug, Default)]
pub struct AuditReport {
    pub configs: Vec<ConfigAudit>,
}

impl AuditReport {
    pub fn errors(&self) -> usize {
        self.configs.iter().map(ConfigAudit::errors).sum()
    }

    pub fn warnings(&self) -> usize {
        self.configs.iter().map(ConfigAudit::warnings).sum()
    }

    pub fn violations(&self) -> usize {
        self.configs
            .iter()
            .map(|c| c.explore.violations.len())
            .sum()
    }

    /// Sound = no under-declared effect and no interleaving violation.
    /// Warnings do not affect soundness.
    pub fn is_sound(&self) -> bool {
        self.errors() == 0
    }

    /// Human-readable rendering, one block per configuration.
    pub fn describe(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for c in &self.configs {
            let status = if c.errors() > 0 {
                "UNSOUND"
            } else if c.warnings() > 0 {
                "warn   "
            } else {
                "ok     "
            };
            let coverage = if c.explore.exhaustive {
                match c.explore.schedules {
                    Some(s) => format!("{s} schedule(s), exhaustive"),
                    None => "exhaustive".to_string(),
                }
            } else {
                format!("bounded at {} states, NOT exhaustive", c.explore.states)
            };
            lines.push(format!(
                "{status} {:<10} {}  ({} ops, {coverage})",
                c.direction, c.name, c.explore.ops
            ));
            for f in &c.effects {
                lines.push(format!("         {}", f.describe()));
            }
            for v in &c.explore.violations {
                lines.push(format!("         [error] {}", v.describe()));
            }
        }
        lines.push(format!(
            "{} configuration(s) audited: {} error(s), {} warning(s), {} interleaving violation(s)",
            self.configs.len(),
            self.errors(),
            self.warnings(),
            self.violations()
        ));
        lines
    }

    /// The `hpdr-audit/v1` JSON document.
    pub fn to_json(&self) -> String {
        let configs: Vec<String> = self.configs.iter().map(ConfigAudit::to_json).collect();
        let payload = format!(
            "\"summary\":{{\"configs\":{},\"errors\":{},\"warnings\":{},\
             \"violations\":{}}},\"configs\":[{}]",
            self.configs.len(),
            self.errors(),
            self.warnings(),
            self.violations(),
            configs.join(",")
        );
        envelope::wrap(SCHEMA_AUDIT, self.is_sound(), &payload)
    }
}

/// Validate an `hpdr-audit/v1` document against its schema.
///
/// Checks document structure, enumerated field values, and the
/// envelope/summary cross-invariants (`ok` must equal `errors == 0`,
/// summary tallies must match the per-config findings).
pub fn validate_audit_json(doc: &str) -> Result<(), String> {
    const ISSUES: [&str; 6] = [
        "undeclared-read",
        "undeclared-write",
        "undeclared-free",
        "unused-read",
        "unused-write",
        "unused-free",
    ];
    const VIOLATIONS: [&str; 5] = [
        "use-after-free",
        "double-free",
        "use-before-alloc",
        "two-buffer-liveness",
        "deser-first-order",
    ];
    let v = parse_json(doc)?;
    let ok = envelope::header(&v, SCHEMA_AUDIT)?;
    let summary = need(&v, "summary", "document")?;
    let sum_errors = need_u64(summary, "errors", "summary")?;
    let sum_warnings = need_u64(summary, "warnings", "summary")?;
    let sum_violations = need_u64(summary, "violations", "summary")?;
    let configs = need_arr(&v, "configs", "document")?;
    if need_u64(summary, "configs", "summary")? != configs.len() as u64 {
        return Err("summary: 'configs' count does not match the configs array".into());
    }

    let (mut errors, mut warnings, mut violations) = (0u64, 0u64, 0u64);
    for (i, c) in configs.iter().enumerate() {
        let ctx = format!("configs[{i}]");
        need_str(c, "name", &ctx)?;
        let dir = need_str(c, "direction", &ctx)?;
        if dir != "compress" && dir != "decompress" {
            return Err(format!("{ctx}: unknown direction '{dir}'"));
        }
        for (j, f) in need_arr(c, "effects", &ctx)?.iter().enumerate() {
            let fctx = format!("{ctx}.effects[{j}]");
            need_u64(f, "op", &fctx)?;
            need_str(f, "label", &fctx)?;
            need_u64(f, "buf", &fctx)?;
            let issue = need_str(f, "issue", &fctx)?;
            if !ISSUES.contains(&issue) {
                return Err(format!("{fctx}: unknown issue '{issue}'"));
            }
            match need_str(f, "severity", &fctx)? {
                "error" => errors += 1,
                "warning" => warnings += 1,
                other => return Err(format!("{fctx}: unknown severity '{other}'")),
            }
        }
        let explore = need(c, "explore", &ctx)?;
        let ectx = format!("{ctx}.explore");
        need_u64(explore, "ops", &ectx)?;
        need_u64(explore, "states", &ectx)?;
        need_u64(explore, "max_live", &ectx)?;
        let exhaustive = need_bool(explore, "exhaustive", &ectx)?;
        match need(explore, "schedules", &ectx)? {
            JsonValue::Str(s) => {
                if !exhaustive {
                    return Err(format!("{ectx}: bounded run must not report a count"));
                }
                s.parse::<u128>()
                    .map_err(|_| format!("{ectx}: 'schedules' is not a u128 string"))?;
            }
            JsonValue::Null => {
                if exhaustive {
                    return Err(format!("{ectx}: exhaustive run must report a count"));
                }
            }
            _ => return Err(format!("{ectx}: 'schedules' must be a string or null")),
        }
        for (j, viol) in need_arr(explore, "violations", &ectx)?.iter().enumerate() {
            let vctx = format!("{ectx}.violations[{j}]");
            let kind = need_str(viol, "kind", &vctx)?;
            if !VIOLATIONS.contains(&kind) {
                return Err(format!("{vctx}: unknown kind '{kind}'"));
            }
            need_u64(viol, "op", &vctx)?;
            need_str(viol, "label", &vctx)?;
            match need(viol, "buf", &vctx)? {
                JsonValue::Num(_) | JsonValue::Null => {}
                _ => return Err(format!("{vctx}: 'buf' must be a number or null")),
            }
            for w in need_arr(viol, "witness", &vctx)? {
                w.as_u64()
                    .ok_or_else(|| format!("{vctx}: witness entries must be op indices"))?;
            }
            errors += 1;
            violations += 1;
        }
    }
    if (sum_errors, sum_warnings, sum_violations) != (errors, warnings, violations) {
        return Err(format!(
            "summary tallies ({sum_errors}/{sum_warnings}/{sum_violations}) do not match \
             findings ({errors}/{warnings}/{violations})"
        ));
    }
    if ok != (errors == 0) {
        return Err("envelope: 'ok' contradicts the error count".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effects_audit::EffectIssue;
    use crate::explore::Violation;
    use hpdr_sim::BufId;

    fn clean_explore() -> ExploreReport {
        ExploreReport {
            ops: 4,
            states: 9,
            schedules: Some(6),
            exhaustive: true,
            max_live: 0,
            violations: Vec::new(),
        }
    }

    fn sample_report() -> AuditReport {
        AuditReport {
            configs: vec![
                ConfigAudit {
                    name: "huffman/fixed".into(),
                    direction: "compress",
                    effects: vec![],
                    explore: clean_explore(),
                },
                ConfigAudit {
                    name: "huffman/\"quoted\"".into(),
                    direction: "decompress",
                    effects: vec![
                        EffectFinding {
                            op: 3,
                            label: "R[0]".into(),
                            buf: BufId::from_index(7),
                            issue: EffectIssue::UndeclaredWrite,
                        },
                        EffectFinding {
                            op: 4,
                            label: "S[0]".into(),
                            buf: BufId::from_index(2),
                            issue: EffectIssue::UnusedRead,
                        },
                    ],
                    explore: ExploreReport {
                        ops: 5,
                        states: 12,
                        schedules: Some(2),
                        exhaustive: true,
                        max_live: 2,
                        violations: vec![Violation {
                            kind: "use-after-free",
                            op: 4,
                            label: "S[0]".into(),
                            buf: Some(BufId::from_index(2)),
                            witness: vec![0, 1, 3],
                        }],
                    },
                },
            ],
        }
    }

    #[test]
    fn json_roundtrips_through_validator() {
        let report = sample_report();
        assert!(!report.is_sound());
        assert_eq!(report.errors(), 2); // 1 undeclared write + 1 violation
        assert_eq!(report.warnings(), 1);
        let doc = report.to_json();
        validate_audit_json(&doc).unwrap();
        assert!(doc.starts_with("{\"schema\":\"hpdr-audit/v1\",\"ok\":false,"));
        assert!(doc.contains("\"witness\":[0,1,3]"));
        assert!(doc.contains("\\\"quoted\\\""));
    }

    #[test]
    fn clean_report_is_sound() {
        let report = AuditReport {
            configs: vec![ConfigAudit {
                name: "x".into(),
                direction: "compress",
                effects: vec![],
                explore: clean_explore(),
            }],
        };
        assert!(report.is_sound());
        let doc = report.to_json();
        validate_audit_json(&doc).unwrap();
        assert!(envelope::header(&parse_json(&doc).unwrap(), SCHEMA_AUDIT).unwrap());
    }

    #[test]
    fn bounded_run_renders_null_schedules() {
        let report = AuditReport {
            configs: vec![ConfigAudit {
                name: "big".into(),
                direction: "compress",
                effects: vec![],
                explore: ExploreReport {
                    ops: 64,
                    states: 1000,
                    schedules: None,
                    exhaustive: false,
                    max_live: 0,
                    violations: Vec::new(),
                },
            }],
        };
        let doc = report.to_json();
        assert!(doc.contains("\"schedules\":null"));
        validate_audit_json(&doc).unwrap();
        let text = report.describe().join("\n");
        assert!(text.contains("NOT exhaustive"));
    }

    #[test]
    fn validator_rejects_drift() {
        let doc = sample_report().to_json();
        // Flip the envelope verdict: cross-invariant must catch it.
        let lying = doc.replacen("\"ok\":false", "\"ok\":true", 1);
        assert!(validate_audit_json(&lying).is_err());
        // Corrupt the summary tally.
        let lying = doc.replacen("\"errors\":2", "\"errors\":0", 1);
        assert!(validate_audit_json(&lying).is_err());
        // Unknown issue tag.
        let lying = doc.replacen("undeclared-write", "undeclared-banana", 1);
        assert!(validate_audit_json(&lying).is_err());
        // Not even JSON.
        assert!(validate_audit_json("{").is_err());
        // Wrong schema family.
        assert!(validate_audit_json("{\"schema\":\"hpdr-verify/v1\",\"ok\":true}").is_err());
    }

    #[test]
    fn describe_summarizes_counts() {
        let text = sample_report().describe().join("\n");
        assert!(text.contains("UNSOUND"));
        assert!(text.contains("2 error(s), 1 warning(s), 1 interleaving violation(s)"));
        assert!(text.contains("use-after-free"));
    }
}
