//! # hpdr-verify — schedule linting over the op-DAG
//!
//! [`hpdr_sim::verify`] proves the *generic* safety properties of a
//! submitted DAG (no races, no use-after-free, no deadlock). This crate
//! layers the *HPDR-specific* schedule lints on top: each lint checks
//! that a pipeline DAG actually realizes one of the paper's Fig. 9
//! optimizations it claims to be running with.
//!
//! * [`TWO_BUFFER_LIVENESS`] — with `two_buffers` on, at most two buffer
//!   sets may be live per device, which holds iff every `H2D[k]` is
//!   ordered after the drain (`S[k-2]` / `D2Hout[k-2]`) of the set it
//!   reuses — the dotted anti-dependency arrows of Fig. 9.
//! * [`DESER_FIRST_ORDER`] — with the red-arrow launch-order swap on,
//!   `Deser[k]` must be *submitted* before `D2Hout[k-1]`: both occupy the
//!   D2H engine, and engines execute in submission order, so submission
//!   order is the optimization.
//! * [`CMM_NO_PERCALL_ALLOC`] — with the Context Memory Model on, the
//!   steady-state DAG must contain no runtime allocator ops at all
//!   (per-call alloc/free traffic is exactly what the CMM removes,
//!   paper §IV).
//!
//! [`check`] bundles the hazard analysis and the lints into one
//! [`ScheduleReport`] with human-readable and JSON renderings — the
//! engine behind `hpdr verify`.

pub mod envelope;

use hpdr_sim::verify::{analyze, Dag, OpKind, Reachability, VerifyReport};

/// Which pipeline direction a DAG implements (lints differ per side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Compress,
    Decompress,
}

/// The schedule options the DAG claims to realize. Mirrors the pipeline's
/// `PipelineOptions` without depending on it (this crate sits below the
/// pipeline in the dependency order).
#[derive(Debug, Clone, Copy)]
pub struct LintConfig {
    pub direction: Direction,
    pub two_buffers: bool,
    pub cmm: bool,
    pub deser_first: bool,
    /// Fully serialized single-queue mode (the comparators' behaviour):
    /// buffer-reuse lints don't apply, program order covers everything.
    pub serial_queue: bool,
}

/// Lint names (stable identifiers for reports and tests).
pub const TWO_BUFFER_LIVENESS: &str = "two-buffer-liveness";
pub const DESER_FIRST_ORDER: &str = "deser-first-order";
pub const CMM_NO_PERCALL_ALLOC: &str = "cmm-no-percall-alloc";

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    pub lint: &'static str,
    pub message: String,
}

/// Parse `prefix[k]`-style op labels (e.g. `H2D[7]` with prefix `H2D`).
fn chunk_index(label: &str, prefix: &str) -> Option<usize> {
    let rest = label.strip_prefix(prefix)?;
    rest.strip_prefix('[')?.strip_suffix(']')?.parse().ok()
}

/// Per-device map from chunk number to op index for one label family.
fn index_by_chunk(
    dag: &Dag,
    prefix: &str,
) -> std::collections::HashMap<(Option<usize>, usize), usize> {
    let mut map = std::collections::HashMap::new();
    for (i, op) in dag.ops.iter().enumerate() {
        if let Some(k) = chunk_index(&op.label, prefix) {
            map.insert((op.engine.device().map(|d| d.0), k), i);
        }
    }
    map
}

/// Run every applicable lint over a DAG.
///
/// Lints need a well-formed happens-before relation; on structurally
/// broken DAGs (forward/dangling deps — which [`analyze`] reports) the
/// lints are skipped rather than guessing at an ordering.
pub fn lint(dag: &Dag, cfg: &LintConfig) -> Vec<LintFinding> {
    let mut findings = Vec::new();
    let Some(reach) = Reachability::compute(dag) else {
        return findings;
    };

    // two-buffer-liveness: H2D[k] must be ordered after the drain of the
    // buffer set it reuses (chunk k-2's S / D2Hout op on the same device).
    if cfg.two_buffers && !cfg.serial_queue {
        let h2d = index_by_chunk(dag, "H2D");
        let drain_label = match cfg.direction {
            Direction::Compress => "S",
            Direction::Decompress => "D2Hout",
        };
        let drain = index_by_chunk(dag, drain_label);
        let mut keys: Vec<_> = h2d.keys().copied().collect();
        keys.sort_unstable();
        for (dev, k) in keys {
            if k < 2 {
                continue;
            }
            let h = h2d[&(dev, k)];
            match drain.get(&(dev, k - 2)) {
                None => findings.push(LintFinding {
                    lint: TWO_BUFFER_LIVENESS,
                    message: format!(
                        "H2D[{k}] reuses chunk {}'s buffer set but no {drain_label}[{}] \
                         op exists to drain it",
                        k - 2,
                        k - 2
                    ),
                }),
                Some(&d) => {
                    if !reach.ordered(d, h) {
                        findings.push(LintFinding {
                            lint: TWO_BUFFER_LIVENESS,
                            message: format!(
                                "missing anti-dependency: H2D[{k}] (op #{h}) is not ordered \
                                 after {drain_label}[{}] (op #{d}) — three buffer sets can \
                                 be live despite two_buffers",
                                k - 2
                            ),
                        });
                    }
                }
            }
        }
    }

    // deser-first-order: with the red-arrow swap on, Deser[k] must be
    // submitted before D2Hout[k-1] (both ride the D2H engine, which
    // executes in submission order).
    if cfg.deser_first && cfg.direction == Direction::Decompress && !cfg.serial_queue {
        let deser = index_by_chunk(dag, "Deser");
        let out = index_by_chunk(dag, "D2Hout");
        let mut keys: Vec<_> = deser.keys().copied().collect();
        keys.sort_unstable();
        for (dev, k) in keys {
            if k == 0 {
                continue;
            }
            if let (Some(&ds), Some(&o)) = (deser.get(&(dev, k)), out.get(&(dev, k - 1))) {
                if ds > o {
                    findings.push(LintFinding {
                        lint: DESER_FIRST_ORDER,
                        message: format!(
                            "launch order not swapped: Deser[{k}] (op #{ds}) submitted after \
                             D2Hout[{}] (op #{o}), so the header read queues behind the \
                             full output copy on the D2H engine",
                            k - 1
                        ),
                    });
                }
            }
        }
    }

    // cmm-no-percall-alloc: with the CMM on, the DAG must carry no
    // runtime allocator traffic at all.
    if cfg.cmm {
        for (i, op) in dag.ops.iter().enumerate() {
            if matches!(op.kind, OpKind::Alloc | OpKind::Free) {
                findings.push(LintFinding {
                    lint: CMM_NO_PERCALL_ALLOC,
                    message: format!(
                        "per-call allocator traffic under CMM: op #{i} '{}' is a runtime \
                         {} op",
                        op.label,
                        if op.kind == OpKind::Alloc {
                            "alloc"
                        } else {
                            "free"
                        }
                    ),
                });
            }
        }
    }

    findings
}

/// Combined hazard analysis + schedule lints for one DAG.
#[derive(Debug)]
pub struct ScheduleReport {
    pub analysis: VerifyReport,
    pub lints: Vec<LintFinding>,
}

impl ScheduleReport {
    pub fn is_clean(&self) -> bool {
        self.analysis.is_clean() && self.lints.is_empty()
    }

    /// Human-readable rendering.
    pub fn describe(&self, dag: &Dag) -> String {
        let mut out = self.analysis.describe(dag);
        if self.lints.is_empty() {
            out.push_str("\nschedule lints: clean");
        } else {
            out.push_str(&format!(
                "\nschedule lints: {} finding(s)",
                self.lints.len()
            ));
            for f in &self.lints {
                out.push_str(&format!("\n  - [{}] {}", f.lint, f.message));
            }
        }
        out
    }

    /// Machine-readable JSON rendering.
    pub fn to_json(&self, dag: &Dag) -> String {
        let lints: Vec<String> = self
            .lints
            .iter()
            .map(|f| {
                format!(
                    "{{\"lint\":\"{}\",\"message\":\"{}\"}}",
                    f.lint,
                    hpdr_sim::json::esc(&f.message)
                )
            })
            .collect();
        format!(
            "{{\"analysis\":{},\"lints\":[{}]}}",
            self.analysis.to_json(dag),
            lints.join(",")
        )
    }
}

/// Run the hazard analyzer and the schedule lints over one DAG.
pub fn check(dag: &Dag, cfg: &LintConfig) -> ScheduleReport {
    ScheduleReport {
        analysis: analyze(dag),
        lints: lint(dag, cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_sim::verify::DagOp;
    use hpdr_sim::{DeviceId, Effects, Engine, RuntimeId};

    fn dev() -> DeviceId {
        DeviceId(0)
    }

    fn op(label: &str, engine: Engine, queue: usize, deps: Vec<usize>, kind: OpKind) -> DagOp {
        DagOp {
            label: label.into(),
            engine,
            queue: Some(queue),
            deps,
            effects: Effects::none(),
            kind,
        }
    }

    fn compress_cfg() -> LintConfig {
        LintConfig {
            direction: Direction::Compress,
            two_buffers: true,
            cmm: true,
            deser_first: true,
            serial_queue: false,
        }
    }

    /// Minimal 3-chunk compress skeleton: H2D/R/S per chunk on queues
    /// k % 3, with `anti` controlling the S(k) → H2D(k+2) arrow.
    fn compress_skeleton(anti: bool) -> Dag {
        let mut ops = Vec::new();
        let mut s_ops = Vec::new();
        for k in 0..3usize {
            let q = k % 3;
            let mut h2d_deps = Vec::new();
            if anti && k >= 2 {
                h2d_deps.push(s_ops[k - 2]);
            }
            let h2d = ops.len();
            ops.push(op(
                &format!("H2D[{k}]"),
                Engine::H2D(dev()),
                q,
                h2d_deps,
                OpKind::Transfer,
            ));
            let r = ops.len();
            ops.push(op(
                &format!("R[{k}]"),
                Engine::Compute(dev()),
                q,
                vec![h2d],
                OpKind::Kernel,
            ));
            let s = ops.len();
            ops.push(op(
                &format!("S[{k}]"),
                Engine::D2H(dev()),
                q,
                vec![r],
                OpKind::Transfer,
            ));
            s_ops.push(s);
        }
        Dag { ops }
    }

    #[test]
    fn two_buffer_lint_accepts_anti_deps() {
        let findings = lint(&compress_skeleton(true), &compress_cfg());
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn two_buffer_lint_flags_missing_anti_dep() {
        let findings = lint(&compress_skeleton(false), &compress_cfg());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, TWO_BUFFER_LIVENESS);
        assert!(findings[0].message.contains("H2D[2]"));
        assert!(findings[0].message.contains("S[0]"));
    }

    #[test]
    fn two_buffer_lint_skipped_when_three_buffers_or_serial() {
        let mut cfg = compress_cfg();
        cfg.two_buffers = false;
        assert!(lint(&compress_skeleton(false), &cfg).is_empty());
        let mut cfg = compress_cfg();
        cfg.serial_queue = true;
        assert!(lint(&compress_skeleton(false), &cfg).is_empty());
    }

    /// Two-chunk decompress D2H-engine tail: with `swapped`, Deser[1] is
    /// submitted before D2Hout[0] (the red-arrow order).
    fn decompress_skeleton(swapped: bool) -> Dag {
        // Chunk 0: H2D, Deser, Rec; then chunk 1's front half.
        let mut ops = vec![
            op("H2D[0]", Engine::H2D(dev()), 0, vec![], OpKind::Transfer),
            op("Deser[0]", Engine::D2H(dev()), 0, vec![0], OpKind::Transfer),
            op("Rec[0]", Engine::Compute(dev()), 0, vec![1], OpKind::Kernel),
            op("H2D[1]", Engine::H2D(dev()), 1, vec![], OpKind::Transfer),
        ];
        if swapped {
            ops.push(op(
                "Deser[1]",
                Engine::D2H(dev()),
                1,
                vec![3],
                OpKind::Transfer,
            ));
            ops.push(op(
                "D2Hout[0]",
                Engine::D2H(dev()),
                0,
                vec![2],
                OpKind::Transfer,
            ));
            ops.push(op(
                "Rec[1]",
                Engine::Compute(dev()),
                1,
                vec![4],
                OpKind::Kernel,
            ));
            ops.push(op(
                "D2Hout[1]",
                Engine::D2H(dev()),
                1,
                vec![6],
                OpKind::Transfer,
            ));
        } else {
            ops.push(op(
                "D2Hout[0]",
                Engine::D2H(dev()),
                0,
                vec![2],
                OpKind::Transfer,
            ));
            ops.push(op(
                "Deser[1]",
                Engine::D2H(dev()),
                1,
                vec![3],
                OpKind::Transfer,
            ));
            ops.push(op(
                "Rec[1]",
                Engine::Compute(dev()),
                1,
                vec![5],
                OpKind::Kernel,
            ));
            ops.push(op(
                "D2Hout[1]",
                Engine::D2H(dev()),
                1,
                vec![6],
                OpKind::Transfer,
            ));
        }
        Dag { ops }
    }

    fn decompress_cfg() -> LintConfig {
        LintConfig {
            direction: Direction::Decompress,
            two_buffers: false,
            cmm: true,
            deser_first: true,
            serial_queue: false,
        }
    }

    #[test]
    fn deser_first_lint_accepts_swapped_order() {
        assert!(lint(&decompress_skeleton(true), &decompress_cfg()).is_empty());
    }

    #[test]
    fn deser_first_lint_flags_unswapped_order() {
        let findings = lint(&decompress_skeleton(false), &decompress_cfg());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, DESER_FIRST_ORDER);
        assert!(findings[0].message.contains("Deser[1]"));
    }

    #[test]
    fn cmm_lint_flags_allocator_ops() {
        let dag = Dag {
            ops: vec![
                op(
                    "alloc[0.0]",
                    Engine::Runtime(RuntimeId(0)),
                    0,
                    vec![],
                    OpKind::Alloc,
                ),
                op("H2D[0]", Engine::H2D(dev()), 0, vec![0], OpKind::Transfer),
                op(
                    "free[0.0]",
                    Engine::Runtime(RuntimeId(0)),
                    0,
                    vec![1],
                    OpKind::Free,
                ),
            ],
        };
        let findings = lint(&dag, &compress_cfg());
        let cmm: Vec<_> = findings
            .iter()
            .filter(|f| f.lint == CMM_NO_PERCALL_ALLOC)
            .collect();
        assert_eq!(cmm.len(), 2);
        // With CMM declared off, the same DAG lints clean.
        let mut cfg = compress_cfg();
        cfg.cmm = false;
        assert!(lint(&dag, &cfg)
            .iter()
            .all(|f| f.lint != CMM_NO_PERCALL_ALLOC));
    }

    #[test]
    fn check_bundles_analysis_and_lints() {
        let dag = compress_skeleton(false);
        let report = check(&dag, &compress_cfg());
        // Skeleton has no effects, so the analysis is clean but the lint fires.
        assert!(report.analysis.is_clean());
        assert!(!report.is_clean());
        let text = report.describe(&dag);
        assert!(text.contains(TWO_BUFFER_LIVENESS));
        let json = report.to_json(&dag);
        assert!(json.contains("\"lints\":[{"));
        assert!(json.contains(TWO_BUFFER_LIVENESS));
    }

    #[test]
    fn clean_report_renders() {
        let dag = compress_skeleton(true);
        let report = check(&dag, &compress_cfg());
        assert!(report.is_clean());
        assert!(report.describe(&dag).contains("schedule lints: clean"));
    }
}
