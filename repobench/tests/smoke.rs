//! The benchmark's own tests, at smoke-test sizes.

use repobench::report::{validate, validate_contract, Tally, END_TO_END, PER_LAYER};
use repobench::{fields, parse_args, run, Args, Size, WORKLOADS};
use std::path::PathBuf;

fn args(workload: &str, seed: u64, trace: bool) -> Args {
    Args {
        workload: workload.to_string(),
        seed,
        seconds: 0.01,
        trace,
        out: PathBuf::from("unused"),
    }
}

#[test]
fn every_workload_runs_clean_at_two_seeds_both_modes() {
    for w in WORKLOADS {
        for (seed, trace) in [(7, false), (8, false), (7, true)] {
            let r = run(&args(w, seed, trace), Size::Tiny);
            assert!(
                r.correct(),
                "{w} seed {seed} trace {trace}: {:?} {:?}",
                r.tally.failures,
                r.integrity
            );
            assert!(r.missing().is_empty(), "{w}: missing {:?}", r.missing());
            validate(&r.to_json()).unwrap_or_else(|e| panic!("{w}: {e}"));
            validate_contract(&r.contract_line(), trace).unwrap_or_else(|e| panic!("{w}: {e}"));
            assert_eq!(r.tally.failed_frac(), 0.0);
            if trace {
                let pct = r
                    .metric("trace.unattributed_pct")
                    .expect("reported")
                    .summary
                    .median;
                assert!(
                    pct <= 100.0 * repobench::layers::ADDUP_TOLERANCE,
                    "{w}: {pct}%"
                );
            }
        }
    }
}

/// Parts add up to the whole: in the span dump, every parent's children
/// fit inside it, and MGARD's stages cover it within the tolerance.
#[test]
fn traced_spans_add_up_to_their_parents() {
    let r = run(&args("nyx-mgard", 7, true), Size::Tiny);
    let spans =
        hpdr_metrics::parse_json(r.spans.as_deref().expect("traced run dumps spans")).unwrap();
    let spans = spans.as_arr().unwrap();
    let num = |s: &hpdr_metrics::JsonValue, k: &str| s.get(k).and_then(|v| v.as_f64()).unwrap();
    let mut children = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.get("parent").and_then(|v| v.as_u64()) {
            let (start, end) = (num(s, "start_ns"), num(s, "end_ns"));
            let parent = &spans[p as usize];
            assert!(num(parent, "start_ns") <= start && end <= num(parent, "end_ns"));
            children[p as usize] += end - start;
        }
    }
    let mut staged = 0;
    for (i, s) in spans.iter().enumerate() {
        let dur = num(s, "end_ns") - num(s, "start_ns");
        assert!(children[i] <= dur, "children exceed span {i}");
        let name = s.get("name").and_then(|v| v.as_str()).unwrap();
        if name == "mgard.compress" || name == "mgard.decompress" {
            staged += 1;
            assert!(children[i] >= (1.0 - repobench::layers::ADDUP_TOLERANCE) * dur - 1e3);
        }
    }
    assert!(staged > 0);
    let m = |n: &str| r.metric(n).unwrap().summary.median;
    // The pipeline split is the difference of its two measured parts.
    let whole = m("pipeline.compress_ms") + m("pipeline.decompress_ms");
    let parts = m("reducer.compress_ms") + m("reducer.decompress_ms") + m("pipeline.overhead_ms");
    assert!(
        (whole - parts).abs() <= 1e-6 * whole.max(1.0),
        "{whole} vs {parts}"
    );
}

#[test]
fn forced_bound_violation_raises_failed_frac() {
    let mut wl = fields::setup("nyx-mgard", 7, Size::Tiny);
    let mut clean = Tally::default();
    fields::pass(&wl, &mut clean, None);
    assert_eq!((clean.failed, clean.failed_frac()), (0, 0.0));
    // A bound far below what MGARD-X at 1e-3 can meet.
    wl.items[0].rel_bound = Some(1e-9);
    let mut tally = Tally::default();
    fields::pass(&wl, &mut tally, None);
    assert_eq!(tally.failed, 1, "{:?}", tally.failures);
    assert!(tally.failed_frac() > 0.0);
    assert!(
        tally.failures[0].contains("exceeds bound"),
        "{:?}",
        tally.failures
    );
}

#[test]
fn validator_parses_and_rejects_damage() {
    let r = run(&args("fast-codecs", 7, false), Size::Tiny);
    let doc = r.to_json();
    validate(&doc).unwrap();
    // Whitespace and key layout do not matter to a parsing validator.
    validate(&doc.replace("\n", " ").replace(": ", ":")).unwrap();
    for cut in [0, doc.len() / 3, doc.len() - 3] {
        assert!(validate(&doc[..cut]).is_err(), "truncated at {cut}");
    }
    let first = r
        .metrics
        .iter()
        .find(|m| m.summary.q1 < m.summary.q3)
        .unwrap();
    let mut damaged = r.clone();
    let m = damaged
        .metrics
        .iter_mut()
        .find(|m| m.name == first.name)
        .unwrap();
    std::mem::swap(&mut m.summary.q1, &mut m.summary.q3);
    assert!(validate(&damaged.to_json())
        .unwrap_err()
        .contains("quartiles"));
    let mut dropped = r.clone();
    dropped.metrics.retain(|m| m.name != "ratio");
    assert!(validate(&dropped.to_json()).unwrap_err().contains("ratio"));
    assert!(validate_contract(&dropped.contract_line(), false).is_err());
    let mut failing = r.clone();
    failing.tally.check(false, || "forced".into());
    validate(&failing.to_json()).unwrap();
    assert!(failing.contract_line().starts_with("{\"correct\": false"));
    assert!(validate(
        &failing
            .to_json()
            .replace("\"correct\": false", "\"correct\": true")
    )
    .is_err());
}

#[test]
fn arguments_parse_with_documented_defaults() {
    let a = parse_args(&["--workload".into(), "serve-mix".into()]).unwrap();
    assert_eq!(
        (a.seed, a.seconds, a.trace),
        (repobench::DEFAULT_SEED, repobench::DEFAULT_SECONDS, false)
    );
    let full: Vec<String> = "--workload nyx-mgard --seed 11 --seconds 3 --trace 1"
        .split(' ')
        .map(String::from)
        .collect();
    let a = parse_args(&full).unwrap();
    assert_eq!((a.seed, a.seconds, a.trace), (11, 3.0, true));
    for bad in [
        "--workload x",
        "--workload nyx-mgard --trace 2",
        "--workload nyx-mgard --seconds 0",
        "--workload",
        "--bogus 1",
    ] {
        let v: Vec<String> = bad.split(' ').map(String::from).collect();
        assert!(parse_args(&v).is_err(), "{bad}");
    }
}

/// `BENCHMARK.json` at the repository root lists exactly the catalog.
#[test]
fn benchmark_json_matches_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = hpdr_metrics::parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = doc.get(key).and_then(|v| v.as_arr()).unwrap();
        assert_eq!(listed.len(), catalog.len(), "{key}");
        for (entry, def) in listed.iter().zip(catalog) {
            let s = |k: &str| entry.get(k).and_then(|v| v.as_str()).unwrap();
            assert_eq!(
                (s("name"), s("unit"), s("better")),
                (def.name, def.unit, def.better),
                "{key}"
            );
        }
    }
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(|v| v.as_arr())
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap())
        .collect();
    // serve-mix runs by hand only: its CPU time per job drifts too much
    // on a shared host for a regression bound (see README.md).
    assert_eq!(names, WORKLOADS[..2]);
}
