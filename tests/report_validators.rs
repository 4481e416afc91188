//! Validators read documents, not layouts. Every report validator and
//! reader walks a parsed tree, so an emitted document re-serialised with
//! shuffled object keys and arbitrary whitespace stays valid and reads
//! back the same rows, while every prefix that drops a non-whitespace
//! byte is rejected. The re-serialiser lives here only: emitters keep
//! their own layouts.

use hpdr::bench::{
    parse_bench_entries, validate_bench_json, BenchReport, CodecResult, ServeOverhead, Throughput,
};
use hpdr_flight::{explain_lines, parse_flight_rows, validate_flight_json};
use hpdr_sim::json::{esc, parse_json, JsonValue};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Duration;

/// One emitted document and the reading its validator and readers give.
struct Doc {
    name: &'static str,
    text: String,
    read: fn(&str) -> Result<String, String>,
}

fn run(args: &[&str]) -> Vec<String> {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    hpdr::cli::run(hpdr::cli::parse(&args).unwrap()).unwrap()
}

/// Everything `hpdr explain` and the row parser read from a flight report.
fn flight_reading(t: &str) -> Result<String, String> {
    let rows = parse_flight_rows(t)?;
    let sampled = rows.iter().find(|r| r.sampled).map(|r| r.trace);
    let mut out = format!("{rows:?}");
    for job in [None, sampled] {
        out.push_str(&explain_lines(t, job, 3)?.join("\n"));
    }
    Ok(out)
}

fn bench_doc() -> String {
    let timing = |ns| Throughput {
        best: Duration::from_nanos(ns),
        gbps: 16384.0 / ns as f64,
    };
    let overhead = |overhead| ServeOverhead {
        jobs: 48,
        reps: 5,
        off: Duration::from_millis(10),
        on: Duration::from_millis(10),
        overhead,
    };
    BenchReport {
        label: "fmt \"test\"".into(),
        quick: true,
        threads: 2,
        simd: "scalar".into(),
        serve: overhead(0.004),
        flight: overhead(0.006),
        results: (1..=2)
            .map(|threads| CodecResult {
                codec: "zfp-x".into(),
                adapter: "openmp".into(),
                side: 16,
                threads,
                elements: 4096,
                bytes: 16384,
                compress: timing(5000 * threads as u64),
                decompress: timing(4000),
                ratio: 2.5,
            })
            .collect(),
    }
    .to_json()
}

/// The emitted documents, produced once per process.
fn docs() -> &'static [Doc] {
    static DOCS: OnceLock<Vec<Doc>> = OnceLock::new();
    DOCS.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("hpdr-fmt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |f: &str| dir.join(f).display().to_string();
        let read = |f: &str| std::fs::read_to_string(path(f)).unwrap();
        run(&[
            "loadgen",
            "--quick",
            "--seed",
            "7",
            "--metrics",
            "--out",
            &path("l.json"),
        ]);
        run(&[
            "cluster",
            "--quick",
            "--fail-node",
            "0@125000",
            "--out",
            &path("c.json"),
            "--flight-out",
            &path("f.json"),
        ]);
        let loadgen = read("l.json");
        let parsed = parse_json(&loadgen).unwrap();
        let metrics = parsed.get("serve").and_then(|s| s.get("metrics")).unwrap();
        let docs = vec![
            Doc {
                name: "serve",
                text: run(&["serve", "--json"]).remove(0),
                read: |t| hpdr_serve::validate_serve_json(t).map(|()| String::new()),
            },
            Doc {
                name: "loadgen",
                text: loadgen,
                read: |t| hpdr_serve::validate_loadgen_json(t).map(|()| String::new()),
            },
            Doc {
                name: "metrics",
                text: render(metrics, None),
                read: |t| hpdr_metrics::validate_metrics_json(t).map(|()| String::new()),
            },
            Doc {
                name: "cluster",
                text: read("c.json"),
                read: |t| hpdr_shard::validate_cluster_json(t).and_then(|()| flight_reading(t)),
            },
            Doc {
                name: "committed CLUSTER.json",
                text: include_str!("../CLUSTER.json").to_string(),
                read: |t| hpdr_shard::validate_cluster_json(t).map(|()| String::new()),
            },
            Doc {
                name: "flight",
                text: read("f.json"),
                read: |t| validate_flight_json(t).and_then(|()| flight_reading(t)),
            },
            Doc {
                name: "bench",
                text: bench_doc(),
                read: |t| validate_bench_json(t).and_then(|()| bench_reading(t)),
            },
            Doc {
                name: "committed BENCH_baseline.json",
                text: include_str!("../BENCH_baseline.json").to_string(),
                read: |t| validate_bench_json(t).and_then(|()| bench_reading(t)),
            },
            Doc {
                name: "chrome trace",
                text: run(&["trace"]).pop().unwrap(),
                read: |t| hpdr_trace::validate_chrome_trace(t).map(|s| format!("{s:?}")),
            },
            Doc {
                name: "audit",
                text: run(&["audit", "--json"]).remove(0),
                read: |t| hpdr_audit::validate_audit_json(t).map(|()| String::new()),
            },
        ];
        let _ = std::fs::remove_dir_all(&dir);
        docs
    })
}

fn bench_reading(t: &str) -> Result<String, String> {
    parse_bench_entries(t).map(|rows| format!("{rows:?}"))
}

/// Up to two whitespace bytes.
fn ws(rng: &mut Option<&mut TestRng>, out: &mut String) {
    if let Some(rng) = rng {
        for _ in 0..rng.next_u64() % 3 {
            out.push([' ', '\n', '\t', '\r'][(rng.next_u64() % 4) as usize]);
        }
    }
}

/// Serialise `v`: compact and in document order without a generator,
/// otherwise with shuffled object keys and whitespace around every token.
fn render(v: &JsonValue, mut rng: Option<&mut TestRng>) -> String {
    let mut out = String::new();
    write_value(v, &mut rng, &mut out);
    out
}

fn write_value(v: &JsonValue, rng: &mut Option<&mut TestRng>, out: &mut String) {
    ws(rng, out);
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => write!(out, "{b}").unwrap(),
        JsonValue::Num(n) => write!(out, "{n}").unwrap(),
        JsonValue::Str(s) => write!(out, "\"{}\"", esc(s)).unwrap(),
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, rng, out);
            }
            ws(rng, out);
            out.push(']');
        }
        JsonValue::Obj(fields) => {
            let mut order: Vec<usize> = (0..fields.len()).collect();
            if let Some(rng) = rng {
                for i in (1..order.len()).rev() {
                    order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
                }
            }
            out.push('{');
            for (n, &i) in order.iter().enumerate() {
                if n > 0 {
                    out.push(',');
                }
                ws(rng, out);
                write!(out, "\"{}\"", esc(&fields[i].0)).unwrap();
                ws(rng, out);
                out.push(':');
                write_value(&fields[i].1, rng, out);
            }
            ws(rng, out);
            out.push('}');
        }
    }
    ws(rng, out);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn validators_ignore_key_order_and_whitespace(seed in any::<u64>()) {
        for doc in docs() {
            let want = (doc.read)(&doc.text);
            prop_assert!(want.is_ok(), "{}: {want:?}", doc.name);
            let mut rng = TestRng::for_case(seed);
            let text = render(&parse_json(&doc.text).unwrap(), Some(&mut rng));
            prop_assert_eq!((doc.read)(&text), want, "{} read differently once re-serialised", doc.name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn validators_reject_every_truncation(cut in any::<u64>()) {
        for doc in docs() {
            // Any cut before the end of the last non-whitespace byte.
            let mut at = (cut % doc.text.trim_end().len() as u64) as usize;
            while !doc.text.is_char_boundary(at) {
                at -= 1;
            }
            let got = (doc.read)(&doc.text[..at]);
            prop_assert!(got.is_err(), "{} accepted its first {at} bytes", doc.name);
        }
    }
}
