//! Byte-identity pins for every deterministic report document: FNV-1a
//! digests of what `hpdr::cli::run` emits for `verify`, `audit`,
//! `trace`, `profile --figure fig1`, `retrieve`, `serve`, `loadgen` and
//! `cluster`. The constants were recorded from the emitters as they
//! stood before the reports moved onto one JSON layer, so they show that
//! every emitter kept its bytes; the `profile --figure fig1 --json`
//! digest was recorded the same way before the trace-derived numbers
//! moved onto one digest (`hpdr_trace::Digest`), when `Sim::run` still
//! returned a separate timeline. They are never to be re-recorded to
//! make a change pass.
//!
//! Every output goes under a per-test temp dir: without `--out`,
//! `loadgen` and `cluster` write into the working directory.

use hpdr_core::fnv1a;
use std::path::PathBuf;

/// `verify --json`, `audit --json`.
const GOLDEN_VERIFY_AUDIT: [u64; 2] = [0x32407f1f3d9389f4, 0x9b28493e5b8e03d1];
/// `trace --out`, then `profile --figure fig1 --json` (the four
/// comparators' memory-op shares in both directions).
const GOLDEN_TRACE: [u64; 2] = [0xd651755d7539f210, 0xa44737ec6f72ea95];
/// `retrieve --side 16 --tolerance 1e-1`, then `--tolerance 1e-3 --refine 1e-5`.
const GOLDEN_RETRIEVE: [u64; 2] = [0x1963a30077e4c879, 0x248c54c8e794492a];
/// `serve --json --flight-out`: the serve document, the flight document.
const GOLDEN_SERVE: [u64; 2] = [0x636be1cefc45110a, 0xd65aa2dba09f396a];
/// `loadgen --quick --seed 7 --metrics`: the document, its `--expo` exposition.
const GOLDEN_LOADGEN: [u64; 2] = [0x3ae29e5b19ae00f6, 0x05c080a9412bf854];
/// `cluster --quick` without and with `--fail-node 0@125000`: each
/// run's cluster document, then its flight document.
const GOLDEN_CLUSTER: [u64; 4] = [
    0x5dad48ee1cf4a52e,
    0xd53d2a17dbf1b55e,
    0x9c43bd543c4c80d1,
    0x73304bcd001bbcda,
];

/// A temp dir removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("hpdr-golden-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, file: &str) -> String {
        self.0.join(file).display().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run one command line through the CLI and return its printed lines.
fn run(args: &[&str]) -> Vec<String> {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    hpdr::cli::run(hpdr::cli::parse(&args).unwrap()).unwrap()
}

fn file_digest(path: &str) -> u64 {
    fnv1a(&std::fs::read(path).unwrap())
}

/// Digests written the way the constants above are, so a failure shows
/// which entries moved.
fn render(d: &[u64]) -> String {
    d.iter()
        .map(|x| format!("{x:#018x},"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn verify_and_audit_documents_match_golden() {
    let verify = run(&["verify", "--json"]);
    let audit = run(&["audit", "--json"]);
    let got = [fnv1a(verify[0].as_bytes()), fnv1a(audit[0].as_bytes())];
    assert!(got == GOLDEN_VERIFY_AUDIT, "digests:\n{}", render(&got));
}

#[test]
fn trace_document_matches_golden() {
    let dir = Scratch::new("trace");
    let out = dir.path("trace.json");
    run(&["trace", "--out", &out]);
    let fig1 = run(&["profile", "--figure", "fig1", "--json"]);
    let got = [file_digest(&out), fnv1a(fig1[0].as_bytes())];
    assert!(got == GOLDEN_TRACE, "digests:\n{}", render(&got));
}

#[test]
fn retrieve_documents_match_golden() {
    let dir = Scratch::new("retrieve");
    let (loose, tight) = (dir.path("loose.json"), dir.path("tight.json"));
    let side = ["retrieve", "--side", "16", "--json"];
    run(&[&side[..], &["--tolerance", "1e-1", "--out", &loose]].concat());
    run(&[
        &side[..],
        &["--tolerance", "1e-3", "--refine", "1e-5", "--out", &tight],
    ]
    .concat());
    let got = [file_digest(&loose), file_digest(&tight)];
    assert!(got == GOLDEN_RETRIEVE, "digests:\n{}", render(&got));
}

#[test]
fn serve_documents_match_golden() {
    let dir = Scratch::new("serve");
    let flight = dir.path("flight.json");
    let lines = run(&["serve", "--json", "--flight-out", &flight]);
    let got = [fnv1a(lines[0].as_bytes()), file_digest(&flight)];
    assert!(got == GOLDEN_SERVE, "digests:\n{}", render(&got));
}

#[test]
fn loadgen_documents_match_golden() {
    let dir = Scratch::new("loadgen");
    let (doc, expo) = (dir.path("loadgen.json"), dir.path("metrics.prom"));
    run(&[
        "loadgen",
        "--quick",
        "--seed",
        "7",
        "--metrics",
        "--out",
        &doc,
        "--expo",
        &expo,
    ]);
    let got = [file_digest(&doc), file_digest(&expo)];
    assert!(got == GOLDEN_LOADGEN, "digests:\n{}", render(&got));
}

#[test]
fn cluster_documents_match_golden() {
    let dir = Scratch::new("cluster");
    let mut got = Vec::new();
    for fail in [None, Some("0@125000")] {
        let tag = if fail.is_some() { "fail" } else { "ok" };
        let (doc, flight) = (
            dir.path(&format!("cluster_{tag}.json")),
            dir.path(&format!("flight_{tag}.json")),
        );
        let mut args = vec!["cluster", "--quick", "--out", &doc, "--flight-out", &flight];
        if let Some(f) = fail {
            args.extend(["--fail-node", f]);
        }
        run(&args);
        got.extend([file_digest(&doc), file_digest(&flight)]);
    }
    assert!(got == GOLDEN_CLUSTER, "digests:\n{}", render(&got));
}
