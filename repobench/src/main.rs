//! `repobench --workload <nyx-mgard|fast-codecs|serve-mix> [--seed N]
//! [--seconds S] [--trace 0|1] [--out DIR]`
//!
//! Prints the metric table, writes the full document (and, traced, the
//! span dump) under `--out`, and ends standard output with one JSON line.
//! Exits 1 when any output check failed, 2 on bad arguments.

use repobench::{parse_args, report, run, Size};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repobench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(&args, Size::Full);
    for line in report.render() {
        println!("{line}");
    }
    let doc = report.to_json();
    let mode = if args.trace { "traced" } else { "untraced" };
    let path = args
        .out
        .join(format!("{}-seed{}-{mode}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|_| std::fs::write(&path, &doc))
        .and_then(|_| match &report.spans {
            Some(spans) => std::fs::write(path.with_extension("spans.json"), spans),
            None => Ok(()),
        })
        .map_err(|e| format!("writing {}: {e}", path.display()));
    let valid = report::validate(&doc).map_err(|e| format!("document invalid: {e}"));
    let missing = report.missing();
    if let Err(e) = &written {
        eprintln!("repobench: {e}");
    }
    if let Err(e) = &valid {
        eprintln!("repobench: {e}");
    }
    if !missing.is_empty() {
        eprintln!("repobench: metrics missing: {missing:?}");
    }
    println!("{}", report.contract_line());
    if report.correct() && missing.is_empty() && valid.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
