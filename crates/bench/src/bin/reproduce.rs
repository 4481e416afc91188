//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p bench --bin reproduce -- all
//! cargo run --release -p bench --bin reproduce -- fig13 fig16
//! cargo run --release -p bench --bin reproduce -- --large all
//! cargo run --release -p bench --bin reproduce -- --trace traces/ fig10 fig16
//! ```
//!
//! `--trace <dir>` additionally writes a Chrome-trace JSON per figure
//! (for the figures that run a simulated schedule) into `<dir>`, each
//! validated before it is written; open them at
//! <https://ui.perfetto.dev>. An unknown target or an invalid trace
//! exits non-zero.

use bench::{ablations, fig01, fig10, fig11, fig12, fig13, fig14, fig15, fig16, fig17, fig18};
use bench::{figure_trace, table1, table2, table3, Scale};

/// Renders one table or figure as text.
type Runner = fn(&Scale) -> String;

/// Every target, in the order `all` runs them.
const TARGETS: [(&str, Runner); 14] = [
    ("table1", |_| table1()),
    ("table2", |_| table2()),
    ("table3", table3),
    ("fig1", fig01),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17", fig17),
    ("fig18", fig18),
    ("ablations", ablations),
];

/// The runner of a target (`fig01` is an alias of `fig1`).
fn runner(target: &str) -> Option<Runner> {
    let name = if target == "fig01" { "fig1" } else { target };
    TARGETS
        .iter()
        .find(|(t, _)| *t == name)
        .map(|&(_, run)| run)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::report();
    let mut trace_dir: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--large" => scale = Scale::large(),
            "--bench-scale" => scale = Scale::bench(),
            "--trace" => match args.get(i + 1) {
                Some(dir) => {
                    trace_dir = Some(dir.clone());
                    i += 1;
                }
                None => {
                    eprintln!("--trace needs an output directory");
                    std::process::exit(1);
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag '{flag}'");
                std::process::exit(1);
            }
            target => targets.push(target.to_string()),
        }
        i += 1;
    }
    let targets: Vec<&str> = if targets.is_empty() || targets.iter().any(|t| t == "all") {
        TARGETS.iter().map(|&(t, _)| t).collect()
    } else {
        targets.iter().map(String::as_str).collect()
    };
    if let Some(bad) = targets.iter().find(|t| runner(t).is_none()) {
        let known: Vec<&str> = TARGETS.iter().map(|&(t, _)| t).collect();
        eprintln!("unknown target '{bad}' (known: all, {})", known.join(", "));
        std::process::exit(1);
    }
    println!(
        "HPDR experiment reproduction (scale factor 1/{}, data: NYX {}^3 ...)\n",
        scale.factor, scale.nyx_side
    );
    for t in targets {
        let run = runner(t).expect("validated above");
        println!("{}", run(&scale));
        if let Some(dir) = &trace_dir {
            if let Some(trace) = figure_trace(&scale, t) {
                let json = hpdr::trace::to_chrome_trace(&trace);
                if let Err(e) = hpdr::trace::validate_chrome_trace(&json) {
                    eprintln!("{t}: emitted trace failed validation: {e}");
                    std::process::exit(1);
                }
                std::fs::create_dir_all(dir).expect("create trace dir");
                let path = format!("{dir}/{t}.trace.json");
                std::fs::write(&path, json).expect("write trace");
                println!("trace: {path} ({} spans)\n", trace.len());
            }
        }
    }
}
