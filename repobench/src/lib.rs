//! Repository benchmark: end-to-end field round trips through the HDEM
//! pipeline, a serving mix through the scheduler, and a traced run that
//! splits the same work layer by layer. See `README.md` in this
//! directory for the workloads, the metric table and the layer map.

pub mod check;
pub mod env;
pub mod fields;
pub mod layers;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;

use report::{Metric, Report, Tally};
use stats::{summarize, Summary};
use std::path::PathBuf;
use std::time::Instant;

pub const WORKLOADS: [&str; 3] = ["nyx-mgard", "fast-codecs", "serve-mix"];
pub const DEFAULT_SEED: u64 = 7;
pub const DEFAULT_SECONDS: f64 = 40.0;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Input sizes: `Full` is the benchmark, `Tiny` the smoke-test scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for the full document and the span dump.
    pub out: PathBuf,
}

pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from("repobench/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} '{value}'");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                a.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("seconds"))?
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            "--out" => a.out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} (got '{}')",
            WORKLOADS.join(", "),
            a.workload
        ));
    }
    Ok(a)
}

/// A workload after set-up.
pub enum Prepared {
    Fields(fields::FieldWorkload),
    Serve(serve::ServeWorkload),
}

/// Clear the caches a previous set-up warmed, then set up once.
fn prepare(workload: &str, seed: u64, size: Size, tally: &mut Tally) -> Prepared {
    hpdr_mgard::context_cache().clear();
    match workload {
        "serve-mix" => Prepared::Serve(serve::setup(seed, size, tally)),
        w => Prepared::Fields(fields::setup(w, seed, size)),
    }
}

/// Run one workload in the mode `args.trace` selects.
pub fn run(args: &Args, size: Size) -> Report {
    let env = env::probe();
    let mut tally = Tally::default();
    let (mut setup_s, mut setup_s_wall) = (Vec::new(), Vec::new());
    let mut prepared = None;
    let setups = if args.trace { 1 } else { SETUPS };
    for k in 0..setups {
        // Payload checks run in every set-up; count them once.
        let mut scratch = Tally::default();
        let t = env::Stopwatch::start();
        prepared = Some(prepare(
            &args.workload,
            args.seed,
            size,
            if k == 0 { &mut tally } else { &mut scratch },
        ));
        let (wall, cpu) = t.elapsed_ns();
        setup_s_wall.push(wall as f64 / 1e9);
        setup_s.push(cpu as f64 / 1e9);
    }
    let prepared = prepared.expect("at least one set-up");
    let mut facts = facts(&prepared);
    let mut integrity = Vec::new();
    let (mut metrics, spans) = if args.trace {
        let (m, spans) = layers::run(
            &prepared,
            args.seconds,
            &mut tally,
            &mut integrity,
            &mut facts,
        );
        (m, Some(spans))
    } else {
        (measure(&prepared, args.seconds, &mut tally), None)
    };
    if !args.trace {
        metrics.push(
            Metric::of("setup_s", summarize(&setup_s)).with_note(
                "process CPU time of field generation, payload preparation and warm-up; median of the set-ups",
            ),
        );
        metrics.push(Metric::extra(
            "setup_s_wall".into(),
            "s",
            report::Clock::Wall,
            summarize(&setup_s_wall),
        ));
        metrics.push(Metric::of(
            "peak_rss_mb",
            Summary::single(env::peak_rss_mib(), 1),
        ));
        metrics.push(Metric::extra(
            "failed_frac".into(),
            "ratio",
            report::Clock::None,
            Summary::single(tally.failed_frac(), tally.attempted as usize),
        ));
    }
    Report {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        env,
        metrics,
        tally,
        integrity,
        facts,
        spans,
    }
}

/// Passes until `seconds` of measurement have elapsed (at least two).
fn measure(prepared: &Prepared, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let start = Instant::now();
    let more = |n: usize| n < 2 || start.elapsed().as_secs_f64() < seconds;
    match prepared {
        Prepared::Fields(wl) => {
            let mut passes = Vec::new();
            while more(passes.len()) {
                passes.push(fields::pass(wl, tally, None));
            }
            fields::metrics(wl, &passes)
        }
        Prepared::Serve(wl) => {
            let mut passes = Vec::new();
            while more(passes.len()) {
                passes.push(serve::pass(wl, tally));
            }
            serve::metrics(wl, &passes)
        }
    }
}

fn facts(prepared: &Prepared) -> Vec<(String, String)> {
    let mut out = vec![("caches".to_string(), env::cache_sizes())];
    match prepared {
        Prepared::Fields(wl) => {
            for f in &wl.fields {
                out.push((
                    format!("field {}", f.name),
                    format!(
                        "{:?} {:?}, {:.2} MiB raw, {:.2} MiB as the f64 working copy of MGARD",
                        f.meta.dtype,
                        f.meta.shape.dims(),
                        f.bytes.len() as f64 / (1 << 20) as f64,
                        (f.meta.shape.num_elements() * 8) as f64 / (1 << 20) as f64
                    ),
                ));
            }
        }
        Prepared::Serve(wl) => out.push((
            "stream".to_string(),
            format!(
                "{} jobs, open loop, Poisson {} jobs per virtual s, {} devices, policy {}",
                wl.jobs.len(),
                serve::RATE,
                wl.cfg.devices,
                wl.cfg.policy.name()
            ),
        )),
    }
    out
}
