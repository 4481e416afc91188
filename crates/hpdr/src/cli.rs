//! Command-line interface logic for the `hpdr` binary.
//!
//! ```text
//! hpdr compress   --codec mgard --rel-eb 1e-3 --shape 512x512x512 \
//!                 --dtype f32 --input nyx.bin --output nyx.hpdr
//! hpdr decompress --input nyx.hpdr --output restored.bin
//! hpdr info       --input nyx.hpdr
//! ```
//!
//! Parsing and execution live here (unit-testable); the binary is a thin
//! wrapper.

use crate::{detect_codec, Codec, CompressionStats};
use hpdr_baselines::SzConfig;
use hpdr_core::{ArrayMeta, CpuParallelAdapter, DType, HpdrError, Result, Shape};
use hpdr_mgard::MgardConfig;
use hpdr_zfp::ZfpConfig;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Compress {
        codec: Codec,
        shape: Shape,
        dtype: DType,
        input: String,
        output: String,
    },
    Decompress {
        input: String,
        output: String,
    },
    Info {
        input: String,
    },
    /// Statically verify the shipped pipeline schedules: hazard analysis
    /// plus the Fig. 9 schedule lints over every configuration.
    Verify {
        json: bool,
    },
    /// Dynamically audit the shipped codec × adapter configurations:
    /// run payloads under the shadow-access recorder and diff observed
    /// vs declared effects, then explore alternate interleavings of the
    /// happens-before DAG and check invariants in each.
    Audit {
        json: bool,
        out: Option<String>,
    },
    /// Record a 2-chunk adaptive MGARD-X run and emit Chrome-trace JSON
    /// (Perfetto-loadable; printed unless --out gives a file path).
    Trace {
        out: Option<String>,
    },
    /// Dynamic profile over span traces: engine utilization, overlap,
    /// critical path, latency histograms — with invariant checks.
    Profile {
        figure: Option<String>,
        json: bool,
    },
    /// Wall-clock throughput benchmark: codec × adapter × size GB/s plus
    /// the paired metering and flight-recorder overheads; writes a
    /// schema-validated `BENCH_<label>.json`.
    Bench {
        opts: crate::bench::BenchOptions,
        json: bool,
    },
    /// Diff two bench JSON documents and fail on throughput regressions
    /// beyond the threshold.
    BenchCompare {
        a: String,
        b: String,
        threshold: f64,
    },
    /// Run the multi-tenant serving scheduler over a job script (the
    /// built-in demo when none is given; `-` reads stdin).
    Serve {
        devices: usize,
        policy: hpdr_serve::Policy,
        jobs: Option<String>,
        json: bool,
        out: Option<String>,
        /// Enable the flight recorder and write the standalone
        /// `hpdr-flight/v1` causal-trace report here.
        flight_out: Option<String>,
    },
    /// Deterministic seeded load generation against the serving layer,
    /// reporting latency percentiles, goodput and rejection rate.
    Loadgen {
        opts: hpdr_serve::LoadgenOptions,
        json: bool,
        out: Option<String>,
        /// Also write the Prometheus-style exposition text here
        /// (implies --metrics).
        expo: Option<String>,
        /// Also write the `hpdr-flight/v1` causal-trace report here
        /// (implies the flight recorder).
        flight_out: Option<String>,
    },
    /// Live metrics view: run a seeded loadgen workload with the
    /// registry installed and print the latest-scrape instrument table.
    Top {
        opts: hpdr_serve::LoadgenOptions,
        /// Ring-series points shown per instrument.
        tail: usize,
    },
    /// Per-tenant SLO attainment and burn-rate timeline, from a saved
    /// loadgen/serve report (--report) or a fresh quick run.
    Slo {
        opts: hpdr_serve::LoadgenOptions,
        report: Option<String>,
    },
    /// Progressive retrieval demo over a stored multi-fidelity
    /// refactoring: fetch the minimal component set for a relative
    /// tolerance, optionally refine to a tighter one (strict-delta
    /// fetch), and report bytes moved vs the full container.
    Retrieve {
        /// Cube edge of the synthetic NYX field (`side³` f32 values).
        side: usize,
        /// Relative L∞ tolerance (× data range).
        tolerance: f64,
        /// Optional tighter relative tolerance to refine to.
        refine: Option<f64>,
        json: bool,
        out: Option<String>,
    },
    /// Sharded cross-node serving: drive the seeded loadgen workload
    /// through N scheduler shards behind one logical queue, with
    /// locality-aware placement, cost-accounted cross-node fetches and
    /// optional mid-run node-failure injection.
    Cluster {
        opts: hpdr_shard::ClusterLoadOptions,
        json: bool,
        out: Option<String>,
        /// Also write the standalone `hpdr-flight/v1` causal-trace
        /// report here (cluster runs always record flight events).
        flight_out: Option<String>,
    },
    /// Latency root-cause explanation from a saved report carrying an
    /// `hpdr-flight/v1` section (standalone or embedded in a cluster
    /// document): one job's breakdown + timeline, or the worst N.
    Explain {
        report: String,
        job: Option<u64>,
        worst: usize,
    },
    Help,
}

pub const USAGE: &str = "\
hpdr — high-performance portable scientific data reduction

USAGE:
  hpdr compress   --codec <mgard|zfp|huffman|sz|lz4> --shape <AxBxC>
                  --dtype <f32|f64> --input <raw.bin> --output <out.hpdr>
                  [--rel-eb <e>] [--abs-eb <e>] [--rate <bits>]
  hpdr decompress --input <in.hpdr> --output <raw.bin>
  hpdr info       --input <in.hpdr>
  hpdr verify     [--json]
  hpdr audit      [--json] [--out <audit.json>]
  hpdr trace      [--out <trace.json>]
  hpdr profile    [--figure fig1] [--json]
  hpdr bench      [--quick] [--paper-scale] [--json] [--label <name>]
                  [--out <file>]
  hpdr bench      --compare <a.json> <b.json> [--threshold <frac>]
  hpdr serve      [--devices <n>] [--policy serial|batched]
                  [--jobs <file|->] [--json] [--out <file>]
                  [--flight-out <file>]
  hpdr loadgen    [--rps <r>] [--duration <s>] [--tenants <t>]
                  [--open|--closed] [--seed <n>] [--devices <n>]
                  [--nodes <n>] [--quick] [--json] [--out <file>]
                  [--metrics] [--expo <file>] [--flight-out <file>]
  hpdr top        [loadgen flags] [--tail <n>]
  hpdr slo        [--report <file>] | [loadgen flags]
  hpdr retrieve   [--side <n>] [--tolerance <rel>] [--refine <rel>]
                  [--json] [--out <file>]
  hpdr cluster    [loadgen flags] [--nodes <n>] [--policy locality|random]
                  [--fail-node <id>@<t_us>] [--json] [--out <file>]
                  [--flight-out <file>]
  hpdr explain    --report <file> [--job <trace>] [--worst <n>]

Codec parameters: --rel-eb / --abs-eb apply to mgard and sz;
--rate applies to zfp (fixed-rate bits per value).

`hpdr verify` runs the static hazard analyzer (data races,
use-after-free, deadlock) and the Fig. 9 schedule lints over the op-DAGs
of every shipped pipeline configuration; --json emits a machine-readable
report (schema hpdr-verify/v1). Exits non-zero if any hazard or lint
finding is reported.

`hpdr audit` closes the gap `verify` cannot: it trusts no declaration.
Every shipped codec × adapter configuration is executed under the
memory pool's shadow-access recorder and each op's *observed* buffer
accesses are diffed against its declared effects (under-declaration is
an unsound error, over-declaration a warning); the happens-before DAG
is then explored across bounded alternate interleavings and the
use-after-free / double-free / use-before-alloc / two-buffer-liveness /
deser-first invariants are asserted in every admissible one. --json
emits the schema-validated hpdr-audit/v1 document (--out writes it to a
file). Exits non-zero on any unsound finding, same discipline as
`hpdr verify`.

`hpdr trace` records a 2-chunk adaptive MGARD-X compression on a small
NYX sample and emits Chrome-trace JSON (pid=device, tid=engine) — load
it at https://ui.perfetto.dev or chrome://tracing.

`hpdr profile` records a small NYX run and reports engine utilization,
compute-DMA overlap, allocator contention, the critical path and
per-op-class latencies; internal invariants (non-empty trace,
utilization in (0,1], critical path == makespan) exit non-zero when
violated. `--figure fig1` profiles the four comparator codecs
non-pipelined and checks their memory-op time share against the paper's
34-89% band.

`hpdr bench` measures real wall-clock compress/decompress throughput
(uncompressed GB/s, best of N runs after warmup) for every codec
across a size x thread matrix: sizes 16^3 -> 32^3 -> 128^3 (the
paper-scale 512^3 point is opt-in via --paper-scale), the serial
adapter plus the CPU-parallel adapter at 1/2/4 threads. The
document records which SIMD tier the kernel dispatch selected (set
HPDR_FORCE_SCALAR=1 to record a scalar baseline). Results are written
to BENCH_<label>.json (schema hpdr-bench/v2, validated before writing;
v1 documents still parse; --out overrides the path). --quick keeps two
sizes and few repetitions for CI smoke; --json prints the raw document
instead of the table. `--compare a.json b.json` diffs two bench
documents row by row ((codec, adapter, bytes, threads) matched; a
threadless v1 row matches any thread count), prints per-row B/A
speedup ratios, and exits non-zero if any direction's throughput in b
regressed more than --threshold (default 0.10 = 10%) below a.

`hpdr serve` runs the multi-tenant serving scheduler over a job script
(one job per line: `<arrival_us> <tenant> <compress|decompress>
<codec[:param]> <side> [prio=N] [deadline_us=N] [cancel_us=N]`; the
built-in demo script runs when --jobs is omitted, `-` reads stdin).
Jobs are admitted under a byte-budget controller with bounded-queue
backpressure, batched into shared pipeline launches, and dispatched
over the simulated device pool with per-tenant fair scheduling; the
report (schema hpdr-serve/v1) carries latency percentiles from the
per-job records and enforces that every admitted job reached exactly
one terminal state.

`hpdr loadgen` generates a deterministic seeded workload (Poisson
open loop, or --closed for one outstanding request per tenant) against
the serving layer and writes a validated latency report (schema
hpdr-loadgen/v1, default LOADGEN.json): p50/p95/p99 latency, goodput
GB/s, rejection rate, plus a continuous-batching-vs-serial scheduler
microbench. --quick is a seconds-fast CI smoke preset. --metrics
installs the virtual-time metrics registry (schema hpdr-metrics/v1,
embedded in the report JSON); --expo additionally writes the
Prometheus-style text exposition to a file (implies --metrics). Both
views are deterministic: identical flags and seed produce byte-identical
series and exposition.

`hpdr top` runs the same seeded loadgen workload with the registry
installed and prints the latest-scrape instrument table (counters,
gauges, histogram quantiles) plus the tail of each ring-buffer time
series — a deterministic, virtual-time `top(1)` over the serving stack.
Volatile instruments (host-thread pool occupancy) are marked `~` and
excluded from series and exposition.

`hpdr slo` reports per-tenant SLO attainment (latency target, error
budget, burn rate) and the burn-rate alert timeline. With --report it
reads a saved hpdr-loadgen/hpdr-serve/hpdr-metrics JSON document;
otherwise it runs a quick metered loadgen. Exits non-zero if any tenant
fired a burn-rate alert.

`hpdr retrieve` demonstrates progressive (multi-fidelity) retrieval: a
synthetic NYX density field (--side, default 32) is refactored into
per-(level, bit-plane) components, each independently entropy-coded
and stored as its own block in a BP container next to a manifest of
per-component sizes and error contributions. The reader then fetches
only the minimal component set for --tolerance (relative to the data
range; greedy by error-contribution per byte) and reports bytes
fetched vs the full container plus the measured max error. --refine
retrieves again at a tighter tolerance, fetching strictly the delta
components (zero re-fetches, asserted). Component fetches are charged
through the Summit-GPFS filesystem cost model and the accumulated
virtual I/O time is reported (io_model_ns). --json emits the
hpdr-progressive/v1 document (--out writes it to a file).

`hpdr cluster` drives the seeded loadgen workload through --nodes
independent scheduler shards (one simulated node each) behind a single
logical queue on one virtual clock. --policy locality (default) places
by rendezvous hashing on the job's data key so consumers of one stored
object land where it lives; --policy random is the seeded scatter
baseline. Off-home fetches cost virtual transfer time through the
hpdr-io filesystem model and appear in the flight events; admission
backpressure spills to the byte-weighted least-loaded survivor.
--fail-node <id>@<t_us> kills a shard mid-run: its queued and in-flight
jobs re-route to survivors under a bounded retry budget, and the report
enforces zero lost jobs (non-zero exit otherwise). The hpdr-shard/v1
report (default CLUSTER.json) aggregates per-shard hpdr-serve/v1
reports with merged latency quantiles, placement / steal / retry
counters and per-shard cache hit rates; identical flags and seed are
byte-identical. `hpdr loadgen --nodes <n>` with n > 1 routes here.
Cluster runs always record per-job causal flight events; the report
embeds the `hpdr-flight/v1` analysis and `--flight-out` also writes it
standalone.

`hpdr explain` answers \"why was this job slow\": it reads a saved
report carrying an hpdr-flight/v1 section (a cluster report, or the
document `--flight-out` wrote) and prints each job's additive latency
breakdown — queue / placement / transfer / batch / service / retry
components that sum exactly to the end-to-end virtual-time latency —
plus, for tail-sampled jobs (p99 outliers, failures, re-routes, and a
seeded 1-in-N baseline), the full event timeline. --worst N (default 3)
ranks the true N worst-latency jobs; --job <trace> explains one job by
its trace id, as linked from metric exemplars and cluster render
lines.";

/// Parse `AxBxC` into a shape.
pub fn parse_shape(s: &str) -> Result<Shape> {
    let dims: Vec<usize> = s
        .split(['x', 'X'])
        .map(|p| {
            p.parse::<usize>()
                .map_err(|_| HpdrError::invalid(format!("bad shape component '{p}'")))
        })
        .collect::<Result<_>>()?;
    // `try_new` calls an oversized shape a corrupt stream, which is what
    // decoders report; here the shape is user input.
    Shape::try_new(&dims).map_err(|e| match e {
        HpdrError::CorruptStream(m) => HpdrError::invalid(format!("bad shape '{s}': {m}")),
        e => e,
    })
}

fn parse_dtype(s: &str) -> Result<DType> {
    match s {
        "f32" => Ok(DType::F32),
        "f64" => Ok(DType::F64),
        other => Err(HpdrError::invalid(format!("unknown dtype '{other}'"))),
    }
}

fn get_flag<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn require_flag<'a>(args: &'a [String], flag: &str) -> Result<&'a str> {
    get_flag(args, flag).ok_or_else(|| HpdrError::invalid(format!("missing {flag} <value>")))
}

fn parse_codec(args: &[String]) -> Result<Codec> {
    let name = require_flag(args, "--codec")?;
    let rel = get_flag(args, "--rel-eb")
        .map(|v| {
            v.parse::<f64>()
                .map_err(|_| HpdrError::invalid("bad --rel-eb"))
        })
        .transpose()?;
    let abs = get_flag(args, "--abs-eb")
        .map(|v| {
            v.parse::<f64>()
                .map_err(|_| HpdrError::invalid("bad --abs-eb"))
        })
        .transpose()?;
    let rate = get_flag(args, "--rate")
        .map(|v| {
            v.parse::<u32>()
                .map_err(|_| HpdrError::invalid("bad --rate"))
        })
        .transpose()?;
    match name {
        "mgard" => Ok(Codec::Mgard(match (rel, abs) {
            (_, Some(a)) => MgardConfig::absolute(a),
            (Some(r), None) => MgardConfig::relative(r),
            (None, None) => MgardConfig::relative(1e-3),
        })),
        "zfp" => Ok(Codec::Zfp(ZfpConfig::fixed_rate(rate.unwrap_or(16)))),
        "huffman" => Ok(Codec::Huffman),
        "sz" => Ok(Codec::Sz(SzConfig::relative(rel.unwrap_or(1e-3)))),
        "lz4" => Ok(Codec::Lz4),
        other => Err(HpdrError::invalid(format!("unknown codec '{other}'"))),
    }
}

/// Parse the loadgen workload flags shared by `loadgen`, `top` and
/// `slo`: a `--quick` (or default) preset overridden flag by flag.
fn parse_loadgen_opts(args: &[String]) -> Result<hpdr_serve::LoadgenOptions> {
    let base = if args.iter().any(|a| a == "--quick") {
        hpdr_serve::LoadgenOptions::quick()
    } else {
        hpdr_serve::LoadgenOptions::default()
    };
    let num = |flag: &str, default: f64| -> Result<f64> {
        get_flag(args, flag)
            .map(|v| {
                v.parse::<f64>()
                    .map_err(|_| HpdrError::invalid(format!("bad {flag}")))
            })
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let opts = hpdr_serve::LoadgenOptions {
        rps: num("--rps", base.rps)?,
        duration_s: num("--duration", base.duration_s)?,
        tenants: num("--tenants", base.tenants as f64)? as u32,
        devices: (num("--devices", base.devices as f64)? as usize).max(1),
        seed: num("--seed", base.seed as f64)? as u64,
        closed: if args.iter().any(|a| a == "--open") {
            false
        } else {
            args.iter().any(|a| a == "--closed") || base.closed
        },
        metrics: args.iter().any(|a| a == "--metrics") || base.metrics,
        flight: args.iter().any(|a| a == "--flight-out") || base.flight,
    };
    if opts.rps <= 0.0 || opts.duration_s <= 0.0 {
        return Err(HpdrError::invalid("--rps and --duration must be positive"));
    }
    Ok(opts)
}

/// Parse `--fail-node <id>@<t_us>`: kill shard `id` at virtual
/// microsecond `t_us`.
fn parse_fail_node(s: &str) -> Result<(usize, hpdr_sim::Ns)> {
    let (id, at) = s
        .split_once('@')
        .ok_or_else(|| HpdrError::invalid("--fail-node wants <id>@<t_us>"))?;
    let id = id
        .parse::<usize>()
        .map_err(|_| HpdrError::invalid("bad --fail-node shard id"))?;
    let us = at
        .parse::<u64>()
        .map_err(|_| HpdrError::invalid("bad --fail-node instant (microseconds)"))?;
    Ok((id, hpdr_sim::Ns::from_micros(us)))
}

/// Parse the cluster flags shared by `hpdr cluster` and
/// `hpdr loadgen --nodes`: the loadgen workload plus placement policy,
/// node count and optional failure injection.
fn parse_cluster_opts(args: &[String]) -> Result<hpdr_shard::ClusterLoadOptions> {
    let mut base = parse_loadgen_opts(args)?;
    base.metrics = false; // per-shard registries are not merged; cluster counters live in the report
    Ok(hpdr_shard::ClusterLoadOptions {
        base,
        nodes: get_flag(args, "--nodes")
            .map(|v| {
                v.parse::<usize>()
                    .map_err(|_| HpdrError::invalid("bad --nodes"))
            })
            .transpose()?
            .unwrap_or(4)
            .max(1),
        policy: match get_flag(args, "--policy") {
            None => hpdr_shard::PlacementPolicy::Locality,
            Some(p) => hpdr_shard::PlacementPolicy::parse(p)
                .ok_or_else(|| HpdrError::invalid(format!("unknown placement policy '{p}'")))?,
        },
        fail: get_flag(args, "--fail-node")
            .map(parse_fail_node)
            .transpose()?,
    })
}

/// Parse an argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command> {
    match args.first().map(String::as_str) {
        Some("compress") => Ok(Command::Compress {
            codec: parse_codec(args)?,
            shape: parse_shape(require_flag(args, "--shape")?)?,
            dtype: parse_dtype(require_flag(args, "--dtype")?)?,
            input: require_flag(args, "--input")?.to_string(),
            output: require_flag(args, "--output")?.to_string(),
        }),
        Some("decompress") => Ok(Command::Decompress {
            input: require_flag(args, "--input")?.to_string(),
            output: require_flag(args, "--output")?.to_string(),
        }),
        Some("info") => Ok(Command::Info {
            input: require_flag(args, "--input")?.to_string(),
        }),
        Some("verify") => Ok(Command::Verify {
            json: args.iter().any(|a| a == "--json"),
        }),
        Some("audit") => Ok(Command::Audit {
            json: args.iter().any(|a| a == "--json"),
            out: get_flag(args, "--out").map(str::to_string),
        }),
        Some("trace") => Ok(Command::Trace {
            out: get_flag(args, "--out").map(str::to_string),
        }),
        Some("profile") => Ok(Command::Profile {
            figure: get_flag(args, "--figure").map(str::to_string),
            json: args.iter().any(|a| a == "--json"),
        }),
        Some("bench") => {
            if let Some(i) = args.iter().position(|a| a == "--compare") {
                let path = |j: usize, which: &str| -> Result<String> {
                    args.get(i + j)
                        .filter(|p| !p.starts_with("--"))
                        .map(|p| p.to_string())
                        .ok_or_else(|| {
                            HpdrError::invalid(format!("--compare needs <{which}.json>"))
                        })
                };
                return Ok(Command::BenchCompare {
                    a: path(1, "baseline")?,
                    b: path(2, "candidate")?,
                    threshold: get_flag(args, "--threshold")
                        .map(|v| {
                            v.parse::<f64>()
                                .map_err(|_| HpdrError::invalid("bad --threshold"))
                        })
                        .transpose()?
                        .unwrap_or(0.10),
                });
            }
            Ok(Command::Bench {
                opts: crate::bench::BenchOptions {
                    quick: args.iter().any(|a| a == "--quick"),
                    paper_scale: args.iter().any(|a| a == "--paper-scale"),
                    label: get_flag(args, "--label").unwrap_or("local").to_string(),
                    out: get_flag(args, "--out").map(str::to_string),
                },
                json: args.iter().any(|a| a == "--json"),
            })
        }
        Some("serve") => Ok(Command::Serve {
            devices: get_flag(args, "--devices")
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|_| HpdrError::invalid("bad --devices"))
                })
                .transpose()?
                .unwrap_or(2)
                .max(1),
            policy: match get_flag(args, "--policy") {
                None | Some("batched") => hpdr_serve::Policy::Batched,
                Some("serial") => hpdr_serve::Policy::Serial,
                Some(other) => return Err(HpdrError::invalid(format!("unknown policy '{other}'"))),
            },
            jobs: get_flag(args, "--jobs").map(str::to_string),
            json: args.iter().any(|a| a == "--json"),
            out: get_flag(args, "--out").map(str::to_string),
            flight_out: get_flag(args, "--flight-out").map(str::to_string),
        }),
        Some("loadgen") => {
            // --nodes <n> with n > 1 routes the workload through the
            // sharded cluster front-end.
            if get_flag(args, "--nodes").is_some_and(|v| v.parse::<usize>().unwrap_or(0) > 1) {
                return Ok(Command::Cluster {
                    opts: parse_cluster_opts(args)?,
                    json: args.iter().any(|a| a == "--json"),
                    out: get_flag(args, "--out").map(str::to_string),
                    flight_out: get_flag(args, "--flight-out").map(str::to_string),
                });
            }
            let expo = get_flag(args, "--expo").map(str::to_string);
            let mut opts = parse_loadgen_opts(args)?;
            opts.metrics |= expo.is_some();
            Ok(Command::Loadgen {
                opts,
                json: args.iter().any(|a| a == "--json"),
                out: get_flag(args, "--out").map(str::to_string),
                expo,
                flight_out: get_flag(args, "--flight-out").map(str::to_string),
            })
        }
        Some("cluster") => Ok(Command::Cluster {
            opts: parse_cluster_opts(args)?,
            json: args.iter().any(|a| a == "--json"),
            out: get_flag(args, "--out").map(str::to_string),
            flight_out: get_flag(args, "--flight-out").map(str::to_string),
        }),
        Some("explain") => Ok(Command::Explain {
            report: require_flag(args, "--report")?.to_string(),
            job: get_flag(args, "--job")
                .map(|v| {
                    v.parse::<u64>()
                        .map_err(|_| HpdrError::invalid("bad --job (wants a trace id)"))
                })
                .transpose()?,
            worst: get_flag(args, "--worst")
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|_| HpdrError::invalid("bad --worst"))
                })
                .transpose()?
                .unwrap_or(3)
                .max(1),
        }),
        Some("top") => {
            let mut opts = parse_loadgen_opts(args)?;
            opts.metrics = true;
            Ok(Command::Top {
                opts,
                tail: get_flag(args, "--tail")
                    .map(|v| {
                        v.parse::<usize>()
                            .map_err(|_| HpdrError::invalid("bad --tail"))
                    })
                    .transpose()?
                    .unwrap_or(5)
                    .max(1),
            })
        }
        Some("slo") => {
            let mut opts = parse_loadgen_opts(args)?;
            opts.metrics = true;
            Ok(Command::Slo {
                opts,
                report: get_flag(args, "--report").map(str::to_string),
            })
        }
        Some("retrieve") => {
            let float = |flag: &str, default: f64| -> Result<f64> {
                get_flag(args, flag)
                    .map(|v| {
                        v.parse::<f64>()
                            .map_err(|_| HpdrError::invalid(format!("bad {flag}")))
                    })
                    .transpose()
                    .map(|v| v.unwrap_or(default))
            };
            let tolerance = float("--tolerance", 1e-2)?;
            let refine = get_flag(args, "--refine")
                .map(|v| {
                    v.parse::<f64>()
                        .map_err(|_| HpdrError::invalid("bad --refine"))
                })
                .transpose()?;
            for (what, v) in [("--tolerance", Some(tolerance)), ("--refine", refine)] {
                if v.is_some_and(|v| v <= 0.0 || !v.is_finite()) {
                    return Err(HpdrError::invalid(format!("{what} must be positive")));
                }
            }
            Ok(Command::Retrieve {
                side: get_flag(args, "--side")
                    .map(|v| {
                        v.parse::<usize>()
                            .map_err(|_| HpdrError::invalid("bad --side"))
                    })
                    .transpose()?
                    .unwrap_or(32)
                    .clamp(4, 64),
                tolerance,
                refine,
                json: args.iter().any(|a| a == "--json"),
                out: get_flag(args, "--out").map(str::to_string),
            })
        }
        Some("help" | "--help" | "-h") | None => Ok(Command::Help),
        Some(other) => Err(HpdrError::invalid(format!("unknown command '{other}'"))),
    }
}

/// Execute a parsed command; returns the lines to print.
pub fn run(cmd: Command) -> Result<Vec<String>> {
    let adapter = CpuParallelAdapter::with_defaults();
    match cmd {
        Command::Help => Ok(vec![USAGE.to_string()]),
        Command::Verify { json } => verify_schedules(json),
        Command::Audit { json, out } => audit_schedules(json, out.as_deref()),
        Command::Trace { out } => trace_run(out),
        Command::Profile { figure, json } => profile_run(figure.as_deref(), json),
        Command::Bench { opts, json } => crate::bench::bench_command(&opts, json),
        Command::BenchCompare { a, b, threshold } => {
            crate::bench::compare_command(&a, &b, threshold)
        }
        Command::Serve {
            devices,
            policy,
            jobs,
            json,
            out,
            flight_out,
        } => serve_command(
            devices,
            policy,
            jobs.as_deref(),
            json,
            out.as_deref(),
            flight_out.as_deref(),
        ),
        Command::Loadgen {
            opts,
            json,
            out,
            expo,
            flight_out,
        } => loadgen_command(
            opts,
            json,
            out.as_deref(),
            expo.as_deref(),
            flight_out.as_deref(),
        ),
        Command::Top { opts, tail } => top_command(opts, tail),
        Command::Slo { opts, report } => slo_command(opts, report.as_deref()),
        Command::Retrieve {
            side,
            tolerance,
            refine,
            json,
            out,
        } => retrieve_command(side, tolerance, refine, json, out.as_deref()),
        Command::Cluster {
            opts,
            json,
            out,
            flight_out,
        } => cluster_command(opts, json, out.as_deref(), flight_out.as_deref()),
        Command::Explain { report, job, worst } => explain_command(&report, job, worst),
        Command::Compress {
            codec,
            shape,
            dtype,
            input,
            output,
        } => {
            let bytes = std::fs::read(&input)?;
            let meta = ArrayMeta::new(dtype, shape);
            if bytes.len() != meta.num_bytes() {
                return Err(HpdrError::invalid(format!(
                    "{input}: {} bytes, but shape {} as {} needs {}",
                    bytes.len(),
                    meta.shape,
                    meta.dtype.name(),
                    meta.num_bytes()
                )));
            }
            let (stream, stats): (Vec<u8>, CompressionStats) =
                crate::compress(&adapter, &bytes, &meta, codec)?;
            std::fs::write(&output, &stream)?;
            Ok(vec![format!(
                "{} -> {}: {} -> {} bytes ({:.2}x) with {}",
                input,
                output,
                stats.original_bytes,
                stats.compressed_bytes,
                stats.ratio,
                stats.codec
            )])
        }
        Command::Decompress { input, output } => {
            let stream = std::fs::read(&input)?;
            let (bytes, meta) = crate::decompress(&adapter, &stream)?;
            std::fs::write(&output, &bytes)?;
            Ok(vec![format!(
                "{} -> {}: {} {} values restored ({} bytes)",
                input,
                output,
                meta.shape,
                meta.dtype.name(),
                bytes.len()
            )])
        }
        Command::Info { input } => {
            let stream = std::fs::read(&input)?;
            let codec = detect_codec(&stream)
                .ok_or_else(|| HpdrError::corrupt("unrecognized stream magic"))?;
            let (bytes, meta) = crate::decompress(&adapter, &stream)?;
            Ok(vec![
                format!("codec:  {codec}"),
                format!("dtype:  {}", meta.dtype.name()),
                format!("shape:  {}", meta.shape),
                format!("raw:    {} bytes", bytes.len()),
                format!(
                    "stored: {} bytes ({:.2}x)",
                    stream.len(),
                    bytes.len() as f64 / stream.len().max(1) as f64
                ),
            ])
        }
    }
}

/// `hpdr serve`: run a job script through the serving scheduler and
/// report (validated) per-tenant / per-device accounting.
fn serve_command(
    devices: usize,
    policy: hpdr_serve::Policy,
    jobs: Option<&str>,
    json: bool,
    out: Option<&str>,
    flight_out: Option<&str>,
) -> Result<Vec<String>> {
    use std::io::Read as _;
    use std::sync::Arc;

    let script = match jobs {
        None => hpdr_serve::DEMO_SCRIPT.to_string(),
        Some("-") => {
            let mut buf = String::new();
            std::io::stdin().read_to_string(&mut buf)?;
            buf
        }
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| HpdrError::invalid(format!("{path}: {e}")))?
        }
    };
    let work: Arc<dyn hpdr_core::DeviceAdapter> = Arc::new(CpuParallelAdapter::with_defaults());
    let mut cache = hpdr_serve::PayloadCache::new();
    let requests = hpdr_serve::parse_script_with(&script, work.as_ref(), &mut cache)
        .map_err(HpdrError::from)?;
    let flight_cfg = hpdr_flight::FlightConfig::default();
    let cfg = hpdr_serve::ServeConfig {
        devices,
        policy,
        flight: flight_out.map(|_| flight_cfg),
        ..hpdr_serve::ServeConfig::default()
    };
    let mut source = hpdr_serve::VecSource::new(requests);
    let mut outcome = hpdr_serve::serve(cfg, work, &mut source);
    let flight = outcome
        .flight
        .take()
        .map(|log| hpdr_flight::analyze(&log, &flight_cfg, None));
    let mut report = hpdr_serve::ServeReport::build(policy, outcome);
    report.payload_cache = Some(cache.stats());
    let doc = report.to_json();
    hpdr_serve::validate_serve_json(&doc).map_err(|e| {
        let target = out.unwrap_or("<stdout>");
        HpdrError::invalid(format!("{target}: serve report failed validation: {e}"))
    })?;
    let mut lines = if json {
        vec![doc.clone()]
    } else {
        report.render()
    };
    if let Some(path) = out {
        std::fs::write(path, doc.as_bytes())?;
        lines.push(format!("wrote {path}"));
    }
    if let Some(path) = flight_out {
        let f = flight.expect("flight recording is on when --flight-out is given");
        write_flight_doc(path, &f, &mut lines)?;
    }
    Ok(lines)
}

/// Serialize, validate and write a standalone `hpdr-flight/v1` report.
fn write_flight_doc(
    path: &str,
    report: &hpdr_flight::FlightReport,
    lines: &mut Vec<String>,
) -> Result<()> {
    let mut doc = hpdr_flight::to_json(report);
    doc.push('\n');
    hpdr_flight::validate_flight_json(&doc)
        .map_err(|e| HpdrError::invalid(format!("{path}: flight report failed validation: {e}")))?;
    std::fs::write(path, doc.as_bytes())?;
    lines.push(format!("wrote {path}"));
    Ok(())
}

/// `hpdr explain`: render latency root-cause breakdowns from a saved
/// report document carrying an `hpdr-flight/v1` section.
fn explain_command(report: &str, job: Option<u64>, worst: usize) -> Result<Vec<String>> {
    let doc = std::fs::read_to_string(report)
        .map_err(|e| HpdrError::invalid(format!("{report}: {e}")))?;
    hpdr_flight::explain_lines(&doc, job, worst)
        .map_err(|e| HpdrError::invalid(format!("{report}: {e}")))
}

/// `hpdr loadgen`: deterministic seeded workload against the serving
/// layer; writes the validated latency report JSON.
fn loadgen_command(
    opts: hpdr_serve::LoadgenOptions,
    json: bool,
    out: Option<&str>,
    expo: Option<&str>,
    flight_out: Option<&str>,
) -> Result<Vec<String>> {
    let report = hpdr_serve::run_loadgen(opts).map_err(HpdrError::from)?;
    let doc = report.to_json();
    let path = out
        .map(str::to_string)
        .unwrap_or_else(|| "LOADGEN.json".to_string());
    hpdr_serve::validate_loadgen_json(&doc).map_err(|e| {
        HpdrError::invalid(format!("{path}: loadgen report failed validation: {e}"))
    })?;
    std::fs::write(&path, doc.as_bytes())?;
    let mut lines = if json { vec![doc] } else { report.render() };
    lines.push(format!("wrote {path}"));
    if let Some(expo_path) = expo {
        let reg = report.serve.metrics.as_ref().ok_or_else(|| {
            HpdrError::invalid("--expo requires the metrics registry (use --metrics)")
        })?;
        std::fs::write(expo_path, reg.exposition().as_bytes())?;
        lines.push(format!("wrote {expo_path}"));
    }
    if let Some(fpath) = flight_out {
        let f = report.flight.as_ref().ok_or_else(|| {
            HpdrError::invalid("--flight-out requires the flight recorder on the loadgen run")
        })?;
        write_flight_doc(fpath, f, &mut lines)?;
    }
    Ok(lines)
}

/// `hpdr cluster`: the seeded loadgen workload through the sharded
/// cross-node front-end; writes the validated hpdr-shard/v1 report.
/// Exits non-zero when the report loses jobs (the zero-lost-jobs
/// invariant) or any shard's own report is unsound.
fn cluster_command(
    opts: hpdr_shard::ClusterLoadOptions,
    json: bool,
    out: Option<&str>,
    flight_out: Option<&str>,
) -> Result<Vec<String>> {
    let report = hpdr_shard::run_cluster_loadgen(&opts).map_err(HpdrError::from)?;
    let doc = report.to_json();
    let path = out
        .map(str::to_string)
        .unwrap_or_else(|| "CLUSTER.json".to_string());
    std::fs::write(&path, doc.as_bytes())?;
    hpdr_shard::validate_cluster_json(&doc).map_err(|e| {
        HpdrError::invalid(format!("{path}: cluster report failed validation: {e}"))
    })?;
    let mut lines = if json { vec![doc] } else { report.render() };
    lines.push(format!("wrote {path}"));
    if let Some(fpath) = flight_out {
        let f = report.flight.as_ref().ok_or_else(|| {
            HpdrError::invalid("cluster run recorded no flight events (tracing disabled)")
        })?;
        write_flight_doc(fpath, f, &mut lines)?;
    }
    Ok(lines)
}

/// `hpdr top`: run a seeded metered loadgen and print the registry's
/// latest-scrape instrument table — a virtual-time `top(1)` snapshot.
fn top_command(opts: hpdr_serve::LoadgenOptions, tail: usize) -> Result<Vec<String>> {
    let report = hpdr_serve::run_loadgen(opts).map_err(HpdrError::from)?;
    let reg = report
        .serve
        .metrics
        .as_ref()
        .ok_or_else(|| HpdrError::invalid("loadgen run produced no metrics registry"))?;
    let mut lines = vec![format!(
        "top: seed {} — {:.0} rps x {:.2}s, {} tenants, {} devices ({} scrapes every {})",
        report.opts.seed,
        report.opts.rps,
        report.opts.duration_s,
        report.opts.tenants,
        report.opts.devices,
        reg.scrape_count(),
        reg.config().scrape_interval,
    )];
    lines.extend(reg.render_table(tail));
    Ok(lines)
}

/// `hpdr slo`: per-tenant SLO attainment and burn-rate alerts, either
/// from a saved JSON report (`--report`) or from a fresh metered run.
/// Exits non-zero when any burn-rate alert fired.
fn slo_command(opts: hpdr_serve::LoadgenOptions, report: Option<&str>) -> Result<Vec<String>> {
    let doc = match report {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| HpdrError::invalid(format!("{path}: {e}")))?
        }
        None => {
            let report = hpdr_serve::run_loadgen(opts).map_err(HpdrError::from)?;
            report.to_json()
        }
    };
    let (lines, alerts) = crate::slo::render_slo_report(&doc).map_err(|e| match report {
        Some(path) => HpdrError::invalid(format!("{path}: {e}")),
        None => HpdrError::invalid(e),
    })?;
    if alerts > 0 {
        return Err(HpdrError::invalid(format!(
            "{alerts} burn-rate alert(s) fired:\n{}",
            lines.join("\n")
        )));
    }
    Ok(lines)
}

/// `hpdr retrieve`: refactor a synthetic NYX field into a progressive
/// BP container (temp dir), then retrieve at the requested relative
/// tolerance — fetching only the component prefix the fetch planner
/// picks — and optionally refine to a tighter bound, asserting the
/// refine fetched strictly delta components (zero re-fetches).
fn retrieve_command(
    side: usize,
    tolerance: f64,
    refine: Option<f64>,
    json: bool,
    out: Option<&str>,
) -> Result<Vec<String>> {
    use hpdr_progressive::{refactor_progressive, ProgressiveConfig, ProgressiveReader};

    let adapter = CpuParallelAdapter::with_defaults();
    let d = crate::data::nyx_density(side, 7);
    let data: Vec<f32> = d
        .bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let set = refactor_progressive(&adapter, &data, &d.shape, &ProgressiveConfig::default())?;
    let total = set.total_bytes();
    let range = set.manifest.range;
    let num_components = set.manifest.components.len();

    let dir = std::env::temp_dir().join(format!("hpdr-retrieve-{}", std::process::id()));
    hpdr_progressive::write_bp(&dir, &set, 2)?;
    let max_err = |out: &[f32]| -> f64 {
        data.iter()
            .zip(out)
            .map(|(a, b)| (*a as f64 - *b as f64).abs())
            .fold(0.0f64, f64::max)
    };

    let run = |reader: &mut ProgressiveReader| -> Result<Vec<String>> {
        let abs_tol = tolerance * range;
        let first = reader.retrieve::<f32>(&adapter, abs_tol)?;
        let err = max_err(&first.data);
        if err > abs_tol {
            return Err(HpdrError::invalid(format!(
                "retrieved error {err:.3e} exceeds tolerance {abs_tol:.3e}"
            )));
        }
        let refined = refine
            .map(|rel| -> Result<_> {
                let abs = rel * range;
                let ops_before = reader.fetch_ops();
                let r = reader.refine::<f32>(&adapter, abs)?;
                if reader.fetch_ops() - ops_before != r.fetched_components as u64 {
                    return Err(HpdrError::invalid(
                        "refine re-fetched an already-held component",
                    ));
                }
                let err = max_err(&r.data);
                if err > abs {
                    return Err(HpdrError::invalid(format!(
                        "refined error {err:.3e} exceeds tolerance {abs:.3e}"
                    )));
                }
                Ok((rel, abs, r, err))
            })
            .transpose()?;

        let mut lines;
        if json {
            let mut doc = format!(
                concat!(
                    "{{\"schema\":\"hpdr-progressive/v1\",\"side\":{},",
                    "\"range\":{:.6e},\"components_total\":{},\"total_bytes\":{},",
                    "\"tolerance_rel\":{:.6e},\"tolerance_abs\":{:.6e},",
                    "\"fetched_bytes\":{},\"fetched_components\":{},",
                    "\"bound\":{:.6e},\"max_error\":{:.6e}"
                ),
                side,
                range,
                num_components,
                total,
                tolerance,
                abs_tol,
                first.fetched_bytes,
                first.fetched_components,
                first.bound,
                err,
            );
            if let Some((rel, abs, r, rerr)) = &refined {
                doc.push_str(&format!(
                    concat!(
                        ",\"refine\":{{\"tolerance_rel\":{:.6e},\"tolerance_abs\":{:.6e},",
                        "\"delta_bytes\":{},\"delta_components\":{},",
                        "\"bound\":{:.6e},\"max_error\":{:.6e}}}"
                    ),
                    rel, abs, r.fetched_bytes, r.fetched_components, r.bound, rerr,
                ));
            }
            doc.push_str(&format!(",\"io_model_ns\":{}", reader.io_time().0));
            doc.push('}');
            lines = vec![doc];
        } else {
            lines = vec![
                format!(
                    "retrieve: NYX {side}^3 f32, {num_components} components, {total} bytes stored"
                ),
                format!(
                    "  tolerance {tolerance:.1e} rel ({abs_tol:.3e} abs): fetched {} / {} bytes \
                     ({} components), bound {:.3e}, max error {err:.3e}",
                    first.fetched_bytes, total, first.fetched_components, first.bound
                ),
            ];
            if let Some((rel, abs, r, rerr)) = &refined {
                lines.push(format!(
                    "  refine to {rel:.1e} rel ({abs:.3e} abs): +{} bytes ({} components, \
                     zero re-fetches), bound {:.3e}, max error {rerr:.3e}",
                    r.fetched_bytes, r.fetched_components, r.bound
                ));
            }
            lines.push(format!(
                "  modeled I/O time (Summit GPFS): {}",
                reader.io_time()
            ));
        }
        if let Some(path) = out {
            let doc = if json {
                lines[0].clone()
            } else {
                lines.join("\n")
            };
            std::fs::write(path, doc.as_bytes())?;
            lines.push(format!("wrote {path}"));
        }
        Ok(lines)
    };

    let result = ProgressiveReader::open(&dir)
        .map(|r| r.with_cost_model(hpdr_io::FetchCostModel::new(hpdr_io::summit_gpfs(), 4)))
        .and_then(|mut reader| run(&mut reader));
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Map pipeline options onto the linter's declared-schedule config.
fn lint_config(
    direction: hpdr_verify::Direction,
    opts: &hpdr_pipeline::PipelineOptions,
) -> hpdr_verify::LintConfig {
    hpdr_verify::LintConfig {
        direction,
        two_buffers: opts.two_buffers,
        cmm: opts.cmm,
        deser_first: opts.deser_first,
        serial_queue: opts.serial_queue,
    }
}

/// The progressive retrievals `hpdr verify` and `hpdr audit` certify
/// beside the pipelines: a 16³ NYX refactoring (seed 7) planned at a
/// loose and a tight tolerance, which fetch different component subsets
/// under the same invariants. Retrieval is single-pass and never stages
/// through pinned chunk buffers, so the plans take the lints of an
/// unpipelined decompression with CMM reuse, returned with them.
fn retrieval_plans(
    spec: &hpdr_sim::DeviceSpec,
    adapter: &std::sync::Arc<dyn hpdr_core::DeviceAdapter>,
) -> Result<(
    hpdr_verify::LintConfig,
    Vec<(&'static str, hpdr_sim::Sim<'static>)>,
)> {
    use hpdr_progressive::{plan_retrieve, refactor_progressive, ProgressiveConfig};
    use std::sync::Arc;

    let data = crate::data::nyx_density(16, 7);
    let values: Vec<f32> = data
        .bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let set = Arc::new(refactor_progressive(
        adapter.as_ref(),
        &values,
        &data.shape,
        &ProgressiveConfig::default(),
    )?);
    let lint = hpdr_verify::LintConfig {
        direction: hpdr_verify::Direction::Decompress,
        two_buffers: false,
        cmm: true,
        deser_first: false,
        serial_queue: false,
    };
    let plans = [
        ("progressive/loose", set.manifest.base_bound() / 2.0),
        ("progressive/tight", set.manifest.full_bound() * 4.0),
    ]
    .into_iter()
    .map(|(name, tol)| {
        Ok((
            name,
            plan_retrieve(spec, Arc::clone(adapter), Arc::clone(&set), tol)?,
        ))
    })
    .collect::<Result<_>>()?;
    Ok((lint, plans))
}

/// Statically verify every shipped pipeline configuration: build each
/// compression and reconstruction DAG (without executing it), run the
/// hazard analyzer and the schedule lints, and report per config.
///
/// Returns `Err` (→ non-zero exit) if any configuration is not clean.
fn verify_schedules(json: bool) -> Result<Vec<String>> {
    use hpdr_huffman::ByteHuffmanReducer;
    use hpdr_pipeline::{
        compress_pipelined, plan_compress, plan_decompress, PipelineMode, PipelineOptions,
    };
    use hpdr_verify::{Direction, LintConfig};
    use std::sync::Arc;

    let spec = hpdr_sim::v100();
    let adapter: Arc<dyn hpdr_core::DeviceAdapter> = Arc::new(CpuParallelAdapter::with_defaults());
    let reducer: Arc<dyn hpdr_core::Reducer> = Arc::new(ByteHuffmanReducer::default());

    // Small synthetic input: 64 rows × 256 f32 (64 KiB) — enough rows for
    // multi-chunk schedules under every mode.
    let meta = ArrayMeta::new(DType::F32, Shape::try_new(&[64, 256])?);
    let row_bytes = (meta.shape.row_elements() * meta.dtype.size()) as u64;
    let input: Arc<Vec<u8>> = Arc::new(
        (0..meta.num_bytes() / 4)
            .flat_map(|i| ((i % 251) as f32).to_le_bytes())
            .collect(),
    );

    let modes = [
        ("unpipelined", PipelineMode::Unpipelined),
        (
            "fixed",
            PipelineMode::Fixed {
                chunk_bytes: 8 * row_bytes,
            },
        ),
        (
            "adaptive",
            PipelineMode::Adaptive {
                init_bytes: 4 * row_bytes,
                limit_bytes: 16 * row_bytes,
            },
        ),
    ];
    let mut configs: Vec<(String, PipelineOptions)> = Vec::new();
    for (mode_name, mode) in modes {
        for two_buffers in [false, true] {
            for cmm in [false, true] {
                for deser_first in [false, true] {
                    configs.push((
                        format!(
                            "{mode_name} two_buffers={} cmm={} deser_first={}",
                            two_buffers as u8, cmm as u8, deser_first as u8
                        ),
                        PipelineOptions {
                            mode,
                            two_buffers,
                            cmm,
                            deser_first,
                            serial_queue: false,
                            host_staging: false,
                        },
                    ));
                }
            }
        }
    }
    configs.push((
        "baseline-unoptimized".to_string(),
        PipelineOptions::baseline_unoptimized(),
    ));
    configs.push((
        "baseline-per-step".to_string(),
        PipelineOptions::baseline_per_step(8 * row_bytes),
    ));

    let mut lines = Vec::new();
    let mut json_items = Vec::new();
    let (mut checked, mut dirty) = (0usize, 0usize);
    // One report step for every plan: both directions of each pipeline
    // config, then the retrievals.
    let mut report_plan = |name: &str, dir: &str, lint: &LintConfig, sim: hpdr_sim::Sim| {
        let dag = sim.dag();
        let report = hpdr_verify::check(&dag, lint);
        checked += 1;
        if json {
            json_items.push(format!(
                "{{\"config\":\"{name}\",\"direction\":\"{dir}\",\"report\":{}}}",
                report.to_json(&dag)
            ));
        } else if report.is_clean() {
            lines.push(format!(
                "ok   {dir:<10} {name}  ({} ops, {} pairs checked)",
                report.analysis.num_ops, report.analysis.checked_pairs
            ));
        } else {
            lines.push(format!("FAIL {dir:<10} {name}"));
            for l in report.describe(&dag).lines() {
                lines.push(format!("       {l}"));
            }
        }
        if !report.is_clean() {
            dirty += 1;
        }
    };
    for (name, opts) in &configs {
        let sim = plan_compress(
            &spec,
            Arc::clone(&adapter),
            Arc::clone(&reducer),
            Arc::clone(&input),
            &meta,
            opts,
        )?;
        report_plan(
            name,
            "compress",
            &lint_config(Direction::Compress, opts),
            sim,
        );

        let (container, _) = compress_pipelined(
            &spec,
            Arc::clone(&adapter),
            Arc::clone(&reducer),
            Arc::clone(&input),
            &meta,
            opts,
        )?;
        let sim = plan_decompress(
            &spec,
            Arc::clone(&adapter),
            Arc::clone(&reducer),
            &container,
            opts,
        )?;
        report_plan(
            name,
            "decompress",
            &lint_config(Direction::Decompress, opts),
            sim,
        );
    }
    let (lint, plans) = retrieval_plans(&spec, &adapter)?;
    for (name, sim) in plans {
        report_plan(name, "retrieve", &lint, sim);
    }

    if json {
        // Same envelope family as `hpdr audit` (see hpdr_verify::envelope).
        lines.push(hpdr_verify::envelope::wrap(
            hpdr_verify::envelope::SCHEMA_VERIFY,
            dirty == 0,
            &format!(
                "\"checked\":{checked},\"dirty\":{dirty},\"configs\":[{}]",
                json_items.join(",")
            ),
        ));
    } else {
        lines.push(format!(
            "{checked} schedule(s) verified, {dirty} with findings"
        ));
    }
    if dirty > 0 {
        return Err(HpdrError::invalid(format!(
            "schedule verification failed for {dirty} configuration(s):\n{}",
            lines.join("\n")
        )));
    }
    Ok(lines)
}

/// Dynamically audit every shipped codec × adapter configuration: run
/// the real payloads under the memory pool's shadow-access recorder and
/// diff each op's observed buffer accesses against its declaration,
/// then explore bounded alternate interleavings of the happens-before
/// DAG and assert the schedule invariants in every admissible one.
///
/// Returns `Err` (→ non-zero exit, the same discipline as
/// `hpdr verify`) if any configuration is unsound.
fn audit_schedules(json: bool, out: Option<&str>) -> Result<Vec<String>> {
    use hpdr_audit::{diff_effects, explore, AuditReport, ConfigAudit, ExploreOptions};
    use hpdr_pipeline::{
        compress_pipelined, plan_compress, plan_decompress, PipelineMode, PipelineOptions,
    };
    use hpdr_verify::{Direction, LintConfig};
    use std::sync::Arc;

    let spec = hpdr_sim::v100();
    // Small input: 32 rows × 128 f32 (16 KiB), chunked at 8 rows — four
    // chunks, enough for the steady-state pipeline invariants, small
    // enough to run every codec × adapter pair under the recorder.
    let meta = ArrayMeta::new(DType::F32, Shape::try_new(&[32, 128])?);
    let row_bytes = (meta.shape.row_elements() * meta.dtype.size()) as u64;
    let input: Arc<Vec<u8>> = Arc::new(
        (0..meta.num_bytes() / 4)
            .flat_map(|i| ((i % 251) as f32).to_le_bytes())
            .collect(),
    );

    let codecs: [(&str, Codec); 5] = [
        ("mgard", Codec::Mgard(MgardConfig::relative(1e-2))),
        ("zfp", Codec::Zfp(ZfpConfig::fixed_rate(16))),
        ("huffman", Codec::Huffman),
        ("sz", Codec::Sz(SzConfig::relative(1e-3))),
        ("lz4", Codec::Lz4),
    ];
    let adapters: [(&str, Arc<dyn hpdr_core::DeviceAdapter>); 3] = [
        ("serial", Arc::new(hpdr_core::SerialAdapter::new())),
        (
            "cpu-parallel",
            Arc::new(CpuParallelAdapter::with_defaults()),
        ),
        ("gpu-sim", Arc::new(crate::GpuSimAdapter::new(spec.clone()))),
    ];
    // The fully optimized pipeline for the codec × adapter matrix; the
    // two baseline schedules ride along once (they exercise the
    // alloc/free replay paths the optimized plan removes via the CMM).
    let optimized = PipelineOptions {
        mode: PipelineMode::Fixed {
            chunk_bytes: 8 * row_bytes,
        },
        two_buffers: true,
        cmm: true,
        deser_first: true,
        serial_queue: false,
        host_staging: false,
    };
    let explore_opts = ExploreOptions::default();
    let mut report = AuditReport::default();

    let audit_one = |report: &mut AuditReport,
                     name: String,
                     lint: &LintConfig,
                     mut sim: hpdr_sim::Sim|
     -> Result<()> {
        let dag = sim.dag();
        sim.set_audit(true);
        sim.run();
        let effects = diff_effects(&dag, &sim.take_observed());
        let explore = explore(&dag, lint, &explore_opts).map_err(HpdrError::invalid)?;
        report.configs.push(ConfigAudit {
            name,
            direction: match lint.direction {
                Direction::Compress => "compress",
                Direction::Decompress => "decompress",
            },
            effects,
            explore,
        });
        Ok(())
    };

    let audit_pair = |report: &mut AuditReport,
                      name: String,
                      reducer: Arc<dyn hpdr_core::Reducer>,
                      adapter: Arc<dyn hpdr_core::DeviceAdapter>,
                      opts: &PipelineOptions|
     -> Result<()> {
        let sim = plan_compress(
            &spec,
            Arc::clone(&adapter),
            Arc::clone(&reducer),
            Arc::clone(&input),
            &meta,
            opts,
        )?;
        audit_one(
            report,
            name.clone(),
            &lint_config(Direction::Compress, opts),
            sim,
        )?;
        let (container, _) = compress_pipelined(
            &spec,
            Arc::clone(&adapter),
            Arc::clone(&reducer),
            Arc::clone(&input),
            &meta,
            opts,
        )?;
        let sim = plan_decompress(&spec, adapter, reducer, &container, opts)?;
        audit_one(report, name, &lint_config(Direction::Decompress, opts), sim)
    };

    for (codec_name, codec) in &codecs {
        for (adapter_name, adapter) in &adapters {
            audit_pair(
                &mut report,
                format!("{codec_name}/{adapter_name}"),
                codec.reducer(),
                Arc::clone(adapter),
                &optimized,
            )?;
        }
    }
    for (base_name, base_opts) in [
        (
            "baseline-unoptimized",
            PipelineOptions::baseline_unoptimized(),
        ),
        (
            "baseline-per-step",
            PipelineOptions::baseline_per_step(8 * row_bytes),
        ),
    ] {
        audit_pair(
            &mut report,
            format!("huffman/serial {base_name}"),
            Codec::Huffman.reducer(),
            Arc::clone(&adapters[0].1),
            &base_opts,
        )?;
    }

    // Progressive retrieval rides along once per fidelity: replay the
    // real fetch/decode/reconstruct payloads under the shadow-access
    // recorder and explore alternate interleavings of the retrieval
    // DAG, the same certification the pipelines get.
    let (lint, plans) = retrieval_plans(&spec, &adapters[1].1)?;
    for (name, sim) in plans {
        audit_one(&mut report, name.to_string(), &lint, sim)?;
    }

    let doc = report.to_json();
    hpdr_audit::validate_audit_json(&doc)
        .map_err(|e| HpdrError::invalid(format!("audit report failed validation: {e}")))?;
    let mut lines = if json {
        vec![doc.clone()]
    } else {
        report.describe()
    };
    if let Some(path) = out {
        std::fs::write(path, doc.as_bytes())?;
        lines.push(format!("wrote {path}"));
    }
    if !report.is_sound() {
        return Err(HpdrError::invalid(format!(
            "audit found {} unsound finding(s) across {} configuration(s):\n{}",
            report.errors(),
            report.configs.len(),
            lines.join("\n")
        )));
    }
    Ok(lines)
}

/// `hpdr trace`: record a 2-chunk adaptive MGARD-X compression of a
/// small NYX sample and emit (validated) Chrome-trace JSON.
fn trace_run(out: Option<String>) -> Result<Vec<String>> {
    use hpdr_pipeline::{compress_pipelined, PipelineMode, PipelineOptions};
    use std::sync::Arc;

    let spec = hpdr_sim::v100();
    let data = crate::data::nyx_density(64, 1);
    let meta = ArrayMeta::new(DType::F32, data.shape.clone());
    let total = data.bytes.len() as u64;
    let input: Arc<Vec<u8>> = Arc::new(data.bytes);
    // init == limit == half the array → exactly two adaptive chunks.
    let opts = PipelineOptions {
        mode: PipelineMode::Adaptive {
            init_bytes: total / 2,
            limit_bytes: total / 2,
        },
        ..PipelineOptions::default()
    };
    let work: Arc<dyn hpdr_core::DeviceAdapter> = Arc::new(crate::GpuSimAdapter::new(spec.clone()));
    let reducer = Codec::Mgard(MgardConfig::relative(1e-2)).reducer();
    let (_, report) = compress_pipelined(&spec, work, reducer, input, &meta, &opts)?;
    let json = hpdr_trace::to_chrome_trace(&report.trace);
    let summary = hpdr_trace::validate_chrome_trace(&json)
        .map_err(|e| HpdrError::invalid(format!("emitted trace failed validation: {e}")))?;
    let mut lines = vec![format!(
        "traced {} ops across {} chunks, makespan {}",
        report.trace.len(),
        report.num_chunks,
        report.makespan
    )];
    match out {
        Some(path) => {
            std::fs::write(&path, json.as_bytes())?;
            lines.push(format!(
                "wrote {path}: {} metadata + {} span events, {} processes",
                summary.metadata_events,
                summary.complete_events,
                summary.pids.len()
            ));
            lines.push("open it at https://ui.perfetto.dev or chrome://tracing".to_string());
        }
        None => lines.push(json),
    }
    Ok(lines)
}

fn profile_run(figure: Option<&str>, json: bool) -> Result<Vec<String>> {
    match figure {
        None => profile_default(json),
        Some("fig1") => profile_fig1(json),
        Some(other) => Err(HpdrError::invalid(format!(
            "unknown figure '{other}' (supported: fig1)"
        ))),
    }
}

/// `hpdr profile`: compress and decompress a small NYX sample through
/// the adaptive pipeline, report both profiles, and enforce the trace
/// invariants (non-zero exit on violation — the CI smoke gate).
fn profile_default(json: bool) -> Result<Vec<String>> {
    use hpdr_pipeline::{compress_pipelined, decompress_pipelined, PipelineMode, PipelineOptions};
    use std::sync::Arc;

    let spec = hpdr_sim::v100();
    let data = crate::data::nyx_density(32, 1);
    let meta = ArrayMeta::new(DType::F32, data.shape.clone());
    let total = data.bytes.len() as u64;
    let input: Arc<Vec<u8>> = Arc::new(data.bytes);
    let opts = PipelineOptions {
        mode: PipelineMode::Adaptive {
            init_bytes: total / 4,
            limit_bytes: total / 2,
        },
        ..PipelineOptions::default()
    };
    let work: Arc<dyn hpdr_core::DeviceAdapter> = Arc::new(crate::GpuSimAdapter::new(spec.clone()));
    let reducer = Codec::Mgard(MgardConfig::relative(1e-2)).reducer();
    let (container, creport) = compress_pipelined(
        &spec,
        Arc::clone(&work),
        Arc::clone(&reducer),
        input,
        &meta,
        &opts,
    )?;
    let (_, _, dreport) = decompress_pipelined(&spec, work, reducer, &container, &opts)?;
    let cprof = hpdr_trace::Profile::from_trace(&creport.trace).map_err(HpdrError::invalid)?;
    let dprof = hpdr_trace::Profile::from_trace(&dreport.trace).map_err(HpdrError::invalid)?;
    if json {
        return Ok(vec![format!(
            "{{\"compress\":{},\"decompress\":{}}}",
            cprof.to_json(),
            dprof.to_json()
        )]);
    }
    let mut lines =
        vec!["== compress (NYX 32^3, adaptive pipeline, simulated V100) ==".to_string()];
    lines.extend(cprof.render());
    lines.push("== decompress ==".to_string());
    lines.extend(dprof.render());
    lines.push("profile invariants ok (2 traced runs)".to_string());
    Ok(lines)
}

/// `hpdr profile --figure fig1`: memory-op time share of the four
/// comparator codecs without pipeline optimization. The paper reports
/// 34–89% across codecs and GPUs; any share outside that band is an
/// error (non-zero exit).
fn profile_fig1(json: bool) -> Result<Vec<String>> {
    use hpdr_pipeline::{compress_pipelined, decompress_pipelined, PipelineOptions};
    use std::sync::Arc;

    const BAND: (f64, f64) = (0.34, 0.89);
    let spec = hpdr_sim::v100();
    let data = crate::data::nyx_density(32, 1);
    let meta = ArrayMeta::new(DType::F32, data.shape.clone());
    let input: Arc<Vec<u8>> = Arc::new(data.bytes);
    // Non-pipelined with pageable host staging: the paper's Fig. 1
    // baselines move every byte through an extra host copy but are not
    // artificially serialized.
    let opts = PipelineOptions {
        host_staging: true,
        ..PipelineOptions::unpipelined()
    };
    let codecs = [
        Codec::Mgard(MgardConfig::relative(1e-2)),
        Codec::Sz(SzConfig::relative(1e-2)),
        Codec::Zfp(ZfpConfig::fixed_rate(16)),
        Codec::Lz4,
    ];
    let mut lines = Vec::new();
    let mut json_items = Vec::new();
    let mut out_of_band = Vec::new();
    for codec in codecs {
        let work: Arc<dyn hpdr_core::DeviceAdapter> =
            Arc::new(crate::GpuSimAdapter::new(spec.clone()));
        let reducer = codec.reducer();
        let (container, creport) = compress_pipelined(
            &spec,
            Arc::clone(&work),
            Arc::clone(&reducer),
            Arc::clone(&input),
            &meta,
            &opts,
        )?;
        let (_, _, dreport) = decompress_pipelined(&spec, work, reducer, &container, &opts)?;
        let (c, d) = (creport.memory_fraction, dreport.memory_fraction);
        for (dir, share) in [("compress", c), ("decompress", d)] {
            if !(BAND.0..=BAND.1).contains(&share) {
                out_of_band.push(format!("{} {dir} {:.1}%", codec.name(), share * 100.0));
            }
        }
        json_items.push(format!(
            "{{\"codec\":\"{}\",\"compress\":{c:.6},\"decompress\":{d:.6}}}",
            codec.name()
        ));
        lines.push(format!(
            "{:10} memory ops {:5.1}% of compress, {:5.1}% of decompress",
            codec.name(),
            c * 100.0,
            d * 100.0
        ));
    }
    if !out_of_band.is_empty() {
        return Err(HpdrError::invalid(format!(
            "memory-op share outside the paper's 34-89% band: {}",
            out_of_band.join(", ")
        )));
    }
    if json {
        lines = vec![format!(
            "{{\"band\":[{},{}],\"codecs\":[{}]}}",
            BAND.0,
            BAND.1,
            json_items.join(",")
        )];
    } else {
        lines.insert(
            0,
            "Fig. 1 — memory-op time share, unpipelined, simulated V100, NYX 32^3:".to_string(),
        );
        lines.push("paper band: 34-89% — all codecs within band".to_string());
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_sim::json::{need, need_str, need_u64, parse_json, JsonValue};
    use hpdr_verify::envelope;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parse_shape_variants() {
        assert_eq!(parse_shape("4x5x6").unwrap().dims(), &[4, 5, 6]);
        assert_eq!(parse_shape("128").unwrap().dims(), &[128]);
        assert!(parse_shape("4xx5").is_err());
        assert!(parse_shape("4x0").is_err());
        assert!(parse_shape("a").is_err());
    }

    #[test]
    fn oversized_shape_is_an_invalid_argument() {
        let err = parse_shape("4294967296x4294967296").unwrap_err();
        assert!(matches!(err, HpdrError::InvalidArgument(_)), "{err:?}");
        assert!(
            err.to_string()
                .contains("bad shape '4294967296x4294967296'"),
            "{err}"
        );
        let err = parse(&argv(
            "compress --codec mgard --rel-eb 1e-2 --shape 4294967296x4294967296 \
             --dtype f32 --input a.bin --output a.hpdr",
        ))
        .unwrap_err();
        assert!(matches!(err, HpdrError::InvalidArgument(_)), "{err:?}");
    }

    #[test]
    fn parse_full_compress_command() {
        let cmd = parse(&argv(
            "compress --codec mgard --rel-eb 1e-2 --shape 8x8 --dtype f32 \
             --input a.bin --output a.hpdr",
        ))
        .unwrap();
        match cmd {
            Command::Compress {
                codec,
                shape,
                dtype,
                input,
                output,
            } => {
                assert_eq!(codec.name(), "mgard-x");
                assert_eq!(shape.dims(), &[8, 8]);
                assert_eq!(dtype, DType::F32);
                assert_eq!(input, "a.bin");
                assert_eq!(output, "a.hpdr");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn missing_flags_are_errors() {
        assert!(parse(&argv("compress --codec mgard")).is_err());
        assert!(parse(&argv("decompress --input x")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(matches!(parse(&argv("help")).unwrap(), Command::Help));
        assert!(matches!(parse(&[]).unwrap(), Command::Help));
    }

    #[test]
    fn codec_parameter_parsing() {
        let c = parse_codec(&argv("compress --codec zfp --rate 8")).unwrap();
        assert_eq!(c.name(), "zfp-x");
        let c = parse_codec(&argv("compress --codec sz --rel-eb 1e-4")).unwrap();
        assert_eq!(c.name(), "cusz-like");
        assert!(parse_codec(&argv("compress --codec gzip")).is_err());
        assert!(parse_codec(&argv("compress --codec zfp --rate nope")).is_err());
    }

    #[test]
    fn parse_serve_and_loadgen_commands() {
        match parse(&argv(
            "serve --devices 3 --policy serial --jobs q.txt --json",
        ))
        .unwrap()
        {
            Command::Serve {
                devices,
                policy,
                jobs,
                json,
                out,
                flight_out,
            } => {
                assert_eq!(devices, 3);
                assert_eq!(policy, hpdr_serve::Policy::Serial);
                assert_eq!(jobs.as_deref(), Some("q.txt"));
                assert!(json);
                assert_eq!(out, None);
                assert_eq!(flight_out, None);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("serve --policy fifo")).is_err());
        // --devices is clamped to at least one device, not rejected.
        match parse(&argv("serve --devices 0")).unwrap() {
            Command::Serve { devices, .. } => assert_eq!(devices, 1),
            other => panic!("{other:?}"),
        }

        match parse(&argv("loadgen --quick --seed 11 --closed")).unwrap() {
            Command::Loadgen {
                opts,
                json,
                out,
                expo,
                flight_out,
            } => {
                assert_eq!(opts.seed, 11);
                assert!(opts.closed);
                assert!(!opts.metrics);
                assert!(!opts.flight);
                assert!(!json);
                assert_eq!(out, None);
                assert_eq!(expo, None);
                assert_eq!(flight_out, None);
                // --quick preset survives the overrides it doesn't name.
                assert_eq!(
                    opts,
                    hpdr_serve::LoadgenOptions {
                        seed: 11,
                        closed: true,
                        ..hpdr_serve::LoadgenOptions::quick()
                    }
                );
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("loadgen --rps 0")).is_err());
        assert!(parse(&argv("loadgen --duration -1")).is_err());
    }

    #[test]
    fn parse_cluster_command() {
        match parse(&argv(
            "cluster --quick --nodes 3 --policy random --fail-node 1@250 --json --out c.json",
        ))
        .unwrap()
        {
            Command::Cluster {
                opts,
                json,
                out,
                flight_out,
            } => {
                assert_eq!(opts.nodes, 3);
                assert_eq!(opts.policy, hpdr_shard::PlacementPolicy::Random);
                assert_eq!(opts.fail, Some((1, hpdr_sim::Ns::from_micros(250))));
                assert_eq!(opts.base.seed, hpdr_serve::LoadgenOptions::quick().seed);
                assert!(
                    !opts.base.metrics,
                    "cluster runs never install the registry"
                );
                assert!(json);
                assert_eq!(out.as_deref(), Some("c.json"));
                assert_eq!(flight_out, None);
            }
            other => panic!("{other:?}"),
        }
        // Defaults: 4 nodes, locality, no failure.
        match parse(&argv("cluster --quick")).unwrap() {
            Command::Cluster { opts, .. } => {
                assert_eq!(opts.nodes, 4);
                assert_eq!(opts.policy, hpdr_shard::PlacementPolicy::Locality);
                assert_eq!(opts.fail, None);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("cluster --policy round-robin")).is_err());
        assert!(parse(&argv("cluster --fail-node 1")).is_err());
        assert!(parse(&argv("cluster --fail-node one@5")).is_err());

        // loadgen --nodes n>1 routes through the cluster front-end;
        // --nodes 1 stays a plain loadgen run.
        match parse(&argv("loadgen --quick --nodes 2")).unwrap() {
            Command::Cluster { opts, .. } => assert_eq!(opts.nodes, 2),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse(&argv("loadgen --quick --nodes 1")).unwrap(),
            Command::Loadgen { .. }
        ));
    }

    #[test]
    fn parse_flight_out_and_explain_commands() {
        match parse(&argv("serve --devices 2 --flight-out f.json")).unwrap() {
            Command::Serve { flight_out, .. } => {
                assert_eq!(flight_out.as_deref(), Some("f.json"));
            }
            other => panic!("{other:?}"),
        }
        // --flight-out turns the recorder on for the loadgen run.
        match parse(&argv("loadgen --quick --flight-out f.json")).unwrap() {
            Command::Loadgen {
                opts, flight_out, ..
            } => {
                assert!(opts.flight, "--flight-out must enable the recorder");
                assert_eq!(flight_out.as_deref(), Some("f.json"));
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("cluster --quick --flight-out f.json")).unwrap() {
            Command::Cluster { flight_out, .. } => {
                assert_eq!(flight_out.as_deref(), Some("f.json"));
            }
            other => panic!("{other:?}"),
        }
        // loadgen routed through the cluster keeps the flag.
        match parse(&argv("loadgen --quick --nodes 2 --flight-out f.json")).unwrap() {
            Command::Cluster { flight_out, .. } => {
                assert_eq!(flight_out.as_deref(), Some("f.json"));
            }
            other => panic!("{other:?}"),
        }

        match parse(&argv("explain --report c.json --job 7 --worst 5")).unwrap() {
            Command::Explain { report, job, worst } => {
                assert_eq!(report, "c.json");
                assert_eq!(job, Some(7));
                assert_eq!(worst, 5);
            }
            other => panic!("{other:?}"),
        }
        // Defaults: worst 3, no single-job filter; --report is required.
        match parse(&argv("explain --report c.json")).unwrap() {
            Command::Explain { report, job, worst } => {
                assert_eq!(report, "c.json");
                assert_eq!(job, None);
                assert_eq!(worst, 3);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("explain")).is_err());
        assert!(parse(&argv("explain --report c.json --job seven")).is_err());
    }

    #[test]
    fn parse_metrics_top_and_slo_commands() {
        // --expo implies --metrics on loadgen.
        match parse(&argv("loadgen --quick --expo m.prom")).unwrap() {
            Command::Loadgen { opts, expo, .. } => {
                assert!(opts.metrics);
                assert_eq!(expo.as_deref(), Some("m.prom"));
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("loadgen --quick --metrics")).unwrap() {
            Command::Loadgen { opts, expo, .. } => {
                assert!(opts.metrics);
                assert_eq!(expo, None);
            }
            other => panic!("{other:?}"),
        }

        // top forces metrics on and shares the loadgen workload flags.
        match parse(&argv("top --quick --seed 3 --tail 12")).unwrap() {
            Command::Top { opts, tail } => {
                assert!(opts.metrics);
                assert_eq!(opts.seed, 3);
                assert_eq!(tail, 12);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("top")).unwrap() {
            Command::Top { tail, .. } => assert_eq!(tail, 5),
            other => panic!("{other:?}"),
        }

        match parse(&argv("slo --report LOADGEN.json")).unwrap() {
            Command::Slo { report, .. } => assert_eq!(report.as_deref(), Some("LOADGEN.json")),
            other => panic!("{other:?}"),
        }
        match parse(&argv("slo --quick")).unwrap() {
            Command::Slo { opts, report } => {
                assert!(opts.metrics);
                assert_eq!(report, None);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("top --rps 0")).is_err());
    }

    #[test]
    fn top_and_slo_run_a_quick_metered_workload() {
        let quick = hpdr_serve::LoadgenOptions {
            metrics: true,
            ..hpdr_serve::LoadgenOptions::quick()
        };
        let lines = run(Command::Top {
            opts: quick,
            tail: 4,
        })
        .unwrap();
        let text = lines.join("\n");
        assert!(text.contains("serve_queue_jobs"), "{text}");
        assert!(text.contains("slo_burn_rate"), "{text}");
        // Volatile pool gauges appear in the table but are marked.
        assert!(text.contains("~pool_workers"), "{text}");

        // The quick workload meets its SLO, so `hpdr slo` succeeds and
        // reports per-tenant attainment.
        let lines = run(Command::Slo {
            opts: quick,
            report: None,
        })
        .unwrap();
        let text = lines.join("\n");
        assert!(text.contains("latency target"), "{text}");
        assert!(text.contains("tenant"), "{text}");
    }

    #[test]
    fn parse_bench_compare_command() {
        match parse(&argv("bench --compare old.json new.json --threshold 0.25")).unwrap() {
            Command::BenchCompare { a, b, threshold } => {
                assert_eq!(a, "old.json");
                assert_eq!(b, "new.json");
                assert!((threshold - 0.25).abs() < 1e-12);
            }
            other => panic!("{other:?}"),
        }
        // Default threshold.
        match parse(&argv("bench --compare a.json b.json")).unwrap() {
            Command::BenchCompare { threshold, .. } => {
                assert!((threshold - 0.10).abs() < 1e-12)
            }
            other => panic!("{other:?}"),
        }
        // Missing the second baseline path is an error.
        assert!(parse(&argv("bench --compare only-one.json")).is_err());
    }

    #[test]
    fn parse_retrieve_command() {
        match parse(&argv("retrieve")).unwrap() {
            Command::Retrieve {
                side,
                tolerance,
                refine,
                json,
                out,
            } => {
                assert_eq!(side, 32);
                assert!((tolerance - 1e-2).abs() < 1e-15);
                assert_eq!(refine, None);
                assert!(!json);
                assert_eq!(out, None);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv(
            "retrieve --side 16 --tolerance 1e-1 --refine 1e-3 --json --out r.json",
        ))
        .unwrap()
        {
            Command::Retrieve {
                side,
                tolerance,
                refine,
                json,
                out,
            } => {
                assert_eq!(side, 16);
                assert!((tolerance - 1e-1).abs() < 1e-15);
                assert!((refine.unwrap() - 1e-3).abs() < 1e-15);
                assert!(json);
                assert_eq!(out.as_deref(), Some("r.json"));
            }
            other => panic!("{other:?}"),
        }
        // --side is clamped rather than rejected; bad bounds are errors.
        match parse(&argv("retrieve --side 1")).unwrap() {
            Command::Retrieve { side, .. } => assert_eq!(side, 4),
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("retrieve --tolerance 0")).is_err());
        assert!(parse(&argv("retrieve --refine -2")).is_err());
        assert!(parse(&argv("retrieve --tolerance nope")).is_err());
    }

    #[test]
    fn retrieve_fetches_fewer_bytes_at_looser_tolerance() {
        let loose =
            run(parse(&argv("retrieve --side 16 --tolerance 1e-1 --json")).unwrap()).unwrap();
        let tight = run(parse(&argv(
            "retrieve --side 16 --tolerance 1e-3 --refine 1e-5 --json",
        ))
        .unwrap())
        .unwrap();
        let (loose, tight) = (
            parse_json(&loose[0]).unwrap(),
            parse_json(&tight[0]).unwrap(),
        );
        for doc in [&loose, &tight] {
            assert_eq!(
                need_str(doc, "schema", "retrieve"),
                Ok("hpdr-progressive/v1")
            );
        }
        let bytes = |doc: &JsonValue| need_u64(doc, "fetched_bytes", "retrieve").unwrap();
        let (lb, tb) = (bytes(&loose), bytes(&tight));
        assert!(lb < tb, "loose fetch {lb} not < tight fetch {tb}");
        assert!(loose.get("refine").is_none());
        need_u64(
            need(&tight, "refine", "retrieve").unwrap(),
            "delta_bytes",
            "refine",
        )
        .unwrap();
    }

    #[test]
    fn end_to_end_file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("hpdr-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("raw.bin");
        let comp = dir.join("out.hpdr");
        let back = dir.join("back.bin");
        // 16x16 f32 ramp.
        let data: Vec<u8> = (0..256u32)
            .flat_map(|i| (i as f32 * 0.5).to_le_bytes())
            .collect();
        std::fs::write(&raw, &data).unwrap();

        let msg = run(parse(&argv(&format!(
            "compress --codec lz4 --shape 16x16 --dtype f32 --input {} --output {}",
            raw.display(),
            comp.display()
        )))
        .unwrap())
        .unwrap();
        assert!(msg[0].contains("lz4"));

        run(parse(&argv(&format!(
            "decompress --input {} --output {}",
            comp.display(),
            back.display()
        )))
        .unwrap())
        .unwrap();
        assert_eq!(std::fs::read(&back).unwrap(), data);

        let info = run(parse(&argv(&format!("info --input {}", comp.display()))).unwrap()).unwrap();
        assert!(info.iter().any(|l| l.contains("16x16")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_reports_all_shipped_configs_clean() {
        assert!(matches!(
            parse(&argv("verify --json")).unwrap(),
            Command::Verify { json: true }
        ));
        let lines = run(parse(&argv("verify")).unwrap()).unwrap();
        assert!(
            lines.last().unwrap().contains("0 with findings"),
            "{lines:?}"
        );
        let json = run(Command::Verify { json: true }).unwrap();
        let blob = json.last().unwrap();
        // Shared envelope family with `hpdr audit`.
        assert_eq!(
            envelope::header(&parse_json(blob).unwrap(), envelope::SCHEMA_VERIFY),
            Ok(true),
            "{blob}"
        );
        assert!(blob.contains("\"dirty\":0"), "{blob}");
        assert!(blob.contains("\"hazards\":[]"));
    }

    #[test]
    fn audit_reports_all_shipped_configs_sound() {
        assert!(matches!(
            parse(&argv("audit --json --out a.json")).unwrap(),
            Command::Audit { json: true, out: Some(ref p) } if p == "a.json"
        ));
        let lines = run(parse(&argv("audit")).unwrap()).unwrap();
        assert!(
            lines
                .last()
                .unwrap()
                .contains("0 error(s), 0 warning(s), 0 interleaving violation(s)"),
            "{lines:?}"
        );
        let json = run(Command::Audit {
            json: true,
            out: None,
        })
        .unwrap();
        let blob = json.last().unwrap();
        hpdr_audit::validate_audit_json(blob).unwrap();
        assert_eq!(
            envelope::header(&parse_json(blob).unwrap(), envelope::SCHEMA_AUDIT),
            Ok(true)
        );
        // Both directions of the codec × adapter matrix are present.
        for name in ["mgard", "zfp", "huffman", "sz", "lz4"] {
            for adapter in ["serial", "cpu-parallel", "gpu-sim"] {
                assert!(
                    blob.contains(&format!("\"{name}/{adapter}\"")),
                    "{name}/{adapter}"
                );
            }
        }
        assert!(blob.contains("baseline-per-step"));
    }

    #[test]
    fn trace_emits_valid_two_chunk_chrome_json() {
        let lines = run(parse(&argv("trace")).unwrap()).unwrap();
        assert!(lines[0].contains("across 2 chunks"), "{}", lines[0]);
        let json = lines.last().unwrap();
        let summary = hpdr_trace::validate_chrome_trace(json).unwrap();
        assert!(summary.complete_events > 0);
        assert!(summary.metadata_events > 0);
    }

    #[test]
    fn profile_reports_invariants_ok() {
        let lines = run(parse(&argv("profile")).unwrap()).unwrap();
        assert!(lines.last().unwrap().contains("invariants ok"), "{lines:?}");
        let json = run(parse(&argv("profile --json")).unwrap()).unwrap();
        assert!(json[0].contains("\"compress\""), "{}", json[0]);
        assert!(json[0].contains("\"critical_path\""));
    }

    #[test]
    fn profile_fig1_shares_stay_in_paper_band() {
        let lines = run(parse(&argv("profile --figure fig1")).unwrap()).unwrap();
        assert!(lines.last().unwrap().contains("within band"), "{lines:?}");
        assert!(run(parse(&argv("profile --figure fig99")).unwrap()).is_err());
    }

    #[test]
    fn parse_bench_flags() {
        match parse(&argv("bench --quick --json --label ci --out x.json")).unwrap() {
            Command::Bench { opts, json } => {
                assert!(opts.quick);
                assert!(!opts.paper_scale);
                assert!(json);
                assert_eq!(opts.label, "ci");
                assert_eq!(opts.out.as_deref(), Some("x.json"));
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("bench --paper-scale")).unwrap() {
            Command::Bench { opts, json } => {
                assert!(!opts.quick);
                assert!(opts.paper_scale);
                assert!(!json);
                assert_eq!(opts.label, "local");
                assert_eq!(opts.out, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wrong_size_input_rejected() {
        let dir = std::env::temp_dir().join(format!("hpdr-cli-sz-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("short.bin");
        std::fs::write(&raw, [0u8; 10]).unwrap();
        let r = run(parse(&argv(&format!(
            "compress --codec lz4 --shape 16x16 --dtype f32 --input {} --output {}",
            raw.display(),
            dir.join("x.hpdr").display()
        )))
        .unwrap());
        assert!(r.is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
