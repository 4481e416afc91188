#!/usr/bin/env bash
# Full local gate: formatting, lints, build, tests, schedule verification.
# Everything runs offline — the workspace vendors its few external
# dependencies as stub crates under vendor/ (see README).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace"
cargo test --workspace --quiet

echo "==> cargo test --workspace (HPDR_FORCE_SCALAR=1: scalar kernel dispatch)"
HPDR_FORCE_SCALAR=1 cargo test --workspace --quiet

echo "==> hpdr verify"
cargo run --release -p hpdr --bin hpdr -- verify

echo "==> hpdr audit (effect diff + interleaving exploration, schema-valid json)"
cargo run --release -p hpdr --bin hpdr -- audit --json --out target/AUDIT_ci.json \
  > /dev/null
test -s target/AUDIT_ci.json
grep -q '"schema":"hpdr-audit/v1"' target/AUDIT_ci.json
grep -q '"ok":true' target/AUDIT_ci.json

echo "==> loom model checking (pool handoff, ready-list executor, shared cells, context cache)"
# Separate target dir: --cfg loom changes every crate's fingerprint and
# would otherwise evict the regular build cache. The models run at the
# default preemption bound and again at 4, as CI's loom job does.
CARGO_TARGET_DIR=target/loom RUSTFLAGS="--cfg loom" \
  cargo test -p hpdr-core --test loom --quiet
LOOM_MAX_PREEMPTIONS=4 CARGO_TARGET_DIR=target/loom RUSTFLAGS="--cfg loom" \
  cargo test -p hpdr-core --test loom --quiet

echo "==> hpdr retrieve (progressive smoke: refine within tolerance, no re-fetch)"
# The command asserts measured error <= tolerance and the zero-re-fetch
# refine guarantee; the tier-1 test retrieve_fetches_fewer_bytes_at_looser_tolerance
# checks that a looser bound fetches strictly fewer bytes.
cargo run --release -p hpdr --bin hpdr -- retrieve --side 16 --tolerance 1e-3 \
  --refine 1e-5 --json --out target/RETRIEVE_ci.json > /dev/null
grep -q '"schema":"hpdr-progressive/v1"' target/RETRIEVE_ci.json
grep -q '"refine":{' target/RETRIEVE_ci.json

echo "==> hpdr profile (trace smoke: non-empty trace, utilization in (0,1])"
cargo run --release -p hpdr --bin hpdr -- profile | tail -n 1 | grep -q "invariants ok"
cargo run --release -p hpdr --bin hpdr -- profile --figure fig1

echo "==> hpdr bench --quick (wall-clock smoke: schema-valid BENCH json)"
cargo run --release -p hpdr --bin hpdr -- bench --quick --json --label ci \
  --out target/BENCH_ci.json > /dev/null
test -s target/BENCH_ci.json
grep -q '"schema":"hpdr-bench/v2"' target/BENCH_ci.json
grep -q '"simd":"' target/BENCH_ci.json

echo "==> hpdr loadgen --quick (serving smoke: schema-valid latency report)"
cargo run --release -p hpdr --bin hpdr -- loadgen --quick --json \
  --out target/LOADGEN_ci.json > /dev/null
test -s target/LOADGEN_ci.json
grep -q '"schema": "hpdr-loadgen/v1"' target/LOADGEN_ci.json

echo "==> hpdr loadgen --metrics (scrape determinism: two runs, byte-identical)"
cargo run --release -p hpdr --bin hpdr -- loadgen --quick --seed 7 --metrics \
  --out target/LOADGEN_m1.json --expo target/METRICS_1.prom > /dev/null
cargo run --release -p hpdr --bin hpdr -- loadgen --quick --seed 7 --metrics \
  --out target/LOADGEN_m2.json --expo target/METRICS_2.prom > /dev/null
cmp target/LOADGEN_m1.json target/LOADGEN_m2.json
cmp target/METRICS_1.prom target/METRICS_2.prom
grep -q '"schema": "hpdr-metrics/v1"' target/LOADGEN_m1.json
grep -q '# TYPE serve_queue_jobs gauge' target/METRICS_1.prom

echo "==> hpdr cluster --quick (sharded serving: deterministic, zero lost jobs)"
# The command itself validates the hpdr-shard/v1 report and exits
# non-zero on any lost job; here additionally pin byte-determinism
# across two same-seed runs and the failure-injection zero-loss case.
cargo run --release -p hpdr --bin hpdr -- cluster --quick --json \
  --out target/CLUSTER_ci.json --flight-out target/FLIGHT_ci.json > /dev/null
test -s target/CLUSTER_ci.json
grep -q '"schema":"hpdr-shard/v1"' target/CLUSTER_ci.json
grep -q '"lost": 0' target/CLUSTER_ci.json
test -s target/FLIGHT_ci.json
grep -q '"schema":"hpdr-flight/v1"' target/FLIGHT_ci.json
cargo run --release -p hpdr --bin hpdr -- cluster --quick --json \
  --out target/CLUSTER_ci2.json --flight-out target/FLIGHT_ci2.json > /dev/null
cmp target/CLUSTER_ci.json target/CLUSTER_ci2.json
cmp target/FLIGHT_ci.json target/FLIGHT_ci2.json
cargo run --release -p hpdr --bin hpdr -- cluster --quick \
  --fail-node 0@125000 --json --out target/CLUSTER_fail.json \
  --flight-out target/FLIGHT_fail.json > /dev/null
grep -q '"lost": 0' target/CLUSTER_fail.json
grep -q '"rerouted"' target/CLUSTER_fail.json
# The dead node's ring buffer must surface as the black-box dump.
grep -q '"blackbox": {"shard":0,' target/FLIGHT_fail.json

echo "==> hpdr explain (latency root-cause smoke over the cluster report)"
# Plain grep (not -q): -q closes the pipe at first match and the tool's
# remaining prints die with SIGPIPE under pipefail.
cargo run --release -p hpdr --bin hpdr -- explain --report target/CLUSTER_ci.json \
  --worst 3 | grep "flight report:" > /dev/null

echo "==> hpdr slo --report (per-tenant SLO attainment from the metered run)"
# Plain grep (not -q): -q closes the pipe at first match and the tool's
# remaining prints die with SIGPIPE under pipefail.
cargo run --release -p hpdr --bin hpdr -- slo --report target/LOADGEN_m1.json \
  | grep "latency target" > /dev/null

echo "==> hpdr bench --compare (paired metering + flight overhead within 2%)"
# Row threshold is deliberately loose: cross-run quick-bench wall-clock
# noise reaches ~30% on a loaded machine, so per-codec throughput rows
# only catch order-of-magnitude regressions here. The real contract is
# the *paired* gates built into compare (2% ceiling on the candidate's
# serve-metering and flight-recorder overheads), which are measured
# within one process and are immune to that noise.
cargo run --release -p hpdr --bin hpdr -- bench --compare \
  BENCH_baseline.json target/BENCH_ci.json --threshold 0.5

echo "==> hpdr bench --compare (committed scalar baseline vs committed SIMD run)"
# Both documents are committed artifacts recorded back-to-back on one
# host (baseline under HPDR_FORCE_SCALAR=1), so a tight 5% gate holds:
# any regression here means the checked-in numbers themselves moved.
cargo run --release -p hpdr --bin hpdr -- bench --compare \
  BENCH_baseline.json BENCH_simd.json --threshold 0.05

echo "All checks passed."
