#!/usr/bin/env bash
# Tier-1 gate: everything CI enforces, runnable locally.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --workspace --release
cargo test --workspace -q
# The benchmark's own tests: its grant audit and the check that the
# traced run's timing decorators leave every result bit-identical.
cargo test --offline --manifest-path slobench/Cargo.toml -q
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all --check
# Rustdoc must build warning-free, so a deleted or private item cannot
# leave a dangling intra-doc link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# The one microbench must keep compiling and run end to end (smoke
# sampling). Recorded performance numbers come from slobench (see
# slobench/RECORDED.md), not from criterion.
cargo bench --workspace --no-run
# Smoke-run the simulation-kernel bench: the event queue at a depth on
# each side of its promotion threshold, the dyn/enum sampling pair and
# the C(p, a) scan/table query pair all execute.
JOCKEY_BENCH_SMOKE=1 cargo bench -p jockey-bench --bench simrt_kernel
# Multi-job example: the one-shot arbiter split and the live
# ControlPlane run over trained paper jobs end to end.
cargo run --release --example multi_job_arbiter
# Legacy-model gate: the flat (no-topology) training path must stay
# bit-identical across the topology/scenario work. The example prints
# an FNV-1a digest of a fixed-seed C(p, a) table.
cargo run --release -p jockey-core --example train_digest \
  | grep -qx 'digest=39c32f08b9cd7eea' \
  || { echo "tier1: flat-model training digest drifted from 39c32f08b9cd7eea" >&2; exit 1; }
# Scenario-engine smoke: the registry lists by name and one named
# scenario runs end to end (topology build, retrain, controlled runs).
./target/release/jockey-cli scenario list | grep -q 'hetero-mix' \
  || { echo "tier1: scenario registry missing hetero-mix" >&2; exit 1; }
./target/release/jockey-cli scenario hetero-mix --seed 7 --runs 1 \
  || { echo "tier1: scenario smoke run failed" >&2; exit 1; }
# Speculation smoke: the heavy-tailed straggler scenario runs end to
# end — workload shaping, C(p, a, s) training under clone-on-slow,
# and a speculative controlled run.
./target/release/jockey-cli scenario list | grep -q 'straggler' \
  || { echo "tier1: scenario registry missing straggler" >&2; exit 1; }
./target/release/jockey-cli scenario straggler --seed 7 --runs 1 \
  || { echo "tier1: straggler scenario smoke run failed" >&2; exit 1; }
# Golden-digest gate: run cheap figures (including the scenario and
# speculation sweeps) through the pipeline CLI at smoke scale
# (parallel) and diff their emitted-TSV digests against the committed
# goldens, making "byte-identical to baseline" a regression gate
# instead of a manual check.
golden_out="$(mktemp -d)"
trap 'rm -rf "$golden_out"' EXIT
JOCKEY_SCALE=smoke JOCKEY_SEED=42 \
  ./target/release/jockey-repro --only table2,fig1,scenarios,speculation --jobs 2 \
  --out "$golden_out" --digests \
  | grep '^digest' | cut -f2,3 \
  | diff <(grep -v '^#' crates/experiments/tests/golden_smoke_digests.tsv) - \
  || { echo "tier1: smoke digests drifted from golden_smoke_digests.tsv" >&2; exit 1; }
echo "tier1: OK"
