#!/usr/bin/env bash
# Repo gate: formatting, lints, build, full test suite.
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q

echo "==> benchmark package (perfbench) builds and passes its tests"
# perfbench is a cargo workspace of its own with path dependencies on
# crates/, so the root build and tests above never compile it; a public-API
# change can break it unnoticed without this step.
cargo test -q --release --manifest-path perfbench/Cargo.toml

# The bin gates below run from a scratch working directory, so the
# BENCH_*.json rows they write land there and never rewrite the committed
# files. The checksum comparison after the last gate fails CI if a gate
# writes a tracked BENCH file anyway; it compares checksums rather than
# `git diff` so uncommitted BENCH edits in a working tree still pass.
bench_sums() { cksum BENCH_*.json; }
sums_before="$(bench_sums)"
gate_dir="$(mktemp -d)"
trap 'rm -rf "$gate_dir"' EXIT
manifest="$PWD/Cargo.toml"
gate() { (cd "$gate_dir" && cargo run --release -q --manifest-path "$manifest" "$@"); }

echo "==> hazard-analysis gate (ablation --analyze --gate)"
gate -p memconv-bench --bin ablation -- --analyze --gate

echo "==> fault-injection gate (faults --smoke --gate)"
gate -p memconv-bench --bin faults -- --smoke --gate

echo "==> serving gate (serve --smoke --gate)"
# Includes the cold-start gate: a fresh server answers every miss from the
# instant oracle-heuristic path, bit-identical to the batched run.
gate -p memconv-bench --bin serve -- --smoke --gate

echo "==> fleet resilience gate (fleet --smoke --gate)"
# Chaos campaign over the sharded fleet: zero silent corruptions, replays
# bit-identical across launch engines and worker counts, baseline
# deadline-miss rate and load imbalance under the declared thresholds.
gate -p memconv-bench --bin fleet -- --smoke --gate

echo "==> layer-graph gate (graph --smoke --gate)"
# Whole-model schedules: fused device-resident, pooled-unfused and
# layer-at-a-time outputs bit-identical on every zoo network, with the
# fused schedule's transaction reduction over the declared floor.
gate -p memconv-bench --bin graph -- --smoke --gate

echo "==> geometry-axes gate (geom --smoke --gate)"
# New-axes transaction study: zero divergences against the CPU reference
# over the extended zoo (grouped/depthwise/dilated/strided), and ours on
# the depthwise block strictly below the dense-equivalent block's
# transactions.
gate -p memconv-bench --bin geom -- --smoke --gate

# Oracle exactness gate: predicted transaction signatures bit-equal to
# measured runs over the whole zoo x registry, zero unexpected
# data-dependent sites, shuffle-dynamic positive control flagged — on
# both launch engines.
echo "==> oracle prediction gate (predict --gate, both engines)"
gate -p memconv-bench --bin predict -- --gate --json
gate -p memconv-bench --bin predict -- --gate --mode parallel

echo "==> observability gate (profile --smoke --gate)"
gate -p memconv-bench --bin profile -- --smoke --gate

# Parallel-engine throughput gate: every fig3 panel under both engines;
# enforces parallel >= sequential blocks/sec on hosts with >= 4 hardware
# threads, and prints a skip reason (without failing) on smaller hosts.
echo "==> launch-engine ratio gate (fig3 --mode both --json --gate)"
gate -p memconv-bench --bin fig3 -- \
  --mode both --json --gate --filter 3 --max-size 1024

echo "==> the gates left the committed BENCH files as they were"
if [ "$(bench_sums)" != "$sums_before" ]; then
  echo "a gate step wrote a tracked BENCH file:" >&2
  diff <(echo "$sums_before") <(bench_sums) >&2 || true
  exit 1
fi

echo "CI gate passed."
