#!/usr/bin/env bash
# Sample where one perfbench workload's host time goes.
# Usage: scripts/profile.sh <figures|serve|graph> <seed> <seconds>
#
# Builds perfbench with frame pointers into .profile_build/, compiles the
# LD_PRELOAD sampler (scripts/profile/sampler.c) beside it, runs the
# workload on one thread with the sampler preloaded into that process
# only, and prints leaf, inclusive and libc-caller tables
# (scripts/profile/symbolize.py, via addr2line). The sampler takes one
# sample per 250 us of the process's CPU time, from 1 s of CPU time (past
# the first set-up) until <seconds> (the end of the timed passes).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 3 ]; then
    echo "usage: scripts/profile.sh <figures|serve|graph> <seed> <seconds>" >&2
    exit 2
fi
workload=$1 seed=$2 seconds=$3
out=.profile_build
mkdir -p "$out"

RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$out" \
    cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
cc -O2 -shared -fPIC -o "$out/sampler.so" scripts/profile/sampler.c

exe="$out/release/memconv-perfbench"
samples="$out/$workload-$seed.samples"
MEMCONV_THREADS=1 PROFILE_OUT="$samples" PROFILE_START_S=1 PROFILE_STOP_S="$seconds" \
    LD_PRELOAD="$PWD/$out/sampler.so" \
    "$exe" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
    >"$out/$workload-$seed.stdout" 2>/dev/null
tail -n 1 "$out/$workload-$seed.stdout"
python3 scripts/profile/symbolize.py "$exe" "$samples"
