#!/usr/bin/env bash
# Sample where one perfbench workload's host time goes.
# Usage: scripts/profile.sh <figures|serve|graph> <seed> <seconds> [<start_s>]
#
# Builds perfbench with frame pointers into .profile_build/, compiles the
# LD_PRELOAD sampler (scripts/profile/sampler.c) beside it, runs the
# workload on one thread with the sampler preloaded into that process
# only, and prints leaf, inclusive and libc-caller tables
# (scripts/profile/symbolize.py, via addr2line). The sampler takes one
# sample per 250 us of the process's CPU time, from <start_s> seconds of
# CPU time until <seconds> (the end of the timed passes). <start_s>
# defaults to 1, past the first set-up. A <start_s> of 0 samples the whole
# process until it exits, so it also sees the set-ups timed after the
# passes; for `graph` and `serve` the script then prints the tables of
# the set-ups' samples alone too (`symbolize.py ... --within
# <workload>::setup`).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: scripts/profile.sh <figures|serve|graph> <seed> <seconds> [<start_s>]" >&2
    exit 2
fi
workload=$1 seed=$2 seconds=$3 start=${4:-1}
out=.profile_build
mkdir -p "$out"

RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$out" \
    cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
cc -O2 -shared -fPIC -o "$out/sampler.so" scripts/profile/sampler.c

exe="$out/release/memconv-perfbench"
samples="$out/$workload-$seed.samples"
# From a start of 0, sample until the process exits.
whole=$(awk -v s="$start" 'BEGIN { print (s + 0 == 0) ? 1 : 0 }')
stop=$seconds
if [ "$whole" = 1 ]; then
    stop=1e9
fi
MEMCONV_THREADS=1 PROFILE_OUT="$samples" PROFILE_START_S="$start" PROFILE_STOP_S="$stop" \
    LD_PRELOAD="$PWD/$out/sampler.so" \
    "$exe" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
    >"$out/$workload-$seed.stdout" 2>/dev/null
tail -n 1 "$out/$workload-$seed.stdout"
python3 scripts/profile/symbolize.py "$exe" "$samples"
if [ "$whole" = 1 ] && { [ "$workload" = graph ] || [ "$workload" = serve ]; }; then
    echo
    python3 scripts/profile/symbolize.py "$exe" "$samples" --within "$workload::setup"
fi
