#!/usr/bin/env python3
"""Alternating A/B pairs of perfbench runs between two source trees.

    scripts/ab.py <parent-tree> <change-tree> <workload> <seed> <seconds> <pairs>

Builds each tree's perfbench as perfbench/run.py does (release, offline,
into <tree>/.bench_build), then runs the two binaries in turn from their
own trees with MEMCONV_THREADS=1 and --trace 0. Pair i runs the parent
first when i is even and the change first when i is odd, so a side that
gains from running first (a warmer page cache, a quieter host) gains in
half the pairs only.

Prints one row per run; for each end-to-end metric of the change tree's
BENCHMARK.json each side's median [q1-q3], the change's wins out of the
pairs and the median ratio; setup_s split by which side ran first; and
one line naming every modeled metric (an end-to-end metric that is not a
host measurement) whose value differs between any two runs.
"""

import json
import os
import statistics
import subprocess
import sys

HOST_METRICS = ("setup_s", "items_per_s", "peak_rss_mb")


def build(tree):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    manifest = os.path.join(tree, "perfbench", "Cargo.toml")
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        check=True,
    )
    return os.path.join(tree, ".bench_build", "release", "memconv-perfbench")


def run(tree, exe, workload, seed, seconds):
    env = dict(os.environ, MEMCONV_THREADS="1")
    env.pop("MEMCONV_LAUNCH_MODE", None)
    args = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(
        args + ["--trace", "0"],
        cwd=tree,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        check=False,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{tree}: {result['failed']} of {result['attempted']} items failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    """Median, first and third quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def main():
    if len(sys.argv) != 7:
        sys.exit(
            "usage: scripts/ab.py <parent-tree> <change-tree> <workload> <seed> <seconds> <pairs>"
        )
    parent, change = (os.path.abspath(t) for t in sys.argv[1:3])
    workload, seed, seconds, pairs = sys.argv[3], int(sys.argv[4]), sys.argv[5], int(sys.argv[6])
    with open(os.path.join(change, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    exes = {"parent": build(parent), "change": build(change)}
    trees = {"parent": parent, "change": change}

    runs = []  # (pair, side, first_side, metrics)
    print(f"{'pair':>4} {'side':<6} {'first':<6} " + " ".join(f"{m:>14}" for m in HOST_METRICS))
    for p in range(pairs):
        order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
        for side in order:
            m = run(trees[side], exes[side], workload, seed, seconds)
            runs.append((p, side, order[0], m))
            row = " ".join(f"{m[k]:>14.6g}" for k in HOST_METRICS)
            print(f"{p:>4} {side:<6} {order[0]:<6} {row}", flush=True)

    def values(side, name, first=None):
        return [m[name] for _, s, f, m in runs if s == side and (first is None or f == first)]

    print(f"\n{workload}, seed {seed}, {seconds} s, {pairs} pairs")
    for metric in end_to_end:
        name, better = metric["name"], metric["better"]
        a, b = values("parent", name), values("change", name)
        wins = sum((y > x) if better == "higher" else (y < x) for x, y in zip(a, b))
        (ma, qa1, qa3), (mb, qb1, qb3) = spread(a), spread(b)
        ratio = mb / ma if ma else float("nan")
        print(
            f"{name:<22} parent {ma:.6g} [{qa1:.6g}-{qa3:.6g}]  change {mb:.6g} "
            f"[{qb1:.6g}-{qb3:.6g}]  ratio {ratio:.3f}  change wins {wins}/{len(a)}  "
            f"|diff| {abs(mb - ma):.6g} vs parent IQR {qa3 - qa1:.6g}"
        )
    for first in ("parent", "change"):
        a, b = values("parent", "setup_s", first), values("change", "setup_s", first)
        if a:
            print(
                f"setup_s, {first} first ({len(a)} pairs): parent median {spread(a)[0]:.6g} s, "
                f"change median {spread(b)[0]:.6g} s"
            )
    modeled = [m["name"] for m in end_to_end if m["name"] not in HOST_METRICS]
    differ = [n for n in modeled if len({m[n] for _, _, _, m in runs}) > 1]
    if differ:
        print("modeled metrics that differ between runs: " + ", ".join(differ))
    else:
        print("modeled metrics identical in every run: " + ", ".join(modeled))


if __name__ == "__main__":
    main()
