#!/usr/bin/env python3
"""Turn sampler.c's samples into leaf, inclusive and libc-caller tables.

    python3 scripts/profile/symbolize.py <executable> <samples> [--top N]
        [--within FUNCTION]

<samples> is the file sampler.c wrote (PROFILE_OUT), with its
<samples>.maps beside it. Every address in the executable is symbolized
with one `addr2line -f -i -C` call; a sample is attributed to physical
(outermost, not inlined) functions. Addresses in shared libraries are
named by library. Shares are of all samples.

- leaf: the function the sample interrupted;
- inclusive: the leaf and every executable function on the sample's
  stack, counted once;
- leaf files: the source file of the instruction the sample interrupted:
  its innermost inlined function's, so code inlined into a caller in
  another file still counts for its own file, except that standard
  library code (under /rustc/) counts for the file that called it;
- libc callers: for samples whose leaf is in a shared library, the first
  executable function on the stack (the word at the stack pointer when it
  is a return address into the executable, as for a frameless memset;
  otherwise the frame-pointer chain).

--within FUNCTION keeps only the samples whose stack holds a function,
physical or inlined, whose name contains FUNCTION (say `graph::setup`
for a workload's set-up), and takes the shares of those samples.
"""

import argparse
import collections
import os
import re
import subprocess
import sys

HASH = re.compile(r"::h[0-9a-f]{16}$")
ADDRESS = re.compile(r"0x[0-9a-f]+")


def read_maps(path, exe):
    """The executable mappings as (start, end, library or None for the
    executable), and the executable's load base (its offset-0 mapping)."""
    exe = os.path.realpath(exe)
    maps, base = [], None
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) < 6:
                continue
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            is_exe = os.path.realpath(parts[5]) == exe
            if is_exe and int(parts[2], 16) == 0:
                base = lo
            if "x" in parts[1]:
                maps.append((lo, hi, None if is_exe else os.path.basename(parts[5])))
    if base is None:
        sys.exit("symbolize: the executable's mapping is not in the maps file")
    return maps, base


def locate(maps, addr):
    """"exe", a library's name, or None for an unmapped address."""
    for lo, hi, lib in maps:
        if lo <= addr < hi:
            return lib or "exe"
    return None


def symbolize(exe, addrs):
    """Per executable-relative address, its (function, source file) pairs,
    innermost inlined function first; the last is the physical one."""
    if not addrs:
        return {}
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", exe],
        input="".join(f"{a:#x}\n" for a in sorted(addrs)),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    # Per address: the address, then (function, file:line) pairs, innermost
    # inlined function first.
    names, addr, is_function = {}, None, False
    for line in out:
        if ADDRESS.fullmatch(line):
            addr, is_function = int(line, 16), True
            names[addr] = []
        elif addr is not None:
            if is_function:
                function = HASH.sub("", line)
            else:
                names[addr].append((function, line.split(":")[0]))
            is_function = not is_function
    return names


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("exe")
    ap.add_argument("samples")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--within", metavar="FUNCTION")
    args = ap.parse_args()
    maps, base = read_maps(args.samples + ".maps", args.exe)

    samples = []
    with open(args.samples) as f:
        for line in f:
            words = [int(w, 16) for w in line.split()]
            if words:
                samples.append(words)
    if not samples:
        sys.exit("symbolize: no samples")

    # Each sample's frames as (where, address): the leaf exactly, return
    # addresses minus one so they fall inside their call instruction.
    stacks, wanted = [], set()
    for words in samples:
        ip, at_sp, chain = words[0], words[1] if len(words) > 1 else 0, words[2:]
        frames = [(locate(maps, ip), ip)]
        if frames[0][0] not in (None, "exe") and locate(maps, at_sp) == "exe":
            frames.append(("exe", at_sp - 1))
        frames += [(locate(maps, r), r - 1) for r in chain]
        frames = [(w, a) for w, a in frames if w is not None]
        stacks.append(frames)
        wanted.update(a - base for w, a in frames if w == "exe")
    chains = symbolize(args.exe, wanted)

    def name(frame):
        where, addr = frame
        if where != "exe":
            return f"[{where}]"
        chain = chains.get(addr - base)
        return chain[-1][0] if chain else "??"

    def source(frame):
        where, addr = frame
        if where != "exe":
            return f"[{where}]"
        chain = chains.get(addr - base)
        if not chain:
            return "??"
        own = [path for _, path in chain if not path.startswith("/rustc/")]
        return os.path.basename((own or [chain[0][1]])[0])

    total = len(samples)
    if args.within:
        stacks = [
            frames
            for frames in stacks
            if any(
                args.within in f
                for where, addr in frames
                if where == "exe"
                for f, _ in chains.get(addr - base, ())
            )
        ]
        print(f"{len(stacks)} of {total} samples within {args.within}")
        total = len(stacks)
        if not total:
            sys.exit("symbolize: no samples within " + args.within)

    leaf, inclusive, callers = collections.Counter(), collections.Counter(), collections.Counter()
    files = collections.Counter()
    for frames in stacks:
        if not frames:
            continue
        leaf[name(frames[0])] += 1
        files[source(frames[0])] += 1
        for n in {name(fr) for fr in frames[:1] + [fr for fr in frames if fr[0] == "exe"]}:
            inclusive[n] += 1
        if frames[0][0] != "exe":
            caller = next((name(fr) for fr in frames[1:] if fr[0] == "exe"), "(unknown)")
            callers[f"{name(frames[0])} <- {caller}"] += 1

    print(f"{total} samples")
    tables = (
        ("leaf", leaf),
        ("inclusive", inclusive),
        ("leaf files", files),
        ("libc callers", callers),
    )
    for title, table in tables:
        print(f"\n{title}:")
        for n, c in table.most_common(args.top):
            print(f"  {100.0 * c / total:5.1f}%  {n}")


if __name__ == "__main__":
    main()
