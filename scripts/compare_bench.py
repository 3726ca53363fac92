#!/usr/bin/env python3
"""Compare two `bench regress` JSON files and gate on slowdowns.

Usage:
    dune exec bench/main.exe -- regress --switches 16 --out cur1.json
    dune exec bench/main.exe -- regress --switches 16 --out cur2.json
    python3 scripts/compare_bench.py BENCH_3.json cur1.json cur2.json \
        --max-slowdown 1.25 --only-switches 16

The baseline may be either a plain `bench-regress` capture (entries with
"ns") or a `bench-regress-report` (entries with "after_ns"/"ns"); in a
report the after-numbers are the baseline, matching what regress.ml's
own --baseline loader does. When several current files are given, the
per-entry minimum across them is compared — the same noise-robust
protocol the committed baseline was captured with (docs/PERF.md), so
always pass as many current runs as the baseline used. --only-switches
gates only entries whose trailing /<n> matches (micro-kernels carry a
bit-width suffix, e.g. cube.inter/64, and are left ungated — Bechamel
estimates are too machine-sensitive for a hard CI bound). Entries
present in only one file are reported but never fail the gate (workload
sets may differ across machines/scales). A */par<N> entry (an N-domain
pool variant) is not gated when the current captures report fewer than
N host_cores (the largest host_cores among them counts; a capture
without the field counts as enough): an N-domain pool on fewer cores
measures scheduler contention, not the code, so its ratio against a
baseline is a false regression signal (--gate-entry still force-gates
it). Exits non-zero when any
gated entry is slower than baseline by more than --max-slowdown.
Stdlib only.
"""

import argparse
import fnmatch
import json
import re
import sys

SCHEMA_VERSION = 1

# The N-domain pool variant suffix of an end-to-end entry.
PAR_SUFFIX = re.compile(r"/par(\d+)$")


def load_entries(path):
    """Entries of a capture, plus the host_cores it reports (None if absent)."""
    with open(path) as fh:
        doc = json.load(fh)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        sys.exit(f"{path}: unsupported schema_version {version} (expected {SCHEMA_VERSION})")
    entries = {}
    for e in doc.get("entries", []):
        ns = e.get("ns", e.get("after_ns"))
        if e.get("name") is None or ns is None:
            sys.exit(f"{path}: malformed entry {e!r}")
        entries[e["name"]] = float(ns)
    if not entries:
        sys.exit(f"{path}: no entries")
    return entries, doc.get("host_cores")


def par_width(name):
    """N of a /par<N> pool-variant entry, None for everything else."""
    m = PAR_SUFFIX.search(name)
    return int(m.group(1)) if m else None


def scale_of(name):
    """Trailing /<switches> suffix of an end-to-end entry, None for micros.

    A /par<N> variant suffix is stripped first, so
    runner.round10/16/par2 gates with the /16 scale."""
    name = PAR_SUFFIX.sub("", name)
    _, _, suffix = name.rpartition("/")
    return int(suffix) if suffix.isdigit() else None


def pretty_ns(ns):
    if ns > 1e9:
        return f"{ns / 1e9:.2f} s"
    if ns > 1e6:
        return f"{ns / 1e6:.2f} ms"
    if ns > 1e3:
        return f"{ns / 1e3:.2f} us"
    return f"{ns:.0f} ns"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="committed baseline (BENCH_3.json)")
    ap.add_argument(
        "current",
        nargs="+",
        help="freshly measured regress JSON (several files are min-merged per entry)",
    )
    ap.add_argument(
        "--max-slowdown",
        type=float,
        default=1.25,
        metavar="RATIO",
        help="fail when current/baseline exceeds RATIO (default 1.25)",
    )
    ap.add_argument(
        "--only-switches",
        type=int,
        default=None,
        metavar="N",
        help="gate only entries with a trailing /N scale suffix",
    )
    ap.add_argument(
        "--gate-entry",
        action="append",
        default=[],
        metavar="GLOB",
        help="force-gate entries matching GLOB even when --only-switches "
        "excludes them (e.g. cube.inter/64 to hold the interning fix)",
    )
    ap.add_argument(
        "--write-merged",
        default=None,
        metavar="PATH",
        help="write the min-merged current entries as a bench-regress JSON "
        "(with before_ns/speedup against the baseline) — the min-of-N "
        "capture protocol for committed BENCH_<n>.json files",
    )
    args = ap.parse_args()

    base, _ = load_entries(args.baseline)
    cur = {}
    cur_cores = []
    for path in args.current:
        entries, cores = load_entries(path)
        cur_cores.append(cores)
        for name, ns in entries.items():
            cur[name] = min(ns, cur.get(name, float("inf")))
    # /par<N> numbers only mean anything when the candidate host has N
    # cores; a capture missing host_cores is assumed to have enough
    # (old-format captures predate the field).
    cores = None if None in cur_cores else max(cur_cores)
    if cores is not None:
        print(f"candidate reports host_cores: {cores} — */par<N> entries with N > {cores} not gated")

    if args.write_merged:
        entries = []
        for name in sorted(cur):
            e = {"name": name, "ns": cur[name]}
            if name in base:
                e["before_ns"] = base[name]
                e["speedup"] = base[name] / cur[name]
            entries.append(e)
        with open(args.current[0]) as fh:
            first = json.load(fh)
        merged = {
            "schema_version": SCHEMA_VERSION,
            "kind": "bench-regress-report",
            "workload": first.get("workload", ""),
            "switches": first.get("switches", []),
            "host_cores": first.get("host_cores"),
            "merged_of": len(args.current),
            "entries": entries,
        }
        with open(args.write_merged, "w") as fh:
            json.dump(merged, fh, indent=1)
            fh.write("\n")
        print(f"wrote min-of-{len(args.current)} merge to {args.write_merged}")

    failures = []
    print(f"{'entry':<28} {'baseline':>12} {'current':>12} {'ratio':>7}")
    for name in sorted(set(base) | set(cur)):
        if name not in base or name not in cur:
            where = "baseline" if name in base else "current"
            print(f"{name:<28} {'(only in ' + where + ')':>33}")
            continue
        ratio = cur[name] / base[name]
        scale = scale_of(name)
        forced = any(fnmatch.fnmatch(name, g) for g in args.gate_entry)
        gated = (
            args.only_switches is None
            or scale is None
            or scale == args.only_switches
            or forced
        )
        width = par_width(name)
        if cores is not None and width is not None and cores < width and not forced:
            gated = False
        verdict = ""
        if gated and ratio > args.max_slowdown:
            failures.append(name)
            verdict = "  FAIL"
        elif not gated:
            verdict = "  (not gated)"
        print(
            f"{name:<28} {pretty_ns(base[name]):>12} {pretty_ns(cur[name]):>12}"
            f" {ratio:>6.2f}x{verdict}"
        )

    if failures:
        sys.exit(
            f"{len(failures)} entr{'y' if len(failures) == 1 else 'ies'} regressed "
            f"beyond {args.max_slowdown:.2f}x: {', '.join(failures)}"
        )
    print(f"ok: no entry slower than {args.max_slowdown:.2f}x baseline")


if __name__ == "__main__":
    main()
