#!/usr/bin/env python3
"""Gate a speedup ratio between two entries of a bench capture.

    python3 scripts/check_ratio.py CAPTURE NUM DEN --min-ratio R [--require NAME]

Reads the entries NUM and DEN (nanoseconds, "ns" or "after_ns") from a
bench-regress JSON and fails unless NUM/DEN >= R. NUM is the slow path
and DEN the fast one, e.g.

    plan.full/50      plan.edit/50       --min-ratio 10   incremental planning
    verify.closure/50 verify.edit/50     --min-ratio 10   incremental verification
    plan.full/200     shard.plan/200     --min-ratio 2    sharded planning

Each --require NAME (repeatable) must also be present in the capture,
e.g. --require shard.build/1000 for the scale the flat path cannot
practically run. Stdlib only.
"""

import argparse
import json
import sys


def load_entries(path):
    with open(path) as fh:
        doc = json.load(fh)
    entries = {}
    for e in doc.get("entries", []):
        ns = e.get("ns", e.get("after_ns"))
        if e.get("name") and ns is not None:
            entries[e["name"]] = float(ns)
    return entries


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("capture", help="bench-regress JSON (e.g. BENCH_10.json)")
    ap.add_argument("num", help="numerator entry (the slow path)")
    ap.add_argument("den", help="denominator entry (the fast path)")
    ap.add_argument("--min-ratio", type=float, required=True, metavar="R")
    ap.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="NAME",
        help="entry that must be present (repeatable)",
    )
    args = ap.parse_args()

    entries = load_entries(args.capture)
    missing = [n for n in [args.num, args.den, *args.require] if n not in entries]
    if missing:
        sys.exit(f"{args.capture}: missing entries: {', '.join(missing)}")

    num, den = entries[args.num], entries[args.den]
    ratio = num / den
    print(
        f"{args.num}: {num / 1e6:.2f} ms  {args.den}: {den / 1e6:.2f} ms"
        f"  ratio: {ratio:.2f}x (required >= {args.min_ratio:.2f}x)"
    )
    for name in args.require:
        print(f"{name}: {entries[name] / 1e6:.2f} ms (present)")
    if ratio < args.min_ratio:
        sys.exit(
            f"{args.den} only {ratio:.2f}x faster than {args.num} "
            f"(need {args.min_ratio:.2f}x)"
        )
    print("ok")


if __name__ == "__main__":
    main()
