#!/usr/bin/env python3
"""End-to-end localization benchmark: policy -> plan -> detect -> flagged set.

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload flat50-lossy --seed 1 --seconds 20 --trace 0

Builds the OCaml benchmark program (e2ebench/e2e.ml) with dune, runs the workload in
its own process and prints, one per line, every metric with its unit, the
provenance of the run, and as the last line one JSON object: {"correct",
"attempted", "failed", "metrics"}. "attempted" counts localizations (one
detection pass each) and churn batches; "failed" counts those whose flagged
set is not the injected truth or whose session broke the incremental
contract. Each workload does a fixed amount of work on a fixed corpus of
topologies, sized to fit --seconds on a 2-core host; --seed draws the faults,
link loss and churn, and a run that takes longer says so on standard
error. Timings are process CPU time, except on wire50 (wall time), read at a
reference host speed: each is scaled by 20 ms over the time a fixed kernel that
calls no code of the repository takes next to it (see harness.ml), so slow
phases of a shared host do not show as slowdowns of the program. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1
its per-layer metrics (a separate, traced run; spans are written to
e2ebench/out/<workload>-seed<N>.spans.jsonl).

Planning and probing run in one domain: SDNPROBE_DOMAINS,
SDNPROBE_POOL_CHECK and SDNPROBE_INTERN are removed from the program's
environment, and the program is pinned to one CPU (the highest-numbered
one allowed), which wire50's daemon domain shares. Exits non-zero, printing no result, when the build or the
run fails.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import time

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "e2ebench", "e2e.exe")
OUT = os.path.join(ROOT, "e2ebench", "out")
PINNED_ENV = ("SDNPROBE_DOMAINS", "SDNPROBE_POOL_CHECK", "SDNPROBE_INTERN")
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
# The first run in a fresh checkout builds the libraries; later runs
# must end within three minutes.
BUILD_TIMEOUT_S = 840
RUN_DEADLINE_S = 175


def die(msg, code=1):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}", 2)


def clean_env():
    env = dict(os.environ)
    dropped = sorted(k for k in PINNED_ENV if k in env)
    for k in dropped:
        del env[k]
    return env, dropped


def build(env):
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("run from the root of a source checkout (no dune-project or lib/ here)", 2)
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ".", "./e2ebench/e2e.exe"],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        die("dune is not installed", 2)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
        die(f"build failed (exit {p.returncode})")


def commit():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def pinned_cpu():
    """The CPU the workload runs on: the highest-numbered one this process
    may use, or None where affinity cannot be set."""
    try:
        return max(os.sched_getaffinity(0))
    except (AttributeError, OSError, ValueError):
        return None


def run_program(args, env, deadline, cpu):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT]
    # One CPU for the whole workload: wire50's daemon domain then always
    # shares it with the runner, rather than getting a second CPU only
    # when the host has one free.
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, preexec_fn=pin)
    try:
        out, err = proc.communicate(timeout=max(10.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        die("workload did not finish in time")
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        die(f"e2e.exe exited with {proc.returncode}")
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        die("e2e.exe printed nothing")
    try:
        return json.loads(lines[-1])
    except ValueError:
        die("e2e.exe's last line is not JSON")


def validate(result, declared, trace):
    """Problems with the metric set: names, units, values."""
    problems = []
    got = result["metrics"]
    for name, unit in declared.items():
        if name not in got:
            problems.append(f"missing metric {name}")
        elif got[name]["unit"] != unit:
            problems.append(f"{name}: unit {got[name]['unit']} != {unit}")
    for name, m in got.items():
        if name not in declared:
            problems.append(f"undeclared metric {name}")
        if not NAME.match(name):
            problems.append(f"bad metric name {name!r}")
        if not math.isfinite(m["value"]):
            problems.append(f"{name} is not finite")
        elif not trace and m["value"] <= 0:
            problems.append(f"{name} is not positive")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1", 2)
    start = time.monotonic()
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload}", 2)
    env, dropped = clean_env()
    build(env)
    os.makedirs(OUT, exist_ok=True)
    built = time.monotonic()
    # A long build is the first run in a fresh checkout, which may take
    # up to fifteen minutes in all; any other run has three.
    if built - start < 60:
        deadline = start + RUN_DEADLINE_S
    else:
        deadline = min(start + BUILD_TIMEOUT_S + 50, built + RUN_DEADLINE_S)
    cpu = pinned_cpu()
    result = run_program(args, env, deadline, cpu)

    key = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[key]}
    problems = validate(result, declared, args.trace == 1)
    checks = result["failed_checks"] + problems
    correct = bool(result["correct"]) and not problems

    cpus = os.cpu_count()
    try:
        allowed = len(os.sched_getaffinity(0))
    except AttributeError:
        allowed = cpus
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "elapsed_s": result["elapsed_s"],
        "overrun": result["overrun"],
        "seeds": [{k: i[k] for k in ("topology_seed", "fault_seed", "impairment_seed",
                                     "churn_seed")} for i in result["instances"]],
        "setup_only_seeds": result["setup_only_seeds"],
        "host_cores": cpus,
        "cpus_allowed": allowed,
        "pinned_cpu": cpu,
        "ocaml_version": result["ocaml_version"],
        "commit": commit(),
        "domains": result["domains"],
        "ignored_env": dropped,
        "network": "loopback only (wire endpoints bind 127.0.0.1)",
    }
    record = dict(result, provenance=provenance, validation=problems)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)

    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    if result["apply_samples"]:
        print(f"{'apply_p50_ms':40s} {result['apply_p50_ms']:.6g} ms "
              f"({result['apply_samples']} batches)")
        tail = result["apply_tail"]
        if tail:
            print(f"{'apply_tail_ms':40s} {tail['value']:.6g} ms "
                  f"(p{tail['percentile']:g}, {tail['beyond']} of {tail['samples']} beyond)")
    if not args.trace:
        print(f"{'peak_heap_mb':40s} {result['peak_heap_mb']:.6g} MB")
    print(f"{'fail_ratio':40s} {result['fail_ratio']:.6g} ratio "
          f"({result['wrong_verdicts']} of {result['verdicts']} switch verdicts and batches)")
    print(f"{'failed operations':40s} {result['failed']} of {result['attempted']} "
          "(localizations and churn batches)")
    for c in checks:
        print(f"check failed: {c}")
    print("provenance " + json.dumps({k: v for k, v in provenance.items()
                                      if k not in ("seeds", "setup_only_seeds")}))
    print("seeds " + json.dumps(provenance["seeds"]))
    print("setup-only seeds " + json.dumps(provenance["setup_only_seeds"]))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))


if __name__ == "__main__":
    main()
