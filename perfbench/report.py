#!/usr/bin/env python3
"""Steadiness and determinism reports for the repository benchmark.

    python3 perfbench/report.py steadiness [--runs 10] [--workload W ...]
    python3 perfbench/report.py determinism [--seed 7] [--workload W ...]

steadiness runs every workload --runs times, each with another seed,
and prints for each end-to-end metric its median, the distance between
its first and third quartiles (statistics.quantiles, n=4) as a share of
the median, and its minimum, next to the bound BENCHMARK.json fixes. A
spread at or above a third of the bound is flagged (setup_s is not held
to its spread, only to its median).

determinism runs the traced window twice with one seed and compares the
counters that must repeat exactly; any difference is reported by name.
server_mix is left out: its open loop and deriver run concurrently, so
how much each completes depends on timing.

Run from the root of a checkout; exits non-zero when a check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys

DETERMINISTIC = [
    "engine.page_reads", "engine.rows_inserted", "wal.bytes", "pool.misses",
    "maint.calls", "maint.derived_inserted", "maint.derived_deleted", "maint.rederived",
    "maint.fallbacks", "runtime.new_tuples", "compiler.rules_extracted",
]


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(f"  {workload} seed {seed}: {result['failed']}/{result['attempted']} failed")
    return result


def steadiness(args, b):
    ok = True
    for w in args.workload or [x["name"] for x in b["workloads"]]:
        values = {}
        for i in range(args.runs):
            r = run(w, args.first_seed + i, b["run_seconds"], 0)
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  {w} seed {args.first_seed + i}: " +
                  " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        print(f"\n{w} ({args.runs} runs)")
        print(f"  {'metric':22} {'median':>12} {'iqr/med':>8} {'min':>12} {'bound':>6}")
        for m in b["end_to_end"]:
            vs = values[m["name"]]
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            flag = ""
            if m["name"] != "setup_s" and spread >= m["bound"] / 3:
                flag = "  <- spread >= bound/3"
                ok = False
            print(f"  {m['name']:22} {med:12.4f} {spread:8.3f} {min(vs):12.4f} "
                  f"{m['bound']:6.2f}{flag}")
        print(flush=True)
    return ok


def determinism(args, b):
    ok = True
    for w in args.workload or [x["name"] for x in b["workloads"] if x["name"] != "server_mix"]:
        a = run(w, args.seed, b["run_seconds"], 1)["metrics"]
        c = run(w, args.seed, b["run_seconds"], 1)["metrics"]
        diff = [k for k in DETERMINISTIC if a[k]["value"] != c[k]["value"]]
        print(f"{w}: " + ("identical" if not diff else "DIFFERENT " + ", ".join(
            f"{k} {a[k]['value']} vs {c[k]['value']}" for k in diff)))
        ok = ok and not diff
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("steadiness")
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--first-seed", type=int, default=1)
    s.add_argument("--workload", action="append")
    d = sub.add_parser("determinism")
    d.add_argument("--seed", type=int, default=7)
    d.add_argument("--workload", action="append")
    args = ap.parse_args()
    b = spec()
    ok = steadiness(args, b) if args.cmd == "steadiness" else determinism(args, b)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
