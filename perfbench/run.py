#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/bench.exe with dune
(the libraries it drives are part of the same dune project), then runs
it; the benchmark prints a human-readable table and, as its last stdout
line, the JSON result. Exits non-zero without a result when the
checkout holds no sources to build, when the build fails, or when the
run fails or overruns its time limit.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["lfp_deep", "kb_session", "view_churn", "server_mix"]
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: no dune-project and lib/ here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/bench.exe"],
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        return build.returncode

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # own process group, so a forked server process is stopped with it
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark overran its time limit", file=sys.stderr)
        rc = 3
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return rc


if __name__ == "__main__":
    sys.exit(main())
