#!/usr/bin/env python3
"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload quick-cold --seed 1 --seconds 40 --trace 0

Run from the repository root.  Builds perfbench/perfbench.exe with dune
under .bench_build/, runs the workload and prints its report.  Set-up
time is the median, over 41 start-ups around the run, of the host CPU
seconds each reports on its "ready" line.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  Exits non-zero, printing no result, when the build or
the run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
WORKLOADS = ("quick-cold", "sampled-xl")
# Set-up-only start-ups before and again after the measured run, on top
# of its own: the host's speed moves in steps, so set-up is sampled at
# both ends of the run.
SETUP_STARTS = 20
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
           "--profile", "release", "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=800)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed:\n" + r.stdout[-4000:])


def start(args):
    """Start the executable; return (process, CPU seconds of its set-up)."""
    p = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, text=True)
    line = p.stdout.readline().split()
    if len(line) != 2 or line[0] != "ready":
        p.kill()
        p.wait()
        fail("%s: no ready line (got %r)" % (" ".join(args), line))
    return p, float(line[1])


def finish(p, args):
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        fail("%s: timed out" % " ".join(args))
    if p.returncode != 0:
        fail("%s: exit code %d" % (" ".join(args), p.returncode))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny cell sets (self-test)")
    ap.add_argument("--inject-invalid", action="store_true",
                    help="send one invalid cell in the serve probe (self-test)")
    a = ap.parse_args()

    build()
    base = ["--workload", a.workload, "--seed", str(a.seed)]
    if a.tiny:
        base.append("--tiny")
    def setup_only():
        for _ in range(SETUP_STARTS):
            p, ready = start(base + ["--setup-only"])
            finish(p, base)
            setups.append(ready)

    setups = []
    setup_only()

    args = base + ["--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.inject_invalid:
        args.append("--inject-invalid")
    p, ready = start(args)
    setups.append(ready)
    lines = finish(p, args).splitlines()
    setup_only()
    if not lines:
        fail("no result")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("unparsable result line %r" % lines[-1])
    for line in lines[:-1]:
        print(line)

    metrics = result["metrics"]
    if a.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print("# %-40s %14.6g s (median of %d start-ups)"
              % ("setup_s", metrics["setup_s"]["value"], len(setups)))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
