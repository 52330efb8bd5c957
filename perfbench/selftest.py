#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

Checks, in under a minute:
  - BENCHMARK.json and perfbench/metrics.json name the same metrics with
    the same units, and the stream-xl references match the exact cycles
    EXPERIMENTS.md reports;
  - every workload, at a tiny size, prints every end-to-end metric
    (--trace 0) and every per-layer metric (--trace 1), each a number
    with its declared unit, with all cells correct;
  - one invalid cell (an unknown policy) injected into the batch a
    traced run sends through the serve daemon is counted as failed while
    the rest of the batch succeeds;
  - in a directory holding only BENCHMARK.json and perfbench/, run.py
    exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

RUN = [sys.executable, os.path.join("perfbench", "run.py")]
BENCH = json.load(open("BENCHMARK.json"))
MANIFEST = json.load(open(os.path.join("perfbench", "metrics.json")))
EXPERIMENTS_EXACT = {"unsafe": 1115638, "levioso": 1114844, "fence": 1684464}

failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run(args, cwd="."):
    p = subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    return p.returncode, p.stdout.strip().splitlines()


def result(workload, trace, *extra):
    rc, lines = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--tiny"] + list(extra))
    expect(rc == 0 and lines, "%s --trace %d exits 0" % (workload, trace))
    if rc != 0 or not lines:
        return None
    r = json.loads(lines[-1])
    expect(sorted(r) == ["attempted", "correct", "failed", "metrics"],
           "%s --trace %d result keys" % (workload, trace))
    return r


def check_metrics(workload, trace, r):
    declared = BENCH["end_to_end" if trace == 0 else "per_layer"]
    want = {m["name"]: m["unit"] for m in declared}
    got = r["metrics"]
    expect(sorted(got) == sorted(want),
           "%s --trace %d prints exactly the declared metrics (missing %s, extra %s)"
           % (workload, trace, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    bad = [n for n, m in got.items()
           if n in want and (m.get("unit") != want[n]
                             or not isinstance(m.get("value"), (int, float)))]
    expect(not bad, "%s --trace %d values are numbers with their units %s"
           % (workload, trace, bad))


def main():
    for kind in ("end_to_end", "per_layer"):
        bench = {m["name"]: m["unit"] for m in BENCH[kind]}
        man = {n: m["unit"] for n, m in MANIFEST[kind].items()}
        expect(bench == man, "metrics.json matches BENCHMARK.json %s" % kind)
    expect(sorted(w["name"] for w in BENCH["workloads"]) == sorted(MANIFEST["workloads"]),
           "metrics.json names every workload")
    refs = json.load(open(os.path.join("perfbench", "data", "refs.json")))
    expect(all(refs["stream_xl"][p] == c for p, c in EXPERIMENTS_EXACT.items()),
           "stream-xl references match EXPERIMENTS.md")

    for w in BENCH["workloads"]:
        for trace in (0, 1):
            r = result(w["name"], trace)
            if r:
                expect(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                       "%s --trace %d: all %d cells correct" % (w["name"], trace, r["attempted"]))
                check_metrics(w["name"], trace, r)

    r = result("quick-cold", 1, "--inject-invalid")
    if r:
        expect(not r["correct"] and r["failed"] == 1 and r["attempted"] > 1,
               "injected invalid cell counted: failed %d of %d" % (r["failed"], r["attempted"]))
        check_metrics("quick-cold", 1, r)

    bare = os.path.join(".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    rc, lines = run(["--workload", "quick-cold", "--seed", "1", "--seconds", "1",
                     "--trace", "0"], cwd=bare)
    expect(rc != 0 and not any(l.startswith("{") for l in lines),
           "bare directory: exit %d, no result" % rc)
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
