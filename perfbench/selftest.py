#!/usr/bin/env python3
"""Self-test of the GemStone benchmark (run from the root of a checkout):

    python3 perfbench/selftest.py

1. A tiny-size run of every workload, untraced and traced, must pass its
   correctness and durability checks with no failures (error ratio 0) and
   report every metric BENCHMARK.json names, each a finite number, and
   save every reported (not gated) metric.
2. Each seeded-bug fixture must make a run fail: `model` perturbs one
   account in the generator's model (reads and the recovery check see the
   difference); `drop-write` recovers from a platter copied before the
   last acknowledged write.
3. `run.py compare` must refuse two results whose builds differ.
4. A gsbench built with the lock-order validator compiled in (a Debug
   build, in .bench_build/perfbench-validator) must refuse to report.

Exits 0 when every check holds; prints each check as it goes.
"""

import copy
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
OUT = os.path.join(ROOT, ".bench_build", "perfbench", "selftest")
# Metrics every untraced run measures and saves under "reported" in its
# result file, though BENCHMARK.json does not gate them.
REPORTED = ["throughput_ops_s", "recovery_s",
            "space_bytes_per_version_after_run"] + [
    "%s_%s_us" % (kind, pct) for kind in ("read", "write", "query", "history")
    for pct in ("p50", "p99")]


def run(workload, trace, bug="none", seed=7, seconds=2):
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
                 str(seconds), "--trace", str(trace), "--tiny",
                 "--inject-bug", bug, "--out-dir", OUT]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = {0: [m["name"] for m in bench["end_to_end"]],
             1: [m["name"] for m in bench["per_layer"]]}
    problems = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            proc, result = run(workload, trace)
            label = "%s trace=%d" % (workload, trace)
            if result is None:
                check(False, label + ": no JSON result (exit %d)\n%s"
                      % (proc.returncode, proc.stderr[-2000:]))
                continue
            check(proc.returncode == 0 and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1,
                  label + ": correct, error ratio 0 (%d attempted)"
                  % result["attempted"])
            metrics = result["metrics"]
            missing = [n for n in names[trace] if n not in metrics]
            check(not missing, label + ": every metric present %s"
                  % (missing or ""))
            bad = [n for n, m in metrics.items()
                   if not isinstance(m["value"], (int, float))
                   or not math.isfinite(m["value"])]
            check(not bad, label + ": every value finite %s" % (bad or ""))
            if trace == 0:
                zero = [n for n in names[0] if metrics.get(n, {}).get("value") == 0]
                check(not zero, label + ": no end-to-end metric is 0 %s"
                      % (zero or ""))
                with open(os.path.join(OUT, "%s-seed7-trace0.json" % workload)) as f:
                    reported = json.load(f)["reported"]
                absent = [n for n in REPORTED
                          if not reported.get(n, {}).get("value", 0) > 0]
                check(not absent, label + ": every reported metric present %s"
                      % (absent or ""))

    for workload, bug in (("oltp_point", "model"), ("time_travel", "model"),
                          ("compute_read", "drop-write"),
                          ("time_travel", "drop-write")):
        proc, result = run(workload, 0, bug=bug)
        caught = (result is not None and not result["correct"]
                  and result["failed"] > 0 and proc.returncode != 0)
        check(caught, "seeded bug %s on %s is caught" % (bug, workload))

    saved = os.path.join(OUT, "oltp_point-seed7-trace0.json")
    proc, _ = run("oltp_point", 0)
    with open(saved) as f:
        doc = json.load(f)
    other = copy.deepcopy(doc)
    other["provenance"]["lock_order_validation"] = True
    twin = os.path.join(OUT, "compare-twin.json")
    with open(twin, "w") as f:
        json.dump(other, f)
    same = subprocess.run(RUN + ["compare", saved, saved], cwd=ROOT,
                          capture_output=True, text=True)
    check(same.returncode == 0, "compare accepts two results of one build")
    differ = subprocess.run(RUN + ["compare", saved, twin], cwd=ROOT,
                            capture_output=True, text=True)
    check(differ.returncode == 2, "compare refuses results of different builds")

    # A Debug build compiles the lock-order validator in; gsbench must
    # refuse to report (exit 3) and print no result.
    debug_dir = os.path.join(ROOT, ".bench_build", "perfbench-validator")
    built = all(subprocess.run(step, capture_output=True).returncode == 0
                for step in (["cmake", "-S", HERE, "-B", debug_dir,
                              "-DCMAKE_BUILD_TYPE=Debug"],
                             ["cmake", "--build", debug_dir, "-j", "4"]))
    check(built, "a Debug (validator) build of gsbench compiles")
    if built:
        refused = subprocess.run(
            [os.path.join(debug_dir, "gsbench"), "--workload",
             "oltp_point", "--seed", "1", "--seconds", "1", "--trace", "0",
             "--tiny", "--out-dir", OUT],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        check(refused.returncode == 3 and '"correct"' not in refused.stdout,
              "a build with the lock-order validator is refused")

    print("%d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
