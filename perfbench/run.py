#!/usr/bin/env python3
"""Build and run the GemStone benchmark (see perfbench/README.md).

Run one workload at one seed (from the root of a checkout):

    python3 perfbench/run.py --workload oltp_point --seed 1 --seconds 25 --trace 0

The benchmark binary (gsbench) is built from this checkout's sources into
.bench_build/perfbench (a CMake Release build; the first run builds, later
runs only re-check).
The last line of stdout is the JSON result; the full result, with its
provenance, is also written under .bench_build/perfbench/out/.

Compare two saved results (refuses when their builds differ):

    python3 perfbench/run.py compare A.json B.json
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "gsbench")

# Provenance fields that must agree before two results are compared. The
# git sha and source digest may differ: comparing two commits is the point.
BUILD_FIELDS = ("build_type", "compiler", "cxx_flags", "nproc",
                "lock_order_validation", "gs_thread_safety", "tsan", "asan",
                "ubsan", "workload", "trace", "seconds", "rate", "tiny")


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds gsbench; answers True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "executor", "executor.h")):
        log("no system sources under %s/src; nothing to build" % ROOT)
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    with open(build_log, "w") as out:
        for step in steps:
            try:
                code = subprocess.call(step, stdout=out, stderr=subprocess.STDOUT,
                                       timeout=850)
            except (OSError, subprocess.TimeoutExpired) as err:
                log("build step %s failed: %s" % (step[:2], err))
                return False
            if code != 0:
                log("build failed (exit %d); see %s" % (code, build_log))
                with open(build_log) as text:
                    sys.stderr.write(text.read()[-4000:])
                return False
    return os.path.isfile(BINARY)


def source_digest():
    """sha256 over the system's and the benchmark's sources."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cc", ".h", ".txt", ".json")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run(argv):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small data sizes (the self-test)")
    parser.add_argument("--inject-bug", default="none",
                        choices=("none", "model", "drop-write"),
                        help="seeded-bug fixture the checks must catch")
    parser.add_argument("--out-dir", default=os.path.join(BUILD_DIR, "out"))
    args = parser.parse_args(argv)

    if not build():
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--inject-bug", args.inject_bug, "--out-dir", args.out_dir,
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.tiny:
        cmd.append("--tiny")
    try:
        return subprocess.call(cmd, cwd=ROOT, timeout=175)
    except subprocess.TimeoutExpired:
        log("gsbench timed out")
        return 124


def compare(argv):
    parser = argparse.ArgumentParser(description="Compare two saved results.")
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    docs = []
    for path in (args.a, args.b):
        with open(path) as f:
            docs.append(json.load(f))
    pa, pb = docs[0]["provenance"], docs[1]["provenance"]
    differ = [k for k in BUILD_FIELDS if pa.get(k) != pb.get(k)]
    if differ:
        for k in differ:
            log("provenance differs in %s: %r vs %r" % (k, pa.get(k), pb.get(k)))
        log("refusing to compare results from different builds or settings")
        return 2
    # The gated metrics, then the timings reported but not gated.
    ma = dict(docs[0]["result"]["metrics"], **docs[0].get("reported", {}))
    mb = dict(docs[1]["result"]["metrics"], **docs[1].get("reported", {}))
    print("%-40s %14s %14s %9s" % ("metric", "a", "b", "b/a-1"))
    for name in ma:
        va = ma[name]["value"]
        vb = mb.get(name, {}).get("value")
        if vb is None:
            continue
        change = "%+8.1f%%" % ((vb / va - 1) * 100) if va else "      n/a"
        print("%-40s %14.6g %14.6g %s %s" % (name, va, vb, change,
                                             ma[name]["unit"]))
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        return compare(sys.argv[2:])
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
