#!/usr/bin/env python3
"""Build and run the OTFT-Arch end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
harness and the program's module libraries from source into
.bench_build/perfbench (about a minute on four cores); later calls only
re-check the build. The harness prints every metric of the run as one
JSON object on the last line of standard output; build output goes to
standard error.

    python3 perfbench/run.py --workload NAME --seed N --record

runs one rep and stores its check values in perfbench/reference.json,
the reference later runs of that (workload, seed) must match exactly.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "otft_perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("width_grid", "yield_signoff", "characterize")
# Whole run, build included, must end within the benchmark's 180 s.
RUN_LIMIT_S = 170.0


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the program and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def build(deadline):
    """Configure once, then bring the harness up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources (src/CMakeLists.txt) next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j",
                  str(len(os.sched_getaffinity(0)))])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, deadline - time.time()))
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def record(args, deadline):
    """Run one rep and store its checks as the (workload, seed) reference."""
    out = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "1", "--trace", "0", "--record"],
        stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.time()))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        fail("reference run failed its own checks")
    doc = {"schema": "otft-perfbench-reference-1", "entries": {}}
    if os.path.isfile(REFERENCE):
        with open(REFERENCE) as f:
            doc = json.load(f)
    key = "%s/seed=%d" % (args.workload, args.seed)
    doc["entries"][key] = result["reference"]
    with open(REFERENCE, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print("recorded " + key, file=sys.stderr)


def main():
    start = time.time()
    # On SIGTERM, unwind through subprocess.run, which kills and reaps
    # the build or harness child before re-raising.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    # A first run in a fresh checkout is allowed a long build.
    first = not os.path.isfile(BINARY)
    deadline = start + (900.0 if first else RUN_LIMIT_S)
    build(deadline)
    if args.record:
        record(args, deadline)
        return 0

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", REFERENCE, "--source-digest", source_digest()]
    limit = deadline - time.time()
    try:
        return subprocess.run(cmd, timeout=max(1.0, limit)).returncode
    except subprocess.TimeoutExpired:
        fail("harness exceeded %.0f s" % limit)


if __name__ == "__main__":
    sys.exit(main())
