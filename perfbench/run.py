#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload small_quantum --seed 1 \
        --seconds 20 --trace 0

Builds perfbench/ (which compiles the library sources under src/) into
.bench_build/perfbench, runs one workload with QQO_THREADS fixed, and
relays the benchmark binary's report; the last stdout line is the JSON result. With
--trace 1 the per-layer spans go to .bench_build/perfbench/spans_*.json,
and the determinism digest is re-computed at QQO_THREADS=1 and must equal
the pool-size run's.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("small_quantum", "large_decompose")
# Pool size of every run (QQO_THREADS): the caller and two workers. That is
# one thread fewer than the 4 vCPUs the benchmark was tuned on, which leaves
# a core to the rest of the host, so one busy neighbour cannot stall every
# pool thread.
THREADS = 3
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found under " + root)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    binary = os.path.join(build_dir, "qqo_perfbench")
    if not os.path.isfile(binary):
        fail("benchmark binary missing after build")
    return binary


def run(binary, args, threads):
    env = dict(os.environ, QQO_THREADS=str(threads))
    done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, env=env, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if done.returncode != 0:
        fail("qqo_perfbench exited with code %d" % done.returncode)
    return done.stdout.splitlines()


def digest_of(lines):
    for line in lines:
        if line.startswith("digest "):
            return line.split()[1]
    return None


def declared_metrics(root, trace):
    """Metric name -> unit that BENCHMARK.json declares for this mode."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    binary = build(root, build_dir)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    binary_args = common + ["--seconds", str(args.seconds),
                            "--trace", args.trace]
    if args.trace == "1":
        binary_args += ["--span-file", os.path.join(
            build_dir, "spans_%s_%d.json" % (args.workload, args.seed))]
    lines = run(binary, binary_args, THREADS)
    if not lines or not lines[-1].startswith("{"):
        fail("qqo_perfbench printed no result")
    result = json.loads(lines[-1])

    notes = ["threads %d (QQO_THREADS)" % THREADS]
    declared = declared_metrics(root, args.trace == "1")
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if declared is not None and declared != reported:
        notes.append("metrics differ from BENCHMARK.json: %s" %
                     sorted(set(declared.items()) ^ set(reported.items())))
        result["correct"] = False
    if args.trace == "1":
        serial = digest_of(run(binary, common + ["--seconds", "1",
                                                 "--trace", "0",
                                                 "--digest-only"], 1))
        pooled = digest_of(lines)
        same = serial is not None and serial == pooled
        notes.append("digest at QQO_THREADS=1: %s (%s)" %
                     (serial, "identical" if same else "DIFFERS"))
        if not same:
            result["correct"] = False

    for line in lines[:-1]:
        print(line)
    for note in notes:
        print("note: " + note)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
