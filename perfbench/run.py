#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call builds the qcgen
libraries and the benchmark binary from source in Release (into
$CARGO_TARGET_DIR, default .bench_build); later calls only bring the
build up to date. The binary's human-readable lines are passed through;
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics, and the exit code is non-zero
when any output check failed. Every benchmark process of a run must report
the same output fingerprint, and for the reference seeds it must equal
the one committed in reference_fingerprints.json. The full output of a
run that fails a check is kept in <build dir>/failed-runs/.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference_fingerprints.json")
PROCESSES = 5
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
# Everything the benchmark binaries printed in this run, kept when a check fails.
LOG = []


def keep_log(reason):
    """Writes the run's arguments and output to failed-runs/ in the build directory."""
    if not os.path.isdir(BUILD_DIR):
        return
    directory = os.path.join(BUILD_DIR, "failed-runs")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "%s-%d.log" % (time.strftime("%Y%m%dT%H%M%S"), os.getpid()))
    with open(path, "w") as handle:
        handle.write("run.py %s\n%s\n" % (" ".join(sys.argv[1:]), reason))
        handle.writelines(LOG)
    print("perfbench: output kept in " + os.path.relpath(path, ROOT), file=sys.stderr)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    keep_log(message)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the qcgen sources (src/) are not in this checkout", file=sys.stderr)
        sys.exit(2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            LOG.append(done.stdout)
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "perfbench")


def argument(args, flag):
    if flag in args and args.index(flag) + 1 < len(args):
        return args[args.index(flag) + 1]
    return None


def run_binary(binary, args):
    """Runs the benchmark binary once; returns its result and passes its log through."""
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("the benchmark binary did not finish within 170 s")
    LOG.append("$ perfbench %s  (exit code %d)\n%s" % (" ".join(args), done.returncode, done.stdout))
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(done.stdout)
        fail("the benchmark binary printed no result (exit code %d)" % done.returncode)
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0:
        print("CHECK FAILED: the benchmark binary exited with code %d" % done.returncode)
        result["correct"] = False
    return result


def main():
    args = sys.argv[1:]
    binary = build()
    workload, seed = argument(args, "--workload"), argument(args, "--seed")
    seconds, trace = argument(args, "--seconds"), argument(args, "--trace")
    if None in (workload, seed, seconds, trace):
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")

    # A process keeps its memory placement for its whole life, and on a
    # shared host that alone moves memory-bound work by up to ~1.5x from
    # one process to the next. An untraced run therefore splits its time
    # over PROCESSES benchmark processes and reports each metric's median.
    # The traced run does a fixed amount of work in one process.
    processes = 1 if trace == "1" else PROCESSES
    share = "%g" % (float(seconds) / processes)
    results = []
    for _ in range(processes):
        results.append(run_binary(binary, ["--workload", workload, "--seed", seed,
                                           "--seconds", share, "--trace", trace]))

    correct = all(r["correct"] for r in results)
    fingerprints = sorted({r.pop("fingerprint", "") for r in results})
    if len(fingerprints) != 1:
        print("CHECK FAILED: benchmark processes disagree on the fingerprint: %s" % fingerprints)
        correct = False
    with open(REFERENCE) as handle:
        expected = json.load(handle).get(workload, {}).get(seed)
    if expected is not None and fingerprints != [expected]:
        print("CHECK FAILED: fingerprint %s differs from the reference %s" % (fingerprints, expected))
        correct = False
    if not correct:
        keep_log("an output check failed")
    metrics = {}
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values), "unit": metric["unit"]}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
