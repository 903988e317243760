#!/usr/bin/env python3
"""Collects sets of benchmark runs and compares two of them.

Collect one set per commit, from the root of its checkout:

    python3 perfbench/compare.py collect --out parent.jsonl --runs 10

runs every workload untraced with seeds 1..runs (or from --first-seed),
plus one traced run per workload, and appends one JSON line per run.
Then compare the sets:

    python3 perfbench/compare.py report parent.jsonl change.jsonl

For each workload and end-to-end metric it prints each side's median and
quartiles, the share of seed-paired runs the change wins (ties count for
neither side) and a verdict:

  improved      the change wins at least 9/10 of the pairs and the medians
                differ, in the metric's better direction, by more than the
                distance between the parent's quartiles;
  unresolved    the parent's own spread (quartile distance over median) is
                wider than the metric's bound and not every change run
                beats every parent run;
  worse         the change's median is worse than the parent's by more
                than the bound;
  within bound  otherwise.

A gain does not count when the change failed more operations than the
parent on that workload: "improved" is then reported as "unresolved".
Runs that failed an output check (or printed no result) are left out of
the medians and the pairs, and the report counts them per side.

It then prints the per-layer metrics of the traced runs side by side.
Bounds and directions come from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def quartiles(values):
    """First quartile, median and third quartile, as statistics.quantiles
    (exclusive method) gives them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def beats(a, b, better):
    return a < b if better == "lower" else a > b


def verdict(parent, change, pairs, better, bound, parent_failed=0, change_failed=0):
    """Verdict of the change against the parent for one metric.

    `parent` and `change` are the two sides' values; `pairs` holds
    (parent, change) values of runs with the same seed; `*_failed` are
    the operations each side failed on the workload."""
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    q1, _, q3 = quartiles(parent)
    wins = sum(1 for p, c in pairs if beats(c, p, better))
    if (pairs and wins >= 0.9 * len(pairs) and beats(change_median, parent_median, better)
            and abs(change_median - parent_median) > q3 - q1):
        if change_failed > parent_failed:
            return "unresolved", wins
        return "improved", wins
    all_better = all(beats(c, p, better) for c in change for p in parent)
    if (q3 - q1) / parent_median > bound and not all_better:
        return "unresolved", wins
    worse_by = (change_median - parent_median) / parent_median
    if better == "higher":
        worse_by = -worse_by
    if worse_by > bound:
        return "worse", wins
    return "within bound", wins


def read_runs(path):
    runs = []
    with open(path) as handle:
        for line in handle:
            if line.strip():
                runs.append(json.loads(line))
    return runs


def usable(run):
    """True for a run that printed a result and passed its output checks."""
    return run["result"] is not None and run["result"]["correct"]


def failures_by(runs, trace):
    """{workload: (failed operations, unusable runs)} over runs with the given
    trace flag; a run that printed no result counts as one failed operation."""
    out = {}
    for run in runs:
        if run["trace"] != trace:
            continue
        failed, unusable = out.get(run["workload"], (0, 0))
        result = run["result"]
        failed += 1 if result is None else result["failed"]
        out[run["workload"]] = (failed, unusable + (0 if usable(run) else 1))
    return out


def values_by(runs, trace):
    """{workload: {metric: {seed: value}}} over the usable runs with the given
    trace flag."""
    out = {}
    for run in runs:
        if run["trace"] != trace or not usable(run):
            continue
        metrics = out.setdefault(run["workload"], {})
        for name, metric in run["result"]["metrics"].items():
            metrics.setdefault(name, {})[run["seed"]] = metric["value"]
    return out


def result_of(stdout):
    """The JSON result on the last line of run.py's output, or None when it
    printed none (a build failure, a timeout)."""
    lines = stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "correct" in result else None


def collect(args):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    plan = [(w, seed, 0) for seed in seeds for w in workloads]
    plan += [(w, args.first_seed, 1) for w in workloads]
    with open(args.out, "a") as out:
        for workload, seed, trace in plan:
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds or spec["run_seconds"]), "--trace", str(trace)]
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = result_of(done.stdout)
            out.write(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                                  "exit_code": done.returncode, "result": result}) + "\n")
            out.flush()
            print("%s seed %d trace %d: exit code %d, correct %s" % (
                workload, seed, trace, done.returncode, result is not None and result["correct"]))


def report(args):
    spec = load_spec()
    parent_runs, change_runs = read_runs(args.parent), read_runs(args.change)
    parent, change = values_by(parent_runs, 0), values_by(change_runs, 0)
    parent_failures, change_failures = failures_by(parent_runs, 0), failures_by(change_runs, 0)
    for workload in sorted(set(parent_failures) | set(change_failures)):
        p_failed, p_unusable = parent_failures.get(workload, (0, 0))
        c_failed, c_unusable = change_failures.get(workload, (0, 0))
        if p_failed or c_failed or p_unusable or c_unusable:
            print("%s: failed operations parent %d, change %d; runs left out for a failed "
                  "check or no result: parent %d, change %d" % (
                      workload, p_failed, c_failed, p_unusable, c_unusable))
    header = "%-13s %-15s %12s %25s %12s %25s %6s  %s" % (
        "workload", "metric", "parent med", "parent q1..q3", "change med", "change q1..q3",
        "wins", "verdict")
    print(header)
    for workload in sorted(set(parent) & set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_seeds = parent[workload].get(name, {})
            c_seeds = change[workload].get(name, {})
            if not p_seeds or not c_seeds:
                continue
            p_values, c_values = list(p_seeds.values()), list(c_seeds.values())
            pairs = [(p_seeds[s], c_seeds[s]) for s in sorted(set(p_seeds) & set(c_seeds))]
            outcome, wins = verdict(p_values, c_values, pairs, metric["better"], metric["bound"],
                                    parent_failures[workload][0], change_failures[workload][0])
            pq1, pq2, pq3 = quartiles(p_values)
            cq1, cq2, cq3 = quartiles(c_values)
            print("%-13s %-15s %12.5g %12.5g..%-12.5g %12.5g %12.5g..%-12.5g %2d/%-3d  %s" % (
                workload, name, pq2, pq1, pq3, cq2, cq1, cq3, wins, len(pairs), outcome))

    parent_traced, change_traced = values_by(parent_runs, 1), values_by(change_runs, 1)
    print("\nper-layer metrics (traced runs; medians when several)")
    print("%-13s %-36s %14s %14s %8s" % ("workload", "metric", "parent", "change", "ratio"))
    for workload in sorted(set(parent_traced) & set(change_traced)):
        for metric in spec["per_layer"]:
            name = metric["name"]
            p = list(parent_traced[workload].get(name, {}).values())
            c = list(change_traced[workload].get(name, {}).values())
            if not p or not c:
                continue
            p_median, c_median = statistics.median(p), statistics.median(c)
            if p_median == 0 and c_median == 0:
                continue
            ratio = "%8.3f" % (c_median / p_median) if p_median else "       -"
            print("%-13s %-36s %14.6g %14.6g %s" % (workload, name, p_median, c_median, ratio))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    collect_parser = commands.add_parser("collect", help="run the benchmark and append results")
    collect_parser.add_argument("--out", required=True)
    collect_parser.add_argument("--runs", type=int, default=10)
    collect_parser.add_argument("--first-seed", type=int, default=1)
    collect_parser.add_argument("--seconds", type=int, default=0,
                                help="run length (default: run_seconds of BENCHMARK.json)")
    report_parser = commands.add_parser("report", help="compare two collected sets")
    report_parser.add_argument("parent")
    report_parser.add_argument("change")
    args = parser.parse_args()
    if args.command == "collect":
        collect(args)
    else:
        report(args)


if __name__ == "__main__":
    sys.exit(main())
