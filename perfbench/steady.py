#!/usr/bin/env python3
"""Check that the benchmark is steady enough to gate on.

Usage (from the repository root):

    python3 perfbench/steady.py [--workloads A,B] [--seeds 10] [--first-seed 1]
                                [--sets 2]

Runs `perfbench/run.py --trace 0` once per seed for every workload, in
--sets sets of --seeds seeds each (set k uses the seeds after set k-1's),
all workloads of a set before the next set starts, so the sets lie apart
in time. For each end-to-end metric of BENCHMARK.json it reports, per set,
the median and the spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median.

A metric fails when its spread in any set exceeds its bound, or when a
later set's median is worse than the first set's by more than the bound.
The target is a spread below a third of the bound.

It also checks the counts that must repeat exactly: two traced runs with
the first seed must report identical values for every metric listed under
"exact_per_layer" in perfbench/record.json, and a second untraced run with
the first seed must repeat each "exact_end_to_end" metric.

Exit status: 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d trace %d failed (exit %d)"
                           % (workload, seed, trace, proc.returncode))
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def worsening(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv[1:])

    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    with open(os.path.join(HERE, "record.json")) as handle:
        record = json.load(handle)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    ok = True

    runs = {workload: [] for workload in workloads}  # per set, per seed
    for k in range(args.sets):
        seeds = range(args.first_seed + k * args.seeds,
                      args.first_seed + (k + 1) * args.seeds)
        for workload in workloads:
            runs[workload].append([])
            for seed in seeds:
                runs[workload][k].append(run(workload, seed, seconds, 0))
                print("%s set %d seed %d: %s" % (
                    workload, k + 1, seed,
                    json.dumps(runs[workload][k][-1], sort_keys=True)),
                    file=sys.stderr, flush=True)

    for workload in workloads:
        print("\n%s: %d set(s) of %d seeds from %d"
              % (workload, args.sets, args.seeds, args.first_seed))
        print("  %-26s %3s %14s %8s %9s %7s  %s"
              % ("metric", "set", "median", "spread", "vs set 1", "bound",
                 "verdict"))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = None
            for k, values in enumerate(runs[workload]):
                median, share = spread([r[name] for r in values])
                first = median if first is None else first
                worse = worsening(first, median, metric["better"])
                if share > bound:
                    verdict = "TOO NOISY"
                elif worse > bound:
                    verdict = "MEDIAN MOVED"
                elif share <= bound / 3:
                    verdict = "steady"
                else:
                    verdict = "within bound"
                ok = ok and verdict not in ("TOO NOISY", "MEDIAN MOVED")
                print("  %-26s %3d %14.6g %7.2f%% %+8.2f%% %6.0f%%  %s"
                      % (name, k + 1, median, 100 * share, 100 * worse,
                         100 * bound, verdict))

        first_seed = args.first_seed
        traced = [run(workload, first_seed, seconds, 1) for _ in range(2)]
        again = run(workload, first_seed, seconds, 0)
        pairs = [(n, traced[0][n], traced[1][n])
                 for n in record["exact_per_layer"]]
        pairs += [(n, runs[workload][0][0][n], again[n])
                  for n in record["exact_end_to_end"]]
        for name, a, b in pairs:
            same = a == b
            ok = ok and same
            print("  exact %-36s %s" % (name, "repeats" if same else
                                         "DIFFERS: %r vs %r" % (a, b)))
        print("  traced obs.coverage %.4f, %.4f"
              % (traced[0]["obs.coverage"], traced[1]["obs.coverage"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
