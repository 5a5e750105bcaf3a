#!/usr/bin/env python3
"""Build and run the hmpt benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/CMakeLists.txt (the hmpt core library from src/ plus the
perfbench binary, Release) into $CARGO_TARGET_DIR, or .bench_build when it
is unset, then runs the binary with its scratch stores under .bench_run.
With --trace 1 the binary writes a Chrome trace to
<build dir>/trace-<workload>.json, which is validated with
tools/check_trace.py.

The binary's output is passed through. Its last line, one JSON object with
the keys correct/attempted/failed/metrics, is checked and printed again as
the last line: the metric names must be exactly the end-to-end (--trace 0)
or per-layer (--trace 1) metrics of BENCHMARK.json, and the binary's
reported controls must equal those recorded in perfbench/record.json.
Any failed check makes the result incorrect.

Exit status: 0 when the result is correct; 1 when a check failed, the
build failed or the binary did not produce a result (then no result line
is printed).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))


def run_timeout_s(seconds):
    """Watchdog for one binary run: the timed phases, plus set-up and the
    traced passes, which take about as long again, plus slack; never less
    than the 170 s that keeps a run at the default length under 180 s."""
    return max(170.0, 3 * seconds + 60)


def log(message):
    print("run.py: %s" % message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build; build output goes to stderr."""
    steps = []
    configured = any(os.path.exists(os.path.join(build_dir, name))
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=840).returncode != 0:
            return False
    return True


def run_binary(command, timeout_s):
    """Run the binary, echoing its stdout; returns (exit code, last line).

    A watchdog kills the binary after `timeout_s`; the exit code is then
    negative and the caller treats the run as failed.
    """
    last = None
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(timeout_s, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                line = line.rstrip("\n")
                if last is not None:
                    print(last, flush=True)
                last = line
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code < 0:
        return code, None
    return code, last


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args(argv[1:])
    traced = args.trace == "1"

    try:
        with open("BENCHMARK.json") as handle:
            spec = json.load(handle)
        with open(os.path.join(HERE, "record.json")) as handle:
            record = json.load(handle)
    except (OSError, ValueError) as error:
        log("cannot read the benchmark definition: %s" % error)
        return 1
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log("unknown workload %r (known: %s)"
            % (args.workload, ", ".join(names)))
        return 1

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        if not build(build_dir):
            log("build failed")
            return 1
    except (OSError, subprocess.TimeoutExpired) as error:
        log("build failed: %s" % error)
        return 1

    trace_path = os.path.join(build_dir, "trace-%s.json" % args.workload)
    if os.path.exists(trace_path):
        os.remove(trace_path)
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--work-dir", ".bench_run", "--trace-out", trace_path]
    try:
        code, last = run_binary(command, run_timeout_s(args.seconds))
    except OSError as error:
        log("cannot run the binary: %s" % error)
        return 1
    try:
        result = json.loads(last or "")
        controls = result.pop("controls")
    except (ValueError, KeyError, AttributeError):
        log("perfbench exited %d without a result line" % code)
        return 1

    problems = []
    if code != 0 and result.get("correct"):
        problems.append("perfbench exited %d" % code)
    kind = "per_layer" if traced else "end_to_end"
    expected = [m["name"] for m in spec[kind]]
    got = list(result["metrics"])
    if sorted(got) != sorted(expected):
        problems.append("metrics differ from BENCHMARK.json %s: missing %s, "
                        "extra %s" % (kind, sorted(set(expected) - set(got)),
                                      sorted(set(got) - set(expected))))
    want = dict(record["noise_controls"])
    want.update(record["workloads"][args.workload]["controls"])
    if controls != want:
        problems.append("perfbench controls %s differ from "
                        "perfbench/record.json %s"
                        % (json.dumps(controls, sort_keys=True),
                           json.dumps(want, sort_keys=True)))
    if traced:
        check = subprocess.run(
            [sys.executable, os.path.join("tools", "check_trace.py"),
             trace_path, "--min-events", "100"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=120)
        if check.returncode != 0:
            problems.append("trace %s failed tools/check_trace.py"
                            % trace_path)

    for problem in problems:
        log("CHECK FAILED: %s" % problem)
    result["attempted"] += len(problems)
    result["failed"] += len(problems)
    result["correct"] = bool(result["correct"]) and not problems
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
