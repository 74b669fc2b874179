#!/usr/bin/env python3
"""Canonical benchmark of the grefar library.

Builds perfbench_driver (the grefar library from src/ plus the driver in
this directory) as a Release build under .bench_build/, runs one workload,
checks its outputs and prints every metric by name with its unit and
better-direction. The last line of stdout is the result as one JSON object:

  {"correct": true, "attempted": N, "failed": 0,
   "metrics": {"<name>": {"value": x, "unit": "<unit>"}, ...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set; with
--trace 1 they are its per_layer set (see perfbench/README.md).

  python3 perfbench/run.py --workload serve --seed 1 --seconds 40 --trace 0

Workloads: serve, scale_1m, paper_sweep. --tiny and --inject exist for the
self-test (perfbench/test_run.py).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

# Printed with every untraced run but not bounded in BENCHMARK.json.
# error_rate is 0 at a correct commit (bounds are shares of the median);
# slot_p99_ms spreads 0.2-0.6 of its median between runs of the serve
# workload on a shared 4-core box, wider than the 0.25 timing bound.
REPORTED_ONLY = {"slot_p99_ms": ("ms", "lower")}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_quiet(cmd, env):
    """Runs a build step with its output on stderr (stdout carries results)."""
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BenchError("build step failed: " + " ".join(cmd))


def build(env):
    """Configures (once) and builds the Release driver; returns its path."""
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found on PATH")
    build_dir = os.path.join(BUILD_ROOT, "release")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        log("perfbench: configuring the Release build in %s" % build_dir)
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"], env)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs,
               "--target", "perfbench_driver"], env)
    return os.path.join(build_dir, "perfbench_driver")


def parse_args(spec):
    parser = argparse.ArgumentParser(
        description="grefar canonical benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to a few slots (self-test)")
    parser.add_argument("--inject", choices=["bad_price"],
                        help="inject a fault into the serve trace (self-test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main():
    spec = load_spec()
    args = parse_args(spec)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    tmp = os.path.join(BUILD_ROOT, "tmp")
    scratch = os.path.join(BUILD_ROOT, "scratch", args.workload)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    driver = build(env)

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=2 * args.seconds + 60)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise BenchError("driver exited with code %d" % proc.returncode)

    lines = proc.stdout.splitlines()
    results = [l for l in lines if l.startswith("RESULT ")]
    if not results:
        sys.stdout.write(proc.stdout)
        raise BenchError("driver printed no RESULT line")
    raw = json.loads(results[-1][len("RESULT "):])
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)

    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    measured = raw["metrics"]
    names = [m["name"] for m in wanted]
    extra = {} if args.trace else REPORTED_ONLY
    unknown = sorted(set(measured) - set(names) - set(extra))
    if unknown:
        raise BenchError("driver metrics missing from BENCHMARK.json: %s" % unknown)
    if args.trace:
        # A layer the workload does not use reports 0.
        measured = {n: measured.get(n, 0.0) for n in names}
    missing = [n for n in names if measured.get(n) is None]
    if missing and failed == 0:
        raise BenchError("metrics not measured: %s" % missing)

    correct = failed == 0 and not missing and attempted > 0
    error_rate = failed / attempted if attempted else 1.0
    print("%-36s %14s %-8s %s" % ("metric", "value", "unit", "better"))
    print("%-36s %14.6g %-8s %s" % ("error_rate", error_rate, "fraction", "lower"))
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"])
        value = 0.0 if value is None else float(value)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-36s %14.6g %-8s %s" % (m["name"], value, m["unit"], m["better"]))
    for name, (unit, better) in extra.items():
        if measured.get(name) is not None:
            print("%-36s %14.6g %-8s %s (not bounded)" % (name, measured[name], unit, better))
    if not correct:
        print("INCORRECT: %d of %d operations failed%s" % (
            failed, attempted, "; not measured: %s" % missing if missing else ""))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, subprocess.SubprocessError, ValueError,
            KeyError) as e:
        log("perfbench: error: %s" % e)
        sys.exit(1)
