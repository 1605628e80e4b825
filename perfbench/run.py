#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload manners --seed 1 --seconds 20 --trace 0

`--workload` is one of BENCHMARK.json's workloads: `manners`,
`sweep-sections` or `tenants` (perfbench/README.md describes them).

Builds `perfbench/` (a CMake package that compiles `src/` in Release) into
`$CARGO_TARGET_DIR/perfbench` (default `.bench_build/perfbench`), runs the
self-test of the benchmark's own arithmetic, then runs the workload.  The
workload's report is printed as is; the last line printed is the result:

    {"correct": ..., "attempted": n, "failed": n, "metrics": {...}}

holding every `end_to_end` metric of BENCHMARK.json with `--trace 0` and
every `per_layer` metric with `--trace 1`.  Per-layer metrics of layers a
workload does not run are reported as 0.  A traced run also writes a
Chrome trace to `<build dir>/traces/<workload>-seed<n>.json`.

Exits 1 without a result line when the build, the self-test or the run
fails, or when the run reports a metric that BENCHMARK.json does not
declare the same way.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out):
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", out, "-j", jobs]]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-30:]))
                fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = build_dir()
    build(out)
    selftest = subprocess.run([os.path.join(out, "perfbench_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=60)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout)
        fail("self-test failed")

    command = [os.path.join(out, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--chrome-trace", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                         timeout=170)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail("workload run failed with exit code %d" % run.returncode)
    for line in lines[:-1]:
        print(line)
    report = json.loads(lines[-1])

    metrics = {}
    for metric in declared:
        name = metric["name"]
        got = report["metrics"].get(name)
        if got is None:
            if not args.trace:
                fail("the run did not report " + name)
            got = {"value": 0.0, "unit": metric["unit"]}  # layer not run
        if got["unit"] != metric["unit"]:
            fail("%s is in %s, BENCHMARK.json says %s"
                 % (name, got["unit"], metric["unit"]))
        value = got["value"]
        if value is None or not math.isfinite(value):
            fail(name + " is not a finite number")
        metrics[name] = {"value": value, "unit": metric["unit"]}
    extra = set(report["metrics"]) - set(metrics)
    if extra:
        fail("undeclared metrics: " + ", ".join(sorted(extra)))

    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
