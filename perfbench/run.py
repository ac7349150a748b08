#!/usr/bin/env python3
"""Build and run the tac3d repository benchmark (see perfbench/README.md).

One workload:

    python3 perfbench/run.py --workload paper_matrix --seed 1 --seconds 10 --trace 0

prints the host record and, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"} with every end-to-end metric
(--trace 0) or every per-layer metric (--trace 1).

Every workload, one command:

    python3 perfbench/run.py                 # end-to-end table
    python3 perfbench/run.py --traced        # per-layer table, JSON
    python3 perfbench/run.py --self-test     # the output check's self-test

The first call configures and builds the library and the runner into
$CARGO_TARGET_DIR (default .bench_build) under the checkout root; later
calls only re-check the build. Exit status is 0 only when every requested
run finished and printed a result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170  # one run must end well within 180 s


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configure (first time) and build; build logs go to stderr."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return bdir / "perfbench"


def run_one(binary, workload, seed, seconds, trace):
    """Run one workload; return (exit code, stdout lines, parsed result)."""
    trace_dir = build_dir() / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-out", str(trace_dir / workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, [], None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, lines, None
    result = json.loads(lines[-1])
    # The result must carry exactly the metric set BENCHMARK.json names.
    want = {m["name"]: m["unit"]
            for m in spec()["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        print(f"run.py: {workload} reported {sorted(got.items())}, "
              f"BENCHMARK.json names {sorted(want.items())}", file=sys.stderr)
        return 1, lines, None
    return 0, lines, result


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all",
                   help="workload name, or 'all' (default) for a table")
    p.add_argument("--seed", type=int, default=1,
                   help="workload seed (default 1; held-out seed: 2)")
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--traced", action="store_true", help="same as --trace 1")
    p.add_argument("--self-test", action="store_true",
                   help="run the output check's self-test")
    args = p.parse_args()

    binary = build()
    if args.self_test:
        return subprocess.run([str(binary), "--self-test"], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode

    bench = spec()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    trace = 1 if args.traced else args.trace
    names = [w["name"] for w in bench["workloads"]]

    if args.workload != "all":
        if args.workload not in names:
            sys.exit(f"run.py: unknown workload {args.workload!r}; "
                     f"choose from {names}")
        code, lines, result = run_one(binary, args.workload, args.seed,
                                      seconds, trace)
        for line in lines[:-1]:
            print(line)
        if result is None:
            return code or 1
        print(lines[-1])
        return 0

    table = {}
    status = 0
    for name in names:
        code, lines, result = run_one(binary, name, args.seed, seconds, trace)
        if result is None:
            print(f"run.py: {name} failed (exit {code})", file=sys.stderr)
            status = 1
            continue
        if lines[:-1]:
            print(lines[0])  # host record
        table[name] = result
        print(f"\n{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"failed_frac={result['failed'] / result['attempted']:.6g}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:34s} {v['value']:>16.6g}  {v['unit']}")
    print(json.dumps(table))
    return status


if __name__ == "__main__":
    sys.exit(main())
