#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

One workload, one run:

    python3 bench_end2end/run.py --workload gossip-2k --seed 7 \
        --seconds 15 --trace 0

builds bench_end2end from source into .bench_build/ (first run only),
runs it, and passes its output through; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}.

The whole suite:

    python3 bench_end2end/run.py --all [--seconds 15]

runs every workload REPS times round-robin at its default seed, each
run in a fresh process, then one traced run per workload. It prints
`workload metric unit median q1 q3 count` lines, checks that every
repetition reproduced the same outputs, and writes BENCH_end2end.json
(with the build's `env` block) into .bench_build/out/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "end2end")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD_DIR, "bench_end2end")
# A run must end within 180 s; stop a stuck one before that.
RUN_TIMEOUT_S = 170
# Repetitions per workload in an --all set.
REPS = 5


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once, then brings the binary up to date."""
    for needed in ("src/cluster/engine.hpp", "scenarios/GOLDEN.txt"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a full checkout")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "bench_end2end"),
                     "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr)


def run_once(workload, seed, seconds, trace):
    """Runs one workload in a fresh process; returns (exit code, stdout)."""
    cmd = [BINARY, "--workload", workload, "--seconds", str(seconds),
           "--trace", str(trace), "--out", OUT_DIR,
           "--scenarios", os.path.join(ROOT, "scenarios")]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def parse_result(stdout, spec, trace):
    """The JSON result line, checked against BENCHMARK.json's metrics."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        raise ValueError(f"metrics {sorted(got)} != {sorted(wanted)}")
    return result


def prefixed(stdout, prefix):
    return [line[len(prefix):] for line in stdout.splitlines()
            if line.startswith(prefix)]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_all(spec, seconds):
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in workloads}
    env = None
    ok = True
    for rep in range(REPS):
        for w in workloads:
            code, stdout = run_once(w, None, seconds, 0)
            if env is None and prefixed(stdout, "env "):
                env = json.loads(prefixed(stdout, "env ")[0])
            try:
                result = parse_result(stdout, spec, False)
            except (ValueError, KeyError) as e:
                print(f"{w} rep {rep}: {e}", file=sys.stderr)
                ok = False
                continue
            ok = ok and code == 0 and result["correct"]
            result["fingerprint"] = prefixed(stdout, "fingerprint ")[0]
            runs[w].append(result)
            print(f"{w} rep {rep}: exit {code}, correct {result['correct']}",
                  file=sys.stderr)
    if env is not None and not env["optimize"]:
        print("warning: unoptimized build; timings are not comparable")

    report = {"bench": "end2end", "env": env, "reps": REPS,
              "seconds": seconds, "workloads": {}}
    for w in workloads:
        fingerprints = {r["fingerprint"] for r in runs[w]}
        if len(fingerprints) != 1:
            print(f"{w}: outputs differ across repetitions: {fingerprints}",
                  file=sys.stderr)
            ok = False
        entry = {"fingerprint": sorted(fingerprints),
                 "attempted": sum(r["attempted"] for r in runs[w]),
                 "failed": sum(r["failed"] for r in runs[w]),
                 "end_to_end": {}, "per_layer": {}}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs[w]]
            if not values:
                continue
            q1, q3 = quartiles(values)
            entry["end_to_end"][name] = {
                "unit": metric["unit"], "median": statistics.median(values),
                "q1": q1, "q3": q3, "count": len(values), "values": values}
            print(f"{w} {name} {metric['unit']} "
                  f"{statistics.median(values):.6g} {q1:.6g} {q3:.6g} "
                  f"{len(values)}")
        code, stdout = run_once(w, None, seconds, 1)
        try:
            traced = parse_result(stdout, spec, True)
            ok = ok and code == 0 and traced["correct"]
            entry["per_layer"] = traced["metrics"]
        except (ValueError, KeyError) as e:
            print(f"{w} traced: {e}", file=sys.stderr)
            ok = False
        report["workloads"][w] = entry

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "BENCH_end2end.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(f"wrote {path}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        fail("give either --workload <name> or --all")
    spec = load_spec()
    build()
    seconds = args.seconds or spec["run_seconds"]
    if args.all:
        return run_all(spec, seconds)

    code, stdout = run_once(args.workload, args.seed, seconds, args.trace)
    sys.stdout.write(stdout)
    try:
        parse_result(stdout, spec, args.trace == 1)
    except (ValueError, KeyError) as e:
        print(f"run.py: bad result from {args.workload}: {e}",
              file=sys.stderr)
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
