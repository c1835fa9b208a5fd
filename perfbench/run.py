#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark binary from source into
.bench_build/ (CMake, Release), runs one workload, and prints as the last
line of stdout one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end metrics listed in
BENCHMARK.json; with --trace 1 they are its per-layer metrics, and the
spans of the traced run are written to .bench_build/traces/ as Chrome
trace-event JSON (open it in Perfetto). perfbench/METRICS.md describes
every metric, its clock and the end-to-end metric it should move.

Exits nonzero if any correctness check fails, and without a result if the
program's sources are missing or do not build.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["train-compute", "train-msgs", "train-1.5d"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no program sources (src/) next to perfbench/; nothing to measure")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    built = subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr)
    if built.returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "perfbench")


def code_hash():
    """Identity of the measured code: program sources plus benchmark files."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_trace_file(path):
    """The trace must parse as Chrome trace-event JSON with complete events."""
    try:
        with open(path) as f:
            trace = json.load(f)
        events = trace["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        ok = bool(spans) and all(
            isinstance(e["name"], str) and e["dur"] >= 0 and "ts" in e and "tid" in e
            for e in spans)
        return ok, len(spans)
    except (OSError, ValueError, KeyError, TypeError) as err:
        print(f"perfbench: trace file unreadable: {err}", file=sys.stderr)
        return False, 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    binary = build()
    counts_dir = os.path.join(ROOT, ".bench_build", "counts")
    traces_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(counts_dir, exist_ok=True)
    os.makedirs(traces_dir, exist_ok=True)
    counts_file = os.path.join(counts_dir, f"{args.workload}-{args.seed}-{code_hash()}.txt")
    trace_file = os.path.join(traces_dir, f"{args.workload}-{args.seed}.json")
    # train-compute's serving phase writes its spans beside the training ones.
    trace_files = [trace_file]
    if args.workload == "train-compute":
        trace_files.append(trace_file[:-len(".json")] + "-serve.json")
    for path in trace_files:
        if os.path.exists(path):
            os.remove(path)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--counts-file", counts_file, "--trace-file", trace_file]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"no result line (exit status {proc.returncode})")

    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        result["failed"] += 1
        print(f"perfbench: metrics {sorted(got.items())} differ from BENCHMARK.json "
              f"{sorted(want.items())}", file=sys.stderr)
    for path in trace_files if args.trace else []:
        ok, spans = check_trace_file(path)
        result["attempted"] += 1
        if ok:
            print(f"trace: {spans} spans in {os.path.relpath(path, ROOT)}")
        else:
            result["failed"] += 1
    result["correct"] = result["failed"] == 0 and proc.returncode == 0
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
