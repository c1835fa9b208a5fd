#!/usr/bin/env python3
"""Schema check for the BENCH_*.json artifacts the bench drivers write.

Checks every BENCH_*.json in the working directory, and fails if there is
none. Each file must be one non-empty JSON array with nothing after it, and
must not contain NaN or Infinity. Every record of BENCH_wallclock.json must
be an object with the keys listed below. Any violation exits 1.

Usage (where the benches ran): python3 scripts/check_bench_json.py
"""
import glob
import json
import sys

REQUIRED_KEYS = {
    "BENCH_wallclock.json": ["bench", "dataset", "partitioner", "width",
                             "threads", "seconds", "speedup", "gbps"],
}


def reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def violation(path):
    """Returns what is wrong with `path`, or None."""
    try:
        with open(path, encoding="utf-8") as f:
            records = json.loads(f.read(), parse_constant=reject_constant)
    except (OSError, ValueError) as e:
        return str(e)
    if not isinstance(records, list) or not records:
        return "not a non-empty JSON array"
    for i, record in enumerate(records):
        for key in REQUIRED_KEYS.get(path, []):
            if not isinstance(record, dict) or key not in record:
                return f'record {i} is missing required key "{key}"'
    print(f"ok: {path} ({len(records)} records)")
    return None


def main():
    paths = sorted(glob.glob("BENCH_*.json"))
    if not paths:
        print("SCHEMA VIOLATION: no BENCH_*.json in the working directory",
              file=sys.stderr)
        return 1
    failed = False
    for path in paths:
        error = violation(path)
        if error:
            print(f"SCHEMA VIOLATION: {path}: {error}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
