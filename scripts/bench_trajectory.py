#!/usr/bin/env python3
"""Run one perfbench workload and append its result to the perf trajectory.

    python3 scripts/bench_trajectory.py --workload NAME --seed N --seconds S \\
        --trace 0|1 [--checkout DIR] [--label TEXT] [--out FILE]

Runs DIR/perfbench/run.py unchanged (DIR defaults to this checkout) and
appends one JSON line to FILE (default: BENCH_trajectory.jsonl at the root
of this checkout):

    {"commit": ..., "label": ..., "utc": ..., "workload": ..., "seed": ...,
     "seconds": ..., "trace": ..., "nproc": ..., "host_steal_share": ...,
     "correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`commit` is `git describe --always --dirty --abbrev=12` of DIR, so a run of
uncommitted changes reads "<commit>-dirty"; `label` is free text (e.g.
"parent" / "change" for an A/B pair). `metrics` maps each reported metric
to its value; units live in BENCHMARK.json. The benchmark's own output
passes through to standard error. Exit status is run.py's; nothing is
appended when the run printed no result line.
"""

import argparse
import datetime
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def describe(checkout):
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=checkout, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() or "none"


def parse_report(text):
    """The result JSON line, nproc and host_steal_share from run.py's
    standard output (None for whatever is missing)."""
    result = nproc = steal = None
    for line in text.splitlines():
        if line.startswith('{"correct"'):
            result = json.loads(line)
        elif line.startswith("provenance:"):
            match = re.search(r"\bnproc=(\d+)", line)
            nproc = int(match.group(1)) if match else None
        elif line.startswith("report host_steal_share"):
            steal = float(line.split()[2])
    return result, nproc, steal


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--checkout", default=ROOT)
    parser.add_argument("--label", default="")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_trajectory.jsonl"))
    args = parser.parse_args()

    checkout = os.path.abspath(args.checkout)
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True)
    sys.stderr.write(done.stdout)
    result, nproc, steal = parse_report(done.stdout)
    if result is None:
        print("bench_trajectory: the run printed no result line", file=sys.stderr)
        return done.returncode or 1

    record = {
        "commit": describe(checkout),
        "label": args.label,
        "utc": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "host_steal_share": steal,
        "correct": result.get("correct"),
        "attempted": result.get("attempted"),
        "failed": result.get("failed"),
        "metrics": {name: metric["value"]
                    for name, metric in sorted(result.get("metrics", {}).items())},
    }
    line = json.dumps(record, sort_keys=False)
    with open(args.out, "a", encoding="utf-8") as out:
        out.write(line + "\n")
    print(line)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
