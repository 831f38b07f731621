#!/usr/bin/env python3
"""Run every workload of press-bench in both modes and print one table.

Usage: python3 perfbench/all.py [--seed N] [--seconds N]

Builds the benchmark once, then runs each workload with --trace 0 (the
end-to-end metrics) and --trace 1 (the per-layer table), one process per
run, and prints every metric by name with its unit. Exits non-zero if any
run fails or reports a failed request.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CARGO = ["cargo", "run", "--release", "--quiet", "--offline",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = CARGO + ["--workload", w["name"], "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", str(trace)]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                sys.stderr.write(p.stderr)
                print(f"{w['name']} trace {trace}: exit {p.returncode}")
                ok = False
                continue
            print(lines[0])
            r = json.loads(lines[-1])
            ok = ok and r["correct"] and r["failed"] == 0
            print(f"== {w['name']} (trace {trace}): correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}")
            for name, m in r["metrics"].items():
                print(f"   {name:36s} {m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
