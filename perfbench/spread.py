#!/usr/bin/env python3
"""Runs one workload over several seeds and prints, per metric, the
median and the interquartile range as a share of the median.

    python3 perfbench/spread.py --workload lazy-evicting --seeds 1-5 [--seconds 15] [--trace 0]

Run it from the repository root. It is the steadiness check the
benchmark is tuned against: every end-to-end metric's spread should stay
well inside its bound in BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="15")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: {res['failed']} failed of {res['attempted']}\n{out.stderr[-2000:]}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        for line in out.stderr.splitlines():
            if "raw set-up" in line:
                print("   " + line, flush=True)
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        line = f"{name:32s} median {med:12.5g}"
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / abs(med)
            line += f"  spread {spread:6.1%}"
            if name in bounds:
                line += f"  (bound {bounds[name]:.0%}, a third is {bounds[name] / 3:.1%})"
        print(line)


if __name__ == "__main__":
    main()
