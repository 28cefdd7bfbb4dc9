#!/usr/bin/env python3
"""Steadiness check: runs the benchmark once per seed on each workload and
prints, per end-to-end metric, the median and the distance between the first
and third quartile as a share of the median (statistics.quantiles, n=4).

    python3 perfbench/spread.py --seeds 1-10 --seconds 20
    python3 perfbench/spread.py --workloads peer-tcp --seeds 1-5

Run it from the repository root. Workloads default to those in
BENCHMARK.json; the bound column is the metric's bound from that file.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", default=str(spec["run_seconds"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for wl in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", args.seconds, "--trace", "0"]
            run = subprocess.run(cmd, capture_output=True, text=True)
            if run.returncode != 0:
                print(f"{wl} seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
                ok = False
                continue
            res = json.loads(run.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{wl} seed {seed}: checks failed\n{run.stdout[-3000:]}")
                ok = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            steal = next((f for line in run.stdout.splitlines() if line.startswith("# run ")
                          for f in line.split() if f.startswith("steal=")), "steal=?")
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())) + f" {steal}", flush=True)
        print(f"\n{wl}: {len(args.seeds)} seeds, {args.seconds}s runs")
        print(f"{'metric':18s} {'median':>12s} {'iqr/median':>10s} {'bound':>6s}")
        for name in bounds:
            v = values.get(name, [])
            if len(v) < 2:
                continue
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q[2] - q[0]) / med if med else float("inf")
            flag = "" if name == "setup_s" or spread <= bounds[name] / 3 else \
                ("  over a third of the bound" if spread <= bounds[name] else "  OVER BOUND")
            print(f"{name:18s} {med:12.4f} {spread:10.4f} {bounds[name]:6.2f}{flag}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
