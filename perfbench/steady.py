#!/usr/bin/env python3
"""Steadiness check of the repository benchmark.

Runs each workload of BENCHMARK.json several times, each run with its own
seed, and prints for every end-to-end metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, i.e. the
distance between the quartiles as a share of the median, against the
metric's bound. A spread above a third of its bound is flagged. Run i uses
seed i, for i in 1..runs.

    python3 perfbench/steady.py                       # 10 runs per workload
    python3 perfbench/steady.py --runs 5 --workload failover
    python3 perfbench/steady.py --out perfbench/BASELINE.json

Run from the repository root. Exits 1 when a run fails or is incorrect, or
when a spread is above its full bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or len(lines) < 2:
        sys.stderr.write(res.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {res.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
    return json.loads(lines[-2])["stamp"], result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--out", help="write the summary as JSON to this file")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.runs + 1))
    summary = {"run_seconds": spec["run_seconds"], "runs": args.runs,
               "seeds": seeds, "workloads": {}}
    worst = "ok"
    for w in workloads:
        per_metric = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds:
            stamp, result = run_once(spec, w, seed)
            summary.setdefault("stamp", {k: v for k, v in stamp.items()
                                         if k in ("nproc", "build_type", "lane_width",
                                                  "kernel_isa", "obs", "commit", "rss_reset")})
            for name in per_metric:
                per_metric[name].append(result["metrics"][name]["value"])
            print(f"  {w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        print(f"{w}: {args.runs} runs")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6}  verdict")
        summary["workloads"][w] = {}
        for m in spec["end_to_end"]:
            s = summarize(per_metric[m["name"]])
            summary["workloads"][w][m["name"]] = s
            if s["spread"] <= m["bound"] / 3:
                verdict = "steady"
            elif s["spread"] <= m["bound"]:
                verdict = "WIDE (> bound/3)"
                worst = "wide" if worst == "ok" else worst
            else:
                verdict = "UNSTEADY (> bound)"
                worst = "unsteady"
            print(f"  {m['name']:<16} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
                  f"{s['spread']:>8.4f} {m['bound']:>6.3g}  {verdict}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
    print(f"overall: {worst}")
    sys.exit(1 if worst == "unsteady" else 0)


if __name__ == "__main__":
    main()
