#!/usr/bin/env python3
"""Records the benchmark's numbers into slobench/RECORDED.md.

Runs every workload untraced once per seed and traced once (first
seed), through the same command the benchmark is driven by
(BENCHMARK.json's "command"), and writes the values, their medians and
their quartile spreads, with the machine's core count and the seeds.

Usage, from the repository root:

    python3 slobench/record.py [--seeds 1-10] [--seconds N] [--workloads a,b]
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} failed ({out.returncode}):\n{out.stderr[-3000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: output check failed\n{out.stderr[-3000:]}")
    return result


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def fmt(x):
    return f"{x:.6g}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    a = p.parse_args()
    seeds = parse_seeds(a.seeds)
    workloads = a.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    lines = [
        "# Recorded benchmark numbers",
        "",
        "Written by `slobench/record.py`; do not edit by hand.",
        "",
        f"- date: {datetime.date.today().isoformat()}",
        f"- cores (`nproc`): {os.cpu_count()}",
        f"- seeds: {seeds[0]}..{seeds[-1]} untraced; traced run at seed {seeds[0]}",
        f"- seconds per run: {a.seconds}",
        "- spread: (Q3 - Q1) / median over the seeds, quartiles as Python's "
        "`statistics.quantiles(values, n=4)`; bound from BENCHMARK.json",
        "",
    ]
    for w in workloads:
        per_seed = []
        for s in seeds:
            r = run(bench["command"], w, s, a.seconds, 0)
            per_seed.append((s, r))
            print(f"{w} seed {s}: " + ", ".join(
                f"{k}={fmt(v['value'])}" for k, v in r["metrics"].items()), flush=True)
        names = list(per_seed[0][1]["metrics"])
        lines += [f"## {w}", "", "| seed | " + " | ".join(names) + " |",
                  "|---" * (len(names) + 1) + "|"]
        for s, r in per_seed:
            lines.append(f"| {s} | " + " | ".join(fmt(r["metrics"][n]["value"]) for n in names) + " |")
        lines += ["", "| metric | unit | median | spread | bound |", "|---|---|---|---|---|"]
        for n in names:
            vals = [r["metrics"][n]["value"] for _, r in per_seed]
            med = statistics.median(vals)
            spread = "n/a"
            if len(vals) >= 2 and med:
                q = statistics.quantiles(vals, n=4)
                spread = f"{(q[2] - q[0]) / med:.4f}"
            unit = per_seed[0][1]["metrics"][n]["unit"]
            lines.append(f"| {n} | {unit} | {fmt(med)} | {spread} | {bounds.get(n, '')} |")

        traced = run(bench["command"], w, seeds[0], a.seconds, 1)
        lines += ["", f"Traced run, seed {seeds[0]} (per iteration; zero rows omitted):", "",
                  "| metric | unit | value |", "|---|---|---|"]
        for n, m in traced["metrics"].items():
            if m["value"] != 0:
                lines.append(f"| {n} | {m['unit']} | {fmt(m['value'])} |")
        lines.append("")
        print(f"{w}: traced run recorded", flush=True)

    with open(os.path.join(HERE, "RECORDED.md"), "w") as f:
        f.write("\n".join(lines))
    print("wrote slobench/RECORDED.md")


if __name__ == "__main__":
    main()
