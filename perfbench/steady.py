#!/usr/bin/env python3
"""Steadiness check: run one workload over consecutive seeds and report,
for each end-to-end metric, the median and the quartile spread
(Q3 - Q1) / median, the figure BENCHMARK.json's bounds are judged by.

Run it from the repository root:

    python3 perfbench/steady.py --workload serve --runs 10 --seconds 20 \
        --record perfbench/STEADINESS.md
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--record", help="append the table to this markdown file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values, header, walls = {}, "", []
    for seed in range(args.seed0, args.seed0 + args.runs):
        t0 = time.time()
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True)
        walls.append(time.time() - t0)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
        header = lines[0]
        res = json.loads(lines[-1])
        if not res["correct"]:
            sys.exit(f"seed {seed}: incorrect output\n{out.stdout}")
        for k, m in res["metrics"].items():
            values.setdefault(k, []).append(m["value"])
        print(f"seed {seed}: {walls[-1]:.1f}s wall", file=sys.stderr)

    rows = [f"### {args.workload}: {args.runs} runs, seeds {args.seed0}-{args.seed0 + args.runs - 1}, "
            f"--seconds {args.seconds}",
            "",
            f"`{header}` cpu=\"{cpu_model()}\" nproc={os.cpu_count()}; "
            f"wall per run {min(walls):.1f}-{max(walls):.1f}s",
            "",
            "| metric | median | Q1 | Q3 | spread | bound | spread/bound |",
            "|---|---|---|---|---|---|---|"]
    for k in sorted(values):
        v = values[k]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        b = bounds.get(k)
        rows.append(f"| {k} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} | {b} | "
                    f"{spread / b:.2f} |" if b else f"| {k} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} | - | - |")
    rows += ["", "Values in seed order:", ""]
    rows += [f"- {k}: " + ", ".join(f"{x:.6g}" for x in values[k]) for k in sorted(values)]
    text = "\n".join(rows) + "\n"
    print(text)
    if args.record:
        with open(args.record, "a") as f:
            f.write("\n" + text)


if __name__ == "__main__":
    main()
