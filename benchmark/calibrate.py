#!/usr/bin/env python3
"""Noise calibration: two interleaved sets of runs of the same binary.

Runs every workload `--runs` times in set A and in set B, interleaved
(A1 B1 A2 B2 ...), each run with another seed, and appends one section to
NOISE.md: per workload and end-to-end metric the two medians, how much
worse the second is than the first (`gap`), and each set's quartile spread
(Q3 - Q1 as a share of the median, quartiles as
`statistics.quantiles(values, n=4)` gives them), then per metric the widest
spread and gap seen on any workload next to the bound BENCHMARK.json
declares, and the sat stage's rate by the three estimators every run prints
(quiet half, median slice, whole stage). Only measurements are written;
what they mean is in README.md. Each run's full output goes to
out/calibrate-<first seed>.log.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(binary, workload, seed, seconds, log):
    """One run in a fresh process; this process sleeps in wait() meanwhile.

    Everything the run prints (slice durations among it) is kept in `log`."""
    started = time.time()
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    wall = time.time() - started
    log.write(f"## {workload} seed {seed}, {wall:.1f} s\n{out.stdout}")
    log.flush()
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    if out.returncode != 0 or not last.startswith("{"):
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}")
    result = json.loads(last)
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    got = {name: m["value"] for name, m in result["metrics"].items()}
    # The sat stage's rate by each estimator, from the run's remark line.
    rates = re.search(r"tx/s: quiet half (\d+), median slice (\d+), whole stage (\d+)", out.stdout)
    return got, [float(r) for r in rates.groups()], wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """Share of `first` by which `second` is worse (negative = better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True, help="built harness (benchmark/run.sh passes it)")
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload (>= 5)")
    parser.add_argument("--seed", type=int, default=1, help="first seed; every run uses another")
    parser.add_argument("--seconds", type=int, required=True, help="length of one run")
    args = parser.parse_args()
    if args.runs < 5:
        sys.exit("--runs must be at least 5")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    # values[workload][set][metric] -> list
    values = {w: {s: {m["name"]: [] for m in metrics} for s in "AB"} for w in workloads}
    estimators = ("quiet half", "median slice", "whole stage")
    rates = {w: {s: {e: [] for e in estimators} for s in "AB"} for w in workloads}
    walls = []
    seed = args.seed
    began = time.strftime("%Y-%m-%d %H:%M")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = open(os.path.join(HERE, "out", f"calibrate-{args.seed}.log"), "w")
    for i in range(args.runs):
        for which in "AB":
            for workload in workloads:
                got, by_estimator, wall = run_once(args.binary, workload, seed, args.seconds, log)
                for estimator, rate in zip(estimators, by_estimator):
                    rates[workload][which][estimator].append(rate)
                seed += 1
                walls.append(wall)
                for name, value in got.items():
                    values[workload][which][name].append(value)
                print(f"{which}{i + 1} {workload} {wall:.1f}s " +
                      " ".join(f"{k}={v:.4g}" for k, v in got.items()), flush=True)

    lines = [
        "",
        f"## Seeds {args.seed}..{seed - 1}, {began}",
        "",
        f"{args.runs} runs per set and workload, sets interleaved (A1 B1 A2 B2 ...), {args.seconds} s per run, "
        f"{os.cpu_count()} cores, one binary; wall-clock per run: median {statistics.median(walls):.1f} s, "
        f"longest {max(walls):.1f} s, {sum(walls) / 60:.0f} min in all.",
        "",
        "| workload | metric | median A | median B | gap | spread A | spread B |",
        "|---|---|---|---|---|---|---|",
    ]
    widest_spread = {m["name"]: 0.0 for m in metrics}
    widest_gap = dict(widest_spread)
    for workload in workloads:
        for m in metrics:
            name = m["name"]
            a, b = (values[workload][s][name] for s in "AB")
            med_a, med_b = statistics.median(a), statistics.median(b)
            gap = worse_by(med_a, med_b, m["better"])
            sa, sb = spread(a), spread(b)
            widest_spread[name] = max(widest_spread[name], sa, sb)
            widest_gap[name] = max(widest_gap[name], abs(gap))
            lines.append(f"| {workload} | {name} | {med_a:.5g} | {med_b:.5g} | {gap:+.2%} | {sa:.2%} | {sb:.2%} |")
    lines += [
        "",
        "| metric | widest spread | widest gap | bound in BENCHMARK.json | spread within bound | within a third | gap within bound |",
        "|---|---|---|---|---|---|---|",
    ]
    for m in metrics:
        name, bound = m["name"], m["bound"]
        # The driver does not judge the spread of the set-up time.
        judged = name != "setup_s"
        lines.append(
            f"| {name} | {widest_spread[name]:.2%} | {widest_gap[name]:.2%} | {bound} | "
            + ("n/a | n/a" if not judged else
               f"{'yes' if widest_spread[name] <= bound else 'NO'} | "
               f"{'yes' if widest_spread[name] <= bound / 3 else 'no'}")
            + f" | {'yes' if widest_gap[name] <= bound else 'NO'} |"
        )
    lines += [
        "",
        "Sat-stage tx/s of the same runs by estimator (`tx_per_s` is the quiet half):",
        "",
        "| workload | estimator | median A | median B | gap | spread A | spread B |",
        "|---|---|---|---|---|---|---|",
    ]
    for workload in workloads:
        for estimator in estimators:
            a, b = (rates[workload][s][estimator] for s in "AB")
            med_a, med_b = statistics.median(a), statistics.median(b)
            lines.append(f"| {workload} | {estimator} | {med_a:.5g} | {med_b:.5g} | "
                         f"{worse_by(med_a, med_b, 'higher'):+.2%} | {spread(a):.2%} | {spread(b):.2%} |")
    with open(os.path.join(HERE, "NOISE.md"), "a") as f:
        f.write("\n".join(lines) + "\n")
    print(f"appended to {os.path.join(HERE, 'NOISE.md')}")


if __name__ == "__main__":
    main()
