#!/usr/bin/env python3
"""Calibrates the end-to-end bounds of BENCHMARK.json.

Runs two sets of runs of every workload, alternating the workload order
between sets. Within a set each run has its own seed; both sets use the
same seeds, so simulated metrics must come out bit-identical between
them. Every run is invoked as a benchmark harness invokes the command:
`--workload <name> --seed <n> --seconds <run_seconds> --trace 0`, with
run_seconds read from BENCHMARK.json. Writes every run's printed output
(.txt) and raw per-pass JSON (.json) under calibration/raw/, plus a
summary (summary.md): per workload and metric, each set's median and
quartile spread (IQR over median), the gap between the two medians, and
the smallest bound of 5/10/15/20/25% that covers the gap and three times
each spread — the rule the bounds in BENCHMARK.json are set by; how
much graphs_per_s spreads within a run (over its passes) against between
runs; and how much the host's own speed drifted between runs: the spread
of each run's fast-decile probe time (`probe_ms` in the raw JSON, the
probe loop timed on the CPU each pass was steered to).

Run from the repository root:

    python3 crates/perf/calibration/calibrate.py [--runs 10]
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.abspath(os.path.join(HERE, "..", "..", ".."))
BOUNDS = [0.05, 0.10, 0.15, 0.20, 0.25]
# A spread must stay below a third of its bound.
SPREAD_MARGIN = 3


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def pick(need):
    return next((f"{x:.2f}" for x in BOUNDS if x >= need), "> 0.25")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    args = ap.parse_args()

    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]

    subprocess.run(["cargo", "build", "--release", "-q", "-p", "flowgnn-perf"], cwd=ROOT, check=True)
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "target"))
    binary = os.path.join(target, "release", "flowgnn-perf")

    # values[workload][metric][set] -> list; walls[workload] -> list
    values = {w: {m: [[], []] for m in metrics} for w in workloads}
    walls = {w: [] for w in workloads}
    failed = {w: 0 for w in workloads}
    # within[workload] -> per run, the spread of graphs_per_s over its
    # passes, from the raw JSON the run writes; probes[workload][set] -> per
    # run, the fast decile of its probe times
    within = {w: [] for w in workloads}
    probes = {w: [[], []] for w in workloads}
    for s in range(2):
        order = workloads if s == 0 else workloads[::-1]
        out_dir = os.path.join(HERE, "raw", f"set{s + 1}")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        for i in range(args.runs):
            seed = 1000 + i
            for w in order:
                raw = os.path.join(out_dir, f"{w}-seed{seed}.json")
                start = time.time()
                run = subprocess.run(
                    [binary, "--workload", w, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", "0", "--raw", raw],
                    cwd=ROOT, capture_output=True, text=True)
                wall = time.time() - start
                with open(os.path.join(out_dir, f"{w}-seed{seed}.txt"), "w") as f:
                    f.write(run.stdout)
                    f.write(f"# exit={run.returncode} wall_s={wall:.2f}\n")
                if run.returncode != 0:
                    sys.exit(f"{w} seed {seed} exited {run.returncode}:\n{run.stderr}")
                result = json.loads(run.stdout.strip().splitlines()[-1])
                for m in metrics:
                    values[w][m][s].append(result["metrics"][m]["value"])
                walls[w].append(wall)
                failed[w] += result["failed"]
                trials = json.load(open(raw))["trials"]
                within[w].append(spread(trials["graphs_per_s"]["values"]))
                probes[w][s].append(statistics.quantiles(trials["probe_ms"]["values"], n=10)[0])
                print(f"set {s + 1} run {i + 1} {w}: {wall:.1f} s", flush=True)

    lines = [
        "# Bound calibration",
        "",
        f"Two sets of {args.runs} runs per workload, {seconds} s each, seeds 1000 to",
        f"{999 + args.runs} in both sets, workload order reversed in the second set.",
        "Spread is the interquartile range over the median (Python",
        "`statistics.quantiles(n=4)`); gap is how much worse the second set's",
        "median is than the first's. Suggested is the smallest of 5/10/15/20/25%",
        "covering the gap and three times each spread (`setup_s` is held to the",
        "gap only); `> 0.25` marks a metric the rule cannot bound.",
        "",
        "| workload | metric | median 1 | median 2 | spread 1 | spread 2 | gap | suggested |",
        "|---|---|---|---|---|---|---|---|",
    ]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    needed = {m: 0.0 for m in metrics}
    for w in workloads:
        for m in metrics:
            a, b = values[w][m]
            ma, mb = statistics.median(a), statistics.median(b)
            gap = (mb - ma) / ma if better[m] == "lower" else (ma - mb) / ma
            sa, sb = spread(a), spread(b)
            need = max(abs(gap), 0.0 if m == "setup_s" else SPREAD_MARGIN * max(sa, sb))
            needed[m] = max(needed[m], need)
            lines.append(f"| {w} | {m} | {ma:.6g} | {mb:.6g} | {sa:.3f} | {sb:.3f} | {gap:+.3f} | {pick(need)} |")
    lines += ["", "| metric | largest need | suggested |", "|---|---|---|"]
    for m in metrics:
        lines.append(f"| {m} | {needed[m]:.3f} | {pick(needed[m])} |")
    sims = [m for m in metrics if m.startswith("sim_")]
    same = all(values[w][m][0] == values[w][m][1] for w in workloads for m in sims)
    lines += ["", f"Simulated metrics ({', '.join(sims)}) bit-identical between the sets: "
              f"{'yes' if same else 'NO'}."]
    lines += ["", "`graphs_per_s` spread within a run (each pass's own rate; median over",
              "all runs) against the spread between runs, and the host's drift: the",
              "spread of the runs' fast-decile probe times, with their range in ms:", "",
              "| workload | within a run | between runs, set 1 | set 2 | probe, set 1 | set 2 |",
              "|---|---|---|---|---|---|"]
    for w in workloads:
        a, b = values[w]["graphs_per_s"]
        pa, pb = probes[w]
        drift = [f"{spread(p):.3f} ({min(p):.3f} to {max(p):.3f})" for p in (pa, pb)]
        lines.append(f"| {w} | {statistics.median(within[w]):.3f} | {spread(a):.3f} | {spread(b):.3f} "
                     f"| {drift[0]} | {drift[1]} |")
    lines += ["", "| workload | run wall time, median (s) | max (s) | failed, both sets |",
              "|---|---|---|---|"]
    for w in workloads:
        lines.append(f"| {w} | {statistics.median(walls[w]):.1f} | {max(walls[w]):.1f} | {failed[w]} |")
    with open(os.path.join(HERE, "summary.md"), "w") as f:
        f.write("\n".join(lines) + "\n")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
