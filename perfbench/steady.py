#!/usr/bin/env python3
"""Steadiness check for the benchmark described by BENCHMARK.json.

Runs two interleaved sets of runs per workload (set A and set B, each run
with its own seed, alternating which set goes first), then prints for
every end-to-end metric the median and quartiles of each set, the spread
of each set (interquartile range as a share of the median) and whether
the two sets agree within the metric's bound:

  * each set's spread is within the bound (set-up time excepted);
  * set B's median differs from set A's by at most the bound, either way;
  * the share of failed operations is the same in both sets.

Run from the repository root:

    python3 perfbench/steady.py                  # 5 + 5 runs per workload
    python3 perfbench/steady.py --workloads scan-fresh

Exits 1 if any workload disagrees or any run fails. A summary is also
written to perfbench/out/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# Runs per set.
RUNS = 5


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correctness check failed")
    result["elapsed_s"] = time.time() - started
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="",
                        help="comma-separated workloads (default: those in "
                             "BENCHMARK.json)")
    parser.add_argument("--first-seed", type=int, default=101)
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")
    metrics = bench["end_to_end"]

    runs = {w: {"A": [], "B": []} for w in workloads}
    seed = opts.first_seed
    for i in range(RUNS):
        for w in workloads:
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for side in order:
                r = run_once(command, w, seed, seconds)
                r["seed"] = seed
                seed += 1
                runs[w][side].append(r)
                print(f"  {w} set {side} seed {r['seed']}: "
                      f"{r['elapsed_s']:.1f} s, attempted {r['attempted']}, "
                      f"failed {r['failed']}", flush=True)

    ok = True
    summary = {"nproc": os.cpu_count(), "runs_per_set": RUNS,
               "run_seconds": seconds, "workloads": {}}
    for w in workloads:
        print(f"\n{w}  (nproc {os.cpu_count()}, {RUNS} runs per set, "
              f"{seconds} s per run)")
        print(f"  {'metric':<16} {'set A median [q1, q3]':>34} "
              f"{'set B median [q1, q3]':>34} {'spread A':>9} {'spread B':>9} "
              f"{'all 2N':>7} {'B vs A':>8} {'bound':>6}  agree")
        wsum = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = {s: [r["metrics"][name]["value"] for r in runs[w][s]]
                    for s in ("A", "B")}
            stats = {}
            for s, vals in sets.items():
                q1, med, q3 = quartiles(vals)
                stats[s] = (q1, med, q3, (q3 - q1) / med)
            q1, med, q3 = quartiles(sets["A"] + sets["B"])
            pooled = (q3 - q1) / med
            change = stats["B"][1] / stats["A"][1] - 1.0
            agree = abs(change) <= bound and (
                name == "setup_s"
                or (stats["A"][3] <= bound and stats["B"][3] <= bound))
            ok &= agree
            fmt = lambda st: f"{st[1]:.4g} [{st[0]:.4g}, {st[2]:.4g}]"
            print(f"  {name:<16} {fmt(stats['A']):>34} {fmt(stats['B']):>34} "
                  f"{stats['A'][3]:>9.3f} {stats['B'][3]:>9.3f} {pooled:>7.3f} "
                  f"{change:>+8.3f} {bound:>6.2f}  {'yes' if agree else 'NO'}")
            wsum[name] = {"A": stats["A"], "B": stats["B"], "pooled_spread": pooled,
                          "b_vs_a": change, "bound": bound, "agree": agree}
        shares = {s: sum(r["failed"] for r in runs[w][s]) /
                  sum(r["attempted"] for r in runs[w][s]) for s in ("A", "B")}
        same = shares["A"] == shares["B"]
        ok &= same
        print(f"  failed share: set A {shares['A']}, set B {shares['B']} "
              f"({'same' if same else 'DIFFERENT'})")
        wsum["failed_share"] = shares
        summary["workloads"][w] = wsum

    os.makedirs("perfbench/out", exist_ok=True)
    with open("perfbench/out/steady.json", "w") as f:
        json.dump(summary, f, indent=1)
    print("\nsteady: " + ("all workloads agree within their bounds" if ok
                          else "DISAGREEMENT (see rows marked NO)"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
