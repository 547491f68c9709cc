#!/usr/bin/env python3
"""Interleaved parent-vs-change A/B runs of the end-to-end benchmark.

    python3 perfbench/ab.py --parent ../parent-checkout --change . \\
        --workload paper_eval --pairs 10

Both sides are built from their own library sources but measured with this
copy of the benchmark, with the same settings. Pair i runs seed
--seed-base + i on both sides (--held-out runs the held-out seed in every
pair instead) and alternates which side runs first. For every metric the
report gives each side's median and quartiles, the change's win fraction
(ties count for neither side) and a verdict:

  gain        the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's own spread (its interquartile range);
  unresolved  a side's spread (IQR / median) exceeds the metric's bound;
              "better in every run" instead when every change run reads
              better than every parent run;
  regression  the change's median is worse than the parent's by more than
              the bound;
  within bound  none of the above.

A run whose checks fail, or a pair whose host or build fingerprints are not
comparable, stops the comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

WIN_FRACTION = 0.9


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Compares two lists of one metric's values, paired by index."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    win_fraction = wins / len(parent)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if win_fraction >= WIN_FRACTION and sign * (cm - pm) > (p3 - p1):
        label = "gain"
    elif spread > bound:
        label = "better in every run" if all_better else "unresolved"
    elif sign * (cm - pm) < -bound * abs(pm):
        label = "regression"
    else:
        label = "within bound"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3),
            "win_fraction": win_fraction, "spread": spread, "verdict": label}


def run_side(side, source, args, seed, work_dir):
    out = os.path.join(work_dir, "%s-%d.json" % (side, seed))
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--source", os.path.join(source, "src"),
           "--build-dir", os.path.join(work_dir, side), "--record-out", out]
    if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
        sys.exit("ab: the %s side failed to build or run" % side)
    with open(out) as f:
        record = json.load(f)
    if record["summary"]["failed"]:
        sys.exit("ab: %s side failed its checks on seed %d" % (side, seed))
    return record


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent checkout root")
    parser.add_argument("--change", required=True, help="change checkout root")
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--held-out", action="store_true")
    parser.add_argument("--work-dir", default=".bench_ab")
    args = parser.parse_args()

    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    work_dir = os.path.abspath(args.work_dir)
    os.makedirs(work_dir, exist_ok=True)
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    values = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = run.HELD_OUT_SEED if args.held_out else args.seed_base + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        records = {side: run_side(side, sides[side], args, seed, work_dir)
                   for side in order}
        if not run.comparable(records["parent"], records["change"]):
            sys.exit("ab: no comparable baseline (host or build fingerprints differ)")
        for side in values:
            values[side].append(records[side]["summary"]["metrics"])
        print("pair %d seed %d (%s first) done" % (i, seed, order[0]), file=sys.stderr)

    print("A/B %s, %d pairs, %d s runs" % (args.workload, args.pairs, args.seconds))
    for name, m in metrics.items():
        v = verdict([r[name] for r in values["parent"]],
                    [r[name] for r in values["change"]],
                    m["better"], m.get("bound", 0.0))
        print("%-28s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  "
              "wins %.2f  spread %.3f  %s" % (
                  name, v["parent"][1], v["parent"][0], v["parent"][2],
                  v["change"][1], v["change"][0], v["change"][2],
                  v["win_fraction"], v["spread"], v["verdict"]))


if __name__ == "__main__":
    main()
