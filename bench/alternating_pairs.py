"""Alternating before/after runs of perfbench/run.py on two checkouts.

    python3 bench/alternating_pairs.py --parent DIR --change DIR --out BENCH_x.json

DIR is the root of a clean checkout of each side.  Every run is a fresh
`python3 perfbench/run.py` started from the root of one checkout, so each
side measures its own sources with its own copy of the benchmark.

end_to_end: for every workload in the change's BENCHMARK.json, --pairs
pairs of `--workload W --seed S --seconds SECONDS --trace 0`, pair i on
seed --first-seed + i.  Pairs alternate which side runs first (odd pairs
start with the parent), and the workloads are interleaved within a pair
index, so host drift falls on both sides alike.

traced: `--workload audit-diagonal --seconds 8 --trace 1`, --traced-runs
runs on each of seeds 1-3 per side, alternating.  run.py reports correct
false when trace.coverage is below its 0.90 gate.

summary, per workload and end-to-end metric: each side's median and
quartiles; change_wins, the pairs in which the change did better (ties
count for neither side); median_change, the relative change of the
median in the metric's own direction (positive is better); spread, the
larger of the two sides' interquartile ranges over their medians; and
resolved, false where that spread exceeds the metric's bound, so the run
cannot tell a move of the bound's size from noise.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

TRACED_SEEDS = (1, 2, 3)


def run(side_dir: Path, args):
    out = subprocess.run([sys.executable, "perfbench/run.py"] + [str(a) for a in args],
                         cwd=str(side_dir), capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(records, metric_specs):
    summary = {}
    for workload in sorted({r["workload"] for r in records}):
        rows = [r for r in records if r["workload"] == workload]
        by_pair = {}
        for r in rows:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r
        summary[workload] = {}
        for spec in metric_specs:
            name, higher = spec["name"], spec["better"] == "higher"
            sides = {side: [r["metrics"][name] for r in rows if r["side"] == side]
                     for side in ("parent", "change")}
            qs = {side: quartiles(v) for side, v in sides.items()}
            wins = sum(1 for p in by_pair.values()
                       if (p["change"]["metrics"][name] > p["parent"]["metrics"][name]) == higher
                       and p["change"]["metrics"][name] != p["parent"]["metrics"][name])
            parent_med, change_med = qs["parent"][1], qs["change"][1]
            moved = (change_med - parent_med) / parent_med if parent_med else 0.0
            spread = max((q3 - q1) / q2 if q2 else 0.0 for q1, q2, q3 in qs.values())
            summary[workload][name] = {
                "pairs": len(by_pair),
                "parent_q1": qs["parent"][0], "parent_median": parent_med,
                "parent_q3": qs["parent"][2],
                "change_q1": qs["change"][0], "change_median": change_med,
                "change_q3": qs["change"][2],
                "change_wins": wins,
                "median_change": moved if higher else -moved,
                "bound": spec["bound"],
                "spread": spread,
                "resolved": spread <= spec["bound"],
            }
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=31)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--traced-runs", type=int, default=3)
    args = parser.parse_args(argv)
    with open(args.change / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent, "change": args.change}

    traced = []
    for i in range(args.traced_runs):
        for seed in TRACED_SEEDS:
            order = ("parent", "change") if (i + seed) % 2 else ("change", "parent")
            for side in order:
                result = run(sides[side], ["--workload", "audit-diagonal", "--seed", seed,
                                           "--seconds", 8, "--trace", 1])
                m = result["metrics"]
                traced.append({"side": side, "seed": seed, "run": i + 1,
                               "correct": result["correct"],
                               "trace.coverage": m["trace.coverage"]["value"],
                               "sl2.theta_adapt.calls": m["sl2.theta_adapt.calls"]["value"],
                               "sl2.theta_adapt.s": m["sl2.theta_adapt.s"]["value"],
                               "criteria.weights_oracle.s": m["criteria.weights_oracle.s"]["value"],
                               "linalg.rref.calls": m["linalg.rref.calls"]["value"]})
                print("traced", traced[-1], file=sys.stderr, flush=True)

    records = []
    for pair in range(1, args.pairs + 1):
        seed = args.first_seed + pair - 1
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for workload in workloads:
            for side in order:
                result = run(sides[side], ["--workload", workload, "--seed", seed,
                                           "--seconds", args.seconds, "--trace", 0])
                records.append({"workload": workload, "pair": pair, "seed": seed, "side": side,
                                "correct": result["correct"], "failed": result["failed"],
                                "attempted": result["attempted"],
                                "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
                print("pair %d %s %s correct=%s work_per_s=%.4g"
                      % (pair, workload, side, result["correct"],
                         records[-1]["metrics"]["work_per_s"]), file=sys.stderr, flush=True)

    doc = {
        "description": __doc__.split("\n\n", 2)[2].strip(),
        "command": "python3 bench/alternating_pairs.py --pairs %d --first-seed %d --seconds %g "
                   "--traced-runs %d" % (args.pairs, args.first_seed, args.seconds,
                                        args.traced_runs),
        "host": "%s, Python %s" % (platform.machine(), platform.python_version()),
        "summary": summarize(records, spec["end_to_end"]),
        "end_to_end": records,
        "audit_diagonal_traced": traced,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
