"""Run a set of benchmark runs and summarize each metric's spread.

    python3 perfbench/sets.py [--workloads benchmark|all|NAMES] --seeds 1-10 [--trace 0|1] [--out FILE]

The workloads are interleaved within the set (seed 1 of every workload,
then seed 2, ...), so a slow stretch of the host spreads over all of them.
For every workload and metric it prints the median, the quartiles, the
spread (Q3 - Q1) / median and, for end-to-end metrics, the bound from
BENCHMARK.json.  With --trace 1 it instead reports which counters did not
repeat exactly across runs that share a seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d): %s"
                         % (workload, seed, proc.returncode, proc.stderr.strip()[-400:]))
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("\n".join(lines[:-1]), file=sys.stderr)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="benchmark",
                        help="comma-separated names, 'benchmark' for those in BENCHMARK.json, "
                             "or 'all' to add audit-quadext")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write every run's result here as JSON")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workloads == "benchmark":
        names = [w["name"] for w in spec["workloads"]]
    elif args.workloads == "all":
        names = list(workloads.WORKLOADS)
    else:
        names = args.workloads.split(",")
    seeds = seed_list(args.seeds)

    runs = {w: [] for w in names}
    for seed in seeds:
        for w in names:
            result = one_run(w, seed, spec["run_seconds"], args.trace)
            runs[w].append({"seed": seed, **result})
            print("%s seed %d: correct=%s attempted=%d failed=%d"
                  % (w, seed, result["correct"], result["attempted"], result["failed"]), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in names:
        print("\n%s (%d runs)" % (w, len(runs[w])))
        metrics = runs[w][0]["metrics"]
        for name in metrics:
            values = [r["metrics"][name]["value"] for r in runs[w]]
            if args.trace and metrics[name]["unit"] == "count":
                by_seed = {}
                for r, v in zip(runs[w], values):
                    by_seed.setdefault(r["seed"], set()).add(v)
                if any(len(vs) > 1 for vs in by_seed.values()):
                    print("  %-32s DOES NOT REPEAT: %s" % (name, by_seed))
                continue
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else ("  bound %.2f %s" % (bound, "ok" if spread < bound / 3 else "WIDE"))
            print("  %-32s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.3f%s"
                  % (name, med, q1, q3, spread, flag))


if __name__ == "__main__":
    main()
