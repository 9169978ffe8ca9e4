"""sympair benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload audit-diagonal --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; sympair is imported from its `src`
directory, so nothing needs installing.  The workloads, metrics and
bounds are listed in BENCHMARK.json at the root.

Every timed call runs in a fresh interpreter: one `python -m sympair`
process per audit call, one `child.py pass` process per pass of an
in-process workload.  This process never imports sympair, so no cache of
the program (`lru_cache`d weights, memoized structure rows) survives from
one timed process to the next.

With --trace 0 the run repeats whole passes of the workload until the
next pass would end after --seconds, and reports the end-to-end metrics:
work_per_s is the median over passes of units of work (audited orbits,
elements, operations) per second of call time; call_s.p50 and .p90 pool
every call of the run; top_call_s is the median over passes of the time
spent in calls at the largest size; peak_rss_mb is the largest ru_maxrss
of any process the run started; setup_s is the median of SETUP_PROBES
fresh interpreters timed from spawn until they could make the first call.
With --trace 1 it runs pass 0 once untraced and once traced, with the
wrappers of spans.py installed in the child, and reports the per-layer
metrics; a traced pass does the same work for a given seed, so its
counters repeat exactly.

Every output is checked against oracle.py or against the report digests
recorded in digests.json.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = str(HERE / "child.py")
CALL_TIMEOUT_S = 150
SETUP_PROBES = 7
MIN_AUDIT_COVERAGE = 0.90

# Each probe does what a timed process does before its first call and
# prints the CLOCK_MONOTONIC reading at which it is ready.
SETUP_CODE = {
    "audit-diagonal": "import time, sympair.cli",
    "audit-quadext": "import time, sympair.cli",
    "dense-elements": ("import time\nfrom sympair.pairs import make_diagonal_pair\n"
                       "for n in %r: make_diagonal_pair(n)" % (workloads.DENSE_NS,)),
    "local-constants": "import time, sympair.weil, sympair.inference",
}


class Tally:
    """Call times and check results of one run."""

    def __init__(self):
        self.times = []
        self.units = 0
        self.rates = []
        self.top = []
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.pids = []
        self.traces = []

    def fail(self, message):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv):
    """Run one process to completion: (wall seconds, exit code, stdout, stderr, pid)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=str(ROOT), env=child_env())
    try:
        out, err = proc.communicate(timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return time.perf_counter() - t0, None, out, err, proc.pid
    return time.perf_counter() - t0, proc.returncode, out, err, proc.pid


def _tail(err: bytes) -> str:
    lines = err.decode("utf-8", "replace").strip().splitlines()
    return lines[-1] if lines else ""


# ---------------------------------------------------------------------------
# Audit workloads
# ---------------------------------------------------------------------------

def digest_key(family, n, d):
    return "%s n=%d d=%s" % (family, n, "-" if d is None else d)


def check_report(family, n, d, code, report: bytes, digests):
    """None if the report is right, else what is wrong with it."""
    if code != 0:
        return "exit code %s" % code
    want = digests.get(digest_key(family, n, d))
    if hashlib.sha256(report).hexdigest() != want:
        return "report digest differs from the recorded one"
    doc = json.loads(report)
    if doc.get("all_pass") is not True:
        return "all_pass is not true"
    parts = [tuple(o["partition"]) for o in doc["orbits"]]
    if parts != oracle.partitions_revlex(n):
        return "partition list differs from the reverse-lexicographic enumeration"
    for o in doc["orbits"]:
        mu = tuple(o["partition"])
        trace = Fraction(o["trace_on_hx"])
        if trace != oracle.cg_trace(mu) or not trace < n * n:
            return "trace_on_hx %s for %s, Clebsch-Gordan sum %d" % (trace, list(mu), oracle.cg_trace(mu))
        for k, m in o["quotient_eigenvalues"]:
            if not (isinstance(k, int) and k <= 0 and isinstance(m, int) and m > 0):
                return "quotient eigenvalue %r for %s" % (k, list(mu))
    return None


def audit_call(tally, digests, family, n, d, traced):
    argv = workloads.audit_argv(family, n, d)
    if traced:
        wall, code, out, err, pid = spawn([sys.executable, CHILD, "cli"] + argv)
        if code == 0:
            doc = json.loads(out)
            code, out = doc["exit"], doc["report"].encode("utf-8")
            tally.traces.append(doc["trace"])
    else:
        wall, code, out, err, pid = spawn([sys.executable, "-m", "sympair"] + argv)
    tally.attempted += 1
    tally.pids.append(pid)
    problem = check_report(family, n, d, code, out, digests)
    if problem:
        tally.fail("%s: %s %s" % (digest_key(family, n, d), problem, _tail(err)))
    return wall


def audit_pass(tally, digests, workload, seed, index, traced=False):
    top_n = workloads.largest_audit_n(workload)
    top = busy = 0.0
    units = 0
    for family, n, d in workloads.audit_calls(workload, seed, index):
        wall = audit_call(tally, digests, family, n, d, traced)
        tally.times.append(wall)
        units += len(oracle.partitions_revlex(n))
        busy += wall
        if n == top_n:
            top += wall
    tally.units += units
    tally.rates.append(units / busy)
    tally.top.append(top)


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------

def inprocess_pass(tally, workload, seed, index, traced=False):
    wall, code, out, err, pid = spawn(
        [sys.executable, CHILD, "pass", workload, str(seed), str(index), "1" if traced else "0"])
    tally.pids.append(pid)
    if code != 0:
        tally.attempted += 1
        tally.fail("pass %d exited %s: %s" % (index, code, _tail(err)))
        return
    doc = json.loads(out)
    if doc["pid"] != pid:
        tally.fail("pass %d ran outside the process started for it" % index)
    tally.times.extend(doc["times"])
    tally.units += len(doc["times"])
    tally.rates.append(len(doc["times"]) / sum(doc["times"]))
    tally.attempted += len(doc["times"])
    tally.top.append(sum(doc["top"]))
    for message in doc["failures"]:
        tally.fail(message)
    if doc["trace"] is not None:
        tally.traces.append(doc["trace"])


def run_pass(tally, digests, workload, seed, index, traced=False):
    if workload in workloads.AUDIT_WORKLOADS:
        audit_pass(tally, digests, workload, seed, index, traced)
    else:
        inprocess_pass(tally, workload, seed, index, traced)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def setup_time(workload):
    """Seconds from process start until a fresh interpreter is ready to call."""
    code = SETUP_CODE[workload] + "\nprint(repr(time.monotonic()))"
    t0 = time.monotonic()
    _, status, stdout, err, _ = spawn([sys.executable, "-c", code])
    if status != 0:
        raise RuntimeError("setup probe failed: %s" % _tail(err))
    return float(stdout) - t0


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def timed_run(workload, seed, seconds, digests):
    """End-to-end metrics from whole passes filling about `seconds`.

    Set-up probes run one before each of the first passes, so they sample
    the host at different moments of the run; the rest follow the last pass.
    """
    tally = Tally()
    setups = []
    start = time.perf_counter()
    index = 0
    while True:
        if len(setups) < SETUP_PROBES:
            setups.append(setup_time(workload))
        t0 = time.perf_counter()
        run_pass(tally, digests, workload, seed, index)
        index += 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(setup_time(workload))
    metrics = {
        "work_per_s": statistics.median(tally.rates),
        "call_s.p50": statistics.median(tally.times),
        "call_s.p90": quantile(tally.times, 0.9),
        "top_call_s": statistics.median(tally.top),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }
    notes = ["%d passes, %d calls, %d units of work" % (index, len(tally.times), tally.units)]
    return tally, metrics, notes


def merge_traces(traces):
    total = {"self_s": {}, "calls": {}, "counters": {}, "root_s": 0.0, "covered_s": 0.0, "spans": 0}
    for t in traces:
        for key in ("self_s", "calls"):
            for name, v in t[key].items():
                total[key][name] = total[key].get(name, 0) + v
        for name, v in t["counters"].items():
            old = total["counters"].get(name, 0)
            total["counters"][name] = max(old, v) if name.endswith(".max_cells") else old + v
        for key in ("root_s", "covered_s", "spans"):
            total[key] += t[key]
    return total


def traced_run(workload, seed, digests, layer_names):
    """Per-layer metrics of pass 0, plus the overhead against an untraced pass 0."""
    plain, traced = Tally(), Tally()
    run_pass(plain, digests, workload, seed, 0)
    run_pass(traced, digests, workload, seed, 0, traced=True)
    t = merge_traces(traced.traces)
    metrics = {}
    for name in layer_names:
        if name == "trace.coverage":
            value = t["covered_s"] / t["root_s"] if t["root_s"] else 0.0
        elif name == "trace.overhead_s":
            value = sum(traced.times) - sum(plain.times)
        elif name.endswith(".s"):
            value = t["self_s"].get(name[:-2], 0.0)
        elif name.endswith(".calls"):
            value = t["calls"].get(name[:-6], 0)
        else:
            value = t["counters"].get(name, 0)
        metrics[name] = value
    tally = Tally()
    for part in (plain, traced):
        tally.attempted += part.attempted
        tally.failed += part.failed
        tally.messages += part.messages
        tally.pids += part.pids
    if workload == "audit-diagonal" and metrics["trace.coverage"] < MIN_AUDIT_COVERAGE:
        tally.fail("trace coverage %.3f is below %.2f" % (metrics["trace.coverage"], MIN_AUDIT_COVERAGE))
    notes = ["%d spans; untraced pass %.3f s, traced %.3f s"
             % (t["spans"], sum(plain.times), sum(traced.times))]
    return tally, metrics, notes


def fresh_process_problems(tally):
    """This process never imports sympair and never reuses a timed process."""
    problems = []
    if any(m == "sympair" or m.startswith("sympair.") for m in sys.modules):
        problems.append("run.py itself imported sympair")
    if len(set(tally.pids)) != len(tally.pids) or os.getpid() in tally.pids:
        problems.append("a timed process was reused")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sympair" / "__init__.py").is_file():
        print("error: no sympair sources at %s; run from the root of a checkout" % SRC,
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        digests = json.load(fh)

    section = "per_layer" if args.trace else "end_to_end"
    wanted = [(m["name"], m["unit"]) for m in spec[section]]
    if args.trace:
        tally, metrics, notes = traced_run(args.workload, args.seed, digests,
                                           [name for name, _ in wanted])
    else:
        tally, metrics, notes = timed_run(args.workload, args.seed, args.seconds, digests)
    for problem in fresh_process_problems(tally):
        tally.fail(problem)

    print("%s seed %d trace %d: %s (python %s, nproc %d)"
          % (args.workload, args.seed, args.trace, "; ".join(notes),
             platform.python_version(), os.cpu_count() or 0))
    for name, unit in wanted:
        print("  %-34s %14.6g %s" % (name, metrics[name], unit))
    attempted = max(tally.attempted, 1)
    print("  %-34s %14.6g (%d of %d)" % ("failed_frac", tally.failed / attempted,
                                         tally.failed, attempted))
    for message in tally.messages:
        print("  FAILED: %s" % message)
    result = {
        "correct": tally.failed == 0,
        "attempted": attempted,
        "failed": min(tally.failed, attempted),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
