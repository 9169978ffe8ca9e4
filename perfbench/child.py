"""Work that runs in a fresh interpreter, started by run.py.

  child.py cli ARGS...            traced `sympair` CLI call
  child.py pass WORKLOAD SEED INDEX TRACE
                                  one pass of an in-process workload

Both print one JSON line on stdout.  sympair is imported from the `src`
directory of the checkout; run.py puts it on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from fractions import Fraction

import oracle
import workloads
from spans import Tracer

ROOT_SPAN = "call"


def traced_cli(argv):
    tracer = Tracer()
    tracer.install()
    import sympair.cli
    main = tracer.wrap(ROOT_SPAN, sympair.cli.main)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    tracer.uninstall()
    return {"pid": os.getpid(), "exit": code, "report": out.getvalue(),
            "trace": tracer.summary(ROOT_SPAN)}


# ---------------------------------------------------------------------------
# dense-elements
# ---------------------------------------------------------------------------

def _dense_setup():
    """The pairs of every size, and the API bound once, before any timing."""
    from sympair.criteria import restricted_trace
    from sympair.pairs import descendant, descendant_dimension_identity, make_diagonal_pair
    from sympair.sl2 import theta_adapt
    pairs = {n: make_diagonal_pair(n) for n in workloads.DENSE_NS}
    return pairs, descendant, descendant_dimension_identity, theta_adapt, restricted_trace


def _dense_call(api, item):
    pairs, descendant, dimension_identity, theta_adapt, restricted_trace = api
    pair = pairs[item["n"]]
    x = list(item["vector"])
    if item["kind"] == "descendant":
        sub = descendant(pair, x)
        lhs, rhs = dimension_identity(pair, x, sub)
        return (sub.dim_g, lhs, rhs)
    t = theta_adapt(pair, x)
    hx = pair.centralizer_in(x, pair.h_basis)
    return (t, len(hx), restricted_trace(pair, list(t.h), hx))


def _dense_check(item, result, _groups):
    n = item["n"]
    if item["kind"] == "descendant":
        dim_g, lhs, rhs = result
        sq = sum(m * m for m in item["composition"])
        if dim_g != 2 * sq:
            return "descendant dim_g %d, expected %d" % (dim_g, 2 * sq)
        if not lhs == rhs == sq:
            return "dimension identity %d = %d, expected %d" % (lhs, rhs, sq)
        return None
    t, dim_hx, trace = result
    mu = item["partition"]
    if trace != oracle.cg_trace(mu):
        return "triple trace %s, Clebsch-Gordan sum %d" % (trace, oracle.cg_trace(mu))
    if dim_hx != oracle.nilpotent_centralizer_dim(mu):
        return "centralizer dimension %d, expected %d" % (dim_hx, oracle.nilpotent_centralizer_dim(mu))
    # (h, e, f) = ((H, H), (X, -X), (F, -F)) must satisfy the sl2 relations.
    e, h, f = (oracle.unflatten(v, n) for v in (t.e, t.h, t.f))
    h2, f2 = oracle.unflatten(t.h, n, n * n), oracle.unflatten(t.f, n, n * n)
    neg_f = [[-a for a in row] for row in f]
    if not t.theta_adapted or h2 != h or f2 != neg_f:
        return "triple is not adapted to the swap"
    two = Fraction(2)
    if (oracle.commutator(h, e) != [[two * a for a in r] for r in e]
            or oracle.commutator(h, f) != [[-two * a for a in r] for r in f]
            or oracle.commutator(e, f) != h):
        return "triple relations fail"
    return None


# ---------------------------------------------------------------------------
# local-constants
# ---------------------------------------------------------------------------

def _local_setup():
    from sympair import inference, weil
    return inference, weil


def _local_call(api, op):
    inference, weil = api
    kind, place_text, args = op
    place = weil.Place.parse(place_text) if place_text is not None else None
    if kind == "gamma":
        return weil.weil_gamma(weil.DiagonalQuadraticForm(tuple(args[0])), place).exponent
    if kind == "delta":
        return weil.delta_factor(weil.DiagonalQuadraticForm(tuple(args[0])), args[1], place).exponent
    if kind == "homogeneity":
        root, mod_sq, mod_dec = weil.homogeneity_factor(
            weil.DiagonalQuadraticForm(tuple(args[0])), args[1], place)
        return (root.exponent, mod_sq, mod_dec)
    if kind == "hilbert":
        return weil.hilbert_symbol(args[0], args[1], place)
    if kind == "witness":
        return weil.non_multiplicative_witness(weil.DiagonalQuadraticForm(tuple(args[0])), place)
    if kind == "gauss":
        return weil.gauss_sum_oracle(*args)
    small, big = inference.close(args[0]), inference.close(args[1])
    chains = [small.chain(a) for a in sorted(small.derived())]
    return (small.atoms, big.atoms, chains)


def _local_check(op, result, hilbert_groups):
    kind, place, args = op
    if kind == "gamma":
        want = oracle.form_gamma(args[0], place)
        return None if result == want else "gamma %d at %s, expected %d" % (result, place, want)
    if kind == "delta":
        want = oracle.form_delta(args[0], args[1], place)
        return None if result == want else "delta %d at %s, expected %d" % (result, place, want)
    if kind == "homogeneity":
        want = oracle.form_delta(args[0], args[1], place)
        mod_sq = oracle.modulus(args[1], place) ** len(args[0])
        if result[0] != want or result[1] != mod_sq or abs(result[2] - float(mod_sq) ** 0.5) > 1e-9 * max(1.0, result[2]):
            return "homogeneity factor %r at %s, expected (%d, %s)" % (result, place, want, mod_sq)
        return None
    if kind == "hilbert":
        if result not in (1, -1):
            return "Hilbert symbol %r" % (result,)
        hilbert_groups[args[2]] = hilbert_groups.get(args[2], 1) * result
        return None
    if kind == "witness":
        s, t = result
        d = lambda u: oracle.form_delta(args[0], u, place)
        if d(s * t) == (d(s) + d(t)) % 8:
            return "witness (%s, %s) at %s is multiplicative" % (s, t, place)
        return None
    if kind == "gauss":
        a, p, k = args
        own = oracle.gauss_sum(a, p, k)
        closed = oracle.eighth_root(oracle.gamma_exponent(Fraction(a) * p ** k, "p:%d" % p))
        if abs(result - own) > 1e-6 or abs(own - closed) > 1e-6:
            return "Gauss sum for a=%d p=%d k=%d disagrees" % (a, p, k)
        return None
    small, big, chains = result
    from sympair.inference import close
    if not set(args[0]) <= small or not small <= big or close(sorted(small)).atoms != small:
        return "closure is not monotone and idempotent"
    if any(not chain for chain in chains):
        return "derived atom without a chain"
    return None


def _local_final(hilbert_groups):
    bad = [g for g, prod in hilbert_groups.items() if prod != 1]
    return ["Hilbert product formula fails for %d pairs" % len(bad)] if bad else []


# ---------------------------------------------------------------------------
# One pass of an in-process workload
# ---------------------------------------------------------------------------

def run_pass(workload, seed, index, trace):
    tracer = Tracer() if trace else None
    if workload == "dense-elements":
        items = workloads.dense_elements(seed, index)
        setup, call = _dense_setup, _dense_call
        top_n = max(workloads.DENSE_NS)
        is_top = lambda item: item["n"] == top_n
    else:
        from sympair.inference import ATOMS
        items = workloads.local_constant_ops(seed, index, ATOMS)
        setup, call = _local_setup, _local_call
        huge = {"p:%d" % p for p in workloads.HUGE_PRIMES}
        is_top = lambda op: op[1] in huge
    if tracer is not None:
        tracer.install()
    state = setup()
    times, results = [], []
    for item in items:
        if tracer is not None:
            root = tracer.open(ROOT_SPAN)
        t0 = time.perf_counter()
        try:
            results.append(call(state, item))
        except Exception as exc:  # a failed call is counted, not fatal
            results.append(exc)
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.close(root)
    if tracer is not None:
        tracer.uninstall()
    check = _dense_check if workload == "dense-elements" else _local_check
    groups = {}
    failures = []
    for item, result in zip(items, results):
        if isinstance(result, Exception):
            msg = "%s raised %s: %s" % (item[0] if isinstance(item, tuple) else item["kind"],
                                        type(result).__name__, result)
        else:
            msg = check(item, result, groups)
        if msg:
            failures.append(msg)
    failures.extend(_local_final(groups))
    return {
        "pid": os.getpid(),
        "times": times,
        "top": [t for item, t in zip(items, times) if is_top(item)],
        "failures": failures,
        "trace": tracer.summary(ROOT_SPAN) if tracer is not None else None,
    }


def main(argv):
    if argv[0] == "cli":
        doc = traced_cli(argv[1:])
    else:
        _, workload, seed, index, trace = argv
        doc = run_pass(workload, int(seed), int(index), trace == "1")
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
