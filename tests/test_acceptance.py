"""Acceptance criteria, one test per criterion, exact tolerances.

Every criterion prints one PASS line on success (visible with pytest -s);
a failure shows up as an ordinary pytest failure.  Expensive sweeps are
shared through module-scoped fixtures so each pair is audited once.

  1. diagonal trace sweep n=2..6 against the combinatorial oracle, strict bound
  2. quadratic-extension sweep n=2..4, d in {-1, 2, 5}, same traces
  3. non-positive integer quotient spectra on every audited orbit
  4. 100 randomized triple re-completions: exact relations, same trace
  5. weight bookkeeping: dimensions and multiset equality
  6. descendant dimension identity on 20 split semisimple elements
  7. local constants: structural eighth roots, oracle agreement, product
     formula, non-multiplicativity witnesses
  8. inference closure reproduction incl. GP1; monotone + idempotent
  9. byte-identical audit reports across runs
"""

import json
import random
import time
from fractions import Fraction as F

import pytest

from sympair.cli import main as cli_main
from sympair.criteria import (
    audit_orbits,
    diagonal_trace_identity,
    partitions,
    restricted_trace,
)
from sympair.inference import ATOMS, builtin_rules, close
from sympair.linalg import Matrix, rank
from sympair.pairs import descendant, descendant_dimension_identity, make_diagonal_pair, \
    make_quadratic_ext_pair
from sympair.sl2 import theta_adapt, verify_triple
from sympair.weil import (
    DiagonalQuadraticForm,
    EighthRoot,
    Place,
    delta_factor,
    gauss_sum_oracle,
    hilbert_symbol,
    non_multiplicative_witness,
    weil_gamma_scalar,
)
from test_pairs import check_grading

DIAG_SIZES = (2, 3, 4, 5, 6)
QUAD_SIZES = (2, 3, 4)
QUAD_DISCS = (-1, 2, 5)


def _ok(msg):
    print("ACCEPTANCE PASS: %s" % msg)


@pytest.fixture(scope="module")
def diagonal_sweep():
    audits = {}
    t0 = time.monotonic()
    for n in DIAG_SIZES:
        pair = make_diagonal_pair(n)
        audits[n] = (pair, audit_orbits(pair))
    return {"audits": audits, "elapsed": time.monotonic() - t0}


@pytest.fixture(scope="module")
def quadratic_sweep():
    audits = {}
    t0 = time.monotonic()
    for n in QUAD_SIZES:
        for d in QUAD_DISCS:
            pair = make_quadratic_ext_pair(n, d)
            audits[(n, d)] = (pair, audit_orbits(pair))
    return {"audits": audits, "elapsed": time.monotonic() - t0}


def test_criterion_1_diagonal_speciality_sweep(diagonal_sweep):
    t0 = time.monotonic()
    total = 0
    for n in DIAG_SIZES:
        pair, audits = diagonal_sweep["audits"][n]
        assert [a.partition for a in audits] == partitions(n)
        for a in audits:
            oracle = diagonal_trace_identity(n, a.partition)
            assert a.trace_on_hx == oracle.sum_weights      # exact, zero tolerance
            assert a.trace_on_hx < n * n                    # strict bound
            assert a.dim_gsigma == n * n
            total += 1
    elapsed = diagonal_sweep["elapsed"] + (time.monotonic() - t0)
    assert elapsed < 30.0
    _ok("criterion 1: %d diagonal orbits, traces match the combinatorial "
        "oracle and stay below dim (%.1fs incl. sweep)" % (total, elapsed))


def test_criterion_2_quadratic_extension_sweep(diagonal_sweep, quadratic_sweep):
    t0 = time.monotonic()
    total = 0
    for n in QUAD_SIZES:
        _, diag_audits = diagonal_sweep["audits"][n]
        diag_traces = {a.partition: a.trace_on_hx for a in diag_audits}
        for d in QUAD_DISCS:
            pair, audits = quadratic_sweep["audits"][(n, d)]
            assert [a.partition for a in audits] == partitions(n)
            for a in audits:
                assert a.trace_on_hx == diag_traces[a.partition]
                assert a.trace_on_hx < n * n
                total += 1
    elapsed = quadratic_sweep["elapsed"] + (time.monotonic() - t0)
    assert elapsed < 60.0
    _ok("criterion 2: %d quadratic-extension orbits match the diagonal "
        "traces exactly (%.1fs incl. sweep)" % (total, elapsed))


def test_criterion_3_quotient_spectra_nonpositive(diagonal_sweep, quadratic_sweep):
    records = [a for _, audits in diagonal_sweep["audits"].values() for a in audits]
    records += [a for _, audits in quadratic_sweep["audits"].values() for a in audits]
    for a in records:
        assert a.eigen_lemma_pass
        for ev, mult in a.quotient_eigenvalues:
            assert isinstance(ev, int) and ev <= 0 and mult >= 1
    _ok("criterion 3: all %d audited orbits have non-positive integer "
        "quotient spectra" % len(records))


def test_criterion_4_randomized_recompletions(diagonal_sweep, quadratic_sweep):
    rng = random.Random(20260811)
    jobs = []
    for n in DIAG_SIZES:
        pair, audits = diagonal_sweep["audits"][n]
        for a in audits:
            jobs.append((pair, a))
    for n in QUAD_SIZES:
        pair, audits = quadratic_sweep["audits"][(n, -1)]
        for a in audits:
            jobs.append((pair, a))
    # top up to exactly 100 re-completions on the cheapest pairs
    small = [(diagonal_sweep["audits"][n][0], a)
             for n in (2, 3) for a in diagonal_sweep["audits"][n][1]]
    i = 0
    while len(jobs) < 100:
        jobs.append(small[i % len(small)])
        i += 1
    assert len(jobs) >= 100
    checked = 0
    for pair, audit in jobs[:100]:
        x = list(audit.representative)
        t = theta_adapt(pair, x, rng)
        if not t.degenerate:
            verify_triple(pair.algebra, t)              # exact bracket relations
        assert pair.in_h(list(t.h))
        assert pair.in_gsigma(list(t.f))
        hx = pair.centralizer_in(x, pair.h_basis)
        assert restricted_trace(pair, list(t.h), hx) == audit.trace_on_hx
        checked += 1
    _ok("criterion 4: %d randomized re-completions keep the relations and "
        "the restricted trace" % checked)


def test_criterion_5_weight_bookkeeping(diagonal_sweep, quadratic_sweep):
    seen = 0
    for sweep in (diagonal_sweep, quadratic_sweep):
        for pair, audits in sweep["audits"].values():
            n = pair.inner_n
            for a in audits:
                assert a.weights_from_spectrum is not None
                assert sum(l + 1 for l in a.weights_from_spectrum) == n * n
                assert a.weights_from_spectrum == a.weights_from_partition
                seen += 1
    _ok("criterion 5: weight multisets agree and sum(l+1) = n^2 on all %d "
        "audited orbits" % seen)


def _split_semisimple_elements():
    cases = []
    for n, diag in ((2, (1, -1)), (2, (2, 3)), (2, (1, 1)), (3, (1, 2, 3)),
                    (3, (1, 1, -2)), (3, (0, 1, -1)), (4, (1, 2, 3, 4)),
                    (4, (1, 1, 2, 2))):
        pair = make_diagonal_pair(n)
        v = pair.algebra.zero_vector()
        for i, s in enumerate(diag):
            v[i * n + i] = F(s)
            v[n * n + i * n + i] = F(-s)
        cases.append((pair, v))
    # conjugated variants: g S g^{-1} stays split semisimple
    p2 = make_diagonal_pair(2)
    g = Matrix([[F(1), F(1)], [F(0), F(1)]])
    from sympair.linalg import inverse
    s = g @ Matrix([[F(1), F(0)], [F(0), F(-2)]]) @ inverse(g)
    v = p2.algebra.zero_vector()
    for i in range(2):
        for j in range(2):
            v[i * 2 + j] = s.rows[i][j]
            v[4 + i * 2 + j] = -s.rows[i][j]
    cases.append((p2, v))
    cases.append((p2, [F(2) * c for c in v]))
    # quadratic family: w X with X^2 = q^2 d^{-2} ... use blocks [[0, q*q/d],[1,0]]
    for d in QUAD_DISCS:
        for n, qs in ((2, (F(1),)), (3, (F(2),)), (4, (F(1), F(3)))):
            pair = make_quadratic_ext_pair(n, d)
            v = pair.algebra.zero_vector()
            off = 0
            for q in qs:
                i, j = off, off + 1
                v[n * n + i * n + j] = q * q / F(d)
                v[n * n + j * n + i] = F(1)
                off += 2
            cases.append((pair, v))
    # one more conjugated quad case to reach 20
    q2 = make_quadratic_ext_pair(2, -1)
    v = q2.algebra.zero_vector()
    v[4 + 1] = F(-4)
    v[4 + 2] = F(1)
    cases.append((q2, v))
    return cases


def test_criterion_6_descendant_identity():
    cases = _split_semisimple_elements()
    assert len(cases) == 20
    for pair, x in cases:
        sub = descendant(pair, x)
        lhs, rhs = descendant_dimension_identity(pair, x, sub)
        assert lhs == rhs
        # the constructor re-verified the pair invariants; re-check the
        # gradings and the form properties explicitly
        check_grading(sub)
        assert rank(sub.form) == sub.dim_g
        assert sub.theta.transpose() @ sub.form @ sub.theta == sub.form
    _ok("criterion 6: descendant dimension identity and pair invariants "
        "hold on 20 split semisimple elements")


def test_criterion_7_local_constant_suite():
    t0 = time.monotonic()
    # structural eighth root
    for exp in range(8):
        acc = EighthRoot(0)
        for _ in range(8):
            acc = acc * EighthRoot(exp)
        assert acc.exponent == 0
    # closed form vs oracle: all odd p <= 13, all units, k <= 3
    pairs_checked = 0
    for p in (3, 5, 7, 11, 13):
        place = Place.p_adic(p)
        for a in range(1, p):
            for k in (1, 2, 3):
                closed = weil_gamma_scalar(F(a) * F(p) ** k, place)
                assert abs(closed.value() - gauss_sum_oracle(a, p, k)) < 1e-6
                pairs_checked += 1
    # product formula
    sample = (1, -1, 2, -2, 3, -3, 5, -5, 10, -10)
    places = [Place.real(), Place.p_adic(2), Place.p_adic(3), Place.p_adic(5)]
    for a in sample:
        for b in sample:
            prod = 1
            for v in places:
                prod *= hilbert_symbol(a, b, v)
            assert prod == 1
    # witnesses for odd-dimensional forms
    forms = [DiagonalQuadraticForm((F(1),)),
             DiagonalQuadraticForm((F(1), F(2), F(-3))),
             DiagonalQuadraticForm((F(2), F(3), F(5)))]
    for f in forms:
        for v in (Place.real(), Place.p_adic(3), Place.p_adic(5)):
            s, t = non_multiplicative_witness(f, v)
            assert delta_factor(f, s * t, v) != \
                delta_factor(f, s, v) * delta_factor(f, t, v)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _ok("criterion 7: %d oracle comparisons, product formula, and "
        "witnesses all hold (%.1fs)" % (pairs_checked, elapsed))


def test_criterion_8_inference_reproduction():
    flagship = ["TRACE_BOUND_ALL_NILPOTENT", "ALL_DESC_SPECIAL",
                "ALL_DESC_H1_TRIVIAL", "GLN_WITH_TRANSPOSE_STABLE_H"]
    closure = close(flagship)
    expected = set(flagship) | {
        "SPECIAL", "WEAKLY_LINEARLY_TAME", "REGULAR", "ALL_DESC_WLT",
        "TAME", "LINEARLY_TAME", "ALL_DESC_REGULAR", "GOOD", "GK",
        "GP2", "ADMISSIBLE_ANTI_AUTOMORPHISM", "GP1", "GP3",
    }
    assert closure.atoms == expected
    rule_names = {r.name for r in builtin_rules()}
    for atom in closure.derived():
        chain = closure.chain(atom)
        assert chain, "derived atom %s has no chain" % atom
        assert all(step.rule in rule_names for step in chain)
        assert chain[-1].conclusion == atom
    rng = random.Random(8)
    for _ in range(50):
        pool = list(ATOMS)
        small = rng.sample(pool, rng.randint(0, len(pool)))
        extra = [a for a in pool if a not in small]
        big = small + rng.sample(extra, rng.randint(0, len(extra)))
        cs, cb = close(small), close(big)
        assert cs.atoms <= cb.atoms
        assert close(sorted(cs.atoms)).atoms == cs.atoms
    _ok("criterion 8: closure reproduces the full property chain including "
        "GP1 and is monotone and idempotent on 50 random subsets")


def test_criterion_9_report_determinism(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert cli_main(["audit", "--family", "diagonal", "--n", "4",
                     "--out", str(out1)]) == 0
    assert cli_main(["audit", "--family", "diagonal", "--n", "4",
                     "--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    json.loads(b1.decode("utf-8"))     # and it parses
    _ok("criterion 9: consecutive audit reports are byte-identical "
        "(%d bytes)" % len(b1))
