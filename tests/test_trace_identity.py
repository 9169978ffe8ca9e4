"""The sweep's trace of ad h on z_h(x), read off the quotient spectrum,
against the centralizer route that custom pairs still take and that stays
the reference: restricted_trace over centralizer_in."""

import pytest
from hypothesis import given, settings

from sympair import criteria
from sympair.cli import main
from sympair.criteria import (
    audit_orbits,
    clebsch_gordan_weights,
    restricted_trace,
    speciality_audit,
)
from sympair.pairs import SymmetricPair, make_diagonal_pair, make_quadratic_ext_pair

from test_graded_sweep import conjugate_of, conjugated_orbit_elements


def centralizer_trace(pair, x, triple):
    return restricted_trace(pair, list(triple.h), pair.centralizer_in(x, pair.h_basis))


CANONICAL = ([("diagonal", n, None) for n in range(1, 8)]
             + [("quadratic_ext", n, d) for n in range(1, 6) for d in (-1, 2, 5)])


@pytest.mark.parametrize("family,n,d", CANONICAL)
def test_sweep_trace_matches_the_centralizer_route(family, n, d):
    pair = make_diagonal_pair(n) if d is None else make_quadratic_ext_pair(n, d)
    for audit in audit_orbits(pair):
        x = list(audit.representative)
        assert audit.trace_on_hx == centralizer_trace(pair, x, audit.triple)
        assert audit.trace_on_hx == sum(clebsch_gordan_weights(audit.partition))


@settings(max_examples=20, deadline=None)
@given(conjugated_orbit_elements())
def test_conjugate_trace_matches_the_centralizer_route(drawn):
    pair, x = drawn
    audit = speciality_audit(pair, x)
    assert audit.trace_on_hx == centralizer_trace(pair, x, audit.triple)


def spy_on_centralizer_route(monkeypatch):
    calls = {"centralizer_in": 0, "restricted_trace": 0}
    centralizer_in = SymmetricPair.centralizer_in

    def spy_centralizer_in(self, x, subspace):
        calls["centralizer_in"] += 1
        return centralizer_in(self, x, subspace)

    def spy_restricted_trace(pair, h, subspace):
        calls["restricted_trace"] += 1
        return restricted_trace(pair, h, subspace)

    monkeypatch.setattr(SymmetricPair, "centralizer_in", spy_centralizer_in)
    monkeypatch.setattr(criteria, "restricted_trace", spy_restricted_trace)
    return calls


def test_built_in_sweep_takes_no_centralizer(monkeypatch):
    calls = spy_on_centralizer_route(monkeypatch)
    diagonal = make_diagonal_pair(4)
    audit_orbits(diagonal)
    audit_orbits(make_quadratic_ext_pair(3, 5))
    # a conjugate takes theta_adapt and the normal-form quotient instead
    audit_orbits(diagonal, reps=[((3, 1), conjugate_of(diagonal, (3, 1)))])
    assert calls == {"centralizer_in": 0, "restricted_trace": 0}


def test_custom_pair_takes_the_centralizer_route_once_per_element(monkeypatch):
    built_in = make_diagonal_pair(3)
    custom = SymmetricPair(built_in.algebra, built_in.theta, built_in.form)
    reps = [(None, criteria.orbit_rep(built_in, mu)) for mu in criteria.partitions(3)]
    reps.append((None, conjugate_of(built_in, (2, 1))))
    want = [a.trace_on_hx for a in audit_orbits(built_in, reps=reps)]
    calls = spy_on_centralizer_route(monkeypatch)
    got = [a.trace_on_hx for a in audit_orbits(custom, reps=reps)]
    assert calls == {"centralizer_in": len(reps), "restricted_trace": len(reps)}
    assert got == want


def test_shifted_spectrum_exits_3_naming_partition_and_stage(monkeypatch, capsys):
    eigen_check = criteria.eigen_check

    def shifted(pair, x, triple):
        return tuple((k - 2, m) for k, m in eigen_check(pair, x, triple))

    monkeypatch.setattr(criteria, "eigen_check", shifted)
    code = main(["audit", "--family", "diagonal", "--n", "3"])
    err = capsys.readouterr().err
    assert code == 3
    assert "INVARIANT VIOLATED: partition (3,): trace: " in err
    assert "differs from the Clebsch-Gordan sum 6" in err



def test_moved_multiplicities_exit_3_naming_partition_and_stage(monkeypatch, capsys):
    # for (3,) the quotient spectrum is {0: 1, -2: 1, -4: 1}; {-2: 3} keeps
    # both the count and sum_k (k - 2) m_k = -12, so the trace still agrees
    eigen_check = criteria.eigen_check

    def moved(pair, x, triple):
        spectrum = eigen_check(pair, x, triple)
        return ((-2, 3),) if dict(spectrum) == {0: 1, -2: 1, -4: 1} else spectrum

    monkeypatch.setattr(criteria, "eigen_check", moved)
    code = main(["audit", "--family", "diagonal", "--n", "3"])
    err = capsys.readouterr().err
    assert code == 3
    assert "INVARIANT VIOLATED: partition (3,): quotient: " in err
    assert "differs from the lowest Clebsch-Gordan weights" in err
