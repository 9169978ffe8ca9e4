"""Exit-code contract for failures that cannot occur on valid built-in input."""

import dataclasses
import json
import random
import sys
from fractions import Fraction as F

import pytest

import sympair.cli
from sympair.cli import main
from sympair.criteria import audit_orbits
from sympair.errors import InputError, InvariantViolation
from sympair.linalg import Matrix, inverse, rank
from sympair.pairs import make_diagonal_pair
from sympair.report import MAX_RATIONAL_DIGITS, fmt


def test_criterion_failure_exits_1(monkeypatch, capsys, tmp_path):
    real_audits = audit_orbits(make_diagonal_pair(2))
    doctored = [dataclasses.replace(real_audits[0], archimedean_pass=False)] + \
        real_audits[1:]

    monkeypatch.setattr(sympair.cli, "audit_orbits", lambda pair: doctored)
    out = tmp_path / "r.json"
    code = main(["audit", "--family", "diagonal", "--n", "2", "--out", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["all_pass"] is False
    # the report still carries the failing row instead of hiding it
    assert doc["orbits"][0]["archimedean_pass"] is False


def test_invariant_violation_exits_3_with_banner(monkeypatch, capsys):
    def boom(pair):
        raise InvariantViolation("synthetic violation for the exit-code contract")

    monkeypatch.setattr(sympair.cli, "audit_orbits", boom)
    code = main(["audit", "--family", "diagonal", "--n", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert "INVARIANT VIOLATED" in captured.err


def test_unexpected_exception_exits_3_with_banner(monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("synthetic failure outside the error hierarchy")

    monkeypatch.setattr(sympair.cli, "_cmd_audit", boom)
    code = main(["audit", "--family", "diagonal", "--n", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert "INTERNAL ERROR: RuntimeError: synthetic failure" in captured.err
    assert "this is a bug" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    # a 3,000-digit t: beyond the size bound on every rational read
    ["weil", "--place", "real", "--form", "1,1", "--t", "7" * 3000],
    # a 5,001-digit coefficient, which Python would refuse to print
    ["weil", "--place", "real", "--form", "1e5000,1"],
    # |t|^4 = 10^800 is within the bound but beyond a float
    ["weil", "--place", "real", "--form", "1,1,1,1", "--t", "1" + "0" * 200],
    # |t|^8 has an 8,000-digit denominator
    ["weil", "--place", "real", "--form", "1,1,1,1,1,1,1,1", "--t", "1/" + "9" * 990],
], ids=["huge-t", "huge-coefficient", "float-overflow", "huge-modulus"])
def test_oversized_weil_numbers_exit_2(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "INTERNAL ERROR" not in err


def test_fmt_refuses_only_what_python_cannot_print():
    limit = sys.get_int_max_str_digits()
    assert fmt(F(10 ** (limit - 1))) == "1" + "0" * (limit - 1)
    assert fmt(F(-1, 10 ** (limit - 1))) == "-1/1" + "0" * (limit - 1)
    for x in (F(10 ** limit), F(-1, 10 ** limit)):
        with pytest.raises(InputError, match="%d digits" % (limit + 1)):
            fmt(x)


def test_triple_with_unprintable_entries_exits_2(capsys):
    # (X, -X) for X = g J_3 g^-1: X is within the input bound, but the
    # adapted triple's f has entries of more than 4,300 digits
    rng = random.Random(1)
    while True:
        g = Matrix([[F(rng.randrange(10 ** 332, 10 ** 333) * rng.choice((1, -1)))
                     for _ in range(3)] for _ in range(3)])
        if rank(g) == 3:
            break
    j3 = Matrix([[F(int(j == i + 1)) for j in range(3)] for i in range(3)])
    x = [e for row in (g @ j3 @ inverse(g)).rows for e in row]
    assert max(len(str(abs(p))) for e in x for p in (e.numerator, e.denominator)) <= MAX_RATIONAL_DIGITS
    element = ",".join(str(e) for e in x + [-e for e in x])
    assert main(["triple", "--family", "diagonal", "--n", "3", "--element", element]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a computed value has ")
    assert "INTERNAL ERROR" not in captured.err


def _assert_bad_input(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "INTERNAL ERROR" not in captured.err and "this is a bug" not in captured.err
    return captured.err


@pytest.mark.parametrize("argv", [
    ["infer", "--facts"],
    ["audit", "--spec"],
    ["triple", "--element", "0", "--spec"],
], ids=["infer-facts", "audit-spec", "triple-spec"])
def test_too_deeply_nested_json_exits_2(capsys, tmp_path, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    err = _assert_bad_input(capsys, argv + [str(deep)])
    assert err.startswith("error: bad JSON in %s: " % deep)


def test_unwritable_out_exits_2(capsys, tmp_path):
    missing = tmp_path / "missing" / "x.json"
    err = _assert_bad_input(capsys, ["audit", "--family", "diagonal", "--n", "2",
                                     "--out", str(missing)])
    assert err.startswith("error: cannot write %s: " % missing)
    facts = tmp_path / "facts.json"
    facts.write_text(json.dumps({"pair_id": "p", "atoms": []}))
    err = _assert_bad_input(capsys, ["infer", "--facts", str(facts), "--out", str(tmp_path)])
    assert err.startswith("error: cannot write %s: " % tmp_path)
