"""Exit-code contract for failures that cannot occur on valid built-in input."""

import dataclasses
import json

import pytest

import sympair.cli
from sympair.cli import main
from sympair.criteria import audit_orbits
from sympair.errors import InvariantViolation
from sympair.pairs import make_diagonal_pair


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
