"""Command-line behavior: subcommands, exit codes, report shape, determinism."""

import json

from sympair.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestAudit:
    def test_diagonal_n2_report(self, capsys):
        doc = run_json(capsys, "audit", "--family", "diagonal", "--n", "2")
        assert doc["schema"] == "1"
        assert doc["all_pass"] is True
        assert len(doc["orbits"]) == 2
        assert doc["orbits"][0]["partition"] == [2]
        assert doc["orbits"][0]["trace_on_hx"] == "2"
        derived = {row["atom"] for row in doc["facts"]["derived"]}
        assert "SPECIAL" in derived
        assert "TAME" in derived

    def test_quadratic_family(self, capsys):
        doc = run_json(capsys, "audit", "--family", "quadratic_ext", "--n", "2", "--d", "-1")
        assert doc["pair"]["d"] == "-1"
        assert doc["all_pass"] is True
        # the headline chain: the computed bound plus the descendant closure
        # derive tameness for this family too
        derived = {row["atom"] for row in doc["facts"]["derived"]}
        assert {"SPECIAL", "TAME", "LINEARLY_TAME", "REGULAR"} <= derived

    def test_determinism_byte_identical(self, capsys, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["audit", "--family", "diagonal", "--n", "4", "--out", str(out1)]) == 0
        assert main(["audit", "--family", "diagonal", "--n", "4", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_orbit_cap(self, capsys):
        code, _, err = run(capsys, "audit", "--family", "diagonal", "--n", "7")
        assert code == 2
        assert "cap" in err
        # explicit raise works (small overshoot to keep it quick would still
        # be slow at 7; just check the cap can move downward too)
        code, _, err = run(capsys, "audit", "--family", "diagonal", "--n", "3",
                           "--max-orbit-n", "2")
        assert code == 2

    def test_bad_inputs_exit_2(self, capsys):
        assert run(capsys, "audit", "--family", "diagonal")[0] == 2
        assert run(capsys, "audit", "--family", "diagonal", "--n", "0")[0] == 2
        assert run(capsys, "audit", "--family", "quadratic_ext", "--n", "2")[0] == 2
        assert run(capsys, "audit", "--family", "quadratic_ext", "--n", "2",
                   "--d", "4")[0] == 2
        assert run(capsys, "audit", "--family", "diagonal", "--n", "2",
                   "--d", "5")[0] == 2


class TestTriple:
    def test_adapted_triple(self, capsys):
        doc = run_json(capsys, "triple", "--family", "diagonal", "--n", "2",
                       "--element", "0,1,0,0,0,-1,0,0")
        t = doc["triple"]
        assert t["theta_adapted"] is True
        assert t["h"] == ["1", "0", "0", "-1", "1", "0", "0", "-1"]
        assert t["f"] == ["0", "0", "1", "0", "0", "0", "-1", "0"]

    def test_rejects_non_nilpotent(self, capsys):
        code, _, err = run(capsys, "triple", "--family", "diagonal", "--n", "2",
                           "--element", "1,0,0,-1,-1,0,0,1")
        assert code == 2

    def test_rejects_wrong_length(self, capsys):
        assert run(capsys, "triple", "--family", "diagonal", "--n", "2",
                   "--element", "0,1")[0] == 2


class TestDescend:
    def test_split_semisimple(self, capsys):
        doc = run_json(capsys, "descend", "--family", "diagonal", "--n", "2",
                       "--element", "1,0,0,-1,-1,0,0,1")
        assert doc["descendant"]["dim_g"] == 4
        assert doc["dimension_identity"]["holds"] is True

    def test_rejects_nilpotent_element(self, capsys):
        assert run(capsys, "descend", "--family", "diagonal", "--n", "2",
                   "--element", "0,1,0,0,0,-1,0,0")[0] == 2


class TestWeil:
    def test_unit_form_at_p5(self, capsys):
        doc = run_json(capsys, "weil", "--place", "p:5", "--form", "1", "--t", "2")
        assert doc["gamma"]["exponent"] == 0
        assert doc["delta"]["exponent"] == 0

    def test_real_form(self, capsys):
        doc = run_json(capsys, "weil", "--place", "real", "--form", "1,1", "--t", "-1")
        assert doc["gamma"]["exponent"] == 2
        assert doc["gamma"]["value"] == "i"
        # delta(-1) for x^2+y^2: gamma/(gamma of -x^2-y^2) = i / (-i) = -1
        assert doc["delta"]["exponent"] == 4

    def test_bad_place_and_form(self, capsys):
        assert run(capsys, "weil", "--place", "p:6", "--form", "1")[0] == 2
        assert run(capsys, "weil", "--place", "real", "--form", "1,0")[0] == 2
        assert run(capsys, "weil", "--place", "real", "--form", "1", "--t", "0")[0] == 2


class TestInfer:
    def test_empty_closure(self, capsys, tmp_path):
        facts = tmp_path / "facts.json"
        facts.write_text(json.dumps({"pair_id": "x", "atoms": []}))
        doc = run_json(capsys, "infer", "--facts", str(facts))
        assert doc["closure"] == []

    def test_flagship_closure(self, capsys, tmp_path):
        facts = tmp_path / "facts.json"
        facts.write_text(json.dumps({
            "pair_id": "gl2-over-quadratic-extension",
            "atoms": ["TRACE_BOUND_ALL_NILPOTENT", "ALL_DESC_SPECIAL",
                      "ALL_DESC_H1_TRIVIAL", "GLN_WITH_TRANSPOSE_STABLE_H"],
        }))
        doc = run_json(capsys, "infer", "--facts", str(facts))
        for atom in ("TAME", "GOOD", "GK", "GP1", "GP2", "GP3"):
            assert atom in doc["closure"]
        assert doc["derivations"]["GP1"][-1]["conclusion"] == "GP1"

    def test_unknown_atom_exit_2(self, capsys, tmp_path):
        facts = tmp_path / "facts.json"
        facts.write_text(json.dumps({"atoms": ["NOPE"]}))
        assert run(capsys, "infer", "--facts", str(facts))[0] == 2

    def test_missing_file_exit_2(self, capsys):
        assert run(capsys, "infer", "--facts", "/nonexistent.json")[0] == 2


class TestCustomSpec:
    def _custom_doc(self):
        """gl_1 x gl_1 with the swap involution, written out as a custom pair."""
        zero2 = ["0", "0"]
        return {
            "family": "custom",
            "custom": {
                "dim": 2,
                "structure_constants": [[zero2, zero2], [zero2, zero2]],
                "theta": [["0", "1"], ["1", "0"]],
                "realization": [
                    [["1", "0"], ["0", "0"]],
                    [["0", "0"], ["0", "1"]],
                ],
            },
        }

    def test_triple_on_custom_zero(self, capsys, tmp_path):
        spec = tmp_path / "pair.json"
        spec.write_text(json.dumps(self._custom_doc()))
        doc = run_json(capsys, "triple", "--spec", str(spec), "--element", "0,0")
        assert doc["triple"]["degenerate"] is True

    def test_custom_audit_refuses_enumeration(self, capsys, tmp_path):
        spec = tmp_path / "pair.json"
        spec.write_text(json.dumps(self._custom_doc()))
        code, _, err = run(capsys, "audit", "--spec", str(spec))
        assert code == 2
        assert "enumeration" in err

    def test_invalid_theta_rejected(self, capsys, tmp_path):
        doc = self._custom_doc()
        doc["custom"]["theta"] = [["1", "1"], ["0", "1"]]   # not an involution
        spec = tmp_path / "pair.json"
        spec.write_text(json.dumps(doc))
        assert run(capsys, "triple", "--spec", str(spec), "--element", "0,0")[0] == 2

    def test_invalid_structure_constants_rejected(self, capsys, tmp_path):
        doc = self._custom_doc()
        doc["custom"]["structure_constants"] = [
            [["0", "0"], ["1", "0"]],
            [["1", "0"], ["0", "0"]],     # not antisymmetric
        ]
        spec = tmp_path / "pair.json"
        spec.write_text(json.dumps(doc))
        assert run(capsys, "triple", "--spec", str(spec), "--element", "0,0")[0] == 2

    def test_custom_without_realization_uses_killing_form(self, capsys, tmp_path):
        # sl2 in the basis (e, h, f) with the sign involution e -> -e, f -> -f:
        # the +1 space is the torus line, the -1 space is spanned by e and f
        z2 = ["0", "0", "0"]
        table = [[list(z2) for _ in range(3)] for _ in range(3)]
        table[0][1] = ["-2", "0", "0"]
        table[1][0] = ["2", "0", "0"]
        table[0][2] = ["0", "1", "0"]
        table[2][0] = ["0", "-1", "0"]
        table[1][2] = ["0", "0", "-2"]
        table[2][1] = ["0", "0", "2"]
        doc = {
            "family": "custom",
            "custom": {
                "dim": 3,
                "basis_labels": ["e", "h", "f"],
                "structure_constants": table,
                "theta": [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]],
            },
        }
        spec = tmp_path / "pair.json"
        spec.write_text(json.dumps(doc))
        out = run_json(capsys, "triple", "--spec", str(spec), "--element", "1,0,0")
        t = out["triple"]
        assert t["theta_adapted"] is True
        assert t["h"] == ["0", "1", "0"]
        assert t["f"] == ["0", "0", "1"]


class TestSpecRejectsBooleans:
    """JSON true/false are not integers, although Python's bool is an int."""

    def audit_spec(self, capsys, tmp_path, doc):
        spec = tmp_path / "pair.json"
        spec.write_text(json.dumps(doc))
        return run(capsys, "audit", "--spec", str(spec))

    def test_n(self, capsys, tmp_path):
        code, out, err = self.audit_spec(capsys, tmp_path, {"family": "diagonal", "n": True})
        assert code == 2 and out == ""
        assert "n must be a positive integer" in err

    def test_max_orbit_n(self, capsys, tmp_path):
        code, out, err = self.audit_spec(capsys, tmp_path,
                                         {"family": "diagonal", "n": 1, "max_orbit_n": True})
        assert code == 2 and out == ""
        assert "max_orbit_n must be a positive integer" in err

    def test_d(self, capsys, tmp_path):
        code, out, err = self.audit_spec(capsys, tmp_path,
                                         {"family": "quadratic_ext", "n": 2, "d": True})
        assert code == 2 and out == ""
        assert "integer discriminant" in err
