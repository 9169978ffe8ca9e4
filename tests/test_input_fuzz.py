"""Mutated input documents against the exit-code contract.

Each example takes one valid document (a diagonal, quadratic_ext or custom
pair spec, or a fact file), applies one mutation to it and runs cli.main in
process on it: audit, triple and descend for a spec, infer for a fact
file.  A mutation drops a key or item, retypes or re-nests a value, or
inserts a new one; the values put in are huge ints, booleans, floats,
strings, null and empty containers.  The element vectors of descend and
triple are fuzzed on their own, over the built-in pairs of diagonal n <= 3
and quadratic_ext n <= 2, and triple once more over small entries, where
it must answer or refuse: exit 0 or 2.  Whatever the input, the exit code is 0, 1 or 2 and
stderr shows no traceback, no INTERNAL ERROR and no INVARIANT VIOLATED.
"""

import contextlib
import copy
import io
import json
from datetime import timedelta
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from sympair.cli import main
from sympair.criteria import partitions
from sympair.linalg import Matrix, inverse, rank


def sl2_table():
    """[e, h] = -2e, [e, f] = h, [h, f] = -2f in the basis (e, h, f)."""
    table = [[["0", "0", "0"] for _ in range(3)] for _ in range(3)]
    for (i, j), cell in {(0, 1): ["-2", "0", "0"], (0, 2): ["0", "1", "0"],
                         (1, 2): ["0", "0", "-2"]}.items():
        table[i][j] = cell
        table[j][i] = [str(-int(c)) for c in cell]
    return table


# (document, nilpotent element for triple, semisimple element for descend)
SPECS = {
    "diagonal": ({"family": "diagonal", "n": 2, "max_orbit_n": 3},
                 "0,1,0,0,0,-1,0,0", "1,0,0,2,-1,0,0,-2"),
    "quadratic_ext": ({"family": "quadratic_ext", "n": 2, "d": 5},
                      "0,0,0,0,0,1,0,0", "0,0,0,0,1,0,0,-1"),
    "custom": ({"family": "custom", "custom": {
        "dim": 3,
        "basis_labels": ["e", "h", "f"],
        "structure_constants": sl2_table(),
        "theta": [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]],
        "realization": [[["0", "1"], ["0", "0"]], [["1", "0"], ["0", "-1"]],
                        [["0", "0"], ["1", "0"]]],
    }}, "1,0,0", "1,0,1"),
}
FACTS = {"pair_id": "gl2", "atoms": ["TRACE_BOUND_ALL_NILPOTENT", "SPECIAL"]}

KEYS = ["family", "n", "d", "D", "max_orbit_n", "custom", "dim", "basis_labels",
        "structure_constants", "theta", "realization", "pair_id", "atoms"]

JUNK = st.one_of(
    st.integers(min_value=-10 ** 40, max_value=10 ** 40),
    st.sampled_from([2 ** 63, -2 ** 63, 10 ** 12 + 1, 3 * 10 ** 24 + 1]),
    st.booleans(),
    st.floats(),
    st.text(max_size=10),
    st.sampled_from(["0", "-1", "2/3", "1/0", "1e5", "1e999999999", "1E-1_0000000",
                     "diagonal", "custom", "SPECIAL", "GP1"]),
    st.none(),
    st.sampled_from([[], {}]),
)


def locations(doc, path=()):
    """Every path into the document, the root included."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from locations(value, path + (key,))


@st.composite
def mutated(draw, doc):
    """doc with one key dropped, one value retyped or re-nested, or one value inserted."""
    doc = copy.deepcopy(doc)
    # depth first, then a path at that depth, so that the few keys near the
    # root are drawn as often as the many cells of a matrix
    by_depth = {}
    for path in locations(doc):
        by_depth.setdefault(len(path), []).append(path)
    path = draw(st.sampled_from(by_depth[draw(st.sampled_from(sorted(by_depth)))]))
    parent = None
    node = doc
    for key in path:
        parent, node = node, node[key]
    kinds = ["retype", "renest", "insert"] + (["drop"] if path else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "drop":
        del parent[path[-1]]
        return doc
    if kind == "insert" and isinstance(node, dict):
        node[draw(st.sampled_from(KEYS) | st.text(max_size=4))] = draw(JUNK)
        return doc
    if kind == "insert" and isinstance(node, list):
        node.insert(draw(st.integers(0, len(node))), draw(JUNK))
        return doc
    if kind == "renest":
        value = draw(st.sampled_from([[node], {"value": node}]))
    else:
        value = draw(JUNK)
    if not path:
        return value
    parent[path[-1]] = value
    return doc


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_contract(code, err):
    assert code in (0, 1, 2), err
    for banner in ("Traceback", "INTERNAL ERROR", "INVARIANT VIOLATED"):
        assert banner not in err, err


@st.composite
def mutated_specs(draw):
    doc, nilpotent, semisimple = SPECS[draw(st.sampled_from(sorted(SPECS)))]
    command = draw(st.sampled_from(["audit", "triple", "descend"]))
    element = {"audit": [], "triple": ["--element", nilpotent],
               "descend": ["--element", semisimple]}[command]
    return draw(mutated(doc)), [command] + element


@settings(max_examples=300, deadline=None)
@given(mutated_specs())
def test_mutated_spec_keeps_the_exit_code_contract(tmp_path_factory, drawn):
    doc, argv = drawn
    path = tmp_path_factory.getbasetemp() / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert_contract(*run([argv[0], "--spec", str(path)] + argv[1:]))


@settings(max_examples=100, deadline=None)
@given(mutated(FACTS))
def test_mutated_fact_file_keeps_the_exit_code_contract(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "facts.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert_contract(*run(["infer", "--facts", str(path)]))


def test_base_documents_run(tmp_path):
    """The unmutated documents are valid: each subcommand exits 0 on them,
    descend included at the non-split element of quadratic_ext."""
    path = tmp_path / "doc.json"
    for family, (doc, nilpotent, semisimple) in SPECS.items():
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run(["audit", "--spec", str(path)])[0] == (2 if family == "custom" else 0)
        assert run(["triple", "--spec", str(path), "--element", nilpotent])[0] == 0
        assert run(["descend", "--spec", str(path), "--element", semisimple])[0] == 0
    path.write_text(json.dumps(FACTS), encoding="utf-8")
    assert run(["infer", "--facts", str(path)])[0] == 0


def test_unreadable_json_is_bad_input(tmp_path):
    # an integer literal of 5,000 digits, more than int() reads from a
    # string, and a byte that is not UTF-8: json.load raises a plain
    # ValueError for each, not a JSONDecodeError
    path = tmp_path / "spec.json"
    for text in (b'{"family": "diagonal", "n": %s}' % (b"1" * 5000),
                 b'{"family": "diagonal", "n": 2, "x": "\xff"}'):
        path.write_bytes(text)
        code, err = run(["audit", "--spec", str(path)])
        assert code == 2 and err.startswith("error: bad JSON in "), err


def test_a_huge_decimal_exponent_is_refused_before_expansion(tmp_path):
    # Fraction("1e999999999") would build a billion-digit integer first
    doc = copy.deepcopy(SPECS["custom"][0])
    doc["custom"]["theta"][0][0] = "1e999999999"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["triple", "--spec", str(path), "--element", "1,0,0"],
                 ["weil", "--place", "real", "--form", "1,1E-1_0000000"]):
        code, err = run(argv)
        assert code == 2 and "exponent" in err, err


# ---------------------------------------------------------------------------
# descend and triple element vectors
# ---------------------------------------------------------------------------

ELEMENT_PAIRS = ([("diagonal", n, None) for n in (1, 2, 3)]
                 + [("quadratic_ext", n, d) for n in (1, 2) for d in (5, -1, 2)])
SMALL = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
BIG = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 6))
ENTRY = st.one_of(st.just(Fraction(0)), SMALL, BIG)


@st.composite
def inner_matrices(draw, n):
    """An n x n rational X: g D g^-1 for D diagonal with repeats allowed, a
    2 x 2 block [[0, a], [b, 0]] (split in quadratic_ext exactly when a b d
    is a square), or arbitrary entries."""
    kind = draw(st.sampled_from(["conjugate", "block", "arbitrary"]))
    if kind == "arbitrary":
        return [[draw(ENTRY) for _ in range(n)] for _ in range(n)]
    if kind == "block" and n >= 2:
        x = [[Fraction(0)] * n for _ in range(n)]
        x[0][1], x[1][0] = draw(ENTRY), draw(ENTRY)
        return x
    pool = [draw(ENTRY) for _ in range(draw(st.integers(1, n)))]
    d = Matrix([[draw(st.sampled_from(pool)) if i == j else Fraction(0) for j in range(n)]
                for i in range(n)])
    g = Matrix([[Fraction(draw(st.integers(-3, 3))) for _ in range(n)] for _ in range(n)])
    assume(rank(g) == n)
    return (g @ d @ inverse(g)).rows


@st.composite
def nilpotent_conjugates(draw, n, entry=ENTRY):
    """An n x n rational g J_mu g^-1 for a partition mu of n and any
    invertible g with entries drawn from entry (the element entries by default)."""
    mu = draw(st.sampled_from(partitions(n)))
    j = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for size in mu:
        for i in range(at, at + size - 1):
            j[i][i + 1] = Fraction(1)
        at += size
    g = Matrix([[draw(entry) for _ in range(n)] for _ in range(n)])
    assume(rank(g) == n)
    return (g @ Matrix(j) @ inverse(g)).rows


@st.composite
def pair_elements(draw, inner, entry=ENTRY):
    """(pair arguments, --element text): (X, -X) or w X for X drawn from
    inner(n), sometimes with a plain part, one coordinate changed, one
    dropped or one junk token; plain parts and changes are drawn from entry."""
    family, n, d = draw(st.sampled_from(ELEMENT_PAIRS))
    flat = [e for row in draw(inner(n)) for e in row]
    if family == "diagonal":
        vec = flat + [-e for e in flat]
    else:
        plain = [Fraction(0)] * len(flat)
        if draw(st.integers(0, 4)) == 0:
            plain = [draw(entry) for _ in flat]
        vec = plain + flat
    tokens = [str(e) for e in vec]
    edit = draw(st.sampled_from(["none", "none", "change", "drop", "junk"]))
    at = draw(st.integers(0, len(tokens) - 1))
    if edit == "change":
        tokens[at] = str(draw(entry))
    elif edit == "drop":
        del tokens[at]
    elif edit == "junk":
        tokens[at] = draw(st.sampled_from(["", "x", "1/0", "1e5", "2/3/4", "nan", " 1"]))
    args = ["--family", family, "--n", str(n)] + ([] if d is None else ["--d", str(d)])
    return args, ",".join(tokens)


@settings(max_examples=300, deadline=timedelta(seconds=10))
@given(pair_elements(inner_matrices))
def test_descend_element_keeps_the_exit_code_contract(drawn):
    args, element = drawn
    assert_contract(*run(["descend"] + args + ["--element", element]))


@settings(max_examples=200, deadline=timedelta(seconds=10))
@given(pair_elements(nilpotent_conjugates))
def test_triple_element_keeps_the_exit_code_contract(drawn):
    args, element = drawn
    assert_contract(*run(["triple"] + args + ["--element", element]))


@settings(max_examples=150, deadline=timedelta(seconds=10))
@given(pair_elements(lambda n: nilpotent_conjugates(n, SMALL), SMALL))
def test_small_triple_elements_exit_0_or_2(drawn):
    """Small-entry nilpotent conjugates, edited or not, get a triple or a refusal."""
    args, element = drawn
    code, err = run(["triple"] + args + ["--element", element])
    assert code in (0, 2), err
    assert_contract(code, err)
