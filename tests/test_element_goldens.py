"""`sympair triple` and `sympair descend` reports are byte-identical to recorded digests.

Each element is a fixed non-canonical conjugate: (X, -X) or w*X for
X = g J_mu g^-1 (triples) or X = g D g^-1 with D diagonal (descendants),
g drawn from a seeded random.Random.  The sha256 of each report was
recorded before the built-in pairs' triples moved to gl_n-sized solves
and before matrix products and ad went over the integers, so these pin
that neither changed a byte.
"""

import hashlib
import random
from fractions import Fraction as F

import pytest

from sympair.cli import main


def _mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b)] for row in a]


def _inverse(a):
    n = len(a)
    rows = [list(r) + [F(int(i == j)) for j in range(n)] for i, r in enumerate(a)]
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c]), None)
        if pr is None:
            return None
        rows[c], rows[pr] = rows[pr], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [e * inv for e in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return [r[n:] for r in rows]


def _jordan(mu):
    n = sum(mu)
    m = [[F(0)] * n for _ in range(n)]
    off = 0
    for part in mu:
        for i in range(part - 1):
            m[off + i][off + i + 1] = F(1)
        off += part
    return m


def conjugate(core, seed, digits):
    """g core g^-1 for an invertible g with entries of up to `digits` digits."""
    rng = random.Random(seed)
    n = len(core)
    while True:
        g = [[F(rng.randrange(-10 ** digits, 10 ** digits + 1)) for _ in range(n)]
             for _ in range(n)]
        g_inv = _inverse(g)
        if g_inv is not None:
            return _mul(_mul(g, core), g_inv)


def element(family, x):
    flat = [e for row in x for e in row]
    if family == "diagonal":
        return flat + [-e for e in flat]
    return [F(0)] * len(flat) + flat


def _case(command, family, n, d, core, seed, digits, digest):
    args = ["--family", family, "--n", str(n)] + ([] if d is None else ["--d", str(d)])
    vec = element(family, conjugate(core, seed, digits))
    return pytest.param(command, args, ",".join(str(e) for e in vec), digest,
                        id="%s-%s-n%d-d%s-seed%d" % (command, family, n, d, seed))


def _diag(*entries):
    return [[F(e) if i == j else F(0) for j in range(len(entries))]
            for i, e in enumerate(entries)]


CASES = [
    _case("triple", "diagonal", 3, None, _jordan((3,)), 1, 1,
        "b91b0ffbfdb2b9eaaed8588aa2ef23befd100f64b74c64d57e4d85b9a715f466"),
    _case("triple", "diagonal", 3, None, _jordan((2, 1)), 2, 2,
        "7d0e57be194b65e2f5b2a11b2cd2200b0a393a723564da1f0a8c0392fdd9a8d5"),
    _case("triple", "diagonal", 4, None, _jordan((4,)), 3, 1,
        "fd72852a175c24094214619e4a56e8cb02e448457146939c4f3450704af3244d"),
    _case("triple", "diagonal", 4, None, _jordan((2, 2)), 4, 2,
        "4728b7a44e4ab235d92cfd87cfa991cfa27d175415cbc9bee0f3845350bf52b3"),
    _case("triple", "diagonal", 4, None, _jordan((3, 1)), 5, 20,
        "60c213b3b39370507e26ff5edfb32c9f81b8b25516754560593e6f579090ade8"),
    _case("triple", "quadratic_ext", 2, 5, _jordan((2,)), 12, 1,
        "f4084092dbbb60ac5ba04c47e1c7ddb07bd7406977b011c3c1e88f61f0c7141c"),
    _case("triple", "quadratic_ext", 3, 5, _jordan((3,)), 13, 1,
        "c03e97dd424877eb46d8fa0878c9289493b5c0bc3a622ed290f5f2fd74a899d6"),
    _case("triple", "quadratic_ext", 2, -1, _jordan((2,)), 12, 1,
        "02332ead4bdb03117f66e7d37a63e6257640b2e8bf3ad5e725926403d533515f"),
    _case("triple", "quadratic_ext", 3, -1, _jordan((3,)), 13, 1,
        "791387f8679efd532e3cbe0f196f893d5977fb8e45db96d0f3e99e8a691aebf1"),
    _case("triple", "quadratic_ext", 2, 2, _jordan((2,)), 12, 1,
        "e0c43f2efb80696cb64118a4a981ee36a8792ef2dd6f2d1db3155234833d6fee"),
    _case("triple", "quadratic_ext", 3, 2, _jordan((3,)), 13, 1,
        "073702ccf966ebb1b1d58b119cefb88bb78457ca0612f3c12a2f69207c106b45"),
    _case("triple", "quadratic_ext", 3, -1, _jordan((2, 1)), 20, 2,
        "09996964597dd869b28bec4eded6449ee952ee77aff8e635fd4b048175825f81"),
    _case("descend", "diagonal", 3, None, _diag(F(1, 2), F(1, 2), -3), 30, 1,
        "66a69855ea0ddf5850e40f8dbec7512dd4c583287c89a5063b5894dce7db6776"),
    _case("descend", "diagonal", 3, None, _diag(1, 2, F(-5, 3)), 31, 2,
        "96940200d4175f5633cd323d57c3e2052d264b385c66ec6a38848fb4db318cbf"),
    _case("descend", "diagonal", 4, None, _diag(2, 2, -1, -1), 32, 1,
        "c5b5994497c8762c49164a6a60efc1fe3eea0de4017e4492735faefaf7023fb0"),
]


@pytest.mark.parametrize("command,pair_args,vec,digest", CASES)
def test_element_report_matches_golden_digest(capsys, command, pair_args, vec, digest):
    assert main([command] + pair_args + ["--element", vec]) == 0
    report = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(report).hexdigest() == digest


def test_split_quadext_descendant_report_matches_golden_digest(capsys):
    """descend of quadratic_ext n = 2, d = 5 at w X with X = [[0, 5], [1, 0]]
    (ROADMAP item 3: a descendant of diagonal type), recorded before
    subpair_on moved to integer coordinates."""
    args = ["descend", "--family", "quadratic_ext", "--n", "2", "--d", "5",
            "--element", "0,0,0,0,0,5,1,0"]
    assert main(args) == 0
    report = capsys.readouterr().out.encode("utf-8")
    assert (hashlib.sha256(report).hexdigest()
            == "fcd359c927f551b31032300c54ee47ae4f006b2a990e84789b0a3d09eed28b59")
