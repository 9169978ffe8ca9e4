"""`sympair triple` and `sympair descend` reports are byte-identical to recorded digests.

Each element of CASES is a fixed non-canonical conjugate: (X, -X) or w*X
for X = g J_mu g^-1 (triples) or X = g D g^-1 with D diagonal
(descendants), g drawn from a seeded random.Random.  The sha256 of each
report was recorded before the built-in pairs' triples moved to gl_n-sized
solves and before matrix products and ad went over the integers, so these
pin that neither changed a byte.

CANONICAL_DIGESTS holds the `triple` report of every canonical orbit
representative orbit_rep(pair, mu), in partition order, recorded while
the CLI still solved for these triples: they pin that the closed form
theta_adapt now lifts for them prints the same bytes.
"""

import hashlib
import random
from fractions import Fraction as F

import pytest

from sympair.cli import main
from sympair.criteria import orbit_rep, partitions
from sympair.pairs import make_diagonal_pair, make_quadratic_ext_pair


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


CANONICAL_DIGESTS = {
    ('diagonal', 1, None): [
        "b65922716f3da51d5be0b553b6a43c11f16812f922c4de4a57708f03f24f9bd4",
    ],
    ('diagonal', 2, None): [
        "07520178bf9fab12701dcf72bbf5943f5cf14731b27acf83afe7d777867021c0",
        "149df10ae6856bfd6f7eaf7b81b21293b620d16f4023ba08e645327927251ba8",
    ],
    ('diagonal', 3, None): [
        "1397f6b022e7621d69efb1552f84badf4200793eebe0f6a8da227a999a2f9347",
        "415da9ea084ca6ac09fbe438eb5910c9f923133cb1b45c96f4debf5352594b54",
        "a623ba1b27b70c7f933d14785f5288cc0ea309f35df8a6def619fa82bb9253f8",
    ],
    ('diagonal', 4, None): [
        "a7cc88d7aa90e60ab14373ac914ee460a10c7d66838a370003a0c3701109ec74",
        "f1cddeedac1e1e2d8a904f5a2cc76abb9a647bd9fdd9565f34447f343e45d22d",
        "71a0c2f76f1f20ee23abeaaad4e81941c075c3d69a13d64d53d4b0fe8a69aa05",
        "7bc3a494fd00805085aa1f6033b7d274466277e4da28e7740972702874466b96",
        "59c27ac2391174b61cc82c9688fe6ffbbd45de5d2cd2adafda25b0ebee5c827b",
    ],
    ('diagonal', 5, None): [
        "c7f0a31e35583fcb1ef7e6c7112709bd4f9bfa59784491664c95d639d188584b",
        "b6aaabe00d889f766ca8fd509916dc63be8f8fc22dc75d4df2165a61856e2871",
        "2c5ff3e87881f8e3566f6c019a63d0fff7f7d4f9412d6b9f4a064ff63f11fee2",
        "9a8dbccfe07f62b29e064aa0d7ac20fcfbf52555fa2e5ad0076661b67915333c",
        "e5bfd8424b327ff1eb66ba4cd38ce9a9c825e0c1f143e06f9032e44891ea6b0d",
        "14452463f1f04a6ce7cb5739648e06cc47285209ae791362853b803033a43e38",
        "c7da9773f7d62f551a7415df37f249482a3554369abb7f6216b9781abc5971ca",
    ],
    ('quadratic_ext', 1, 5): [
        "529f12f3e78ca8f94ff468979dc3dc01e1d4090631f0b7291e94527610736b2a",
    ],
    ('quadratic_ext', 1, -1): [
        "2928a45e5f2abc78728f4e7170ba2f2f0b34e53323b0b718bdf5e94a4b07430e",
    ],
    ('quadratic_ext', 1, 2): [
        "d335e16b7e84c57be647bf1be9e0d8d7008875773e90ba92e6a0910d0414cb09",
    ],
    ('quadratic_ext', 2, 5): [
        "e41253225922dbe484c57635e285740488980a9aaae67e9f42a338bc5104414f",
        "34502614dce2f671b36a7e728b98fe13bceedb0eb47f96e8592011f7591950ee",
    ],
    ('quadratic_ext', 2, -1): [
        "bdb525bf3e394122904855e64b35ec80a25ba6e6d7ea55a78c3b77c592bff039",
        "d482be35ec8066ab7ed7d6427139ce6c84bdb67d631e817fe6e4feb900910a0e",
    ],
    ('quadratic_ext', 2, 2): [
        "8f0c10bc7180ae39809ed9c345e8990d4f05788ba8df2073896e9c2eec384d6b",
        "091afef464dc02e4cb62d7659747df58a28eddcedf492f3dbc4da378bf0764fa",
    ],
    ('quadratic_ext', 3, 5): [
        "49f7e323bd6665f83550f6d4ac4d197dcebd2164891b3fbf6955c0784f6714a4",
        "f7707b0d3775a212841f3d4c443db6754411cac520bbcd90fa37473bf01fbb7d",
        "dbed25f1dfdd7b594f203638184b9e0e10cb3c0d5ff56f0e2e18c0e2a5786c27",
    ],
    ('quadratic_ext', 3, -1): [
        "103227125005466f7303652ab645c627d6a75cd736398f52e59aa4292b95fd89",
        "28e168207b063cc867def118d49d3b941cb195244e1af0a7ee4602be42b8f3fd",
        "5c969809894d5f3dff9d29ff9e70383d65aaf78d3a95d55d532d6ad9abfca81f",
    ],
    ('quadratic_ext', 3, 2): [
        "3b7f7456e1df2f8f347300b35ef5d0bdedc8bdfc7704d351bfae6378ed6df19e",
        "d6521731a678e8c12736de656b7f8b4b51d3efe50ec32094be5dba153402f0a0",
        "66c0396e4a717ebcece5c608f71596bbd8933b672d570f99df9d46287a7e6539",
    ],
    ('quadratic_ext', 4, 5): [
        "329f2c16bca1da3a6ad8c6abc021876579e998e26d1e4256ba25146187bee36c",
        "d547213403e1ee0a8a0f14db5e3e066cf072a1b94180b59db25465fc2c706d4f",
        "0523fd85a6750c67dc6b48ca7effe80babc544c96a6c094bf79e8189ce6e3062",
        "26f2a90efc85925063689e828172bc55724f8e80493732869c1303bb8a563311",
        "1cfd613c75d828efa309eecafbfc310425d93df2eac28d070dc804187d2e5d95",
    ],
    ('quadratic_ext', 4, -1): [
        "b02e9856e8f351bb144a08abefee7e01d96b4a90e99db106335d5791561963bb",
        "39e8534a4b110612122022e73a868363fd09ac5a82aaed12d9026504e1502da2",
        "0cf2bfc2f372ca988e937488b7b2db5c28f4d252b60b9fbd3ac411603fe1133f",
        "3722c8aa179811439f03bddedbbf0a8bcae4eeff5fd46cef6cc2682c9b9bb74d",
        "b98a8ba0af7b3cb680e4481ee4bb3a65b3050f87f37158097514afdaa77c5251",
    ],
    ('quadratic_ext', 4, 2): [
        "2f08732afa7671281d5861b4a56eae35b4c34b7b757aa0505cf4a821c0857d10",
        "5cedc8df6d17173388b2bfac9dd78b945c490c3848b2064b8841095f0c6e8730",
        "afcfae606930e53560a15bb6905a393d6efd37fe26a9b91d7d1e46a68c2bbc0a",
        "1968a27cf2f2c565e515c764ed903b04417be12a6deae8fc6bd99d3f5c6479cf",
        "d5e7e7d9913cd766cc908d1ef13b85fd24fbe6ded15a42b4a9bb7fa514dd1a22",
    ],
}


@pytest.mark.parametrize("family,n,d", sorted(CANONICAL_DIGESTS, key=str))
def test_canonical_triple_reports_match_golden_digests(capsys, family, n, d):
    pair = make_diagonal_pair(n) if d is None else make_quadratic_ext_pair(n, d)
    args = ["triple", "--family", family, "--n", str(n)] + ([] if d is None else ["--d", str(d)])
    got = []
    for mu in partitions(n):
        vec = ",".join(str(e) for e in orbit_rep(pair, mu))
        assert main(args + ["--element", vec]) == 0
        got.append(hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest())
    assert got == CANONICAL_DIGESTS[(family, n, d)]
