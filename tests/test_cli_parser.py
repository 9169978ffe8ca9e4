"""The parser registers only the subcommand named first in argv, with its arguments.

Help text and usage errors keep their bytes: the sha256 of stdout, a NUL
and stderr, at 80 columns, were recorded from the parser that built every
subcommand's arguments on every call.
"""

import hashlib

import pytest

from sympair.cli import _build_parser, main

RECORDED = [
    (["--help"], 0, "55b00756bcb57216555b7dfb70482a1d1c70b71edcff1928ff0057d7a995963c"),
    (["audit", "--help"], 0, "2475d6dd0299cd3f10c4d53fdf26cfe480f80b68803ff906d76730f587ea8c0d"),
    (["triple", "--help"], 0, "c9fda82a6d719fb621c47a6a18a6be3e6aa424f714a6f289ab32d5ce951ecbba"),
    (["descend", "--help"], 0, "5f59bad9ab8578b49066d416202660cc1fc47e13831292b82c015b0727c61629"),
    (["weil", "--help"], 0, "f35608eb464332d8bf6cb90916a3b158855a00cbbf14981c4dfa19738c702e5a"),
    (["infer", "--help"], 0, "6416268bd5a17d86f3fc20bd54f3ab5d584e8663746a652ec62ea304d3330e4d"),
    ([], 2, "568441bd1a21822d95ec285903b161817417b5f38e9f7f1ae474a7089980bcc8"),
    (["bogus"], 2, "741fce67680df7797895e9df7dc29250ef395b68697aca6b6ec93a9fb11985ff"),
    (["triple", "--family", "diagonal"], 2,
     "d4854dcec3ded5730ebd47c4e802198ec5eb667446b0c1170e543c661a7fcc9d"),
    (["weil", "--place", "real"], 2, "86c6cd4c1b2e270c508c419970dda18f8f50248503c7ec29460576053fddf979"),
    (["audit", "--bogus"], 2, "d2b999afa9cb3ea07e5998d4e02ea5735acae6215c96466aad3f06edd41bfa98"),
    (["--n", "3", "audit"], 2, "c45c136f65c474b23cd32a349186ddb50754b4971a27827602f331ecdc86cc4c"),
]


@pytest.mark.parametrize("argv,code,digest", RECORDED, ids=[" ".join(a) or "-" for a, _, _ in RECORDED])
def test_help_and_usage_errors_keep_their_bytes(monkeypatch, capsys, argv, code, digest):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == code
    captured = capsys.readouterr()
    assert hashlib.sha256((captured.out + "\0" + captured.err).encode()).hexdigest() == digest


def _options(parser):
    sub = next(a for a in parser._actions if a.dest == "command")
    return {name: sorted(o for a in p._actions for o in a.option_strings if o not in ("-h", "--help"))
            for name, p in sub.choices.items()}


def test_only_the_named_subcommand_gets_arguments():
    assert _options(_build_parser([])) == {name: [] for name in
                                           ("audit", "triple", "descend", "weil", "infer")}
    opts = _options(_build_parser(["triple", "--family", "diagonal", "--element", "1"]))
    assert opts == {"triple": ["--d", "--element", "--family", "--max-orbit-n", "--n", "--spec"]}
    # the other four are not registered at all, unless argv starts elsewhere
    assert set(_options(_build_parser(["--n", "3", "audit"]))) == {
        "audit", "triple", "descend", "weil", "infer"}
