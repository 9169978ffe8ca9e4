"""Audit reports are byte-identical to the digests recorded in perfbench/digests.json.

The digests are the sha256 of the stdout of ``sympair audit`` with the
arguments the benchmark uses; this test only reads them.  Diagonal n = 7
is left to the benchmark, which is where its run time is paid.
"""

import hashlib
import json
from pathlib import Path

import pytest

from sympair.cli import main

DIGESTS = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "digests.json")
                     .read_text(encoding="utf-8"))
DISCRIMINANTS = (-7, -6, -5, -3, -2, -1, 2, 3, 5, 6, 7)
CASES = ([("diagonal", n, None) for n in range(2, 7)]
         + [("quadratic_ext", n, d) for n in range(2, 5) for d in DISCRIMINANTS])


@pytest.mark.parametrize("family,n,d", CASES)
def test_audit_report_matches_recorded_digest(capsys, family, n, d):
    argv = ["audit", "--family", family, "--n", str(n)]
    argv += ["--max-orbit-n", "7"] if d is None else ["--d", str(d)]
    assert main(argv) == 0
    report = capsys.readouterr().out.encode("utf-8")
    key = "%s n=%d d=%s" % (family, n, "-" if d is None else d)
    assert hashlib.sha256(report).hexdigest() == DIGESTS[key]


# Triples and descendants at conjugates g x g^-1 of a Jordan or diagonal
# matrix by a unimodular g, as in the dense-elements benchmark workload:
# non-canonical elements, which take the general Jacobson-Morozov solves
# and centralizer eliminations.  The sha256 of each report was recorded
# with the earlier rref over Fraction arithmetic, so it pins that the
# integer elimination changes no output.
ELEMENT_CASES = [
    ("triple", ["--family", "diagonal", "--n", "3"],
     "1,1,0,-3,-2,1,-1,0,1,-1,-1,0,3,2,-1,1,0,-1",
     "5045101584eb68b85a6ffe7ed6542f490b936043848672f79ff59593a3c5c25c"),
    ("descend", ["--family", "diagonal", "--n", "3"],
     "-3/2,0,2,4,1/2,-4,0,0,1/2,3/2,0,-2,-4,-1/2,4,0,0,-1/2",
     "8ab0af007f534351104b9f1d6e2ce0e0fb6dcb3e3de503c9210f6a4d849e705e"),
    ("triple", ["--family", "diagonal", "--n", "4"],
     "-1,0,-2,-1,1,0,3,2,1,0,2,1,-1,0,-2,-1,1,0,2,1,-1,0,-3,-2,-1,0,-2,-1,1,0,2,1",
     "338fb0306a1b93dd0203da8e98b1814abe70db7326171e288644232751eae0ed"),
    ("descend", ["--family", "diagonal", "--n", "4"],
     "23/2,3,8,2,-12,-7/2,-10,-4,-12,-3,-17/2,-2,12,3,10,7/2,"
     "-23/2,-3,-8,-2,12,7/2,10,4,12,3,17/2,2,-12,-3,-10,-7/2",
     "71aba7e5f99ec4f5c7bd67904558354c598553017d79e66286777a9e0352fa70"),
    ("triple", ["--family", "quadratic_ext", "--n", "2", "--d", "2"],
     "0,0,0,0,-1,1,-1,1",
     "3a97a37aafdf8d7b3602d260015bddaea09e6e642620a8afac0de5d2313980c1"),
]


@pytest.mark.parametrize("command,pair_args,element,digest", ELEMENT_CASES,
                         ids=["%s-%s-n%s" % (c, a[1], a[3]) for c, a, _, _ in ELEMENT_CASES])
def test_element_report_matches_recorded_digest(capsys, command, pair_args, element, digest):
    assert main([command] + pair_args + ["--element", element]) == 0
    report = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(report).hexdigest() == digest
