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
