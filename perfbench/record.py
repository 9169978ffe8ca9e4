"""Record the sha256 of every audit report the audit workloads can request.

    python3 perfbench/record.py > perfbench/digests.json

Run from the root of a checkout of the commit whose reports are the
reference.  run.py compares each report it sees with these digests.
"""

import hashlib
import json
import os
import subprocess
import sys

import workloads

from run import ROOT, child_env, digest_key


def main():
    calls = [("diagonal", n, None) for n in workloads.DIAGONAL_NS]
    calls += [("quadratic_ext", n, d) for n in workloads.QUADEXT_NS
              for d in workloads.DISCRIMINANTS]
    digests = {}
    for family, n, d in calls:
        report = subprocess.run([sys.executable, "-m", "sympair"] + workloads.audit_argv(family, n, d),
                                cwd=str(ROOT), env=child_env(), capture_output=True, check=True).stdout
        digests[digest_key(family, n, d)] = hashlib.sha256(report).hexdigest()
    json.dump(digests, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
