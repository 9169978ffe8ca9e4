"""Pair-spec ingestion and canonical JSON report documents.

Input and output are JSON with exact rationals carried as strings, so a
report round-trips losslessly.  Serialization is canonical: sorted keys,
two-space indent, a trailing newline, and no floats except where a value
is explicitly a decimal rendering.  The same spec therefore produces
byte-identical reports on every run.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from . import __version__
from .criteria import OrbitAudit, audit_orbits
from .errors import InputError, ShapeError
from .inference import Closure, audit_to_facts, close
from .liealg import LieAlgebra
from .linalg import Matrix, Vector
from .pairs import (
    FAMILY_CUSTOM,
    FAMILY_DIAGONAL,
    FAMILY_QUADRATIC_EXT,
    SymmetricPair,
    make_diagonal_pair,
    make_quadratic_ext_pair,
)
from .scalars import rat

SCHEMA_VERSION = "1"
DEFAULT_MAX_ORBIT_N = 6
_EXPONENT = re.compile(r"[eE]\s*[-+]?([\d_]+)")
# Most decimal digits in the numerator or the denominator of any rational
# the command line reads.  Computed values can grow past it; fmt refuses
# those beyond Python's printing limit (4,300 digits).
MAX_RATIONAL_DIGITS = 1000
_DIGITS_LIMIT = 10 ** MAX_RATIONAL_DIGITS


def parse_rational(text) -> Fraction:
    """An exact rational from an int, a string like '2/3', or a Fraction.

    JSON booleans and floats are refused: true is not the number 1, and a
    float such as 0.1 is only a binary approximation of a rational.  So is
    a string whose decimal exponent has more than four digits, and any
    value beyond MAX_RATIONAL_DIGITS.
    """
    if isinstance(text, (bool, float)):
        raise InputError("bad rational %r: use an integer or a string like '2/3'" % (text,))
    exponent = _EXPONENT.search(text) if isinstance(text, str) else None
    if exponent and len(exponent.group(1).replace("_", "").lstrip("0")) > 4:
        # Fraction would expand 1e999999999 into a billion-digit integer
        raise InputError("bad rational %r: exponent beyond 9999" % (text,))
    try:
        x = rat(text)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError("bad rational %r" % (text,)) from exc
    return check_rational_size(x, "bad rational")


def check_rational_size(x: Fraction, what: str) -> Fraction:
    """x itself, or InputError when its numerator or denominator has more
    than MAX_RATIONAL_DIGITS digits."""
    if abs(x.numerator) >= _DIGITS_LIMIT or x.denominator >= _DIGITS_LIMIT:
        raise InputError("%s: more than %d digits in the numerator or denominator"
                         % (what, MAX_RATIONAL_DIGITS))
    return x


def fmt(x: Fraction) -> str:
    """x as 'p/q' or 'p'.  A computed value whose numerator or denominator
    has more digits than Python prints (4,300 by default) is refused with
    InputError: it can only come from very large input entries."""
    try:
        return str(x)
    except ValueError:
        digits = max(_decimal_digits(x.numerator), _decimal_digits(x.denominator))
        raise InputError("a computed value has %d digits, more than the %d Python prints"
                         % (digits, sys.get_int_max_str_digits())) from None


def _decimal_digits(n: int) -> int:
    """The number of decimal digits of |n|, without printing it."""
    n = abs(n)
    k = int(n.bit_length() * 0.30102999566398120)   # log10(2): |n| has k or k + 1 digits
    return k + 1 if n >= 10 ** k else k


def fmt_vector(v: Sequence[Fraction]) -> List[str]:
    return [fmt(c) for c in v]


def _is_int(x) -> bool:
    """A JSON integer: bool is an int subclass in Python but not one in JSON."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_vector(items, dim: int) -> Vector:
    vec = [parse_rational(t) for t in items]
    if len(vec) != dim:
        raise InputError("element has %d coordinates, expected %d" % (len(vec), dim))
    return vec


# ---------------------------------------------------------------------------
# Pair specification documents
# ---------------------------------------------------------------------------

@dataclass
class PairSpec:
    family: str
    n: Optional[int] = None
    disc: Optional[int] = None
    custom: Optional[dict] = None
    max_orbit_n: int = DEFAULT_MAX_ORBIT_N


def parse_pair_spec(doc: dict) -> PairSpec:
    if not isinstance(doc, dict):
        raise InputError("pair spec must be a JSON object")
    family = doc.get("family")
    if family not in (FAMILY_DIAGONAL, FAMILY_QUADRATIC_EXT, FAMILY_CUSTOM):
        raise InputError("family must be diagonal, quadratic_ext, or custom")
    max_orbit_n = doc.get("max_orbit_n", DEFAULT_MAX_ORBIT_N)
    if not _is_int(max_orbit_n) or max_orbit_n < 1:
        raise InputError("max_orbit_n must be a positive integer")
    spec = PairSpec(family=family, max_orbit_n=max_orbit_n)
    if family in (FAMILY_DIAGONAL, FAMILY_QUADRATIC_EXT):
        n = doc.get("n")
        if not _is_int(n) or n < 1:
            raise InputError("n must be a positive integer")
        spec.n = n
        if family == FAMILY_QUADRATIC_EXT:
            disc = doc.get("d", doc.get("D"))
            if not _is_int(disc):
                raise InputError("quadratic_ext needs an integer discriminant d")
            spec.disc = disc
        elif "d" in doc or "D" in doc:
            raise InputError("d is only meaningful for quadratic_ext")
    else:
        custom = doc.get("custom")
        if not isinstance(custom, dict):
            raise InputError("custom family needs a custom object")
        spec.custom = custom
    return spec


def build_pair(spec: PairSpec) -> SymmetricPair:
    if spec.family == FAMILY_DIAGONAL:
        return make_diagonal_pair(spec.n)
    if spec.family == FAMILY_QUADRATIC_EXT:
        return make_quadratic_ext_pair(spec.n, spec.disc)
    return _build_custom_pair(spec.custom)


def _build_custom_pair(custom: dict) -> SymmetricPair:
    dim = custom.get("dim")
    if not _is_int(dim) or dim < 1:
        raise InputError("custom.dim must be a positive integer")
    table = [[[parse_rational(c) for c in _expect_list(cell, dim, "structure_constants cell")]
              for cell in _expect_list(row, dim, "structure_constants row")]
             for row in _expect_list(custom.get("structure_constants"), dim,
                                     "structure_constants")]
    labels = custom.get("basis_labels") or ["e%d" % (i + 1) for i in range(dim)]
    if (not isinstance(labels, list) or len(labels) != dim
            or not all(isinstance(label, str) for label in labels)):
        raise InputError("basis_labels must be a list of dim strings")
    realization = None
    if custom.get("realization") is not None:
        mats = _expect_list(custom["realization"], dim, "realization")
        if not isinstance(mats[0], list) or not mats[0]:
            raise InputError("realization matrices must be non-empty lists of rows")
        realization = [_parse_square(m, len(mats[0]), "realization matrix") for m in mats]
    if custom.get("theta") is None:
        raise InputError("custom family needs a theta matrix")
    theta = _parse_square(custom["theta"], dim, "theta")
    try:
        algebra = LieAlgebra(labels, table, realization=realization, validate="full")
    except ShapeError as exc:
        raise InputError("invalid custom algebra: %s" % exc) from exc
    form = algebra.trace_form() if realization is not None else algebra.killing_form()
    try:
        return SymmetricPair(algebra, theta, form, family=FAMILY_CUSTOM)
    except ShapeError as exc:
        raise InputError("invalid custom pair: %s" % exc) from exc


def _expect_list(x, length: int, what: str):
    if not isinstance(x, list) or len(x) != length:
        raise InputError("%s must be a list of length %d" % (what, length))
    return x


def _parse_square(doc, size: int, what: str) -> Matrix:
    return Matrix([[parse_rational(e) for e in _expect_list(row, size, what + " row")]
                   for row in _expect_list(doc, size, what)])


# ---------------------------------------------------------------------------
# Report documents
# ---------------------------------------------------------------------------

def pair_summary(pair: SymmetricPair) -> dict:
    return {
        "family": pair.family,
        "n": pair.inner_n,
        "d": fmt(pair.disc) if pair.disc is not None else None,
        "dim_g": pair.dim_g,
        "dim_h": pair.dim_h,
        "dim_gsigma": pair.dim_gsigma,
    }


def orbit_row(a: OrbitAudit) -> dict:
    return {
        "partition": list(a.partition) if a.partition is not None else None,
        "representative": fmt_vector(a.representative),
        "trace_on_hx": fmt(a.trace_on_hx),
        "dim_gsigma": a.dim_gsigma,
        "archimedean_pass": a.archimedean_pass,
        "nonarch_pass": a.nonarch_pass,
        "eigen_lemma_pass": a.eigen_lemma_pass,
        "quotient_eigenvalues": [[k, m] for k, m in a.quotient_eigenvalues],
        "weights_from_spectrum": list(a.weights_from_spectrum)
            if a.weights_from_spectrum is not None else None,
        "weights_from_partition": list(a.weights_from_partition)
            if a.weights_from_partition is not None else None,
        "weights_agree": a.weights_agree(),
        "triple": triple_doc(a.triple),
    }


def triple_doc(t) -> dict:
    return {
        "e": fmt_vector(t.e),
        "h": fmt_vector(t.h),
        "f": fmt_vector(t.f),
        "theta_adapted": t.theta_adapted,
        "degenerate": t.degenerate,
    }


def orbit_passes(a: OrbitAudit) -> bool:
    ok = a.archimedean_pass and a.nonarch_pass and a.eigen_lemma_pass
    if a.weights_from_spectrum is not None:
        ok = ok and a.weights_agree()
    return ok


def derivation_chain(closure: Closure, atom: str) -> List[dict]:
    """The steps that derive atom in the closure, as rule, premises and conclusion."""
    return [{"rule": s.rule, "premises": list(s.premises), "conclusion": s.conclusion}
            for s in closure.chain(atom)]


def audit_report(pair: SymmetricPair, audits: Optional[List[OrbitAudit]] = None) -> dict:
    """Full audit document: orbit table, asserted atoms, derived closure."""
    if audits is None:
        audits = audit_orbits(pair)
    facts = audit_to_facts(pair, audits, scope="self")
    if pair.family in (FAMILY_DIAGONAL, FAMILY_QUADRATIC_EXT):
        for assertion in audit_to_facts(pair, audits, scope="all_descendants").assertions:
            facts.assertions.append(assertion)
    closure = close(sorted(facts.atoms()))
    return {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "sympair", "version": __version__},
        "pair": pair_summary(pair),
        "orbits": [orbit_row(a) for a in audits],
        "facts": {
            "asserted": [
                {"atom": a.atom, "source": a.source, "note": a.note}
                for a in facts.assertions
            ],
            "derived": [{"atom": atom, "chain": derivation_chain(closure, atom)}
                        for atom in sorted(closure.derived())],
        },
        "all_pass": all(orbit_passes(a) for a in audits),
    }


def render_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
