"""Command-line front end.

Subcommands:

  audit    build a pair, sweep its nilpotent orbits, audit each, chain
           the results through the implication rules, emit a JSON report
  triple   adapted sl2 triple over a supplied nilpotent element
  descend  descendant pair at a supplied semisimple element
  weil     local constants of a diagonal quadratic form at one place
  infer    closure of a fact file over the built-in implication rules

Exit codes: 0 success, 1 a criterion failed (some pass flag is false),
2 bad input, 3 internal invariant violation or any other unexpected error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .criteria import audit_orbits
from .errors import InputError, InvariantViolation, PreconditionError, ShapeError
from .inference import close
from .pairs import descendant, descendant_dimension_identity
from .report import (
    DEFAULT_MAX_ORBIT_N,
    SCHEMA_VERSION,
    PairSpec,
    audit_report,
    build_pair,
    check_rational_size,
    derivation_chain,
    fmt,
    pair_summary,
    parse_pair_spec,
    parse_rational,
    parse_vector,
    render_json,
    triple_doc,
)
from .sl2 import theta_adapt
from .weil import DiagonalQuadraticForm, Place, delta_factor, homogeneity_factor, weil_gamma


def main(argv: Optional[List[str]] = None) -> int:
    argv = _attach_list_values(sys.argv[1:] if argv is None else argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        return args.handler(args)
    except (InputError, PreconditionError, ShapeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print("INVARIANT VIOLATED: %s" % exc, file=sys.stderr)
    except Exception as exc:
        print("INTERNAL ERROR: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
    # Only the two branches above fall through to the bug banner.
    print("a structural guarantee of the computation failed; "
          "this is a bug or corrupted input, not a criterion failure", file=sys.stderr)
    return 3


# Options whose value is a comma-separated list of rationals.
_LIST_OPTIONS = ("--element", "--form")


def _attach_list_values(argv: List[str]) -> List[str]:
    """Rewrite `--element -1,0,...` as `--element=-1,0,...` (likewise `--form`).

    argparse reads a separate value that starts with '-' as an option
    unless it is a single negative number, so a list with a negative first
    entry would otherwise be refused.
    """
    out: List[str] = []
    for arg in argv:
        if out and out[-1] in _LIST_OPTIONS and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = "%s=%s" % (out[-1], arg)
        else:
            out.append(arg)
    return out


def _build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The sympair parser.  When argv starts with a subcommand, only that one
    is registered, with its arguments, and the choices' metavar keeps the
    usage line; otherwise every subcommand is, with its help text only."""
    parser = argparse.ArgumentParser(
        prog="sympair",
        description="exact audits and local constants for symmetric pairs")
    commands = (
        ("audit", "sweep and audit all nilpotent orbits", _audit_args, _cmd_audit),
        ("triple", "adapted sl2 triple over a nilpotent element", _element_args, _cmd_triple),
        ("descend", "descendant pair at a semisimple element", _element_args, _cmd_descend),
        ("weil", "local constants of a diagonal quadratic form", _weil_args, _cmd_weil),
        ("infer", "close a fact set under the implication rules", _infer_args, _cmd_infer))
    named = [c for c in commands if argv and c[0] == argv[0]]
    # a lone subcommand still shows all five in the usage line
    metavar = "{%s}" % ",".join(c[0] for c in commands) if named else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, add_args, handler in named or commands:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if named:
            add_args(p)
    return parser


def _audit_args(p: argparse.ArgumentParser):
    _add_pair_args(p)
    p.add_argument("--out", help="write the JSON report here (default stdout)")


def _element_args(p: argparse.ArgumentParser):
    _add_pair_args(p)
    p.add_argument("--element", required=True,
                   help="comma-separated rational coordinates in the algebra basis")


def _weil_args(p: argparse.ArgumentParser):
    p.add_argument("--place", required=True, help="real | complex | p:<prime>")
    p.add_argument("--form", required=True,
                   help="comma-separated nonzero rational coefficients")
    p.add_argument("--t", default="1", help="scaling parameter (default 1)")


def _infer_args(p: argparse.ArgumentParser):
    p.add_argument("--facts", required=True,
                   help="JSON file with {\"pair_id\": \"...\", \"atoms\": [...]}; "
                        "pair_id is an optional string, printed as null when absent")
    p.add_argument("--out", help="write the closure here (default stdout)")


def _add_pair_args(p: argparse.ArgumentParser):
    p.add_argument("--family", choices=["diagonal", "quadratic_ext", "custom"])
    p.add_argument("--n", type=int, help="inner size for the built-in families")
    p.add_argument("--d", type=int, help="discriminant for quadratic_ext")
    p.add_argument("--spec", help="JSON pair-spec file (required for custom)")
    p.add_argument("--max-orbit-n", type=int, default=None,
                   help="largest inner size n of a built-in pair, for every "
                        "subcommand that builds one (default %d)"
                        % DEFAULT_MAX_ORBIT_N)


def _spec_from_args(args) -> PairSpec:
    if args.spec:
        doc = _load_json(args.spec)
        spec = parse_pair_spec(doc)
    else:
        if not args.family:
            raise InputError("need --family or --spec")
        doc = {"family": args.family}
        if args.n is not None:
            doc["n"] = args.n
        if args.d is not None:
            doc["d"] = args.d
        spec = parse_pair_spec(doc)
    if args.max_orbit_n is not None:
        if args.max_orbit_n < 1:
            raise InputError("--max-orbit-n must be positive")
        spec.max_orbit_n = args.max_orbit_n
    if spec.family != "custom" and spec.n > spec.max_orbit_n:
        raise InputError("n=%d exceeds the size cap %d on built-in pairs (raise --max-orbit-n)"
                         % (spec.n, spec.max_orbit_n))
    return spec


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise InputError("bad JSON in %s: line %d column %d"
                         % (path, exc.lineno, exc.colno)) from exc
    except ValueError as exc:
        # bytes that are not UTF-8, or an integer literal longer than int()
        # reads from a string
        raise InputError("bad JSON in %s: %s" % (path, exc)) from exc


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_audit(args) -> int:
    pair = build_pair(_spec_from_args(args))
    audits = audit_orbits(pair)
    doc = audit_report(pair, audits)
    _emit(render_json(doc), args.out)
    return 0 if doc["all_pass"] else 1


def _cmd_triple(args) -> int:
    pair = build_pair(_spec_from_args(args))
    x = parse_vector(args.element.split(","), pair.dim_g)
    t = theta_adapt(pair, x)
    doc = {
        "schema": SCHEMA_VERSION,
        "pair": pair_summary(pair),
        "element": [fmt(c) for c in x],
        "triple": triple_doc(t),
    }
    _emit(render_json(doc), None)
    return 0


def _cmd_descend(args) -> int:
    pair = build_pair(_spec_from_args(args))
    x = parse_vector(args.element.split(","), pair.dim_g)
    sub = descendant(pair, x)
    lhs, rhs = descendant_dimension_identity(pair, x, sub)
    doc = {
        "schema": SCHEMA_VERSION,
        "pair": pair_summary(pair),
        "element": [fmt(c) for c in x],
        "descendant": pair_summary(sub),
        "dimension_identity": {"dim_sub_gsigma": lhs, "predicted": rhs, "holds": lhs == rhs},
    }
    _emit(render_json(doc), None)
    return 0 if lhs == rhs else 1


def _cmd_weil(args) -> int:
    place = Place.parse(args.place)
    coeffs = tuple(parse_rational(c) for c in args.form.split(","))
    form = DiagonalQuadraticForm(coeffs)
    t = parse_rational(args.t)
    if t == 0:
        raise InputError("--t must be nonzero")
    gamma = weil_gamma(form, place)
    delta = delta_factor(form, t, place)
    try:
        root, mod_sq, mod_dec = homogeneity_factor(form, t, place)
    except OverflowError as exc:
        # the decimal rendering of |t|^(dim/2) is a float
        raise InputError("|t|^%d is too large to render as a decimal" % form.dim) from exc
    check_rational_size(mod_sq, "the squared modulus |t|^%d" % form.dim)
    doc = {
        "schema": SCHEMA_VERSION,
        "place": str(place),
        "form": [fmt(c) for c in coeffs],
        "t": fmt(t),
        "gamma": {"exponent": gamma.exponent, "value": str(gamma)},
        "delta": {"exponent": delta.exponent, "value": str(delta)},
        "homogeneity_factor": {
            "root_exponent": root.exponent,
            "root": str(root),
            "modulus_squared": fmt(mod_sq),
            "modulus_decimal": mod_dec,
        },
    }
    _emit(render_json(doc), None)
    return 0


def _cmd_infer(args) -> int:
    doc = _load_json(args.facts)
    if not isinstance(doc, dict):
        raise InputError("facts file must be a JSON object")
    pair_id = doc.get("pair_id")
    if pair_id is not None and not isinstance(pair_id, str):
        raise InputError("pair_id must be a string")
    atoms = doc.get("atoms", [])
    if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
        raise InputError("atoms must be a list of strings")
    closure = close(sorted(set(atoms)))
    out_doc = {
        "schema": SCHEMA_VERSION,
        "pair_id": pair_id,
        "input_atoms": sorted(set(atoms)),
        "closure": sorted(closure.atoms),
        "derivations": {atom: derivation_chain(closure, atom)
                        for atom in sorted(closure.derived())},
    }
    _emit(render_json(out_doc), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
