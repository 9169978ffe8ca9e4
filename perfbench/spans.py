"""Span recorder that wraps sympair's layers from outside the package.

``Tracer.install`` replaces each public function at every import site
inside the loaded ``sympair`` modules (and each listed method on its
class) with a wrapper that records a span: layer name, start, end and the
index of the enclosing span.  Spans are kept in flat arrays and reduced
to per-layer self times only when ``summary`` is called.  Exact work
counters are computed from the operands at the same boundaries.  The
counting runs inside its own ``trace.count`` span, so it lands in no
layer's self time; it is part of the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (layer, module, attribute) for functions, wrapped at every import site.
FUNCTIONS = (
    ("sl2.theta_adapt", "sympair.sl2", "theta_adapt"),
    ("sl2.jacobson_morozov", "sympair.sl2", "jacobson_morozov"),
    ("criteria.weights_oracle", "sympair.criteria", "_inner_weights_from_spectrum"),
    ("criteria.eigen_check", "sympair.criteria", "eigen_check"),
    ("criteria.restricted_trace", "sympair.criteria", "restricted_trace"),
    ("criteria.jordan_type", "sympair.criteria", "jordan_type"),
    ("linalg.integer_spectrum", "sympair.linalg", "integer_spectrum"),
    ("linalg.rref", "sympair.linalg", "rref"),
    ("linalg.minimal_polynomial", "sympair.linalg", "minimal_polynomial"),
    ("pairs.build", "sympair.report", "build_pair"),
    ("pairs.build", "sympair.pairs", "make_diagonal_pair"),
    ("pairs.build", "sympair.pairs", "make_quadratic_ext_pair"),
    ("pairs.descendant", "sympair.pairs", "descendant"),
    ("pairs.subpair_on", "sympair.pairs", "subpair_on"),
    ("pairs.dimension_identity", "sympair.pairs", "descendant_dimension_identity"),
    ("weil.gamma", "sympair.weil", "weil_gamma"),
    ("weil.gamma", "sympair.weil", "weil_gamma_scalar"),
    ("weil.gamma", "sympair.weil", "delta_factor"),
    ("weil.gamma", "sympair.weil", "homogeneity_factor"),
    ("weil.hilbert", "sympair.weil", "hilbert_symbol"),
    ("weil.witness", "sympair.weil", "non_multiplicative_witness"),
    ("weil.gauss_oracle", "sympair.weil", "gauss_sum_oracle"),
    ("inference.close", "sympair.inference", "close"),
    ("report.document", "sympair.report", "audit_report"),
    ("report.render", "sympair.report", "render_json"),
)

# (layer, module, class, attribute) for methods, wrapped on the class.
METHODS = (
    ("linalg.matmul", "sympair.linalg", "Matrix", "__matmul__"),
    ("linalg.matvec", "sympair.linalg", "Matrix", "matvec"),
    ("linalg.elementwise", "sympair.linalg", "Matrix", "__add__"),
    ("linalg.elementwise", "sympair.linalg", "Matrix", "__sub__"),
    ("linalg.elementwise", "sympair.linalg", "Matrix", "__neg__"),
    ("linalg.elementwise", "sympair.linalg", "Matrix", "scale"),
    ("linalg.elementwise", "sympair.linalg", "Matrix", "identity"),
    ("pairs.pair_init", "sympair.pairs", "SymmetricPair", "__init__"),
    ("pairs.centralizer_in", "sympair.pairs", "SymmetricPair", "centralizer_in"),
    ("liealg.bracket", "sympair.liealg", "LieAlgebra", "bracket"),
    ("liealg.ad", "sympair.liealg", "LieAlgebra", "ad"),
    ("liealg.realize", "sympair.liealg", "LieAlgebra", "realize"),
    ("weil.place", "sympair.weil", "Place", "__post_init__"),
)

COUNT_SPAN = "trace.count"


def _nnz(rows) -> int:
    return sum(1 for row in rows for e in row if e)


def _count_rref(tracer, mat, *_):
    cells = mat.nrows * mat.ncols
    tracer.add("linalg.rref.cells", cells)
    tracer.add("linalg.rref.nnz", _nnz(mat.rows))
    tracer.raise_max("linalg.rref.max_cells", cells)


def _count_matmul(tracer, a, b, *_):
    # The kernel multiplies each nonzero of a row of `a` by one entry of
    # every column of `b`.
    tracer.add("linalg.matmul.mults", _nnz(a.rows) * b.ncols)


def _probe_index(k: int) -> int:
    return 2 * k - 1 if k > 0 else -2 * k


def _count_spectrum(tracer, result, *_):
    # integer_spectrum probes k = 0, 1, -1, 2, -2, ... and stops at the
    # last eigenvalue it finds.
    tracer.add("linalg.integer_spectrum.probes", max(_probe_index(k) for k in result) + 1)


BEFORE = {"linalg.rref": _count_rref, "linalg.matmul": _count_matmul}
AFTER = {"linalg.integer_spectrum": _count_spectrum}


class Tracer:
    """In-memory spans plus exact counters for one process."""

    def __init__(self):
        self.layers = []
        self._layer_ids = {}
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters = {}
        self._stack = []
        self._patches = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        lid = self._layer_ids.get(name)
        if lid is None:
            lid = self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        i = len(self.layer)
        self.layer.append(lid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, amount: int):
        self.counters[key] = self.counters.get(key, 0) + amount

    def raise_max(self, key: str, value: int):
        self.counters[key] = max(self.counters.get(key, 0), value)

    def wrap(self, name: str, fn):
        before, after = BEFORE.get(name), AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                c = tracer.open(COUNT_SPAN)
                before(tracer, *args)
                tracer.close(c)
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                c = tracer.open(COUNT_SPAN)
                after(tracer, result, *args)
                tracer.close(c)
            return result
        return traced

    # -- installing ---------------------------------------------------------

    def install(self):
        """Wrap every listed layer; sympair and all its modules get imported."""
        importlib.import_module("sympair.cli")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "sympair" or name.startswith("sympair."))]
        for layer, modname, attr in FUNCTIONS:
            fn = getattr(sys.modules[modname], attr)
            wrapped = self.wrap(layer, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapped)
        for layer, modname, clsname, attr in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            orig = cls.__dict__[attr]
            if isinstance(orig, staticmethod):
                wrapped = staticmethod(self.wrap(layer, orig.__func__))
            else:
                wrapped = self.wrap(layer, orig)
            self._patches.append((cls, attr, orig))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- reduction ----------------------------------------------------------

    def summary(self, root: str) -> dict:
        """Per-layer self time and span count, and the coverage of `root` spans.

        A span's self time is its duration minus the durations of its direct
        children.  Coverage is the share of the time inside `root` spans that
        their direct children (the top-level stages) account for.
        """
        n = len(self.layer)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = list(dur)
        root_id = self._layer_ids.get(root, -1)
        root_s = covered_s = 0.0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= dur[i]
                if self.layer[p] == root_id:
                    covered_s += dur[i]
            if self.layer[i] == root_id:
                root_s += dur[i]
        self_s = {}
        calls = {}
        for i in range(n):
            name = self.layers[self.layer[i]]
            self_s[name] = self_s.get(name, 0.0) + own[i]
            calls[name] = calls.get(name, 0) + 1
        return {"self_s": self_s, "calls": calls, "counters": dict(self.counters),
                "root_s": root_s, "covered_s": covered_s, "spans": n}
