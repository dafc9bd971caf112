"""Per-layer spans and counters, recorded from outside the program.

``install`` replaces the public function at each layer boundary with a
wrapper that opens a span around the call.  A layer's self time is the time
inside its spans minus the time of wrapped calls nested in them.  Counter
hooks run after a span closes and their cost is hidden from the enclosing
span too, so it is charged to no layer; it shows only in the difference
between the traced and the plain run.

Wrappers are installed where each name is looked up: ``certify.py`` imports
``flatten``, ``image_span``, ``pullback_linear_section`` and
``classify_linear_section`` by name, ``rref`` is a global of both
``flatten.py`` and ``linalg.py``, and ``classify_linear_section`` finds
``buchberger`` and ``binary_fast_path`` among the globals of ``ideals.py``.
Modules come from ``sys.modules``: the package namespace shadows
``tensorcert.certify`` and ``tensorcert.flatten`` with functions.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from fractions import Fraction

#: Layers in pipeline order, as reported.
LAYERS = ("cli", "certify", "poly.derivative_by", "poly.expand", "flatten",
          "linalg.rref", "ideals.pullback", "ideals.buchberger",
          "ideals.classify", "ideals.binary_gcd")


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return abs(x).bit_length()


class Tracer:
    """Self time per layer, call counts and counters, kept in memory."""

    def __init__(self):
        self.self_s = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self._children = []         # time of wrapped children, one per open span
        self._seen_matrices = set()
        self._seen_decompositions = {}

    def begin_certificate(self):
        """Forget the matrices and decompositions of the previous certificate."""
        self._seen_matrices = set()
        self._seen_decompositions = {}

    def snapshot(self):
        return dict(self.self_s), dict(self.counts)

    def wrap(self, layer, fn, hook=None):
        clock = time.perf_counter
        children = self._children
        self_s = self.self_s
        counts = self.counts

        def span(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - children.pop()
                counts[layer + ".calls"] += 1
                if children:
                    children[-1] += elapsed
            if hook is not None:
                mark = clock()
                hook(args, result)
                if children:
                    children[-1] += clock() - mark
            return result

        return span

    # -- counter hooks ------------------------------------------------------

    def _on_expand(self, args, result):
        dec = args[0]
        if id(dec) in self._seen_decompositions:
            self.counts["poly.expand.repeats"] += 1
        self._seen_decompositions[id(dec)] = dec    # keeps the id from reuse

    def _on_rref(self, args, result):
        matrix = args[0]
        if matrix in self._seen_matrices:
            self.counts["linalg.rref.repeats"] += 1
        self._seen_matrices.add(matrix)

    def _on_flatten(self, args, result):
        matrix = result.matrix
        self.counts["flatten.cells"] += matrix.nrows * matrix.ncols
        bits = max((_bits(x) for row in matrix.rows for x in row), default=0)
        self.maxima["flatten.max_bits"] = max(self.maxima["flatten.max_bits"], bits)

    def _on_pullback(self, args, result):
        self.counts["ideals.pullback.generators"] += len(result.generators)

    def _on_buchberger(self, args, result):
        self.counts["ideals.buchberger.basis_size"] += len(result)
        bits = max((_bits(c) for g in result for c in g.terms.values()), default=0)
        key = "ideals.buchberger.max_bits"
        self.maxima[key] = max(self.maxima[key], bits)

    def _on_classify(self, args, result):
        if result.status == "Inconclusive":
            self.counts["ideals.classify.inconclusive"] += 1


def install(tracer: Tracer):
    """Wrap every layer boundary of the imported ``tensorcert`` in place.

    Returns the wrapped ``cli.run``, which the caller uses as the outermost
    span of each certificate.
    """
    mod = {name: sys.modules[f"tensorcert.{name}"]
           for name in ("cli", "certify", "poly", "flatten", "linalg", "ideals")}
    cli, cert, poly = mod["cli"], mod["certify"], mod["poly"]
    flat, linalg, ideals = mod["flatten"], mod["linalg"], mod["ideals"]
    wrap = tracer.wrap

    cli.certify = wrap("certify", cli.certify)
    poly.MPoly.derivative_by = wrap("poly.derivative_by", poly.MPoly.derivative_by)
    cert.Decomposition.expand = wrap("poly.expand", cert.Decomposition.expand,
                                     tracer._on_expand)
    cert.flatten = wrap("flatten", cert.flatten, tracer._on_flatten)
    cert.image_span = wrap("flatten", cert.image_span)
    rref = wrap("linalg.rref", linalg.rref, tracer._on_rref)
    flat.rref = linalg.rref = rref
    cert.pullback_linear_section = wrap("ideals.pullback",
                                        cert.pullback_linear_section,
                                        tracer._on_pullback)
    cert.classify_linear_section = wrap("ideals.classify",
                                        cert.classify_linear_section,
                                        tracer._on_classify)
    ideals.buchberger = wrap("ideals.buchberger", ideals.buchberger,
                             tracer._on_buchberger)
    ideals.binary_fast_path = wrap("ideals.binary_gcd", ideals.binary_fast_path)
    return wrap("cli", cli.run)
