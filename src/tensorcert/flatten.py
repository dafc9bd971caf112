"""Catalecticant and split flattenings of multihomogeneous tensors.

A split assigns to every group a pair ``a_i + b_i = d_i``.  The flattening of
a tensor T at a split is the matrix whose row for a differentiation monomial
m of multidegree a holds the coefficients of the iterated partial derivative
of T by m, written in the multidegree-b monomial basis.  For a single group
this is the s-th catalecticant matrix of the form.  Entries are built by
coefficient lookup into one set of integer cells for every field (see
``flattening_numerators``); no derivative is ever expanded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod
from operator import mul

from .fields import numerators
from .linalg import DenseMatrix, rref
from .poly import TensorSpace, check_degrees, dimension_of_multidegree, monomial_basis


class SplitError(ValueError):
    """No admissible flattening split exists for the requested rank."""


@dataclass(frozen=True)
class Split:
    a: tuple
    b: tuple
    dim_a: int
    dim_b: int

    @classmethod
    def of(cls, space: TensorSpace, a) -> "Split":
        a = tuple(int(x) for x in a)
        if len(a) != space.p:
            raise ValueError(f"split needs {space.p} entries")
        if any(not (0 <= ai <= di) for ai, di in zip(a, space.degrees)):
            raise ValueError(f"split {a} out of range for degrees {space.degrees}")
        b = tuple(d - ai for ai, d in zip(a, space.degrees))
        return cls(a, b,
                   dimension_of_multidegree(space.sizes, a),
                   dimension_of_multidegree(space.sizes, b))

    @property
    def s(self) -> int:
        """Symmetric shorthand; only meaningful for a single group."""
        if len(self.a) != 1:
            raise ValueError("s is defined for single-group splits only")
        return self.a[0]


def default_split(space: TensorSpace, h: int) -> Split:
    """Pick a split suited to target rank h.

    For a single group, the smallest s with binom(n+s, n) >= h, so that
    binom(n+s-1, n) < h as well; for several groups, the balanced split
    a_i = ceil(d_i/2).  Raises SplitError when that split has dim V_A < h.
    """
    if h < 1:
        raise ValueError("h must be >= 1")
    if space.p == 1:
        n = space.sizes[0] - 1
        d = space.degrees[0]
        for s in range(d + 1):
            if comb(n + s, n) >= h:
                return Split.of(space, (s,))
        raise SplitError(
            f"no admissible split: dim V_A is at most {comb(n + d, n)} < {h}")
    split = Split.of(space, tuple((d + 1) // 2 for d in space.degrees))
    if split.dim_a < h:
        raise SplitError(f"balanced split has dim V_A = {split.dim_a} < {h}")
    return split


@dataclass(frozen=True)
class Flattening:
    tensor: object
    split: Split
    matrix: DenseMatrix
    rank: int
    span: DenseMatrix       # nonzero rows of the reduced row echelon form


def flattening_matrix(T, split: Split) -> DenseMatrix:
    """The flattening matrix of T at the given split, with no echelon pass.

    The entry at row m (multidegree a) and column m' (multidegree b) is read
    straight off the coefficient T[m + m'] as

        T[m + m'] * prod_v (m + m')_v! / m'_v!,

    one falling factorial per variable: the coefficient of x^m' in the
    iterated partial derivative of T by m.  Every field reads it from the
    integer cells N and the denominator D of ``flattening_numerators``: the
    entry is N / D over QQ, and N mod p over F_p, where D = 1.
    """
    space = T.space
    check_degrees(T)
    if tuple(ai + bi for ai, bi in zip(split.a, split.b)) != space.degrees:
        raise ValueError("split does not match the space multidegree")
    f = T.field
    p = f.modulus
    if p is not None and p <= max(space.degrees):
        raise ValueError(
            f"prime modulus {p} <= max degree {max(space.degrees)}: derivative "
            "coefficients may vanish; choose a larger prime")
    rows, den = flattening_numerators(T, split)
    if p is None:
        return DenseMatrix(f, [[Fraction(x, den) if x else f.zero for x in row]
                               for row in rows])
    return DenseMatrix(f, [[x % p for x in row] for row in rows])


def flattening_numerators(T, split: Split):
    """Integer cells N and the common denominator D of T, with
    ``flattening_matrix(T, split)`` equal to N / D over QQ and to N mod p
    over F_p, whose residues are their own numerators (D = 1): with m! the
    product of the factorials of m's exponents, N at (m, m') is the
    numerator of T[m + m'] times (m + m')! / m'!, the falling factorials
    above.  A monomial is keyed by one int, its exponents the digits in
    radix max degree + 1, so m + m' is one addition: T has the space's
    multidegree, so no exponent of m + m' passes its group's degree and no
    digit carries."""
    space = T.space
    radix = max(space.degrees) + 1
    weights = [radix ** v for v in range(space.nvars)]

    def key(mono):
        return sum(map(mul, mono, weights))

    nums, den = numerators(list(T.terms.values()))
    scaled = {key(m): n * prod(map(factorial, m)) for m, n in zip(T.terms, nums)}
    cols = [(key(mc), prod(map(factorial, mc))) for mc in monomial_basis(space, split.b)]
    return [[scaled.get(k + kc, 0) // below for kc, below in cols]
            for k in map(key, monomial_basis(space, split.a))], den


def flatten(T, split: Split) -> Flattening:
    """The flattening of T at the given split, with one echelon pass.

    The single ``rref`` of ``flattening_matrix(T, split)`` gives both the
    rank and the row basis kept for ``image_span``.
    """
    matrix = flattening_matrix(T, split)
    reduced, rank, _ = rref(matrix)
    span = DenseMatrix(matrix.field, reduced.rows[:rank], matrix.ncols)
    return Flattening(T, split, matrix, rank, span)


def image_span(fl: Flattening) -> DenseMatrix:
    """Canonical basis of the row space: the span of the partial derivatives.

    These are the nonzero rows of the reduced row echelon form, kept from the
    elimination ``flatten`` already ran.
    """
    return fl.span
