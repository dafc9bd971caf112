"""Exact dense linear algebra: reduced row echelon form, rank, kernel."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class DenseMatrix:
    """Immutable dense matrix whose entries all live in one field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        rows = tuple(tuple(row) for row in rows)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        elif ncols is None:
            ncols = 0
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("DenseMatrix is immutable")

    @classmethod
    def from_rows(cls, field, rows, ncols=None):
        return cls(field, [[field(x) for x in row] for row in rows], ncols)

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[field.one if i == j else field.zero for j in range(n)]
                           for i in range(n)])

    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls(field, [[field.zero] * ncols for _ in range(nrows)], ncols)

    def entry(self, i, j):
        return self.rows[i][j]

    def transpose(self):
        return DenseMatrix(self.field, list(zip(*self.rows)), self.nrows)

    def add(self, other):
        f = self.field
        if other.field != f or (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape or field mismatch")
        return DenseMatrix(f, [[f.add(a, b) for a, b in zip(r, s)]
                               for r, s in zip(self.rows, other.rows)], self.ncols)

    def scale(self, c):
        f = self.field
        c = f(c)
        return DenseMatrix(f, [[f.mul(c, x) for x in r] for r in self.rows], self.ncols)

    def mul_vector(self, v):
        f = self.field
        if len(v) != self.ncols:
            raise ValueError("length mismatch")
        out = []
        for row in self.rows:
            acc = f.zero
            for a, x in zip(row, v):
                acc = f.add(acc, f.mul(a, x))
            out.append(acc)
        return out

    def __eq__(self, other):
        return (isinstance(other, DenseMatrix) and self.field == other.field
                and self.rows == other.rows and self.ncols == other.ncols)

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        return f"DenseMatrix({self.nrows}x{self.ncols} over {self.field})"


def rref(matrix: DenseMatrix):
    """Gauss-Jordan elimination.

    Returns ``(reduced, rank, pivots)`` where ``reduced`` is the unique
    reduced row echelon form and ``pivots`` is the strictly increasing tuple
    of pivot column indices.

    Over QQ the elimination is fraction-free.  Each row is scaled to a
    primitive integer vector (denominators cleared, content divided out).
    A pivot entry is cleared from another row by the integer update
    ``row_i <- piv * row_i - q * row_r`` (with ``piv`` and ``q`` first
    divided by their gcd), and the new row's content is divided out at
    once; pivots are cleared downwards first, then upwards from the last
    pivot.  Each pivot row is divided by its pivot only once, at the end.
    Every step scales a row by a nonzero rational or adds a multiple of
    another row to it, so the row space never changes, and the final rows
    are in reduced echelon form.  That form is unique for a row space, so
    the result equals plain Fraction Gauss-Jordan entry for entry; keeping
    rows primitive stops the factorial content of catalecticant rows from
    growing with every update.

    Over F_p the entries are plain residues.  Each pivot row is scaled once
    by the inverse of its pivot, and every other row is updated from the
    pivot column onward only: the pivot row is zero to the left of it.
    """
    if matrix.field.modulus is None:
        return _rref_rational(matrix)
    return _rref_mod_p(matrix)


def _rref_mod_p(matrix: DenseMatrix):
    p = matrix.field.modulus
    nrows, ncols = matrix.nrows, matrix.ncols
    m = [[x % p for x in row] for row in matrix.rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = None
        for i in range(r, nrows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        tail = [x * inv % p for x in m[r][c:]]
        m[r][c:] = tail
        for i in range(nrows):
            q = m[i][c]
            if q and i != r:
                m[i][c:] = [(x - q * y) % p for x, y in zip(m[i][c:], tail)]
        pivots.append(c)
        r += 1
    return DenseMatrix(matrix.field, m, ncols), r, tuple(pivots)


def _primitive(row):
    """The row divided by the gcd of its entries (unchanged when zero)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _eliminate(row, prow, c):
    """Primitive integer row: ``row`` with its column-c entry cleared by ``prow``."""
    piv, q = prow[c], row[c]
    g = gcd(piv, q)
    a, q = piv // g, q // g
    return _primitive([a * x - q * y for x, y in zip(row, prow)])


def _rref_rational(matrix: DenseMatrix):
    f = matrix.field
    nrows, ncols = matrix.nrows, matrix.ncols
    m = []
    for row in matrix.rows:
        den = lcm(*(x.denominator for x in row))
        m.append(_primitive([x.numerator * (den // x.denominator) for x in row]))
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = None
        for i in range(r, nrows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        for i in range(r + 1, nrows):
            if m[i][c]:
                m[i] = _eliminate(m[i], m[r], c)
        pivots.append(c)
        r += 1
    for k in range(r - 1, 0, -1):
        c = pivots[k]
        for i in range(k):
            if m[i][c]:
                m[i] = _eliminate(m[i], m[k], c)
    zero = f.zero
    reduced = [[Fraction(x, m[i][c]) if x else zero for x in m[i]]
               for i, c in enumerate(pivots)]
    reduced.extend([zero] * ncols for _ in range(nrows - r))
    return DenseMatrix(f, reduced, ncols), r, tuple(pivots)


def kernel_basis(matrix: DenseMatrix) -> DenseMatrix:
    """Basis of the right null space, one vector per row.

    Row count equals ``ncols - rank``; every row v satisfies M v^T = 0.
    """
    f = matrix.field
    reduced, rank, pivots = rref(matrix)
    pivot_set = set(pivots)
    free = [c for c in range(matrix.ncols) if c not in pivot_set]
    rows = []
    for j in free:
        v = [f.zero] * matrix.ncols
        v[j] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(reduced.rows[r][j])
        rows.append(v)
    return DenseMatrix(f, rows, matrix.ncols)


def row_space_basis(matrix: DenseMatrix) -> DenseMatrix:
    """The nonzero rows of the reduced row echelon form."""
    f = matrix.field
    reduced, rank, _ = rref(matrix)
    return DenseMatrix(f, reduced.rows[:rank], matrix.ncols)
