"""Exact dense linear algebra: reduced row echelon form, rank, kernel."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, isqrt

from .fields import DEFAULT_PRIME, PrimeField, is_prime, numerators, primitive


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


def _eliminate(row, prow, c):
    """Primitive integer row: ``row`` with its column-c entry cleared by ``prow``."""
    piv, q = prow[c], row[c]
    g = gcd(piv, q)
    a, q = piv // g, q // g
    return primitive([a * x - q * y for x, y in zip(row, prow)])


def _rref_rational(matrix: DenseMatrix):
    f = matrix.field
    nrows, ncols = matrix.nrows, matrix.ncols
    m = [primitive(numerators(row)[0]) for row in matrix.rows]
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


@lru_cache(maxsize=None)
def _lift_field(i: int) -> PrimeField:
    """The i-th lift prime field: DEFAULT_PRIME, then the primes below it."""
    if i == 0:
        return PrimeField(DEFAULT_PRIME)
    q = _lift_field(i - 1).modulus - 2
    while not is_prime(q):
        q -= 2
    return PrimeField(q)


def _rational(u: int, m: int, bound: int):
    """Wang's reconstruction: (a, b) with a = b*u mod m, |a|, b <= bound, or None."""
    r0, r1 = m, u
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _reconstruct(residues, m: int):
    """Common denominator L and numerators of a vector of residues mod m.

    Each entry is tried first as a small multiple of the denominator found
    so far; only when that fails does Wang's algorithm run on it.  Returns
    None when an entry has no numerator and denominator below sqrt(m/2).
    """
    bound = isqrt(m // 2)
    den, nums = 1, []
    for u in residues:
        w = u * den % m
        if w > m - w:
            w -= m
        if abs(w) > bound:
            frac = _rational(w % m, m, bound)
            if frac is None:
                return None
            w, b = frac
            den *= b
            if den > bound:
                return None
            nums = [x * b for x in nums]
        nums.append(w)
    return den, nums


def lifted_left_kernel(matrix: DenseMatrix):
    """Exact rank of a matrix over QQ and a basis of its left kernel, from
    residues mod primes, or None.

    Returns ``(rank, vectors)``: ``vectors`` holds ``nrows - rank`` primitive
    integer lists y with y . M = 0, one for each mod-p free row.  None means
    the primes did not settle the rank; ``rref`` over QQ must decide.

    Soundness, for M over QQ:

    * Clearing denominators row by row gives an integer matrix A with the
      same rank; y' . A = 0 exactly when (y'_i * den_i) . M = 0.
    * For each lift prime p, the left kernel mod p comes from ``rref`` of
      A^T mod p, normalised to the identity on the mod-p free coordinates
      (the non-pivot columns of A^T).  The first prime fixes the rank r and
      the pivots.  A prime of lower rank is skipped; a prime of higher rank,
      or of the same rank with other pivots, shows the first prime was
      unlucky, and the result is None.
    * The primes are combined by CRT, and Wang's rational reconstruction is
      tried only when the modulus has grown geometrically since the last
      try.  Candidates are cleared of denominators and then checked:
      y . A = 0 exactly over ZZ, on every column.
    * Once verified, the nrows - r vectors are independent (the identity on
      the free coordinates), so rank_QQ <= r.  Also rank_p <= rank_QQ for
      the first prime.  Together these give rank_QQ = r exactly.
    * When r = rank_QQ, every accepted prime reduces the same rational
      kernel vectors, whose entries are ratios of r x r minors of A, so they
      are at most H in size, H the Hadamard bound of those minors.  Their
      reconstruction is then unique and succeeds once the modulus passes
      2 H^2.  Past that point the routine gives up with None.  A skipped
      prime divides a nonzero r x r minor, so only finitely many are skipped.
    """
    if matrix.field.modulus is not None:
        raise ValueError("lifted_left_kernel needs a matrix over QQ")
    nrows = matrix.nrows
    cleared = [numerators(row) for row in matrix.rows]
    rows = [num for num, _ in cleared]
    dens = [den for _, den in cleared]
    columns = list(zip(*rows))
    first = None
    modulus, tried_bits = 1, 0
    for i in count():
        field = _lift_field(i)
        p = field.modulus
        reduced, rank, pivots = rref(
            DenseMatrix(field, [[x % p for x in col] for col in columns], nrows))
        if first is None:
            if rank == nrows:
                return rank, []
            first = rank, pivots
            pivot_set = set(pivots)
            free = [j for j in range(nrows) if j not in pivot_set]
            # twice the square of the Hadamard bound of the rank x rank minors
            norms = sorted(sum(x * x for x in row) for row in rows)
            give_up = 2
            for n in norms[nrows - rank:]:
                give_up *= n
            residues = [[0] * rank for _ in free]
        elif rank < first[0]:
            continue
        elif (rank, pivots) != first:
            return None
        inv = pow(modulus, -1, p)
        for vec, j in zip(residues, free):
            for k in range(rank):
                x = vec[k]
                vec[k] = x + modulus * ((-reduced.rows[k][j] - x) * inv % p)
        modulus *= p
        last = modulus > give_up
        # reconstruct once the modulus has 10 % more bits than at the last try
        if last or modulus.bit_length() * 10 >= tried_bits * 11:
            tried_bits = modulus.bit_length()
            vectors = _verified_kernel(rows, dens, pivots, free, residues, modulus)
            if vectors is not None:
                return rank, vectors
        if last:
            return None


def _verified_kernel(rows, dens, pivots, free, residues, modulus):
    """The reconstructed vectors, scaled to the input matrix, or None unless
    every one is an exact left kernel vector of the integer rows."""
    out = []
    for vec, j in zip(residues, free):
        rec = _reconstruct(vec, modulus)
        if rec is None:
            return None
        den, nums = rec
        y = {j: den}
        y.update((i, x) for i, x in zip(pivots, nums) if x)
        support = [(x, rows[i]) for i, x in y.items()]
        if any(sum(x * row[c] for x, row in support) for c in range(len(rows[0]))):
            return None
        full = [0] * len(rows)
        for i, x in y.items():
            full[i] = x * dens[i]
        out.append(primitive(full))
    return out
