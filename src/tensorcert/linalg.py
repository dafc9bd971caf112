"""Exact dense linear algebra: reduced row echelon form, rank, kernel."""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt
from operator import mul

from .fields import DEFAULT_PRIME, PrimeField, numerators, primitive


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

    def transpose(self):
        return DenseMatrix(self.field, list(zip(*self.rows)) or [()] * self.ncols,
                           self.nrows)

    def __eq__(self, other):
        return (isinstance(other, DenseMatrix) and self.field == other.field
                and self.rows == other.rows and self.ncols == other.ncols)

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        return f"DenseMatrix({self.nrows}x{self.ncols} over {self.field})"


def rref(matrix: DenseMatrix):
    """Gauss-Jordan elimination: ``(reduced, rank, pivots)``, the unique
    reduced row echelon form and the increasing pivot columns.

    Over QQ it is fraction-free on primitive integer rows.  A pivot entry is
    cleared from another row by row_i <- piv * row_i - q * row_r (piv and q
    first divided by their gcd), whose content is divided out at once,
    downwards first and then upwards from the last pivot; each pivot row is
    divided by its pivot once, at the end.  Every step scales a row by a
    nonzero rational or adds a multiple of another row to it, so the row
    space is kept, and a reduced echelon form is unique: the result is plain
    Fraction Gauss-Jordan's, entry for entry.  Primitive rows keep the
    factorial content of catalecticant rows from growing with every update.

    Over F_p the reduction mod p is delayed (Dumas, Giorgi and Pernet, ACM
    TOMS 35(3), 2008): each row is one int with an entry per fixed-width
    slot, and a pivot entry q is cleared from a row by one multiply-add,
    row + (p - q) * pivot row, left unreduced.  A row takes at most
    k = min(nrows, ncols) such updates of at most (p-1)^2 per slot, so a
    slot stays below p + k (p-1)^2, which the slot width holds: no slot
    carries into the next, and none borrows.  Each pivot row is reduced as
    it is scaled by its pivot's inverse, and the pivot rows once more at the
    end.  The pivot choice is plain Gauss-Jordan's, and the reduced form is
    unique, so the result is the same entry for entry.
    """
    if matrix.field.modulus is None:
        return _rref_rational(matrix)
    return _rref_mod_p(matrix)


def _rref_mod_p(matrix: DenseMatrix):
    # Entry j of a row is slot j, nbytes bytes wide (little-endian), of one
    # int.  A slot is reduced mod p only when its row becomes the pivot row or
    # is read at the end.  In between it takes at most k = min(nrows, ncols)
    # updates (p - q) * y, q and y residues, so it stays below p + k (p-1)^2,
    # which nbytes holds: no slot carries into the next, and none borrows.
    p = matrix.field.modulus
    nrows, ncols = matrix.nrows, matrix.ncols
    nbytes = ((p + min(nrows, ncols) * (p - 1) ** 2).bit_length() + 7) // 8
    width, mask = 8 * nbytes, (1 << 8 * nbytes) - 1
    from_bytes = int.from_bytes

    def pack(values):
        return from_bytes(b"".join([x.to_bytes(nbytes, "little") for x in values]), "little")

    def residues(row, start):
        """The residues of the row's slots from column ``start`` on."""
        size = nbytes * (ncols - start)
        b = (row >> width * start).to_bytes(size, "little")
        return [from_bytes(b[j:j + nbytes], "little") % p for j in range(0, size, nbytes)]

    m = [pack([x % p for x in row]) for row in matrix.rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        shift = width * c
        pr = next((i for i in range(r, nrows) if (m[i] >> shift & mask) % p), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        # the pivot row is 0 mod p left of c, so its reduced form is 0 there
        tail = residues(m[r], c)
        inv = pow(tail[0], -1, p)
        prow = m[r] = pack([x * inv % p for x in tail]) << shift
        for i, row in enumerate(m):
            minus_q = -(row >> shift & mask) % p
            if minus_q and i != r:
                m[i] = row + minus_q * prow
        pivots.append(c)
        r += 1
    reduced = [residues(row, 0) for row in m[:r]]
    reduced.extend([0] * ncols for _ in range(nrows - r))
    return DenseMatrix(matrix.field, reduced, ncols), r, tuple(pivots)


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

    Row count equals ``ncols - rank``; every row v satisfies M v^T = 0.  The
    row for a free column j is 1 at j, 0 at the other free columns, and minus
    row r's entry in column j at the r-th pivot column.  A matrix already in
    reduced row echelon form (such as a span from ``row_space_basis``) is
    read as it is, with no echelon pass.
    """
    f = matrix.field
    reduced, pivots = matrix, _reduced_pivots(matrix)
    if pivots is None:
        reduced, _, pivots = rref(matrix)
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


def _reduced_pivots(matrix: DenseMatrix):
    """The pivot columns of a matrix in reduced row echelon form, else None."""
    f = matrix.field
    rows = matrix.rows
    pivots = []
    for i, row in enumerate(rows):
        c = next((j for j, x in enumerate(row) if not f.is_zero(x)), None)
        if c is None:
            # the zero rows must all come last
            if any(not f.is_zero(x) for later in rows[i:] for x in later):
                return None
            break
        if (pivots and c <= pivots[-1]) or not f.is_zero(f.sub(row[c], f.one)):
            return None
        pivots.append(c)
    for k, c in enumerate(pivots):
        if any(not f.is_zero(rows[i][c]) for i in range(len(pivots)) if i != k):
            return None
    return tuple(pivots)


def row_space_basis(matrix: DenseMatrix) -> DenseMatrix:
    """The nonzero rows of the reduced row echelon form."""
    f = matrix.field
    reduced, rank, _ = rref(matrix)
    return DenseMatrix(f, reduced.rows[:rank], matrix.ncols)


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


_LIFT_FIELD = PrimeField(DEFAULT_PRIME)


def lifted_kernel(matrix: DenseMatrix):
    """``kernel_basis(matrix)`` for a matrix over QQ, from residues mod one
    prime by Dixon's p-adic lifting (Numer. Math. 40, 1982), or None.

    The left kernel of M is ``lifted_kernel(M.transpose())``.  None means
    the prime did not settle the kernel, and nothing is proven.  The
    entries may be ints.

    Method.  When an entry is a Fraction, denominators are cleared row by
    row, which keeps the right kernel, giving an integer matrix A.  Mod p =
    ``DEFAULT_PRIME``, one forward elimination of A's transpose gives the
    rank r and r independent rows R, and one of [A_R | identity_r] the pivot
    columns P and the inverse C of the r x r pivot minor A_RP
    (``_pivot_inverse_mod_p``).  For each free column j the system A_RP x =
    -A_Rj is solved p-adically: the digit y = C b mod p of the residual b is
    taken out, and b becomes (b - A_RP y) / p, exactly.  At checkpoints
    where the modulus p^k has grown geometrically, ``_reconstruct`` turns x
    mod p^k into a candidate integer vector v, with v_j its denominator and
    0 at the other free columns.

    Soundness, for M over QQ:

    * A returned vector v satisfies A v = 0 exactly over ZZ, on every row.
      The n - r returned vectors are independent (v_j != 0 only at their own
      free column), so rank_QQ <= r.  Also rank_p <= rank_QQ, so
      rank_QQ = r, and the vectors span the kernel over QQ.
    * Each returned v is zero at every pivot column right of its free column
      j, so column j is a combination of earlier columns, and j is not a
      pivot over QQ.  The n - r mod-p free columns are then exactly the free
      columns over QQ, and a kernel basis normalized to the identity on the
      free columns is unique: the result is ``kernel_basis(matrix)``, entry
      for entry.
    * A candidate with A_R v = 0 is the exact solution: A_RP is invertible
      over QQ, since its determinant is nonzero mod p.  If it then fails
      another row, rank_QQ > r; if it is nonzero at a pivot right of j, the
      pivots over QQ differ.  Either way the prime was unlucky: None.
    * When rank_QQ = r and the pivots agree, the entries of x are ratios of
      r x r minors of A_R, at most H in size, H the Hadamard bound of A_R's
      rows.  Reconstruction is unique and succeeds once the modulus passes
      2 H^2; past that point the routine gives up with None.
    """
    if matrix.field.modulus is not None:
        raise ValueError("lifted_kernel needs a matrix over QQ")
    f, n, rows = matrix.field, matrix.ncols, matrix.rows
    if Fraction in set(map(type, chain.from_iterable(rows))):
        rows = [numerators(row)[0] for row in rows]
    p = _LIFT_FIELD.modulus
    prows, pivots, inverse = _pivot_inverse_mod_p(rows, n)
    others = set(range(len(rows))) - set(prows)
    minor = [[rows[i][c] for c in pivots] for i in prows]
    pending = {j: ([-rows[i][j] for i in prows], [0] * len(prows))
               for j in sorted(set(range(n)) - set(pivots))}
    # twice the square of the Hadamard bound of the r x r minors of A_R
    give_up = 2
    for i in prows:
        give_up *= sum(x * x for x in rows[i])
    kernel = {}
    modulus, tried_bits = 1, 0
    while pending:
        for b, x in pending.values():
            residues = [v % p for v in b]
            y = [sum(map(mul, crow, residues)) % p for crow in inverse]
            b[:] = [(v - sum(map(mul, mrow, y))) // p for v, mrow in zip(b, minor)]
            x[:] = [u + modulus * v for u, v in zip(x, y)]
        modulus *= p
        last = modulus > give_up
        if not (last or modulus.bit_length() * 4 >= tried_bits * 5):
            continue
        tried_bits = modulus.bit_length()
        for j, (_, x) in list(pending.items()):
            rec = _reconstruct(x, modulus)
            if rec is None:
                continue
            den, nums = rec
            support = [(c, v) for c, v in zip(pivots, nums) if v] + [(j, den)]
            if any(sum(rows[i][c] * v for c, v in support) for i in prows):
                continue        # not the exact solution yet
            if (any(sum(rows[i][c] * v for c, v in support) for i in others)
                    or any(c > j for c, _ in support[:-1])):
                return None
            v = [f.zero] * n
            v[j] = f.one
            for c, num in support[:-1]:
                v[c] = Fraction(num, den)
            kernel[j] = v
            del pending[j]
        if pending and last:
            return None
    return DenseMatrix(f, [kernel[j] for j in sorted(kernel)], n)


def _pivot_inverse_mod_p(rows, ncols):
    """Pivot rows and columns of integer rows mod p, and the inverse mod p of
    the minor on them, in pivot order.

    The pivot rows R are the pivot columns of the transpose with the rows
    taken last first: a row is kept unless it is a combination of the rows
    after it, so the r rows kept are independent and span the others.  A
    forward elimination finds those columns; nothing above a pivot is
    cleared.  Then one ``rref`` of [A_R | identity_r] is [G A_R | G], with
    G A_R the reduced form of A, whose pivots are those of A; G A_RP is the
    identity, so G is the inverse of the minor A_RP.
    """
    m, p = len(rows), _LIFT_FIELD.modulus
    left = [[x % p for x in col] for col in zip(*reversed(rows))]
    kept = []
    for c in range(m):
        if not left:
            break
        pr = next((i for i, row in enumerate(left) if row[c]), None)
        if pr is None:
            continue
        prow = left.pop(pr)
        inv = pow(prow[c], -1, p)
        tail = [x * inv % p for x in prow[c:]]
        for row in left:
            q = row[c]
            if q:
                row[c:] = [(x - q * y) % p for x, y in zip(row[c:], tail)]
        kept.append(m - 1 - c)
    prows = sorted(kept)
    r = len(prows)
    augmented = [list(rows[i]) + [int(i == k) for k in prows] for i in prows]
    reduced, _, pivots = _rref_mod_p(DenseMatrix(_LIFT_FIELD, augmented, ncols + r))
    return prows, pivots, [row[ncols:] for row in reduced.rows]
