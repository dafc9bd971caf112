import random
from fractions import Fraction

import pytest

from tensorcert import (DEFAULT_PRIME, DenseMatrix, PrimeField, QQ, kernel_basis, rref,
                        row_space_basis)
from tensorcert.fields import is_prime
import tensorcert.linalg as linalg
from tensorcert.linalg import lifted_kernel

import oracles


def qmat(rows, ncols=None):
    return DenseMatrix.from_rows(QQ, rows, ncols)


def test_rref_identity():
    _, rank, pivots = rref(DenseMatrix.identity(QQ, 3))
    assert rank == 3
    assert pivots == (0, 1, 2)


def test_rref_zero_matrix():
    _, rank, pivots = rref(qmat([[0, 0], [0, 0]]))
    assert rank == 0
    assert pivots == ()


def test_rref_dependent_rows():
    reduced, rank, pivots = rref(qmat([[1, 2, 3], [2, 4, 6]]))
    assert rank == 1
    assert pivots == (0,)
    assert reduced.rows[0] == (Fraction(1), Fraction(2), Fraction(3))
    assert all(x == 0 for x in reduced.rows[1])


def test_rref_empty_matrix():
    _, rank, pivots = rref(DenseMatrix(QQ, [], 4))
    assert rank == 0 and pivots == ()


def test_rref_idempotent():
    rng = random.Random(0)
    for _ in range(10):
        m = qmat([[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)])
        reduced, _, _ = rref(m)
        again, _, _ = rref(reduced)
        assert again == reduced


def test_rank_equals_transpose_rank():
    rng = random.Random(1)
    for _ in range(10):
        m = qmat([[rng.randint(-9, 9) for _ in range(6)] for _ in range(3)])
        assert rref(m)[1] == rref(m.transpose())[1]


def test_kernel_identity_empty():
    k = kernel_basis(DenseMatrix.identity(QQ, 3))
    assert k.nrows == 0 and k.ncols == 3


def test_kernel_row_of_ones():
    m = qmat([[1, 1, 1]])
    k = kernel_basis(m)
    assert k.nrows == 2
    for row in k.rows:
        assert [sum(a * x for a, x in zip(r, row)) for r in m.rows] == [Fraction(0)]
    assert rref(k)[1] == 2


def test_kernel_zero_matrix_full():
    k = kernel_basis(qmat([[0, 0, 0], [0, 0, 0]]))
    assert k.nrows == 3
    assert rref(k)[1] == 3


def test_rank_nullity():
    rng = random.Random(2)
    for _ in range(20):
        nr, nc = rng.randint(1, 5), rng.randint(1, 6)
        m = qmat([[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)])
        _, rank, _ = rref(m)
        assert rank + kernel_basis(m).nrows == nc
        for row in kernel_basis(m).rows:
            assert all(sum(a * x for a, x in zip(r, row)) == 0 for r in m.rows)


def test_row_space_basis_examples():
    basis = row_space_basis(qmat([[1, 0], [2, 0]]))
    assert basis.rows == ((Fraction(1), Fraction(0)),)
    assert row_space_basis(DenseMatrix.identity(QQ, 3)) == DenseMatrix.identity(QQ, 3)
    assert row_space_basis(qmat([[0, 0], [0, 0]])).nrows == 0


def test_rational_vs_prime_field_rank_agrees():
    # integer matrices: rank mod a 30-bit prime matches the rational rank
    fp = PrimeField(1073741789)
    rng = random.Random(3)
    for _ in range(10):
        rows = [[rng.randint(-50, 50) for _ in range(5)] for _ in range(4)]
        rank_q = rref(qmat(rows))[1]
        rank_p = rref(DenseMatrix.from_rows(fp, rows))[1]
        assert rank_q == rank_p


def test_prime_field_arithmetic():
    fp = PrimeField(101)
    assert fp(Fraction(1, 2)) == 51
    assert fp.mul(51, 2) == 1
    assert fp.inv(7) * 7 % 101 == 1
    with pytest.raises(ValueError):
        PrimeField(100)


def test_prime_field_reads_a_rational_string():
    assert PrimeField(7)("1/3") == 5
    assert PrimeField(7)("-4") == 3


# strong pseudoprimes to the bases 2 .. 37 (psi_12) and 2 .. 41 (psi_13)
PSI12 = 318665857834031151167461
PSI13 = 3317044064679887385961981


def test_is_prime_refuses_the_pseudoprimes():
    assert PSI12 == 399165290221 * 798330580441
    assert PSI13 == 1287836182261 * 2575672364521
    assert not is_prime(PSI12)
    with pytest.raises(ValueError):
        is_prime(PSI13)
    for p in (PSI12, PSI13, PSI13 + 2):
        with pytest.raises(ValueError):
            PrimeField(p)
    assert is_prime(2**61 - 1) and is_prime(DEFAULT_PRIME)
    assert PrimeField(2**61 - 1).modulus == 2**61 - 1


def test_matrix_immutable():
    m = DenseMatrix.identity(QQ, 2)
    with pytest.raises(AttributeError):
        m.nrows = 5


def test_transpose_twice_is_the_identity():
    for nrows, ncols in [(0, 4), (4, 0), (3, 5)]:
        m = DenseMatrix(QQ, [[Fraction(i * ncols + j) for j in range(ncols)]
                             for i in range(nrows)], ncols)
        t = m.transpose()
        assert (t.nrows, t.ncols) == (ncols, nrows)
        assert t.transpose() == m


# ---------------------------------------------------------------------------
# differential test against the standalone Fraction oracle


def _rref_cases():
    """(rows, ncols) pairs: seeded random shapes plus the edge cases."""
    rng = random.Random(17)

    def ints(nr, nc, bound=50):
        return [[rng.randint(-bound, bound) for _ in range(nc)] for _ in range(nr)]

    def product(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

    cases = []
    for nr, nc in [(4, 4), (3, 7), (7, 3), (1, 5), (5, 1), (6, 6)]:
        cases.append((ints(nr, nc), nc))
        cases.append(([[Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                        for _ in range(nc)] for _ in range(nr)], nc))
    cases.append((ints(5, 6, bound=1 << 200), 6))
    for nr, nc, k in [(6, 5, 2), (5, 8, 3), (8, 4, 1), (7, 7, 4)]:
        cases.append((product(ints(nr, k, 9), ints(k, nc, 9)), nc))
    deficient = product(ints(6, 3, 9), ints(3, 7, 9))
    cases.append(([[Fraction(x, 1 + i) for x in row]
                   for i, row in enumerate(deficient)], 7))
    cases.append((oracles.fraction_rref(deficient)[0], 7))     # already reduced
    cases.append(([[0] * 5 for _ in range(3)], 5))             # all zero
    cases.append(([], 4))                                      # no rows
    cases.append(([[], []], 0))                                # no columns
    return cases


def test_rref_matches_fraction_oracle_over_qq():
    for rows, ncols in _rref_cases():
        reduced, rank, pivots = rref(qmat(rows, ncols))
        want, want_rank, want_pivots = oracles.fraction_rref(rows)
        assert (rank, pivots) == (want_rank, tuple(want_pivots))
        assert reduced.rows == tuple(tuple(row) for row in want)
        assert (reduced.nrows, reduced.ncols) == (len(rows), ncols)
        assert all(type(x) is Fraction for row in reduced.rows for x in row)


def test_kernel_basis_reads_a_reduced_matrix_without_rref(monkeypatch):
    fp = PrimeField(1073741789)
    for rows, ncols in _rref_cases():
        want = oracles.fraction_kernel(rows, ncols)
        assert [list(r) for r in kernel_basis(qmat(rows, ncols)).rows] == want
        reduced = oracles.fraction_rref(rows)[0]
        with monkeypatch.context() as m:
            m.setattr(linalg, "rref", lambda matrix: pytest.fail("rref ran"))
            assert [list(r) for r in kernel_basis(qmat(reduced, ncols)).rows] == want
            got = kernel_basis(DenseMatrix.from_rows(fp, reduced, ncols))
            assert got.rows == tuple(tuple(fp(x) for x in row) for row in want)


def test_rref_matches_fraction_oracle_mod_p():
    # with the same pivot columns, the reduced form mod p is the rational one
    # reduced mod p (its entries are ratios of minors that are units mod p)
    fp = PrimeField(1073741789)
    for rows, ncols in _rref_cases():
        reduced, rank, pivots = rref(DenseMatrix.from_rows(fp, rows, ncols))
        want, want_rank, want_pivots = oracles.fraction_rref(rows)
        assert (rank, pivots) == (want_rank, tuple(want_pivots))
        assert reduced.rows == tuple(tuple(fp(x) for x in row) for row in want)


def test_rref_mod_p_matches_the_oracle():
    # entries negative and >= p reach the kernel unreduced; at the large primes
    # the 70 x 70 matrix of mostly p - 1 has full rank, so each slot takes an
    # update from nearly every pivot, towards the slot bound p + k (p-1)^2
    rng = random.Random(38)

    def ints(nr, nc, p):
        return [[rng.randint(-2 * p, 2 * p) for _ in range(nc)] for _ in range(nr)]

    for p in (2, 3, 7, 101, 1073741789, (1 << 61) - 1, (1 << 64) - 59):
        left, right = ints(150, 5, p), ints(5, 40, p)
        low_rank = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)]
                    for row in left]
        square = [[p - 1 if rng.random() < 0.8 else rng.randrange(p) for _ in range(70)]
                  for _ in range(70)]
        cases = [([], 6), ([()] * 6, 0), (ints(1, 1, p), 1), (ints(5, 12, p), 12),
                 (low_rank, 40), (square, 70)]
        for rows, ncols in cases:
            reduced, rank, pivots = rref(DenseMatrix(PrimeField(p), rows, ncols))
            want, want_rank, want_pivots = oracles.modp_rref(rows, ncols, p)
            assert (rank, pivots) == (want_rank, tuple(want_pivots))
            assert reduced.rows == tuple(map(tuple, want))
            assert (reduced.nrows, reduced.ncols) == (len(rows), ncols)
        assert p < 70 or want_rank == 70


# ---------------------------------------------------------------------------
# exact rank from a lifted, verified left kernel


def _lift_cases():
    """Integer and rational matrices, most of them rank-deficient."""
    rng = random.Random(29)

    def ints(nr, nc, bound):
        return [[rng.randint(-bound, bound) for _ in range(nc)] for _ in range(nr)]

    def product(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

    cases = []
    for nr, nc, k in [(6, 5, 2), (5, 8, 3), (8, 4, 1), (7, 7, 4), (15, 18, 14)]:
        cases.append(product(ints(nr, k, 9), ints(k, nc, 9)))
        # Cramer-sized kernels: 100-bit factors make minors of about k * 100 bits
        cases.append(product(ints(nr, k, 1 << 100), ints(k, nc, 1 << 100)))
    deficient = product(ints(6, 3, 9), ints(3, 7, 9))
    cases.append([[Fraction(x, 1 + i) for x in row] for i, row in enumerate(deficient)])
    with_zero_rows = product(ints(5, 2, 99), ints(2, 6, 99))
    with_zero_rows[1] = with_zero_rows[3] = [0] * 6
    cases.append(with_zero_rows)
    cases.append(ints(1, 5, 50))                               # 1 x n
    cases.append([[0] * 5])                                    # 1 x n, zero
    cases.append(product(ints(6, 5, 50), ints(5, 6, 50)))      # n x n, rank n - 1
    cases.append(ints(6, 6, 50))                               # n x n, full rank
    cases.append([[0] * 4 for _ in range(3)])                  # all zero
    cases.append([[], []])                                     # no columns
    return cases


def test_lifted_left_kernel_matches_fraction_oracle():
    # the left kernel is the right kernel of the transpose, and it proves the rank
    for rows in _lift_cases():
        ncols = len(rows[0])
        lifted = lifted_kernel(qmat(rows, ncols).transpose())
        assert lifted is not None
        rank = len(rows) - lifted.nrows
        assert rank == oracles.fraction_rref(rows)[1]
        for y in lifted.rows:
            assert all(type(x) is Fraction for x in y)
            assert all(sum(x * row[c] for x, row in zip(y, rows)) == 0
                       for c in range(ncols))
        assert oracles.fraction_rref(lifted.rows)[1] == lifted.nrows


def test_lifted_kernel_matches_fraction_kernel_on_both_sides():
    # the lift returns kernel_basis entry for entry, on M and on its transpose
    for rows, ncols in [(rows, len(rows[0])) for rows in _lift_cases()] + _rref_cases():
        m = qmat(rows, ncols)
        for side in (m, m.transpose()):
            lifted = lifted_kernel(side)
            want = oracles.fraction_kernel([list(r) for r in side.rows], side.ncols)
            assert lifted is not None
            assert [list(r) for r in lifted.rows] == want
            assert lifted == kernel_basis(side)


def _counting_reconstruct(monkeypatch):
    """The moduli at which the lift tries a reconstruction."""
    moduli = []
    real = linalg._reconstruct

    def counting(residues, m):
        moduli.append(m)
        return real(residues, m)

    monkeypatch.setattr(linalg, "_reconstruct", counting)
    return moduli


def test_lifted_kernel_gives_up_on_an_unlucky_prime(monkeypatch):
    # det = -p: rank 1 mod p, rank 2 over QQ.  The pivot row (1, 2) has the
    # small exact solution (-2, 1), and only the check over ZZ on the other
    # row keeps it out: the lift ends with None after one step, not rank 1
    p = DEFAULT_PRIME
    moduli = _counting_reconstruct(monkeypatch)
    assert lifted_kernel(qmat([[3, 6 + p], [1, 2]])) is None
    assert moduli == [p]
    assert lifted_kernel(qmat([[1, 2], [3, 6 + p]]).transpose()) is None
    assert lifted_kernel(qmat([[p, 0], [0, 2 * p]])) is None


def test_lifted_kernel_lifts_a_40_bit_kernel_in_several_steps(monkeypatch):
    # the kernel (-a, -b, 1) needs a modulus past 2 * (2^40)^2, three primes'
    # worth, and the first steps' candidates must fail the exact check
    a, b = 987654321987, 123456789123
    moduli = _counting_reconstruct(monkeypatch)
    lifted = lifted_kernel(qmat([[1, 0], [0, 1], [a, b]]).transpose())
    assert [list(r) for r in lifted.rows] == [[-a, -b, 1]]
    assert len(moduli) > 1 and moduli == sorted(moduli)
    assert moduli[-1] > 2 * (1 << 80) > moduli[0]


def test_lifted_kernel_rejects_mod_p_pivots_that_differ_from_qq():
    # rank 2 both ways, but the pivots are (0, 1) over QQ and (0, 2) mod p.
    # The lifted vector (-2, 1, -p) is an exact kernel vector, yet it is not
    # zero at pivot 2, right of its free column 1: kernel_basis has the free
    # column 2, so the lift must give up
    p = DEFAULT_PRIME
    m = qmat([[1, 2, 0], [3, 6 + p, 1]])
    assert [list(r) for r in kernel_basis(m).rows] == [[Fraction(2, p), Fraction(-1, p), 1]]
    assert lifted_kernel(m) is None


def _pivot_cases():
    """Tall, wide and square integer matrices, most of them rank-deficient
    mod p, with some rows that vanish mod p and some entries shifted by p."""
    p = DEFAULT_PRIME
    rng = random.Random(41)
    cases = []
    for nr, nc in [(9, 3), (12, 5), (3, 9), (4, 11), (6, 6), (7, 7), (1, 4), (5, 1)]:
        for _ in range(4):
            k = rng.randint(1, min(nr, nc))
            left = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(nr)]
            right = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(k)]
            rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)]
                    for row in left]
            for row in rows:
                if rng.random() < 0.2:
                    row[:] = [p * rng.randint(-2, 2) for _ in row]
                elif rng.random() < 0.3:
                    row[rng.randrange(nc)] += p * rng.choice([-1, 1, 3])
            cases.append((rows, nc))
    return cases


def _rank_mod_p(rows, ncols):
    return linalg._rref_mod_p(DenseMatrix(linalg._LIFT_FIELD, rows, ncols))[1]


def test_pivot_inverse_mod_p():
    # the rows kept are those independent mod p of every row after them, the
    # pivots are A's own mod p, and G inverts the minor A_RP mod p
    p = DEFAULT_PRIME
    for rows, ncols in _pivot_cases():
        prows, pivots, inverse = linalg._pivot_inverse_mod_p(rows, ncols)
        assert prows == [i for i in range(len(rows)) if _rank_mod_p(rows[i:], ncols)
                         > _rank_mod_p(rows[i + 1:], ncols)]
        assert pivots == linalg._rref_mod_p(DenseMatrix(linalg._LIFT_FIELD, rows, ncols))[2]
        minor = [[rows[i][c] for c in pivots] for i in prows]
        assert [[sum(g * minor[k][c] for k, g in enumerate(grow)) % p
                 for c in range(len(pivots))] for grow in inverse] == \
            [[int(i == c) for c in range(len(pivots))] for i in range(len(pivots))]


def test_pivot_inverse_mod_p_builds_no_identity_of_the_row_count(monkeypatch):
    # a tall 1000 x 6 matrix of rank 4: the eliminations hold at most
    # m n + r (n + r) cells, not the m (n + m) of [A | identity_m]
    rng = random.Random(43)
    basis = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(4)]
    rows = []
    for _ in range(1000):
        coeffs = [rng.randint(-3, 3) for _ in basis]
        rows.append([sum(c * x for c, x in zip(coeffs, col)) for col in zip(*basis)])
    cells = []
    real = linalg._rref_mod_p

    def counted(matrix):
        cells.append(matrix.nrows * matrix.ncols)
        return real(matrix)

    monkeypatch.setattr(linalg, "_rref_mod_p", counted)
    prows, pivots, _ = linalg._pivot_inverse_mod_p(rows, 6)
    r = len(prows)
    assert r == len(pivots) == 4
    assert sum(cells) <= 1000 * 6 + r * (6 + r)


def test_lifted_left_kernel_needs_a_rational_matrix():
    with pytest.raises(ValueError):
        lifted_kernel(DenseMatrix.identity(PrimeField(7), 2))
