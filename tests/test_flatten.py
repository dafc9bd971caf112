import random
from fractions import Fraction

import pytest

from tensorcert import (DenseMatrix, MPoly, PrimeField, QQ, Split, SplitError,
                        TensorSpace, coefficient_vector, default_split, flatten,
                        image_span, monomial_basis, power_and_product, random_tensor,
                        RandomConfig, row_space_basis, rref)

from conftest import random_form


def test_flatten_rank_one_binary_cubic():
    space = TensorSpace((2,), (3,))
    F = MPoly(space, {(3, 0): 1})
    fl = flatten(F, Split.of(space, (1,)))
    assert (fl.matrix.nrows, fl.matrix.ncols) == (2, 3)
    assert fl.rank == 1


def test_flatten_two_cubes_rank_two():
    space = TensorSpace((2,), (3,))
    F = MPoly(space, {(3, 0): 1, (0, 3): 1})
    fl = flatten(F, Split.of(space, (1,)))
    assert fl.rank == 2
    # rows are the partials 3*x0^2 and 3*x1^2
    assert fl.matrix.rows[0] == (Fraction(3), Fraction(0), Fraction(0))
    assert fl.matrix.rows[1] == (Fraction(0), Fraction(0), Fraction(3))


def test_generic_seven_quintics_full_catalecticant():
    space = TensorSpace((3,), (5,))
    T, _ = random_tensor(space, 7, RandomConfig(seed=1))
    fl = flatten(T, Split.of(space, (2,)))
    assert (fl.matrix.nrows, fl.matrix.ncols) == (6, 10)
    assert fl.rank == 6


def test_choose_split_minimal():
    space = TensorSpace((3,), (5,))
    split = default_split(space, 6)
    assert split.s == 2 and split.dim_a == 6
    # sandwich: binom(n+s, n) >= h > binom(n+s-1, n)
    assert split.dim_a >= 6 > 3


def test_choose_split_balanced_mixed():
    space = TensorSpace((2, 5, 4), (3, 2, 3))
    split = default_split(space, 5)
    assert split.a == (2, 1, 2)
    assert split.b == (1, 1, 1)
    assert split.dim_b == 40


def test_choose_split_error():
    space = TensorSpace((2,), (3,))
    with pytest.raises(SplitError):
        default_split(space, 5)


def test_choose_split_sandwich_property():
    from math import comb
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 3)
        d = rng.randint(1, 6)
        space = TensorSpace((n + 1,), (d,))
        h = rng.randint(1, comb(n + d, n))
        split = default_split(space, h)
        s = split.s
        assert comb(n + s, n) >= h
        assert s == 0 or comb(n + s - 1, n) < h


def test_image_span_examples():
    space = TensorSpace((2,), (4,))
    F = MPoly(space, {(4, 0): 1})
    span = image_span(flatten(F, Split.of(space, (1,))))
    assert span.nrows == 1
    # single row proportional to the coefficient vector of x0^3
    assert span.rows[0][0] != 0 and all(x == 0 for x in span.rows[0][1:])

    cubes = TensorSpace((2,), (3,))
    G = MPoly(cubes, {(3, 0): 1, (0, 3): 1})
    span = image_span(flatten(G, Split.of(cubes, (1,))))
    assert span.nrows == 2

    span = image_span(flatten(MPoly.zero(cubes), Split.of(cubes, (1,))))
    assert span.nrows == 0


def test_flatten_linearity():
    rng = random.Random(3)
    space = TensorSpace((2, 2), (2, 1))
    split = Split.of(space, (1, 1))
    T = random_form(space, (2, 1), rng)
    S = random_form(space, (2, 1), rng)
    combo = T.scale(4) + S.scale(-3)
    left = flatten(combo, split).matrix
    A, B = flatten(T, split).matrix, flatten(S, split).matrix
    right = DenseMatrix(QQ, [[4 * a - 3 * b for a, b in zip(r, s)]
                             for r, s in zip(A.rows, B.rows)], A.ncols)
    assert left == right


def test_flatten_rank_bounded_by_h():
    for seed in range(8):
        space = TensorSpace((3,), (4,))
        h = 1 + seed % 3
        T, _ = random_tensor(space, h, RandomConfig(seed=seed))
        for s in range(5):
            assert flatten(T, Split.of(space, (s,))).rank <= h


def test_transposed_split_same_rank():
    rng = random.Random(4)
    space = TensorSpace((2, 3), (2, 2))
    T = random_form(space, (2, 2), rng)
    r1 = flatten(T, Split.of(space, (1, 0))).rank
    r2 = flatten(T, Split.of(space, (1, 2))).rank
    assert r1 == r2


def test_flatten_rejects_small_prime():
    space = TensorSpace((2,), (5,))
    F = MPoly(space, {(5, 0): 1}, PrimeField(5))
    with pytest.raises(ValueError, match="prime modulus"):
        flatten(F, Split.of(space, (2,)))


def test_default_split_modes():
    assert default_split(TensorSpace((3,), (4,)), 3).s == 1
    assert default_split(TensorSpace((2, 2), (2, 2)), 2).a == (1, 1)


def _rational_form(space, rng, field):
    terms = {m: Fraction(rng.randint(-40, 40), rng.randint(1, 7))
             for m in monomial_basis(space, space.degrees)}
    return MPoly(space, terms, field)


# the primes of `--field fp` and the Theorem 3.7 witness, and of the
# Proposition 3.1 route, 2^61 - 1
@pytest.mark.parametrize("field", [QQ, PrimeField(1073741789), PrimeField(2 ** 61 - 1)],
                         ids=["QQ", "Fp", "Fp61"])
@pytest.mark.parametrize("sizes,degrees,splits", [
    ((3,), (5,), [(0,), (1,), (2,), (3,), (5,)]),
    ((2, 5, 4), (3, 2, 3), [(2, 1, 2), (1, 1, 1), (3, 0, 0)]),
    ((3, 3), (2, 2), [(1, 1), (2, 0), (0, 1), (2, 2)]),
    # groups of unequal degree, some of degree 1: the packed keys of the
    # cells need a radix above every exponent
    ((2, 2), (1, 1), [(1, 0), (0, 1)]),
    ((2, 3, 2), (1, 2, 1), [(1, 1, 0), (0, 1, 1), (1, 2, 0)]),
], ids=["3-5", "254-323", "33-22", "22-11", "232-121"])
def test_lookup_flattening_matches_derivatives(sizes, degrees, splits, field):
    space = TensorSpace(sizes, degrees)
    T = _rational_form(space, random.Random(sum(sizes) + len(splits)), field)
    for a in splits:
        split = Split.of(space, a)
        fl = flatten(T, split)
        basis_b = monomial_basis(space, split.b)
        rows = monomial_basis(space, split.a)
        assert fl.matrix.nrows == len(rows)
        for m, row in zip(rows, fl.matrix.rows):
            assert list(row) == coefficient_vector(T.derivative_by(m), basis_b)
        assert image_span(fl) == row_space_basis(fl.matrix)
        assert image_span(fl).nrows == fl.rank
