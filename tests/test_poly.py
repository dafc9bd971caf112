import random
from fractions import Fraction

import pytest

from oracles import repeated_product_expansion
from tensorcert import (MPoly, PrimeField, QQ, TensorSpace, coefficient_vector,
                        dimension_of_multidegree, monomial_basis, poly_to_string,
                        power_and_product)
from tensorcert.poly import monomial_multinomial


def partials(T, a):
    """The iterated partials of T, one per monomial of multidegree a."""
    return [T.derivative_by(m) for m in monomial_basis(T.space, a)]


def test_space_validation():
    with pytest.raises(ValueError):
        TensorSpace((1,), (2,))
    with pytest.raises(ValueError):
        TensorSpace((2,), (0,))
    with pytest.raises(ValueError):
        TensorSpace((2, 3), (1,))


def test_monomial_basis_sizes():
    mixed = TensorSpace((2, 5, 4), (3, 2, 3))
    assert len(monomial_basis(mixed, (3, 2, 3))) == 1200
    single = TensorSpace((3,), (5,))
    assert len(monomial_basis(single, (5,))) == 21
    assert monomial_basis(single, (0,)) == [(0, 0, 0)]


def test_monomial_basis_matches_count_formula():
    rng = random.Random(0)
    for _ in range(15):
        p = rng.randint(1, 3)
        sizes = tuple(rng.randint(2, 4) for _ in range(p))
        space = TensorSpace(sizes, tuple(rng.randint(1, 3) for _ in range(p)))
        deg = tuple(rng.randint(0, 3) for _ in range(p))
        assert len(monomial_basis(space, deg)) == dimension_of_multidegree(sizes, deg)


def test_grevlex_order_ternary_quadrics():
    space = TensorSpace((3,), (2,))
    assert monomial_basis(space, (2,)) == [
        (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]


def test_partial_derivatives_power():
    space = TensorSpace((2,), (3,))
    F = MPoly(space, {(3, 0): 1})
    dF = partials(F, (1,))
    assert dF[0].terms == {(2, 0): Fraction(3)}
    assert not dF[1]


def test_partial_derivatives_product():
    space = TensorSpace((2,), (2,))
    F = MPoly(space, {(1, 1): 1})
    dF = partials(F, (1,))
    assert dF[0].terms == {(0, 1): Fraction(1)}
    assert dF[1].terms == {(1, 0): Fraction(1)}


def test_partial_derivatives_order_two():
    space = TensorSpace((2,), (2,))
    F = MPoly(space, {(2, 0): 1, (0, 2): 1})
    dF = partials(F, (2,))
    # basis order x0^2, x0x1, x1^2
    assert [g.terms for g in dF] == [{(0, 0): Fraction(2)}, {}, {(0, 0): Fraction(2)}]


def test_mixed_partials_example():
    space = TensorSpace((2, 2), (2, 1))
    T = MPoly(space, {(2, 0, 1, 0): 1})  # x1_0^2 * x2_0
    d = partials(T, (1, 0))
    assert d[0].terms == {(1, 0, 1, 0): Fraction(2)}
    assert not d[1]
    assert partials(T, (0, 0)) == [T]


def test_mixed_partials_of_rank_one_are_proportional():
    space = TensorSpace((2, 3), (2, 2))
    T = power_and_product(space, [(1, 2), (1, -1, 3)])
    base = power_and_product(space, [(1, 2), (1, -1, 3)], exponents=(1, 1))
    for g in partials(T, (1, 1)):
        if not g:
            continue
        # proportional: cross ratios of coefficients agree
        items = sorted(g.terms)
        ref = sorted(base.terms)
        assert items == ref
        ratios = {g.terms[m] / base.terms[m] for m in items}
        assert len(ratios) == 1


def test_derivative_linearity():
    rng = random.Random(5)
    space = TensorSpace((3,), (4,))
    basis = monomial_basis(space, (4,))
    for _ in range(5):
        F = MPoly(space, {m: rng.randint(-9, 9) for m in basis})
        G = MPoly(space, {m: rng.randint(-9, 9) for m in basis})
        left = partials(F.scale(3) + G.scale(-7), (2,))
        right = [a.scale(3) + b.scale(-7)
                 for a, b in zip(partials(F, (2,)), partials(G, (2,)))]
        assert left == right


def test_coefficient_vector_examples():
    space = TensorSpace((2,), (2,))
    basis = monomial_basis(space, (2,))
    zero = MPoly.zero(space)
    assert coefficient_vector(zero, basis) == [Fraction(0)] * 3
    F = MPoly(space, {(1, 1): 2})
    assert coefficient_vector(F, basis) == [Fraction(0), Fraction(2), Fraction(0)]
    G = MPoly(space, {(2, 0): 1, (0, 2): 1})
    assert coefficient_vector(G, basis) == [Fraction(1), Fraction(0), Fraction(1)]


def test_coefficient_vector_missing_monomial():
    space = TensorSpace((2,), (2,))
    F = MPoly(space, {(2, 0): 1})
    with pytest.raises(ValueError):
        coefficient_vector(F, monomial_basis(space, (1,)))


def test_coefficient_vector_roundtrip():
    rng = random.Random(6)
    space = TensorSpace((2, 2), (1, 2))
    basis = monomial_basis(space, (1, 2))
    F = MPoly(space, {m: rng.randint(-5, 5) for m in basis})
    again = MPoly(space, dict(zip(basis, coefficient_vector(F, basis))))
    assert again == F


def test_power_and_product_examples():
    space = TensorSpace((2,), (3,))
    cube = power_and_product(space, [(1, 0)])
    assert cube.terms == {(3, 0): Fraction(1)}
    square_space = TensorSpace((2,), (2,))
    sq = power_and_product(square_space, [(1, 1)])
    assert sq.terms == {(2, 0): Fraction(1), (1, 1): Fraction(2), (0, 2): Fraction(1)}
    two = TensorSpace((2, 2), (1, 1))
    T = power_and_product(two, [(1, 0), (1, 1)])
    assert T.terms == {(1, 0, 1, 0): Fraction(1), (1, 0, 0, 1): Fraction(1)}


def test_monomial_multinomial():
    space = TensorSpace((3,), (3,))
    assert monomial_multinomial(space, (3, 0, 0)) == 1
    assert monomial_multinomial(space, (1, 1, 1)) == 6
    mixed = TensorSpace((2, 2), (2, 1))
    assert monomial_multinomial(mixed, (1, 1, 1, 0)) == 2


def test_poly_string_roundtrip_via_cli_parser():
    from tensorcert.cli import parse_polynomial
    rng = random.Random(7)
    space = TensorSpace((2, 3), (2, 1))
    basis = monomial_basis(space, (2, 1))
    F = MPoly(space, {m: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for m in basis})
    assert parse_polynomial(poly_to_string(F), space) == F


def test_field_mismatch_rejected():
    space = TensorSpace((2,), (1,))
    a = MPoly(space, {(1, 0): 1})
    b = MPoly(space, {(0, 1): 1}, PrimeField(101))
    with pytest.raises(ValueError):
        a + b


def _kernel_cases():
    half, third = Fraction(1, 2), Fraction(-2, 3)
    yield (2, 3), (2, 2), [(half, -3), (third, 0, Fraction(5, 7))], None, None
    yield (3,), (4,), [(0, -7, Fraction(9, 4))], None, None
    yield (2, 5, 4), (3, 2, 3), [(1, -2), (3, 0, -1, 4, 5), (Fraction(1, 3), 2, -1, 0)], \
        None, None
    yield (2, 5, 4), (3, 2, 3), [(1, -2), (3, 0, -1, 4, 5), (7, 2, -1, 0)], (0, 2, 3), None
    yield (2, 5, 4), (3, 2, 3), [(0, 0), (3, 0, -1, 4, 5), (7, 2, -1, 0)], (0, 1, 0), None
    yield (3, 2), (2, 2), [(1, 2, 3), (4, 5)], (0, 0), None
    # over F_5: a coefficient that is 0 mod 5, one that is a fraction, and
    # exponents >= 5, where some multinomial coefficients vanish mod 5
    yield (3,), (7,), [(10, 3, -1)], None, 5
    yield (2, 3), (7, 5), [(2, Fraction(1, 3)), (1, 5, -6)], None, 5
    yield (2, 5, 4), (3, 2, 3), [(1, -2), (3, 0, -1, 4, 5), (7, 2, -1, 0)], None, 1073741789


def test_power_and_product_matches_repeated_products():
    rng = random.Random(11)
    cases = list(_kernel_cases())
    for _ in range(30):
        p = rng.randint(1, 3)
        sizes = tuple(rng.randint(2, 4) for _ in range(p))
        degrees = tuple(rng.randint(1, 6) for _ in range(p))
        forms = [tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4)))
                       for _ in range(s))
                 for s in sizes]
        cases.append((sizes, degrees, forms, None, rng.choice((None, 3, 7))))
    for sizes, degrees, forms, exponents, modulus in cases:
        field = QQ if modulus is None else PrimeField(modulus)
        space = TensorSpace(sizes, degrees)
        got = power_and_product(space, forms, exponents, field)
        want = repeated_product_expansion(sizes, forms, exponents or degrees, modulus)
        assert got.terms == want, (sizes, degrees, forms, exponents, modulus)
        assert all(not field.is_zero(c) for c in got.terms.values())
        if modulus is None:
            assert all(type(c) is Fraction for c in got.terms.values())


def test_power_and_product_of_a_zero_form_is_zero():
    space = TensorSpace((2, 3), (2, 1))
    assert power_and_product(space, [(0, 0), (1, 2, 3)]) == MPoly.zero(space)
    assert power_and_product(space, [(0, 0), (1, 2, 3)], exponents=(0, 1)) == \
        MPoly(space, {(0, 0, 1, 0, 0): 1, (0, 0, 0, 1, 0): 2, (0, 0, 0, 0, 1): 3})


def test_power_and_product_validates_its_input():
    space = TensorSpace((2, 3), (2, 1))
    for forms, exponents in (([(1, 2)], None), ([(1, 2), (1, 2)], None),
                             ([(1, 2), (1, 2, 3)], (1,)), ([(1, 2), (1, 2, 3)], (-1, 1))):
        with pytest.raises(ValueError):
            power_and_product(space, forms, exponents)


def test_power_matches_repeated_products():
    # a linear form in one group is raised by the multinomial kernel: compare
    # with the oracle's repeated products; any other base, a single term
    # included, is squared repeatedly: compare with n plain multiplications
    rng = random.Random(13)
    for modulus in (None, 7, 1073741789):
        field = QQ if modulus is None else PrimeField(modulus)
        for _ in range(12):
            sizes = tuple(rng.randint(2, 4) for _ in range(rng.randint(1, 3)))
            space = TensorSpace(sizes, (1,) * len(sizes))
            n = rng.randint(0, 9)
            g = rng.randrange(len(sizes))
            forms = [[1] * size for size in sizes]
            forms[g] = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                        for _ in range(sizes[g])]
            start = space.group_slices[g].start
            linear = MPoly(space, {tuple(int(i == start + j) for i in range(space.nvars)): c
                                   for j, c in enumerate(forms[g])}, field)
            exponents = [0] * len(sizes)
            exponents[g] = n
            want = repeated_product_expansion(sizes, forms, exponents, modulus)
            assert (linear ** n).terms == want, (sizes, forms, n, modulus)

            other = MPoly(space, {tuple(rng.randint(0, 2) for _ in range(space.nvars)):
                                  rng.randint(-9, 9) for _ in range(rng.randint(2, 4))},
                          field)
            plain = MPoly(space, {(0,) * space.nvars: 1}, field)
            for _ in range(n):
                plain = plain * other
            assert (other ** n).terms == plain.terms, (sizes, other.terms, n, modulus)
