"""The mod-p route of every criterion over QQ against exact values.

Over QQ each criterion runs its checks mod a prime and keeps them only when
they are proven exact: Proposition 3.1 from the section's h points,
recovered mod p and checked over ZZ, Proposition 3.3 from the
decomposition's own terms, and Theorem 3.7 by the rank and emptiness of its
section.  What the first prime does not prove, each tries mod a second
prime, and what neither proves is Inconclusive.  No criterion has another
path, so the values of its checks are compared here with exact values the
tests compute themselves, from the flattening over QQ and the
classification of its section.
"""

import importlib
import random
import sys
from fractions import Fraction
from math import comb

import pytest

from tensorcert import (QQ, Decomposition, MPoly, PrimeField, RandomConfig,
                        SchemeReport, Split, TensorSpace, certify, certify_prop31,
                        classify_linear_section, flatten, image_span, monomial_basis,
                        pullback_linear_section, random_tensor)
from tensorcert.fields import DEFAULT_PRIME, primitive
from tensorcert.flatten import flattening_matrix, flattening_numerators
from tensorcert.linalg import DenseMatrix, row_space_basis

import oracles

ROUTE_PRIME = 2 ** 61 - 1
SECOND_PRIME = 2 ** 64 - 59
CERTIFY = importlib.import_module("tensorcert.certify")


def _witnessed(cert):
    return [c.name for c in cert.checks if c.detail and "witness_prime" in c.detail]


def _section_values(span, space, b):
    """The status and length check values of the section a span over QQ cuts."""
    report = classify_linear_section(pullback_linear_section(span, space, b))
    return [report.describe(),
            report.length if report.status == "ZeroDim" else report.describe()]


def _exact_values(T, h, split):
    """Proposition 3.1's values of checks i-iii over QQ, computed here from
    the rational flattening and the classification of its section."""
    fl = flatten(T, split)
    if fl.rank != h:
        return [fl.rank]
    return [fl.rank] + _section_values(image_span(fl), T.space, split.b)


def _exact_prop33_values(dec, split):
    """Proposition 3.3's values of checks i-ii and v over QQ: the rank and
    section status of the expansion's flattening, then, when that section
    is zero dimensional, the status and length of the terms' own span."""
    fl = flatten(dec.expand(), split)
    if fl.rank != dec.h:
        return [fl.rank]
    status = _section_values(image_span(fl), dec.space, split.b)[0]
    if not status.startswith("ZeroDim"):
        return [fl.rank, status]
    basis = monomial_basis(dec.space, dec.space.degrees)
    span = row_space_basis(DenseMatrix(QQ, [
        [dec.term_polynomial(i).terms.get(m, 0) for m in basis] for i in range(dec.h)]))
    return [fl.rank, status] + _section_values(span, dec.space, dec.space.degrees)


def _assert_exact(cert, target):
    """The values of the certificate's checks against ``_exact_values`` or
    ``_exact_prop33_values``; the arithmetic checks iii-iv of Proposition 3.3
    and a failed check saying what was not proven are left out."""
    values = [c.computed for c in cert.checks if c.computed != "unproven"
              and c.name not in ("iii_ambient_count", "iv_variety_degree")]
    if cert.criterion == "Prop33":
        assert values == _exact_prop33_values(target, cert.split)
        return
    T = target.expand() if isinstance(target, Decomposition) else target
    assert values == _exact_values(T, cert.h, cert.split)


def _unproven(cert):
    """Whether the certificate reports unproven values mod the first prime:
    each check names it and none is witnessed, and iv_decomposition_exists
    follows, failed, exactly when checks i-iii pass."""
    iv = ["iv_decomposition_exists"] if all(c.passed for c in cert.checks[:3]) else []
    return (not cert.certified and not _witnessed(cert)
            and all(c.detail["prime"] == ROUTE_PRIME for c in cert.checks)
            and [c.name for c in cert.checks[3:]] == iv)


def _space(sizes, degrees):
    return TensorSpace(sizes, degrees)


def _first_six(seed):
    # paper 1b: the first six terms of 1a's seven
    space = _space((3,), (5,))
    _, dec = random_tensor(space, 7, RandomConfig(seed=seed))
    return Decomposition(space, dec.terms[:6]).expand(), 6


def _tensor(sizes, degrees, rank, h):
    def build(seed):
        return random_tensor(_space(sizes, degrees), rank, RandomConfig(seed=seed))[0], h
    return build


def _decomposition(sizes, degrees, h):
    def build(seed):
        return random_tensor(_space(sizes, degrees), h, RandomConfig(seed=seed))[1], None
    return build


@pytest.mark.parametrize("build,seeds,witnessed", [
    (_first_six, (1, 2), ["ii_section_dimension"]),
    (_tensor((2, 5, 4), (3, 2, 3), 5, 5), (1, 2), ["ii_section_dimension"]),
    (_decomposition((4,), (4,), 7), (1, 2, 3),
     ["ii_section_dimension", "v_span_section_dimension"]),
    (_decomposition((3,), (6,), 8), (1, 2, 3),
     ["ii_section_dimension", "v_span_section_dimension"]),
    (_tensor((6,), (4,), 13, 13), (1,), ["ii_section_dimension"]),
    (_tensor((4,), (6,), 11, 10), (1,), ["ii_section_dimension"]),
], ids=["1b", "1c", "1d", "1e", "6-4-h13", "groebner-control"])
def test_route_matches_exact_path(build, seeds, witnessed):
    # the control fails ii with Empty by rule (a); the others certify by
    # (b), Proposition 3.3's checks i-ii with the length of check iv
    for seed in seeds:
        target, h = build(seed)
        cert = certify(target, h)
        assert _witnessed(cert) == witnessed
        _assert_exact(cert, target)


@pytest.mark.parametrize("build", [
    _decomposition((4,), (4,), 7), _decomposition((3,), (6,), 8),
], ids=["1d", "1e"])
def test_term_span_is_proven_without_a_span_check(monkeypatch, build):
    # check v's span is the terms' own vectors, independent mod p as its rank
    # is h, so rule (b) holds by construction: no span check, and no second
    # expansion of the terms (one for the tensor, one for check v's span)
    dec, _ = build(1)
    expanded = []

    def counted(*args, **kwargs):
        expanded.append(args[1])
        return real(*args, **kwargs)

    def refused(*args):
        raise AssertionError("the identity was checked on a span built from its own points")

    real = CERTIFY.rank_one_numerators
    with monkeypatch.context() as m:
        m.setattr(CERTIFY, "_rebuilds", refused)
        m.setattr(CERTIFY, "rank_one_numerators", counted)
        cert = certify(dec)
    assert cert.certified
    assert _witnessed(cert) == ["ii_section_dimension", "v_span_section_dimension"]
    assert expanded == 2 * list(dec.terms)
    _assert_exact(cert, dec)


@pytest.mark.parametrize("sizes,degrees,h", [
    ((3,), (5,), 6), ((2, 5, 4), (3, 2, 3), 5), ((6,), (4,), 13),
], ids=["3-5-h6", "1c", "6-4-h13"])
def test_points_are_the_terms_and_zeros_of_the_exact_generators(sizes, degrees, h):
    T, dec = random_tensor(_space(sizes, degrees), h, RandomConfig(seed=1))
    cert = certify(T, h)
    section = cert.checks[1]
    assert section.detail["witness_prime"] == ROUTE_PRIME
    # the terms T was built from, each a primitive vector per group with a
    # positive first nonzero entry
    points = section.detail["points"]
    assert points == sorted([_normalized(form) for form in term] for term in dec.terms)
    generators = pullback_linear_section(flatten(T, cert.split).span, T.space,
                                         cert.split.b).generators
    assert generators
    for g in generators:
        for point in points:
            assert oracles.evaluate(g.terms, point) == 0


def _normalized(form):
    form = primitive([int(x) for x in form])
    sign = -1 if next(x for x in form if x) < 0 else 1
    return [sign * x for x in form]


def test_denominator_divisible_by_the_primes_keeps_the_first_prime():
    # the route reduces T times its common denominator, so a denominator
    # divisible by the first prime, or by both, does not stand in its way
    for build, den in [(_first_six, ROUTE_PRIME),
                       (_tensor((3,), (5,), 6, 6), ROUTE_PRIME * SECOND_PRIME)]:
        T, h = build(1)
        F = T.scale(Fraction(1, den))
        cert = certify(F, h)
        assert cert.certified and _witnessed(cert) == ["ii_section_dimension"]
        assert cert.checks[1].detail["witness_prime"] == ROUTE_PRIME
        _assert_exact(cert, F)


def test_term_carrying_the_prime_runs_the_second_prime():
    # mod the first prime the tensor has rank 5, so the rank check fails
    # there only
    _, dec = random_tensor(_space((3,), (5,)), 6, RandomConfig(seed=1))
    F = Decomposition(dec.space, dec.terms, [1] * 5 + [ROUTE_PRIME]).expand()
    cert = certify(F, 6)
    assert cert.certified and _witnessed(cert) == ["ii_section_dimension"]
    assert cert.checks[1].detail["witness_prime"] == SECOND_PRIME
    _assert_exact(cert, F)


def test_term_vanishing_mod_the_prime_runs_the_second_prime():
    # one term's form carries the factor p: the flattening and the term
    # vectors lose rank mod p, so checks i-ii and v are proven mod the
    # second prime
    _, dec = random_tensor(_space((4,), (4,)), 7, RandomConfig(seed=1))
    first = tuple(tuple(ROUTE_PRIME * x for x in form) for form in dec.terms[0])
    scaled = Decomposition(dec.space, (first,) + dec.terms[1:])
    cert = certify(scaled)
    assert cert.certified and cert.criterion == "Prop33"
    witnessed = ["ii_section_dimension", "v_span_section_dimension"]
    assert _witnessed(cert) == witnessed
    assert all(c.detail["witness_prime"] == SECOND_PRIME
               for c in cert.checks if c.name in witnessed)
    _assert_exact(cert, scaled)


def test_conjugate_points_prove_no_decomposition():
    # 11 rational terms plus (l + sqrt2 m)^4 + (l - sqrt2 m)^4: the section's
    # 13 points split mod p (2 is a square mod 2^61 - 1), but two of them
    # have no rational coordinates, so neither prime proves a decomposition
    # over QQ, and the checks that pass over QQ are not enough
    space = _space((6,), (4,))
    T11, _ = random_tensor(space, 11, RandomConfig(seed=5))
    rng = random.Random(5)
    l, m = ([rng.randint(-50, 50) for _ in range(6)] for _ in range(2))

    def form(coeffs):
        return MPoly(space, {tuple(int(i == j) for j in range(6)): c
                             for i, c in enumerate(coeffs) if c})

    L, M = form(l), form(m)
    pair = (L ** 4 + (L ** 2 * M ** 2).scale(12) + (M ** 4).scale(4)).scale(2)
    cert = certify(T11 + pair, 13)
    assert _unproven(cert)
    assert [c.computed for c in cert.checks] == [13, "ZeroDim(13)", 13, "unproven"]
    _assert_exact(cert, T11 + pair)


def test_section_longer_than_h_is_unproven():
    # Proposition 3.1 forced on 1d's tensor: rank 7, but the section is
    # ZeroDim(8), which mod p proves only a bound; the test runs the exact
    # path itself
    T, _ = random_tensor(_space((4,), (4,)), 7, RandomConfig(seed=1))
    cert = certify(T, 7, criterion="prop31")
    assert [c.computed for c in cert.checks] == [7, "ZeroDim(8)", 8]
    assert _unproven(cert)
    _assert_exact(cert, T)


def test_empty_section_below_full_row_rank_is_unproven():
    # 20 sixth powers of points on the quadric x0 x1 = x2 x3: Q(d) F = 0 for
    # the dual quadric, so the 10-row flattening has rank 9 = h, and the
    # section is Empty.  Rank 9 < 10 rows mod p proves no rank over QQ; the
    # test runs the exact path itself.
    rng = random.Random(7)
    terms = []
    for _ in range(20):
        a, c, d = (rng.choice([-1, 1]) * rng.randint(1, 50) for _ in range(3))
        terms.append(((a * a, c * d, a * c, a * d),))
    F = Decomposition(_space((4,), (6,)), terms).expand()
    cert = certify(F, 9)
    assert [c.computed for c in cert.checks] == [9, "Empty", "Empty"]
    assert _unproven(cert)
    _assert_exact(cert, F)


@pytest.mark.parametrize("sizes,degrees,h,g", [
    ((3,), (5,), 6, 0), ((2, 2, 2), (2, 2, 2), 3, 0), ((2, 2, 2), (2, 2, 2), 3, 2),
], ids=["3-5-h6", "2-2-2-h3-group1", "2-2-2-h3-group3"])
def test_term_at_infinity_keeps_its_verdict(sizes, degrees, h, g):
    # one term on x_{g,0} = 0 puts a section point outside the first chart,
    # so the section is decided in a random chart mod p, whose points the
    # route recovers and moves back; the exact path gives the same values
    space = _space(sizes, degrees)
    _, dec = random_tensor(space, h, RandomConfig(seed=1))
    first = list(dec.terms[0])
    first[g] = (0,) + first[g][1:]
    dec = Decomposition(space, [tuple(first)] + list(dec.terms[1:]))
    cert = certify(dec)
    assert cert.certified and cert.criterion == "Prop31"
    assert _witnessed(cert) == ["ii_section_dimension"]
    assert cert.checks[1].detail["method"] == "affine-chart"
    assert cert.checks[1].detail["note"].startswith("chart 1:")
    _assert_exact(cert, dec)


def test_perturbed_point_is_rejected(monkeypatch):
    # at both primes
    T, h = _first_six(1)
    real = CERTIFY.rational_points

    def perturbed(basis, count):
        points = real(basis, count)
        first = (tuple(x + (i == 0) for i, x in enumerate(points[0][0])),)
        return [first] + points[1:]

    with monkeypatch.context() as m:
        m.setattr(CERTIFY, "rational_points", perturbed)
        cert = certify(T, h)
    assert _unproven(cert)
    _assert_exact(cert, T)


@pytest.mark.parametrize("build", [
    _first_six, _tensor((2, 5, 4), (3, 2, 3), 5, 5),
], ids=["1b", "1c"])
def test_wrong_lambda_is_rejected(monkeypatch, build):
    # [V | T] with T's entry on the first monomial changed by the lift's
    # prime: the same matrix mod p, so the lift runs, and the lambda that
    # solves the pivot rows fails T = sum lambda_i l_i^d on some row; only
    # the lift's check over ZZ on every row rejects it
    T, h = build(1)
    real = CERTIFY.lifted_kernel

    def changed(matrix):
        rows = [list(row) for row in matrix.rows]
        rows[0][-1] += DEFAULT_PRIME
        return real(DenseMatrix(matrix.field, rows))

    with monkeypatch.context() as m:
        m.setattr(CERTIFY, "lifted_kernel", changed)
        cert = certify(T, h)
    assert _unproven(cert)
    _assert_exact(cert, T)


@pytest.mark.parametrize("build", [
    _first_six, _tensor((2, 5, 4), (3, 2, 3), 5, 5),
], ids=["1b", "1c"])
def test_route_builds_no_integer_cells(monkeypatch, build):
    # the points prove rule (b) from T itself, with no flattening over QQ
    flat = importlib.import_module("tensorcert.flatten")
    real = flat.flattening_numerators

    def refused(T, split):
        if T.field == QQ:
            raise AssertionError("the flattening's integer cells were built over QQ")
        return real(T, split)

    T, h = build(1)
    monkeypatch.setattr(flat, "flattening_numerators", refused)
    cert = certify(T, h)
    assert cert.certified and _witnessed(cert) == ["ii_section_dimension"]


def _content_heavy(seed):
    # 3-5-h6 with each form times g_i near 2^20: the recovered points are
    # primitive, so lambda_i = g_i^5 near 2^100, far past 2^30, the bound of
    # Wang's reconstruction mod 2^61 - 1
    space = _space((3,), (5,))
    _, dec = random_tensor(space, 6, RandomConfig(seed=seed))
    rng = random.Random(seed)
    terms = []
    for term in dec.terms:
        g = 2 ** 20 + rng.randrange(2 ** 10)
        terms.append(tuple(tuple(g * x for x in form) for form in term))
    return Decomposition(space, terms).expand(), 6


def _first_six_scaled(seed):
    T, h = _first_six(seed)
    return T.scale(Fraction(3, 7)), h


@pytest.mark.parametrize("build", [_content_heavy, _first_six_scaled],
                         ids=["content-2^20", "1b-times-3/7"])
def test_large_lambda_is_solved_exactly(build):
    T, h = build(1)
    cert = certify(T, h)
    assert cert.certified and _witnessed(cert) == ["ii_section_dimension"]
    _assert_exact(cert, T)


@pytest.mark.parametrize("length,extra,proven", [
    (6, False, True), (7, False, False), (7, True, False), (5, False, False),
], ids=["ZeroDim(h)", "ZeroDim(h+1)", "ZeroDim(h+1)-with-h+1-points", "ZeroDim(h-1)"])
def test_section_proof_needs_length_h(length, extra, proven):
    # the rule itself, on 3-5-h6's tensor and its own terms: a mod-p length
    # other than h proves nothing, even with verified points, h + 1 of them
    # included (the extra one is off the section)
    T, dec = random_tensor(_space((3,), (5,)), 6, RandomConfig(seed=1))
    points = list(dec.terms) + ([((1, 2, 3),)] if extra else [])
    report = SchemeReport("ZeroDim", length=length)
    proof = CERTIFY._section_proof(6, 6, report, field=CERTIFY._POINTS_FIELD, h=6,
                                   tensor=T, points=points)
    assert proof == ({"witness_prime": ROUTE_PRIME} if proven else None)


@pytest.mark.parametrize("rank,length,proven", [
    (7, 8, True), (6, 8, False), (7, 7, False), (7, 9, False),
], ids=["rank-h-ZeroDim(degree)", "rank-h-1", "ZeroDim(h)", "ZeroDim(degree+1)"])
def test_prop33_section_proof_needs_rank_h_and_the_degree(rank, length, proven):
    # the rule for Proposition 3.3's checks i-ii, on 1d's 10-row flattening
    # and its own terms: it proves ZeroDim(8), check iv's degree, only from
    # rank h and that length mod p
    _, dec = random_tensor(_space((4,), (4,)), 7, RandomConfig(seed=1))
    degree = CERTIFY.segre_veronese_degree((3,), (2,))
    assert degree == 8
    report = SchemeReport("ZeroDim", length=length)
    proof = CERTIFY._section_proof(rank, 10, report, field=CERTIFY._POINTS_FIELD, h=7,
                                   points=dec.terms, length=degree)
    assert proof == ({"witness_prime": ROUTE_PRIME} if proven else None)


def test_rebuilds():
    T, dec = random_tensor(_space((3,), (5,)), 6, RandomConfig(seed=1))
    terms = list(dec.terms)
    assert CERTIFY._rebuilds(T, terms)
    first = (tuple(x + (i == 0) for i, x in enumerate(terms[0][0])),)
    assert not CERTIFY._rebuilds(T, [first] + terms[1:])
    assert not CERTIFY._rebuilds(T, terms[1:])
    # a change by the lift's prime leaves [V | T] the same mod p, so only the
    # check over ZZ rejects it, wherever the changed monomial is
    for m in monomial_basis(T.space, T.space.degrees):
        changed = dict(T.terms)
        changed[m] = changed.get(m, 0) + DEFAULT_PRIME
        assert not CERTIFY._rebuilds(MPoly(T.space, changed), terms)


def test_rebuilds_mod_p():
    # over F_p the identity is checked mod p, on residue points
    field = PrimeField(DEFAULT_PRIME)
    T, dec = random_tensor(_space((3,), (5,)), 6, RandomConfig(seed=1, field=field))
    terms = list(dec.terms)
    assert CERTIFY._rebuilds(T, terms)
    first = (tuple(field(x + (i == 0)) for i, x in enumerate(terms[0][0])),)
    assert not CERTIFY._rebuilds(T, [first] + terms[1:])
    assert not CERTIFY._rebuilds(T, terms[1:])


def test_flattening_numerators_over_the_common_denominator():
    space = _space((2, 3), (2, 2))
    rng = random.Random(3)
    T = MPoly(space, {m: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                      for m in monomial_basis(space, (2, 2))})
    split = Split.of(space, (1, 1))
    rows, den = flattening_numerators(T, split)
    assert [[Fraction(x, den) for x in row] for row in rows] == \
        [list(row) for row in flattening_matrix(T, split).rows]


def _refuse_rational(monkeypatch):
    """Make a rational rref, a Groebner basis over QQ, the binary gcd over
    ZZ, or a lifted kernel anywhere but in ``_rebuilds`` fail the test."""
    linalg = importlib.import_module("tensorcert.linalg")
    ideals = importlib.import_module("tensorcert.ideals")
    real_engine, real_lift = ideals._Engine, CERTIFY.lifted_kernel

    def refused(what):
        def refuse(*args):
            raise AssertionError(f"{what} ran")
        return refuse

    def engine(space, field, budget):
        if field.modulus is None:
            raise AssertionError("a Groebner basis over QQ ran")
        return real_engine(space, field, budget)

    def lift(matrix):
        assert sys._getframe(1).f_code.co_name == "_rebuilds"
        return real_lift(matrix)

    monkeypatch.setattr(linalg, "_rref_rational", refused("a rational rref"))
    monkeypatch.setattr(ideals, "_gcd_int_poly", refused("a gcd over ZZ"))
    monkeypatch.setattr(ideals, "_Engine", engine)
    monkeypatch.setattr(CERTIFY, "lifted_kernel", lift)


def test_prop31_runs_no_rational_elimination_or_groebner_basis(monkeypatch):
    # one route: certified tensors, binary ones included, tangential
    # controls, both unlucky primes, a rule (a) control and budget 0 run no
    # rational rref and no Buchberger over QQ
    _, dec = random_tensor(_space((3,), (5,)), 6, RandomConfig(seed=1))
    x8y = MPoly(_space((2,), (9,)), {(8, 1): 1})
    x5y_z6 = MPoly(_space((3,), (6,)), {(5, 1, 0): 1, (0, 0, 6): 1})
    cases = [
        (*_first_six(1), True, None),
        (*_tensor((2, 5, 4), (3, 2, 3), 5, 5)(1), True, None),
        (*_tensor((2,), (7,), 3, 3)(1), True, None),
        (*_tensor((2,), (40,), 15, 15)(1), True, None),
        (random_tensor(_space((3,), (5,)), 6,
                       RandomConfig(seed=1, field=PrimeField(DEFAULT_PRIME)))[0], 6, True, None),
        (_first_six(1)[0].scale(Fraction(1, ROUTE_PRIME)), 6, True, None),
        (Decomposition(dec.space, dec.terms, [1] * 5 + [ROUTE_PRIME]).expand(), 6, True, None),
        (x8y, 2, False, None),
        (x5y_z6, 3, False, None),
        (*_tensor((4,), (6,), 11, 10)(1), False, None),
        (*_first_six(1), False, 0),
    ]
    _refuse_rational(monkeypatch)
    for T, h, certified, budget in cases:
        cert = certify_prop31(T, h, budget=budget)
        assert cert.certified is certified, (T.space, h)
        assert cert.budget_exhausted is (budget == 0)


def _sqrt2_conjugate_form():
    # 13 rational terms plus (x + sqrt2 y)^31 + (x - sqrt2 y)^31 at h = 16:
    # full rank, and a section of 15 points, two of them irrational
    space = _space((2,), (31,))
    conjugate = MPoly(space, {(31 - k, k): 2 * comb(31, k) * 2 ** (k // 2)
                              for k in range(0, 32, 2)})
    return random_tensor(space, 13, RandomConfig(seed=43))[0] + conjugate


def _thm37_cases():
    """(form, h, certified): positives of every family, forms below full
    rank, full-rank forms with a non-empty section, forms whose terms carry
    the first prime, and the sqrt2-conjugate form."""
    families = [((2,), (9,), 5), ((2,), (15,), 8), ((2,), (31,), 16), ((3,), (5,), 7),
                ((4,), (3,), 5)]
    cases = [(_tensor(sizes, degrees, h, h)(21)[0], h, True)
             for sizes, degrees, h in families]
    for (sizes, degrees, h), ranks in zip(families, [(2, 3, 4), (5, 6, 7), (13, 14, 15),
                                                      (5, 6), (3, 4)]):
        cases += [(_tensor(sizes, degrees, rank, h)(seed)[0], h, False)
                  for rank in ranks for seed in (31, 32, 33)]
    for sizes, degrees, h, lost in [((2,), (9,), 5, 1), ((2,), (9,), 5, 2),
                                    ((3,), (5,), 7, 1), ((4,), (3,), 5, 1)]:
        _, dec = random_tensor(_space(sizes, degrees), h, RandomConfig(seed=24))
        lambdas = [1] * (h - lost) + [DEFAULT_PRIME] * lost
        cases.append((Decomposition(dec.space, dec.terms, lambdas).expand(), h, True))
    return cases + [(_sqrt2_conjugate_form(), 16, False)]


def test_thm37_runs_no_rational_elimination_or_groebner_basis(monkeypatch):
    cases = _thm37_cases()
    _refuse_rational(monkeypatch)
    for F, h, certified in cases:
        cert = certify(F, h)
        assert cert.criterion == "Thm37" and cert.certified is certified, (F.space, h)


def test_prop33_runs_no_rational_elimination_or_groebner_basis(monkeypatch):
    # 1d and 1e at seeds 1-3, a decomposition over F_p, and Proposition 3.3
    # forced on a binary decomposition, whose sections are binary
    decs = [_decomposition(sizes, degrees, h)(seed)[0]
            for sizes, degrees, h in [((4,), (4,), 7), ((3,), (6,), 8)]
            for seed in (1, 2, 3)]
    decs.append(random_tensor(_space((4,), (4,)), 7, RandomConfig(
        seed=1, field=PrimeField(DEFAULT_PRIME)))[1])
    binary = _decomposition((2,), (7,), 3)(1)[0]
    _refuse_rational(monkeypatch)
    for dec in decs:
        cert = certify(dec)
        assert cert.criterion == "Prop33" and cert.certified, dec.space
    cert = certify(binary, criterion="prop33")
    assert cert.certified
    assert _witnessed(cert) == ["ii_section_dimension", "v_span_section_dimension"]
