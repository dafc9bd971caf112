import hashlib
import importlib
import json
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from tensorcert import (DEFAULT_PRIME, Decomposition, MPoly, PrimeField, QQ,
                        RandomConfig, Split, SplitError,
                        TensorSpace, certify, certify_prop31, certify_prop33,
                        certify_thm37, corollary35_bound, default_split,
                        effective_range, field_from_spec, flatten, image_span,
                        random_tensor, segre_veronese_degree, thm37_family)

import oracles
from conftest import random_form
from tensorcert.cli import parse_polynomial
from tensorcert.flatten import flattening_matrix
from tensorcert.ideals import classify_linear_section, pullback_linear_section
from tensorcert.linalg import lifted_kernel

#: the first prime of Propositions 3.1 and 3.3 over QQ, and Theorem 3.7's second
ROUTE_PRIME = 2 ** 61 - 1
#: the second prime of Propositions 3.1 and 3.3
SECOND_PRIME = 2 ** 64 - 59


# ---------------------------------------------------------------------------
# numeric ranges


def test_effective_range_examples():
    quintics = TensorSpace((3,), (5,))
    assert effective_range(quintics, Split.of(quintics, (2,)), 6)  # 10 > 8
    mixed = TensorSpace((2, 5, 4), (3, 2, 3))
    assert effective_range(mixed, Split.of(mixed, (2, 1, 2)), 5)   # 40 > 13
    quartics = TensorSpace((3,), (4,))
    assert not effective_range(quartics, Split.of(quartics, (2,)), 8)  # 6 > 10 fails


def test_effective_range_against_independent_formula():
    rng = random.Random(30)
    for _ in range(20):
        p = rng.randint(1, 3)
        sizes = tuple(rng.randint(2, 5) for _ in range(p))
        degrees = tuple(rng.randint(1, 4) for _ in range(p))
        space = TensorSpace(sizes, degrees)
        a = tuple(rng.randint(0, d) for d in degrees)
        split = Split.of(space, a)
        h = rng.randint(1, 12)
        assert effective_range(space, split, h) == \
            oracles.effective_range_independent(sizes, split.b, h)


def test_corollary35_examples():
    assert corollary35_bound("segre", n=3, factors=4) == 5
    assert corollary35_bound("unbalanced-segre", dims=(50, 3, 3)) == 5
    # p = 1, degree 1 gives m_1 = 0: the degenerate guard bound h < 2 - n
    assert corollary35_bound("mixed-symmetric", n=2, degrees=(1,)) == 0
    assert 4 < corollary35_bound("segre", n=3, factors=4)
    assert not 5 < corollary35_bound("segre", n=3, factors=4)


def test_corollary35_unbalanced_precondition():
    with pytest.raises(ValueError, match="unbalanced"):
        corollary35_bound("unbalanced-segre", dims=(3, 3, 3))


def test_corollary35_against_independent_formula():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(2, 6)
        degrees = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
        assert corollary35_bound("mixed-symmetric", n=n, degrees=degrees) == \
            oracles.cor35_bound_independent("mixed-symmetric", n=n, degrees=degrees)
        assert corollary35_bound("skew", n=n + 4, degrees=degrees) == \
            oracles.cor35_bound_independent("skew", n=n + 4, degrees=degrees)
        factors = rng.randint(2, 6)
        assert corollary35_bound("segre", n=n, factors=factors) == \
            oracles.cor35_bound_independent("segre", n=n, factors=factors)
        rest = tuple(rng.randint(2, 4) for _ in range(rng.randint(2, 4)))
        bound = oracles.cor35_bound_independent("unbalanced-segre", dims=(0,) + rest)
        dims = (bound + 2,) + rest   # satisfy the unbalancedness precondition
        assert corollary35_bound("unbalanced-segre", dims=dims) == bound


def test_segre_veronese_degree():
    # quadric Veronese surface in P5 has degree 4
    assert segre_veronese_degree((2,), (2,)) == 4
    # Segre of P1 x P1 is the quadric surface, degree 2
    assert segre_veronese_degree((1, 1), (1, 1)) == 2
    assert segre_veronese_degree((1,), (5,)) == 5


# ---------------------------------------------------------------------------
# Proposition 3.1


def test_prop31_rank_one():
    space = TensorSpace((3,), (5,))
    F = MPoly(space, {(5, 0, 0): 1})
    cert = certify_prop31(F, 1)
    assert cert.certified
    assert cert.split.s == 0


def test_prop31_six_quintics():
    space = TensorSpace((3,), (5,))
    _, dec = random_tensor(space, 6, RandomConfig(seed=1))
    cert = certify_prop31(dec.expand(), 6)
    assert cert.certified
    assert cert.effective
    assert [c.name for c in cert.checks] == [
        "i_flattening_rank", "ii_section_dimension", "iii_section_length"]


def test_prop31_rank_deficient_inconclusive():
    space = TensorSpace((3,), (5,))
    T, _ = random_tensor(space, 3, RandomConfig(seed=2))
    cert = certify_prop31(T, 6)
    assert not cert.certified
    assert cert.checks[0].name == "i_flattening_rank"
    assert cert.checks[0].computed == 3
    assert not cert.checks[0].passed
    assert len(cert.checks) == 1  # classification skipped


def test_prop31_mixed_tensor():
    space = TensorSpace((2, 5, 4), (3, 2, 3))
    T, _ = random_tensor(space, 5, RandomConfig(seed=3))
    cert = certify_prop31(T, 5)
    assert cert.certified
    assert cert.split.a == (2, 1, 2)


def test_prop31_no_split():
    space = TensorSpace((2,), (3,))
    F = MPoly(space, {(3, 0): 1})
    with pytest.raises(SplitError):
        certify_prop31(F, 5)


def test_prop31_verdict_iff_all_checks():
    space = TensorSpace((3,), (4,))
    for seed in range(6):
        h = 2 + seed % 3
        T, _ = random_tensor(space, h, RandomConfig(seed=seed))
        cert = certify_prop31(T, h)
        assert cert.certified == all(c.passed for c in cert.checks)


@pytest.mark.parametrize("sizes,degrees,h,criterion", [
    ((3,), (5,), 6, "Prop31"), ((2, 5, 4), (3, 2, 3), 5, "Prop31"),
    ((3,), (5,), 7, "Thm37"), ((3,), (4,), 5, None)])
def test_tensor_off_the_space_multidegree_raises(sizes, degrees, h, criterion):
    # a term of lower degree is named, by every criterion, out of their
    # range, and when its coefficient vanishes mod the first prime
    space = TensorSpace(sizes, degrees)
    T, _ = random_tensor(space, h, RandomConfig(seed=1))
    assert certify(T, h).criterion == criterion
    low = (degrees[0] - 1,) + (0,) * (sum(sizes) - 1)
    for c in (1, ROUTE_PRIME, DEFAULT_PRIME):
        stray = MPoly(space, {**T.terms, low: QQ(c)})
        with pytest.raises(ValueError, match=r"monomial x1_0\^\d+ has multidegree"):
            certify(stray, h)
    with pytest.raises(ValueError, match=r"monomial x1_0\^\d+ has multidegree"):
        flatten(MPoly(space, {**T.terms, low: QQ(1)}), default_split(space, min(h, 6)))


# ---------------------------------------------------------------------------
# Proposition 3.3


def test_prop33_seven_quartics():
    space = TensorSpace((4,), (4,))
    _, dec = random_tensor(space, 7, RandomConfig(seed=4))
    cert = certify_prop33(dec)
    assert cert.certified
    assert cert.split.s == 2
    by_name = {c.name: c for c in cert.checks}
    assert by_name["iii_ambient_count"].computed == 10 == 7 + 3
    assert by_name["iv_variety_degree"].computed == 8 <= 8


def test_prop33_eight_sextics():
    space = TensorSpace((3,), (6,))
    _, dec = random_tensor(space, 8, RandomConfig(seed=5))
    cert = certify_prop33(dec)
    assert cert.certified
    assert cert.split.s == 3
    by_name = {c.name: c for c in cert.checks}
    assert by_name["iii_ambient_count"].computed == 10 == 8 + 2
    assert by_name["iv_variety_degree"].computed == 9


def test_prop33_count_mismatch_named():
    # binary quartics, h = 3: dim V_B = h + n = 4 needs s = 1, but then
    # dim V_A = 2 < 3; no admissible split satisfies the count
    space = TensorSpace((2,), (4,))
    _, dec = random_tensor(space, 3, RandomConfig(seed=6))
    cert = certify_prop33(dec)
    assert not cert.certified
    assert cert.checks[0].name == "iii_ambient_count"
    assert not cert.checks[0].passed
    assert "iii" in cert.reason


def test_prop33_count_without_the_degree_bound():
    # 11 quartic powers in 5 variables: the split (2, 2) meets the count
    # dim V_B = 15 = h + n, but the degree 2^4 = 16 passes h + 1 = 12
    _, dec = _random((5,), (4,), 11, 1)
    cert = certify(dec)
    assert cert.criterion == "Prop33" and not cert.effective
    assert cert.split.a == (2,)
    assert [(c.name, c.computed, c.required, c.passed) for c in cert.checks] == [
        ("iii_ambient_count", 15, 15, True), ("iv_variety_degree", 16, "<= 12", False)]
    assert cert.reason == "failed checks: iv_variety_degree"


def test_prop33_term_order_invariance():
    space = TensorSpace((3,), (6,))
    _, dec = random_tensor(space, 8, RandomConfig(seed=7))
    shuffled = Decomposition(space, dec.terms[::-1])
    c1 = certify_prop33(dec)
    c2 = certify_prop33(shuffled)
    assert c1.verdict == c2.verdict
    assert [(c.name, c.passed) for c in c1.checks] == \
        [(c.name, c.passed) for c in c2.checks]


# ---------------------------------------------------------------------------
# Theorem 3.7


def test_thm37_families():
    assert thm37_family(TensorSpace((2,), (9,)), 5) == (1, 9, 5, 3)
    assert thm37_family(TensorSpace((3,), (5,)), 7) == (2, 5, 7, 2)
    assert thm37_family(TensorSpace((4,), (3,)), 5) == (3, 3, 5, 1)
    assert thm37_family(TensorSpace((3,), (4,)), 5) is None
    assert thm37_family(TensorSpace((2,), (9,)), 4) is None


def test_thm37_seven_quintics():
    space = TensorSpace((3,), (5,))
    T, _ = random_tensor(space, 7, RandomConfig(seed=8))
    cert = certify_thm37(T, 7)
    assert cert.certified
    assert cert.family == (2, 5, 7, 2)
    assert cert.effective


def test_thm37_binary_degree_69_uses_gcd():
    rng = random.Random(9)
    space = TensorSpace((2,), (69,))
    F = random_form(space, 69, rng, bound=1 << 15)
    cert = certify_thm37(F, 35)
    assert cert.certified
    assert cert.checks[1].detail["method"] == "binary-gcd"


def test_thm37_cubic_four_variables():
    space = TensorSpace((4,), (3,))
    T, _ = random_tensor(space, 5, RandomConfig(seed=10))
    cert = certify_thm37(T, 5)
    assert cert.certified


def test_thm37_rejects_wrong_family():
    space = TensorSpace((3,), (4,))
    T, _ = random_tensor(space, 5, RandomConfig(seed=11))
    with pytest.raises(ValueError, match="families"):
        certify_thm37(T, 5)


def test_thm37_concrete_quintic_vs_sylvester():
    # x0^5 + x1^5 + (x0+x1)^5: rank 3 with three distinct roots
    space = TensorSpace((2,), (5,))
    dec = Decomposition(space, [((1, 0),), ((0, 1),), ((1, 1),)])
    F = dec.expand()
    cert = certify_thm37(F, 3)
    assert cert.certified
    coeffs = [0] * 6
    for (i, _), c in F.terms.items():
        coeffs[i] = int(c)
    assert oracles.sylvester_unique(coeffs, 3)


def test_thm37_matches_sylvester_on_random_binary_forms():
    rng = random.Random(12)
    for d in (5, 7, 9, 11):
        h = (d + 1) // 2
        space = TensorSpace((2,), (d,))
        for _ in range(20):
            F = random_form(space, d, rng, bound=100)
            coeffs = [0] * (d + 1)
            for (i, _), c in F.terms.items():
                coeffs[i] = int(c)
            assert certify_thm37(F, h).certified == oracles.sylvester_unique(coeffs, h)


# ---------------------------------------------------------------------------
# Theorem 3.7: the mod-p route against exact values


def _exact_thm37(F, h):
    """Theorem 3.7's values of checks a-b over F's field, computed here from
    its own flattening and the classification of that flattening's section."""
    split = Split.of(F.space, (thm37_family(F.space, h)[3],))
    fl = flatten(F, split)
    if fl.rank != fl.matrix.nrows:
        return [fl.rank]
    report = classify_linear_section(pullback_linear_section(image_span(fl), F.space, split.b))
    return [fl.rank, report.describe()]


def _values(cert):
    return [c.computed for c in cert.checks]


def _full_view(cert):
    return (cert.verdict, cert.reason, cert.field_mode, cert.prime,
            [(c.name, c.computed, c.required, c.passed, c.detail)
             for c in cert.checks])


def _unproven_mod(cert, prime):
    """Whether every check names ``prime`` and none is witnessed."""
    return all(c.detail["prime"] == prime and "witness_prime" not in c.detail
               for c in cert.checks)


@pytest.mark.parametrize("sizes,degrees,h", [
    ((2,), (9,), 5), ((2,), (31,), 16), ((3,), (5,), 7), ((4,), (3,), 5),
], ids=["binary-9", "binary-31", "ternary-quintic", "quaternary-cubic"])
def test_thm37_witness_agrees_with_exact_path(sizes, degrees, h):
    for seed in (21, 22):
        T, _ = random_tensor(TensorSpace(sizes, degrees), h, RandomConfig(seed=seed))
        cert = certify_thm37(T, h)
        assert cert.certified
        assert _values(cert) == _exact_thm37(T, h)
        assert cert.checks[1].detail["witness_prime"] == DEFAULT_PRIME
        assert (cert.field_mode, cert.prime) == ("exact", None)


@pytest.mark.parametrize("sizes,degrees,h", [
    ((2,), (9,), 5), ((3,), (5,), 7),
], ids=["binary-9", "ternary-quintic"])
def test_thm37_witness_is_kept_only_by_section_proof(monkeypatch, sizes, degrees, h):
    # a pass mod p proves nothing unless _section_proof keeps it: without the
    # rule both checks pass at both primes, and b_section_proven fails
    monkeypatch.setattr(importlib.import_module("tensorcert.certify"), "_section_proof",
                        lambda *args, **kwargs: None)
    for seed in (21, 22):
        T, _ = random_tensor(TensorSpace(sizes, degrees), h, RandomConfig(seed=seed))
        cert = certify_thm37(T, h)
        assert cert.reason == "failed checks: b_section_proven"
        assert _values(cert) == _exact_thm37(T, h) + ["unproven"]
        assert _unproven_mod(cert, DEFAULT_PRIME)


@pytest.mark.parametrize("sizes,degrees,h,rank,failed", [
    ((2,), (9,), 5, 3, "a_derivative_span_rank"),
    ((2,), (9,), 5, 4, "b_section_empty"),
    ((3,), (5,), 7, 6, "b_section_empty"),
    ((4,), (3,), 5, 4, "b_section_empty"),
], ids=["binary-rank-h-2", "binary-rank-h-1", "ternary-quintic-rank-6",
        "quaternary-cubic-rank-4"])
def test_thm37_witness_never_certifies_a_failure(sizes, degrees, h, rank, failed):
    T, _ = random_tensor(TensorSpace(sizes, degrees), rank, RandomConfig(seed=23))
    cert = certify_thm37(T, h)
    assert cert.verdict == "Inconclusive"
    assert cert.reason == f"failed checks: {failed}"
    assert _values(cert) == _exact_thm37(T, h)
    assert _unproven_mod(cert, DEFAULT_PRIME)


@pytest.mark.parametrize("sizes,degrees,h,lost", [
    ((2,), (9,), 5, 1), ((2,), (9,), 5, 2), ((3,), (5,), 7, 1), ((4,), (3,), 5, 1),
], ids=["binary-section", "binary-rank", "ternary-quintic", "quaternary-cubic"])
def test_thm37_unlucky_prime_falls_back(sizes, degrees, h, lost):
    # the last `lost` terms carry the factor p: mod p the form has rank h - lost,
    # so the first prime proves nothing (non-empty section, or rank below
    # full), while the form over QQ is a generic rank-h form, and the second
    # prime certifies it
    _, dec = random_tensor(TensorSpace(sizes, degrees), h, RandomConfig(seed=24))
    lambdas = [1] * (h - lost) + [DEFAULT_PRIME] * lost
    F = Decomposition(dec.space, dec.terms, lambdas).expand()
    cert = certify_thm37(F, h)
    assert cert.certified
    assert cert.checks[1].detail["witness_prime"] == ROUTE_PRIME
    assert _values(cert) == _exact_thm37(F, h)


@pytest.mark.parametrize("sizes,degrees,h", [
    ((2,), (9,), 5), ((3,), (5,), 7),
], ids=["binary", "ternary-quintic"])
def test_thm37_unlucky_prime_leaves_no_kernel_to_lift(sizes, degrees, h):
    # two terms carry the factor p, so the catalecticant loses rank mod p
    # and only there: a kernel lifted from p gives up, and the first prime
    # proves nothing; the second certifies the generic rank-h form
    _, dec = random_tensor(TensorSpace(sizes, degrees), h, RandomConfig(seed=26))
    F = Decomposition(dec.space, dec.terms, [1] * (h - 2) + [DEFAULT_PRIME] * 2).expand()
    split = Split.of(F.space, (thm37_family(F.space, h)[3],))
    assert lifted_kernel(flattening_matrix(F, split).transpose()) is None
    cert = certify_thm37(F, h)
    assert cert.certified
    assert cert.checks[1].detail["witness_prime"] == ROUTE_PRIME
    assert _values(cert) == _exact_thm37(F, h)


@pytest.mark.parametrize("sizes,degrees,h,ranks", [
    ((2,), (9,), 5, (2, 3)), ((2,), (15,), 8, (5, 6)), ((2,), (31,), 16, (13, 14)),
    ((3,), (5,), 7, (5, 6)), ((4,), (3,), 5, (3, 4)),
], ids=["binary-9", "binary-15", "binary-31", "ternary-quintic", "quaternary-cubic"])
def test_thm37_rank_deficient_forms_match_exact_path(sizes, degrees, h, ranks):
    # below full rank the rank check fails at both primes; at full rank
    # (ternary rank 6, quaternary rank 4) the section check does: the report
    # holds the first prime's values, which are the exact ones
    for rank in ranks:
        for seed in (31, 32, 33):
            T, _ = random_tensor(TensorSpace(sizes, degrees), rank, RandomConfig(seed=seed))
            cert = certify_thm37(T, h)
            assert cert.verdict == "Inconclusive"
            assert _values(cert) == _exact_thm37(T, h)
            assert _unproven_mod(cert, DEFAULT_PRIME)


def test_thm37_conjugate_irrational_points_match_exact_path():
    # (x + sqrt2 y)^31 + (x - sqrt2 y)^31 has rational coefficients but no
    # rational points; with 13 rational terms the catalecticant has full rank
    # 15 and the section is the 15 points, which rule (a) does not keep
    space = TensorSpace((2,), (31,))
    conjugate = MPoly(space, {(31 - k, k): 2 * comb(31, k) * 2 ** (k // 2)
                              for k in range(0, 32, 2)})
    T13, _ = random_tensor(space, 13, RandomConfig(seed=43))
    F = T13 + conjugate
    cert = certify_thm37(F, 16)
    assert _values(cert) == [15, "ZeroDim(15)"] == _exact_thm37(F, 16)
    assert _unproven_mod(cert, DEFAULT_PRIME)


def test_thm37_denominator_divisible_by_prime_keeps_the_witness():
    # the route reduces F times its common denominator, so a denominator
    # divisible by the prime does not stand in its way
    T, _ = random_tensor(TensorSpace((3,), (5,)), 7, RandomConfig(seed=25))
    F = T.scale(Fraction(1, DEFAULT_PRIME))
    cert = certify_thm37(F, 7)
    assert cert.certified
    assert cert.checks[1].detail["witness_prime"] == DEFAULT_PRIME
    assert _values(cert) == _exact_thm37(F, 7)


# ---------------------------------------------------------------------------
# dispatcher


def test_dispatch_thm37_before_prop31():
    space = TensorSpace((3,), (5,))
    T, _ = random_tensor(space, 7, RandomConfig(seed=13))
    cert = certify(T, 7)
    assert cert.criterion == "Thm37"
    assert "Theorem 3.7" in cert.label


def test_dispatch_prop31_in_effective_range():
    space = TensorSpace((3,), (5,))
    T, _ = random_tensor(space, 6, RandomConfig(seed=13))
    cert = certify(T, 6)
    assert cert.criterion == "Prop31"
    assert cert.certified


def test_dispatch_decomposition_falls_through_to_prop33():
    # (n, d, h) = (3, 4, 7): split exists but out of the effective range
    space = TensorSpace((4,), (4,))
    _, dec = random_tensor(space, 7, RandomConfig(seed=14))
    cert = certify(dec)
    assert cert.criterion == "Prop33"
    assert cert.certified


def test_dispatch_ternary_quartic_out_of_range():
    space = TensorSpace((3,), (4,))
    T, _ = random_tensor(space, 5, RandomConfig(seed=15))
    cert = certify(T, 5)
    assert cert.criterion is None
    assert cert.verdict == "Inconclusive"
    assert cert.reason == "out of criteria range"


def test_dispatch_decomposition_uses_prop31_when_effective():
    space = TensorSpace((3,), (5,))
    _, dec = random_tensor(space, 6, RandomConfig(seed=16))
    cert = certify(dec)
    assert cert.criterion == "Prop31"
    assert cert.certified


def test_dispatch_forced_criterion():
    space = TensorSpace((3,), (4,))
    T, dec = random_tensor(space, 5, RandomConfig(seed=17))
    cert = certify(T, 5, criterion="prop31")
    assert cert.criterion == "Prop31"
    assert not cert.certified  # defective regime
    with pytest.raises(ValueError):
        certify(T, 5, criterion="prop33")  # needs a decomposition
    cert33 = certify(dec, criterion="prop33")
    assert cert33.criterion == "Prop33"


def test_dispatch_forced_thm37():
    # forced on a decomposition, Theorem 3.7 runs on its expansion
    T, dec = _random((3,), (5,), 7, 13)
    forced = certify(dec, criterion="thm37")
    assert forced.criterion == "Thm37" and forced.certified
    assert _full_view(forced) == _full_view(certify(T, 7))


def test_dispatch_h_mismatch():
    space = TensorSpace((3,), (5,))
    _, dec = random_tensor(space, 6, RandomConfig(seed=18))
    with pytest.raises(ValueError):
        certify(dec, 7)


def test_scaling_invariance_of_verdicts():
    space = TensorSpace((3,), (5,))
    for seed in (19, 20):
        T, _ = random_tensor(space, 6, RandomConfig(seed=seed))
        base = certify(T, 6)
        for c in (7, -3):
            scaled = certify(T.scale(c), 6)
            assert scaled.verdict == base.verdict
            assert [(k.name, k.passed) for k in scaled.checks] == \
                [(k.name, k.passed) for k in base.checks]


def test_effective_range_certifies_generically():
    # inside the proven-effective range random instances always certify
    regimes = [
        ((3,), (4,), 3, "prop31"),
        ((2,), (7,), 3, "prop31"),
        ((2, 3), (2, 2), 2, "prop31"),
    ]
    for sizes, degrees, h, _ in regimes:
        space = TensorSpace(sizes, degrees)
        for seed in range(50):
            T, _ = random_tensor(space, h, RandomConfig(seed=seed))
            cert = certify_prop31(T, h)
            assert cert.certified, (sizes, degrees, h, seed)


def test_prop31_mixed_second_split_same_length():
    # the section scheme is embedded differently by another admissible split,
    # but it still consists of the same five points
    space = TensorSpace((2, 5, 4), (3, 2, 3))
    T, _ = random_tensor(space, 5, RandomConfig(seed=3))
    balanced = certify_prop31(T, 5)
    other = certify_prop31(T, 5, Split.of(space, (1, 1, 2)))
    assert balanced.certified and other.certified
    for cert in (balanced, other):
        assert cert.checks[2].computed == 5


def test_prop31_mixed_prime_field_agrees():
    from tensorcert import PrimeField
    space = TensorSpace((2, 5, 4), (3, 2, 3))
    fp = PrimeField(1073741789)
    T, _ = random_tensor(space, 5, RandomConfig(seed=3, field=fp))
    cert = certify_prop31(T, 5)
    assert cert.certified
    assert cert.field_mode == "probabilistic"


def test_thm37_degenerate_instance_agrees_with_sylvester():
    # x1_0^4 * x1_1 has a two dimensional space of order-3 apolar forms:
    # no unique decomposition, and the criterion must not certify either
    space = TensorSpace((2,), (5,))
    F = MPoly(space, {(4, 1): 1})
    assert not certify_thm37(F, 3).certified
    assert not oracles.sylvester_unique([0, 0, 0, 0, 1, 0], 3)


def test_buchberger_fixed_point_on_groebner_output():
    from tensorcert import Ideal, buchberger
    space = TensorSpace((3,), (5,))
    T, _ = random_tensor(space, 6, RandomConfig(seed=22))
    from tensorcert import flatten, image_span, pullback_linear_section
    ideal = pullback_linear_section(
        image_span(flatten(T, Split.of(space, (2,)))), space, (3,))
    gb1 = buchberger(ideal)
    gb2 = buchberger(Ideal(space, list(gb1.polys)))
    assert sorted(gb1.lead_terms) == sorted(gb2.lead_terms)
    assert {frozenset(p.terms.items()) for p in gb1.polys} == \
        {frozenset(p.terms.items()) for p in gb2.polys}


def test_decomposition_validation():
    space = TensorSpace((2,), (3,))
    with pytest.raises(ValueError, match="proportional"):
        Decomposition(space, [((1, 2),), ((2, 4),)])
    with pytest.raises(ValueError, match="zero linear form"):
        Decomposition(space, [((0, 0),)])
    with pytest.raises(ValueError, match="at least one"):
        Decomposition(space, [])
    dec = Decomposition(space, [((1, 2),), ((1, 3),)], lambdas=(2, -1))
    T = dec.expand()
    assert T.multidegree() == (3,)


def test_expand_drops_cancelled_terms():
    # (x+y)^3 - (x-y)^3 = 6x^2y + 2y^3: the x^3 and xy^2 terms cancel
    space = TensorSpace((2,), (3,))
    dec = Decomposition(space, [((1, 1),), ((1, -1),)], lambdas=(1, -1))
    assert dec.expand().terms == {(2, 1): Fraction(6), (0, 3): Fraction(2)}


@pytest.mark.parametrize("modulus", [None, 7])
def test_expand_matches_weighted_repeated_products(modulus):
    # rational forms and weights: the common denominator is exact
    field = QQ if modulus is None else PrimeField(modulus)
    space = TensorSpace((2, 3), (3, 2))
    terms = [((Fraction(1, 2), 3), (1, Fraction(-2, 3), 0)),
             ((4, Fraction(-5, 6)), (Fraction(3, 4), 1, 2)),
             ((1, 1), (0, Fraction(1, 5), -1))]
    lambdas = (Fraction(2, 3), -5, Fraction(9, 4))
    dec = Decomposition(space, terms, lambdas=lambdas, field=field)
    want = {}
    for term, lam in zip(terms, lambdas):
        part = oracles.repeated_product_expansion(space.sizes, term, space.degrees, modulus)
        for m, c in part.items():
            want[m] = want.get(m, 0) + field(lam) * c
    want = {m: field(c) for m, c in want.items() if not field.is_zero(field(c))}
    assert dec.expand().terms == want
    total = dec.term_polynomial(0)
    for i in (1, 2):
        total = total + dec.term_polynomial(i)
    assert total == dec.expand()


def test_prop33_with_scaling_coefficients():
    # nonunit coefficients are absorbed into the terms; verdicts unchanged
    space = TensorSpace((3,), (6,))
    _, dec = random_tensor(space, 8, RandomConfig(seed=23))
    weighted = Decomposition(space, dec.terms, lambdas=(2, -1, 3, 5, -7, 1, 4, 9))
    plain = certify_prop33(dec)
    scaled = certify_prop33(weighted)
    assert plain.certified and scaled.certified
    assert [(c.name, c.passed) for c in plain.checks] == \
        [(c.name, c.passed) for c in scaled.checks]


def test_certificate_json_shape():
    space = TensorSpace((3,), (5,))
    T, _ = random_tensor(space, 6, RandomConfig(seed=21))
    cert = certify(T, 6)
    doc = cert.to_json_dict()
    assert doc["schema_version"] == 1
    assert doc["criterion"] == "Prop31"
    assert doc["verdict"] == "Certified"
    assert doc["field"] == {"mode": "exact", "prime": None}
    assert doc["split"] == {"a": [2], "b": [3], "dim_a": 6, "dim_b": 10}
    names = [c["name"] for c in doc["checks"]]
    assert names == ["i_flattening_rank", "ii_section_dimension", "iii_section_length"]
    trace = doc["checks"][1]["detail"]["trace"]
    assert trace[0] == [0, 1]


# ---------------------------------------------------------------------------
# one echelon pass per flattening, one expansion per decomposition


def _count_rref_inputs(monkeypatch):
    """Count the matrices handed to ``rref`` wherever it is looked up."""
    linalg = importlib.import_module("tensorcert.linalg")
    flat = importlib.import_module("tensorcert.flatten")
    seen = Counter()
    real = linalg.rref

    def counting(matrix):
        seen[matrix] += 1
        return real(matrix)

    monkeypatch.setattr(linalg, "rref", counting)
    monkeypatch.setattr(flat, "rref", counting)
    return seen


@pytest.mark.parametrize("sizes,degrees,h,rank,lost,seed,criterion,second_passes", [
    ((3,), (5,), 6, 6, 0, 1, "Prop31", 0),
    ((3,), (5,), 6, 6, 1, 1, "Prop31", 1),
    ((3,), (5,), 7, 7, 0, 1, "Thm37", 0),
    ((4,), (4,), 7, 7, 0, 4, "Prop33", 0),
    ((3,), (5,), 7, 5, 0, 1, "Thm37", 1),
    ((3,), (5,), 7, 7, 2, 1, "Thm37", 1),
    ((3,), (5,), 7, 6, 0, 1, "Thm37", 1),
], ids=["Prop31", "Prop31-fallback", "Thm37", "Prop33", "Thm37-rank-deficient",
        "Thm37-unlucky-prime", "Thm37-section-not-empty"])
def test_flattening_matrix_is_reduced_once(monkeypatch, sizes, degrees, h, rank, lost,
                                           seed, criterion, second_passes):
    # every criterion reduces its flattening mod its first prime once, never
    # over QQ, and mod its second prime once when the first proves nothing:
    # a form below full rank or with a non-empty section (Theorem 3.7 keeps
    # only rule (a)), or the last `lost` terms carrying the first prime, so
    # that the rank drops mod that prime only
    first, second = ((DEFAULT_PRIME, ROUTE_PRIME) if criterion == "Thm37"
                     else (ROUTE_PRIME, SECOND_PRIME))
    T, dec = random_tensor(TensorSpace(sizes, degrees), rank, RandomConfig(seed=seed))
    if lost:
        lambdas = [1] * (rank - lost) + [first] * lost
        T = Decomposition(dec.space, dec.terms, lambdas).expand()
    seen = _count_rref_inputs(monkeypatch)
    cert = certify(dec if criterion == "Prop33" else T, h)
    monkeypatch.undo()
    assert cert.criterion == criterion and cert.certified == (rank == h)
    assert seen[flatten(T, cert.split).matrix] == 0
    for prime, passes in ((first, 1), (second, second_passes)):
        Tp = MPoly(T.space, T.terms, PrimeField(prime))
        assert seen[flatten(Tp, cert.split).matrix] == passes


def test_certify_expands_a_decomposition_once(monkeypatch):
    _, dec = random_tensor(TensorSpace((4,), (4,)), 7, RandomConfig(seed=4))
    calls = []
    real = Decomposition.expand

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Decomposition, "expand", counting)
    cert = certify(dec)
    assert cert.certified and cert.criterion == "Prop33"
    assert calls == [dec]


# ---------------------------------------------------------------------------
# one pinned report per route through the criteria


def _random(sizes, degrees, h, seed, field=QQ):
    return random_tensor(TensorSpace(sizes, degrees), h,
                         RandomConfig(seed=seed, field=field))


def _unlucky(sizes, degrees, h, lost, seed):
    # the last `lost` terms carry the factor p, so the rank drops mod p only
    _, dec = _random(sizes, degrees, h, seed)
    lambdas = [1] * (h - lost) + [DEFAULT_PRIME] * lost
    return Decomposition(dec.space, dec.terms, lambdas).expand()


_PINNED_REPORTS = {
    "prop31-qq": (
        lambda: certify(_random((3,), (5,), 6, 1)[0], 6),
        "50281b7fb36f8ab5995307ae3e870556a3552d5844c0a51f98010a999fdeee77"),
    "prop31-fp": (
        lambda: certify(_random((3,), (5,), 6, 1, PrimeField(DEFAULT_PRIME))[0], 6),
        "ac08c552f357db8620b354986b26c2eeab636d61f72b93807ab935465eba0683"),
    "prop31-multigraded-1c": (
        lambda: certify(_random((2, 5, 4), (3, 2, 3), 5, 1)[0], 5),
        "4b1245971c48ab98756f792393bcaf54bd68d4f88e128c48bc3a34afd06ff4da"),
    "prop33-1d": (
        lambda: certify(_random((4,), (4,), 7, 1)[1]),
        "ccc2cc033ab8ddc187b5f2fe6b1c3767ed21f4b1598f2b8e62f97bb9fd7d2f01"),
    "prop33-no-split": (
        lambda: certify_prop33(_random((2,), (4,), 3, 6)[1]),
        "67487274e7197d449ae901eaa67b295a5103845e61e19c2312b5e1c31aa45bf8"),
    "thm37-witness": (
        lambda: certify(_random((3,), (5,), 7, 1)[0], 7),
        "4b82fad87071e0d17a4ec2414c84c747a46ae1c64db34fa9817c1b9bbf67c4f6"),
    "thm37-rank-deficient": (
        lambda: certify(_random((3,), (5,), 5, 1)[0], 7),
        "bd215be13d159af2ad26c51bb070507262340b36ca9eb6a27bcde7339953695c"),
    "thm37-section-not-empty": (
        lambda: certify(_random((3,), (5,), 6, 1)[0], 7),
        "57413af01df0d072110101647f40d73039f908bb85516811fbb790b029f60051"),
    "thm37-unlucky-prime": (
        lambda: certify(_unlucky((3,), (5,), 7, 2, 1), 7),
        "185eb309ce3b9cec4914c790ab02975d03499d9e14ee5cebc3d2f5a70b0aa165"),
    "out-of-range": (
        lambda: certify(_random((3,), (4,), 5, 15)[0], 5),
        "776bf266e910f2f7ccd84faa468e0df7246b23655b92268f6a635bbe2f998272"),
    "prop31-budget-exhausted": (
        lambda: certify_prop31(_random((3,), (5,), 6, 1)[0], 6, budget=0),
        "b8c4e6147d5deade77bbbcbab11e4a9bb535f18595e5febc18183d2cd75e9e68"),
}


@pytest.mark.parametrize("route", list(_PINNED_REPORTS))
def test_report_is_unchanged(route):
    # the sha256 of the JSON report without its timing, as first recorded
    build, digest = _PINNED_REPORTS[route]
    doc = build().to_json_dict()
    del doc["timing_seconds"]
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest


@pytest.mark.parametrize("build,exhausted", [
    (lambda: certify(_random((3,), (5,), 6, 1)[0], 7, budget=0), True),
    (lambda: certify(_random((3,), (5,), 7, 1)[0], 7, budget=0), True),
    (lambda: certify(_random((4,), (4,), 7, 1)[1], budget=0), True),
    (lambda: certify(_random((3,), (5,), 5, 1)[0], 7, budget=0), False),
], ids=["thm37-section-not-empty", "thm37-witness", "prop33-1d", "thm37-rank-deficient"])
def test_budget_exhausted_is_read_off_the_checks(build, exhausted):
    # here a check computes Inconclusive only by an exhausted S-pair budget
    # (the other way, a point at infinity in every chart, is in
    # test_cli.py::test_budget_exhausted_only_when_a_groebner_run_ran_out);
    # a form below full rank fails its rank check and runs no S-pair
    cert = build()
    assert not cert.certified
    assert cert.budget_exhausted is exhausted
    assert any(c.computed == "Inconclusive" for c in cert.checks) is exhausted
    if exhausted:
        assert cert.reason == "resource budget exhausted"
    else:
        assert cert.reason == "failed checks: a_derivative_span_rank"


# ---------------------------------------------------------------------------
# tensors of rank above h that pass checks i-iii (ROADMAP Open item 1)

_FP = "fp:1073741789"
_OPEN_ITEM_1 = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason=("ROADMAP Open item 1: Theorem 3.7 does not prove that a length-h "
            "decomposition exists, so a tensor of rank above h is certified"))
_TANGENTIAL = [(sizes, (d,), text.format(a=d - 1, d=d), h, field)
               for d in (5, 7, 9) for field in ("QQ", _FP)
               for sizes, text, h in (((2,), "x1_0^{a}*x1_1", 2),
                                      ((3,), "x1_0^{a}*x1_1 + x1_2^{d}", 3))]


@pytest.mark.parametrize("sizes,degrees,text,h,field", [
    pytest.param((2,), (9,), "x1_0^8*x1_1", 2, "QQ", id="x8y-QQ"),
    pytest.param((2,), (9,), "x1_0^8*x1_1", 2, _FP, id="x8y-fp"),
    pytest.param((3,), (6,), "x1_0^5*x1_1", 2, "QQ", id="x5y"),
    pytest.param((4,), (4,), "x1_0^3*x1_1", 2, "QQ", id="x3y"),
    pytest.param((3,), (6,), "x1_0^5*x1_1 + x1_2^6", 3, "QQ", id="x5y+z6-QQ"),
    pytest.param((3,), (6,), "x1_0^5*x1_1 + x1_2^6", 3, _FP, id="x5y+z6-fp"),
    pytest.param((2,), (5,), "x1_0*(x1_0 + x1_1)^4 - 32*x1_1^5", 3, "QQ",
                 marks=_OPEN_ITEM_1, id="thm37-binary-QQ"),
    pytest.param((2,), (5,), "x1_0*(x1_0 + x1_1)^4 - 32*x1_1^5", 3, _FP,
                 marks=_OPEN_ITEM_1, id="thm37-binary-fp"),
] + [pytest.param(*case, id=f"tangential-{case[0][0]}-{case[1][0]}-{case[4]}")
     for case in _TANGENTIAL])
def test_rank_above_h_is_not_certified(sizes, degrees, text, h, field):
    # Proposition 3.1 finds no h distinct points to rebuild T from, and
    # fails iv_decomposition_exists
    T = parse_polynomial(text, TensorSpace(sizes, degrees), field_from_spec(field))
    cert = certify(T, h)
    assert not cert.certified
    assert cert.reason == "failed checks: iv_decomposition_exists"


def test_double_point_has_no_rational_points(monkeypatch):
    # x^5 y at h = 2: the section is the double point [1 : 0 : 0], ZeroDim(2)
    # mod p; the characteristic polynomial of its multiplication map has a
    # repeated root, which _roots_mod_p refuses at its first attempt
    ideals = importlib.import_module("tensorcert.ideals")
    space = TensorSpace((3,), (6,))
    T = MPoly(space, {(5, 1, 0): 1}, PrimeField(ROUTE_PRIME))
    fl = flatten(T, default_split(space, 2))
    report = ideals.classify_linear_section(
        pullback_linear_section(image_span(fl), space, fl.split.b))
    assert report.describe() == "ZeroDim(2)"
    refused, real = [], ideals._roots_mod_p

    def roots(*args):
        refused.append(real(*args))
        return refused[-1]

    monkeypatch.setattr(ideals, "_roots_mod_p", roots)
    assert ideals.rational_points(report.basis, 2) is None
    assert refused == [None]

