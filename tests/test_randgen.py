import hashlib

import pytest

from tensorcert import (DEFAULT_PRIME, PrimeField, QQ, RandomConfig, Split,
                        TensorSpace, flatten, random_tensor)
from tensorcert.cli import render_decomposition_document, render_tensor_document


def test_determinism():
    space = TensorSpace((2, 5, 4), (3, 2, 3))
    cfg = RandomConfig(seed=42)
    assert random_tensor(space, 1, cfg)[1].terms == random_tensor(space, 1, cfg)[1].terms
    t1, d1 = random_tensor(space, 3, cfg)
    t2, d2 = random_tensor(space, 3, cfg)
    assert t1 == t2
    assert d1.terms == d2.terms


def test_different_seeds_differ():
    space = TensorSpace((3,), (4,))
    a, _ = random_tensor(space, 2, RandomConfig(seed=0))
    b, _ = random_tensor(space, 2, RandomConfig(seed=1))
    assert a != b


def test_rank_one_flattening_rank_one():
    space = TensorSpace((2, 5, 4), (3, 2, 3))
    term = random_tensor(space, 1, RandomConfig(seed=7))[1].terms[0]
    from tensorcert import Decomposition
    T = Decomposition(space, [term]).expand()
    assert len(T) <= 1200
    for a in ((1, 1, 1), (2, 1, 2), (0, 2, 0)):
        assert flatten(T, Split.of(space, a)).rank <= 1


def test_binary_cubic_shape():
    space = TensorSpace((2,), (3,))
    term = random_tensor(space, 1, RandomConfig(seed=3))[1].terms[0]
    assert len(term) == 1 and len(term[0]) == 2


def test_tensor_is_sum_of_terms():
    space = TensorSpace((3,), (3,))
    T, dec = random_tensor(space, 4, RandomConfig(seed=5))
    total = dec.term_polynomial(0)
    for i in range(1, 4):
        total = total + dec.term_polynomial(i)
    assert total == T


def test_h_one_equals_single_term():
    space = TensorSpace((2, 2), (1, 2))
    T, dec = random_tensor(space, 1, RandomConfig(seed=6))
    assert T == dec.term_polynomial(0)


def test_flattening_rank_bounded():
    space = TensorSpace((3,), (4,))
    for h in (1, 2, 3):
        for seed in range(5):
            T, _ = random_tensor(space, h, RandomConfig(seed=seed))
            assert flatten(T, Split.of(space, (2,))).rank <= h


def test_bound_validation():
    with pytest.raises(ValueError):
        RandomConfig(bound=1)


def test_mixed_generic_term_count():
    space = TensorSpace((2, 5, 4), (3, 2, 3))
    T, _ = random_tensor(space, 5, RandomConfig(seed=0))
    assert len(T) == 1200


# digests of the rendered tensor and decomposition documents of the cases
# above: a seed that draws no form vanishing in the field and no proportional
# term must keep giving the same output bit for bit
_RECORDED = [
    ((2, 5, 4), (3, 2, 3), 3, 42, None, "895063cbe41aa360"),
    ((3,), (4,), 2, 0, None, "9f0cd35245ac4d03"),
    ((3,), (4,), 2, 1, None, "e758d8a22d8e8e56"),
    ((3,), (3,), 4, 5, None, "503b1eec01b3ce91"),
    ((2, 2), (1, 2), 1, 6, None, "bf468e86730e71b3"),
    ((2, 5, 4), (3, 2, 3), 5, 0, None, "43ac44e560ad80be"),
    ((3,), (4,), 5, 1, DEFAULT_PRIME, "012adaf001a4db80"),
    ((2,), (3,), 2, 0, 5, "5dd6a51d36511e55"),
]


@pytest.mark.parametrize("sizes,degrees,h,seed,modulus,digest", _RECORDED)
def test_output_is_unchanged(sizes, degrees, h, seed, modulus, digest):
    field = QQ if modulus is None else PrimeField(modulus)
    T, dec = random_tensor(TensorSpace(sizes, degrees), h,
                           RandomConfig(seed=seed, field=field))
    text = render_tensor_document(T) + render_decomposition_document(dec)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_small_prime_field_redraws_degenerate_terms():
    # over F_5 some seeds draw a form that is zero mod 5, or two proportional
    # terms; those are redrawn, so every seed gives a valid decomposition
    space = TensorSpace((2,), (3,))
    field = PrimeField(5)
    for seed in range(40):
        T, dec = random_tensor(space, 2, RandomConfig(seed=seed, field=field))
        assert dec.h == 2 and T.multidegree() == (3,)
        assert not any(all(c == 0 for c in form) for term in dec.terms for form in term)


def test_exhausted_terms_raise():
    # P^1(F_2) has three points: a fourth pairwise non-proportional term
    # does not exist
    space = TensorSpace((2,), (3,))
    with pytest.raises(ValueError, match="proportional to an earlier term"):
        random_tensor(space, 4, RandomConfig(seed=0, field=PrimeField(2)))
