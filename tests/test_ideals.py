import random
from fractions import Fraction

import pytest

from tensorcert import (BudgetExceededError, Decomposition, DenseMatrix, Ideal, MPoly, QQ,
                        Split, TensorSpace, binary_fast_path, buchberger,
                        classify_linear_section, coefficient_vector, default_split, flatten,
                        image_span, monomial_basis, PrimeField,
                        pullback_linear_section, random_tensor, RandomConfig)

from tensorcert.ideals import _at_infinity, _empty, _moved, rational_points
from tensorcert.linalg import kernel_basis
from tensorcert.poly import monomial_multinomial

import oracles
from conftest import random_form

FP = PrimeField(1073741789)


def ternary(deg=2):
    return TensorSpace((3,), (deg,))


def mono_poly(space, *monos, coeffs=None):
    coeffs = coeffs or [1] * len(monos)
    return [MPoly(space, {m: c}) for m, c in zip(monos, coeffs)]


# ---------------------------------------------------------------------------
# pullback


def test_pullback_full_space_no_generators():
    space = TensorSpace((2,), (2,))
    span = DenseMatrix.identity(QQ, 3)
    ideal = pullback_linear_section(span, space, (2,))
    assert len(ideal) == 0


def test_pullback_single_point_binary():
    space = TensorSpace((2,), (2,))
    span = DenseMatrix.from_rows(QQ, [[1, 0, 0]])  # coefficient vector of x0^2
    ideal = pullback_linear_section(span, space, (2,))
    gens = {tuple(sorted(g.terms)) for g in ideal.generators}
    assert gens == {((1, 1),), ((0, 2),)}  # x0x1 and x1^2
    report = classify_linear_section(ideal)
    assert report.status == "ZeroDim" and report.length == 1


def test_pullback_generator_count():
    # rank-h span of a generic catalecticant: binom(n+d-s, n) - h generators
    space = TensorSpace((3,), (5,))
    T, _ = random_tensor(space, 6, RandomConfig(seed=1))
    fl = flatten(T, Split.of(space, (2,)))
    assert fl.rank == 6
    ideal = pullback_linear_section(image_span(fl), space, (3,))
    assert len(ideal) == 10 - 6


def _scaled_kernel(span, space, b):
    """The pullback's generators as first built: the kernel of the span with
    column m divided by its multinomial, by a full echelon pass."""
    field = span.field
    basis = monomial_basis(space, b)
    scale = [field.inv(field(monomial_multinomial(space, m))) for m in basis]
    scaled = DenseMatrix(field, [[field.mul(c, s) for c, s in zip(row, scale)]
                                 for row in span.rows], span.ncols)
    return [{m: c for m, c in zip(basis, row) if not field.is_zero(c)}
            for row in kernel_basis(scaled).rows]


@pytest.mark.parametrize("field", [QQ, FP], ids=["qq", "fp"])
def test_pullback_generators_match_the_scaled_kernel(field):
    # a reduced span has its kernel read off its pivots; any other span is
    # reduced first; both give the generators of the scaled kernel exactly
    for sizes, degrees, rank, a in [((3,), (5,), 6, (2,)), ((2,), (9,), 4, (3,)),
                                    ((2, 3), (2, 2), 4, (1, 1))]:
        space = TensorSpace(sizes, degrees)
        T, _ = random_tensor(space, rank, RandomConfig(seed=7, field=field))
        fl = flatten(T, Split.of(space, a))
        b = fl.split.b
        span = image_span(fl)
        mixed = DenseMatrix(field, [[field.add(x, field.mul_int(y, 3)) for x, y in
                                     zip(span.rows[-1], span.rows[0])]] + list(span.rows[:-1]),
                            span.ncols)
        for rows in (span, fl.matrix, mixed):
            gens = pullback_linear_section(rows, space, b).generators
            assert [g.terms for g in gens] == _scaled_kernel(span, space, b)


def test_pullback_wrong_width():
    space = TensorSpace((2,), (2,))
    with pytest.raises(ValueError):
        pullback_linear_section(DenseMatrix.identity(QQ, 4), space, (2,))


def test_ideal_rejects_inhomogeneous_generators():
    # the Hilbert function that classifies a scheme needs a graded ideal
    space = TensorSpace((2, 2), (1, 1))
    f = MPoly(space, {(1, 0, 1, 0): 1, (1, 0, 0, 0): 2})   # degrees (1,1) and (1,0)
    with pytest.raises(ValueError, match="multihomogeneous"):
        Ideal(space, [f])


def test_pullback_contains_the_decomposition_points():
    # every generator of the section ideal vanishes on the rank-one points
    space = TensorSpace((3,), (4,))
    T, dec = random_tensor(space, 3, RandomConfig(seed=9))
    split = Split.of(space, (1,))
    ideal = pullback_linear_section(image_span(flatten(T, split)), space, (3,))
    for g in ideal.generators:
        for term in dec.terms:
            point = term[0]
            value = Fraction(0)
            for mono, c in g.terms.items():
                prod = c
                for v, e in zip(point, mono):
                    prod *= Fraction(v) ** e
                value += prod
            assert value == 0


# ---------------------------------------------------------------------------
# buchberger


def test_buchberger_monomial_ideal():
    space = ternary(1)
    x0 = MPoly(space, {(1, 0, 0): 1})
    x1 = MPoly(space, {(0, 1, 0): 1})
    gb = buchberger(Ideal(space, [x0, x1]))
    assert sorted(gb.lead_terms) == [(0, 1, 0), (1, 0, 0)]


def test_buchberger_single_polynomial_monic():
    space = ternary(2)
    f = MPoly(space, {(2, 0, 0): 4, (0, 2, 0): -6})
    gb = buchberger(Ideal(space, [f]))
    assert len(gb) == 1
    basis_poly = gb.polys[0]
    lead = max(basis_poly.terms, key=space.monomial_key)
    assert basis_poly.terms[lead] == 1


def test_buchberger_twisted_cubic():
    space = TensorSpace((4,), (2,))
    f1 = MPoly(space, {(1, 0, 1, 0): 1, (0, 2, 0, 0): -1})
    f2 = MPoly(space, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})
    f3 = MPoly(space, {(0, 1, 0, 1): 1, (0, 0, 2, 0): -1})
    gb = buchberger(Ideal(space, [f1, f2, f3]))
    assert len(gb) == 3
    # reduced basis of the 2x2 minors reproduces the three binomials
    assert all(len(g.terms) == 2 for g in gb.polys)


def test_buchberger_spolys_reduce_to_zero():
    # defining property checked by brute force on a small random ideal
    rng = random.Random(13)
    space = ternary(2)
    gens = [random_form(space, 2, rng) for _ in range(2)]
    gb = buchberger(Ideal(space, gens))

    key = space.monomial_key

    def reduce_full(p, basis):
        terms = dict(p.terms)
        changed = True
        while terms and changed:
            changed = False
            lead = max(terms, key=key)
            for g in basis:
                glt = max(g.terms, key=key)
                if all(a <= b for a, b in zip(glt, lead)):
                    shift = tuple(b - a for a, b in zip(glt, lead))
                    c = terms[lead] / g.terms[glt]
                    for m, gc in g.terms.items():
                        mm = tuple(x + y for x, y in zip(m, shift))
                        v = terms.get(mm, Fraction(0)) - c * gc
                        if v:
                            terms[mm] = v
                        else:
                            terms.pop(mm, None)
                    changed = True
                    break
        return terms

    polys = list(gb.polys)
    for i in range(len(polys)):
        for j in range(i):
            fi, fj = polys[i], polys[j]
            lti = max(fi.terms, key=key)
            ltj = max(fj.terms, key=key)
            lcm = tuple(max(a, b) for a, b in zip(lti, ltj))
            si = tuple(l - a for l, a in zip(lcm, lti))
            sj = tuple(l - a for l, a in zip(lcm, ltj))
            spoly_terms = {}
            for m, c in fi.terms.items():
                spoly_terms[tuple(x + y for x, y in zip(m, si))] = c / fi.terms[lti]
            for m, c in fj.terms.items():
                mm = tuple(x + y for x, y in zip(m, sj))
                v = spoly_terms.get(mm, Fraction(0)) - c / fj.terms[ltj]
                if v:
                    spoly_terms[mm] = v
                else:
                    spoly_terms.pop(mm, None)
            s = MPoly(space, spoly_terms)
            assert reduce_full(s, polys) == {}


def test_buchberger_reduced_basis_property():
    # no leading term divides another; no tail monomial is divisible by
    # any other element's leading term
    rng = random.Random(24)
    for trial in range(6):
        space = TensorSpace((3,), (2,))
        gens = [random_form(space, 2, rng) for _ in range(2)]
        gb = buchberger(Ideal(space, gens))
        key = space.monomial_key
        lts = [max(g.terms, key=key) for g in gb.polys]
        assert list(lts) == list(gb.lead_terms)
        for i, lt in enumerate(lts):
            for j, other in enumerate(lts):
                if i != j:
                    assert not all(a <= b for a, b in zip(other, lt)), trial
        for i, g in enumerate(gb.polys):
            assert g.terms[lts[i]] == 1  # monic
            for mono in g.terms:
                if mono == lts[i]:
                    continue
                for j, other in enumerate(lts):
                    assert not all(a <= b for a, b in zip(other, mono)), trial


def test_buchberger_lead_terms_match_prime_field():
    # a good prime reproduces the rational leading-term ideal
    from tensorcert import PrimeField
    fp = PrimeField(1073741789)
    rng = random.Random(25)
    space = TensorSpace((2, 2), (1, 1))
    for _ in range(5):
        rows = [[rng.randint(-20, 20) for _ in range(4)] for _ in range(2)]
        gens_q = [MPoly(space, dict(zip(monomial_basis(space, (1, 1)), r)))
                  for r in rows]
        gens_p = [MPoly(space, dict(zip(monomial_basis(space, (1, 1)), r)), fp)
                  for r in rows]
        gb_q = buchberger(Ideal(space, gens_q))
        gb_p = buchberger(Ideal(space, gens_p))
        assert sorted(gb_q.lead_terms) == sorted(gb_p.lead_terms)


def test_classify_prime_field_matches_rational():
    from tensorcert import PrimeField
    fp = PrimeField(1073741789)
    rng = random.Random(26)
    space = ternary(2)
    for _ in range(5):
        basis = monomial_basis(space, (2,))
        rows = [[rng.randint(-20, 20) for _ in basis] for _ in range(2)]
        gens_q = [MPoly(space, dict(zip(basis, r))) for r in rows]
        gens_p = [MPoly(space, dict(zip(basis, r)), fp) for r in rows]
        rq = classify_linear_section(Ideal(space, gens_q))
        rp = classify_linear_section(Ideal(space, gens_p))
        assert (rq.status, rq.length) == (rp.status, rp.length)


def test_buchberger_budget():
    rng = random.Random(14)
    space = TensorSpace((4,), (3,))
    gens = [random_form(space, 3, rng) for _ in range(3)]
    with pytest.raises(BudgetExceededError):
        buchberger(Ideal(space, gens), budget=2)


def _differential_ideals():
    """Seeded small ideals: ternary, quaternary, mixed and Prop 3.1 pullbacks."""
    rng = random.Random(41)
    cases = []
    for _ in range(4):
        space = ternary(3)
        degs = [rng.randint(2, 3) for _ in range(rng.randint(2, 3))]
        cases.append((space, [random_form(space, d, rng, bound=6) for d in degs]))
    space = TensorSpace((4,), (2,))
    for _ in range(2):
        cases.append((space, [random_form(space, 2, rng, bound=4) for _ in range(3)]))
    space = TensorSpace((2, 3), (1, 2))
    for degs in [((1, 2), (1, 2)), ((1, 1), (1, 2), (0, 2))]:
        cases.append((space, [random_form(space, d, rng, bound=6) for d in degs]))
    for sizes, degrees, h, a, seed in [((3,), (4,), 4, (2,), 51),
                                       ((2, 2), (2, 2), 2, (1, 1), 52),
                                       ((3, 2), (2, 2), 3, (1, 1), 53)]:
        space = TensorSpace(sizes, degrees)
        T, _ = random_tensor(space, h, RandomConfig(seed=seed, bound=20))
        b = tuple(d - x for d, x in zip(degrees, a))
        ideal = pullback_linear_section(
            image_span(flatten(T, Split.of(space, a))), space, b)
        cases.append((space, list(ideal.generators)))
    return cases


@pytest.mark.parametrize("field", [QQ, FP], ids=["QQ", "Fp"])
def test_buchberger_matches_textbook_reference(field, monkeypatch):
    # Besides the final bases, every normal form the engine computes must be
    # fully reduced against the basis of its time, checked by a linear scan.
    # The engine memoises each monomial's first reducer and rescans a
    # monomial that no leading term divided against the elements added
    # since; each such rescan that finds a reducer is recorded, to show the
    # path is covered.
    from tensorcert import ideals
    real_nf, real_reducer = ideals._Engine.normal_form, ideals._Engine._reducer
    real_interreduce = ideals._Engine._interreduce
    misses, rescans, unreduced = {}, [], []

    def normal_form(self, terms, keep=None):
        out = real_nf(self, terms, keep)
        lts = [self.unpack(lt) for lt in self.lts]
        unreduced.extend(m for m in out if m != keep and any(
            all(a <= b for a, b in zip(lt, self.unpack(m))) for lt in lts))
        return out

    def reducer(self, m):
        hit = real_reducer(self, m)
        if hit is None:
            misses[m] = len(self.lts)
        elif m in misses and hit[0] >= misses[m]:
            rescans.append(m)
        return hit

    def interreduce(self):
        misses.clear()  # the basis is renumbered
        return real_interreduce(self)

    monkeypatch.setattr(ideals._Engine, "normal_form", normal_form)
    monkeypatch.setattr(ideals._Engine, "_reducer", reducer)
    monkeypatch.setattr(ideals._Engine, "_interreduce", interreduce)
    for trial, (space, gens) in enumerate(_differential_ideals()):
        gens = [MPoly(space, g.terms, field) for g in gens]
        misses.clear()
        gb = buchberger(Ideal(space, gens, field))
        got = {lt: dict(g.terms) for lt, g in zip(gb.lead_terms, gb.polys)}
        want = oracles.reference_groebner(space.sizes, [g.terms for g in gens],
                                          field.modulus)
        assert got == want, trial
        assert not unreduced, trial
    assert rescans


def test_reducer_search_tests_each_pair_once_per_phase(monkeypatch):
    # Within run() and within _interreduce() the basis does not shrink, so a
    # (leading term, monomial) divisibility test need never be repeated.
    # The reducer search reads each leading term it tests out of the list
    # ``lts``, so a list that records those reads sees every test.
    from tensorcert import ideals
    real_reducer, real_interreduce = ideals._Engine._reducer, ideals._Engine._interreduce
    state = {"m": None, "seen": set(), "repeats": 0, "tests": 0}

    class RecordedReads(list):
        def __getitem__(self, i):
            lt = super().__getitem__(i)
            if state["m"] is not None:
                state["tests"] += 1
                state["repeats"] += (lt, state["m"]) in state["seen"]
                state["seen"].add((lt, state["m"]))
            return lt

    def reducer(self, m):
        if type(self.lts) is not RecordedReads:
            self.lts = RecordedReads(self.lts)
        state["m"] = m
        try:
            return real_reducer(self, m)
        finally:
            state["m"] = None

    def interreduce(self):
        state["seen"] = set()
        return real_interreduce(self)

    monkeypatch.setattr(ideals._Engine, "_reducer", reducer)
    monkeypatch.setattr(ideals._Engine, "_interreduce", interreduce)
    for space, gens in _differential_ideals():
        state["seen"] = set()
        buchberger(Ideal(space, gens))
    assert state["tests"] > 0
    assert state["repeats"] == 0


def _packed_draw(rng, sizes, limit):
    """An exponent vector whose group degrees stay below ``limit``: per group
    zero, small, or split from a degree of limit - 1 or just under."""
    mono = []
    for size in sizes:
        kind = rng.randrange(4)
        block = [0] * size
        if kind == 1:
            block = [rng.randrange(3) for _ in range(size)]
            while sum(block) >= limit:
                block[block.index(max(block))] -= 1
        elif kind == 2:
            block[rng.randrange(size)] = limit - 1
        elif kind == 3:
            degree = limit - 1 - rng.randrange(2)
            cuts = sorted(rng.randint(0, degree) for _ in range(size - 1))
            block = [b - a for a, b in zip([0] + cuts, cuts + [degree])]
        mono += block
    return tuple(mono)


@pytest.mark.parametrize("width", [3, 5, 16])
def test_packed_monomials_match_tuples(width, monkeypatch):
    # product, divisibility and lcm of packed monomials against the tuple
    # versions, and the int key's order against monomial_key's, with every
    # group degree from 0 up to the largest the field width allows
    from tensorcert import ideals
    monkeypatch.setattr(ideals, "_WIDTH", width)
    rng = random.Random(1998 + width)
    for trial in range(60):
        sizes = tuple(rng.randint(2, 4) for _ in range(rng.randint(1, 3)))
        space = TensorSpace(sizes, (1,) * len(sizes))
        engine = ideals._Engine(space, QQ, None)
        limit = engine.limit
        assert limit == 1 << (width - 1)
        monos = list({_packed_draw(rng, sizes, limit) for _ in range(12)})
        packed = [engine.pack(m) for m in monos]
        assert [engine.unpack(m) for m in packed] == monos
        for a, pa in zip(monos, packed):
            for b, pb in zip(monos, packed):
                assert (not (pb - pa) & engine.guard) == all(map(int.__le__, a, b))
                product = tuple(map(int.__add__, a, b))
                if max(space.multidegree_of(product)) < limit:
                    assert engine.unpack(pa + pb) == product
                    assert engine.degree(pa + pb) == sum(product)
                lcm = tuple(map(max, a, b))
                if max(space.multidegree_of(lcm)) < limit:
                    assert engine.lcm(pa, pb) == engine.pack(lcm), (trial, a, b)
                else:
                    with pytest.raises(BudgetExceededError):
                        engine.lcm(pa, pb)
        by_key = sorted(monos, key=space.monomial_key)
        assert [engine.unpack(m) for m in sorted(packed, key=engine.flip.__xor__)] == by_key
        assert [engine.unpack(m) for m in sorted(packed, key=engine.rflip.__xor__)] == by_key[::-1]
        too_big = list(monos[0])
        too_big[0] += limit - sum(too_big[:sizes[0]])
        with pytest.raises(ValueError, match="overflows"):
            engine.pack(tuple(too_big))


@pytest.mark.parametrize("field", [QQ, FP], ids=["QQ", "Fp"])
def test_narrow_packed_fields_refuse_and_never_wrap(field, monkeypatch):
    # With 4-bit fields a group degree must stay below 8.  Every run either
    # returns the textbook basis or is refused: a generator of degree 8 or
    # more at ``prepare``, an S-pair lcm past 7 as an exhausted budget.  The
    # classifier reports such an ideal as Inconclusive, or, when its chart
    # and at-infinity runs fit the narrow fields, with its full-width verdict.
    from tensorcert import ideals
    rng = random.Random(44)
    cases = _differential_ideals()
    space = ternary(8)
    cases.append((space, [random_form(space, 8, rng, bound=6) for _ in range(2)]))
    wide = [_verdict(classify_linear_section(Ideal(space, [MPoly(space, g.terms, field)
                                                           for g in gens], field)))
            for space, gens in cases]
    monkeypatch.setattr(ideals, "_WIDTH", 4)
    outcomes = []
    for trial, (space, gens) in enumerate(cases):
        ideal = Ideal(space, [MPoly(space, g.terms, field) for g in gens], field)
        try:
            gb = buchberger(ideal)
        except ValueError:
            outcomes.append("input")
            assert max(ideal.generators[0].multidegree()) >= 8, trial
            continue
        except BudgetExceededError:
            outcomes.append("lcm")
            report = classify_linear_section(ideal)
            assert report.status == "Inconclusive" or _verdict(report) == wide[trial], trial
            continue
        outcomes.append("basis")
        got = {lt: dict(g.terms) for lt, g in zip(gb.lead_terms, gb.polys)}
        want = oracles.reference_groebner(space.sizes, [g.terms for g in ideal.generators],
                                          field.modulus)
        assert got == want, trial
    assert {"input", "lcm", "basis"} <= set(outcomes), outcomes


# ---------------------------------------------------------------------------
# classification


def test_classify_coordinate_point():
    space = ternary(1)
    gens = mono_poly(space, (0, 1, 0), (0, 0, 1))
    report = classify_linear_section(Ideal(space, gens))
    assert report.status == "ZeroDim" and report.length == 1


def test_classify_two_conics_bezout():
    rng = random.Random(16)
    space = ternary(2)
    report = classify_linear_section(
        Ideal(space, [random_form(space, 2, rng) for _ in range(2)]))
    assert report.status == "ZeroDim" and report.length == 4


def test_classify_concrete_conic_pair():
    # x0^2 - x2^2 and x1^2 - x2^2 meet in the four points (+-1, +-1, 1)
    space = ternary(2)
    f = MPoly(space, {(2, 0, 0): 1, (0, 0, 2): -1})
    g = MPoly(space, {(0, 2, 0): 1, (0, 0, 2): -1})
    report = classify_linear_section(Ideal(space, [f, g]))
    assert report.status == "ZeroDim" and report.length == 4


def test_classify_zero_ideal_positive_dim():
    assert classify_linear_section(Ideal(ternary(2), [])).status == "PositiveDim"


def test_classify_single_conic_positive_dim():
    rng = random.Random(17)
    space = ternary(2)
    report = classify_linear_section(Ideal(space, [random_form(space, 2, rng)]))
    assert report.status == "PositiveDim"


def test_classify_complete_intersections_random():
    rng = random.Random(18)
    cases = [((3,), (2, 2)), ((3,), (2, 3)), ((3,), (3, 3)),
             ((4,), (2, 2, 2)), ((4,), (2, 2, 3)), ((4,), (3, 3, 3))]
    for sizes, degs in cases:
        space = TensorSpace(sizes, (max(degs),))
        gens = [random_form(space, d, rng) for d in degs]
        report = classify_linear_section(Ideal(space, gens))
        expected = 1
        for d in degs:
            expected *= d
        assert report.status == "ZeroDim" and report.length == expected


def test_classify_row_operation_invariance():
    space = TensorSpace((3,), (4,))
    T, _ = random_tensor(space, 3, RandomConfig(seed=19))
    fl = flatten(T, Split.of(space, (1,)))
    span = image_span(fl)
    shuffled = DenseMatrix(QQ, [
        [a + b for a, b in zip(span.rows[0], span.rows[1])],
        span.rows[2],
        [5 * a for a in span.rows[1]],
    ], span.ncols)
    r1 = classify_linear_section(pullback_linear_section(span, space, (3,)))
    r2 = classify_linear_section(pullback_linear_section(shuffled, space, (3,)))
    assert (r1.status, r1.length) == (r2.status, r2.length)


def test_classify_generic_points_on_veronese():
    # spans of k generic points cut exactly k points in the effective range
    for n, d, k, seed in [(2, 3, 2, 0), (2, 3, 4, 1), (2, 4, 5, 2), (3, 2, 3, 3)]:
        space = TensorSpace((n + 1,), (d,))
        _, dec = random_tensor(space, k, RandomConfig(seed=seed))
        basis = monomial_basis(space, (d,))
        rows = [coefficient_vector(dec.term_polynomial(i), basis) for i in range(k)]
        span = DenseMatrix(QQ, rows, len(basis))
        ideal = pullback_linear_section(span, space, (d,))
        report = classify_linear_section(ideal)
        assert report.status == "ZeroDim" and report.length == k


def test_classify_budget_inconclusive():
    rng = random.Random(20)
    space = TensorSpace((2, 2), (1, 1))
    gens = [random_form(space, (1, 1), rng) for _ in range(2)]
    # the chart decides these two forms with one S-pair, so none is allowed
    report = classify_linear_section(Ideal(space, gens), budget=0)
    assert report.status == "Inconclusive"


def test_mixed_pullback_vanishes_on_decomposition_points():
    # blunt evaluation check: every section generator vanishes at the points
    # of the product of projective spaces carrying the rank-one terms
    space = TensorSpace((2, 5, 4), (3, 2, 3))
    T, dec = random_tensor(space, 5, RandomConfig(seed=21))
    ideal = pullback_linear_section(
        image_span(flatten(T, Split.of(space, (2, 1, 2)))), space, (1, 1, 1))
    assert len(ideal) == 35
    for g in ideal.generators:
        for term in dec.terms:
            point = tuple(Fraction(c) for form in term for c in form)
            value = Fraction(0)
            for mono, c in g.terms.items():
                prod = Fraction(c)
                for v, e in zip(point, mono):
                    if e:
                        prod *= v ** e
                value += prod
            assert value == 0


def test_classify_mixed_segre_veronese_points():
    # 2 generic points on the (1,1) re-embedding of P1 x P1 inside P3
    space = TensorSpace((2, 2), (2, 2))
    T, _ = random_tensor(space, 2, RandomConfig(seed=21))
    fl = flatten(T, Split.of(space, (1, 1)))
    assert fl.rank == 2
    ideal = pullback_linear_section(image_span(fl), space, (1, 1))
    report = classify_linear_section(ideal)
    assert report.status == "ZeroDim" and report.length == 2


def _verdict(report):
    return report.status, report.length


def test_classify_multigraded_known_answers():
    # one general (1,1) form on P1 x P1 cuts a curve, two cut (1,1).(1,1) = 2
    # points, three cut nothing
    rng = random.Random(30)
    space = TensorSpace((2, 2), (1, 1))
    gens = [random_form(space, (1, 1), rng) for _ in range(3)]
    assert _verdict(classify_linear_section(Ideal(space, gens[:1]))) == ("PositiveDim", None)
    assert _verdict(classify_linear_section(Ideal(space, gens[:2]))) == ("ZeroDim", 2)
    assert _verdict(classify_linear_section(Ideal(space, gens))) == ("Empty", None)


def test_classify_moves_a_fat_point_at_infinity_into_a_chart():
    # (x0, x1^5) on P2 is the point [0:0:1] with multiplicity 5, on x0 = 0:
    # the first chart sees nothing and its check at infinity the point, so a
    # random chart decides, with 1, 2, .., 5 standard monomials by degree
    space = ternary(5)
    ideal = Ideal(space, [MPoly(space, {(1, 0, 0): 1}), MPoly(space, {(0, 5, 0): 1})])
    report = classify_linear_section(ideal)
    assert _verdict(report) == ("ZeroDim", 5)
    assert [v for _, v in report.trace] == [1, 2, 3, 4, 5]
    assert report.note.startswith("chart 1:") and report.basis.shift is not None


# (sizes, generator multidegrees) of the seeded sweep below
SWEEP_SPACES = [
    ((2, 2), [(1, 1), (1, 2), (2, 1)]),
    ((2, 3), [(1, 1), (1, 2), (2, 1)]),
    ((2, 2, 2), [(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)]),
]

# verdicts of the stabilization-window classifier this one replaced, one per
# ideal of ``_sweep_ideals(29, 40)``: P = PositiveDim, E = Empty, an integer
# the length of a ZeroDim scheme
SWEEP_VERDICTS = ("P 3 E 3 3 P P 1 12 2 P P P 3 P P P E 4 E "
                  "P P P P E E P 3 4 E 12 3 P P P P E P E E")


def _sweep_ideals(seed, trials):
    """n - 1 .. n + 1 random forms on a product of dimension n, a fifth of
    the time all multiplied by one common form of degree (1, 0, ..)."""
    rng = random.Random(seed)
    for _ in range(trials):
        sizes, degrees = rng.choice(SWEEP_SPACES)
        space = TensorSpace(sizes, (1,) * len(sizes))
        n = space.total_projective_dim
        gens = [random_form(space, rng.choice(degrees), rng, bound=5)
                for _ in range(rng.randint(max(1, n - 1), n + 1))]
        if rng.random() < 0.2:
            common = random_form(space, (1,) + (0,) * (len(sizes) - 1), rng, bound=5)
            gens = [common * g for g in gens]
        yield Ideal(space, gens)


def test_classify_multigraded_sweep_matches_known_verdicts():
    codes = {"P": ("PositiveDim", None), "E": ("Empty", None)}
    expected = [codes.get(c) or ("ZeroDim", int(c)) for c in SWEEP_VERDICTS.split()]
    got = [_verdict(classify_linear_section(ideal)) for ideal in _sweep_ideals(29, 40)]
    assert got == expected


@pytest.mark.parametrize("sizes,degrees,expected", [
    ((3,), [2, 3], ("ZeroDim", 6)),
    ((3,), [2, 2, 2], ("Empty", None)),
    ((3,), [3], ("PositiveDim", None)),
    ((2, 2), [(1, 1), (1, 2)], ("ZeroDim", 3)),
    ((2, 2), [(2, 1)], ("PositiveDim", None)),
    ((2, 3), [(1, 1), (1, 2), (2, 1)], ("ZeroDim", 7)),
    ((2, 3), [(1, 1)] * 4, ("Empty", None)),
], ids=["P2-points", "P2-empty", "P2-curve", "P1xP1-points", "P1xP1-curve",
        "P1xP2-points", "P1xP2-empty"])
def test_classify_invariant_under_change_of_coordinates(sizes, degrees, expected):
    # an invertible linear change of coordinates in each group moves the
    # scheme by an automorphism, so its dimension and length stay
    rng = random.Random(38)
    space = TensorSpace(sizes, (1,) * len(sizes))
    gens = [random_form(space, d, rng, bound=5) for d in degrees]
    matrices = [oracles.random_invertible(s, rng) for s in sizes]
    moved = [MPoly(space, oracles.substitute(sizes, g.terms, matrices)) for g in gens]
    assert _verdict(classify_linear_section(Ideal(space, gens))) == expected
    assert _verdict(classify_linear_section(Ideal(space, moved))) == expected


# ---------------------------------------------------------------------------
# the affine charts against the reference classifier


def _term_at_infinity(sizes, degrees, h, g, seed=1):
    """A random h-term decomposition whose first term lies on x_{g,0} = 0."""
    space = TensorSpace(sizes, degrees)
    _, dec = random_tensor(space, h, RandomConfig(seed=seed))
    first = list(dec.terms[0])
    first[g] = (0,) + first[g][1:]
    return Decomposition(space, [tuple(first)] + list(dec.terms[1:]))


#: (sizes, degrees, h) of the Proposition 3.1 sections in the chart slice
CHART_SECTIONS = [((3,), (5,), 6), ((2, 2, 2), (2, 2, 2), 3), ((3, 3), (2, 2), 4)]


def _section(T, h):
    split = default_split(T.space, h)
    return pullback_linear_section(image_span(flatten(T, split)), T.space, split.b)


def _chart_slice():
    """(ideal, group of its section point on x_{g,0} = 0 or None), over QQ
    and F_p: the sweep's ideals and Proposition 3.1 sections of random
    tensors and of decompositions with a term on x_{g,0} = 0, for every g."""
    cases = [(ideal, None) for ideal in _sweep_ideals(29, 40)]
    for sizes, degrees, h in CHART_SECTIONS:
        cases.append((_section(random_tensor(TensorSpace(sizes, degrees), h,
                                             RandomConfig(seed=2))[0], h), None))
        cases += [(_section(_term_at_infinity(sizes, degrees, h, g).expand(), h), g)
                  for g in range(len(sizes))]
    for ideal, g in list(cases):
        space = ideal.space
        cases.append((Ideal(space, [MPoly(space, f.terms, FP) for f in ideal.generators], FP), g))
    return cases


def _reference(ideal):
    return oracles.reference_classify(ideal.space.sizes, [f.terms for f in ideal.generators],
                                      ideal.field.modulus)


def test_chart_matches_the_reference_classifier():
    # the charts' verdict is the diagonal Hilbert function's; a section point
    # on x_{g,0} = 0 sends the ideal on to a random chart, named in the note
    seen = set()
    for trial, (ideal, g) in enumerate(_chart_slice()):
        report = classify_linear_section(ideal)
        assert _verdict(report) == _reference(ideal), trial
        assert report.method == "affine-chart", trial
        retried = report.basis.shift is not None
        assert bool(report.note) == retried and (g is None or retried), trial
        seen.add((report.status, g is None, retried))
        if report.status != "PositiveDim":
            assert report.at_infinity == ("Empty",) * ideal.space.p, trial
            assert report.trace[-1][1] == (report.length or 0), trial
    assert {("Empty", True, False), ("PositiveDim", True, False), ("ZeroDim", True, False),
            ("ZeroDim", False, True), ("ZeroDim", True, True)} <= seen, seen


def test_empty_matches_the_reference_classifier():
    # every ideal at infinity of the slice, in the first chart and in a
    # moved one, and hand cases: (x0 x1, x2) on P2 holds [1:0:0] though a
    # leading term has the variable x0, and on P1 x P1 a term in x_{1,0} and
    # x_{2,1} alone rules out one coordinate point only
    ideals = []
    for ideal, _ in _chart_slice():
        moved = _moved(ideal, [(2,) * (s - 1) for s in ideal.space.sizes])
        ideals += [_at_infinity(i, g) for i in (ideal, moved) for g in range(ideal.space.p)]
    p2, p1p1 = ternary(2), TensorSpace((2, 2), (1, 1))
    hand = [([(1, 1, 0), (0, 0, 1)], False), ([(2, 0, 0), (0, 1, 0), (0, 0, 3)], True),
            ([(1, 1, 0), (0, 1, 1), (1, 0, 1)], False), ([(1, 1, 0), (0, 2, 0), (0, 0, 1)], False)]
    ideals += [Ideal(p2, mono_poly(p2, *monos)) for monos, _ in hand]
    mixed = [([(1, 0, 0, 1)], False), ([(1, 0, 1, 0), (0, 1, 0, 1)], False),
             ([(1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1)], True)]
    ideals += [Ideal(p1p1, mono_poly(p1p1, *monos)) for monos, _ in mixed]
    seen = set()
    for trial, ideal in enumerate(ideals):
        empty, _ = _empty(ideal, None)
        assert empty == (_reference(ideal)[0] == "Empty"), trial
        seen.add(empty)
    assert [_empty(ideal, None)[0] for ideal in ideals[-7:]] == [e for _, e in hand + mixed]
    assert seen == {True, False}


def test_empty_stops_once_no_coordinate_point_is_left():
    # 1c's three checks at infinity mod 2^61 - 1 stop among the generators:
    # their leading terms, each reduced by those before, already leave no
    # coordinate point.  The (3,3)/(2,2) h=4 section's group-1 check stops
    # after two S-pairs, where its complete basis takes more
    field = PrimeField(2 ** 61 - 1)
    T, _ = random_tensor(TensorSpace((2, 5, 4), (3, 2, 3)), 5, RandomConfig(seed=1))
    ideal = _section(MPoly(T.space, T.terms, field), 5)
    assert [_empty(_at_infinity(ideal, g), None) for g in range(3)] == [(True, 0)] * 3
    T, _ = random_tensor(TensorSpace((3, 3), (2, 2)), 4, RandomConfig(seed=2))
    at_infinity = _at_infinity(_section(T, 4), 0)
    assert _empty(at_infinity, 2) == (True, 2)
    with pytest.raises(BudgetExceededError):
        buchberger(at_infinity, budget=2)


def test_moved_chart_points_are_the_section_points():
    # 1c's decomposition with its first term on x_{2,0} = 0: a random chart
    # decides its section mod 2^61 - 1, and the points it recovers, moved
    # back, are the decomposition's terms, the one at infinity included
    field = PrimeField(2 ** 61 - 1)
    dec = _term_at_infinity((2, 5, 4), (3, 2, 3), 5, 1)
    T = dec.expand()
    report = classify_linear_section(_section(MPoly(T.space, T.terms, field), 5))
    assert (report.describe(), report.method) == ("ZeroDim(5)", "affine-chart")
    assert report.basis.shift is not None and report.note.startswith("chart 1:")
    assert _residues(rational_points(report.basis, 5), field) == _residues(dec.terms, field)


def _residues(points, field):
    """The points mod p, each form scaled to a first nonzero entry of 1, sorted."""
    def scaled(form):
        form = [field(x) for x in form]
        inv = field.inv(next(x for x in form if x))
        return tuple(field.mul(x, inv) for x in form)
    return sorted(tuple(map(scaled, point)) for point in points)


def test_chart_points_are_the_section_points():
    # the chart of 1c's section mod 2^61 - 1 has the 5 terms as its points
    space, field = TensorSpace((2, 5, 4), (3, 2, 3)), PrimeField(2 ** 61 - 1)
    T, dec = random_tensor(space, 5, RandomConfig(seed=1))
    ideal = _section(MPoly(space, T.terms, field), 5)
    report = classify_linear_section(ideal)
    assert (report.describe(), report.method) == ("ZeroDim(5)", "affine-chart")
    assert report.at_infinity == ("Empty",) * 3
    assert _residues(rational_points(report.basis, 5), field) == _residues(dec.terms, field)
    assert rational_points(report.basis, 4) is None


def test_binary_points_are_the_section_points():
    # a binary section's gcd mod p has the terms as its zeros: [1 : 0],
    # where the gcd loses one degree, and [0 : 1], a root 0, included.  A
    # double point gives none: at [1 : 0] (x^8 y), at the root 0 (x y^8)
    # and at another root ((x + 2y)^8 y)
    field = PrimeField(2 ** 61 - 1)
    space = TensorSpace((2,), (9,))
    terms = [((1, 0),), ((0, 1),), ((3, -7),), ((5, 2),)]
    T = Decomposition(space, terms).expand()
    report = classify_linear_section(_section(MPoly(space, T.terms, field), 4))
    assert (report.describe(), report.method) == ("ZeroDim(4)", "binary-gcd")
    assert _residues(rational_points(report.basis, 4), field) == _residues(terms, field)
    assert rational_points(report.basis, 3) is None
    x, y = (MPoly(space, {m: 1}, field) for m in ((1, 0), (0, 1)))
    for double in (x ** 8 * y, x * y ** 8, (x + y.scale(2)) ** 8 * y):
        report = classify_linear_section(_section(double, 2))
        assert report.describe() == "ZeroDim(2)"
        assert rational_points(report.basis, 2) is None


# ---------------------------------------------------------------------------
# binary fast path


def test_classify_unit_ideal_empty():
    # a constant generator (kernel of a zero span at a trivial split)
    # collapses the quotient: the scheme is empty, not a hang
    space = ternary(2)
    one = MPoly(space, {(0, 0, 0): 3})
    report = classify_linear_section(Ideal(space, [one]))
    assert report.status == "Empty"
    mixed = TensorSpace((2, 2), (1, 1))
    one2 = MPoly(mixed, {(0, 0, 0, 0): 1})
    report2 = classify_linear_section(Ideal(mixed, [one2]))
    assert report2.status == "Empty"


def test_binary_fast_path_examples():
    space = TensorSpace((2,), (2,))
    gens = [MPoly(space, {(1, 1): 1}), MPoly(space, {(0, 2): 1})]
    report = binary_fast_path(Ideal(space, gens))
    assert report.status == "ZeroDim" and report.length == 1

    rng = random.Random(22)
    space5 = TensorSpace((2,), (5,))
    coprime = [random_form(space5, 5, rng) for _ in range(2)]
    assert binary_fast_path(Ideal(space5, coprime)).status == "Empty"

    single = binary_fast_path(Ideal(space5, [random_form(space5, 5, rng)]))
    assert single.status == "ZeroDim" and single.length == 5

    assert binary_fast_path(Ideal(space5, [])).status == "PositiveDim"


def test_binary_fast_path_agrees_with_general_classifier():
    rng = random.Random(23)
    for _ in range(25):
        d = rng.randint(1, 12)
        space = TensorSpace((2,), (d,))
        gens = []
        for _ in range(rng.randint(1, 3)):
            if d >= 2 and rng.random() < 0.5:
                # multiply a lower form by x1_0 so nonempty schemes appear
                g = random_form(TensorSpace((2,), (d - 1,)), d - 1, rng, bound=6)
                f = MPoly(space, {(m[0] + 1, m[1]): c for m, c in g.terms.items()})
            else:
                f = random_form(space, d, rng, bound=6)
            gens.append(f)
        fast = binary_fast_path(Ideal(space, gens))
        assert _verdict(fast) == _reference(Ideal(space, gens))


def test_binary_fast_path_prime_field():
    from tensorcert import PrimeField
    fp = PrimeField(1073741789)
    space = TensorSpace((2,), (4,))
    f = MPoly(space, {(4, 0): 1, (2, 2): 2, (0, 4): 1}, fp)   # (x0^2+x1^2)^2
    g = MPoly(space, {(2, 0): 1, (1, 1): 0, (0, 2): 1}, fp)   # x0^2+x1^2
    report = binary_fast_path(Ideal(space, [f, g]))
    assert report.status == "ZeroDim" and report.length == 2
