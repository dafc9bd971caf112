"""Acceptance suite.

One test per acceptance criterion; every test prints a PASS/FAIL line (run
with ``pytest tests/test_acceptance.py -v -s`` to watch them stream by).
"""

import random
import time

import pytest

from tensorcert import (Decomposition, DenseMatrix, MPoly, QQ, RandomConfig, Split,
                        TensorSpace, certify, certify_prop31, certify_thm37,
                        classify_linear_section, corollary35_bound, effective_range,
                        flatten, random_tensor, Ideal)

import oracles
from conftest import random_form


def _report(name, ok, extra=""):
    suffix = f" ({extra})" if extra else ""
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, name


def _timed_certify(target, h, limit, **kw):
    start = time.perf_counter()
    cert = certify(target, h, **kw)
    elapsed = time.perf_counter() - start
    return cert, elapsed, elapsed <= limit


# ---------------------------------------------------------------------------
# criterion 1: session reproduction


def test_1a_seven_quintic_powers():
    space = TensorSpace((3,), (5,))
    T, _ = random_tensor(space, 7, RandomConfig(seed=1))
    cert, elapsed, in_time = _timed_certify(T, 7, 30)
    text = "\n".join(cert.summary_lines())
    ok = (cert.certified and cert.criterion == "Thm37"
          and "Theorem 3.7" in cert.label
          and "7-identifiability certified" in text and in_time)
    _report("1a seven quintic powers h=7 (Thm 3.7)", ok, f"{elapsed:.2f}s <= 30s")


def test_1b_first_six_summands():
    space = TensorSpace((3,), (5,))
    _, dec = random_tensor(space, 7, RandomConfig(seed=1))
    T6 = Decomposition(space, dec.terms[:6]).expand()
    cert, elapsed, in_time = _timed_certify(T6, 6, 30)
    text = "\n".join(cert.summary_lines())
    ok = (cert.certified and cert.criterion == "Prop31"
          and "specific 6-identifiability certified" in text and in_time)
    _report("1b first six summands h=6 (Prop 3.1)", ok, f"{elapsed:.2f}s <= 30s")


def test_1c_mixed_tensor():
    space = TensorSpace((2, 5, 4), (3, 2, 3))
    T, _ = random_tensor(space, 5, RandomConfig(seed=1))
    count_ok = len(T) == 1200
    cert, elapsed, in_time = _timed_certify(T, 5, 600)
    text = "\n".join(cert.summary_lines())
    ok = (count_ok and cert.certified
          and "specific 5-identifiability certified" in text and in_time)
    _report("1c mixed (2,5,4)/(3,2,3) h=5, 1200 terms", ok, f"{elapsed:.2f}s <= 600s")


def test_1d_seven_quartic_powers():
    space = TensorSpace((4,), (4,))
    _, dec = random_tensor(space, 7, RandomConfig(seed=1))
    cert, elapsed, in_time = _timed_certify(dec, None, 300)
    text = "\n".join(cert.summary_lines())
    ok = (cert.certified and cert.criterion == "Prop33"
          and "applying Proposition 3.3" in text and in_time)
    _report("1d seven quartic powers (Prop 3.3)", ok, f"{elapsed:.2f}s <= 300s")


def test_1e_eight_sextic_powers():
    space = TensorSpace((3,), (6,))
    _, dec = random_tensor(space, 8, RandomConfig(seed=1))
    cert, elapsed, in_time = _timed_certify(dec, None, 300)
    ok = cert.certified and cert.criterion == "Prop33" and in_time
    _report("1e eight sextic powers (Prop 3.3)", ok, f"{elapsed:.2f}s <= 300s")


def test_1f_cubic_in_four_variables():
    space = TensorSpace((4,), (3,))
    T, _ = random_tensor(space, 5, RandomConfig(seed=1))
    cert, elapsed, in_time = _timed_certify(T, 5, 120)
    ok = cert.certified and cert.criterion == "Thm37" and in_time
    _report("1f cubic in 4 variables h=5 (Thm 3.7)", ok, f"{elapsed:.2f}s <= 120s")


def test_1g_binary_degree_69():
    space = TensorSpace((2,), (69,))
    F = random_form(space, 69, random.Random(1), bound=1 << 15)
    cert, elapsed, in_time = _timed_certify(F, 35, 300)
    gcd_path = cert.checks[1].detail["method"] == "binary-gcd"
    ok = cert.certified and cert.criterion == "Thm37" and gcd_path and in_time
    _report("1g binary degree 69 h=35 (gcd fast path)", ok, f"{elapsed:.2f}s <= 300s")


# ---------------------------------------------------------------------------
# criterion 2: bound arithmetic


def test_2_bound_arithmetic():
    rng = random.Random(2)
    checks = 0
    for _ in range(20):
        p = rng.randint(1, 3)
        sizes = tuple(rng.randint(2, 5) for _ in range(p))
        degrees = tuple(rng.randint(1, 4) for _ in range(p))
        space = TensorSpace(sizes, degrees)
        split = Split.of(space, tuple(rng.randint(0, d) for d in degrees))
        h = rng.randint(1, 15)
        assert effective_range(space, split, h) == \
            oracles.effective_range_independent(sizes, split.b, h)
        checks += 1
    for _ in range(20):
        n = rng.randint(2, 7)
        degrees = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
        assert corollary35_bound("mixed-symmetric", n=n, degrees=degrees) == \
            oracles.cor35_bound_independent("mixed-symmetric", n=n, degrees=degrees)
        assert corollary35_bound("skew", n=n + 5, degrees=degrees) == \
            oracles.cor35_bound_independent("skew", n=n + 5, degrees=degrees)
        factors = rng.randint(2, 6)
        assert corollary35_bound("segre", n=n, factors=factors) == \
            oracles.cor35_bound_independent("segre", n=n, factors=factors)
        rest = tuple(rng.randint(2, 4) for _ in range(rng.randint(2, 4)))
        bound = oracles.cor35_bound_independent("unbalanced-segre", dims=(0,) + rest)
        assert corollary35_bound("unbalanced-segre", dims=(bound + 2,) + rest) == bound
        checks += 4
    _report("2 bound arithmetic vs independent formulas", True, f"{checks} tuples")


# ---------------------------------------------------------------------------
# criterion 3: Sylvester oracle equivalence


def test_3_sylvester_oracle_equivalence():
    rng = random.Random(3)
    agreements = 0
    for d in (5, 7, 9, 11):
        h = (d + 1) // 2
        space = TensorSpace((2,), (d,))
        for _ in range(100):
            F = random_form(space, d, rng, bound=1 << 15)
            coeffs = [0] * (d + 1)
            for (i, _), c in F.terms.items():
                coeffs[i] = int(c)
            verdict = certify_thm37(F, h).certified
            oracle = oracles.sylvester_unique(coeffs, h)
            assert verdict == oracle, (d, coeffs)
            agreements += 1
    _report("3 Sylvester oracle equivalence", agreements == 400, "400 binary forms")


# ---------------------------------------------------------------------------
# criterion 4: Bezout lengths


def test_4_bezout_complete_intersections():
    space = TensorSpace((3,), (3,))
    rng = random.Random(4)
    for trial in range(50):
        gens = [random_form(space, 2, rng) for _ in range(2)]
        report = classify_linear_section(Ideal(space, gens))
        assert (report.status, report.length) == ("ZeroDim", 4), trial
    for trial in range(50):
        gens = [random_form(space, 2, rng), random_form(space, 3, rng)]
        report = classify_linear_section(Ideal(space, gens))
        assert (report.status, report.length) == ("ZeroDim", 6), trial
    _report("4 Bezout: 50x ZeroDim(4) and 50x ZeroDim(6)", True)


# ---------------------------------------------------------------------------
# criterion 5: flattening laws


def _law_instances():
    # (sizes, degrees, h) regimes across p = 1, 2, 3
    single = [((2,), (3,), 2), ((2,), (5,), 2), ((3,), (4,), 3), ((3,), (3,), 2)]
    double = [((2, 2), (2, 2), 1), ((2, 3), (2, 2), 2), ((2, 2), (2, 1), 2)]
    triple = [((2, 2, 2), (2, 2, 2), 1), ((2, 2, 2), (2, 2, 2), 2),
              ((2, 2, 2), (1, 1, 2), 1)]
    plan = []
    for i in range(120):
        plan.append(single[i % len(single)])
    for i in range(50):
        plan.append(double[i % len(double)])
    for i in range(30):
        plan.append(triple[i % len(triple)])
    return plan


def test_5_flattening_laws():
    checked = 0
    for seed, (sizes, degrees, h) in enumerate(_law_instances()):
        space = TensorSpace(sizes, degrees)
        T, _ = random_tensor(space, h, RandomConfig(seed=seed, bound=64))
        S, _ = random_tensor(space, 1, RandomConfig(seed=seed + 7_000, bound=64))
        split = Split.of(space, tuple((d + 1) // 2 for d in degrees))
        # linearity
        left = flatten(T.scale(3) + S.scale(-2), split).matrix
        A, B = flatten(T, split).matrix, flatten(S, split).matrix
        right = DenseMatrix(QQ, [[3 * a - 2 * b for a, b in zip(r, s)]
                                 for r, s in zip(A.rows, B.rows)], A.ncols)
        assert left == right, seed
        # rank bound for h-term sums
        assert flatten(T, split).rank <= h, seed
        # scaling invariance of verdicts
        base = certify(T, h)
        scaled = certify(T.scale(-5), h)
        assert scaled.verdict == base.verdict, seed
        assert [(c.name, c.passed) for c in scaled.checks] == \
            [(c.name, c.passed) for c in base.checks], seed
        checked += 1
    _report("5 flattening laws", checked == 200, f"{checked} instances")


# ---------------------------------------------------------------------------
# criterion 6: the defective ternary-quartic regime stays inconclusive


def test_6_defective_regime_never_certifies():
    space = TensorSpace((3,), (4,))
    for seed in range(12):
        T, _ = random_tensor(space, 5, RandomConfig(seed=seed))
        via_dispatcher = certify(T, 5)
        assert via_dispatcher.verdict == "Inconclusive", seed
        assert via_dispatcher.reason == "out of criteria range"
        direct = certify_prop31(T, 5)
        assert direct.verdict == "Inconclusive", seed
    _report("6 ternary quartic h=5 always Inconclusive", True, "12 seeds, both paths")
