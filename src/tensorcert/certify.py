"""Identifiability criteria and the certification dispatcher.

Three sufficient criteria are implemented; their report labels are part of
the tool's interface:

* ``Proposition 3.1``: the flattening at a chosen split has rank h and the
  span of the derivatives cuts the multidegree-b variety in a zero
  dimensional scheme of length exactly h.  A certificate, granted only with
  a proven length-h decomposition, asserts that the tensor is
  h-identifiable and has rank exactly h.
* ``Proposition 3.3``: for an explicit decomposition, the boundary regime
  where the section may pick up one extra point; two arithmetic conditions
  plus a length check on the span of the rank-one terms themselves.
* ``Theorem 3.7``: the three exceptional single-group families where the
  criterion is full-rank of the catalecticant plus emptiness of the section.

Every criterion runs its checks mod a prime on one route (``_route``): over
F_p mod the field's own, over QQ mod two fixed primes, the second only when
the first proves nothing.  A mod-p result counts only when
``_section_proof`` proves it exact; otherwise the report holds the values
mod the first prime, each check naming it, and certifies nothing.

Verdicts are only Certified or Inconclusive: these are sufficient conditions,
so failure never claims non-identifiability.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace
from functools import partial
from math import comb, factorial

from .fields import QQ, PrimeField, numerators, primitive
from .flatten import Split, SplitError, default_split, flatten, image_span
from .ideals import classify_linear_section, pullback_linear_section, rational_points
from .linalg import (_LIFT_FIELD, DenseMatrix, _reconstruct, kernel_basis, lifted_kernel,
                     row_space_basis)
from .poly import (MPoly, TensorSpace, check_degrees, monomial_basis, poly_from_numerators,
                   rank_one_numerators)

CRITERION_LABELS = {
    "Prop31": "Proposition 3.1",
    "Prop33": "Proposition 3.3",
    "Thm37": "Theorem 3.7",
}


@dataclass(frozen=True)
class Check:
    """One verified condition: what was computed and what was required."""

    name: str
    computed: object
    required: object
    passed: bool
    detail: dict = None


@dataclass
class Certificate:
    criterion: str            # Prop31 | Prop33 | Thm37 | None
    verdict: str              # Certified | Inconclusive
    h: int
    space: TensorSpace
    checks: tuple = ()
    label: str = ""
    reason: str = None
    split: Split = None
    family: tuple = None      # (n, d, h, s) for Thm37
    effective: bool = False
    prime: int = None         # the field's modulus, None over QQ
    seconds: float = 0.0
    budget_exhausted: bool = False

    @property
    def certified(self) -> bool:
        return self.verdict == "Certified"

    @property
    def field_mode(self) -> str:
        """``exact`` over QQ; over F_p a ``probabilistic`` stand-in for QQ."""
        return "exact" if self.prime is None else "probabilistic"

    def summary_lines(self):
        """Text report in the spirit of an interactive session log."""
        space = self.space
        if space.p == 1:
            lines = [f"got symmetric tensor of dimension {space.sizes[0]} "
                     f"and degree {space.degrees[0]}"]
        else:
            lines = [f"got mixed symmetric tensor of dimensions {list(space.sizes)} "
                     f"and multidegree {list(space.degrees)}"]
        if self.criterion in ("Thm37", "Prop33"):
            lines.append(f"applying {self.label}...")
        for c in self.checks:
            status = "pass" if c.passed else "fail"
            lines.append(f"check {c.name}: computed {c.computed}, "
                         f"required {c.required} -> {status}")
        if self.certified:
            if self.criterion == "Prop31":
                lines.append(f"specific {self.h}-identifiability certified")
            else:
                lines.append(f"{self.h}-identifiability certified")
        else:
            reason = self.reason or "conditions not satisfied"
            lines.append(f"{self.h}-identifiability not certified: {reason}")
        mode = self.field_mode if self.prime is None else f"{self.field_mode} mod {self.prime}"
        lines.append(f"field: {mode}; proven-effective range: "
                     f"{'yes' if self.effective else 'no'}; "
                     f"time: {self.seconds:.3f}s")
        return lines

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "criterion": self.criterion,
            "label": self.label,
            "verdict": self.verdict,
            "reason": self.reason,
            "h": self.h,
            "space": {"sizes": list(self.space.sizes),
                      "degrees": list(self.space.degrees)},
            "split": None if self.split is None else
                     {"a": list(self.split.a), "b": list(self.split.b),
                      "dim_a": self.split.dim_a, "dim_b": self.split.dim_b},
            "family": None if self.family is None else list(self.family),
            "checks": [{"name": c.name, "computed": c.computed, "required": c.required,
                        "passed": c.passed, "detail": c.detail}
                       for c in self.checks],
            "effective": self.effective,
            "field": {"mode": self.field_mode, "prime": self.prime},
            "budget_exhausted": self.budget_exhausted,
            "timing_seconds": self.seconds,
        }


class Decomposition:
    """An ordered list of rank-one terms, one tuple of linear forms each."""

    __slots__ = ("space", "field", "terms", "lambdas")

    def __init__(self, space: TensorSpace, terms, lambdas=None, field=QQ):
        clean_terms = []
        for term in terms:
            if len(term) != space.p:
                raise ValueError("each term needs one linear form per group")
            forms = []
            for g, coeffs in enumerate(term):
                coeffs = tuple(field(c) for c in coeffs)
                if len(coeffs) != space.sizes[g]:
                    raise ValueError(f"group {g + 1} form needs {space.sizes[g]} entries")
                if all(field.is_zero(c) for c in coeffs):
                    raise ValueError("zero linear form in a rank-one term")
                forms.append(coeffs)
            clean_terms.append(tuple(forms))
        if not clean_terms:
            raise ValueError("a decomposition needs at least one term")
        if lambdas is not None:
            lambdas = tuple(field(x) for x in lambdas)
            if len(lambdas) != len(clean_terms):
                raise ValueError("one coefficient per term expected")
            if any(field.is_zero(x) for x in lambdas):
                raise ValueError("zero coefficient in a decomposition")
        for i, j in itertools.combinations(range(len(clean_terms)), 2):
            if _terms_proportional(field, clean_terms[i], clean_terms[j]):
                raise ValueError(f"terms {i} and {j} are proportional")
        self.space = space
        self.field = field
        self.terms = tuple(clean_terms)
        self.lambdas = lambdas

    @property
    def h(self) -> int:
        return len(self.terms)

    def term_polynomial(self, i: int) -> MPoly:
        return self._sum_terms((i,))

    def expand(self) -> MPoly:
        return self._sum_terms(range(self.h))

    def _sum_terms(self, indices) -> MPoly:
        # integer numerators over one common denominator, summed in one dict;
        # field elements are made once per monomial at the end
        f = self.field
        parts, weights = [], []
        for i in indices:
            nums, den = rank_one_numerators(self.space, self.terms[i], field=f)
            lam = f.one if self.lambdas is None else self.lambdas[i]
            parts.append(nums)
            weights.append(lam / den if f.modulus is None else lam)   # den is 1 mod p
        weights, common = numerators(weights)
        acc = {}
        for nums, weight in zip(parts, weights):
            for m, n in nums.items():
                acc[m] = acc.get(m, 0) + n * weight
        return poly_from_numerators(self.space, acc, common, f)


def _terms_proportional(field, t1, t2) -> bool:
    for u, v in zip(t1, t2):
        for i, j in itertools.combinations(range(len(u)), 2):
            if field.mul(u[i], v[j]) != field.mul(u[j], v[i]):
                return False
    return True


# ---------------------------------------------------------------------------
# numeric ranges


def effective_range(space: TensorSpace, split: Split, h: int) -> bool:
    """Whether the split lies in the proven-effective range: dim V_B > h + n."""
    return split.dim_b > h + space.total_projective_dim


def segre_veronese_degree(proj_dims, multideg) -> int:
    """Closed-form degree of the multidegree embedding of a product of
    projective spaces: multinomial(n; n_i) * prod d_i^{n_i}."""
    n = sum(proj_dims)
    out = factorial(n)
    for ni, di in zip(proj_dims, multideg):
        out //= factorial(ni)
        out *= di ** ni
    return out


def corollary35_bound(family: str, *, n=None, degrees=None, factors=None, dims=None) -> int:
    """Strict upper bound B of the effectiveness statement: effective for h < B."""
    if family == "mixed-symmetric":
        if n is None or degrees is None:
            raise ValueError("mixed-symmetric needs n (space dimension) and degrees")
        if n < 1 or any(d < 1 for d in degrees):
            raise ValueError("need n >= 1 and positive degrees")
        out = 1
        for d in degrees:
            out *= comb(n - 1 + d // 2, n - 1)
        return out - len(degrees) * (n - 1)
    if family == "skew":
        if n is None or degrees is None:
            raise ValueError("skew needs n (space dimension) and degrees")
        prod_dim, prod_var = 1, 1
        for d in degrees:
            m = d // 2
            prod_dim *= comb(n, m)
            prod_var *= m * (n - m)
        return prod_dim - prod_var
    if family == "segre":
        if n is None or factors is None:
            raise ValueError("segre needs n (common space dimension) and factors")
        m = factors // 2
        return n ** m - m * (n - 1)
    if family == "unbalanced-segre":
        if dims is None or len(dims) < 2:
            raise ValueError("unbalanced-segre needs the list of space dimensions")
        rest_prod = 1
        rest_sum = 0
        for ni in dims[1:]:
            rest_prod *= ni
            rest_sum += ni - 1
        bound = rest_prod - rest_sum
        if dims[0] <= 1 + bound:
            raise ValueError(
                f"product is not unbalanced: need dims[0] > {1 + bound}, got {dims[0]}")
        return bound
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# criteria


def _certificate(criterion, h, space, field, label="", **fields):
    """A certificate over the field, Inconclusive until ``_finish`` decides."""
    return Certificate(criterion, "Inconclusive", h, space,
                       label=label or CRITERION_LABELS.get(criterion, ""),
                       prime=field.modulus, **fields)


def _flattening_checks(T: MPoly, split: Split, required, field, *, budget, **proof):
    """The checks shared by Propositions 3.1 and 3.3 and Theorem 3.7, on
    the flattening of T in ``field`` (``_reduced``) at the split.

    The flattening must have the required rank; then the span of its rows
    must cut the multidegree-b variety in a scheme of the required status
    and, when asked, length.  ``required`` holds (check name, required
    value) pairs: rank, section and, optionally, length.  The section
    check's detail gains the proof that ``_section_proof`` gives with the
    keywords ``proof``, if any.
    """
    fl = flatten(_reduced(T, field), split)
    (name, rank), *section = required
    checks = [Check(name, fl.rank, rank, fl.rank == rank)]
    if not checks[0].passed:
        return checks
    ideal = pullback_linear_section(image_span(fl), T.space, split.b)
    return checks + _section_checks(ideal, *section, budget=budget, prove=partial(
        _section_proof, fl.rank, fl.matrix.nrows, field=field, **proof))


def _section_checks(ideal, section, length=None, *, budget, prove):
    """Checks on the scheme an ideal cuts: its status and, when asked, its
    length (see ``_flattening_checks``); ``prove`` gives the proof."""
    report = classify_linear_section(ideal, budget=budget)
    detail = {"status": report.describe(), "method": report.method,
              "trace": [list(pair) for pair in report.trace]}
    if report.at_infinity:
        detail["at_infinity"] = list(report.at_infinity)
    if report.note:
        detail["note"] = report.note
    detail.update(prove(report) or {})
    name, required = section
    ok = report.status == required
    checks = [Check(name, report.describe(), required, ok, detail)]
    if length is not None:
        name, required = length
        checks.append(Check(name, report.length if ok else report.describe(), required,
                            ok and report.length == required))
    return checks


#: 2^61 - 1: Wang's bound sqrt(p/2) > 2^30 passes 16-bit coordinate ratios
_POINTS_FIELD = PrimeField(2 ** 61 - 1)
#: the second prime of Propositions 3.1 and 3.3 over QQ
_SECOND_FIELD = PrimeField(2 ** 64 - 59)


def _reduced(T: MPoly, field):
    """T in ``field``: T itself over its own field, else T over QQ times its
    common denominator, made primitive and reduced mod the prime of
    ``field``.  A nonzero scalar changes no flattening's rank or span, so
    no denominator and no content stands in the way of a prime.  The
    flattening checks the multidegree of the terms kept; when a residue
    vanishes, T's own terms are checked here."""
    if T.field == field:
        return T
    p = field.modulus
    residues = zip(T.terms, primitive(numerators(list(T.terms.values()))[0]))
    terms = {m: n % p for m, n in residues if n % p}
    if len(terms) < len(T.terms):
        check_degrees(T)
    return MPoly(T.space, terms, field, _clean=True)


def _route(field, primes, run, missing):
    """The checks ``run(field)`` gives mod the first prime that proves them,
    a section check's detail holding ``_section_proof``'s witness: over F_p
    the field's own, over QQ each of the two ``primes``, the second only
    when the first proves nothing.  When none does, the first prime's
    checks, unproven, with a failed check named ``missing`` when all of them
    pass (``_unproven``)."""
    first = None
    for f in (field,) if field.modulus else primes:
        checks = run(f)
        if any("witness_prime" in (c.detail or {}) for c in checks):
            return checks
        first = first or _unproven(checks, f.modulus, missing)
    return first


def _unproven(checks, p, missing):
    """Unproven checks mod p, each naming p; when all pass, a failed check
    ``missing`` says what was not proven."""
    if all(c.passed for c in checks):
        checks = checks + [Check(missing, "unproven", "proven", False)]
    return [replace(c, detail={**(c.detail or {}), "prime": p}) for c in checks]


def _section_proof(rank, nrows, report, *, field, h, tensor=None, points=None,
                   length=None):
    """The detail that makes a section classified mod p exact, or None.

    The section was cut by an exact span S over QQ reduced mod the prime p
    of ``field``, of rank ``rank`` with ``nrows`` rows: a flattening (of
    ``tensor`` for Proposition 3.1, of the form for Theorem 3.7, of the
    expanded ``points`` for Proposition 3.3's checks i-ii), or the degree-b
    rank-one vectors of ``points`` themselves (a decomposition's terms,
    Proposition 3.3's check v).  The detail records p as ``witness_prime``.
    The candidate points of (b), one vector per group each, are ``points``,
    or else those ``rational_points`` recovers mod p, lifted by
    ``_lift_form`` for T over QQ, and listed in the detail, sorted.  Over
    F_p, S is T's own flattening, and (b) proves a decomposition over F_p.

    Both rules read the status and length of Z_p, the scheme of the
    section ideal I_p mod p, as the values of HF_p(t,..,t) for large t.
    ``classify_linear_section`` reads them in a chart U = {l_g != 0 for
    every g}, isomorphic to A^n, when each of the p intersections Z_p cap
    {l_g = 0} is Empty.  Then Z_p lies inside U and is the chart's affine
    scheme, finite of length the number of standard monomials of its basis;
    a finite scheme of length l has HF_p(t,..,t) = l for large t, and l = 0
    is Empty.  The first chart has l_g = x_{g,0}; a later one has l_g =
    x_{g,0} + sum_j c_{g,j} x_{g,j} with integers c, reached by
    substituting x_{g,0} - sum_j c_{g,j} x_{g,j} for x_{g,0}.  That change
    of coordinates is unimodular over ZZ, so it commutes with reduction mod
    p and moves Z_p by an automorphism of the product of projective
    spaces, which keeps its status and length; the points recovered in it
    are moved back before they are checked.  The charts and their checks
    at infinity draw on one S-pair budget, and an exhausted budget, or a
    point at infinity in every chart, is Inconclusive, which neither rule
    keeps.

    (a) rank = nrows and the section is Empty mod p give the rank and Empty
        exactly.  This is Theorem 3.7's rule: its span has nrows < h rows,
        so (b) never applies to it.  Let Z_(p) be the rationals whose
        denominator is prime to p; S reduces mod p, so its entries lie in
        Z_(p).

    * rank_p <= rank_QQ <= nrows, so rank_p = nrows is the full rank over
      QQ.
    * rank_p = nrows makes the Z_(p)-lattice spanned by the rows of S
      saturated (a maximal minor is a unit of Z_(p)).  So the mod-p kernel,
      whose rows are the generators of I_p in degree b, is the reduction of
      the kernel lattice over QQ: both have dimension N - nrows.  The
      pullback's column scaling multiplies by multinomials of degree b < p,
      which are units mod p, so it keeps this true.
    * So (I_p)_t lies in the reduction of the lattice (I_QQ)_t, whose rank
      is dim (I_QQ)_t, for every t.  That gives HF_QQ(t) <= HF_p(t), and a
      section that is Empty mod p (HF_p(t) = 0 for large t; for binary
      forms, no common root of the generators mod p) is Empty over QQ.

    (b) rank = h, ZeroDim(c) mod p, and h points l_i whose degree-b rank-one
        vectors v_i span every row of S over QQ give the rank h and
        ZeroDim(c) exactly, where c is ``length``, or h when it is None.
        When S's rows are the v_i, or the derivatives of a sum of the l_i^d,
        that holds by construction.  For a tensor T it holds when T = sum_i
        lambda_i l_i^d exactly (``_rebuilds``): every order-a derivative of
        that sum is a combination of the l_i^b.  The proof is one-sided:

    * S's rows lie in span(v_i), so rank_QQ <= h, and the mod-p rank gives
      >= h.
    * So the row space over QQ is span(v_i), and the v_i are independent.
      A generator over QQ is a form whose coefficients, scaled by the
      multinomials, are orthogonal to it, and its value at a point is their
      product with the point's v_i: every generator vanishes at the h
      points, distinct as the v_i are independent.  Hence the section over
      QQ contains them.
    * rank_p = rank_QQ makes the mod-p kernel the reduction of the saturated
      kernel lattice, as in (a), so HF_QQ(t) <= HF_p(t) for every t, and the
      section over QQ is finite of length <= c.
    * With c = h (Proposition 3.1, check v), the h points give length >= h.
    * With c the degree of check iv (Proposition 3.3's checks i-ii), the
      split has dim V_B = h + n, so the kernel of S has dimension n: the
      section is cut by n forms of multidegree b on the n-dimensional
      product of projective spaces, which is Cohen-Macaulay.  A finite
      intersection of n hypersurfaces there is proper, and its length is
      their intersection number (Fulton, Intersection Theory, 7.1), the
      multihomogeneous Bezout number ``segre_veronese_degree(proj_dims,
      b)`` = c.  The rule asks for ZeroDim(c) mod p, so a mod-p length
      that disagrees proves nothing.
    """
    proof = {"witness_prime": field.modulus}
    if report.status == "Empty" and rank == nrows:
        return proof
    if rank != h or report.describe() != f"ZeroDim({length or h})":
        return None
    found = points or rational_points(report.basis, h) or ()
    if points is None and tensor.field == QQ:
        found = [tuple(_lift_form(form, field.modulus) for form in point) for point in found]
    if (len(found) != h or any(None in point for point in found)
            or tensor is not None and not _rebuilds(tensor, found)):
        return None
    if points is None:
        proof["points"] = sorted([list(form) for form in point] for point in found)
    return proof


def _lift_form(residues, p):
    """A primitive integer vector proportional to the residues, or None."""
    inv = pow(next((r for r in residues if r), 1), -1, p)
    lifted = _reconstruct([r * inv % p for r in residues], p)
    return None if lifted is None or not any(lifted[1]) else tuple(primitive(lifted[1]))


def _rebuilds(T: MPoly, points) -> bool:
    """Whether T = sum_i lambda_i l_i^d exactly, with every lambda_i != 0 in
    T's field, for the points l_i, one vector per group each: integers over
    QQ, residues over F_p.

    The int matrix [V | D T] has a row per degree-d monomial m: the
    coefficients of l_1^d, ..., l_h^d at m, then those of T times its
    common denominator D (1 over F_p).  Over QQ ``lifted_kernel`` checks
    its kernel over ZZ on every row; over F_p it is ``kernel_basis`` mod p.
    The identity holds exactly when that kernel is one row with no zero
    entry: (-D lambda, 1), as its free column is then D T's.  The lift
    works whatever the size of lambda: a term whose form has content g gets
    lambda = g^d.
    """
    space, field = T.space, T.field
    basis = monomial_basis(space, space.degrees)
    # one point's rank-one dict at a time, read into a column
    columns = [[nums.get(m, 0) for m in basis] for nums, _ in
               (rank_one_numerators(space, point, field=field) for point in points)]
    nums = dict(zip(T.terms, numerators(list(T.terms.values()))[0]))
    columns.append([nums.get(m, 0) for m in basis])
    rows = zip(*columns)
    kernel = (lifted_kernel(DenseMatrix(QQ, rows, len(columns))) if field == QQ
              else kernel_basis(DenseMatrix.from_rows(field, rows, len(columns))))
    return kernel is not None and kernel.nrows == 1 and all(kernel.rows[0])


def certify_prop31(T: MPoly, h: int, split: Split = None, *,
                   budget=None) -> Certificate:
    """Rank + section criterion; certifies h-identifiability and rank h.
    The checks run mod p (``_route``), over QQ mod ``_POINTS_FIELD`` and,
    when that proves nothing, ``_SECOND_FIELD``."""
    start = time.perf_counter()
    if h < 1:
        raise ValueError("h must be >= 1")
    space = T.space
    if split is None:
        split = default_split(space, h)      # may raise SplitError
    elif split.dim_a < h:
        raise SplitError(f"split has dim V_A = {split.dim_a} < h = {h}")
    cert = _certificate("Prop31", h, space, T.field, split=split,
                        effective=effective_range(space, split, h))
    required = (("i_flattening_rank", h), ("ii_section_dimension", "ZeroDim"),
                ("iii_section_length", h))
    return _finish(cert, start, _route(
        T.field, (_POINTS_FIELD, _SECOND_FIELD),
        partial(_flattening_checks, T, split, required, budget=budget, h=h, tensor=T),
        "iv_decomposition_exists"))


def certify_thm37(F: MPoly, h: int, *, budget=None) -> Certificate:
    """Exceptional-family criterion: full catalecticant rank + empty section.

    Both checks run mod p (``_route``): over QQ mod ``linalg._LIFT_FIELD``
    first, whose residues stay small ints, and mod ``_POINTS_FIELD`` when
    that proves nothing.  Only ``_section_proof``'s rule (a) keeps them, as
    the span has fewer than h rows.
    """
    start = time.perf_counter()
    space = F.space
    if space.p != 1:
        raise ValueError("this criterion applies to a single group of variables")
    family = thm37_family(space, h)
    if family is None:
        raise ValueError(
            f"(n, d, h) = ({space.sizes[0] - 1}, {space.degrees[0]}, {h}) "
            "is not in one of the three certified families")
    n, d, _, s = family
    split = Split.of(space, (s,))
    cert = _certificate("Thm37", h, space, F.field, split=split, family=family,
                        effective=True,
                        label=(f"Theorem 3.7 ({h}-identifiability for "
                               f"{n + 1}-forms of degree {d})"))
    required = (("a_derivative_span_rank", comb(n + s, n)), ("b_section_empty", "Empty"))
    return _finish(cert, start, _route(
        F.field, (_LIFT_FIELD, _POINTS_FIELD),
        partial(_flattening_checks, F, split, required, budget=budget, h=h),
        "b_section_proven"))


def thm37_family(space: TensorSpace, h: int):
    """The quadruple (n, d, h, s) when the instance lies in a certified family."""
    if space.p != 1:
        return None
    n = space.sizes[0] - 1
    d = space.degrees[0]
    if n == 1 and h >= 2 and d == 2 * h - 1:
        return (1, d, h, h - 2)
    if (n, d, h) == (2, 5, 7):
        return (2, 5, 7, 2)
    if (n, d, h) == (3, 3, 5):
        return (3, 3, 5, 1)
    return None


def _prop33_split(space: TensorSpace, h: int):
    """Splits with dim V_A >= h satisfying the exact count dim V_B = h + n.

    Returns (split, iv_holds) for the first admissible split, preferring one
    where the variety-degree bound also holds; (None, None) when no split
    satisfies the count, (split, False) when the count holds but the degree
    bound fails everywhere.
    """
    target = h + space.total_projective_dim
    first = None
    ranges = [range(d + 1) for d in space.degrees]
    for a in itertools.product(*ranges):
        split = Split.of(space, a)
        if split.dim_a < h or split.dim_b != target:
            continue
        degree = segre_veronese_degree(space.projective_dims, split.b)
        if degree <= h + 1:
            return split, True
        if first is None:
            first = split
    if first is not None:
        return first, False
    return None, None


def certify_prop33(dec: Decomposition, *, budget=None) -> Certificate:
    """Boundary-regime criterion on an explicit decomposition.  Checks i-ii
    and v each run mod p (``_route``), over QQ mod ``_POINTS_FIELD`` and,
    when that proves nothing, ``_SECOND_FIELD``; the terms are
    ``_section_proof``'s points, and check iv's degree the length its rule
    (b) proves for checks i-ii."""
    start = time.perf_counter()
    space = dec.space
    h = dec.h
    n = space.total_projective_dim
    split, iv_ok = _prop33_split(space, h)
    cert = _certificate("Prop33", h, space, dec.field, split=split, effective=bool(iv_ok))
    if split is None:
        return _finish(cert, start, [Check(
            "iii_ambient_count", None, h + n, False,
            {"note": "no split with dim V_A >= h has dim V_B = h + n"})])
    degree = segre_veronese_degree(space.projective_dims, split.b)
    checks = [
        Check("iii_ambient_count", split.dim_b, h + n, True),
        Check("iv_variety_degree", degree, f"<= {h + 1}", iv_ok),
    ]
    if iv_ok:
        required = (("i_flattening_rank", h), ("ii_section_dimension", "ZeroDim"))
        checks += _route(dec.field, (_POINTS_FIELD, _SECOND_FIELD), partial(
            _flattening_checks, dec.expand(), split, required, budget=budget, h=h,
            points=dec.terms, length=degree), "ii_section_proven")
        if checks[-1].passed:
            checks += _term_span_checks(dec, budget)
    return _finish(cert, start, checks)


def _term_span_checks(dec: Decomposition, budget):
    """Proposition 3.3's check v on the span of the terms themselves, mod p
    as checks i-ii, the terms being ``_section_proof``'s points."""
    space, h = dec.space, dec.h
    basis = monomial_basis(space, space.degrees)
    vectors = [[nums.get(m, 0) for m in basis] for nums, _ in
               (rank_one_numerators(space, term, field=dec.field) for term in dec.terms)]

    def checks(field):
        span = row_space_basis(DenseMatrix(field, [list(map(field, v)) for v in vectors]))
        return _section_checks(
            pullback_linear_section(span, space, space.degrees),
            ("v_span_section_dimension", "ZeroDim"), ("v_span_section_length", h),
            budget=budget, prove=partial(_section_proof, span.nrows, h, field=field, h=h,
                                         points=dec.terms))

    return _route(dec.field, (_POINTS_FIELD, _SECOND_FIELD), checks, "v_span_section_proven")


def _finish(cert: Certificate, start: float, checks):
    """The certificate with its checks, time and verdict: Certified exactly
    when there are checks and all of them pass.

    The budget ran out exactly when a section check has method "groebner":
    ``classify_linear_section`` reports that, Inconclusive, only when a
    Groebner run raised ``BudgetExceededError``.  Its other Inconclusive, a
    point at infinity in every chart, has method "affine-chart" and is a
    failed check like any other.
    """
    cert.checks = tuple(checks)
    cert.budget_exhausted = any((c.detail or {}).get("method") == "groebner"
                                for c in cert.checks)
    cert.seconds = time.perf_counter() - start
    if cert.checks and all(c.passed for c in cert.checks):
        cert.verdict = "Certified"
        cert.reason = None
    else:
        cert.verdict = "Inconclusive"
        if cert.budget_exhausted:
            cert.reason = "resource budget exhausted"
        else:
            failing = [c.name for c in cert.checks if not c.passed]
            cert.reason = f"failed checks: {', '.join(failing)}" if failing \
                else "no check evaluated"
    return cert


def certify(target, h: int = None, *, criterion: str = "auto", split=None,
            budget=None) -> Certificate:
    """Dispatch a tensor or decomposition to the appropriate criterion.

    Order: a single-group instance in one of the three exceptional families
    goes to Theorem 3.7; otherwise, when a default split exists and lies in
    the proven-effective range (or a split was forced), Proposition 3.1 runs;
    otherwise a decomposition falls back to Proposition 3.3.  Anything else
    is Inconclusive with reason "out of criteria range".
    """
    dec = target if isinstance(target, Decomposition) else None
    if dec is not None:
        if h is not None and h != dec.h:
            raise ValueError(f"h = {h} disagrees with the {dec.h}-term decomposition")
        h = dec.h
    elif h is None:
        raise ValueError("h is required when certifying a tensor")
    if h < 1:
        raise ValueError("h must be >= 1")
    space = target.space

    def tensor():
        # a decomposition is expanded only on the way to a tensor criterion;
        # Proposition 3.3 expands it itself, once
        return target if dec is None else dec.expand()

    if criterion == "thm37":
        return certify_thm37(tensor(), h, budget=budget)
    if criterion == "prop31":
        return certify_prop31(tensor(), h, split, budget=budget)
    if criterion == "prop33":
        if dec is None:
            raise ValueError("this criterion needs an explicit decomposition")
        return certify_prop33(dec, budget=budget)
    if criterion != "auto":
        raise ValueError(f"unknown criterion {criterion!r}")

    if space.p == 1 and thm37_family(space, h) is not None:
        return certify_thm37(tensor(), h, budget=budget)
    if split is not None:
        return certify_prop31(tensor(), h, split, budget=budget)
    try:
        candidate = default_split(space, h)
    except SplitError:
        candidate = None
    if candidate is not None and effective_range(space, candidate, h):
        return certify_prop31(tensor(), h, candidate, budget=budget)
    if dec is not None:
        return certify_prop33(dec, budget=budget)
    check_degrees(target)       # every criterion above checks it in its flattening
    return _certificate(None, h, space, target.field, reason="out of criteria range")
