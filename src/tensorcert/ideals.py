"""Groebner engine and classification of linear-section schemes.

The scheme cut on a (Segre-)Veronese variety by a linear subspace is pulled
back to the source product of projective spaces as a multihomogeneous ideal.
It is decided in an affine chart: x_{g,0} = 1 of every group first, then a
few seeded random charts l_g = x_{g,0} + sum_j c_{g,j} x_{g,j} = 1, each
reached by a unimodular change of coordinates.  One Groebner basis of the
dehomogenized generators under grevlex gives the part of the scheme in the
chart, positive dimensional or finite of length its count of standard
monomials.  A finite part is the whole scheme when, for each group, the
ideal restricted to the chart's hyperplane at infinity is Empty, which
leading terms decide on the product itself: its Groebner run stops as soon
as the leading terms found so far leave no coordinate point, and only "not
Empty" takes the complete basis (``_empty``).  Otherwise the next chart is
tried.  Ideals of binary forms skip Groebner bases: the scheme is the
divisor of the gcd of the generators.  Only an exhausted S-pair budget, or
a point at infinity in every chart, leaves a scheme Inconclusive.  The points of a zero-dimensional scheme over F_p are
recovered from its chart, or from the gcd of binary forms, by
``rational_points``.

Buchberger runs with Gebauer-Moeller pair elimination and sugar selection
on monic polynomials, their coefficients residues mod p or ``Fraction``s
over the rationals.  Within a run each monomial is one packed int, and
the run memoises, per monomial, its first reducer and that element's
multiple shifted onto the monomial (see ``_Engine``); monomials enter and
leave it as exponent tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import accumulate, product
from operator import add, mul
from random import Random

from .fields import QQ, numerators, primitive
from .linalg import DenseMatrix, _rref_mod_p, kernel_basis
from .poly import MPoly, TensorSpace, monomial_basis, monomial_multinomial

DEFAULT_PAIR_BUDGET = 500_000


class BudgetExceededError(RuntimeError):
    """S-pair budget, or packed exponent range, of a Groebner run exhausted."""


class Ideal:
    """Multihomogeneous ideal given by generators in one space and field."""

    __slots__ = ("space", "field", "generators")

    def __init__(self, space: TensorSpace, generators, field=None):
        gens = []
        for g in generators:
            if not isinstance(g, MPoly) or g.space != space:
                raise ValueError("generators must be MPoly over the given space")
            if not g:
                continue
            if not g.is_multihomogeneous():
                raise ValueError("generators must be multihomogeneous")
            gens.append(g)
        if field is None:
            field = gens[0].field if gens else QQ
        if any(g.field != field for g in gens):
            raise ValueError("generators use mixed fields")
        self.space = space
        self.field = field
        self.generators = tuple(gens)

    def __len__(self):
        return len(self.generators)


def pullback_linear_section(span: DenseMatrix, space: TensorSpace, b) -> Ideal:
    """Ideal of the section of the multidegree-b variety by the row space of span.

    Span rows hold polynomial coefficients; the ideal is built from their
    right kernel by ``section_ideal``.  A reduced span, such as
    ``image_span`` of a flattening, has its kernel read off its pivots with
    no second echelon pass.
    """
    return section_ideal(kernel_basis(span), space, b)


def section_ideal(kernel: DenseMatrix, space: TensorSpace, b) -> Ideal:
    """Ideal of the section of the multidegree-b variety by the subspace whose
    right kernel, in polynomial coordinates, has the rows of ``kernel`` as
    its ``kernel_basis``.

    Dividing column m of a span by its multinomial rewrites it in tensor
    coordinates, where the variety is parametrized by the plain monomials.
    The kernel of the scaled span is diag(multinomials) times the kernel of
    the span; each vector, scaled to 1 at its free column (its last nonzero
    entry) as ``kernel_basis`` of the scaled span has it, is a linear form
    sum c_m z_m vanishing on the span, and substituting the parametrization
    turns it into the multidegree-b polynomial sum c_m m(x).
    """
    b = tuple(int(x) for x in b)
    basis = monomial_basis(space, b)
    if kernel.ncols != len(basis):
        raise ValueError(
            f"span has {kernel.ncols} columns, multidegree {b} basis has {len(basis)}")
    field = kernel.field
    if field.modulus is not None and field.modulus <= max(b, default=0):
        raise ValueError(
            f"prime modulus {field.modulus} <= max degree {max(b)}: monomial "
            "multinomials may vanish; choose a larger prime")
    scale = [field(monomial_multinomial(space, m)) for m in basis]
    gens = []
    for row in kernel.rows:
        scaled = [field.mul(c, s) for c, s in zip(row, scale)]
        lead = next(c for c in reversed(scaled) if not field.is_zero(c))
        terms = {m: field.div(c, lead) for m, c in zip(basis, scaled)
                 if not field.is_zero(c)}
        gens.append(MPoly(space, terms, field, _clean=True))
    return Ideal(space, gens, field)


@dataclass(frozen=True)
class SchemeReport:
    """Decision record for one linear-section scheme."""

    status: str                      # Empty | ZeroDim | PositiveDim | Inconclusive
    length: int = None               # set exactly when status == ZeroDim
    trace: tuple = ()                # ((t, the chart's count of standard monomials
                                     # of degree <= t), ...): AffineChart.trace
    method: str = ""
    note: str = ""
    at_infinity: tuple = ()          # affine-chart: each group's x_{g,0} = 0 status
    basis: object = field(default=None, compare=False, repr=False)  # AffineChart | gcd

    def __post_init__(self):
        if self.status == "ZeroDim" and (self.length is None or self.length < 1):
            raise ValueError("zero dimensional schemes have length >= 1")

    def describe(self) -> str:
        if self.status == "ZeroDim":
            return f"ZeroDim({self.length})"
        return self.status


# ---------------------------------------------------------------------------
# the Groebner engine, on packed monomials


#: Bits of one field of a packed monomial, its guard bit included.
_WIDTH = 16


class _Engine:
    """Buchberger state: basis polynomials as monic dicts, packed monomial
    to field element (a residue mod p, a ``Fraction`` over QQ).

    A monomial is one int (Bachmann and Schoenemann, ISSAC 1998) of
    ``_WIDTH``-bit fields, each topped by a guard bit: per group from the
    most significant end, the group's degree, then its exponents, last
    variable first.  A product is a sum, lt divides m exactly when m - lt
    sets no guard bit, and m ^ ``flip`` (exponent bits flipped) is a key of
    ``TensorSpace.monomial_key``'s order, m ^ ``rflip`` of its reverse.  An
    exponent is at most its group degree and a product keeps the
    multidegree, so no field reaches its guard once ``pack`` has checked the
    input monomials and ``lcm`` each S-pair.  (In an ``AffineChart`` the
    polynomials are not homogeneous, but the one group's order is graded,
    so no monomial of a reduction passes the degree of its S-pair's lcm.)
    Tuples enter by ``prepare`` and ``pack`` and leave by ``unpack``.

    ``_reducers`` maps a monomial to its first reducer i and the multiple
    x^(m - lt_i) * g_i as a term list, or, when no leading term divided it,
    to the basis length scanned.  ``run`` only appends to the basis, so a
    reducer stays the first divisor and a miss is resumed from where its
    scan stopped; every intermediate polynomial is the one a fresh linear
    scan gives.  ``_interreduce`` renumbers the basis and clears the memo.
    """

    def __init__(self, space: TensorSpace, field, budget):
        self.space = space
        self.field = field
        self.modulus = field.modulus
        self.budget = budget if budget is not None else DEFAULT_PAIR_BUDGET
        self.pairs_done = 0
        self.polys = []   # dict mono -> field element
        self.lts = []
        self.sugars = []
        self._reducers = {}  # see the class docstring
        self.limit = 1 << (_WIDTH - 1)
        shifts, units, self._groups, pos = [0] * space.nvars, [0] * space.nvars, [], 0
        for sl in reversed(space.group_slices):
            at = pos + _WIDTH * (sl.stop - sl.start)   # the group's degree field
            shifts[sl] = range(pos, at, _WIDTH)
            units[sl] = [1 << s | 1 << at for s in shifts[sl]]
            self._groups.append((pos, sum(1 << s - pos for s in shifts[sl]), at - pos - _WIDTH, at))
            pos = at + _WIDTH
        self._shifts, self._units = shifts, units
        self.guard = sum(self.limit << k for k in range(0, pos, _WIDTH))
        self.flip = sum(self.limit - 1 << s for s in self._shifts)
        self.rflip = (1 << pos) - 1 ^ self.flip
        self._eguard = sum(self.limit << s for s in self._shifts)   # exponents' guards

    # -- packed monomials ------------------------------------------------------

    def pack(self, mono):
        """Exponent tuple -> packed int; ValueError if a group degree overflows."""
        if max(self.space.multidegree_of(mono)) >= self.limit:
            raise ValueError(f"monomial {mono} overflows the {_WIDTH}-bit packed fields")
        return sum(map(mul, mono, self._units))

    def unpack(self, m):
        return tuple(m >> s & self.limit - 1 for s in self._shifts)

    def lcm(self, a, b):
        """Packed lcm, taking each exponent field from whichever of a, b is
        larger there; BudgetExceededError if a group degree does not fit."""
        sel = ((a | self.guard) - b) & self._eguard   # guards where a >= b
        take = sel - (sel >> _WIDTH - 1)
        out = (a & take) | (b & (self.flip ^ take))    # degree fields zero
        for lo, ones, top, at in self._groups:
            d = ((out >> lo) * ones >> top) & (self.limit << 1) - 1
            if d >= self.limit:
                raise BudgetExceededError(f"an S-pair lcm overflows the {_WIDTH}-bit packed fields")
            out |= d << at
        return out

    def degree(self, m):
        return sum(m >> at & self.limit - 1 for *_, at in self._groups)

    # -- coefficient normalization ------------------------------------------

    def prepare(self, poly: MPoly):
        """MPoly -> monic dict of packed monomials."""
        return self.make_monic(dict(zip(map(self.pack, poly.terms), poly.terms.values())))

    def make_monic(self, terms):
        if not terms:
            return terms
        inv = self.field.inv(terms[max(terms, key=self.flip.__xor__)])
        if inv != 1:
            p = self.modulus
            terms = ({m: c * inv % p for m, c in terms.items()} if p is not None
                     else {m: c * inv for m, c in terms.items()})
        return terms

    # -- reduction -----------------------------------------------------------

    def _reducer(self, m):
        """(i, [(monomial, coefficient), ...]): the first basis element
        whose leading term divides m, and its multiple shifted onto m; None
        when no leading term divides m.  Memoised in ``_reducers``."""
        hit = self._reducers.get(m)
        if hit is not None and hit[1] is not None:
            return hit
        lts, guard = self.lts, self.guard
        for i in range(hit[0] if hit is not None else 0, len(lts)):
            shift = m - lts[i]
            if not shift & guard:
                multiple = [(gm + shift, gc) for gm, gc in self.polys[i].items()]
                hit = self._reducers[m] = (i, multiple)
                return hit
        self._reducers[m] = (len(lts), None)
        return None

    def normal_form(self, terms, keep=None, raw=False):
        """Fully reduce a term dict against the current basis, and make it
        monic unless ``raw``.  The monomial ``keep``, if given, is left as
        it is.  Each reducer is monic, so it is subtracted times the
        coefficient of the monomial it clears.
        """
        p = dict(terms)
        if not p:
            return p
        modulus, rflip = self.modulus, self.rflip
        done = set() if keep is None else {keep}
        heap = [m ^ rflip for m in p]
        heapify(heap)
        while heap:
            m = heappop(heap) ^ rflip
            if m in done or m not in p:
                continue
            hit = self._reducer(m)
            if hit is None:
                done.add(m)
                continue
            c = -p[m]
            for k, gc in hit[1]:
                old = p.get(k)
                v = c * gc if old is None else old + c * gc
                if modulus is not None:
                    v %= modulus
                if v:
                    if old is None and k not in done:
                        heappush(heap, k ^ rflip)
                    p[k] = v
                else:
                    p.pop(k, None)
        return p if raw else self.make_monic(p)

    # -- pair management (Gebauer-Moeller) ------------------------------------

    def update_pairs(self, pairs, f_idx):
        """Add basis element f_idx, pruning by the Gebauer-Moeller criteria.
        A pair's value, its selection order, is its sugar and lcm's key."""
        lts, guard, flip = self.lts, self.guard, self.flip
        lmf = lts[f_idx]
        with_f = [self.lcm(lt, lmf) for lt in lts[:f_idx]]
        kept = {}
        for (i, j), meta in pairs.items():
            l = meta[1] ^ flip
            if (l - lmf) & guard or l == with_f[i] or l == with_f[j]:
                kept[(i, j)] = meta
        lcm_groups = {}
        for i, l in enumerate(with_f):
            lcm_groups.setdefault(l, []).append(i)
        minimal = []
        for l in sorted(lcm_groups, key=flip.__xor__):
            if all((l - m) & guard for m in minimal):
                minimal.append(l)
        for l in minimal:
            if any(l == lts[i] + lmf for i in lcm_groups[l]):
                continue  # Buchberger's coprime criterion
            i = min(lcm_groups[l])
            kept[(i, f_idx)] = (max(self.sugars[i] + self.degree(l - lts[i]),
                                    self.sugars[f_idx] + self.degree(l - lmf)), l ^ flip)
        return kept

    def add_poly(self, terms, sugar=None):
        lt = max(terms, key=self.flip.__xor__)
        self.polys.append(terms)
        self.lts.append(lt)
        self.sugars.append(self.degree(lt) if sugar is None else sugar)
        return len(self.polys) - 1

    def s_poly(self, i, j, lcm):
        si, sj = lcm - self.lts[i], lcm - self.lts[j]
        out = {m + si: c for m, c in self.polys[i].items()}
        for m, c in self.polys[j].items():
            k = m + sj
            v = out.get(k, 0) - c
            if self.modulus is not None:
                v %= self.modulus
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        return out

    def run(self, generators, stop=None):
        """Compute a reduced Groebner basis of the generator dicts.

        ``stop``, when given, is called on each new leading term; once it
        returns True the run ends with None, its basis partial.  The
        generators, each reduced by those before it, all enter the basis
        before any pair is formed, so a stop among them takes no S-pair;
        ``update_pairs`` reads only the elements up to its own, so the
        pairs are the same as when each is added in turn.
        """
        prepared = sorted((g for g in generators if g),
                          key=lambda g: max(map(self.flip.__xor__, g)))
        for g in prepared:
            r = self.normal_form(g)
            if r:
                i = self.add_poly(r)
                if stop and stop(self.lts[i]):
                    return None
        pairs = {}
        for i in range(len(self.polys)):
            pairs = self.update_pairs(pairs, i)
        while pairs:
            pair = min(pairs, key=pairs.__getitem__)
            sugar, key = pairs.pop(pair)
            self.pairs_done += 1
            if self.pairs_done > self.budget:
                raise BudgetExceededError(
                    f"S-pair budget of {self.budget} exhausted")
            r = self.normal_form(self.s_poly(*pair, key ^ self.flip))
            if r:
                i = self.add_poly(r, sugar)
                if stop and stop(self.lts[i]):
                    return None
                pairs = self.update_pairs(pairs, i)
        return self._interreduce()

    def _interreduce(self):
        lts, guard = self.lts, self.guard
        order = sorted(range(len(self.polys)), key=lambda i: lts[i] ^ self.flip)
        kept = []
        for i in order:
            if all((lts[i] - lts[k]) & guard for k in kept):
                kept.append(i)
        self.polys = [self.polys[i] for i in kept]
        self.lts = [self.lts[i] for i in kept]
        self.sugars = [self.sugars[i] for i in kept]
        self._reducers = {}  # the indices changed
        # The basis is minimal now: no other leading term divides lt_i, and
        # every other monomial of g_i, before or during its reduction, is
        # smaller than lt_i, so lt_i divides none of them.  Keeping lt_i as
        # it is therefore reduces g_i by the other elements alone.
        reduced = [self.normal_form(g, keep=lt) for g, lt in zip(self.polys, self.lts)]
        self.polys = reduced
        self._reducers = {}  # the cached multiples were of the unreduced basis
        return reduced


class GroebnerBasis:
    """Reduced Groebner basis under the blockwise graded reverse lex order."""

    def __init__(self, space: TensorSpace, field, polys, lead_terms):
        self.space = space
        self.field = field
        self.polys = tuple(polys)
        self.lead_terms = tuple(lead_terms)

    def __len__(self):
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)


def buchberger(ideal: Ideal, budget=None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal; may raise BudgetExceededError."""
    engine = _Engine(ideal.space, ideal.field, budget)
    dicts = engine.run([engine.prepare(g) for g in ideal.generators])
    unpack = engine.unpack
    polys = [MPoly(ideal.space, {unpack(m): c for m, c in terms.items()}, ideal.field,
                   _clean=True) for terms in dicts]
    return GroebnerBasis(ideal.space, ideal.field, polys, map(unpack, engine.lts))


# ---------------------------------------------------------------------------
# classification


#: Random charts l_g = x_{g,0} + sum_j c_{g,j} x_{g,j} tried after x_{g,0} = 1,
#: with every c_{g,j} drawn from 1 .. ``_SHIFT_TOP`` by one fixed seed
_CHARTS, _SHIFT_TOP = 3, 16


def classify_linear_section(ideal: Ideal, *, budget=None) -> SchemeReport:
    """Decide Empty / ZeroDim(length) / PositiveDim for the section scheme.

    Binary forms are decided by ``binary_fast_path``.  Any other ideal is
    decided in an affine chart (``AffineChart``), x_{g,0} = 1 of every group
    first, then ``_CHARTS`` seeded random ones, each on the ideal ``_moved``
    into its coordinates.  A chart variable with no pure power among the
    leading terms makes the scheme PositiveDim.  Otherwise the part of the
    scheme in the chart is finite, of length the count of standard
    monomials, and it is the whole scheme when nothing lies at infinity:
    for each group g, the moved ideal at x_{g,0} = 0 (``_at_infinity``) must
    be ``_empty``.  If one is not, the next chart is tried.  A report from a
    chart past the first names it in its note.  All runs draw on one S-pair
    budget; when it runs out, or every chart has a point at infinity, the
    result is Inconclusive, never a wrong verdict.
    """
    space = ideal.space
    if not ideal.generators:
        # zero ideal: the whole variety, of dimension >= 1
        return SchemeReport("PositiveDim", method="empty-generators")
    if space.p == 1 and space.sizes[0] == 2:
        return binary_fast_path(ideal)
    left = DEFAULT_PAIR_BUDGET if budget is None else budget
    rng, shift = Random(1703027), None
    try:
        for index in range(_CHARTS + 1):
            if index:
                shift = tuple(tuple(rng.randint(1, _SHIFT_TOP) for _ in range(n))
                              for n in space.projective_dims)
            moved = _moved(ideal, shift) if shift else ideal
            chart = AffineChart(moved, left, shift)
            left -= chart.pairs
            note = f"chart {index}: l_g = x_g0 + sum_j c_gj x_gj, c = {shift}" if index else ""
            if chart.standard is None:
                return SchemeReport("PositiveDim", trace=chart.trace, method="affine-chart",
                                    note=note, basis=chart)
            for g in range(space.p):
                empty, pairs = _empty(_at_infinity(moved, g), left)
                left -= pairs
                if not empty:
                    break
            else:
                length = len(chart.standard)
                return SchemeReport("ZeroDim" if length else "Empty", length or None,
                                    chart.trace, "affine-chart", note,
                                    at_infinity=("Empty",) * space.p, basis=chart)
    except BudgetExceededError as exc:
        return SchemeReport("Inconclusive", method="groebner", note=str(exc))
    return SchemeReport("Inconclusive", method="affine-chart",
                        note=f"each of {_CHARTS + 1} charts has a point at infinity")


def _moved(ideal: Ideal, shift) -> Ideal:
    """The ideal in the coordinates of the chart l_g = x_{g,0} + sum_j
    c_{g,j} x_{g,j}, c_g = shift[g]: x_{g,0} -> x_{g,0} - sum_j c_{g,j}
    x_{g,j} in every generator.  The change is unimodular over ZZ, so it
    commutes with reduction mod p, and it keeps status and length."""
    space, field = ideal.space, ideal.field
    gens = ideal.generators
    for sl, c in zip(space.group_slices, shift):
        units = [tuple(int(k == i) for k in range(space.nvars)) for i in range(sl.start, sl.stop)]
        form = MPoly(space, dict(zip(units, (1, *(-a for a in c)))), field)
        powers, moved = {}, []
        for f in gens:
            terms = {}
            for m, a in f.terms.items():
                e = m[sl.start]
                if e not in powers:
                    powers[e] = form ** e
                rest = m[:sl.start] + (0,) + m[sl.start + 1:]
                for k, b in powers[e].terms.items():
                    mono = tuple(map(add, rest, k))
                    terms[mono] = field.add(terms.get(mono, field.zero), field.mul(a, b))
            moved.append(MPoly(space, {m: a for m, a in terms.items() if not field.is_zero(a)},
                               field, _clean=True))
        gens = moved
    return Ideal(space, gens, field)


def _empty(ideal: Ideal, budget):
    """(whether the scheme is Empty, S-pairs taken); may raise
    BudgetExceededError.

    R/I and R/in(I) have the same multigraded Hilbert function, so the
    scheme is Empty exactly when the leading terms' is.  A monomial
    scheme holds a point exactly when it holds a coordinate point, one
    variable per group nonzero; a leading term vanishes there unless it is
    a monomial in those variables alone.  Binary forms use their gcd.

    The Groebner run stops as soon as the leading terms found so far leave
    no coordinate point.  That is sound: every element the run adds lies in
    I, so the monomial ideal J of those leading terms lies in in(I), and
    HF(R/in(I)) <= HF(R/J) in every multidegree; a J with no coordinate
    point is Empty, and then so is I.  "Not Empty" needs the complete
    basis: a coordinate point still alive at its end is a point of the
    leading terms' scheme.  Each point is kept as the mask of the packed
    exponent fields of the variables it sets to zero, and a leading term
    rules it out when it has no exponent there.
    """
    space = ideal.space
    if space.p == 1 and space.sizes[0] == 2:
        return binary_fast_path(ideal).status == "Empty", 0
    engine = _Engine(space, ideal.field, budget)
    alive = [sum(engine.limit - 1 << s for v, s in enumerate(engine._shifts) if v not in point)
             for point in product(*(range(sl.start, sl.stop) for sl in space.group_slices))]

    def rule_out(lt):
        alive[:] = [mask for mask in alive if lt & mask]
        return not alive

    engine.run([engine.prepare(g) for g in ideal.generators], rule_out)
    return not alive, engine.pairs_done


def _at_infinity(ideal: Ideal, g: int) -> Ideal:
    """The ideal restricted to x_{g,0} = 0: that variable leaves its group,
    or, when the group is a P^1, the group leaves at its point [0 : 1]."""
    space, field = ideal.space, ideal.field
    start, sizes, degrees = space.group_slices[g].start, list(space.sizes), list(space.degrees)
    if sizes[g] == 2:
        del sizes[g], degrees[g]
        stop = start + 2
    else:
        sizes[g] -= 1
        stop = start + 1
    sub = TensorSpace(sizes, degrees)
    return Ideal(sub, [MPoly(sub, {m[:start] + m[stop:]: c for m, c in f.terms.items()
                                   if not m[start]}, field, _clean=True)
                       for f in ideal.generators], field)


class AffineChart:
    """A section's ideal in the chart x_{g,0} = 1 of every group.

    The chart is affine n-space in the variables x_{g,1} .. x_{g,n_g} of
    every group, in group order; each generator is dehomogenized into it
    and ``engine`` holds their reduced basis under grevlex on all n
    variables, one ``_Engine`` group.  The order is graded, so the standard
    monomials of degree <= t count the chart's affine Hilbert function at
    t.  When every variable has a pure power among the leading terms, the
    quotient is finite, with the packed standard monomials, by degree, as
    its basis: ``standard``, whose length is the length of the scheme in
    the chart (Cox, Little and O'Shea, *Ideals, Varieties, and Algorithms*,
    ch. 5 §3).  Otherwise ``standard`` is None.  ``trace`` holds (t, count
    of standard monomials of degree <= t) up to the last degree that has
    one, or, when there is no end, to the largest leading term's degree.
    ``pairs`` is the S-pairs the run took.  ``shift`` is the one the ideal
    was ``_moved`` by, or None.
    """

    def __init__(self, ideal: Ideal, budget, shift=None):
        space, field = ideal.space, ideal.field
        self.space, self.field, self.shift = space, field, shift
        chart = [i for sl in space.group_slices for i in range(sl.start + 1, sl.stop)]
        # the engine reads its space's groups, not its degrees
        engine = self.engine = _Engine(TensorSpace((len(chart),), (sum(space.degrees),)),
                                       field, budget)
        engine.run([engine.prepare(MPoly(engine.space, {tuple(m[i] for i in chart): c
                                                        for m, c in f.terms.items()},
                                         field, _clean=True))
                    for f in ideal.generators])
        self.pairs = engine.pairs_done
        lead = [engine.unpack(lt) for lt in engine.lts]
        # a leading term e is a power of x_i, x_i^0 included, when e_i = |e|;
        # with the least such power a_i of every x_i, no standard monomial
        # has a degree past sum (a_i - 1)
        powers = [min((e[i] for e in lead if e[i] == sum(e)), default=None)
                  for i in range(len(chart))]
        finite = None not in powers
        cap = sum(powers) - len(powers) if finite else max(map(sum, lead))
        layers, layer = [], [0]
        while len(layers) <= cap:
            # standard monomials are closed under division: each one of degree
            # t + 1 is a variable times one of degree t
            layer = [m for m in layer if all((m - lt) & engine.guard for lt in engine.lts)]
            if not layer:
                break
            layers.append(layer)
            layer = sorted({m + u for m in layer for u in engine._units})
        self.standard = [m for layer in layers for m in layer] if finite else None
        self.trace = tuple(enumerate(accumulate(map(len, layers)))) or ((0, 0),)


# ---------------------------------------------------------------------------
# binary forms: the scheme is the divisor of the gcd


def _int_coeff_list(poly: MPoly):
    # binary form -> little-endian int list indexed by the x1_0 exponent
    d = poly.multidegree()[0]
    out = [0] * (d + 1)
    # residues mod p are ints, their own numerators
    nums, _ = numerators(list(poly.terms.values()))
    for (i, _), c in zip(poly.terms, nums):
        out[i] = c
    return out


def _deg(u):
    for i in range(len(u) - 1, -1, -1):
        if u[i]:
            return i
    return -1


def _pseudo_rem(u, v):
    # lead(v)^(du-dv+1) * u  mod  v, all over the integers
    du, dv = _deg(u), _deg(v)
    u = list(u[:du + 1])
    lead = v[dv]
    for i in range(du - dv, -1, -1):
        c = u[i + dv]
        for j in range(i + dv):
            u[j] *= lead
        u[i + dv] = 0
        if c:
            for j in range(dv):
                u[i + j] -= c * v[j]
    return u[:dv] or [0]


def _gcd_int_poly(u, v):
    u, v = primitive(u), primitive(v)
    if _deg(u) < _deg(v):
        u, v = v, u
    while _deg(v) >= 0:
        r = primitive(_pseudo_rem(u, v))
        u, v = v, r
    return u


def _gcd_mod_poly(u, v, p):
    if _deg(u) < _deg(v):
        u, v = v, u
    u = [c % p for c in u]
    v = [c % p for c in v]
    while _deg(v) >= 0:
        du, dv = _deg(u), _deg(v)
        inv = pow(v[dv], -1, p)
        while du >= dv:
            c = u[du] * inv % p
            if c:
                for j in range(dv + 1):
                    u[du - dv + j] = (u[du - dv + j] - c * v[j]) % p
            du = _deg(u)
        u, v = v, u[:dv] or [0]
    return u


def binary_fast_path(ideal: Ideal) -> SchemeReport:
    """Scheme of binary forms via the exact gcd of the generators.

    A nonzero ideal of binary forms always cuts a finite divisor whose length
    is the degree of the homogeneous gcd; a zero ideal leaves the whole line.
    A finite scheme keeps that gcd, a binary form, as its ``basis``.
    """
    space = ideal.space
    if space.p != 1 or space.sizes[0] != 2:
        raise ValueError("binary fast path needs a single group of 2 variables")
    if not ideal.generators:
        return SchemeReport("PositiveDim", method="binary-gcd")
    p = ideal.field.modulus
    gcd_t = None
    mult_at_infinity = None
    for g in ideal.generators:
        u = _int_coeff_list(g)
        d = len(u) - 1
        at_inf = d - _deg(u)
        mult_at_infinity = at_inf if mult_at_infinity is None else min(mult_at_infinity, at_inf)
        gcd_t = u if gcd_t is None else (
            _gcd_mod_poly(gcd_t, u, p) if p is not None else _gcd_int_poly(gcd_t, u))
    total = _deg(gcd_t) + mult_at_infinity
    if total == 0:
        return SchemeReport("Empty", method="binary-gcd")
    gcd_form = MPoly(TensorSpace((2,), (total,)),
                     {(i, total - i): c for i, c in enumerate(gcd_t) if c}, ideal.field)
    return SchemeReport("ZeroDim", length=total, method="binary-gcd", basis=gcd_form)


# ---------------------------------------------------------------------------
# the points of a zero-dimensional section mod p


def rational_points(basis, h: int):
    """The h distinct points in F_p of a section that is ``ZeroDim(h)`` mod
    p, from the ``basis`` its classification kept: each a tuple of residue
    vectors, one per group, or None.  Binary forms keep the gcd of their
    generators (``_binary_points``), any other section its ``AffineChart``.
    Nothing here is proven; ``certify._section_proof`` checks the points.

    Method (Stickelberger; Cox, Little and O'Shea, *Using Algebraic
    Geometry*, ch. 2 §4), with a fixed seed.  On the chart's quotient, with
    its h standard monomials as basis, X_v multiplies by the chart variable
    v, by normal forms; its eigenvalues are the points' v coordinates.  For
    random r_v, M = sum_v r_v X_v is diagonal at h distinct points, and the
    Krylov basis of a random w gives the characteristic polynomial of M and
    each X_v as q_v(M).  At its roots mu, group g's y = (q_v(mu), ..) over
    its chart variables v is a point in the chart; with the chart's shift
    c_g, x_{g,0} = 1 - c_g . y moves it back.
    """
    rng = Random(1703026)
    if isinstance(basis, MPoly):
        return _binary_points(basis, h, rng)
    if not isinstance(basis, AffineChart) or len(basis.standard or ()) != h:
        return None
    chart = basis
    engine, field, p = chart.engine, chart.field, chart.field.modulus
    shift = chart.shift or [(0,) * n for n in chart.space.projective_dims]
    index = {m: i for i, m in enumerate(chart.standard)}
    X = []                      # X[v][i][k]: x_v * standard[k] at standard monomial i
    for unit in engine._units:
        X.append([[0] * h for _ in range(h)])
        for k, m in enumerate(chart.standard):
            for mono, c in engine.normal_form({m + unit: 1}, raw=True).items():
                X[-1][index[mono]][k] = c
    r = [rng.randrange(1, p) for _ in X]
    M = [[sum(c * Xv[i][k] for c, Xv in zip(r, X)) % p for k in range(h)] for i in range(h)]
    w = [rng.randrange(p) for _ in range(h)]
    krylov = [w]
    for _ in range(h):
        krylov.append([sum(map(mul, row, krylov[-1])) % p for row in M])
    images = [[sum(map(mul, row, w)) % p for row in Xv] for Xv in X]
    solved = _solve(field, [[u[i] for u in krylov + images] for i in range(h)], h)
    if solved is None:
        return None
    chi, *polys = zip(*solved)  # M^h w and each X_v w in the Krylov basis
    points = []
    for mu in _roots_mod_p([-c % p for c in chi] + [1], p, rng) or ():
        powers = [pow(mu, k, p) for k in range(h)]
        coords = iter([sum(map(mul, q, powers)) % p for q in polys])
        point = []
        for c in shift:
            y = [next(coords) for _ in c]
            point.append(((1 - sum(map(mul, c, y))) % p, *y))
        points.append(tuple(point))
    return points or None


def _binary_points(gcd: MPoly, h, rng):
    """The zeros of a binary form of degree h over F_p: [t : 1] at each root
    t of gcd(t, 1) and, when that has degree h - 1, [1 : 0]; None unless they
    are h distinct points (a lower degree is a multiple point at [1 : 0])."""
    p, u = gcd.field.modulus, _int_coeff_list(gcd)
    top = _deg(u)
    if len(u) != h + 1 or top < h - 1:
        return None
    inv = pow(u[top], -1, p)
    roots = _roots_mod_p([c * inv % p for c in u[:top + 1]], p, rng)
    if roots is None:
        return None
    return [((t, 1),) for t in roots] + [((1, 0),)] * (h - top)


def _solve(field, rows, n):
    """The columns right of the first n of the reduced rows [A | B]: A^-1 B
    for an invertible n x n matrix A of residues; None if A is singular."""
    reduced, _, pivots = _rref_mod_p(DenseMatrix(field, rows))
    if pivots[:n] != tuple(range(n)):
        return None
    return [row[n:] for row in reduced.rows]


def _mulmod(a, b, f, p):
    """a b mod the monic f of degree n over F_p, on lists of n residues."""
    n = len(f) - 1
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for i in range(2 * n - 2, n - 1, -1):
        c = prod[i] % p
        for j in range(n):
            prod[i - n + j] -= c * f[j]
    return [c % p for c in prod[:n]]


def _roots_mod_p(f, p, rng):
    """The deg f distinct roots of the monic f in F_p, or None.

    A root 0 is taken out first; it must be simple.  With f(0) != 0, f
    divides x^p - x exactly when x^(p+1) = x^2 mod f.  Cantor-Zassenhaus
    (Math. Comp. 36, 1981) then splits a factor g by its gcd with
    (x + a)^((p+1)/2) - (x + a), a = 0 first, then random; for p = 2^61 - 1
    the power takes squarings only.
    """
    if len(f) > 1 and not f[0]:
        rest = _roots_mod_p(f[1:], p, rng) if f[1] else None
        return None if rest is None else rest + [0]
    roots, pending, a = [], [f] if len(f) > 1 else [], 0
    for attempt in range(64 * len(f)):
        if not pending:
            return roots
        g = pending.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
            continue
        u = base = [a, 1] + [0] * (len(g) - 3)
        for bit in bin((p + 1) // 2)[3:]:
            u = _mulmod(u, u, g, p)
            if bit == "1":
                u = _mulmod(u, base, g, p)
        if not attempt and _mulmod(u, u, f, p) != _mulmod(base, base, f, p):
            return None
        u[0] -= a
        u[1] -= 1
        d = _gcd_mod_poly(g, u, p)
        d = d[:_deg(d) + 1]
        if 1 < len(d) < len(g):
            inv = pow(d[-1], -1, p)
            d = [c * inv % p for c in d]
            pending += [d, _quotient(g, d, p)]
        else:
            pending.append(g)
        a = rng.randrange(p)
    return None


def _quotient(g, d, p):
    """g / d for a monic d that divides g."""
    g, q = list(g), [0] * (len(g) - len(d) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = g[i + len(d) - 1] % p
        for j, y in enumerate(d):
            g[i + j] -= c * y
    return q
