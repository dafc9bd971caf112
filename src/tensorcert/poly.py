"""Multigraded sparse polynomials over exact fields.

A tensor in a product of symmetric powers is stored as a multihomogeneous
polynomial in ``p`` groups of variables.  Group ``i`` (1-based in variable
names) has ``sizes[i]`` variables ``x{i}_0 .. x{i}_{n_i}`` and carries degree
``degrees[i]``.  Monomials are flat exponent tuples across all groups.

Every basis, leading-term choice and printed form uses one deterministic
order: graded reverse lexicographic within each group, groups compared in
index order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, perm

from .fields import QQ, numerators

Mono = tuple  # exponent tuple across all variables


@dataclass(frozen=True)
class TensorSpace:
    """Ambient space descriptor: group sizes (n_i + 1) and multidegree."""

    sizes: tuple
    degrees: tuple

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        if len(self.sizes) < 1 or len(self.sizes) != len(self.degrees):
            raise ValueError("need one positive degree per variable group")
        if any(s < 2 for s in self.sizes):
            raise ValueError("every group needs at least 2 variables")
        if any(d < 1 for d in self.degrees):
            raise ValueError("every degree must be >= 1")

    @property
    def p(self) -> int:
        return len(self.sizes)

    @cached_property
    def nvars(self) -> int:
        return sum(self.sizes)

    @cached_property
    def group_slices(self):
        out, start = [], 0
        for s in self.sizes:
            out.append(slice(start, start + s))
            start += s
        return tuple(out)

    @cached_property
    def projective_dims(self):
        """The tuple (n_1, ..., n_p)."""
        return tuple(s - 1 for s in self.sizes)

    @cached_property
    def total_projective_dim(self) -> int:
        return sum(self.projective_dims)

    def multidegree_of(self, mono: Mono):
        return tuple(sum(mono[sl]) for sl in self.group_slices)

    def monomial_key(self, mono: Mono):
        """Sort key realising the blockwise graded reverse lex order."""
        parts = []
        for sl in self.group_slices:
            block = mono[sl]
            parts.append(sum(block))
            parts.append(tuple(-e for e in reversed(block)))
        return tuple(parts)

    def var_index(self, group: int, j: int) -> int:
        """Flat index of variable j (0-based) of group (1-based)."""
        if not (1 <= group <= self.p) or not (0 <= j < self.sizes[group - 1]):
            raise ValueError(f"no variable x{group}_{j} in this space")
        return self.group_slices[group - 1].start + j

    def var_name(self, index: int) -> str:
        for g, sl in enumerate(self.group_slices):
            if sl.start <= index < sl.stop:
                return f"x{g + 1}_{index - sl.start}"
        raise ValueError(f"variable index {index} out of range")


def dimension_of_multidegree(sizes, deg) -> int:
    """Number of monomials of the given multidegree: prod binom(n_i+deg_i, n_i)."""
    out = 1
    for s, d in zip(sizes, deg):
        out *= comb(s - 1 + d, s - 1)
    return out


def monomial_multinomial(space, mono: Mono) -> int:
    """Per-group multinomial coefficient of a monomial.

    This is the factor relating the coefficient of ``mono`` in an expanded
    power of linear forms to the plain product of the forms' coordinates; it
    converts between coefficient coordinates and tensor coordinates.
    """
    out = 1
    for sl in space.group_slices:
        block = mono[sl]
        num = factorial(sum(block))
        for e in block:
            num //= factorial(e)
        out *= num
    return out


def _group_monomials(size: int, degree: int):
    # exponent tuples of one group, graded reverse lex, descending
    def compositions(k, d):
        if k == 1:
            yield (d,)
            return
        for i in range(d, -1, -1):
            for rest in compositions(k - 1, d - i):
                yield (i,) + rest

    return sorted(compositions(size, degree), key=lambda e: tuple(reversed(e)))


def monomial_basis(space: TensorSpace, deg):
    """All monomials of the exact multidegree ``deg``, in the fixed order."""
    deg = tuple(int(d) for d in deg)
    if len(deg) != space.p or any(d < 0 for d in deg):
        raise ValueError(f"bad multidegree {deg} for {space.p} groups")
    per_group = [_group_monomials(space.sizes[g], deg[g]) for g in range(space.p)]
    return [sum(parts, ()) for parts in itertools.product(*per_group)]


class MPoly:
    """Sparse multihomogeneous polynomial: monomial -> nonzero coefficient."""

    __slots__ = ("space", "field", "terms")

    def __init__(self, space, terms, field=QQ, *, _clean=False):
        self.space = space
        self.field = field
        if _clean:
            self.terms = terms
        else:
            nvars = space.nvars
            clean = {}
            for mono, c in terms.items():
                mono = tuple(mono)
                if len(mono) != nvars or any(e < 0 for e in mono):
                    raise ValueError(f"bad exponent vector {mono}")
                c = field(c)
                if not field.is_zero(c):
                    clean[mono] = c
            self.terms = clean

    @classmethod
    def zero(cls, space, field=QQ):
        return cls(space, {}, field, _clean=True)

    def _check_compatible(self, other):
        if self.space != other.space or self.field != other.field:
            raise ValueError("polynomials live in different spaces or fields")

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return (isinstance(other, MPoly) and self.space == other.space
                and self.field == other.field and self.terms == other.terms)

    def __add__(self, other):
        self._check_compatible(other)
        f = self.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = f.add(out.get(m, f.zero), c)
            if f.is_zero(v):
                out.pop(m, None)
            else:
                out[m] = v
        return MPoly(self.space, out, f, _clean=True)

    def __neg__(self):
        f = self.field
        return MPoly(self.space, {m: f.neg(c) for m, c in self.terms.items()},
                     f, _clean=True)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        f = self.field
        c = f(c)
        if f.is_zero(c):
            return MPoly.zero(self.space, f)
        return MPoly(self.space, {m: f.mul(c, v) for m, v in self.terms.items()},
                     f, _clean=True)

    def __mul__(self, other):
        self._check_compatible(other)
        f = self.field
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                v = f.add(out.get(m, f.zero), f.mul(c1, c2))
                if f.is_zero(v):
                    out.pop(m, None)
                else:
                    out[m] = v
        return MPoly(self.space, out, f, _clean=True)

    def __pow__(self, n: int):
        """The n-th power: a linear form in one group by the multinomial
        theorem (``rank_one_numerators``), anything else, a single term
        included, by repeated squaring."""
        if n < 0:
            raise ValueError("negative power")
        space, f = self.space, self.field
        degrees = {space.multidegree_of(m) for m in self.terms}
        degree = degrees.pop() if len(degrees) == 1 else None
        if degree is not None and sum(degree) == 1:
            # a linear form in group g
            g = degree.index(1)
            start = space.group_slices[g].start
            forms = [[0] * size for size in space.sizes]
            for mono, c in self.terms.items():
                forms[g][mono.index(1) - start] = c
            exponents = [0] * space.p
            exponents[g] = n
            numerators, den = rank_one_numerators(space, forms, exponents, f)
            return poly_from_numerators(space, numerators, den, f)
        result = MPoly(space, {(0,) * space.nvars: f.one}, f, _clean=True)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def multidegree(self):
        """Common multidegree of all terms; None for the zero polynomial."""
        it = iter(self.terms)
        try:
            first = next(it)
        except StopIteration:
            return None
        deg = self.space.multidegree_of(first)
        for m in it:
            if self.space.multidegree_of(m) != deg:
                raise ValueError("polynomial is not multihomogeneous")
        return deg

    def is_multihomogeneous(self) -> bool:
        try:
            self.multidegree()
        except ValueError:
            return False
        return True

    def derivative_by(self, mono: Mono):
        """Iterated raw partial derivative: c x^e becomes
        c prod_v e_v! / (e_v - mono_v)! x^(e - mono) where e >= mono."""
        f = self.field
        out = {}
        for m, c in self.terms.items():
            if all(map(int.__ge__, m, mono)):
                factor = 1
                for e, k in zip(m, mono):
                    factor *= perm(e, k)
                v = f.mul_int(c, factor)
                if not f.is_zero(v):
                    out[tuple(map(int.__sub__, m, mono))] = v
        return MPoly(self.space, out, f, _clean=True)

    def __str__(self):
        return poly_to_string(self)

    def __repr__(self):
        return f"MPoly({poly_to_string(self)})"


def coefficient_vector(F: MPoly, basis):
    """Coefficients of F aligned with ``basis``; every term of F must occur."""
    f = F.field
    index = {m: i for i, m in enumerate(basis)}
    out = [f.zero] * len(basis)
    for m, c in F.terms.items():
        i = index.get(m)
        if i is None:
            raise ValueError(f"monomial {m} of the polynomial is missing from the basis")
        out[i] = c
    return out


@lru_cache(maxsize=64)
def _multinomial_table(size: int, degree: int):
    # (k, degree!/prod k_j!) for every exponent vector k of one group
    top = factorial(degree)
    out = []
    for k in _group_monomials(size, degree):
        c = top
        for kj in k:
            c //= factorial(kj)
        out.append((k, c))
    return tuple(out)


def rank_one_numerators(space: TensorSpace, forms, exponents=None, field=QQ):
    """Integer form of prod_i l_i^{e_i}: a dict ``monomial -> N`` and a
    denominator D with prod_i l_i^{e_i} = sum_m (N[m] / D) x^m.

    Over F_p, D is 1 and the N[m] are integers not yet reduced mod p.  Zero
    numerators are left out; see ``power_and_product`` for the method.
    """
    if exponents is None:
        exponents = space.degrees
    if len(forms) != space.p or len(exponents) != space.p:
        raise ValueError("need one linear form and one exponent per group")
    den = 1
    product = [((), 1)]
    for g, (size, coeffs, e) in enumerate(zip(space.sizes, forms, exponents)):
        if len(coeffs) != size:
            raise ValueError(f"group {g + 1} needs {size} coefficients")
        if e < 0:
            raise ValueError("negative power")
        coeffs = [field(c) for c in coeffs]
        if field.modulus is None:
            coeffs, scale = numerators(coeffs)
            den *= scale ** e
        powers = [[a ** j for j in range(e + 1)] for a in coeffs]
        group = []
        for k, c in _multinomial_table(size, e):
            for row, kj in zip(powers, k):
                if kj:
                    c *= row[kj]
            if c:
                group.append((k, c))
        product = [(m + k, c * gc) for m, c in product for k, gc in group]
    return dict(product), den


def poly_from_numerators(space: TensorSpace, numerators, den, field=QQ) -> MPoly:
    """The polynomial sum_m (numerators[m] / den) x^m, zero terms dropped."""
    if field.modulus is None:
        terms = {m: Fraction(n, den) for m, n in numerators.items() if n}
    else:
        p = field.modulus
        terms = {}
        for m, n in numerators.items():
            n %= p
            if n:
                terms[m] = n
    return MPoly(space, terms, field, _clean=True)


def power_and_product(space: TensorSpace, forms, exponents=None, field=QQ):
    """Expand prod_i l_i^{e_i} for one linear form l_i per group.

    ``forms`` holds one coefficient sequence per group; ``exponents`` defaults
    to the space multidegree.

    The expansion is exact integer arithmetic.  Over QQ each form is first
    scaled by the lcm D_i of its denominators to integer coefficients a_j.
    By the multinomial theorem

        (sum_j a_j x_j)^e = sum_k  e! / (k_0! ... k_n!) * prod_j a_j^{k_j} * x^k,

    summed over the exponent vectors k of the group with |k| = e, each term
    read from one table of powers a_j^0 .. a_j^e per coefficient.  The groups
    use disjoint variables, so the product over groups is the Cartesian
    product of the group expansions: distinct choices give distinct
    monomials, and no two terms ever meet in one coefficient.  Each output
    numerator becomes a field element once, over the denominator
    prod_i D_i^{e_i} (QQ) or by one reduction mod p (F_p); terms that are
    zero in the field are dropped.
    """
    numerators, den = rank_one_numerators(space, forms, exponents, field)
    return poly_from_numerators(space, numerators, den, field)


def poly_to_string(F: MPoly) -> str:
    if not F.terms:
        return "0"
    space, field = F.space, F.field
    parts = []
    for mono in sorted(F.terms, key=space.monomial_key, reverse=True):
        c = F.terms[mono]
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(space.var_name(i))
            elif e > 1:
                factors.append(f"{space.var_name(i)}^{e}")
        negative = field.modulus is None and c < 0
        mag = -c if negative else c
        body = str(mag)
        if factors:
            body = "*".join(factors) if mag == field.one else body + "*" + "*".join(factors)
        parts.append(("- " if negative else "+ ") + body)
    first = parts[0]
    text = ("-" + first[2:]) if first.startswith("- ") else first[2:]
    for part in parts[1:]:
        text += " " + part
    return text


def check_degrees(T: MPoly) -> None:
    """Raise ValueError naming the first monomial of T whose multidegree is
    not its space's."""
    space = T.space
    for mono in T.terms:
        deg = space.multidegree_of(mono)
        if deg != space.degrees:
            raise ValueError(f"monomial {poly_to_string(MPoly(space, {mono: 1}))} has "
                             f"multidegree {deg}, expected {space.degrees}")
