"""Independent oracles for the test suite.

Everything here is implemented from scratch on purpose: these routines
cross-check the package without sharing any of its code paths.  The one
exception is ``reference_parse``, which builds its polynomials with
``MPoly``'s generic arithmetic: that is the arithmetic the parser's folded
terms must agree with.
"""

import itertools
import re
from fractions import Fraction
from functools import lru_cache
from math import factorial

from tensorcert import MPoly


def binom(n, k):
    if k < 0 or k > n:
        return 0
    return factorial(n) // (factorial(k) * factorial(n - k))


# ---------------------------------------------------------------------------
# tiny standalone linear algebra over Fraction


def fraction_rref(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return m, 0, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                q = m[i][c]
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, r, pivots


def fraction_kernel(rows, ncols):
    reduced, rank, pivots = fraction_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for j in free:
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][j]
        out.append(v)
    return out


def modp_rref(rows, ncols, p):
    """Gauss-Jordan on plain lists of residues mod p: (reduced, rank, pivots)."""
    m = [[x % p for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                # the pivot row is zero left of c
                q = m[i][c]
                m[i][c:] = [(x - q * y) % p for x, y in zip(m[i][c:], m[r][c:])]
        pivots.append(c)
    return m, len(pivots), pivots


# ---------------------------------------------------------------------------
# univariate gcd over the rationals (monic Euclid)


def _poly_deg(u):
    for i in range(len(u) - 1, -1, -1):
        if u[i] != 0:
            return i
    return -1


def _poly_rem(u, v):
    u = [Fraction(x) for x in u]
    dv = _poly_deg(v)
    inv = 1 / Fraction(v[dv])
    while _poly_deg(u) >= dv:
        du = _poly_deg(u)
        c = u[du] * inv
        for j in range(dv + 1):
            u[du - dv + j] -= c * Fraction(v[j])
        u[du] = Fraction(0)
    return u[:dv] or [Fraction(0)]


def poly_gcd_degree(u, v):
    """Degree of gcd(u, v) for coefficient lists over the rationals."""
    u = [Fraction(x) for x in u]
    v = [Fraction(x) for x in v]
    if _poly_deg(u) < _poly_deg(v):
        u, v = v, u
    while _poly_deg(v) >= 0:
        u, v = v, _poly_rem(u, v)
    return _poly_deg(u)


# ---------------------------------------------------------------------------
# Sylvester uniqueness oracle for binary forms of odd degree


def sylvester_unique(coeffs, h):
    """Whether the binary form has a unique length-h power decomposition.

    ``coeffs[j]`` is the coefficient of x0^j x1^(d-j), d = 2h-1.  The kernel
    of the order-h apolarity pairing is computed; uniqueness holds exactly
    when it is one dimensional and its generator has h distinct roots.
    """
    d = len(coeffs) - 1
    assert d == 2 * h - 1
    rows = []
    for k in range(h):  # x0-exponent of the order-h derivative, degree h-1
        row = []
        for c in range(h + 1):
            j = k + c
            fall0 = factorial(j) // factorial(j - c) if j >= c else 0
            rest = d - j
            e1 = h - c
            fall1 = factorial(rest) // factorial(rest - e1) if rest >= e1 else 0
            row.append(Fraction(coeffs[j]) * fall0 * fall1 if 0 <= j <= d else Fraction(0))
        rows.append(row)
    kernel = fraction_kernel(rows, h + 1)
    if len(kernel) != 1:
        return False
    g = kernel[0]  # binary form of degree h in the dual variables
    deg_t = _poly_deg(g)
    if h - deg_t > 1:  # multiple root at infinity
        return False
    dg = [g[i] * i for i in range(1, len(g))]
    return poly_gcd_degree(g, dg) == 0


# ---------------------------------------------------------------------------
# brute-force standard monomial counting


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def all_monomials(sizes, deg):
    per_group = [list(compositions(d, s)) for s, d in zip(sizes, deg)]
    for combo in itertools.product(*per_group):
        yield sum(combo, ())


def brute_standard_count(sizes, lead_terms, deg):
    """Count multidegree-deg monomials divisible by no leading term."""
    count = 0
    for mono in all_monomials(sizes, deg):
        if not any(all(g <= m for g, m in zip(lt, mono)) for lt in lead_terms):
            count += 1
    return count


# ---------------------------------------------------------------------------
# independent evaluation of the effectiveness inequalities


def effective_range_independent(sizes, b, h):
    """dim V_B > h + dim(variety), both sides from first principles."""
    dim_vb = 1
    for s, bi in zip(sizes, b):
        dim_vb *= binom(s - 1 + bi, s - 1)
    variety_dim = sum(s - 1 for s in sizes)
    return dim_vb > h + variety_dim


def cor35_bound_independent(family, n=None, degrees=None, factors=None, dims=None):
    if family == "mixed-symmetric":
        prod = 1
        for d in degrees:
            prod *= binom(n - 1 + d // 2, n - 1)
        return prod - len(degrees) * (n - 1)
    if family == "skew":
        prod, var = 1, 1
        for d in degrees:
            m = d // 2
            prod *= binom(n, m)
            var *= m * (n - m)
        return prod - var
    if family == "segre":
        m = factors // 2
        return n ** m - m * (n - 1)
    if family == "unbalanced-segre":
        prod = 1
        for x in dims[1:]:
            prod *= x
        return prod - sum(x - 1 for x in dims[1:])
    raise ValueError(family)


# ---------------------------------------------------------------------------
# textbook Buchberger


def block_grevlex_key(sizes):
    """Blockwise graded reverse lex: groups in index order; within a group,
    higher degree first, then the smaller exponent of the last variable."""
    def key(mono):
        parts, start = [], 0
        for s in sizes:
            block = mono[start:start + s]
            parts.append((sum(block), [-e for e in reversed(block)]))
            start += s
        return parts
    return key


def reference_groebner(sizes, generators, modulus=None):
    """Reduced Groebner basis as {lead term: {monomial: coefficient}}, monic.

    ``generators`` are dicts monomial -> coefficient.  Coefficients are
    Fractions, or residues mod ``modulus``.  Plain Buchberger: every pair is
    reduced (no criteria), smallest lcm first, reducers are found by a
    linear scan, and the final basis is minimalized and fully interreduced.
    Only the lead terms, and each pair's lcm key, are kept, not recomputed.
    """
    key = lru_cache(maxsize=None)(block_grevlex_key(sizes))

    def norm(c):
        return Fraction(c) if modulus is None else c % modulus

    def div(a, b):
        return a / b if modulus is None else a * pow(b, -1, modulus) % modulus

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    def lead(f):
        return max(f, key=key)

    def monic(f):
        lc = f[lead(f)]
        return {m: div(c, lc) for m, c in f.items()}

    def sub_multiple(f, c, shift, g):
        # f - c * x^shift * g, dropping zero coefficients
        f = dict(f)
        for m, gc in g.items():
            k = tuple(x + y for x, y in zip(m, shift))
            v = norm(f.get(k, 0) - c * gc)
            if v:
                f[k] = v
            else:
                f.pop(k, None)
        return f

    def reduce(f, basis):
        # repeatedly cancel the largest term divisible by some lead term;
        # basis holds (lead term, polynomial) pairs
        while True:
            for m in sorted(f, key=key, reverse=True):
                hit = next(((lt, g) for lt, g in basis if divides(lt, m)), None)
                if hit is not None:
                    shift = tuple(x - y for x, y in zip(m, hit[0]))
                    f = sub_multiple(f, f[m], shift, hit[1])
                    break
            else:
                return f

    basis = []
    for g in generators:
        g = {m: norm(c) for m, c in g.items() if norm(c)}
        if g:
            basis.append((lead(g), monic(g)))

    def lcm(i, j):
        return tuple(map(max, basis[i][0], basis[j][0]))

    # pair -> the order key of its lcm, in the order the pairs arose
    pairs = {(i, j): key(lcm(i, j)) for j in range(len(basis)) for i in range(j)}
    while pairs:
        # the pair of smallest lcm first (the normal strategy)
        i, j = min(pairs, key=pairs.get)
        del pairs[i, j]
        lcm_ij = lcm(i, j)
        si = tuple(x - y for x, y in zip(lcm_ij, basis[i][0]))
        sj = tuple(x - y for x, y in zip(lcm_ij, basis[j][0]))
        s = sub_multiple({tuple(x + y for x, y in zip(m, si)): c
                          for m, c in basis[i][1].items()}, 1, sj, basis[j][1])
        r = reduce(s, basis)
        if r:
            basis.append((lead(r), monic(r)))
            pairs.update(((k, len(basis) - 1), key(lcm(k, len(basis) - 1)))
                         for k in range(len(basis) - 1))
    minimal = []
    for lt, g in sorted(basis, key=lambda e: key(e[0])):
        if not any(divides(h, lt) for h, _ in minimal):
            minimal.append((lt, g))
    out = {}
    for lt, g in minimal:
        others = [e for e in minimal if e[1] is not g]
        tail = reduce({m: c for m, c in g.items() if m != lt}, others)
        out[lt] = {lt: norm(1), **tail}
    return out


# ---------------------------------------------------------------------------
# rank-one terms by repeated products


def repeated_product_expansion(sizes, forms, exponents, modulus=None):
    """prod_i l_i^{e_i} as {monomial: coefficient}, nonzero coefficients only.

    Coefficients are Fractions, or residues mod ``modulus``.  Each l_i is
    built as a sparse polynomial and multiplied in e_i times, reducing every
    coefficient as it goes: the expansion before the multinomial kernel.
    """
    def norm(c):
        c = Fraction(c)
        if modulus is None:
            return c
        return c.numerator * pow(c.denominator, -1, modulus) % modulus

    def mul(f, g):
        out = {}
        for m1, c1 in f.items():
            for m2, c2 in g.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                v = norm(out.get(m, 0) + c1 * c2)
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return out

    nvars = sum(sizes)
    result = {(0,) * nvars: norm(1)}
    start = 0
    for size, coeffs, e in zip(sizes, forms, exponents):
        form = {}
        for j, c in enumerate(coeffs):
            if norm(c):
                mono = [0] * nvars
                mono[start + j] = 1
                form[tuple(mono)] = norm(c)
        for _ in range(e):
            result = mul(result, form)
        start += size
    return result


# ---------------------------------------------------------------------------
# scheme classification from the diagonal Hilbert function


def reference_classify(sizes, generators, modulus=None):
    """(status, length) of the scheme the multihomogeneous generators cut on
    the product of the P^(s - 1), read off its diagonal Hilbert function.

    HF(t,..,t) counts the monomials of multidegree (t,..,t) that no leading
    term of ``reference_groebner`` divides (``brute_standard_count``).  The
    Hilbert series numerator of the leading-term ideal has no exponent past
    L, the largest group degree of the lcm of the leading terms (Taylor's
    resolution), so from t = L on HF(t,..,t) is a polynomial of degree at
    most n = sum (s - 1).  Its n + 1 values at t = L .. L + n are all 0 for
    Empty, all c for ZeroDim(c), and anything else is PositiveDim.
    """
    lead = list(reference_groebner(sizes, generators, modulus))
    lcm = [max(column) for column in zip(*lead)] or [0] * sum(sizes)
    top, start = 0, 0
    for s in sizes:
        top = max(top, sum(lcm[start:start + s]))
        start += s
    values = {brute_standard_count(sizes, lead, (t,) * len(sizes))
              for t in range(top, top + sum(sizes) - len(sizes) + 1)}
    if values == {0}:
        return "Empty", None
    return ("ZeroDim", values.pop()) if len(values) == 1 else ("PositiveDim", None)


# ---------------------------------------------------------------------------
# linear changes of coordinates


def random_invertible(size, rng, bound=3):
    """Seeded random invertible size x size integer matrix."""
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(size)]
                for _ in range(size)]
        if fraction_rref(rows)[1] == size:
            return rows


def substitute(sizes, terms, matrices):
    """Polynomial dict after x_j -> sum_k A[j][k] x_k in every group.

    ``matrices`` holds one square matrix A per group; the image of a
    monomial is the product of the images of its variables, expanded term
    by term.
    """
    nvars = sum(sizes)
    images, start = [], 0
    for size, a in zip(sizes, matrices):
        for j in range(size):
            image = {}
            for k, c in enumerate(a[j]):
                if c:
                    mono = [0] * nvars
                    mono[start + k] = 1
                    image[tuple(mono)] = Fraction(c)
            images.append(image)
        start += size
    out = {}
    for mono, coeff in terms.items():
        prod = {(0,) * nvars: Fraction(coeff)}
        for var, e in enumerate(mono):
            for _ in range(e):
                step = {}
                for m1, c1 in prod.items():
                    for m2, c2 in images[var].items():
                        m = tuple(x + y for x, y in zip(m1, m2))
                        step[m] = step.get(m, 0) + c1 * c2
                prod = step
        for m, c in prod.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


# ---------------------------------------------------------------------------
# a polynomial at a point of a product of projective spaces


def evaluate(terms, point):
    """Value of sum c_m x^m (``terms``: exponent tuple -> coefficient) at a
    point given as one coordinate vector per group, concatenated in order."""
    coords = [x for form in point for x in form]
    total = 0
    for mono, c in terms.items():
        value = c
        for x, e in zip(coords, mono):
            value *= x ** e
        total += value
    return total


# ---------------------------------------------------------------------------
# expressions by generic polynomial arithmetic


_REFERENCE_TOKEN = re.compile(r"(?P<ws>\s+)|(?P<num>\d+)|(?P<var>x(\d+)_(\d+))"
                              r"|(?P<op>[-+*^()/])|(?P<bad>.)", re.S)


class ExpressionError(ValueError):
    """A refused expression: the message, and the offset of the refused token."""

    def __init__(self, message, position):
        super().__init__(message, position)
        self.message = message
        self.position = position


def reference_parse(text, space, field, max_nesting=200, max_power_bits=1 << 16):
    """The polynomial of an expression in x<group>_<index> variables before
    its multidegree is checked, or ExpressionError with the parser's
    message and position.

    Tokens are read before parsing, so a bad character is refused first.
    Every atom is its own ``MPoly``: a term is the ``__mul__`` of its
    factors, a power is taken by squaring with ``__mul__``, and a sum is the
    ``__add__`` of its terms.  The caps are those of the parser: nesting, the bit size of a
    power of a number over QQ, a product passing the declared total degree
    (at its '*'), and a power of a polynomial passing it (at its '^').
    """
    tokens = []
    for m in _REFERENCE_TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ExpressionError(f"unexpected character {m.group()!r}", m.start())
        if kind == "num":
            tokens.append(("num", int(m.group()), m.start()))
        elif kind == "var":
            tokens.append(("var", (int(m.group(4)), int(m.group(5))), m.start()))
        elif kind == "op":
            tokens.append((m.group(), None, m.start()))
    nvars, declared = space.nvars, sum(space.degrees)
    const = (0,) * nvars
    state = {"i": 0, "depth": 0}

    def peek():
        return tokens[state["i"]] if state["i"] < len(tokens) else (None, None, len(text))

    def take():
        tok = peek()
        if tok[0] is None:
            raise ExpressionError("unexpected end of expression", len(text))
        state["i"] += 1
        return tok

    def power(base, k):
        # square and multiply with __mul__: a corrupted exponent may be huge
        out = MPoly(space, {const: 1}, field)
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def exponent():
        if peek()[0] != "^":
            return 1
        take()
        tok = take()
        if tok[0] != "num":
            raise ExpressionError("exponent must be a nonnegative integer", tok[2])
        return tok[1]

    def check_bits(value, k, caret):
        value = Fraction(value)
        length = max(abs(value.numerator).bit_length(), value.denominator.bit_length())
        if k > 1 and (length - 1) * k >= max_power_bits:
            raise ExpressionError(f"power has more than {max_power_bits} bits", caret)

    def factor():
        # (polynomial, degree) of one factor; a number has no degree and
        # passes no degree check
        tok = take()
        if tok[0] == "num":
            value = tok[1]
            if peek()[0] == "/":
                slash = take()
                den = take()
                if den[0] != "num" or den[1] == 0:
                    raise ExpressionError("denominator must be a positive integer", den[2])
                value = Fraction(value, den[1])
                if field.modulus is not None and value.denominator % field.modulus == 0:
                    raise ExpressionError(
                        f"denominator of {value} vanishes mod {field.modulus}", slash[2])
            atom = MPoly(space, {const: value}, field)
            caret = peek()[2]
            k = exponent()
            if field.modulus is None:
                check_bits(value, k, caret)
            return power(atom, k), None
        if tok[0] == "var":
            group, j = tok[1]
            if not (1 <= group <= space.p and 0 <= j < space.sizes[group - 1]):
                raise ExpressionError(f"no variable x{group}_{j} in this space", tok[2])
            mono = [0] * nvars
            mono[sum(space.sizes[:group - 1]) + j] = 1
            k = exponent()
            return power(MPoly(space, {tuple(mono): 1}, field), k), k
        if tok[0] == "(":
            if state["depth"] == max_nesting:
                raise ExpressionError(
                    f"parentheses nested deeper than {max_nesting} levels", tok[2])
            state["depth"] += 1
            inner = expr()
            state["depth"] -= 1
            close = take()
            if close[0] != ")":
                raise ExpressionError("expected ')'", close[2])
            caret = peek()[2]
            k = exponent()
            degree = max((sum(m) for m in inner.terms), default=0)
            if k > 1 and k * degree > declared:
                raise ExpressionError(f"power has total degree {k * degree}, more than "
                                      f"the declared {declared}", caret)
            if degree == 0 and field.modulus is None and inner:
                check_bits(inner.terms[const], k, caret)
            return power(inner, k), k * degree
        raise ExpressionError(f"unexpected token {tok[0]!r}", tok[2])

    def term():
        poly, degree = factor()
        degree = degree or 0
        while peek()[0] == "*":
            star = take()
            right, right_degree = factor()
            if right_degree is not None:
                degree += right_degree
                if degree > declared:
                    raise ExpressionError(f"product has total degree {degree}, more "
                                          f"than the declared {declared}", star[2])
            poly = poly * right
        return poly

    def expr():
        negative = peek()[0] == "-"
        if peek()[0] in ("+", "-"):
            take()
        poly = -term() if negative else term()
        while peek()[0] in ("+", "-"):
            negative = take()[0] == "-"
            poly = poly + (-term() if negative else term())
        return poly

    poly = expr()
    tok = peek()
    if tok[0] is not None:
        raise ExpressionError(f"unexpected token {tok[0]!r}", tok[2])
    return poly
