"""Command-line front end: parse inputs, dispatch criteria, emit certificates.

Input documents are UTF-8 text.  A header declares the space, then either a
polynomial expression or a decomposition follows::

    # a binary cubic
    sizes: 2
    degrees: 3
    tensor: x1_0^3 + 2*x1_1^3

    sizes: 3
    degrees: 5
    decomposition:
    1,2,3
    4,-5,6

Decomposition rows carry one term per line, per-group coefficient vectors
separated by ``|``, entries comma-separated integers or rationals.  Two
more header keys are optional: ``field: qq|fp|fp:P``, the one place a
certificate's field comes from (QQ when absent), and ``seed:``, the
provenance ``random`` writes, checked to be an integer and otherwise unused.

Exit codes: 0 the certificate is Certified, 2 it is Inconclusive, 1 usage,
parse or resource errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import cache
from operator import add

from .certify import Certificate, Decomposition, certify, corollary35_bound
from .fields import QQ, field_from_spec
from .flatten import Split, SplitError
from .poly import MPoly, TensorSpace, check_degrees, poly_to_string
from .randgen import RandomConfig, random_tensor

BUDGET_ENV = "TENSORCERT_BUDGET"


class ParseError(ValueError):
    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


# ---------------------------------------------------------------------------
# polynomial expressions

#: Deepest nesting of parentheses a document may use; each level costs the
#: recursive parser one stack frame.
_MAX_NESTING = 200

#: Largest bit size of a power of a number over QQ; a larger one is refused
#: before it is computed (over F_p, powers are reduced as they are taken).
_MAX_POWER_BITS = 1 << 16

#: One token: a number, a variable x<group>_<index> or an operator.  Any
#: other character that is not white space is a token of its own, and
#: refused: it is the only token of one character that is neither a digit
#: nor an operator.
_TOKEN_RE = re.compile(r"\d+|x\d+_\d+|[-+*^()/]|\S")


def _kind(tok):
    """A token's name in messages: 'num', 'var', or the operator itself."""
    return "num" if tok.isdecimal() else "var" if tok[:1] == "x" else tok


class _ExprParser:
    """Recursive descent over one flat list of token strings.

    ``_expr`` scans a sum in one loop.  The number and variable factors of
    a term fold into one coefficient and one exponent list: an int, a
    ``Fraction`` only after a '/' over QQ, a residue over F_p.  Each term
    goes straight into the sum's dict; only a parenthesised factor builds a
    polynomial, by recursion.  Tokens carry no positions: an error finds
    its position by scanning the text again (``_error``).
    """

    def __init__(self, text, space, field):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        self.tokens.append("")  # the end of the expression
        self.i = 0
        self.depth = 0
        self.space = space
        self.field = field
        self.slots = {f"x{g + 1}_{j}": sl.start + j
                      for g, sl in enumerate(space.group_slices)
                      for j in range(sl.stop - sl.start)}

    def _error(self, message, index) -> ParseError:
        """The error at token ``index``.  As when tokens were read before
        parsing, the first refused character anywhere in the text comes
        first, and an error at the end token is the end of the expression."""
        spans = [(m.group(), m.start()) for m in _TOKEN_RE.finditer(self.text)]
        for tok, pos in spans:
            if len(tok) == 1 and not tok.isdecimal() and tok not in "-+*^()/":
                return ParseError(f"unexpected character {tok!r}", pos)
        if index == len(spans):
            return ParseError("unexpected end of expression", len(self.text))
        return ParseError(message, spans[index][1])

    def _var_slot(self, index):
        """The variable index of a token not spelled x<g>_<j>, such as
        x01_0; a token that names no variable is an error."""
        group, _, j = self.tokens[index][1:].partition("_")
        try:
            return self.space.var_index(int(group), int(j))
        except ValueError as exc:
            raise self._error(str(exc), index) from None

    def _exponent(self, i):
        """The exponent at token i and the index after it: 1 with no '^'."""
        if self.tokens[i] != "^":
            return 1, i
        tok = self.tokens[i + 1]
        if not tok.isdecimal():
            raise self._error("exponent must be a nonnegative integer", i + 1)
        return int(tok), i + 2

    def _check_power_bits(self, value, k, caret):
        """Refuse a rational number to the power k whose result would pass
        ``_MAX_POWER_BITS`` bits, before computing it: a numerator or
        denominator of bit length L >= 2 makes one of at least (L - 1) k + 1
        bits."""
        length = max(abs(value.numerator).bit_length(), value.denominator.bit_length())
        if k > 1 and (length - 1) * k >= _MAX_POWER_BITS:
            raise self._error(f"power has more than {_MAX_POWER_BITS} bits", caret)

    def parse(self) -> MPoly:
        poly = self._expr()
        tok = self.tokens[self.i]
        if tok:
            raise self._error(f"unexpected token {_kind(tok)!r}", self.i)
        return poly

    def _expr(self) -> MPoly:
        # A term's total degree is the sum of its factors' degrees, and a
        # term that passes the declared degree is refused at the '*' that
        # joins the factor taking it past, before any product is expanded
        tokens, slots, space = self.tokens, self.slots, self.space
        p = self.field.modulus
        nvars, declared = space.nvars, sum(space.degrees)
        acc = {}
        i = self.i
        sign = -1 if tokens[i] == "-" else 1
        if tokens[i] in ("+", "-"):
            i += 1
        while True:
            coeff, mono, poly, degree, star = sign, [0] * nvars, None, 0, None
            while True:
                tok = tokens[i]
                i += 1
                slot = slots.get(tok)
                if slot is None and tok[:1] == "x":
                    slot = self._var_slot(i - 1)
                if slot is not None:
                    if tokens[i] == "^":  # a bare variable skips the call
                        k, i = self._exponent(i)
                    else:
                        k = 1
                    mono[slot] += k
                    degree += k
                    if star is not None and degree > declared:
                        raise self._degree_error(degree, declared, star)
                elif tok.isdecimal():
                    value = int(tok)
                    if tokens[i] == "/":
                        den = tokens[i + 1]
                        if not den.isdecimal() or not int(den):
                            raise self._error("denominator must be a positive integer",
                                              i + 1)
                        value = Fraction(value, int(den))
                        if p is not None:
                            try:
                                value = self.field(value)
                            except ZeroDivisionError as exc:
                                raise self._error(str(exc), i) from None
                        i += 2
                    caret = i
                    k, i = self._exponent(i)
                    if p is None:
                        if k != 1:
                            self._check_power_bits(value, k, caret)
                            value **= k
                        coeff *= value
                    else:
                        coeff = coeff * pow(value, k, p) % p
                elif tok == "(":
                    if self.depth == _MAX_NESTING:
                        raise self._error(
                            f"parentheses nested deeper than {_MAX_NESTING} levels", i - 1)
                    self.depth += 1
                    self.i = i
                    inner = self._expr()
                    i = self.i
                    self.depth -= 1
                    if tokens[i] != ")":
                        raise self._error("expected ')'", i)
                    caret = i + 1
                    k, i = self._exponent(caret)
                    inner_degree = max(map(sum, inner.terms), default=0)
                    if k > 1 and k * inner_degree > declared:
                        # refuse before expanding: the power could only be rejected
                        raise self._error(f"power has total degree {k * inner_degree}, "
                                          f"more than the declared {declared}", caret)
                    if inner_degree == 0 and p is None and inner:
                        self._check_power_bits(inner.terms[(0,) * nvars], k, caret)
                    degree += k * inner_degree
                    if star is not None and degree > declared:
                        raise self._degree_error(degree, declared, star)
                    inner = inner ** k
                    poly = inner if poly is None else poly * inner
                else:
                    raise self._error(f"unexpected token {_kind(tok)!r}", i - 1)
                if tokens[i] != "*":
                    break
                star = i
                i += 1
            if coeff:
                if poly is None:
                    _add_term(acc, tuple(mono), coeff, p)
                else:
                    for m, c in poly.terms.items():
                        _add_term(acc, tuple(map(add, m, mono)), coeff * c, p)
            tok = tokens[i]
            if tok != "+" and tok != "-":
                break
            sign = -1 if tok == "-" else 1
            i += 1
        self.i = i
        if p is None:
            acc = {m: Fraction(c) for m, c in acc.items()}
        return MPoly(space, acc, self.field, _clean=True)

    def _degree_error(self, degree, declared, star):
        """Refuse a product whose total degree passes the declared one, at
        the '*' that took it past."""
        return self._error(f"product has total degree {degree}, more than the "
                           f"declared {declared}", star)


def _add_term(acc, mono, c, p):
    """Add c x^mono into the sum ``acc``, reduced mod p over F_p, dropping
    a coefficient that cancels."""
    v = acc.get(mono, 0) + c
    if p is not None:
        v %= p
    if v:
        acc[mono] = v
    else:
        acc.pop(mono, None)


def parse_polynomial(text: str, space: TensorSpace, field=QQ) -> MPoly:
    """Parse an expression in x<group>_<index> variables and validate the
    multidegree against the space; offending monomials are named."""
    poly = _ExprParser(text, space, field).parse()
    try:
        check_degrees(poly)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return poly


# ---------------------------------------------------------------------------
# input documents

def _integer(text: str, name: str) -> int:
    """``int(text)``, or a ParseError naming the setting ``name``."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{name} must be an integer, got {text!r}") from None


def _parse_int_list(value: str, name: str):
    items = [x for x in re.split(r"[,\s]+", value.strip()) if x]
    try:
        return tuple(int(x) for x in items)
    except ValueError:
        raise ParseError(f"{name} must be comma-separated integers, got {value!r}") from None


def parse_document(text: str):
    """The ``MPoly`` or ``Decomposition`` a document declares, over the
    field of its ``field:`` key (QQ when absent)."""
    sizes = degrees = None
    field = QQ
    payload_kind = None
    tensor_lines = []
    dec_lines = []
    keys = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip() if payload_kind != "tensor" else raw.strip()
        if not line:
            continue
        if payload_kind == "tensor":
            tensor_lines.append(line)
            continue
        if payload_kind == "decomposition":
            dec_lines.append(line)
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ParseError(f"expected 'key: value', got {line!r}")
        key = key.strip().lower()
        value = value.strip()
        if key in keys:
            raise ParseError(f"document key {key!r} given twice")
        keys.add(key)
        if key == "sizes":
            sizes = _parse_int_list(value, key)
        elif key == "degrees":
            degrees = _parse_int_list(value, key)
        elif key == "field":
            try:
                field = field_from_spec(value)
            except ValueError as exc:
                raise ParseError(f"field: {exc}") from None
        elif key == "seed":
            _integer(value, key)
        elif key == "tensor":
            payload_kind = "tensor"
            if value:
                tensor_lines.append(value)
        elif key == "decomposition":
            payload_kind = "decomposition"
            if value:
                dec_lines.append(value)
        else:
            raise ParseError(f"unknown document key {key!r}")
    if sizes is None or degrees is None:
        raise ParseError("document must declare 'sizes:' and 'degrees:'")
    space = TensorSpace(sizes, degrees)
    if payload_kind == "tensor":
        # ``certify`` checks the multidegree, naming an offending monomial
        return _ExprParser(" ".join(tensor_lines), space, field).parse()
    if payload_kind != "decomposition":
        raise ParseError("document must contain 'tensor:' or 'decomposition:'")
    terms = []
    for line in dec_lines:
        groups = line.split("|")
        if len(groups) != space.p:
            raise ParseError(
                f"term {line!r} has {len(groups)} groups, expected {space.p}")
        term = []
        for part in groups:
            entries = [e for e in part.split(",") if e.strip()]
            try:
                term.append(tuple(Fraction(e.strip()) for e in entries))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad coefficient in {line!r}: {exc}") from None
        terms.append(tuple(term))
    try:
        return Decomposition(space, terms, field=field)
    except (ValueError, ZeroDivisionError) as exc:
        # a denominator that vanishes mod p is a ZeroDivisionError
        raise ParseError(str(exc)) from None


def _document_header(space, field, seed):
    lines = [f"sizes: {','.join(map(str, space.sizes))}",
             f"degrees: {','.join(map(str, space.degrees))}"]
    if field.modulus is not None:
        lines.append(f"field: fp:{field.modulus}")
    if seed is not None:
        lines.append(f"seed: {seed}")
    return lines


def render_tensor_document(T: MPoly, seed=None) -> str:
    lines = _document_header(T.space, T.field, seed)
    lines.append(f"tensor: {poly_to_string(T)}")
    return "\n".join(lines) + "\n"


def render_decomposition_document(dec: Decomposition, seed=None) -> str:
    if dec.lambdas is not None:
        # the format has no weights: the document would describe another tensor
        raise ValueError("a weighted decomposition has no document form")
    lines = _document_header(dec.space, dec.field, seed)
    lines.append("decomposition:")
    for term in dec.terms:
        lines.append(" | ".join(",".join(map(str, form)) for form in term))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reports

def certificate_json(cert: Certificate) -> str:
    return json.dumps(cert.to_json_dict(), indent=2, sort_keys=True) + "\n"


def _emit_certificate(cert: Certificate, report: str, out, trace=False) -> int:
    if report == "json":
        out.write(certificate_json(cert))
    else:
        for line in cert.summary_lines():
            out.write(line + "\n")
        if trace:
            for check in cert.checks:
                if check.detail and check.detail.get("trace"):
                    out.write(f"-- {check.name} profile --\n")
                    for t, v in check.detail["trace"]:
                        out.write(f"hilbert[{t}] = {v}\n")
                    for g, status in enumerate(check.detail.get("at_infinity", ())):
                        out.write(f"at x{g + 1}_0 = 0: {status}\n")
    if cert.certified:
        return 0
    return 1 if cert.budget_exhausted else 2


# ---------------------------------------------------------------------------
# commands

@cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first run, not at import, and kept: parsing arguments
    # leaves the parser as it was
    parser = argparse.ArgumentParser(
        prog="tensorcert",
        description="Certify specific h-identifiability of symmetric and "
                    "mixed symmetric tensors over exact fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    cert = sub.add_parser("certify", help="run the certification dispatcher")
    cert.add_argument("--input", required=True,
                      help="input document path, or '-' for stdin")
    cert.add_argument("--h", type=int, default=None,
                      help="decomposition length to certify")
    cert.add_argument("--criterion", default="auto",
                      choices=["auto", "prop31", "prop33", "thm37"])
    cert.add_argument("--split", default=None,
                      help="comma-separated a_1,..,a_p overriding the default split")
    cert.add_argument("--report", default="text", choices=["text", "json"])
    cert.add_argument("--budget", type=int, default=None,
                      help="S-pair budget for Groebner runs")
    cert.add_argument("--trace", action="store_true",
                      help="dump Hilbert profile traces in text reports")

    rnd = sub.add_parser("random", help="generate a random tensor or decomposition")
    rnd.add_argument("--sizes", required=True, help="comma-separated group sizes")
    rnd.add_argument("--degrees", required=True, help="comma-separated degrees")
    rnd.add_argument("--h", type=int, required=True)
    rnd.add_argument("--seed", type=int, default=0)
    rnd.add_argument("--bound", type=int, default=1 << 15)
    rnd.add_argument("--emit", default="tensor", choices=["tensor", "decomposition"])
    rnd.add_argument("--field", default=None, help="qq or fp:P")

    bnd = sub.add_parser("bounds", help="evaluate the effectiveness bounds")
    bnd.add_argument("--family", required=True,
                     choices=["mixed-symmetric", "skew", "segre", "unbalanced-segre"])
    bnd.add_argument("--h", type=int, required=True)
    bnd.add_argument("--n", type=int, default=None, help="common space dimension")
    bnd.add_argument("--degrees", default=None, help="comma-separated degrees")
    bnd.add_argument("--factors", type=int, default=None,
                     help="number of factors (segre family)")
    bnd.add_argument("--dims", default=None,
                     help="comma-separated space dimensions (unbalanced family)")
    bnd.add_argument("--report", default="text", choices=["text", "json"])
    return parser


def _resolve_budget(flag_value):
    if flag_value is not None:
        budget, source = flag_value, "--budget"
    else:
        env = os.environ.get(BUDGET_ENV)
        if not env:
            return None
        budget, source = _integer(env, BUDGET_ENV), BUDGET_ENV
    if budget < 0:
        raise ValueError(f"{source} must be >= 0, got {budget}")
    return budget


def _cmd_certify(args, out) -> int:
    budget = _resolve_budget(args.budget)
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    target = parse_document(text)
    if args.h is not None and args.h < 1:
        raise ValueError("--h must be >= 1")
    h = args.h
    if isinstance(target, MPoly) and h is None:
        raise ValueError("--h is required for tensor input")
    split = None
    if args.split is not None:
        split = Split.of(target.space, _parse_int_list(args.split, "--split"))
    cert = certify(target, h, criterion=args.criterion, split=split,
                   budget=budget)
    return _emit_certificate(cert, args.report, out, trace=args.trace)


def _cmd_random(args, out) -> int:
    space = TensorSpace(_parse_int_list(args.sizes, "--sizes"),
                        _parse_int_list(args.degrees, "--degrees"))
    if args.h < 1:
        raise ValueError("--h must be >= 1")
    field = field_from_spec(args.field) if args.field else QQ
    cfg = RandomConfig(seed=args.seed, bound=args.bound, field=field)
    tensor, dec = random_tensor(space, args.h, cfg)
    if args.emit == "tensor":
        out.write(render_tensor_document(tensor, seed=args.seed))
    else:
        out.write(render_decomposition_document(dec, seed=args.seed))
    return 0


def _cmd_bounds(args, out) -> int:
    params = {}
    if args.n is not None:
        params["n"] = args.n
    if args.degrees is not None:
        params["degrees"] = _parse_int_list(args.degrees, "--degrees")
    if args.factors is not None:
        params["factors"] = args.factors
    if args.dims is not None:
        params["dims"] = _parse_int_list(args.dims, "--dims")
    bound = corollary35_bound(args.family, **params)
    effective = args.h < bound
    if args.report == "json":
        out.write(json.dumps({"family": args.family, "bound": bound,
                              "h": args.h, "effective": effective},
                             indent=2, sort_keys=True) + "\n")
    else:
        out.write(f"family {args.family}: effective for h < {bound}; "
                  f"h = {args.h} is {'within' if effective else 'outside'} "
                  "the range\n")
    return 0 if effective else 2


def run(argv=None, out=None) -> int:
    """Entry point returning the exit code; prints errors to stderr."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        if args.command == "certify":
            return _cmd_certify(args, out)
        if args.command == "random":
            return _cmd_random(args, out)
        return _cmd_bounds(args, out)
    except (ParseError, SplitError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
