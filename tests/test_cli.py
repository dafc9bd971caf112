import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import tensorcert.cli as cli_module
from tensorcert import Decomposition, MPoly, PrimeField, QQ, TensorSpace
from tensorcert.cli import (ParseError, parse_document, parse_polynomial,
                            render_decomposition_document, render_tensor_document,
                            run)
from tensorcert.randgen import RandomConfig, random_tensor

import oracles


def run_cli(*args):
    out = io.StringIO()
    code = run(list(args), out=out)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# polynomial parsing


def test_parse_binary_cubic():
    space = TensorSpace((2,), (3,))
    F = parse_polynomial("x1_0^3 + 2*x1_1^3", space)
    assert F.terms == {(3, 0): QQ(1), (0, 3): QQ(2)}


def test_parse_homogeneity_error_names_monomial():
    space = TensorSpace((2,), (3,))
    with pytest.raises(ParseError, match="x1_0\\^2"):
        parse_polynomial("x1_0^2", space)


def test_parse_power_of_sum():
    space = TensorSpace((2,), (5,))
    F = parse_polynomial("(x1_0+x1_1)^5", space)
    assert len(F) == 6
    assert F.terms[(3, 2)] == QQ(10)


def test_parse_rational_coefficient_and_signs():
    space = TensorSpace((2,), (2,))
    F = parse_polynomial("-3/4*x1_0^2 + x1_0*x1_1 - x1_1^2", space)
    assert F.terms[(2, 0)] == QQ("-3/4")
    assert F.terms[(1, 1)] == QQ(1)
    assert F.terms[(0, 2)] == QQ(-1)


def test_parse_unknown_variable():
    space = TensorSpace((2,), (1,))
    with pytest.raises(ParseError, match="x2_0"):
        parse_polynomial("x2_0", space)


def test_parse_syntax_error_position():
    space = TensorSpace((2,), (1,))
    with pytest.raises(ParseError, match="position"):
        parse_polynomial("x1_0 + $", space)


def test_parse_error_positions():
    space = TensorSpace((2,), (1,))
    for text, pos in (("x1_0 + $", 7), ("x1_0 +\n x1_", 8), ("2*x1_0 - y", 9)):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, space)
        assert info.value.position == pos
    with pytest.raises(ParseError, match="exponent") as info:
        parse_polynomial("x1_0^x1_1", space)
    assert info.value.position == 5


def test_deep_nesting_is_a_parse_error(tmp_path, capsys):
    # the recursive parser refuses the nesting instead of overflowing the stack
    space = TensorSpace((2,), (1,))
    assert parse_polynomial("(" * 150 + "x1_0" + ")" * 150, space).terms == \
        {(1, 0): QQ(1)}
    text = "(" * 3000 + "x1_0" + ")" * 3000
    with pytest.raises(ParseError, match="nested") as info:
        parse_polynomial(text, space)
    assert text[info.value.position] == "("
    path = tmp_path / "deep.txt"
    path.write_text(f"sizes: 2\ndegrees: 1\ntensor: {text}\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("certify", "--input", str(path), "--h", "1") == (1, "")
    assert capsys.readouterr().err.startswith("error: parentheses nested")


def test_power_beyond_the_degree_is_refused_before_expansion():
    space = TensorSpace((2,), (3,))
    text = "(x1_0 + x1_1)^3000"
    start = time.perf_counter()
    with pytest.raises(ParseError, match="total degree 3000") as info:
        parse_polynomial(text, space)
    assert time.perf_counter() - start < 1.0
    assert text[info.value.position] == "^"
    # a constant base takes any power
    F = parse_polynomial("(1/2)^3000*(2 - 1)^6000*x1_0^3", space)
    assert F.terms == {(3, 0): QQ(1) / 2 ** 3000}


def test_power_of_a_number_is_capped_before_it_is_computed():
    space = TensorSpace((2,), (1,))
    text = "3^1000000*x1_0 - 3^1000000*x1_0 + x1_1"
    start = time.perf_counter()
    with pytest.raises(ParseError, match="bits") as info:
        parse_polynomial(text, space)
    assert time.perf_counter() - start < 0.05
    assert info.value.position == text.index("^")
    for refused in ("(3)^1000000*x1_0", "(1/3)^1000000*x1_0", "x1_0*1/2^200000"):
        with pytest.raises(ParseError, match="bits") as info:
            parse_polynomial(refused, space)
        assert refused[info.value.position] == "^"
    assert parse_polynomial("2^64*x1_0", space).terms == {(1, 0): QQ(2 ** 64)}
    assert parse_polynomial("1^1000000*(1)^1000000*x1_0", space).terms == {(1, 0): QQ(1)}
    # over F_p the power is reduced as it is taken, and no cap applies
    p = 1073741789
    T = parse_document(f"sizes: 2\ndegrees: 1\nfield: fp:{p}\ntensor: {text}\n")
    assert T.terms == {(0, 1): 1}
    T = parse_document(f"sizes: 2\ndegrees: 1\nfield: fp:{p}\n"
                       "tensor: 3^1000000*x1_0\n")
    assert T.terms == {(1, 0): pow(3, 1000000, p)}


def test_product_beyond_the_degree_is_refused_at_its_star():
    space = TensorSpace((2,), (3,))
    text = "*".join(["(x1_0 + x1_1)^3"] * 250)
    start = time.perf_counter()
    with pytest.raises(ParseError, match="total degree 6") as info:
        parse_polynomial(text, space)
    assert time.perf_counter() - start < 0.05
    assert info.value.position == text.index("*")
    for refused, degree in (("x1_0^2*x1_1*(x1_0 - x1_1)", 4), ("2*x1_0^2*3*x1_1^2", 4),
                            ("(x1_0)*(x1_1)^2*x1_0", 4)):
        with pytest.raises(ParseError, match=f"total degree {degree}") as info:
            parse_polynomial(refused, space)
        assert refused[info.value.position] == "*"
        assert refused[info.value.position + 1:].lstrip()[:1] in "x(2"


def test_legal_products_parse_to_the_generic_product():
    space = TensorSpace((3,), (3,))
    x = [MPoly(space, {tuple(int(i == j) for j in range(3)): 1}) for i in range(3)]
    cases = {
        "(x1_0 + x1_1)*(x1_0 - 2*x1_2)*x1_1": (x[0] + x[1]) * (x[0] - x[2].scale(2)) * x[1],
        "x1_2*(x1_0 + x1_1)^2": x[2] * (x[0] + x[1]) * (x[0] + x[1]),
        "3/4*(x1_0)*2*(x1_1 - x1_2)*(1 + 1)*x1_2^1":
            (x[0] * (x[1] - x[2]) * x[2]).scale(3),
        "(x1_0 + x1_1 + x1_2)^3*1^5": (x[0] + x[1] + x[2]) ** 3,
    }
    for text, want in cases.items():
        assert parse_polynomial(text, space) == want


def test_parse_mixed_variables():
    space = TensorSpace((2, 3), (1, 1))
    F = parse_polynomial("x1_0*x2_2 - x1_1*x2_0", space)
    assert F.terms == {(1, 0, 0, 0, 1): QQ(1), (0, 1, 1, 0, 0): QQ(-1)}


_MONOMIAL_DOCUMENTS = [
    "sizes: 2\ndegrees: 4\n"
    "tensor: x1_0^4*x1_1^0 - 3/4*x1_0^2*x1_1^2 + 2^3*x1_1^4 - x1_1*x1_0^3\n",
    "sizes: 2\ndegrees: 4\n"
    "tensor: (x1_0 + 2*x1_1)^3*x1_0 - (1/2*x1_1)^4 + (x1_0)^2*(x1_1^2)^1\n",
    "sizes: 3\ndegrees: 3\nfield: fp:101\n"
    "tensor: 5/7*x1_0^3 - 2^7*x1_1^2*x1_2 + (3*x1_2)^3 + 101*x1_0*x1_1*x1_2"
    " + x1_0^0*x1_1^3 + (2/3)^2*(x1_0 - x1_1)^2*x1_2\n",
    "sizes: 2,3\ndegrees: 2,1\n"
    "tensor: 3*x1_0^2*x2_1 - x1_1*x1_0*x2_2^1 + (x1_0*x2_0)^1*7/5*x1_1\n",
    # folded numbers and variables around parenthesised factors, a repeated
    # variable, and zero coefficients
    "sizes: 2\ndegrees: 3\n"
    "tensor: x1_0*3*x1_1^2 + 2*(x1_0 + x1_1)*3/4*x1_1*(x1_0 - x1_1)"
    " - x1_1*x1_0^0*x1_1^2 + 0*x1_0^3 + x1_0^2*0*x1_1 + 2^2*(x1_1)^3*1/4\n",
    # a leading minus, repeated terms, and terms that cancel
    "sizes: 2\ndegrees: 3\n"
    "tensor: -x1_0^3 + 2*x1_0^2*x1_1 - x1_0^3 + x1_1^3 - 2*x1_1*x1_0^2"
    " + 1/2*x1_1^3 - (x1_0 - x1_1)^3 + (-x1_1 + x1_0)^3\n",
    "sizes: 3\ndegrees: 2\nfield: fp:7\n"
    "tensor: - x1_0^2 - 3*x1_1*x1_2 + 4*x1_2*x1_1 - 8*x1_0^2 + x1_1^2"
    " - (x1_1 + x1_2)^2 + 2*x1_1*x1_2 + 6*x1_2^2\n",
]
_CANCELLING = ["x1_0*x1_1 - x1_1*x1_0", "-(x1_0 + x1_1)^2 + x1_0^2 + x1_1^2 + 2*x1_0*x1_1",
               "x1_0^2 + x1_0^2 - 2*x1_0^2"]


def _reference_payload(document):
    # the tensor expression exactly as parse_document hands it to the parser
    header, _, expr = document.partition("tensor:")
    zero = parse_document(header + "tensor: 0\n")
    expr = " ".join(line.strip() for line in expr.splitlines() if line.strip())
    return oracles.reference_parse(expr, zero.space, zero.field)


def test_parse_monomials_match_generic_arithmetic():
    # number and variable factors fold into one term, single-term powers
    # take a shortcut, and sums accumulate into one dict; one polynomial per
    # atom and generic arithmetic must give the same polynomials
    folded = [parse_document(text) for text in _MONOMIAL_DOCUMENTS]
    assert folded == [_reference_payload(text) for text in _MONOMIAL_DOCUMENTS]
    assert all(folded)
    space = TensorSpace((2,), (2,))
    zeros = [parse_polynomial(text, space) for text in _CANCELLING]
    assert zeros == [oracles.reference_parse(text, space, QQ) for text in _CANCELLING]
    assert zeros == [MPoly.zero(space)] * len(_CANCELLING)


def _random_sum(rng, names, p, budget, depth=0):
    # a signed sum of folded products: numbers (rationals with denominators
    # prime to p), variables and parenthesised sums, each maybe to a power;
    # one term in ten may pass the degree budget
    terms = []
    for t in range(rng.randint(1, 3)):
        factors = []
        left = budget if rng.random() < 0.9 else budget + 2
        for _ in range(rng.randint(1, 4)):
            kind = rng.random()
            if kind < 0.3:
                num = str(rng.choice([0, 1, 2, 3, 7, 12, 101, rng.randint(0, 10 ** 30)]))
                if rng.random() < 0.3:
                    den = rng.randint(1, 12)
                    while p is not None and den % p == 0:
                        den = rng.randint(1, 12)
                    num += f"/{den}"
                if rng.random() < 0.3:
                    num += f"^{rng.randint(0, 4)}"
                factors.append(num)
            elif kind < 0.8 or depth == 2 or left < 2:
                k = rng.randint(0, left) if rng.random() < 0.5 else min(1, left)
                factors.append(rng.choice(names) + (f"^{k}" if k != 1 else ""))
                left = max(0, left - k)
            else:
                k = rng.choice([1, 1, 2, 3])
                inner = _random_sum(rng, names, p, left // k, depth + 1)
                factors.append(f"({inner})" + (f"^{k}" if k != 1 else ""))
                left -= k * (left // k)
        sign = rng.choice(["", "-", "+"]) if t == 0 else rng.choice([" + ", " - ", "-", "+"])
        sep = rng.choice(["*", " * ", "*\n"])
        terms.append(sign + sep.join(factors))
    return "".join(terms)


def _corrupted(rng, text):
    # one random edit: a deleted, inserted or repeated character, or a cut
    i = rng.randrange(len(text) + 1)
    edit = rng.randrange(4)
    if edit == 0 and i < len(text):
        return text[:i] + text[i + 1:]
    if edit == 1:
        return text[:i] + rng.choice("+-*^()/x_0179 $y") + text[i:]
    if edit == 2 and i < len(text):
        return text[:i] + text[i] + text[i:]
    return text[:i]


def test_parser_matches_the_reference_on_random_expressions():
    rng = random.Random(20170308)
    cases = [(TensorSpace((2,), (3,)), QQ), (TensorSpace((3,), (2,)), PrimeField(7)),
             (TensorSpace((2, 3), (2, 1)), QQ), (TensorSpace((2, 2), (1, 2)), PrimeField(101)),
             (TensorSpace((2,), (4,)), PrimeField(1073741789))]
    outcomes = Counter()
    for n in range(600):
        space, field = cases[n % len(cases)]
        names = [f"x{g + 1}_{j}" for g, size in enumerate(space.sizes)
                 for j in range(size)]
        text = _random_sum(rng, names, field.modulus, sum(space.degrees))
        for variant in (text, _corrupted(rng, text)):
            try:
                want = oracles.reference_parse(variant, space, field)
            except oracles.ExpressionError as exc:
                with pytest.raises(ParseError) as info:
                    cli_module._ExprParser(variant, space, field).parse()
                assert (str(info.value), info.value.position) == (
                    f"{exc.message} (at position {exc.position})", exc.position), variant
                outcomes[exc.message.split(" ")[0]] += 1
            else:
                got = cli_module._ExprParser(variant, space, field).parse()
                assert got == want, variant
                assert all(type(c) is (int if field.modulus else Fraction)
                           for c in got.terms.values())
                outcomes["parsed"] += 1
    # the draw reaches sums that parse and every kind of refusal it can make
    assert outcomes["parsed"] >= 500
    assert {"unexpected", "product", "power", "expected", "exponent",
            "denominator"} <= set(outcomes)


def test_flat_document_builds_one_polynomial(monkeypatch):
    # 1c's document: numbers and variables fold into terms of one dict, and
    # the only MPoly built is the one the parser returns
    space = TensorSpace((2, 5, 4), (3, 2, 3))
    T, _ = random_tensor(space, 5, RandomConfig(seed=1))
    text = render_tensor_document(T, seed=1)
    built = Counter()
    init = MPoly.__init__

    def counted(self, *args, **kwargs):
        built["MPoly"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(MPoly, "__init__", counted)
    parsed = parse_document(text)
    assert built["MPoly"] == 1
    assert parsed == T and len(T) == 1200


def test_denominator_divisible_by_the_prime_is_a_parse_error(tmp_path, capsys):
    text = "sizes: 2\ndegrees: 1\nfield: fp:7\ntensor: 1/7*x1_0\n"
    with pytest.raises(ParseError, match="vanishes mod 7") as info:
        parse_document(text)
    assert info.value.position == 1
    # the fraction is reduced first: 14/21 is 2/3, and 7/7 is 1
    T = parse_document(text.replace("1/7", "14/21*7/7"))
    assert T.terms == {(1, 0): 2 * pow(3, -1, 7) % 7}
    dec = "sizes: 2\ndegrees: 1\nfield: fp:7\ndecomposition:\n1/7,1\n"
    with pytest.raises(ParseError, match="vanishes mod 7"):
        parse_document(dec)
    for name, document in (("tensor.txt", text), ("dec.txt", dec)):
        path = tmp_path / name
        path.write_text(document, encoding="utf-8")
        capsys.readouterr()
        assert run_cli("certify", "--input", str(path), "--h", "1") == (1, "")
        assert "vanishes mod 7" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# documents


def test_tensor_document_roundtrip():
    space = TensorSpace((2, 3), (2, 1))
    T, _ = random_tensor(space, 2, RandomConfig(seed=1))
    # the seed is provenance: checked, then dropped
    assert parse_document(render_tensor_document(T, seed=1)) == T


def test_decomposition_document_roundtrip():
    space = TensorSpace((2, 5, 4), (3, 2, 3))
    _, dec = random_tensor(space, 4, RandomConfig(seed=2))
    parsed = parse_document(render_decomposition_document(dec))
    assert (parsed.space, parsed.terms) == (space, dec.terms)


def test_weighted_decomposition_has_no_document():
    # the format has no weights; rendering the terms alone would describe
    # another tensor
    space = TensorSpace((2,), (3,))
    dec = Decomposition(space, [((1, 0),), ((0, 1),)], lambdas=(2, 5))
    with pytest.raises(ValueError, match="weighted"):
        render_decomposition_document(dec)
    plain = Decomposition(space, dec.terms)
    again = parse_document(render_decomposition_document(plain))
    assert again.expand() == plain.expand()


def test_document_requires_header():
    with pytest.raises(ParseError):
        parse_document("tensor: x1_0")
    with pytest.raises(ParseError):
        parse_document("sizes: 2\ndegrees: 1\n")


def test_document_comments_ignored_in_header():
    T = parse_document("# top\nsizes: 2  # binary\ndegrees: 2\ntensor: x1_0^2\n")
    assert T.terms == {(2, 0): QQ(1)}


def test_tensor_over_several_lines():
    # the lines after "tensor:" are stripped, blank ones dropped and the rest
    # joined by single spaces; a comment goes from the "tensor:" line only,
    # and an error position is an offset into the joined expression
    head = "sizes: 2\ndegrees: 3\ntensor: x1_0^3  # first\n\n   - 2*x1_1^3\n"
    assert parse_document(head).terms == {(3, 0): QQ(1), (0, 3): QQ(-2)}
    with pytest.raises(ParseError) as info:
        parse_document(head + "  + $\n")
    assert info.value.position == len("x1_0^3 - 2*x1_1^3 + ")


def test_decomposition_row_on_its_header_line():
    dec = parse_document("sizes: 3\ndegrees: 5\ndecomposition: 1,2,3\n4,-5,6\n")
    assert dec.terms == (((1, 2, 3),), ((4, -5, 6),))


def test_certify_h_mismatch_with_decomposition(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("sizes: 2\ndegrees: 3\ndecomposition:\n1,0\n0,1\n",
                    encoding="utf-8")
    code, _ = run_cli("certify", "--input", str(path), "--h", "3")
    assert code == 1
    code, _ = run_cli("certify", "--input", str(path), "--h", "2")
    assert code == 0


# ---------------------------------------------------------------------------
# subcommands


def test_random_then_certify_tensor(tmp_path):
    code, text = run_cli("random", "--sizes", "3", "--degrees", "5",
                         "--h", "7", "--seed", "1", "--emit", "tensor")
    assert code == 0
    path = tmp_path / "t.txt"
    path.write_text(text, encoding="utf-8")
    code, report = run_cli("certify", "--input", str(path), "--h", "7")
    assert code == 0
    assert "Theorem 3.7" in report
    assert "7-identifiability certified" in report


def test_certify_decomposition_prop33(tmp_path):
    code, text = run_cli("random", "--sizes", "3", "--degrees", "6",
                         "--h", "8", "--seed", "2", "--emit", "decomposition")
    assert code == 0
    path = tmp_path / "d.txt"
    path.write_text(text, encoding="utf-8")
    code, report = run_cli("certify", "--input", str(path))
    assert code == 0
    assert "Proposition 3.3" in report
    assert "8-identifiability certified" in report


def test_certify_inconclusive_exit_code(tmp_path):
    code, text = run_cli("random", "--sizes", "3", "--degrees", "4",
                         "--h", "5", "--seed", "3", "--emit", "tensor")
    path = tmp_path / "q.txt"
    path.write_text(text, encoding="utf-8")
    code, report = run_cli("certify", "--input", str(path), "--h", "5")
    assert code == 2
    assert "not certified" in report


def test_certify_usage_errors(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("sizes: 2\ndegrees: 3\ntensor: x1_0^3\n", encoding="utf-8")
    code, _ = run_cli("certify", "--input", str(path), "--h", "0")
    assert code == 1
    code, _ = run_cli("certify", "--input", str(tmp_path / "missing.txt"), "--h", "1")
    assert code == 1
    code, _ = run_cli("certify", "--input", str(path))   # tensor without --h
    assert code == 1
    code, _ = run_cli("nonsense")
    assert code == 1


def test_certify_json_roundtrip(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("sizes: 2\ndegrees: 3\ntensor: x1_0^3 + x1_1^3\n", encoding="utf-8")
    code, text = run_cli("certify", "--input", str(path), "--h", "2",
                         "--report", "json")
    assert code == 0
    parsed = json.loads(text)
    again = json.dumps(parsed, indent=2, sort_keys=True) + "\n"
    assert again == text
    assert parsed["criterion"] == "Thm37"
    assert parsed["verdict"] == "Certified"
    assert parsed["schema_version"] == 1


def test_certify_forced_split(tmp_path):
    code, text = run_cli("random", "--sizes", "3", "--degrees", "5",
                         "--h", "6", "--seed", "4", "--emit", "tensor")
    path = tmp_path / "t.txt"
    path.write_text(text, encoding="utf-8")
    code, report = run_cli("certify", "--input", str(path), "--h", "6",
                           "--split", "2", "--report", "json")
    assert code == 0
    assert json.loads(report)["split"]["a"] == [2]


def test_certify_prime_field(tmp_path):
    # the document's field: line is the one place the field comes from
    code, text = run_cli("random", "--sizes", "3", "--degrees", "5", "--h", "6",
                         "--seed", "5", "--emit", "tensor", "--field", "fp:1073741789")
    assert code == 0 and "field: fp:1073741789\n" in text
    path = tmp_path / "t.txt"
    path.write_text(text, encoding="utf-8")
    code, report = run_cli("certify", "--input", str(path), "--h", "6", "--report", "json")
    assert code == 0
    doc = json.loads(report)
    assert doc["field"] == {"mode": "probabilistic", "prime": 1073741789}


def test_random_determinism_and_seed_header():
    code1, text1 = run_cli("random", "--sizes", "2,5,4", "--degrees", "3,2,3",
                           "--h", "5", "--seed", "6")
    code2, text2 = run_cli("random", "--sizes", "2,5,4", "--degrees", "3,2,3",
                           "--h", "5", "--seed", "6")
    assert code1 == code2 == 0
    assert text1 == text2
    assert "seed: 6" in text1


@pytest.mark.parametrize("sizes, degrees, h, label", [
    ("3", "5", 7, "Theorem 3.7"),
    ("3", "5", 6, "Proposition 3.1"),
    ("2,5,4", "3,2,3", 5, "Proposition 3.1"),
    ("4", "4", 7, "Proposition 3.3"),
    ("3", "6", 8, "Proposition 3.3"),
    ("4", "3", 5, "Theorem 3.7"),
])
def test_pipeline_certifies_in_range_regimes(monkeypatch, sizes, degrees, h, label):
    _, doc = run_cli("random", "--sizes", sizes, "--degrees", degrees,
                     "--h", str(h), "--seed", "7", "--emit", "decomposition")
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    code, report = run_cli("certify", "--input", "-", "--report", "json")
    assert code == 0
    parsed = json.loads(report)
    assert parsed["verdict"] == "Certified"
    assert parsed["label"].startswith(label)


def test_bounds_subcommand():
    code, text = run_cli("bounds", "--family", "segre", "--n", "3",
                         "--factors", "4", "--h", "4")
    assert code == 0 and "h < 5" in text
    code, _ = run_cli("bounds", "--family", "segre", "--n", "3",
                      "--factors", "4", "--h", "5")
    assert code == 2
    code, text = run_cli("bounds", "--family", "unbalanced-segre",
                         "--dims", "50,3,3", "--h", "4", "--report", "json")
    assert code == 0
    assert json.loads(text) == {"bound": 5, "effective": True,
                                "family": "unbalanced-segre", "h": 4}
    code, _ = run_cli("bounds", "--family", "unbalanced-segre",
                      "--dims", "3,3,3", "--h", "1")
    assert code == 1


def test_document_off_the_space_multidegree_names_the_monomial(tmp_path, capsys):
    # the document parser leaves the check to certify, in range or not
    for h in (6, 8):
        path = tmp_path / f"h{h}.txt"
        path.write_text("sizes: 3\ndegrees: 5\ntensor: x1_0^5 + x1_1^5 + x1_2^4\n",
                        encoding="utf-8")
        capsys.readouterr()
        code, _ = run_cli("certify", "--input", str(path), "--h", str(h))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: monomial x1_2^4 has multidegree (4,), expected (5,)\n")


def test_budget_env_override(tmp_path, monkeypatch):
    # a ternary quintic of rank 6: its chart's Groebner run needs S-pairs
    code, text = run_cli("random", "--sizes", "3", "--degrees", "5",
                         "--h", "6", "--seed", "8", "--emit", "tensor")
    path = tmp_path / "m.txt"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setenv("TENSORCERT_BUDGET", "1")
    code, report = run_cli("certify", "--input", str(path), "--h", "6",
                           "--report", "json")
    assert code == 1  # resource exhaustion
    assert json.loads(report)["budget_exhausted"] is True
    monkeypatch.delenv("TENSORCERT_BUDGET")
    code, _ = run_cli("certify", "--input", str(path), "--h", "6")
    assert code == 0


def _all_charts_decomposition():
    # 1c's decomposition with term k's group-2 form on the hyperplane at
    # infinity of the classifier's chart k, k = 0..3: a_0 = -sum_j c_j a_j,
    # with c = 0 for chart 0 and the shifts drawn as classify_linear_section
    # draws them
    space = TensorSpace((2, 5, 4), (3, 2, 3))
    terms = [list(t) for t in random_tensor(space, 5, RandomConfig(seed=1))[1].terms]
    rng = random.Random(1703027)
    shifts = [(0,) * 4] + [[tuple(rng.randint(1, 16) for _ in range(n))
                            for n in space.projective_dims][1] for _ in range(3)]
    for term, c in zip(terms, shifts):
        a = term[1]
        term[1] = (-sum(x * y for x, y in zip(c, a[1:])),) + a[1:]
    return Decomposition(space, terms)


@pytest.mark.parametrize("build,flags,code,reason", [
    (_all_charts_decomposition, (), 2,
     "failed checks: ii_section_dimension, iii_section_length"),
    (lambda: random_tensor(TensorSpace((2, 5, 4), (3, 2, 3)), 5, RandomConfig(seed=1))[1],
     ("--budget", "0"), 1, "resource budget exhausted"),
], ids=["point-at-infinity-in-every-chart", "1c-budget-0"])
def test_budget_exhausted_only_when_a_groebner_run_ran_out(tmp_path, build, flags,
                                                            code, reason):
    # a point at infinity in every chart is Inconclusive too, but a failed
    # check, not an exhausted budget
    path = tmp_path / "doc.txt"
    path.write_text(render_decomposition_document(build(), seed=1), encoding="utf-8")
    got, report = run_cli("certify", "--input", str(path), "--report", "json", *flags)
    parsed = json.loads(report)
    assert (got, parsed["reason"], parsed["budget_exhausted"]) == (code, reason, code == 1)
    ii = next(c for c in parsed["checks"] if c["name"] == "ii_section_dimension")
    assert ii["computed"] == "Inconclusive"
    if code == 2:
        assert ii["detail"]["note"] == "each of 4 charts has a point at infinity"


@pytest.mark.parametrize("flags,env", [
    (("--budget", "-3"), None), ((), "-3"),
], ids=["budget-flag", "budget-env"])
def test_negative_budget_and_cap_are_usage_errors(tmp_path, monkeypatch, capsys,
                                                  flags, env):
    _, text = run_cli("random", "--sizes", "2,3", "--degrees", "2,2",
                      "--h", "2", "--seed", "8", "--emit", "tensor")
    path = tmp_path / "m.txt"
    path.write_text(text, encoding="utf-8")
    if env is not None:
        monkeypatch.setenv("TENSORCERT_BUDGET", env)
    capsys.readouterr()
    code, report = run_cli("certify", "--input", str(path), "--h", "2", *flags)
    assert (code, report) == (1, "")
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("header,env,message", [
    ("sizes: 2,a\ndegrees: 1\n", None, "sizes must be comma-separated integers, got '2,a'"),
    ("sizes: 2\ndegrees: 1\nseed: 1.5\n", None, "seed must be an integer, got '1.5'"),
    ("sizes: 2\ndegrees: 1\nfield: fp:abc\n", None,
     "field: unknown field spec 'fp:abc'; expected 'qq' or 'fp:P'"),
    ("sizes: 2\ndegrees: 1\n", "abc", "TENSORCERT_BUDGET must be an integer, got 'abc'"),
    ("sizes: 2\ndegrees: 1\n", "1.5", "TENSORCERT_BUDGET must be an integer, got '1.5'"),
    ("sizes: 2\nsizes: 3\ndegrees: 1\n", None, "document key 'sizes' given twice"),
    ("sizes: 2\ndegrees: 1\ndegrees: 1\n", None, "document key 'degrees' given twice"),
    ("sizes: 2\ndegrees: 1\nfield: qq\nfield: fp:101\n", None,
     "document key 'field' given twice"),
    ("sizes: 2\ndegrees: 1\nseed: 1\nSeed: 2\n", None, "document key 'seed' given twice"),
], ids=["sizes", "seed", "field", "budget-env-word", "budget-env-fraction",
        "sizes-twice", "degrees-twice", "field-twice", "seed-twice"])
def test_malformed_value_names_its_setting(tmp_path, monkeypatch, capsys, header, env,
                                           message):
    text = header + "tensor: x1_0\n"
    if env is None:
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_document(text)
    else:
        monkeypatch.setenv("TENSORCERT_BUDGET", env)
    path = tmp_path / "t.txt"
    path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run_cli("certify", "--input", str(path), "--h", "1") == (1, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_profile_cap_is_an_unknown_argument(tmp_path, capsys):
    # the Hilbert polynomial decides every section, so no cap is taken
    path = tmp_path / "t.txt"
    path.write_text("sizes: 2\ndegrees: 3\ntensor: x1_0^3 + x1_1^3\n", encoding="utf-8")
    capsys.readouterr()
    code, report = run_cli("certify", "--input", str(path), "--h", "2",
                           "--profile-cap", "5")
    assert (code, report) == (1, "")
    assert "unrecognized arguments: --profile-cap 5" in capsys.readouterr().err
    assert run_cli("certify", "--help")[0] == 0
    usage = capsys.readouterr().out
    assert "--budget" in usage and "--profile-cap" not in usage
    # a document's field: line alone sets the field
    assert "--field" not in usage
    assert run_cli("certify", "--input", str(path), "--h", "2", "--field", "fp:101") == (1, "")
    assert "unrecognized arguments: --field fp:101" in capsys.readouterr().err


def test_document_declared_field(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("sizes: 2\ndegrees: 3\nfield: fp:101\ntensor: x1_0^3 + x1_1^3\n",
                    encoding="utf-8")
    code, report = run_cli("certify", "--input", str(path), "--h", "2",
                           "--report", "json")
    assert code == 0
    assert json.loads(report)["field"] == {"mode": "probabilistic", "prime": 101}


def test_document_composite_modulus_refused(tmp_path, capsys):
    # psi_13 passes Miller-Rabin to every prime base up to 41
    path = tmp_path / "t.txt"
    path.write_text("sizes: 2\ndegrees: 3\nfield: fp:3317044064679887385961981\n"
                    "tensor: x1_0^3 + x1_1^3\n", encoding="utf-8")
    code, report = run_cli("certify", "--input", str(path), "--h", "2")
    assert (code, report) == (1, "")
    assert "primality" in capsys.readouterr().err


def test_field_env_override(tmp_path, monkeypatch):
    # TENSORCERT_FIELD is not read: a QQ document stays exact
    path = tmp_path / "t.txt"
    path.write_text("sizes: 2\ndegrees: 3\ntensor: x1_0^3 + x1_1^3\n", encoding="utf-8")
    monkeypatch.setenv("TENSORCERT_FIELD", "fp:101")
    code, report = run_cli("certify", "--input", str(path), "--h", "2",
                           "--report", "json")
    assert code == 0
    assert json.loads(report)["field"] == {"mode": "exact", "prime": None}


def test_trace_flag(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("sizes: 3\ndegrees: 2\ntensor: x1_0^2 + x1_1^2 + x1_2^2\n",
                    encoding="utf-8")
    # the section is Empty, decided in the chart x1_0 = 1, whose ideal is the
    # unit ideal: no standard monomial, and nothing on x1_0 = 0
    code, report = run_cli("certify", "--input", str(path), "--h", "1", "--trace")
    assert "hilbert[0] = 0" in report
    assert "at x1_0 = 0: Empty" in report


@pytest.fixture(scope="module")
def installed_tensorcert(tmp_path_factory):
    """Install the project under a staging root; return (script dir, import dir).

    Uses setuptools alone (no pip, no wheel, no network), so the console
    script is the wrapper setuptools generates from ``[project.scripts]``.
    Every build output goes under the staging directory, none into the
    working tree.  Paths come from the install record, not a guessed scheme.
    """
    pytest.importorskip("setuptools")
    work = tmp_path_factory.mktemp("install")
    root, record = work / "stage", work / "record.txt"
    proc = subprocess.run(
        [sys.executable, "-c", "import setuptools; setuptools.setup()",
         "egg_info", "--egg-base", str(work),
         "build", "--build-base", str(work / "build"),
         "install", "--single-version-externally-managed",
         "--root", str(root), "--record", str(record)],
        cwd=Path(__file__).resolve().parents[1], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    staged = [root / Path(line).relative_to(Path(line).anchor)
              for line in record.read_text(encoding="utf-8").splitlines()]
    script = next(p for p in staged if p.stem == "tensorcert")
    init = next(p for p in staged
                if p.name == "__init__.py" and p.parent.name == "tensorcert")
    return script.parent, init.parent.parent


def test_installed_entry_point(installed_tensorcert, monkeypatch):
    script_dir, import_dir = installed_tensorcert
    monkeypatch.setenv("PATH", os.pathsep.join(
        filter(None, [str(script_dir), os.environ.get("PATH")])))
    monkeypatch.setenv("PYTHONPATH", str(import_dir))
    assert Path(shutil.which("tensorcert")).parent == script_dir
    proc = subprocess.run(["tensorcert", "bounds", "--family", "segre",
                           "--n", "3", "--factors", "4", "--h", "4"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "h < 5" in proc.stdout


def test_module_entry_point():
    import tensorcert
    src = str(Path(tensorcert.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "tensorcert", "bounds", "--family",
                           "segre", "--n", "3", "--factors", "4", "--h", "4"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "h < 5" in proc.stdout
