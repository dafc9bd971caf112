"""The benchmark's workloads: instance lists with their known verdicts.

Every instance is generated from the workload seed and rendered to the text
document a user would pass to ``tensorcert certify --input``; the program
under test only ever sees those documents.  Seed 1 reproduces the paper's
session instances exactly as the acceptance tests build them.

Each instance carries the answer it must produce.  Generic random rank-h
tensors in these spaces are h-identifiable, so positive instances are
Certified for every seed; each workload also carries one negative control,
a tensor that is not h-identifiable (or lies outside every criterion) and
must never be Certified.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Prime of the modular workload's documents (the program's DEFAULT_PRIME).
MODULAR_PRIME = 1073741789

#: Coefficient bound of every generated linear form (the CLI default).
BOUND = 1 << 15


@dataclass(frozen=True)
class Instance:
    """One certificate request and the answer it must give.

    ``length`` is the section length h a positive Prop31/Prop33 certificate
    must report.  ``failed_check`` is the (check name, computed value) pair
    a negative control must fail on; it is None for a control that no
    criterion covers, whose reason must be "out of criteria range".
    """

    name: str
    document: str
    h: int | None
    criterion: str | None
    verdict: str
    length: int | None = None
    control: bool = False
    failed_check: tuple | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object            # (tensorcert, tensorcert.cli, seed) -> [Instance]


def _space(tc, sizes, degrees):
    return tc.TensorSpace(tuple(sizes), tuple(degrees))


def _tensor(tc, sizes, degrees, h, seed, field=None):
    cfg = tc.RandomConfig(seed=seed, bound=BOUND, field=field or tc.QQ)
    return tc.random_tensor(_space(tc, sizes, degrees), h, cfg)


def _random_form(tc, space, degree, rng, bound):
    """Dense random form, drawn exactly as the acceptance tests' helper."""
    basis = tc.monomial_basis(space, (degree,))
    terms = {}
    while not terms:
        terms = {m: rng.randint(-bound, bound) for m in basis}
        terms = {m: c for m, c in terms.items() if c}
    return tc.MPoly(space, terms)


def _tensor_doc(cli, T, seed):
    return cli.render_tensor_document(T, seed=seed)


def _positive_tensor(tc, cli, name, sizes, degrees, h, seed, criterion,
                     field=None):
    T, _ = _tensor(tc, sizes, degrees, h, seed, field)
    length = h if criterion == "Prop31" else None
    return Instance(name, _tensor_doc(cli, T, seed), h, criterion, "Certified",
                    length)


def _paper(tc, cli, seed):
    s35 = _space(tc, (3,), (5,))
    T7, dec7 = tc.random_tensor(s35, 7, tc.RandomConfig(seed=seed))
    T6 = tc.Decomposition(s35, dec7.terms[:6]).expand()
    T1c, _ = _tensor(tc, (2, 5, 4), (3, 2, 3), 5, seed)
    _, dec1d = _tensor(tc, (4,), (4,), 7, seed)
    _, dec1e = _tensor(tc, (3,), (6,), 8, seed)
    T1f, _ = _tensor(tc, (4,), (3,), 5, seed)
    F1g = _random_form(tc, _space(tc, (2,), (69,)), 69, random.Random(seed), BOUND)
    Tneg, _ = _tensor(tc, (3,), (4,), 5, seed)
    dec_doc = cli.render_decomposition_document
    return [
        Instance("1a (3,)/(5,) h=7", _tensor_doc(cli, T7, seed), 7, "Thm37",
                 "Certified"),
        Instance("1b (3,)/(5,) h=6", _tensor_doc(cli, T6, seed), 6, "Prop31",
                 "Certified", 6),
        Instance("1c (2,5,4)/(3,2,3) h=5", _tensor_doc(cli, T1c, seed), 5,
                 "Prop31", "Certified", 5),
        Instance("1d (4,)/(4,) dec h=7", dec_doc(dec1d, seed=seed), None,
                 "Prop33", "Certified", 7),
        Instance("1e (3,)/(6,) dec h=8", dec_doc(dec1e, seed=seed), None,
                 "Prop33", "Certified", 8),
        Instance("1f (4,)/(3,) h=5", _tensor_doc(cli, T1f, seed), 5, "Thm37",
                 "Certified"),
        Instance("1g (2,)/(69,) h=35", _tensor_doc(cli, F1g, seed), 35, "Thm37",
                 "Certified"),
        Instance("neg (3,)/(4,) h=5", _tensor_doc(cli, Tneg, seed), 5, None,
                 "Inconclusive", control=True),
    ]


def _swell(tc, cli, seed):
    out = [_positive_tensor(tc, cli, f"(2,)/({d},) h={(d + 1) // 2}", (2,), (d,),
                            (d + 1) // 2, seed, "Thm37")
           for d in (31, 35, 37)]
    T, _ = _tensor(tc, (2,), (31,), 14, seed)
    out.append(Instance("neg (2,)/(31,) rank 14 at h=16", _tensor_doc(cli, T, seed),
                        16, "Thm37", "Inconclusive", control=True,
                        failed_check=("a_derivative_span_rank", 14)))
    return out


def _groebner(tc, cli, seed):
    plan = [((6,), (4,), 13, seed), ((6,), (4,), 13, seed + 1),
            ((7,), (4,), 12, seed), ((7,), (3,), 7, seed),
            ((3, 3), (4, 4), 12, seed)]
    out = [_positive_tensor(tc, cli, f"{sizes}/{degrees} h={h} seed={s}",
                            sizes, degrees, h, s, "Prop31")
           for sizes, degrees, h, s in plan]
    T, _ = _tensor(tc, (4,), (6,), 11, seed)
    out.append(Instance("neg (4,)/(6,) rank 11 at h=10", _tensor_doc(cli, T, seed),
                        10, "Prop31", "Inconclusive", control=True,
                        failed_check=("ii_section_dimension", "Empty")))
    return out


def _modular(tc, cli, seed):
    fp = tc.PrimeField(MODULAR_PRIME)
    plan = [((4,), (8,), 30, "Prop31"), ((5,), (6,), 30, "Prop31"),
            ((2,), (69,), 35, "Thm37"), ((6,), (4,), 15, "Prop31"),
            ((2, 5, 4), (3, 2, 3), 5, "Prop31")]
    out = [_positive_tensor(tc, cli, f"fp {sizes}/{degrees} h={h}", sizes, degrees,
                            h, seed, criterion, fp)
           for sizes, degrees, h, criterion in plan]
    T, _ = _tensor(tc, (5,), (5,), 16, seed, fp)
    out.append(Instance("neg fp (5,)/(5,) rank 16 at h=15", _tensor_doc(cli, T, seed),
                        15, "Prop31", "Inconclusive", control=True,
                        failed_check=("ii_section_dimension", "Empty")))
    return out


WORKLOADS = {w.name: w for w in (
    Workload("paper", "the paper's session instances 1a-1g plus the defective "
             "ternary quartic: all three criteria, Prop33 documents, the "
             "multigraded classifier and a 1200-term document parse", _paper),
    Workload("swell", "binary forms of degree 31-37 whose exact catalecticant "
             "echelon form dominates; the Groebner layer never runs", _swell),
    Workload("groebner", "Prop31 instances where Buchberger over QQ dominates, "
             "with a control only the Groebner/Hilbert layers can reject",
             _groebner),
    Workload("modular", "the stress instances at full size over F_p, so the "
             "prime-field branches of every layer are measured", _modular),
)}
