"""Seedable generation of random rank-h tensors and their decompositions.

The generator is Python's Mersenne Twister (`random.Random`), seeded with a
64-bit integer; coefficients are integers drawn uniformly from
``[-bound, bound]``.  Identical (seed, space, h, bound, field) re-create
the same output bit for bit.  A form that is zero in the field, or a term
proportional to an earlier one, is redrawn; over QQ and large primes this
almost never happens, but over a small prime field it is common.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .certify import Decomposition, _terms_proportional
from .fields import QQ
from .poly import TensorSpace


@dataclass(frozen=True)
class RandomConfig:
    seed: int = 0
    bound: int = 1 << 15
    field: object = QQ

    def __post_init__(self):
        if self.bound < 2:
            raise ValueError("coefficient bound must be >= 2")


#: draws of one term before giving up: only a small bound or prime exhausts
#: the terms not proportional to the earlier ones
_MAX_DRAWS = 1000


def _draw_form(rng: random.Random, size: int, bound: int, field):
    while True:
        coeffs = tuple(rng.randint(-bound, bound) for _ in range(size))
        if not all(field.is_zero(c) for c in coeffs):
            return coeffs


def random_tensor(space: TensorSpace, h: int, cfg: RandomConfig = RandomConfig()):
    """A random tensor of rank at most h together with its witness decomposition."""
    if h < 1:
        raise ValueError("h must be >= 1")
    rng = random.Random(cfg.seed)
    terms = []
    while len(terms) < h:
        for _ in range(_MAX_DRAWS):
            term = tuple(_draw_form(rng, size, cfg.bound, cfg.field) for size in space.sizes)
            if not any(_terms_proportional(cfg.field, term, t) for t in terms):
                break
        else:
            raise ValueError(f"{_MAX_DRAWS} draws in a row were proportional to an "
                             "earlier term; use a larger bound or prime")
        terms.append(term)
    dec = Decomposition(space, terms, field=cfg.field)
    return dec.expand(), dec
