import random
import signal

import pytest

from tensorcert import MPoly, TensorSpace, monomial_basis


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past 120 s, where SIGALRM exists.  The slowest
    test takes about 11 s; a reduction that no longer terminates, such as a
    basis that is not kept monic, is otherwise bounded only by the S-pair
    budget."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail("test ran past its 120 s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def ternary_quadric_space():
    return TensorSpace((3,), (2,))


def random_form(space, degree, rng, bound=30):
    """Dense random form of the given multidegree with integer coefficients."""
    if isinstance(degree, int):
        degree = (degree,)
    basis = monomial_basis(space, degree)
    terms = {}
    while not terms:
        terms = {m: rng.randint(-bound, bound) for m in basis}
        terms = {m: c for m, c in terms.items() if c}
    return MPoly(space, terms)


def seeded(seed):
    return random.Random(seed)
