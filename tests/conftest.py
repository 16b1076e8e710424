from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from longhop import codes, topology

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

DATA = Path(__file__).parent / "data"

HAMMING_ROWS = ("1101000", "0110100", "1110010", "1010001")


@pytest.fixture(scope="session")
def hamming():
    return codes.GeneratorMatrix(
        k=4, n=7, rows=tuple(codes.vector_from_text(r) for r in HAMMING_ROWS)
    )


@pytest.fixture(scope="session")
def folded3():
    return topology.build(3, [1, 2, 4, 7])


@pytest.fixture(scope="session")
def cube3():
    return topology.build(3, [1, 2, 4])


def parity(x):
    """XOR of all bits of x: 1 iff an odd number of bits are set."""
    return x.bit_count() & 1


def weight(x):
    """Hamming weight (number of set bits)."""
    return x.bit_count()


def walsh(r, x):
    """Binary Walsh function: parity(r AND x), the side of node x in the
    Walsh partition r."""
    return parity(r & x)


def hypercube(d):
    return topology.build(d, [1 << i for i in range(d)])


def folded_cube(d):
    return topology.build(d, [1 << i for i in range(d)] + [(1 << d) - 1])


def random_full_rank_generator(rng, k, n):
    """Rejection-sample a full-rank k x n generator matrix."""
    while True:
        rows = tuple(rng.getrandbits(n) for _ in range(k))
        try:
            return codes.GeneratorMatrix(k=k, n=n, rows=rows)
        except ValueError:
            continue


def random_invertible(rng, k):
    """Random invertible k x k GF(2) matrix, as row bitsets."""
    from longhop import gf2

    while True:
        rows = [rng.getrandbits(k) for _ in range(k)]
        if gf2.rank(rows) == k:
            return rows


def random_topology(rng, d, m):
    """Random spanning hop set: the basis plus m - d distinct extras."""
    basis = [1 << i for i in range(d)]
    pool = [w for w in range(1, 1 << d) if w not in basis]
    extras = rng.sample(pool, m - d)
    return topology.build(d, basis + extras)
