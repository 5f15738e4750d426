import functools
import math
from typing import Iterator

import numpy as np
import pytest

from wpir.core import (
    DirectRequest,
    PatternDistribution,
    Query,
    QueryVector,
    SystemParams,
    digit_vectors,
)
from wpir.leakage import QueryClass


def random_tsc_dist(params: SystemParams, rng: np.random.Generator) -> PatternDistribution:
    """Random normalized distribution with no direct-download mass."""
    N, K = params.num_servers, params.num_messages
    raw = rng.random(K) + 1e-3
    mass = N * sum(math.comb(K - 1, w) * (N - 1) ** w * raw[w] for w in range(K))
    return PatternDistribution(0.0, tuple(float(r / mass) for r in raw))


def random_dist(params: SystemParams, rng: np.random.Generator) -> PatternDistribution:
    """Random normalized distribution with random direct-download mass."""
    N, K = params.num_servers, params.num_messages
    share = rng.random()  # total direct mass N * p_direct
    raw = rng.random(K) + 1e-3
    mass = N * sum(math.comb(K - 1, w) * (N - 1) ** w * raw[w] for w in range(K))
    return PatternDistribution(share / N, tuple(float(r * (1 - share) / mass) for r in raw))


def query_code(params: SystemParams, q: Query) -> int:
    """The row of q in `QueryLaw.rows`: a digit vector read as a base-N
    number, first digit most significant, and #k at N^K + k - 1. One query
    at a time, it is the reference for the array codes of the oracle
    (`tsc.tsc_query_codes`) and of the simulator (`sim.block_query_codes`)."""
    N, K = params.num_servers, params.num_messages
    if isinstance(q, DirectRequest):
        return N**K + q.message - 1
    return functools.reduce(lambda code, d: code * N + d, q.digits, 0)


def query_class(classes: list[QueryClass], q: Query) -> QueryClass:
    """q's entry of the table `leakage.query_classes` gives: its weight's
    for a vector, the direct class's for #k."""
    if isinstance(q, DirectRequest):
        return classes[-1]
    return classes[len(q.digits) - q.digits.count(0)]


def class_row(classes: list[QueryClass], q: Query) -> list[float]:
    """The row of q in the law, read off the table of classes: a weight-w
    vector gets class w's hit at its nonzero digits and its miss elsewhere
    (so the zero vector gets the exact sum of its keys), and #k gets
    p_direct at k only. The tests compare it with the oracle's row."""
    _, _, hit, _, miss = query_class(classes, q)
    if isinstance(q, DirectRequest):
        return [hit if k == q.message else miss for k in range(1, len(classes) - 1)]
    return [hit if d else miss for d in q.digits]


def query_space(params: SystemParams) -> Iterator[Query]:
    """Every query a server can receive, in code order."""
    yield from map(QueryVector, digit_vectors(params))
    yield from map(DirectRequest, range(1, params.num_messages + 1))


@pytest.fixture
def params_n3k2():
    return SystemParams(3, 2)
