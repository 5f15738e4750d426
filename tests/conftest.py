import math

import numpy as np
import pytest

from wpir.core import PatternDistribution, SystemParams


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


@pytest.fixture
def params_n3k2():
    return SystemParams(3, 2)
