import json

import numpy as np
import pytest

from conftest import random_tsc_dist
from wpir.core import (
    DirectKey,
    DirectRequest,
    MessageStore,
    PatternDistribution,
    QueryVector,
    SystemParams,
    TscKey,
    WpirScheme,
    download_cost,
    enumerate_keys,
)
from wpir.scheme import download_cost_by_enumeration, wpir_answer, wpir_decode, wpir_query
from wpir.tsc import MalformedAnswers, tsc_answer, tsc_decode, tsc_query


@pytest.fixture
def scheme_n3k2(params_n3k2):
    dist = PatternDistribution(0.1, ((1 - 0.3) / 9,) * 2)
    return WpirScheme(params_n3k2, dist)


def test_query_routing(params_n3k2):
    assert wpir_query(params_n3k2, 1, DirectKey(2), 2) == DirectRequest(1)
    assert wpir_query(params_n3k2, 1, DirectKey(2), 3) == QueryVector((0, 0))
    key = TscKey((1,), 0)
    assert wpir_query(params_n3k2, 1, key, 1) == tsc_query(params_n3k2, 1, key, 1)


def test_answer_routing(params_n3k2):
    store = MessageStore(params_n3k2, ((10, 20), (30, 40)))
    assert wpir_answer(DirectRequest(1), store) == (10, 20)
    assert wpir_answer(QueryVector((0, 0)), store) == ()
    assert wpir_answer(QueryVector((1, 2)), store) == (10 ^ 40,)


def test_decode_direct_key(params_n3k2):
    answers = [(), (), (30, 40)]
    assert wpir_decode(params_n3k2, 2, DirectKey(3), answers) == (30, 40)
    with pytest.raises(MalformedAnswers):
        wpir_decode(params_n3k2, 2, DirectKey(3), [(1,), (), (30, 40)])


@pytest.mark.parametrize("N,K", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_decode_exhaustive_all_keys(N, K):
    params = SystemParams(N, K)
    store = MessageStore.random(params, 99)
    for key in enumerate_keys(params):
        for k in range(1, K + 1):
            queries = [wpir_query(params, k, key, n) for n in range(1, N + 1)]
            answers = [wpir_answer(q, store) for q in queries]
            assert wpir_decode(params, k, key, answers) == store.message(k)


def test_download_cost_endpoints(params_n3k2):
    pure = WpirScheme(params_n3k2, PatternDistribution.pure_direct(params_n3k2))
    assert download_cost(pure) == pytest.approx(1.0, abs=1e-12)
    uniform = WpirScheme(params_n3k2, PatternDistribution.uniform(params_n3k2))
    assert download_cost(uniform) == pytest.approx(4 / 3, abs=1e-12)


@pytest.mark.parametrize("N,K", [(2, 2), (3, 2), (3, 3), (2, 4)])
def test_download_cost_matches_enumeration(N, K):
    params = SystemParams(N, K)
    rng = np.random.default_rng(17)
    tsc_only = random_tsc_dist(params, rng)
    mixed = PatternDistribution(
        0.4 / N, tuple(0.6 * p for p in tsc_only.p_weights)
    )
    for dist in (tsc_only, mixed):
        scheme = WpirScheme(params, dist)
        costs = [download_cost_by_enumeration(scheme, k) for k in range(1, K + 1)]
        # worst-case over k equals the average: identical for every k
        assert max(costs) == min(costs)
        assert costs[0] == pytest.approx(download_cost(scheme), abs=1e-12)


def test_no_direct_mass_reduces_to_base_code(params_n3k2):
    # a vector key's retrieval is the base code's
    store = MessageStore.random(params_n3k2, 3)
    key = TscKey((2,), 1)
    for k in (1, 2):
        for n in (1, 2, 3):
            q = wpir_query(params_n3k2, k, key, n)
            assert q == tsc_query(params_n3k2, k, key, n)
            assert wpir_answer(q, store) == tsc_answer(q, store)
        answers = [
            wpir_answer(wpir_query(params_n3k2, k, key, n), store) for n in (1, 2, 3)
        ]
        assert wpir_decode(params_n3k2, k, key, answers) == tsc_decode(
            params_n3k2, k, key, answers
        )


def test_scheme_json_round_trip(scheme_n3k2):
    again = WpirScheme.from_json(json.loads(json.dumps(scheme_n3k2.to_json())))
    assert again == scheme_n3k2
    with pytest.raises(ValueError):
        WpirScheme.from_json(
            {"N": 3, "K": 2, "dist": {"p_direct": 0.5, "p_weights": [0.1, 0.1]}}
        )
