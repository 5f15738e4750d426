import json

import pytest

from wpir.core import (
    DirectKey,
    DirectRequest,
    MessageStore,
    PatternDistribution,
    QueryVector,
    SystemParams,
    TscKey,
    WpirScheme,
    answer_length,
    enumerate_keys,
    key_probability,
    key_weight,
    vector_key_probabilities,
    weight_class_counts,
)
from wpir.tsc import tsc_answer


def test_params_invariants():
    p = SystemParams(3, 2)
    assert p.message_length == 2
    with pytest.raises(ValueError):
        SystemParams(1, 2)
    with pytest.raises(ValueError):
        SystemParams(3, 1)


@pytest.mark.parametrize("N,K", [(2, 1023), (10, 308), (4, 511), (20, 236)])
def test_params_with_float_n_to_the_k(N, K):
    assert float(N**K) > 0
    SystemParams(N, K)


@pytest.mark.parametrize("N,K", [(2, 1024), (10, 309), (4, 512), (400, 130), (2, 10**9)])
def test_params_beyond_float_range(N, K):
    with pytest.raises(ValueError, match=f"N\\^K = {N}\\^{K} is beyond float range"):
        SystemParams(N, K)


def test_message_store_dummy_symbol():
    # digit i addresses symbol i of its message; digit 0 the dummy, which reads 0
    p = SystemParams(3, 2)
    store = MessageStore(p, ((5, 7), (9, 11)))
    assert tsc_answer(QueryVector((0, 1)), store) == (9,)
    assert tsc_answer(QueryVector((2, 0)), store) == (7,)
    assert tsc_answer(QueryVector((2, 1)), store) == (7 ^ 9,)
    assert tsc_answer(QueryVector((0, 0)), store) == ()
    with pytest.raises(ValueError):
        MessageStore(p, ((5,), (9, 11)))


@pytest.mark.parametrize(
    "value",
    [
        DirectKey(1),
        TscKey((1, 0), 2),
        DirectRequest(1),
        QueryVector((0, 1)),
        PatternDistribution(0.0, (0.5, 0.0)),
    ],
    ids=lambda v: type(v).__name__,
)
def test_per_key_value_types_are_slotted(value):
    # the oracle and the trial loop make one of these per key and message
    assert not hasattr(value, "__dict__")


def test_key_weight():
    assert key_weight(TscKey((0,), 2)) == 0
    assert key_weight(TscKey((0, 0, 0), 1)) == 0
    assert key_weight(TscKey((2, 0, 1), 0)) == 2


def test_key_probability_lookup():
    p = SystemParams(3, 2)
    dist = PatternDistribution(0.1, ((1 - 0.3) / 9, (1 - 0.3) / 9))
    dist.validate(p)
    assert key_probability(dist, DirectKey(2)) == 0.1
    uniform = PatternDistribution(0.0, (1 / 9, 1 / 9))
    assert key_probability(uniform, TscKey((1,), 0)) == pytest.approx(1 / 9)


@pytest.mark.parametrize("N,K", [(2, 2), (3, 2), (3, 3), (2, 4)])
def test_key_enumeration_count_and_total_mass(N, K):
    p = SystemParams(N, K)
    keys = list(enumerate_keys(p))
    assert len(keys) == N**K + N
    assert len(set(keys)) == len(keys)
    dist = PatternDistribution.uniform(p)
    total = sum(key_probability(dist, key) for key in keys)
    assert abs(total - 1.0) <= 1e-12


@pytest.mark.parametrize("N,K", [(2, 2), (3, 2), (2, 5), (4, 3), (5, 4)])
def test_vector_key_probabilities_follow_the_key_order(N, K):
    params = SystemParams(N, K)
    # distinct weights, one of them empty
    weights = [float(w + 1) for w in range(K)]
    weights[-1] = 0.0
    scale = N * sum(c * p for c, p in zip(weight_class_counts(N, K), weights))
    dist = PatternDistribution(0.0, tuple(p / scale for p in weights))
    probs = vector_key_probabilities(params, dist)
    keys = list(enumerate_keys(params))[N:]
    assert len(probs) == len(keys)
    # the distribution's own floats, as key_probability returns them
    assert probs.tolist() == [key_probability(dist, key) for key in keys]


def test_normalization_validation():
    p = SystemParams(3, 2)
    with pytest.raises(ValueError):
        PatternDistribution(0.2, (0.2, 0.2)).validate(p)
    with pytest.raises(ValueError):
        PatternDistribution(-0.1, (0.0, 0.0))


def test_answer_length_pure_function_of_query():
    p = SystemParams(3, 2)
    assert answer_length(p, QueryVector((0, 0))) == 0
    assert answer_length(p, QueryVector((0, 2))) == 1
    assert answer_length(p, DirectRequest(1)) == p.message_length


def test_json_round_trip():
    p = SystemParams(3, 2)
    dist = PatternDistribution.uniform(p)
    obj = json.loads(json.dumps(dist.to_json()))
    assert PatternDistribution.from_json(obj) == dist
    scheme = {"N": 3, "K": 2, "dist": obj}
    assert WpirScheme.from_json(scheme) == WpirScheme(p, dist)
    obj["p_direct"] = 0.5
    with pytest.raises(ValueError, match="invalid field 'dist': distribution not normalized"):
        WpirScheme.from_json(scheme)
