import functools
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dist, random_tsc_dist
from wpir.core import (
    DirectRequest,
    PatternDistribution,
    QueryVector,
    SystemParams,
    TooLarge,
)
from wpir.leakage import (
    PROB_TOL,
    QueryLaw,
    class_leakage,
    enumerate_query_law,
    leakage_report,
    maximal_leakage,
    mutual_info_leakage,
    query_classes,
)
from wpir.scheme import WpirScheme


def test_uniform_law_by_enumeration(params_n3k2):
    scheme = WpirScheme(params_n3k2, PatternDistribution.uniform(params_n3k2))
    law = enumerate_query_law(scheme, 1)
    for column in zip(*law.rows.values()):
        cond = [p for p in column if p]
        assert len(cond) == 9
        assert all(abs(p - 1 / 9) < 1e-15 for p in cond)


def test_pure_direct_law(params_n3k2):
    scheme = WpirScheme(params_n3k2, PatternDistribution.pure_direct(params_n3k2))
    law = enumerate_query_law(scheme, 2)
    for k in range(1, 3):
        assert law.rows[DirectRequest(k)][k - 1] == pytest.approx(1 / 3, abs=1e-15)
        assert law.rows[QueryVector((0, 0))][k - 1] == pytest.approx(2 / 3, abs=1e-15)
        assert sum(1 for row in law.rows.values() if row[k - 1]) == 2


@pytest.mark.parametrize("N,K", [(2, 3), (3, 2), (3, 3)])
def test_law_matches_weight_closed_form(N, K):
    params = SystemParams(N, K)
    rng = np.random.default_rng(23)
    tsc = random_tsc_dist(params, rng)
    dist = PatternDistribution(0.3 / N, tuple(0.7 * p for p in tsc.p_weights))
    scheme = WpirScheme(params, dist)
    law = enumerate_query_law(scheme, 1)
    for q, row in law.rows.items():
        for k, p in enumerate(row, start=1):
            if not p:
                continue
            if isinstance(q, DirectRequest):
                assert p == pytest.approx(dist.p_direct, abs=1e-14)
                continue
            w = sum(1 for i, d in enumerate(q.digits, start=1) if d != 0 and i != k)
            expected = dist.p_weights[w]
            if q.is_zero():
                expected += (N - 1) * dist.p_direct
            assert p == pytest.approx(expected, abs=1e-14)


def test_enumeration_guard():
    params = SystemParams(10, 8)
    scheme = WpirScheme(params, PatternDistribution.uniform(params))
    with pytest.raises(TooLarge):
        enumerate_query_law(scheme, 1)


def test_maximal_leakage_uniform_is_zero(params_n3k2):
    scheme = WpirScheme(params_n3k2, PatternDistribution.uniform(params_n3k2))
    assert maximal_leakage(enumerate_query_law(scheme, 1)) == pytest.approx(0.0, abs=1e-12)


def test_maximal_leakage_pure_direct(params_n3k2):
    scheme = WpirScheme(params_n3k2, PatternDistribution.pure_direct(params_n3k2))
    leak = maximal_leakage(enumerate_query_law(scheme, 1))
    assert leak == pytest.approx(math.log2(4 / 3), abs=1e-12)


@pytest.mark.parametrize("N,K,p_direct", [(3, 2, 0.1), (3, 3, 0.2), (2, 3, 0.3)])
def test_maximal_leakage_optimized_closed_form(N, K, p_direct):
    params = SystemParams(N, K)
    p_w = (1 - N * p_direct) / N**K
    scheme = WpirScheme(params, PatternDistribution(p_direct, (p_w,) * K))
    leak = maximal_leakage(enumerate_query_law(scheme, 1))
    assert leak == pytest.approx(math.log2(1 + (K - 1) * p_direct), abs=1e-12)


def test_mutual_info_uniform_and_pure_direct(params_n3k2):
    scheme = WpirScheme(params_n3k2, PatternDistribution.uniform(params_n3k2))
    assert mutual_info_leakage(enumerate_query_law(scheme, 1)) == pytest.approx(
        0.0, abs=1e-12
    )
    pure = WpirScheme(params_n3k2, PatternDistribution.pure_direct(params_n3k2))
    assert mutual_info_leakage(enumerate_query_law(pure, 1)) == pytest.approx(
        1 / 3, abs=1e-12
    )


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("K", [2, 3, 4])
def test_analytic_mi_matches_enumeration(N, K):
    params = SystemParams(N, K)
    rng = np.random.default_rng(1000 * N + K)
    for _ in range(25):
        dist = random_tsc_dist(params, rng)
        scheme = WpirScheme(params, dist)
        exact = mutual_info_leakage(enumerate_query_law(scheme, 1))
        assert abs(exact - class_leakage(params, dist, "mi")) <= 1e-9


def test_tangent_point_regression(params_n3k2):
    # frozen values at the ratio 1/(sqrt(2)-1), computed once via both paths
    x1 = 1 / (math.sqrt(2) - 1)
    p0 = 1 / (3 + 6 / x1)
    p1 = p0 / x1
    assert p0 == pytest.approx(0.18230605355934235, abs=1e-12)
    assert p1 == pytest.approx(0.07551363988699547, abs=1e-12)
    dist = PatternDistribution(0.0, (p0, p1))
    scheme = WpirScheme(params_n3k2, dist)
    exact = mutual_info_leakage(enumerate_query_law(scheme, 1))
    closed = class_leakage(params_n3k2, dist, "mi")
    assert exact == pytest.approx(closed, abs=1e-9)
    assert closed == pytest.approx(0.06578045698190449, abs=1e-9)


def test_server_symmetry_and_report(params_n3k2):
    dist = PatternDistribution(0.05, ((1 - 0.15) / 9,) * 2)
    scheme = WpirScheme(params_n3k2, dist)
    for metric in ("maxl", "mi"):
        report = leakage_report(scheme, metric)
        assert report.value == max(report.per_server)
        assert max(report.per_server) - min(report.per_server) == 0.0
        assert report.metric == metric


def test_merging_queries_never_increases_leakage(params_n3k2):
    # data-processing sanity on random laws: collapsing two query values
    rng = np.random.default_rng(31)
    for _ in range(20):
        raw = rng.random((2, 4))
        conds = raw / raw.sum(axis=1, keepdims=True)
        queries = [QueryVector((d, 0)) for d in range(4)]

        def law_from(m):
            return QueryLaw({q: [float(p) for p in col] for q, col in zip(queries, m.T)})

        merged = np.column_stack([conds[:, 0] + conds[:, 1], conds[:, 2:]])
        for fn in (maximal_leakage, mutual_info_leakage):
            assert fn(law_from(merged)) <= fn(law_from(conds)) + 1e-12


def test_validate_sums_exactly():
    # 2^16 increments of a quarter ulp are each lost by a naive running sum
    # after the leading 1 - 2^-39, which then reads 1.8e-12 short of 1
    tiny = 2.0**-55
    values = [1.0 - 2**16 * tiny] + [tiny] * 2**16
    assert abs(functools.reduce(operator.add, values) - 1.0) > PROB_TOL
    QueryLaw({QueryVector((i // 256, i % 256)): [p, p] for i, p in enumerate(values)}).validate()


def test_zero_vector_row_is_the_exact_sum_of_its_keys():
    # the N - 1 direct keys aimed at other servers and one weight-0 key send
    # the zero vector; here every order of a running + rounds off fsum
    params = SystemParams(4, 2)
    dist = random_dist(params, np.random.default_rng(46))
    parts = [dist.p_direct] * 3 + [dist.p_weights[0]]
    exact = math.fsum(parts)
    assert all(
        functools.reduce(operator.add, order) != exact for order in itertools.permutations(parts)
    )
    scheme = WpirScheme(params, dist)
    for n in range(1, 5):
        assert enumerate_query_law(scheme, n).rows[QueryVector((0, 0))] == [exact, exact]


@pytest.mark.parametrize("N,K", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4)])
def test_every_server_has_the_same_rows(N, K):
    params = SystemParams(N, K)
    scheme = WpirScheme(params, random_dist(params, np.random.default_rng(10 * N + K)))
    first = enumerate_query_law(scheme, 1).rows
    for n in range(2, N + 1):
        assert enumerate_query_law(scheme, n).rows == first


def test_query_classes_cover_the_query_space():
    params = SystemParams(4, 3)
    classes = query_classes(params, random_dist(params, np.random.default_rng(5)))
    assert len(classes) == params.num_messages + 2
    assert sum(c[0] for c in classes[:-1]) == 4**3
    assert classes[-1][0] == params.num_messages
    # summed over queries, each of the K conditional laws has mass 1
    total = math.fsum(size * (hits * a + misses * b) for size, hits, a, misses, b in classes)
    assert total == pytest.approx(params.num_messages, abs=1e-12)


def _assert_engine_matches_oracle(params, dist, servers):
    scheme = WpirScheme(params, dist)
    engine = {m: class_leakage(params, dist, m) for m in ("maxl", "mi")}
    for n in servers:
        law = enumerate_query_law(scheme, n)
        assert abs(maximal_leakage(law) - engine["maxl"]) <= 1e-12
        assert abs(mutual_info_leakage(law) - engine["mi"]) <= 1e-12
    return engine


@pytest.mark.parametrize(
    "N,K", [(N, K) for K in range(2, 7) for N in range(2, 11) if N**K <= 100]
)
def test_engine_matches_oracle_at_every_server(N, K):
    params = SystemParams(N, K)
    rng = np.random.default_rng(100 * N + K)
    for _ in range(3):
        dist = random_dist(params, rng)
        engine = _assert_engine_matches_oracle(params, dist, range(1, N + 1))
        for metric, value in engine.items():
            report = leakage_report(WpirScheme(params, dist), metric)
            assert len(report.per_server) == N
            assert max(abs(v - value) for v in report.per_server) <= 1e-12


#: Every (N, K) with 2 <= N, K and N^K <= 5 * 10^4.
GRID = [(N, K) for N in range(2, 224) for K in range(2, 16) if N**K <= 5 * 10**4]


@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_engine_matches_oracle_on_grid(data):
    # the oracle costs K * N^K queries per server, so each draw checks one
    # server, and leakage_report, which walks all N, is checked above
    N, K = data.draw(st.sampled_from(GRID), label="N, K")
    n = data.draw(st.integers(1, N), label="server")
    params = SystemParams(N, K)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    _assert_engine_matches_oracle(params, random_dist(params, rng), [n])


def _reference_class_leakage(params, dist, metric):
    # the class rows with their sizes C(K, w)(N-1)^w recomputed per call
    N, K = params.num_servers, params.num_messages
    p = list(dist.p_weights) + [0.0]
    classes = [(1, 0, 0.0, K, p[0] + (N - 1) * dist.p_direct)]
    classes += [
        (math.comb(K, w) * (N - 1) ** w, w, p[w - 1], K - w, p[w]) for w in range(1, K + 1)
    ]
    classes.append((K, 1, dist.p_direct, K - 1, 0.0))
    if metric == "maxl":
        return math.log2(math.fsum(size * max(hit, miss) for size, _, hit, _, miss in classes))

    def xlog(v):
        return v * math.log2(v) if v > 0.0 else 0.0

    total = 0.0
    for size, hits, hit, misses, miss in classes:
        mass = hits * hit + misses * miss
        term = hits * xlog(hit) + misses * xlog(miss)
        if mass > 0.0:
            term -= mass * math.log2(mass / K)
        total += size * term
    return total / K


def test_class_leakage_matches_reference_exactly():
    rng = np.random.default_rng(11)
    for N in range(2, 21):
        for K in range(2, 21):
            params = SystemParams(N, K)
            for dist in (random_dist(params, rng), random_tsc_dist(params, rng)):
                for metric in ("maxl", "mi"):
                    assert class_leakage(params, dist, metric) == _reference_class_leakage(
                        params, dist, metric
                    )
