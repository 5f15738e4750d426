import collections
import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from conftest import class_row, query_code, query_space, random_dist, random_tsc_dist
from wpir import leakage
from wpir.core import (
    PROB_TOL,
    DirectRequest,
    PatternDistribution,
    QueryVector,
    SystemParams,
    TooLarge,
    WpirScheme,
    enumerate_keys,
    key_probability,
    weight_class_counts,
)
from wpir.leakage import (
    QueryLaw,
    class_leakage,
    enumerate_query_law,
    leakage_report,
    maximal_leakage,
    mutual_info_leakage,
    query_classes,
)
from wpir.optimize import maxl_leakage_cap, solve_maxl
from wpir.scheme import wpir_query


def test_uniform_law_by_enumeration(params_n3k2):
    scheme = WpirScheme(params_n3k2, PatternDistribution.uniform(params_n3k2))
    law = enumerate_query_law(scheme, 1)
    for column in law.rows.T:
        cond = [p for p in column if p]
        assert len(cond) == 9
        assert all(abs(p - 1 / 9) < 1e-15 for p in cond)


def test_pure_direct_law(params_n3k2):
    scheme = WpirScheme(params_n3k2, PatternDistribution.pure_direct(params_n3k2))
    law = enumerate_query_law(scheme, 2)
    zero = query_code(params_n3k2, QueryVector((0, 0)))
    for k in range(1, 3):
        direct = query_code(params_n3k2, DirectRequest(k))
        assert law.rows[direct][k - 1] == pytest.approx(1 / 3, abs=1e-15)
        assert law.rows[zero][k - 1] == pytest.approx(2 / 3, abs=1e-15)
        assert sum(1 for row in law.rows if row[k - 1]) == 2


@pytest.mark.parametrize("N,K", [(2, 3), (3, 2), (3, 3)])
def test_law_matches_weight_closed_form(N, K):
    params = SystemParams(N, K)
    rng = np.random.default_rng(23)
    tsc = random_tsc_dist(params, rng)
    dist = PatternDistribution(0.3 / N, tuple(0.7 * p for p in tsc.p_weights))
    scheme = WpirScheme(params, dist)
    law = enumerate_query_law(scheme, 1)
    for q in query_space(params):
        for k, p in enumerate(law.rows[query_code(params, q)].tolist(), start=1):
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


def test_mi_oracle_where_a_row_marginal_underflows():
    # a weight-2 vector is sent only by keys of probability 5e-324, under one
    # message, so its row sums to 5e-324 and its marginal 5e-324 / 3 rounds
    # to 0
    params = SystemParams(3, 3)
    dist = PatternDistribution(0.0, (1 / 3, 0.0, 5e-324))
    scheme = WpirScheme(params, dist)
    engine = class_leakage(params, dist, "mi")
    for n in range(1, 4):
        assert abs(mutual_info_leakage(enumerate_query_law(scheme, n)) - engine) <= 1e-12


def test_metrics_sum_a_memoryview_to_the_bits_of_its_list(monkeypatch):
    # each metric passes fsum a view of its float64 terms, not a list or
    # numpy scalars, and gets the bits fsum gives the same floats as a list
    seen = []

    def spy(values):
        seen.append(values)
        return math.fsum(values)

    monkeypatch.setattr(leakage, "fsum", spy)
    rng = np.random.default_rng(21)
    laws = [
        # a weight-2 vector's row sums to 5e-324
        enumerate_query_law(
            WpirScheme(SystemParams(3, 3), PatternDistribution(0.0, (1 / 3, 0.0, 5e-324))), 2
        )
    ]
    for N in (2, 3, 4):
        for K in (2, 3, 4):
            params = SystemParams(N, K)
            laws.append(enumerate_query_law(WpirScheme(params, random_dist(params, rng)), N))
    assert 5e-324 in laws[0].rows.sum(axis=1)
    for law in laws:
        for metric, outer in ((maximal_leakage, math.log2), (mutual_info_leakage, float)):
            seen.clear()
            value = metric(law)
            (terms,) = seen
            assert isinstance(terms, memoryview) and terms.format == "d"
            assert value == outer(math.fsum(np.asarray(terms).tolist()))


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
        merged = np.column_stack([conds[:, 0] + conds[:, 1], conds[:, 2:]])
        # one row per query value
        for fn in (maximal_leakage, mutual_info_leakage):
            assert fn(QueryLaw(merged.T)) <= fn(QueryLaw(conds.T)) + 1e-12


def test_validate_sums_exactly():
    # 2^16 increments of a quarter ulp are each lost by a naive running sum
    # after the leading 1 - 2^-39, which then reads 1.8e-12 short of 1
    tiny = 2.0**-55
    values = [1.0 - 2**16 * tiny] + [tiny] * 2**16
    assert abs(functools.reduce(operator.add, values) - 1.0) > PROB_TOL
    QueryLaw(np.array([[p, p] for p in values])).validate()


def _full_column_check(rows):
    """What `QueryLaw.validate` decides, by `fsum` over every whole column:
    the message it raises, or None when every column passes."""
    for k, column in enumerate(rows.T, start=1):
        total = math.fsum(column.tolist())
        if abs(total - 1.0) > PROB_TOL:
            return f"conditional law for message {k} sums to {total!r}"
    return None


def _validate_message(rows):
    try:
        QueryLaw(rows).validate()
    except ValueError as exc:
        return str(exc)
    return None


#: per side of 1, the grid of totals near PROB_TOL and the last multiple of
#: it that passes: 1 + 4503 * 2^-52 passes, and so does 1 - 9007 * 2^-53
EDGES = {1: (2**-52, 4503), -1: (2**-53, 9007)}


@st.composite
def near_tolerance_columns(draw):
    """A nonnegative column whose exact total is a few ulps, or up to a few
    hundred, from 1 ± PROB_TOL: random parts of it on a grid of 2^-53, and
    copies of a tiny power of two that a running sum drops after a large
    partial sum, shuffled together."""
    side = draw(st.sampled_from(sorted(EDGES)))
    ulp, last_pass = EDGES[side]
    offset = draw(st.one_of(st.integers(-4, 4), st.integers(-300, 300)))
    target = 1 + side * (last_pass + offset) * Fraction(ulp)
    tiny = Fraction(1, 2 ** draw(st.integers(54, 80)))
    count = draw(st.integers(0, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    units = round((target - count * tiny) * 2**53)
    cuts = np.sort(rng.integers(0, units + 1, draw(st.integers(0, 400))))
    parts = np.diff(cuts, prepend=0, append=units) * 2.0**-53
    values = np.concatenate([parts, np.full(count, float(tiny))])
    rng.shuffle(values)
    return values


@settings(max_examples=200, deadline=None, derandomize=True)
@given(columns=st.lists(near_tolerance_columns(), min_size=1, max_size=3))
def test_validate_decides_as_the_full_column_fsum(columns):
    rows = np.zeros((max(map(len, columns)), len(columns)))
    for k, column in enumerate(columns):
        rows[: len(column), k] = column
    assert _validate_message(rows) == _full_column_check(rows)


def _full_column_sums(monkeypatch, rows):
    """How many whole columns of `rows` `QueryLaw.validate` passes to fsum."""
    calls = []

    def counting_fsum(values):
        calls.append(len(values))
        return math.fsum(values)

    monkeypatch.setattr(leakage, "fsum", counting_fsum)
    _validate_message(rows)
    monkeypatch.undo()
    return calls.count(len(rows))


@pytest.mark.parametrize("last_pass", [0, 1])
def test_validate_falls_back_to_the_full_column(monkeypatch, last_pass):
    # 128 quarter-ulp increments after a leading 1 - (9039 + 1 - last_pass)
    # 2^-53: the exact total, 1 - 9007 * 2^-53 or one ulp below it, is the
    # last that passes or the first that fails, and a block sum that drops
    # the first block's 127 increments reads 31.75 ulps short of it
    tiny = 2.0**-55
    values = [1.0 - (9040 - last_pass) * 2.0**-53] + [tiny] * 128
    assert math.fsum(values) == 1.0 - (9008 - last_pass) * 2.0**-53
    assert functools.reduce(operator.add, values[:128]) == values[0]
    rows = np.array([[p, p] for p in values])
    assert _full_column_sums(monkeypatch, rows) == (2 if last_pass else 1)
    assert _validate_message(rows) == _full_column_check(rows)
    assert (_validate_message(rows) is None) == bool(last_pass)


def test_validate_sums_blocks_where_they_decide(monkeypatch):
    # an oracle law sums to 1 to within a few ulps, far inside PROB_TOL, so
    # no whole column is summed; a negative entry voids the block bound
    params = SystemParams(4, 3)
    law = enumerate_query_law(WpirScheme(params, solve_maxl(params, 0.3)), 2)
    assert _full_column_sums(monkeypatch, law.rows) == 0
    rows = law.rows.copy()
    rows[:2, 0] += [0.5, -0.5]
    assert _full_column_sums(monkeypatch, rows) == 3
    assert _validate_message(rows) is None


def test_maximal_leakage_keeps_its_bits():
    # the row maxima a column at a time, summed as max(axis=1)'s were
    def reference(rows):
        return math.log2(math.fsum(rows.max(axis=1).tolist()))

    rng = np.random.default_rng(20)
    for _ in range(100):
        shape = (int(rng.integers(1, 400)), int(rng.integers(1, 8)))
        rows = rng.random(shape) * (rng.random(shape) < 0.6) * 2.0 ** rng.integers(-60, 1, shape)
        rows[rng.random(shape[0]) < 0.2] = 1 / 3  # rows of ties
        assert maximal_leakage(QueryLaw(rows)) == reference(rows)
    # leakage-wide's schemes: half the maxL cap, and random with and without
    # direct mass
    params = SystemParams(5, 6)
    for dist in (
        solve_maxl(params, maxl_leakage_cap(params) / 2),
        random_tsc_dist(params, rng),
        random_dist(params, rng),
    ):
        scheme = WpirScheme(params, dist)
        for n in range(1, 6):
            rows = enumerate_query_law(scheme, n).rows
            assert maximal_leakage(QueryLaw(rows)) == reference(rows)


@pytest.mark.parametrize("p0", [0.0, 5e-324])
def test_zero_vector_row_with_an_empty_or_subnormal_weight_0(p0):
    # the N - 1 direct keys aimed elsewhere alone, or nearly alone
    params = SystemParams(4, 3)
    p_direct = 0.1
    p1 = (1 - 4 * p_direct) / (4 * weight_class_counts(4, 3)[1])
    dist = PatternDistribution(p_direct, (p0, p1, 0.0))
    scheme = WpirScheme(params, dist)
    classes = query_classes(params, dist)
    for n in range(1, 5):
        law = enumerate_query_law(scheme, n)
        for q in query_space(params):
            assert class_row(classes, q) == law.rows[query_code(params, q)].tolist()
    assert class_row(classes, QueryVector((0, 0, 0))) == [math.fsum([p0] + [p_direct] * 3)] * 3


def test_zero_vector_row_is_the_exact_sum_of_its_keys():
    # the N - 1 direct keys aimed at other servers and one weight-0 key send
    # the zero vector; here every order of a running + rounds off fsum, and
    # query_classes has fsum's value
    params = SystemParams(4, 2)
    dist = random_dist(params, np.random.default_rng(46))
    parts = [dist.p_direct] * 3 + [dist.p_weights[0]]
    exact = math.fsum(parts)
    assert all(
        functools.reduce(operator.add, order) != exact for order in itertools.permutations(parts)
    )
    assert query_classes(params, dist)[0][4] == exact
    zero = QueryVector((0, 0))
    assert class_row(query_classes(params, dist), zero) == [exact, exact]
    scheme = WpirScheme(params, dist)
    for n in range(1, 5):
        row = enumerate_query_law(scheme, n).rows[query_code(params, zero)]
        assert row.tolist() == [exact, exact]


def test_zero_vector_cell_of_more_direct_keys_than_a_list_holds():
    # N - 1 = 3^38 direct keys aimed elsewhere, about 1.4e18: the exact sum,
    # which p_0 + (N - 1) p_direct rounds off
    m = 3**38
    dist = PatternDistribution(0.5 / m, (0.1, 0.0))
    exact = float(Fraction(0.1) + m * Fraction(dist.p_direct))
    assert exact != 0.1 + m * dist.p_direct
    assert query_classes(SystemParams(m + 1, 2), dist)[0][4] == exact


@pytest.mark.parametrize("N,K", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4)])
def test_every_server_has_the_same_rows(N, K):
    params = SystemParams(N, K)
    scheme = WpirScheme(params, random_dist(params, np.random.default_rng(10 * N + K)))
    first = enumerate_query_law(scheme, 1).rows
    for n in range(2, N + 1):
        assert np.array_equal(enumerate_query_law(scheme, n).rows, first)


def _object_walk_rows(scheme, n):
    """The law's rows at server n from query objects: every key with nonzero
    probability through wpir_query for every message, each cell the fsum of
    the probabilities of the keys that reach it, at its query's code."""
    params = scheme.params
    N, K = params.num_servers, params.num_messages
    cells = collections.defaultdict(list)
    for key in enumerate_keys(params):
        if p := key_probability(scheme.dist, key):
            for k in range(1, K + 1):
                cells[wpir_query(params, k, key, n), k].append(p)
    rows = np.zeros((N**K + K, K))
    for (q, k), ps in cells.items():
        rows[query_code(params, q), k - 1] = math.fsum(ps)
    return rows


def _dist_with_an_empty_class(params, empty, rng):
    """Normalized, with direct mass and weight class `empty` unused."""
    N, K = params.num_servers, params.num_messages
    raw = [0.0 if w == empty else float(r) + 1e-3 for w, r in enumerate(rng.random(K))]
    mass = N * math.fsum(c * r for c, r in zip(weight_class_counts(N, K), raw))
    share = 0.3
    return PatternDistribution(share / N, tuple(r * (1 - share) / mass for r in raw))


@pytest.mark.parametrize(
    "N,K", [(2, 2), (3, 2), (11, 2), (2, 3), (4, 3), (10, 3), (3, 4), (5, 4), (3, 6), (2, 9)]
)
def test_code_walk_is_the_object_walk_at_every_server(N, K):
    params = SystemParams(N, K)
    rng = np.random.default_rng(7 * N + K)
    dists = [_dist_with_an_empty_class(params, w, rng) for w in sorted({0, K - 1})]
    dists.append(PatternDistribution.pure_direct(params))
    for dist in dists:
        scheme = WpirScheme(params, dist)
        for n in range(1, N + 1):
            law = enumerate_query_law(scheme, n)
            assert np.array_equal(law.rows, _object_walk_rows(scheme, n))


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


#: The largest N^K the oracle tests below draw, with (2, 16), (4, 8) and
#: (256, 2) at the cap. At 10^5 the two tests took about twice as long.
GRID_CAP = 2**16

#: Every (N, K) with 2 <= N, K and N^K <= GRID_CAP.
GRID = [
    (N, K)
    for N in range(2, math.isqrt(GRID_CAP) + 1)
    for K in range(2, GRID_CAP.bit_length())
    if N**K <= GRID_CAP
]


@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_engine_matches_oracle_on_grid(data):
    # the oracle costs K * N^K queries per server, so each draw checks one
    # server, and leakage_report, which walks all N, is checked above; K is
    # drawn first and uniformly, as in the class-row test below
    sizes = data.draw(st.randoms(use_true_random=False), label="size draw")
    K = sizes.choice(sorted({K for _, K in GRID}))
    N = sizes.choice([N for N, k in GRID if k == K])
    note(f"N, K = {N}, {K}")
    n = data.draw(st.integers(1, N), label="server")
    params = SystemParams(N, K)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    _assert_engine_matches_oracle(params, random_dist(params, rng), [n])


@st.composite
def edge_dists(draw, params):
    """Normalized, with p_direct > 0, one subnormal weight, whose marginal
    p / K can underflow to 0, and from K = 3 on at least one empty weight
    class. p_0 is of ordinary size, so that the zero vector's cell sums keys
    of ordinary size; the zero-vector tests above leave p_0 empty or tiny."""
    N, K = params.num_servers, params.num_messages
    tiny = draw(st.sampled_from(range(1, K)), label="subnormal class")
    others = [w for w in range(1, K) if w != tiny]
    empty = draw(st.sets(st.sampled_from(others), min_size=1), label="empty") if others else set()
    raw = {w: draw(st.floats(0.1, 1.0), label=f"raw {w}") for w in [0, *others] if w not in empty}
    share = draw(st.floats(0.05, 0.95), label="direct share")
    counts = weight_class_counts(N, K)
    mass = N * math.fsum(counts[w] * r for w, r in raw.items())
    weights = [raw[w] * (1 - share) / mass if w in raw else 0.0 for w in range(K)]
    weights[tiny] = draw(st.integers(1, 2**52 - 1), label="subnormal") * 5e-324
    return PatternDistribution(share / N, tuple(weights))


#: Oracle queries (N servers, K messages, N^K keys each) above which the test
#: below walks three servers, not all N.
ALL_SERVERS_BUDGET = 3 * 10**5


@settings(max_examples=16, deadline=None, derandomize=True)
@given(data=st.data())
def test_class_row_is_the_oracle_row_at_every_server(data):
    # K first, so that K = 2, which holds most of the grid, is not most
    # draws; and uniformly, where sampled_from would mostly take the ends
    rng = data.draw(st.randoms(use_true_random=False), label="size draw")
    K = rng.choice(sorted({K for _, K in GRID}))
    N = rng.choice([N for N, k in GRID if k == K])
    note(f"N, K = {N}, {K}")
    params = SystemParams(N, K)
    dist = data.draw(edge_dists(params), label="dist")
    classes = query_classes(params, dist)
    # row by row in code order; no row is kept as an object, so that the
    # test's heap stays small
    rows = np.fromiter(
        itertools.chain.from_iterable(class_row(classes, q) for q in query_space(params)),
        dtype=float,
        count=(N**K + K) * K,
    ).reshape(-1, K)
    scheme = WpirScheme(params, dist)
    servers = range(1, N + 1)
    if N * K * N**K > ALL_SERVERS_BUDGET:
        # the walk at all of (255, 2)'s servers takes about 1.6 s
        servers = sorted({1, data.draw(st.integers(1, N), label="server"), N})
    for n in servers:
        # the same supported queries, and each row equal bit for bit
        assert np.array_equal(rows, enumerate_query_law(scheme, n).rows)


def _reference_class_leakage(params, dist, metric):
    # the class rows with their sizes C(K, w)(N-1)^w recomputed per call
    N, K = params.num_servers, params.num_messages
    p = list(dist.p_weights) + [0.0]
    classes = [(1, 0, 0.0, K, math.fsum([p[0]] + [dist.p_direct] * (N - 1)))]
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
