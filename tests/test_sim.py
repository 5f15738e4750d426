import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, note, settings
from hypothesis import strategies as st

import corpus
from conftest import query_class, query_code, query_space, random_dist, random_tsc_dist
from wpir import __version__
from wpir.cli import main
from wpir.core import (
    DirectKey,
    PatternDistribution,
    SystemParams,
    WpirScheme,
    class_probabilities,
    enumerate_keys,
    key_probability,
    weight_class_counts,
)
from wpir.leakage import enumerate_query_law, query_classes
from wpir.optimize import solve_maxl
from wpir.scheme import wpir_query
from wpir.sim import (
    BLOCK,
    RNG_SCHEME,
    KeyBlock,
    SimConfig,
    _code_marginals,
    binomial_bound,
    block_keys,
    block_query_codes,
    pattern_classes,
    run_simulation,
    sample_block,
    trial_blocks,
    trial_keys,
)
from wpir.tables import query_label

#: numpy version the corpus's simulate hashes were recorded with
GOLDEN_NUMPY = "2.4.6"

FIELDS = [field.name for field in dataclasses.fields(KeyBlock)]


def draw_rows(params, dist, rows, seed=0):
    """The first `rows` rows of the stream, whole blocks concatenated."""
    blocks = [sample_block(params, dist, seed, b) for b in range(-(-rows // BLOCK))]
    return {
        name: np.concatenate([getattr(b, name) for b in blocks])[:rows]
        for name in FIELDS
    }


def test_trials_guard(params_n3k2):
    scheme = WpirScheme(params_n3k2, PatternDistribution.uniform(params_n3k2))
    with pytest.raises(ValueError):
        SimConfig(scheme, 0, 1, 2)


def test_sample_block_degenerate_direct(params_n3k2):
    dist = PatternDistribution.pure_direct(params_n3k2)
    rows = draw_rows(params_n3k2, dist, 2 * BLOCK)
    assert (rows["pattern"] == 0).all()
    assert set(rows["server"].tolist()) == {1, 2, 3}
    assert all(isinstance(key, DirectKey) for _, key in trial_keys(params_n3k2, dist, 0, 300))


def test_sample_block_deterministic():
    p = SystemParams(3, 3)
    dist = solve_maxl(p, 0.3)
    for seed in (0, 7):
        blocks = {}
        for b in (0, 1, 5):
            first, again = sample_block(p, dist, seed, b), sample_block(p, dist, seed, b)
            for name in FIELDS:
                assert np.array_equal(getattr(first, name), getattr(again, name))
            blocks[b] = first
        assert not np.array_equal(blocks[0].f, blocks[1].f)
        assert not np.array_equal(blocks[0].k, sample_block(p, dist, seed + 1, 0).k)


def test_sample_block_empirical_law():
    # weight-class frequencies of 10^6 uniform draws within 4 sigma
    p = SystemParams(3, 2)
    dist = PatternDistribution.uniform(p)
    n = 10**6
    rows = draw_rows(p, dist, n, seed=123)
    counts = np.bincount(rows["pattern"], minlength=3)  # [direct, w=0, w=1]
    expected = class_probabilities(p, dist)
    assert counts[0] == 0
    for w in (0, 1):
        prob = expected[1 + w]
        bound = 4 * math.sqrt(prob * (1 - prob) / n)
        assert abs(counts[1 + w] / n - prob) <= bound
    # each row's digits carry exactly its class's weight
    assert np.array_equal((rows["f"] != 0).sum(axis=1), rows["pattern"] - 1)


def test_sample_block_per_key_law():
    # every one of the N^K + N keys at (4, 3), with direct mass, within a
    # Bernstein bound; failure probability 1e-6 spread over the keys
    p = SystemParams(4, 3)
    N = p.num_servers
    dist = random_dist(p, np.random.default_rng(43))
    keys = list(enumerate_keys(p))
    n = 10**6
    rows = draw_rows(p, dist, n, seed=5)
    # index in enumerate_keys order: direct keys, then (f, u) in lex order
    digits = np.column_stack([rows["f"], rows["u"]]) @ (N ** np.arange(p.num_messages)[::-1])
    index = np.where(rows["pattern"] == 0, rows["server"] - 1, N + digits)
    counts = np.bincount(index, minlength=len(keys))
    log_term = math.log(2 * len(keys) / 1e-6)
    for key, count in zip(keys, counts):
        prob = key_probability(dist, key)
        t = log_term / 3 + math.sqrt(log_term**2 / 9 + 2 * n * prob * (1 - prob) * log_term)
        assert abs(count - n * prob) <= t, key


def test_pattern_classes_never_takes_an_empty_class(params_n3k2):
    # masses 0.3, 0.7 and 0 that sum to 1 - 2^-53 in floats
    dist = PatternDistribution(0.1, (0.23333333333333328, 0.0))
    u = np.nextafter(1.0, 0.0)
    assert sum(class_probabilities(params_n3k2, dist)) <= u
    assert pattern_classes(params_n3k2, dist, np.array([0.0, 0.5, u])).tolist() == [0, 1, 1]


def test_trial_keys_prefix(params_n3k2):
    # the first 1,000 trials do not depend on the run's length
    dist = solve_maxl(params_n3k2, 0.2)
    short = list(trial_keys(params_n3k2, dist, 7, 1000))
    assert list(trial_keys(params_n3k2, dist, 7, 2500))[:1000] == short


@pytest.mark.parametrize("N,K", [(2, 2), (3, 2), (5, 5), (2, 10), (11, 2), (12, 3)])
@pytest.mark.parametrize("scheme", ["pure vector", "mixed", "pure direct"])
def test_block_query_codes_are_the_codes_of_the_trials_queries(N, K, scheme):
    params = SystemParams(N, K)
    rng = np.random.default_rng(N * 100 + K)
    dist = {
        "pure vector": lambda: random_tsc_dist(params, rng),
        "mixed": lambda: random_dist(params, rng),
        "pure direct": lambda: PatternDistribution.pure_direct(params),
    }[scheme]()
    trials = BLOCK + 37
    blocks = list(trial_blocks(params, dist, 3, trials))
    # the last block is the first rows of its full block
    assert [len(block.k) for block in blocks] == [BLOCK, 37]
    full = sample_block(params, dist, 3, 1)
    for name in FIELDS:
        assert np.array_equal(getattr(blocks[1], name), getattr(full, name)[:37])
    for block in blocks:
        codes = block_query_codes(params, block)
        expected = [
            [query_code(params, wpir_query(params, k, key, n)) for n in range(1, N + 1)]
            for k, key in block_keys(block)
        ]
        assert codes.tolist() == expected


def assert_simulate_bytes(tmp_path, size, rho="0.2"):
    argv = f"simulate --metric maxl --rho {rho} {size} --trials 300 --seed 7"
    out = tmp_path / "sim.json"
    assert main([*argv.split(), "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == corpus.load()[argv], (
        f"simulate output changed (numpy {np.__version__}; the hash was recorded with "
        f"numpy {GOLDEN_NUMPY}). numpy may change Generator streams between releases "
        f"(NEP 19): under another numpy, re-record it. Under the same numpy, either the "
        f"trial stream changed (rename RNG_SCHEME, now {RNG_SCHEME!r}, and re-record) or "
        f"the report did."
    )


def test_simulate_stream_is_pinned(tmp_path):
    assert_simulate_bytes(tmp_path, "-N 3 -K 2")


def test_simulate_zero_vector_marginal_is_pinned(tmp_path):
    # the scheme has p_direct > 0, so the zero vector's marginal sums one
    # weight-0 key and three direct keys
    assert_simulate_bytes(tmp_path, "-N 4 -K 3")


def test_simulate_comma_separated_labels_are_pinned(tmp_path):
    # at N = 11 the labels of vectors with the digit 10 are comma-separated
    assert_simulate_bytes(tmp_path, "-N 11 -K 2")


def test_simulate_above_the_maxl_cap_is_pinned(tmp_path):
    # the budget is above the cap, so the scheme is pure direct and every
    # vector but the zero vector is unsupported and unlisted
    assert_simulate_bytes(tmp_path, "-N 4 -K 3", rho="1")


def reference_report(config):
    """The frequency maps, their largest deviation and every query's
    marginal (None when unsupported), in code order, by the per-label loop:
    one `QueryVector` per query, with its `query_label` and its class's
    marginal, and one dict of query objects per server."""
    scheme, trials = config.scheme, config.trials
    params = scheme.params
    N, K = params.num_servers, params.num_messages
    counts = [dict() for _ in range(N)]
    for k, key in trial_keys(params, scheme.dist, config.seed, trials):
        for n, seen in enumerate(counts, start=1):
            q = wpir_query(params, k, key, n)
            seen[q] = seen.get(q, 0) + 1
    space = [(q, query_label(q)) for q in query_space(params)]
    classes = query_classes(params, scheme.dist)
    marginal = {}
    for q, _ in space:
        _, hits, hit, misses, miss = query_class(classes, q)
        if (hits and hit) or (misses and miss):
            marginal[q] = (hits * hit + misses * miss) / K
    max_dev = 0.0
    freq_maps = []
    for seen in counts:
        freqs = {}
        for q, label in space:
            count = seen.get(q, 0)
            if count or q in marginal:
                observed = count / trials
                freqs[label] = observed
                max_dev = max(max_dev, abs(observed - marginal.get(q, 0.0)))
        freq_maps.append(freqs)
    return freq_maps, max_dev, [marginal.get(q) for q, _ in space]


@st.composite
def sim_configs(draw):
    """Up to N^K = 1728, N up to 13; each weight class empty, subnormal or of
    ordinary size; p_direct 0 or not; 1 trial, a few, or more than a block."""
    N = draw(st.integers(2, 13), label="N")
    K = draw(st.integers(2, max(k for k in range(2, 11) if N**k <= 1728)), label="K")
    params = SystemParams(N, K)
    kind = st.sampled_from(["empty", "subnormal", "ordinary"])
    kinds = draw(st.lists(kind, min_size=K, max_size=K), label="weight kinds")
    raw = [draw(st.floats(0.1, 1.0)) if kind == "ordinary" else 0.0 for kind in kinds]
    share = draw(st.sampled_from([0.0]) | st.floats(0.05, 0.95), label="direct share")
    mass = N * math.fsum(c * r for c, r in zip(weight_class_counts(N, K), raw))
    if mass == 0.0:
        share = 1.0
    weights = [r * (1 - share) / mass if r else 0.0 for r in raw]
    for w, kind in enumerate(kinds):
        if kind == "subnormal":
            weights[w] = draw(st.integers(1, 2**52 - 1)) * 5e-324
    dist = PatternDistribution(share / N, tuple(weights))
    trials = draw(st.sampled_from([1, BLOCK + 1]) | st.integers(2, 300), label="trials")
    return SimConfig(WpirScheme(params, dist), trials, draw(st.integers(0, 2**31)), 3)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(config=sim_configs())
@example(
    # comma-separated labels, p_direct > 0, and weight-2 vectors unsupported
    config=SimConfig(
        WpirScheme(SystemParams(11, 2), PatternDistribution(0.05, (0.45 / 11, 0.0))),
        BLOCK + 1, 5, 6,
    )
).via("an unsupported class at N = 11")
@example(
    # weight-3 vectors unsupported, no direct mass, one trial
    config=SimConfig(
        WpirScheme(SystemParams(3, 3), PatternDistribution(0.0, (1 / 15, 1 / 15, 0.0))),
        1, 5, 6,
    )
).via("an unsupported class, one trial")
def test_frequencies_match_the_per_label_reference(config):
    note(f"N, K = {config.scheme.params.num_servers}, {config.scheme.params.num_messages}")
    report = run_simulation(config)
    freq_maps, max_dev, marginals = reference_report(config)
    # the same labels in the same order, the same values, the same bits
    assert [list(m.items()) for m in report.query_frequencies] == [
        list(m.items()) for m in freq_maps
    ]
    assert report.max_freq_deviation.hex() == max_dev.hex()
    # every marginal, including those that set no deviation
    marginal, supported = _code_marginals(config.scheme.params, config.scheme.dist)
    assert supported.tolist() == [m is not None for m in marginals]
    assert [v.hex() for v in marginal.tolist()] == [(m or 0.0).hex() for m in marginals]


def test_deterministic_repeat(params_n3k2):
    scheme = WpirScheme(params_n3k2, solve_maxl(params_n3k2, 0.1))
    config = SimConfig(scheme, 2000, seed=7, message_seed=9)
    assert run_simulation(config) == run_simulation(config)


def test_pure_direct_download_is_exact(params_n3k2):
    scheme = WpirScheme(params_n3k2, PatternDistribution.pure_direct(params_n3k2))
    report = run_simulation(SimConfig(scheme, 500, seed=3, message_seed=4))
    assert report.success_rate == 1.0
    assert report.empirical_download == 1.0
    assert report.download_stderr == 0.0


def test_uniform_scheme_matches_theory(params_n3k2):
    scheme = WpirScheme(params_n3k2, PatternDistribution.uniform(params_n3k2))
    report = run_simulation(SimConfig(scheme, 30000, seed=11, message_seed=12))
    assert report.success_rate == 1.0
    assert abs(report.empirical_download - 4 / 3) <= 3 * report.download_stderr
    # all 9 vector queries appear near 1/9 (marginal over the uniform message index)
    assert report.max_freq_deviation <= binomial_bound(1 / 9, report.trials)


def test_per_message_cost_symmetry(params_n3k2):
    scheme = WpirScheme(params_n3k2, solve_maxl(params_n3k2, 0.15))
    report = run_simulation(SimConfig(scheme, 30000, seed=13, message_seed=14))
    a, b = report.per_message_download
    assert abs(a - b) <= 6 * report.download_stderr * math.sqrt(2)


def test_direct_request_frequency(params_n3k2):
    scheme = WpirScheme(params_n3k2, PatternDistribution.pure_direct(params_n3k2))
    report = run_simulation(SimConfig(scheme, 30000, seed=17, message_seed=18))
    for freqs in report.query_frequencies:
        for k in (1, 2):
            expected = 1 / (3 * 2)  # P(message k) * P(direct key hits this server)
            assert abs(freqs[f"#{k}"] - expected) <= binomial_bound(expected, report.trials)


def test_frequency_maps_list_the_oracle_support():
    # weight-2 and weight-3 vectors are sent only by keys of probability
    # 5e-324, so their marginals underflow to 0; they are listed still
    params = SystemParams(3, 3)
    scheme = WpirScheme(params, PatternDistribution(0.1, (0.7 / 3, 0.0, 5e-324)))
    report = run_simulation(SimConfig(scheme, 200, seed=5, message_seed=6))
    for n, freqs in enumerate(report.query_frequencies, start=1):
        law = enumerate_query_law(scheme, n)
        support = {
            query_label(q) for q in query_space(params) if law.rows[query_code(params, q)].any()
        }
        assert set(freqs) == support
        assert len(support) == 3**3 + 3


def test_frequency_maps_list_every_query_at_n_12():
    # 144 vectors and 2 direct requests, each under its own label, so each
    # server's frequencies sum to 1
    params = SystemParams(12, 2)
    report = run_simulation(SimConfig(WpirScheme(params, solve_maxl(params, 0.1)), 200, 1, 2))
    for freqs in report.query_frequencies:
        assert len(freqs) == 12**2 + 2
        assert math.fsum(freqs.values()) == pytest.approx(1.0, abs=1e-12)


def test_report_serializes(params_n3k2):
    scheme = WpirScheme(params_n3k2, PatternDistribution.uniform(params_n3k2))
    report = run_simulation(SimConfig(scheme, 100, seed=1, message_seed=2))
    obj = report.to_json()
    assert obj["trials"] == 100
    assert obj["success_rate"] == 1.0
    assert len(obj["query_frequencies"]) == 3
    assert obj["provenance"] == {"wpir": __version__, "rng_scheme": RNG_SCHEME}
