import dataclasses
import hashlib
import math

import numpy as np
import pytest

from conftest import query_code, query_space, random_dist
from wpir import __version__
from wpir.cli import main
from wpir.core import (
    DirectKey,
    PatternDistribution,
    SystemParams,
    class_probabilities,
    enumerate_keys,
    key_probability,
)
from wpir.leakage import enumerate_query_law
from wpir.optimize import solve_maxl
from wpir.scheme import WpirScheme
from wpir.sim import (
    BLOCK,
    RNG_SCHEME,
    KeyBlock,
    SimConfig,
    binomial_bound,
    pattern_classes,
    run_simulation,
    sample_block,
    trial_keys,
)
from wpir.tables import query_label

#: sha256 of `wpir simulate --metric maxl --rho 0.2 -N 3 -K 2 --trials 300
#: --seed 7`, recorded with numpy 2.4.6.
GOLDEN_SIMULATE_SHA256 = "611c7217880a01d8bd679312ace0b856d38a0648c801cc8f612347ef08b7890b"
GOLDEN_NUMPY = "2.4.6"

#: sha256 of `wpir simulate --metric maxl --rho 0.2 -N 4 -K 3 --trials 300
#: --seed 7`, recorded with numpy 2.4.6. Its scheme has p_direct > 0, so the
#: zero vector's marginal sums one weight-0 key and three direct keys.
GOLDEN_ZERO_VECTOR_SHA256 = "f25a7134575e700ef0e6dfdbb73b4404439acb6865fe7d9ca0a0253e192437b8"

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


def assert_simulate_bytes(tmp_path, size, golden):
    out = tmp_path / "sim.json"
    argv = f"simulate --metric maxl --rho 0.2 {size} --trials 300 --seed 7 --out"
    assert main([*argv.split(), str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == golden, (
        f"simulate output changed (numpy {np.__version__}; the hash was recorded with "
        f"numpy {GOLDEN_NUMPY}). numpy may change Generator streams between releases "
        f"(NEP 19): under another numpy, re-record it. Under the same numpy, either the "
        f"trial stream changed (rename RNG_SCHEME, now {RNG_SCHEME!r}, and re-record) or "
        f"the report did."
    )


def test_simulate_stream_is_pinned(tmp_path):
    assert_simulate_bytes(tmp_path, "-N 3 -K 2", GOLDEN_SIMULATE_SHA256)


def test_simulate_zero_vector_marginal_is_pinned(tmp_path):
    assert_simulate_bytes(tmp_path, "-N 4 -K 3", GOLDEN_ZERO_VECTOR_SHA256)


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
