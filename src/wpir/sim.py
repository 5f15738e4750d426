"""End-to-end Monte-Carlo harness.

Every server answers from the same replicated message store through
wpir_answer, a pure function of query and store. Trials draw their message
index and key in blocks of BLOCK: block b is one generator seeded by
SeedSequence(seed, spawn_key=(b,)), which draws every row of the block as
arrays. Trial t therefore depends only on the seed and t, so the first T
trials of a run are the same whatever its trial count, and two runs with the
same configuration are identical.

This is the one module of the package that imports numpy when it loads.
`import wpir` does not import it and the CLI imports it only when `simulate`
runs, so `curve --metric maxl` and `dump-table` start without numpy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import isnan
from typing import Iterator

import numpy as np

from . import __version__
from .core import (
    DirectKey,
    DirectRequest,
    MessageStore,
    PatternDistribution,
    Query,
    QueryVector,
    RandomKey,
    SystemParams,
    TscKey,
    class_probabilities,
    digit_vectors,
    _left_sum,
)
from .leakage import enumerate_query_law
from .scheme import WpirScheme, download_cost, wpir_answer, wpir_decode, wpir_query
from .tables import query_label

#: Trials per seeded block of the trial stream.
BLOCK = 1024

#: Name of the trial stream, recorded in every report. A change to what a
#: block draws, or in which order, is a new stream and needs a new name.
RNG_SCHEME = "seedseq-block1024-v2"


@dataclass(frozen=True)
class SimConfig:
    scheme: WpirScheme
    trials: int
    seed: int
    message_seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")


@dataclass(frozen=True)
class SimReport:
    config_seed: int
    message_seed: int
    trials: int
    success_rate: float
    empirical_download: float
    download_stderr: float
    theoretical_download: float
    per_message_download: tuple[float, ...]
    query_frequencies: tuple[dict[str, float], ...]  # one map per server
    max_freq_deviation: float

    def to_json(self) -> dict:
        return {
            "seed": self.config_seed,
            "message_seed": self.message_seed,
            "trials": self.trials,
            "success_rate": self.success_rate,
            "empirical_download": self.empirical_download,
            "download_stderr": self.download_stderr,
            "theoretical_download": self.theoretical_download,
            # NaN marks a message no trial drew; strict JSON has no NaN
            "per_message_download": [None if isnan(v) else v for v in self.per_message_download],
            "query_frequencies": list(self.query_frequencies),
            "max_freq_deviation": self.max_freq_deviation,
            "provenance": {"wpir": __version__, "rng_scheme": RNG_SCHEME},
        }


def pattern_classes(
    params: SystemParams, dist: PatternDistribution, u: np.ndarray
) -> np.ndarray:
    """Pattern class of each uniform draw u in [0, 1): 0 for direct, 1 + w for
    a vector key of weight w.

    A draw takes the first class whose cumulative mass exceeds it, so a class
    of zero mass is never taken. The masses sum to 1 only up to round-off; a
    draw at or above their sum takes the last class with positive mass.
    """
    masses = class_probabilities(params, dist)
    last = max(i for i, mass in enumerate(masses) if mass > 0)
    return np.minimum(np.searchsorted(list(itertools.accumulate(masses)), u, side="right"), last)


@dataclass(frozen=True)
class KeyBlock:
    """The draws of one block of BLOCK trials, one row per trial."""

    k: np.ndarray  # requested message, 1..K
    pattern: np.ndarray  # 0 for a direct key, 1 + w for a vector key of weight w
    server: np.ndarray  # direct server, 1..N; read on direct rows only
    f: np.ndarray  # (BLOCK, K-1) interference digits, 0 off the support
    u: np.ndarray  # cyclic shift digit, 0..N-1; read on vector rows only


def sample_block(
    params: SystemParams, dist: PatternDistribution, seed: int, block: int
) -> KeyBlock:
    """Block `block` of the RNG_SCHEME trial stream.

    Every block draws all BLOCK rows from its own generator, in this order:
    k, one uniform per row for the pattern class, the direct server, a
    (BLOCK, K-1) uniform matrix for the support, the digits, the shift.
    Each key has the probability :func:`key_probability` gives it.
    """
    N, K = params.num_servers, params.num_messages
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))
    k = rng.integers(1, K + 1, BLOCK)
    pattern = pattern_classes(params, dist, rng.random(BLOCK))
    server = rng.integers(1, N + 1, BLOCK)
    # the positions of a row's w smallest iid uniforms are a uniform w-subset
    ranks = rng.random((BLOCK, K - 1)).argsort(axis=1).argsort(axis=1)
    support = ranks < (pattern - 1)[:, None]
    f = np.where(support, rng.integers(1, N, (BLOCK, K - 1)), 0)
    u = rng.integers(0, N, BLOCK)
    return KeyBlock(k, pattern, server, f, u)


def trial_keys(
    params: SystemParams, dist: PatternDistribution, seed: int, trials: int
) -> Iterator[tuple[int, RandomKey]]:
    """(message index, key) of trials 0..trials-1, one block alive at a time."""
    for start in range(0, trials, BLOCK):
        block = sample_block(params, dist, seed, start // BLOCK)
        rows = slice(0, min(BLOCK, trials - start))
        for k, pattern, server, f, u in zip(
            block.k[rows].tolist(),
            block.pattern[rows].tolist(),
            block.server[rows].tolist(),
            block.f[rows].tolist(),
            block.u[rows].tolist(),
        ):
            yield k, (TscKey(tuple(f), u) if pattern else DirectKey(server))


def _query_space(params: SystemParams) -> list[Query]:
    """Every query a server can receive, in canonical order.

    Walks the N^K vector space, so it raises TooLarge beyond MAX_ENUM_KEYS.
    """
    vectors = [QueryVector(digits) for digits in digit_vectors(params)]
    return vectors + [DirectRequest(k) for k in range(1, params.num_messages + 1)]


def run_simulation(config: SimConfig) -> SimReport:
    """Run full retrievals and compare empirical statistics with theory."""
    scheme = config.scheme
    params = scheme.params
    N, K, L = params.num_servers, params.num_messages, params.message_length
    # each query labelled once, not once per server
    space = [(q, query_label(q)) for q in _query_space(params)]
    store = MessageStore.random(params, config.message_seed)

    successes = 0
    costs = []
    per_k_total = [0.0] * K
    per_k_count = [0] * K
    counts: list[dict[Query, int]] = [dict() for _ in range(N)]

    for k, key in trial_keys(params, scheme.dist, config.seed, config.trials):
        queries = [wpir_query(scheme, k, key, n) for n in range(1, N + 1)]
        answers = [wpir_answer(q, store) for q in queries]
        recovered = wpir_decode(scheme, k, key, answers)
        if recovered == store.message(k):
            successes += 1
        downloaded = sum(len(a) for a in answers) / L
        costs.append(downloaded)
        per_k_total[k - 1] += downloaded
        per_k_count[k - 1] += 1
        for q, seen in zip(queries, counts):
            seen[q] = seen.get(q, 0) + 1

    # marginal law over a uniformly drawn message index; every supported or
    # observed query is listed
    max_dev = 0.0
    freq_maps = []
    for n, seen in enumerate(counts, start=1):
        # each row's nonzero entries summed from the left in message order,
        # so the deviation has the same bits on every Python version
        marginal = {
            q: _left_sum(p / K for p in row if p)
            for q, row in enumerate_query_law(scheme, n).rows.items()
        }
        freqs = {}
        for q, label in space:
            count = seen.get(q, 0)
            if count or q in marginal:
                observed = count / config.trials
                freqs[label] = observed
                max_dev = max(max_dev, abs(observed - marginal.get(q, 0.0)))
        freq_maps.append(freqs)

    costs, per_k_total, per_k_count = np.array(costs), np.array(per_k_total), np.array(per_k_count)
    stderr = float(np.std(costs, ddof=1) / np.sqrt(config.trials)) if config.trials > 1 else 0.0
    with np.errstate(invalid="ignore"):
        per_k = np.where(per_k_count > 0, per_k_total / np.maximum(per_k_count, 1), np.nan)
    return SimReport(
        config_seed=config.seed,
        message_seed=config.message_seed,
        trials=config.trials,
        success_rate=successes / config.trials,
        empirical_download=float(costs.mean()),
        download_stderr=stderr,
        theoretical_download=download_cost(scheme),
        per_message_download=tuple(float(v) for v in per_k),
        query_frequencies=tuple(freq_maps),
        max_freq_deviation=max_dev,
    )


def binomial_bound(p: float, trials: int, sigmas: float = 4.0) -> float:
    """Concentration bound for one frequency cell."""
    return sigmas * np.sqrt(p * (1.0 - p) / trials)
