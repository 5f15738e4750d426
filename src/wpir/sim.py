"""End-to-end Monte-Carlo harness.

Every server answers from the same replicated message store through
wpir_answer, a pure function of query and store. Per-trial randomness is
derived by splitting the master seed with the trial index, so trials are
order-independent and two runs with the same configuration are identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isnan

import numpy as np

from .core import (
    DirectRequest,
    MessageStore,
    Query,
    QueryVector,
    SystemParams,
    digit_vectors,
    sample_key,
)
from .leakage import enumerate_query_law
from .scheme import WpirScheme, download_cost, wpir_answer, wpir_decode, wpir_query
from .tables import query_label


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
        }


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


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
    space = _query_space(params)
    store = MessageStore.random(params, config.message_seed)

    successes = 0
    costs = []
    per_k_total = [0.0] * K
    per_k_count = [0] * K
    counts: list[dict[Query, int]] = [dict() for _ in range(N)]

    for t in range(config.trials):
        rng = _trial_rng(config.seed, t)
        k = int(rng.integers(1, K + 1))
        key = sample_key(params, scheme.dist, rng)
        queries = [wpir_query(scheme, k, key, n) for n in range(1, N + 1)]
        answers = [wpir_answer(scheme, q, store) for q in queries]
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
        marginal: dict[Query, float] = {}
        for cond in enumerate_query_law(scheme, n).conditionals:
            for q, p in cond.items():
                marginal[q] = marginal.get(q, 0.0) + p / K
        freqs = {}
        for q in space:
            count = seen.get(q, 0)
            if count or q in marginal:
                observed = count / config.trials
                freqs[query_label(q)] = observed
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
