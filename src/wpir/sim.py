"""End-to-end Monte-Carlo harness.

Every server answers from the same replicated message store through
wpir_answer, a pure function of query and store. Trials draw their message
index and key in blocks of BLOCK: block b is one generator seeded by
SeedSequence(seed, spawn_key=(b,)), which draws every row of the block as
arrays. Trial t therefore depends only on the seed and t, so the first T
trials of a run are the same whatever its trial count, and two runs with the
same arguments are identical.

The report lists, per server, the observed frequency of every supported or
observed query under its `tables.query_label`. It works on query codes, the
rows of the oracle's law (`enumerate_query_law`): a vector's digits read
as a base-N number, then #1..#K. One label per code is made once per run,
and a server's counts are one array indexed by code. The frequency check is
per query class (`leakage.query_classes`): a vector's class is its weight
and #k's the direct class, every code of a class has the class's marginal,
and the K + 2 marginals serve all N servers. The counts come from each
block's (rows, N) matrix of query codes (`block_query_codes`, a vector
key's by `tsc.tsc_codes`, the formula of the oracle's walk), one
`np.bincount` per block. The downloads come from the same matrix: a query
of code 0 (the zero vector) is answered with nothing, #k with the L symbols
of a message and any other vector with one symbol, the lengths the decoders
check, and a trial downloads its answers' total over L. The per-message
sums add the trials in order (`np.add.at`). A trial makes its key and N
query objects only to answer and decode, and counts a success; no query is
coded one by one.

`run_simulation` returns the report as the JSON object `wpir simulate`
writes, the scheme first.

This is the one module of the package that imports numpy when it loads.
`import wpir` does not import it and the CLI imports it only when `simulate`
runs, so `curve` and `dump-table` start without numpy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from . import __version__
from .core import (
    DirectKey,
    MessageStore,
    PatternDistribution,
    RandomKey,
    SystemParams,
    TscKey,
    WpirScheme,
    class_probabilities,
    download_cost,
    _digit_weights,
)
from .leakage import query_classes
from .scheme import wpir_answer, wpir_decode, wpir_query
from .tables import _code_labels
from .tsc import tsc_codes

#: Trials per seeded block of the trial stream.
BLOCK = 1024

#: Name of the trial stream, recorded in every report. A change to what a
#: block draws, or in which order, is a new stream and needs a new name.
RNG_SCHEME = "seedseq-block1024-v2"


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
    """The draws of one block of trials, one row per trial: BLOCK rows, or
    fewer in the last block of a run (`trial_blocks`)."""

    k: np.ndarray  # requested message, 1..K
    pattern: np.ndarray  # 0 for a direct key, 1 + w for a vector key of weight w
    server: np.ndarray  # direct server, 1..N; read on direct rows only
    f: np.ndarray  # (rows, K-1) interference digits, 0 off the support
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


def trial_blocks(
    params: SystemParams, dist: PatternDistribution, seed: int, trials: int
) -> Iterator[KeyBlock]:
    """The blocks of trials 0..trials-1 in order, the last cut to its rows."""
    for start in range(0, trials, BLOCK):
        block = sample_block(params, dist, seed, start // BLOCK)
        rows = trials - start
        if rows < BLOCK:
            block = KeyBlock(*(getattr(block, field.name)[:rows] for field in fields(KeyBlock)))
        yield block


def block_keys(block: KeyBlock) -> Iterator[tuple[int, RandomKey]]:
    """(message index, key) of every row of `block`, in row order."""
    for k, pattern, server, f, u in zip(
        block.k.tolist(),
        block.pattern.tolist(),
        block.server.tolist(),
        block.f.tolist(),
        block.u.tolist(),
    ):
        yield k, (TscKey(tuple(f), u) if pattern else DirectKey(server))


def block_query_codes(params: SystemParams, block: KeyBlock) -> np.ndarray:
    """The (rows, N) int64 matrix of query codes: entry (t, n - 1) is the
    oracle's row (`leakage.enumerate_query_law`) of the query that
    `wpir_query(params, k, key, n)` gives for row t's (k, key). A vector
    key's code is `tsc.tsc_codes`; a direct key sends #k, code N^K + k - 1,
    to its server and the zero vector, code 0, to every other server."""
    N, K = params.num_servers, params.num_messages
    k = block.k[:, None]
    f_code = block.f @ N ** np.arange(K - 2, -1, -1)  # first digit most significant
    n = np.arange(1, N + 1)
    vector = tsc_codes(params, k, f_code[:, None], block.u[:, None], n)
    direct = np.where(block.server[:, None] == n, N**K + k - 1, 0)
    return np.where(block.pattern[:, None] > 0, vector, direct)


def _code_marginals(
    params: SystemParams, dist: PatternDistribution
) -> tuple[np.ndarray, np.ndarray]:
    """The marginal of every query code, over a uniformly drawn message
    index and the same at every server, and whether the code is supported.

    Both are those of the code's class in `leakage.query_classes`: a
    vector's weight, or the direct class for #k. A class's marginal is
    (hits * hit + misses * miss) / K, and it is supported when a side with
    messages has a nonzero probability, even if the marginal underflows; an
    unsupported class's marginal is 0.0.
    """
    N, K = params.num_servers, params.num_messages
    marginal, supported = [], []
    for _, hits, hit, misses, miss in query_classes(params, dist):
        marginal.append((hits * hit + misses * miss) / K)
        supported.append((hits > 0 and hit > 0) or (misses > 0 and miss > 0))
    index = np.concatenate([_digit_weights(N, K), np.full(K, K + 1)])
    return np.array(marginal)[index], np.array(supported)[index]


def run_simulation(scheme: WpirScheme, trials: int, seed: int, message_seed: int) -> dict:
    """Run `trials` full retrievals and compare empirical statistics with theory.

    Trial keys come from the stream of `seed`, and the message store from
    `message_seed`. Returns the report that `wpir simulate` writes, as its
    JSON object; raises ValueError for fewer than one trial.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    params = scheme.params
    N, K, L = params.num_servers, params.num_messages, params.message_length
    # one label per query code, not one per server; raises TooLarge first
    labels = _code_labels(params)
    store = MessageStore.random(params, message_seed)

    successes = 0
    downloads = []  # one array per block: each trial's download in messages
    per_k_total = np.zeros(K)
    per_k_count = np.zeros(K, dtype=np.int64)
    # counts[n - 1, c]: how often server n received the query of code c
    counts = np.zeros((N, len(labels)), dtype=np.int64)

    for block in trial_blocks(params, scheme.dist, seed, trials):
        codes = block_query_codes(params, block)
        for seen, column in zip(counts, codes.T):
            seen += np.bincount(column, minlength=len(labels))
        # answer lengths, which the decoders check: none for the zero
        # vector, L for #k, one symbol for any other vector
        downloads.append(np.where(codes >= N**K, L, np.minimum(codes, 1)).sum(axis=1) / L)
        np.add.at(per_k_total, block.k - 1, downloads[-1])  # in trial order
        per_k_count += np.bincount(block.k - 1, minlength=K)
        for k, key in block_keys(block):
            answers = [wpir_answer(wpir_query(params, k, key, n), store) for n in range(1, N + 1)]
            if wpir_decode(params, k, key, answers) == store.message(k):
                successes += 1

    # every supported or observed query is listed
    marginal, supported = _code_marginals(params, scheme.dist)
    max_dev = 0.0
    freq_maps = []
    for count in counts:
        observed = count / trials
        max_dev = max(max_dev, float(np.abs(observed - marginal).max()))
        listed = supported | (count > 0)
        freq_maps.append(
            dict(zip(itertools.compress(labels, listed.tolist()), observed[listed].tolist()))
        )

    downloads = np.concatenate(downloads)
    stderr = 0.0
    if trials > 1:
        stderr = float(np.std(downloads, ddof=1) / np.sqrt(trials))
    return {
        "scheme": scheme.to_json(),
        "seed": seed,
        "message_seed": message_seed,
        "trials": trials,
        "success_rate": successes / trials,
        "empirical_download": float(downloads.mean()),
        "download_stderr": stderr,
        "theoretical_download": download_cost(scheme),
        # null marks a message no trial drew
        "per_message_download": [
            total / count if count else None
            for total, count in zip(per_k_total.tolist(), per_k_count.tolist())
        ],
        "query_frequencies": freq_maps,
        "max_freq_deviation": max_dev,
        "provenance": {"wpir": __version__, "rng_scheme": RNG_SCHEME},
    }


def binomial_bound(p: float, trials: int) -> float:
    """Concentration bound for one frequency cell."""
    # four standard deviations of a cell's frequency over `trials` draws
    return 4.0 * np.sqrt(p * (1.0 - p) / trials)
