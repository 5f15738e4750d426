"""Exact leakage of the per-server query distribution.

Both metrics are functions of the conditional laws P(Q_n = q | M = k)
alone. At every server that law has K + 2 distinct rows up to the order of
messages, one per query class, and the leakage engine works on those rows.
Per-key enumeration of the law is the exact oracle the engine is checked
against; `leakage_report` evaluates it at every server. The oracle holds a
server's law as one float64 array with a row per query code
(`tsc.tsc_query_codes`): for each message it scatters every vector key's
probability to the row of the query the key sends, and it makes no query
object. Both metrics work on that array. The walk and `query_classes` both
give the zero vector, which several keys send, the exact sum of their
probabilities, so a query's row, read off its class, is the oracle's row
bit for bit; the simulator's frequency check reads one marginal per class.
All values are in bits; 0 log 0 = 0.

The class law belongs to the class tier and takes no per-key object; the
oracle belongs to the per-key reference tier. The oracle imports numpy and
`tsc` when it runs, so importing this module loads neither.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import fsum, log2
from typing import TYPE_CHECKING, Literal

from .core import (
    PROB_TOL,
    PatternDistribution,
    SystemParams,
    vector_key_probabilities,
    weight_class_counts,
)

if TYPE_CHECKING:
    import numpy as np

    from .core import WpirScheme

Metric = Literal["maxl", "mi"]


# ---------------------------------------------------------------------------
# closed-form class law


#: (size, hits, hit, misses, miss): `size` queries, each with probability
#: `hit` under the `hits` messages it addresses and `miss` under the other
#: `misses` (0.0 for a side with no messages).
QueryClass = tuple[int, int, float, int, float]


def query_classes(params: SystemParams, dist: PatternDistribution) -> list[QueryClass]:
    """The K + 2 classes of the query law, identical at every server.

    Index w = 0..K holds the digit vectors of weight w: C(K, w)(N-1)^w of
    them, with probability p_{w-1} under the w messages whose slot is nonzero
    and p_w under the rest (p_K = 0). The count is c_w + (N-1) c_{w-1} by
    Pascal's rule, from the key counts c = `weight_class_counts` (c_K = 0).
    The zero vector, which one weight-0 key and the N - 1 direct keys aimed
    at other servers send, gets the exact sum of their probabilities, as
    `enumerate_query_law` gives it. Index K + 1 holds the K direct requests
    #k, each with probability p_direct under message k only.
    """
    N, K = params.num_servers, params.num_messages
    p = list(dist.p_weights) + [0.0]
    c = weight_class_counts(N, K) + (0,)
    classes = [(1, 0, 0.0, K, _exact_sum(p[0], N - 1, dist.p_direct))]
    classes += [(c[w] + (N - 1) * c[w - 1], w, p[w - 1], K - w, p[w]) for w in range(1, K + 1)]
    classes.append((K, 1, dist.p_direct, K - 1, 0.0))
    return classes


def _exact_sum(a: float, m: int, b: float) -> float:
    """`fsum([a] + [b] * m)` without the list: a + m b as a ratio of
    integers, rounded once by `int / int`, which rounds correctly."""
    a_num, a_den = a.as_integer_ratio()
    b_num, b_den = b.as_integer_ratio()
    return (a_num * b_den + m * b_num * a_den) / (a_den * b_den)


def _xlog(v: float) -> float:
    return v * log2(v) if v > 0.0 else 0.0


def class_leakage(params: SystemParams, dist: PatternDistribution, metric: Metric) -> float:
    """Leakage at any server, in bits, from the K + 2 query classes."""
    classes = query_classes(params, dist)
    if metric == "maxl":
        return log2(fsum(size * max(hit, miss) for size, _, hit, _, miss in classes))
    K = params.num_messages
    total = 0.0
    for size, hits, hit, misses, miss in classes:
        mass = hits * hit + misses * miss
        term = hits * _xlog(hit) + misses * _xlog(miss)
        if mass > 0.0:
            ratio = mass / K
            # a subnormal mass can underflow to 0 when divided by K
            term -= mass * (log2(ratio) if ratio else log2(mass) - log2(K))
        total += size * term
    # MI is a divergence, so a negative total is rounding
    return max(total / K, 0.0)


# ---------------------------------------------------------------------------
# per-key enumeration: the exact oracle and the per-server report built on
# it; fsum rounds the exact sum of its inputs whatever their order, so no sum
# is sorted, and a column is summed in full only where a bounded estimate
# cannot decide its check

#: rows per block of the estimate in `QueryLaw.validate`
_SUM_BLOCK = 128

_GAMMA = (_SUM_BLOCK - 1) * 2.0**-53 / (1 - (_SUM_BLOCK - 1) * 2.0**-53)

#: `QueryLaw.validate`'s bound on the estimate's distance from the column's
#: `fsum`, per unit of the estimate: twice gamma_{B-1} + 2u, where u = 2^-53
#: and gamma_m = m u / (1 - m u) bounds the relative error of any-order
#: summation of m + 1 nonnegative floats (Higham, Accuracy and Stability of
#: Numerical Algorithms, section 4.2); the 2u covers rounding both totals
_BLOCK_SLACK = 2 * (_GAMMA + 2 * 2.0**-53)


@dataclass(frozen=True)
class QueryLaw:
    """Conditional query law at one server, one row per query code.

    `rows` is a float64 array of shape (N^K + K, K): row c < N^K is the c-th
    vector of `digit_vectors`, and row N^K + k - 1 is #k. The row of query q
    holds P(Q_n = q | M = k) at index k - 1, and 0.0 where message k never
    sends q.
    """

    rows: np.ndarray

    def validate(self) -> None:
        """Raise ValueError unless every column's `fsum` is within PROB_TOL of 1.

        With nonnegative entries, numpy's sum of a block of B rows, in any
        order, is within gamma_{B-1} of the block's exact sum, so `fsum` of
        the block sums is within `_BLOCK_SLACK` times itself of the column's
        `fsum`. A column whose estimate passes by more than that passes; any
        other column, and every column of a law with a negative or NaN entry,
        is decided by `fsum` over the whole column.
        """
        import numpy as np

        rows = self.rows
        bounded = rows.min(initial=0.0) >= 0.0  # NaN compares False
        blocks = np.add.reduceat(rows, np.arange(0, len(rows), _SUM_BLOCK), axis=0)
        for k, (column, sums) in enumerate(zip(rows.T, blocks.T.tolist()), start=1):
            if bounded:
                estimate = fsum(sums)
                if abs(estimate - 1.0) + _BLOCK_SLACK * estimate < PROB_TOL:
                    continue
            total = fsum(column.tolist())
            if abs(total - 1.0) > PROB_TOL:
                raise ValueError(f"conditional law for message {k} sums to {total!r}")


def enumerate_query_law(scheme: WpirScheme, n: int) -> QueryLaw:
    """Query law at server n by walking every key; raises TooLarge beyond MAX_ENUM_KEYS.

    The walk runs on codes (`tsc.tsc_query_codes`), in `enumerate_keys`'
    order: for each message it scatters every vector key's probability to
    the code of the query it sends. Only the zero vector, code 0, is reached
    by several keys: one weight-0 key and the N - 1 direct keys aimed at
    other servers, and its cell gets the exact sum of their probabilities.
    The direct key aimed at server n sends #k.
    """
    import numpy as np

    from .tsc import tsc_query_codes

    params, dist = scheme.params, scheme.dist
    N, K = params.num_servers, params.num_messages
    probs = vector_key_probabilities(params, dist)
    rows = np.zeros((N**K + K, K))
    for k in range(K):
        rows[tsc_query_codes(params, k + 1, n), k] = probs
        rows[0, k] = _exact_sum(float(rows[0, k]), N - 1, dist.p_direct)
    rows[N**K :][np.diag_indices(K)] = dist.p_direct
    law = QueryLaw(rows)
    law.validate()
    return law


def maximal_leakage(law: QueryLaw) -> float:
    """log2 of the sum over queries of the best conditional probability."""
    import numpy as np

    # the row maxima, a column at a time: the same values as max(axis=1)
    best = functools.reduce(np.maximum, law.rows.T)
    return log2(fsum(memoryview(best)))


def mutual_info_leakage(law: QueryLaw) -> float:
    """I(M; Q_n) in bits, with the message index uniform."""
    import numpy as np

    K = law.rows.shape[1]
    total = law.rows.sum(axis=1, keepdims=True)
    marginal = total / K
    # a subnormal row sum can underflow to 0 when divided by K
    under = ((total > 0.0) & (marginal == 0.0))[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = law.rows / marginal
        np.log2(terms, out=terms)
        terms[under] = np.log2(law.rows[under]) - (np.log2(total[under]) - log2(K))
        terms *= law.rows / K
    return fsum(memoryview(terms[law.rows > 0.0]))


@dataclass(frozen=True)
class LeakageReport:
    metric: Metric
    value: float
    per_server: tuple[float, ...]


def leakage_report(scheme: WpirScheme, metric: Metric) -> LeakageReport:
    """Leakage at every server by enumeration; by construction symmetry all values agree."""
    fn = maximal_leakage if metric == "maxl" else mutual_info_leakage
    values = tuple(
        fn(enumerate_query_law(scheme, n))
        for n in range(1, scheme.params.num_servers + 1)
    )
    return LeakageReport(metric, max(values), values)
