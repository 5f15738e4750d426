"""Exact leakage of the per-server query distribution.

Both metrics are functions of the conditional laws P(Q_n = q | M = k)
alone. At every server that law has K + 2 distinct rows up to the order of
messages, one per query class, and the leakage engine works on those rows.
Per-key enumeration of the law is the exact oracle the engine is checked
against; `leakage_report` evaluates it at every server. All values are in
bits; 0 log 0 = 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb, fsum, log2
from typing import Literal

from .core import (
    PatternDistribution,
    Query,
    SystemParams,
    enumerate_keys,
    key_probability,
)
from .scheme import WpirScheme, wpir_query

PROB_TOL = 1e-12

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
    and p_w under the rest (p_K = 0). The zero vector also receives every
    direct key aimed at another server. Index K + 1 holds the K direct
    requests #k, each with probability p_direct under message k only.
    """
    N, K = params.num_servers, params.num_messages
    p = list(dist.p_weights) + [0.0]
    classes = [(1, 0, 0.0, K, p[0] + (N - 1) * dist.p_direct)]
    classes += [
        (size, w, p[w - 1], K - w, p[w])
        for w, size in enumerate(_query_class_sizes(N, K), start=1)
    ]
    classes.append((K, 1, dist.p_direct, K - 1, 0.0))
    return classes


@functools.lru_cache(maxsize=16)
def _query_class_sizes(N: int, K: int) -> tuple[int, ...]:
    """C(K, w)(N-1)^w for w = 1..K: the digit vectors of weight w."""
    return tuple(comb(K, w) * (N - 1) ** w for w in range(1, K + 1))


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
# it; fsum rounds exactly in any order, so its sums need no sorting


@dataclass(frozen=True)
class QueryLaw:
    """Conditional query law at one server, one row per query it can receive.

    Row q holds P(Q_n = q | M = k) at index k - 1, and 0.0 where message k
    never sends q.
    """

    rows: dict[Query, list[float]]

    def validate(self) -> None:
        for k, total in enumerate(map(fsum, zip(*self.rows.values())), start=1):
            if abs(total - 1.0) > PROB_TOL:
                raise ValueError(f"conditional law for message {k} sums to {total!r}")


def enumerate_query_law(scheme: WpirScheme, n: int) -> QueryLaw:
    """Query law at server n by walking every key; raises TooLarge beyond MAX_ENUM_KEYS."""
    params, dist = scheme.params, scheme.dist
    K = params.num_messages
    # each key's probability once per call, not once per message
    keys = [(key, p) for key in enumerate_keys(params) if (p := key_probability(dist, key))]
    rows: dict[Query, list[float]] = {}
    # the probabilities of the keys reaching a cell that several keys reach
    # (the zero vector), summed once the walk is done
    shared: dict[tuple[Query, int], list[float]] = {}
    for k in range(K):
        for key, p in keys:
            q = wpir_query(scheme, k + 1, key, n)
            row = rows.get(q)
            if row is None:
                rows[q] = row = [0.0] * K
            elif row[k]:
                shared.setdefault((q, k), [row[k]]).append(p)
                continue
            row[k] = p
    for (q, k), ps in shared.items():
        rows[q][k] = fsum(ps)
    law = QueryLaw(rows)
    law.validate()
    return law


def maximal_leakage(law: QueryLaw) -> float:
    """log2 of the sum over queries of the best conditional probability."""
    return log2(fsum(map(max, law.rows.values())))


def mutual_info_leakage(law: QueryLaw) -> float:
    """I(M; Q_n) in bits, with the message index uniform."""

    def terms():
        for row in law.rows.values():
            K = len(row)
            marginal = fsum(row) / K
            yield from (p / K * log2(p / marginal) for p in row if p > 0.0)

    return fsum(terms())


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
