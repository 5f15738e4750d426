"""The retrieval scheme combining the vector-key base code with a
single-server full-message download pattern.

A direct key F = n makes the user request the whole message from server n
(query #_k) while every other server receives the all-zero vector, which is
also a legitimate base-code query; both produce an empty answer, and this
overlap is deliberate - it is what the leakage accounting relies on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

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
    answer_length,
    enumerate_keys,
    json_field,
    json_int,
    key_probability,
)
from .tsc import Answer, MalformedAnswers, tsc_answer, tsc_decode, tsc_query


@dataclass(frozen=True)
class WpirScheme:
    params: SystemParams
    dist: PatternDistribution

    def __post_init__(self):
        self.dist.validate(self.params)

    def to_json(self) -> dict:
        return {
            "N": self.params.num_servers,
            "K": self.params.num_messages,
            "dist": self.dist.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "WpirScheme":
        params = SystemParams(json_field(obj, "N", json_int), json_field(obj, "K", json_int))
        return cls(
            params, json_field(obj, "dist", lambda d: PatternDistribution.from_json(params, d))
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @classmethod
    def loads(cls, text: str) -> "WpirScheme":
        return cls.from_json(json.loads(text))


def wpir_query(scheme: WpirScheme, k: int, key: RandomKey, n: int) -> Query:
    if isinstance(key, DirectKey):
        if key.server == n:
            return DirectRequest(k)
        return QueryVector((0,) * scheme.params.num_messages)
    return tsc_query(scheme.params, k, key, n)


def wpir_answer(scheme: WpirScheme, q: Query, store: MessageStore) -> Answer:
    if isinstance(q, DirectRequest):
        return store.message(q.message)
    return tsc_answer(scheme.params, q, store)


def wpir_decode(
    scheme: WpirScheme, k: int, key: RandomKey, answers: Sequence[Answer]
) -> tuple[int, ...]:
    if isinstance(key, DirectKey):
        L = scheme.params.message_length
        for n in range(1, scheme.params.num_servers + 1):
            expected = L if n == key.server else 0
            if len(answers[n - 1]) != expected:
                raise MalformedAnswers(
                    f"server {n}: expected {expected} symbols, got {len(answers[n - 1])}"
                )
        return tuple(answers[key.server - 1])
    return tsc_decode(scheme.params, k, key, answers)


def direct_fraction(scheme: WpirScheme) -> float:
    """Overall probability p_d of a direct (interference-free) download."""
    N = scheme.params.num_servers
    return N * (scheme.dist.p_direct + scheme.dist.p_weights[0])


def download_cost(scheme: WpirScheme) -> float:
    """Expected downloaded symbols per message symbol.

    Direct downloads cost exactly L symbols; every other pattern downloads
    one symbol from each of the N servers, i.e. N/(N-1) per message symbol.
    """
    N = scheme.params.num_servers
    p_d = direct_fraction(scheme)
    return p_d + N / (N - 1) * (1 - p_d)


def download_cost_by_enumeration(scheme: WpirScheme, k: int) -> float:
    """Enumeration oracle for the cost of retrieving message k."""
    params = scheme.params
    L = params.message_length
    total = 0.0
    for key in enumerate_keys(params):
        p = key_probability(params, scheme.dist, key)
        if p == 0.0:
            continue
        symbols = sum(
            answer_length(params, wpir_query(scheme, k, key, n))
            for n in range(1, params.num_servers + 1)
        )
        total += p * symbols
    return total / L
