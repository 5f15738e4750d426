"""The retrieval scheme combining the vector-key base code with a
single-server full-message download pattern.

A direct key F = n makes the user request the whole message from server n
(query #_k) while every other server receives the all-zero vector, which is
also a legitimate base-code query; both produce an empty answer, and this
overlap is deliberate - it is what the leakage accounting relies on.
"""

from __future__ import annotations

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
        # built inside the field, so a distribution that fails validation is
        # reported as an invalid 'dist'
        return json_field(obj, "dist", lambda d: cls(params, PatternDistribution.from_json(d)))


def wpir_query(scheme: WpirScheme, k: int, key: RandomKey, n: int) -> Query:
    if isinstance(key, DirectKey):
        if key.server == n:
            return DirectRequest(k)
        return QueryVector((0,) * scheme.params.num_messages)
    return tsc_query(scheme.params, k, key, n)


def wpir_answer(q: Query, store: MessageStore) -> Answer:
    if isinstance(q, DirectRequest):
        return store.message(q.message)
    return tsc_answer(q, store)


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


def download_cost(scheme: WpirScheme) -> float:
    """Expected downloaded symbols per message symbol.

    Direct downloads cost exactly L symbols; every other pattern downloads
    one symbol from each of the N servers, i.e. N/(N-1) per message symbol.
    The direct downloads are the direct keys and the weight-0 vector keys.
    """
    N = scheme.params.num_servers
    p_d = N * (scheme.dist.p_direct + scheme.dist.p_weights[0])
    return p_d + N / (N - 1) * (1 - p_d)


def download_cost_by_enumeration(scheme: WpirScheme, k: int) -> float:
    """Enumeration oracle for the cost of retrieving message k."""
    params = scheme.params
    L = params.message_length
    total = 0.0
    for key in enumerate_keys(params):
        p = key_probability(scheme.dist, key)
        if p == 0.0:
            continue
        symbols = sum(
            answer_length(params, wpir_query(scheme, k, key, n))
            for n in range(1, params.num_servers + 1)
        )
        total += p * symbols
    return total / L
