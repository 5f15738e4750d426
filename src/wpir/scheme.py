"""The per-key functions of the retrieval scheme, which combines the
vector-key base code with a single-server full-message download pattern.

A direct key F = n makes the user request the whole message from server n
(query #_k) while every other server receives the all-zero vector, which is
also a legitimate base-code query; both produce an empty answer, and this
overlap is deliberate - it is what the leakage accounting relies on.

The scheme itself, `core.WpirScheme`, and its closed-form `download_cost`
belong to the class tier; this module is part of the reference tier.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .core import (
    DirectKey,
    DirectRequest,
    MessageStore,
    Query,
    QueryVector,
    RandomKey,
    SystemParams,
    answer_length,
    enumerate_keys,
    key_probability,
)
from .tsc import Answer, MalformedAnswers, tsc_answer, tsc_decode, tsc_query

if TYPE_CHECKING:
    from .core import WpirScheme


def wpir_query(params: SystemParams, k: int, key: RandomKey, n: int) -> Query:
    if isinstance(key, DirectKey):
        if key.server == n:
            return DirectRequest(k)
        return QueryVector((0,) * params.num_messages)
    return tsc_query(params, k, key, n)


def wpir_answer(q: Query, store: MessageStore) -> Answer:
    if isinstance(q, DirectRequest):
        return store.message(q.message)
    return tsc_answer(q, store)


def wpir_decode(
    params: SystemParams, k: int, key: RandomKey, answers: Sequence[Answer]
) -> tuple[int, ...]:
    if isinstance(key, DirectKey):
        L = params.message_length
        for n in range(1, params.num_servers + 1):
            expected = L if n == key.server else 0
            if len(answers[n - 1]) != expected:
                raise MalformedAnswers(
                    f"server {n}: expected {expected} symbols, got {len(answers[n - 1])}"
                )
        return tuple(answers[key.server - 1])
    return tsc_decode(params, k, key, answers)


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
            answer_length(params, wpir_query(params, k, key, n))
            for n in range(1, params.num_servers + 1)
        )
        total += p * symbols
    return total / L
