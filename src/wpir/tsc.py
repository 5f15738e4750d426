"""Capacity-achieving base code with a uniform cyclic shift in the key.

The key is (f_1, ..., f_{K-1}, u); the query to server n places the desired
symbol index (u + n) mod N at position k and the interference digits at the
remaining positions. Each server answers with the XOR of one symbol per
message, addressed by the query digits; zero digits address the dummy symbol
and contribute nothing.

`tsc_query` builds one query object for one key. `tsc_codes` is the same
map on integers, and on integer arrays: a digit vector's code reads it as a
base-N number, first digit most significant, so code c is the c-th vector
of `digit_vectors`. The query-law oracle takes it for every key at once
(`tsc_query_codes`, where the key (f, u) has code f_code * N + u, its index
among the vector keys of `enumerate_keys`), and the simulator for every
trial of a block at every server.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .core import (
    MessageStore,
    QueryVector,
    SystemParams,
    TscKey,
    check_enumerable,
    key_weight,
)

if TYPE_CHECKING:
    import numpy as np

Answer = tuple[int, ...]


class MalformedAnswers(Exception):
    """An answer's length does not match the length its query determines."""


def tsc_query(params: SystemParams, k: int, key: TscKey, n: int) -> QueryVector:
    """Query for message k to server n: shifted desired index inserted at slot k."""
    N = params.num_servers
    digits = key.f[: k - 1] + (((key.u + n) % N),) + key.f[k - 1 :]
    return QueryVector(digits)


def tsc_codes(params: SystemParams, k, f_code, u, n):
    """The code of `tsc_query(params, k, TscKey(f, u), n)`, where f_code reads
    f as a base-N number, first digit most significant. The arguments are
    integers or integer arrays that broadcast together.

    Slot k splits f_code into (hi, lo) = divmod(f_code, M) with M = N^(K-k),
    and the query's code is hi * N * M + ((u + n) mod N) * M + lo.
    """
    N, K = params.num_servers, params.num_messages
    M = N ** (K - k)
    hi, lo = divmod(f_code, M)
    return (hi * (N * M) + lo) + (u + n) % N * M


def tsc_query_codes(params: SystemParams, k: int, n: int) -> np.ndarray:
    """The code of `tsc_query(params, k, key, n)` for every vector key, in key
    code order, as an int64 array; raises TooLarge beyond MAX_ENUM_KEYS."""
    import numpy as np

    check_enumerable(params)
    N, K = params.num_servers, params.num_messages
    f_code = np.arange(N ** (K - 1), dtype=np.int64)[:, None]
    return tsc_codes(params, k, f_code, np.arange(N, dtype=np.int64), n).ravel()


def tsc_answer(q: QueryVector, store: MessageStore) -> Answer:
    """XOR of W_m[q_m] over all m; empty when every digit addresses the dummy."""
    if q.is_zero():
        return ()
    acc = 0
    for message, digit in zip(store.messages, q.digits):
        if digit:  # digit 0 addresses the dummy zero symbol
            acc ^= message[digit - 1]
    return (acc,)


def interference_server(params: SystemParams, key: TscKey) -> int:
    """The server n0 with (u + n0) mod N == 0; it holds only interference."""
    N = params.num_servers
    return (-key.u) % N or N


def tsc_decode(
    params: SystemParams, k: int, key: TscKey, answers: Sequence[Answer]
) -> tuple[int, ...]:
    """Recover the L symbols of W_k by cancelling the interference signal.

    Only a weight-0 key sends a zero query, to server n0, which answers
    nothing; every other server answers one symbol.
    """
    N, L = params.num_servers, params.message_length
    n0 = interference_server(params, key)
    weight_0 = key_weight(key) == 0
    for n in range(1, N + 1):
        expected = 0 if weight_0 and n == n0 else 1
        if len(answers[n - 1]) != expected:
            raise MalformedAnswers(
                f"server {n}: expected {expected} symbols, got {len(answers[n - 1])}"
            )
    interference = 0 if weight_0 else answers[n0 - 1][0]
    out = [0] * L
    for n in range(1, N + 1):
        if n == n0:
            continue
        i = (key.u + n) % N  # in 1..L since n != n0
        out[i - 1] = answers[n - 1][0] ^ interference
    return tuple(out)
