"""Symbolic rendering of the scheme's query/answer tables.

Messages 1, 2, 3, ... are written a, b, c, ... with 1-based subscripts;
empty answers render as the empty-set sign.
"""

from __future__ import annotations

import itertools

from .core import (
    DirectKey,
    DirectRequest,
    Query,
    RandomKey,
    SystemParams,
    check_enumerable,
    enumerate_keys,
    key_weight,
)
from .scheme import wpir_query

EMPTY = "∅"
XOR = "⊕"


def message_letter(m: int) -> str:
    return chr(ord("a") + m - 1)


def _digits_label(digits: tuple[str, ...]) -> str:
    """The written digits in a row, as at N <= 10; comma-separated when a
    digit has two places, so that a label reads back as one digit vector at
    every N."""
    label = "".join(digits)
    return label if len(label) == len(digits) else ",".join(digits)


def query_label(q: Query) -> str:
    if isinstance(q, DirectRequest):
        return f"#{q.message}"
    return _digits_label(tuple(map(str, q.digits)))


def _code_labels(params: SystemParams) -> list[str]:
    """`query_label` of every query in code order, the rows of the oracle's
    law (`leakage.enumerate_query_law`): the vectors of `digit_vectors`, then
    #1..#K. Makes no query object, and raises TooLarge beyond MAX_ENUM_KEYS."""
    check_enumerable(params)
    digits = [str(d) for d in range(params.num_servers)]
    labels = list(map(_digits_label, itertools.product(digits, repeat=params.num_messages)))
    labels += [f"#{k}" for k in range(1, params.num_messages + 1)]
    return labels


def symbolic_answer(params: SystemParams, q: Query) -> str:
    """Answer contents as a symbolic expression, e.g. 'a_2⊕b_1'."""
    if isinstance(q, DirectRequest):
        letter = message_letter(q.message)
        return ",".join(f"{letter}_{i}" for i in range(1, params.message_length + 1))
    terms = [
        f"{message_letter(m)}_{d}" for m, d in enumerate(q.digits, start=1) if d != 0
    ]
    return XOR.join(terms) if terms else EMPTY


def probability_class(key: RandomKey) -> str:
    return "p'0" if isinstance(key, DirectKey) else f"p{key_weight(key)}"


def key_label(key: RandomKey) -> str:
    if isinstance(key, DirectKey):
        return str(key.server)
    return _digits_label(tuple(map(str, (*key.f, key.u))))


def table_rows(params: SystemParams, k: int) -> list[tuple[str, ...]]:
    """One row per key, in printed column order: probability class, key, then
    each server's query and answer."""
    rows = []
    for key in enumerate_keys(params):
        row = [probability_class(key), key_label(key)]
        for n in range(1, params.num_servers + 1):
            q = wpir_query(params, k, key, n)
            row += [query_label(q), symbolic_answer(params, q)]
        rows.append(tuple(row))
    return rows


def format_table(params: SystemParams, k: int) -> str:
    header = ["P_F(F)", "F"]
    for n in range(1, params.num_servers + 1):
        header.extend([f"Q[{k}]_{n}", f"A_{n}"])
    rows = [header, *table_rows(params, k)]
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
