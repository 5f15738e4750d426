"""Symbolic rendering of the scheme's query/answer tables.

Messages 1, 2, 3, ... are written a, b, c, ... with 1-based subscripts;
empty answers render as the empty-set sign.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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
    """`query_label` of every query in code order (`leakage.QueryLaw.rows`):
    the vectors of `digit_vectors`, then #1..#K. Makes no query object, and
    raises TooLarge beyond MAX_ENUM_KEYS."""
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


@dataclass(frozen=True)
class TableRow:
    prob_class: str
    key: str
    queries: tuple[str, ...]
    answers: tuple[str, ...]

    def cells(self) -> tuple:
        # probability class, then interleaved (query, answer) per server;
        # the key label is excluded so rows within a probability class compare as sets
        out = [self.prob_class]
        for q, a in zip(self.queries, self.answers):
            out.extend([q, a])
        return tuple(out)


def table_rows(params: SystemParams, k: int) -> list[TableRow]:
    """One row per key: probability class, per-server query and answer."""
    rows = []
    for key in enumerate_keys(params):
        queries = [wpir_query(params, k, key, n) for n in range(1, params.num_servers + 1)]
        rows.append(
            TableRow(
                probability_class(key),
                key_label(key),
                tuple(query_label(q) for q in queries),
                tuple(symbolic_answer(params, q) for q in queries),
            )
        )
    return rows


def format_table(params: SystemParams, k: int) -> str:
    rows = table_rows(params, k)
    header = ["P_F(F)", "F"]
    for n in range(1, params.num_servers + 1):
        header.extend([f"Q[{k}]_{n}", f"A_{n}"])
    body = [[r.prob_class, r.key, *sum(zip(r.queries, r.answers), ())] for r in rows]
    widths = [max(len(str(row[i])) for row in [header, *body]) for i in range(len(header))]
    lines = []
    for row in [header, *body]:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
