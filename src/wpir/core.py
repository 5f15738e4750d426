"""Shared domain types for the retrieval scheme.

Symbols are bytes (integers in 0..255); the group operation on symbols is
bytewise XOR, so subtraction equals addition. Servers are numbered 1..N,
messages 1..K, and symbol positions 0..L with position 0 a dummy zero
symbol that is never stored or transmitted.

The module is plain Python: only `MessageStore.random`, which draws a store
from a seeded numpy generator, imports numpy, and only when it is called.

Keys, queries and distributions are frozen dataclasses with slots, so an
instance costs about what the tuple of its fields costs and has no
`__dict__`. The enumeration oracle makes one query per key and message at a
server, and the simulator's trial loop one key and N queries per trial.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Sequence, Union

SYMBOL_ORDER = 256  # alphabet GF(2^8) under XOR

#: Marker returned by :func:`key_weight` for direct-download keys.
DIRECT = "direct"

NORMALIZATION_TOL = 1e-12

#: Enumeration guard: refuse to walk vector spaces larger than this.
MAX_ENUM_KEYS = 10**7


class TooLarge(Exception):
    """The N^K vector space exceeds the enumeration budget."""


@dataclass(frozen=True)
class SystemParams:
    """Scheme instance parameters: N servers, K messages, length L = N - 1."""

    num_servers: int
    num_messages: int

    def __post_init__(self):
        if self.num_servers < 2:
            raise ValueError(f"need at least 2 servers, got {self.num_servers}")
        if self.num_messages < 2:
            raise ValueError(f"need at least 2 messages, got {self.num_messages}")
        # N^K enters the probabilities as a float, and floats end below 2^1024
        if self.num_messages * math.log2(self.num_servers) >= 1024:
            raise ValueError(
                f"N^K = {self.num_servers}^{self.num_messages} is beyond float range"
            )

    @property
    def message_length(self) -> int:
        return self.num_servers - 1


@dataclass(frozen=True)
class MessageStore:
    """K messages of L symbols each; position 0, the dummy zero, is not stored."""

    params: SystemParams
    messages: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        K, L = self.params.num_messages, self.params.message_length
        if len(self.messages) != K:
            raise ValueError(f"expected {K} messages, got {len(self.messages)}")
        for m in self.messages:
            if len(m) != L:
                raise ValueError(f"expected {L} symbols per message, got {len(m)}")

    def message(self, k: int) -> tuple[int, ...]:
        return self.messages[k - 1]

    @classmethod
    def random(cls, params: SystemParams, seed: int) -> "MessageStore":
        import numpy as np

        rng = np.random.default_rng(seed)
        vals = rng.integers(0, SYMBOL_ORDER, size=(params.num_messages, params.message_length))
        return cls(params, tuple(tuple(int(v) for v in row) for row in vals))


@dataclass(frozen=True, slots=True)
class DirectKey:
    """Key selecting a full-message download from one server."""

    server: int


@dataclass(frozen=True, slots=True)
class TscKey:
    """Vector key: K-1 interference digits plus the cyclic shift digit u."""

    f: tuple[int, ...]
    u: int


RandomKey = Union[DirectKey, TscKey]


@dataclass(frozen=True, slots=True)
class DirectRequest:
    """Query asking one server for message `message` in full."""

    message: int


@dataclass(frozen=True, slots=True)
class QueryVector:
    """Length-K digit vector query; the all-zero vector is distinguished."""

    digits: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.digits)


Query = Union[DirectRequest, QueryVector]


def key_weight(key: RandomKey):
    """Interference size |F|: Hamming weight of the first K-1 digits.

    Returns the DIRECT marker for direct keys.
    """
    if isinstance(key, DirectKey):
        return DIRECT
    return len(key.f) - key.f.count(0)


def answer_length(params: SystemParams, query: Query) -> int:
    """Number of answer symbols; a function of the query only, never the messages."""
    if isinstance(query, DirectRequest):
        return params.message_length
    return 0 if query.is_zero() else 1


@dataclass(frozen=True, slots=True)
class PatternDistribution:
    """Per-pattern-class key probabilities.

    ``p_direct`` is the probability of each individual direct key; entry w of
    ``p_weights`` is the probability of each individual vector key whose
    interference digits have Hamming weight w.
    """

    p_direct: float
    p_weights: tuple[float, ...]

    def __post_init__(self):
        for p in (self.p_direct, *self.p_weights):
            if not 0.0 <= p < math.inf:  # also false for NaN
                raise ValueError(f"probabilities must be finite and nonnegative, got {p}")

    def total_mass(self, params: SystemParams) -> float:
        N = params.num_servers
        counts = weight_class_counts(N, params.num_messages)
        return N * self.p_direct + N * _left_sum(
            c * p for c, p in zip(counts, self.p_weights, strict=True)
        )

    def validate(self, params: SystemParams) -> None:
        if len(self.p_weights) != params.num_messages:
            raise ValueError(
                f"expected {params.num_messages} weight classes, got {len(self.p_weights)}"
            )
        mass = self.total_mass(params)
        if abs(mass - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"distribution not normalized: total mass {mass!r}")

    @classmethod
    def uniform(cls, params: SystemParams) -> "PatternDistribution":
        """All N^K vector keys equally likely, no direct pattern."""
        N, K = params.num_servers, params.num_messages
        return cls(0.0, (N ** -K,) * K)

    @classmethod
    def pure_direct(cls, params: SystemParams) -> "PatternDistribution":
        """Only the single-server full-download pattern."""
        return cls(1.0 / params.num_servers, (0.0,) * params.num_messages)

    def to_json(self) -> dict:
        return {"p_direct": self.p_direct, "p_weights": list(self.p_weights)}

    @classmethod
    def from_json(cls, obj: dict) -> "PatternDistribution":
        """The distribution of a parsed JSON object; `WpirScheme` validates it."""
        return cls(
            json_field(obj, "p_direct", json_float),
            json_field(obj, "p_weights", _json_floats),
        )


def _json_floats(value) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return tuple(json_float(p) for p in value)


def json_float(value) -> float:
    """A JSON number: an int (not a bool) or a float."""
    if type(value) is int:
        return float(value)
    if type(value) is not float:
        raise ValueError(f"expected a number, got {value!r}")
    return value


def json_int(value) -> int:
    """A JSON integer, or a float with an integral value such as 3.0."""
    if type(value) is float and value.is_integer():
        return int(value)
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def json_field(obj, name: str, convert):
    """`convert(obj[name])` for a parsed JSON object; ValueError naming the
    field if `obj` is not an object, the field is missing, or it does not convert."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object with field {name!r}, got {type(obj).__name__}")
    if name not in obj:
        raise ValueError(f"missing field {name!r}")
    try:
        return convert(obj[name])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"invalid field {name!r}: {exc}") from None


def _left_sum(values: Iterable[float]) -> float:
    """0.0 + v_1 + v_2 + ..., rounded at each step from the left.

    These are the bits `sum()` gives floats up to Python 3.11. From 3.12
    `sum()` compensates its rounding, so printed values would depend on the
    Python version. Private, so the benchmark's tracer (`bench/spans.py`),
    which spans every public function, does not span each sum.
    """
    return functools.reduce(operator.add, values, 0.0)


@functools.lru_cache(maxsize=16)
def weight_class_counts(N: int, K: int) -> tuple[int, ...]:
    """C(K-1, w)(N-1)^w for w = 0..K-1: the interference-digit vectors of
    weight w, i.e. the vector keys of weight w for each value of u.

    This and the other per-size tables keep only the last few sizes, so a
    sweep over many (N, K) in one process holds a bounded amount."""
    return tuple(comb(K - 1, w) * (N - 1) ** w for w in range(K))


def check_enumerable(params: SystemParams) -> None:
    """Raise TooLarge if the N^K vector space exceeds MAX_ENUM_KEYS."""
    N, K = params.num_servers, params.num_messages
    if N**K > MAX_ENUM_KEYS:
        raise TooLarge(f"N^K = {N}^{K} exceeds the enumeration guard of {MAX_ENUM_KEYS}")


def digit_vectors(params: SystemParams) -> Iterator[tuple[int, ...]]:
    """All N^K digit vectors in lex order; raises TooLarge beyond MAX_ENUM_KEYS."""
    check_enumerable(params)
    return itertools.product(range(params.num_servers), repeat=params.num_messages)


def enumerate_keys(params: SystemParams) -> Iterator[RandomKey]:
    """All N^K + N keys: direct keys, then vector keys in lex order; the first
    draw raises TooLarge beyond MAX_ENUM_KEYS."""
    N, K = params.num_servers, params.num_messages
    vectors = digit_vectors(params)
    for server in range(1, N + 1):
        yield DirectKey(server)
    for digits in vectors:
        yield TscKey(digits[: K - 1], digits[K - 1])


def key_probability(dist: PatternDistribution, key: RandomKey) -> float:
    """Probability of an individual key under the pattern distribution."""
    if isinstance(key, DirectKey):
        return dist.p_direct
    return dist.p_weights[key_weight(key)]


def class_probabilities(params: SystemParams, dist: PatternDistribution) -> list[float]:
    """Total mass of each pattern class: [direct, weight 0, ..., weight K-1]."""
    N = params.num_servers
    out = [N * dist.p_direct]
    for c, p in zip(weight_class_counts(N, params.num_messages), dist.p_weights):
        out.append(N * c * p)
    return out

