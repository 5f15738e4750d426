"""Shared domain types for the retrieval scheme.

The module serves both tiers and imports no other module of the package.
For the class tier it holds the parameters, the pattern distribution, the
scheme (`WpirScheme`) and its closed-form `download_cost`; for the per-key
reference tier, the keys, queries and their enumeration.

Symbols are bytes (integers in 0..255); the group operation on symbols is
bytewise XOR, so subtraction equals addition. Servers are numbered 1..N,
messages 1..K, and symbol positions 0..L with position 0 a dummy zero
symbol that is never stored or transmitted.

The module is plain Python except for three functions, which import numpy
only when they are called: `MessageStore.random` draws a store from a
seeded numpy generator, `vector_key_probabilities` gives the query-law
oracle every vector key's probability as one array, and `_digit_weights`,
the digit fold behind it, gives the simulator every query code's weight.

Keys, queries and distributions are frozen dataclasses with slots, so an
instance costs about what the tuple of its fields costs and has no
`__dict__`. The simulator's trial loop makes one key and N queries per
trial. The query-law oracle makes none: it walks keys and queries as
arrays of integer codes, with each vector key's probability from
`vector_key_probabilities` and its query's code from `tsc.tsc_codes`.
The download-cost oracle still makes one query per key, message and server.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

SYMBOL_ORDER = 256  # alphabet GF(2^8) under XOR

#: How far from 1 a total probability may lie: a distribution's mass, and
#: each message's conditional query law in the oracle (`leakage.validate_law`)
PROB_TOL = 1e-12

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


def key_weight(key: TscKey) -> int:
    """Interference size |F|: Hamming weight of the first K-1 digits."""
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
        return math.fsum(class_probabilities(params, self))

    def validate(self, params: SystemParams) -> None:
        if len(self.p_weights) != params.num_messages:
            raise ValueError(
                f"expected {params.num_messages} weight classes, got {len(self.p_weights)}"
            )
        mass = self.total_mass(params)
        if abs(mass - 1.0) > PROB_TOL:
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


@dataclass(frozen=True)
class WpirScheme:
    """The scheme at one size: parameters and a validated pattern distribution."""

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


def download_cost(scheme: WpirScheme) -> float:
    """Expected downloaded symbols per message symbol.

    Direct downloads cost exactly L symbols; every other pattern downloads
    one symbol from each of the N servers, i.e. N/(N-1) per message symbol.
    The direct downloads are the direct keys and the weight-0 vector keys.
    """
    N = scheme.params.num_servers
    p_d = N * (scheme.dist.p_direct + scheme.dist.p_weights[0])
    return p_d + N / (N - 1) * (1 - p_d)


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


def vector_key_probabilities(params: SystemParams, dist: PatternDistribution) -> np.ndarray:
    """`key_probability` of every vector key, in `enumerate_keys`' order, as a
    float64 array: the entry of key (f, u) is `dist.p_weights[w]`, w the
    weight of f, at index f_code * N + u, where f_code reads f as a base-N
    number, first digit most significant. Raises TooLarge beyond MAX_ENUM_KEYS."""
    import numpy as np

    check_enumerable(params)
    N, K = params.num_servers, params.num_messages
    return np.asarray(dist.p_weights, dtype=np.float64)[_digit_weights(N, K - 1).repeat(N)]


def _digit_weights(N: int, length: int) -> np.ndarray:
    """The weight (number of nonzero digits) of every base-N digit vector of
    `length` digits, in lex order, as an intp array: entry c is the weight of
    the vector c reads as, first digit most significant."""
    import numpy as np

    step = np.minimum(np.arange(N), 1)
    weights = np.zeros(1, dtype=np.intp)
    for _ in range(length):
        weights = (weights[:, None] + step).ravel()
    return weights


def class_probabilities(params: SystemParams, dist: PatternDistribution) -> list[float]:
    """Total mass of each pattern class: [direct, weight 0, ..., weight K-1]."""
    N = params.num_servers
    out = [N * dist.p_direct]
    for c, p in zip(weight_class_counts(N, params.num_messages), dist.p_weights, strict=True):
        out.append(N * c * p)
    return out

