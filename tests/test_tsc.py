import itertools

import numpy as np
import pytest

from wpir.core import (
    MessageStore,
    PatternDistribution,
    QueryVector,
    SystemParams,
    TooLarge,
    TscKey,
    answer_length,
    digit_vectors,
    enumerate_keys,
    key_weight,
)
from wpir.tsc import (
    MalformedAnswers,
    interference_server,
    tsc_answer,
    tsc_decode,
    tsc_query,
    tsc_query_codes,
)


def all_tsc_keys(params):
    N, K = params.num_servers, params.num_messages
    for digits in itertools.product(range(N), repeat=K):
        yield TscKey(digits[: K - 1], digits[K - 1])


def test_query_insertion(params_n3k2):
    # interference digit 1, shift placing the desired index 0 at server 3
    key = TscKey((1,), 0)
    qs = [tsc_query(params_n3k2, 1, key, n).digits for n in (1, 2, 3)]
    assert qs == [(1, 1), (2, 1), (0, 1)]


def test_all_zero_query(params_n3k2):
    key = TscKey((0,), 0)
    q = tsc_query(params_n3k2, 1, key, 3)  # (u + 3) mod 3 == 0
    assert q.is_zero()


@pytest.mark.parametrize("N,K", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_query_bijectivity(N, K):
    params = SystemParams(N, K)
    for k in range(1, K + 1):
        for n in range(1, N + 1):
            images = {tsc_query(params, k, key, n).digits for key in all_tsc_keys(params)}
            assert len(images) == N**K


def _code(digits, N):
    """The digits read as a base-N number, first digit most significant."""
    code = 0
    for d in digits:
        code = code * N + d
    return code


#: At each K, N = 2, 3 and the largest N with K N^(K+1) <= 3 * 10^5, which
#: counts the tsc_query calls the test below makes.
CODE_SIZES = [
    (N, K)
    for K in range(2, 7)
    for N in sorted({2, 3, max(N for N in range(2, 60) if K * N ** (K + 1) <= 3 * 10**5)})
]


@pytest.mark.parametrize("N,K", CODE_SIZES)
def test_query_codes_are_the_codes_of_tsc_query(N, K):
    params = SystemParams(N, K)
    keys = list(enumerate_keys(params))[N:]
    # key (f, u) has code f_code * N + u, its index among the vector keys
    assert [_code((*key.f, key.u), N) for key in keys] == list(range(N**K))
    # code c is the c-th of digit_vectors
    assert [_code(d, N) for d in digit_vectors(params)] == list(range(N**K))
    for k in range(1, K + 1):
        for n in range(1, N + 1):
            expected = [_code(tsc_query(params, k, key, n).digits, N) for key in keys]
            assert tsc_query_codes(params, k, n).tolist() == expected


def test_query_codes_guard():
    with pytest.raises(TooLarge):
        tsc_query_codes(SystemParams(10, 8), 1, 1)


def test_answers_match_symbol_xor(params_n3k2):
    store = MessageStore(params_n3k2, ((10, 20), (30, 40)))  # W1=(a1,a2), W2=(b1,b2)
    assert tsc_answer(QueryVector((2, 1)), store) == (20 ^ 30,)
    assert tsc_answer(QueryVector((0, 0)), store) == ()
    assert tsc_answer(QueryVector((1, 0)), store) == (10,)


def test_decode_single_row(params_n3k2):
    # key with interference digit 1, shift 0: answers (a1^b1, a2^b1, b1)
    store = MessageStore(params_n3k2, ((10, 20), (30, 40)))
    key = TscKey((1,), 0)
    answers = [
        tsc_answer(tsc_query(params_n3k2, 1, key, n), store) for n in (1, 2, 3)
    ]
    assert answers == [(10 ^ 30,), (20 ^ 30,), (30,)]
    assert tsc_decode(params_n3k2, 1, key, answers) == (10, 20)


def test_decode_weight_zero_key(params_n3k2):
    store = MessageStore(params_n3k2, ((10, 20), (30, 40)))
    key = TscKey((0,), 0)
    answers = [
        tsc_answer(tsc_query(params_n3k2, 1, key, n), store) for n in (1, 2, 3)
    ]
    assert answers == [(10,), (20,), ()]
    assert tsc_decode(params_n3k2, 1, key, answers) == (10, 20)


def test_decode_rejects_malformed(params_n3k2):
    key = TscKey((1,), 0)
    with pytest.raises(MalformedAnswers):
        tsc_decode(params_n3k2, 1, key, [(1,), (2,), ()])


@pytest.mark.parametrize("N,K", [(2, 2), (3, 2), (3, 3), (4, 3)])
def test_decode_checks_every_answer_length(N, K):
    # decode expects from the key alone the length each query determines, and
    # one symbol more or less at any one server is refused with that length
    params = SystemParams(N, K)
    store = MessageStore.random(params, 3)
    for key in all_tsc_keys(params):
        for k in range(1, K + 1):
            queries = [tsc_query(params, k, key, n) for n in range(1, N + 1)]
            answers = [tsc_answer(q, store) for q in queries]
            assert [len(a) for a in answers] == [answer_length(params, q) for q in queries]
            assert tsc_decode(params, k, key, answers) == store.message(k)
            for n, answer in enumerate(answers, start=1):
                for wrong in [answer + (0,)] + ([answer[1:]] if answer else []):
                    broken = answers[: n - 1] + [wrong] + answers[n:]
                    message = f"^server {n}: expected {len(answer)} symbols, got {len(wrong)}$"
                    with pytest.raises(MalformedAnswers, match=message):
                        tsc_decode(params, k, key, broken)


@pytest.mark.parametrize("N,K", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_decode_exhaustive(N, K):
    params = SystemParams(N, K)
    rng = np.random.default_rng(5)
    for seed in rng.integers(0, 2**31, size=3):
        store = MessageStore.random(params, int(seed))
        for key in all_tsc_keys(params):
            for k in range(1, K + 1):
                answers = [
                    tsc_answer(tsc_query(params, k, key, n), store)
                    for n in range(1, N + 1)
                ]
                assert tsc_decode(params, k, key, answers) == store.message(k)


def test_interference_server(params_n3k2):
    for key in all_tsc_keys(params_n3k2):
        n0 = interference_server(params_n3k2, key)
        assert 1 <= n0 <= 3
        assert (key.u + n0) % 3 == 0


@pytest.mark.parametrize("N,K", [(2, 2), (3, 2), (3, 3)])
def test_uniform_query_law_by_enumeration(N, K):
    params = SystemParams(N, K)
    for k in range(1, K + 1):
        for n in range(1, N + 1):
            law = {}
            for key in all_tsc_keys(params):
                q = tsc_query(params, k, key, n).digits
                law[q] = law.get(q, 0.0) + N**-K
            assert len(law) == N**K
            assert all(abs(p - N**-K) < 1e-15 for p in law.values())


@pytest.mark.parametrize("N,K", [(2, 3), (3, 2), (3, 3)])
def test_query_weight_law(N, K):
    # P(Q = q | k) equals the class probability of the weight of q excluding slot k
    params = SystemParams(N, K)
    rng = np.random.default_rng(11)
    from conftest import random_tsc_dist

    dist = random_tsc_dist(params, rng)
    for k in (1, K):
        law = {}
        for key in all_tsc_keys(params):
            q = tsc_query(params, k, key, 1).digits
            law[q] = law.get(q, 0.0) + dist.p_weights[key_weight(key)]
        for q, p in law.items():
            w = sum(1 for i, d in enumerate(q, start=1) if d != 0 and i != k)
            assert p == pytest.approx(dist.p_weights[w], abs=1e-14)
