import pytest

from golden_n3k2 import TABLE_W1, TABLE_W2
from wpir.core import DirectRequest, QueryVector, SystemParams, TscKey, digit_vectors
from wpir.tables import format_table, key_label, query_label, symbolic_answer, table_rows


def test_symbolic_answer_rendering(params_n3k2):
    assert symbolic_answer(params_n3k2, QueryVector((2, 1))) == "a_2⊕b_1"
    assert symbolic_answer(params_n3k2, QueryVector((0, 0))) == "∅"
    assert symbolic_answer(params_n3k2, QueryVector((1, 0))) == "a_1"
    assert symbolic_answer(params_n3k2, DirectRequest(2)) == "b_1,b_2"
    assert query_label(DirectRequest(1)) == "#1"
    assert query_label(QueryVector((2, 0))) == "20"


@pytest.mark.parametrize("k,expected", [(1, TABLE_W1), (2, TABLE_W2)])
def test_golden_table_n3k2(params_n3k2, k, expected):
    rows = {r.cells() for r in table_rows(params_n3k2, k)}
    assert rows == expected


def test_n2k2_table_shape():
    params = SystemParams(2, 2)
    rows = table_rows(params, 1)
    assert len(rows) == 6  # 2 direct keys + 4 vector keys
    classes = sorted(r.prob_class for r in rows)
    assert classes == ["p'0", "p'0", "p0", "p0", "p1", "p1"]


def test_format_table_contains_all_rows(params_n3k2):
    text = format_table(params_n3k2, 1)
    lines = text.splitlines()
    assert len(lines) == 13  # header + 12 keys
    assert "a_1⊕b_1" in text


@pytest.mark.parametrize("N,K", [(2, 3), (10, 3), (11, 3), (12, 2)])
def test_query_labels_are_injective(N, K):
    params = SystemParams(N, K)
    space = [QueryVector(d) for d in digit_vectors(params)]
    space += [DirectRequest(k) for k in range(1, K + 1)]
    assert len({query_label(q) for q in space}) == N**K + K


def test_labels_keep_their_digit_rows_up_to_n_10():
    for digits in digit_vectors(SystemParams(10, 3)):
        assert query_label(QueryVector(digits)) == "".join(map(str, digits))
    assert key_label(TscKey((9, 0), 7)) == "907"


def test_labels_with_a_two_place_digit_are_comma_separated():
    assert query_label(QueryVector((1, 11))) == "1,11"
    assert query_label(QueryVector((11, 1))) == "11,1"
    assert query_label(QueryVector((1, 1, 1))) == "111"
    assert key_label(TscKey((10, 0), 3)) == "10,0,3"
