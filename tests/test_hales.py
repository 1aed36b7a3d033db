"""Slice orders, the stacked global order, and the prefix property checker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthlab import graphs, hales, oracles, widthcalc
from widthlab.errors import ParameterError, SizeCapError


def vectors(rows, n):
    """0/1 coordinate tuples of word rows, bit by bit."""
    return [tuple((int(r) >> j) & 1 for j in range(n)) for r in rows]


def test_word_bits_matches_bit_shifts():
    for n, k in [(1, 1), (5, 2), (17, 3), (32, 1)]:
        rows = hales.slice_order(n, k)
        assert list(map(tuple, hales.word_bits(rows, n).tolist())) == vectors(rows, n)


def test_slice_base_cases():
    assert vectors(hales.slice_order(1, 0), 1) == [(0,)]
    assert vectors(hales.slice_order(1, 1), 1) == [(1,)]
    assert vectors(hales.slice_order(3, 0), 3) == [(0, 0, 0)]
    assert vectors(hales.slice_order(3, 3), 3) == [(1, 1, 1)]


def test_slice_one_level_unroll():
    assert vectors(hales.slice_order(2, 1), 2) == [(0, 1), (1, 0)]


def test_slice_matches_recursive_definition():
    # rows(n, k) = [rows(n-1, k-1) + '1'] then [rows(n-1, k) + '0']
    for n in range(2, 8):
        for k in range(1, n):
            top = [v + (1,) for v in vectors(hales.slice_order(n - 1, k - 1), n - 1)]
            bot = [v + (0,) for v in vectors(hales.slice_order(n - 1, k), n - 1)]
            assert vectors(hales.slice_order(n, k), n) == top + bot


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 20).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
def test_slice_rows_distinct_and_weighted(nk):
    n, k = nk
    rows = hales.slice_order(n, k)
    import math

    assert rows.dtype == np.uint32
    assert len(rows) == math.comb(n, k)
    assert len(np.unique(rows)) == len(rows)  # distinct, exhaustively
    assert (np.bitwise_count(rows) == k).all()


def test_slice_order_closed_description():
    # a slice lists its words in strictly decreasing numeric order, and the
    # global order is the stable sort of all words, decreasing, by weight
    for n in range(1, 17):
        words = np.arange((1 << n) - 1, -1, -1, dtype=np.uint32)
        weights = np.bitwise_count(words)
        for k in range(n + 1):
            rows = hales.slice_order(n, k)
            assert (np.diff(rows.astype(np.int64)) < 0).all()
            assert np.array_equal(rows, words[weights == k])
        assert np.array_equal(hales.hales_order(n), words[np.argsort(weights, kind="stable")])


def test_slice_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        hales.slice_order(3, 4)
    with pytest.raises(ParameterError):
        hales.slice_order(0, 0)


def test_global_order_small():
    assert vectors(hales.hales_order(1), 1) == [(0,), (1,)]
    assert vectors(hales.hales_order(2), 2) == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    ]


def test_global_order_prefix_is_weight_ball():
    import math

    for n in range(1, 7):
        order = hales.hales_order(n)
        weights = np.array([int(r).bit_count() for r in order])
        for k in range(n + 1):
            cut = sum(math.comb(n, i) for i in range(k + 1))
            assert set(np.nonzero(weights <= k)[0]) == set(range(cut))


def test_global_order_restriction_is_slice_order():
    for n in range(1, 7):
        order = hales.hales_order(n)
        weights = np.array([int(r).bit_count() for r in order])
        for k in range(n + 1):
            restricted = order[weights == k]
            assert np.array_equal(restricted, hales.slice_order(n, k))


def test_rank_lookup():
    order = hales.hales_order(3)
    assert order.dtype == np.uint32
    assert np.flatnonzero(order == 0).tolist() == [0]  # the all-zeros word has rank 1
    assert not (order == 1 << 5).any()  # not a length-3 word
    for n in range(1, 9):
        assert np.array_equal(np.sort(hales.hales_order(n)), np.arange(1 << n, dtype=np.uint32))


@pytest.mark.parametrize("t,n", [(1, 3), (2, 4), (1, 4), (3, 4)])
def test_identity_order_satisfies_prefix_conditions(t, n):
    g = graphs.gen_hamming(t, 2, n)
    report = hales.verify_hales_property(g)
    assert report.ok, report


def test_binary_value_order_violates():
    g = graphs.gen_hamming(1, 2, 3)
    value = [sum(b << i for i, b in enumerate(g.labels[v])) for v in range(8)]
    descending = sorted(range(8), key=lambda v: -value[v])
    # the same cube with vertex i the word of i-th largest binary value
    new_id = np.argsort(descending)
    relabelled = graphs.Graph(8, new_id[g.edges], labels=[g.labels[v] for v in descending])
    report = hales.verify_hales_property(relabelled)
    # the 2-dimensional subcube prefix has boundary 4, the greedy ball only 3
    assert not report.ok
    assert report.first_violation == 4
    assert report.reason == "prefix boundary 4 exceeds minimum 3"


def test_prefix_checker_reports_interior_vertices_out_of_rank():
    # the 4-cycle in cyclic order: prefix {0, 1, 2} has the minimum boundary {3},
    # but its one interior vertex is 1, not the lowest-ranked 0
    report = hales.verify_hales_property(graphs.Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert report == hales.HalesReport(False, 3, "interior vertices are not the lowest-ranked ones", (0, 2, 2, 1, 0))


def test_prefix_checker_uses_exhaustive_minimum():
    g = graphs.gen_hamming(1, 2, 3)
    report = hales.verify_hales_property(g)
    table = oracles.bv_table(g)
    assert report.bv == tuple(int(x) for x in table)
    assert max(report.bv[1:]) == widthcalc.bw_closed(1, 3)


def test_size_cap():
    g = graphs.gen_hamming(1, 2, 5)
    with pytest.raises(SizeCapError):
        hales.verify_hales_property(g)


def test_prefix_check_runs_to_the_bv_table_cap():
    # J(6, 3) has 20 vertices, the most oracles.bv_table takes
    g = graphs.gen_johnson(6, 3)
    report = hales.verify_hales_property(g)
    assert report.bv == tuple(int(x) for x in oracles.bv_table(g))
    assert not report.ok and report.first_violation == 6


def test_slice_word_width_cap():
    # words are uint32 bitmasks: n = 32 is the widest slice
    assert hales.slice_order(32, 1).tolist() == [1 << j for j in range(31, -1, -1)]
    with pytest.raises(SizeCapError):
        hales.slice_order(33, 1)

