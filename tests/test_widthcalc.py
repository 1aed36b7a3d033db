"""Block matrices, radii, bandwidth formulas, and the boundary bound."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from widthlab import graphs, hales, oracles, suites, widthcalc as wc
from widthlab.errors import ParameterError, SizeCapError, UndefinedValueError

NEG = wc.NEG_INF


# references: the np.nonzero scans and the int32 popcount block that
# matrix_bandwidth, manhattan_radius and assemble_block replaced


def _matrix_bandwidth_reference(bits):
    ii, jj = np.nonzero(bits)
    if not ii.size:
        raise UndefinedValueError("bandwidth of a zero or empty matrix is undefined")
    return int(np.abs(ii - jj).max())


def _manhattan_radius_reference(bits):
    if bits.size == 0:
        return NEG
    ii, jj = np.nonzero(bits)
    if not ii.size:
        return NEG
    return int(bits.shape[0] + (jj - ii).max())


def _block_bits_reference(t, n, k, kp):
    if not (0 <= k <= n) or not (0 <= kp <= n):
        return np.zeros((0, 0), dtype=np.uint8)
    rows = hales.slice_order(n, k)
    cols = hales.slice_order(n, kp)
    x = rows[:, None] ^ cols[None, :]
    d = np.unpackbits(x.view(np.uint8)).reshape(*x.shape, 32).sum(axis=2)
    return ((d >= 1) & (d <= t)).astype(np.uint8)


def test_binom_ext_examples():
    assert wc.binom_ext(5, 2) == 10
    assert wc.binom_ext(3, -1) == 0
    assert wc.binom_ext(4, 6) == 0


@given(st.integers(-10, 40), st.integers(-10, 50))
def test_binom_ext_matches_comb(x, y):
    expected = math.comb(x, y) if 0 <= y <= x else 0
    assert wc.binom_ext(x, y) == expected


def test_matrix_bandwidth_examples():
    diag = np.eye(4, dtype=np.uint8)
    assert wc.matrix_bandwidth(diag) == 0
    c4 = wc.assemble_full(1, 2)
    assert wc.matrix_bandwidth(c4) == 2
    ones = np.ones((5, 5), dtype=np.uint8) - np.eye(5, dtype=np.uint8)
    assert wc.matrix_bandwidth(ones) == 4
    with pytest.raises(UndefinedValueError):
        wc.matrix_bandwidth(np.zeros((3, 3), dtype=np.uint8))
    with pytest.raises(ParameterError):
        wc.matrix_bandwidth(np.ones((2, 3), dtype=np.uint8))


def test_manhattan_radius_examples():
    assert wc.manhattan_radius(np.asarray([[1]], dtype=np.uint8)) == 1
    assert wc.manhattan_radius(np.zeros((2, 2), dtype=np.uint8)) == NEG
    assert wc.manhattan_radius(wc.assemble_block(1, 3, 0, 1)) == 3


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda s: st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8).map(lambda es: (s, es))))
def test_radius_bandwidth_relation_on_symmetric_matrices(args):
    s, entries = args
    m = np.zeros((s, s), dtype=np.uint8)
    for i, j in entries:
        if i < s and j < s:
            m[i, j] = m[j, i] = 1
    if not m.any():
        assert wc.manhattan_radius(m) == NEG
    else:
        assert wc.manhattan_radius(m) == wc.matrix_bandwidth(m) + s


def _sparse_matrices(shape):
    # mostly zeros, so that all-zero rows and all-zero matrices come up
    ints = hnp.arrays(np.int64, shape, elements=st.integers(-3, 4).map(lambda x: x if x > 1 or x < -1 else 0))
    bools = hnp.arrays(np.uint8, shape, elements=st.sampled_from([0, 0, 0, 1]))
    return ints | bools


_SHAPES = st.tuples(st.integers(0, 9), st.integers(0, 9))


def _assert_radius_matches_reference(m):
    assert wc.manhattan_radius(m) == _manhattan_radius_reference(m)


def _assert_bandwidth_matches_reference(m):
    try:
        expected = _matrix_bandwidth_reference(m)
    except UndefinedValueError:
        with pytest.raises(UndefinedValueError):
            wc.matrix_bandwidth(m)
    else:
        assert wc.matrix_bandwidth(m) == expected


@settings(max_examples=100, deadline=None)
@given(_SHAPES.flatmap(_sparse_matrices))
def test_manhattan_radius_matches_nonzero_reference(m):
    _assert_radius_matches_reference(m)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 9).flatmap(lambda s: _sparse_matrices((s, s))))
def test_matrix_bandwidth_matches_nonzero_reference(m):
    _assert_bandwidth_matches_reference(m)


def test_row_extent_edge_cases_match_reference():
    square = [
        np.zeros((0, 0), dtype=np.uint8),
        np.zeros((4, 4), dtype=np.uint8),
        np.asarray([[0]], dtype=np.uint8),
        np.asarray([[1]], dtype=np.uint8),
        np.asarray([[-2]], dtype=np.int64),
        np.asarray([[0, 0, 0], [0, 0, 0], [5, 0, 0]], dtype=np.int64),
        np.asarray([[0, 0, 1], [0, 0, 0], [0, 0, 0]], dtype=np.uint8),
    ]
    for m in square:
        _assert_radius_matches_reference(m)
        _assert_bandwidth_matches_reference(m)
    rectangular = [
        np.zeros((0, 3), dtype=np.uint8),
        np.zeros((3, 0), dtype=np.uint8),
        np.asarray([[0, 1, 0, 1]], dtype=np.uint8),
        np.asarray([[0], [3], [0]], dtype=np.int64),
        np.asarray([[0, 0, 0, 0], [1, 0, 0, 0]], dtype=np.uint8),
        np.asarray([[0, 0], [0, 0], [0, 7]], dtype=np.int64),
    ]
    for m in rectangular:
        _assert_radius_matches_reference(m)
        with pytest.raises(ParameterError):
            wc.matrix_bandwidth(m)


def test_assemble_block_matches_reference_bits():
    for n in range(1, 10):
        for t in range(0, n + 2):
            for k in range(-1, n + 2):
                for kp in range(-1, n + 2):
                    bits = wc.assemble_block(t, n, k, kp)
                    expected = _block_bits_reference(t, n, k, kp)
                    assert bits.dtype == np.uint8 and bits.shape == expected.shape, (t, n, k, kp)
                    assert np.array_equal(bits, expected), (t, n, k, kp)


def test_distance_block_caps_and_empty_convention():
    assert wc.distance_block(3, 1, 2).tolist() == [[1, 1, 3], [1, 3, 1], [3, 1, 1]]
    assert wc.distance_block(3, 1, 4).shape == (0, 0)
    with pytest.raises(SizeCapError):
        wc.distance_block(wc.BLOCK_MAX_N + 1, 1, 2)
    with pytest.raises(ParameterError):
        wc.distance_block(0, 0, 0)
    # large blocks, and words of more than 16 bits
    for (t, n, k, kp) in [(4, 12, 6, 6), (5, 13, 6, 7), (3, 17, 1, 2), (3, 17, 8, 1)]:
        assert np.array_equal(wc.assemble_block(t, n, k, kp), _block_bits_reference(t, n, k, kp)), (t, n, k, kp)


def test_block_radii_match_assembled_blocks():
    # t >= 256 on the (0, 0) and (n, n) blocks reaches the wrapped
    # distance 0 unless t is clamped to n
    for n in range(1, 10):
        ts = list(range(0, n + 2))
        blocks = {(k, kp): ts for k in range(-1, n + 2) for kp in range(-1, n + 2)}
        blocks[(0, 0)] = blocks[(n, n)] = ts + [255, 256, 10**6]
        radii = wc.block_radii(n, blocks)
        assert radii.keys() == blocks.keys()
        for (k, kp), block_ts in blocks.items():
            expected = [wc.manhattan_radius(wc.assemble_block(t, n, k, kp)) for t in block_ts]
            assert radii[(k, kp)] == expected, (n, k, kp)
        assert radii[(0, 0)][-3:] == radii[(n, n)][-3:] == [NEG] * 3


def test_block_radii_refuse_before_building_a_block(monkeypatch):
    def no_order(n, k):
        raise AssertionError("a slice order was built before the refusal")

    monkeypatch.setattr(hales, "slice_order", no_order)
    with pytest.raises(ParameterError):
        wc.block_radii(3, {(1, 1): [1], (1, 2): [1, -1]})
    with pytest.raises(ParameterError):
        wc.block_radii(0, {(0, 0): [1]})
    with pytest.raises(SizeCapError):
        wc.block_radii(wc.BLOCK_MAX_N + 1, {(1, 2): [1]})
    monkeypatch.setattr(wc, "BLOCK_MAX_ELEMS", 35 * 35 - 1)
    with pytest.raises(SizeCapError):
        wc.block_radii(7, {(0, 1): [1], (3, 4): [1, 2]})


def test_block_radii_hold_one_block():
    # the largest appendixA block at n = 13 is 1716 x 1716; a block's
    # arrays kept alive while the next one is built take the peak near 7
    # bytes per entry
    blocks = {}
    for t, _, k, s in suites._valid_radius_tuples(13):
        blocks.setdefault((k, k + t - 2 * s), []).append(t)
    tracemalloc.start()
    try:
        wc.block_radii(13, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * 1716**2


def test_grouped_suite_route_matches_per_tuple_blocks():
    for n in range(1, 14):
        tuples = list(suites._valid_radius_tuples(n))
        recs = suites._job_radius_identities(n)
        assert len(recs) == 2 * len(tuples)
        for (t, nn, k, s), rec in zip(tuples, recs[1::2]):
            assert rec.instance == f"radius t={t} n={nn} k={k} s={s} closed_vs_direct"
            direct = wc.manhattan_radius(wc.assemble_block(t, nn, k, k + t - 2 * s))
            assert rec.rhs == str(direct), (t, nn, k, s)


def test_assemble_block_examples():
    assert wc.assemble_block(1, 2, 0, 1).tolist() == [[1, 1]]
    empty = wc.assemble_block(2, 5, 2, 6)
    assert empty.size == 0 and wc.manhattan_radius(empty) == NEG
    far = wc.assemble_block(2, 5, 2, 5)  # distance 3 > t: zero but not empty
    assert far.size and not far.any()
    zeros = wc.assemble_block(1, 4, 0, 2)
    assert zeros.shape == (1, 6) and not zeros.any()


def test_assemble_block_parity_collapse():
    # gap parity different from t: lowering t by one changes nothing
    for n in range(2, 10):
        for t in range(2, n + 1):
            for k in range(0, n + 1):
                for kp in range(k, min(n, k + t) + 1):
                    if (kp - k) % 2 == t % 2:
                        continue
                    a = wc.assemble_block(t, n, k, kp)
                    b = wc.assemble_block(t - 1, n, k, kp)
                    assert np.array_equal(a, b), (t, n, k, kp)


def test_assemble_full_small_and_caps():
    full = wc.assemble_full(1, 2)
    assert full.shape == (4, 4) and full.dtype == np.uint8
    assert wc.matrix_bandwidth(full) == 2
    assert wc.matrix_bandwidth(wc.assemble_full(5, 4)) == 15  # complete minus diagonal
    with pytest.raises(SizeCapError):
        wc.assemble_full(1, wc.FULL_MATRIX_MAX_N + 1)
    with pytest.raises(SizeCapError):
        wc.assemble_block(1, wc.BLOCK_MAX_N + 1, 1, 2)


def test_assemble_full_equals_block_grid():
    for (t, n) in [(1, 3), (2, 4), (3, 5)]:
        full = wc.assemble_full(t, n)
        sizes = [math.comb(n, k) for k in range(n + 1)]
        starts = np.cumsum([0] + sizes)
        for k in range(n + 1):
            for kp in range(n + 1):
                block = wc.assemble_block(t, n, k, kp)
                view = full[starts[k] : starts[k + 1], starts[kp] : starts[kp + 1]]
                assert np.array_equal(view, block), (t, n, k, kp)
                if abs(k - kp) > t:
                    assert not block.any()


def test_assemble_full_matches_graph_adjacency():
    for (t, n) in [(1, 3), (2, 4)]:
        g = graphs.gen_hamming(t, 2, n)
        assert np.array_equal(wc.assemble_full(t, n), g.adjacency_matrix(np.uint8))


def test_radius_closed_examples():
    assert wc.radius_closed(3, 4, 0, 0) == 4
    assert wc.radius_closed(2, 5, 2, 1) == 17
    # 1x1 diagonal blocks are zero matrices, so the radius is the
    # lattice bottom (the literal branch expression would say 1)
    assert wc.radius_closed(2, 5, 0, 1) == NEG
    assert wc.radius_closed(2, 5, 5, 1) == NEG
    with pytest.raises(ParameterError):
        wc.radius_closed(2, 5, 4, 0)  # k + t - 2s > n
    with pytest.raises(ParameterError):
        wc.radius_closed(1, 5, 1, 1)  # t < 2s


def test_radius_recursive_examples():
    assert wc.radius_recursive(1, 3, 0, 1) == 3
    assert wc.radius_recursive(2, 5, 2, 0) == 17
    assert wc.radius_recursive(3, 6, 1, 5) == NEG  # |gap| > t: zero block
    with pytest.raises(ParameterError):
        wc.radius_recursive(1, 3, 2, 2)


def test_radius_identities_exhaustive():
    for (t, n, k, s) in (tup for m in range(1, 9) for tup in suites._valid_radius_tuples(m)):
        closed = wc.radius_closed(t, n, k, s)
        rec = wc.radius_recursive(t, n, k, t - 2 * s)
        direct = wc.manhattan_radius(wc.assemble_block(t, n, k, k + t - 2 * s))
        assert closed == rec == direct, (t, n, k, s, closed, rec, direct)


def test_radius_branch_overlap_points_agree():
    # overlap tuples evaluate two branch expressions; the internal
    # assertion fires if they ever disagree
    hits = 0
    for (t, n, k, s) in (tup for m in range(1, 11) for tup in suites._valid_radius_tuples(m)):
        if k - s in (0, (n - t) // 2, n - t):
            wc.radius_closed(t, n, k, s)
            hits += 1
    assert hits > 50


def test_diagonal_radius_vs_bandwidth_relation():
    for n in range(1, 8):
        for t in range(1, n + 1):
            for k in range(n + 1):
                block = wc.assemble_block(t, n, k, k)
                if not block.any():
                    continue
                r = wc.manhattan_radius(block)
                assert r == wc.matrix_bandwidth(block) + math.comb(n, k)


def test_bw_closed_examples():
    assert wc.bw_closed(1, 3) == 4
    assert wc.bw_closed(2, 4) == 12
    assert wc.bw_closed(5, 4) == 15
    assert wc.bw_recursion(1, 3) == 4
    assert wc.bw_recursion(2, 4) == 12
    assert wc.bw_recursion(5, 4) == 15


def test_bw_closed_equals_recursion():
    for t in range(1, 7):
        for n in range(1, 11):
            assert wc.bw_closed(t, n) == wc.bw_recursion(t, n), (t, n)


def test_bw_t1_halving_sum():
    for n in range(1, 31):
        assert wc.bw_closed(1, n) == sum(wc.binom_ext(m, m // 2) for m in range(n))


def test_bw_identity_chain_direct():
    for t in range(1, 5):
        for n in range(t + 1, 11):
            direct = wc.matrix_bandwidth(wc.assemble_full(t, n))
            assert wc.bw_closed(t, n) == direct, (t, n)


def test_gap_term_maximizer():
    for n in range(2, 11):
        for t in range(1, n):
            values = {k: wc.diagonal_distance(t, n, k, t) for k in range(0, n - t + 1)}
            finite = {k: v for k, v in values.items() if v != NEG}
            best = max(finite.values())
            assert finite[(n - t) // 2] == best, (t, n, values)


def test_johnson_slice_bandwidth():
    assert wc.johnson_slice_bandwidth(5, 2) == 7
    for n in range(2, 9):
        assert wc.johnson_slice_bandwidth(n, 1) == n - 1
    with pytest.raises(ParameterError):
        wc.johnson_slice_bandwidth(3, 3)


def test_johnson_slice_bandwidth_matches_direct_block():
    for n in range(2, 13):
        for k in range(1, n):
            direct = wc.matrix_bandwidth(wc.assemble_block(2, n, k, k))
            assert wc.johnson_slice_bandwidth(n, k) == direct, (n, k)


def test_harper_bound_examples():
    g = graphs.gen_hamming(1, 2, 4)
    bv = oracles.bv_table(g)
    value = wc.harper_lower_bound(1, 2, 4, 8)
    assert 0 < value <= int(bv[8]) == 6
    assert wc.harper_lower_bound(1, 2, 4, 16) == 0.0
    with pytest.raises(ParameterError):
        wc.harper_lower_bound(1, 2, 4, 0)
    with pytest.raises(ParameterError):
        wc.harper_lower_bound(1, 2, 4, 17)


@pytest.mark.parametrize("t,q,n", [(1, 2, 3), (2, 2, 3), (1, 3, 2)])
def test_harper_bound_never_exceeds_exhaustive_minimum(t, q, n):
    g = graphs.gen_hamming(t, q, n)
    bv = oracles.bv_table(g)
    for m in range(1, q**n + 1):
        bound = wc.harper_lower_bound(t, q, n, m)
        assert bound >= 0.0
        assert bound <= int(bv[m]), (m, bound, int(bv[m]))
