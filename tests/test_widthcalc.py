"""Block matrices, radii, bandwidth formulas, and the boundary bound."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthlab import graphs, hales, oracles, suites, widthcalc as wc
from widthlab.errors import ParameterError, SizeCapError, UndefinedValueError

NEG = wc.NEG_INF


# references: np.nonzero scans over 0/1 blocks of a table-lookup
# popcount, against which block_radii and bw_direct are checked

_POPCOUNT16 = np.unpackbits(np.arange(1 << 16, dtype=">u2").view(np.uint8).reshape(-1, 2), axis=1).sum(axis=1, dtype=np.uint8)


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


def _distance_reference(n, k, kp):
    rows = hales.slice_order(n, k)
    cols = hales.slice_order(n, kp)
    x = rows[:, None] ^ cols[None, :]
    return _POPCOUNT16[x & 0xFFFF] + _POPCOUNT16[x >> 16]


def _within_reference(d, t):
    return ((d >= 1) & (d <= t)).astype(np.uint8)


def _block_bits_reference(t, n, k, kp):
    if not (0 <= k <= n) or not (0 <= kp <= n):
        return np.zeros((0, 0), dtype=np.uint8)
    return _within_reference(_distance_reference(n, k, kp), t)


def _full_bits_reference(t, n):
    return np.block([[_block_bits_reference(t, n, k, kp) for kp in range(n + 1)] for k in range(n + 1)])


def test_binom_ext_examples():
    assert wc.binom_ext(5, 2) == 10
    assert wc.binom_ext(3, -1) == 0
    assert wc.binom_ext(4, 6) == 0


@given(st.integers(-10, 40), st.integers(-10, 50))
def test_binom_ext_matches_comb(x, y):
    expected = math.comb(x, y) if 0 <= y <= x else 0
    assert wc.binom_ext(x, y) == expected


def test_matrix_bandwidth_examples():
    assert wc.bw_direct(1, 1) == 1  # one edge
    assert wc.bw_direct(1, 3) == 4
    assert wc.bw_direct(2, 3) == 6
    assert wc.bw_direct(3, 3) == 7  # complete minus diagonal
    for t, n in [(0, 3), (-1, 3), (1, 0)]:
        with pytest.raises(ParameterError):
            wc.bw_direct(t, n)


def test_manhattan_radius_examples():
    assert wc.block_radii(1, {(0, 1): [0, 1]}) == {(0, 1): [NEG, 1]}  # [[0]], then [[1]]
    assert wc.block_radii(3, {(0, 1): [1]}) == {(0, 1): [3]}
    assert wc.block_radii(3, {(1, 2): [1, 2, 3]}) == {(1, 2): [4, 4, 5]}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.integers(0, n + 2), st.just(n), st.integers(-1, n + 1), st.integers(-1, n + 1))))
def test_manhattan_radius_matches_nonzero_reference(args):
    t, n, k, kp = args
    expected = _manhattan_radius_reference(_block_bits_reference(t, n, k, kp))
    assert wc.block_radii(n, {(k, kp): [t]}) == {(k, kp): [expected]}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(st.integers(1, n + 2), st.just(n))))
def test_matrix_bandwidth_matches_nonzero_reference(args):
    t, n = args
    assert wc.bw_direct(t, n) == _matrix_bandwidth_reference(_full_bits_reference(t, n))


def test_assemble_full_matches_graph_adjacency():
    # the stacked slice order is the vertex order of gen_hamming
    for (t, n) in [(1, 3), (2, 4), (3, 5), (2, 7)]:
        adjacency = graphs.gen_hamming(t, 2, n).adjacency_matrix(np.uint8)
        assert np.array_equal(_full_bits_reference(t, n), adjacency), (t, n)


def test_bw_direct_matches_graph_adjacency():
    for (t, n) in [(1, 3), (2, 4), (3, 5), (2, 7)]:
        adjacency = graphs.gen_hamming(t, 2, n).adjacency_matrix(np.uint8)
        assert wc.bw_direct(t, n) == _matrix_bandwidth_reference(adjacency), (t, n)


def test_assemble_full_equals_block_grid():
    # block_radii on each block of the grid against the same view of
    # the graph's adjacency; blocks with |k - kp| > t are zero
    for (t, n) in [(1, 3), (2, 4), (3, 5)]:
        adjacency = graphs.gen_hamming(t, 2, n).adjacency_matrix(np.uint8)
        starts = np.cumsum([0] + [math.comb(n, k) for k in range(n + 1)])
        radii = wc.block_radii(n, {(k, kp): [t] for k in range(n + 1) for kp in range(n + 1)})
        for (k, kp), (r,) in radii.items():
            view = adjacency[starts[k] : starts[k + 1], starts[kp] : starts[kp + 1]]
            assert r == _manhattan_radius_reference(view), (t, n, k, kp)
            if abs(k - kp) > t:
                assert r == NEG, (t, n, k, kp)


def test_assemble_full_small_and_caps():
    assert wc.bw_direct(1, 2) == 2  # the 4-cycle
    assert wc.bw_direct(5, 4) == wc.bw_direct(10**6, 4) == 15  # complete minus diagonal
    # refused before any block is built: the 12870 x 12870 middle block
    # of n = 16 exceeds BLOCK_MAX_ELEMS
    with pytest.raises(SizeCapError):
        wc.bw_direct(1, 16)
    with pytest.raises(SizeCapError):
        wc.bw_direct(1, wc.BLOCK_MAX_N + 1)


def test_assemble_block_examples():
    assert wc.block_radii(2, {(0, 1): [1]}) == {(0, 1): [2]}  # [[1, 1]]
    # an empty block (kp > n), a zero block at distance 3 > t, and a
    # zero 1 x 6 block at distance 2 > t
    assert wc.block_radii(5, {(2, 6): [2], (2, 5): [2]}) == {(2, 6): [NEG], (2, 5): [NEG]}
    assert wc.block_radii(4, {(0, 2): [1]}) == {(0, 2): [NEG]}


def test_assemble_block_matches_reference_bits():
    # one call per threshold over every (k, kp), out-of-range weights too
    for n in range(1, 10):
        pairs = [(k, kp) for k in range(-1, n + 2) for kp in range(-1, n + 2)]
        for t in range(0, n + 2):
            radii = wc.block_radii(n, {kk: [t] for kk in pairs})
            for (k, kp) in pairs:
                expected = _manhattan_radius_reference(_block_bits_reference(t, n, k, kp))
                assert radii[(k, kp)] == [expected], (t, n, k, kp)


def test_distance_block_caps_and_empty_convention():
    # the distances of the (1, 2) block of n = 3 are [[1, 1, 3], [1, 3, 1], [3, 1, 1]]
    assert wc.block_radii(3, {(1, 2): [0, 1, 2, 3]}) == {(1, 2): [NEG, 4, 4, 5]}
    # out-of-range weights are the empty block at every threshold
    assert wc.block_radii(3, {(1, 4): [0, 1, 3], (-1, 0): [1], (4, 4): [2]}) == {
        (1, 4): [NEG] * 3, (-1, 0): [NEG], (4, 4): [NEG]}
    with pytest.raises(SizeCapError):
        wc.block_radii(wc.BLOCK_MAX_N + 1, {(1, 2): [1]})
    with pytest.raises(ParameterError):
        wc.block_radii(0, {(0, 0): [0]})
    # large blocks, and words of more than 16 bits
    for (t, n, k, kp) in [(4, 12, 6, 6), (5, 13, 6, 7), (3, 17, 1, 2), (3, 17, 8, 1)]:
        expected = _manhattan_radius_reference(_block_bits_reference(t, n, k, kp))
        assert wc.block_radii(n, {(k, kp): [t]}) == {(k, kp): [expected]}, (t, n, k, kp)


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
            expected = [_manhattan_radius_reference(_block_bits_reference(t, n, k, kp)) for t in block_ts]
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


def _traced_peak(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_radii_hold_one_block():
    # the largest appendixA block at n = 13 is 1716 x 1716; a block's
    # arrays kept alive while the next one is built take the peak near 7
    # bytes per entry
    blocks = {}
    for t, _, k, s in suites._valid_radius_tuples(13):
        blocks.setdefault((k, k + t - 2 * s), []).append(t)
    assert _traced_peak(wc.block_radii, 13, blocks) < 5.5 * 1716**2
    # bw_direct at n = 14: the largest block is the 3432 x 3432 middle
    # one; a dense 2^14 x 2^14 matrix would be about 22.8 bytes per entry
    assert _traced_peak(wc.bw_direct, 7, 14) < 5.5 * 3432**2


def test_grouped_suite_route_matches_per_tuple_blocks():
    for n in range(1, 14):
        tuples = list(suites._valid_radius_tuples(n))
        recs = suites._job_radius_identities(n)
        assert len(recs) == 2 * len(tuples)
        by_block = {}
        for tup, rec in zip(tuples, recs[1::2]):
            t, nn, k, s = tup
            assert rec.instance == f"radius t={t} n={nn} k={k} s={s} closed_vs_direct"
            by_block.setdefault((k, k + t - 2 * s), []).append((t, rec.rhs))
        for (k, kp), pairs in by_block.items():
            d = _distance_reference(n, k, kp)  # once per block, not per tuple
            for t, rhs in pairs:
                assert rhs == str(_manhattan_radius_reference(_within_reference(d, t))), (t, n, k, kp)


def test_block_radii_parity_collapse():
    # gap parity different from t: lowering t by one changes no radius
    for n in range(2, 10):
        ts = list(range(1, n + 1))
        radii = wc.block_radii(n, {(k, kp): ts for k in range(n + 1) for kp in range(k, n + 1)})
        for (k, kp), rs in radii.items():
            for t in range(max(2, kp - k), n + 1):
                if (kp - k) % 2 != t % 2:
                    assert rs[t - 1] == rs[t - 2], (t, n, k, kp)


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
        kp = k + t - 2 * s
        direct = wc.block_radii(n, {(k, kp): [t]})[(k, kp)][0]
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
        ts = list(range(1, n + 1))
        radii = wc.block_radii(n, {(k, k): ts for k in range(n + 1)})
        for k in range(n + 1):
            for t, r in zip(ts, radii[(k, k)]):
                block = _block_bits_reference(t, n, k, k)
                if not block.any():
                    assert r == NEG, (t, n, k)
                else:
                    assert r == _matrix_bandwidth_reference(block) + math.comb(n, k), (t, n, k)


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
    for n in range(1, 13):
        for t in range(1, n + 2):
            assert wc.bw_closed(t, n) == wc.bw_direct(t, n), (t, n)


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
    # the (k, k) radius at t = 2 is the block's bandwidth plus C(n, k)
    for n in range(2, 13):
        radii = wc.block_radii(n, {(k, k): [2] for k in range(1, n)})
        for k in range(1, n):
            assert wc.johnson_slice_bandwidth(n, k) == radii[(k, k)][0] - math.comb(n, k), (n, k)


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
