"""The numpy kernels against plain-python reference loops, bit for bit.

The reference loops visit subsets one at a time, in index order, so
they share no enumeration or neighbour-union code with the kernels they
check.
"""

import itertools
import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from widthlab import _kernels, decomp, graphs, oracles

# ----------------------------------------------------------------------
# reference loops (python bigints / numpy)
# ----------------------------------------------------------------------


def _elim_table_py(nbrs, n):
    masks = [int(x) for x in nbrs]
    full = (1 << n) - 1
    size = 1 << n
    g = np.empty(size, dtype=np.int8)
    g[size - 1] = -1
    for s in range(size - 2, -1, -1):
        comps = []
        rem = s
        while rem:
            seed = rem & -rem
            comp = seed
            stack = seed
            ext = 0
            while stack:
                b = stack & -stack
                stack ^= b
                nv = masks[b.bit_length() - 1]
                ext |= nv
                grow = nv & s & ~comp
                comp |= grow
                stack |= grow
            comps.append((comp, ext & ~s))
            rem &= ~comp
        best = 127
        m = full & ~s
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            reach = masks[v]
            for comp, ext in comps:
                if masks[v] & comp:
                    reach |= ext
            q = (reach & ~(s | (1 << v)) & full).bit_count()
            sub = g[s | (1 << v)]
            w = q if q > sub else sub
            if w < best:
                best = w
        g[s] = best
    return g


def _boundary_table_py(nbrs, n):
    masks = [int(x) for x in nbrs]
    size = 1 << n
    b = np.empty(size, dtype=np.int8)
    b[0] = 0
    for s in range(1, size):
        cnt = 0
        m = s
        while m:
            bit = m & -m
            m ^= bit
            if masks[bit.bit_length() - 1] & ~s:
                cnt += 1
        b[s] = cnt
    return b


def _sep_table_py(b, n):
    size = 1 << n
    h = np.empty(size, dtype=np.int8)
    h[size - 1] = 0
    bs = b
    for s in range(size - 2, -1, -1):
        best = 127
        for v in range(n):
            bit = 1 << v
            if s & bit:
                continue
            nxt = s | bit
            w = bs[nxt] if bs[nxt] > h[nxt] else h[nxt]
            if w < best:
                best = w
        h[s] = best
    return h


def _bv_table_py(nbrs, n):
    masks = [int(x) for x in nbrs]
    best = [None] * (n + 1)
    for s in range(1 << n):
        nb = 0
        m = s
        cnt = 0
        while m:
            bit = m & -m
            m ^= bit
            nb |= masks[bit.bit_length() - 1]
            cnt += 1
        phi = (nb & ~s & ((1 << n) - 1)).bit_count()
        if best[cnt] is None or phi < best[cnt]:
            best[cnt] = phi
    return np.asarray(best, dtype=np.int64)


# ----------------------------------------------------------------------
# subset DPs
# ----------------------------------------------------------------------


def _masks(g):
    return np.asarray(g.neighbor_masks(), dtype=np.uint64)


def _random_graph(n, picks):
    pairs = list(itertools.combinations(range(n), 2))
    return graphs.Graph(n, [pairs[i % len(pairs)] for i in picks] if pairs else [])


random_graphs = st.tuples(
    st.integers(1, 12), st.lists(st.integers(0, 65), max_size=40)
).map(lambda args: _random_graph(*args))


@settings(max_examples=40, deadline=None)
@given(random_graphs)
@example(graphs.Graph(1, []))
@example(graphs.Graph(6, [(0, 1), (2, 3), (3, 4)]))  # disconnected, one isolate
@example(graphs.gen_petersen(5, 2))
@example(graphs.gen_hamming(2, 2, 3))
@example(graphs.gen_johnson(5, 2))
# the treewidth DP's lower bound lets one flood per subset through on
# K_8 and on the edgeless graph, 68% of the (S, v) floods on the star
# K_{1,7} and 49% on GP(7, 2)
@example(graphs.Graph(8, list(itertools.combinations(range(8), 2))))
@example(graphs.Graph(8, [(0, v) for v in range(1, 8)]))
@example(graphs.Graph(7, []))
@example(graphs.gen_petersen(7, 2))
def test_subset_tables_match(g):
    masks, n = _masks(g), g.num_vertices
    fast = (_kernels.elim_table(masks, n), _kernels.sep_table(masks, n), _kernels.bv_table(masks, n))
    boundary = _boundary_table_py(masks, n)
    # the kernel returns max(inner boundary, suffix)
    slow = (_elim_table_py(masks, n), np.maximum(boundary, _sep_table_py(boundary, n)), _bv_table_py(masks, n))
    for a, b in zip(fast, slow):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def test_oracles_match_reference_kernels(monkeypatch):
    gs = (
        graphs.gen_petersen(5, 2),
        graphs.gen_petersen(7, 2),
        graphs.Graph(9, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3), (3, 5)]),  # a triangle, a chorded 4-cycle, two isolates
    )

    def answers():
        return [(oracles.exact_treewidth(g), oracles.exact_pathwidth(g), list(oracles.bv_table(g))) for g in gs]

    fast = answers()
    for name in ("elim_table", "bv_table"):
        monkeypatch.setattr(_kernels, name, globals()[f"_{name}_py"])

    def sep_table(nbrs, n):
        boundary = _boundary_table_py(nbrs, n)
        return np.maximum(boundary, _sep_table_py(boundary, n))

    monkeypatch.setattr(_kernels, "sep_table", sep_table)
    assert fast == answers()


def _traced_peak(oracle, g):
    tracemalloc.start()
    try:
        oracle(g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pathwidth_dp_holds_one_table():
    # GP(11, 2) has 22 vertices, so its int8 table is 2^22 bytes; a
    # second 2^n table would take the peak past the bound
    assert _traced_peak(oracles.exact_pathwidth, graphs.gen_petersen(11, 2)) < 1.75 * 2**22


def test_treewidth_dp_holds_one_table():
    # the DP's lower bound is computed per block, never as a second 2^n array
    assert _traced_peak(oracles.exact_treewidth, graphs.gen_petersen(11, 2)) < 1.75 * 2**22


def test_layer_blocks_cover_each_subset_once():
    for n in range(0, 21):
        seen = []
        last_k = n
        for k, block in _kernels._layer_blocks(n):
            assert k <= last_k
            last_k = k
            assert 0 < len(block) <= 1 << 15
            assert (np.unpackbits(block.view(np.uint8)).reshape(-1, 64).sum(axis=1) == k).all()
            seen.append(block)
        assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(1 << n))


# ----------------------------------------------------------------------
# certificate validators
# ----------------------------------------------------------------------


def test_decomposition_validator_matches():
    g = graphs.gen_petersen(9, 2)
    for mode in ("verbatim", "repaired"):
        d = decomp.petersen_pd(9, 2, mode)
        report = decomp.validate_decomposition(g, d)
        if mode == "repaired":
            assert report.ok and report.width == 6
        else:
            assert set(report.uncovered_edges) == {(2, 11)}
