"""Exhaustive baseline computations and their certificates."""

import functools
import itertools
import math
from types import SimpleNamespace

import pytest

from widthlab import bounds, decomp, graphs, oracles, suites, widthcalc
from widthlab.errors import ParameterError, PreconditionError, SizeCapError


def path(n):
    return graphs.Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return graphs.Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return graphs.Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_treewidth_small():
    assert oracles.exact_treewidth(complete(4))[0] == 3
    assert oracles.exact_treewidth(cycle(5))[0] == 2
    assert oracles.exact_treewidth(path(6))[0] == 1


def test_treewidth_petersen():
    tw, order = oracles.exact_treewidth(graphs.gen_petersen(5, 2))
    assert tw == 4
    assert sorted(order) == list(range(10))


def test_treewidth_order_certifies_value():
    for g in [cycle(6), graphs.gen_petersen(5, 2), graphs.gen_johnson(5, 2)]:
        tw, order = oracles.exact_treewidth(g)
        cert = decomp.fillin_chordal(g, order)
        assert cert.omega - 1 == tw


def test_treewidth_deterministic():
    g = graphs.gen_petersen(7, 2)
    assert oracles.exact_treewidth(g) == oracles.exact_treewidth(g)


def test_pathwidth_small():
    assert oracles.exact_pathwidth(path(5))[0] == 1
    assert oracles.exact_pathwidth(cycle(5))[0] == 2
    assert oracles.exact_pathwidth(complete(4))[0] == 3


def test_pathwidth_binary_distance_graphs():
    assert oracles.exact_pathwidth(graphs.gen_hamming(1, 2, 3))[0] == widthcalc.bw_closed(1, 3) == 4
    assert oracles.exact_pathwidth(graphs.gen_hamming(2, 2, 4))[0] == widthcalc.bw_closed(2, 4) == 12


def test_pathwidth_order_certifies_value():
    g = graphs.gen_hamming(1, 2, 3)
    pw, order = oracles.exact_pathwidth(g)
    masks = g.neighbor_masks()
    placed = 0
    worst = 0
    for v in order:
        placed |= 1 << v
        boundary = sum(1 for u in range(g.n) if (placed >> u) & 1 and masks[u] & ~placed)
        worst = max(worst, boundary)
    assert worst == pw


def test_bandwidth_small():
    assert oracles.exact_bandwidth(path(4))[0] == 1
    assert oracles.exact_bandwidth(cycle(4))[0] == 2
    assert oracles.exact_bandwidth(graphs.gen_hamming(2, 2, 3))[0] == widthcalc.bw_closed(2, 3) == 6


BW_ZOO = {name: make() for name, make in suites._ZOO}
BW_ZOO = {name: g for name, g in BW_ZOO.items() if g.num_vertices <= oracles.BW_CAP}


def test_bandwidth_order_certifies_value():
    for name, g in BW_ZOO.items():
        bw, order = oracles.exact_bandwidth(g)
        assert sorted(order) == list(range(g.num_vertices)), name
        pos = {v: i for i, v in enumerate(order)}
        realized = max(abs(pos[int(u)] - pos[int(v)]) for u, v in g.edges)
        assert realized == bw, name


def test_boundary_oracles():
    assert oracles.bv_table(cycle(4)).tolist() == [0, 2, 2, 1, 0]
    bv = oracles.bv_table(graphs.gen_hamming(1, 2, 4))
    assert bv[1] == 4  # single vertex boundary = degree
    assert bv[8] == 6
    for g in [cycle(5), graphs.gen_petersen(5, 2)]:
        assert oracles.bv_table(g)[1] == g.min_degree()


def test_size_caps():
    big = graphs.gen_hamming(1, 2, 5)  # 32 vertices
    with pytest.raises(SizeCapError):
        oracles.exact_treewidth(big)
    with pytest.raises(SizeCapError):
        oracles.exact_bandwidth(graphs.gen_hamming(1, 2, 4))
    with pytest.raises(SizeCapError):
        oracles.bv_table(big)
    with pytest.raises(SizeCapError):
        oracles.min_balanced_separator(graphs.gen_bipartite_kneser(5, 2), 5)


def test_balanced_separator_examples():
    x, a, b = oracles.min_balanced_separator(path(5), 4)
    assert len(x) == 1
    x, a, b = oracles.min_balanced_separator(cycle(6), 4)
    assert len(x) == 2
    assert oracles.min_balanced_separator(complete(5), 1) is None


def test_balanced_separator_is_valid_partition():
    g = graphs.gen_petersen(5, 2)
    tw, _ = oracles.exact_treewidth(g)
    found = oracles.min_balanced_separator(g, tw + 1)
    assert found is not None
    x, a, b = found
    assert len(x) <= tw + 1
    rest = len(a) + len(b)
    assert 3 * len(a) <= 2 * rest and 3 * len(b) <= 2 * rest
    aset, bset = set(a), set(b)
    for u, v in g.edges:
        assert not (int(u) in aset and int(v) in bset)
        assert not (int(v) in aset and int(u) in bset)


@pytest.mark.parametrize(
    "n,expected",
    [(4, 6), (5, 8), (6, 10), (7, 12)],
)
def test_cross_intersecting_sums(n, expected):
    # frozen from this exhaustive scan itself; the closed form
    # C(n,2) - C(n-2,2) + 1 gives the same numbers
    value = oracles.max_cross_intersecting_sum(n, 2)
    assert value == expected
    assert value == math.comb(n, 2) - math.comb(n - 2, 2) + 1


def ksubsets_meeting_all(n, k, family):
    """All k-subsets of [n] (as sorted tuples) intersecting every member of family."""
    return [c for c in itertools.combinations(range(1, n + 1), k) if all(set(c) & set(a) for a in family)]


def test_cross_intersecting_forced_partner():
    partner = ksubsets_meeting_all(5, 2, [(1, 2)])
    assert set(partner) == {c for c in partner if set(c) & {1, 2}}
    assert len(partner) == 7  # all 2-subsets meeting {1,2}
    # the oracle's maximum over families A with their forced partners
    for n in (4, 5):
        subsets = list(itertools.combinations(range(1, n + 1), 2))
        best = 0
        for size in range(1, len(subsets) + 1):
            for family in itertools.combinations(subsets, size):
                partner = ksubsets_meeting_all(n, 2, family)
                if partner:
                    best = max(best, size + len(partner))
        assert best == oracles.max_cross_intersecting_sum(n, 2)


def test_cross_intersecting_cap():
    with pytest.raises(SizeCapError):
        oracles.max_cross_intersecting_sum(8, 2)  # 28 subsets


def test_matching_examples():
    assert oracles.bipartite_perfect_matching(cycle(4)) is not None
    star = graphs.Graph(3, [(0, 1), (0, 2)])
    assert oracles.bipartite_perfect_matching(star) is None
    with pytest.raises(PreconditionError):
        oracles.bipartite_perfect_matching(cycle(5))


@pytest.mark.parametrize("n,k", [(5, 2), (7, 3)])
def test_matching_kneser(n, k):
    g = graphs.gen_bipartite_kneser(n, k)
    matching = oracles.bipartite_perfect_matching(g)
    assert matching is not None and len(matching) == g.num_vertices // 2
    used = {v for pair in matching for v in pair}
    assert len(used) == g.num_vertices
    for u, v in matching:
        assert v in g.neighbors(u)


def test_transversal_examples():
    single = (frozenset({1, 2}),)
    assert oracles.exact_transversal(single) == 1
    disjoint = tuple(frozenset({3 * i, 3 * i + 1}) for i in range(3))
    assert oracles.exact_transversal(disjoint) == 3
    assert oracles.exact_transversal(bounds.petersen_bramble(5, 2).sets) == 3


def test_transversal_rejects_empty_edge():
    with pytest.raises(ParameterError):
        oracles.exact_transversal((frozenset(),))


# ----------------------------------------------------------------------
# oracle-vs-oracle: subset DPs against full permutation enumeration
# ----------------------------------------------------------------------

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st


def _random_graph(n, picks):
    pairs = list(itertools.combinations(range(n), 2))
    edges = [pairs[i % len(pairs)] for i in picks]
    return graphs.Graph(n, edges)


def _elim_width_of_order(g, order):
    adj = [set(map(int, g.neighbors(v))) for v in range(g.num_vertices)]
    width = 0
    for v in order:
        width = max(width, len(adj[v]))
        for a in adj[v]:
            adj[a].discard(v)
            adj[a].update(adj[v] - {a, v})
        adj[v] = set()
    return width


def _separation_of_order(g, order):
    masks = g.neighbor_masks()
    placed = 0
    worst = 0
    for v in order:
        placed |= 1 << v
        worst = max(
            worst,
            sum(1 for u in range(g.num_vertices) if (placed >> u) & 1 and masks[u] & ~placed),
        )
    return worst


small_graphs = st.tuples(
    st.integers(2, 6), st.lists(st.integers(0, 30), min_size=0, max_size=12)
).map(lambda args: _random_graph(*args))


@settings(max_examples=25, deadline=None)
@given(small_graphs)
def test_treewidth_matches_permutation_enumeration(g):
    tw, _ = oracles.exact_treewidth(g)
    brute = min(
        _elim_width_of_order(g, order)
        for order in itertools.permutations(range(g.num_vertices))
    )
    assert tw == brute


@settings(max_examples=25, deadline=None)
@given(small_graphs)
def test_pathwidth_matches_permutation_enumeration(g):
    pw, _ = oracles.exact_pathwidth(g)
    brute = min(
        _separation_of_order(g, order)
        for order in itertools.permutations(range(g.num_vertices))
    )
    assert pw == brute


@settings(max_examples=25, deadline=None)
@given(small_graphs)
def test_bandwidth_matches_permutation_enumeration(g):
    if g.num_edges == 0:
        return
    bw, _ = oracles.exact_bandwidth(g)
    pairs = [(int(u), int(v)) for u, v in g.edges]
    brute = min(
        max(abs(pos[u] - pos[v]) for u, v in pairs)
        for order in itertools.permutations(range(g.num_vertices))
        for pos in [{v: i for i, v in enumerate(order)}]
    )
    assert bw == brute


def test_treewidth_disconnected():
    g = graphs.Graph(6, [(0, 1), (1, 2), (0, 2), (4, 5)])  # triangle + edge + isolate
    assert oracles.exact_treewidth(g)[0] == 2
    assert oracles.exact_pathwidth(g)[0] == 2


@settings(max_examples=15, deadline=None)
@given(small_graphs)
# a greedy by elimination degree alone, without the DP table, gets stuck here
@example(graphs.Graph(7, [(0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 5), (2, 4), (3, 4), (4, 5), (5, 6)]))
def test_treewidth_order_is_lexicographically_smallest_optimum(g):
    tw, order = oracles.exact_treewidth(g)
    best = min(
        (list(p) for p in itertools.permutations(range(g.num_vertices))
         if _elim_width_of_order(g, p) == tw),
    )
    assert order == best


@settings(max_examples=15, deadline=None)
@given(small_graphs)
# a greedy by prefix boundary alone, without the DP table, gets stuck here
@example(graphs.Graph(6, [(0, 2), (0, 3), (1, 4), (1, 5), (2, 3), (2, 5), (3, 5), (4, 5)]))
def test_pathwidth_order_is_lexicographically_smallest_optimum(g):
    pw, order = oracles.exact_pathwidth(g)
    best = min(
        (list(p) for p in itertools.permutations(range(g.num_vertices))
         if _separation_of_order(g, p) == pw),
    )
    assert order == best


# ----------------------------------------------------------------------
# bandwidth: the deepening search against the branch and bound it replaced
# ----------------------------------------------------------------------


def _exact_bandwidth_reference(g):
    """Branch and bound over orderings, pruned only against the incumbent."""
    n = g.num_vertices
    masks = g.neighbor_masks()
    if g.num_edges == 0:
        return 0, list(range(n))

    best = None
    best_order = None
    for start in range(n):
        seen = [start]
        mask = 1 << start
        for v in seen:
            m = masks[v] & ~mask
            while m:
                b = m & -m
                m ^= b
                seen.append(b.bit_length() - 1)
                mask |= b
        for v in range(n):
            if not (mask >> v) & 1:
                seen.append(v)
                mask |= 1 << v
        w = oracles._order_bandwidth(masks, seen)
        if best is None or w < best:
            best, best_order = w, list(seen)

    pos = [-1] * n
    layout = [0] * n

    def dfs(i: int, placed: int, curmax: int) -> None:
        nonlocal best, best_order
        if i == n:
            if curmax < best:
                best, best_order = curmax, list(layout)
            return
        m = placed
        while m:
            b = m & -m
            m ^= b
            u = b.bit_length() - 1
            if masks[u] & ~placed and i - pos[u] >= best:
                return
        for v in range(n):
            bit = 1 << v
            if placed & bit:
                continue
            gap = curmax
            m = masks[v] & placed
            while m:
                b = m & -m
                m ^= b
                gap = max(gap, i - pos[b.bit_length() - 1])
            if gap >= best:
                continue
            pos[v] = i
            layout[i] = v
            dfs(i + 1, placed | bit, gap)
            pos[v] = -1

    dfs(0, 0, 0)
    return best, best_order


@pytest.mark.parametrize("g", BW_ZOO.values(), ids=BW_ZOO.keys())
def test_bandwidth_matches_reference_on_zoo(g):
    assert oracles.exact_bandwidth(g) == _exact_bandwidth_reference(g)


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(2, 9), st.lists(st.integers(0, 35), max_size=24)).map(
    lambda args: _random_graph(*args)
))
@example(graphs.Graph(1, []))
@example(graphs.Graph(7, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6)]))  # disconnected, with an isolate
@example(graphs.Graph(5, []))  # edgeless
# a failed-state key without the last b vertices, or with a window cut
# short while fewer than b vertices are placed, wrongly fails these
@example(graphs.Graph(8, [(0, 2), (0, 4), (0, 6), (0, 7), (1, 2), (1, 5), (2, 3), (3, 4), (3, 6), (3, 7), (4, 6)]))
@example(graphs.Graph(8, [
    (0, 2), (0, 3), (0, 4), (0, 5), (0, 7), (1, 2), (1, 3), (1, 4), (1, 7), (2, 4),
    (2, 5), (2, 6), (2, 7), (3, 4), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7),
]))
def test_bandwidth_matches_reference(g):
    assert oracles.exact_bandwidth(g) == _exact_bandwidth_reference(g)


# ----------------------------------------------------------------------
# balanced separator: one size from the boundary minima against the
# size-by-size search it replaced
# ----------------------------------------------------------------------


def _min_balanced_separator_reference(g, size_cap, cap=oracles.SEPARATOR_CAP):
    """Smallest separator X splitting the rest into parts of at most 2/3 each.

    Exhaustive over all candidate sets of size <= size_cap, smallest
    first; within one size the lexicographically first separator wins.
    Returns ``(X, A, B)`` with no edge between A and B, or None.
    """
    n = g.num_vertices
    oracles._check_cap("balanced separator search", n, cap)
    masks = g.neighbor_masks()
    full = (1 << n) - 1
    for size in range(0, min(size_cap, n) + 1):
        for xs in itertools.combinations(range(n), size):
            xmask = 0
            for v in xs:
                xmask |= 1 << v
            rest = full & ~xmask
            m = rest.bit_count()
            comps = []
            rem = rest
            while rem:
                seed = rem & -rem
                comp = seed
                stack = seed
                while stack:
                    b = stack & -stack
                    stack ^= b
                    grow = masks[b.bit_length() - 1] & rest & ~comp
                    comp |= grow
                    stack |= grow
                comps.append(comp)
                rem &= ~comp
            sizes = [c.bit_count() for c in comps]
            # subset-sum over component sizes: need a part size a with
            # m <= 3a <= 2m; reconstruct the chosen components
            reachable = {0: None}
            for idx, csz in enumerate(sizes):
                nxt = dict(reachable)
                for total, _ in reachable.items():
                    if total + csz not in nxt:
                        nxt[total + csz] = (total, idx)
                reachable = nxt
            choice = None
            for total, parent in reachable.items():
                if 3 * total >= m and 3 * total <= 2 * m:
                    choice = total
                    break
            if choice is None:
                continue
            amask = 0
            cur = choice
            while reachable[cur] is not None:
                prev, idx = reachable[cur]
                amask |= comps[idx]
                cur = prev
            bmask = rest & ~amask
            to_list = lambda mm: [v for v in range(n) if (mm >> v) & 1]
            return to_list(xmask), to_list(amask), to_list(bmask)
    return None


SEPARATOR_ZOO = {name: g for name, build in suites._ZOO for g in [build()] if g.num_vertices <= oracles.SEPARATOR_CAP}


@pytest.mark.parametrize("g", SEPARATOR_ZOO.values(), ids=SEPARATOR_ZOO.keys())
def test_balanced_separator_matches_reference_on_zoo(g):
    # The reference tries sizes 0..min(size_cap, n) in turn, so at a
    # size_cap below the size it finds at size_cap = n it returns None
    # (it runs a prefix of the same loop); one full call gives every cap.
    n = g.num_vertices
    found = _min_balanced_separator_reference(g, n)
    for size_cap in range(n + 1):
        expected = found if len(found[0]) <= size_cap else None
        assert oracles.min_balanced_separator(g, size_cap) == expected, size_cap


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(2, 11), st.lists(st.integers(0, 54), max_size=30)).map(
    lambda args: _random_graph(*args)
))
@example(graphs.Graph(0, []))
@example(graphs.Graph(1, []))
@example(graphs.Graph(9, []))  # edgeless
def test_balanced_separator_matches_reference(g):
    for size_cap in range(-1, g.num_vertices + 2):
        assert oracles.min_balanced_separator(g, size_cap) == _min_balanced_separator_reference(g, size_cap), size_cap


# ----------------------------------------------------------------------
# minimum hitting sets: bounded search tree against the branch and bound
# it replaced and an unpruned exhaustive recursion
# ----------------------------------------------------------------------


def _exact_transversal_reference(hypergraph) -> int:
    """The branch and bound with a greedy-cover incumbent that exact_transversal replaced."""
    edges = [frozenset(e) for e in hypergraph.edges]
    if any(not e for e in edges):
        raise ParameterError("hyperedges must be non-empty")
    if not edges:
        return 0
    vertices = set().union(*edges)
    if len(edges) > oracles.TRANSVERSAL_CAP and len(vertices) > oracles.TRANSVERSAL_CAP:
        raise SizeCapError(
            f"transversal search capped at {oracles.TRANSVERSAL_CAP} vertices or {oracles.TRANSVERSAL_CAP} edges, "
            f"got {len(vertices)} and {len(edges)}"
        )

    def packing_bound(uncovered) -> int:
        used = set()
        count = 0
        for e in sorted(uncovered, key=len):
            if not (e & used):
                count += 1
                used |= e
        return count

    # greedy cover as the starting incumbent
    cover = set()
    remaining = list(edges)
    while remaining:
        counts = {}
        for e in remaining:
            for v in e:
                counts[v] = counts.get(v, 0) + 1
        v = max(sorted(counts), key=lambda u: counts[u])
        cover.add(v)
        remaining = [e for e in remaining if v not in e]
    best = len(cover)

    def branch(size: int, uncovered) -> None:
        nonlocal best
        if not uncovered:
            best = min(best, size)
            return
        if size + packing_bound(uncovered) >= best:
            return
        pivot = min(uncovered, key=lambda e: (len(e), sorted(e)))
        for v in sorted(pivot):
            branch(size + 1, [e for e in uncovered if v not in e])

    branch(0, edges)
    return best


def _hitting_number_brute_force(sets) -> int:
    """Least hitting-set size with no bound and no order: every hitting set
    holds some member of any one unhit set, so try each (memoized on the
    unhit family, which keeps the 25-pair and C25 examples small)."""

    @functools.cache
    def least(unhit):
        if not unhit:
            return 0
        return 1 + min(least(frozenset(s for s in unhit if v not in s)) for v in next(iter(unhit)))

    return least(frozenset(map(frozenset, sets)))


def _cycle_edges(n):
    return [frozenset({i, (i + 1) % n}) for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.frozensets(st.integers(0, 9), min_size=1), max_size=10))
@example([])
@example([frozenset({2 * i, 2 * i + 1}) for i in range(25)])  # tau = 25
@example(_cycle_edges(25))  # tau = 13
def test_transversal_matches_reference_and_brute_force(sets):
    tau = oracles.exact_transversal(sets)
    assert tau == _exact_transversal_reference(SimpleNamespace(edges=sets))
    assert tau == _hitting_number_brute_force(sets)


def test_transversal_cap():
    with pytest.raises(SizeCapError):
        oracles.exact_transversal(_cycle_edges(26))  # 26 sets on 26 vertices
    assert oracles.exact_transversal(_cycle_edges(25) + [frozenset({0, 12})]) == 13  # 26 sets on 25 vertices
