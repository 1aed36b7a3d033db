"""Independent exact computations used as ground truth on small instances.

Every oracle here enumerates or searches exhaustively and refuses
oversized inputs with a hard error; nothing falls back to a heuristic.
Subset dynamic programs run over all 2^n vertex subsets (bitmask
state), so the caps are absolute: each oracle checks its own fixed
``*_CAP`` constant and no argument lifts it. The balanced-separator
size comes from the boundary minima of :func:`bv_table`; only sets of
that size are searched for a witness. Tie-breaking is deterministic: the
treewidth and pathwidth orders are the lexicographically smallest ones
achieving the optimum. The bandwidth order is the best breadth-first
layout (lowest start vertex among the best) when that layout is
already optimal, and otherwise the lexicographically smallest optimal
layout. :func:`exact_transversal` takes a plain set family, such as a
bramble's sets, and runs a bounded search tree.
"""

from __future__ import annotations

from itertools import combinations, count

import numpy as np

from . import _kernels
from .errors import ParameterError, PreconditionError, SizeCapError
from .graphs import Graph, _component
from .hales import slice_order

__all__ = [
    "exact_treewidth",
    "exact_pathwidth",
    "exact_bandwidth",
    "bv_table",
    "min_balanced_separator",
    "max_cross_intersecting_sum",
    "bipartite_perfect_matching",
    "exact_transversal",
]

# Memory bound of the subset DPs: each holds at most one 2^n int8 table
# and works in blocks of at most 2^15 subsets. That is 1 MB at n = 20
# and 32 MB at the 25-vertex cap.
TW_CAP = 25
PW_CAP = 25
BW_CAP = 12
BV_CAP = 20
SEPARATOR_CAP = 18
CROSS_CAP = 21
TRANSVERSAL_CAP = 25


def _masks_u64(g: Graph) -> np.ndarray:
    return np.asarray(g.neighbor_masks(), dtype=np.uint64)


def _check_cap(name: str, n: int, most: int) -> None:
    if n > most:
        raise SizeCapError(f"{name} is capped at {most} vertices, got {n}")


def _elim_degree(masks, s: int, v: int) -> int:
    """Degree of v when eliminated after the vertex set s (fill-aware)."""
    comp = _component(masks, 1 << v, s | 1 << v)
    reach = 0
    while comp:
        b = comp & -comp
        comp ^= b
        reach |= masks[b.bit_length() - 1]
    return (reach & ~(s | (1 << v))).bit_count()


def _greedy_order(n: int, fits) -> list:
    """Lexicographically smallest order taking at each step the first unplaced v with ``fits(placed_mask, v)``."""
    order = []
    placed = 0
    for _ in range(n):
        v = next(v for v in range(n) if not (placed >> v) & 1 and fits(placed, v))
        order.append(v)
        placed |= 1 << v
    return order


def exact_treewidth(g: Graph):
    """Exact treewidth via the eliminated-set subset DP.

    Returns ``(tw, order)`` where eliminating along ``order`` keeps
    every elimination degree at most ``tw`` (so the fill-in of that
    order certifies the value).
    """
    n = g.num_vertices
    _check_cap("exact treewidth", n, TW_CAP)
    if n == 0:
        raise ParameterError("treewidth of the empty graph is undefined")
    table = _kernels.elim_table(_masks_u64(g), n)
    width = int(table[0])
    masks = g.neighbor_masks()
    return width, _greedy_order(n, lambda s, v: int(table[s | 1 << v]) <= width and _elim_degree(masks, s, v) <= width)


def exact_pathwidth(g: Graph):
    """Exact pathwidth as the vertex separation number, by subset DP.

    Returns ``(pw, order)``: placing vertices in ``order`` keeps every
    prefix's inner boundary at most ``pw``.
    """
    n = g.num_vertices
    _check_cap("exact pathwidth", n, PW_CAP)
    if n == 0:
        raise ParameterError("pathwidth of the empty graph is undefined")
    table = _kernels.sep_table(_masks_u64(g), n)
    width = int(table[0])
    return width, _greedy_order(n, lambda s, v: int(table[s | 1 << v]) <= width)


def _distances(masks, n: int) -> list:
    """All-pairs distances (Floyd-Warshall); other components are n apart."""
    dist = [[0 if u == v else 1 if (masks[u] >> v) & 1 else n for v in range(n)] for u in range(n)]
    for k in range(n):
        via = dist[k]
        for row in dist:
            row[:] = [min(d, row[k] + e) for d, e in zip(row, via)]
    return dist


def _ball_lower_bound(dist, n: int) -> int:
    """max over v, r of ceil((|B_r(v)| - 1) / 2r).

    A layout of bandwidth b keeps every vertex within distance r of v
    inside positions pos(v) - r*b .. pos(v) + r*b.
    """
    lb = 0
    for row in dist:
        reach = sorted(d for d in row if d < n)
        for size, r in enumerate(reach[1:], start=2):
            lb = max(lb, -(-(size - 1) // (2 * r)))
    return lb


def _first_layout(dist, n: int, b: int):
    """Lexicographically smallest layout of bandwidth <= b, or None.

    Depth-first over positions, trying vertices in increasing index
    order; a branch is cut only when it cannot be completed within
    width b. Deadline test: every unplaced w must sit at or before
    min over placed u of pos[u] + b*dist(u, w), so the j-th smallest
    deadline must be at least i + j. Failed states are remembered by
    (placed set, last b vertices), which fixes everything a completion
    depends on.
    """
    layout = []
    failed = set()

    def dfs(i: int, placed: int, deadline: list) -> bool:
        if i == n:
            return True
        key = (placed, tuple(layout[max(0, i - b):]))
        if key in failed:
            return False
        free = [v for v in range(n) if not (placed >> v) & 1]
        if all(d >= i + j for j, d in enumerate(sorted(deadline[v] for v in free))):
            for v in free:
                nxt = [min(d, i + b * r) for d, r in zip(deadline, dist[v])]
                layout.append(v)
                if dfs(i + 1, placed | (1 << v), nxt):
                    return True
                layout.pop()
        failed.add(key)
        return False

    return layout if dfs(0, 0, [n - 1] * n) else None


def exact_bandwidth(g: Graph):
    """Exact bandwidth by iterative deepening over layout widths.

    The incumbent is the best BFS layout over all start vertices. Each
    width b from a ball-growth lower bound up to incumbent - 1 is then
    tried by an exhaustive layout search (see ``_first_layout``); the
    first feasible b is the bandwidth and its lexicographically
    smallest layout is the order. When no width below the incumbent is
    feasible the BFS layout is returned as is: for an edgeless graph,
    width 0 and the identity order.
    Returns ``(bw, order)``.
    """
    n = g.num_vertices
    _check_cap("exact bandwidth", n, BW_CAP)
    if n == 0:
        raise ParameterError("bandwidth of the empty graph is undefined")

    best, best_order = n, None  # every layout is narrower than n
    pos = np.empty(n, dtype=np.int64)
    for start in range(n):
        seen = [start]
        reached = [False] * n
        reached[start] = True
        for v in seen:  # neighbours come ascending: each vertex queues its unreached ones lowest first
            for u in g.neighbors(v).tolist():
                if not reached[u]:
                    reached[u] = True
                    seen.append(u)
        seen += [v for v in range(n) if not reached[v]]
        pos[seen] = np.arange(n)
        w = int(np.abs(pos[g.edges[:, 0]] - pos[g.edges[:, 1]]).max(initial=0))
        if w < best:
            best, best_order = w, seen

    dist = _distances(g.neighbor_masks(), n)
    for b in range(_ball_lower_bound(dist, n), best):
        order = _first_layout(dist, n, b)
        if order is not None:
            return b, order
    return best, best_order


def bv_table(g: Graph) -> np.ndarray:
    """Minimum outer boundary per subset size, exhaustive over all 2^n subsets."""
    n = g.num_vertices
    _check_cap("exhaustive boundary minimization", n, BV_CAP)
    return _kernels.bv_table(_masks_u64(g), n)


def min_balanced_separator(g: Graph):
    """Smallest separator X splitting the rest into parts of at most 2/3 each.

    Its size is min over a of s(a) = max(b_v(a), n - 3a), over the a
    with 3a <= 2(n - s(a)): a best a-set is cut off by its boundary
    padded to s(a) vertices, and no separator with a side of size a is
    smaller. Among the sets of that size the lexicographically first
    separator wins. Returns ``(X, A, B)`` with no edge between A and B.
    """
    n = g.num_vertices
    _check_cap("balanced separator search", n, SEPARATOR_CAP)
    sizes = [max(boundary, n - 3 * a) for a, boundary in enumerate(bv_table(g).tolist())]
    size = min(s for a, s in enumerate(sizes) if 3 * a <= 2 * (n - s))  # a = 0 always qualifies
    masks = g.neighbor_masks()
    full = (1 << n) - 1
    for xs in combinations(range(n), size):
        xmask = sum(1 << v for v in xs)
        rest = full & ~xmask
        m = rest.bit_count()
        comps = []
        rem = rest
        while rem:
            comps.append(_component(masks, rem & -rem, rem))
            rem ^= comps[-1]
        # subset-sum over component sizes: the union of components
        # that first reaches each part size a; need m <= 3a <= 2m
        reachable = {0: 0}
        for comp in comps:
            for total, amask in list(reachable.items()):
                reachable.setdefault(total + comp.bit_count(), amask | comp)
        amask = next((amask for total, amask in reachable.items() if m <= 3 * total <= 2 * m), None)
        if amask is None:
            continue
        bmask = rest & ~amask
        to_list = lambda mm: [v for v in range(n) if (mm >> v) & 1]
        return to_list(xmask), to_list(amask), to_list(bmask)
    raise AssertionError(f"no balanced separator of the size {size} that the boundary minima give")


def max_cross_intersecting_sum(n: int, k: int) -> int:
    """Max |A| + |C| over nonempty cross-intersecting pairs of k-subset families.

    For a fixed family A the largest partner C is forced (all k-subsets
    meeting every member of A), so only the 2^C(n,k) choices of A are
    enumerated; C is computed, never enumerated.
    """
    subsets = slice_order(n, k).tolist()
    m = len(subsets)
    if m > CROSS_CAP:
        raise SizeCapError(f"cross-intersecting scan capped at {CROSS_CAP} subsets, got {m}")
    disjoint = np.zeros(m, dtype=np.uint32)
    for i, a in enumerate(subsets):
        mask = 0
        for j, b in enumerate(subsets):
            if not (a & b):
                mask |= 1 << j
        disjoint[i] = mask
    size = 1 << m
    union = np.zeros(size, dtype=np.uint32)
    for bit in range(m):
        lo = 1 << bit
        union[lo : 2 * lo] = union[:lo] | disjoint[bit]
    pop_a = np.bitwise_count(np.arange(size, dtype=np.uint32))
    pop_u = np.bitwise_count(union).astype(np.int64)  # in uint8 the -1 below would read 255
    valid = pop_u < m  # partner family nonempty
    valid[0] = False  # A nonempty
    totals = np.where(valid, pop_a + (m - pop_u), -1)
    return int(totals.max())


def _bipartition(g: Graph):
    n = g.num_vertices
    color = [-1] * n
    for root in range(n):
        if color[root] >= 0:
            continue
        color[root] = 0
        queue = [root]
        for v in queue:
            for u in g.neighbors(v):
                u = int(u)
                if color[u] < 0:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    raise PreconditionError("graph is not bipartite")
    return color


def bipartite_perfect_matching(g: Graph):
    """Perfect matching of a bipartite graph via augmenting paths, or None."""
    color = _bipartition(g)
    n = g.num_vertices
    left = [v for v in range(n) if color[v] == 0]
    match = {}

    def augment(v: int, seen: set) -> bool:
        for u in g.neighbors(v):
            u = int(u)
            if u in seen:
                continue
            seen.add(u)
            if u not in match or augment(match[u], seen):
                match[u] = v
                return True
        return False

    size = 0
    for v in left:
        if augment(v, set()):
            size += 1
    if n % 2 or 2 * size != n:
        return None
    return sorted((v, u) for u, v in match.items())


def exact_transversal(sets) -> int:
    """Minimum hitting-set size of a family of vertex collections such as ``Bramble.sets``.

    Empty sets are refused. ``hit(unhit, k)`` refuses when a greedy packing
    of disjoint unhit sets, smallest first, needs more than k vertices, and
    else branches on each vertex of the smallest unhit set; the answer is
    the least k for which it succeeds.
    """
    sets = [frozenset(s) for s in sets]
    if not all(sets):
        raise ParameterError("sets must be non-empty")
    vertices = set().union(*sets)
    if len(sets) > TRANSVERSAL_CAP and len(vertices) > TRANSVERSAL_CAP:
        raise SizeCapError(
            f"transversal search capped at {TRANSVERSAL_CAP} vertices or {TRANSVERSAL_CAP} edges, "
            f"got {len(vertices)} and {len(sets)}"
        )

    def hit(unhit, k: int) -> bool:  # unhit keeps the order of sets: smallest first
        if not unhit:
            return True
        used, packing = set(), 0
        for s in unhit:
            if not s & used:
                used |= s
                packing += 1
        if packing > k:
            return False
        return any(hit([s for s in unhit if v not in s], k - 1) for v in sorted(unhit[0]))

    sets.sort(key=lambda s: (len(s), sorted(s)))
    return next(k for k in count() if hit(sets, k))
