"""Decomposition validators, constructors, chordal completion certificates, .td round trip."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from widthlab import decomp, graphs, oracles, widthcalc
from widthlab.decomp import Decomposition, DecompositionReport
from widthlab.errors import ParameterError, ParseError, PreconditionError, SizeCapError, StructuralError

# ----------------------------------------------------------------------
# reference validator: the interval route for paths, python sets for
# trees (the implementation validate_decomposition replaced), copied
# unchanged except that the bag-occurrence kernel and the bag sets are
# local
# ----------------------------------------------------------------------


def _bag_occurrence(flat: np.ndarray, offsets: np.ndarray, nverts: int):
    """Per-vertex first/last/number-of bags (plus in-bag duplicate counts).

    Vertices in no bag get first = last = -1 and zero counts. One sort
    of the keys ``vertex * nbags + bag`` groups the bags of each vertex
    in order.
    """
    flat = np.asarray(flat, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    nbags = len(offsets) - 1
    keys = flat * nbags
    keys += np.repeat(np.arange(nbags, dtype=np.int64), np.diff(offsets))
    keys.sort()
    distinct = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    keys = keys[distinct]  # one key per (vertex, bag) pair
    v = keys // nbags
    first = np.ones(len(v), dtype=bool)  # first / last key of each vertex
    np.not_equal(v[1:], v[:-1], out=first[1:])
    last = np.ones(len(v), dtype=bool)
    last[:-1] = first[1:]
    lo = np.full(nverts, -1, dtype=np.int64)
    hi = np.full(nverts, -1, dtype=np.int64)
    lo[v[first]] = keys[first] % nbags
    hi[v[last]] = keys[last] % nbags
    count = np.bincount(v, minlength=nverts)
    dup = np.bincount(flat, minlength=nverts) - count
    return lo, hi, count, dup


def _check_shape(d: Decomposition) -> None:
    nb = d.num_bags
    if d.flat.size and (d.flat.min() < 0):
        raise StructuralError("negative vertex id in a bag")
    if d.tree_edges is None:
        return
    e = d.tree_edges
    if e.shape[0] != max(nb - 1, 0):
        raise StructuralError(f"a tree on {nb} bags needs {nb - 1} edges, got {e.shape[0]}")
    if e.size and (e.min() < 0 or e.max() >= nb):
        raise StructuralError("tree edge endpoint out of range")
    parent = list(range(nb))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in e:
        ru, rv = find(int(u)), find(int(v))
        if ru == rv:
            raise StructuralError("bag shape contains a cycle")
        parent[ru] = rv
    if nb and len({find(i) for i in range(nb)}) != 1:
        raise StructuralError("bag shape is disconnected")


def _validate_path(g: graphs.Graph, d: Decomposition) -> DecompositionReport:
    lo, hi, count, dup = _bag_occurrence(d.flat, d.offsets, g.num_vertices)
    present = count > 0
    missing = np.nonzero(~present)[0]
    disconnected = np.nonzero(present & (count != hi - lo + 1))[0]
    ok_trace = np.zeros(g.num_vertices, dtype=bool)
    ok_trace[present] = True
    ok_trace[disconnected] = False
    uncovered = []
    if g.num_edges:
        eu, ev = g.edges[:, 0], g.edges[:, 1]
        fast = ok_trace[eu] & ok_trace[ev]
        overlap = (lo[eu] <= hi[ev]) & (lo[ev] <= hi[eu])
        for idx in np.nonzero(fast & ~overlap)[0]:
            uncovered.append((int(eu[idx]), int(ev[idx])))
        slow = np.nonzero(~fast)[0]
        if slow.size:
            occ = {}
            for b in range(d.num_bags):
                for v in map(int, d.bag(b)):
                    occ.setdefault(v, set()).add(b)
            for idx in slow:
                u, v = int(eu[idx]), int(ev[idx])
                if not (occ.get(u, set()) & occ.get(v, set())):
                    uncovered.append((u, v))
    if int(dup.sum()):
        width = max(len(set(map(int, b))) for b in d.bags()) - 1
    else:
        width = int(np.diff(d.offsets).max()) - 1 if d.num_bags else -1
    uncovered = tuple(sorted(uncovered))
    ok = not (missing.size or uncovered or disconnected.size)
    return DecompositionReport(
        ok,
        width,
        tuple(int(v) for v in missing),
        uncovered,
        tuple(int(v) for v in disconnected),
    )


def _validate_tree(g: graphs.Graph, d: Decomposition) -> DecompositionReport:
    sets = [set(map(int, d.bag(i))) for i in range(d.num_bags)]
    in_bags = {}
    for i, s in enumerate(sets):
        for v in s:
            in_bags.setdefault(v, []).append(i)
    missing = tuple(v for v in range(g.num_vertices) if v not in in_bags)
    shared = {v: 0 for v in in_bags}
    for u, v in d.shape_edges():
        for w in sets[int(u)] & sets[int(v)]:
            shared[w] += 1
    disconnected = tuple(sorted(v for v, bs in in_bags.items() if shared[v] != len(bs) - 1))
    uncovered = []
    for u, v in g.edges:
        u, v = int(u), int(v)
        bu = in_bags.get(u)
        if bu is None or v not in in_bags:
            uncovered.append((u, v))
            continue
        if not any(v in sets[i] for i in bu):
            uncovered.append((u, v))
    width = max((len(s) for s in sets), default=0) - 1
    uncovered = tuple(sorted(uncovered))
    ok = not (missing or uncovered or disconnected)
    return DecompositionReport(ok, width, missing, uncovered, disconnected)


def _validate_ref(g: graphs.Graph, d: Decomposition) -> DecompositionReport:
    _check_shape(d)
    if d.flat.size and d.flat.max() >= g.num_vertices:
        raise StructuralError("bag vertex id out of range for the host graph")
    if d.is_path:
        return _validate_path(g, d)
    return _validate_tree(g, d)


# ----------------------------------------------------------------------
# the validator against the reference
# ----------------------------------------------------------------------


@st.composite
def decomposition_cases(draw):
    """A small host graph and a path or tree decomposition over its vertices.

    Bags may repeat entries, be empty or be absent altogether; traces may
    be missing or broken. A tree is a random recursive tree under a random
    relabelling of the bags, its edges listed in random order and
    orientation, so bag 0 is not always a leaf or the hub.
    """
    n = draw(st.integers(1, 8))
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    g = graphs.Graph(n, draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else [])
    bags = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=5), max_size=8))
    nb = len(bags)
    if nb == 0 or draw(st.booleans()):
        return g, Decomposition.from_bags(bags)
    label = draw(st.permutations(range(nb)))
    edges = []
    for i in range(1, nb):
        a, b = label[i], label[draw(st.integers(0, i - 1))]
        edges.append((a, b) if draw(st.booleans()) else (b, a))
    return g, Decomposition.from_bags(bags, tree_edges=draw(st.permutations(edges)))


def _as_tree(d: Decomposition, flip: bool) -> Decomposition:
    edges = d.shape_edges()
    return Decomposition(d.flat, d.offsets, edges[::-1, ::-1] if flip else edges)


_C4 = graphs.Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
_P92 = graphs.gen_petersen(9, 2)
_BK52 = graphs.gen_bipartite_kneser(5, 2)
_STAR = decomp.independent_set_td(_BK52, [v for v in range(_BK52.num_vertices) if len(_BK52.labels[v]) == 2])


@settings(max_examples=500, deadline=None)
@given(decomposition_cases())
@example((_C4, Decomposition.from_bags([])))  # zero bags
@example((graphs.Graph(0, []), Decomposition.from_bags([[], []], tree_edges=[(1, 0)])))  # no vertices
@example((_C4, Decomposition.from_bags([[], [0, 0, 1], [], [1, 2, 2]], tree_edges=[(3, 1), (0, 1), (2, 0)])))
@example((_C4, Decomposition.from_bags([[0, 1], [1], [1, 0, 2]])))  # 0 broken, 3 missing
@example((_C4, Decomposition.from_bags([[0, 3], [1], [0, 2], [3, 2]], tree_edges=[(1, 0), (2, 0), (3, 0)])))
@example((_P92, decomp.petersen_pd(9, 2, "verbatim")))
@example((_P92, _as_tree(decomp.petersen_pd(9, 2, "verbatim"), True)))
@example((_P92, _as_tree(decomp.petersen_pd(9, 2, "repaired"), False)))
@example((_BK52, _STAR))
@example((_BK52, Decomposition(_STAR.flat, _STAR.offsets, _STAR.tree_edges[::-1, ::-1])))
def test_validator_matches_reference(case):
    g, d = case
    assert decomp.validate_decomposition(g, d) == _validate_ref(g, d)


@pytest.mark.parametrize(
    "bags, tree_edges",
    [
        ([[0], [1], [2]], [(0, 1), (0, 1)]),  # a repeated edge
        ([[0], [1], [2]], [(0, 1), (1, 0)]),  # the same, reversed
        ([[0], [1], [2], [3]], [(1, 2), (2, 3), (3, 1)]),  # a cycle away from bag 0
        ([[0, 1], [1, 2], [2, 3]], [(0, 1)]),  # too few edges
        ([[0], [1]], [(0, 2)]),  # an endpoint out of range
        ([[0], [-1]], [(0, 1)]),  # a negative vertex id
        ([[0], [-1]], None),
        ([[0, 9]], None),  # a vertex id out of range for the host
    ],
)
def test_shape_errors_match_reference(bags, tree_edges):
    d = Decomposition.from_bags(bags, tree_edges=tree_edges)
    with pytest.raises(StructuralError) as ref:
        _validate_ref(_C4, d)
    with pytest.raises(StructuralError) as new:
        decomp.validate_decomposition(_C4, d)
    assert type(new.value) is type(ref.value)


def cycle(n):
    return graphs.Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_single_bag_is_valid():
    g = cycle(4)
    d = Decomposition.from_bags([[0, 1, 2, 3]])
    report = decomp.validate_decomposition(g, d)
    assert report.ok and report.width == 3


def test_missing_edge_reported():
    g = cycle(4)
    d = Decomposition.from_bags([[0, 1], [1, 2], [2, 3]])
    report = decomp.validate_decomposition(g, d)
    assert not report.ok
    assert report.uncovered_edges == ((0, 3),)
    assert report.missing_vertices == ()
    assert report.disconnected_vertices == ()


def test_broken_trace_reported():
    g = graphs.Graph(3, [(0, 1), (1, 2)])
    d = Decomposition.from_bags([[0, 1], [1], [1, 0, 2]])
    report = decomp.validate_decomposition(g, d)
    assert not report.ok
    assert report.disconnected_vertices == (0,)


def test_malformed_shapes_raise():
    g = cycle(4)
    with pytest.raises(StructuralError):
        decomp.validate_decomposition(
            g, Decomposition.from_bags([[0, 1], [1, 2], [2, 3]], tree_edges=[(0, 1)])
        )
    with pytest.raises(StructuralError):
        decomp.validate_decomposition(
            g, Decomposition.from_bags([[0], [1], [2]], tree_edges=[(0, 1), (0, 1)])
        )
    with pytest.raises(StructuralError):
        decomp.validate_decomposition(g, Decomposition.from_bags([[0, 9]]))
    with pytest.raises(StructuralError):
        Decomposition(np.array([]), np.array([]))  # no offsets at all
    with pytest.raises(StructuralError):
        Decomposition(np.array([0, 1]), np.array([0, 1, 2]), tree_edges=[0, 1, 1])  # an odd number of edge ends


# ----------------------------------------------------------------------
# reference double-cycle path decomposition: the bag-by-bag construction
# petersen_pd replaced, copied unchanged except for its name
# ----------------------------------------------------------------------


def _xyzw(n: int, k: int, i: int):
    """Window bags at step i (1-based vertex indices, no wraparound needed)."""
    x = {("u", j) for j in range(k + i, 2 * k + i)} | {("v", 2 * k + i - 1)}
    y = x | {("u", 2 * k + i)}
    z = y - {("u", k + i)}
    w = z | {("v", 2 * k + i)}
    return x, y, z, w


def _pid(n: int, tag: str, j: int) -> int:
    return j - 1 if tag == "v" else n + j - 1


def _petersen_pd_reference(n: int, k: int, mode: str = "repaired") -> Decomposition:
    """Path decomposition of the double-cycle graph on 2n vertices.

    ``verbatim`` follows the original recipe (seed bags B1, B2, then
    the sliding X/Y/Z/W window from i=1); ``repaired`` drops B2 and
    starts the window at i = 1-k. Both add the anchor set
    {v_1, u_1..u_k} to every bag; max bag size is 2k+3, so the width
    is 2k+2.
    """
    if mode not in ("verbatim", "repaired"):
        raise ParameterError(f"mode must be 'verbatim' or 'repaired', got {mode!r}")
    if not (k >= 1 and 2 * k < n):
        raise ParameterError(f"need 1 <= k < n/2, got n={n} k={k}")
    anchor = [0] + [n + j for j in range(k)]  # v_1, u_1..u_k
    asize = k + 1

    prefix = [sorted({_pid(n, "v", j) for j in range(1, k + 1)} | set(anchor))]
    if mode == "verbatim":
        prefix.append(sorted({_pid(n, "v", j) for j in range(k, 2 * k + 1)} | set(anchor)))
    else:
        for i in range(1 - k, 1):
            for bag in _xyzw(n, k, i):
                prefix.append(sorted({_pid(n, tag, j) for tag, j in bag} | set(anchor)))

    m = n - 2 * k
    iv = np.arange(1, m + 1, dtype=np.int64)[:, None]
    anchor_cols = np.asarray(anchor, dtype=np.int64)[None, :].repeat(m, axis=0)
    uwin = lambda lo_off, width: (n - 1) + (iv + lo_off + np.arange(width, dtype=np.int64)[None, :])
    vcol = lambda off: (iv + off) - 1
    x_rows = np.concatenate([uwin(k, k), vcol(2 * k - 1), anchor_cols], axis=1)
    y_rows = np.concatenate([uwin(k, k + 1), vcol(2 * k - 1), anchor_cols], axis=1)
    z_rows = np.concatenate([uwin(k + 1, k), vcol(2 * k - 1), anchor_cols], axis=1)
    w_rows = np.concatenate([uwin(k + 1, k), vcol(2 * k - 1), vcol(2 * k), anchor_cols], axis=1)
    main = np.concatenate([x_rows, y_rows, z_rows, w_rows], axis=1).ravel()
    sizes_main = np.tile(
        np.asarray([x_rows.shape[1], y_rows.shape[1], z_rows.shape[1], w_rows.shape[1]], dtype=np.int64),
        m,
    )
    # final bag X_{m+1} = {u_{n-k+1}..u_n, v_n}
    last = np.concatenate(
        [
            (n - 1) + (k + m + 1 + np.arange(k, dtype=np.int64)),
            np.asarray([n - 1], dtype=np.int64),
            np.asarray(anchor, dtype=np.int64),
        ]
    )
    sizes = np.concatenate(
        [
            np.asarray([len(b) for b in prefix], dtype=np.int64),
            sizes_main,
            np.asarray([len(last)], dtype=np.int64),
        ]
    )
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    flat = np.concatenate(
        [np.asarray([v for b in prefix for v in b], dtype=np.int64), main, last]
    )
    return Decomposition(flat, offsets, tree_edges=None)


@pytest.mark.parametrize("mode", ["verbatim", "repaired"])
def test_petersen_pd_matches_reference(mode):
    # k = 1 included: there v_{2k-1} = v_1 already sits in the anchor
    for k in range(1, 7):
        for n in [2 * k + 1, 2 * k + 2, 2 * k + 3, 3 * k + 4, 40, 97]:
            new, ref = decomp.petersen_pd(n, k, mode), _petersen_pd_reference(n, k, mode)
            assert new.flat.dtype == ref.flat.dtype and new.offsets.dtype == ref.offsets.dtype
            assert new.flat.tolist() == ref.flat.tolist(), (n, k)
            assert new.offsets.tolist() == ref.offsets.tolist(), (n, k)
            assert new.is_path


@pytest.mark.parametrize("n", [5, 7, 12, 40])
def test_petersen_pd_verbatim_skip_one(n):
    g = graphs.gen_petersen(n, 1)
    report = decomp.validate_decomposition(g, decomp.petersen_pd(n, 1, "verbatim"))
    assert report.ok and report.width == 4


@pytest.mark.parametrize("n,k", [(5, 2), (7, 2), (8, 3), (12, 5), (30, 4)])
def test_petersen_pd_repaired(n, k):
    g = graphs.gen_petersen(n, k)
    report = decomp.validate_decomposition(g, decomp.petersen_pd(n, k, "repaired"))
    assert report.ok and report.width == 2 * k + 2


@pytest.mark.parametrize("n,k", [(5, 2), (7, 2), (8, 3), (12, 5)])
def test_petersen_pd_verbatim_gap(n, k):
    g = graphs.gen_petersen(n, k)
    report = decomp.validate_decomposition(g, decomp.petersen_pd(n, k, "verbatim"))
    expected = set()
    for j in range(k + 1, 2 * k):
        pair = (g.index_of_label(("v", j)), g.index_of_label(("u", j)))
        expected.add((min(pair), max(pair)))
    assert not report.ok
    assert set(report.uncovered_edges) == expected
    assert report.missing_vertices == () and report.disconnected_vertices == ()
    assert report.width == 2 * k + 2


def test_petersen_pd_parameter_errors():
    with pytest.raises(ParameterError):
        decomp.petersen_pd(6, 3)
    with pytest.raises(ParameterError):
        decomp.petersen_pd(7, 2, "other")


def test_independent_set_td_square():
    g = cycle(4)
    d = decomp.independent_set_td(g, [0, 2])
    report = decomp.validate_decomposition(g, d)
    assert report.ok and report.width == 2


def test_independent_set_td_kneser():
    g = graphs.gen_bipartite_kneser(5, 2)
    left = [v for v in range(g.num_vertices) if len(g.labels[v]) == 2]
    d = decomp.independent_set_td(g, left)
    report = decomp.validate_decomposition(g, d)
    assert report.ok and report.width == 10


def test_independent_set_td_rejects_bad_inputs():
    g = cycle(4)
    with pytest.raises(PreconditionError):
        decomp.independent_set_td(g, [])
    with pytest.raises(PreconditionError):
        decomp.independent_set_td(g, [0, 1])


def test_lift_single_bag():
    d = Decomposition.from_bags([[0, 1]])
    lifted = decomp.lift_pd(d, 1, 1, 4)
    g = graphs.gen_hamming(1, 4, 1)  # complete graph on four letters
    report = decomp.validate_decomposition(g, lifted)
    assert report.ok and report.width == 3


def test_lift_even_alphabet_width_exact():
    # optimal-width decomposition of the 4-cycle of binary words
    base = graphs.gen_hamming(1, 2, 2)
    square = Decomposition.from_bags([[0, 1, 2], [1, 2, 3]])
    assert decomp.validate_decomposition(base, square).ok
    lifted = decomp.lift_pd(square, 1, 2, 4)
    target = graphs.gen_hamming(1, 4, 2)
    report = decomp.validate_decomposition(target, lifted)
    assert report.ok
    assert report.width == (2 + 1) * (4 // 2) ** 2 - 1 == 11


@pytest.mark.parametrize("t, q, n", [(1, 4, 6), (2, 4, 6), (1, 6, 5)])
def test_lift_width_exact_on_q_ary_hamming(t, q, n):
    # windows of b + 1 consecutive ids of the binary host (its ids follow
    # the Hales order) form a path decomposition of width b = bw_closed(t, n)
    b = widthcalc.bw_closed(t, n)
    windows = Decomposition.from_bags([range(i, i + b + 1) for i in range(2**n - b)])
    lifted = decomp.lift_pd(windows, t, n, q)
    report = decomp.validate_decomposition(graphs.gen_hamming(t, q, n), lifted)
    assert report.ok
    assert report.width == (b + 1) * (q // 2) ** n - 1


def test_lift_odd_alphabet_width_bounded():
    base = graphs.gen_hamming(1, 2, 2)
    square = Decomposition.from_bags([[0, 1, 2], [1, 2, 3]])
    lifted = decomp.lift_pd(square, 1, 2, 3)
    target = graphs.gen_hamming(1, 3, 2)
    report = decomp.validate_decomposition(target, lifted)
    assert report.ok
    assert report.width + 1 <= (2 + 1) * 2**2  # ceil(3/2)^n preimages


def test_lift_rejects_invalid_input():
    bad = Decomposition.from_bags([[0], [3]])
    with pytest.raises(PreconditionError):
        decomp.lift_pd(bad, 1, 2, 4)


def _lift_pd_reference(pd, t, n, q):
    """The lift that builds the q-ary host to read its labels (the one lift_pd replaced)."""
    if q < 2:
        raise ParameterError(f"q must be at least 2, got {q}")
    base = graphs.gen_hamming(t, 2, n)
    report = decomp.validate_decomposition(base, pd)
    if not report.ok:
        raise PreconditionError(f"input decomposition is invalid: {report}")
    lifted = graphs.gen_hamming(t, q, n)
    half = (q + 1) // 2
    preimages = [[] for _ in range(base.num_vertices)]
    for x in range(lifted.num_vertices):
        word = lifted.labels[x]
        binary = tuple(0 if a <= half else 1 for a in word) if q > 2 else word
        preimages[base.index_of_label(binary)].append(x)
    bags = [[x for v in map(int, bag) for x in preimages[v]] for bag in pd.bags()]
    edges = None if pd.is_path else pd.tree_edges
    return Decomposition.from_bags(bags, tree_edges=edges)


def _windows(t, n):
    b = widthcalc.bw_closed(t, n)
    return Decomposition.from_bags([range(i, i + b + 1) for i in range(2**n - b)])


_LIFT_CASES = [
    (Decomposition.from_bags([[0, 1]]), 1, 1),
    (Decomposition.from_bags([[0, 1, 2], [1, 2, 3]]), 1, 2),
    (_windows(1, 6), 1, 6),
    (_windows(2, 5), 2, 5),
    (_windows(1, 5), 1, 5),
    (_windows(3, 4), 3, 4),
    (decomp.independent_set_td(graphs.gen_hamming(1, 2, 3), [0, 7]), 1, 3),  # a tree shape
]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("d, t, n", _LIFT_CASES)
def test_lift_matches_reference(d, t, n, q):
    new, ref = decomp.lift_pd(d, t, n, q), _lift_pd_reference(d, t, n, q)
    assert new.flat.tolist() == ref.flat.tolist()
    assert new.offsets.tolist() == ref.offsets.tolist()
    assert new.is_path == ref.is_path
    if not new.is_path:
        assert new.tree_edges.tolist() == ref.tree_edges.tolist()


def test_lift_keeps_the_vertex_cap():
    # 16^5 = 2^20 words sit at graphs.MAX_VERTICES; 17^5 is over it
    with pytest.raises(SizeCapError):
        decomp.lift_pd(_windows(1, 5), 1, 5, 17)


def test_fillin_square():
    g = cycle(4)
    cert = decomp.fillin_chordal(g, [0, 1, 2, 3])
    assert cert.omega == 3
    assert cert.graph.num_edges == 5  # one chord added
    assert decomp.peo_clique_number(cert.graph, cert.peo) == 3


def test_fillin_tree_no_fill():
    tree = graphs.Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    cert = decomp.fillin_chordal(tree, [0, 2, 4, 3, 1])  # leaves first
    assert cert.omega == 2
    assert cert.graph.num_edges == tree.num_edges


def test_fillin_optimal_order_matches_treewidth():
    g = graphs.gen_johnson(5, 2)
    tw, order = oracles.exact_treewidth(g)
    cert = decomp.fillin_chordal(g, order)
    assert cert.omega - 1 == tw


def test_fillin_requires_bijection():
    with pytest.raises(ParameterError):
        decomp.fillin_chordal(cycle(4), [0, 1, 2])
    for order in ([0, 1, 2], [0, 1, 2, 2], [0, 1, 2, 4], [0, 1, 2, 3, 0]):
        with pytest.raises(ParameterError):
            decomp.peo_clique_number(cycle(4), order)


def _later_neighbourhoods(g, order):
    pos = {v: i for i, v in enumerate(order)}
    return [[u for u in map(int, g.neighbors(v)) if pos[u] > pos[v]] for v in range(g.num_vertices)]


def _is_clique(g, vertices):
    return all(b in g.neighbors(a) for a, b in itertools.combinations(vertices, 2))


def _clique_number_brute(g):
    best = min(g.num_vertices, 1)
    for size in range(2, g.num_vertices + 1):
        if not any(_is_clique(g, c) for c in itertools.combinations(range(g.num_vertices), size)):
            break  # a clique's subsets are cliques, so nothing larger exists
        best = size
    return best


@st.composite
def graphs_with_orders(draw):
    """A random graph on n <= 9 vertices, a random order, and sometimes its fill-in along that order."""
    n = draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = graphs.Graph(n, [e for e, k in zip(pairs, keep) if k])
    order = draw(st.permutations(range(n)))
    if draw(st.booleans()):  # make the order perfect, so both outcomes are drawn often
        g = decomp.fillin_chordal(g, order).graph
    return g, order


@settings(max_examples=300, deadline=None)
@given(graphs_with_orders())
@example((cycle(4), [0, 1, 2, 3]))
@example((graphs.Graph(1, []), [0]))
def test_peo_check_matches_brute_force(case):
    g, order = case
    if all(_is_clique(g, later) for later in _later_neighbourhoods(g, order)):
        assert decomp.peo_clique_number(g, order) == _clique_number_brute(g)
    else:
        with pytest.raises(PreconditionError, match="perfect elimination order"):
            decomp.peo_clique_number(g, order)


def test_clique_number_from_peo():
    g = graphs.Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert decomp.peo_clique_number(g, range(4)) == 4
    with pytest.raises(PreconditionError, match="at vertex 0"):
        decomp.peo_clique_number(cycle(4), [0, 1, 2, 3])


def test_bk_prime_chain():
    j = graphs.gen_johnson(5, 2)
    tw, order = oracles.exact_treewidth(j)
    cert = decomp.fillin_chordal(j, order)
    merged = decomp.bk_prime(5, 2, cert)
    omega = decomp.peo_clique_number(merged.graph, merged.peo)
    assert omega == merged.omega == max(cert.omega, 4)
    bk = graphs.gen_bipartite_kneser(5, 2)
    twbk, _ = oracles.exact_treewidth(bk)
    assert omega - 1 >= twbk
    # the right part comes first in the order, then the certificate's order
    right = [v for v in range(bk.num_vertices) if len(bk.labels[v]) == 3]
    assert list(merged.peo[: len(right)]) == right
    assert [merged.graph.labels[v] for v in merged.peo[len(right) :]] == [j.labels[v] for v in cert.peo]


def test_bk_prime_right_vertex_cliques_small():
    j = graphs.gen_johnson(5, 2)
    _, order = oracles.exact_treewidth(j)
    merged = decomp.bk_prime(5, 2, decomp.fillin_chordal(j, order)).graph
    right = {v for v in range(merged.num_vertices) if len(merged.labels[v]) == 3}
    # any clique through a right vertex is that vertex plus a subset of
    # its k+1 left neighbors, so at most k+2 vertices
    for v in right:
        assert merged.degrees()[v] == 3


def test_bk_prime_rejects_bad_certificates():
    j = graphs.gen_johnson(5, 2)
    bad = decomp.ChordalCertificate(j, tuple(range(10)), 5)  # j itself is not chordal
    with pytest.raises(PreconditionError):
        decomp.bk_prime(5, 2, bad)
    other = graphs.gen_johnson(5, 1)
    _, order = oracles.exact_treewidth(other)
    cert = decomp.fillin_chordal(other, order)
    with pytest.raises(PreconditionError):
        decomp.bk_prime(5, 2, cert)
    with pytest.raises(ParameterError):
        _, order = oracles.exact_treewidth(j)
        decomp.bk_prime(6, 2, decomp.fillin_chordal(j, order))


@pytest.mark.parametrize("off", [-1, 1])
def test_bk_prime_refuses_a_wrong_clique_number(off):
    j = graphs.gen_johnson(5, 2)
    cert = decomp.fillin_chordal(j, oracles.exact_treewidth(j)[1])
    with pytest.raises(PreconditionError, match="clique number"):
        decomp.bk_prime(5, 2, decomp.ChordalCertificate(cert.graph, cert.peo, cert.omega + off))


def test_bk_prime_refuses_an_order_that_is_not_perfect():
    j = graphs.gen_johnson(5, 2)
    cert = decomp.fillin_chordal(j, oracles.exact_treewidth(j)[1])
    # the filled graph is chordal, but an order that starts at a vertex
    # whose neighbourhood is not a clique is not perfect
    v = next(v for v in range(j.num_vertices) if not _is_clique(cert.graph, cert.graph.neighbors(v).tolist()))
    wrong = (v,) + tuple(u for u in cert.peo if u != v)
    assert not _is_clique(cert.graph, _later_neighbourhoods(cert.graph, wrong)[v])
    with pytest.raises(PreconditionError, match="perfect elimination order"):
        decomp.bk_prime(5, 2, decomp.ChordalCertificate(cert.graph, wrong, cert.omega))


def test_td_round_trip_bit_exact(tmp_path):
    g = graphs.gen_petersen(7, 2)
    d = decomp.petersen_pd(7, 2, "repaired")
    first = tmp_path / "a.td"
    second = tmp_path / "b.td"
    decomp.write_td(d, g.num_vertices, first)
    back, declared = decomp.read_td(first)
    assert declared == g.num_vertices
    assert decomp.validate_decomposition(g, back).ok
    decomp.write_td(back, declared, second)
    assert first.read_bytes() == second.read_bytes()


def test_td_round_trip_star(tmp_path):
    g = graphs.gen_bipartite_kneser(5, 2)
    left = [v for v in range(g.num_vertices) if len(g.labels[v]) == 2]
    d = decomp.independent_set_td(g, left)
    path = tmp_path / "star.td"
    decomp.write_td(d, g.num_vertices, path)
    back, _ = decomp.read_td(path)
    assert decomp.validate_decomposition(g, back).ok
    assert [list(map(int, b)) for b in back.bags()] == [list(map(int, b)) for b in d.bags()]


def test_td_parse_errors(tmp_path):
    bad = tmp_path / "bad.td"
    bad.write_text("s td 1 2\n")
    with pytest.raises(ParseError) as err:
        decomp.read_td(bad)
    assert err.value.line == 1
    bad.write_text("b 1 2\n")
    with pytest.raises(ParseError):
        decomp.read_td(bad)
    bad.write_text("s td 2 1 3\nb 1 1\nb 1 2\n1 2\n")
    with pytest.raises(ParseError):
        decomp.read_td(bad)


def test_td_bag_larger_than_declared_max(tmp_path):
    bad = tmp_path / "bad.td"
    for text, line in (("s td 1 1 3\nb 1 1 2 3\n", 2), ("s td 2 2 3\nb 1 1 2\nb 2 1 2 3\n1 2\n", 3)):
        bad.write_text(text)
        with pytest.raises(ParseError) as err:
            decomp.read_td(bad)
        assert err.value.line == line


def test_td_negative_counts(tmp_path):
    bad = tmp_path / "bad.td"
    for header in ("s td -1 0 3", "s td 1 -1 3", "s td 1 0 -3"):
        bad.write_text(f"c header\n{header}\n")
        with pytest.raises(ParseError) as err:
            decomp.read_td(bad)
        assert err.value.line == 2
