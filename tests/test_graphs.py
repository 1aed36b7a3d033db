"""Family generators, the graph container, and the .gr round trip."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from widthlab import cli, graphs, hales
from widthlab.errors import ParameterError, ParseError, SizeCapError
from widthlab.graphs import Graph

# ----------------------------------------------------------------------
# reference generators: the all-pairs edge scans that the digit-change
# builder replaced, copied unchanged apart from their names and the
# module prefixes
# ----------------------------------------------------------------------


def _vector_ref(mask: int, n: int) -> tuple:
    """0/1 coordinate tuple of a word bitmask."""
    return tuple((mask >> j) & 1 for j in range(n))


def _edges_within_distance_ref(codes: np.ndarray, t: int) -> np.ndarray:
    """Edges {i<j} whose codeword XOR-popcount lies in [1, t]. codes: uint32."""
    nverts = len(codes)
    out = []
    chunk = max(1, (1 << 22) // max(nverts, 1))
    for start in range(0, nverts, chunk):
        block = codes[start : start + chunk]
        d = np.bitwise_count(block[:, None] ^ codes[None, :])
        ii, jj = np.nonzero((d >= 1) & (d <= t))
        keep = (ii + start) < jj
        out.append(np.column_stack([ii[keep] + start, jj[keep]]))
    return np.concatenate(out) if out else np.zeros((0, 2), np.int64)


def _gen_hamming_ref(t: int, q: int, n: int) -> Graph:
    """Distance-at-most-t graph on q-ary length-n words.

    For q = 2 the vertex order is the boundary-greedy binary order of
    :func:`widthlab.hales.hales_order`; for q > 2 it is lexicographic
    over the alphabet {1..q}.
    """
    graphs.FamilySpec("hamming", t=t, q=q, n=n).validate()
    if q == 2:
        rows = hales.hales_order(n)
        edges = _edges_within_distance_ref(rows, t)
        labels = [_vector_ref(int(r), n) for r in rows]
        return Graph(1 << n, edges, labels=labels)
    words = list(itertools.product(range(1, q + 1), repeat=n))
    arr = np.asarray(words, dtype=np.int16)
    nverts = len(words)
    out = []
    chunk = max(1, (1 << 22) // max(nverts * n, 1))
    for start in range(0, nverts, chunk):
        diff = (arr[start : start + chunk, None, :] != arr[None, :, :]).sum(axis=2)
        ii, jj = np.nonzero((diff >= 1) & (diff <= t))
        keep = (ii + start) < jj
        out.append(np.column_stack([ii[keep] + start, jj[keep]]))
    edges = np.concatenate(out) if out else np.zeros((0, 2), np.int64)
    return Graph(nverts, edges, labels=words)


def _gen_johnson_ref(n: int, k: int) -> Graph:
    """k-subsets of [n], adjacent when the intersection has k-1 elements."""
    graphs.FamilySpec("johnson", n=n, k=k).validate()
    rows = hales.slice_order(n, k)
    edges_mask = np.bitwise_count(rows[:, None] ^ rows[None, :]) == 2
    ii, jj = np.nonzero(edges_mask)
    keep = ii < jj
    edges = np.column_stack([ii[keep], jj[keep]])
    return Graph(len(rows), edges, labels=[graphs._subset_label(int(r)) for r in rows])


def _gen_bipartite_kneser_ref(n: int, k: int) -> Graph:
    """k-subsets versus (n-k)-subsets of [n], adjacent under inclusion (the dense-table builder)."""
    graphs.FamilySpec("bipartite_kneser", n=n, k=k).validate()
    left = hales.slice_order(n, k)
    right = hales.slice_order(n, n - k)
    incl = (left[:, None] & ~right[None, :]) == 0
    ii, jj = np.nonzero(incl)
    nl = len(left)
    edges = np.column_stack([ii, jj + nl])
    labels = [graphs._subset_label(int(r)) for r in left] + [graphs._subset_label(int(r)) for r in right]
    return Graph(nl + len(right), edges, labels=labels)


def _assert_same_graph(new: Graph, ref: Graph):
    assert new.n == ref.n
    assert new.edges.dtype == ref.edges.dtype
    assert np.array_equal(new.edges, ref.edges)  # values and order
    assert new.labels == ref.labels


@pytest.mark.parametrize("q, n", [(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 6)] + [(4, n) for n in range(1, 5)])
def test_hamming_matches_all_pairs_reference(q, n):
    for t in range(1, n + 2):
        _assert_same_graph(graphs.gen_hamming(t, q, n), _gen_hamming_ref(t, q, n))


@pytest.mark.parametrize("n", range(2, 12))
def test_johnson_matches_all_pairs_reference(n):
    for k in range(1, n):
        _assert_same_graph(graphs.gen_johnson(n, k), _gen_johnson_ref(n, k))


@pytest.mark.parametrize("n", range(3, 16))
def test_bipartite_kneser_matches_inclusion_table_reference(n):
    for k in range(1, (n - 1) // 2 + 1):
        _assert_same_graph(graphs.gen_bipartite_kneser(n, k), _gen_bipartite_kneser_ref(n, k))


def test_bipartite_kneser_memory_grows_with_the_edges():
    # BK(15,7) has 51,480 edges; the dense 6,435 x 6,435 inclusion table peaked near 200 MB
    tracemalloc.start()
    try:
        g = graphs.gen_bipartite_kneser(15, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.num_edges == 51480
    assert peak < 32 * 2**20


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 10), (3, 6), (5, 4), (6, 3), (7, 3), (11, 2)]).flatmap(
    lambda qn: st.tuples(st.integers(1, qn[1] + 1), st.just(qn[0]), st.integers(1, qn[1]))
))
def test_hamming_matches_all_pairs_reference_sweep(args):
    _assert_same_graph(graphs.gen_hamming(*args), _gen_hamming_ref(*args))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 13).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))))
def test_johnson_matches_all_pairs_reference_sweep(args):
    _assert_same_graph(graphs.gen_johnson(*args), _gen_johnson_ref(*args))


def brute_edge_count(labels, pred):
    return sum(1 for a, b in itertools.combinations(labels, 2) if pred(a, b))


def hamming_distance(a, b):
    return sum(x != y for x, y in zip(a, b))


def test_hamming_cube():
    g = graphs.gen_hamming(1, 2, 3)
    assert g.num_vertices == 8
    assert g.num_edges == 12
    assert g.is_regular() and g.degrees()[0] == 3


def test_hamming_distance_two():
    g = graphs.gen_hamming(2, 2, 3)
    # count vector pairs at distance <= 2 directly
    expected = brute_edge_count(g.labels, lambda a, b: 1 <= hamming_distance(a, b) <= 2)
    assert g.num_edges == expected == 24
    assert g.is_regular() and g.degrees()[0] == 6


def test_hamming_complete_when_t_large():
    for (t, q, n) in [(3, 2, 3), (5, 2, 3), (2, 3, 2)]:
        g = graphs.gen_hamming(t, q, n)
        v = g.num_vertices
        assert g.num_edges == v * (v - 1) // 2


def test_hamming_edges_monotone_in_t():
    for q, n in [(2, 3), (3, 2)]:
        prev = set()
        for t in range(1, n + 1):
            g = graphs.gen_hamming(t, q, n)
            cur = {(int(u), int(v)) for u, v in g.edges}
            assert prev <= cur
            prev = cur


def test_hamming_binary_vertex_order_is_global_binary_order():
    g = graphs.gen_hamming(1, 2, 4)
    rows = hales.hales_order(4)
    assert g.labels == tuple(_vector_ref(int(r), 4) for r in rows)


def test_johnson_parameters_and_degree():
    g = graphs.gen_johnson(5, 2)
    assert g.num_vertices == 10
    expected = brute_edge_count(g.labels, lambda a, b: len(set(a) & set(b)) == 1)
    assert g.num_edges == expected
    assert g.is_regular() and g.degrees()[0] == 6  # k(n-k)


def test_johnson_singletons_complete():
    g = graphs.gen_johnson(4, 1)
    assert g.num_edges == 6  # K4


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3)])
def test_johnson_is_weight_slice_of_binary_distance_two(n, k):
    j = graphs.gen_johnson(n, k)
    h = graphs.gen_hamming(2, 2, n)
    weight_k = [v for v in range(h.num_vertices) if sum(h.labels[v]) == k]
    # slice order is contiguous inside the global order, so adjacency
    # matrices must agree entry for entry
    assert np.array_equal(h.adjacency_matrix()[np.ix_(weight_k, weight_k)], j.adjacency_matrix())
    ground = [tuple(i + 1 for i, b in enumerate(h.labels[v]) if b) for v in weight_k]
    assert ground == list(j.labels)


def test_bipartite_kneser_desargues():
    g = graphs.gen_bipartite_kneser(5, 2)
    assert g.num_vertices == 20
    assert g.is_regular() and g.degrees()[0] == 3


def test_bipartite_kneser_left_part_independent():
    for k in (1, 2):
        g = graphs.gen_bipartite_kneser(2 * k + 1, k)
        left = {v for v in range(g.num_vertices) if len(g.labels[v]) == k}
        assert len(left) == graphs.hales.slice_order(2 * k + 1, k).size
        for u, v in g.edges:
            assert not (int(u) in left and int(v) in left)


def test_bipartite_kneser_max_degree():
    for (n, k) in [(5, 2), (7, 3), (7, 2)]:
        g = graphs.gen_bipartite_kneser(n, k)
        import math

        assert g.max_degree() == math.comb(n - k, k)


def test_petersen_classic():
    g = graphs.gen_petersen(5, 2)
    assert g.num_vertices == 10 and g.num_edges == 15


def test_petersen_prism():
    g = graphs.gen_petersen(4, 1)
    assert g.num_vertices == 8 and g.num_edges == 12


@pytest.mark.parametrize("n,k", [(5, 2), (7, 3), (9, 2), (11, 4)])
def test_petersen_cubic(n, k):
    g = graphs.gen_petersen(n, k)
    assert g.num_edges == 3 * n
    assert g.is_regular() and g.degrees()[0] == 3


def test_parameter_errors():
    with pytest.raises(ParameterError):
        graphs.gen_hamming(0, 2, 3)
    with pytest.raises(ParameterError):
        graphs.gen_hamming(1, 1, 3)
    with pytest.raises(ParameterError):
        graphs.gen_johnson(3, 3)
    with pytest.raises(ParameterError):
        graphs.gen_bipartite_kneser(4, 2)
    with pytest.raises(ParameterError):
        graphs.gen_petersen(6, 3)


@pytest.mark.parametrize(
    "spec",
    [
        graphs.FamilySpec("hamming", q=2, n=20),
        graphs.FamilySpec("hamming", q=1024, n=2),
        graphs.FamilySpec("johnson", n=graphs.MAX_VERTICES, k=1),
        graphs.FamilySpec("johnson", n=graphs.MAX_VERTICES, k=graphs.MAX_VERTICES - 1),
        graphs.FamilySpec("bipartite_kneser", n=graphs.MAX_VERTICES // 2, k=1),
        graphs.FamilySpec("petersen", n=graphs.MAX_VERTICES // 2, k=1),
    ],
)
def test_vertex_cap_admits_members_at_the_cap(spec):
    spec.validate()  # validation only: nothing is built


@pytest.mark.parametrize(
    "spec",
    [
        graphs.FamilySpec("hamming", q=2, n=21),
        graphs.FamilySpec("hamming", q=2, n=32),
        graphs.FamilySpec("hamming", q=1025, n=2),
        graphs.FamilySpec("hamming", q=3, n=10**9),
        graphs.FamilySpec("johnson", n=graphs.MAX_VERTICES + 1, k=1),
        graphs.FamilySpec("johnson", n=24, k=12),
        graphs.FamilySpec("johnson", n=10**9, k=5 * 10**8),
        graphs.FamilySpec("bipartite_kneser", n=graphs.MAX_VERTICES // 2 + 1, k=1),
        graphs.FamilySpec("bipartite_kneser", n=10**9, k=4 * 10**8),
        graphs.FamilySpec("petersen", n=graphs.MAX_VERTICES // 2 + 1, k=1),
    ],
)
def test_vertex_cap_refuses_larger_members_before_building(monkeypatch, spec):
    def build(*args):
        raise AssertionError("rows were built")

    monkeypatch.setattr(hales, "hales_order", build)
    monkeypatch.setattr(hales, "slice_order", build)
    monkeypatch.setattr(graphs, "_edges_by_digit_changes", build)
    with pytest.raises(SizeCapError, match=f"more than {graphs.MAX_VERTICES} vertices"):
        spec.validate()
    with pytest.raises(SizeCapError):
        graphs.generate(spec)


@pytest.mark.parametrize(
    "spec,direct",
    [
        (graphs.FamilySpec("hamming", t=2, q=3, n=3), lambda: graphs.gen_hamming(2, 3, 3)),
        (graphs.FamilySpec("johnson", n=6, k=2), lambda: graphs.gen_johnson(6, 2)),
        (graphs.FamilySpec("bipartite_kneser", n=5, k=2), lambda: graphs.gen_bipartite_kneser(5, 2)),
        (graphs.FamilySpec("petersen", n=7, k=3), lambda: graphs.gen_petersen(7, 3)),
    ],
)
def test_generate_builds_the_named_member(spec, direct):
    g, h = graphs.generate(spec), direct()
    assert (g.n, g.edges.tolist(), g.labels) == (h.n, h.edges.tolist(), h.labels)


def test_graph_rejects_self_loops_and_duplicate_labels():
    with pytest.raises(ParameterError):
        graphs.Graph(3, [(0, 0)])
    with pytest.raises(ParameterError):
        graphs.Graph(2, [(0, 1)], labels=["a", "a"])


def test_graph_basic_queries():
    g = graphs.Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert sorted(g.neighbors(0).tolist()) == [1, 3]
    assert 2 in g.neighbors(1) and 2 not in g.neighbors(0)
    assert g.degrees().tolist() == [2, 2, 2, 2]
    assert g.min_degree() == g.max_degree() == 2


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 40).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
    max_size=60,
))))
def test_graph_edges_match_unique_rows(args):
    n, raw = args
    edges = raw + [(v, u) for u, v in raw[::3]] + raw[:5]  # reversed and repeated edges
    g = graphs.Graph(n, edges)
    if edges:
        e = np.asarray(edges, dtype=np.int64)
        expected = np.unique(np.column_stack([e.min(axis=1), e.max(axis=1)]), axis=0)
    else:
        expected = np.zeros((0, 2), dtype=np.int64)
    assert g.edges.dtype == np.int64
    assert g.edges.shape == expected.shape
    assert np.array_equal(g.edges, expected)


def _component_ref(g: Graph, seed: set, within: set) -> set:
    """The members of ``within`` that a breadth-first search from ``seed`` reaches inside ``within``."""
    reached = seed & within
    queue = list(reached)
    for v in queue:
        for u in g.neighbors(v).tolist():
            if u in within and u not in reached:
                reached.add(u)
                queue.append(u)
    return reached


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]), max_size=60),
    st.sets(st.integers(0, n - 1)),
    st.sets(st.integers(0, n - 1)),
)))
@example((4, [(0, 1), (1, 2), (2, 3)], set(), {0, 1, 2, 3}))  # an empty seed reaches nothing
@example((4, [(0, 1), (1, 2), (2, 3)], {0, 3}, {0, 1, 3}))  # the path 0-1-2 leaves within at 2
def test_component_matches_breadth_first_search(args):
    n, edges, seed, within = args
    g = graphs.Graph(n, edges)
    bits = lambda vs: sum(1 << v for v in vs)
    got = graphs._component(g.neighbor_masks(), bits(seed), bits(within))
    assert got == bits(_component_ref(g, seed, within))


def test_pace_round_trip(tmp_path):
    g = graphs.gen_petersen(5, 2)
    path = tmp_path / "g.gr"
    graphs.write_graph(g, path)
    back = graphs.read_graph(path)
    _assert_same_graph(back, g)


def test_pace_round_trip_subset_labels(tmp_path):
    g = graphs.gen_bipartite_kneser(5, 2)
    path = tmp_path / "bk.gr"
    graphs.write_graph(g, path)
    _assert_same_graph(graphs.read_graph(path), g)


def test_pace_malformed_header(tmp_path):
    path = tmp_path / "bad.gr"
    path.write_text("p tw x y\n")
    with pytest.raises(ParseError) as err:
        graphs.read_graph(path)
    assert err.value.line == 1


def test_pace_edge_before_header(tmp_path):
    path = tmp_path / "bad.gr"
    path.write_text("1 2\np tw 2 1\n")
    with pytest.raises(ParseError):
        graphs.read_graph(path)


def _assert_gr_rejected(tmp_path, capsys, text, line):
    path = tmp_path / "bad.gr"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        graphs.read_graph(path)
    assert err.value.line == line
    td = tmp_path / "one-bag.td"
    td.write_text("s td 1 3 3\nb 1 1 2 3\n")
    assert cli.main(["decomp", "--gr", str(path), "--td", str(td)]) == 2
    assert f"line {line}:" in capsys.readouterr().err


def test_pace_repeated_edge(tmp_path, capsys):
    _assert_gr_rejected(tmp_path, capsys, "p tw 3 2\n1 2\n1 2\n", 3)
    _assert_gr_rejected(tmp_path, capsys, "p tw 3 3\n1 2\n2 3\n2 1\n", 4)


def test_pace_self_loop(tmp_path, capsys):
    _assert_gr_rejected(tmp_path, capsys, "p tw 3 2\n1 2\n2 2\n", 3)


def test_pace_negative_counts(tmp_path, capsys):
    _assert_gr_rejected(tmp_path, capsys, "c a comment\np tw -1 0\n", 2)
    _assert_gr_rejected(tmp_path, capsys, "p tw 3 -1\n", 1)


def test_pace_label_collision(tmp_path, capsys):
    _assert_gr_rejected(tmp_path, capsys, "c label 1 'a'\nc label 2 'a'\np tw 3 0\n", 2)
    # vertex 2 takes the default label of the unlabelled vertex 1
    _assert_gr_rejected(tmp_path, capsys, "p tw 3 0\nc label 2 0\n", 2)
    # a second label for one vertex, a label for a missing vertex, an unhashable label
    _assert_gr_rejected(tmp_path, capsys, "c label 1 'a'\nc label 1 'b'\np tw 3 0\n", 2)
    _assert_gr_rejected(tmp_path, capsys, "p tw 3 0\nc label 4 'd'\n", 2)
    _assert_gr_rejected(tmp_path, capsys, "p tw 3 0\nc label 1 [1]\n", 2)


def test_pace_vertex_cap(tmp_path, capsys):
    over = graphs.MAX_VERTICES + 1
    _assert_gr_rejected(tmp_path, capsys, f"c a comment\np tw {over} 0\n", 2)
    _assert_gr_rejected(tmp_path, capsys, "p tw 1000000000 0\n", 1)
    # a label comment is checked after the last line, so the header's cap error comes first
    _assert_gr_rejected(tmp_path, capsys, f"c label 1 'a'\nc label 2 'a'\np tw {over} 1\n1 2\n", 3)
    # an earlier line's error comes first
    _assert_gr_rejected(tmp_path, capsys, f"1 2\np tw {over} 1\n", 1)


def test_pace_edge_count_mismatch_names_header_line(tmp_path, capsys):
    _assert_gr_rejected(tmp_path, capsys, "c label 1 'a'\np tw 3 2\n1 2\n", 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(st.just(n), st.sets(
    st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda e: e[0] != e[1])
))))
def test_pace_round_trip_random(tmp_path_factory, args):
    n, raw = args
    edges = [(u % n, v % n) for u, v in raw if u % n != v % n]
    g = graphs.Graph(n, edges)
    path = tmp_path_factory.mktemp("gr") / "r.gr"
    graphs.write_graph(g, path)
    back = graphs.read_graph(path)
    _assert_same_graph(back, g)
