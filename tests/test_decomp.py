"""Decomposition validators, constructors, chordal machinery, .td round trip."""

import numpy as np
import pytest

from widthlab import decomp, graphs, oracles
from widthlab.decomp import Decomposition
from widthlab.errors import ParameterError, ParseError, PreconditionError, StructuralError


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


def test_fillin_square():
    g = cycle(4)
    cert = decomp.fillin_chordal(g, [0, 1, 2, 3])
    assert cert.omega == 3
    assert cert.graph.num_edges == 5  # one chord added
    assert decomp.is_chordal(cert.graph).chordal


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


def test_is_chordal_square():
    res = decomp.is_chordal(cycle(4))
    assert not res.chordal
    assert len(res.witness_cycle) == 4
    chorded = graphs.Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert decomp.is_chordal(chorded).chordal


def test_is_chordal_witness_is_chordless_cycle():
    g = cycle(6)
    res = decomp.is_chordal(g)
    cyc = list(res.witness_cycle)
    assert len(cyc) >= 4
    for i, v in enumerate(cyc):
        assert g.has_edge(v, cyc[(i + 1) % len(cyc)])
        for j in range(i + 2, len(cyc)):
            if (i, j) != (0, len(cyc) - 1):
                assert not g.has_edge(v, cyc[j])


def test_clique_number_from_peo():
    g = graphs.Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    res = decomp.is_chordal(g)
    assert res.chordal
    assert decomp.clique_number_chordal(g, res.peo) == 4


def test_bk_prime_chain():
    j = graphs.gen_johnson(5, 2)
    tw, order = oracles.exact_treewidth(j)
    cert = decomp.fillin_chordal(j, order)
    merged = decomp.bk_prime(5, 2, cert)
    res = decomp.is_chordal(merged)
    assert res.chordal
    omega = decomp.clique_number_chordal(merged, res.peo)
    assert omega <= max(cert.omega, 4)
    bk = graphs.gen_bipartite_kneser(5, 2)
    twbk, _ = oracles.exact_treewidth(bk)
    assert omega - 1 >= twbk


def test_bk_prime_right_vertex_cliques_small():
    j = graphs.gen_johnson(5, 2)
    _, order = oracles.exact_treewidth(j)
    merged = decomp.bk_prime(5, 2, decomp.fillin_chordal(j, order))
    right = {v for v in range(merged.num_vertices) if len(merged.labels[v]) == 3}
    # any clique through a right vertex is that vertex plus a subset of
    # its k+1 left neighbors, so at most k+2 vertices
    for v in right:
        assert merged.degree(v) == 3


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
