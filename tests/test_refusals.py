"""Each public entry point refuses out-of-range input with a typed error and its message."""

import io

import pytest

from widthlab import bounds, decomp, graphs, hales, oracles, suites, widthcalc
from widthlab.errors import ParameterError, PreconditionError, SizeCapError, StructuralError
from widthlab.graphs import Graph

# J(5, 2)'s vertex set without its edges: no chordal supergraph of J(5, 2)
_EDGELESS_J52 = decomp.ChordalCertificate(Graph(10, [], labels=graphs.gen_johnson(5, 2).labels), tuple(range(10)), 1)

# (call, error class, message)
REFUSALS = [
    (lambda: hales.hales_order(0), ParameterError, "hales_order needs n >= 1"),
    (lambda: widthcalc.bw_closed(0, 3), ParameterError, "bw_closed needs t >= 1 and n >= 1, got t=0 n=3"),
    (lambda: widthcalc.bw_closed(1, 0), ParameterError, "bw_closed needs t >= 1 and n >= 1, got t=1 n=0"),
    (lambda: widthcalc.bw_recursion(0, 3), ParameterError, "bw_recursion needs t >= 1 and n >= 1, got t=0 n=3"),
    (lambda: widthcalc.bw_recursion(2, 0), ParameterError, "bw_recursion needs t >= 1 and n >= 1, got t=2 n=0"),
    (lambda: widthcalc.harper_lower_bound(1, 1, 3, 2), ParameterError,
     "harper_lower_bound needs q >= 2, n >= 1, t >= 1, got q=1 n=3 t=1"),
    (lambda: bounds.verify_spectrum_moments(graphs.gen_bipartite_kneser(3, 1), bounds.bk_spectrum(1), 1),
     ParameterError, "p_max must be at least 2, got 1"),
    (lambda: bounds.verify_spectrum_moments(Graph(401, []), bounds.Spectrum(((0, 401),)), 2),
     SizeCapError, "moment verification capped at 400 vertices, got 401"),
    (lambda: bounds.bk_spectrum(0), ParameterError, "k must be at least 1, got 0"),
    (lambda: bounds.bk_spectral_lb(0), ParameterError, "k must be at least 1, got 0"),
    (lambda: bounds.petersen_bramble(5, 0), ParameterError, "need 1 <= k < n/2, got n=5 k=0"),
    (lambda: bounds.petersen_bramble(6, 3), ParameterError, "need 1 <= k < n/2, got n=6 k=3"),
    (lambda: bounds.petersen_order_lower_bound(5, 0), ParameterError, "need 1 <= k < n/2, got n=5 k=0"),
    (lambda: bounds.petersen_order_lower_bound(6, 3), ParameterError, "need 1 <= k < n/2, got n=6 k=3"),
    (lambda: oracles.exact_treewidth(Graph(0, [])), ParameterError, "treewidth of the empty graph is undefined"),
    (lambda: oracles.exact_pathwidth(Graph(0, [])), ParameterError, "pathwidth of the empty graph is undefined"),
    (lambda: oracles.exact_bandwidth(Graph(0, [])), ParameterError, "bandwidth of the empty graph is undefined"),
    (lambda: Graph(3, [], labels=[1, 2]), ParameterError, "one label per vertex required"),
    (lambda: Graph(4097, []).neighbor_masks(), SizeCapError, "bitmask adjacency capped at 4096 vertices, graph has 4097"),
    (lambda: graphs.generate(graphs.FamilySpec("cube")), ParameterError, "unknown family 'cube'"),
    (lambda: suites.SuiteConfig("hales", fmt="xml"), ParameterError, "format must be json or csv, got 'xml'"),
    (lambda: suites.emit_table("bw", {"t": [1], "n": [2]}, "csv", io.StringIO()), ParameterError,
     f"unknown formula 'bw'; known: {sorted(suites.TABLE_FORMULAS)}"),
    (lambda: suites.emit_table("bw_closed", {"t": [1], "n": []}, "csv", io.StringIO()), ParameterError,
     "formula bw_closed needs grid axes ['n']"),
    (lambda: decomp.Decomposition([0, 1], [0, 2, 1, 2]), StructuralError, "offsets must be nondecreasing"),
    (lambda: decomp.independent_set_td(graphs.gen_petersen(5, 2), []), PreconditionError,
     "independent set must be nonempty"),
    (lambda: decomp.independent_set_td(graphs.gen_petersen(5, 2), [3, 10]), ParameterError,
     "independent set contains unknown vertices"),
    (lambda: decomp.lift_pd(decomp.petersen_pd(5, 1, "repaired"), 1, 2, 1), ParameterError, "q must be at least 2, got 1"),
    (lambda: decomp.bk_prime(6, 2, None), ParameterError, "bk_prime needs n = 2k+1, got n=6 k=2"),
    (lambda: decomp.bk_prime(5, 2, _EDGELESS_J52), PreconditionError, "certificate graph does not contain the k-subset graph"),
]


@pytest.mark.parametrize("call,error,message", REFUSALS, ids=[case[2] for case in REFUSALS])
def test_refusal(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
