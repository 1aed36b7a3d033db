"""Brambles, transversal fractions, and integer-certified spectra."""

import dataclasses
import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from widthlab import bounds, graphs, oracles, suites
from widthlab.errors import (
    HypothesisError,
    ParameterError,
    PreconditionError,
    SizeCapError,
    StructuralError,
    UndefinedValueError,
)

# ----------------------------------------------------------------------
# reference bramble validator: packed uint64 rows, numpy closure and
# touch scans (the implementation validate_bramble replaced)
# ----------------------------------------------------------------------


def _pack_rows(rows, num_vertices: int) -> np.ndarray:
    """Pack vertex-id collections into (len(rows), words) uint64 bitmask rows."""
    words = max(1, (num_vertices + 63) // 64)
    m = len(rows)
    sizes = np.fromiter((len(s) for s in rows), dtype=np.int64, count=m)
    total = int(sizes.sum())
    cols = np.fromiter((v for s in rows for v in s), dtype=np.int64, count=total)
    if total and (cols.min() < 0 or cols.max() >= num_vertices):
        raise ParameterError("vertex id out of range")
    member = np.zeros((m, words * 64), dtype=np.uint8)
    member[np.repeat(np.arange(m), sizes), cols] = 1
    return np.ascontiguousarray(np.packbits(member, axis=1, bitorder="little")).view(np.uint64)


def touch_scan(closures: np.ndarray, sets: np.ndarray):
    """First pair (i, j) with closure(i) disjoint from set(j), or (-1, -1)."""
    closures = np.ascontiguousarray(closures, dtype=np.uint64)
    sets = np.ascontiguousarray(sets, dtype=np.uint64)
    for i in range(sets.shape[0]):
        hits = np.any(closures[i][None, :] & sets[i + 1 :], axis=1)
        misses = np.nonzero(~hits)[0]
        if misses.size:
            return i, int(i + 1 + misses[0])
    return -1, -1


def closure_rows(packed: np.ndarray, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Packed row sets extended by their graph neighborhoods (edge list input)."""
    packed = np.ascontiguousarray(packed, dtype=np.uint64)
    eu = np.ascontiguousarray(eu, dtype=np.int64)
    ev = np.ascontiguousarray(ev, dtype=np.int64)
    clo = packed.copy()
    one = np.uint64(1)
    euw, eub = eu >> 6, (eu & 63).astype(np.uint64)
    evw, evb = ev >> 6, (ev & 63).astype(np.uint64)
    for w in range(packed.shape[1]):
        for srcw, srcb, dstb in ((euw, eub, evb), (evw, evb, eub)):
            into = (evw == w) if srcw is euw else (euw == w)
            if not into.any():
                continue
            # one (rows x edges) temporary, shifted in place: source bit -> destination bit
            moved = packed[:, srcw[into]]
            moved >>= srcb[into]
            moved &= one
            moved <<= dstb[into]
            clo[:, w] |= np.bitwise_or.reduce(moved, axis=1)
    return clo


def _unpack_int(row: np.ndarray) -> int:
    return int.from_bytes(row.astype("<u8", copy=False).tobytes(), "little")


def connected_rows(packed: np.ndarray, nbr_words: np.ndarray) -> int:
    """Index of the first row that does not induce a connected subgraph, or -1."""
    nbrs = [_unpack_int(nbr_words[v]) for v in range(nbr_words.shape[0])]
    for i in range(packed.shape[0]):
        bits = _unpack_int(packed[i])
        if bits == 0:
            return i
        comp = bits & -bits
        stack = comp
        while stack:
            b = stack & -stack
            stack ^= b
            grow = nbrs[b.bit_length() - 1] & bits & ~comp
            comp |= grow
            stack |= grow
        if comp != bits:
            return i
    return -1


def _validate_bramble_ref(g, bramble):
    packed = _pack_rows(bramble.sets, g.num_vertices)
    nbr_words = _pack_rows([g.neighbors(v) for v in range(g.num_vertices)], g.num_vertices)
    bad = connected_rows(packed, nbr_words)
    if bad >= 0:
        return bounds.BrambleReport(False, first_disconnected=bad)
    closures = closure_rows(packed, g.edges[:, 0], g.edges[:, 1])
    i, j = touch_scan(closures, packed)
    if i >= 0:
        return bounds.BrambleReport(False, first_nontouching=(int(i), int(j)))
    return bounds.BrambleReport(True)


def _random_graph(n, picks):
    pairs = list(itertools.combinations(range(n), 2))
    return graphs.Graph(n, [pairs[i % len(pairs)] for i in picks] if pairs else [])


def _grown(g, seed, picks):
    """A connected set: from seed, add one frontier vertex per pick."""
    members = {seed}
    for p in picks:
        frontier = sorted({int(w) for v in members for w in g.neighbors(v)} - members)
        if not frontier:
            break
        members.add(frontier[p % len(frontier)])
    return frozenset(members)


@st.composite
def bramble_cases(draw):
    """A random graph on n <= 30 vertices with a family of arbitrary and connected sets."""
    n = draw(st.integers(1, 30))
    g = _random_graph(n, draw(st.lists(st.integers(0, 434), max_size=60)))
    vertex = st.integers(0, n - 1)
    arbitrary = st.frozensets(vertex, max_size=n)  # empty and disconnected sets among them
    connected = st.builds(functools.partial(_grown, g), vertex, st.lists(st.integers(0, 29), max_size=12))
    sets = draw(st.lists(st.one_of(arbitrary, connected), max_size=10))
    return g, bounds.Bramble(tuple(sets))


# ----------------------------------------------------------------------
# brambles
# ----------------------------------------------------------------------


def test_bramble_shape_small():
    b = bounds.petersen_bramble(5, 2)
    assert len(b.sets) == 5
    assert all(len(s) == 4 for s in b.sets)  # t = 1, sizes 2t+2
    assert set(b.sets[0].tolist()) == {0, 1, 6, 8}  # v_1, v_2 and u_2, u_4
    assert b.rotation == _rotation(5)


def test_bramble_shape_large():
    b = bounds.petersen_bramble(288, 1)
    assert all(len(s) == 146 for s in b.sets)  # t = 72


@pytest.mark.parametrize("n,k", [(5, 2), (7, 2), (9, 3), (30, 4), (61, 2)])
def test_bramble_valid_on_spot_checks(n, k):
    g = graphs.gen_petersen(n, k)
    report = bounds.validate_bramble(g, bounds.petersen_bramble(n, k))
    assert report.ok, (n, k, report)


def test_bramble_known_failures_small_grid():
    # frozen from the exhaustive scan over 2k+2 <= n <= 500, k <= 4:
    # only these four window brambles miss a touching pair
    fails = []
    for k in range(1, 5):
        for n in range(2 * k + 2, 61):
            g = graphs.gen_petersen(n, k)
            bramble = bounds.petersen_bramble(n, k)
            report = bounds.validate_bramble(g, bramble)  # the orbit route
            assert report == bounds.validate_bramble(g, dataclasses.replace(bramble, rotation=None)), (n, k)
            if not report.ok:
                assert report.first_nontouching is not None
                fails.append((n, k))
    assert fails == [(10, 4), (14, 4), (18, 4), (20, 4)]


def test_bramble_validator_detects_problems():
    g = graphs.gen_petersen(5, 2)
    disconnected = bounds.Bramble((frozenset({0, 2}),))  # v_1 and v_3
    rep = bounds.validate_bramble(g, disconnected)
    assert not rep.ok and rep.first_disconnected == 0
    nontouching = bounds.Bramble((frozenset({0}), frozenset({7})))  # v_1 vs u_3
    rep = bounds.validate_bramble(g, nontouching)
    assert not rep.ok and rep.first_nontouching == (0, 1)
    for v in (-1, 10, 99):  # ids outside range(10)
        with pytest.raises(ParameterError):
            bounds.validate_bramble(g, bounds.Bramble((frozenset({0}), frozenset({v}))))
    with pytest.raises(SizeCapError):  # the int bitmasks stop at BITSET_MAX_VERTICES = 4096
        bounds.validate_bramble(graphs.Graph(4097, []), bounds.Bramble((frozenset({0}),)))
    for n, k in ((5, 2), (61, 2)):  # numpy ids, on hosts below and above 64 vertices
        g = graphs.gen_petersen(n, k)
        bramble = bounds.petersen_bramble(n, k)
        as_numpy = bounds.Bramble(tuple(frozenset(np.array(sorted(s), dtype=np.int64)) for s in bramble.sets))
        assert bounds.validate_bramble(g, as_numpy) == bounds.validate_bramble(g, bramble)
    g = graphs.gen_petersen(61, 2)
    rep = bounds.validate_bramble(g, bounds.Bramble((frozenset(np.array([0, 100], dtype=np.int64)),)))
    assert not rep.ok and rep.first_disconnected == 0


def test_bramble_validator_matches():
    for n, k, ok in [(5, 2, True), (30, 3, True), (61, 2, True), (10, 4, False), (14, 4, False), (18, 4, False), (20, 4, False)]:
        g = graphs.gen_petersen(n, k)
        bramble = bounds.petersen_bramble(n, k)
        report = bounds.validate_bramble(g, bramble)
        assert report.ok is ok
        assert report == _validate_bramble_ref(g, bramble)


_P52 = graphs.gen_petersen(5, 2)


@settings(max_examples=300, deadline=None)
@given(bramble_cases())
@example((_P52, bounds.Bramble(())))  # no sets
@example((_P52, bounds.Bramble((frozenset({0, 1}), frozenset()))))  # an empty set after a connected one
@example((_P52, bounds.Bramble((frozenset({0, 1}), frozenset({0, 2})))))  # the second set is disconnected
@example((_P52, bounds.Bramble((frozenset({0, 1, 2}), frozenset({3}), frozenset({7})))))  # only (1, 2) does not touch
@example((graphs.Graph(1, []), bounds.Bramble((frozenset({0}),))))
@example((_P52, bounds.Bramble(bounds.petersen_bramble(5, 2).sets)))  # an index matrix on the pair scan
@example((graphs.gen_petersen(20, 4), bounds.Bramble(bounds.petersen_bramble(20, 4).sets)))  # fails at (0, 7)
def test_bramble_validator_matches_reference(case):
    g, bramble = case
    assert bounds.validate_bramble(g, bramble) == _validate_bramble_ref(g, bramble)


def _rotation(n):
    """rho: v_j -> v_{j+1}, u_j -> u_{j+1} on the ids of gen_petersen(n, k)."""
    step = [(v + 1) % n for v in range(n)]
    return tuple(step + [n + v for v in step])


def _orbit(seed, perm, m):
    """seed and its images under perm, m sets in all."""
    sets = [frozenset(seed)]
    for _ in range(m - 1):
        sets.append(frozenset(perm[v] for v in sets[-1]))
    return tuple(sets)


@st.composite
def orbit_cases(draw):
    """gen_petersen(n, k), rho and an orbit of m sets, m dividing n.

    Set 0 is an arbitrary or a grown connected set, joined with its
    images under rho^m so that rho^m fixes it; small seeds give
    disconnected and non-touching families, larger ones touching ones.
    """
    n = draw(st.integers(3, 40))
    k = draw(st.integers(1, (n - 1) // 2))
    g, rho = graphs.gen_petersen(n, k), _rotation(n)
    m = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    vertex = st.integers(0, 2 * n - 1)
    arbitrary = st.frozensets(vertex, max_size=8)
    connected = st.builds(functools.partial(_grown, g), vertex, st.lists(st.integers(0, 29), max_size=2 * n))
    base = draw(st.one_of(arbitrary, connected))
    power = list(range(2 * n))
    for _ in range(m):
        power = [rho[v] for v in power]
    seed = frozenset().union(*_orbit(base, power, n // m))  # base under rho^0, rho^m, rho^2m, ...
    return g, _orbit(seed, rho, m), rho


@settings(max_examples=300, deadline=None)
@given(orbit_cases())
@example((graphs.gen_petersen(20, 4), bounds.petersen_bramble(20, 4).sets, _rotation(20)))  # fails at (0, 7)
@example((graphs.gen_petersen(30, 4), bounds.petersen_bramble(30, 4).sets, _rotation(30)))  # valid
@example((graphs.gen_petersen(9, 2), _orbit({0, 2}, _rotation(9), 9), _rotation(9)))  # disconnected
@example((graphs.gen_petersen(9, 2), _orbit({0}, _rotation(9), 9), _rotation(9)))  # (0, 2) does not touch
@example((graphs.gen_petersen(9, 2), _orbit((), _rotation(9), 9), _rotation(9)))  # empty sets
@example((graphs.gen_petersen(9, 2), (), _rotation(9)))  # no sets
@example((graphs.gen_petersen(9, 2), np.zeros((0, 4), dtype=np.int64), _rotation(9)))  # no sets, as an index matrix
def test_orbit_route_matches_generic(case):
    g, sets, rho = case
    report = bounds.validate_bramble(g, bounds.Bramble(sets, rotation=rho))
    assert report == bounds.validate_bramble(g, bounds.Bramble(sets))


def test_orbit_route_refuses_a_false_symmetry():
    # each claim fails its check with StructuralError; the generic scan
    # would return a report for the same sets, so nothing falls back to it
    g = graphs.gen_petersen(12, 2)
    bramble = bounds.petersen_bramble(12, 2)
    rho = list(bramble.rotation)

    def refused(sets, rotation, match, host=g):
        bounds.validate_bramble(host, bounds.Bramble(sets))  # the pair scan gives a report
        with pytest.raises(StructuralError, match=match):
            bounds.validate_bramble(host, bounds.Bramble(sets, rotation=tuple(rotation)))

    not_permutation = "not a permutation"
    refused(bramble.sets, rho[:-1], not_permutation)  # too short
    refused(bramble.sets, rho + [0], not_permutation)  # too long
    refused(bramble.sets, [rho[1]] + rho[1:], not_permutation)  # an id twice
    refused(bramble.sets, [v + 1 for v in rho], not_permutation)  # 24 is out of range
    refused(bramble.sets, [str(v) for v in rho], not_permutation)
    # not automorphisms: rotating the outer cycle alone breaks the spokes,
    # and rho breaks the host once an edge is gone
    refused(bramble.sets, rho[:12] + list(range(12, 24)), "edge set")
    without_edge = graphs.Graph(24, g.edges[1:])
    refused(bramble.sets, rho, "edge set", host=without_edge)
    # on the Petersen graph, v_j -> u_{2j}, u_j -> v_{2j} is an automorphism
    # (4 = -1 mod 5); on the prism with the same ids it is not
    swap = tuple([5 + 2 * j % 5 for j in range(5)] + [2 * j % 5 for j in range(5)])
    five = bounds.petersen_bramble(5, 2).sets
    refused(five, swap, "set i onto set i[+]1", host=graphs.gen_petersen(5, 2))
    refused(five, swap, "edge set", host=graphs.gen_petersen(5, 1))
    # sets that are not one orbit
    as_sets = [frozenset(row) for row in bramble.sets.tolist()]
    perturbed = list(as_sets)
    perturbed[5] = perturbed[5] - {min(perturbed[5])} | {23 - min(perturbed[5])}
    refused(tuple(perturbed), rho, "set i onto set i[+]1")
    swapped = list(as_sets)
    swapped[2], swapped[3] = swapped[3], swapped[2]
    refused(tuple(swapped), rho, "set i onto set i[+]1")
    refused(bramble.sets[:-1], rho, "set i onto set i[+]1")  # one set short of the orbit
    shrunk = list(as_sets)
    shrunk[4] = shrunk[4] - {min(shrunk[4])}
    refused(tuple(shrunk), rho, "differ in size")
    # ids out of range are refused as on the generic route, and the host cap holds
    with pytest.raises(ParameterError):
        bounds.validate_bramble(g, bounds.Bramble((frozenset({0, 24}),), rotation=tuple(rho)))
    with pytest.raises(SizeCapError):
        bounds.validate_bramble(graphs.Graph(4097, []), bounds.Bramble((frozenset({0}),), rotation=tuple(range(4097))))


def _window_sets(n, k):
    """The window bramble's sets built one frozenset at a time, from the formula in its docstring."""
    t = -(-n // (2 * k + 2))
    return tuple(
        frozenset([(i + j) % n for j in range(t + 1)] + [n + (i + t + j * k) % n for j in range(t + 1)])
        for i in range(n)
    )


_WINDOW_HOSTS = st.integers(3, 500).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, min(5, (n - 1) // 2))))


@settings(max_examples=50, deadline=None)
@given(_WINDOW_HOSTS)
@example((3, 1))
@example((11, 5))
@example((500, 1))
@example((500, 5))
def test_window_family_reads_as_frozensets(case):
    n, k = case
    family = bounds.petersen_bramble(n, k).sets
    expected = _window_sets(n, k)
    assert isinstance(family, np.ndarray) and family.dtype == np.int64 and family.shape == (n, len(expected[0]))
    assert [frozenset(row) for row in family.tolist()] == list(expected)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, min(4, (n - 1) // 2)))))
@example((10, 4))  # the four known gaps
@example((14, 4))
@example((18, 4))
@example((20, 4))
def test_array_backed_orbit_route_matches_frozensets_and_pair_scan(case):
    n, k = case
    g, bramble = graphs.gen_petersen(n, k), bounds.petersen_bramble(n, k)
    sets = tuple(frozenset(row) for row in bramble.sets.tolist())
    report = bounds.validate_bramble(g, bramble)
    assert report == bounds.validate_bramble(g, bounds.Bramble(sets, rotation=bramble.rotation))
    assert report == bounds.validate_bramble(g, bounds.Bramble(sets))
    if n >= 2 * k + 2:
        assert report.ok is ((n, k) not in suites.KNOWN_BRAMBLE_GAPS)


def test_array_backed_orbit_route_refuses_what_the_frozenset_route_refuses():
    g = graphs.gen_petersen(12, 2)
    bramble = bounds.petersen_bramble(12, 2)

    def validate(rows, host=g, rotation=bramble.rotation):
        return bounds.validate_bramble(host, bounds.Bramble(np.asarray(rows, dtype=np.int64), rotation))

    rows = bramble.sets
    shifted = rows.copy()
    shifted[5, 0] = 23 - shifted[5, 0]  # still 2t+2 distinct ids, but not rho of row 4
    assert len(set(shifted[5])) == rows.shape[1]
    with pytest.raises(StructuralError, match="set i onto set i[+]1"):
        validate(shifted)
    with pytest.raises(StructuralError, match="set i onto set i[+]1"):
        validate(rows[:-1])  # one set short of the orbit
    repeated = rows.copy()
    repeated[4, 1] = repeated[4, 0]  # one row with a repeated id
    everywhere = rows.copy()
    everywhere[:, 1] = everywhere[:, 0]  # every row repeats an id: still one orbit, of smaller sets
    for bad in (repeated, everywhere):
        with pytest.raises(StructuralError, match="repeats a vertex id"):
            validate(bad)
    for bad in (-1, g.num_vertices):
        with pytest.raises(ParameterError, match="out of range"):
            validate([[0, bad]])
    with pytest.raises(SizeCapError):
        validate([[0]], host=graphs.Graph(4097, []), rotation=tuple(range(4097)))


def test_transversal_fraction_examples():
    single = (frozenset({0, 1}),)
    assert bounds.transversal_fraction_bound(single) == 1
    window = bounds.petersen_bramble(288, 1).sets
    for family in (window, window.tolist(), _window_sets(288, 1)):
        assert bounds.transversal_fraction_bound(family) == Fraction(288, 73)
    with pytest.raises(ParameterError):
        bounds.transversal_fraction_bound(())


@pytest.mark.parametrize("n,k", [(5, 2), (7, 2), (8, 3)])
def test_fraction_bound_below_exact_transversal(n, k):
    sets = bounds.petersen_bramble(n, k).sets
    for bound in (bounds.transversal_fraction_bound, oracles.exact_transversal):  # the matrix, its lists, frozensets
        assert bound(sets) == bound(sets.tolist()) == bound(_window_sets(n, k))
    assert bounds.transversal_fraction_bound(sets) <= oracles.exact_transversal(sets)


@pytest.mark.parametrize("bound", [bounds.transversal_fraction_bound, oracles.exact_transversal])
def test_transversal_bounds_take_any_family_of_sets(bound):
    # three disjoint pairs: fraction 3/1, transversal number 3
    assert bound({2 * i, 2 * i + 1} for i in range(3)) == 3
    assert bound([[0, 1], (2, 3), range(4, 6)]) == 3
    with pytest.raises(ParameterError):
        bound([{0, 1}, set()])


def test_order_lower_bound():
    assert bounds.petersen_order_lower_bound(288, 1) == 4
    assert bounds.petersen_order_lower_bound(800, 2) == 6
    with pytest.raises(HypothesisError):
        bounds.petersen_order_lower_bound(5, 2)


def test_order_lower_bound_meets_target_on_hypothesis_range():
    for k in (1, 2):
        threshold = 8 * (2 * k + 2) ** 2
        for n in range(threshold, threshold + 40):
            assert bounds.petersen_order_lower_bound(n, k) >= 2 * k + 2


def test_bk_spectrum_small():
    spectrum = bounds.bk_spectrum(2)
    assert dict(spectrum.pairs) == {3: 1, -3: 1, 2: 4, -2: 4, 1: 5, -1: 5}
    assert spectrum.num_vertices() == 20


@pytest.mark.parametrize("k", range(1, 11))
def test_bk_spectrum_multiplicities(k):
    spectrum = bounds.bk_spectrum(k)
    assert spectrum.num_vertices() == 2 * math.comb(2 * k + 1, k)
    assert spectrum.sorted_pairs()[0] == (k + 1, 1)
    assert sum(m * lam for lam, m in spectrum.pairs) == 0


def test_moments_trivial_cases():
    g = graphs.gen_bipartite_kneser(5, 2)
    spectrum = bounds.bk_spectrum(2)
    report = bounds.verify_spectrum_moments(g, spectrum, 2)
    assert report.ok
    # p = 0 counts vertices, p = 2 counts closed 2-walks = degree sum
    assert sum(m for _, m in spectrum.pairs) == 20
    assert sum(m * lam**2 for lam, m in spectrum.pairs) == 60


def test_moments_catch_wrong_spectrum():
    g = graphs.gen_bipartite_kneser(5, 2)
    wrong = bounds.Spectrum(((3, 1), (-3, 1), (2, 4), (-2, 4), (1, 6), (-1, 4)))
    report = bounds.verify_spectrum_moments(g, wrong, 4)
    assert not report.ok
    assert report.failed_p is not None


def test_moments_deeper():
    g = graphs.gen_bipartite_kneser(7, 3)
    assert bounds.verify_spectrum_moments(g, bounds.bk_spectrum(3), 8).ok


# ----------------------------------------------------------------------
# reference moment check: dense matrix powers (the implementation the
# CSR column-block kernel replaced)
# ----------------------------------------------------------------------


def _moments_reference(g, spectrum, p_max):
    n = g.num_vertices
    bound = n * max(g.max_degree(), 1) ** p_max
    dtype = np.int64 if bound < 2**62 else object
    adj = g.adjacency_matrix(dtype=dtype)
    power = np.eye(n, dtype=dtype)
    for p in range(p_max + 1):
        trace = int(np.trace(power))
        moment = sum(mult * lam**p for lam, mult in spectrum.pairs)
        if trace != moment:
            return bounds.MomentReport(False, failed_p=p, expected=trace, actual=moment)
        if p < p_max:
            power = power @ adj
    return bounds.MomentReport(True)


def _k4_plus_isolated(at):
    """K_4 on four of the ids 0..4, and vertex ``at`` isolated."""
    return graphs.Graph(5, list(itertools.combinations([v for v in range(5) if v != at], 2)))


_PETERSEN_SPECTRUM = bounds.Spectrum(((3, 1), (1, 5), (-2, 4)))
_FALSE_BK7 = bounds.Spectrum(((4, 1), (3, 5), (2, 20), (0, 15), (-1, 9), (-2, 10), (-3, 10)))
_K4_PLUS_POINT = bounds.Spectrum(((3, 1), (0, 1), (-1, 3)))
_FALSE_FIVE = bounds.Spectrum(((2, 1), (1, 1), (0, 1), (-1, 1), (-2, 1)))  # right p = 0, 1; wrong p = 2
_MOMENT_CASES = {
    **{f"BK({2 * k + 1},{k})": (lambda k=k: graphs.gen_bipartite_kneser(2 * k + 1, k), bounds.bk_spectrum(k)) for k in range(1, 5)},
    "BK(7,3) false": (lambda: graphs.gen_bipartite_kneser(7, 3), _FALSE_BK7),
    "GP(5,2)": (lambda: graphs.gen_petersen(5, 2), _PETERSEN_SPECTRUM),
    **{f"K4 isolated {at}": (lambda at=at: _k4_plus_isolated(at), _K4_PLUS_POINT) for at in (0, 2, 4)},
    **{f"K4 isolated {at} false": (lambda at=at: _k4_plus_isolated(at), _FALSE_FIVE) for at in (0, 2, 4)},
    "edgeless": (lambda: graphs.Graph(6, []), bounds.Spectrum(((0, 6),))),
    "edgeless false": (lambda: graphs.Graph(5, []), _FALSE_FIVE),
    "empty": (lambda: graphs.Graph(0, []), bounds.Spectrum(())),
}


@pytest.mark.parametrize("case", sorted(_MOMENT_CASES))
def test_moment_kernel_matches_reference(case):
    make, spectrum = _MOMENT_CASES[case]
    g = make()
    for p_max in range(2, 13):
        assert bounds.verify_spectrum_moments(g, spectrum, p_max) == _moments_reference(g, spectrum, p_max), p_max


def test_moment_kernel_matches_reference_on_python_ints():
    k30 = graphs.Graph(30, list(itertools.combinations(range(30), 2)))
    assert 30 * 29**14 >= 2**62  # the object-array route
    true, false = bounds.Spectrum(((29, 1), (-1, 29))), bounds.Spectrum(((29, 1), (-1, 27), (-2, 1), (0, 1)))
    assert bounds.verify_spectrum_moments(k30, true, 14) == _moments_reference(k30, true, 14) == bounds.MomentReport(True)
    report = bounds.verify_spectrum_moments(k30, false, 14)
    assert report == _moments_reference(k30, false, 14) and report.failed_p == 2


@st.composite
def moment_cases(draw):
    """A random graph on n <= 30 vertices, an integer spectrum and p_max in 2..12.

    A third of the graphs are unions of cliques (isolated vertices
    among them) on shuffled ids, with their true spectrum. The others
    get +-pairs padded to n eigenvalues, which pass p = 0 and 1, or
    arbitrary eigenvalues.
    """
    kind = draw(st.sampled_from(["cliques", "pairs", "arbitrary"]))
    if kind == "cliques":
        sizes = draw(st.lists(st.integers(1, 8), max_size=6))
        ids = draw(st.permutations(range(sum(sizes))))
        starts = np.cumsum([0] + sizes)
        edges = [(ids[a + i], ids[a + j]) for a, size in zip(starts, sizes) for i, j in itertools.combinations(range(size), 2)]
        eigs = [lam for size in sizes for lam in [size - 1] + [-1] * (size - 1)]
        return graphs.Graph(len(ids), edges), bounds.Spectrum(tuple(Counter(eigs).items())), draw(st.integers(2, 12))
    n = draw(st.integers(0, 30))
    g = _random_graph(n, draw(st.lists(st.integers(0, 434), max_size=60)))
    if kind == "pairs":
        half = draw(st.lists(st.integers(-4, 4), min_size=n // 2, max_size=n // 2))
        eigs = half + [-lam for lam in half] + [0] * (n % 2)
    else:
        eigs = draw(st.lists(st.integers(-6, 6), max_size=31))
    return g, bounds.Spectrum(tuple(Counter(eigs).items())), draw(st.integers(2, 12))


@settings(max_examples=200, deadline=None)
@given(moment_cases())
def test_moment_kernel_matches_reference_on_random_graphs(case):
    g, spectrum, p_max = case
    assert bounds.verify_spectrum_moments(g, spectrum, p_max) == _moments_reference(g, spectrum, p_max)


def test_moments_pass_the_false_bk7_spectrum_up_to_p4():
    # the documented hole (ROADMAP item 3): four moments do not certify a spectrum
    g = graphs.gen_bipartite_kneser(7, 3)
    assert bounds.verify_spectrum_moments(g, _FALSE_BK7, 4) == bounds.MomentReport(True)
    report = bounds.verify_spectrum_moments(g, _FALSE_BK7, 6)
    assert report == bounds.MomentReport(False, failed_p=5, expected=0, actual=120)


def test_moment_kernel_gathers_within_its_budget(monkeypatch):
    sizes, take = [], np.take

    def recording_take(a, indices, axis=None):
        sizes.append(len(indices) * a.shape[1])
        return take(a, indices, axis=axis)

    monkeypatch.setattr(np, "take", recording_take)
    k400 = graphs.Graph(400, list(itertools.combinations(range(400), 2)))  # dense, at the cap
    assert bounds.verify_spectrum_moments(k400, bounds.Spectrum(((399, 1), (-1, 399))), 4).ok
    assert bounds.verify_spectrum_moments(graphs.gen_bipartite_kneser(9, 4), bounds.bk_spectrum(4), 10).ok
    assert sizes and max(sizes) <= bounds.MOMENT_BLOCK_ENTRIES


def test_moment_check_builds_no_dense_matrix(monkeypatch):
    def refuse(self, dtype=np.int64):
        raise AssertionError("dense adjacency matrix built")

    monkeypatch.setattr(graphs.Graph, "adjacency_matrix", refuse)
    assert bounds.verify_spectrum_moments(graphs.gen_bipartite_kneser(9, 4), bounds.bk_spectrum(4), 10).ok
    records = suites.run_suite(suites.SuiteConfig("spectrum", params={"k_max": 4}))  # in process
    assert "spectrum k=4 moments" in {r.instance for r in records}
    assert suites.suite_passed(records)


def test_spectral_lower_bound_examples():
    g = graphs.gen_bipartite_kneser(5, 2)
    assert bounds.spectral_lower_bound(g, bounds.bk_spectrum(2)) == 2
    petersen = graphs.gen_petersen(5, 2)
    spectrum = bounds.Spectrum(((3, 1), (1, 5), (-2, 4)))
    assert bounds.verify_spectrum_moments(petersen, spectrum, 6).ok
    assert bounds.spectral_lower_bound(petersen, spectrum) == 1


def test_spectral_lower_bound_preconditions():
    star = graphs.Graph(3, [(0, 1), (0, 2)])
    with pytest.raises(PreconditionError):
        bounds.spectral_lower_bound(star, bounds.Spectrum(((1, 3),)))
    g = graphs.gen_bipartite_kneser(5, 2)
    wrong = bounds.Spectrum(((3, 1), (-3, 1), (2, 4), (-2, 4), (1, 6), (-1, 4)))
    with pytest.raises(PreconditionError):
        bounds.spectral_lower_bound(g, wrong)


def test_spectral_lower_bound_refuses_a_count_or_top_mismatch():
    petersen = graphs.gen_petersen(5, 2)
    with pytest.raises(PreconditionError, match="do not sum to the vertex count"):
        bounds.spectral_lower_bound(petersen, bounds.Spectrum(((3, 1), (1, 5), (-2, 3))))
    # the negated spectrum matches every moment up to p = 4 (the odd ones are 0 on a
    # triangle-free graph), so only the top eigenvalue refuses it
    negated = bounds.Spectrum(((2, 4), (-1, 5), (-3, 1)))
    assert bounds.verify_spectrum_moments(petersen, negated, 4).ok
    with pytest.raises(PreconditionError, match="largest eigenvalue 2 differs from the degree 3"):
        bounds.spectral_lower_bound(petersen, negated)


def test_spectral_bound_value_without_a_gap():
    assert bounds.spectral_bound_value(10, 3, 3) == -1  # mu = 0
    assert bounds.spectral_bound_value(10, 3, 4) == -1  # mu < 0
    assert bounds.spectral_bound_value(10, 3, 1) == 1  # the Petersen graph, mu = 2


@pytest.mark.parametrize("n,pairs", [(1, ((0, 1),)), (0, ())])
def test_spectral_lower_bound_needs_two_vertices(n, pairs):
    # no second eigenvalue, so no spectral gap
    with pytest.raises(UndefinedValueError):
        bounds.spectral_lower_bound(graphs.Graph(n, []), bounds.Spectrum(pairs))


def test_bk_spectral_lb_values():
    assert bounds.bk_spectral_lb(1) == 0
    assert bounds.bk_spectral_lb(2) == 2
    assert bounds.bk_spectral_lb(3) == 7


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bk_spectral_lb_composition_graph_backed(k):
    g = graphs.gen_bipartite_kneser(2 * k + 1, k)
    assert bounds.spectral_lower_bound(g, bounds.bk_spectrum(k)) == bounds.bk_spectral_lb(k)


def test_bk_spectral_lb_composition_formula_only():
    for k in range(1, 21):
        spectrum = bounds.bk_spectrum(k)
        n = 2 * math.comb(2 * k + 1, k)
        composed = bounds.spectral_bound_value(n, k + 1, spectrum.second_largest())
        assert composed == bounds.bk_spectral_lb(k)


def test_spectral_bounds_below_exact_treewidth():
    g = graphs.gen_bipartite_kneser(5, 2)
    tw, _ = oracles.exact_treewidth(g)
    assert bounds.spectral_lower_bound(g, bounds.bk_spectrum(2)) <= tw
    petersen = graphs.gen_petersen(5, 2)
    spectrum = bounds.Spectrum(((3, 1), (1, 5), (-2, 4)))
    twp, _ = oracles.exact_treewidth(petersen)
    assert bounds.spectral_lower_bound(petersen, spectrum) <= twp


def test_degree_lower_bound():
    k4 = graphs.Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert bounds.degree_lower_bound(k4) == 3
    assert bounds.degree_lower_bound(graphs.gen_johnson(5, 2)) == 6
    for g in [k4, graphs.gen_johnson(5, 2), graphs.gen_petersen(5, 2)]:
        tw, _ = oracles.exact_treewidth(g)
        assert bounds.degree_lower_bound(g) <= tw
