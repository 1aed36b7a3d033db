"""Lower-bound engines: brambles, transversal fractions, integer spectra.

The double-cycle bramble puts, at every start position i, a window of
t+1 consecutive outer vertices plus the t+1 inner vertices reachable by
skip steps from the window's end, with t = ceil(n / (2k+2)). Its sets
are the rows of one (n, 2t+2) int64 index matrix, and that matrix
is ``Bramble.sets`` itself: no frozenset view of it exists. A bramble
is validated on python int bitmasks, one per set
and one per vertex neighbourhood, so its host graph is capped at
``BITSET_MAX_VERTICES`` (4096) vertices. A bramble that carries a
claimed rotation (as the window bramble does) is validated once per
orbit: the rotation must be a permutation of the vertex ids that maps
the edge set onto itself, the sets must have one size and no repeated
id, and it must map set i onto set i+1 (mod the number of sets). Then
set 0 connected makes every set connected, and touching depends only on
j - i, so set 0 against every other set gives the same report as the
scan over all pairs. This route reads the index matrix (sorted rows,
compared with their images under the rotation) and builds neighbourhood
masks for set 0's members only. A failed symmetry check raises
:class:`StructuralError` rather than falling back to that scan, which
stays the route for sets without a rotation. The transversal bounds
here and in ``oracles.exact_transversal`` take any set family, such
as ``Bramble.sets``. Claimed spectra are checked against integer trace
moments in exact arithmetic rather than by floating point eigensolvers.
The traces tr(A^p), p = 0..p_max, come from column blocks X = A^m[:, C]
for m up to ceil(p_max/2): each step X -> A X sums
neighbour rows over the graph's CSR, and since A is symmetric,
tr(A^2m) = sum X*X and tr(A^(2m+1)) = sum X*(A X) over all blocks. That
is O(n^2 * deg * ceil(p_max/2)) time, and the block width is set so one
step gathers at most ``MOMENT_BLOCK_ENTRIES`` (2^18) entries; no dense
power is formed. Entries are int64 when the path-count bound
n * deg^p_max is below 2^62 and python ints (object arrays) otherwise,
through the same kernel.
The moment match is only a necessary condition, not a certificate:
the false BK(7,3) spectrum ((4,1),(3,5),(2,20),(0,15),(-1,9),(-2,10),
(-3,10)) matches the first four moments (ROADMAP item 3, an exact
spectrum certificate).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import HypothesisError, ParameterError, PreconditionError, SizeCapError, StructuralError, UndefinedValueError
from .graphs import BITSET_MAX_VERTICES, Graph, _component
from .widthcalc import binom_ext

__all__ = [
    "Bramble",
    "BrambleReport",
    "Spectrum",
    "MomentReport",
    "petersen_bramble",
    "validate_bramble",
    "transversal_fraction_bound",
    "petersen_order_lower_bound",
    "bk_spectrum",
    "verify_spectrum_moments",
    "spectral_lower_bound",
    "spectral_bound_value",
    "bk_spectral_lb",
    "degree_lower_bound",
]

SPECTRUM_CAP = 400
MOMENT_BLOCK_ENTRIES = 2**18  # gathered neighbour entries per step of the moment kernel


@dataclass(frozen=True)
class Bramble:
    """Family of vertex sets over a host graph, candidates for pairwise touching.

    ``rotation``, when given, claims a host automorphism (``rotation[v]``
    is the image of vertex v) that maps set i onto set i+1, indices mod
    the number of sets; :func:`validate_bramble` checks the claim.
    ``sets`` may be an int64 index matrix, one row per set; such a Bramble
    is not hashable or comparable by value (the dataclass methods see an array).
    """

    sets: Sequence | np.ndarray  # vertex-id collections, or an index matrix with one row per set
    rotation: tuple | None = None  # vertex permutation, or None


@dataclass(frozen=True)
class BrambleReport:
    ok: bool
    first_disconnected: int | None = None  # set index
    first_nontouching: tuple | None = None  # pair of set indices


def petersen_bramble(n: int, k: int) -> Bramble:
    """Window bramble of the double-cycle graph on v_1..v_n, u_1..u_n.

    Set i holds v_i..v_{i+t} and u_{i+t+jk} for j = 0..t (indices mod
    n), with t = ceil(n / (2k+2)); every set has 2t+2 vertices. The sets
    are the rows of one (n, 2t+2) int64 index matrix (module docstring).
    """
    if not (k >= 1 and 2 * k < n):
        raise ParameterError(f"need 1 <= k < n/2, got n={n} k={k}")
    t = -(-n // (2 * k + 2))
    i, j = np.arange(n)[:, None], np.arange(t + 1)
    rows = np.concatenate([(i + j) % n, n + (i + t + j * k) % n], axis=1)  # 0-based start i
    step = (np.arange(n) + 1) % n  # rho: v_j -> v_{j+1}, u_j -> u_{j+1}
    return Bramble(rows, rotation=tuple(np.concatenate([step, n + step]).tolist()))


def _mask_and_closure(s, n: int, nbrs: list, single: list) -> tuple:
    """The set as an int bitmask, and the set ORed with its members' neighbourhoods."""
    bits = closure = 0
    for v in s:
        if not 0 <= v < n:
            raise ParameterError("vertex id out of range")
        bits |= single[v]
        closure |= nbrs[v]
    return bits, bits | closure


def _connected(bits: int, nbrs) -> bool:
    """Whether the set bitmask is non-empty and induces a connected subgraph."""
    return bool(bits) and _component(nbrs, bits & -bits, bits) == bits


def validate_bramble(g: Graph, bramble: Bramble) -> BrambleReport:
    """Connectivity of every set, then pairwise touching over all pairs.

    Vertex ids are integers (python or numpy) in range(num_vertices).
    Sets and neighbourhoods are python int bitmasks, so the host is
    capped at ``BITSET_MAX_VERTICES`` vertices on both routes. Touching
    means intersecting or joined by an edge: set j meets the closure of
    set i (the set plus its neighbourhood). An empty set is
    disconnected. A bramble with a rotation takes the orbit route
    (module docstring), which returns the same report and raises
    :class:`StructuralError` if the claimed symmetry does not hold.
    """
    n = g.num_vertices
    if n > BITSET_MAX_VERTICES:
        raise SizeCapError(f"bitmask adjacency capped at {BITSET_MAX_VERTICES} vertices, graph has {n}")
    if bramble.rotation is not None:
        return _validate_orbit(g, bramble)
    nbrs = g.neighbor_masks()
    single = [1 << v for v in range(n)]  # looked up, not shifted, so numpy ids stay exact
    masks, closures = [], []
    for s in bramble.sets:
        bits, closure = _mask_and_closure(s, n, nbrs, single)
        masks.append(bits)
        closures.append(closure)
    for i, bits in enumerate(masks):
        if not _connected(bits, nbrs):
            return BrambleReport(False, first_disconnected=i)
    for i, closure in enumerate(closures):
        for j in range(i + 1, len(masks)):
            if not closure & masks[j]:
                return BrambleReport(False, first_nontouching=(i, j))
    return BrambleReport(True)


def _validate_orbit(g: Graph, bramble: Bramble) -> BrambleReport:
    """:func:`validate_bramble` for a family that is one orbit of its rotation.

    Checks that the rotation is a permutation, maps the edge set onto
    itself and maps set i onto set i+1 (mod m), then floods set 0 and
    tests its closure against sets 1..m-1: S_i and S_j touch exactly when
    S_0 and S_{j-i} do, so the first failing pair of the full scan is
    (0, least failing j). Only set 0's members get neighbourhood masks,
    read off the edges with both ends in set 0. An ndarray ``sets`` is
    the index matrix itself; any other family is copied into one.
    """
    n, sets = g.num_vertices, bramble.sets
    rho = np.array(bramble.rotation)
    if rho.shape != (n,) or (n and rho.dtype.kind not in "iu") or not np.array_equal(np.sort(rho), np.arange(n)):
        raise StructuralError("claimed rotation is not a permutation of the vertex ids")
    rho = rho.astype(np.int64)
    image = rho[g.edges]
    keys = np.sort(image.min(axis=1) * n + image.max(axis=1))
    if not np.array_equal(keys, g.edges[:, 0] * n + g.edges[:, 1]):  # g.edges holds sorted distinct (lo, hi)
        raise StructuralError("claimed rotation does not map the edge set onto itself")
    if not len(sets):
        return BrambleReport(True)
    if not isinstance(sets, np.ndarray):  # sets of one size fill an index matrix
        size = len(sets[0])
        if any(len(s) != size for s in sets):
            raise StructuralError("orbit sets differ in size")
        rows = np.fromiter(itertools.chain.from_iterable(sets), dtype=np.int64, count=len(sets) * size)
        sets = rows.reshape(len(sets), size)
    rows = np.sort(sets, axis=1)
    if (rows[:, 1:] == rows[:, :-1]).any():  # neighbours in a sorted row
        raise StructuralError("an orbit set repeats a vertex id")
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise ParameterError("vertex id out of range")
    image = rho[rows]
    image.sort(axis=1)
    if not (np.array_equal(image[:-1], rows[1:]) and np.array_equal(image[-1], rows[0])):
        raise StructuralError("claimed rotation does not map set i onto set i+1")
    inside = np.zeros(n, dtype=bool)  # set 0, then its closure
    inside[rows[0]] = True
    ends = inside[g.edges]  # which ends of each edge lie in set 0
    members = rows[0].tolist()
    nbrs = dict.fromkeys(members, 0)  # neighbourhoods inside set 0, for its members only
    for u, v in g.edges[ends.all(axis=1)].tolist():
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    if not _connected(sum(1 << v for v in members), nbrs):
        return BrambleReport(False, first_disconnected=0)
    inside[g.edges[ends[:, 0], 1]] = True
    inside[g.edges[ends[:, 1], 0]] = True
    missed = np.flatnonzero(~inside[rows[1:]].any(axis=1))
    if missed.size:
        return BrambleReport(False, first_nontouching=(0, int(missed[0]) + 1))
    return BrambleReport(True)


def transversal_fraction_bound(sets) -> Fraction:
    """Sets-over-max-degree lower bound on the transversal number of a family such as ``Bramble.sets``."""
    sets = [frozenset(s) for s in sets]
    if not sets:
        raise ParameterError("transversal bound needs a non-empty set family")
    if not all(sets):
        raise ParameterError("sets must be non-empty")
    return Fraction(len(sets), max(Counter(itertools.chain.from_iterable(sets)).values()))


def petersen_order_lower_bound(n: int, k: int) -> int:
    """Certified bramble-order bound ceil(n / (t+1)) for the window bramble.

    Only claimed under the hypothesis n >= 8(2k+2)^2, where it is at
    least 2k+2 (asserted), hence a treewidth bound of 2k+1.
    """
    if not (k >= 1 and 2 * k < n):
        raise ParameterError(f"need 1 <= k < n/2, got n={n} k={k}")
    if n < 8 * (2 * k + 2) ** 2:
        raise HypothesisError(
            f"bound needs n >= 8(2k+2)^2 = {8 * (2 * k + 2) ** 2}, got n={n}"
        )
    t = -(-n // (2 * k + 2))
    value = -(-n // (t + 1))
    assert value >= 2 * k + 2, (n, k, t, value)
    return value


# ----------------------------------------------------------------------
# spectra
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Spectrum:
    """Integer eigenvalues with multiplicities, sorted by decreasing eigenvalue."""

    pairs: tuple  # ((eigenvalue, multiplicity), ...)

    def num_vertices(self) -> int:
        return sum(m for _, m in self.pairs)

    def sorted_pairs(self) -> tuple:
        return tuple(sorted(self.pairs, key=lambda p: -p[0]))

    def second_largest(self) -> int:
        pairs = self.sorted_pairs()
        top, mult = pairs[0]
        return top if mult >= 2 else pairs[1][0]


def bk_spectrum(k: int) -> Spectrum:
    """Closed-form adjacency spectrum of the middle inclusion graph.

    Eigenvalues are +-i for i = 1..k+1 with multiplicity
    C(2k+1, k+1-i) - C(2k+1, k-i) each.
    """
    if k < 1:
        raise ParameterError(f"k must be at least 1, got {k}")
    n = 2 * k + 1
    pairs = []
    for i in range(1, k + 2):
        mult = binom_ext(n, k + 1 - i) - binom_ext(n, k - i)
        pairs.append((i, mult))
        pairs.append((-i, mult))
    return Spectrum(tuple(sorted(pairs, key=lambda p: -p[0])))


@dataclass(frozen=True)
class MomentReport:
    ok: bool
    failed_p: int | None = None
    expected: int | None = None  # trace of A^p
    actual: int | None = None  # spectrum moment


def _trace_moments(g: Graph, p_max: int, dtype) -> list:
    """tr(A^p) for p = 0..p_max, from column blocks X = A^m[:, C] (module docstring)."""
    n = g.num_vertices
    indptr, indices = g._csr()
    rows = np.flatnonzero(np.diff(indptr))  # vertices with a neighbour; the others get zero rows
    starts = indptr[rows]  # strictly increasing and below nnz, as reduceat needs
    width = max(1, MOMENT_BLOCK_ENTRIES // max(indices.size, n, 1))
    traces = [0] * (p_max + 1)
    for c in range(0, n, width):
        cols = np.arange(c, min(c + width, n))
        x = np.zeros((n, cols.size), dtype=dtype)
        x[cols, cols - c] = 1
        for m in range(p_max // 2 + 1):
            traces[2 * m] += int(np.vdot(x, x))
            if 2 * m < p_max:
                y = np.zeros_like(x)
                y[rows] = np.add.reduceat(np.take(x, indices, axis=0), starts, axis=0)
                traces[2 * m + 1] += int(np.vdot(x, y))
                x = y
    return traces


def verify_spectrum_moments(g: Graph, spectrum: Spectrum, p_max: int) -> MomentReport:
    """Check sum(mult * eig^p) == trace(A^p) for p = 0..p_max, exactly.

    The traces come from column blocks of A^m, m <= ceil(p_max/2), each
    step a sum of neighbour rows over the CSR (module docstring):
    O(n^2 * deg * ceil(p_max/2)) time and at most ``MOMENT_BLOCK_ENTRIES``
    gathered entries per step. Runs in int64 when the path-count bound
    n * deg^p_max is below 2^62, otherwise in python integers (object
    arrays) through the same kernel, so every compared moment is exact.
    The report names the first failing p. A pass is still only a
    necessary condition: a wrong spectrum can match the first p_max
    moments.
    """
    if p_max < 2:
        raise ParameterError(f"p_max must be at least 2, got {p_max}")
    n = g.num_vertices
    if n > SPECTRUM_CAP:
        raise SizeCapError(f"moment verification capped at {SPECTRUM_CAP} vertices, got {n}")
    bound = n * max(g.max_degree(), 1) ** p_max
    traces = _trace_moments(g, p_max, np.int64 if bound < 2**62 else object)
    for p, trace in enumerate(traces):
        moment = sum(mult * lam**p for lam, mult in spectrum.pairs)
        if trace != moment:
            return MomentReport(False, failed_p=p, expected=trace, actual=moment)
    return MomentReport(True)


def spectral_bound_value(num_vertices: int, degree: int, lambda2: int) -> int:
    """floor((3n/4) * mu / (degree + 2 mu)) - 1 with mu = degree - lambda2, exact."""
    mu = degree - lambda2
    if mu <= 0:
        return -1
    value = Fraction(3 * num_vertices, 4) * Fraction(mu, degree + 2 * mu)
    return math.floor(value) - 1


def spectral_lower_bound(g: Graph, spectrum: Spectrum) -> int:
    """Treewidth lower bound from the spectral gap of a regular graph.

    The spectrum is re-checked against the trace moments for p <= 4
    before use (a necessary condition only); non-regular graphs and
    mismatching spectra are refused. A graph with fewer than two
    vertices has no second eigenvalue, so its bound is undefined.
    """
    if not g.is_regular():
        raise PreconditionError("spectral bound needs a regular graph")
    degree = g.max_degree()
    if spectrum.num_vertices() != g.num_vertices:
        raise PreconditionError("spectrum multiplicities do not sum to the vertex count")
    if g.num_vertices < 2:
        raise UndefinedValueError("spectral gap needs at least two vertices")
    report = verify_spectrum_moments(g, spectrum, 4)
    if not report.ok:
        raise PreconditionError(f"spectrum fails the moment check at p={report.failed_p}")
    top = spectrum.sorted_pairs()[0][0]
    if top != degree:
        raise PreconditionError(f"largest eigenvalue {top} differs from the degree {degree}")
    return spectral_bound_value(g.num_vertices, degree, spectrum.second_largest())


def bk_spectral_lb(k: int) -> int:
    """Closed-form spectral treewidth bound for the middle inclusion graph."""
    if k < 1:
        raise ParameterError(f"k must be at least 1, got {k}")
    value = Fraction(3, 2) * Fraction(binom_ext(2 * k + 1, k), k + 3)
    return math.floor(value) - 1


def degree_lower_bound(g: Graph) -> int:
    """Minimum degree, a treewidth lower bound."""
    return g.min_degree()
