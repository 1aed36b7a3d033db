"""Decomposition certificates: containers, validators, constructors.

A decomposition is a sequence of bags plus a tree over bag indices;
``tree_edges is None`` marks the path shape (bag i joined to bag i+1).
One validator serves both shapes: it roots the shape at bag 0 and
answers every question by searching one sorted array of (vertex, bag)
keys. Bags are stored flat (``flat``/``offsets``) so the double-cycle
sweep over thousands of instances stays allocation-bound.

The double-cycle path decomposition ships in two modes: ``verbatim``
transcribes the original recipe unchanged, which for inner skip k >= 2
misses the spokes v_j u_j for k+1 <= j <= 2k-1 (the validator reports
exactly those); ``repaired`` drops the second seed bag and starts the
sliding window k steps earlier, restoring coverage at the same width
2k+2. The repaired mode is this package's fix, not a transcription.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import hales
from .errors import ParameterError, ParseError, PreconditionError, StructuralError
from .graphs import FamilySpec, Graph, gen_bipartite_kneser, gen_hamming, gen_johnson

__all__ = [
    "Decomposition",
    "DecompositionReport",
    "ChordalCertificate",
    "ChordalityResult",
    "validate_decomposition",
    "petersen_pd",
    "independent_set_td",
    "lift_pd",
    "fillin_chordal",
    "is_chordal",
    "clique_number_chordal",
    "bk_prime",
    "read_td",
    "write_td",
]


class Decomposition:
    """Bags over vertex ids 0..n-1 plus a tree shape over bag indices."""

    def __init__(self, flat: np.ndarray, offsets: np.ndarray, tree_edges=None):
        self.flat = np.ascontiguousarray(flat, dtype=np.int64)
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        if self.offsets.ndim != 1 or not len(self.offsets) or self.offsets[0] != 0 or self.offsets[-1] != len(self.flat):
            raise StructuralError("offsets must start at 0 and end at len(flat)")
        if np.any(np.diff(self.offsets) < 0):
            raise StructuralError("offsets must be nondecreasing")
        if tree_edges is not None:
            tree_edges = np.asarray(tree_edges, dtype=np.int64)
            if tree_edges.size % 2:
                raise StructuralError("tree edges must be pairs of bag indices")
            tree_edges = tree_edges.reshape(-1, 2)
        self.tree_edges = tree_edges

    @classmethod
    def from_bags(cls, bags, tree_edges=None) -> "Decomposition":
        bags = [list(b) for b in bags]
        offsets = np.zeros(len(bags) + 1, dtype=np.int64)
        np.cumsum([len(b) for b in bags], out=offsets[1:])
        flat = np.fromiter(itertools.chain.from_iterable(bags), dtype=np.int64, count=int(offsets[-1]))
        return cls(flat, offsets, tree_edges)

    @property
    def num_bags(self) -> int:
        return len(self.offsets) - 1

    @property
    def is_path(self) -> bool:
        return self.tree_edges is None

    def bag(self, i: int) -> np.ndarray:
        return self.flat[self.offsets[i] : self.offsets[i + 1]]

    def bags(self):
        for i in range(self.num_bags):
            yield self.bag(i)

    @property
    def width(self) -> int:
        """Max raw bag size minus one.

        Bags built by this package are duplicate-free; for foreign
        files with repeated entries the validator's reported width is
        the authoritative (deduplicated) one.
        """
        if self.num_bags == 0:
            return -1
        return int(np.diff(self.offsets).max()) - 1

    def shape_edges(self) -> np.ndarray:
        if self.tree_edges is not None:
            return self.tree_edges
        nb = self.num_bags
        idx = np.arange(nb - 1, dtype=np.int64)
        return np.column_stack([idx, idx + 1])

    def __repr__(self) -> str:
        kind = "path" if self.is_path else "tree"
        return f"Decomposition({kind}, bags={self.num_bags}, width={self.width})"


@dataclass(frozen=True)
class DecompositionReport:
    """Full violation list from :func:`validate_decomposition`."""

    ok: bool
    width: int
    missing_vertices: tuple
    uncovered_edges: tuple
    disconnected_vertices: tuple


def _tree_parents(d: Decomposition) -> np.ndarray:
    """Parent of every bag in the tree rooted at bag 0 (-1 at the root); rejects a non-tree."""
    nb, e = d.num_bags, d.tree_edges
    if e.shape[0] != max(nb - 1, 0):
        raise StructuralError(f"a tree on {nb} bags needs {nb - 1} edges, got {e.shape[0]}")
    if e.size and (e.min() < 0 or e.max() >= nb):
        raise StructuralError("tree edge endpoint out of range")
    adj = [[] for _ in range(nb)]
    for a, b in e.tolist():
        adj[a].append(b)
        adj[b].append(a)
    parent = [-1] + [None] * (nb - 1)  # bag 0 is the root
    queue = [0] if nb else []
    for a in queue:  # breadth-first
        for b in adj[a]:
            if parent[b] is None:
                parent[b] = a
                queue.append(b)
    if len(queue) < nb:  # nb - 1 edges leave a bag unreached only by closing a cycle
        raise StructuralError("bag shape contains a cycle")
    return np.asarray(parent[:nb], dtype=np.int64)


def validate_decomposition(g: Graph, d: Decomposition) -> DecompositionReport:
    """Check coverage of vertices and edges plus connectivity of every trace.

    Reports the full violation lists, not just the first hit. Malformed
    shapes (cycles, bad indices) raise :class:`StructuralError` instead.

    One route serves both shapes, rooted at bag 0 (in a path the parent
    of bag b is b - 1). A (vertex, bag) pair is a *top* when the parent
    bag does not hold the vertex, so a vertex's trace has one connected
    piece per top: none means missing, more than one disconnected. Two
    subtrees meet iff one holds the other's top, and this holds piece
    by piece, so an edge is covered iff a top of one end lies in the
    trace of the other. Every probe is a search in the sorted keys
    ``vertex * (nbags + 1) + bag``.
    """
    flat, n, nb = d.flat, g.num_vertices, d.num_bags
    if flat.size and flat.min() < 0:
        raise StructuralError("negative vertex id in a bag")
    if flat.size and flat.max() >= n:
        raise StructuralError("bag vertex id out of range for the host graph")
    stride = nb + 1  # no bag nb, so the root's parent key (v, -1) = (v - 1, nb) is never held
    sizes = d.offsets[1:] - d.offsets[:-1]
    keys = flat * stride + np.arange(nb, dtype=np.int64).repeat(sizes)
    keys.sort()
    step = np.empty(len(keys), dtype=np.int64)  # key minus the previous key
    step[:1] = 2
    np.subtract(keys[1:], keys[:-1], out=step[1:])
    repeat = step == 0
    width = int((sizes - np.bincount(keys[repeat] % stride, minlength=nb)).max(initial=0)) - 1
    if d.is_path:  # the parent key (v, b - 1) is held iff it is the previous distinct key
        top = step > 1
    else:
        parent = _tree_parents(d)
        b = keys % stride
        pkeys = keys + (parent[b] - b)
        top = ~repeat & (keys.take(keys.searchsorted(pkeys), mode="clip") != pkeys)
    top_v, top_bags = np.divmod(keys[top], stride)
    ntops = np.bincount(top_v, minlength=n)
    # one probe per (edge end a, top of a): does the other end c hold that top's bag?
    eu, ev = g.edges.T
    a, c = np.concatenate([eu, ev]), np.concatenate([ev, eu])  # each edge both ways
    reps = ntops[a]
    rows = np.arange(len(a)).repeat(reps)
    # probe p of row r takes top number (first top of a) + (p - first probe of r)
    shift = (ntops.cumsum() - ntops)[a] - (reps.cumsum() - reps)
    probes = c[rows] * stride + top_bags[shift[rows] + np.arange(len(rows))]
    hit = keys.take(keys.searchsorted(probes), mode="clip") == probes
    covered = np.zeros(len(a), dtype=bool)
    covered[rows[hit]] = True
    covered = covered[: len(eu)] | covered[len(eu) :]
    missing = tuple((ntops == 0).nonzero()[0].tolist())
    disconnected = tuple((ntops > 1).nonzero()[0].tolist())
    uncovered = tuple(map(tuple, g.edges[~covered].tolist()))  # graph edges are sorted rows
    ok = not (missing or uncovered or disconnected)
    return DecompositionReport(ok, width, missing, uncovered, disconnected)


# ----------------------------------------------------------------------
# double-cycle path decomposition
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


def petersen_pd(n: int, k: int, mode: str = "repaired") -> Decomposition:
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


def independent_set_td(g: Graph, independent) -> Decomposition:
    """Star tree decomposition: center bag V - I, one leaf per member of I.

    Width is |V| - |I|; the input set must be nonempty and independent.
    """
    members = sorted(set(int(v) for v in independent))
    if not members:
        raise PreconditionError("independent set must be nonempty")
    mset = set(members)
    if any(v < 0 or v >= g.num_vertices for v in members):
        raise ParameterError("independent set contains unknown vertices")
    for u, v in g.edges:
        if int(u) in mset and int(v) in mset:
            raise PreconditionError(f"set is not independent: edge ({int(u)}, {int(v)})")
    center = [v for v in range(g.num_vertices) if v not in mset]
    bags = [center] + [center + [v] for v in members]
    edges = [(0, i + 1) for i in range(len(members))]
    return Decomposition.from_bags(bags, tree_edges=edges)


def lift_pd(pd: Decomposition, t: int, n: int, q: int) -> Decomposition:
    """Lift a decomposition of the binary distance graph to the q-ary one.

    Every bag vertex is replaced by the full preimage of the
    coordinatewise collapse f(a) = 0 iff a <= ceil(q/2); for even q each
    preimage has exactly (q/2)^n elements, so the width scales exactly.
    The input must validate against the binary host graph. The q-ary
    host is not built: a vertex id is its word's base-q code (digit
    a - 1, first coordinate most significant), so a preimage is a
    product of digit ranges.
    """
    if q < 2:
        raise ParameterError(f"q must be at least 2, got {q}")
    base = gen_hamming(t, 2, n)
    report = validate_decomposition(base, pd)
    if not report.ok:
        raise PreconditionError(f"input decomposition is invalid: {report}")
    FamilySpec("hamming", t=t, q=q, n=n).validate()
    if q == 2:
        return Decomposition(pd.flat.copy(), pd.offsets.copy(), pd.tree_edges)
    half = (q + 1) // 2
    digits = (np.arange(half), np.arange(half, q))
    preimages = []
    for bits in hales.word_bits(hales.hales_order(n), n).tolist():
        ids = np.zeros(1, dtype=np.int64)
        for bit in bits:
            ids = (ids[:, None] * q + digits[bit]).ravel()
        preimages.append(ids)
    parts = [preimages[v] for v in pd.flat.tolist()]
    ends = np.cumsum([0] + [len(ids) for ids in parts])
    return Decomposition(np.concatenate(parts), ends[pd.offsets], pd.tree_edges)


# ----------------------------------------------------------------------
# chordal machinery
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChordalCertificate:
    """Chordal supergraph with its perfect elimination order and clique number."""

    graph: Graph
    peo: tuple
    omega: int

    @property
    def width(self) -> int:
        return self.omega - 1


def fillin_chordal(g: Graph, elimination_order) -> ChordalCertificate:
    """Eliminate along the order, connecting later neighbors at each step.

    The filled graph is chordal with the order as a perfect elimination
    order; its clique number is one plus the largest later-degree seen.
    """
    order = [int(v) for v in elimination_order]
    if sorted(order) != list(range(g.num_vertices)):
        raise ParameterError("elimination order must be a bijection on the vertices")
    pos = {v: i for i, v in enumerate(order)}
    adj = [set(map(int, g.neighbors(v))) for v in range(g.num_vertices)]
    back = 0
    for v in order:
        later = [u for u in adj[v] if pos[u] > pos[v]]
        back = max(back, len(later))
        for i, a in enumerate(later):
            for b in later[i + 1 :]:
                adj[a].add(b)
                adj[b].add(a)
    edges = [(u, v) for u in range(g.num_vertices) for v in adj[u] if u < v]
    filled = Graph(g.num_vertices, edges, labels=g.labels)
    return ChordalCertificate(filled, tuple(order), back + 1)


@dataclass(frozen=True)
class ChordalityResult:
    chordal: bool
    peo: tuple | None = None
    witness_cycle: tuple | None = None


def _mcs_order(g: Graph) -> list:
    """Maximum cardinality search; returns a candidate elimination order."""
    n = g.num_vertices
    weight = [0] * n
    picked = [False] * n
    rev = []
    for _ in range(n):
        v = max((u for u in range(n) if not picked[u]), key=lambda u: (weight[u], -u))
        picked[v] = True
        rev.append(v)
        for u in g.neighbors(v):
            if not picked[int(u)]:
                weight[int(u)] += 1
    rev.reverse()
    return rev


def _chordless_cycle_through(g: Graph, v: int, p: int, w: int):
    """Chordless cycle v-p-...-w-v via a shortest p-w path outside N[v]."""
    banned = set(map(int, g.neighbors(v))) | {v}
    banned -= {p, w}
    prev = {p: None}
    queue = [p]
    while queue:
        cur = queue.pop(0)
        if cur == w:
            path = []
            while cur is not None:
                path.append(cur)
                cur = prev[cur]
            return tuple([v] + path[::-1])
        for u in map(int, g.neighbors(cur)):
            if u in banned or u in prev:
                continue
            prev[u] = cur
            queue.append(u)
    return None


def is_chordal(g: Graph) -> ChordalityResult:
    """Maximum-cardinality search plus the zero-fill check.

    On failure the result carries a chordless cycle of length at least
    four as the witness.
    """
    order = _mcs_order(g)
    pos = {v: i for i, v in enumerate(order)}
    nbrs = [set(map(int, g.neighbors(v))) for v in range(g.num_vertices)]
    failure = None
    for v in order:
        later = [u for u in nbrs[v] if pos[u] > pos[v]]
        if not later:
            continue
        parent = min(later, key=lambda u: pos[u])
        for u in later:
            if u != parent and u not in nbrs[parent]:
                failure = (v, parent, u)
                break
        if failure:
            break
    if failure is None:
        return ChordalityResult(True, peo=tuple(order))
    cycle = _chordless_cycle_through(g, *failure)
    if cycle is None:
        # fall back to an exhaustive witness scan; the zero-fill failure
        # guarantees one exists
        for v in range(g.num_vertices):
            nb = sorted(nbrs[v])
            for i, p in enumerate(nb):
                for w in nb[i + 1 :]:
                    if w in nbrs[p]:
                        continue
                    cycle = _chordless_cycle_through(g, v, p, w)
                    if cycle is not None:
                        return ChordalityResult(False, witness_cycle=cycle)
        raise AssertionError("zero-fill check failed but no chordless cycle found")
    return ChordalityResult(False, witness_cycle=cycle)


def clique_number_chordal(g: Graph, peo) -> int:
    """Clique number from a perfect elimination order (1 + max later-degree)."""
    pos = {int(v): i for i, v in enumerate(peo)}
    best = 0
    for v in range(g.num_vertices):
        later = sum(1 for u in g.neighbors(v) if pos[int(u)] > pos[v])
        best = max(best, later)
    return best + 1


def bk_prime(n: int, k: int, cert: ChordalCertificate) -> Graph:
    """Embed a chordal completion of the k-subset graph into the inclusion graph.

    Adds the certificate's edges inside the left part of the
    k-versus-(n-k) inclusion graph (n = 2k+1) and asserts the result is
    chordal with clique number at most max(omega, k+2).
    """
    if n != 2 * k + 1:
        raise ParameterError(f"bk_prime needs n = 2k+1, got n={n} k={k}")
    johnson = gen_johnson(n, k)
    if set(cert.graph.labels) != set(johnson.labels):
        raise PreconditionError("certificate labels do not match the k-subset vertex set")
    jedges = {
        frozenset((johnson.labels[int(u)], johnson.labels[int(v)])) for u, v in johnson.edges
    }
    hedges = {
        frozenset((cert.graph.labels[int(u)], cert.graph.labels[int(v)]))
        for u, v in cert.graph.edges
    }
    if not jedges <= hedges:
        raise PreconditionError("certificate graph does not contain the k-subset graph")
    if not is_chordal(cert.graph).chordal:
        raise PreconditionError("certificate graph is not chordal")
    bk = gen_bipartite_kneser(n, k)
    extra = [
        (bk.index_of_label(a), bk.index_of_label(b))
        for a, b in (tuple(e) for e in hedges)
    ]
    merged = Graph(
        bk.num_vertices,
        np.concatenate([bk.edges, np.asarray(extra, dtype=np.int64).reshape(-1, 2)]),
        labels=bk.labels,
    )
    res = is_chordal(merged)
    assert res.chordal, "left-part completion should keep the inclusion graph chordal"
    omega = clique_number_chordal(merged, res.peo)
    assert omega <= max(cert.omega, k + 2), (omega, cert.omega, k + 2)
    return merged


# ----------------------------------------------------------------------
# PACE .td format
# ----------------------------------------------------------------------


def write_td(d: Decomposition, num_vertices: int, path) -> None:
    """Write the PACE .td form (1-based bag ids and vertex ids) as UTF-8."""
    nb = d.num_bags
    offsets = d.offsets.tolist()
    ids, where = np.unique(d.flat, return_inverse=True)  # each distinct id is formatted once
    names = np.array([str(v + 1) for v in ids.tolist()], dtype=object)[where].tolist()
    lines = [f"s td {nb} {d.width + 1} {num_vertices}\n"]
    lines += [
        f"b {i} {' '.join(names[a:b])}\n" if a < b else f"b {i}\n"
        for i, a, b in zip(range(1, nb + 1), offsets, offsets[1:])
    ]
    lines += [f"{u + 1} {v + 1}\n" for u, v in d.shape_edges().tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


class _VertexIds(dict):
    """Token -> ``int(token) - 1``; each distinct token is converted once."""

    def __missing__(self, token):
        self[token] = v = int(token) - 1
        return v


def read_td(path):
    """Parse a PACE .td file; returns (Decomposition, declared_num_vertices).

    Lines are checked in file order and the first fault found is the
    one raised, as :class:`ParseError` with its line number: a second
    or malformed solution line, content before it, a malformed or
    repeated bag line, a bag vertex outside 1..n, a bag larger than the
    declared max bag size, a malformed edge line or one naming a bag
    outside 1..nbags, and negative header counts. Bag ids that are not
    exactly 1..nbags are reported after the last line. Edges that do
    not form a tree over the bags raise :class:`StructuralError` when
    the decomposition is validated. The file is read as UTF-8, and a
    byte that is not UTF-8 makes its token malformed on its line.
    """
    header = None
    bags = {}  # bag id -> 0-based vertex ids
    ends = []  # 0-based bag-tree edge ends
    ids = _VertexIds()
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, 1):
            parts = raw.split()  # split() and strip() agree on whitespace: parts[0] starts the stripped line
            if not parts or parts[0][0] == "c":
                continue
            if parts[0] == "s":
                if header is not None:
                    raise ParseError("duplicate solution line", lineno)
                if len(parts) != 5 or parts[1] != "td":
                    raise ParseError("malformed solution line, expected 's td <bags> <maxbag> <n>'", lineno)
                try:
                    header = tuple(int(x) for x in parts[2:])
                except ValueError:
                    raise ParseError("non-integer counts in solution line", lineno)
                if min(header) < 0:
                    raise ParseError("negative counts in solution line", lineno)
                nbags, maxbag, nverts = header
                continue
            if header is None:
                raise ParseError("content before the solution line", lineno)
            if parts[0] == "b":
                try:
                    bag_id = int(parts[1])
                    content = list(map(ids.__getitem__, parts[2:]))
                except (IndexError, ValueError):
                    raise ParseError("malformed bag line", lineno)
                if bag_id in bags:
                    raise ParseError(f"duplicate bag id {bag_id}", lineno)
                if content and (min(content) < 0 or max(content) >= nverts):
                    raise ParseError("bag vertex out of declared range", lineno)
                if len(content) > maxbag:
                    raise ParseError(f"bag of {len(content)} vertices exceeds the declared max {maxbag}", lineno)
                bags[bag_id] = content
                continue
            if len(parts) != 2:
                raise ParseError("malformed bag-tree edge line", lineno)
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError("non-integer bag id in edge line", lineno)
            if not (1 <= a <= nbags and 1 <= b <= nbags):
                raise ParseError(f"edge line names a bag outside 1..{nbags}", lineno)
            ends += (a - 1, b - 1)
    if header is None:
        raise ParseError("missing solution line", 1)
    # the length test first, so a wrong nbags never builds a list of nbags ids
    if len(bags) != nbags or sorted(bags) != list(range(1, nbags + 1)):
        raise ParseError(f"expected bag ids 1..{nbags}", 1)
    return Decomposition.from_bags([bags[i] for i in range(1, nbags + 1)], tree_edges=ends), nverts
