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

A chordal completion certificate carries its perfect elimination
order and clique number, and is checked by that order alone: the
zero-fill test of :func:`peo_clique_number` accepts the order and
recomputes the clique number, so no chordality recognizer is needed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import hales
from .errors import ParameterError, ParseError, PreconditionError, StructuralError
from .graphs import FamilySpec, Graph, _one_based_lines, _scan_tokens, gen_bipartite_kneser, gen_hamming, gen_johnson

__all__ = [
    "Decomposition",
    "DecompositionReport",
    "ChordalCertificate",
    "validate_decomposition",
    "petersen_pd",
    "independent_set_td",
    "lift_pd",
    "fillin_chordal",
    "peo_clique_number",
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
        """Max raw bag size minus one; -1 when there are no bags.

        Bags built by this package are duplicate-free; for foreign
        files with repeated entries the validator's reported width is
        the authoritative (deduplicated) one.
        """
        return int(np.diff(self.offsets).max(initial=0)) - 1

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
    anchor = [0] + [n + j for j in range(k)]  # v_1, u_1..u_k (v_j has id j-1, u_j id n+j-1)
    seeds = [range(k)]  # B1: v_1..v_k
    if mode == "verbatim":
        seeds.append(range(k - 1, 2 * k))  # B2: v_k..v_2k
    first = 1 if mode == "verbatim" else 1 - k
    m = n - 2 * k
    # one row per step i = first..m+1: X_i | Y_i | Z_i | W_i, each bag followed by the anchor
    i = np.arange(first, m + 2)[:, None]
    u = (n - 1 + k) + i + np.arange(k + 1)  # u_{k+i}..u_{2k+i}
    v = (2 * k - 2) + i + np.arange(2)  # v_{2k+i-1}, v_{2k+i}
    a = np.broadcast_to(np.asarray(anchor), (len(i), k + 1))
    rows = np.concatenate([u[:, :k], v[:, :1], a, u, v[:, :1], a, u[:, 1:], v[:, :1], a, u[:, 1:], v, a], axis=1)
    sizes = [2 * k + 2, 2 * k + 3, 2 * k + 2, 2 * k + 3]
    cuts = [0, *itertools.accumulate(sizes)]
    early = 1 - first  # the steps i <= 0, whose windows meet the anchor
    bags = [sorted({*b, *anchor}) for b in seeds]
    bags += [sorted(set(row[lo:hi])) for row in rows[:early].tolist() for lo, hi in zip(cuts, cuts[1:])]
    # the closing bag X_{m+1} is the X part of the last row
    lens = np.concatenate([[len(b) for b in bags], np.tile(sizes, m), sizes[:1]])
    offsets = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    head = np.fromiter(itertools.chain.from_iterable(bags), dtype=np.int64, count=int(offsets[len(bags)]))
    flat = np.concatenate([head, rows[early:-1].ravel(), rows[-1, : sizes[0]]])
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


def _positions(n: int, order: list) -> list:
    """Position of every vertex in ``order``; refuses an order that is not a bijection on 0..n-1."""
    if sorted(order) != list(range(n)):
        raise ParameterError("elimination order must be a bijection on the vertices")
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    return pos


def peo_clique_number(g: Graph, peo) -> int:
    """Clique number of ``g``, checked against a claimed perfect elimination order.

    Zero-fill test (Rose, Tarjan and Lueker 1976; Tarjan and Yannakakis
    1984): the order is perfect iff, for every v, the earliest later
    neighbour of v is adjacent to all of v's other later neighbours.
    Then every later neighbourhood is a clique, so the clique number is
    1 + the largest later-degree. A failed test raises
    :class:`PreconditionError` naming v.
    """
    pos = _positions(g.num_vertices, [int(v) for v in peo])
    nbrs = [set(map(int, g.neighbors(v))) for v in range(g.num_vertices)]
    back = -1
    for v in range(g.num_vertices):
        later = {u for u in nbrs[v] if pos[u] > pos[v]}
        if later:
            parent = min(later, key=pos.__getitem__)
            if not later - {parent} <= nbrs[parent]:
                raise PreconditionError(f"order is not a perfect elimination order at vertex {v}")
        back = max(back, len(later))
    return back + 1


def fillin_chordal(g: Graph, elimination_order) -> ChordalCertificate:
    """Eliminate along the order, connecting later neighbors at each step.

    The filled graph is chordal with the order as a perfect elimination
    order; its clique number comes from :func:`peo_clique_number`.
    """
    order = [int(v) for v in elimination_order]
    pos = _positions(g.num_vertices, order)
    adj = [set(map(int, g.neighbors(v))) for v in range(g.num_vertices)]
    for v in order:
        later = [u for u in adj[v] if pos[u] > pos[v]]
        for i, a in enumerate(later):
            for b in later[i + 1 :]:
                adj[a].add(b)
                adj[b].add(a)
    edges = [(u, v) for u in range(g.num_vertices) for v in adj[u] if u < v]
    filled = Graph(g.num_vertices, edges, labels=g.labels)
    return ChordalCertificate(filled, tuple(order), peo_clique_number(filled, order))


def bk_prime(n: int, k: int, cert: ChordalCertificate) -> ChordalCertificate:
    """Embed a chordal completion of the k-subset graph into the inclusion graph.

    Checks the certificate's order and clique number, adds its edges
    inside the left part of the k-versus-(n-k) inclusion graph
    (n = 2k+1), and returns the merged graph's certificate. Its order
    eliminates the right part first: the k+1 neighbours of a right
    vertex pairwise share k-1 elements, so they are adjacent in the
    k-subset graph and every right vertex is simplicial. Then comes the
    certificate's order, so the clique number is max(omega, k+2).
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
    omega = peo_clique_number(cert.graph, cert.peo)
    if omega != cert.omega:
        raise PreconditionError(f"certificate claims clique number {cert.omega}, its order gives {omega}")
    bk = gen_bipartite_kneser(n, k)
    ids = [bk.index_of_label(label) for label in cert.graph.labels]
    extra = np.asarray(ids, dtype=np.int64)[cert.graph.edges]
    merged = Graph(bk.num_vertices, np.concatenate([bk.edges, extra.reshape(-1, 2)]), labels=bk.labels)
    right = sorted(set(range(bk.num_vertices)) - set(ids))
    peo = tuple(right) + tuple(ids[int(v)] for v in cert.peo)
    omega = peo_clique_number(merged, peo)
    assert omega == max(cert.omega, k + 2), (omega, cert.omega, k + 2)
    return ChordalCertificate(merged, peo, omega)


# ----------------------------------------------------------------------
# PACE .td format
# ----------------------------------------------------------------------


def write_td(d: Decomposition, num_vertices: int, path) -> None:
    """Write the PACE .td form (1-based bag ids and vertex ids) as UTF-8.

    The bag lines ``b <i> <ids>`` and the shape edges come from
    :func:`widthlab.graphs._one_based_lines` in blocks of whole lines,
    with each bag's index as its line's first id.
    """
    nb = d.num_bags
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"s td {nb} {d.width + 1} {num_vertices}\n")
        ids = np.insert(d.flat, d.offsets[:-1], np.arange(nb))  # each bag's index, then its ids
        fh.writelines(_one_based_lines(ids, d.offsets + np.arange(nb + 1), "b "))
        edges = d.shape_edges()
        fh.writelines(_one_based_lines(edges.ravel(), np.arange(0, edges.size + 1, 2)))


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

    Two routes read the file and return the same value. A file of
    printable ASCII, tabs, LFs and CRs whose numbers are plain runs of
    at most 18 digits is read by one byte scan
    (:func:`widthlab.graphs._scan_tokens`), which runs every check above
    as array tests and builds the bag arrays directly; it holds the
    file's bytes and a few bytes of arrays per byte and per token. Any
    other file, one whose bag lines are not in id order, and every file
    with a fault, is read by the line loop, which holds one line at a
    time plus a Python list per bag, and raises each error reported here.
    """
    with open(path, "rb") as fh:
        result = _scan_td(fh.read())
    return _read_td_lines(path) if result is None else result


def _scan_td(data: bytes):
    """:func:`read_td`'s value for ``data``, or None where its line loop must decide.

    Runs every check of the line loop and returns None on any fault,
    never raising :class:`ParseError` itself.
    """
    tok = _scan_tokens(data)
    if tok is None:
        return None
    comment = tok.first_byte(tok.head) == ord("c")
    head, size = tok.head[~comment], tok.size[~comment]
    # the first line that is not a comment is the one solution line, every later one a bag or an edge line
    if not len(head) or size[0] != 5 or tok.text(head[0]) != "s" or tok.text(head[0] + 1) != "td":
        return None
    nbags, maxbag, nverts = tok.value[head[0] + 2 : head[0] + 5].tolist()
    head, size = head[1:], size[1:]
    if min(nbags, maxbag, nverts) < 0 or tok.equals(head, "s").any():
        return None
    bag = tok.equals(head, "b")
    first, sizes = head[bag] + 2, size[bag] - 2  # a bag's members are its tokens first .. first + sizes - 1
    if len(first) != nbags or (sizes < 0).any() or (sizes > maxbag).any() or (size[~bag] != 2).any():
        return None
    inside = np.zeros(len(tok.value) + 1, dtype=np.int8)
    inside[first] = 1
    inside[first + sizes] -= 1
    flat = tok.value[np.cumsum(inside[:-1], dtype=np.int8).view(bool)]
    ends = np.column_stack([tok.value[head[~bag]], tok.value[head[~bag] + 1]])
    if flat.size and (flat.min() < 1 or flat.max() > nverts) or ends.size and (ends.min() < 1 or ends.max() > nbags):
        return None
    if not np.array_equal(tok.value[first - 1], np.arange(1, nbags + 1)):  # bags out of id order go to the line loop
        return None
    offsets = np.zeros(nbags + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    flat -= 1
    ends -= 1
    return Decomposition(flat, offsets, ends), nverts


def _read_td_lines(path):
    """The line loop of :func:`read_td`: the route for every file the byte scan declines."""
    header = None
    bags = {}  # bag id -> 0-based vertex ids
    ends = []  # 0-based bag-tree edge ends
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
                    content = [int(x) - 1 for x in parts[2:]]
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
