"""Graph container and the four structured graph families.

Vertices are integers ``0..n-1``. Every generated vertex carries a
combinatorial label: a 0/1 or q-ary coordinate tuple for the distance
graphs, a sorted ground-set tuple for the subset graphs, or a
``("v"|"u", index)`` pair for the double-cycle family. Vertex order is
part of the contract: binary distance graphs are emitted in the
boundary-greedy order of :func:`widthlab.hales.hales_order`, subset
graphs in slice order, so the graph's adjacency matrix under the
identity ordering is directly the structured matrix studied elsewhere
in the package. The Hamming (every q) and Johnson edges come from one
builder that changes up to t digits of every word and looks the
results up among the vertex words (:func:`_edges_by_digit_changes`),
the bipartite Kneser edges from each k-subset's supersets. Generated and
read graphs have at most :data:`MAX_VERTICES` vertices; every generator's
memory grows with its edges.

Graphs are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

import ast
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import hales
from .errors import ParameterError, ParseError, SizeCapError

__all__ = [
    "Graph",
    "FamilySpec",
    "gen_hamming",
    "gen_johnson",
    "gen_bipartite_kneser",
    "gen_petersen",
    "generate",
    "read_graph",
    "write_graph",
    "dump_graph",
]

# dense per-vertex bitmasks are kept only up to this many vertices
BITSET_MAX_VERTICES = 4096

# Hard cap on the vertices of a generated or read graph. Memory also
# grows with the edges, which are not capped: H(1,2,20), at the cap with
# 10.5M edges, peaked at 1.0 GB RSS (numpy 2.4, Python 3.11).
MAX_VERTICES = 1 << 20


class Graph:
    """Immutable simple undirected graph with distinct vertex labels."""

    def __init__(self, num_vertices: int, edges, labels=None):
        self.n = int(num_vertices)
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if e.size:
            lo = np.minimum(e[:, 0], e[:, 1])
            hi = np.maximum(e[:, 0], e[:, 1])
            if np.any(lo == hi):
                raise ParameterError("self-loops are not allowed")
            if lo.min() < 0 or hi.max() >= self.n:
                raise ParameterError("edge endpoint out of range")
            # sorted distinct (lo, hi) rows via one sort of lo*n + hi keys
            key = np.sort(lo * self.n + hi)
            first = np.empty(key.shape, dtype=bool)
            first[0] = True
            np.not_equal(key[1:], key[:-1], out=first[1:])
            key = key[first]
            e = np.column_stack([key // self.n, key % self.n])
        self.edges = e
        if labels is None:
            labels = tuple(range(self.n))
        else:
            labels = tuple(labels)
        if len(labels) != self.n:
            raise ParameterError("one label per vertex required")
        if len(set(labels)) != self.n:
            raise ParameterError("vertex labels must be pairwise distinct")
        self.labels = labels
        self._indptr = None
        self._indices = None
        self._masks = None
        self._label_index = None

    # -- basic queries -------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.n

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    def _csr(self):
        if self._indptr is None:
            both = np.concatenate([self.edges, self.edges[:, ::-1]]) if self.num_edges else np.zeros((0, 2), np.int64)
            order = np.lexsort((both[:, 1], both[:, 0]))
            both = both[order]
            counts = np.bincount(both[:, 0], minlength=self.n)
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._indptr, self._indices = indptr, both[:, 1].copy()
        return self._indptr, self._indices

    def neighbors(self, v: int) -> np.ndarray:
        indptr, indices = self._csr()
        return indices[indptr[v] : indptr[v + 1]]

    def degrees(self) -> np.ndarray:
        indptr, _ = self._csr()
        return np.diff(indptr)

    def min_degree(self) -> int:
        return int(self.degrees().min()) if self.n else 0

    def max_degree(self) -> int:
        return int(self.degrees().max()) if self.n else 0

    def is_regular(self) -> bool:
        d = self.degrees()
        return bool(self.n == 0 or (d == d[0]).all())

    def neighbor_masks(self) -> list:
        """Per-vertex neighborhoods as python int bitmasks (small graphs only)."""
        if self.n > BITSET_MAX_VERTICES:
            raise SizeCapError(
                f"bitmask adjacency capped at {BITSET_MAX_VERTICES} vertices, graph has {self.n}"
            )
        if self._masks is None:
            masks = [0] * self.n
            for u, v in self.edges.tolist():
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            self._masks = masks
        return self._masks

    def adjacency_matrix(self, dtype=np.int64) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=dtype)
        if self.num_edges:
            a[self.edges[:, 0], self.edges[:, 1]] = 1
            a[self.edges[:, 1], self.edges[:, 0]] = 1
        return a

    # -- labels ----------------------------------------------------------

    def index_of_label(self, label) -> int:
        if self._label_index is None:
            self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        return self._label_index[label]

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def _component(masks: list, seed: int, within: int) -> int:
    """The members of the bitmask ``within`` that the bitmask ``seed`` reaches inside it; ``masks[v]`` is v's neighbourhood."""
    stack = seed & within
    rest = within ^ stack  # members not reached yet
    while stack:
        b = stack & -stack
        stack ^= b
        grow = masks[b.bit_length() - 1] & rest
        rest ^= grow
        stack |= grow
    return within ^ rest


@dataclass(frozen=True)
class FamilySpec:
    """Parameter bundle naming one concrete member of a graph family."""

    family: str
    t: int = 1
    q: int = 2
    n: int = 1
    k: int = 1

    def validate(self) -> None:
        f = self.family
        if f == "hamming":
            if self.t < 1 or self.q < 2 or self.n < 1:
                raise ParameterError(f"invalid hamming parameters {self}")
        elif f == "johnson":
            if not (self.n > self.k >= 1):
                raise ParameterError(f"invalid johnson parameters {self}")
        elif f == "bipartite_kneser":
            if not (self.k >= 1 and self.n >= 2 * self.k + 1):
                raise ParameterError(f"invalid bipartite_kneser parameters {self}")
        elif f == "petersen":
            if not (self.n >= 3 and 1 <= self.k and 2 * self.k < self.n):
                raise ParameterError(f"invalid petersen parameters {self}")
        else:
            raise ParameterError(f"unknown family {f!r}")
        if self._num_vertices() > MAX_VERTICES:
            raise SizeCapError(f"{self} has more than {MAX_VERTICES} vertices")

    def _num_vertices(self) -> int:
        """q^n, C(n,k), 2·C(n,k) or 2n, exact up to :data:`MAX_VERTICES`.

        q^n >= 2^n and C(n,j) >= 2^j for j <= n/2, so a count whose
        exponent reaches ``MAX_VERTICES.bit_length()`` is over the cap
        and is not computed.
        """
        over = MAX_VERTICES.bit_length()
        if self.family == "petersen":
            return 2 * self.n
        if self.family == "hamming":
            return self.q**self.n if self.n < over else MAX_VERTICES + 1
        j = min(self.k, self.n - self.k)
        count = math.comb(self.n, j) if j < over else MAX_VERTICES + 1
        return count if self.family == "johnson" else 2 * count


def generate(spec: FamilySpec) -> Graph:
    """Build the graph named by a :class:`FamilySpec`."""
    spec.validate()
    if spec.family == "hamming":
        return gen_hamming(spec.t, spec.q, spec.n)
    if spec.family == "johnson":
        return gen_johnson(spec.n, spec.k)
    if spec.family == "bipartite_kneser":
        return gen_bipartite_kneser(spec.n, spec.k)
    return gen_petersen(spec.n, spec.k)


# ----------------------------------------------------------------------
# families
# ----------------------------------------------------------------------


def _edges_by_digit_changes(codes: np.ndarray, q: int, n: int, t: int) -> np.ndarray:
    """Edges {i < j} whose words ``codes[i]``, ``codes[j]`` (base q, n digits) differ in 1..t digits.

    Changes up to t digits of every word, in increasing position, and looks
    each result up among the sorted codes: V·Σ_{r≤t} C(n,r)(q−1)^r lookups
    for V words, holding the edges and the words changed in < t digits.
    """
    codes = np.asarray(codes, dtype=np.int64)
    order = np.argsort(codes)
    src, cur, room = np.arange(len(codes)), codes, np.full(len(codes), t)  # words that may change another digit
    edges = []
    for p in range(n):
        digit = cur // q**p % q
        changed = [cur + ((digit + d) % q - digit) * q**p for d in range(1, q)]
        for word in changed:
            at = order[np.searchsorted(codes, word, sorter=order).clip(max=len(codes) - 1)]
            keep = (codes[at] == word) & (src < at)
            edges.append(np.column_stack([src[keep], at[keep]]))
        more = room > 1  # changed words that may still change a digit after p
        src = np.concatenate([src] + [src[more]] * (q - 1))
        room = np.concatenate([room] + [room[more] - 1] * (q - 1))
        cur = np.concatenate([cur] + [word[more] for word in changed])
    return np.concatenate(edges)


def gen_hamming(t: int, q: int, n: int) -> Graph:
    """Distance-at-most-t graph on q-ary length-n words.

    For q = 2 the vertex order is the boundary-greedy binary order of
    :func:`widthlab.hales.hales_order`; for q > 2 it is lexicographic
    over the alphabet {1..q}, so a vertex's id is its word's base-q code.
    The edges cost q^n·Σ_{r≤t} C(n,r)(q−1)^r lookups.
    """
    FamilySpec("hamming", t=t, q=q, n=n).validate()
    if q == 2:
        rows = hales.hales_order(n)
        labels = list(map(tuple, hales.word_bits(rows, n).tolist()))
        return Graph(1 << n, _edges_by_digit_changes(rows, 2, n, t), labels=labels)
    words = list(itertools.product(range(1, q + 1), repeat=n))
    return Graph(len(words), _edges_by_digit_changes(np.arange(len(words)), q, n, t), labels=words)


def _subset_label(mask: int) -> tuple:
    return tuple(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def gen_johnson(n: int, k: int) -> Graph:
    """k-subsets of [n], adjacent when the intersection has k-1 elements:
    the slice rows at bit distance 2 (rows of one weight are never at
    distance 1), found by C(n,k)·(n + C(n,2)) lookups.
    """
    FamilySpec("johnson", n=n, k=k).validate()
    rows = hales.slice_order(n, k)
    return Graph(len(rows), _edges_by_digit_changes(rows, 2, n, 2), labels=[_subset_label(int(r)) for r in rows])


def gen_bipartite_kneser(n: int, k: int) -> Graph:
    """k-subsets versus (n-k)-subsets of [n], adjacent under inclusion: each k-subset
    ORed with each (n-2k)-subset of its absent elements, looked up among the (n-k)-subsets."""
    FamilySpec("bipartite_kneser", n=n, k=k).validate()
    left = hales.slice_order(n, k)
    right = hales.slice_order(n, n - k).astype(np.int64)
    absent = np.nonzero(hales.word_bits(left, n) == 0)[1].reshape(len(left), n - k)  # ascending in each row
    picks = hales.word_bits(hales.slice_order(n - k, n - 2 * k), n - k).astype(np.int64)
    supersets = left.astype(np.int64)[:, None] | (np.left_shift(1, absent) @ picks.T)
    order = np.argsort(right)
    at = order[np.searchsorted(right, supersets.ravel(), sorter=order)]
    nl = len(left)
    edges = np.column_stack([np.repeat(np.arange(nl), len(picks)), at + nl])
    labels = [_subset_label(int(r)) for r in left] + [_subset_label(int(r)) for r in right]
    return Graph(nl + len(right), edges, labels=labels)


def gen_petersen(n: int, k: int) -> Graph:
    """Double cycle on v_1..v_n, u_1..u_n with spokes v_i u_i and inner skip k.

    Vertex ids: v_i -> i-1 and u_i -> n+i-1 (indices are 1-based in the
    labels, arithmetic modulo n mapped back into 1..n).
    """
    FamilySpec("petersen", n=n, k=k).validate()
    i = np.arange(n, dtype=np.int64)
    spokes = np.column_stack([i, i + n])
    outer = np.column_stack([i, (i + 1) % n])
    inner = np.column_stack([i + n, (i + k) % n + n])
    edges = np.concatenate([spokes, outer, inner])
    labels = [("v", j) for j in range(1, n + 1)] + [("u", j) for j in range(1, n + 1)]
    return Graph(2 * n, edges, labels=labels)


# ----------------------------------------------------------------------
# PACE 2017 graph format
# ----------------------------------------------------------------------


def dump_graph(g: Graph, stream) -> None:
    """Write the PACE .gr form to an open stream (see :func:`write_graph`)."""
    stream.writelines([f"c label {v} {label!r}\n" for v, label in enumerate(g.labels, 1)])
    stream.write(f"p tw {g.n} {g.num_edges}\n")
    stream.writelines([f"{u} {v}\n" for u, v in (g.edges + 1).tolist()])


def write_graph(g: Graph, path) -> None:
    """Write the PACE .gr form: header ``p tw n m``, 1-based edge lines.

    The label map rides along in leading ``c label <v> <repr>`` comments
    so a round trip restores the labeled graph. The file is UTF-8.
    """
    with open(path, "w", encoding="utf-8") as fh:
        dump_graph(g, fh)


def _atom(text: str):
    """A tuple item of a label text: a single-quoted str or an int (:func:`_label` checks it)."""
    return text[1:-1] if text.startswith("'") else int(text)


def _label(text: str):
    """The Python literal ``text``, as :func:`ast.literal_eval` reads it.

    Every generated family labels its vertices with ints, strs or flat
    tuples of them, written as their ``repr``. Such a text is split
    directly, and the value is kept only when its ``repr`` is ``text``
    again: ``literal_eval(repr(x)) == x`` for these values, so the value
    is the one ``literal_eval`` would return. Any other text goes to
    ``literal_eval``, about ten times slower.
    """
    try:
        if text.startswith("(") and text.endswith(")"):
            value = tuple(map(_atom, text[1:-1].rstrip(",").split(", ")))
        else:
            value = _atom(text)
        if repr(value) == text:
            return value
    except ValueError:
        pass
    return ast.literal_eval(text)


# the longest number token the scan reads; every 18-digit number fits int64
_NUMBER_DIGITS = 18


class _Tokens(NamedTuple):
    """The tokens of one file in file order, grouped by the lines that hold them."""

    data: bytes
    start: np.ndarray  # byte offset of each token
    end: np.ndarray  # byte offset just past each token
    value: np.ndarray  # int64 value of each number token, -1 for any other token
    head: np.ndarray  # index of the first token of each line that holds one
    size: np.ndarray  # number of tokens on each of those lines

    def first_byte(self, i) -> np.ndarray:
        return np.frombuffer(self.data, dtype=np.uint8)[self.start[i]]

    def equals(self, i: np.ndarray, word: str) -> np.ndarray:
        """Which of the tokens ``i`` are exactly ``word``."""
        b = np.frombuffer(self.data, dtype=np.uint8)
        start = self.start[i]
        hit = self.end[i] - start == len(word)
        for j, char in enumerate(word.encode()):
            hit[hit] = b[start[hit] + j] == char
        return hit

    def text(self, i: int) -> str:
        return self.data[self.start[i] : self.end[i]].decode("ascii")


def _runs(mask: np.ndarray):
    """Start and end offsets, as int32, of the runs of True in a bool array."""
    bounds = np.flatnonzero(np.diff(mask, prepend=False, append=False)).astype(np.int32)
    return bounds[0::2], bounds[1::2]


def _scan_tokens(data: bytes):
    """The tokens and lines that the line loops of the readers see in ``data``, or None.

    Only a file under 2 GiB whose bytes are all printable ASCII, tab, LF
    or CR is scanned; any other file, and one without a token, gives
    None. In such a file ``str.split()`` splits on exactly space, tab,
    LF and CR, and universal newlines end a line at every LF and every
    CR (a CRLF ends a line and an empty one, which holds no token), so
    the tokens and their lines are the ones the line loops see. A number
    token is 1 to 18 ASCII digits, so its value fits int64; ``int``
    reads any other token differently (``+3``, ``1_0``) or not at all,
    so a reader declines a file that needs one. Per byte the scan holds
    uint8 and bool arrays only, and per token int32 offsets and an int64
    value.
    """
    b = np.frombuffer(data, dtype=np.uint8)
    if len(b) >= 2**31 or (b > 126).any():
        return None
    control = np.flatnonzero(b < 32)
    kind = b[control]
    if not ((kind == 9) | (kind == 10) | (kind == 13)).all():
        return None
    start, end = _runs(b > 32)
    if not len(start):
        return None
    opens = np.zeros(len(start) + 1, dtype=bool)  # the first token after each LF or CR opens a line
    opens[np.searchsorted(start, control[kind != 9].astype(np.int32))] = True
    opens[0] = True
    head = np.flatnonzero(opens[:-1])
    size = np.diff(head, append=len(start))
    # a token that holds a byte other than a digit is no number token
    number = end - start <= _NUMBER_DIGITS
    other, _ = _runs((b > 32) & ((b < ord("0")) | (b > ord("9"))))
    number[np.searchsorted(start, other, side="right") - 1] = False
    # the parser would read a text of blanks only as one 0
    parsed = np.fromstring(_number_digits(b, start, number), dtype=np.int64, sep=" ") if number.any() else []
    value = np.full(len(start), -1, dtype=np.int64)
    value[number] = parsed
    return _Tokens(data, start, end, value, head, size)


def _number_digits(b: np.ndarray, start: np.ndarray, number: np.ndarray) -> np.ndarray:
    """A copy of the bytes ``b`` that blanks all but the digits of the number tokens.

    A closing blank is appended, so the number parser stops inside the
    copy: an array, unlike a bytes object, has no closing NUL.
    """
    owned = np.diff(start, append=len(b)).astype(np.intp)  # token i owns the bytes up to token i + 1
    owned[0] += start[0]  # and token 0 also those before it
    digits = np.full(len(b) + 1, ord(" "), dtype=np.uint8)
    np.copyto(digits[:-1], b, where=np.repeat(number, owned) & (b > 32))
    return digits


def _repeats(a: np.ndarray) -> bool:
    a = np.sort(a)
    return bool((a[1:] == a[:-1]).any())


def _scan_graph(data: bytes):
    """:func:`read_graph`'s value for ``data``, or None where its line loop must decide.

    Runs every check of the line loop and returns None on any fault,
    never raising :class:`ParseError` itself.
    """
    tok = _scan_tokens(data)
    if tok is None:
        return None
    comment = tok.first_byte(tok.head) == ord("c")
    head, size = tok.head[~comment], tok.size[~comment]
    # the first line that is not a comment is the one problem line, every later one an edge line
    lead = tok.first_byte(head)
    if not len(head) or lead[0] != ord("p") or (lead[1:] == ord("p")).any():
        return None
    if size[0] != 4 or tok.text(head[0] + 1) != "tw":
        return None
    nverts, medges = tok.value[head[0] + 2 : head[0] + 4].tolist()
    if min(nverts, medges) < 0 or nverts > MAX_VERTICES or len(head) - 1 != medges or (size[1:] != 2).any():
        return None
    ends = np.column_stack([tok.value[head[1:]], tok.value[head[1:] + 1]])
    # label comments: 'c... label <v> <literal>', the literal running to the end of its line
    long_comment = comment & (tok.size >= 4)
    first, last = tok.head[long_comment], tok.head[long_comment] + tok.size[long_comment] - 1
    named = tok.equals(first + 1, "label")
    first, last = first[named], last[named]
    labels = None
    if len(first):
        vertex = tok.value[first + 2]
        if vertex.min() < 1 or vertex.max() > nverts or _repeats(vertex):
            return None
        text = data.decode("ascii")
        labels = list(range(nverts))
        for v, a, z in zip(vertex.tolist(), tok.start[first + 3].tolist(), tok.end[last].tolist()):
            try:
                labels[v - 1] = _label(text[a:z])
            except (ValueError, SyntaxError, TypeError):
                return None
    # Graph refuses bad ends, self-loops and unhashable or colliding labels, and merges repeated edges
    try:
        g = Graph(nverts, ends - 1, labels=labels)
    except (ParameterError, TypeError):
        return None
    return g if g.num_edges == medges else None


def read_graph(path) -> Graph:
    """Parse a PACE .gr file written by :func:`write_graph` (or plain ones).

    The file must state a simple graph exactly: a repeated edge (in
    either orientation), a self-loop, a negative count, an edge count
    that differs from the header, and a label that is given twice for
    one vertex, names no vertex or collides with another vertex's label
    each raise :class:`ParseError` with the offending line number. Lines
    are checked in file order and the first fault found is the one
    raised; the whole-file checks (edge count, label range and
    collisions) come after the last line. A header above
    :data:`MAX_VERTICES` vertices is refused on its line.

    The file is read as UTF-8. A byte that is not UTF-8 is kept as a
    lone surrogate, so the token holding it is refused like any other
    malformed token, with its line number.

    Labels in ``c label <v> <literal>`` comments are Python literals
    (ints, strs and tuples of them), read as :func:`ast.literal_eval`
    reads them.

    Two routes read the file and return the same graph. A file of
    printable ASCII, tabs, LFs and CRs whose numbers are plain runs of
    at most 18 digits is read by one byte scan (:func:`_scan_tokens`),
    which checks the edge lines as arrays and sends only the label
    comments through Python; it holds the file's bytes and a few bytes
    of arrays per byte and per token. Any other file, and every file
    with a fault, is read by the line loop, which holds one line at a
    time plus a Python tuple per edge, and raises each error reported
    here.
    """
    with open(path, "rb") as fh:
        g = _scan_graph(fh.read())
    return _read_graph_lines(path) if g is None else g


def _read_graph_lines(path) -> Graph:
    """The line loop of :func:`read_graph`: the route for every file the byte scan declines."""
    nverts = None
    medges = None
    header_line = None
    edges = []
    seen = set()  # edge keys lo * (nverts + 1) + hi
    labels = {}  # vertex -> (label, line)
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("c"):
                parts = line.split(maxsplit=3)
                if len(parts) == 4 and parts[1] == "label":
                    try:
                        vertex = int(parts[2]) - 1
                        label = _label(parts[3])
                        hash(label)
                    except (ValueError, SyntaxError, TypeError) as exc:
                        raise ParseError(f"bad label comment: {exc}", lineno)
                    if vertex in labels:
                        raise ParseError(f"second label for vertex {vertex + 1}", lineno)
                    labels[vertex] = (label, lineno)
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "tw":
                    raise ParseError("malformed problem line, expected 'p tw <n> <m>'", lineno)
                if nverts is not None:
                    raise ParseError("duplicate problem line", lineno)
                try:
                    nverts, medges = int(parts[2]), int(parts[3])
                except ValueError:
                    raise ParseError("non-integer counts in problem line", lineno)
                if nverts < 0 or medges < 0:
                    raise ParseError("negative counts in problem line", lineno)
                if nverts > MAX_VERTICES:
                    raise ParseError(f"{nverts} vertices exceed the cap of {MAX_VERTICES}", lineno)
                header_line = lineno
                stride = nverts + 1
                continue
            if nverts is None:
                raise ParseError("edge line before problem line", lineno)
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("edge line must hold exactly two endpoints", lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError("non-integer endpoint", lineno)
            if not (1 <= u <= nverts and 1 <= v <= nverts):
                raise ParseError("endpoint out of range", lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            key = u * stride + v if u < v else v * stride + u
            if key in seen:
                raise ParseError(f"repeated edge {min(u, v)} {max(u, v)}", lineno)
            seen.add(key)
            edges.append((u - 1, v - 1))
    if nverts is None:
        raise ParseError("missing problem line", 1)
    if medges != len(edges):
        raise ParseError(f"header declares {medges} edges, found {len(edges)}", header_line)
    if not labels:
        return Graph(nverts, edges)
    lab = list(range(nverts))
    used = {v for v in range(nverts) if v not in labels}  # default labels stay in use
    for vertex, (label, lineno) in labels.items():  # in file order
        if not 0 <= vertex < nverts:
            raise ParseError(f"label for vertex {vertex + 1}, outside 1..{nverts}", lineno)
        if label in used:
            raise ParseError(f"label {label!r} is already used by another vertex", lineno)
        used.add(label)
        lab[vertex] = label
    return Graph(nverts, edges, labels=lab)
