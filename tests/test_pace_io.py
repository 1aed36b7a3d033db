"""The PACE .gr/.td readers and writers against the implementations they replaced.

The reference functions below are the earlier ``graphs.dump_graph``,
``graphs.read_graph``, ``decomp.write_td`` and ``decomp.read_td``,
copied unchanged apart from their names. The writers must produce the
same bytes. The readers are fuzzed over mutated files and must return
the same value or raise the same exception class with the same line
and message. The one exception is the vertex cap, which the reference
lacks: a ``.gr`` header over ``graphs.MAX_VERTICES`` must be refused on
its line unless an earlier line is refused first.
"""

import ast
import io
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from widthlab import decomp, graphs
from widthlab.decomp import Decomposition
from widthlab.errors import ParseError
from widthlab.graphs import Graph

# ----------------------------------------------------------------------
# reference implementations
# ----------------------------------------------------------------------


def _dump_graph_ref(g: Graph, stream) -> None:
    """Write the PACE .gr form to an open stream (see :func:`write_graph`)."""
    for v in range(g.n):
        stream.write(f"c label {v + 1} {g.labels[v]!r}\n")
    stream.write(f"p tw {g.n} {g.num_edges}\n")
    for u, v in g.edges:
        stream.write(f"{int(u) + 1} {int(v) + 1}\n")


def _read_graph_ref(path) -> Graph:
    """Parse a PACE .gr file written by :func:`write_graph` (or plain ones).

    The file must state a simple graph exactly: a repeated edge (in
    either orientation), a self-loop, a negative count, an edge count
    that differs from the header, and a label that is given twice for
    one vertex, names no vertex or collides with another vertex's label
    each raise :class:`ParseError` with the offending line number.
    """
    nverts = None
    medges = None
    header_line = None
    edges = []
    seen = set()
    labels = {}  # vertex -> (label, line)
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("c"):
                parts = line.split(maxsplit=3)
                if len(parts) == 4 and parts[1] == "label":
                    try:
                        vertex, label = int(parts[2]) - 1, ast.literal_eval(parts[3])
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
                header_line = lineno
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
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ParseError(f"repeated edge {key[0]} {key[1]}", lineno)
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


def _write_td_ref(d: Decomposition, num_vertices: int, path) -> None:
    """Write the PACE .td form (1-based bag ids and vertex ids)."""
    sizes = np.diff(d.offsets)
    maxbag = int(sizes.max()) if d.num_bags else 0
    with open(path, "w") as fh:
        fh.write(f"s td {d.num_bags} {maxbag} {num_vertices}\n")
        for i in range(d.num_bags):
            row = " ".join(str(int(v) + 1) for v in d.bag(i))
            fh.write(f"b {i + 1} {row}\n" if row else f"b {i + 1}\n")
        for u, v in d.shape_edges():
            fh.write(f"{int(u) + 1} {int(v) + 1}\n")


def _read_td_ref(path):
    """Parse a PACE .td file; returns (Decomposition, declared_num_vertices).

    Negative header counts, a bag larger than the declared max bag
    size and an edge line naming a bag outside 1..nbags raise
    :class:`ParseError` with the offending line number. Edges that do
    not form a tree over the bags raise :class:`StructuralError` when
    the decomposition is validated.
    """
    header = None
    bags = {}
    edges = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
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
                if any(v < 0 or v >= header[2] for v in content):
                    raise ParseError("bag vertex out of declared range", lineno)
                if len(content) > header[1]:
                    raise ParseError(f"bag of {len(content)} vertices exceeds the declared max {header[1]}", lineno)
                bags[bag_id] = content
                continue
            if len(parts) != 2:
                raise ParseError("malformed bag-tree edge line", lineno)
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError("non-integer bag id in edge line", lineno)
            if not (1 <= a <= header[0] and 1 <= b <= header[0]):
                raise ParseError(f"edge line names a bag outside 1..{header[0]}", lineno)
            edges.append((a - 1, b - 1))
    if header is None:
        raise ParseError("missing solution line", 1)
    nbags = header[0]
    if sorted(bags) != list(range(1, nbags + 1)):
        raise ParseError(f"expected bag ids 1..{nbags}", 1)
    ordered = [bags[i] for i in range(1, nbags + 1)]
    d = Decomposition.from_bags(ordered, tree_edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    return d, header[2]


# ----------------------------------------------------------------------
# writers: byte-identical output
# ----------------------------------------------------------------------

_BK52 = graphs.gen_bipartite_kneser(5, 2)
_STAR = decomp.independent_set_td(_BK52, [v for v in range(_BK52.num_vertices) if len(_BK52.labels[v]) == 2])

GRAPHS = {
    "hamming-q2": graphs.gen_hamming(2, 2, 4),
    "hamming-q3": graphs.gen_hamming(1, 3, 3),
    "johnson": graphs.gen_johnson(6, 3),
    "bk-k1": graphs.gen_bipartite_kneser(5, 1),
    "bk-k2": _BK52,
    "petersen": graphs.gen_petersen(7, 2),
    "unlabelled": Graph(5, [(0, 1), (3, 1), (2, 4)]),
    "no-edges": Graph(3, []),
    "empty": Graph(0, []),
}

DECOMPOSITIONS = {
    "path-repaired": decomp.petersen_pd(9, 2, "repaired"),
    "path-verbatim": decomp.petersen_pd(9, 2, "verbatim"),
    "tree-star": _STAR,
    "path-no-bags": Decomposition.from_bags([]),
    "tree-no-bags": Decomposition.from_bags([], tree_edges=[]),
    "path-empty-bags": Decomposition.from_bags([[], [0, 1], []]),
    "tree-empty-bags": Decomposition.from_bags([[], [2], [], [0, 1]], tree_edges=[(2, 0), (0, 1), (3, 1)]),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_write_graph_bytes_match_reference(tmp_path, name):
    g = GRAPHS[name]
    with open(tmp_path / "ref.gr", "w") as fh:
        _dump_graph_ref(g, fh)
    graphs.write_graph(g, tmp_path / "new.gr")
    assert (tmp_path / "new.gr").read_bytes() == (tmp_path / "ref.gr").read_bytes()
    ref, new = io.StringIO(), io.StringIO()
    _dump_graph_ref(g, ref)
    graphs.dump_graph(g, new)
    assert new.getvalue() == ref.getvalue()


def _assert_td_bytes_match(tmp_path, d, num_vertices):
    _write_td_ref(d, num_vertices, tmp_path / "ref.td")
    decomp.write_td(d, num_vertices, tmp_path / "new.td")
    assert (tmp_path / "new.td").read_bytes() == (tmp_path / "ref.td").read_bytes()


@pytest.mark.parametrize("name", sorted(DECOMPOSITIONS))
def test_write_td_bytes_match_reference(tmp_path, name):
    _assert_td_bytes_match(tmp_path, DECOMPOSITIONS[name], 20)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=4), max_size=5),
    st.booleans(),
    st.one_of(st.integers(-5, 10**20), st.integers(0, 9).map(np.int64)),
)
def test_write_td_bytes_match_reference_on_any_ids(tmp_path_factory, bags, tree, num_vertices):
    """Any int64 ids, the extremes included, format as the reference does."""
    edges = [(0, i) for i in range(1, len(bags))] if tree else None
    _assert_td_bytes_match(tmp_path_factory.getbasetemp(), Decomposition.from_bags(bags, tree_edges=edges), num_vertices)


# ids v whose v + 1 sits on each side of every power of ten, of either sign, and the int64 extremes
DIGIT_EDGE_IDS = [sign * 10**p + d for p in range(19) for sign in (1, -1) for d in (-2, -1, 0)] + [-(2**63), 2**63 - 1]


@pytest.mark.parametrize("tree", [False, True])
def test_write_td_bytes_match_reference_at_digit_widths(tmp_path, tree):
    bags = [DIGIT_EDGE_IDS[i : i + 5] for i in range(0, len(DIGIT_EDGE_IDS), 5)] + [[]]
    edges = [(i, i + 1) for i in range(len(bags) - 1)] if tree else None
    _assert_td_bytes_match(tmp_path, Decomposition.from_bags(bags, tree_edges=edges), 2**63 - 1)


def test_dump_graph_matches_reference_at_digit_widths():
    # a Graph holds ids 0..n-1 only, so any int64 edge ends go through a stand-in with its fields
    ends = np.array(DIGIT_EDGE_IDS, dtype=np.int64).reshape(-1, 2)
    chain = Graph(10**5, [(10**p - 2 + d, 10**p - 1 + d) for p in range(1, 6) for d in (-1, 0)])
    for g in [SimpleNamespace(n=3, labels=(0, "a", ("v", 1)), num_edges=len(ends), edges=ends), chain]:
        ref, new = io.StringIO(), io.StringIO()
        _dump_graph_ref(g, ref)
        graphs.dump_graph(g, new)
        assert new.getvalue() == ref.getvalue()


def test_write_td_peak_stays_below_the_replaced_writer(tmp_path):
    # the writer it replaced peaked at 7.24 MiB on this file; blocks of
    # lines keep the id arrays to a bounded share of the written ids
    d = decomp.petersen_pd(3149, 5)
    tracemalloc.start()
    try:
        decomp.write_td(d, 2 * 3149, tmp_path / "d.td")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.2 * 2**20


# ----------------------------------------------------------------------
# readers: what the writers write takes the byte scan
# ----------------------------------------------------------------------


@pytest.fixture
def scan_only(monkeypatch):
    """The line loops raise, so a file the byte scan declines fails the test."""

    def refuse(path):
        raise AssertionError(f"the byte scan declined {path}")

    monkeypatch.setattr(graphs, "_read_graph_lines", refuse)
    monkeypatch.setattr(decomp, "_read_td_lines", refuse)


def _assert_td_round_trip(d, num_vertices, path):
    decomp.write_td(d, num_vertices, path)
    back, declared = decomp.read_td(path)
    assert declared == num_vertices
    assert back.flat.tolist() == d.flat.tolist() and back.offsets.tolist() == d.offsets.tolist()
    assert back.tree_edges.tolist() == d.shape_edges().tolist()


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_written_graph_takes_the_scan(tmp_path, scan_only, name):
    graphs.write_graph(GRAPHS[name], tmp_path / "g.gr")
    assert _graph_value(graphs.read_graph(tmp_path / "g.gr")) == _graph_value(GRAPHS[name])


@pytest.mark.parametrize("name", sorted(DECOMPOSITIONS))
def test_written_td_takes_the_scan(tmp_path, scan_only, name):
    _assert_td_round_trip(DECOMPOSITIONS[name], 20, tmp_path / "d.td")


def test_large_round_trip_takes_the_scan(tmp_path, scan_only):
    g = graphs.gen_petersen(3149, 5)
    graphs.write_graph(g, tmp_path / "g.gr")
    with open(tmp_path / "ref.gr", "w") as fh:
        _dump_graph_ref(g, fh)
    assert (tmp_path / "g.gr").read_bytes() == (tmp_path / "ref.gr").read_bytes()
    assert _graph_value(graphs.read_graph(tmp_path / "g.gr")) == _graph_value(g)
    d = decomp.petersen_pd(3149, 5)
    _assert_td_bytes_match(tmp_path, d, g.num_vertices)
    _assert_td_round_trip(d, g.num_vertices, tmp_path / "d.td")


# ----------------------------------------------------------------------
# readers: fuzzed against the reference
# ----------------------------------------------------------------------

TOKENS = ["x", "0", "1", "2", "-1", "+3", "1_0", "9" * 5000, "99", "\u0663"]
# vertex counts over the cap, for .gr files only: on a .td header the
# reference would build a list of that many bag ids
GR_TOKENS = TOKENS + [str(graphs.MAX_VERTICES + 1), "9" * 12]
LABELS = [
    "True", "-0", "(1,)", "('a, b', 1)", "'a\\'b'", "[1]", "1;2", "(1, 2", "('v', 1)", "('v', 2)", "(1, 1)",
    "1", "'a'", '"a"', "()", "(1,,)", "(1, 2,)", "( 1, 2)", "((1, 2), 3)", "1.5", "(1, 'x')", "'", "9" * 5000,
    "null", "true", "1.0", "{'a': 1}", "('a,)', 1)", "[1", "2]",
]
EXTRA_LINES = ["", "   ", "\t", "c a comment", "c", "c label", "p", "s", "b", "p tw 3 1", "s td 1 1 3", "b 1 1", "1 2", "1\r2 3"]


def _text(g: Graph) -> str:
    out = io.StringIO()
    _dump_graph_ref(g, out)
    return out.getvalue()


def _td_text(tmp_path_factory, d, num_vertices) -> str:
    path = tmp_path_factory.getbasetemp() / "base.td"
    _write_td_ref(d, num_vertices, path)
    return path.read_text()


GR_BASES = [
    _text(graphs.gen_petersen(5, 2)),
    _text(graphs.gen_bipartite_kneser(5, 1)),
    _text(graphs.gen_hamming(1, 3, 2)),
    _text(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], labels=["a", "b", ("a", 1), 7])),
    "p tw 4 3\n1 2\n2 3\n4 3\n",
]


@st.composite
def mutated(draw, bases, labels, tokens=TOKENS):
    """A base text after a few line edits, token replacements and label rewrites."""
    lines = draw(st.sampled_from(bases)).split("\n")
    index = st.integers(0, 10**6)
    ops = ["delete", "duplicate", "swap", "insert", "token", "crlf", "tabs", "header"] + (["label"] if labels else [])
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(ops))
        i = draw(index) % max(len(lines), 1)
        if op == "insert" or not lines:
            lines.insert(i, draw(st.sampled_from(EXTRA_LINES)))
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(draw(index) % len(lines), lines[i])
        elif op == "swap":
            j = draw(index) % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "token":
            parts = lines[i].split(" ")
            parts[draw(index) % len(parts)] = draw(st.sampled_from(tokens))
            lines[i] = " ".join(parts)
        elif op == "crlf":
            lines[i] += "\r"
        elif op == "tabs":
            lines[i] = lines[i].replace(" ", "\t")
        elif op == "label":  # a new text for a label line keeps its vertex
            parts = lines[i].split(" ", 3)
            vertex = parts[2] if parts[:2] == ["c", "label"] and len(parts) == 4 else draw(st.integers(0, 12))
            lines[i] = f"c label {vertex} {draw(st.sampled_from(LABELS))}"
        else:  # drop the header, repeat it somewhere or replace one of its tokens
            head = next((k for k, line in enumerate(lines) if line[:1] in ("p", "s")), None)
            how = draw(st.sampled_from(["drop", "repeat", "count"]))
            if head is None:
                continue
            if how == "drop":
                del lines[head]
            elif how == "repeat":
                lines.insert(i, lines[head])
            else:
                parts = lines[head].split(" ")
                parts[draw(index) % len(parts)] = draw(st.sampled_from(tokens))
                lines[head] = " ".join(parts)
    return "\n".join(lines)


def _outcome(read, path):
    try:
        return ("returned", read(path))
    except Exception as exc:  # the class, line and message are compared, whatever they are
        # literal_eval names a rejected node by its address, which differs between two calls
        message = re.sub(r" at 0x[0-9a-f]+", " at 0x...", str(exc))
        return ("raised", type(exc), getattr(exc, "line", None), message)


def _graph_value(g: Graph):
    return g.n, g.edges.dtype, g.edges.tolist(), g.labels, [repr(x) for x in g.labels], [type(x) for x in g.labels]


def _td_value(result):
    d, declared = result
    edges = None if d.tree_edges is None else (d.tree_edges.dtype, d.tree_edges.tolist())
    return d.flat.dtype, d.flat.tolist(), d.offsets.dtype, d.offsets.tolist(), edges, declared, type(declared)


def _assert_same(read_new, read_ref, value, path):
    new, ref = _outcome(read_new, path), _outcome(read_ref, path)
    if ref[0] == "returned" and new[0] == "returned":
        assert value(new[1]) == value(ref[1])
    else:
        assert new == ref


def _over_cap_header(path):
    """(line, n) of the first problem line if it declares n > MAX_VERTICES vertices, else None."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            parts = raw.split()
            if not parts or not parts[0].startswith("p"):
                continue
            try:
                n, m = int(parts[2]), int(parts[3])
            except (IndexError, ValueError):
                return None
            ok = len(parts) == 4 and parts[1] == "tw" and m >= 0 and n > graphs.MAX_VERTICES
            return (lineno, n) if ok else None
    return None


def _assert_same_graph_or_cap(path):
    """As :func:`_assert_same`, except that a header over the vertex cap is refused on its line.

    The reference has no cap and would build every vertex, so it reads
    only the lines before that header: an error it raises on one of
    them comes first, and otherwise the cap error is required.
    """
    header = _over_cap_header(path)
    if header is None:
        _assert_same(graphs.read_graph, _read_graph_ref, _graph_value, path)
        return
    line, nverts = header
    with open(path) as fh:
        before = list(fh)[: line - 1]
    head = path.with_name("head.gr")
    head.write_text("".join(before))
    ref = _outcome(_read_graph_ref, head)
    new = _outcome(graphs.read_graph, path)
    if ref[0] == "raised" and ref[3] != "line 1: missing problem line":
        assert new == ref
    else:
        assert new == ("raised", ParseError, line, f"line {line}: {nverts} vertices exceed the cap of {graphs.MAX_VERTICES}")


@settings(max_examples=600, deadline=None)
@given(mutated(GR_BASES, labels=True, tokens=GR_TOKENS))
@example("c label 1 True\np tw 2 0\n")  # True == 1, the default label of vertex 2
@example("c label 1 ('v', 1)\nc label 2 ('v', 1)\np tw 2 0\n")
@example("c label 1 -0\nc label 2 (1,)\nc label 3 ('a, b', 1)\nc label 4 'a\\'b'\np tw 4 0\n")
@example("c label 1 [1]\np tw 1 0\n")
@example("c label 1 1;2\np tw 1 0\n")
@example("p tw 1 0\nc label 1 (1, 2\n")
@example("c label 1 " + "9" * 5000 + "\np tw 1 0\n")
@example("p tw 3 2\n1 2\n\t2\t3\r\n")
@example("c label 1 'a'\nc label 2 'a'\np tw 1048577 1\n1 2\n")  # the cap comes before the whole-file checks
@example("c label 1 'a'\nc label 1 'b'\np tw 999999999999 0\n")  # an earlier line's error comes first
@example("p tw 3 0\np tw 1048577 0\n")  # a second header is refused as one
@example("c label 1 'a'\rp tw 3 2\r1 2\r\r2 3\r")  # CR-only line breaks
@example("c label 1 'a'\r\np tw 3 2\r\n1 2\r\n2 3\r\n")  # CRLF throughout
@example("p tw 3 1\n1\x0b2\n")  # str.split() splits on \x0b and \x0c, universal newlines do not
@example("p tw 3 1\x0c\n1 3\n")
@example("p tw 3 1\n1 " + "0" * 17 + "2\n")  # an 18-digit token
@example("p tw 3 1\n1 " + "0" * 18 + "2\n")  # a 19-digit token
@example("c made by \u00e9\np tw 2 1\n1 2\n")  # a non-ASCII byte inside a comment
@example("c made by \u00e9\nc label 1 'a'\nc label 2 ('v', 1)\np tw 2 1\n1 2\n")  # labels the line loop reads
@example("c only\nc label 1 'a'\n")  # comments only
@example("")
# texts that one JSON parse of all labels could misread, each beside a label it reads
@example("c label 1 null\nc label 2 ('v', 1)\np tw 2 0\n")
@example("c label 1 true\nc label 2 ('v', 1)\np tw 2 0\n")
@example("c label 1 NaN\nc label 2 ('v', 1)\np tw 2 0\n")
@example("c label 1 Infinity\nc label 2 ('v', 1)\np tw 2 0\n")
@example("c label 1 1e5\nc label 2 ('v', 1)\np tw 2 0\n")
@example("c label 1 1.0\nc label 2 ('v', 1)\np tw 2 0\n")
@example('c label 1 "a"\nc label 2 (\'v\', 1)\np tw 2 0\n')
@example("c label 1 ('a(b', 1)\nc label 2 ('v', 1)\np tw 2 0\n")
@example('c label 1 ("it\'s", 1)\nc label 2 (\'v\', 1)\np tw 2 0\n')
@example("c label 1 ((1, 2), 3)\nc label 2 ('v', 1)\np tw 2 0\n")
@example("c label 1 {'a': 1}\nc label 2 ('v', 1)\np tw 2 0\n")
@example("c label 1 [1\nc label 2 2]\np tw 2 0\n")  # two texts that join into one list
def test_read_graph_matches_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.gr"
    path.write_bytes(text.encode())
    _assert_same_graph_or_cap(path)


LABEL_TEXTS = [
    "null", "true", "NaN", "Infinity", "1e5", "1.0", '"a"', "('a(b', 1)", '("it\'s", 1)', "((1, 2), 3)", "{'a': 1}",
    "('a,)', 1)", "(1,)", "()", "-0", "'a'", "7", "('v', 1)",
]


@pytest.mark.parametrize(
    "texts", [[t] for t in LABEL_TEXTS] + [LABEL_TEXTS, LABEL_TEXTS[-6:], ["[1", "2]"], ["('v', 1)", "[1", "2]"]]
)
def test_label_texts_read_as_label_reads_each(texts):
    def read(how):
        try:
            return [(type(x), repr(x)) for x in how(texts)]
        except Exception as exc:  # the class and message are compared, whatever they are
            return type(exc), re.sub(r" at 0x[0-9a-f]+", " at 0x...", str(exc))

    assert read(graphs._labels) == read(lambda texts: list(map(ast.literal_eval, texts)))


# str pieces that the JSON form of a label text could misread
_LABEL_STRS = st.lists(st.sampled_from(["'", '"', "(", ")", ",)", ",", ", ", "\\", "\\n", "\n", "\x00", "a", "é"]), max_size=6)
_LITERALS = st.recursive(
    st.integers(-(2**70), 2**70) | _LABEL_STRS.map("".join) | st.floats() | st.booleans() | st.none(),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_LITERALS.map(repr), min_size=1, max_size=6))
@example(["nan"])  # floats whose repr literal_eval refuses
@example(["('v', 1)", "-inf"])
def test_labels_match_literal_eval_on_reprs(texts):
    def read(how):
        try:
            return [(type(x), repr(x)) for x in how(texts)]
        except Exception as exc:
            return type(exc)

    assert read(graphs._labels) == read(lambda texts: list(map(ast.literal_eval, texts)))


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_generated_labels_take_the_one_parse(tmp_path, monkeypatch, name):
    def refuse(text):
        raise AssertionError(f"the one parse declined {text!r}")

    graphs.write_graph(GRAPHS[name], tmp_path / "g.gr")
    monkeypatch.setattr(graphs, "literal_eval", refuse)
    assert _graph_value(graphs.read_graph(tmp_path / "g.gr")) == _graph_value(GRAPHS[name])


@pytest.fixture(scope="module")
def td_bases(tmp_path_factory):
    return [
        _td_text(tmp_path_factory, decomp.petersen_pd(7, 2, "repaired"), 14),
        _td_text(tmp_path_factory, _STAR, _BK52.num_vertices),
        _td_text(tmp_path_factory, DECOMPOSITIONS["tree-empty-bags"], 3),
        _td_text(tmp_path_factory, DECOMPOSITIONS["path-no-bags"], 2),
        "s td 3 2 4\nb 3 4 1\nb 1 1 2\nb 2 2 3\n1 2\n3 2\n",
    ]


def test_read_td_matches_reference(tmp_path_factory, td_bases):
    path = tmp_path_factory.getbasetemp() / "fuzz.td"

    @settings(max_examples=600, deadline=None)
    @given(mutated(td_bases, labels=False))
    @example("s td 2 2 3\nb 2 1 2\nb 1 3\n1 2\n")  # bags out of order
    @example("s td 1 2 3\nb 1 1 " + "9" * 5000 + "\n")
    @example("s td 1 2 3\nb 1 \u0663 +3\n")
    @example("s td 1 2 3\nb 1 0 x\n")  # malformed beats out of range
    @example("s td 2 1 3\nb 1 1\nb 1 4\n")  # a repeated bag id beats out of range
    @example("s td 2 2 3\rb 1 1 2\r\rb 2 2 3\r1 2\r")  # CR-only line breaks
    @example("s td 2 2 3\r\nb 1 1 2\r\nb 2 2 3\r\n1 2\r\n")  # CRLF throughout
    @example("s td 1 2 3\nb 1 1\x0b2\n")  # str.split() splits on \x0b and \x0c, universal newlines do not
    @example("s td 1 2 3\x0c\nb 1 3\n")
    @example("s td 1 2 3\nb " + "0" * 17 + "1 2\n")  # an 18-digit token
    @example("s td 1 2 3\nb " + "0" * 18 + "1 2\n")  # a 19-digit token
    @example("c made by \u00e9\ns td 1 2 3\nb 1 1 2\n")  # a non-ASCII byte inside a comment
    @example("c only\nc s td 1 2 3\n")  # comments only
    @example("")
    def check(text):
        path.write_bytes(text.encode())
        _assert_same(decomp.read_td, _read_td_ref, _td_value, path)

    check()


def test_td_with_bags_out_of_id_order_takes_the_line_loop(tmp_path):
    text = "s td 2 2 3\nb 2 1 2\nb 1 3\n1 2\n"  # the out-of-order example above
    assert decomp._scan_td(text.encode()) is None
    path = tmp_path / "swapped.td"
    path.write_text(text)
    assert decomp.read_td(path)[0].offsets.tolist() == [0, 1, 3]  # bag 1 = {3} comes first
    _assert_same(decomp.read_td, _read_td_ref, _td_value, path)
