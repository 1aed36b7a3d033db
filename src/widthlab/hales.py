"""Recursive slice orders on binary words and the boundary-greedy global order.

The weight-k slice order on length-n binary words is defined by the
block recursion: the all-ones and all-zeros slices are single rows, and
otherwise the weight-k order at length n lists the weight-(k-1) order
at length n-1 with a trailing 1 appended, followed by the weight-k
order at length n-1 with a trailing 0. Stacking the slices for
k = 0..n yields a global order on all 2^n words whose every prefix
minimizes the outer vertex boundary in the distance graphs; that
minimality is never assumed here, only verified exhaustively on small
instances by :func:`verify_hales_property`.

Words are stored as uint32 bitmasks with coordinate j (1-based) in bit
j-1, so a trailing coordinate append is a single OR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SizeCapError

__all__ = [
    "SliceOrder",
    "Ordering",
    "HalesReport",
    "slice_order",
    "hales_order",
    "vector_of",
    "verify_hales_property",
]


def vector_of(mask: int, n: int) -> tuple:
    """0/1 coordinate tuple of a word bitmask."""
    return tuple((mask >> j) & 1 for j in range(n))


@dataclass(frozen=True)
class SliceOrder:
    """Ordered weight-k slice of the length-n binary words."""

    n: int
    k: int
    rows: np.ndarray  # uint32 bitmasks, one per row

    def vectors(self) -> list:
        return [vector_of(int(r), self.n) for r in self.rows]

    def check(self) -> None:
        """Exhaustive invariant check: distinct rows, all of weight k."""
        if len(np.unique(self.rows)) != len(self.rows):
            raise AssertionError("slice rows are not pairwise distinct")
        if not (np.bitwise_count(self.rows) == self.k).all():
            raise AssertionError("slice rows have wrong weight")


def slice_order(n: int, k: int) -> SliceOrder:
    """Rows of the weight-k slice at length n, in recursion order.

    Built iteratively over word lengths 1..n, keeping only the weight
    band that still feeds the target slice, so memory stays linear in
    the output size.
    """
    if n < 1 or k < 0 or k > n:
        raise ParameterError(f"slice_order needs 0 <= k <= n and n >= 1, got n={n} k={k}")
    if n > 32:
        raise SizeCapError(f"words are uint32 bitmasks, so slice_order is capped at n=32, got n={n}")

    def base(length: int, weight: int) -> np.ndarray:
        if weight == 0:
            return np.zeros(1, dtype=np.uint32)
        return np.asarray([(1 << length) - 1], dtype=np.uint32)

    lo_j = max(0, k - (n - 1))
    hi_j = min(1, k)
    cur = {j: base(1, j) for j in range(lo_j, hi_j + 1)}
    for length in range(2, n + 1):
        lo_j = max(0, k - (n - length))
        hi_j = min(length, k)
        nxt = {}
        bit = np.uint32(1 << (length - 1))
        for j in range(lo_j, hi_j + 1):
            if j == 0 or j == length:
                nxt[j] = base(length, j)
                continue
            nxt[j] = np.concatenate([cur[j - 1] | bit, cur[j]])
        cur = nxt
    return SliceOrder(n, k, cur[k])


@dataclass(frozen=True)
class Ordering:
    """Bijection vertex -> rank, stored as the vertex sequence in rank order."""

    sequence: tuple

    def __post_init__(self):
        seq = self.sequence
        if sorted(seq) != list(range(len(seq))):
            raise ParameterError("ordering must be a bijection onto 0..n-1")

    @property
    def n(self) -> int:
        return len(self.sequence)

    def rank(self, v: int) -> int:
        ranks = {u: i + 1 for i, u in enumerate(self.sequence)}
        return ranks[v]


@dataclass(frozen=True)
class HalesOrder:
    """Global order on all 2^n words: slices stacked by increasing weight."""

    n: int
    rows: np.ndarray

    def rank_of(self, mask: int) -> int:
        """1-based rank of a word bitmask."""
        idx = np.nonzero(self.rows == np.uint32(mask))[0]
        if not idx.size:
            raise ParameterError(f"word {mask:#x} is not a length-{self.n} mask")
        return int(idx[0]) + 1


def hales_order(n: int) -> HalesOrder:
    """Stack slice_order(n, 0..n) into the global order on 2^n words."""
    if n < 1:
        raise ParameterError("hales_order needs n >= 1")
    rows = np.concatenate([slice_order(n, k).rows for k in range(n + 1)])
    return HalesOrder(n, rows)


@dataclass(frozen=True)
class HalesReport:
    """Outcome of the exhaustive prefix check of an ordering."""

    ok: bool
    first_violation: int | None = None  # prefix length
    reason: str | None = None
    bv: tuple = ()


def verify_hales_property(graph, ordering=None, limit: int = 16) -> HalesReport:
    """Check both prefix conditions of a boundary-greedy ordering by brute force.

    Condition 1: every prefix of the ordering attains the exhaustive
    minimum outer boundary for its size. Condition 2: the interior
    vertices of each prefix (those with no neighbor outside it) are
    exactly the lowest-ranked ones. The reference minima come from
    :func:`widthlab.oracles.bv_table`, never from the formulas under
    test; graphs beyond ``limit`` vertices are refused rather than
    sampled.
    """
    n = graph.num_vertices
    if n > limit:
        raise SizeCapError(f"exhaustive prefix check capped at {limit} vertices, graph has {n}")
    from . import oracles  # local import; oracles depends on graphs

    if ordering is None:
        seq = tuple(range(n))
    elif isinstance(ordering, Ordering):
        seq = ordering.sequence
    elif isinstance(ordering, HalesOrder):
        seq = tuple(range(n))
    else:
        seq = tuple(Ordering(tuple(ordering)).sequence)

    bv = oracles.bv_table(graph, cap=limit)
    masks = graph.neighbor_masks()
    full = (1 << n) - 1
    prefix = 0
    closure = 0
    for l, v in enumerate(seq, start=1):
        prefix |= 1 << v
        closure |= masks[v]
        boundary = (closure & ~prefix & full).bit_count()
        if boundary != int(bv[l]):
            return HalesReport(False, l, f"prefix boundary {boundary} exceeds minimum {int(bv[l])}", tuple(int(x) for x in bv))
        interior = [u for u in seq[:l] if masks[u] & ~prefix & full == 0]
        if set(interior) != set(seq[: len(interior)]):
            return HalesReport(False, l, "interior vertices are not the lowest-ranked ones", tuple(int(x) for x in bv))
    return HalesReport(True, None, None, tuple(int(x) for x in bv))
