"""Recursive slice orders on binary words and the boundary-greedy global order.

The weight-k slice order on length-n binary words is defined by the
block recursion from the one word of length 0: the weight-k order at
length n lists the weight-(k-1) order at length n-1 with a trailing 1
appended, followed by the weight-k order at length n-1 with a trailing
0 (a weight outside 0..n-1 is the empty slice). Stacking the slices for
k = 0..n yields a global order on all 2^n words whose every prefix
minimizes the outer vertex boundary in the distance graphs; that
minimality is never assumed here, only verified exhaustively on small
instances by :func:`verify_hales_property`.

In closed form, a slice lists its words in strictly decreasing numeric
order (the words with bit n-1 set come first, and by induction each half
decreases), and the global order is the stable sort of all words, in
decreasing numeric order, by ascending weight.

An order is a plain uint32 numpy array of words, one per row. A word
is a bitmask with coordinate j (1-based) in bit j-1, so a trailing
coordinate append is a single OR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SizeCapError

__all__ = [
    "HalesReport",
    "slice_order",
    "hales_order",
    "word_bits",
    "verify_hales_property",
]


def word_bits(rows: np.ndarray, n: int) -> np.ndarray:
    """uint8 0/1 matrix of length-n words: entry [i, j] is coordinate j+1 (bit j) of ``rows[i]``."""
    return np.unpackbits(np.asarray(rows, dtype="<u4").view(np.uint8), bitorder="little").reshape(-1, 32)[:, :n]


def slice_order(n: int, k: int) -> np.ndarray:
    """Rows of the weight-k slice at length n, in recursion order.

    Built iteratively over word lengths 1..n from the one word of length
    0, keeping only the weight band that still feeds the target slice,
    so memory stays linear in the output size.
    """
    if n < 1 or k < 0 or k > n:
        raise ParameterError(f"slice_order needs 0 <= k <= n and n >= 1, got n={n} k={k}")
    if n > 32:
        raise SizeCapError(f"words are uint32 bitmasks, so slice_order is capped at n=32, got n={n}")
    empty = np.zeros(0, dtype=np.uint32)
    cur = {0: np.zeros(1, dtype=np.uint32)}
    for length in range(1, n + 1):
        bit = np.uint32(1 << (length - 1))
        cur = {
            j: np.concatenate([cur.get(j - 1, empty) | bit, cur.get(j, empty)])
            for j in range(max(0, k - (n - length)), min(length, k) + 1)
        }
    return cur[k]


def hales_order(n: int) -> np.ndarray:
    """Stack slice_order(n, 0..n) into the global order on 2^n words."""
    if n < 1:
        raise ParameterError("hales_order needs n >= 1")
    return np.concatenate([slice_order(n, k) for k in range(n + 1)])


@dataclass(frozen=True)
class HalesReport:
    """Outcome of the exhaustive prefix check of an ordering."""

    ok: bool
    first_violation: int | None = None  # prefix length
    reason: str | None = None
    bv: tuple = ()


def verify_hales_property(graph) -> HalesReport:
    """Check both prefix conditions of the graph's vertex order by brute force.

    The order is vertex 0, 1, ..., n-1. Condition 1: every prefix
    attains the exhaustive minimum outer boundary for its size.
    Condition 2: the interior vertices of each prefix (those with no
    neighbor outside it) are exactly the lowest-numbered ones. The
    reference minima come from :func:`widthlab.oracles.bv_table`, never
    from the formulas under test; graphs beyond its
    :data:`widthlab.oracles.BV_CAP` vertices are refused rather than
    sampled.
    """
    n = graph.num_vertices
    from . import oracles  # local import; oracles depends on graphs

    bv = oracles.bv_table(graph)
    masks = graph.neighbor_masks()
    full = (1 << n) - 1
    prefix = 0
    closure = 0
    for v in range(n):
        prefix |= 1 << v
        closure |= masks[v]
        l = v + 1
        boundary = (closure & ~prefix & full).bit_count()
        if boundary != int(bv[l]):
            return HalesReport(False, l, f"prefix boundary {boundary} exceeds minimum {int(bv[l])}", tuple(int(x) for x in bv))
        interior = [u for u in range(l) if masks[u] & ~prefix & full == 0]
        if interior != list(range(len(interior))):
            return HalesReport(False, l, "interior vertices are not the lowest-ranked ones", tuple(int(x) for x in bv))
    return HalesReport(True, None, None, tuple(int(x) for x in bv))
