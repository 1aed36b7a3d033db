"""Formula engine: block matrices, anchor radii, and exact bandwidth values.

The adjacency matrix of the binary distance-t graph under the
boundary-greedy order decomposes into an (n+1) x (n+1) grid of
weight-slice blocks. Everything here is computed three independent
ways so the test suite can cross-check them:

* directly, from the Hamming distances of the slice orders
  (:func:`block_radii`, :func:`bw_direct`). A (n, k, kp) block's
  distances do not depend on t, so :func:`block_radii` takes all blocks
  of one n, builds the slice orders once, and scans each block once per
  requested t with one comparison and one argmax over its reversed
  rows; :func:`bw_direct` reads the bandwidth off the radii of the
  blocks within t of the diagonal;
* recursively, via the 2x2 sub-block split of each slice block with
  anchor-shift offsets (:func:`radius_recursive`, :func:`bw_recursion`);
* in closed form (:func:`radius_closed`, :func:`bw_closed`).

All arithmetic is exact (python integers); ``NEG_INF`` is the lattice
bottom for radii of zero or empty blocks so maxima stay total. The
closed radius form returns ``NEG_INF`` for the degenerate 1x1 diagonal
blocks (gap 0 with a single-row slice), where the literal four-branch
expression would give 1 for an all-zero matrix; the recursive and
direct routes force the corrected value.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import hales
from .errors import ParameterError, SizeCapError

__all__ = [
    "NEG_INF",
    "binom_ext",
    "block_radii",
    "bw_direct",
    "radius_closed",
    "radius_recursive",
    "diagonal_distance",
    "bw_closed",
    "bw_recursion",
    "johnson_slice_bandwidth",
    "harper_lower_bound",
]

NEG_INF = float("-inf")

BLOCK_MAX_N = 20
BLOCK_MAX_ELEMS = 1 << 27


def binom_ext(x: int, y: int) -> int:
    """Binomial coefficient with the zero convention for y < 0 or y > x."""
    if y < 0 or y > x:
        return 0
    return math.comb(x, y)


def block_radii(n: int, blocks) -> dict:
    """Direct anchor radii of many (k, kp) blocks of one n, at thresholds per block.

    ``blocks`` maps each (k, kp) to its thresholds ts; the result maps
    it to the list of radii, with ``result[(k, kp)][i]`` the radius at
    ``ts[i]``: the largest ``rows - i + j`` over the entries (i, j) of
    the weight-k rows versus the weight-kp columns with Hamming
    distance ``1 <= d <= t``, or ``NEG_INF`` for a zero block or for
    out-of-range weights (the empty block). The reference point is the
    cell just left of the bottom-left corner, so on a diagonal block of
    s rows the radius is the block's bandwidth plus s. Every argument
    and size cap is checked before any block is built, and the slice
    orders of n are built once for all blocks.

    Each block is scanned with its columns reversed and 1 subtracted
    from its uint8 distances, so a threshold is one comparison
    ``d - 1 < t`` and one argmax along contiguous rows finds each row's
    last entry. Distance 0 wraps to 255, which no threshold reaches:
    distances are at most n <= ``BLOCK_MAX_N`` < 255 and t is clamped
    to n. Each block's arrays are freed before the next one is built,
    so the traced peak is about 5 bytes per entry of the largest block
    (its uint32 word products before the count).
    """
    blocks = {kk: list(ts) for kk, ts in blocks.items()}
    low = min((t for ts in blocks.values() for t in ts), default=0)
    if n < 1 or low < 0:
        raise ParameterError(f"block_radii needs n >= 1 and every t >= 0, got n={n} and t={low}")
    if n > BLOCK_MAX_N:
        raise SizeCapError(f"block assembly capped at n={BLOCK_MAX_N}, got n={n}")
    for k, kp in blocks:
        if binom_ext(n, k) * binom_ext(n, kp) > BLOCK_MAX_ELEMS:
            raise SizeCapError(f"block with {binom_ext(n, k)}x{binom_ext(n, kp)} entries exceeds the dense cap")
    orders = [hales.slice_order(n, w) for w in range(n + 1)]
    return {
        (k, kp): _reversed_radii(orders[k], orders[kp], ts, n) if 0 <= k <= n and 0 <= kp <= n else [NEG_INF] * len(ts)
        for (k, kp), ts in blocks.items()
    }


def _reversed_radii(rows: np.ndarray, cols: np.ndarray, ts: list, n: int) -> list:
    """Radii of one block at each t in ``ts``, from its reversed, shifted distances (see :func:`block_radii`)."""
    below = np.bitwise_count(rows[:, None] ^ cols[::-1][None, :])
    below -= 1
    ii = np.arange(len(rows))
    hit = np.empty(below.shape, dtype=bool)
    radii = []
    for t in ts:
        np.less(below, min(t, n), out=hit)
        back = hit.argmax(axis=1)  # columns from the right: 0 also for a row without a hit
        lead = (ii + back)[hit[ii, back]]
        # last - i = (cols - 1 - back) - i, so the radius is rows + cols - 1 - min(i + back)
        radii.append(int(len(rows) + len(cols) - 1 - lead.min()) if lead.size else NEG_INF)
    return radii


def bw_direct(t: int, n: int) -> int:
    """Exact bandwidth of the ordered distance-t matrix, read off its slice blocks.

    Every nonzero entry lies in a block (k, kp) with |k - kp| <= t, and
    by symmetry k <= kp is enough. Entry (i, j) of such a block lies
    ``starts[kp] - starts[k] + j - i`` right of the diagonal, where
    ``starts`` are the slice offsets of the stacked order, so the block's
    farthest entry is ``starts[kp] - starts[k + 1]`` plus its anchor
    radius. One :func:`block_radii` call, with its size caps, gives all
    the radii.
    """
    if t < 1 or n < 1:
        raise ParameterError(f"bw_direct needs t >= 1 and n >= 1, got t={t} n={n}")
    radii = block_radii(n, {(k, kp): [t] for k in range(n + 1) for kp in range(k, min(n, k + t) + 1)})
    starts = [0]
    for k in range(n + 1):
        starts.append(starts[-1] + binom_ext(n, k))
    return max(starts[kp] - starts[k + 1] + r for (k, kp), (r,) in radii.items() if r != NEG_INF)


# ----------------------------------------------------------------------
# closed form
# ----------------------------------------------------------------------


def _sum_ballgrowth(t: int, s: int, terms: int) -> int:
    return sum(
        binom_ext(t - s + 2 * a, t - s + a - 1) - binom_ext(t - s + 2 * a, a - 1)
        for a in range(terms)
    )


def radius_closed(t: int, n: int, k: int, s: int):
    """Closed-form anchor radius of the block with row weight k, gap t - 2s.

    Branches on k - s against 0, floor((n-t)/2) and n - t; overlapping
    branch values are asserted to agree. Returns NEG_INF for the
    degenerate 1x1 zero diagonal blocks (see module notes).
    """
    if t < 1 or s < 0 or t < 2 * s or n < 1 or k < 0 or k + t - 2 * s > n:
        raise ParameterError(f"invalid radius parameters t={t} n={n} k={k} s={s}")
    kp = k + t - 2 * s
    if kp == k and binom_ext(n, k) == 1:
        return NEG_INF
    if t >= n - 1:
        return binom_ext(n, k) + binom_ext(n, kp) - 1
    vals = []
    if 0 <= k - s <= (n - t) // 2:
        a2 = sum(
            binom_ext(m - 1, kp - 1) - binom_ext(m - 1, k - s - 1)
            for m in range(t - 3 * s + 1 + 2 * k, n - s + 1)
        )
        c = binom_ext(n, kp) - binom_ext(n - s, kp)
        vals.append(binom_ext(n, k) + _sum_ballgrowth(t, s, k - s) + a2 + c)
    if (n - t) // 2 <= k - s <= n - t:
        c = binom_ext(n, kp) - binom_ext(n - s, kp)
        vals.append(binom_ext(n, k) + _sum_ballgrowth(t, s, n - t - k + s) + c)
    if k - s <= 0 or k - s >= n - t:
        d = sum(binom_ext(m - 1, kp - 1) for m in range(kp + 1, n + 1))
        vals.append(binom_ext(n, k) + d)
    assert vals and all(v == vals[0] for v in vals), (
        f"closed-form branches disagree at t={t} n={n} k={k} s={s}: {vals}"
    )
    return vals[0]


# ----------------------------------------------------------------------
# recursion over the 2x2 sub-block split
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _radius_rec(t: int, n: int, k: int, p: int):
    kp = k + p
    if k < 0 or kp < 0 or k > n or kp > n:
        return NEG_INF  # empty block
    if t < 1 or abs(p) > t:
        return NEG_INF  # zero block
    if p == 0 and binom_ext(n, k) == 1:
        return NEG_INF  # 1x1 diagonal block has a zero entry
    if n == 1:
        return 1
    terms = []
    r1 = _radius_rec(t, n - 1, k - 1, p)
    if r1 != NEG_INF:
        terms.append(r1 + binom_ext(n - 1, k))
    r2 = _radius_rec(t - 1, n - 1, k - 1, p + 1)
    if r2 != NEG_INF:
        terms.append(r2 + binom_ext(n - 1, k) + binom_ext(n - 1, kp - 1))
    r3 = _radius_rec(t - 1, n - 1, k, p - 1)
    if r3 != NEG_INF:
        terms.append(r3)
    r4 = _radius_rec(t, n - 1, k, p)
    if r4 != NEG_INF:
        terms.append(r4 + binom_ext(n - 1, kp - 1))
    return max(terms) if terms else NEG_INF


def radius_recursive(t: int, n: int, k: int, p: int):
    """Anchor radius via the 2x2 sub-block recursion with shift offsets.

    Memoized over (t, n, k, p); empty and zero blocks resolve to
    NEG_INF directly from the definition, so the outer max stays total.
    """
    if n < 1 or k + p > n:
        raise ParameterError(f"invalid recursion parameters t={t} n={n} k={k} p={p}")
    return _radius_rec(t, n, k, p)


def diagonal_distance(t: int, n: int, k: int, p: int):
    """Max Manhattan distance from the (k, k+p) block's entries to the main diagonal.

    For p = 0 this is the block bandwidth; for p >= 1 it adds the
    intervening slice sizes to the block radius.
    """
    r = _radius_rec(t, n, k, p)
    if r == NEG_INF:
        return NEG_INF
    if p == 0:
        return r - binom_ext(n, k)
    return sum(binom_ext(n, k + q) for q in range(1, p)) + r


def bw_closed(t: int, n: int) -> int:
    """Exact bandwidth of the ordered distance-t matrix, closed form."""
    if t < 1 or n < 1:
        raise ParameterError(f"bw_closed needs t >= 1 and n >= 1, got t={t} n={n}")
    if t >= n:
        return (1 << n) - 1
    lo = (n - t) // 2
    first = sum(binom_ext(n, k) for k in range(lo, lo + t))
    second = sum(
        binom_ext(t + 2 * a, t + a - 1) - binom_ext(t + 2 * a, a - 1)
        for a in range((n - t - 1) // 2 + 1)
    )
    return first + second


def bw_recursion(t: int, n: int) -> int:
    """Exact bandwidth as the max diagonal distance over all slice blocks."""
    if t < 1 or n < 1:
        raise ParameterError(f"bw_recursion needs t >= 1 and n >= 1, got t={t} n={n}")
    best = NEG_INF
    for k in range(n):
        for p in range(0, min(t, n - k) + 1):
            v = diagonal_distance(t, n, k, p)
            if v != NEG_INF and v > best:
                best = v
    return int(best)


def johnson_slice_bandwidth(n: int, k: int) -> int:
    """Bandwidth of the weight-k diagonal block at distance threshold 2.

    This is the ordered-adjacency bandwidth of the k-subset
    intersection graph, an upper bound for its treewidth.
    """
    if not (n > k >= 1):
        raise ParameterError(f"johnson_slice_bandwidth needs n > k >= 1, got n={n} k={k}")
    return radius_closed(2, n, k, 1) - binom_ext(n, k)


# ----------------------------------------------------------------------
# isoperimetric lower bound
# ----------------------------------------------------------------------


def _shell_weight(n: int, x: float, i: int) -> float:
    return binom_ext(n, i) * x ** (n - i) * (1.0 - x) ** i


def harper_lower_bound(t: int, q: int, n: int, m: int) -> float:
    """Continuous lower bound on the minimum outer boundary of m-subsets.

    For each shell index r = 0..n-1, solves
    ``q^n * sum_{i<=r} C(n,i) x^(n-i) (1-x)^i = m`` for x in (0, 1) by
    bisection (the left side is increasing in x), evaluates the next t
    shells at that x, and returns the minimum over all r, rounded down
    slightly so the result never over-claims. Scans every r < n rather
    than trusting any asymptotic window. For m = q^n only r = n fits;
    the whole space has no outer boundary, so the bound is 0.
    """
    if q < 2 or n < 1 or t < 1:
        raise ParameterError(f"harper_lower_bound needs q >= 2, n >= 1, t >= 1, got q={q} n={n} t={t}")
    total = q**n
    if not (1 <= m <= total):
        raise ParameterError(f"m must lie in 1..q^n, got m={m}")
    if m == total:
        return 0.0
    target = m / total
    best = math.inf
    for r in range(n):
        lo, hi = 0.0, 1.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if sum(_shell_weight(n, mid, i) for i in range(r + 1)) < target:
                lo = mid
            else:
                hi = mid
        for x in (lo, hi):
            best = min(best, total * sum(_shell_weight(n, x, r + i) for i in range(1, t + 1)))
    return max(0.0, best - 1e-9 * max(1.0, abs(best)))
