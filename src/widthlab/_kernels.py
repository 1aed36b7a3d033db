"""Hot kernels: subset dynamic programs and boundary sweeps.

Every kernel has one implementation, in numpy; nothing is jitted. In the
subset DPs a vertex subset is an int64 bitmask (no oracle here admits
more than 25 vertices), so one word holds a whole subset and
floods/boundaries are a handful of bitwise operations on arrays of
subsets.

The subset DPs visit the 2^n subsets in descending popcount layers, so
a subset is processed after all of its supersets. A layer is enumerated
in blocks of (high-half subsets of popcount a) x (low-half subsets of
popcount k - a), at most 2^15 subsets per block, and the neighbour
union of a subset is two lookups in half-width tables, so the separation
DP finds each subset's inner boundary inside its own sweep. The only
array with 2^n entries is therefore the one int8 table a DP returns.

Table semantics shared by the subset DPs: for an eliminated/placed set
``S`` (bitmask), ``table[S]`` is the best achievable cost over all ways
of completing ``S`` to the full vertex set, with ``-1`` as the lattice
bottom for "nothing remains". Optimal orders are reconstructed greedily
by the callers in :mod:`widthlab.oracles`.

The elimination DP floods a component only where it can still win:
max(|N(v) \\ S|, table[S + v]) bounds the candidate of (S, v) from
below and costs no flood, so rows whose bound already reaches the best
candidate are skipped. A skipped candidate could not have lowered the
minimum, so every table entry is the one the full sweep computes.
"""

from __future__ import annotations

import numpy as np


_BLOCK = 1 << 15  # most subsets held in one block


def _by_popcount(bits: int) -> list:
    """The subsets of range(bits) as int64 arrays, indexed by popcount."""
    subsets = np.arange(1 << bits, dtype=np.int64)
    pop = np.bitwise_count(subsets)
    return [subsets[pop == k] for k in range(bits + 1)]


def _layer_blocks(n: int):
    """Yield ``(k, subsets)`` covering every subset of range(n) once, k = popcount descending."""
    low = n // 2
    lo, hi = _by_popcount(low), _by_popcount(n - low)
    for k in range(n, -1, -1):
        pieces, size = [], 0  # small pieces of one layer share a block: fewer numpy calls
        for a in range(max(0, k - low), min(k, n - low) + 1):
            los = lo[k - a]
            his = hi[a] << low
            rows = max(1, _BLOCK // len(los))
            for i in range(0, len(his), rows):
                piece = (his[i : i + rows, None] | los[None, :]).ravel()
                if size + len(piece) > _BLOCK:
                    block, pieces, size = np.concatenate(pieces), [], 0
                    yield k, block
                pieces.append(piece)
                size += len(piece)
        yield k, np.concatenate(pieces)


def _neighbour_union(nbrs, n: int):
    """nb(X), the union of the neighbourhoods of the vertices in each subset X."""
    low = n // 2
    tables = []
    for part in (nbrs[:low], nbrs[low:]):
        tab = np.zeros(1, dtype=np.int64)
        for m in part:
            tab = np.concatenate([tab, tab | int(m)])
        tables.append(tab)
    lo, hi = tables
    mask = (1 << low) - 1
    return lambda x: lo[x & mask] | hi[x >> low]


def elim_table(nbrs: np.ndarray, n: int) -> np.ndarray:
    """Suffix table of the elimination-width DP (treewidth).

    Eliminating v after S costs q(S, v) = |N(C) \\ C|, where C is the
    component of v in G[S + v]: every neighbour of C inside S belongs
    to C, so N(C) \\ C is exactly the set v is joined to by fill edges.

    Every neighbour of v outside S lies in N(C) \\ C, so q(S, v) >=
    |N(v) \\ S|, and max(|N(v) \\ S|, g[S + v]) is a lower bound on the
    candidate max(q(S, v), g[S + v]). That bound is computed for a whole
    block at once, and the flood runs only on the rows where it is below
    the row's best so far; elsewhere the candidate cannot change the
    minimum, so the table is exact.
    """
    nb = _neighbour_union(nbrs, n)
    g = np.empty(1 << n, dtype=np.int8)
    g[-1] = -1
    for k, s in _layer_blocks(n):
        if k == n:
            continue
        best = np.full(len(s), 127, dtype=np.int8)
        for v in range(n):
            bit = 1 << v
            # the flood-free lower bound; rows with v in S read an unset entry and are dropped
            lb = np.maximum(np.bitwise_count(int(nbrs[v]) & ~s).astype(np.int8), g[s | bit])
            idx = np.flatnonzero(((s & bit) == 0) & (lb < best))
            sv = s[idx]
            comp = bit | (int(nbrs[v]) & sv)
            while True:  # flood C <- C | (nb(C) & S) to the fixed point
                reach = nb(comp)
                grown = comp | (reach & sv)
                if np.array_equal(grown, comp):
                    break
                comp = grown
            q = np.bitwise_count(reach & ~comp).astype(np.int8)  # compared with the int8 table
            best[idx] = np.minimum(best[idx], np.maximum(q, lb[idx]))
        g[s] = best
    return g


def sep_table(nbrs: np.ndarray, n: int) -> np.ndarray:
    """Finished table of the vertex-separation DP (pathwidth).

    done[S] = max(|S & N(V \\ S)|, h[S]): the inner boundary of S and
    the suffix cost h[S], the least width over all ways of placing the
    rest after S.
    """
    nb = _neighbour_union(nbrs, n)
    full = (1 << n) - 1
    # 127 until S's layer is done, so that v already in S (S | bit == S)
    # never wins the minimum
    done = np.full(1 << n, 127, dtype=np.int8)
    done[-1] = 0  # the full set: no boundary, nothing remains
    for k, s in _layer_blocks(n):
        if k == n:
            continue
        best = np.full(len(s), 127, dtype=np.int8)
        for v in range(n):
            np.minimum(best, done[s | (1 << v)], out=best)
        done[s] = np.maximum(np.bitwise_count(s & nb(full ^ s)), best)
    return done


def bv_table(nbrs: np.ndarray, n: int) -> np.ndarray:
    """Minimum outer boundary per subset size, exhaustively over all subsets."""
    nb = _neighbour_union(nbrs, n)
    best = np.full(n + 1, np.iinfo(np.int64).max, dtype=np.int64)
    for k, s in _layer_blocks(n):
        best[k] = min(best[k], int(np.bitwise_count(nb(s) & ~s).min()))
    return best
