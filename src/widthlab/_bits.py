"""Popcount helpers for numpy arrays of bitmask words."""

from __future__ import annotations

import numpy as np

# 16-bit lookup table; uint32 popcount is two lookups.
_POP16 = (
    np.unpackbits(np.arange(1 << 16, dtype=">u2").view(np.uint8))
    .reshape(-1, 16)
    .sum(axis=1)
    .astype(np.uint8)
)


def popcount_u32(a: np.ndarray) -> np.ndarray:
    """Elementwise popcount of a uint32 array."""
    a = a.astype(np.uint32, copy=False)
    return _POP16[a & np.uint32(0xFFFF)].astype(np.int32) + _POP16[a >> np.uint32(16)]


def xor_popcount_u8(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Matrix of popcount(rows[i] ^ cols[j]) of uint32 words, as uint8."""
    x = rows.astype(np.uint32, copy=False)[:, None] ^ cols.astype(np.uint32, copy=False)[None, :]
    return _POP16[x & np.uint32(0xFFFF)] + _POP16[x >> np.uint32(16)]
