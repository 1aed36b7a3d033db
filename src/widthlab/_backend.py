"""Which kernel build runs, for run manifests.

Every kernel in :mod:`widthlab._kernels` has a single implementation.
No numba kernel exists, so nothing is jitted and there is no backend
to choose.
"""

HAVE_NUMBA = False


def use_numba() -> bool:
    """Always False: no numba kernel exists."""
    return False
