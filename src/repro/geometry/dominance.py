"""Pareto dominance tests (smaller-is-better convention).

A point ``a`` *dominates* ``b`` when ``a[i] <= b[i]`` for every dimension
and ``a[j] < b[j]`` for at least one.  Two points are *incomparable* when
neither dominates the other.  Dominance drives the ``FindIncom`` routine
of the paper (Algorithm 2, lines 20-29): points dominating the query
point ``q`` outrank it under *every* weighting vector, points dominated
by ``q`` never outrank it, and only the incomparable points can switch
sides depending on the weighting vector.
"""

from __future__ import annotations

import numpy as np


def dominates(a, b, *, strict: bool = True) -> bool:
    """Return True iff ``a`` dominates ``b``.

    With ``strict=True`` (the default and the paper's definition) equality
    in every dimension does *not* count as dominance.

    >>> dominates([1, 2], [2, 3])
    True
    >>> dominates([1, 2], [1, 2])
    False
    >>> dominates([1, 2], [1, 2], strict=False)
    True
    """
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape:
        raise ValueError("dominance requires equal-dimensional points")
    if not np.all(av <= bv):
        return False
    if strict:
        return bool(np.any(av < bv))
    return True


def incomparable(a, b) -> bool:
    """Return True iff neither ``a`` nor ``b`` dominates the other.

    >>> incomparable([1, 9], [4, 4])
    True
    >>> incomparable([1, 2], [4, 4])
    False
    """
    return not dominates(a, b) and not dominates(b, a)


def _side_masks(points, q) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``points``: is some coordinate below ``q``'s, and is
    some coordinate above.

    Every dominance relation to ``q`` is a combination of the two
    (``a`` dominates ``q`` iff below-somewhere and never above).  The
    masks are built one coordinate column at a time into preallocated
    booleans, several times faster than ``np.all``/``np.any`` over an
    ``(n, d)`` comparison at low ``d``.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    qv = np.asarray(q, dtype=np.float64)
    n = pts.shape[0]
    below = np.zeros(n, dtype=bool)
    above = np.zeros(n, dtype=bool)
    scratch = np.empty(n, dtype=bool)
    for j in range(pts.shape[1]):
        column = pts[:, j]
        below |= np.less(column, qv[j], out=scratch)
        above |= np.greater(column, qv[j], out=scratch)
    return below, above


def dominates_mask(points, q) -> np.ndarray:
    """Vectorized: which rows of ``points`` dominate the point ``q``.

    Returns a boolean mask of length ``len(points)``.
    """
    below, above = _side_masks(points, q)
    return below & ~above


def dominated_by_mask(points, q) -> np.ndarray:
    """Vectorized: which rows of ``points`` are dominated *by* ``q``."""
    below, above = _side_masks(points, q)
    return above & ~below


def dominance_partition(points, q):
    """Partition ``points`` into (D, I, S) index arrays relative to ``q``.

    * ``D`` — indices of points that dominate ``q`` (always outrank it),
    * ``I`` — indices incomparable with ``q`` (outrank it under some
      weighting vectors only),
    * ``S`` — indices dominated by ``q`` or coinciding with it (never
      strictly outrank it).

    This is the vectorized core of the paper's ``FindIncom``.  Each
    index array is ascending.

    Returns
    -------
    tuple of numpy.ndarray
        ``(dominating_idx, incomparable_idx, dominated_idx)``.
    """
    below, above = _side_masks(points, q)
    return (np.flatnonzero(below & ~above),
            np.flatnonzero(below & above),
            np.flatnonzero(~below))


def pareto_front_mask(points) -> np.ndarray:
    """Boolean mask of the Pareto-optimal (skyline) rows of ``points``.

    Used by tests and by the anti-correlated data generator to check the
    generated skyline is large.  O(n^2 / 64) bit-ops via NumPy; fine for
    the dataset sizes exercised in tests.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = len(pts)
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        if not mask[i]:
            continue
        dominated = dominated_by_mask(pts, pts[i])
        dominated[i] = False
        mask &= ~dominated
    return mask
