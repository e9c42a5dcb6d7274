"""Safe regions (Definition 7, Lemmas 1-3).

The *safe region* ``SR(q)`` of a query point is the set of locations
``q'`` such that moving ``q`` there puts it in the top-k of **every**
why-not weighting vector.  By Lemma 3 it is the intersection of the
half-spaces ``HS(w_i, p_i)`` where ``p_i`` is the k-th ranked point
under the why-not vector ``w_i``, additionally boxed to ``[0, q]``
(decreasing coordinates never hurts under a monotone scoring function).

This module materializes the region in two forms:

* an algebraic :class:`~repro.geometry.hyperplane.HalfspaceSystem`
  consumed by the QP step of MQP (any dimension), and
* an exact :class:`~repro.geometry.convex2d.Polygon2D` in 2-D, used by
  tests as an independent oracle and by examples for visualisation.
"""

from __future__ import annotations

import numpy as np

from repro.engine.kernels import kth_scores_batch
from repro.geometry.convex2d import Polygon2D, halfplane_intersection
from repro.geometry.hyperplane import HalfspaceSystem
from repro.index.rtree import RTree
from repro.topk.brs import BRSEngine


def kth_points_for(source, why_not, k: int) -> tuple[np.ndarray,
                                                     np.ndarray]:
    """The top-k-th point (id and score) under each why-not vector.

    This is phase 1 of Algorithm 1 (lines 1-12): a progressive ranked
    retrieval per why-not vector (BRS on an R-tree source), or one
    gemv scan per vector (:func:`repro.engine.kernels.kth_scores_batch`)
    on a raw array.  Both return the same ids and the same score bits.
    """
    wts = np.atleast_2d(np.asarray(why_not, dtype=np.float64))
    if isinstance(source, RTree):
        ids = np.empty(len(wts), dtype=np.int64)
        scores = np.empty(len(wts), dtype=np.float64)
        engine = BRSEngine(source)
        for i, w in enumerate(wts):
            pid, sc = engine.kth_point(w, k)
            ids[i], scores[i] = pid, sc
        return ids, scores
    return kth_scores_batch(source, wts, k)


def safe_region_system(source, q, why_not, k: int) -> HalfspaceSystem:
    """The safe region as ``A x <= b`` with box ``[0, q]`` (Lemma 3)."""
    qv = np.asarray(q, dtype=np.float64)
    wts = np.atleast_2d(np.asarray(why_not, dtype=np.float64))
    _, scores = kth_points_for(source, wts, k)
    return HalfspaceSystem.from_constraints(
        wts, scores, lower=np.zeros_like(qv), upper=qv)


def safe_region_polygon(source, q, why_not, k: int) -> Polygon2D:
    """Exact 2-D safe region polygon (Figure 5(b) of the paper)."""
    qv = np.asarray(q, dtype=np.float64)
    if qv.shape[0] != 2:
        raise ValueError("exact polygons require 2-D data")
    wts = np.atleast_2d(np.asarray(why_not, dtype=np.float64))
    _, scores = kth_points_for(source, wts, k)
    return halfplane_intersection(wts, scores,
                                  lower=(0.0, 0.0),
                                  upper=(float(qv[0]), float(qv[1])))


def is_safe(source, q_candidate, why_not, k: int) -> bool:
    """Direct check of Definition 7: does ``q_candidate`` make every
    why-not vector's top-k?  (Rank test, no geometry.)"""
    from repro.topk.progressive import rank_of_point

    wts = np.atleast_2d(np.asarray(why_not, dtype=np.float64))
    return all(rank_of_point(source, w, q_candidate) <= k for w in wts)
