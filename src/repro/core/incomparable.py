"""``FindIncom``: dominating / incomparable point discovery.

Algorithm 2 (lines 20-29) of the paper finds, via a branch-and-bound
R-tree traversal, the set ``D`` of points dominating the query point
and the set ``I`` of points incomparable with it.  Subtrees whose MBR is
entirely dominated by ``q`` are pruned: no point inside can ever
outrank ``q``, under any weighting vector.

For MQWK the traversal result must be *reused* across many sample query
points ``q' ∈ [q_min, q]``.  Because every such ``q'`` is component-wise
``<= q``, any point dominated by ``q`` is also dominated by ``q'``
(``q' <= q <= x``), so one traversal w.r.t. ``q`` yields a candidate
superset valid for the whole box; per-sample partitions are then pure
vectorized NumPy over the cached candidate array
(:class:`IncomparableCache`).

Both entry points also accept the raw point array instead of a tree:
the candidates are then found by one column-wise dominance-mask scan
(:func:`~repro.geometry.dominance.dominated_by_mask`) and come back
id-sorted.  The serving path (:meth:`repro.engine.context
.DatasetContext.box_cache`) uses the scan — in memory at low ``d`` a
product near the top is incomparable with most of the catalogue, so
the traversal prunes little and pays Python per node — while the
traversal stays for the paper's node-access figures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.dominance import dominance_partition, dominated_by_mask
from repro.index.rtree import RTree


@dataclass(frozen=True)
class IncomparableResult:
    """Output of one ``FindIncom`` run for a fixed query point."""

    dominating_ids: np.ndarray
    incomparable_ids: np.ndarray

    @property
    def n_dominating(self) -> int:
        return int(len(self.dominating_ids))

    @property
    def n_incomparable(self) -> int:
        return int(len(self.incomparable_ids))

    @property
    def k_floor(self) -> int:
        """Best achievable rank of q: ``|D| + 1`` (Section 4.3)."""
        return self.n_dominating + 1

    @property
    def k_ceiling(self) -> int:
        """Worst relevant rank of q: ``|D| + |I| + 1``."""
        return self.n_dominating + self.n_incomparable + 1


def find_incomparable(source, q) -> IncomparableResult:
    """Run ``FindIncom`` for a single query point.

    Parameters
    ----------
    source:
        :class:`RTree` (branch-and-bound, with dominated-subtree
        pruning) or a raw ``(n, d)`` array (vectorized partition).
    q:
        The query point.
    """
    if isinstance(source, RTree):
        candidate_ids = _collect_not_dominated(source, q)
        pts = source.points[candidate_ids]
    else:
        pts = np.atleast_2d(np.asarray(source, dtype=np.float64))
        candidate_ids = np.arange(len(pts))
    dom_local, inc_local, _ = dominance_partition(pts, q)
    return IncomparableResult(
        dominating_ids=candidate_ids[dom_local],
        incomparable_ids=candidate_ids[inc_local],
    )


def _collect_not_dominated(tree: RTree, q) -> np.ndarray:
    """Ids of all points *not* dominated by ``q`` (tree traversal).

    Implements lines 20-29 of Algorithm 2: descend only into subtrees
    whose MBR is not fully dominated by ``q``.
    """
    qv = np.asarray(q, dtype=np.float64)
    out: list[np.ndarray] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        tree.record_access(node)
        if node.is_leaf:
            pts = node.child_lowers
            dominated = (np.all(pts >= qv, axis=1)
                         & np.any(pts > qv, axis=1))
            keep = np.asarray(node.point_ids)[~dominated]
            if len(keep):
                out.append(keep)
        else:
            for child in node.children:
                if not child.mbr.fully_dominated_by(qv):
                    stack.append(child)
    if not out:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(out).astype(np.int64)


class IncomparableCache:
    """Reusable ``FindIncom`` for all query points in the box
    ``[lower, q]``.

    One R-tree traversal (or, given the point array, one mask scan)
    w.r.t. the box's *upper* corner ``q`` collects every point not
    dominated by ``q`` — a superset of the points
    relevant to any ``q'`` with ``q' <= q`` (see module docstring).
    :meth:`partition` then classifies the cached candidates against a
    specific ``q'`` with two vectorized comparisons.

    This is the paper's "reuse technique" (Section 4.4): MQWK calls
    MWK once per sample query point without re-traversing the R-tree.
    """

    def __init__(self, source, q):
        self.q = np.asarray(q, dtype=np.float64)
        if isinstance(source, RTree):
            self.candidate_ids = _collect_not_dominated(source, self.q)
            self.candidates = source.points[self.candidate_ids]
            self.tree_traversals = 1
        else:
            pts = np.atleast_2d(np.asarray(source, dtype=np.float64))
            # Pre-filter: points dominated by q never matter in the box.
            self.candidate_ids = np.flatnonzero(
                ~dominated_by_mask(pts, self.q))
            self.candidates = pts[self.candidate_ids]
            self.tree_traversals = 0

    @classmethod
    def from_candidates(cls, points, q,
                        candidate_ids) -> "IncomparableCache":
        """Build a cache from an already-known candidate id set.

        The scatter-gather merge path: shard workers computed the
        not-dominated-by-``q`` rows, so the front door's finisher can
        seed the cache without any traversal.  Only the candidate
        *set* matters downstream — :meth:`partition` output is
        consumed order-canonicalized — so ``candidate_ids`` may be in
        any order (the merge ships them sorted ascending).
        """
        cache = object.__new__(cls)
        cache.q = np.asarray(q, dtype=np.float64)
        cache.candidate_ids = np.asarray(candidate_ids,
                                         dtype=np.int64)
        cache.candidates = np.asarray(
            points, dtype=np.float64)[cache.candidate_ids]
        cache.tree_traversals = 0
        return cache

    def remapped(self, row_map: np.ndarray) -> "IncomparableCache":
        """This cache with its candidate ids renumbered.

        A catalogue mutation that *removes* rows compacts the row
        space, so a cache that survives invalidation (none of its
        candidates changed) still needs its ids translated through
        ``row_map`` (old row → new row).  The candidate coordinates
        are shared, not copied — survival implies they are unchanged
        — and no traversal is performed.
        """
        clone = object.__new__(IncomparableCache)
        clone.q = self.q
        clone.candidate_ids = row_map[self.candidate_ids]
        clone.candidates = self.candidates
        clone.tree_traversals = 0
        return clone

    def partition(self, q_prime) -> IncomparableResult:
        """``FindIncom`` result for ``q' <= q`` from the cache."""
        qp = np.asarray(q_prime, dtype=np.float64)
        if np.any(qp > self.q + 1e-12):
            raise ValueError("reuse cache only valid for q' <= q")
        dom_local, inc_local, _ = dominance_partition(self.candidates, qp)
        return IncomparableResult(
            dominating_ids=self.candidate_ids[dom_local],
            incomparable_ids=self.candidate_ids[inc_local],
        )
