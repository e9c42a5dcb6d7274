"""Branch-and-bound Ranked Search (BRS) over the R-tree.

BRS [Tao et al., Inf. Syst. 2007] answers a top-k query by best-first
traversal of the R-tree: a min-heap keyed by the lower bound of each
entry's score (lower MBR corner dotted with the weighting vector; exact
score for points).  Every de-heaped *point* is the next point in rank
order, which makes the traversal progressive — exactly the property
Algorithm 1 of the paper exploits to fetch "the top k-th point" of each
why-not weighting vector, and that the explanation phase uses to stream
all points ranked above ``q``.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator

import numpy as np

from repro.engine.kernels import row_scores
from repro.index.rtree import Node, RTree
from repro.topk.scan import RANK_EPS


class BRSEngine:
    """Best-first ranked retrieval bound to one :class:`RTree`.

    The engine is stateless between calls; each query builds a fresh
    heap.  Heap entries are ``(key, tie, kind, payload)`` where ``kind``
    0 = point, 1 = node, so that at equal keys points pop before nodes
    (a point with score equal to a node's lower bound can never be
    outranked by that subtree) and ties stay deterministic.
    """

    def __init__(self, tree: RTree):
        self.tree = tree

    # ------------------------------------------------------------------

    def iter_ranked(self, w) -> Iterator[tuple[int, float]]:
        """Yield ``(point_id, score)`` in ascending rank order.

        The traversal is lazy: consuming only ``k`` results touches only
        the nodes whose MBR lower-bound beats the k-th score — BRS's
        I/O-optimality argument.
        """
        wv = np.asarray(w, dtype=np.float64)
        tree = self.tree
        counter = 0
        root_key = tree.root.mbr.min_score(wv)
        heap: list[tuple[float, int, int, object]] = [
            (root_key, counter, 1, tree.root)]
        while heap:
            key, _, kind, payload = heapq.heappop(heap)
            if kind == 0:
                yield int(payload), float(key)
                continue
            node: Node = payload  # type: ignore[assignment]
            tree.record_access(node)
            if node.is_leaf:
                scores = row_scores(node.child_lowers, wv)
                for pid, sc in zip(node.point_ids, scores):
                    counter += 1
                    heapq.heappush(heap, (float(sc), pid, 0, pid))
            else:
                keys = node.child_lowers @ wv
                for child, child_key in zip(node.children, keys):
                    counter += 1
                    heapq.heappush(
                        heap, (float(child_key), counter, 1, child))

    # ------------------------------------------------------------------

    def topk(self, w, k: int) -> np.ndarray:
        """Ids of the top-k points under ``w`` (ascending rank)."""
        if k <= 0:
            raise ValueError("k must be positive")
        out = []
        for pid, _ in self.iter_ranked(w):
            out.append(pid)
            if len(out) == k:
                break
        return np.asarray(out, dtype=np.int64)

    def kth_point(self, w, k: int) -> tuple[int, float]:
        """Id and score of the k-th ranked point under ``w``.

        This is lines 1-12 of the paper's Algorithm 1 (MQP) for a single
        why-not weighting vector.

        Ties at the k-th score resolve by ascending id — the library's
        ``(score, id)`` convention (see ``topk_ids``) — not by heap
        emission order, which interleaves push counters with point ids
        and is no deterministic function of the data.  Emissions arrive
        in non-decreasing score order, so the traversal only runs past
        the k-th emission while scores stay exactly equal to it.
        """
        run: list[int] = []        # ids of the current equal-score run
        run_score: float | None = None
        n_before_run = 0           # emissions strictly below the run
        for count, (pid, sc) in enumerate(self.iter_ranked(w), start=1):
            if run_score is None or sc != run_score:
                if count > k:
                    break          # the run holding rank k just ended
                n_before_run = count - 1
                run = [pid]
                run_score = sc
            else:
                run.append(pid)
        if run_score is None or n_before_run + len(run) < k:
            raise ValueError(f"dataset has fewer than k={k} points")
        return sorted(run)[k - 1 - n_before_run], run_score

    def rank_of(self, w, q) -> int:
        """Rank of external point ``q``: 1 + #points scoring strictly
        less.

        Stops the progressive traversal as soon as scores reach
        ``f(w, q)``, so low ranks are cheap.
        """
        target = float(np.dot(np.asarray(w, dtype=np.float64),
                              np.asarray(q, dtype=np.float64)))
        rank = 1
        for _, sc in self.iter_ranked(w):
            if sc >= target - RANK_EPS:
                break
            rank += 1
        return rank
