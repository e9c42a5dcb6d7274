"""MQP — Modifying the Query Point (Algorithm 1).

Given a why-not question, MQP finds the refined product ``q'`` closest
to ``q`` (Eq. 1) whose reverse top-k result contains every why-not
vector:

1. For each why-not vector ``w_i``, retrieve its top-k-th point
   ``p_i``.  The paper uses progressive branch-and-bound search (BRS)
   on the R-tree; by default one gemv scan per vector finds the same
   point with the same score bits and needs no index.
2. Solve the quadratic program

       min ||q' - q||²
       s.t. f(w_i, q') <= f(w_i, p_i)   for every i      (safe region)
            0 <= q' <= q                                  (shrink only)

   with the interior-point solver of :mod:`repro.qp`.

The QP replaces the explicit (and dimensionally cursed) half-space
intersection; Lemma 2 guarantees feasibility of any point in the safe
region, and the region always contains the origin, so the program is
feasible by construction.
"""

from __future__ import annotations

import numpy as np

from repro.core.penalty import penalty_query_point
from repro.core.safe_region import kth_points_for
from repro.core.types import MQPResult, WhyNotQuery
from repro.qp.problems import closest_point_in_halfspaces
from repro.qp.solver import QPStatus


def modify_query_point(query: WhyNotQuery, *,
                       use_rtree: bool = False,
                       kth: tuple[np.ndarray, np.ndarray] | None = None,
                       ) -> MQPResult:
    """Run Algorithm 1 and return the refined query point.

    Parameters
    ----------
    query:
        The validated why-not question.
    use_rtree:
        When True, the k-th points are found by BRS on the query's
        R-tree (built on first use) instead of the default scan —
        the paper's method, kept for the figures and the ablation;
        identical results.
    kth:
        Optional precomputed ``(ids, scores)`` of the per-vector k-th
        ranked points (shape ``(m,)`` each), e.g. from a sharded
        scatter-gather merge; skips the retrieval step entirely.

    Raises
    ------
    RuntimeError
        If the interior-point solver fails to converge (should not
        happen: the program is always feasible).
    """
    if kth is not None:
        kth_ids = np.asarray(kth[0], dtype=np.int64)
        kth_scores = np.asarray(kth[1], dtype=np.float64)
    else:
        source = query.rtree if use_rtree else query.points
        kth_ids, kth_scores = kth_points_for(source, query.why_not,
                                             query.k)

    result = closest_point_in_halfspaces(
        query.q,
        query.why_not,
        kth_scores,
        lower=np.zeros(query.dim),
        upper=query.q,
    )
    if result.status is not QPStatus.OPTIMAL:
        raise RuntimeError(
            f"MQP quadratic program did not converge: {result.status}")

    q_refined = _polish(result.x, query, kth_scores)
    return MQPResult(
        q_refined=q_refined,
        penalty=penalty_query_point(query.q, q_refined),
        kth_points=kth_ids,
        kth_scores=kth_scores,
        qp_iterations=result.iterations,
        kkt_residual=result.kkt_residual,
    )


class MQPStepper:
    """Anytime adapter for the exact Algorithm 1.

    MQP solves a quadratic program — there is no sample knob to
    spend a budget on — so the stepper computes the full answer in
    its first ``refine`` round and reports ``converged`` from then
    on.  It exists so every registered algorithm speaks the same
    ``start``/``refine`` contract and a mixed budgeted batch needs no
    per-algorithm special-casing.
    """

    sample_target = 1
    min_chunk = 1
    round_chunk = 1

    def __init__(self, query: WhyNotQuery, *, use_rtree: bool = False,
                 kth: tuple[np.ndarray, np.ndarray] | None = None):
        self._query = query
        self._use_rtree = use_rtree
        self._kth = kth
        self._result: MQPResult | None = None
        self.samples_examined = 0
        self.rounds = 0

    @property
    def converged(self) -> bool:
        return self._result is not None

    def refine(self, chunk: int = 0) -> MQPResult:
        self.rounds += 1
        if self._result is None:
            self._result = modify_query_point(
                self._query, use_rtree=self._use_rtree,
                kth=self._kth)
            self.samples_examined = 1
        return self._result

    def result(self) -> MQPResult:
        return self.refine(0) if self._result is None else self._result


def _polish(x: np.ndarray, query: WhyNotQuery,
            kth_scores: np.ndarray) -> np.ndarray:
    """Clamp interior-point round-off so the certificate is exact.

    The IPM returns points a hair inside (or outside) the boundary;
    we project onto the box and, if any score constraint is violated by
    float noise, scale toward the origin (which satisfies all
    constraints strictly whenever the k-th scores are positive).
    """
    q_refined = np.clip(x, 0.0, query.q)
    slack = query.why_not @ q_refined - kth_scores
    worst = float(np.max(slack, initial=0.0))
    if worst <= 0.0:
        return q_refined
    # Scale down until feasible: scores scale linearly with q_refined.
    scores = query.why_not @ q_refined
    with np.errstate(divide="ignore"):
        ratios = np.where(scores > 0, kth_scores / scores, 1.0)
    scale = float(np.clip(np.min(ratios), 0.0, 1.0))
    return q_refined * scale
