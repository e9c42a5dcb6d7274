"""Core value types of the WQRTQ framework.

A :class:`WhyNotQuery` bundles everything the three refinement
algorithms consume — the dataset (and, on demand, its R-tree), the
query point, ``k``, and the why-not weighting vector set ``Wm`` —
after validating the paper's preconditions (every ``w in Wm`` must
currently exclude ``q`` from its top-k).  The three result types
mirror the outputs of Algorithms 1–3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.engine.kernels import ranks_batch
from repro.geometry.vectors import is_valid_weight
from repro.index.rtree import RTree


@dataclass
class WhyNotQuery:
    """A validated why-not question on a reverse top-k query.

    Parameters
    ----------
    points:
        The product dataset ``P`` as an ``(n, d)`` array.
    q:
        The query point (the manufacturer's product), length ``d``.
    k:
        The reverse top-k parameter of the original query.
    why_not:
        The why-not weighting vector set ``Wm``, shape ``(m, d)``; each
        row must lie on the simplex.
    tree:
        Optional pre-built R-tree over ``points`` (built lazily when
        omitted).
    require_missing:
        When True (default) reject vectors that already contain ``q``
        in their reverse top-k result — the paper's precondition
        ``for all w in Wm: q not in TOPk(w)``.
    context:
        Optional :class:`~repro.engine.context.DatasetContext` the
        question was built from (:meth:`DatasetContext.question`).
        When ``tree`` is omitted, :attr:`rtree` resolves to the
        context's shared tree on first use instead of building a
        private one.
    """

    points: np.ndarray
    q: np.ndarray
    k: int
    why_not: np.ndarray
    tree: RTree | None = None
    require_missing: bool = True
    context: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.points = np.atleast_2d(np.asarray(self.points,
                                               dtype=np.float64))
        self.q = np.asarray(self.q, dtype=np.float64).reshape(-1)
        self.why_not = np.atleast_2d(np.asarray(self.why_not,
                                                dtype=np.float64))
        n, d = self.points.shape
        if self.q.shape[0] != d:
            raise ValueError("q dimensionality mismatch with dataset")
        if self.why_not.shape[1] != d:
            raise ValueError("Wm dimensionality mismatch with dataset")
        if not (1 <= self.k <= n):
            raise ValueError(f"k={self.k} out of range for |P|={n}")
        for row in self.why_not:
            if not is_valid_weight(row, atol=1e-6):
                raise ValueError(f"why-not vector {row} is not on the "
                                 "simplex")
        if np.any(self.q < 0) or np.any(self.points < 0):
            raise ValueError("scores assume non-negative coordinates")
        if self.require_missing:
            ranks = self.ranks()
            inside = np.nonzero(ranks <= self.k)[0]
            if len(inside):
                i = int(inside[0])
                raise ValueError(
                    f"why-not vector #{i} already has q in its "
                    f"top-{self.k}; not a valid why-not question")

    # ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    @property
    def n_why_not(self) -> int:
        return int(self.why_not.shape[0])

    @cached_property
    def rtree(self) -> RTree:
        """The R-tree over ``P`` (built on first use)."""
        if self.tree is None:
            self.tree = (RTree(self.points) if self.context is None
                         else self.context.tree)
        return self.tree

    def ranks(self) -> np.ndarray:
        """Actual rank of ``q`` under every why-not vector (Lemma 4).

        One batched kernel call
        (:func:`repro.engine.kernels.ranks_batch`) instead of a
        progressive search per vector.
        """
        return ranks_batch(self.why_not, self.points, self.q)


@dataclass(frozen=True)
class MQPResult:
    """Output of Algorithm 1: the modified query point."""

    q_refined: np.ndarray
    penalty: float
    kth_points: np.ndarray     # ids of the top-k-th point per why-not w
    kth_scores: np.ndarray
    qp_iterations: int
    kkt_residual: float


@dataclass(frozen=True)
class MWKResult:
    """Output of Algorithm 2: modified why-not vectors and k."""

    weights_refined: np.ndarray
    k_refined: int
    penalty: float
    delta_k: int
    delta_w: float
    k_max: int
    samples_examined: int
    candidates_evaluated: int


@dataclass(frozen=True)
class MQWKResult:
    """Output of Algorithm 3: joint modification of q, Wm and k."""

    q_refined: np.ndarray
    weights_refined: np.ndarray
    k_refined: int
    penalty: float
    q_penalty_share: float
    wk_penalty_share: float
    q_samples: int = 0
    mqp: MQPResult | None = field(default=None, compare=False)
    mwk: MWKResult | None = field(default=None, compare=False)
