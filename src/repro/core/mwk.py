"""MWK — Modifying the why-not vectors and k (Algorithm 2).

The exact problem (find ``(Wm', k')`` minimizing Eq. 4 subject to
``rank(q, w') <= k'`` for every refined vector) would require solving
``|Wm| · 2^|I|`` quadratic programs in the worst case, so the paper
trades exactness for a sampling scheme:

1. ``FindIncom``: partition the dataset into points dominating ``q``
   (``D``), incomparable with it (``I``), and dominated (irrelevant).
2. Sample ``|S|`` weighting vectors from the hyperplanes spanned by
   ``q`` and the points of ``I`` (the only places optimal refinements
   can live, He & Lo [14]).
3. Compute the rank of ``q`` under every sample *from D and I alone*
   (dominating points always precede ``q``, dominated ones never do).
4. Sort samples by rank and evaluate, for every rank threshold, the
   best candidate the pool admits at that threshold, with
   ``k' = max(k, rank)``.

Candidates with rank beyond ``k'_max = max_i rank(q, w_i)`` are
discarded: the pure-``k`` refinement ``(Wm, k'_max)`` — which the scan
seeds its minimum with — always beats them (Lemma 4/5).

Deviations from the pseudo-code (documented in DESIGN.md):

* The original why-not vectors are injected into the sample pool with
  their true ranks and zero distance (``include_originals=True``).
  This lets the scan form *mixed* candidates (modify some vectors,
  keep others and raise ``k`` slightly), which the paper's scan cannot
  represent; it never increases the returned penalty.  Disable for
  strict paper fidelity.
* The paper's greedy working-candidate scan is replaced by an exact
  per-threshold assignment: at rank threshold ``r``, each why-not
  vector is matched to its *nearest* pool sample of rank ``<= r``
  (a vectorized prefix-minimum over the rank-sorted pool).  Since
  Eq. (4) is monotone in the per-vector distances, this dominates the
  greedy scan at every threshold — and it makes the best penalty a
  monotone function of the sample pool, the property the anytime
  stepper's non-increasing-penalty contract rests on.

Anytime execution
-----------------
:class:`MWKStepper` is the resumable form: ``refine(chunk)`` draws
``chunk`` more samples from a chunk-invariant
:class:`~repro.core.sampling.WeightSampleStream` and re-scans the
accumulated pool.  Because the stream is a fixed sequence and the scan
is pool-monotone, penalties never increase across rounds and the
answer after refining to ``N`` total samples is *identical* to the
one-shot :func:`modify_weights_and_k` at ``sample_size=N`` and the
same seed.  ``modify_weights_and_k`` itself is the stepper run for a
single round.
"""

from __future__ import annotations

import numpy as np

from repro.core.incomparable import IncomparableResult, find_incomparable
from repro.core.penalty import (
    DEFAULT_PENALTY,
    PenaltyConfig,
    delta_weights,
)
from repro.core.sampling import (
    WeightSampleStream,
    inject_why_not_vectors,
    ranks_under_weights,
)
from repro.core.types import MWKResult, WhyNotQuery
from repro.geometry.vectors import MAX_SIMPLEX_DISTANCE


def _scan_pool(samples: np.ndarray, ranks: np.ndarray,
               why_not: np.ndarray, k: int, k_max: int,
               config: PenaltyConfig, *, dists: np.ndarray | None = None):
    """Best candidate a sample pool admits, over all rank thresholds.

    Sorts the pool by rank (stable) and computes, for every prefix,
    the per-vector nearest sample (``np.minimum.accumulate``) and the
    Eq. (4) penalty with ``k' = max(k, rank)``.  Returns
    ``(penalty, weights, k_refined, thresholds_evaluated)`` — or
    ``None`` for an empty pool.  The per-term float assembly matches
    :func:`~repro.core.penalty.penalty_weights_k` exactly, so the
    independent audit reprices the winner to the same value.

    ``dists`` optionally supplies the precomputed ``(|pool|, m)``
    sample-to-why-not distance matrix (rows aligned with
    ``samples``); the anytime stepper caches these rows per chunk so
    re-scanning a growing pool does not recompute every norm.
    """
    if len(samples) == 0:
        return None
    if dists is None:
        dists = np.linalg.norm(
            samples[:, None, :] - why_not[None, :, :], axis=2)
    order = np.argsort(ranks, kind="stable")
    samples, ranks, dists = samples[order], ranks[order], dists[order]
    prefix = np.minimum.accumulate(dists, axis=0)
    m = len(why_not)
    dw_max = m * MAX_SIMPLEX_DISTANCE
    dk_max = max(0, int(k_max) - int(k))
    dk = np.maximum(ranks - k, 0)
    term_k = (dk / dk_max) if dk_max > 0 else np.zeros(len(ranks))
    penalties = (config.alpha * term_k
                 + config.beta * (prefix.sum(axis=1) / dw_max))
    s = int(np.argmin(penalties))
    choice = np.argmin(dists[:s + 1], axis=0)
    weights = samples[choice].copy()
    return (float(penalties[s]), weights, max(int(k), int(ranks[s])),
            len(penalties))


class MWKStepper:
    """Resumable Algorithm 2: ``refine(chunk)`` examines ``chunk``
    more weight samples and returns the current-best
    :class:`~repro.core.types.MWKResult`.

    The contract every anytime stepper honors:

    * ``refine`` never increases the returned penalty;
    * the result after refining to ``N`` total samples equals the
      one-shot answer at ``sample_size=N`` and the same seed;
    * ``converged`` turns True when further refinement provably
      cannot improve the answer (no incomparable points, ``k'_max <=
      k``, or a zero penalty).

    ``samples_examined`` counts stream samples drawn — the budget
    unit of :class:`~repro.core.protocol.Budget.sample_budget`.
    """

    #: One weight sample is cheap (a row of a vectorized kernel), so
    #: the executor's deadline probe and interleaved rounds work in
    #: sizeable chunks.
    min_chunk = 64
    round_chunk = 256

    def __init__(self, *, points: np.ndarray, inc: IncomparableResult,
                 q: np.ndarray, why_not: np.ndarray, k: int,
                 rng: np.random.Generator | None = None,
                 config: PenaltyConfig = DEFAULT_PENALTY,
                 include_originals: bool = True,
                 sample_target: int = 800):
        rng = rng if rng is not None else np.random.default_rng(0)
        # Canonical (id-sorted) incomparable order: a FindIncom
        # partition's traversal order depends on how the R-tree was
        # built or patched, and the hyperplane sampler (and the
        # capped rank count, which scores I in this order) indexes
        # into this array — sorting makes the answer a function of
        # the incomparable *set*, so inherited (copy-on-write)
        # partitions answer identically to a scratch rebuild.
        self._inc_points = points[np.sort(
            np.asarray(inc.incomparable_ids))]
        self._dom_points = points[inc.dominating_ids]
        self._q = np.asarray(q, dtype=np.float64)
        self._why_not = np.atleast_2d(np.asarray(why_not,
                                                 dtype=np.float64))
        self._k = int(k)
        self._config = config
        self._include_originals = include_originals
        self.sample_target = int(sample_target)
        self.samples_examined = 0
        self.rounds = 0

        m = len(self._why_not)
        self._orig_ranks = ranks_under_weights(
            self._why_not, self._inc_points, self._dom_points, self._q)
        self._k_max = (int(self._orig_ranks.max()) if m else self._k)

        self._pool_samples: list[np.ndarray] = []
        self._pool_ranks: list[np.ndarray] = []
        # Distance rows cached per chunk: a sample's distances to the
        # why-not vectors never change, so re-scanning the growing
        # pool must not recompute every norm each round.
        self._pool_dists: list[np.ndarray] = []
        self._orig_dists = np.linalg.norm(
            self._why_not[:, None, :] - self._why_not[None, :, :],
            axis=2)
        self._candidates = 1
        if self._k_max <= self._k:
            # Every vector already admits q (possible for sampled
            # query points inside MQWK): nothing to modify.
            self._best = (0.0, self._why_not.copy(), self._k)
            self._exhausted = True
        else:
            # Seed: the pure-k refinement (Wm, k'_max); Lemma 4
            # guarantees it is always valid.  Its Eq. (4) penalty is
            # exactly alpha (full Δk, zero ΔWm).
            self._best = (config.alpha, self._why_not.copy(),
                          self._k_max)
            self._exhausted = inc.n_incomparable == 0
        self._stream = (None if self._exhausted else
                        WeightSampleStream(self._inc_points, self._q,
                                           rng,
                                           anchors=self._why_not))

    @property
    def converged(self) -> bool:
        return self._exhausted or self._best[0] == 0.0

    def refine(self, chunk: int) -> MWKResult:
        """Examine up to ``chunk`` more samples; return current best."""
        self.rounds += 1
        chunk = int(chunk)
        if self._stream is not None and chunk > 0:
            draw = self._stream.take(chunk)
            # Prune beyond k'_max (Algorithm 2 line 13): the pure-k
            # seed always beats those candidates, so their ranks are
            # only counted far enough to exceed the cap.
            ranks = ranks_under_weights(draw, self._inc_points,
                                        self._dom_points, self._q,
                                        cap=self._k_max)
            self.samples_examined += len(draw)
            keep = ranks <= self._k_max
            if keep.any():
                kept = draw[keep]
                self._pool_samples.append(kept)
                self._pool_ranks.append(ranks[keep])
                self._pool_dists.append(np.linalg.norm(
                    kept[:, None, :] - self._why_not[None, :, :],
                    axis=2))
            self._rescan()
        return self.result()

    def _rescan(self) -> None:
        if self._pool_samples:
            samples = np.concatenate(self._pool_samples, axis=0)
            ranks = np.concatenate(self._pool_ranks)
            dists = np.concatenate(self._pool_dists, axis=0)
        else:
            m = len(self._why_not)
            samples = np.empty((0, self._q.shape[0]))
            ranks = np.empty(0, dtype=np.int64)
            dists = np.empty((0, m))
        if self._include_originals:
            samples, ranks = inject_why_not_vectors(
                samples, ranks, self._why_not, self._orig_ranks)
            dists = np.concatenate([dists, self._orig_dists], axis=0)
        scanned = _scan_pool(samples, ranks, self._why_not, self._k,
                             self._k_max, self._config, dists=dists)
        if scanned is None:
            return
        penalty, weights, k_refined, evaluated = scanned
        self._candidates = evaluated + 1
        # Adopt on <= so the carried best after the final round is
        # exactly the full-pool scan winner (one-shot equality); the
        # scan is pool-monotone, so penalties never increase.
        if penalty <= self._best[0]:
            self._best = (penalty, weights, k_refined)

    def result(self) -> MWKResult:
        """The current-best result, without further refinement."""
        penalty, weights, k_refined = self._best
        return MWKResult(
            weights_refined=weights.copy(),
            k_refined=int(k_refined),
            penalty=float(penalty),
            delta_k=max(0, int(k_refined) - self._k),
            delta_w=delta_weights(self._why_not, weights),
            k_max=self._k_max,
            samples_examined=self.samples_examined,
            candidates_evaluated=self._candidates,
        )


def make_stepper(query: WhyNotQuery, *,
                 rng: np.random.Generator | None = None,
                 config: PenaltyConfig = DEFAULT_PENALTY,
                 include_originals: bool = True,
                 incomparable: IncomparableResult | None = None,
                 context=None,
                 sample_target: int = 800) -> MWKStepper:
    """Build an :class:`MWKStepper` for a validated why-not question,
    resolving the ``FindIncom`` partition exactly like
    :func:`modify_weights_and_k` (explicit > context cache > fresh
    R-tree traversal)."""
    if incomparable is not None:
        inc = incomparable
    elif context is not None:
        inc = context.partition(query.q)
    else:
        inc = find_incomparable(query.rtree, query.q)
    return MWKStepper(points=query.points, inc=inc, q=query.q,
                      why_not=query.why_not, k=query.k, rng=rng,
                      config=config,
                      include_originals=include_originals,
                      sample_target=sample_target)


def modify_weights_and_k(query: WhyNotQuery, *, sample_size: int = 800,
                         rng: np.random.Generator | None = None,
                         config: PenaltyConfig = DEFAULT_PENALTY,
                         include_originals: bool = True,
                         incomparable: IncomparableResult | None = None,
                         context=None) -> MWKResult:
    """Run Algorithm 2 on a validated why-not question.

    The one-shot form: an :class:`MWKStepper` refined for a single
    ``sample_size``-sample round, so chunked anytime refinement and
    this function agree exactly at equal total samples and seed.

    Parameters
    ----------
    query:
        The why-not question (dataset, ``q``, ``k``, ``Wm``).
    sample_size:
        ``|S|`` — number of weighting-vector samples.
    rng:
        Random generator; defaults to a fixed seed for reproducibility.
    config:
        Penalty tolerances (α, β).
    include_originals:
        Allow mixed candidates (see module docstring).
    incomparable:
        Pre-computed ``FindIncom`` result (the MQWK reuse path).
    context:
        Optional :class:`~repro.engine.context.DatasetContext`; when
        given (and ``incomparable`` is not), the ``FindIncom``
        partition is fetched from the context's per-``q`` cache, so
        repeated questions about one product traverse the R-tree once.
    """
    stepper = make_stepper(query, rng=rng, config=config,
                           include_originals=include_originals,
                           incomparable=incomparable, context=context,
                           sample_target=sample_size)
    return stepper.refine(sample_size)


def _mwk_core(*, points: np.ndarray, inc: IncomparableResult,
              q: np.ndarray, why_not: np.ndarray, k: int,
              sample_size: int, rng: np.random.Generator,
              config: PenaltyConfig,
              include_originals: bool) -> MWKResult:
    """Algorithm 2 body, reusable with a cached FindIncom partition."""
    stepper = MWKStepper(points=points, inc=inc, q=q, why_not=why_not,
                         k=k, rng=rng, config=config,
                         include_originals=include_originals,
                         sample_target=sample_size)
    return stepper.refine(sample_size)
