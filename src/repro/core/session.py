"""Session — the one user-facing facade over the WQRTQ framework.

A :class:`Session` binds one
:class:`~repro.engine.context.DatasetContext` (catalogue + LRU
partition caches) and answers typed
:class:`~repro.core.protocol.Question` objects through the shared
executor — interactively (:meth:`ask`), in bulk
(:meth:`ask_batch`, optionally parallel), or explanatorily
(:meth:`explain`, :meth:`reverse_topk`).  It unifies the three
historical front doors:

* ``WQRTQ`` (interactive, one product)  → ``session.ask(question)``
* ``WhyNotBatch`` (queued triples)      → ``session.ask_batch([...])``
* registry-backed serving (HTTP)        → the service wraps one
  Session per catalogue, so the wire answers are byte-identical to
  the library's ``Answer.to_dict()``.

>>> import numpy as np
>>> from repro.core.session import Session
>>> from repro.core.protocol import Question
>>> P = np.random.default_rng(0).random((64, 2)) + 0.05
>>> session = Session(P)
>>> session.algorithms()
('mqp', 'mwk', 'mqwk')
"""

from __future__ import annotations

import numpy as np

from repro.core.penalty import DEFAULT_PENALTY, PenaltyConfig
from repro.core.protocol import Answer, Question, summarize_answers
from repro.core.registry import algorithm_names
from repro.engine.context import DatasetContext

__all__ = ["Session"]


class Session:
    """Ask why-not questions against one shared catalogue.

    Parameters
    ----------
    points:
        The catalogue ``P`` as an ``(n, d)`` array.  Ignored when
        ``context`` or ``catalogue`` is given.
    context:
        Optional pre-existing :class:`DatasetContext` to ride on —
        e.g. one owned by a :class:`~repro.service.CatalogueRegistry`
        so library and HTTP traffic share the same caches.
    catalogue:
        Optional :class:`~repro.data.catalogue.Catalogue` to *follow*:
        each :meth:`ask` / :meth:`ask_batch` call **pins** the
        catalogue's current snapshot at entry and answers every item
        of that call against it, so one batch is snapshot-consistent
        even while writers advance the version, and the next call
        automatically sees the newest data.  Mutually exclusive with
        ``points``/``context``.
    penalty_config:
        Tolerance weights α/β/γ/λ (defaults: all 0.5, as in the
        paper's experiments).

    Answering needs no index.  The R-tree is built on first use by
    the callers that traverse one — :meth:`explain`,
    :meth:`reverse_topk` and MQP's ``use_rtree=True`` ablation.
    """

    def __init__(self, points=None, *,
                 context: DatasetContext | None = None,
                 catalogue=None,
                 penalty_config: PenaltyConfig = DEFAULT_PENALTY):
        given = sum(x is not None for x in (points, context, catalogue))
        if given == 0:
            raise ValueError("Session needs points, a context or a "
                             "catalogue")
        if given > 1:
            raise ValueError("pass exactly one of points, context or "
                             "catalogue")
        if points is not None:
            context = DatasetContext(points)
        self._catalogue = catalogue
        self._context = context
        self.penalty_config = penalty_config
        self._cost_model = None   # lazy; see ``cost_model``

    # -- introspection -------------------------------------------------

    @property
    def context(self) -> DatasetContext:
        """The snapshot this session currently answers against.

        Fixed for the session's lifetime when built from points or a
        context; the catalogue's *latest* snapshot when following a
        :class:`~repro.data.catalogue.Catalogue`.  Methods read it
        once at entry, so each call is internally snapshot-consistent.
        """
        if self._catalogue is not None:
            return self._catalogue.snapshot
        return self._context

    @property
    def catalogue_version(self) -> int:
        """Version of the snapshot :meth:`ask` would pin right now."""
        return self.context.version

    @property
    def points(self) -> np.ndarray:
        return self.context.points

    @property
    def dim(self) -> int:
        return self.context.dim

    @property
    def tree(self):
        return self.context.tree

    @staticmethod
    def algorithms() -> tuple[str, ...]:
        """Names of the registered refinement algorithms."""
        return algorithm_names()

    # -- question construction -----------------------------------------

    def question(self, q, k: int, why_not, *, algorithm: str = "mqp",
                 options=None, id: str | None = None) -> Question:
        """Convenience constructor for a validated :class:`Question`."""
        return Question(q=q, k=k, why_not=why_not, algorithm=algorithm,
                        options=options or {}, id=id)

    # -- answering -----------------------------------------------------

    def ask(self, question: Question, *, seed: int = 0) -> Answer:
        """Answer one typed question.

        Catalogue-dependent failures (``k > |P|``, a vector that is
        not actually missing, an algorithm error) come back as a
        failed :class:`Answer`, never as an exception.  The snapshot
        is pinned at entry; the answer's ``catalogue_version`` says
        which one.

        A question carrying a :class:`~repro.core.protocol.Budget`
        is answered anytime-style: chunked refinement until the
        budget's first limit (sample budget, deadline, penalty
        tolerance), returning the best answer found — with
        :class:`~repro.core.protocol.Quality` metadata attached.
        """
        from repro.engine.executor import answer_question

        context = self.context
        return answer_question(
            context, question, index=0,
            rng=np.random.default_rng(int(seed)),
            penalty_config=self.penalty_config,
            observer=lambda item, answer:
                self._record_timing(context, item, answer))

    def ask_stream(self, question: Question, *, seed: int = 0,
                   chunk: int | None = None):
        """Stream successive refinements of one question.

        A generator of :class:`Answer`\\ s with non-increasing
        penalty — yield one, show it, keep consuming for better ones.
        The final yielded answer is exactly what :meth:`ask` returns
        for the same question and seed.  ``chunk`` caps the samples
        examined per round (default: an eighth of the sample target,
        so an unbudgeted stream still refines in several visible
        steps).  The snapshot is pinned at entry, like :meth:`ask`.
        """
        from repro.engine.executor import iter_answers

        return iter_answers(
            self.context, question, index=0,
            rng=np.random.default_rng(int(seed)),
            penalty_config=self.penalty_config, chunk=chunk)

    def ask_batch(self, questions, *, workers: int = 1,
                  seed: int = 0, deadline_ms: float | None = None,
                  interleave: bool = True) -> list[Answer]:
        """Answer many typed questions, optionally in parallel.

        Item ``i`` uses ``default_rng(seed + i)``, so results are
        identical for any ``workers`` value.  The whole batch answers
        against one snapshot, pinned at entry — a concurrent writer
        cannot make item 7 see different data than item 3.

        ``deadline_ms`` imposes a batch-wide wall-clock budget:
        every question takes the anytime path and the serial loop
        interleaves refinement across the batch (round-robin chunks)
        instead of letting early questions starve later ones; pass
        ``interleave=False`` to measure the head-of-line alternative.
        """
        from repro.engine.executor import execute_questions

        context = self.context
        return execute_questions(
            context, questions, seed=int(seed),
            workers=int(workers), penalty_config=self.penalty_config,
            deadline_ms=deadline_ms, interleave=interleave,
            observer=lambda item, answer:
                self._record_timing(context, item, answer))

    @staticmethod
    def summarize(answers, *, wall_seconds: float | None = None) -> dict:
        """Aggregate report over :meth:`ask_batch` output."""
        return summarize_answers(answers, wall_seconds=wall_seconds)

    # -- planning ------------------------------------------------------

    @property
    def cost_model(self):
        """This session's :class:`~repro.planner.model.CostModel`.

        Created lazily and calibrated automatically: every
        :meth:`ask` / :meth:`ask_batch` feeds its executor-recorded
        timings back through the engine's observer seam, so
        :meth:`explain_plan` estimates tighten as the session runs.
        """
        if self._cost_model is None:
            from repro.planner.model import CostModel

            self._cost_model = CostModel()
        return self._cost_model

    def _record_timing(self, context, question: Question,
                       answer: Answer) -> None:
        from repro.planner.model import sample_target

        quality = answer.quality
        samples = (quality.samples_examined if quality is not None
                   else sample_target(question.algorithm,
                                      budget=question.budget,
                                      options=question.options))
        self.cost_model.observe(
            algorithm=question.algorithm, n=context.n, d=context.dim,
            k=question.k, m=question.n_why_not, samples=samples,
            elapsed=answer.elapsed, options=question.options)

    def explain_plan(self, question: Question, *, workers: int = 0,
                     shards: int = 1, pooled: bool = False):
        """The cost-based :class:`~repro.core.protocol.Plan` for one
        question, *without executing it*.

        In-library sessions always plan the ``session`` path unless
        told about a serving topology (``pooled``/``workers``/
        ``shards`` — the HTTP daemon passes its own).  Render the
        result with :func:`repro.planner.render_plan`.
        """
        from repro.planner import build_plan

        context = self.context
        return build_plan(
            question, n=context.n, d=context.dim,
            model=self.cost_model,
            catalogue_version=context.version,
            workers=int(workers), shards=int(shards), pooled=pooled)

    # -- aspect (i): explanation and the original query ----------------

    def explain(self, question: Question, *,
                max_culprits: int | None = None):
        """Why is each why-not vector missing?  (The culprit points.)"""
        from repro.core.explain import explain_why_not

        return explain_why_not(self.tree, question.q, question.why_not,
                               question.k, max_culprits=max_culprits)

    def reverse_topk(self, q, k: int, *, weights=None):
        """The original reverse top-k query for ``q``.

        With ``weights`` (the bichromatic preference set ``W``):
        sorted indices of the members.  Without (monochromatic mode,
        2-D only): qualifying ``w1`` intervals.
        """
        from repro.rtopk.bichromatic import brtopk_rta
        from repro.rtopk.mono import mrtopk_2d

        # One snapshot read for the whole call: tree and points must
        # come from the same version when following a live catalogue.
        context = self.context
        q = np.asarray(q, dtype=np.float64).reshape(-1)
        if weights is not None:
            wts = np.atleast_2d(np.asarray(weights, dtype=np.float64))
            return brtopk_rta(context.tree, wts, q, int(k))
        if context.dim != 2:
            raise ValueError("monochromatic result enumeration is "
                             "implemented for 2-D data")
        return mrtopk_2d(context.points, q, int(k))

    def missing_weights(self, q, k: int, weights) -> np.ndarray:
        """``W \\ BRTOPk(q)`` — the legal why-not vectors (Def. 5)."""
        wts = np.atleast_2d(np.asarray(weights, dtype=np.float64))
        members = set(self.reverse_topk(q, k, weights=wts).tolist())
        keep = [i for i in range(len(wts)) if i not in members]
        return wts[keep]

    def __repr__(self) -> str:   # pragma: no cover - cosmetic
        return (f"Session(n={self.context.n}, d={self.context.dim}, "
                f"algorithms={list(self.algorithms())})")
