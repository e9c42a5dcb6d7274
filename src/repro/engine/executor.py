"""Answering typed Questions over one DatasetContext.

:func:`answer_question` / :func:`execute_questions` are the single
serving loop behind every front door — the
:class:`~repro.core.session.Session` facade, the CLI ``wqrtq batch``
subcommand and the HTTP service all call them, so one
:class:`~repro.core.protocol.Question` produces the same
:class:`~repro.core.protocol.Answer` payload no matter which surface
it entered through.  Algorithm dispatch goes through the
:mod:`~repro.core.registry` algorithm registry — there is no
algorithm-name ``if/elif`` here.

Questions carrying a :class:`~repro.core.protocol.Budget` take the
*anytime* path: the algorithm's registered stepper is refined in
chunks (:class:`_AnytimeRun`) until the budget's first limit — sample
budget, deadline, penalty tolerance — and the best answer so far is
returned with :class:`~repro.core.protocol.Quality` metadata.
:func:`iter_answers` streams the per-round answers
(``Session.ask_stream``); :func:`execute_questions` interleaves
refinement chunks round-robin across a budgeted batch instead of
head-of-line blocking.

The pre-schema entry points — :func:`answer_one` /
:func:`execute_batch` over ``(q, k, Wm)`` triples, returning
:class:`ExecutionItem` — remain as thin shims that emit
``DeprecationWarning``.

Determinism and parallelism
---------------------------
Each item gets its own ``np.random.default_rng(seed + index)``, so the
answer to question *i* depends only on the context data and ``seed`` —
never on the order questions are processed in.  That makes the
``workers > 1`` path (a ``concurrent.futures.ThreadPoolExecutor``;
the heavy lifting is NumPy/BLAS, which releases the GIL) bit-identical
to the serial path, an invariant the test suite asserts.  Context
caches are internally locked; cache hits and misses return the same
immutable partition objects, so sharing them across workers cannot
change results.

One caveat: the shared R-tree's
:class:`~repro.index.rtree.RTreeStats` node-access counters (the
paper's I/O proxy) are plain unguarded increments — accurate in the
serial path, approximate (racy, possibly under-counted) when
``workers > 1``.  Benchmarks that assert on node accesses must run
serially; answers themselves are unaffected.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core.audit import audit_result
from repro.core.penalty import DEFAULT_PENALTY, PenaltyConfig
from repro.core.protocol import (
    Answer,
    Budget,
    ErrorInfo,
    Quality,
    Question,
)
from repro.core.registry import algorithm_names, get_algorithm
from repro.engine.context import DatasetContext

#: Default smallest refinement chunk the anytime loop schedules, for
#: steppers that do not declare their own ``min_chunk``: big enough
#: to amortize a kernel call, small enough that the first round —
#: which doubles as the sampling-rate probe for deadline chunk
#: sizing — lands quickly.  One algorithm's "sample" can be far more
#: expensive than another's (an MQWK candidate is a whole inner
#: MWK), so the built-in steppers override this per algorithm.
MIN_CHUNK = 64

#: Deadline chunk sizing aims at this fraction of the remaining time,
#: so estimation noise overshoots into the slack instead of past the
#: deadline.
DEADLINE_SAFETY = 0.8

#: Default per-round chunk cap for interleaved refinement (batch
#: round-robin and jobs), for steppers that do not declare their own
#: ``round_chunk``.  Interleaving and cooperative cancellation both
#: happen at chunk boundaries, so one item must never spend its whole
#: budget in a single round; the cap bounds the latency of both.
#: Results are unchanged — refinement is chunk-invariant.
INTERLEAVE_CHUNK = 256

#: Snapshot of the registered algorithm names at import time, kept
#: for backward compatibility.  New code should call
#: :func:`repro.core.registry.algorithm_names`, which reflects
#: runtime registrations.
ALGORITHMS = algorithm_names()


# ---------------------------------------------------------------------
# Typed path — the one answering loop behind every entry point
# ---------------------------------------------------------------------

def _answer(context: DatasetContext, question: Question, *,
            index: int, rng, penalty_config: PenaltyConfig,
            precompute=None) -> tuple[Answer, object]:
    """Answer one Question; returns ``(answer, bound_query_or_None)``.

    Any per-item failure — catalogue-dependent validation (e.g. a
    vector that is not actually missing) as well as unexpected errors
    from deeper layers (e.g. a ``LinAlgError`` escaping the QP
    solver) — is captured as a failed :class:`Answer` instead of
    raised, so one poisoned question can never abort a batch and lose
    its completed siblings.
    """
    start = time.perf_counter()
    try:
        # The lookup sits inside the capture: an algorithm
        # unregistered mid-batch must fail that one item, not escape
        # pool.map and lose every completed sibling.
        spec = get_algorithm(question.algorithm)
        query = context.question(question.q, question.k,
                                 question.why_not)
        result = spec.run(query, context=context, rng=rng,
                          penalty_config=penalty_config,
                          options=question.options,
                          precompute=precompute)
        audit = audit_result(query, result, config=penalty_config)
        answer = Answer(
            index=index, algorithm=spec.name, result=result,
            penalty=audit.penalty, valid=audit.valid, error=None,
            elapsed=time.perf_counter() - start,
            question_id=question.id,
            catalogue_version=context.version)
        return answer, query
    except Exception as exc:
        answer = Answer(
            index=index, algorithm=question.algorithm, result=None,
            penalty=float("nan"), valid=False,
            error=ErrorInfo.from_exception(exc),
            elapsed=time.perf_counter() - start,
            question_id=question.id,
            catalogue_version=context.version)
        return answer, None


# ---------------------------------------------------------------------
# Anytime path — budgeted, resumable, streaming refinement
# ---------------------------------------------------------------------

class _AnytimeRun:
    """One budgeted question being refined round by round.

    Owns the algorithm's stepper state, the chunk-sizing policy and
    the stop conditions; :meth:`step` runs one refinement round and
    returns the current-best :class:`Answer`.  The same object drives
    ``answer_question`` (step until done), ``Session.ask_stream``
    (yield each step) and the interleaved batch/job loops (round-robin
    ``step`` across many runs).

    Chunk policy: without a deadline, one round examines everything
    still allowed (or ``chunk`` samples when streaming).  With a
    deadline, the first round is a small probe (:data:`MIN_CHUNK`)
    that measures the sampling rate; later rounds size their chunk to
    fill :data:`DEADLINE_SAFETY` of the remaining time and the loop
    stops once even a minimum chunk would not fit.  At least one
    round always runs — a budgeted question never returns empty.
    """

    def __init__(self, context: DatasetContext, question: Question, *,
                 index: int = 0,
                 rng: np.random.Generator | None = None,
                 penalty_config: PenaltyConfig = DEFAULT_PENALTY,
                 chunk: int | None = None,
                 interleaved: bool = False,
                 shared_deadline: float | None = None,
                 precompute=None):
        self._context = context
        self._question = question
        self._index = index
        self._penalty_config = penalty_config
        self._precompute = precompute
        self._chunk = None if chunk is None else max(1, int(chunk))
        self._interleaved = interleaved
        self._min_chunk = MIN_CHUNK
        self._round_chunk = INTERLEAVE_CHUNK
        self._budget = question.budget or Budget()
        self._spent = 0.0           # seconds spent in this run's steps
        self._state = None
        self._query = None
        self.answer: Answer | None = None
        self.done = False

        start = time.perf_counter()
        deadline = None
        if self._budget.deadline_ms is not None:
            deadline = start + self._budget.deadline_ms / 1000.0
        if shared_deadline is not None:
            deadline = (shared_deadline if deadline is None
                        else min(deadline, shared_deadline))
        self._deadline = deadline

        try:
            self._spec = get_algorithm(question.algorithm)
            self._query = context.question(question.q, question.k,
                                           question.why_not)
            if self._spec.supports_anytime:
                self._state = self._spec.start(
                    self._query, context=context, rng=rng,
                    penalty_config=penalty_config,
                    options=question.options,
                    precompute=precompute)
                self._target = (self._budget.sample_budget
                                if self._budget.sample_budget
                                is not None
                                else self._state.sample_target)
                # Chunk units are per-algorithm: one MQWK "sample"
                # costs a whole inner MWK, so its stepper declares
                # much smaller probe/round chunks than MWK's.
                self._min_chunk = int(getattr(
                    self._state, "min_chunk", MIN_CHUNK))
                self._round_chunk = int(getattr(
                    self._state, "round_chunk", INTERLEAVE_CHUNK))
                if self._interleaved and self._chunk is None:
                    self._chunk = self._round_chunk
            else:
                self._rng = rng
                self._target = 0
        except Exception as exc:
            self.answer = self._failed(exc)
            self.done = True
        self._spent += time.perf_counter() - start

    # -- assembly ------------------------------------------------------

    def _failed(self, exc: BaseException) -> Answer:
        return Answer(
            index=self._index, algorithm=self._question.algorithm,
            result=None, penalty=float("nan"), valid=False,
            error=ErrorInfo.from_exception(exc), elapsed=self._spent,
            question_id=self._question.id,
            catalogue_version=self._context.version)

    def _finish(self, result, *, converged: bool) -> Answer:
        state = self._state
        audit = audit_result(self._query, result,
                             config=self._penalty_config)
        return Answer(
            index=self._index, algorithm=self._spec.name,
            result=result, penalty=audit.penalty, valid=audit.valid,
            error=None, elapsed=self._spent,
            question_id=self._question.id,
            catalogue_version=self._context.version,
            quality=Quality(
                samples_examined=(state.samples_examined
                                  if state is not None else 0),
                converged=converged,
                rounds=(state.rounds if state is not None else 1)))

    # -- chunk policy and stop conditions ------------------------------

    def _next_chunk(self) -> int | None:
        """Samples for the next round, or ``None`` to stop.

        The first round always runs (chunk 0 when the stepper
        converged at construction — ``refine(0)`` still returns its
        seed answer), so a budgeted question never produces nothing.
        """
        state = self._state
        first = state.rounds == 0
        remaining = self._target - state.samples_examined
        if state.converged or remaining <= 0:
            return 0 if first else None
        if self._deadline is None:
            chunk = remaining
            if self._budget.target_penalty_tolerance is not None:
                # The tolerance is only checked between chunks, so a
                # tolerance budget implies bounded rounds — otherwise
                # one all-remaining chunk would spend the whole
                # sample budget before the first check.
                chunk = min(chunk, self._round_chunk)
        else:
            if first:
                chunk = min(self._min_chunk, remaining)
            else:
                time_left = self._deadline - time.perf_counter()
                if time_left <= 0:
                    return None
                rate = state.samples_examined / max(self._spent, 1e-6)
                budgeted = int(rate * time_left * DEADLINE_SAFETY)
                if budgeted < self._min_chunk:
                    return None   # even a minimum chunk won't fit
                chunk = min(budgeted, remaining)
            chunk = max(1, chunk)
        if self._chunk is not None:
            chunk = max(1, min(chunk, self._chunk))
        return chunk

    def step(self) -> Answer | None:
        """One refinement round; returns the round's current-best
        Answer, or ``None`` when there was nothing left to do (the
        final answer stays in :attr:`answer`)."""
        if self.done:
            return None
        start = time.perf_counter()
        try:
            if self._state is None:
                # No stepper registered: run to completion, one round.
                result = self._spec.run(
                    self._query, context=self._context, rng=self._rng,
                    penalty_config=self._penalty_config,
                    options=self._question.options,
                    precompute=self._precompute)
                self._spent += time.perf_counter() - start
                self.answer = self._finish(result, converged=True)
                self.done = True
                return self.answer
            chunk = self._next_chunk()
            if chunk is None:
                self.done = True
                return None
            result = self._state.refine(chunk)
            self._spent += time.perf_counter() - start
        except Exception as exc:
            self._spent += time.perf_counter() - start
            self.answer = self._failed(exc)
            self.done = True
            return self.answer
        exhausted = (self._state.converged
                     or self._state.samples_examined >= self._target)
        self.answer = self._finish(result, converged=exhausted)
        tolerance = self._budget.target_penalty_tolerance
        if tolerance is not None and self.answer.penalty <= tolerance:
            self.answer = dataclasses.replace(
                self.answer,
                quality=dataclasses.replace(self.answer.quality,
                                            converged=True))
            self.done = True
        elif exhausted:
            self.done = True
        return self.answer


def iter_answers(context: DatasetContext, question: Question, *,
                 index: int = 0,
                 rng: np.random.Generator | None = None,
                 penalty_config: PenaltyConfig = DEFAULT_PENALTY,
                 chunk: int | None = None):
    """Stream successive refinements of one Question.

    Yields one :class:`Answer` per refinement round with
    non-increasing penalty; the last yielded answer is exactly what
    :func:`answer_question` would return for the same inputs.  The
    generator behind ``Session.ask_stream``.  ``chunk`` caps the
    samples examined per round; when omitted it defaults to an
    eighth of the question's sample target, so even an unbudgeted
    stream refines in several visible steps.
    """
    if not isinstance(question, Question):
        raise TypeError("iter_answers expects a repro.Question")
    run = _AnytimeRun(context, question, index=index, rng=rng,
                      penalty_config=penalty_config, chunk=chunk)
    if chunk is None and not run.done:
        # Default streaming granularity, decided here where the
        # stepper's sample target is known.
        run._chunk = max(1, -(-run._target // 8))
    if run.done:          # failed at start
        yield run.answer
        return
    while not run.done:
        answer = run.step()
        if answer is not None:
            yield answer
    if run.answer is None:   # defensive: never end without an answer
        yield run._failed(RuntimeError("refinement produced no "
                                       "answer"))   # pragma: no cover


def _run_anytime(context: DatasetContext, question: Question, *,
                 index: int, rng, penalty_config: PenaltyConfig,
                 shared_deadline: float | None = None,
                 precompute=None) -> Answer:
    run = _AnytimeRun(context, question, index=index, rng=rng,
                      penalty_config=penalty_config,
                      shared_deadline=shared_deadline,
                      precompute=precompute)
    while not run.done:
        run.step()
    return run.answer


def answer_question(context: DatasetContext, question: Question, *,
                    index: int = 0, seed: int | None = None,
                    rng: np.random.Generator | None = None,
                    penalty_config: PenaltyConfig = DEFAULT_PENALTY,
                    precompute=None, observer=None) -> Answer:
    """Answer a single typed :class:`Question` against a context.

    Questions carrying a :class:`~repro.core.protocol.Budget` take
    the anytime path: chunked refinement until the budget's first
    limit, with :class:`~repro.core.protocol.Quality` metadata on the
    answer.  Unbudgeted questions run to completion exactly as
    before.  ``precompute`` — a merged scatter-gather
    :class:`~repro.core.protocol.Precompute` — is forwarded to
    algorithms that declared ``shard_needs``.

    Randomness comes from ``rng``, or from ``default_rng(seed)`` when
    only ``seed`` is given — the seam that lets numpy-free callers
    (the service worker tier) stay deterministic without constructing
    a generator themselves.  Passing both is a contradiction and
    raises.

    ``observer`` is the timing-capture seam for cost-model
    calibration: ``observer(question, answer)`` fires once per
    successful answer, *after* execution, carrying the
    executor-recorded ``elapsed`` and ``quality`` — the only
    wall-clock readings the (clock-free) planner ever sees.
    Observer failures never fail the answer.
    """
    if not isinstance(question, Question):
        raise TypeError(
            "answer_question expects a repro.Question; for raw "
            "(q, k, Wm) triples use the deprecated answer_one shim")
    if seed is not None:
        if rng is not None:
            raise ValueError(
                "pass either seed= or rng=, not both")
        rng = np.random.default_rng(int(seed))
    if question.budget is not None:
        answer = _run_anytime(context, question, index=index, rng=rng,
                              penalty_config=penalty_config,
                              precompute=precompute)
    else:
        answer, _ = _answer(context, question, index=index, rng=rng,
                            penalty_config=penalty_config,
                            precompute=precompute)
    _observe_answer(observer, question, answer)
    return answer


def _observe_answer(observer, question, answer) -> None:
    """Invoke a calibration observer for one successful answer."""
    if observer is None or answer is None:
        return
    if not isinstance(question, Question) or not answer.ok:
        return
    try:
        observer(question, answer)
    except Exception:   # pragma: no cover - observers never fail asks
        pass


def _pooled(run, n_items: int, *, workers: int) -> list:
    if workers <= 1 or n_items <= 1:
        return [run(index) for index in range(n_items)]
    with ThreadPoolExecutor(max_workers=int(workers)) as pool:
        return list(pool.map(run, range(n_items)))


def execute_questions(context: DatasetContext, questions, *,
                      seed: int = 0, workers: int = 1,
                      penalty_config: PenaltyConfig = DEFAULT_PENALTY,
                      deadline_ms: float | None = None,
                      interleave: bool = True,
                      observer=None) -> list[Answer]:
    """Answer every typed :class:`Question` in order.

    Parameters
    ----------
    context:
        The shared catalogue context (index + partition caches).
    questions:
        Sequence of :class:`~repro.core.protocol.Question` objects
        (each carries its own algorithm and options).  Entries may
        also be pre-failed :class:`Answer` objects — e.g. wire
        entries that failed construction-time validation — which are
        passed through at their slot (index corrected) without
        consuming work, so the siblings keep their exact per-index
        rng seeds.
    seed:
        Base seed; item ``i`` uses ``default_rng(seed + i)``.
    workers:
        Number of executor threads; 1 (default) answers serially.
        Results are identical either way.
    deadline_ms:
        Optional batch-wide wall-clock deadline.  When set, *every*
        question takes the anytime path (its own
        :class:`~repro.core.protocol.Budget` deadline, if any, is
        tightened to the batch's) and refinement stops at the first
        limit hit.  Each question still gets at least one refinement
        round, so no item comes back empty.
    interleave:
        In the serial path, refine budgeted questions round-robin —
        one chunk each, repeatedly — instead of running each to its
        budget before starting the next (head-of-line blocking).
        Under a shared deadline this spreads the remaining time over
        the whole batch; for pure sample budgets the answers are
        identical either way (refinement is chunk-invariant), so the
        flag only exists to measure the difference.  Ignored when
        ``workers > 1`` (the pool already overlaps questions).
    observer:
        Optional ``observer(question, answer)`` timing-capture
        callback, fired once per successful answer after the batch
        completes (see :func:`answer_question`).

    Returns
    -------
    list[Answer]
        One answer per question, ordered by question index.
    """
    items = list(questions)
    for question in items:
        if not isinstance(question, (Question, Answer)):
            raise TypeError(
                f"execute_questions expects Question objects (or "
                f"pre-failed Answers), got "
                f"{type(question).__name__}; for (q, k, Wm) triples "
                "use the deprecated execute_batch shim")

    shared_deadline = (None if deadline_ms is None
                       else time.perf_counter()
                       + float(deadline_ms) / 1000.0)

    def is_anytime(item) -> bool:
        return isinstance(item, Question) and (
            item.budget is not None or shared_deadline is not None)

    def run(index: int) -> Answer:
        item = items[index]
        if isinstance(item, Answer):
            # Pre-failed entries are stamped with the snapshot the
            # batch ran against, like their answered siblings.
            return dataclasses.replace(
                item, index=index,
                catalogue_version=context.version)
        if is_anytime(item):
            return _run_anytime(
                context, item, index=index,
                rng=np.random.default_rng(seed + index),
                penalty_config=penalty_config,
                shared_deadline=shared_deadline)
        answer, _ = _answer(
            context, item, index=index,
            rng=np.random.default_rng(seed + index),
            penalty_config=penalty_config)
        return answer

    n_anytime = sum(1 for item in items if is_anytime(item))
    if workers <= 1 and interleave and n_anytime >= 2:
        answers = _interleaved(context, items, is_anytime, seed=seed,
                               penalty_config=penalty_config,
                               shared_deadline=shared_deadline)
    else:
        answers = _pooled(run, len(items), workers=workers)
    if observer is not None:
        for item, answer in zip(items, answers):
            _observe_answer(observer, item, answer)
    return answers


def refine_questions(context: DatasetContext, questions, *,
                     seed: int = 0,
                     penalty_config: PenaltyConfig = DEFAULT_PENALTY,
                     deadline_ms: float | None = None,
                     should_stop=None, on_answer=None,
                     ) -> tuple[list[Answer | None], bool]:
    """Interleaved anytime refinement with cooperative cancellation.

    The engine loop behind the service's async job API: every
    :class:`Question` takes the anytime path (budgeted or not),
    refinement proceeds round-robin, ``on_answer(index, answer,
    done)`` fires after every refinement round, and ``should_stop()``
    is polled between chunks — never mid-kernel — so a ``DELETE`` on
    a job takes effect at the next chunk boundary.

    Returns ``(answers, stopped)``.  When stopped early, items whose
    first round never ran are ``None``; everything else holds its
    best answer so far.
    """
    items = list(questions)
    shared_deadline = (None if deadline_ms is None
                       else time.perf_counter()
                       + float(deadline_ms) / 1000.0)
    answers: list[Answer | None] = [None] * len(items)
    runs: list[tuple[int, _AnytimeRun]] = []
    stopped = False

    def notify(index: int, answer: Answer, done: bool) -> None:
        if on_answer is not None:
            on_answer(index, answer, done)

    for index, item in enumerate(items):
        if should_stop is not None and should_stop():
            stopped = True
            break
        if isinstance(item, Answer):
            answers[index] = dataclasses.replace(
                item, index=index, catalogue_version=context.version)
            notify(index, answers[index], True)
            continue
        run = _AnytimeRun(context, item, index=index,
                          rng=np.random.default_rng(seed + index),
                          penalty_config=penalty_config,
                          interleaved=True,
                          shared_deadline=shared_deadline)
        runs.append((index, run))
        if run.done:   # failed at start
            answers[index] = run.answer
            notify(index, run.answer, True)
    active = [pair for pair in runs if not pair[1].done]
    while active and not stopped:
        for index, run in active:
            if should_stop is not None and should_stop():
                stopped = True
                break
            answer = run.step()
            if answer is not None:
                answers[index] = answer
                notify(index, answer, run.done)
        active = [pair for pair in active if not pair[1].done]
    for index, run in runs:
        if run.answer is not None:
            answers[index] = run.answer
    return answers, stopped


def _interleaved(context: DatasetContext, items, is_anytime, *,
                 seed: int, penalty_config: PenaltyConfig,
                 shared_deadline: float | None) -> list[Answer]:
    """Serial round-robin refinement across a batch.

    Non-budgeted items answer immediately at their slot; budgeted
    ones are all started, then refined one chunk at a time in index
    order until every run is done.  Pure sample budgets produce
    exactly the head-of-line answers (chunk-invariant steppers);
    under a deadline every question reaches a first coarse answer
    before any question spends the remaining time refining.
    """
    answers: list[Answer | None] = [None] * len(items)
    runs: list[tuple[int, _AnytimeRun]] = []
    for index, item in enumerate(items):
        if isinstance(item, Answer):
            answers[index] = dataclasses.replace(
                item, index=index, catalogue_version=context.version)
        elif is_anytime(item):
            runs.append((index, _AnytimeRun(
                context, item, index=index,
                rng=np.random.default_rng(seed + index),
                penalty_config=penalty_config,
                interleaved=True,
                shared_deadline=shared_deadline)))
        else:
            answers[index], _ = _answer(
                context, item, index=index,
                rng=np.random.default_rng(seed + index),
                penalty_config=penalty_config)
    active = [pair for pair in runs if not pair[1].done]
    while active:
        for _, run in active:
            run.step()
        active = [pair for pair in active if not pair[1].done]
    for index, run in runs:
        answers[index] = run.answer
    return answers


# ---------------------------------------------------------------------
# Deprecated triple-based path (pre-schema API)
# ---------------------------------------------------------------------

@dataclass
class ExecutionItem:
    """One answered (or failed) question with its timing.

    The pre-schema item type; :class:`~repro.core.protocol.Answer`
    is its typed replacement (structured error, wire round-trip).
    """

    index: int
    query: object          # WhyNotQuery | None
    algorithm: str
    result: object
    penalty: float
    valid: bool
    error: str | None = None
    elapsed: float = 0.0   # seconds of answer time (validation incl.)


def _answer_triple(context: DatasetContext, index: int, q, k, wm,
                   spec, *, sample_size: int, rng,
                   penalty_config: PenaltyConfig) -> ExecutionItem:
    start = time.perf_counter()
    try:
        question = Question.from_legacy(q, k, wm, algorithm=spec.name,
                                        sample_size=sample_size)
    except Exception as exc:
        # The typed path rejects malformed questions at construction;
        # the legacy path reported them as failed items — preserve
        # that contract for the shims.
        return ExecutionItem(
            index=index, query=None, algorithm=spec.name, result=None,
            penalty=float("nan"), valid=False,
            error=ErrorInfo.from_exception(exc).as_legacy_string,
            elapsed=time.perf_counter() - start)
    answer, query = _answer(context, question, index=index, rng=rng,
                            penalty_config=penalty_config)
    return ExecutionItem(
        index=index, query=query, algorithm=answer.algorithm,
        result=answer.result, penalty=answer.penalty,
        valid=answer.valid,
        error=(None if answer.error is None
               else answer.error.as_legacy_string),
        elapsed=answer.elapsed)


def _execute_triples(context: DatasetContext, questions, algorithm, *,
                     sample_size: int, seed: int, workers: int,
                     penalty_config: PenaltyConfig,
                     ) -> list[ExecutionItem]:
    """Shared implementation of the deprecated triple-based batch."""
    spec = get_algorithm(algorithm)
    items = list(questions)

    def run(index: int) -> ExecutionItem:
        q, k, wm = items[index]
        return _answer_triple(
            context, index, q, k, wm, spec, sample_size=sample_size,
            rng=np.random.default_rng(seed + index),
            penalty_config=penalty_config)

    return _pooled(run, len(items), workers=workers)


def answer_one(context: DatasetContext, index: int, q, k: int, wm,
               algorithm: str, *, sample_size: int = 200,
               rng: np.random.Generator | None = None,
               penalty_config: PenaltyConfig = DEFAULT_PENALTY,
               ) -> ExecutionItem:
    """Deprecated: answer one raw ``(q, k, Wm)`` triple.

    Build a :class:`~repro.core.protocol.Question` and call
    :func:`answer_question` (or ``Session.ask``) instead.
    """
    warnings.warn(
        "answer_one(q, k, wm, algorithm) is deprecated; build a "
        "repro.Question and use Session.ask or answer_question",
        DeprecationWarning, stacklevel=2)
    spec = get_algorithm(algorithm)
    return _answer_triple(context, index, q, k, wm, spec,
                          sample_size=sample_size, rng=rng,
                          penalty_config=penalty_config)


def execute_batch(context: DatasetContext, questions, algorithm: str,
                  *, sample_size: int = 200, seed: int = 0,
                  workers: int = 1,
                  penalty_config: PenaltyConfig = DEFAULT_PENALTY,
                  ) -> list[ExecutionItem]:
    """Deprecated: answer ``(q, k, Wm)`` triples with one algorithm.

    Build :class:`~repro.core.protocol.Question` objects and call
    :func:`execute_questions` (or ``Session.ask_batch``) instead.
    """
    warnings.warn(
        "execute_batch(questions, algorithm) over (q, k, Wm) triples "
        "is deprecated; build repro.Question objects and use "
        "Session.ask_batch or execute_questions",
        DeprecationWarning, stacklevel=2)
    return _execute_triples(context, questions, algorithm,
                            sample_size=sample_size, seed=seed,
                            workers=workers,
                            penalty_config=penalty_config)
