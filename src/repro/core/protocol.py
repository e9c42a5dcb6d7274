"""Typed, versioned Question/Answer protocol — the public API schema.

Every front door of the repro — the :class:`~repro.core.session.Session`
facade, the CLI and the HTTP service — speaks exactly the two value
types defined here:

* :class:`Question` — a frozen, construction-validated why-not
  question: query point ``q``, ``k``, the why-not weight set, the
  algorithm name (resolved against the
  :mod:`~repro.core.registry` algorithm registry) and its per-algorithm
  ``options``;
* :class:`Answer` — the unified response envelope over the three
  refinement result types, carrying the audit penalty/validity, the
  per-question timing and — for failed questions — a structured
  :class:`ErrorInfo` instead of a class-name-prefixed string.

Schema version 3 adds the anytime-execution contract: a
:class:`Question` may carry a :class:`Budget` (sample budget,
deadline, target-penalty tolerance) and every anytime
:class:`Answer` carries :class:`Quality` metadata (samples examined,
converged flag, refinement round).

Both round-trip losslessly through ``to_dict`` → ``json`` →
``from_dict`` under an explicit :data:`SCHEMA_VERSION`, including
failed items and non-finite penalties (``NaN`` penalties serialize as
``null``, infinities as the strings ``"inf"`` / ``"-inf"`` — plain
JSON has no spelling for either).  The HTTP server and client ship
these dicts verbatim, so the wire format has exactly one
encoder/decoder, defined here.

Validation happens at *construction* time with actionable messages
(``k`` must be a positive integer, why-not rows must lie on the
simplex, dimensions must agree, options must be knobs the chosen
algorithm declares) — catalogue-dependent checks (``k <= |P|``, "is
the vector actually missing?") still happen at answer time, where the
dataset is known, and surface as failed :class:`Answer`\\ s.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.core.incomparable import IncomparableResult
from repro.core.registry import get_algorithm
from repro.data.io import result_from_dict, result_to_dict
from repro.geometry.dominance import dominated_by_mask, dominates_mask
from repro.geometry.vectors import is_valid_weight

#: Version of the dict/wire encoding.  Bump on any change to the
#: field set or value encodings; ``from_dict`` rejects payloads
#: stamped with an unsupported version instead of mis-decoding them.
#:
#: Version history:
#:
#: * **1** — the original typed schema.
#: * **2** — ``Answer`` payloads carry ``catalogue_version``, the
#:   version of the catalogue snapshot they were answered against
#:   (0 for standalone, non-catalogue contexts).
#: * **3** — anytime execution: ``Question`` payloads may carry a
#:   ``budget`` (:class:`Budget` — sample budget, deadline,
#:   target-penalty tolerance) and ``Answer`` payloads carry
#:   ``quality`` (:class:`Quality` — samples examined, converged
#:   flag, refinement round), ``null`` for run-to-completion answers.
#: * **4** — live monitoring: the watch subscription surface pushes
#:   :class:`WatchEvent` envelopes (watch id, monotone ``seq``
#:   cursor, event ``kind``, the refreshed ``Answer`` payload).  No
#:   existing payload changed shape — v4 is v3 plus one new
#:   envelope type, so v3 peers interoperate on everything but
#:   ``/watches``.
#: * **5** — cost-based planning and admission control:
#:   ``Question`` payloads may carry ``priority`` (weighted
#:   admission ordering, default 0) and ``tenant`` (quota
#:   accounting key, default ``null``), and three new envelope
#:   types exist — :class:`CostEstimate` (the analytic cost-model
#:   prediction), :class:`Plan` (the chosen execution path with its
#:   estimate, rendered by ``EXPLAIN``) and
#:   :class:`AdmissionDecision` (the typed body of a 429
#:   rejection).  ``Answer`` payloads are field-identical to v4, so
#:   v4 peers interoperate on everything but ``/explain`` and the
#:   admission metadata.
SCHEMA_VERSION = 5

#: Versions this side can still decode.  Version-1 payloads simply
#: lack ``catalogue_version``; version-1/-2 payloads lack
#: ``budget``/``quality``; version-<5 payloads lack
#: ``priority``/``tenant``; decoding defaults them to 0 / ``None``,
#: which is exactly what those producers meant (one immutable
#: snapshot, run-to-completion execution, neutral priority).
#: Version-3/-4 payloads are field-identical to version 5 for every
#: pre-planner type.
SUPPORTED_SCHEMA_VERSIONS = frozenset({1, 2, 3, 4, SCHEMA_VERSION})

__all__ = [
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "AdmissionDecision",
    "Answer",
    "Budget",
    "CostEstimate",
    "ErrorInfo",
    "Plan",
    "Precompute",
    "Quality",
    "Question",
    "ShardPartial",
    "WatchEvent",
    "check_schema_version",
    "compute_shard_partial",
    "merge_shard_partials",
    "shard_plan",
    "shard_ranges",
    "summarize_answers",
]


def check_schema_version(payload: Mapping, *,
                         where: str = "payload") -> None:
    """Reject a dict stamped with a schema version we do not speak.

    A missing stamp is accepted (pre-schema producers), and so is any
    version in :data:`SUPPORTED_SCHEMA_VERSIONS` — the current
    encoding is a strict superset of version 1.  Anything else is an
    error — silently decoding a future encoding risks wrong answers,
    not just crashes.
    """
    version = payload.get("schema_version")
    if version is not None and version not in SUPPORTED_SCHEMA_VERSIONS:
        supported = ", ".join(
            str(v) for v in sorted(SUPPORTED_SCHEMA_VERSIONS))
        raise ValueError(
            f"unsupported schema_version {version!r} in {where} "
            f"(this side speaks {supported})")


def _encode_penalty(value: float):
    """JSON-safe penalty: ``NaN`` → ``None``, ``±inf`` → strings."""
    value = float(value)
    if math.isnan(value):
        return None
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _decode_penalty(value) -> float:
    if value is None:
        return float("nan")
    if value == "inf":
        return float("inf")
    if value == "-inf":
        return float("-inf")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"penalty must be a number, null, 'inf' or "
                     f"'-inf', got {value!r}")


@dataclass(frozen=True)
class ErrorInfo:
    """Structured failure description for one question.

    ``type`` is the exception class name, ``message`` the
    human-readable text, and ``category`` the machine-matchable
    channel: ``"validation"`` for expected validation failures (any
    ``ValueError``, including non-builtin subclasses such as
    ``numpy.linalg.LinAlgError``) and ``"internal"`` for everything
    else.  The category is recorded at capture time — a type *name*
    alone cannot tell a ``ValueError`` subclass from an unrelated
    class once it crosses the wire.
    """

    type: str
    message: str
    category: str = "internal"     # "validation" | "internal"

    @classmethod
    def from_exception(cls, exc: BaseException) -> "ErrorInfo":
        return cls(type=type(exc).__name__, message=str(exc),
                   category=("validation"
                             if isinstance(exc, ValueError)
                             else "internal"))

    @property
    def as_legacy_string(self) -> str:
        """The pre-schema string form (bare message for validation
        failures, ``"Type: message"`` otherwise) kept for the
        deprecated ``ExecutionItem.error`` field."""
        if self.category == "validation":
            return self.message
        return f"{self.type}: {self.message}"

    def to_dict(self) -> dict:
        return {"type": self.type, "message": self.message,
                "category": self.category}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ErrorInfo":
        if not isinstance(payload, Mapping):
            raise ValueError("error payload must be a JSON object")
        type_name = str(payload.get("type", ""))
        category = payload.get("category")
        if category not in ("validation", "internal"):
            # Pre-category producer: infer from builtin type names.
            import builtins

            exc_type = getattr(builtins, type_name, None)
            category = ("validation"
                        if isinstance(exc_type, type)
                        and issubclass(exc_type, ValueError)
                        else "internal")
        return cls(type=type_name,
                   message=str(payload.get("message", "")),
                   category=category)


@dataclass(frozen=True)
class Budget:
    """Execution budget for one question — the anytime contract.

    All three limits are optional and combine conjunctively: the
    executor refines the answer in chunks and stops at the first
    limit hit, always returning the best answer found so far.

    Parameters
    ----------
    sample_budget:
        Cap on the total samples examined (weight samples for MWK,
        query-point candidates for MQWK; MQP is exact and converges
        in its first round regardless).  ``None`` = the algorithm's
        own ``sample_size`` option decides.
    deadline_ms:
        Soft wall-clock deadline in milliseconds.  Refinement chunks
        are sized from the observed sampling rate so the loop lands
        near the deadline instead of overshooting; at least one
        refinement round always runs, so a budgeted question never
        comes back empty.
    target_penalty_tolerance:
        Early-exit threshold: refinement stops once the audited
        penalty is at or below this value ("good enough").
    """

    sample_budget: int | None = None
    deadline_ms: float | None = None
    target_penalty_tolerance: float | None = None

    def __post_init__(self) -> None:
        if self.sample_budget is not None:
            try:
                budget = int(self.sample_budget)
                if float(self.sample_budget) != budget:
                    raise ValueError
            except (TypeError, ValueError):
                raise ValueError(
                    f"sample_budget must be a positive integer or "
                    f"None, got {self.sample_budget!r}") from None
            if budget < 1:
                raise ValueError(f"sample_budget must be >= 1, got "
                                 f"{budget}")
            object.__setattr__(self, "sample_budget", budget)
        if self.deadline_ms is not None:
            deadline = float(self.deadline_ms)
            if not math.isfinite(deadline) or deadline <= 0:
                raise ValueError(f"deadline_ms must be a positive "
                                 f"finite number, got "
                                 f"{self.deadline_ms!r}")
            object.__setattr__(self, "deadline_ms", deadline)
        if self.target_penalty_tolerance is not None:
            tol = float(self.target_penalty_tolerance)
            if not math.isfinite(tol) or tol < 0:
                raise ValueError(
                    f"target_penalty_tolerance must be a non-negative "
                    f"finite number, got "
                    f"{self.target_penalty_tolerance!r}")
            object.__setattr__(self, "target_penalty_tolerance", tol)

    @property
    def is_unbounded(self) -> bool:
        """True when no limit is set (run-to-completion semantics)."""
        return (self.sample_budget is None and self.deadline_ms is None
                and self.target_penalty_tolerance is None)

    def to_dict(self) -> dict:
        return {"sample_budget": self.sample_budget,
                "deadline_ms": self.deadline_ms,
                "target_penalty_tolerance":
                    self.target_penalty_tolerance}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Budget":
        if not isinstance(payload, Mapping):
            raise ValueError("budget payload must be a JSON object")
        unknown = sorted(set(payload) - {"sample_budget", "deadline_ms",
                                         "target_penalty_tolerance"})
        if unknown:
            raise ValueError(f"budget has unknown field(s): "
                             f"{', '.join(unknown)}")
        return cls(
            sample_budget=payload.get("sample_budget"),
            deadline_ms=payload.get("deadline_ms"),
            target_penalty_tolerance=payload.get(
                "target_penalty_tolerance"))


@dataclass(frozen=True)
class Quality:
    """How an anytime answer was produced (schema version 3).

    ``samples_examined`` counts the algorithm's own progress unit
    (weight samples for MWK, query-point candidates for MQWK);
    ``converged`` says whether refinement ran to its natural end
    (sample target reached, tolerance met, or the algorithm is exact)
    rather than being cut off by a deadline, budget or cancellation;
    ``rounds`` is the number of refinement rounds behind the answer.
    """

    samples_examined: int = 0
    converged: bool = True
    rounds: int = 1

    def to_dict(self) -> dict:
        return {"samples_examined": int(self.samples_examined),
                "converged": bool(self.converged),
                "rounds": int(self.rounds)}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Quality":
        if not isinstance(payload, Mapping):
            raise ValueError("quality payload must be a JSON object")
        return cls(
            samples_examined=int(payload.get("samples_examined", 0)),
            converged=bool(payload.get("converged", True)),
            rounds=int(payload.get("rounds", 1)))


def _readonly(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Question:
    """One validated, immutable why-not question.

    Parameters
    ----------
    q:
        The query point (the manufacturer's product) as a flat list
        of non-negative finite coordinates.
    k:
        The reverse top-k parameter, a positive integer.  The
        catalogue-dependent upper bound (``k <= |P|``) is enforced at
        answer time.
    why_not:
        The why-not weighting vectors, shape ``(m, d)`` matching
        ``q``; every row must lie on the probability simplex.
    algorithm:
        Name of a registered refinement algorithm (default
        ``"mqp"``); resolved against the registry at construction.
    options:
        Per-algorithm knobs (e.g. ``{"sample_size": 400}`` for MWK);
        keys are validated against the algorithm's declared
        ``option_names``.
    budget:
        Optional :class:`Budget` (or its dict form) requesting
        anytime execution: the executor refines the answer in chunks
        and stops at the first limit hit.  ``None`` (default) runs
        the algorithm to completion exactly as before.
    id:
        Optional caller-chosen correlation id, echoed on the
        :class:`Answer`.
    priority:
        Admission priority (schema v5): higher values are scheduled
        first by the service admission controller.  Neutral default
        0; has no effect on library execution or on the Answer.
    tenant:
        Optional tenant key (schema v5) for per-tenant quota
        accounting at the service tier; ``None`` means the shared
        anonymous bucket.
    """

    q: np.ndarray
    k: int
    why_not: np.ndarray
    algorithm: str = "mqp"
    options: Mapping[str, object] = field(default_factory=dict)
    budget: Budget | None = None
    id: str | None = None
    priority: int = 0
    tenant: str | None = None

    def __post_init__(self) -> None:
        try:
            q = np.asarray(self.q, dtype=np.float64)
        except (TypeError, ValueError):
            raise ValueError(f"q must be a numeric coordinate list, "
                             f"got {self.q!r}") from None
        if q.ndim != 1 or q.size == 0:
            raise ValueError("q must be a non-empty flat coordinate "
                             f"list, got shape {q.shape}")
        if not np.all(np.isfinite(q)):
            raise ValueError(f"q must contain finite coordinates, "
                             f"got {q.tolist()}")
        if np.any(q < 0):
            raise ValueError("q must be non-negative (top-k scores "
                             f"assume non-negative coordinates), got "
                             f"{q.tolist()}")

        try:
            k = int(self.k)
            if float(self.k) != k:   # reject silent truncation (2.9)
                raise ValueError
        except (TypeError, ValueError):
            raise ValueError(f"k must be a positive integer, got "
                             f"{self.k!r}") from None
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")

        try:
            wm = np.atleast_2d(np.asarray(self.why_not,
                                          dtype=np.float64))
        except (TypeError, ValueError):
            raise ValueError(f"why_not must be a numeric (m, d) "
                             f"weight list, got {self.why_not!r}") \
                from None
        if wm.ndim != 2 or wm.shape[0] == 0:
            raise ValueError("why_not must be a non-empty (m, d) "
                             f"weight list, got shape {wm.shape}")
        if wm.shape[1] != q.shape[0]:
            raise ValueError(
                f"why_not must be shaped (m, {q.shape[0]}) to match "
                f"q's dimensionality, got {wm.shape[0]}x{wm.shape[1]}")
        for i, row in enumerate(wm):
            if not is_valid_weight(row, atol=1e-6):
                raise ValueError(
                    f"why-not vector #{i} = {row.tolist()} is not on "
                    f"the simplex (non-negative weights summing to 1; "
                    f"sum = {float(row.sum()):.6f})")

        spec = get_algorithm(self.algorithm)   # raises with the list

        if not isinstance(self.options, Mapping):
            raise ValueError(f"options must be a mapping, got "
                             f"{type(self.options).__name__}")
        options = dict(self.options)
        unknown = sorted(key for key in options
                         if key not in spec.option_names)
        if unknown:
            accepted = ", ".join(spec.option_names) or "<none>"
            raise ValueError(
                f"unknown option(s) {unknown} for algorithm "
                f"{spec.name!r} (accepted: {accepted})")

        budget = self.budget
        if budget is not None and not isinstance(budget, Budget):
            if not isinstance(budget, Mapping):
                raise ValueError(f"budget must be a Budget, a mapping "
                                 f"or None, got {budget!r}")
            budget = Budget.from_dict(budget)
        if budget is not None and budget.is_unbounded:
            budget = None   # an empty budget means run-to-completion

        if self.id is not None and not isinstance(self.id, str):
            raise ValueError(f"id must be a string or None, got "
                             f"{self.id!r}")

        try:
            priority = int(self.priority)
            if isinstance(self.priority, bool) or \
                    float(self.priority) != priority:
                raise ValueError
        except (TypeError, ValueError):
            raise ValueError(f"priority must be an integer, got "
                             f"{self.priority!r}") from None

        if self.tenant is not None and not isinstance(self.tenant, str):
            raise ValueError(f"tenant must be a string or None, got "
                             f"{self.tenant!r}")

        object.__setattr__(self, "priority", priority)
        object.__setattr__(self, "budget", budget)
        object.__setattr__(self, "q", _readonly(q))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "why_not", _readonly(wm))
        object.__setattr__(self, "algorithm", spec.name)
        # A read-only view: ``frozen=True`` only blocks attribute
        # rebinding, and a mutable dict would let callers smuggle in
        # option keys that skipped the validation above.
        object.__setattr__(self, "options",
                           types.MappingProxyType(options))

    # -- derived -------------------------------------------------------

    @property
    def dim(self) -> int:
        return int(self.q.shape[0])

    @property
    def n_why_not(self) -> int:
        return int(self.why_not.shape[0])

    # -- wire schema ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "id": self.id,
            "algorithm": self.algorithm,
            "q": self.q.tolist(),
            "k": self.k,
            "why_not": self.why_not.tolist(),
            "options": dict(self.options),
            "budget": (None if self.budget is None
                       else self.budget.to_dict()),
            "priority": self.priority,
            "tenant": self.tenant,
        }

    #: The exact key set ``to_dict`` writes; ``from_dict`` rejects
    #: anything else so a misspelled field (e.g. ``"optons"``) cannot
    #: silently decode into a different question.
    _FIELDS = frozenset({"schema_version", "id", "algorithm", "q",
                         "k", "why_not", "options", "budget",
                         "priority", "tenant"})

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Question":
        if not isinstance(payload, Mapping):
            raise ValueError("question payload must be a JSON object")
        check_schema_version(payload, where="question")
        missing = [key for key in ("q", "k", "why_not")
                   if key not in payload]
        if missing:
            raise ValueError(f"question is missing field(s): "
                             f"{', '.join(missing)}")
        unknown = sorted(set(payload) - cls._FIELDS)
        if unknown:
            raise ValueError(f"question has unknown field(s): "
                             f"{', '.join(unknown)}")
        return cls(q=payload["q"], k=payload["k"],
                   why_not=payload["why_not"],
                   algorithm=payload.get("algorithm", "mqp"),
                   options=payload.get("options") or {},
                   budget=payload.get("budget"),
                   id=payload.get("id"),
                   priority=payload.get("priority", 0),
                   tenant=payload.get("tenant"))

    @classmethod
    def from_legacy(cls, q, k, why_not, *, algorithm: str = "mqp",
                    sample_size: int | None = None,
                    id: str | None = None) -> "Question":
        """Upgrade a pre-schema question to a typed Question.

        The single place the old calling conventions — a raw
        ``(q, k, Wm)`` triple plus sibling ``algorithm`` /
        ``sample_size`` arguments — are mapped onto the typed schema:
        ``sample_size`` becomes an option only for algorithms that
        declare the knob (MQP historically ignored it).
        """
        spec = get_algorithm(algorithm)
        options = ({"sample_size": int(sample_size)}
                   if sample_size is not None
                   and "sample_size" in spec.option_names else {})
        return cls(q=q, k=k, why_not=why_not, algorithm=spec.name,
                   options=options, id=id)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Question):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash((self.q.tobytes(), self.k, self.why_not.tobytes(),
                     self.algorithm, tuple(sorted(self.options.items())),
                     self.budget, self.id, self.priority, self.tenant))

    def __reduce__(self):
        # ``options`` is a mappingproxy (see ``__post_init__``), which
        # the default dataclass pickling chokes on; rebuild through the
        # constructor so worker IPC re-validates exactly once.
        return (Question, (np.asarray(self.q), self.k,
                           np.asarray(self.why_not), self.algorithm,
                           dict(self.options), self.budget, self.id,
                           self.priority, self.tenant))


@dataclass(frozen=True, eq=False)
class Answer:
    """The unified response envelope for one answered question.

    ``result`` holds one of the three typed refinement results (or
    ``None`` when ``error`` is set); ``penalty``/``valid`` come from
    the independent audit of that result; ``elapsed`` is the answer
    time in seconds.  Failed questions carry a structured
    :class:`ErrorInfo` and a ``NaN`` penalty.

    ``catalogue_version`` stamps the catalogue snapshot the answer
    was computed against (schema version 2): a client interleaving
    queries with mutations can tell exactly which state of the data
    each answer reflects.  Standalone contexts — and all version-1
    payloads — carry 0.

    ``quality`` (schema version 3) describes how an anytime answer
    was produced — samples examined, converged flag, refinement
    round.  Run-to-completion answers (and all version-1/-2
    payloads) carry ``None``.
    """

    index: int
    algorithm: str
    result: object          # MQPResult | MWKResult | MQWKResult | None
    penalty: float
    valid: bool
    error: ErrorInfo | None = None
    elapsed: float = 0.0
    question_id: str | None = None
    catalogue_version: int = 0
    quality: Quality | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    # -- wire schema ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "id": self.question_id,
            "index": int(self.index),
            "algorithm": self.algorithm,
            "valid": bool(self.valid),
            "penalty": _encode_penalty(self.penalty),
            "error": None if self.error is None else
                     self.error.to_dict(),
            "elapsed": float(self.elapsed),
            "catalogue_version": int(self.catalogue_version),
            "quality": None if self.quality is None else
                       self.quality.to_dict(),
            "result": None if self.result is None else
                      result_to_dict(self.result),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Answer":
        if not isinstance(payload, Mapping):
            raise ValueError("answer payload must be a JSON object")
        check_schema_version(payload, where="answer")
        error = payload.get("error")
        result = payload.get("result")
        quality = payload.get("quality")
        return cls(
            index=int(payload.get("index", 0)),
            algorithm=str(payload.get("algorithm", "")),
            result=None if result is None else result_from_dict(result),
            penalty=_decode_penalty(payload.get("penalty")),
            valid=bool(payload.get("valid", False)),
            error=None if error is None else ErrorInfo.from_dict(error),
            elapsed=float(payload.get("elapsed", 0.0)),
            question_id=payload.get("id"),
            catalogue_version=int(payload.get("catalogue_version", 0)),
            quality=(None if quality is None
                     else Quality.from_dict(quality)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Answer):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    __hash__ = None


#: Event kinds a watch stream may carry (schema version 4).
WATCH_EVENT_KINDS = ("answer", "end")


@dataclass(frozen=True)
class WatchEvent:
    """One entry of a watch's event stream (schema version 4).

    ``seq`` is the watch-local cursor: strictly monotone from 0 (the
    registration answer), what long-poll ``cursor=`` and SSE
    ``Last-Event-ID`` resume from.  ``kind`` is ``"answer"`` for a
    refreshed :class:`Answer` (carried in ``answer``, byte-identical
    to a fresh ``Session.ask`` at ``catalogue_version``) or
    ``"end"`` — the terminal event a deleted watch or a draining
    server pushes (``answer`` is ``None``); nothing follows an
    ``end``.
    """

    watch_id: str
    seq: int
    kind: str
    catalogue_version: int
    answer: Answer | None = None

    def __post_init__(self) -> None:
        if self.kind not in WATCH_EVENT_KINDS:
            kinds = ", ".join(WATCH_EVENT_KINDS)
            raise ValueError(f"watch event kind must be one of "
                             f"{kinds}, got {self.kind!r}")
        if int(self.seq) < 0:
            raise ValueError(f"watch event seq must be >= 0, got "
                             f"{self.seq!r}")
        if (self.kind == "answer") != (self.answer is not None):
            raise ValueError("'answer' events carry an Answer; "
                             "'end' events carry none")
        object.__setattr__(self, "seq", int(self.seq))
        object.__setattr__(self, "catalogue_version",
                           int(self.catalogue_version))

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "watch_id": self.watch_id,
            "seq": self.seq,
            "kind": self.kind,
            "catalogue_version": self.catalogue_version,
            "answer": (None if self.answer is None
                       else self.answer.to_dict()),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "WatchEvent":
        if not isinstance(payload, Mapping):
            raise ValueError("watch event payload must be a JSON "
                             "object")
        check_schema_version(payload, where="watch event")
        answer = payload.get("answer")
        return cls(
            watch_id=str(payload.get("watch_id", "")),
            seq=int(payload.get("seq", 0)),
            kind=str(payload.get("kind", "")),
            catalogue_version=int(payload.get("catalogue_version",
                                              0)),
            answer=(None if answer is None
                    else Answer.from_dict(answer)))


@dataclass(frozen=True)
class CostEstimate:
    """The cost model's prediction for one Question (schema v5).

    Produced by :class:`repro.planner.model.CostModel` before
    execution: the expected sample count, refinement chunk count,
    wall latency and peak working memory for running ``algorithm``
    against an ``n`` x ``d`` catalogue with the question's ``k`` and
    ``m`` why-not rows.  ``calibrated`` says whether the latency
    coefficient has been fit from at least
    ``CALIBRATION_MIN_OBSERVATIONS`` real executions
    (``observations`` of them) or is still the analytic prior.
    """

    algorithm: str
    n: int
    d: int
    k: int
    m: int
    est_samples: int
    est_chunks: int
    est_latency_ms: float
    est_peak_memory_bytes: int
    calibrated: bool = False
    observations: int = 0

    def __post_init__(self) -> None:
        for name in ("n", "d", "k", "m", "est_samples", "est_chunks",
                     "est_peak_memory_bytes", "observations"):
            object.__setattr__(self, name, int(getattr(self, name)))
        latency = float(self.est_latency_ms)
        if not math.isfinite(latency) or latency < 0:
            raise ValueError(f"est_latency_ms must be finite and "
                             f">= 0, got {self.est_latency_ms!r}")
        object.__setattr__(self, "est_latency_ms", latency)
        object.__setattr__(self, "calibrated", bool(self.calibrated))

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "d": self.d,
            "k": self.k,
            "m": self.m,
            "est_samples": self.est_samples,
            "est_chunks": self.est_chunks,
            "est_latency_ms": self.est_latency_ms,
            "est_peak_memory_bytes": self.est_peak_memory_bytes,
            "calibrated": self.calibrated,
            "observations": self.observations,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CostEstimate":
        if not isinstance(payload, Mapping):
            raise ValueError("cost estimate payload must be a JSON "
                             "object")
        return cls(
            algorithm=str(payload.get("algorithm", "")),
            n=int(payload.get("n", 0)),
            d=int(payload.get("d", 0)),
            k=int(payload.get("k", 0)),
            m=int(payload.get("m", 0)),
            est_samples=int(payload.get("est_samples", 0)),
            est_chunks=int(payload.get("est_chunks", 0)),
            est_latency_ms=float(payload.get("est_latency_ms", 0.0)),
            est_peak_memory_bytes=int(
                payload.get("est_peak_memory_bytes", 0)),
            calibrated=bool(payload.get("calibrated", False)),
            observations=int(payload.get("observations", 0)))


#: Execution paths a :class:`Plan` can choose: in-process session
#: execution, whole questions fanned out to pool workers, or
#: scatter-gather of one question across catalogue shards.
PLAN_PATHS = ("session", "worker", "scatter-gather")


@dataclass(frozen=True)
class Plan:
    """The chosen execution path for one Question (schema v5).

    What ``EXPLAIN`` (``POST /explain`` / ``wqrtq explain`` /
    ``Session.explain_plan``) returns: the path the service would
    take (``session`` in-process, ``worker`` on the pool, or
    ``scatter-gather`` across shards), the anytime ``chunk_schedule``
    the executor is expected to run, the :class:`CostEstimate` and
    the :class:`Quality` the answer is expected to report.  Rendered
    to Impala-style text by
    :func:`repro.planner.plan.render_plan`.
    """

    catalogue: str
    catalogue_version: int
    algorithm: str
    path: str
    workers: int
    shards: int
    chunk_schedule: tuple
    cost: CostEstimate
    expected_quality: Quality
    question_id: str | None = None

    def __post_init__(self) -> None:
        if self.path not in PLAN_PATHS:
            paths = ", ".join(PLAN_PATHS)
            raise ValueError(f"plan path must be one of {paths}, "
                             f"got {self.path!r}")
        object.__setattr__(self, "catalogue_version",
                           int(self.catalogue_version))
        object.__setattr__(self, "workers", int(self.workers))
        object.__setattr__(self, "shards", int(self.shards))
        object.__setattr__(self, "chunk_schedule",
                           tuple(int(c) for c in self.chunk_schedule))

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "catalogue": self.catalogue,
            "catalogue_version": self.catalogue_version,
            "algorithm": self.algorithm,
            "path": self.path,
            "workers": self.workers,
            "shards": self.shards,
            "chunk_schedule": list(self.chunk_schedule),
            "cost": self.cost.to_dict(),
            "expected_quality": self.expected_quality.to_dict(),
            "question_id": self.question_id,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Plan":
        if not isinstance(payload, Mapping):
            raise ValueError("plan payload must be a JSON object")
        check_schema_version(payload, where="plan")
        question_id = payload.get("question_id")
        return cls(
            catalogue=str(payload.get("catalogue", "")),
            catalogue_version=int(payload.get("catalogue_version", 0)),
            algorithm=str(payload.get("algorithm", "")),
            path=str(payload.get("path", "session")),
            workers=int(payload.get("workers", 0)),
            shards=int(payload.get("shards", 1)),
            chunk_schedule=tuple(payload.get("chunk_schedule") or ()),
            cost=CostEstimate.from_dict(payload.get("cost") or {}),
            expected_quality=Quality.from_dict(
                payload.get("expected_quality") or {}),
            question_id=(None if question_id is None
                         else str(question_id)))


#: Reasons an :class:`AdmissionDecision` can carry.  ``ok`` admits;
#: ``deadline`` rejects a question whose estimated latency exceeds
#: its own ``deadline_ms``; ``quota`` sheds past a tenant's token
#: bucket; ``queue-full`` sheds past the bounded priority queue.
ADMISSION_REASONS = ("ok", "deadline", "quota", "queue-full")


@dataclass(frozen=True)
class AdmissionDecision:
    """The admission controller's verdict for one request (schema v5).

    Admitted requests proceed to execution unchanged; rejected ones
    become typed 429 responses carrying this payload — ``reason``
    says which policy fired, ``estimated_ms``/``deadline_ms`` the
    deadline math that failed (when ``reason`` is ``deadline``), and
    ``retry_after_ms`` the shed-side hint mirrored into the
    ``Retry-After`` header (``None`` when retrying cannot help, e.g.
    an unmeetable deadline).
    """

    admitted: bool
    reason: str
    detail: str = ""
    estimated_ms: float | None = None
    deadline_ms: float | None = None
    retry_after_ms: float | None = None
    priority: int = 0
    tenant: str | None = None

    def __post_init__(self) -> None:
        if self.reason not in ADMISSION_REASONS:
            reasons = ", ".join(ADMISSION_REASONS)
            raise ValueError(f"admission reason must be one of "
                             f"{reasons}, got {self.reason!r}")
        if self.admitted != (self.reason == "ok"):
            raise ValueError("admitted decisions carry reason 'ok'; "
                             "rejections carry the policy that fired")
        for name in ("estimated_ms", "deadline_ms", "retry_after_ms"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, float(value))
        object.__setattr__(self, "admitted", bool(self.admitted))
        object.__setattr__(self, "priority", int(self.priority))

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "admitted": self.admitted,
            "reason": self.reason,
            "detail": self.detail,
            "estimated_ms": self.estimated_ms,
            "deadline_ms": self.deadline_ms,
            "retry_after_ms": self.retry_after_ms,
            "priority": self.priority,
            "tenant": self.tenant,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "AdmissionDecision":
        if not isinstance(payload, Mapping):
            raise ValueError("admission payload must be a JSON object")
        check_schema_version(payload, where="admission decision")
        tenant = payload.get("tenant")
        return cls(
            admitted=bool(payload.get("admitted", False)),
            reason=str(payload.get("reason", "")),
            detail=str(payload.get("detail", "")),
            estimated_ms=payload.get("estimated_ms"),
            deadline_ms=payload.get("deadline_ms"),
            retry_after_ms=payload.get("retry_after_ms"),
            priority=int(payload.get("priority", 0)),
            tenant=(None if tenant is None else str(tenant)))


def summarize_answers(answers, *, wall_seconds: float | None = None,
                      ) -> dict:
    """Aggregate a list of :class:`Answer`\\ s into a report dict.

    Same shape as the legacy ``BatchReport.summary()`` (the dashboards
    and the ``/batch`` endpoint consume it), with ``wall_seconds``
    appended when the caller measured it.
    """
    answers = list(answers)
    penalties = np.asarray([a.penalty for a in answers
                            if a.error is None])
    times = np.asarray([a.elapsed for a in answers])
    summary = {
        "answered": sum(1 for a in answers if a.error is None),
        "failed": sum(1 for a in answers if a.error is not None),
        "mean_penalty": (float(penalties.mean()) if len(penalties)
                         else None),
        "max_penalty": (float(penalties.max()) if len(penalties)
                        else None),
        "all_valid": all(a.valid for a in answers if a.error is None),
        "total_item_time": float(times.sum()) if len(times) else 0.0,
        "max_item_time": float(times.max()) if len(times) else 0.0,
    }
    if wall_seconds is not None:
        summary["wall_seconds"] = float(wall_seconds)
    return summary


# ---------------------------------------------------------------------------
# Partial answers for sharded execution (scatter-gather merge).
#
# A Question fanned out over catalogue row ranges cannot merge three
# *refined* answers — MQP/MWK/MQWK outputs are not composable.  What
# *is* composable is the catalogue-wide precomputation each algorithm
# starts from: the per-weight k-th ranked point (an order statistic of
# a total order, so the global top-k is contained in the union of
# per-shard top-k's) and the FindIncom dominance partition (per-row
# predicates, so global sets are unions of per-shard sets).  Shards
# therefore return a :class:`ShardPartial`; the front door merges them
# into a :class:`Precompute` and hands it to one full-snapshot worker,
# which runs the refinement exactly as a single process would — same
# floats, same tie-breaks, byte-identical Answer.
#
# Byte-identity fine print: shard scores use the per-weight gemv form
# ``points @ w`` — the same BLAS call BRS applies to leaf rows and the
# whole-catalogue k-th scan (``kth_scores_batch``) to every row — not
# a batched gemm, because gemm and gemv can legitimately disagree in
# the last bits (see RANK_EPS in :mod:`repro.engine.kernels`) and the
# merged k-th *score* feeds the MQP quadratic program verbatim.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardPartial:
    """One shard's contribution to a fanned-out question.

    ``[start, stop)`` is the catalogue row range the shard covered;
    all ids are global row ids.  Fields are ``None`` when the
    question's algorithm does not need that precomputation (see
    ``AlgorithmSpec.shard_needs``).
    """

    start: int
    stop: int
    #: Global ids of shard rows dominating / incomparable-with /
    #: equal-to ``q`` (the ``FindIncom`` partition; dominated rows are
    #: never needed downstream and are not shipped).
    dominating_ids: np.ndarray | None = None
    incomparable_ids: np.ndarray | None = None
    equal_ids: np.ndarray | None = None
    #: Per why-not vector: the shard's ``min(k, stop - start)``
    #: smallest ``(score, id)`` pairs in ascending ``(score, id)``
    #: order, shape ``(m, min(k, stop - start))``.
    kth_ids: np.ndarray | None = None
    kth_scores: np.ndarray | None = None


@dataclass(frozen=True)
class Precompute:
    """Merged catalogue-wide precomputation injected into a finisher.

    ``incomparable`` reproduces ``find_incomparable(tree, q)`` (ids
    sorted ascending — the steppers canonicalize order anyway),
    ``candidate_ids`` reproduces the box-cache candidate set
    (everything *not* dominated by ``q``: D ∪ I ∪ equal rows), and
    ``kth_ids``/``kth_scores`` reproduce ``BRSEngine.kth_point`` per
    why-not vector.  ``kth_*`` is ``None`` when the catalogue has
    fewer than ``k`` points — the finisher then fails exactly like a
    single process.
    """

    incomparable: IncomparableResult | None = None
    candidate_ids: np.ndarray | None = None
    kth_ids: np.ndarray | None = None
    kth_scores: np.ndarray | None = None


def shard_ranges(n: int, shards: int) -> list[tuple[int, int]]:
    """Split ``n`` catalogue rows into at most ``shards`` contiguous,
    non-empty, near-equal ``[start, stop)`` ranges."""
    n = int(n)
    shards = max(1, min(int(shards), n))
    bounds = np.linspace(0, n, shards + 1).astype(np.int64)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]


def shard_plan(question: Question) -> tuple[str, ...] | None:
    """Which partials a shard must compute for ``question``.

    Returns ``None`` when the algorithm declares no ``shard_needs``;
    such questions run whole on a single full-snapshot worker.  Every
    k-th-point path (BRS, the scan, the shard merge) scores with the
    same gemv, so no option makes a question unshardable.
    """
    return get_algorithm(question.algorithm).shard_needs or None


def compute_shard_partial(points, start: int,
                          question: Question) -> ShardPartial:
    """Run the shard-local half of the scatter-gather on one row range.

    ``points`` are the rows ``[start, start + len(points))`` of the
    catalogue (typically a zero-copy view of a shared-memory
    snapshot).
    """
    pts = np.asarray(points, dtype=np.float64)
    needs = shard_plan(question)
    if needs is None:
        raise ValueError(f"algorithm {question.algorithm!r} has no "
                         f"shard plan for this question")
    stop = start + int(pts.shape[0])
    dom_ids = inc_ids = eq_ids = kth_ids = kth_scores = None
    if "partition" in needs:
        qv = np.asarray(question.q, dtype=np.float64)
        dom = dominates_mask(pts, qv)
        sub = dominated_by_mask(pts, qv)
        equal = np.all(pts == qv, axis=1)
        ids = np.arange(start, stop, dtype=np.int64)
        dom_ids = ids[dom]
        inc_ids = ids[~(dom | sub | equal)]
        eq_ids = ids[equal]
    if "kth" in needs:
        from repro.engine.kernels import topk_pairs

        kth_scores, kth_ids = topk_pairs(
            pts, question.why_not, question.k, id_base=start)
    return ShardPartial(start=start, stop=stop,
                        dominating_ids=dom_ids,
                        incomparable_ids=inc_ids, equal_ids=eq_ids,
                        kth_ids=kth_ids, kth_scores=kth_scores)


def merge_shard_partials(question: Question,
                         partials) -> Precompute:
    """Gather: fold shard partials into one catalogue-wide
    :class:`Precompute`.

    Shards must cover contiguous, disjoint row ranges; order of the
    input sequence does not matter.
    """
    parts = sorted(partials, key=lambda p: p.start)
    if not parts:
        raise ValueError("cannot merge zero shard partials")
    expect = parts[0].start
    for part in parts:
        if part.start != expect:
            raise ValueError(
                f"shard partials do not tile the catalogue: expected "
                f"a shard starting at row {expect}, got {part.start}")
        expect = part.stop

    incomparable = candidate_ids = None
    if parts[0].dominating_ids is not None:
        dom = np.sort(np.concatenate(
            [p.dominating_ids for p in parts]))
        inc = np.sort(np.concatenate(
            [p.incomparable_ids for p in parts]))
        eq = np.sort(np.concatenate([p.equal_ids for p in parts]))
        incomparable = IncomparableResult(dominating_ids=dom,
                                          incomparable_ids=inc)
        candidate_ids = np.sort(np.concatenate([dom, inc, eq]))

    kth_ids = kth_scores = None
    if parts[0].kth_ids is not None:
        ids = np.concatenate([p.kth_ids for p in parts], axis=1)
        scores = np.concatenate([p.kth_scores for p in parts], axis=1)
        k = question.k
        if ids.shape[1] >= k:
            m = ids.shape[0]
            kth_ids = np.empty(m, dtype=np.int64)
            kth_scores = np.empty(m, dtype=np.float64)
            for i in range(m):
                # k-th element of the global (score, id) total order —
                # identical to BRS's rank-k emission with ties broken
                # by ascending id.
                order = np.lexsort((ids[i], scores[i]))
                kth_ids[i] = ids[i][order[k - 1]]
                kth_scores[i] = scores[i][order[k - 1]]
        # else: fewer than k points in the whole catalogue — leave
        # kth unset so the finisher raises the canonical error.

    return Precompute(incomparable=incomparable,
                      candidate_ids=candidate_ids,
                      kth_ids=kth_ids, kth_scores=kth_scores)
