"""Stdlib-only JSON-over-HTTP server speaking the typed wire schema.

``http.server`` is not a production web stack, but it is the right
tool here: the repro must stay dependency-free, the payloads are tiny
JSON documents, and the actual work per request — NumPy/BLAS kernels
that release the GIL — parallelizes fine under
``ThreadingHTTPServer``'s thread-per-request model combined with the
executor's ``workers=`` thread pool for ``/batch``.

The wire format *is* the public schema of
:mod:`repro.core.protocol`: requests carry
``Question.to_dict()`` payloads, responses carry
``Answer.to_dict()`` payloads, and the schema-speaking endpoints echo
``schema_version`` so clients can verify they negotiated the same
encoding.  There is no server-private encoder/decoder pair — the same
``to_dict``/``from_dict`` methods the library uses do the wire work.

Endpoints
---------

``GET /health``
    Liveness probe: ``{"status": "ok"}``.
``GET /catalogues``
    Registered catalogues with shapes, LRU bounds and cache stats.
``GET /catalogues/<name>``
    One catalogue's lifecycle state: ``version``, size, mutation
    counters, cache stats.  Unknown names are ``404``.
``POST /catalogues/<name>/products``
    Mutate a catalogue in place: ``{"op": "add", "products": [...]}``
    (returns the assigned stable ids), ``{"op": "update", "ids":
    [...], "products": [...]}`` or ``{"op": "remove", "ids": [...]}``.
    Each mutation advances the catalogue one version; responses carry
    the new ``catalogue_version``.  In-flight requests pinned to an
    older snapshot are unaffected; subsequent ``/answer`` responses
    answer against — and are stamped with — the new version.
``GET /algorithms``
    The registered refinement algorithms (name, summary, accepted
    options) — enumerated from the algorithm registry, never
    hard-coded.
``GET /stats``
    Per-endpoint request counts / error counts / latency aggregates
    plus the per-catalogue cache stats — the observability surface the
    load benchmark and the CI smoke test read.
``POST /answer``
    One question: ``{"catalogue", "question": Question.to_dict(),
    "seed"}`` → ``{"schema_version", "item": Answer.to_dict()}``.
``POST /batch``
    Many questions: ``{"catalogue", "questions": [...], "seed",
    "workers"}`` → ``{"schema_version", "items": [...],
    "summary": {...}}``.
``POST /explain``
    The cost-based plan for one question *without executing it*:
    the same body as ``/answer`` → ``{"schema_version", "plan":
    Plan.to_dict(), "rendered": <Impala-style text>}``.  The latency
    estimate comes from the server's online-calibrated
    :class:`~repro.planner.model.CostModel`; ``/answer``, ``/batch``
    and job executions feed it.
``POST /jobs``
    Submit a batch *asynchronously*: ``{"catalogue", "questions":
    [...], "seed", "budget"}`` → ``202`` with the queued job's
    progress snapshot.  ``budget`` (a
    :class:`~repro.core.protocol.Budget` dict) becomes the default
    for every question that carries none; the batch refines
    interleaved on the :class:`~repro.service.jobs.JobManager`
    worker pool.
``GET /jobs`` / ``GET /jobs/<id>``
    All jobs' / one job's progress: status (``queued → running →
    done | cancelled | failed``), done/total counts, current
    per-item penalties.  Unknown ids are ``404``.
``GET /jobs/<id>/result``
    The finished job's answers + summary; ``409`` (with the progress
    snapshot) while the job is still queued or running.  A cancelled
    job returns every answer refined before the cancellation point
    (items never started render ``null``).
``DELETE /jobs/<id>``
    Cooperative cancellation: sets a flag the refinement loop polls
    between chunks — a running kernel is never interrupted and no
    partial state persists.
``POST /watches``
    Register a standing question: ``{"catalogue", "question":
    Question.to_dict(), "seed"}`` (or the pre-schema flat fields) →
    ``201`` with the watch descriptor and its ``seq`` 0 event — the
    immediate answer.  Subsequent catalogue mutations re-answer the
    watch *only* when the delta can reach it (see
    :mod:`repro.engine.delta`); refreshed answers append to the
    watch's event stream.
``GET /watches`` / ``GET /watches/<id>``
    All watch descriptors / one descriptor.  Unknown ids are ``404``.
``GET /watches/<id>/events?cursor=&timeout_ms=``
    The watch's events past ``cursor`` (default ``-1``: from the
    start of the retained buffer).  Long-poll: blocks up to
    ``timeout_ms`` (capped) for the first event; a lapse returns an
    *empty* batch, not an error.  With ``Accept: text/event-stream``
    the same path streams SSE frames (``id:`` = cursor, ``event:`` =
    kind, ``data:`` = the event payload) until the terminal ``end``
    event; ``Last-Event-ID`` resumes a dropped stream.
``DELETE /watches/<id>``
    Unregister: consumers receive a terminal ``end`` event.

Both POST endpoints also accept the pre-schema flat form
(``{"q", "k", "why_not", "algorithm", "sample_size"}`` fields, or
3-element ``[q, k, why_not]`` batch entries); those payloads are
upgraded to :class:`Question` objects on arrival, so old clients keep
working against one dispatch path — including the old error
contract: a pre-schema entry whose *content* fails validation (an
off-simplex row, ``k < 1``) still comes back as a failed item, never
as a request-level error that would lose its siblings' answers.

Client errors (malformed JSON, unknown catalogue/algorithm,
structurally malformed payloads, a *typed* question payload that
fails construction-time validation, an unsupported
``schema_version``) are ``400`` with ``{"error": ...}``; unknown
paths are ``404``.  Per-question failures at answer time —
catalogue-dependent validation or an algorithm error — are not HTTP
errors: they come back as answers with ``error`` set, exactly like
the library-level executor.

``/answer``, ``/batch`` and ``POST /jobs`` additionally pass through
the :class:`~repro.service.admission.AdmissionController` when one
is configured: shed requests are ``429`` with ``{"error", "admission":
AdmissionDecision.to_dict()}`` and — when retrying can help — a
``Retry-After`` header.  Admitted requests execute unchanged, so
admission never alters an Answer payload.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlsplit

from repro.core.protocol import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    Answer,
    Budget,
    ErrorInfo,
    Question,
    check_schema_version,
    summarize_answers,
)
from repro.core.registry import algorithm_names, get_algorithm
from repro.planner import CostModel, build_plan, render_plan
from repro.planner.model import sample_target as planner_sample_target
from repro.service.admission import AdmissionController
from repro.service.jobs import JobManager
from repro.service.registry import CatalogueRegistry
from repro.service.watch import WatchManager

#: Upper bound on one long-poll / SSE wait leg.  Long-poll requests
#: asking for more are clamped; SSE waits this long between
#: keep-alive comments, so a dead peer is noticed within a leg.
MAX_POLL_TIMEOUT_MS = 30_000


@dataclass
class EndpointStats:
    """Latency/throughput aggregates for one endpoint."""

    requests: int = 0
    errors: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0

    def as_dict(self, uptime: float) -> dict:
        """The aggregates, with ``throughput_rps`` as requests per
        second of the server's ``uptime`` (not ``1 / mean``, which
        is a service rate that ignores idle time and concurrency)."""
        mean = (self.total_seconds / self.requests
                if self.requests else 0.0)
        return {
            "requests": self.requests,
            "errors": self.errors,
            "total_seconds": self.total_seconds,
            "mean_seconds": mean,
            "max_seconds": self.max_seconds,
            "throughput_rps": (self.requests / uptime
                               if uptime > 0 else 0.0),
        }


@dataclass
class ServiceStats:
    """Thread-safe per-endpoint request statistics."""

    started: float = field(default_factory=time.time)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _endpoints: dict[str, EndpointStats] = field(default_factory=dict)

    def record(self, endpoint: str, seconds: float, *,
               error: bool = False) -> None:
        with self._lock:
            stats = self._endpoints.setdefault(endpoint,
                                               EndpointStats())
            stats.requests += 1
            stats.errors += int(error)
            stats.total_seconds += seconds
            stats.max_seconds = max(stats.max_seconds, seconds)

    def snapshot(self) -> dict:
        uptime = time.time() - self.started
        with self._lock:
            endpoints = {name: stats.as_dict(uptime) for name, stats
                         in sorted(self._endpoints.items())}
        return {
            "uptime_seconds": uptime,
            "endpoints": endpoints,
        }


def _numeric_vector(values) -> list | None:
    """``values`` as a list of floats, or ``None`` when it is not a
    flat numeric sequence (the structural-400 condition).  Honours
    ``.tolist()`` so in-process callers may still pass ndarrays; the
    server itself is numpy-free (SERVICE-PURITY) — real validation
    happens again inside the Question constructor, below the seam.
    """
    tolist = getattr(values, "tolist", None)
    if callable(tolist):
        values = tolist()
    if not isinstance(values, (list, tuple)):
        return None
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            return None
        out.append(float(v))
    return out


def _weight_rows(values, d: int) -> list | None:
    """``values`` as an ``(m, d)`` list of float rows, promoting a
    flat vector to one row (the ``np.atleast_2d`` contract); ``None``
    when any row is non-numeric or of the wrong width."""
    tolist = getattr(values, "tolist", None)
    if callable(tolist):
        values = tolist()
    if not isinstance(values, (list, tuple)):
        return None
    flat = _numeric_vector(values)
    if flat is not None:
        values = [flat]
    rows = []
    for row in values:
        row = _numeric_vector(row)
        if row is None or len(row) != d:
            return None
        rows.append(row)
    return rows


def _legacy_question_or_failure(raw_q, raw_k, raw_wm, *, spec,
                                sample_size: int, index: int = 0,
                                entry_id=None):
    """Upgrade one pre-schema entry, preserving the legacy error
    contract.

    The old server split malformed input in two: structural problems
    (non-numeric/non-flat ``q``, mismatched ``why_not`` shape, a
    non-integer ``k``) were HTTP 400s — reproduced here by raising —
    while *content* problems (off-simplex rows, negative
    coordinates, ``k < 1``) surfaced per item at answer time.  The
    typed schema now catches the latter at Question construction, so
    they are converted into pre-failed :class:`Answer` placeholders
    instead of failing the whole request: one poisoned entry must
    not lose its siblings' answers.
    """
    q = _numeric_vector(raw_q)
    if q is None:
        raise ValueError("q must be a flat coordinate list")
    wm = _weight_rows(raw_wm, len(q))
    if wm is None:
        raise ValueError("why_not must be a (m, d) weight list "
                         "matching q's dimensionality")
    k = int(raw_k)
    identifier = entry_id if isinstance(entry_id, str) else None
    try:
        return Question.from_legacy(q, k, wm, algorithm=spec.name,
                                    sample_size=sample_size,
                                    id=identifier)
    except ValueError as exc:
        return Answer(index=index, algorithm=spec.name, result=None,
                      penalty=float("nan"), valid=False,
                      error=ErrorInfo.from_exception(exc),
                      elapsed=0.0, question_id=identifier)


def _parse_questions(body: dict, entries) -> list:
    """Typed Questions (or pre-failed Answers) from wire entries.

    An entry is a full ``Question.to_dict()`` payload (recognized by
    its explicit ``schema_version`` stamp, which ``to_dict`` always
    writes and pre-schema clients never did — any other key would
    widen the heuristic into legacy territory), a pre-schema
    ``{q, k, why_not}`` object, or a pre-schema 3-element list.  The
    pre-schema forms inherit the body-level ``sample_size`` and —
    unless the entry carries its own ``algorithm`` field (a flat
    ``/answer`` shape reused as a batch entry) — the body-level
    ``algorithm``.  Typed payloads validate strictly (a bad one
    fails the request); pre-schema entries keep the legacy per-item
    error contract.
    """
    spec = get_algorithm(body.get("algorithm", "mqp"))
    sample_size = int(body.get("sample_size", 200))
    questions = []
    for index, entry in enumerate(entries):
        entry_spec = spec
        if isinstance(entry, dict):
            if "schema_version" in entry:
                questions.append(Question.from_dict(entry))
                continue
            try:
                raw = (entry["q"], entry["k"], entry["why_not"])
            except KeyError as exc:
                raise ValueError(
                    f"question missing field {exc}") from None
            entry_id = entry.get("id")
            if "algorithm" in entry:
                # A flat /answer-style shape reused as a batch entry:
                # honor its algorithm rather than silently answering
                # with the body-level one.
                entry_spec = get_algorithm(entry["algorithm"])
        elif isinstance(entry, (list, tuple)) and len(entry) == 3:
            raw = tuple(entry)
            entry_id = None
        else:
            raise ValueError(
                "each question must be a Question payload, a "
                "{q, k, why_not} object or a 3-element list")
        questions.append(_legacy_question_or_failure(
            *raw, spec=entry_spec, sample_size=sample_size,
            index=index, entry_id=entry_id))
    return questions


class WhyNotRequestHandler(BaseHTTPRequestHandler):
    """Routes requests against the owning server's registry."""

    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every connection.  A kept-alive HTTP/1.1
    #: client acknowledges late (delayed ACK), and Nagle's algorithm
    #: would hold any small segment sent behind an unacknowledged one
    #: until that ACK arrives — ~40 ms per response.
    disable_nagle_algorithm = True
    server: "WhyNotServer"

    # -- plumbing ------------------------------------------------------

    def log_message(self, format, *args):   # noqa: A002
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict,
                   headers: dict | None = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, str(value))
        if self.request_version == "HTTP/0.9":   # a bare body
            self.wfile.write(body)
            return
        # Headers and body leave in one write (what end_headers()
        # would flush, with the body appended): one segment per small
        # response instead of two.
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _drain_body(self) -> None:
        """Consume an unused request body.

        Keep-alive (HTTP/1.1) requires every handler to read the full
        body before responding — leftover bytes would be parsed as the
        start of the connection's next request.
        """
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            self.rfile.read(length)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        try:
            body = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"request body is not valid JSON: {exc}")
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        check_schema_version(body, where="request")
        return body

    def _handle(self, endpoint: str, fn) -> None:
        start = time.perf_counter()
        error = False
        headers = None
        try:
            result = fn()
            if len(result) == 3:   # (status, payload, headers)
                status, payload, headers = result
            else:
                status, payload = result
        except (ValueError, TypeError, KeyError) as exc:
            # TypeError covers malformed scalar payload fields, e.g.
            # ``"seed": null`` hitting int() — a client error, not
            # ours.
            error = True
            message = (str(exc.args[0]) if isinstance(exc, KeyError)
                       and exc.args else str(exc))
            status, payload = 400, {"error": message}
        except Exception as exc:   # pragma: no cover - defensive
            error = True
            status, payload = 500, {
                "error": f"{type(exc).__name__}: {exc}"}
        try:
            self._send_json(status, payload, headers)
        finally:
            self.server.service_stats.record(
                endpoint, time.perf_counter() - start,
                error=error or status >= 400)

    # -- routing -------------------------------------------------------

    @staticmethod
    def _catalogue_path(path: str, *, suffix: str = "") -> str | None:
        """The catalogue name in ``/catalogues/<name>[/suffix]``,
        or ``None`` when ``path`` has a different shape."""
        prefix = "/catalogues/"
        if not path.startswith(prefix) or not path.endswith(suffix):
            return None
        name = path[len(prefix):len(path) - len(suffix)]
        if not name or "/" in name:
            return None
        return unquote(name)

    @staticmethod
    def _job_path(path: str, *, suffix: str = "") -> str | None:
        """The job id in ``/jobs/<id>[/suffix]``, or ``None``."""
        prefix = "/jobs/"
        if not path.startswith(prefix) or not path.endswith(suffix):
            return None
        job_id = path[len(prefix):len(path) - len(suffix)]
        if not job_id or "/" in job_id:
            return None
        return unquote(job_id)

    @staticmethod
    def _watch_path(path: str, *, suffix: str = "") -> str | None:
        """The watch id in ``/watches/<id>[/suffix]``, or ``None``.

        ``path`` must already be query-stripped — the events route
        is the one endpoint family that takes query parameters.
        """
        prefix = "/watches/"
        if not path.startswith(prefix) or not path.endswith(suffix):
            return None
        watch_id = path[len(prefix):len(path) - len(suffix)]
        if not watch_id or "/" in watch_id:
            return None
        return unquote(watch_id)

    def do_GET(self) -> None:   # noqa: N802 (http.server API)
        name = self._catalogue_path(self.path)
        job_id = self._job_path(self.path)
        result_id = self._job_path(self.path, suffix="/result")
        plain = urlsplit(self.path).path
        events_id = self._watch_path(plain, suffix="/events")
        watch_id = self._watch_path(plain)
        if self.path == "/health":
            self._handle("GET /health",
                         lambda: (200, {"status": "ok"}))
        elif self.path == "/catalogues":
            self._handle("GET /catalogues", self._get_catalogues)
        elif name is not None:
            # The stats key stays templated: one aggregate per route,
            # not one per catalogue name.
            self._handle("GET /catalogues/<name>",
                         lambda: self._get_catalogue(name))
        elif self.path == "/algorithms":
            self._handle("GET /algorithms", self._get_algorithms)
        elif self.path == "/stats":
            self._handle("GET /stats", self._get_stats)
        elif self.path == "/jobs":
            self._handle("GET /jobs", self._get_jobs)
        elif result_id is not None:
            self._handle("GET /jobs/<id>/result",
                         lambda: self._get_job_result(result_id))
        elif job_id is not None:
            self._handle("GET /jobs/<id>",
                         lambda: self._get_job(job_id))
        elif self.path == "/watches":
            self._handle("GET /watches", self._get_watches)
        elif events_id is not None:
            self._get_watch_events(events_id)
        elif watch_id is not None:
            self._handle("GET /watches/<id>",
                         lambda: self._get_watch(watch_id))
        else:
            self._not_found()

    def do_POST(self) -> None:   # noqa: N802 (http.server API)
        name = self._catalogue_path(self.path, suffix="/products")
        if self.path == "/answer":
            self._handle("POST /answer", self._post_answer)
        elif self.path == "/batch":
            self._handle("POST /batch", self._post_batch)
        elif self.path == "/explain":
            self._handle("POST /explain", self._post_explain)
        elif self.path == "/jobs":
            self._handle("POST /jobs", self._post_jobs)
        elif self.path == "/watches":
            self._handle("POST /watches", self._post_watches)
        elif name is not None:
            self._handle("POST /catalogues/<name>/products",
                         lambda: self._post_products(name))
        else:
            self._not_found()

    def do_DELETE(self) -> None:   # noqa: N802 (http.server API)
        job_id = self._job_path(self.path)
        watch_id = self._watch_path(self.path)
        if job_id is not None:
            self._handle("DELETE /jobs/<id>",
                         lambda: self._delete_job(job_id))
        elif watch_id is not None:
            self._handle("DELETE /watches/<id>",
                         lambda: self._delete_watch(watch_id))
        else:
            self._not_found()

    def _not_found(self) -> None:
        self._drain_body()
        self._handle("404", lambda: (404, {
            "error": f"unknown path {self.path!r}"}))

    # -- endpoints -----------------------------------------------------

    def _get_catalogues(self) -> tuple[int, dict]:
        return 200, {"catalogues": self.server.registry.describe()}

    def _get_catalogue(self, name: str) -> tuple[int, dict]:
        try:
            entry = self.server.registry.describe_one(name)
        except KeyError as exc:
            # A missing *resource* is a 404 — unlike /answer, where an
            # unknown catalogue is a malformed request body (400).
            return 404, {"error": str(exc.args[0])}
        entry["schema_version"] = SCHEMA_VERSION
        return 200, entry

    def _post_products(self, name: str) -> tuple[int, dict]:
        body = self._read_json()
        try:
            catalogue = self.server.registry.catalogue(name)
        except KeyError as exc:
            return 404, {"error": str(exc.args[0])}
        # apply() validates the op and its required fields, commits
        # the mutation and reports version/size as one atomic unit —
        # a concurrent mutation cannot mis-stamp this response with
        # its own version.
        applied = catalogue.apply(body.get("op"),
                                  ids=body.get("ids"),
                                  products=body.get("products"))
        if self.server.pool is not None:
            # Publish before responding: the next request must answer
            # against (and be stamped with) the committed version.
            self.server.pool.publish(name)
        # Watch maintenance is asynchronous by design: the sweep is
        # deferred to the job pool, so the mutation response never
        # waits on re-answers.
        self.server.watches.publish(name)
        return 200, {
            "schema_version": SCHEMA_VERSION,
            "catalogue": name,
            "op": applied["op"],
            "catalogue_version": applied["version"],
            "n": applied["n"],
            "ids": applied["ids"],
        }

    def _get_algorithms(self) -> tuple[int, dict]:
        return 200, {
            "schema_version": SCHEMA_VERSION,
            "algorithms": [get_algorithm(name).describe()
                           for name in algorithm_names()],
        }

    def _get_stats(self) -> tuple[int, dict]:
        payload = self.server.service_stats.snapshot()
        payload["catalogues"] = self.server.registry.describe()
        payload["watches"] = self.server.watches.describe()
        payload["admission"] = self.server.admission.describe()
        payload["planner"] = self.server.cost_model.describe()
        if self.server.pool is not None:
            payload["workers"] = self.server.pool.stats()
        return 200, payload

    def _executor(self, body: dict):
        """The execution surface for ``/answer`` / ``/batch``: the
        worker pool when one serves the named catalogue, else the
        in-process session.  Both are returned — the session stamps
        pre-failed legacy entries either way."""
        name = self._required(body, "catalogue")
        session = self.server.registry.session(name)
        pool = self.server.pool
        if pool is not None and pool.serves(name):
            return name, session, pool
        return name, session, None

    @staticmethod
    def _response_version(body: dict) -> int:
        """The schema version to speak back: the one the request
        declared (a version-1 client must receive version-1 payloads
        or its own version check rejects the reply), current when
        unstamped."""
        version = body.get("schema_version")
        return (version if version in SUPPORTED_SCHEMA_VERSIONS
                else SCHEMA_VERSION)

    @staticmethod
    def _render_item(answer: Answer, version: int) -> dict:
        """``Answer.to_dict()`` rendered at the negotiated version.

        Each downgrade step drops exactly the fields the older
        schema never had: version 2 lacked ``quality``, version 1
        additionally lacked ``catalogue_version``.  Version 3 is
        field-identical to 4 for Answer payloads (4 only *added* the
        watch event envelope), so re-stamping is the whole
        downgrade."""
        item = answer.to_dict()
        if version < SCHEMA_VERSION:
            item["schema_version"] = version
        if version < 3:
            item.pop("quality", None)
        if version < 2:
            item.pop("catalogue_version", None)
        return item

    # -- planning & admission ------------------------------------------

    def _estimate(self, name: str, session, question: Question):
        """The cost model's prediction for one typed question."""
        context = session.context
        return self.server.cost_model.estimate(
            algorithm=question.algorithm, n=context.n, d=context.dim,
            k=question.k, m=question.n_why_not,
            budget=question.budget, options=question.options,
            catalogue=name)

    def _admission_guard(self, name: str, session, questions,
                         version: int):
        """Run the admission controller over a request's questions.

        Returns ``(decision, None)`` when admitted, or ``(decision,
        (429, payload, headers))`` ready to send when shed.  The
        deadline check uses the worst estimate-vs-deadline offender;
        quota consumption is the typed-question count.
        """
        typed = [q for q in questions if isinstance(q, Question)]
        controller = self.server.admission
        priority = max((q.priority for q in typed), default=0)
        tenant = next((q.tenant for q in typed
                       if q.tenant is not None), None)
        estimate = budget = worst = None
        if controller.enforces_deadlines:
            for question in typed:
                if question.budget is None or \
                        question.budget.deadline_ms is None:
                    continue
                candidate = self._estimate(name, session, question)
                over = candidate.est_latency_ms \
                    - float(question.budget.deadline_ms)
                if worst is None or over > worst:
                    worst = over
                    estimate = candidate
                    budget = question.budget
        decision = controller.decide(
            estimate=estimate, budget=budget, priority=priority,
            tenant=tenant, weight=max(len(typed), 1))
        if decision.admitted:
            return decision, None
        payload = {
            "schema_version": version,
            "error": (f"admission rejected ({decision.reason}): "
                      f"{decision.detail}"),
            "admission": decision.to_dict(),
        }
        headers = None
        if decision.retry_after_ms is not None:
            seconds = max(-(-int(decision.retry_after_ms) // 1000), 1)
            headers = {"Retry-After": seconds}
        return decision, (429, payload, headers)

    def _observe_answers(self, name: str, session, questions,
                         answers) -> None:
        """Feed executed answers' timings back into the cost model."""
        model = self.server.cost_model
        context = session.context
        for question, answer in zip(questions, answers):
            if not isinstance(question, Question) or answer is None \
                    or not answer.ok:
                continue
            quality = answer.quality
            samples = (quality.samples_examined
                       if quality is not None else
                       planner_sample_target(
                           question.algorithm, budget=question.budget,
                           options=question.options))
            model.observe(
                algorithm=question.algorithm, n=context.n,
                d=context.dim, k=question.k, m=question.n_why_not,
                samples=samples, elapsed=answer.elapsed,
                options=question.options, catalogue=name)

    def _post_explain(self) -> tuple[int, dict]:
        body = self._read_json()
        version = self._response_version(body)
        name, session, pool = self._executor(body)
        if "question" in body:
            question = Question.from_dict(body["question"])
        else:
            missing = [key for key in ("q", "k", "why_not")
                       if key not in body]
            if missing:
                raise ValueError(f"request is missing "
                                 f"{', '.join(map(repr, missing))}")
            # EXPLAIN has no legacy error contract to honor: a
            # content-invalid question cannot be planned, so the
            # ValueError surfaces as a 400.
            question = Question.from_legacy(
                body["q"], body["k"], body["why_not"],
                algorithm=body.get("algorithm", "mqp"),
                sample_size=body.get("sample_size"),
                id=body.get("id"))
        context = session.context
        pool_workers = 0
        shards = 1
        pooled = pool is not None
        if pooled:
            pool_workers = pool.workers
            shards = pool.shards
        plan = build_plan(
            question, n=context.n, d=context.dim,
            model=self.server.cost_model, catalogue=name,
            catalogue_version=session.catalogue_version,
            workers=pool_workers, shards=shards, pooled=pooled)
        return 200, {
            "schema_version": version,
            "plan": plan.to_dict(),
            "rendered": render_plan(plan, budget=question.budget),
        }

    def _post_answer(self) -> tuple[int, dict]:
        body = self._read_json()
        version = self._response_version(body)
        name, session, pool = self._executor(body)
        if "question" in body:
            question = Question.from_dict(body["question"])
        else:
            # Pre-schema flat body: q/k/why_not + algorithm/sample_size
            # as sibling top-level fields (legacy error contract:
            # content failures are 200 items, not 400s).
            missing = [key for key in ("q", "k", "why_not")
                       if key not in body]
            if missing:
                raise ValueError(f"request is missing "
                                 f"{', '.join(map(repr, missing))}")
            question = _legacy_question_or_failure(
                body["q"], body["k"], body["why_not"],
                spec=get_algorithm(body.get("algorithm", "mqp")),
                sample_size=int(body.get("sample_size", 200)),
                entry_id=body.get("id"))
        if isinstance(question, Answer):   # pre-failed legacy entry
            question = dataclasses.replace(
                question,
                catalogue_version=session.catalogue_version)
            return 200, {"schema_version": version,
                         "item": self._render_item(question, version)}
        decision, shed = self._admission_guard(name, session,
                                               [question], version)
        if shed is not None:
            return shed
        seed = int(body.get("seed", 0))
        with self.server.admission.slot(priority=question.priority,
                                        tenant=question.tenant):
            if pool is not None:
                answer = pool.ask(name, question, seed=seed)
            else:
                answer = session.ask(question, seed=seed)
        self._observe_answers(name, session, [question], [answer])
        return 200, {"schema_version": version,
                     "item": self._render_item(answer, version)}

    def _post_batch(self) -> tuple[int, dict]:
        body = self._read_json()
        version = self._response_version(body)
        name, session, pool = self._executor(body)
        entries = body.get("questions")
        if not isinstance(entries, list) or not entries:
            raise ValueError("questions must be a non-empty list")
        questions = _parse_questions(body, entries)
        decision, shed = self._admission_guard(name, session,
                                               questions, version)
        if shed is not None:
            return shed
        start = time.perf_counter()
        with self.server.admission.slot(priority=decision.priority,
                                        tenant=decision.tenant):
            if pool is not None:
                # The process pool supersedes the request's
                # thread-pool hint: the batch splits into per-worker
                # slices instead.
                answers = pool.ask_batch(
                    name, questions, seed=int(body.get("seed", 0)))
            else:
                answers = session.ask_batch(
                    questions, seed=int(body.get("seed", 0)),
                    workers=int(body.get("workers", 1)))
        self._observe_answers(name, session, questions, answers)
        summary = summarize_answers(
            answers, wall_seconds=time.perf_counter() - start)
        return 200, {
            "schema_version": version,
            "items": [self._render_item(answer, version)
                      for answer in answers],
            "summary": summary,
        }

    # -- async jobs ----------------------------------------------------

    def _post_jobs(self) -> tuple[int, dict]:
        body = self._read_json()
        catalogue = self._required(body, "catalogue")
        entries = body.get("questions")
        if not isinstance(entries, list) or not entries:
            raise ValueError("questions must be a non-empty list")
        questions = _parse_questions(body, entries)
        default_budget = body.get("budget")
        if default_budget is not None:
            default_budget = Budget.from_dict(default_budget)
            questions = [
                dataclasses.replace(question, budget=default_budget)
                if isinstance(question, Question)
                and question.budget is None else question
                for question in questions]
        # Jobs are asynchronous: the deadline/quota verdict applies
        # at submission, but execution is metered by the job pool
        # itself rather than an admission slot.
        session = self.server.registry.session(catalogue)
        _, shed = self._admission_guard(
            catalogue, session, questions, SCHEMA_VERSION)
        if shed is not None:
            return shed
        try:
            job = self.server.jobs.submit(
                catalogue, questions, seed=int(body.get("seed", 0)))
        except KeyError as exc:
            raise ValueError(str(exc.args[0])) from None
        return 202, {"schema_version": SCHEMA_VERSION,
                     "job": job.progress()}

    def _get_jobs(self) -> tuple[int, dict]:
        return 200, {
            "schema_version": SCHEMA_VERSION,
            "jobs": [job.progress()
                     for job in self.server.jobs.jobs()],
        }

    def _job_or_404(self, job_id: str):
        try:
            return self.server.jobs.get(job_id), None
        except KeyError as exc:
            return None, (404, {"error": str(exc.args[0])})

    def _get_job(self, job_id: str) -> tuple[int, dict]:
        job, missing = self._job_or_404(job_id)
        if missing:
            return missing
        payload = job.progress()
        payload["schema_version"] = SCHEMA_VERSION
        return 200, payload

    def _get_job_result(self, job_id: str) -> tuple[int, dict]:
        job, missing = self._job_or_404(job_id)
        if missing:
            return missing
        if not job.is_finished:
            # 409: the resource exists but is not collectible yet —
            # the progress snapshot tells the client when to retry.
            return 409, {"error": f"job {job_id!r} is not finished",
                         "job": job.progress()}
        return 200, {
            "schema_version": SCHEMA_VERSION,
            "job": job.progress(),
            "items": [None if answer is None
                      else self._render_item(answer, SCHEMA_VERSION)
                      for answer in job.answers()],
            "summary": job.summary(),
        }

    def _delete_job(self, job_id: str) -> tuple[int, dict]:
        self._drain_body()
        job, missing = self._job_or_404(job_id)
        if missing:
            return missing
        job = self.server.jobs.cancel(job_id)
        payload = job.progress()
        payload["schema_version"] = SCHEMA_VERSION
        return 200, payload

    # -- watches -------------------------------------------------------

    def _post_watches(self) -> tuple[int, dict]:
        body = self._read_json()
        catalogue = self._required(body, "catalogue")
        if "question" in body:
            question = Question.from_dict(body["question"])
        else:
            # The flat pre-schema shape, accepted for symmetry with
            # /answer — but watches are a schema-4 surface, so a
            # content-invalid question is a 400, not a failed item.
            missing = [key for key in ("q", "k", "why_not")
                       if key not in body]
            if missing:
                raise ValueError(f"request is missing "
                                 f"{', '.join(map(repr, missing))}")
            q = _numeric_vector(body["q"])
            if q is None:
                raise ValueError("q must be a flat coordinate list")
            wm = _weight_rows(body["why_not"], len(q))
            if wm is None:
                raise ValueError("why_not must be a (m, d) weight "
                                 "list matching q's dimensionality")
            entry_id = body.get("id")
            question = Question.from_legacy(
                q, int(body["k"]), wm,
                algorithm=get_algorithm(
                    body.get("algorithm", "mqp")).name,
                sample_size=int(body.get("sample_size", 200)),
                id=entry_id if isinstance(entry_id, str) else None)
        watch, event = self.server.watches.create(
            catalogue, question, seed=int(body.get("seed", 0)))
        return 201, {
            "schema_version": SCHEMA_VERSION,
            "watch": watch.describe(),
            "event": event.to_dict(),
        }

    def _watch_or_404(self, watch_id: str):
        try:
            return self.server.watches.get(watch_id), None
        except KeyError as exc:
            return None, (404, {"error": str(exc.args[0])})

    def _get_watches(self) -> tuple[int, dict]:
        return 200, {
            "schema_version": SCHEMA_VERSION,
            "watches": [watch.describe() for watch
                        in self.server.watches.watches()],
        }

    def _get_watch(self, watch_id: str) -> tuple[int, dict]:
        watch, missing = self._watch_or_404(watch_id)
        if missing:
            return missing
        payload = watch.describe()
        payload["schema_version"] = SCHEMA_VERSION
        return 200, payload

    def _delete_watch(self, watch_id: str) -> tuple[int, dict]:
        self._drain_body()
        try:
            watch = self.server.watches.delete(watch_id)
        except KeyError as exc:
            return 404, {"error": str(exc.args[0])}
        payload = watch.describe()
        payload["schema_version"] = SCHEMA_VERSION
        return 200, payload

    def _get_watch_events(self, watch_id: str) -> None:
        """Dispatch the events route by transport: SSE when the
        client accepts ``text/event-stream``, long-poll JSON
        otherwise."""
        query = parse_qs(urlsplit(self.path).query)
        accept = self.headers.get("Accept", "")
        if "text/event-stream" in accept:
            self._stream_watch_events(watch_id, query)
        else:
            self._handle(
                "GET /watches/<id>/events",
                lambda: self._poll_watch_events(watch_id, query))

    @staticmethod
    def _query_int(query: dict, key: str, default: int) -> int:
        values = query.get(key)
        if not values:
            return default
        return int(values[-1])

    def _poll_watch_events(self, watch_id: str,
                           query: dict) -> tuple[int, dict]:
        watch, missing = self._watch_or_404(watch_id)
        if missing:
            return missing
        cursor = self._query_int(query, "cursor", -1)
        timeout_ms = min(max(0, self._query_int(query, "timeout_ms",
                                                0)),
                         MAX_POLL_TIMEOUT_MS)
        events = watch.events_after(cursor,
                                    timeout=timeout_ms / 1000.0)
        return 200, {
            "schema_version": SCHEMA_VERSION,
            "watch_id": watch.id,
            "cursor": events[-1].seq if events else cursor,
            "events": [event.to_dict() for event in events],
        }

    def _stream_watch_events(self, watch_id: str,
                             query: dict) -> None:
        """SSE transport: stream frames until the terminal event.

        Handled outside ``_handle`` — the response is not one JSON
        document.  ``Last-Event-ID`` (the standard SSE resume
        header) wins over the ``cursor`` query parameter.
        """
        watch, missing = self._watch_or_404(watch_id)
        if missing:
            self._handle("GET /watches/<id>/events",
                         lambda: missing)
            return
        last_id = self.headers.get("Last-Event-ID")
        if last_id not in (None, ""):
            cursor = int(last_id)
        else:
            cursor = self._query_int(query, "cursor", -1)
        start = time.perf_counter()
        self.close_connection = True   # stream ends by closing
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            while True:
                batch = watch.events_after(
                    cursor, timeout=MAX_POLL_TIMEOUT_MS / 1000.0)
                for event in batch:
                    cursor = event.seq
                    frame = (f"id: {event.seq}\n"
                             f"event: {event.kind}\n"
                             f"data: {json.dumps(event.to_dict())}"
                             f"\n\n")
                    self.wfile.write(frame.encode("utf-8"))
                if not batch:
                    if watch.closed:
                        return
                    # Keep-alive comment: flushes through proxies and
                    # surfaces a dead peer as a write error.
                    self.wfile.write(b": keep-alive\n\n")
                self.wfile.flush()
                if any(event.kind == "end" for event in batch):
                    return
        except (BrokenPipeError, ConnectionResetError):
            return   # client went away; nothing to report
        finally:
            self.server.service_stats.record(
                "GET /watches/<id>/events (sse)",
                time.perf_counter() - start)

    @staticmethod
    def _required(body: dict, key: str):
        try:
            return body[key]
        except KeyError:
            raise ValueError(f"request is missing {key!r}") from None


class WhyNotServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` owning a registry, request stats, the
    async job pool and — when ``workers > 0`` — the multi-process
    :class:`~repro.service.workers.WorkerPool`.

    With a worker pool, ``/answer`` and ``/batch`` execute in worker
    processes attached to shared-memory snapshots (see
    :mod:`repro.service.workers`); catalogue mutations publish the
    new version to the pool before responding, so the next request
    answers against it.  Answers are byte-identical to the in-process
    path.

    ``server_close`` drains gracefully: ``block_on_close`` (the
    ``socketserver`` default) joins every in-flight handler thread,
    the job manager cancels outstanding jobs cooperatively and joins
    its workers, the worker pool stops its processes, and every
    shared-memory segment this process still owns is unlinked — no
    partial job state survives, and ``/dev/shm`` is left clean."""

    daemon_threads = True

    def __init__(self, address, registry: CatalogueRegistry, *,
                 verbose: bool = False, job_workers: int = 2,
                 workers: int = 0, shards: int = 1,
                 max_concurrent: int | None = None,
                 max_queue: int = 64,
                 tenant_rate: float | None = None,
                 tenant_burst: float | None = None,
                 enforce_deadlines: bool = False,
                 calibration_path: str | None = None):
        super().__init__(address, WhyNotRequestHandler)
        self.registry = registry
        self.service_stats = ServiceStats()
        self.verbose = verbose
        self.cost_model = self._load_cost_model(calibration_path)
        self._calibration_path = calibration_path
        self.admission = AdmissionController(
            max_concurrent=max_concurrent, max_queue=max_queue,
            tenant_rate=tenant_rate, tenant_burst=tenant_burst,
            enforce_deadlines=enforce_deadlines)
        self.jobs = JobManager(registry, workers=job_workers,
                               observer=self._observe_job_answer)
        self.watches = WatchManager(registry, self.jobs)
        self.pool = None
        if workers > 0:
            from repro.service.workers import WorkerPool

            try:
                self.pool = WorkerPool(registry, workers=workers,
                                       shards=shards)
            except BaseException:
                self.jobs.shutdown()
                super().server_close()
                raise

    def server_close(self) -> None:
        # Drain the watches FIRST: long-poll and SSE handlers block
        # on watch condition variables, and super().server_close()
        # joins every in-flight handler thread — the terminal events
        # must be pushed before the join, or the drain stalls a full
        # poll timeout.  Then stop accepting + join handler threads,
        # then drain the job pool (a handler blocked on /jobs
        # submission must not race a closing manager), then the
        # process pool, then sweep any shm segment still owned (belt
        # and braces: shutdown() already unlinked the published
        # ones).
        self.watches.shutdown()
        super().server_close()
        self.jobs.shutdown()
        if self.pool is not None:
            self.pool.shutdown()
        from repro.engine.shm import sweep_owned_segments

        sweep_owned_segments()
        if self._calibration_path is not None:
            try:
                self.cost_model.save(self._calibration_path)
            except OSError:   # pragma: no cover - best-effort persist
                pass

    @staticmethod
    def _load_cost_model(path: str | None) -> CostModel:
        if path is not None:
            try:
                return CostModel.load(path)
            except (OSError, ValueError):
                pass   # first boot, or an unreadable state file
        return CostModel()

    def _observe_job_answer(self, catalogue: str, context,
                            question: Question,
                            answer: Answer) -> None:
        """Job-pool completions feed the same calibration stream as
        the synchronous endpoints."""
        quality = answer.quality
        samples = (quality.samples_examined if quality is not None
                   else planner_sample_target(
                       question.algorithm, budget=question.budget,
                       options=question.options))
        self.cost_model.observe(
            algorithm=question.algorithm, n=context.n, d=context.dim,
            k=question.k, m=question.n_why_not, samples=samples,
            elapsed=answer.elapsed, options=question.options,
            catalogue=catalogue)

    @property
    def port(self) -> int:
        return int(self.server_address[1])

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"


def create_server(registry: CatalogueRegistry, *,
                  host: str = "127.0.0.1", port: int = 0,
                  verbose: bool = False, job_workers: int = 2,
                  workers: int = 0, shards: int = 1,
                  max_concurrent: int | None = None,
                  max_queue: int = 64,
                  tenant_rate: float | None = None,
                  tenant_burst: float | None = None,
                  enforce_deadlines: bool = False,
                  calibration_path: str | None = None
                  ) -> WhyNotServer:
    """Bind a :class:`WhyNotServer` (``port=0`` → ephemeral port).

    ``workers > 0`` starts a multi-process
    :class:`~repro.service.workers.WorkerPool`: ``/answer`` and
    ``/batch`` execute in spawned worker processes attached to
    zero-copy shared-memory snapshots, ``shards > 1`` additionally
    scatter-gathers each shardable question over catalogue row
    ranges.  ``workers=0`` (default) keeps the single-process
    threaded execution path.

    The caller drives it: ``serve_forever()`` to block (the CLI), or
    a daemon thread + ``shutdown()`` for embedding in tests:

    >>> from repro.service import CatalogueRegistry, create_server
    >>> import numpy as np, threading
    >>> registry = CatalogueRegistry()
    >>> _ = registry.register("demo", np.random.default_rng(0)
    ...                       .random((64, 2)))
    >>> server = create_server(registry)
    >>> thread = threading.Thread(target=server.serve_forever,
    ...                           daemon=True)
    >>> thread.start()
    >>> server.port > 0
    True
    >>> server.shutdown(); server.server_close()

    The admission knobs (``max_concurrent``/``max_queue`` execution
    gating, per-tenant ``tenant_rate``/``tenant_burst`` token
    buckets, ``enforce_deadlines``) default to off: an unconfigured
    server admits everything, exactly as before the controller
    existed.  ``calibration_path`` persists the cost model's
    coefficients across restarts (loaded at boot, saved on drain).
    """
    return WhyNotServer((host, port), registry, verbose=verbose,
                        job_workers=job_workers, workers=workers,
                        shards=shards, max_concurrent=max_concurrent,
                        max_queue=max_queue, tenant_rate=tenant_rate,
                        tenant_burst=tenant_burst,
                        enforce_deadlines=enforce_deadlines,
                        calibration_path=calibration_path)
