"""Serving layer: named catalogues behind a JSON-over-HTTP daemon.

The paper's workload is a *stream* of why-not questions against a
small set of catalogues, and the engine layer already made repeated
questions cheap — but only within one process invocation.  This
package turns the repro into a long-running service:

* :mod:`repro.service.registry` — :class:`CatalogueRegistry`, named
  catalogues each owning one LRU-bounded
  :class:`~repro.engine.context.DatasetContext` (served through a
  cached :class:`~repro.core.session.Session` per catalogue);
* :mod:`repro.service.server` — a stdlib-only
  (``http.server.ThreadingHTTPServer``) API speaking the versioned
  :mod:`repro.core.protocol` wire schema: ``/catalogues``,
  ``/algorithms``, ``/answer``, ``/batch`` and ``/stats``;
* :mod:`repro.service.client` — the matching ``urllib``-based client
  (typed ``ask``/``ask_batch`` plus dict-level wrappers) used by
  tests, benchmarks and the CI smoke check;
* :mod:`repro.service.workers` — :class:`WorkerPool`, the optional
  multi-process execution tier (``wqrtq serve --workers N --shards
  M``): spawned workers attach zero-copy shared-memory snapshots
  (:mod:`repro.engine.shm`) and answer questions whole or
  scatter-gathered over catalogue row ranges, byte-identically to
  the in-process path;
* :mod:`repro.service.watch` — :class:`WatchManager`, standing
  questions kept fresh by delta-driven maintenance
  (:mod:`repro.engine.delta`) and streamed to clients over
  long-poll or SSE (``POST /watches``, ``GET /watches/<id>/events``,
  ``wqrtq watch``).

``wqrtq serve`` (see :mod:`repro.cli`) is the command-line entry
point.  DESIGN.md's "service layer" section has the architecture
rationale.
"""

from repro.service.client import (
    ServiceClient,
    ServiceConnectionError,
    ServiceError,
)
from repro.service.jobs import Job, JobManager
from repro.service.registry import CatalogueRegistry
from repro.service.server import WhyNotServer, create_server
from repro.service.watch import Watch, WatchManager
from repro.service.workers import WorkerPool, WorkerPoolError

__all__ = [
    "CatalogueRegistry",
    "Job",
    "JobManager",
    "ServiceClient",
    "ServiceConnectionError",
    "ServiceError",
    "Watch",
    "WatchManager",
    "WhyNotServer",
    "WorkerPool",
    "WorkerPoolError",
    "create_server",
]
