"""Tracing wrappers for the traced run (``--trace 1``).

:func:`install` wraps the public callables of each layer where their
callers look them up (module globals and class attributes) and
records, per span name, every call's wall time plus a few work
counters.  Nothing in the program changes: the wrappers live here
and are installed into the running interpreter only.  Spans are kept
in memory and written out once, at the end of the process
(:meth:`Recorder.dump`).

Layer map (span name -> wrapped callable):

=====================  ==============================================
``ranks``              ``engine.kernels.ranks_batch`` as called from
                       ``core.sampling``, ``core.audit``, ``core.types``
``sampling``           ``core.sampling.WeightSampleStream.take``
``mwk.scan``           ``core.mwk._scan_pool``
``findincom``          ``core.incomparable.IncomparableCache`` build
                       and ``partition``
``kth``                ``core.safe_region.kth_points_for`` (from MQP)
``qp``                 ``qp.problems.closest_point_in_halfspaces``
``audit``              ``core.audit.audit_result`` (from the executor)
``planner.observe``    ``planner.model.CostModel.observe``
``protocol.decode``    ``core.protocol.Question.from_dict``
``protocol.encode``    ``core.protocol.Answer.to_dict``
``admission.wait``     ``service.admission.AdmissionController._acquire``
``workers.roundtrip``  ``service.workers.WorkerPool.ask``/``ask_batch``
                       minus the worker-reported ``Answer.elapsed``
``catalogue.commit``   ``data.catalogue.Catalogue.apply``
``watch.reanswer``     ``service.watch.WatchManager._refresh`` calls
                       that re-answered
``jobs.queue_wait``    enqueue-to-start delay of ``JobManager.defer``
=====================  ==============================================

``DatasetContext.partition``/``box_cache``/``derive`` are wrapped only
to read the program's own :class:`ContextStats` counters around each
call, so the counts survive snapshot replacement by mutations.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


class Recorder:
    """Thread-safe in-memory span store."""

    def __init__(self):
        self._lock = threading.Lock()
        self.times: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        #: Non-zero while an in-process workload runs its own checks,
        #: so reference asks do not count as the workload's work.
        self._paused = 0

    def time(self, name: str, seconds: float) -> None:
        if not self._paused:
            with self._lock:
                self.times[name].append(seconds)

    def count(self, name: str, value: float) -> None:
        if not self._paused:
            with self._lock:
                self.counts[name] += value

    @contextlib.contextmanager
    def paused(self):
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def snapshot(self) -> dict:
        with self._lock:
            return {"times": {k: list(v) for k, v in self.times.items()},
                    "counts": dict(self.counts)}

    def dump(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)


RECORDER = Recorder()
_depth = threading.local()


def merge(snapshots) -> dict:
    """Union of several :meth:`Recorder.snapshot` dicts."""
    times: dict[str, list[float]] = defaultdict(list)
    counts: dict[str, float] = defaultdict(float)
    for snap in snapshots:
        for name, values in snap["times"].items():
            times[name].extend(values)
        for name, value in snap["counts"].items():
            counts[name] += value
    return {"times": dict(times), "counts": dict(counts)}


def _timed(name, fn, counter=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = _clock()
        out = fn(*args, **kwargs)
        RECORDER.time(name, _clock() - start)
        if counter is not None:
            for cname, value in counter(args, kwargs, out):
                RECORDER.count(cname, value)
        return out
    return wrapper


def _node_delta(name, fn, tree_of):
    """Time ``fn`` and add the R-tree node accesses it caused."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tree = tree_of(args, kwargs)
        stats = getattr(tree, "stats", None)
        before = stats.node_accesses if stats is not None else 0
        start = _clock()
        out = fn(*args, **kwargs)
        RECORDER.time(name, _clock() - start)
        if stats is not None:
            RECORDER.count("rtree.node_accesses",
                           stats.node_accesses - before)
        return out
    return wrapper


_CTX_FIELDS = ("partition_hits", "partition_misses", "box_cache_hits",
               "findincom_traversals")


def _context_counts(fn):
    """Add the ContextStats deltas of the outermost cache call."""
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        depth = getattr(_depth, "value", 0)
        if depth:
            return fn(self, *args, **kwargs)
        before = [getattr(self.stats, f) for f in _CTX_FIELDS]
        _depth.value = 1
        try:
            return fn(self, *args, **kwargs)
        finally:
            _depth.value = 0
            for field, old in zip(_CTX_FIELDS, before):
                RECORDER.count(f"context.{field}",
                               getattr(self.stats, field) - old)
    return wrapper


def _rows(args, kwargs, out):
    weights, points = args[0], args[1]
    dominating = kwargs.get("dominating", args[3] if len(args) > 3 else 0)
    n = len(points)
    if not isinstance(dominating, int) and hasattr(dominating, "__len__"):
        n += len(dominating)
    yield "ranks.rows", float(len(weights) * n)


def _patch(module: str, attr: str, make):
    mod = importlib.import_module(module)
    setattr(mod, attr, make(getattr(mod, attr)))


def install() -> None:
    """Wrap every traced callable in this interpreter (idempotent)."""
    if getattr(install, "done", False):
        return
    install.done = True

    for module in ("repro.core.sampling", "repro.core.audit",
                   "repro.core.types"):
        _patch(module, "ranks_batch",
               lambda fn: _timed("ranks", fn, _rows))

    from repro.core.sampling import WeightSampleStream
    WeightSampleStream.take = _timed(
        "sampling", WeightSampleStream.take,
        lambda a, kw, out: [("sampling.samples", float(len(out)))])

    _patch("repro.core.mwk", "_scan_pool", lambda fn: _timed(
        "mwk.scan", fn,
        lambda a, kw, out: [("mwk.thresholds",
                             float(out[3] if out else 0))]))

    from repro.core.incomparable import IncomparableCache
    IncomparableCache.__init__ = _node_delta(
        "findincom", IncomparableCache.__init__,
        lambda a, kw: a[1] if len(a) > 1 else kw.get("tree"))
    IncomparableCache.partition = _timed("findincom",
                                         IncomparableCache.partition)

    _patch("repro.core.mqp", "kth_points_for", lambda fn: _node_delta(
        "kth", fn, lambda a, kw: a[0]))
    _patch("repro.core.mqp", "closest_point_in_halfspaces",
           lambda fn: _timed("qp", fn, lambda a, kw, out: [
               ("qp.iterations", float(out.iterations))]))
    _patch("repro.engine.executor", "audit_result",
           lambda fn: _timed("audit", fn))

    from repro.planner.model import CostModel
    CostModel.observe = _timed("planner.observe", CostModel.observe)

    from repro.core.protocol import Answer, Question
    decode = Question.from_dict.__func__
    Question.from_dict = classmethod(_timed("protocol.decode", decode))
    Answer.to_dict = _timed("protocol.encode", Answer.to_dict)

    from repro.engine.context import DatasetContext
    DatasetContext.partition = _context_counts(DatasetContext.partition)
    DatasetContext.box_cache = _context_counts(DatasetContext.box_cache)
    derive = DatasetContext.derive

    @functools.wraps(derive)
    def traced_derive(self, *args, **kwargs):
        out = derive(self, *args, **kwargs)
        for field in ("tree_patches", "partitions_inherited",
                      "partition_invalidations"):
            RECORDER.count(f"context.{field}",
                           getattr(out.stats, field))
        return out
    DatasetContext.derive = traced_derive

    from repro.data.catalogue import Catalogue
    Catalogue.apply = _timed("catalogue.commit", Catalogue.apply)

    _install_service()


def _install_service() -> None:
    from repro.service.admission import AdmissionController
    AdmissionController._acquire = _timed("admission.wait",
                                          AdmissionController._acquire)

    from repro.service.workers import WorkerPool
    ask, ask_batch = WorkerPool.ask, WorkerPool.ask_batch

    @functools.wraps(ask)
    def traced_ask(self, *args, **kwargs):
        start = _clock()
        answer = ask(self, *args, **kwargs)
        RECORDER.time("workers.roundtrip",
                      _clock() - start - answer.elapsed)
        return answer

    @functools.wraps(ask_batch)
    def traced_ask_batch(self, *args, **kwargs):
        start = _clock()
        answers = ask_batch(self, *args, **kwargs)
        RECORDER.time("workers.roundtrip", _clock() - start
                      - sum(a.elapsed for a in answers))
        return answers
    WorkerPool.ask, WorkerPool.ask_batch = traced_ask, traced_ask_batch

    from repro.service.watch import WatchManager
    refresh = WatchManager._refresh

    @functools.wraps(refresh)
    def traced_refresh(self, watch):
        before = self.stats.watches_reanswered
        start = _clock()
        refresh(self, watch)
        if self.stats.watches_reanswered != before:
            RECORDER.time("watch.reanswer", _clock() - start)
    WatchManager._refresh = traced_refresh

    from repro.service.jobs import JobManager
    defer = JobManager.defer

    @functools.wraps(defer)
    def traced_defer(self, fn):
        queued = _clock()

        def run():
            RECORDER.time("jobs.queue_wait", _clock() - queued)
            return fn()
        return defer(self, run)
    JobManager.defer = traced_defer
