"""Named catalogues, each a versioned, mutable :class:`Catalogue`.

A serving process typically fronts a handful of catalogues (one per
market / data product).  The registry is the single place they are
loaded, looked up — and now *mutated*: every registration is
wrapped in a :class:`~repro.data.catalogue.Catalogue`, so the HTTP
daemon can accept product add/update/remove mutations while readers
keep answering against their pinned snapshots.  Every request for the
same catalogue name rides the same LRU-bounded partition caches,
carried copy-on-write across versions.

Thread safety: the registry serves ``ThreadingHTTPServer`` handler
threads, so *every* access to its maps — registration, lookup,
enumeration, description — sits behind one re-entrant lock.  The
check-then-insert in :meth:`CatalogueRegistry.register_catalogue` is
atomic, and the per-name :class:`~repro.core.session.Session` cache
cannot hand two threads different sessions for one catalogue.
Mutations are serialized per catalogue by the catalogue's own lock.
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.core.session import Session
from repro.data.catalogue import Catalogue
from repro.engine.context import DEFAULT_CACHE_CAP, DatasetContext


class CatalogueRegistry:
    """Thread-safe name → :class:`Catalogue` mapping.

    Catalogues enter the registry four ways: an in-process array
    (:meth:`register`), an existing context (:meth:`register_context`,
    e.g. to share a cache with an embedding application — the context
    becomes the catalogue's version-0 snapshot), an existing
    :class:`Catalogue` (:meth:`register_catalogue`), or a ``.npz``
    archive written by :func:`repro.data.io.save_dataset`
    (:meth:`load`).  Registration builds no index: serving answers by
    scans, and the R-tree is built lazily for the callers that
    traverse one (``Session.explain``, ``Session.reverse_topk``).

    The pre-catalogue accessors stay: :meth:`get` returns the named
    catalogue's *current snapshot* (a plain
    :class:`~repro.engine.context.DatasetContext`), which is exactly
    what it returned when catalogues were immutable — an unmutated
    catalogue is a single-snapshot catalogue.

    Parameters
    ----------
    max_partitions, max_box_caches:
        Default LRU bounds applied to every context the registry
        constructs (overridable per catalogue).
    """

    def __init__(self, *,
                 max_partitions: int | None = DEFAULT_CACHE_CAP,
                 max_box_caches: int | None = DEFAULT_CACHE_CAP):
        self.max_partitions = max_partitions
        self.max_box_caches = max_box_caches
        self._lock = threading.RLock()
        self._catalogues: dict[str, Catalogue] = {}
        self._sessions: dict[str, Session] = {}
        self._meta: dict[str, dict] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, name: str, points, *,
                 max_partitions: int | None = None,
                 max_box_caches: int | None = None,
                 meta: dict | None = None) -> DatasetContext:
        """Register an in-process point array under ``name``."""
        catalogue = Catalogue(
            points,
            max_partitions=(self.max_partitions if max_partitions
                            is None else max_partitions),
            max_box_caches=(self.max_box_caches if max_box_caches
                            is None else max_box_caches))
        self.register_catalogue(name, catalogue, meta=meta)
        return catalogue.snapshot

    def register_context(self, name: str, context: DatasetContext, *,
                         meta: dict | None = None) -> DatasetContext:
        """Adopt an existing context as a catalogue's first snapshot."""
        catalogue = Catalogue(context=context)
        self.register_catalogue(name, catalogue, meta=meta)
        return context

    def register_catalogue(self, name: str, catalogue: Catalogue, *,
                           meta: dict | None = None) -> Catalogue:
        """Adopt an existing :class:`Catalogue` under ``name``."""
        if not name:
            raise ValueError("catalogue name must be non-empty")
        with self._lock:
            if name in self._catalogues:
                raise ValueError(f"catalogue {name!r} already "
                                 "registered")
            self._catalogues[name] = catalogue
            self._meta[name] = dict(meta or {})
        return catalogue

    def load(self, name: str, path, *,
             max_partitions: int | None = None,
             max_box_caches: int | None = None) -> DatasetContext:
        """Register a catalogue from a ``save_dataset`` archive."""
        from repro.data.io import load_dataset

        points, meta = load_dataset(path)
        meta["path"] = str(Path(path))
        return self.register(name, points,
                             max_partitions=max_partitions,
                             max_box_caches=max_box_caches, meta=meta)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def catalogue(self, name: str) -> Catalogue:
        """The named :class:`Catalogue` handle (mutations go here)."""
        with self._lock:
            try:
                return self._catalogues[name]
            except KeyError:
                known = ", ".join(sorted(self._catalogues)) or "<none>"
                raise KeyError(f"unknown catalogue {name!r} "
                               f"(registered: {known})") from None

    def get(self, name: str) -> DatasetContext:
        """The named catalogue's *current snapshot*."""
        return self.catalogue(name).snapshot

    def session(self, name: str) -> Session:
        """The (cached) :class:`~repro.core.session.Session` serving
        ``name`` — the object behind the ``/answer`` and ``/batch``
        endpoints, and the one to embed when an application wants to
        share a catalogue's caches with the HTTP daemon.  The session
        follows the catalogue: each ``ask``/``ask_batch`` call pins
        the snapshot current at its entry."""
        catalogue = self.catalogue(name)
        with self._lock:
            session = self._sessions.get(name)
            if session is None:
                session = Session(catalogue=catalogue)
                self._sessions[name] = session
            return session

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._catalogues)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._catalogues

    def __len__(self) -> int:
        with self._lock:
            return len(self._catalogues)

    # ------------------------------------------------------------------
    # Description
    # ------------------------------------------------------------------

    def describe(self) -> list[dict]:
        """JSON-safe description of every catalogue, with cache stats
        — the payload behind the ``/catalogues`` endpoint."""
        with self._lock:
            names = sorted(self._catalogues)
        return [self.describe_one(name) for name in names]

    def describe_one(self, name: str) -> dict:
        """One catalogue's description: shape, version, mutation
        counters, LRU bounds and cache stats — the payload behind
        ``GET /catalogues/<name>``."""
        with self._lock:
            catalogue = self.catalogue(name)
            meta = dict(self._meta.get(name, {}))
        # One atomic read: the stats must belong to the same snapshot
        # the version/size fields describe.
        lifecycle, context = catalogue.describe(with_snapshot=True)
        stats = context.stats
        return {
            "name": name,
            "n": lifecycle["n"],
            "d": lifecycle["d"],
            "version": lifecycle["version"],
            "mutations": lifecycle["mutations"],
            "next_product_id": lifecycle["next_product_id"],
            "max_partitions": context.max_partitions,
            "max_box_caches": context.max_box_caches,
            "cached_partitions": context.n_cached_partitions,
            "cached_box_caches": context.n_cached_box_caches,
            # Allowlist JSON-safe scalars instead of excluding
            # ndarray: describe() feeds json.dumps, and the service
            # tier is numpy-free (SERVICE-PURITY), so it cannot name
            # the array type to exclude it.
            "meta": {k: v for k, v in meta.items()
                     if isinstance(v, (str, int, float, bool))
                     or v is None},
            "stats": {
                "tree_builds": stats.tree_builds,
                "tree_patches": stats.tree_patches,
                "findincom_traversals": stats.findincom_traversals,
                "partition_hits": stats.partition_hits,
                "partition_misses": stats.partition_misses,
                "partition_evictions": stats.partition_evictions,
                "partitions_inherited": stats.partitions_inherited,
                "partition_invalidations":
                    stats.partition_invalidations,
                "box_cache_hits": stats.box_cache_hits,
                "box_cache_evictions": stats.box_cache_evictions,
                "box_caches_inherited": stats.box_caches_inherited,
                "box_cache_invalidations":
                    stats.box_cache_invalidations,
                "buffer_reuses": stats.buffer_reuses,
                "delta_checks": stats.delta_checks,
                "watches_skipped": stats.watches_skipped,
                "watches_reanswered": stats.watches_reanswered,
                "cache_hits": stats.cache_hits,
                "evictions": stats.evictions,
                "index_work": stats.index_work,
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CatalogueRegistry({self.names()})"
