"""Catalogue — the versioned, mutable front door to a dataset.

The paper's why-not machinery assumes a fixed product set ``P``, and
until this module existed so did every entry point of the repro: a
catalogue was frozen at registration, and changing one product meant
reloading the array and rebuilding the R-tree, partitions and caches
from scratch.  A long-running service under live traffic needs the
opposite shape — data as an append/update stream over versioned
snapshots:

* a :class:`Catalogue` owns an append-log of mutations
  (:meth:`~Catalogue.add_products`, :meth:`~Catalogue.update_products`,
  :meth:`~Catalogue.remove_products`) and a monotonically versioned
  chain of immutable snapshots;
* each snapshot is a plain
  :class:`~repro.engine.context.DatasetContext`, derived
  **copy-on-write** from its predecessor
  (:meth:`~repro.engine.context.DatasetContext.derive`): unchanged
  arrays are reused, the R-tree is patched rather than re-bulk-loaded,
  and only the per-``q`` cache entries the mutation actually
  invalidated are dropped (an epoch check, not a flush);
* readers **pin** a snapshot (grab :attr:`~Catalogue.snapshot` once
  per request/batch) and get snapshot-consistent answers for its
  whole lifetime, no matter how far writers advance the version;
* every product has a **stable id**, assigned at add time and never
  reused, so mutations address products by id while the engine keeps
  its row-indexed internals (ids compact to rows per snapshot).

The pre-existing immutable entry points are untouched semantically: a
standalone ``DatasetContext`` *is* the snapshot of a single-version
catalogue (version 0), and
:class:`~repro.service.registry.CatalogueRegistry` now wraps every
registration in a ``Catalogue`` so the HTTP daemon can accept
mutations without restarting.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.engine.context import DEFAULT_CACHE_CAP, DatasetContext
from repro.engine.delta import SnapshotDelta

__all__ = ["Catalogue", "DEFAULT_DELTA_HISTORY", "MutationRecord"]

#: Deltas retained for :meth:`Catalogue.deltas_since`.  Enough that a
#: watch sweep lagging a burst of mutations still sees the full chain;
#: a subscriber further behind simply re-answers (the conservative
#: fallback), so the bound trades memory for skip opportunities, not
#: correctness.
DEFAULT_DELTA_HISTORY = 64


@dataclass(frozen=True)
class MutationRecord:
    """One entry of a catalogue's append-log.

    ``version`` is the snapshot version the mutation produced,
    ``op`` one of ``"add"`` / ``"update"`` / ``"remove"``,
    ``count`` the number of products it touched and ``n_after`` the
    catalogue size afterwards.
    """

    version: int
    op: str
    count: int
    n_after: int

    def to_dict(self) -> dict:
        return {"version": self.version, "op": self.op,
                "count": self.count, "n_after": self.n_after}


class Catalogue:
    """A mutable, versioned product set serving immutable snapshots.

    Parameters
    ----------
    points:
        Initial catalogue as an ``(n, d)`` array (version 0
        snapshot).  Ignored when ``context`` is given.
    context:
        Adopt an existing :class:`DatasetContext` as the version-0
        snapshot instead of building one — e.g. a context whose
        caches an embedding application already shares.
    capacity, max_partitions, max_box_caches:
        Forwarded to every snapshot the catalogue builds.

    Thread safety: mutations are serialized by an internal lock and
    swap the current snapshot atomically; :attr:`snapshot` is a single
    attribute read, so readers never block writers (or vice versa)
    beyond that read.  A reader that holds on to a snapshot keeps
    answering against it — old snapshots stay alive exactly as long
    as someone references them.
    """

    def __init__(self, points=None, *,
                 context: DatasetContext | None = None,
                 capacity: int | None = None,
                 max_partitions: int | None = DEFAULT_CACHE_CAP,
                 max_box_caches: int | None = DEFAULT_CACHE_CAP,
                 delta_history: int = DEFAULT_DELTA_HISTORY):
        if context is None:
            if points is None:
                raise ValueError("Catalogue needs points or a context")
            context = DatasetContext(points, capacity=capacity,
                                     max_partitions=max_partitions,
                                     max_box_caches=max_box_caches)
        elif points is not None:
            raise ValueError("pass either points or context, not both")
        self._lock = threading.RLock()
        self._snapshot = context
        self._ids = np.asarray(context.product_ids, dtype=np.int64)
        # _rows_for addresses ids via searchsorted, so the id array
        # must be strictly increasing — true for every id array this
        # class produces, enforced here for adopted contexts.
        if len(self._ids) > 1 and np.any(np.diff(self._ids) <= 0):
            raise ValueError("the adopted context's product_ids must "
                             "be strictly increasing")
        self._next_id = int(self._ids[-1]) + 1 if len(self._ids) else 0
        self._log: list[MutationRecord] = []
        self._deltas: deque[SnapshotDelta] = deque(
            maxlen=max(1, int(delta_history)))
        self._adds = 0
        self._updates = 0
        self._removes = 0

    # ------------------------------------------------------------------
    # Reading (pin a snapshot, then use it for the whole request)
    # ------------------------------------------------------------------

    @property
    def snapshot(self) -> DatasetContext:
        """The current snapshot.  Grab it **once** per request/batch:
        the returned context is immutable and snapshot-consistent for
        as long as you hold it, while the catalogue may advance."""
        return self._snapshot

    @property
    def version(self) -> int:
        return self._snapshot.version

    @property
    def n(self) -> int:
        return self._snapshot.n

    @property
    def dim(self) -> int:
        return self._snapshot.dim

    def product_ids(self) -> np.ndarray:
        """Stable ids of the current products (ascending)."""
        with self._lock:
            return self._ids.copy()

    def history(self) -> tuple[MutationRecord, ...]:
        """The append-log, oldest first."""
        with self._lock:
            return tuple(self._log)

    def deltas_since(self, version: int) -> list[SnapshotDelta] | None:
        """The delta chain from snapshot ``version`` to the current
        one, oldest first — what a subscriber pinned to ``version``
        must fold to catch up.

        Returns ``[]`` when ``version`` is current (or newer — a
        racing writer may have advanced past the caller's read), and
        ``None`` when the bounded history no longer reaches back to
        ``version``: the caller cannot prove anything about the
        missing prefix and must treat the answer as affected.
        """
        version = int(version)
        with self._lock:
            if version >= self._snapshot.version:
                return []
            chain = [delta for delta in self._deltas
                     if delta.version > version]
            if not chain or chain[0].parent_version != version:
                return None
            return chain

    def describe(self, *, with_snapshot: bool = False):
        """JSON-safe lifecycle summary: version, size, mutation
        counters — the payload behind ``GET /catalogues/<name>``.

        ``with_snapshot=True`` returns ``(summary, snapshot)`` where
        the snapshot is exactly the one the summary describes — a
        caller combining the two (the registry's ``describe_one``)
        must not read ``self.snapshot`` separately, or a concurrent
        writer can slip a newer snapshot between the two reads.
        """
        with self._lock:
            snapshot = self._snapshot
            summary = {
                "version": snapshot.version,
                "n": snapshot.n,
                "d": snapshot.dim,
                "next_product_id": self._next_id,
                "mutations": {
                    "count": len(self._log),
                    "adds": self._adds,
                    "updates": self._updates,
                    "removes": self._removes,
                },
            }
        return (summary, snapshot) if with_snapshot else summary

    # ------------------------------------------------------------------
    # Mutations (the append-log)
    # ------------------------------------------------------------------

    def _coerce_products(self, products) -> np.ndarray:
        try:
            pts = np.atleast_2d(np.asarray(products, dtype=np.float64))
        except (TypeError, ValueError):
            raise ValueError(f"products must be a numeric (m, d) "
                             f"array, got {products!r}") from None
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("products must be a non-empty (m, d) "
                             f"array, got shape {pts.shape}")
        if pts.shape[1] != self.dim:
            raise ValueError(
                f"products must have {self.dim} coordinates to match "
                f"the catalogue, got {pts.shape[1]}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("product coordinates must be finite")
        return pts

    def _rows_for(self, ids) -> np.ndarray:
        """Current rows of the given product ids (must all exist)."""
        try:
            wanted = np.asarray(ids, dtype=np.int64).reshape(-1)
        except (TypeError, ValueError):
            raise ValueError(f"ids must be a flat list of product "
                             f"ids, got {ids!r}") from None
        if wanted.size == 0:
            raise ValueError("ids must be non-empty")
        ordered = np.sort(wanted)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("ids must not contain duplicates")
        # self._ids is strictly increasing (append-only id assignment,
        # removal preserves order), so membership is a searchsorted.
        rows = np.searchsorted(self._ids, wanted)
        missing = ((rows >= len(self._ids))
                   | (self._ids[np.minimum(rows, len(self._ids) - 1)]
                      != wanted))
        if np.any(missing):
            bad = sorted(int(i) for i in wanted[missing])
            raise ValueError(f"unknown product id(s): {bad}")
        return rows

    def _commit(self, snapshot: DatasetContext, ids: np.ndarray,
                op: str, count: int, *, changed,
                removed_rows=()) -> None:
        parent = self._snapshot
        self._snapshot = snapshot
        self._ids = ids
        self._log.append(MutationRecord(
            version=snapshot.version, op=op, count=count,
            n_after=snapshot.n))
        self._deltas.append(SnapshotDelta.from_mutation(
            parent_version=parent.version, version=snapshot.version,
            op=op, changed=changed, removed_rows=removed_rows,
            n_after=snapshot.n))

    def add_products(self, products) -> np.ndarray:
        """Append products; returns their newly assigned stable ids.

        Advances the catalogue one version; the new snapshot inherits
        every cache entry the new coordinates cannot have affected.
        """
        with self._lock:
            pts = self._coerce_products(products)
            parent = self._snapshot
            new_ids = np.arange(self._next_id,
                                self._next_id + len(pts),
                                dtype=np.int64)
            ids = np.concatenate([self._ids, new_ids])
            snapshot = parent.derive(
                np.vstack([parent.points, pts]), appended=len(pts),
                version=parent.version + 1, product_ids=ids)
            self._next_id += len(pts)
            self._adds += len(pts)
            self._commit(snapshot, ids, "add", len(pts), changed=pts)
            return new_ids.copy()

    def update_products(self, ids, products) -> int:
        """Replace the coordinates of existing products (by id).

        Returns the new catalogue version.
        """
        with self._lock:
            pts = self._coerce_products(products)
            rows = self._rows_for(ids)
            if len(rows) != len(pts):
                raise ValueError(
                    f"update needs one coordinate row per id, got "
                    f"{len(rows)} id(s) and {len(pts)} row(s)")
            parent = self._snapshot
            new_pts = parent.points.copy()
            new_pts[rows] = pts
            snapshot = parent.derive(
                new_pts, updated_rows=rows,
                version=parent.version + 1,
                product_ids=self._ids)
            self._updates += len(rows)
            # Old and new coordinates both matter to relevance: the
            # same pair the derive() epoch check compares against.
            self._commit(snapshot, self._ids, "update", len(rows),
                         changed=np.vstack([parent.points[rows], pts]))
            return snapshot.version

    def remove_products(self, ids) -> int:
        """Delete products (by id); returns the new version.

        The surviving rows compact; the snapshot chain renumbers every
        inherited cache entry through the old→new row map, so
        untouched products keep their cached partitions.
        """
        with self._lock:
            rows = self._rows_for(ids)
            parent = self._snapshot
            if len(rows) >= parent.n:
                raise ValueError("cannot remove every product — a "
                                 "catalogue must stay non-empty")
            keep = np.ones(parent.n, dtype=bool)
            keep[rows] = False
            surviving = self._ids[keep]
            snapshot = parent.derive(
                np.compress(keep, parent.points, axis=0),
                removed_rows=rows,
                version=parent.version + 1, product_ids=surviving)
            self._removes += len(rows)
            self._commit(snapshot, surviving, "remove", len(rows),
                         changed=parent.points[rows],
                         removed_rows=rows)
            return snapshot.version

    def apply(self, op: str, *, ids=None, products=None) -> dict:
        """One mutation with an atomically consistent description.

        The wire endpoint needs the mutation *and* the resulting
        version/size as one unit — reading ``version``/``n`` after a
        typed mutation call could observe a concurrent writer's
        later commit.  Returns ``{"op", "ids", "version", "n"}``.
        """
        with self._lock:
            if op == "add":
                if products is None:
                    raise ValueError("'add' requires 'products'")
                out_ids = self.add_products(products).tolist()
            elif op == "update":
                if ids is None or products is None:
                    raise ValueError(
                        "'update' requires 'ids' and 'products'")
                self.update_products(ids, products)
                out_ids = [int(i) for i in np.asarray(ids).reshape(-1)]
            elif op == "remove":
                if ids is None:
                    raise ValueError("'remove' requires 'ids'")
                self.remove_products(ids)
                out_ids = [int(i) for i in np.asarray(ids).reshape(-1)]
            else:
                raise ValueError(f"op must be 'add', 'update' or "
                                 f"'remove', got {op!r}")
            return {"op": op, "ids": out_ids,
                    "version": self.version, "n": self.n}

    def __repr__(self) -> str:   # pragma: no cover - cosmetic
        return (f"Catalogue(version={self.version}, n={self.n}, "
                f"d={self.dim}, mutations={len(self._log)})")
