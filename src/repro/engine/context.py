"""DatasetContext — shared, cached per-catalogue execution state.

The paper's workload is inherently multi-query: a manufacturer asks
many why-not questions (one per product / customer-set pair) against
one catalogue.  Answering each question from scratch would re-pay the
**FindIncom** dominance partition of its query point (one dominance-
mask scan of ``P`` per ``q``) every time.

A :class:`DatasetContext` is the immutable home of one catalogue plus
lazily-built, cached derivations of it.  Everything downstream —
:class:`~repro.core.session.Session`, the executor, the service tier,
the CLI and the benchmark harness — constructs (or receives) one
context and shares it, so a 20-question batch scans per *distinct*
product rather than per question.  Cache effectiveness is observable
through :class:`ContextStats`, which the acceptance tests and the
``benchmarks/test_batch_reuse.py`` micro-benchmark assert against.

The **R-tree** over ``P`` is not a serving artifact: answering needs
no index (MQP's k-th points and FindIncom are scans).  :attr:`tree`
builds it on first use for the callers that traverse one — the paper
figures, explanations, reverse top-k and the ``use_rtree`` ablation —
and :meth:`derive` patches it forward only once it exists.

Thread safety: all caches are guarded by one lock, so a context can be
shared by the parallel batch executor
(:mod:`repro.engine.executor`).  Cached artifacts are treated as
immutable after insertion.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.incomparable import IncomparableCache, IncomparableResult
from repro.geometry.dominance import dominated_by_mask
from repro.index.rtree import RTree, compacted_row_map, sorted_unique_rows

#: Default bound on the per-``q`` caches.  Generous enough that a
#: single-catalogue batch run never evicts (the existing tests and
#: benchmarks all stay far below it), while still guaranteeing that a
#: long-running serving process holds bounded resident state no matter
#: how many distinct products flow past it.
DEFAULT_CACHE_CAP = 4096


@dataclass
class ContextStats:
    """Cache-effectiveness counters of one :class:`DatasetContext`.

    ``tree_builds`` and ``findincom_traversals`` count the expensive
    work actually performed (one ``findincom_traversals`` per
    ``FindIncom`` computed, now a mask scan rather than an R-tree
    traversal); ``partition_hits`` and
    ``box_cache_hits`` count the traversals *avoided* by the
    per-``q`` caches (MWK's exact partitions and MQWK's box caches
    respectively).  ``partition_evictions`` and
    ``box_cache_evictions`` count entries dropped by the LRU bound —
    nonzero means the working set exceeded ``max_partitions`` /
    ``max_box_caches`` and cold traversals are being re-paid.
    ``buffer_reuses`` counts score buffer requests served without a
    fresh allocation.

    A context *derived* from a parent snapshot (:meth:`DatasetContext
    .derive`, the catalogue mutation path) additionally reports how
    copy-on-write treated the parent's caches: ``tree_patches`` (the
    parent had built an R-tree, and it was patched rather than
    rebuilt; serving builds none, so this stays 0 there),
    ``partitions_inherited`` /
    ``box_caches_inherited`` (entries that survived the epoch check
    and were carried over) and ``partition_invalidations`` /
    ``box_cache_invalidations`` (entries the mutation made stale —
    the *only* ones dropped; everything else is retained).

    The delta-maintenance counters measure *answer*-level reuse (the
    watch subsystem, :mod:`repro.engine.delta`): ``delta_checks``
    relevance tests performed, ``watches_skipped`` standing answers
    proven untouched by a delta chain, ``watches_reanswered``
    answers actually recomputed.  A healthy low-churn workload shows
    skips dominating re-answers.
    """

    tree_builds: int = 0
    findincom_traversals: int = 0
    partition_hits: int = 0
    partition_misses: int = 0
    partition_evictions: int = 0
    box_cache_hits: int = 0
    box_cache_evictions: int = 0
    buffer_reuses: int = 0
    tree_patches: int = 0
    partitions_inherited: int = 0
    partition_invalidations: int = 0
    box_caches_inherited: int = 0
    box_cache_invalidations: int = 0
    delta_checks: int = 0
    watches_skipped: int = 0
    watches_reanswered: int = 0

    @property
    def index_work(self) -> int:
        """Total expensive index work: builds + traversals.

        This is the quantity the batch-reuse acceptance criterion
        compares between cold and warm serving paths.
        """
        return self.tree_builds + self.findincom_traversals

    @property
    def cache_hits(self) -> int:
        """Total traversals avoided, across both cache kinds."""
        return self.partition_hits + self.box_cache_hits

    @property
    def evictions(self) -> int:
        """Total LRU evictions, across both cache kinds."""
        return self.partition_evictions + self.box_cache_evictions


class DatasetContext:
    """Immutable catalogue + cached per-catalogue artifacts.

    Parameters
    ----------
    points:
        The catalogue ``P`` as an ``(n, d)`` array.  A read-only copy
        is stored; row index is the point id used across the library.
    tree:
        Optional pre-built R-tree over ``points`` (adopted as-is and
        not counted as a build).
    capacity:
        Node capacity forwarded to :class:`RTree` when the context
        builds the index itself.
    max_partitions, max_box_caches:
        LRU bound on the per-``q`` caches (default
        :data:`DEFAULT_CACHE_CAP`; ``None`` disables the bound).  A
        long-running serving process sees an unbounded stream of
        distinct products, so resident state must not grow with it:
        the least-recently-used entry is evicted once the cap is
        exceeded, counted in :class:`ContextStats`.
    version:
        Catalogue version this context is a snapshot of (0 for a
        standalone, non-catalogue context).  Stamped onto every
        :class:`~repro.core.protocol.Answer` produced against it.
    product_ids:
        Optional stable product id per row (what the catalogue
        lifecycle API addresses mutations by).  Defaults to the row
        index, which is what a standalone context has always meant.
    copy:
        Store a read-only copy of ``points`` (default).  ``False``
        adopts a C-contiguous float64 array as-is and marks it
        read-only — for a caller handing over a fresh array it no
        longer writes to, as :meth:`derive` does.
    """

    def __init__(self, points, *, tree: RTree | None = None,
                 capacity: int | None = None,
                 max_partitions: int | None = DEFAULT_CACHE_CAP,
                 max_box_caches: int | None = DEFAULT_CACHE_CAP,
                 version: int = 0, product_ids=None,
                 copy: bool = True):
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("DatasetContext requires a non-empty "
                             "(n, d) array")
        if tree is not None and (tree.points.shape != pts.shape
                                 or not np.array_equal(tree.points, pts)):
            raise ValueError("pre-built tree does not index the given "
                             "points")
        for name, cap in (("max_partitions", max_partitions),
                          ("max_box_caches", max_box_caches)):
            if cap is not None and cap < 1:
                raise ValueError(f"{name} must be positive or None")
        if int(version) < 0:
            raise ValueError(f"version must be >= 0, got {version!r}")
        if copy or not pts.flags.c_contiguous:
            pts = pts.copy()
        pts.setflags(write=False)
        self.points = pts
        self._capacity = capacity
        self._tree = tree
        self._lock = threading.Lock()
        self.max_partitions = max_partitions
        self.max_box_caches = max_box_caches
        self.version = int(version)
        #: Derivation depth: how many copy-on-write steps separate
        #: this snapshot from its root context (0 = built from
        #: scratch).  The per-entry epoch check itself runs eagerly
        #: inside :meth:`derive` — every inherited entry passed the
        #: delta's dominance test for this epoch, so no per-entry
        #: stamp needs to be stored or re-checked on lookup.
        self.epoch = 0
        if product_ids is not None:
            ids = np.asarray(product_ids, dtype=np.int64).reshape(-1)
            if ids.shape[0] != pts.shape[0]:
                raise ValueError(
                    f"product_ids must have one id per row "
                    f"({pts.shape[0]}), got {ids.shape[0]}")
            product_ids = ids.copy()
            product_ids.setflags(write=False)
        self._product_ids: np.ndarray | None = product_ids
        self._box_caches: OrderedDict[bytes, IncomparableCache] = \
            OrderedDict()
        self._partitions: OrderedDict[bytes, IncomparableResult] = \
            OrderedDict()
        self._score_buffer: np.ndarray | None = None
        self.stats = ContextStats()

    # ------------------------------------------------------------------
    # Shared-memory reattachment (multi-process serving)
    # ------------------------------------------------------------------

    @classmethod
    def from_shared(cls, manifest) -> "DatasetContext":
        """Reattach a context exported with
        :func:`repro.engine.shm.export_snapshot` — zero-copy.

        The point array and product ids come back as read-only numpy
        views over the shared segment; the per-``q`` caches start
        empty and rebuild lazily in this process, and so does the
        R-tree, for the rare caller that traverses one.  Version,
        epoch and cache caps are restored from the manifest, so
        answers computed here are byte-identical to the exporting
        process's (same data, same stamps).

        The attached segment handle is kept on the context
        (``_shm_segment``) so the mapping outlives every view; it is
        closed when the context is garbage collected, or explicitly
        by the worker pool when a version is retired.
        """
        from repro.engine import shm as shm_module

        arrays, segment = shm_module.attach_snapshot(manifest)
        ctx = object.__new__(cls)
        ctx.points = arrays["points"]
        ctx._capacity = manifest.capacity
        ctx._tree = None
        ctx._lock = threading.Lock()
        ctx.max_partitions = manifest.max_partitions
        ctx.max_box_caches = manifest.max_box_caches
        ctx.version = int(manifest.version)
        ctx.epoch = int(manifest.epoch)
        ctx._product_ids = arrays.get("product_ids")
        ctx._box_caches = OrderedDict()
        ctx._partitions = OrderedDict()
        ctx._score_buffer = None
        ctx.stats = ContextStats()
        ctx._shm_segment = segment
        return ctx

    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return int(self.points.shape[0])

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    @property
    def product_ids(self) -> np.ndarray:
        """Stable product id per row (row index when standalone)."""
        if self._product_ids is None:
            with self._lock:
                if self._product_ids is None:
                    ids = np.arange(self.n, dtype=np.int64)
                    ids.setflags(write=False)
                    self._product_ids = ids
        return self._product_ids

    @property
    def n_cached_partitions(self) -> int:
        """Resident ``FindIncom`` partitions (``<= max_partitions``)."""
        with self._lock:
            return len(self._partitions)

    @property
    def n_cached_box_caches(self) -> int:
        """Resident box caches (``<= max_box_caches``)."""
        with self._lock:
            return len(self._box_caches)

    @property
    def tree(self) -> RTree:
        """The shared R-tree (built once, on first use).

        Only R-tree traversals need it (paper figures, explanations,
        reverse top-k, ``use_rtree=True``); nothing on the answering
        path asks for it.
        """
        with self._lock:
            if self._tree is None:
                self._tree = RTree(self.points,
                                   capacity=self._capacity)
                self.stats.tree_builds += 1
            return self._tree

    # ------------------------------------------------------------------
    # FindIncom caching
    # ------------------------------------------------------------------

    @staticmethod
    def _key(q) -> bytes:
        return np.ascontiguousarray(
            np.asarray(q, dtype=np.float64)).tobytes()

    def partition(self, q) -> IncomparableResult:
        """Cached ``FindIncom`` partition for the query point ``q``.

        The first request for a given ``q`` performs one ``FindIncom``
        scan (via :meth:`box_cache`, so MQWK's box reuse rides the
        same artifact); repeated requests — the same product
        asked about by different customer sets — are LRU hits.  The
        cache holds at most ``max_partitions`` entries.
        """
        key = self._key(q)
        with self._lock:
            cached = self._partitions.get(key)
            if cached is not None:
                self._partitions.move_to_end(key)
                self.stats.partition_hits += 1
                return cached
        box = self.box_cache(q)
        result = box.partition(q)
        with self._lock:
            self.stats.partition_misses += 1
            self._partitions[key] = result
            self._partitions.move_to_end(key)
            if self.max_partitions is not None:
                while len(self._partitions) > self.max_partitions:
                    self._partitions.popitem(last=False)
                    self.stats.partition_evictions += 1
        return result

    def box_cache(self, q) -> IncomparableCache:
        """Cached :class:`IncomparableCache` for the box ``[0, q]``.

        One ``FindIncom`` serves every sample query point ``q' <= q``
        — the paper's Section 4.4 reuse technique, now also shared
        *across* questions with the same ``q``.  It is a dominance-
        mask scan of the point array, not the paper's R-tree
        traversal: in memory at low ``d`` the traversal prunes little
        and pays Python per node, while the scan finds the same
        candidate set, id-sorted, in a few numpy passes.
        """
        key = self._key(q)
        with self._lock:
            cached = self._box_caches.get(key)
            if cached is not None:
                self._box_caches.move_to_end(key)
                self.stats.box_cache_hits += 1
                return cached
        cache = IncomparableCache(self.points, q)
        with self._lock:
            # The scan was performed either way, so count it even
            # when another thread won the race and ours is discarded —
            # stats record work done, not cache contents.
            self.stats.findincom_traversals += 1
            existing = self._box_caches.get(key)
            if existing is not None:
                self._box_caches.move_to_end(key)
                return existing
            self._box_caches[key] = cache
            if self.max_box_caches is not None:
                while len(self._box_caches) > self.max_box_caches:
                    self._box_caches.popitem(last=False)
                    self.stats.box_cache_evictions += 1
        return cache

    # ------------------------------------------------------------------
    # Copy-on-write snapshot derivation (catalogue mutations)
    # ------------------------------------------------------------------

    def derive(self, points, *, removed_rows=(), updated_rows=(),
               appended: int = 0, version: int | None = None,
               product_ids=None) -> "DatasetContext":
        """A successor snapshot of this context after a mutation.

        This is the engine half of the catalogue lifecycle API
        (:class:`repro.data.catalogue.Catalogue` is the front door):
        the new context is built **copy-on-write** from this one
        rather than from scratch —

        * the new point array is adopted without a copy and made
          read-only (unchanged rows must carry identical coordinates,
          which is validated);
        * the R-tree, if this snapshot has built one, is **patched**
          (:meth:`repro.index.rtree.RTree.patched`) instead of
          re-bulk-loaded, counted in ``stats.tree_patches``;
        * the per-``q`` partition/box caches advance one *epoch*:
          each entry is checked against the delta and either promoted
          to the new epoch (``stats.partitions_inherited`` /
          ``box_caches_inherited``) or dropped
          (``stats.partition_invalidations`` /
          ``box_cache_invalidations``) — never flushed wholesale.

        The epoch check is a dominance test: an entry keyed by query
        point ``q`` only describes points *not* dominated by ``q``,
        so it stays exact as long as every changed coordinate (old
        and new) is strictly dominated by ``q`` — such points were
        invisible to the entry before the mutation and remain so
        after.  Equality is treated conservatively (dropped).

        This context is not modified: readers pinned to it keep
        getting snapshot-consistent answers.

        Parameters
        ----------
        points:
            Full new ``(n', d)`` array — removed rows compacted away,
            appended rows at the tail.
        removed_rows, updated_rows:
            Row indices *in this snapshot* that the mutation deleted /
            changed (disjoint).
        appended:
            Number of rows appended at the tail of ``points``.
        version:
            Catalogue version of the new snapshot (defaults to this
            snapshot's version + 1; must be larger).
        product_ids:
            Stable ids for the new rows (forwarded to the
            constructor).
        """
        new_pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        removed = sorted_unique_rows(removed_rows)
        updated = sorted_unique_rows(updated_rows)
        appended = int(appended)
        for label, rows in (("removed_rows", removed),
                            ("updated_rows", updated)):
            if len(rows) and (rows[0] < 0 or rows[-1] >= self.n):
                raise ValueError(f"{label} must index rows of this "
                                 f"snapshot (0..{self.n - 1})")
        if np.intersect1d(removed, updated, assume_unique=True).size:
            raise ValueError("removed_rows and updated_rows must be "
                             "disjoint")
        if appended < 0:
            raise ValueError("appended must be >= 0")
        expected = self.n - len(removed) + appended
        if new_pts.ndim != 2 or new_pts.shape != (expected, self.dim):
            raise ValueError(
                f"derive expects a ({expected}, {self.dim}) array "
                f"(this snapshot is ({self.n}, {self.dim}) with "
                f"{len(removed)} removed and {appended} appended), "
                f"got {new_pts.shape}")
        if version is None:
            version = self.version + 1
        elif int(version) <= self.version:
            raise ValueError(
                f"version must advance monotonically: "
                f"{version!r} <= current {self.version}")

        # Old row -> new row (only removals renumber) — the same map
        # RTree.patched applies to its leaf ids, shared so inherited
        # cache entries and the patched index can never disagree.
        row_map = compacted_row_map(self.n, removed)

        # Rows that differ from their predecessor must all be listed
        # in ``updated_rows``.  One elementwise comparison of the
        # surviving rows (a gather only when rows were removed) finds
        # them; the differing rows come out sorted, like ``allowed``.
        kept = (self.points if not len(removed)
                else np.compress(row_map >= 0, self.points, axis=0))
        moved = np.flatnonzero(new_pts[:len(kept)] != kept) // self.dim
        if moved.size:
            allowed = row_map[updated]
            at = np.searchsorted(allowed, moved)
            if at[-1] >= len(allowed) or np.any(allowed[at] != moved):
                raise ValueError("unchanged rows must carry identical "
                                 "coordinates in the derived snapshot")

        # Every coordinate the mutation touched, old and new: the
        # epoch check below compares cached entries against these.
        changed = np.vstack([
            self.points[removed], self.points[updated],
            new_pts[row_map[updated]], new_pts[expected - appended:],
        ]) if (len(removed) or len(updated) or appended) else \
            np.empty((0, self.dim))

        def survives(key: bytes) -> bool:
            if not len(changed):
                return True
            q = np.frombuffer(key, dtype=np.float64)
            return bool(dominated_by_mask(changed, q).all())

        with self._lock:
            tree = self._tree
            box_items = list(self._box_caches.items())
            part_items = list(self._partitions.items())

        if tree is not None:
            tree = RTree.patched(tree, new_pts, removed_rows=removed,
                                 updated_rows=updated,
                                 appended=appended)

        derived = DatasetContext(
            new_pts, tree=tree, capacity=self._capacity,
            max_partitions=self.max_partitions,
            max_box_caches=self.max_box_caches,
            version=int(version), product_ids=product_ids, copy=False)
        derived.epoch = self.epoch + 1
        if tree is not None:
            # RTree.patched falls back to a full bulk load when the
            # delta touched every surviving point — account that
            # honestly as a build.
            if getattr(tree, "was_patched", False):
                derived.stats.tree_patches = 1
            else:
                derived.stats.tree_builds = 1

        renumber = bool(len(removed))
        for key, cache in box_items:
            if survives(key):
                derived._box_caches[key] = (cache.remapped(row_map)
                                            if renumber else cache)
                derived.stats.box_caches_inherited += 1
            else:
                derived.stats.box_cache_invalidations += 1
        for key, part in part_items:
            if survives(key):
                if renumber:
                    part = IncomparableResult(
                        dominating_ids=row_map[part.dominating_ids],
                        incomparable_ids=row_map[part.incomparable_ids])
                derived._partitions[key] = part
                derived.stats.partitions_inherited += 1
            else:
                derived.stats.partition_invalidations += 1
        return derived

    # ------------------------------------------------------------------
    # Reusable score buffers
    # ------------------------------------------------------------------

    def score_buffer(self, m: int, n: int | None = None) -> np.ndarray:
        """A reusable ``(>= m, >= n)`` float64 scratch buffer.

        Grown geometrically and kept for the context's lifetime, so
        repeated same-shaped score-matrix computations (one per
        round of a serving loop) stop churning the allocator.  The
        buffer is a *scratch* area for single-threaded callers like
        :meth:`ranks`: its contents do not survive across calls, and
        concurrent executor workers must allocate locally instead
        (the buffer is handed out under the lock but not reserved).
        """
        n = self.n if n is None else int(n)
        with self._lock:
            buf = self._score_buffer
            if (buf is None or buf.shape[0] < m or buf.shape[1] < n):
                shape = (max(m, 2 * (buf.shape[0] if buf is not None
                                     else 0), 1),
                         max(n, buf.shape[1] if buf is not None else 0))
                self._score_buffer = np.empty(shape, dtype=np.float64)
            else:
                self.stats.buffer_reuses += 1
            return self._score_buffer

    def ranks(self, weights, q) -> np.ndarray:
        """Rank of ``q`` among the catalogue under each weight row.

        The full ``(m, n)`` score matrix is materialized into the
        reusable :meth:`score_buffer` — the repeated-call fast path a
        serving loop wants (e.g. validating whole customer panels
        against each product).  Single-threaded callers only; for
        unbounded ``m × n`` or concurrent use, call
        :func:`repro.engine.kernels.ranks_batch` (chunked, allocation
        -local) instead.
        """
        from repro.engine.kernels import RANK_EPS, score_matrix

        wts = np.atleast_2d(np.asarray(weights, dtype=np.float64))
        qv = np.asarray(q, dtype=np.float64)
        buf = self.score_buffer(len(wts), self.n)
        scores = score_matrix(wts, self.points, out=buf)
        q_scores = wts @ qv
        return 1 + np.count_nonzero(
            scores < q_scores[:, None] - RANK_EPS, axis=1).astype(
                np.int64)

    # ------------------------------------------------------------------
    # Question construction
    # ------------------------------------------------------------------

    def question(self, q, k: int, why_not, *,
                 require_missing: bool = True):
        """A :class:`~repro.core.types.WhyNotQuery` over this context.

        No index is built here: the question's ``rtree`` resolves to
        this context's shared :attr:`tree` on first use, so only the
        callers that traverse an R-tree pay for it.
        """
        from repro.core.types import WhyNotQuery

        return WhyNotQuery(points=self.points, q=q, k=k,
                           why_not=why_not, context=self,
                           require_missing=require_missing)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DatasetContext(n={self.n}, d={self.dim}, "
                f"cached_partitions={len(self._partitions)}, "
                f"stats={self.stats})")
