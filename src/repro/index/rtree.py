"""A from-scratch R-tree over a static point dataset.

Two construction paths are provided:

* **Sort-Tile-Recursive (STR) bulk loading** (default) — packs the
  points into fully-utilized leaves by recursively sorting and tiling
  one dimension at a time, then builds the upper levels the same way.
  This yields the compact, well-clustered tree the paper's experiments
  assume (page size 4096 bytes).
* **Incremental insertion** — classic Guttman insert with
  least-enlargement subtree choice and quadratic split, used by tests to
  cross-check that traversal results do not depend on tree shape.

Traversal state (heap ordering, pruning) lives in the *consumers*
(:mod:`repro.topk.brs`, :mod:`repro.core.incomparable`); the tree only
exposes its root node, child MBR arrays, and node-access accounting.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from repro.index.mbr import MBR

#: Bytes per R-tree page, mirroring the paper's experimental setup.
PAGE_SIZE_BYTES = 4096
#: Bytes per stored coordinate (float64).
_COORD_BYTES = 8
#: Per-entry bookkeeping bytes (child pointer / record id).
_POINTER_BYTES = 8


def compacted_row_map(n: int, removed_rows) -> np.ndarray:
    """Old-row → new-row map after deleting ``removed_rows`` from a
    compact ``0..n-1`` row space (removed entries map to ``-1``).

    The single definition both :meth:`RTree.patched` (renumbering
    leaf ids) and ``DatasetContext.derive`` (renumbering inherited
    cache entries that reference those ids) share — the two mappings
    must be identical or cached ids would point at the wrong rows.
    """
    removed = np.asarray(removed_rows, dtype=np.int64).reshape(-1)
    keep = np.ones(n, dtype=bool)
    keep[removed] = False
    row_map = np.full(n, -1, dtype=np.int64)
    row_map[keep] = np.arange(int(keep.sum()))
    return row_map


def sorted_unique_rows(rows) -> np.ndarray:
    """Distinct row indices of ``rows``, ascending, as int64.

    ``np.unique`` without its cost on the mutation path: its first
    call in a process imports ``numpy.ma`` (20–30 ms), which would
    otherwise land on a daemon's first catalogue mutation.
    """
    arr = np.sort(np.asarray(rows, dtype=np.int64).reshape(-1))
    if arr.size > 1:
        arr = arr[np.concatenate(([True], arr[1:] != arr[:-1]))]
    return arr


def default_capacity(dim: int, *, page_size: int = PAGE_SIZE_BYTES) -> int:
    """Entries per node for a given dimensionality and page size.

    An internal entry stores an MBR (2·d coordinates) plus a child
    pointer; we use the same capacity for leaves for simplicity.  The
    result is clamped to at least 4 so degenerate dimensionalities still
    produce a valid tree.
    """
    entry_bytes = 2 * dim * _COORD_BYTES + _POINTER_BYTES
    return max(4, page_size // entry_bytes)


@dataclass
class RTreeStats:
    """Mutable node-access counters (the paper's I/O proxy).

    Increments are unguarded: exact under single-threaded traversal,
    approximate when multiple threads traverse one tree (e.g. the
    parallel batch executor) — acceptable for a measurement proxy,
    but serial runs are required when asserting exact counts.
    """

    node_accesses: int = 0
    leaf_accesses: int = 0

    def reset(self) -> None:
        self.node_accesses = 0
        self.leaf_accesses = 0


class Node:
    """One R-tree node.

    Leaves hold ``point_ids`` (indices into the tree's point array);
    internal nodes hold child ``Node`` objects.  ``child_lowers`` /
    ``child_uppers`` cache the children's MBR corners as contiguous
    arrays so consumers can compute pruning keys for all children with
    one vectorized operation.
    """

    __slots__ = ("is_leaf", "children", "point_ids", "mbr",
                 "child_lowers", "child_uppers")

    def __init__(self, *, is_leaf: bool):
        self.is_leaf = is_leaf
        self.children: list["Node"] = []
        self.point_ids: list[int] = []
        self.mbr: MBR | None = None
        self.child_lowers: np.ndarray | None = None
        self.child_uppers: np.ndarray | None = None

    def refresh_arrays(self, points: np.ndarray) -> None:
        """Recompute the cached child-MBR arrays and this node's MBR."""
        if self.is_leaf:
            pts = points[self.point_ids]
            self.child_lowers = pts
            self.child_uppers = pts
            self.mbr = MBR.of_points(pts) if len(pts) else None
        else:
            self.child_lowers = np.array(
                [c.mbr.lower for c in self.children])
            self.child_uppers = np.array(
                [c.mbr.upper for c in self.children])
            self.mbr = MBR(self.child_lowers.min(axis=0),
                           self.child_uppers.max(axis=0))


class RTree:
    """R-tree over an immutable ``(n, d)`` point array.

    Parameters
    ----------
    points:
        The dataset ``P``.  A defensive copy is stored; row index is the
        point id used throughout the library.
    capacity:
        Maximum entries per node.  Defaults to the 4096-byte page
        heuristic of :func:`default_capacity`.
    method:
        ``"str"`` (bulk load, default) or ``"insert"`` (incremental).
    """

    def __init__(self, points, *, capacity: int | None = None,
                 method: str = "str"):
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("RTree requires a non-empty (n, d) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("RTree points must be finite")
        self.points = pts.copy()
        self.points.setflags(write=False)
        self.dim = int(pts.shape[1])
        self.capacity = capacity or default_capacity(self.dim)
        if self.capacity < 2:
            raise ValueError("capacity must be at least 2")
        self.stats = RTreeStats()
        if method == "str":
            self.root = self._bulk_load_str()
        elif method == "insert":
            self.root = self._build_by_insertion()
        else:
            raise ValueError(f"unknown construction method: {method!r}")

    # ------------------------------------------------------------------
    # Copy-on-write patching (catalogue mutations)
    # ------------------------------------------------------------------

    @classmethod
    def patched(cls, parent: "RTree", points, *, removed_rows=(),
                updated_rows=(), appended: int = 0) -> "RTree":
        """A new tree over ``points``, derived from ``parent``.

        The catalogue lifecycle API advances a snapshot by a small
        delta — a handful of rows removed, updated or appended — and a
        full STR re-sort of the untouched points would dominate the
        cost of small mutations.  This constructor instead copies the
        parent's node structure (``parent`` itself is never modified:
        in-flight readers keep traversing it), deletes the
        removed/updated entries from their leaves, renumbers surviving
        ids when removals compacted the row space, and re-inserts the
        updated/appended points with the classic Guttman insert.
        Underflowing leaves are kept (or dropped when empty) rather
        than condensed — balance degrades slightly under sustained
        deletion, correctness never does.

        Parameters
        ----------
        parent:
            The tree of the previous snapshot.
        points:
            The full new ``(n', d)`` point array, with removed rows
            compacted away and appended rows at the tail.
        removed_rows, updated_rows:
            *Parent*-row indices deleted / modified by the mutation
            (disjoint).
        appended:
            Number of rows appended at the tail of ``points``.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        removed = sorted_unique_rows(removed_rows)
        updated = sorted_unique_rows(updated_rows)
        if pts.ndim != 2 or pts.shape[1] != parent.dim:
            raise ValueError(
                f"patched tree needs (n, {parent.dim}) points, got "
                f"shape {pts.shape}")
        expected = len(parent) - len(removed) + int(appended)
        if pts.shape[0] != expected:
            raise ValueError(
                f"patched tree expects {expected} points "
                f"({len(parent)} - {len(removed)} removed "
                f"+ {appended} appended), got {pts.shape[0]}")
        if pts.shape[0] == 0:
            raise ValueError("RTree requires a non-empty (n, d) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("RTree points must be finite")

        tree = object.__new__(cls)
        tree.points = pts.copy()
        tree.points.setflags(write=False)
        tree.dim = parent.dim
        tree.capacity = parent.capacity
        tree.stats = RTreeStats()
        tree.root = _copy_structure(parent.root)

        # Pull the removed and updated entries out of their leaves.
        evicted = np.concatenate([removed, updated])
        touched: set[int] = set()
        if len(evicted):
            pull = set(int(i) for i in evicted)
            for node in tree.iter_nodes():
                if node.is_leaf and pull:
                    kept = [pid for pid in node.point_ids
                            if pid not in pull]
                    if len(kept) < len(node.point_ids):
                        touched.add(id(node))
                        pull.difference_update(node.point_ids)
                        node.point_ids = kept
            if pull:   # pragma: no cover - defensive
                raise ValueError(f"rows {sorted(pull)} not found in "
                                 "the parent tree")

        # Removal compacts the row space: renumber survivors.
        if len(removed):
            row_map = compacted_row_map(len(parent), removed)
            for node in tree.iter_nodes():
                if node.is_leaf and node.point_ids:
                    node.point_ids = row_map[
                        np.asarray(node.point_ids)].tolist()
        else:
            row_map = np.arange(len(parent), dtype=np.int64)

        root, _ = _drop_empty_and_refresh(tree.root, tree.points,
                                          touched)
        if root is None:
            # The delta touched every surviving point (e.g. a whole-
            # catalogue update): nothing is left to patch around, so
            # a fresh bulk load is both simpler and faster.  The flag
            # lets DatasetContext.derive account it as a build, not a
            # patch.
            tree = cls(pts, capacity=parent.capacity)
            tree.was_patched = False
            return tree
        tree.root = root
        tree.was_patched = True

        # Re-insert the changed points at their new coordinates.
        reinsert = [int(row_map[row]) for row in updated]
        reinsert.extend(range(expected - int(appended), expected))
        for pid in reinsert:
            tree.root = tree._insert(tree.root, pid)
        return tree

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.points.shape[0])

    @property
    def node_count(self) -> int:
        """Total number of nodes — the ``|RT|`` of the paper's bounds."""
        return sum(1 for _ in self.iter_nodes())

    @property
    def height(self) -> int:
        h, node = 1, self.root
        while not node.is_leaf:
            node = node.children[0]
            h += 1
        return h

    def iter_nodes(self):
        """Yield every node, pre-order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(node.children)

    def record_access(self, node: Node) -> None:
        """Count one node access (consumers call this when expanding)."""
        self.stats.node_accesses += 1
        if node.is_leaf:
            self.stats.leaf_accesses += 1

    # ------------------------------------------------------------------
    # Queries used directly by tests / examples
    # ------------------------------------------------------------------

    def knn_query(self, q, k: int) -> np.ndarray:
        """Ids of the k points nearest (Euclidean) to ``q``.

        Classic best-first kNN [Hjaltason & Samet]: a min-heap keyed
        by the MBR's minimum distance to ``q``; every popped point is
        the next nearest.  Used by examples to relate spatial
        proximity to score proximity, and by tests as another
        traversal-correctness probe.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        import heapq

        qv = np.asarray(q, dtype=np.float64)
        k = min(k, len(self))
        counter = 0
        heap: list[tuple[float, int, int, object]] = [
            (0.0, counter, 1, self.root)]
        out: list[int] = []
        while heap and len(out) < k:
            _, _, kind, payload = heapq.heappop(heap)
            if kind == 0:
                out.append(int(payload))  # type: ignore[arg-type]
                continue
            node: Node = payload  # type: ignore[assignment]
            self.record_access(node)
            if node.is_leaf:
                dists = np.linalg.norm(node.child_lowers - qv, axis=1)
                for pid, dist in zip(node.point_ids, dists):
                    counter += 1
                    heapq.heappush(heap, (float(dist), pid, 0, pid))
            else:
                for child in node.children:
                    gap = np.maximum(
                        np.maximum(child.mbr.lower - qv,
                                   qv - child.mbr.upper), 0.0)
                    counter += 1
                    heapq.heappush(
                        heap,
                        (float(np.linalg.norm(gap)), counter, 1,
                         child))
        return np.asarray(out, dtype=np.int64)

    def range_query(self, lower, upper) -> np.ndarray:
        """Ids of points inside the axis-aligned box ``[lower, upper]``."""
        box = MBR(np.asarray(lower, dtype=np.float64),
                  np.asarray(upper, dtype=np.float64))
        out: list[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            self.record_access(node)
            if node.is_leaf:
                pts = self.points[node.point_ids]
                inside = (np.all(pts >= box.lower, axis=1)
                          & np.all(pts <= box.upper, axis=1))
                out.extend(np.asarray(node.point_ids)[inside].tolist())
            else:
                for child in node.children:
                    if child.mbr.intersects(box):
                        stack.append(child)
        return np.asarray(sorted(out), dtype=np.int64)

    # ------------------------------------------------------------------
    # STR bulk loading
    # ------------------------------------------------------------------

    def _bulk_load_str(self) -> Node:
        ids = np.arange(len(self.points))
        leaves = self._str_pack_points(ids)
        return self._build_upper_levels(leaves)

    def _str_pack_points(self, ids: np.ndarray) -> list[Node]:
        """Tile point ids into leaves via recursive sort-tile."""
        groups = self._str_tile(self.points[ids], ids, axis=0)
        leaves = []
        for group in groups:
            leaf = Node(is_leaf=True)
            leaf.point_ids = [int(i) for i in group]
            leaf.refresh_arrays(self.points)
            leaves.append(leaf)
        return leaves

    def _str_tile(self, coords: np.ndarray, ids: np.ndarray,
                  *, axis: int) -> list[np.ndarray]:
        """Recursively slab-partition ``ids`` so each final group fits
        in one node."""
        n = len(ids)
        if n <= self.capacity:
            return [ids]
        remaining_axes = self.dim - axis
        n_pages = int(np.ceil(n / self.capacity))
        slabs = (int(np.ceil(n_pages ** (1.0 / remaining_axes)))
                 if remaining_axes > 1 else n_pages)
        order = np.argsort(coords[:, axis], kind="stable")
        ids_sorted = ids[order]
        coords_sorted = coords[order]
        slab_size = int(np.ceil(n / slabs))
        out: list[np.ndarray] = []
        for start in range(0, n, slab_size):
            chunk_ids = ids_sorted[start:start + slab_size]
            chunk_coords = coords_sorted[start:start + slab_size]
            if axis + 1 < self.dim:
                out.extend(self._str_tile(chunk_coords, chunk_ids,
                                          axis=axis + 1))
            else:
                for s in range(0, len(chunk_ids), self.capacity):
                    out.append(chunk_ids[s:s + self.capacity])
        return out

    def _build_upper_levels(self, nodes: list[Node]) -> Node:
        while len(nodes) > 1:
            centers = np.array([
                (n.mbr.lower + n.mbr.upper) / 2.0 for n in nodes])
            order = np.lexsort(centers.T[::-1])
            nodes = [nodes[i] for i in order]
            parents: list[Node] = []
            for start in range(0, len(nodes), self.capacity):
                parent = Node(is_leaf=False)
                parent.children = nodes[start:start + self.capacity]
                parent.refresh_arrays(self.points)
                parents.append(parent)
            nodes = parents
        nodes[0].refresh_arrays(self.points)
        return nodes[0]

    # ------------------------------------------------------------------
    # Incremental construction (Guttman insert + quadratic split)
    # ------------------------------------------------------------------

    def _build_by_insertion(self) -> Node:
        root = Node(is_leaf=True)
        root.point_ids = [0]
        root.refresh_arrays(self.points)
        for pid in range(1, len(self.points)):
            root = self._insert(root, pid)
        return root

    def _insert(self, root: Node, pid: int) -> Node:
        split = self._insert_into(root, pid)
        if split is None:
            return root
        new_root = Node(is_leaf=False)
        new_root.children = [root, split]
        new_root.refresh_arrays(self.points)
        return new_root

    def _insert_into(self, node: Node, pid: int) -> Node | None:
        """Insert point ``pid`` under ``node``; return a sibling on split."""
        if node.is_leaf:
            node.point_ids.append(pid)
            if len(node.point_ids) > self.capacity:
                return self._split_leaf(node)
            node.refresh_arrays(self.points)
            return None
        point = self.points[pid]
        # Least-enlargement choice, vectorized over the cached child
        # MBR arrays (kept current by refresh_arrays on the way out):
        # the per-child MBR.enlargement()/volume() Python loop was the
        # hot spot of the catalogue patch path.
        lowers, uppers = node.child_lowers, node.child_uppers
        current = np.prod(uppers - lowers, axis=1)
        grown = np.prod(np.maximum(uppers, point)
                        - np.minimum(lowers, point), axis=1)
        slot = int(np.lexsort((current, grown - current))[0])
        best = node.children[slot]
        sibling = self._insert_into(best, pid)
        if sibling is None:
            # Only the chosen child's box grew, to its old box plus
            # the point: patch that row and widen this node's box —
            # the values a full refresh_arrays would recompute.
            lowers[slot] = best.mbr.lower
            uppers[slot] = best.mbr.upper
            node.mbr = MBR(np.minimum(node.mbr.lower, best.mbr.lower),
                           np.maximum(node.mbr.upper, best.mbr.upper))
            return None
        node.children.append(sibling)
        if len(node.children) > self.capacity:
            overflow = self._split_internal(node)
            node.refresh_arrays(self.points)
            return overflow
        node.refresh_arrays(self.points)
        return None

    def _split_leaf(self, node: Node) -> Node:
        ids = node.point_ids
        pts = self.points[ids]
        group_a, group_b = _quadratic_split(pts, pts)
        sibling = Node(is_leaf=True)
        node.point_ids = [ids[i] for i in group_a]
        sibling.point_ids = [ids[i] for i in group_b]
        node.refresh_arrays(self.points)
        sibling.refresh_arrays(self.points)
        return sibling

    def _split_internal(self, node: Node) -> Node:
        children = node.children
        group_a, group_b = _quadratic_split(
            np.array([c.mbr.lower for c in children]),
            np.array([c.mbr.upper for c in children]))
        sibling = Node(is_leaf=False)
        node.children = [children[i] for i in group_a]
        sibling.children = [children[i] for i in group_b]
        node.refresh_arrays(self.points)
        sibling.refresh_arrays(self.points)
        return sibling


def _copy_structure(node: Node) -> Node:
    """Copy a subtree: ids, child lists and the cached MBR arrays
    (copied, so inserts may patch them in place; the frozen ``MBR``
    values are shared).  The patch then refreshes only the nodes it
    edits."""
    clone = Node(is_leaf=node.is_leaf)
    clone.mbr = node.mbr
    if node.is_leaf:
        clone.point_ids = list(node.point_ids)
        clone.child_lowers = clone.child_uppers = node.child_lowers
    else:
        clone.children = [_copy_structure(child)
                          for child in node.children]
        clone.child_lowers = node.child_lowers.copy()
        clone.child_uppers = node.child_uppers.copy()
    return clone


def _drop_empty_and_refresh(node: Node, points: np.ndarray,
                            touched: set[int],
                            ) -> tuple[Node | None, bool]:
    """Post-order: prune emptied nodes, rebuild MBRs bottom-up along
    the paths to the ``touched`` leaves (by ``id``).

    Returns the (possibly pruned) node, or ``None`` when the subtree
    holds no points at all, and whether the subtree changed.
    Untouched subtrees keep their copied boxes: their points (and so
    their coordinates, whatever their renumbered ids) are unchanged.
    """
    if node.is_leaf:
        if not node.point_ids:
            return None, True
        if id(node) in touched:
            node.refresh_arrays(points)
            return node, True
        return node, False
    kept, changed = [], False
    for child in node.children:
        sub, sub_changed = _drop_empty_and_refresh(child, points,
                                                   touched)
        changed |= sub_changed
        if sub is not None:
            kept.append(sub)
    if not kept:
        return None, True
    if changed:
        node.children = kept
        node.refresh_arrays(points)
    return node, changed


def _quadratic_split(lowers: np.ndarray, uppers: np.ndarray,
                     ) -> tuple[list[int], list[int]]:
    """Guttman's quadratic split over entry boxes ``[lowers[i],
    uppers[i]]``.

    Returns two index groups, each non-empty and at most
    ``len(lowers) - 1`` long.  The O(n²) seed-pair search runs as one
    broadcast instead of a Python double loop (ties resolve to the
    same first pair the loop picked), and the sequential assignment
    runs on Python floats — the same IEEE products, maxima and minima
    as numpy's, without a numpy call per entry — keeping node splits
    cheap on the catalogue patch path, where clustered re-inserts
    split the same leaf repeatedly.
    """
    n = len(lowers)
    volumes = np.prod(uppers - lowers, axis=1)
    merged = np.prod(
        np.maximum(uppers[:, None, :], uppers[None, :, :])
        - np.minimum(lowers[:, None, :], lowers[None, :, :]), axis=2)
    waste = merged - volumes[:, None] - volumes[None, :]
    # Row-major argmax visits (i, j) before (j, i) for i < j, so the
    # first-maximum pair matches the historical i<j scan order.
    np.fill_diagonal(waste, -np.inf)
    seed_a, seed_b = np.unravel_index(int(np.argmax(waste)),
                                      waste.shape)
    if seed_a > seed_b:   # pragma: no cover - symmetric safeguard
        seed_a, seed_b = seed_b, seed_a
    group_a, group_b = [int(seed_a)], [int(seed_b)]
    low_rows, up_rows = lowers.tolist(), uppers.tolist()
    lo_a, hi_a = low_rows[seed_a], up_rows[seed_a]
    lo_b, hi_b = low_rows[seed_b], up_rows[seed_b]
    vol_a = float(volumes[seed_a])
    vol_b = float(volumes[seed_b])
    rest = [i for i in range(n) if i not in (seed_a, seed_b)]
    min_fill = max(1, n // 3)
    for position, idx in enumerate(rest):
        lo, hi = low_rows[idx], up_rows[idx]
        remaining = len(rest) - position
        if len(group_a) + remaining <= min_fill:
            take_a = True
        elif len(group_b) + remaining <= min_fill:
            take_a = False
        else:
            grow_a = _union_volume(lo_a, hi_a, lo, hi) - vol_a
            grow_b = _union_volume(lo_b, hi_b, lo, hi) - vol_b
            take_a = grow_a < grow_b or (grow_a == grow_b
                                         and len(group_a)
                                         <= len(group_b))
        if take_a:
            group_a.append(idx)
            lo_a = list(map(min, lo_a, lo))
            hi_a = list(map(max, hi_a, hi))
            vol_a = math.prod(map(operator.sub, hi_a, lo_a))
        else:
            group_b.append(idx)
            lo_b = list(map(min, lo_b, lo))
            hi_b = list(map(max, hi_b, hi))
            vol_b = math.prod(map(operator.sub, hi_b, lo_b))
    return group_a, group_b


def _union_volume(lo_a, hi_a, lo_b, hi_b) -> float:
    """Volume of the smallest box covering two boxes (float lists)."""
    return math.prod(map(operator.sub, map(max, hi_a, hi_b),
                         map(min, lo_a, lo_b)))
