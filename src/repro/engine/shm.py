"""Zero-copy shared-memory snapshots of :class:`DatasetContext`.

The multi-process serving tier (:mod:`repro.service.workers`) must
hand each worker process the current catalogue snapshot without
paying a per-worker copy of the point array.  This module copies a
context's immutable data — the product array and optional product
ids — into **one** named ``multiprocessing.shared_memory`` segment,
plus a small picklable :class:`SnapshotManifest` describing the
layout.  No R-tree is shipped: workers answer by scans, so a publish
costs one copy of the points and nothing else.  Workers reattach with
:func:`attach_snapshot` / :meth:`DatasetContext.from_shared`: every
array comes back as a read-only numpy view over the shared buffer (no
data movement), and the per-``q`` caches rebuild lazily per process.

Lifecycle
---------
Segments are owned by the *exporting* process.  Every export is
recorded in a module-level registry and swept by
:func:`sweep_owned_segments`, which is registered ``atexit`` and also
called from the server's graceful-drain path — ``wqrtq serve`` never
strands ``/dev/shm`` segments on a clean exit, a crash that unwinds
the interpreter, or a SIGTERM (the CLI's drain handler).  Retired
catalogue versions are unlinked eagerly by the worker pool once no
in-flight question pins them.

Resource-tracker fine print (Python 3.11): attaching registers the
segment with the process's ``resource_tracker``.  For a *spawned
child* the tracker is shared with the parent, so the duplicate
registration dedupes harmlessly — and must NOT be unregistered, or
the owner's registration vanishes with it.  A *top-level* process
attaching a foreign segment has its own tracker, which would unlink
the segment (with a warning) when that process exits; there we do
unregister after attach, leaving cleanup to the owner.
"""

from __future__ import annotations

import atexit
import multiprocessing
import secrets
import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

__all__ = [
    "SharedArraySpec",
    "SnapshotManifest",
    "attach_snapshot",
    "export_snapshot",
    "owned_segments",
    "sweep_owned_segments",
    "unlink_snapshot",
]

#: Array start offsets are rounded up to this many bytes, so every
#: attached view is at least cache-line aligned (and safely aligned
#: for float64/int64 regardless of what precedes it).
_ALIGN = 64

#: Segments created by this process, by name.  Guarded by
#: :data:`_OWNED_LOCK`; swept at exit.
_OWNED: dict[str, shared_memory.SharedMemory] = {}
_OWNED_LOCK = threading.Lock()


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class SharedArraySpec:
    """Location of one array inside the shared segment."""

    key: str
    dtype: str
    shape: tuple
    offset: int


@dataclass(frozen=True)
class SnapshotManifest:
    """Picklable description of one exported snapshot segment.

    Everything a worker needs to rebuild a behaviourally identical
    :class:`~repro.engine.context.DatasetContext`: the segment name
    and per-array layout (``points``, and ``product_ids`` when the
    context has them), plus the context's version/epoch stamps, cache
    caps and the node capacity a lazily built R-tree would use.
    """

    segment: str
    nbytes: int
    arrays: tuple
    version: int
    epoch: int
    capacity: int | None
    max_partitions: int | None
    max_box_caches: int | None

    @property
    def n_points(self) -> int:
        for spec in self.arrays:
            if spec.key == "points":
                return int(spec.shape[0])
        raise ValueError("manifest has no points array")


def _tracker_name(segment: shared_memory.SharedMemory) -> str:
    # SharedMemory registers itself under its platform name (leading
    # slash on POSIX), kept in the private ``_name`` attribute.
    return getattr(segment, "_name", None) or segment.name


def export_snapshot(context, *, name: str | None = None,
                    ) -> SnapshotManifest:
    """Export one context snapshot into a fresh shared segment.

    Copies the point array and optional product ids into one named
    segment; no index is built or shipped.  The segment is owned by
    this process and recorded for the exit sweep; unlink it with
    :func:`unlink_snapshot` once every consumer detached.
    """
    arrays: dict[str, np.ndarray] = {"points": context.points}
    if context._product_ids is not None:
        arrays["product_ids"] = context.product_ids

    specs: list[SharedArraySpec] = []
    offset = 0
    for key, value in arrays.items():
        offset = _align(offset)
        specs.append(SharedArraySpec(
            key=key, dtype=value.dtype.str,
            shape=tuple(int(s) for s in value.shape), offset=offset))
        offset += value.nbytes
    # Tail pad: a zero-length trailing array must still find its
    # offset inside the buffer.
    nbytes = _align(offset) + _ALIGN

    segment_name = name or (f"wqrtq_{context.version}_"
                            f"{secrets.token_hex(4)}")
    segment = shared_memory.SharedMemory(
        create=True, size=nbytes, name=segment_name)
    try:
        for spec, value in zip(specs, arrays.values()):
            view = np.ndarray(spec.shape, dtype=spec.dtype,
                              buffer=segment.buf, offset=spec.offset)
            view[...] = value
            del view   # drop the buffer export before any close()
    except BaseException:
        segment.close()
        segment.unlink()
        raise

    with _OWNED_LOCK:
        _OWNED[segment_name] = segment
    return SnapshotManifest(
        segment=segment_name, nbytes=nbytes, arrays=tuple(specs),
        version=context.version, epoch=context.epoch,
        capacity=context._capacity,
        max_partitions=context.max_partitions,
        max_box_caches=context.max_box_caches)


def attach_snapshot(manifest: SnapshotManifest,
                    ) -> tuple[dict[str, np.ndarray],
                               shared_memory.SharedMemory]:
    """Attach to an exported segment; returns ``(arrays, segment)``.

    Every array is a read-only view over the shared buffer.  The
    returned segment handle must stay referenced for as long as the
    views are in use; close it (not unlink — the owner does that)
    when done.
    """
    segment = shared_memory.SharedMemory(name=manifest.segment)
    with _OWNED_LOCK:
        owner = manifest.segment in _OWNED
    if multiprocessing.parent_process() is None and not owner:
        # Top-level process with its own resource tracker: drop the
        # attach-time registration so *this* process's tracker never
        # unlinks (and warns about) a segment it does not own.  In a
        # spawned child the registration deduped into the parent's
        # tracker and must stay — as must the owner's own (attaching
        # your own export dedupes into the same tracker entry that
        # unlink will consume).
        try:
            resource_tracker.unregister(_tracker_name(segment),
                                        "shared_memory")
        except Exception:   # pragma: no cover - tracker internals
            pass
    arrays: dict[str, np.ndarray] = {}
    for spec in manifest.arrays:
        view = np.ndarray(spec.shape, dtype=spec.dtype,
                          buffer=segment.buf, offset=spec.offset)
        view.setflags(write=False)
        arrays[spec.key] = view
    return arrays, segment


def unlink_snapshot(manifest_or_name) -> bool:
    """Unlink an owned segment (idempotent); returns whether it was
    still registered.  Only the exporting process should call this."""
    name = (manifest_or_name.segment
            if isinstance(manifest_or_name, SnapshotManifest)
            else str(manifest_or_name))
    with _OWNED_LOCK:
        segment = _OWNED.pop(name, None)
    if segment is None:
        return False
    try:
        segment.close()
    except BufferError:   # pragma: no cover - exported views alive
        pass
    try:
        segment.unlink()
    except FileNotFoundError:   # pragma: no cover - already gone
        pass
    return True


def owned_segments() -> tuple[str, ...]:
    """Names of segments this process currently owns."""
    with _OWNED_LOCK:
        return tuple(_OWNED)


def sweep_owned_segments() -> tuple[str, ...]:
    """Unlink every segment this process still owns; returns their
    names.  Registered ``atexit``; also called by the service's
    graceful-drain path so SIGTERM never strands ``/dev/shm``."""
    swept = []
    for name in owned_segments():
        if unlink_snapshot(name):
            swept.append(name)
    return tuple(swept)


atexit.register(sweep_owned_segments)
