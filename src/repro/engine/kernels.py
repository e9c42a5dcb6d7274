"""Unified score/rank kernels — the library's one hot loop.

Every rank, top-k and dominance computation in the library reduces to
the same primitive: a ``(m, n)`` block of linear scores ``W @ P.T``
compared against per-vector thresholds.  Before the engine layer that
primitive was re-implemented per call site (``topk/scan.py``,
``rtopk/bichromatic.py``, ``core/sampling.py``,
``core/types.py::WhyNotQuery.ranks``) with slightly different chunking
and tie handling.  This module is the single implementation; the old
entry points are thin wrappers over it.

All kernels

* are fully vectorized over the *weight* axis (the batch axis of the
  paper's workloads — many customers, one catalogue),
* chunk the score matrix to a fixed float budget so memory stays flat
  no matter how large ``|W| x |P|`` gets, and
* resolve ties within :data:`RANK_EPS` in the query point's favour,
  consistent with Definitions 2-3 (``f(w, q) <= f(w, p)``).
"""

from __future__ import annotations

import numpy as np

#: Tie tolerance for rank computations.  Scores within RANK_EPS of the
#: query point's score count as ties and resolve in the query point's
#: favour.  This keeps rank computations consistent across the
#: different (BLAS-path-dependent) ways the library evaluates
#: ``f(w, p)``: bit-identical inputs can differ by ~1e-17 between a
#: matrix product and a dot product.
RANK_EPS = 1e-12

#: Default float budget per score block (64 MB of float64).
CHUNK_FLOATS = 8_000_000

#: Points scored per step of capped rank counting: how often a weight
#: row whose rank already exceeds the cap can be retired.
CAP_BLOCK_ROWS = 2048

#: Score scratch of one capped rank call (4 MB of float64, plus as
#: many booleans); bounds how many weight rows are scored together.
CAP_SCRATCH_FLOATS = 1 << 19

#: Stride of the score sample that bounds the k-th score before the
#: exact selection (:func:`_kth_smallest`).
KTH_SAMPLE_STRIDE = 32


def _as2d(x) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=np.float64))


def iter_score_blocks(weights, points, *,
                      chunk_floats: int = CHUNK_FLOATS):
    """Yield ``(start, stop, scores)`` blocks of the score matrix.

    ``scores`` has shape ``(stop - start, n)`` and holds
    ``f(weights[i], p)`` for ``i`` in ``[start, stop)``.  The block
    height is chosen so each block stays within ``chunk_floats``
    float64 entries.
    """
    wts = _as2d(weights)
    pts = _as2d(points)
    n = pts.shape[0]
    chunk = max(1, chunk_floats // max(n, 1))
    for start in range(0, len(wts), chunk):
        stop = min(start + chunk, len(wts))
        yield start, stop, wts[start:stop] @ pts.T


def score_matrix(weights, points, *, chunk_floats: int = CHUNK_FLOATS,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Full ``(m, n)`` score matrix, assembled block-wise.

    ``out`` may supply a pre-allocated destination (e.g. a
    :class:`~repro.engine.context.DatasetContext` score buffer); it
    must be at least ``(m, n)`` and the leading ``(m, n)`` view is
    returned.
    """
    wts = _as2d(weights)
    pts = _as2d(points)
    m, n = len(wts), len(pts)
    if out is None:
        dest = np.empty((m, n), dtype=np.float64)
    else:
        if out.shape[0] < m or out.shape[1] < n:
            raise ValueError(f"out buffer {out.shape} too small for "
                             f"({m}, {n}) score matrix")
        dest = out[:m, :n]
    for start, stop, block in iter_score_blocks(
            wts, pts, chunk_floats=chunk_floats):
        dest[start:stop] = block
    return dest


# ----------------------------------------------------------------------
# Top-k selection
# ----------------------------------------------------------------------

def row_scores(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``rows @ w``, with the bits each row gets inside a larger gemv.

    The k-th point paths — the whole-catalogue scan
    (:func:`kth_scores_batch`), BRS leaves and shard rows
    (:func:`topk_pairs`) — must score a row identically wherever it
    sits, because the k-th score feeds the MQP quadratic program
    verbatim.  A gemv's per-row arithmetic does not depend on the
    block height (OpenBLAS, d <= 5; property-tested), but numpy hands
    a one-row product to a dot whose rounding can differ, so a single
    row is scored as a two-row block.
    """
    if len(rows) == 1:
        return (np.concatenate([rows, rows]) @ w)[:1]
    return rows @ w


def topk_ids(points, w, k: int) -> np.ndarray:
    """Ids of the k best-scoring rows of ``points`` under ``w``.

    Returns ids sorted by ascending ``(score, id)`` — the library's
    deterministic tie-break.  ``k`` is clamped to ``len(points)``.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    pts = _as2d(points)
    scores = pts @ np.asarray(w, dtype=np.float64)
    k = min(k, len(pts))
    # O(n + k log k): partition for the k-th score, then pick the
    # boundary members explicitly by (score, id).  argpartition alone
    # is not enough — when ties straddle the k-th position it selects
    # an arbitrary subset of the tied ids.
    kth_score = np.partition(scores, k - 1)[k - 1]
    below = np.nonzero(scores < kth_score)[0]
    tied = np.nonzero(scores == kth_score)[0][:k - len(below)]
    selected = np.concatenate([below, tied])
    order = np.lexsort((selected, scores[selected]))
    return selected[order]


def topk_pairs(points, weights, k: int, *, id_base: int = 0,
               ) -> tuple[np.ndarray, np.ndarray]:
    """Per-weight ``min(k, n)`` smallest ``(score, id)`` pairs.

    The shard-local half of the scatter-gather k-th-point merge: each
    row of the result is that weight's exact ``(score, id)``-ordered
    prefix, so the union of per-shard prefixes contains the global
    top-k.  Scores use the per-weight gemv of :func:`row_scores` —
    as BRS scores leaf rows and :func:`kth_scores_batch` the whole
    catalogue — because a batched gemm can differ from it in the last
    bits and the merged k-th score is compared and reused verbatim.
    ``id_base`` offsets row ids into the global catalogue.

    Returns ``(scores, ids)`` of shape ``(m, min(k, n))`` each.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    pts = _as2d(points)
    wts = _as2d(weights)
    n = len(pts)
    kk = min(int(k), n)
    out_scores = np.empty((len(wts), kk), dtype=np.float64)
    out_ids = np.empty((len(wts), kk), dtype=np.int64)
    for i, w in enumerate(wts):
        scores = row_scores(pts, w)
        if kk < n:
            kth_score = np.partition(scores, kk - 1)[kk - 1]
            below = np.nonzero(scores < kth_score)[0]
            tied = np.nonzero(scores == kth_score)[0][:kk - len(below)]
            selected = np.concatenate([below, tied])
        else:
            selected = np.arange(n)
        order = np.lexsort((selected, scores[selected]))
        selected = selected[order]
        out_scores[i] = scores[selected]
        out_ids[i] = selected + id_base
    return out_scores, out_ids


def kth_scores_batch(points, weights, k: int,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Id and score of the k-th ranked point under *each* weight row.

    The scan form of ``BRSEngine.kth_point`` (Algorithm 1, lines
    1-12), bit for bit: per weight row one gemv ``points @ w``
    (:func:`row_scores`, as BRS scores its leaf rows and
    :func:`topk_pairs` shard rows, so the k-th *score* carries the
    same bits on every path) — then an order-statistic selection
    (:func:`_kth_smallest`).  Ties resolve by ``(score, id)`` like
    everything else.

    Returns ``(ids, scores)`` of shape ``(m,)`` each.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    pts = np.ascontiguousarray(_as2d(points))
    wts = _as2d(weights)
    if len(pts) < k:
        raise ValueError(f"dataset has fewer than k={k} points")
    ids = np.empty(len(wts), dtype=np.int64)
    scores = np.empty(len(wts), dtype=np.float64)
    for i, w in enumerate(wts):
        ids[i], scores[i] = _kth_smallest(row_scores(pts, w), k)
    return ids, scores


def _kth_smallest(scores: np.ndarray, k: int) -> tuple[int, float]:
    """Index and value of the k-th smallest ``(score, index)`` pair.

    A strided sample of :data:`KTH_SAMPLE_STRIDE` first bounds the
    k-th score from above; only the rows at or below that bound are
    partitioned.  The bound is exact whenever at least ``k`` rows
    reach it: every row scoring at or below the k-th score is then a
    candidate, ties included, and candidates keep their index order.
    A bound that catches fewer than ``k`` rows falls back to the whole
    array.  Among the rows tied at the k-th score, the answer is the
    ``(k - #below)``-th smallest index — the ``(score, id)`` order.
    """
    rows = None
    sample = scores[::KTH_SAMPLE_STRIDE]
    if len(sample) > 1:
        pick = min(len(sample) - 1, 2 * (k // KTH_SAMPLE_STRIDE) + 8)
        bound = np.partition(sample, pick)[pick]
        candidates = np.flatnonzero(scores <= bound)
        if len(candidates) >= k:
            rows, scores = candidates, scores[candidates]
    kth = np.partition(scores, k - 1)[k - 1]
    below = np.count_nonzero(scores < kth)
    tied = int(np.flatnonzero(scores == kth)[k - 1 - below])
    return (int(rows[tied]) if rows is not None else tied), float(kth)


# ----------------------------------------------------------------------
# Rank computation
# ----------------------------------------------------------------------

def rank_of(points, w, q, *, eps: float = RANK_EPS) -> int:
    """Rank of the query point ``q`` among ``points`` under ``w``.

    ``rank = 1 + |{p : f(w, p) < f(w, q) - eps}|`` — ties resolved in
    q's favour.  ``q`` itself need not belong to ``points``; if it
    does, its own row ties with it and does not increase the rank.
    """
    return int(ranks_batch(np.asarray(w, dtype=np.float64)[None, :],
                           points, q, eps=eps)[0])


def ranks_batch(weights, points, q, *, dominating=0,
                eps: float = RANK_EPS,
                chunk_floats: int = CHUNK_FLOATS,
                cap: int | None = None) -> np.ndarray:
    """Rank of ``q`` under every weight row, vectorized and chunked.

    ``rank(q, w) = 1 + beats(dominating) + beats(points)`` where
    ``beats(X)`` counts the members of ``X`` scoring below
    ``f(w, q) - eps``.  Two calling conventions:

    * ``points`` is the full dataset and ``dominating`` is 0 — the
      plain batched rank (what ``WhyNotQuery.ranks`` needs);
    * ``points`` is a ``FindIncom`` incomparable set ``I`` and
      ``dominating`` is either the ``(|D|, d)`` array of dominating
      points (scored exactly, same tie tolerance) or an ``int`` count
      trusted as-is — the partitioned rank MWK uses (dominated points
      never beat ``q``, so only ``D`` and ``I`` are scored).

    ``cap`` bounds the work for callers that discard every rank above
    it (MWK's ``k'max`` pruning): ``points`` are then counted in
    blocks of :data:`CAP_BLOCK_ROWS` rows, in order, and a weight row
    stops being scored once its running rank exceeds ``cap``.  A
    returned rank ``<= cap`` is exact; a rank above ``cap`` only
    promises to exceed it (see :func:`_capped_beats`).

    Returns an ``(m,)`` int64 array.
    """
    wts = _as2d(weights)
    pts = _as2d(points)
    qv = np.asarray(q, dtype=np.float64)
    q_scores = wts @ qv
    if isinstance(dominating, (int, np.integer)):
        base = np.full(len(wts), 1 + int(dominating), dtype=np.int64)
    else:
        dom = _as2d(dominating)
        if dom.shape[0] == 0:
            base = np.ones(len(wts), dtype=np.int64)
        else:
            base = 1 + beats_count(wts, dom, q_scores, eps=eps,
                                   chunk_floats=chunk_floats)
    if pts.shape[0] == 0:
        return base
    if cap is not None:
        return _capped_beats(wts, pts, q_scores - eps, base, int(cap))
    return base + beats_count(wts, pts, q_scores, eps=eps,
                              chunk_floats=chunk_floats)


def _capped_beats(wts: np.ndarray, pts: np.ndarray,
                  thresholds: np.ndarray, base: np.ndarray,
                  cap: int) -> np.ndarray:
    """``base + beats(pts)`` per weight row, stopping rows past ``cap``.

    Exactness: a beater count only grows as blocks are added, so a
    row whose running rank already exceeds ``cap`` ends above it
    whatever the remaining blocks hold, and a row that is never
    retired has been scored against every point, each score computed
    by the same matrix product and compared against the same
    threshold as the uncapped kernel.  The score and comparison
    scratch is allocated once per call (:data:`CAP_SCRATCH_FLOATS`
    entries) and every block is written into it in place.
    """
    ranks = base.copy()
    n = len(pts)
    width = min(CAP_BLOCK_ROWS, n)
    height = max(1, min(len(wts), CAP_SCRATCH_FLOATS // width))
    scores = np.empty(height * width, dtype=np.float64)
    beaten = np.empty(height * width, dtype=bool)
    for row0 in range(0, len(wts), height):
        live = np.arange(row0, min(row0 + height, len(wts)))
        live = live[ranks[live] <= cap]
        w, thr = wts[live], thresholds[live, None]
        for start in range(0, n, width):
            if not len(live):
                break
            block = pts[start:start + width]
            shape = (len(live), len(block))
            out = scores[:shape[0] * shape[1]].reshape(shape)
            hit = beaten[:out.size].reshape(shape)
            np.matmul(w, block.T, out=out)
            np.less(out, thr, out=hit)
            ranks[live] += np.count_nonzero(hit, axis=1)
            alive = ranks[live] <= cap
            if not alive.all():
                live, w, thr = live[alive], w[alive], thr[alive]
    return ranks


def beats_count(weights, points, q_scores, *, eps: float = RANK_EPS,
                chunk_floats: int = CHUNK_FLOATS) -> np.ndarray:
    """Per weight row, how many of ``points`` score below the threshold.

    ``q_scores`` is the per-row threshold ``f(w, q)``; a point beats
    ``q`` when its score is strictly below ``f(w, q) - eps``.  This is
    the shared dominance-count core of every rank kernel.
    """
    wts = _as2d(weights)
    thresholds = np.asarray(q_scores, dtype=np.float64).reshape(-1)
    if thresholds.shape[0] != len(wts):
        raise ValueError("q_scores must provide one threshold per "
                         "weight row")
    out = np.empty(len(wts), dtype=np.int64)
    for start, stop, block in iter_score_blocks(
            wts, points, chunk_floats=chunk_floats):
        out[start:stop] = np.count_nonzero(
            block < thresholds[start:stop, None] - eps, axis=1)
    return out
