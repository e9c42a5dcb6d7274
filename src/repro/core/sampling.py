"""Samplers used by MWK and MQWK (Section 4.3-4.4).

Weight sampling
---------------
For a fixed target rank, the optimally-modified weighting vector lies on
one of the hyperplanes ``{w : w · (p - q) = 0}`` spanned by the query
point and a point ``p`` incomparable with it (He & Lo [14]).  MWK
therefore samples from the union of these hyperplanes restricted to the
simplex.  Each draw works as follows:

1. pick an incomparable point ``p`` uniformly at random;
2. draw two uniform simplex vectors ``u, v`` (flat Dirichlet);
3. if ``g(u) = u·(p-q)`` and ``g(v)`` have opposite signs, the convex
   combination with ``g = 0`` lies on the hyperplane *and* on the
   simplex (the simplex is convex); otherwise redraw.

Because ``p`` is incomparable with ``q``, ``p - q`` has both positive
and negative components, so ``g`` attains both signs over the simplex
and the rejection loop terminates quickly (the two signs each have
non-vanishing probability).

Query-point sampling
--------------------
MQWK samples candidate query points uniformly from the axis-aligned box
``[q_min, q]`` where ``q_min`` is the MQP optimum — points outside this
box are provably dominated as candidates (Section 4.4).

Chunk-invariant streams
-----------------------
The anytime steppers (:class:`~repro.core.mwk.MWKStepper`,
:class:`~repro.core.mqwk.MQWKStepper`) consume samples incrementally.
:class:`WeightSampleStream` / :class:`QueryPointSampleStream` make the
sample sequence a *deterministic infinite stream*: sample ``i`` is
drawn from a generator seeded by ``(entropy, i // block)`` — a
function of the stream's entropy and the sample's position only, never
of how the caller chunked its reads.  ``take(250)`` followed by
``take(550)`` therefore yields exactly the 800 samples a single
``take(800)`` would, which is what makes a chunked anytime answer
*equal* (not just statistically similar) to the one-shot answer at the
same total sample count and seed.
"""

from __future__ import annotations

import numpy as np

from repro.engine.kernels import CHUNK_FLOATS, ranks_batch

_MAX_ROUNDS = 200


def sample_simplex(rng: np.random.Generator, size: int,
                   dim: int) -> np.ndarray:
    """Uniform samples from the standard (dim-1)-simplex."""
    return rng.dirichlet(np.ones(dim), size=size)


def sample_weights_on_hyperplanes(incomparable_points, q, size: int,
                                  rng: np.random.Generator, *,
                                  anchors=None,
                                  anchor_fraction: float = 0.5,
                                  ) -> np.ndarray:
    """Draw ``size`` weighting vectors from the MWK sample space.

    Parameters
    ----------
    incomparable_points:
        ``(|I|, d)`` array of points incomparable with ``q``.
    q:
        The query point.
    size:
        Number of samples requested.
    rng:
        NumPy random generator (determinism!).
    anchors:
        Optional ``(m, d)`` array of weighting vectors (MWK passes the
        why-not set).  A fraction of the bracketing segments is
        anchored at a random anchor instead of a random simplex point,
        and the hyperplane for such a draw is chosen among the
        anchor's *culprits* — the incomparable points currently
        beating ``q`` under that anchor.  Walking from the anchor
        until a culprit's plane is crossed neutralizes exactly the
        points that keep ``q`` out of the top-k, so crossings
        concentrate near the vectors the penalty is measured against —
        the "high quality samples" the paper's Section 4.3 asks for.
        The remaining fraction stays uniform for exploration.
    anchor_fraction:
        Share of anchored draws when ``anchors`` is given.

    Returns
    -------
    numpy.ndarray
        ``(size, d)`` array of simplex vectors, each on the hyperplane
        of some incomparable point.

    Raises
    ------
    ValueError
        If there are no incomparable points (the sample space is empty
        — then ``q``'s rank is fixed at ``|D| + 1`` for every ``w`` and
        no weight modification can help).
    """
    inc = np.atleast_2d(np.asarray(incomparable_points, dtype=np.float64))
    if inc.shape[0] == 0:
        raise ValueError("empty sample space: no incomparable points")
    qv = np.asarray(q, dtype=np.float64)
    d = qv.shape[0]
    diffs = inc - qv          # rows: p - q
    anchor_arr = (None if anchors is None
                  else np.atleast_2d(np.asarray(anchors,
                                                dtype=np.float64)))
    if anchor_arr is not None:
        # Culprit planes per anchor: incomparable points scoring below
        # q under that anchor (g = w . (p - q) < 0), stored flat with
        # per-anchor offsets so a whole batch picks in one call.
        g_anchor = diffs @ anchor_arr.T            # (|I|, m)
        culprits = []
        for j in range(anchor_arr.shape[0]):
            idx = np.nonzero(g_anchor[:, j] < 0)[0]
            culprits.append(idx if len(idx) else np.arange(len(diffs)))
        pool_sizes = np.array([len(idx) for idx in culprits])
        pool_starts = np.cumsum(pool_sizes) - pool_sizes
        pools = np.concatenate(culprits)
    out = np.empty((size, d))
    filled = 0
    for _ in range(_MAX_ROUNDS):
        need = size - filled
        if need <= 0:
            break
        batch = max(need * 2, 64)
        plane_idx = rng.integers(0, len(diffs), size=batch)
        u = sample_simplex(rng, batch, d)
        v = sample_simplex(rng, batch, d)
        if anchor_arr is not None and anchor_fraction > 0:
            anchored = np.nonzero(
                rng.random(batch) < anchor_fraction)[0]
            which = rng.integers(0, len(anchor_arr),
                                 size=len(anchored))
            u[anchored] = anchor_arr[which]
            # One bounded draw per anchored sample, in order: the same
            # generator stream as a draw-by-draw loop.
            picks = rng.integers(0, pool_sizes[which])
            plane_idx[anchored] = pools[pool_starts[which] + picks]
        plane = diffs[plane_idx]
        gu = np.einsum("ij,ij->i", u, plane)
        gv = np.einsum("ij,ij->i", v, plane)
        ok = gu * gv < 0
        if not ok.any():
            continue
        # Aim a hair to the *positive* side of the hyperplane
        # (g = w . (p - q) = +tau > 0, i.e. p scores slightly worse
        # than q) instead of exactly 0: ties are resolved in q's
        # favour throughout the library, and an exactly-on-plane
        # sample would let float noise flip the tie against q when
        # ranks are recomputed elsewhere.
        tau = 1e-9 * (np.abs(gu[ok]) + np.abs(gv[ok]))
        t = (gu[ok] - tau) / (gu[ok] - gv[ok])
        w = (1.0 - t[:, None]) * u[ok] + t[:, None] * v[ok]
        # Numerical hygiene: clip and renormalize (both preserve the
        # sign of g up to a positive scale for non-negative w).
        w = np.clip(w, 0.0, None)
        w /= w.sum(axis=1, keepdims=True)
        g_final = np.einsum("ij,ij->i", w, plane[ok])
        w = w[g_final >= 0.0]
        take = min(need, len(w))
        out[filled:filled + take] = w[:take]
        filled += take
    if filled < size:
        raise RuntimeError("hyperplane sampler failed to converge; "
                           "sample space may be numerically degenerate")
    return out


#: Samples per internal stream block.  Each block is drawn from its
#: own position-derived generator, so any chunking of reads sees the
#: same sample sequence (see the module docstring).
STREAM_BLOCK = 128

#: Upper bound for stream entropy draws (``Generator.integers`` high).
_ENTROPY_HIGH = 2**63 - 1


def stream_entropy(rng: np.random.Generator) -> int:
    """One entropy draw that seeds a whole deterministic stream.

    The single point where an anytime stepper consumes its caller's
    generator: everything after is derived from ``(entropy, position)``
    pairs, never from further generator state — the property that
    makes refinement chunk-invariant.
    """
    return int(rng.integers(0, _ENTROPY_HIGH))


class _BlockedStream:
    """Deterministic infinite sample stream, read in arbitrary chunks.

    Subclasses implement ``_draw_block(rng) -> (block, d) array``;
    block ``b`` always uses ``default_rng((entropy, b))``, so the
    concatenation of all reads is a prefix of one fixed sequence.
    """

    def __init__(self, entropy: int, *, block: int = STREAM_BLOCK):
        self._entropy = int(entropy)
        self._block = int(block)
        self._next_block = 0
        self._pending: np.ndarray | None = None   # unread block tail

    def _draw_block(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` samples of the stream."""
        n = int(n)
        parts: list[np.ndarray] = []
        got = 0
        if self._pending is not None and len(self._pending):
            head = self._pending[:n]
            self._pending = self._pending[len(head):]
            parts.append(head)
            got += len(head)
        while got < n:
            rng = np.random.default_rng((self._entropy,
                                         self._next_block))
            self._next_block += 1
            block = self._draw_block(rng)
            head = block[:n - got]
            self._pending = block[len(head):]
            parts.append(head)
            got += len(head)
        if not parts:
            return np.empty((0, self._dim))
        return np.concatenate(parts, axis=0)


class WeightSampleStream(_BlockedStream):
    """Chunk-invariant stream of MWK weight samples.

    Wraps :func:`sample_weights_on_hyperplanes` for one fixed
    ``(incomparable set, q, anchors)`` sample space; raises the same
    ``ValueError`` for an empty space.
    """

    def __init__(self, incomparable_points, q,
                 rng: np.random.Generator, *, anchors=None,
                 block: int = STREAM_BLOCK):
        super().__init__(stream_entropy(rng), block=block)
        self._inc = np.atleast_2d(np.asarray(incomparable_points,
                                             dtype=np.float64))
        if self._inc.shape[0] == 0:
            raise ValueError("empty sample space: no incomparable "
                             "points")
        self._q = np.asarray(q, dtype=np.float64)
        self._anchors = anchors
        self._dim = self._q.shape[0]

    def _draw_block(self, rng: np.random.Generator) -> np.ndarray:
        return sample_weights_on_hyperplanes(
            self._inc, self._q, self._block, rng,
            anchors=self._anchors)


class QueryPointSampleStream(_BlockedStream):
    """Chunk-invariant stream of MQWK query-point candidates."""

    def __init__(self, q_min, q, rng: np.random.Generator, *,
                 block: int = STREAM_BLOCK):
        super().__init__(stream_entropy(rng), block=block)
        self._lo = np.asarray(q_min, dtype=np.float64)
        self._hi = np.asarray(q, dtype=np.float64)
        self._dim = self._hi.shape[0]

    def _draw_block(self, rng: np.random.Generator) -> np.ndarray:
        return sample_query_points(self._lo, self._hi, self._block,
                                   rng)


def inject_why_not_vectors(samples, sample_ranks, why_not,
                           why_not_ranks):
    """Append the original why-not vectors to a sample pool.

    The shared MWK/MQWK "mixed candidates" injection (previously a
    ``vstack``/``concatenate`` pair duplicated at every scan site):
    the originals enter the pool with their true ranks and zero
    distance to themselves, which lets a scan keep some vectors while
    modifying others.  Returns the combined ``(samples, ranks)``; the
    originals come last, so prefix order — and therefore a stable
    rank sort — is unchanged for the sampled part.
    """
    why_not = np.atleast_2d(np.asarray(why_not, dtype=np.float64))
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        samples = samples.reshape(0, why_not.shape[1])
    combined = np.vstack([samples, why_not])
    ranks = np.concatenate([np.asarray(sample_ranks),
                            np.asarray(why_not_ranks)])
    return combined, ranks


def sample_query_points(q_min, q, size: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Uniform samples from the box ``[q_min, q]`` (MQWK sample space)."""
    lo = np.asarray(q_min, dtype=np.float64)
    hi = np.asarray(q, dtype=np.float64)
    if lo.shape != hi.shape:
        raise ValueError("q_min and q must share a shape")
    if np.any(lo > hi + 1e-12):
        raise ValueError("q_min must be component-wise <= q")
    u = rng.random((size, lo.shape[0]))
    return lo + u * (hi - lo)


def ranks_under_weights(weights, incomparable_points, dominating, q, *,
                        chunk_floats: int = CHUNK_FLOATS,
                        cap: int | None = None) -> np.ndarray:
    """Rank of ``q`` under each weighting vector, from a FindIncom
    partition.

    ``rank(q, w) = 1 + beats(D) + beats(I)`` where ``beats(X)`` counts
    the points of ``X`` scoring below ``f(w, q) - RANK_EPS`` —
    dominated points never beat ``q``, so only the partition's D and I
    sets need scoring (this is why MWK computes ranks "based on D and
    I").  Fully vectorized and chunked.

    Parameters
    ----------
    dominating:
        Either the ``(|D|, d)`` array of dominating points — scored
        with the same tie tolerance as everything else, the exact
        behaviour — or an ``int`` count to trust as-is (cheaper;
        identical unless a dominating point's score gap to ``q`` is
        below ``RANK_EPS``, which real-valued data essentially never
        produces).
    cap:
        Optional rank cap (MWK passes ``k'max``): ranks ``<= cap``
        are exact, larger ones only promise to exceed ``cap``, and
        the incomparable points are counted in id order only until a
        weight row passes it.

    The tie tolerance (``RANK_EPS``) matches
    :func:`repro.topk.scan.rank_of_scan` exactly, so ranks computed
    here agree with any later re-validation of a refined answer.  The
    array work is one call into the shared kernel module
    (:func:`repro.engine.kernels.ranks_batch`).
    """
    return ranks_batch(weights, incomparable_points, q,
                       dominating=dominating,
                       chunk_floats=chunk_floats, cap=cap)
