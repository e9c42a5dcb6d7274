"""Seeded input generation for the benchmark.

Everything the program receives comes from here: catalogues, why-not
questions and catalogue mutations are drawn with the benchmark's own
numpy code (not ``repro.data``), from one ``numpy.random.Generator``
per purpose, so the same ``--seed`` gives the same inputs.

Questions are built against the benchmark's *mirror* of a catalogue
(the point array as of the current catalogue version), so they stay
legal why-not questions while the catalogue changes underneath:
every why-not vector ranks the product strictly outside its top-k.
"""

from __future__ import annotations

import numpy as np

import oracle

#: Table 1 of the paper (Gao et al., PVLDB 2015).
TABLE1_KS = (10, 20, 30, 40, 50)
TABLE1_RANKS = (11, 101, 501, 1001)
TABLE1_WM = (1, 2, 3, 4, 5)

#: Deepest rank a why-not vector may give the product: the top of
#: Table 1's range.
MAX_RANK = max(TABLE1_RANKS)


def independent(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Uniform i.i.d. coordinates in ``(0, 1]^d``."""
    return 1.0 - rng.random((n, d))


def anticorrelated(rng: np.random.Generator, n: int,
                   d: int) -> np.ndarray:
    """Points scattered around the plane ``sum(x) = d/2``.

    A Dirichlet direction on the simplex, centred and stretched,
    plus a small normal jitter of the plane offset: good in one
    coordinate means bad in the others.
    """
    direction = rng.dirichlet(np.ones(d), size=n) - 1.0 / d
    base = rng.normal(0.5, 0.04, size=(n, 1))
    pts = base + 1.1 * direction
    return np.clip(pts, 1e-3, 1.0)


def simplex_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    w = rng.dirichlet(np.ones(d))
    # Round-trip safety: keep every weight strictly inside the simplex
    # so the program's simplex validation never sees -0.0 or 1+eps.
    w = np.clip(w, 1e-9, None)
    return w / w.sum()


class QuestionMaker:
    """Draws why-not questions about *distinct* products.

    ``make(points, ...)`` picks a weight vector ``w``, takes the
    product at position ``rank`` of ``w``'s ranking (skipping products
    already used), and adds further why-not vectors by rejection until
    the set holds ``m`` vectors that all rank the product beyond
    ``k`` and no deeper than :data:`MAX_RANK`.  Returns
    ``(product_id, q, why_not)``.
    """

    def __init__(self, rng: np.random.Generator, *, distinct: bool = True):
        self.rng = rng
        self.distinct = distinct
        self.used: set[int] = set()

    def make(self, points: np.ndarray, *, k: int, rank: int, m: int,
             product: int | None = None):
        if product is not None:
            q = points[product].copy()
            vectors = self._vectors(points, q, k, m, [], tries=5000)
            if vectors is None:
                raise RuntimeError(f"product {product} has too few "
                                   f"why-not vectors for k={k}")
            return product, q, vectors
        # A product whose why-not vectors are too rare (e.g. a skyline
        # product of anticorrelated data) is passed over for another.
        for _ in range(50):
            w = simplex_vector(self.rng, points.shape[1])
            pid = self._at_rank(points, w, rank)
            if pid is None:
                continue
            q = points[pid].copy()
            first = ([w] if k < oracle.ranks(points, w, q)[0] <= MAX_RANK
                     else [])
            vectors = self._vectors(points, q, k, m, first)
            if vectors is not None:
                if self.distinct:
                    self.used.add(pid)
                return pid, q, vectors
        raise RuntimeError("could not draw a why-not question")

    def _at_rank(self, points, w, rank: int) -> int | None:
        """The first unused product at or after ``rank`` under ``w``
        (within a window of 256 places), or ``None``."""
        scores = points @ w
        window = min(len(points), rank + 256)
        order = np.argpartition(scores, window - 1)[:window]
        order = order[np.lexsort((order, scores[order]))]
        for pid in order[rank - 1:]:
            if not self.distinct or int(pid) not in self.used:
                return int(pid)
        return None

    def _vectors(self, points, q, k: int, m: int, vectors, *,
                 tries: int = 300):
        vectors = list(vectors)
        for _ in range(tries):
            if len(vectors) >= m:
                return np.array(vectors)
            v = simplex_vector(self.rng, points.shape[1])
            if k < oracle.ranks(points, v, q)[0] <= MAX_RANK:
                vectors.append(v)
        if len(vectors) >= m:
            return np.array(vectors)
        return None


def question_payload(q, k: int, why_not, algorithm: str, *,
                     options=None, sample_budget: int | None = None) -> dict:
    """The schema-5 wire form of one question."""
    return {
        "schema_version": 5,
        "id": None,
        "algorithm": algorithm,
        "q": [float(x) for x in q],
        "k": int(k),
        "why_not": [[float(x) for x in row] for row in why_not],
        "options": dict(options or {}),
        "budget": (None if sample_budget is None else
                   {"sample_budget": int(sample_budget),
                    "deadline_ms": None,
                    "target_penalty_tolerance": None}),
        "priority": 0,
        "tenant": None,
    }


class Mirror:
    """The benchmark's own copy of a catalogue, one version at a time.

    Only ``update`` mutations are used, so product ids are row
    numbers and the size never changes.
    """

    def __init__(self, points: np.ndarray):
        self.points = np.array(points, dtype=np.float64, copy=True)
        self.version = 0

    def update(self, ids, rows) -> None:
        self.points = self.points.copy()
        self.points[np.asarray(ids, dtype=np.int64)] = rows
        self.version += 1


class MutationMaker:
    """Draws ``update`` mutations against a :class:`Mirror`.

    Each mutation moves :data:`MOVED` products.  *Long-tail* moves take
    products from the tail box ``(tail_lo, 1]^d`` to new positions in
    the same box.  Every product the workload watches is ``< tail_lo``
    componentwise, so it strictly dominates both the old and the new
    coordinates and the move cannot change any watched answer.
    *Competitive* moves take tail products into the good corner
    ``[0.02, REACH]^d``, where they can enter top-k sets and
    incomparable sets.
    """

    MOVED = 3
    REACH = 0.25

    def __init__(self, rng: np.random.Generator, mirror: Mirror, *,
                 tail_lo: float):
        self.rng = rng
        self.mirror = mirror
        self.tail_lo = float(tail_lo)

    def _tail_ids(self) -> np.ndarray:
        return np.nonzero(np.all(self.mirror.points > self.tail_lo
                                 + 1e-9, axis=1))[0]

    def draw(self, competitive: bool):
        d = self.mirror.points.shape[1]
        ids = np.sort(self.rng.choice(self._tail_ids(), size=self.MOVED,
                                      replace=False))
        u = self.rng.random((self.MOVED, d))
        if competitive:
            rows = 0.02 + u * (self.REACH - 0.02)
        else:
            span = 1.0 - self.tail_lo
            rows = self.tail_lo + 0.01 * span + u * 0.99 * span
        return [int(i) for i in ids], rows
