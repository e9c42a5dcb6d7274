"""Micro-benchmark: incremental catalogue update vs. full rebuild.

Quantifies the catalogue lifecycle API's reason to exist: advancing a
serving catalogue by a small delta (1% of products churn) through
``Catalogue.update_products`` — which derives the next snapshot
copy-on-write (epoch-checked cache carry-over; no index exists to
patch, since serving builds none) — must beat the pre-lifecycle path
of rebuilding a fresh ``DatasetContext`` and re-paying every
``FindIncom`` scan.

The churn is placed in the *dominated* region of the space (the
long-tail products every query point beats — the common case for
price/stock updates on uncompetitive items), so the epoch check can
retain the cached partitions of the products being asked about.  The
index-work counters are asserted so the benchmark keeps measuring
what it claims to.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.protocol import Question
from repro.data import (
    Catalogue,
    independent,
    preference_set,
    query_point_with_rank,
)
from repro.engine.context import DatasetContext
from repro.engine.executor import execute_questions

N = 8_000
D = 3
K = 10
RANK = 51
SAMPLE = 50
N_PRODUCTS = 20         # distinct products asked about per batch
CHURN = N // 100        # 1% of the catalogue mutates per round

rng = np.random.default_rng(0)

#: The long-tail segment: the last CHURN rows live at coordinates
#: >= 2, dominated by every query point in the unit cube.
BASE = np.vstack([independent(N - CHURN, D, seed=0),
                  2.0 + rng.random((CHURN, D))])
CHURN_IDS = np.arange(N - CHURN, N)


def churned(round_: int) -> np.ndarray:
    """New coordinates for the churn segment (still dominated)."""
    return 2.0 + np.random.default_rng(100 + round_).random((CHURN, D))


@pytest.fixture(scope="module")
def questions():
    out = []
    for j in range(N_PRODUCTS):
        w = preference_set(1, D, seed=60 + j)
        q = query_point_with_rank(BASE, w[0], RANK)
        out.append(Question(q=q, k=K, why_not=w, algorithm="mwk",
                            options={"sample_size": SAMPLE},
                            id=f"p{j}"))
    return out


def test_incremental_update_beats_full_rebuild(questions):
    """Acceptance criterion: mutating 1% of products and re-answering
    a warm batch through the derived snapshot beats rebuilding the
    context from scratch and answering cold."""
    catalogue = Catalogue(BASE)
    session_answers = execute_questions(catalogue.snapshot, questions,
                                        seed=1)     # warm the caches
    assert all(a.ok for a in session_answers)

    start = time.perf_counter()
    catalogue.update_products(CHURN_IDS, churned(1))
    snapshot = catalogue.snapshot
    incremental_answers = execute_questions(snapshot, questions,
                                            seed=1)
    incremental_seconds = time.perf_counter() - start

    # The derivation really was incremental: no index built or
    # patched, every cached partition retained, zero new scans.
    assert snapshot.stats.tree_patches == 0
    assert snapshot.stats.tree_builds == 0
    assert snapshot.stats.partitions_inherited == N_PRODUCTS
    assert snapshot.stats.partition_invalidations == 0
    assert snapshot.stats.findincom_traversals == 0
    assert snapshot.stats.partition_hits == N_PRODUCTS

    start = time.perf_counter()
    fresh = DatasetContext(snapshot.points)
    rebuild_answers = execute_questions(fresh, questions, seed=1)
    rebuild_seconds = time.perf_counter() - start

    # The rebuild really was cold: every product re-scanned (and,
    # like the served path, no index built).
    assert fresh.stats.tree_builds == 0
    assert fresh.stats.findincom_traversals == N_PRODUCTS

    # Same answers either way (catalogue_version aside).
    for a, b in zip(incremental_answers, rebuild_answers):
        assert a.ok and b.ok
        assert a.penalty == b.penalty

    print(f"\nincremental (1% churn): {incremental_seconds:.3f}s   "
          f"full rebuild: {rebuild_seconds:.3f}s   "
          f"speedup: {rebuild_seconds / incremental_seconds:.1f}x")
    assert incremental_seconds < rebuild_seconds


def test_derive_snapshot(benchmark):
    """Snapshot derivation alone, as served: row check + cache
    carry-over, no index."""
    catalogue = Catalogue(BASE)
    rounds = iter(range(1, 1_000_000))

    def advance():
        catalogue.update_products(CHURN_IDS, churned(next(rounds)))
        return catalogue.snapshot

    snapshot = benchmark(advance)
    assert snapshot.stats.tree_patches == 0
    assert snapshot.stats.tree_builds == 0


def test_full_context_rebuild(benchmark):
    """The pre-lifecycle alternative: fresh context + index build."""

    def rebuild():
        context = DatasetContext(BASE)
        context.tree
        return context

    context = benchmark(rebuild)
    assert context.stats.tree_builds == 1
