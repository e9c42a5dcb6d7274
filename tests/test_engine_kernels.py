"""Kernel-equivalence tests: ``engine.kernels`` vs. the legacy paths.

The engine layer consolidated the score/rank loops that used to live
in ``topk/scan.py``, ``rtopk/bichromatic.py``, ``core/sampling.py``
and ``core/types.py``.  These tests pin the kernels to independent
oracles (brute-force NumPy, BRS on the R-tree, the monolithic
un-chunked formulas) on random datasets, including adversarially
small chunk budgets so the chunked and un-chunked paths are both
exercised.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.core.incomparable import find_incomparable
from repro.core.sampling import ranks_under_weights
from repro.engine import kernels
from repro.index.rtree import RTree
from repro.topk.brs import BRSEngine
from repro.topk.scan import RANK_EPS, rank_of_scan, topk_scan


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    points = rng.random((400, 4))
    weights = rng.dirichlet(np.ones(4), size=60)
    q = rng.random(4)
    return points, weights, q


def brute_rank(points, w, q):
    scores = points @ w
    return 1 + int(np.count_nonzero(scores < float(w @ q) - RANK_EPS))


class TestScoreMatrix:
    def test_matches_blas(self, data):
        points, weights, _ = data
        expected = weights @ points.T
        np.testing.assert_allclose(
            kernels.score_matrix(weights, points), expected)

    @pytest.mark.parametrize("chunk_floats", [1, 7, 401, 10_000])
    def test_chunking_is_invisible(self, data, chunk_floats):
        # Different block shapes take different BLAS paths, which may
        # differ in the last ulp (the reason RANK_EPS exists) — so
        # allclose at float64 precision, not bitwise equality.
        points, weights, _ = data
        np.testing.assert_allclose(
            kernels.score_matrix(weights, points,
                                 chunk_floats=chunk_floats),
            kernels.score_matrix(weights, points),
            rtol=1e-14, atol=1e-15)

    def test_out_buffer(self, data):
        points, weights, _ = data
        buf = np.empty((100, 500))
        view = kernels.score_matrix(weights, points, out=buf)
        assert view.shape == (len(weights), len(points))
        assert view.base is buf
        np.testing.assert_allclose(view, weights @ points.T)

    def test_out_buffer_too_small(self, data):
        points, weights, _ = data
        with pytest.raises(ValueError, match="too small"):
            kernels.score_matrix(weights, points,
                                 out=np.empty((2, 2)))

    def test_block_iteration_covers_everything(self, data):
        points, weights, _ = data
        seen = []
        for start, stop, block in kernels.iter_score_blocks(
                weights, points, chunk_floats=800):
            assert block.shape == (stop - start, len(points))
            seen.append((start, stop))
        assert seen[0][0] == 0 and seen[-1][1] == len(weights)
        assert all(a[1] == b[0] for a, b in zip(seen, seen[1:]))


class TestTopk:
    def test_matches_full_sort(self, data):
        points, weights, _ = data
        for w in weights[:10]:
            scores = points @ w
            full = np.lexsort((np.arange(len(points)), scores))
            np.testing.assert_array_equal(
                kernels.topk_ids(points, w, 15), full[:15])

    def test_matches_legacy_scan(self, data):
        points, weights, _ = data
        for w in weights[:10]:
            np.testing.assert_array_equal(
                kernels.topk_ids(points, w, 7),
                topk_scan(points, w, 7))

    def test_k_clamped_and_validated(self, data):
        points, _, _ = data
        assert len(kernels.topk_ids(points, np.full(4, 0.25),
                                    10_000)) == len(points)
        with pytest.raises(ValueError):
            kernels.topk_ids(points, np.full(4, 0.25), 0)


class TestKthScoresBatch:
    def test_matches_brs(self, data):
        points, weights, _ = data
        engine = BRSEngine(RTree(points, capacity=16))
        ids, scores = kernels.kth_scores_batch(points, weights, k=9)
        for i, w in enumerate(weights):
            pid, sc = engine.kth_point(w, 9)
            assert ids[i] == pid
            assert scores[i] == sc      # same gemv, same bits

    @pytest.mark.parametrize("stride", [1, 13, 5_000])
    def test_sample_stride_is_invisible(self, data, stride):
        points, weights, _ = data
        base = kernels.kth_scores_batch(points, weights, k=5)
        with mock.patch.object(kernels, "KTH_SAMPLE_STRIDE", stride):
            other = kernels.kth_scores_batch(points, weights, k=5)
        np.testing.assert_array_equal(base[0], other[0])
        np.testing.assert_array_equal(base[1], other[1])

    def test_tie_break_matches_legacy_scan(self):
        # Three identical points: which two argpartition selects is
        # version-dependent, but the k-th must match the legacy
        # per-vector path bit-for-bit, and the (score, id) tie-break
        # never yields the smallest id when all three tie.
        from repro.topk.scan import kth_point_scan

        points = np.zeros((3, 2)) + 0.5
        ids, scores = kernels.kth_scores_batch(points, [[0.5, 0.5]],
                                               k=2)
        legacy_id, legacy_score = kth_point_scan(points, [0.5, 0.5], 2)
        assert ids[0] == legacy_id
        assert scores[0] == legacy_score
        assert ids[0] in (1, 2)

    def test_tie_straddling_partition_boundary(self):
        """Regression: ties across the k-th position must resolve by
        (score, id), not by whichever subset argpartition selected.

        With scores [1, 1, 1] and k=2 the ascending (score, id) order
        is (1,0), (1,1), (1,2) — the 2nd is id 1, but the old
        argpartition-based selection could return id 2.
        """
        points = np.ones((3, 2)) * 0.5
        ids, scores = kernels.kth_scores_batch(points, [[1.0, 1.0]],
                                               k=2)
        assert ids[0] == 1
        assert scores[0] == 1.0

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 8])
    def test_duplicate_scores_cross_check_topk(self, k):
        """kth_scores_batch == last of topk_ids == brute lexsort, on
        a dataset engineered so score ties straddle every boundary."""
        rng = np.random.default_rng(3)
        # 8 points but only 3 distinct score levels under w=(1, 1):
        # heavy duplication guarantees boundary-straddling ties.
        levels = rng.choice([0.2, 0.5, 0.9], size=8)
        points = np.column_stack([levels * 0.25, levels * 0.75])
        weights = np.array([[1.0, 1.0], [2.0, 2.0]])
        ids, scores = kernels.kth_scores_batch(points, weights, k=k)
        for i, w in enumerate(weights):
            row = points @ w
            order = np.lexsort((np.arange(len(points)), row))
            assert ids[i] == order[k - 1]
            assert scores[i] == row[order[k - 1]]
            top = kernels.topk_ids(points, w, k)
            np.testing.assert_array_equal(top, order[:k])
            assert ids[i] == top[-1]

    def test_small_dataset_rejected(self, data):
        points, weights, _ = data
        with pytest.raises(ValueError, match="fewer than"):
            kernels.kth_scores_batch(points[:3], weights, k=5)


class TestRanks:
    def test_rank_of_matches_scan(self, data):
        points, weights, q = data
        for w in weights[:20]:
            assert kernels.rank_of(points, w, q) == \
                rank_of_scan(points, w, q) == brute_rank(points, w, q)

    def test_ranks_batch_matches_loop(self, data):
        points, weights, q = data
        batched = kernels.ranks_batch(weights, points, q)
        expected = [brute_rank(points, w, q) for w in weights]
        np.testing.assert_array_equal(batched, expected)

    def test_ranks_batch_matches_brs(self, data):
        points, weights, q = data
        engine = BRSEngine(RTree(points, capacity=16))
        batched = kernels.ranks_batch(weights, points, q)
        for i, w in enumerate(weights):
            assert batched[i] == engine.rank_of(w, q)

    @pytest.mark.parametrize("chunk_floats", [1, 997])
    def test_chunking_is_invisible(self, data, chunk_floats):
        points, weights, q = data
        np.testing.assert_array_equal(
            kernels.ranks_batch(weights, points, q,
                                chunk_floats=chunk_floats),
            kernels.ranks_batch(weights, points, q))

    def test_partitioned_equals_full(self, data):
        """Ranks from a FindIncom partition == ranks from all points."""
        points, weights, q = data
        inc = find_incomparable(points, q)
        partitioned = kernels.ranks_batch(
            weights, points[inc.incomparable_ids], q,
            dominating=points[inc.dominating_ids])
        np.testing.assert_array_equal(
            partitioned, kernels.ranks_batch(weights, points, q))

    def test_dominating_as_int(self, data):
        points, weights, q = data
        inc = find_incomparable(points, q)
        trusted = kernels.ranks_batch(
            weights, points[inc.incomparable_ids], q,
            dominating=inc.n_dominating)
        np.testing.assert_array_equal(
            trusted, kernels.ranks_batch(weights, points, q))

    def test_empty_incomparable_set(self, data):
        _, weights, q = data
        ranks = kernels.ranks_batch(weights,
                                    np.empty((0, 4)), q,
                                    dominating=5)
        np.testing.assert_array_equal(ranks, np.full(len(weights), 6))

    def test_legacy_sampling_wrapper_agrees(self, data):
        points, weights, q = data
        inc = find_incomparable(points, q)
        np.testing.assert_array_equal(
            ranks_under_weights(weights, points[inc.incomparable_ids],
                                points[inc.dominating_ids], q),
            kernels.ranks_batch(weights, points, q))

    def test_beats_count_threshold_validation(self, data):
        points, weights, _ = data
        with pytest.raises(ValueError, match="one threshold"):
            kernels.beats_count(weights, points, np.zeros(3))
