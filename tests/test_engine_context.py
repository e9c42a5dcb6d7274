"""DatasetContext: cache behaviour, counters, and correctness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.incomparable import find_incomparable
from repro.data import independent, preference_set, query_point_with_rank
from repro.engine.context import DEFAULT_CACHE_CAP, DatasetContext
from repro.index.rtree import RTree


@pytest.fixture()
def context():
    return DatasetContext(independent(600, 3, seed=11))


@pytest.fixture()
def q(context):
    w = preference_set(1, 3, seed=12)[0]
    return query_point_with_rank(context.points, w, 41)


class TestConstruction:
    def test_points_are_immutable(self, context):
        with pytest.raises(ValueError):
            context.points[0, 0] = 99.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DatasetContext(np.empty((0, 3)))

    def test_adopts_prebuilt_tree(self):
        pts = independent(200, 3, seed=13)
        tree = RTree(pts)
        ctx = DatasetContext(pts, tree=tree)
        assert ctx.tree is tree
        assert ctx.stats.tree_builds == 0

    def test_rejects_mismatched_tree(self):
        tree = RTree(independent(200, 3, seed=13))
        with pytest.raises(ValueError, match="does not index"):
            DatasetContext(independent(200, 3, seed=14), tree=tree)


class TestTreeCache:
    def test_tree_built_once(self, context):
        assert context.stats.tree_builds == 0
        t1 = context.tree
        t2 = context.tree
        assert t1 is t2
        assert context.stats.tree_builds == 1


class TestPartitionCache:
    def test_partition_matches_find_incomparable(self, context, q):
        # The context's FindIncom is a mask scan: the R-tree
        # traversal's sets, in id order rather than traversal order.
        cached = context.partition(q)
        direct = find_incomparable(context.tree, q)
        np.testing.assert_array_equal(cached.dominating_ids,
                                      np.sort(direct.dominating_ids))
        np.testing.assert_array_equal(cached.incomparable_ids,
                                      np.sort(direct.incomparable_ids))

    def test_repeat_q_is_a_hit(self, context, q):
        first = context.partition(q)
        assert context.stats.partition_misses == 1
        assert context.stats.findincom_traversals == 1
        second = context.partition(np.array(q))  # equal value, new obj
        assert second is first
        assert context.stats.partition_hits == 1
        assert context.stats.findincom_traversals == 1

    def test_distinct_q_is_a_miss(self, context, q):
        context.partition(q)
        context.partition(q * 0.9)
        assert context.stats.partition_misses == 2
        assert context.stats.findincom_traversals == 2

    def test_box_cache_shared_with_partition(self, context, q):
        """partition() and box_cache() ride one traversal per q."""
        context.partition(q)
        box = context.box_cache(q)
        assert context.stats.findincom_traversals == 1
        assert context.stats.box_cache_hits == 1
        assert context.stats.cache_hits == 1
        sub = box.partition(q * 0.8)
        direct = find_incomparable(context.tree, q * 0.8)
        np.testing.assert_array_equal(sub.incomparable_ids,
                                      np.sort(direct.incomparable_ids))

    def test_index_work_counter(self, context, q):
        context.tree
        context.partition(q)
        context.partition(q)
        assert context.stats.index_work == 2  # 1 build + 1 traversal


class TestLRUBounds:
    def probes(self, context, count, *, seed=91):
        rng = np.random.default_rng(seed)
        return rng.random((count, context.dim)) * 0.5 + 0.25

    def test_default_cap_is_generous(self, context):
        assert context.max_partitions == DEFAULT_CACHE_CAP
        assert context.max_box_caches == DEFAULT_CACHE_CAP
        for q in self.probes(context, 20):
            context.partition(q)
        assert context.stats.evictions == 0

    def test_invalid_caps_rejected(self):
        pts = independent(50, 3, seed=1)
        with pytest.raises(ValueError, match="max_partitions"):
            DatasetContext(pts, max_partitions=0)
        with pytest.raises(ValueError, match="max_box_caches"):
            DatasetContext(pts, max_box_caches=-1)

    def test_none_disables_bound(self):
        context = DatasetContext(independent(100, 3, seed=2),
                                 max_partitions=None,
                                 max_box_caches=None)
        for q in self.probes(context, 12):
            context.partition(q)
        assert context.n_cached_partitions == 12
        assert context.stats.evictions == 0

    def test_partition_cache_bounded(self):
        context = DatasetContext(independent(200, 3, seed=3),
                                 max_partitions=4, max_box_caches=4)
        for q in self.probes(context, 10):
            context.partition(q)
        assert context.n_cached_partitions == 4
        assert context.n_cached_box_caches == 4
        assert context.stats.partition_evictions == 6
        assert context.stats.box_cache_evictions == 6

    def test_hit_refreshes_recency(self):
        """An LRU hit must move the entry to the back of the queue."""
        context = DatasetContext(independent(200, 3, seed=4),
                                 max_partitions=2, max_box_caches=2)
        q1, q2, q3 = self.probes(context, 3)
        context.partition(q1)
        context.partition(q2)
        first = context.partition(q1)        # refresh q1
        context.partition(q3)                # evicts q2, not q1
        assert context.partition(q1) is first
        assert context.stats.partition_hits == 2
        # q2's partition is gone: asking again is a miss (though it
        # may still ride a cached box traversal).
        misses = context.stats.partition_misses
        context.partition(q2)
        assert context.stats.partition_misses == misses + 1

    def test_eviction_never_serves_wrong_partition(self):
        """Every partition handed out — cached, evicted-and-rebuilt,
        or fresh — must be the FindIncom result for *that* q."""
        context = DatasetContext(independent(300, 3, seed=5),
                                 max_partitions=3, max_box_caches=3)
        probes = self.probes(context, 9)
        # Two passes with a small cap: the second pass re-asks every
        # q after it has been evicted at least once.
        for _ in range(2):
            for q in probes:
                got = context.partition(q)
                direct = find_incomparable(context.tree, q)
                np.testing.assert_array_equal(
                    got.dominating_ids, np.sort(direct.dominating_ids))
                np.testing.assert_array_equal(
                    got.incomparable_ids,
                    np.sort(direct.incomparable_ids))
        assert context.stats.partition_evictions > 0

    def test_bounded_equals_unbounded_answers(self):
        """Acceptance criterion: a bounded context (cap 8) serving 50
        distinct products stays within its cap, reports evictions,
        and returns answers identical to an unbounded context."""
        from repro.engine.executor import execute_batch

        points = independent(400, 3, seed=6)
        bounded = DatasetContext(points, max_partitions=8,
                                 max_box_caches=8)
        unbounded = DatasetContext(points, max_partitions=None,
                                   max_box_caches=None)
        questions = []
        for j in range(50):
            w = preference_set(1, 3, seed=700 + j)
            q = query_point_with_rank(points, w[0], 41)
            questions.append((q, 10, w))
        kwargs = dict(algorithm="mwk", sample_size=25, seed=9)
        got = execute_batch(bounded, questions, **kwargs)
        want = execute_batch(unbounded, questions, **kwargs)
        assert len(bounded._partitions) <= 8
        assert bounded.stats.partition_evictions > 0
        for a, b in zip(got, want):
            assert a.error is None and b.error is None
            assert a.penalty == b.penalty
            assert a.result.k_refined == b.result.k_refined
            np.testing.assert_array_equal(a.result.weights_refined,
                                          b.result.weights_refined)


class TestScoreBuffer:
    def test_buffer_reuse_and_growth(self, context):
        a = context.score_buffer(10, 20)
        assert a.shape[0] >= 10 and a.shape[1] >= 20
        b = context.score_buffer(8, 20)
        assert b is a
        assert context.stats.buffer_reuses == 1
        c = context.score_buffer(4 * a.shape[0], 20)
        assert c.shape[0] >= 4 * a.shape[0]

    def test_defaults_to_catalogue_width(self, context):
        buf = context.score_buffer(5)
        assert buf.shape[1] >= context.n

    def test_ranks_uses_buffer_and_matches_kernel(self, context, q):
        from repro.data import preference_set
        from repro.engine.kernels import ranks_batch

        wts = preference_set(15, 3, seed=33)
        first = context.ranks(wts, q)
        np.testing.assert_array_equal(
            first, ranks_batch(wts, context.points, q))
        context.ranks(wts, q)
        assert context.stats.buffer_reuses >= 1

    def test_larger_request_after_growth_is_correct(self, context, q):
        """Buffer aliasing: a bigger follow-up request must not read
        stale rows from the geometrically-grown scratch buffer."""
        from repro.data import preference_set
        from repro.engine.kernels import ranks_batch

        sizes = [3, 5, 40, 17, 160, 160, 80]
        for i, m in enumerate(sizes):
            wts = preference_set(m, 3, seed=100 + i)
            np.testing.assert_array_equal(
                context.ranks(wts, q),
                ranks_batch(wts, context.points, q))
        # The repeated 160-row request and the shrinking 80-row one
        # must have been served from the grown buffer.
        assert context.stats.buffer_reuses >= 2

    def test_growth_keeps_both_axes(self):
        """Growing one axis must not shrink the other."""
        context = DatasetContext(independent(30, 3, seed=44))
        context.score_buffer(4, 100)
        buf = context.score_buffer(64, 10)
        assert buf.shape[0] >= 64 and buf.shape[1] >= 100


class TestQuestion:
    def test_question_binds_shared_tree(self, context, q):
        wm = preference_set(1, 3, seed=12)
        question = context.question(q, 10, wm)
        assert question.rtree is context.tree
        assert question.k == 10
