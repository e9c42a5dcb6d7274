"""Catalogue lifecycle: versioned snapshots, copy-on-write derivation,
epoch-based cache invalidation, snapshot isolation.

Uses only the typed Question/Answer API, so this module runs in CI
with ``-W error::DeprecationWarning``.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.core.protocol import Question
from repro.core.session import Session
from repro.data import (
    Catalogue,
    independent,
    preference_set,
    query_point_with_rank,
)
from repro.engine.context import DatasetContext
from repro.engine.executor import answer_question, execute_questions
from repro.index.rtree import RTree

N = 400
D = 3
K = 10
RANK = 41

#: Coordinates every unit-cube query point dominates: mutations using
#: them cannot invalidate any cached partition (higher = worse).
FAR_AWAY = 3.0


@pytest.fixture(scope="module")
def points():
    return independent(N, D, seed=17)


def make_typed(points, j, *, rank=RANK, algorithm="mqp",
               options=None, id=None):
    w = preference_set(1, D, seed=7000 + j)
    q = query_point_with_rank(points, w[0], rank)
    return Question(q=q, k=K, why_not=w, algorithm=algorithm,
                    options=options or {}, id=id)


def payload_bytes(answer) -> bytes:
    """The Answer payload as canonical JSON, timing stripped."""
    payload = {key: value for key, value in answer.to_dict().items()
               if key != "elapsed"}
    return json.dumps(payload, sort_keys=True).encode()


class TestLifecycle:
    def test_initial_state(self, points):
        cat = Catalogue(points)
        assert cat.version == 0 and cat.n == N and cat.dim == D
        assert cat.snapshot.version == 0
        np.testing.assert_array_equal(cat.product_ids(), np.arange(N))
        described = cat.describe()
        assert described["version"] == 0
        assert described["mutations"] == {
            "count": 0, "adds": 0, "updates": 0, "removes": 0}
        assert cat.history() == ()

    def test_points_context_exclusive(self, points):
        with pytest.raises(ValueError, match="points or a context"):
            Catalogue()
        with pytest.raises(ValueError, match="not both"):
            Catalogue(points, context=DatasetContext(points))

    def test_add_assigns_fresh_monotonic_ids(self, points):
        cat = Catalogue(points)
        first = cat.add_products(np.full((3, D), FAR_AWAY))
        assert first.tolist() == [N, N + 1, N + 2]
        assert cat.version == 1 and cat.n == N + 3
        second = cat.add_products([[FAR_AWAY] * D])
        assert second.tolist() == [N + 3]
        assert cat.version == 2

    def test_update_replaces_coordinates(self, points):
        cat = Catalogue(points)
        replacement = np.full(D, FAR_AWAY)
        version = cat.update_products([7], [replacement])
        assert version == 1 and cat.n == N
        np.testing.assert_array_equal(cat.snapshot.points[7],
                                      replacement)

    def test_remove_compacts_and_keeps_survivor_ids(self, points):
        cat = Catalogue(points)
        version = cat.remove_products([0, 5])
        assert version == 1 and cat.n == N - 2
        ids = cat.product_ids()
        assert 0 not in ids and 5 not in ids
        assert ids[0] == 1
        # Survivor rows keep their coordinates, addressed by id.
        np.testing.assert_array_equal(cat.snapshot.points[0],
                                      points[1])
        np.testing.assert_array_equal(cat.snapshot.product_ids, ids)

    def test_ids_never_reused_after_removal(self, points):
        cat = Catalogue(points)
        cat.remove_products([N - 1])
        new = cat.add_products([[FAR_AWAY] * D])
        assert new.tolist() == [N]   # not N - 1: ids are never reused
        ids = cat.product_ids()
        assert len(np.unique(ids)) == len(ids)

    def test_history_records_every_mutation(self, points):
        cat = Catalogue(points)
        cat.add_products([[FAR_AWAY] * D])
        cat.update_products([2], [[FAR_AWAY] * D])
        cat.remove_products([3])
        ops = [(r.version, r.op, r.count, r.n_after)
               for r in cat.history()]
        assert ops == [(1, "add", 1, N + 1),
                       (2, "update", 1, N + 1),
                       (3, "remove", 1, N)]
        assert cat.history()[0].to_dict() == {
            "version": 1, "op": "add", "count": 1, "n_after": N + 1}

    def test_adopted_context_is_version_zero_snapshot(self, points):
        context = DatasetContext(points)
        cat = Catalogue(context=context)
        assert cat.snapshot is context
        assert cat.version == 0
        cat.add_products([[FAR_AWAY] * D])
        assert cat.snapshot is not context   # context itself untouched
        assert context.n == N


class TestValidation:
    @pytest.fixture()
    def cat(self, points):
        return Catalogue(points)

    def test_dim_mismatch_rejected(self, cat):
        with pytest.raises(ValueError, match=f"{D} coordinates"):
            cat.add_products([[0.5, 0.5]])

    def test_non_finite_rejected(self, cat):
        with pytest.raises(ValueError, match="finite"):
            cat.add_products([[np.nan] * D])

    def test_empty_products_rejected(self, cat):
        with pytest.raises(ValueError, match="non-empty"):
            cat.add_products(np.empty((0, D)))

    def test_unknown_ids_rejected(self, cat):
        with pytest.raises(ValueError, match=r"unknown product id\(s\): "
                                             r"\[9999\]"):
            cat.remove_products([9999])

    def test_duplicate_ids_rejected(self, cat):
        with pytest.raises(ValueError, match="duplicates"):
            cat.remove_products([1, 1])

    def test_remove_everything_rejected(self, cat):
        with pytest.raises(ValueError, match="non-empty"):
            cat.remove_products(list(range(N)))

    def test_update_count_mismatch_rejected(self, cat):
        with pytest.raises(ValueError, match="one coordinate row"):
            cat.update_products([1, 2], [[0.5] * D])

    def test_adopted_unsorted_product_ids_rejected(self, points):
        """Id lookup is a searchsorted over a strictly increasing
        array; an adopted context with out-of-order ids would
        silently mis-address rows, so it is rejected up front."""
        context = DatasetContext(points[:3],
                                 product_ids=[5, 3, 9])
        with pytest.raises(ValueError, match="strictly increasing"):
            Catalogue(context=context)

    def test_apply_is_atomic_description(self, cat):
        applied = cat.apply("add", products=[[FAR_AWAY] * D])
        assert applied == {"op": "add", "ids": [N], "version": 1,
                           "n": N + 1}
        applied = cat.apply("update", ids=[N],
                            products=[[FAR_AWAY] * D])
        assert applied["version"] == 2 and applied["ids"] == [N]
        applied = cat.apply("remove", ids=[N])
        assert applied == {"op": "remove", "ids": [N], "version": 3,
                           "n": N}
        with pytest.raises(ValueError, match="op must be"):
            cat.apply("zap")
        with pytest.raises(ValueError, match="requires 'products'"):
            cat.apply("add")


class TestSnapshotCorrectness:
    """After any mutation sequence, a derived snapshot must be
    *equivalent* to a context built from scratch over the same
    points: identical index contents, identical partition sets,
    valid answers with identical penalties for the deterministic
    paths.  (Byte-level answer identity holds when derivation
    started cold; inherited caches preserve the parent's traversal
    order, so the sampling-based refinements may legitimately pick a
    different — equally valid — optimum than a scratch rebuild.
    Within one snapshot, every answer stays fully deterministic.)"""

    def test_patched_tree_matches_fresh_tree(self, points):
        cat = Catalogue(points)
        cat.snapshot.tree   # force the patch path
        rng = np.random.default_rng(3)
        cat.add_products(rng.random((10, D)) + 0.5)
        cat.update_products([5, 50, 300], rng.random((3, D)))
        cat.remove_products([2, 7, N + 4])
        patched = cat.snapshot.tree
        fresh = RTree(cat.snapshot.points)
        assert len(patched) == len(fresh) == cat.n
        for seed in range(5):
            q = np.random.default_rng(seed).random(D)
            np.testing.assert_array_equal(
                np.sort(patched.knn_query(q, 15)),
                np.sort(fresh.knn_query(q, 15)))
            np.testing.assert_array_equal(
                patched.range_query(np.zeros(D), q),
                fresh.range_query(np.zeros(D), q))

    def test_derived_partitions_match_fresh(self, points):
        cat = Catalogue(points)
        probes = [points[i] * 1.01 for i in (3, 30, 60)]
        for q in probes:
            cat.snapshot.partition(q)
        rng = np.random.default_rng(4)
        cat.update_products([9], [rng.random(D)])
        cat.remove_products([11, 12])
        snapshot = cat.snapshot
        fresh = DatasetContext(snapshot.points)
        for q in probes:
            got = snapshot.partition(q)
            want = fresh.partition(q)
            np.testing.assert_array_equal(
                np.sort(got.dominating_ids),
                np.sort(want.dominating_ids))
            np.testing.assert_array_equal(
                np.sort(got.incomparable_ids),
                np.sort(want.incomparable_ids))

    def test_answers_match_fresh_context(self, points):
        cat = Catalogue(points)
        rng = np.random.default_rng(5)
        cat.add_products(rng.random((4, D)) + 0.2)
        cat.remove_products([1, 2, 3])
        snapshot = cat.snapshot
        questions = [make_typed(snapshot.points, j, algorithm=alg,
                                options=opts)
                     for j, (alg, opts) in enumerate([
                         ("mqp", {}),
                         ("mwk", {"sample_size": 30}),
                         ("mqwk", {"sample_size": 20})])]
        fresh = DatasetContext(snapshot.points,
                               version=snapshot.version)
        derived = execute_questions(snapshot, questions, seed=9)
        scratch = execute_questions(fresh, questions, seed=9)
        assert [payload_bytes(a) for a in derived] == \
            [payload_bytes(a) for a in scratch]
        assert all(a.ok for a in derived)

    def test_warm_derivation_answers_stay_valid_and_deterministic(
            self, points):
        """With warmed (inherited) caches, derived-snapshot answers
        remain audit-valid, penalty-identical on the deterministic
        MQP and order-insensitive MWK paths, and *fully* repeatable
        within the snapshot — the guarantee ``catalogue_version``
        stamps.  (MQWK's sampled optimum may differ from a scratch
        rebuild's: candidate traversal order is inherited.)"""
        cat = Catalogue(points)
        questions = [make_typed(points, j, algorithm=alg,
                                options=opts)
                     for j, (alg, opts) in enumerate([
                         ("mqp", {}),
                         ("mwk", {"sample_size": 30}),
                         ("mqwk", {"sample_size": 20})])]
        cat.snapshot.tree
        for question in questions:
            cat.snapshot.partition(question.q)
        cat.add_products(np.full((2, D), FAR_AWAY))
        snapshot = cat.snapshot
        assert snapshot.stats.partitions_inherited == 3

        derived = execute_questions(snapshot, questions, seed=9)
        scratch = execute_questions(
            DatasetContext(snapshot.points,
                           version=snapshot.version),
            questions, seed=9)
        assert all(a.ok and a.valid for a in derived)
        assert derived[0].penalty == scratch[0].penalty   # mqp
        assert payload_bytes(derived[0]) == payload_bytes(scratch[0])
        assert derived[1].penalty == scratch[1].penalty   # mwk
        assert scratch[2].ok and scratch[2].valid         # mqwk
        # Snapshot-internal determinism: byte-identical replays.
        replay = execute_questions(snapshot, questions, seed=9)
        assert [payload_bytes(a) for a in replay] == \
            [payload_bytes(a) for a in derived]


class TestSnapshotIsolation:
    """Satellite: a reader pinned at version N sees byte-identical
    answers while a writer advances the catalogue to N + 2."""

    def test_pinned_reader_unaffected_by_writer(self, points):
        cat = Catalogue(points)
        pinned = cat.snapshot                        # version N = 0
        questions = [make_typed(points, j) for j in range(4)]
        before = [payload_bytes(answer_question(
            pinned, question, rng=np.random.default_rng(2)))
            for question in questions]

        # Writer advances to N + 2, changing data the questions see:
        # near-origin products dominate everything.
        cat.add_products(np.full((2, D), 1e-3))      # version N + 1
        cat.update_products([0], [np.full(D, 1e-3)])  # version N + 2
        assert cat.version == 2

        after = [payload_bytes(answer_question(
            pinned, question, rng=np.random.default_rng(2)))
            for question in questions]
        assert before == after                       # byte-identical
        for raw in after:
            assert json.loads(raw)["catalogue_version"] == 0

        # The *current* snapshot answers against the new data and
        # stamps the new version.
        live = answer_question(cat.snapshot, questions[0],
                               rng=np.random.default_rng(2))
        assert live.catalogue_version == 2
        assert payload_bytes(live) != before[0]

    def test_session_pins_per_call_and_follows(self, points):
        cat = Catalogue(points)
        session = Session(catalogue=cat)
        assert session.catalogue_version == 0
        question = make_typed(points, 1)
        first = session.ask(question, seed=3)
        assert first.catalogue_version == 0
        cat.add_products([[FAR_AWAY] * D])
        assert session.catalogue_version == 1
        second = session.ask(question, seed=3)
        assert second.catalogue_version == 1
        # A far-away product changes no answer content, only version.
        assert second.penalty == first.penalty

    def test_session_rejects_catalogue_plus_points(self, points):
        with pytest.raises(ValueError, match="exactly one"):
            Session(points, catalogue=Catalogue(points))


class TestEpochInvalidation:
    """Satellite: a mutation drops exactly the cache entries it made
    stale — the mutated product's partitions — and retains the rest,
    observable through ContextStats."""

    def probes(self, points):
        # Three cached products, far apart in the unit cube.
        return [points[i] * 1.01 + 1e-4 for i in (5, 100, 200)]

    def test_untouched_partitions_retained(self, points):
        cat = Catalogue(points)
        # Pre-position the product that will mutate *outside* every
        # probe's candidate region, then warm the caches.
        cat.update_products([42], [np.full(D, FAR_AWAY)])
        for q in self.probes(points):
            cat.snapshot.partition(q)
        assert cat.snapshot.n_cached_partitions == 3

        # A far-away product moving farther away is invisible to
        # every probe before *and* after: everything is inherited.
        cat.update_products([42], [np.full(D, FAR_AWAY + 1.0)])
        snapshot = cat.snapshot
        assert snapshot.stats.partitions_inherited == 3
        assert snapshot.stats.partition_invalidations == 0
        assert snapshot.stats.box_caches_inherited == 3
        assert snapshot.stats.box_cache_invalidations == 0
        assert snapshot.n_cached_partitions == 3

        # Re-asking about an untouched product is a pure cache hit:
        # no FindIncom traversal on the new snapshot.
        for q in self.probes(points):
            snapshot.partition(q)
        assert snapshot.stats.partition_hits == 3
        assert snapshot.stats.findincom_traversals == 0

    def test_mutated_products_partitions_dropped(self, points):
        cat = Catalogue(points)
        probes = self.probes(points)
        for q in probes:
            cat.snapshot.partition(q)

        # A product moving to the origin dominates every probe: all
        # three cached partitions are now stale and must drop.
        cat.update_products([42], [np.full(D, 1e-6)])
        snapshot = cat.snapshot
        assert snapshot.stats.partition_invalidations == 3
        assert snapshot.stats.partitions_inherited == 0
        assert snapshot.n_cached_partitions == 0

        # Re-asking re-traverses (a true miss) and is *correct*: the
        # moved product now dominates each probe.
        moved_row = int(np.where(cat.product_ids() == 42)[0][0])
        for q in probes:
            partition = snapshot.partition(q)
            assert moved_row in partition.dominating_ids.tolist()
        assert snapshot.stats.findincom_traversals == 3

    def test_partial_invalidation_is_per_entry(self, points):
        """One probe's region mutated, the other probes' entries
        survive — invalidation is per ``q``, not a flush."""
        cat = Catalogue(points)
        probes = self.probes(points)
        for q in probes:
            cat.snapshot.partition(q)
        # Place the mutation *under* probe 0 only: dominated by the
        # other probes' corners it is not.
        target = probes[0] * 0.5
        assert not np.all(target >= probes[1])
        cat.update_products([42], [target])
        snapshot = cat.snapshot
        assert snapshot.stats.partitions_inherited \
            + snapshot.stats.partition_invalidations == 3
        assert snapshot.stats.partition_invalidations >= 1
        # Correctness for every probe regardless of retention.
        fresh = DatasetContext(snapshot.points)
        for q in probes:
            np.testing.assert_array_equal(
                np.sort(snapshot.partition(q).incomparable_ids),
                np.sort(fresh.partition(q).incomparable_ids))

    def test_removal_remaps_retained_entries(self, points):
        cat = Catalogue(points)
        probes = self.probes(points)
        # Park the product far away *before* warming, so removing it
        # later invalidates nothing — but still renumbers every row
        # above it (it occupies row 0).
        cat.update_products([0], [np.full(D, FAR_AWAY)])
        for q in probes:
            cat.snapshot.partition(q)
        cat.remove_products([0])
        snapshot = cat.snapshot
        assert snapshot.stats.partitions_inherited == 3
        assert snapshot.n == N - 1
        fresh = DatasetContext(snapshot.points)
        for q in probes:
            np.testing.assert_array_equal(
                np.sort(snapshot.partition(q).dominating_ids),
                np.sort(fresh.partition(q).dominating_ids))
        assert snapshot.stats.findincom_traversals == 0

    def test_whole_catalogue_update_counts_as_build(self, points):
        """Updating every row empties the copied tree; the patch
        falls back to a bulk load, which must be accounted as a
        build, not a patch."""
        cat = Catalogue(points)
        cat.snapshot.tree
        cat.update_products(cat.product_ids(),
                            np.ascontiguousarray(points[::-1]))
        snapshot = cat.snapshot
        assert snapshot.stats.tree_builds == 1
        assert snapshot.stats.tree_patches == 0
        fresh = RTree(snapshot.points)
        q = points[0]
        np.testing.assert_array_equal(
            np.sort(snapshot.tree.knn_query(q, 10)),
            np.sort(fresh.knn_query(q, 10)))

    def test_epoch_advances_per_derivation(self, points):
        cat = Catalogue(points)
        assert cat.snapshot.epoch == 0
        cat.add_products([[FAR_AWAY] * D])
        cat.add_products([[FAR_AWAY] * D])
        assert cat.snapshot.epoch == 2


class TestConcurrency:
    def test_readers_stay_consistent_under_writer(self, points):
        """Readers pinning snapshots mid-stream each see one
        consistent version per batch while a writer mutates."""
        cat = Catalogue(points)
        questions = [make_typed(points, j) for j in range(3)]
        stop = threading.Event()
        errors: list[Exception] = []

        def writer():
            try:
                ids = []
                while not stop.is_set():
                    ids.extend(cat.add_products(
                        [[FAR_AWAY] * D]).tolist())
                    if len(ids) > 4:
                        cat.remove_products(ids[:2])
                        ids = ids[2:]
            except Exception as exc:   # pragma: no cover
                errors.append(exc)

        def reader():
            try:
                session = Session(catalogue=cat)
                for _ in range(10):
                    answers = session.ask_batch(questions, seed=1)
                    versions = {a.catalogue_version for a in answers}
                    assert len(versions) == 1   # one snapshot per batch
                    assert all(a.ok for a in answers)
            except Exception as exc:   # pragma: no cover
                errors.append(exc)

        writer_thread = threading.Thread(target=writer)
        reader_threads = [threading.Thread(target=reader)
                          for _ in range(3)]
        writer_thread.start()
        for thread in reader_threads:
            thread.start()
        for thread in reader_threads:
            thread.join(timeout=60)
        stop.set()
        writer_thread.join(timeout=60)
        assert not errors, errors
