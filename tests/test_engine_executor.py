"""Batch executor: parallel determinism, timing, and cache reuse.

The last test class asserts the PR's acceptance criterion: answering a
20-question batch (several customer panels per product) over one
catalogue through a shared :class:`DatasetContext` performs at least
2x less index work (R-tree builds + ``FindIncom`` traversals) than
answering each question cold.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import WhyNotBatch
from repro.data import independent, preference_set, query_point_with_rank
from repro.engine.context import DatasetContext
from repro.engine.executor import answer_one, execute_batch
from repro.topk.scan import rank_of_scan

N_PRODUCTS = 5
PANELS_PER_PRODUCT = 4
K = 10
RANK = 41


def make_questions(points, *, n_products=N_PRODUCTS,
                   panels=PANELS_PER_PRODUCT, seed=0):
    """(q, k, Wm) triples: ``panels`` panels per distinct product."""
    questions = []
    for j in range(n_products):
        base = preference_set(1, points.shape[1],
                              seed=seed + 50 + j)[0]
        q = query_point_with_rank(points, base, RANK)
        added = 0
        offset = 0
        while added < panels:
            wm = preference_set(1, points.shape[1],
                                seed=seed + 1000 * j + offset)
            offset += 1
            if rank_of_scan(points, wm[0], q) > K:
                questions.append((q, K, wm))
                added += 1
    return questions


@pytest.fixture(scope="module")
def points():
    return independent(800, 3, seed=21)


@pytest.fixture(scope="module")
def questions(points):
    qs = make_questions(points)
    assert len(qs) == N_PRODUCTS * PANELS_PER_PRODUCT
    return qs


def report_fingerprint(items):
    """Everything that should be identical across serial/parallel."""
    out = []
    for item in items:
        entry = {"index": item.index, "error": item.error,
                 "valid": item.valid, "penalty": item.penalty}
        result = item.result
        if result is not None:
            for attr in ("penalty", "k_refined"):
                if hasattr(result, attr):
                    entry[attr] = getattr(result, attr)
            for attr in ("q_refined", "weights_refined"):
                if hasattr(result, attr):
                    entry[attr] = np.asarray(
                        getattr(result, attr)).tolist()
        out.append(entry)
    return out


class TestParallelDeterminism:
    @pytest.mark.parametrize("algorithm", ["mqp", "mwk", "mqwk"])
    def test_serial_equals_parallel(self, points, questions, algorithm):
        sample = 40 if algorithm == "mqwk" else 80
        serial = execute_batch(DatasetContext(points), questions,
                               algorithm, sample_size=sample, seed=3,
                               workers=1)
        parallel = execute_batch(DatasetContext(points), questions,
                                 algorithm, sample_size=sample, seed=3,
                                 workers=4)
        assert report_fingerprint(serial) == report_fingerprint(parallel)

    def test_batch_api_serial_equals_parallel(self, points, questions):
        def run(workers):
            batch = WhyNotBatch(points)
            for q, k, wm in questions:
                batch.add_question(q, k, wm)
            return batch.run("mwk", sample_size=60, seed=5,
                             workers=workers)

        a, b = run(1), run(3)
        assert report_fingerprint(a.items) == report_fingerprint(b.items)
        assert a.summary()["answered"] == len(questions)

    def test_failing_items_identical_serial_parallel(self, points,
                                                     questions):
        """Batches containing failing items must still be
        bit-identical between the serial and threaded paths."""
        wm = preference_set(1, 3, seed=2)
        bad = (np.zeros(3), K, wm)       # rank 1: never missing
        mixed = questions[:3] + [bad] + questions[3:6]
        serial = execute_batch(DatasetContext(points), mixed, "mwk",
                               sample_size=40, seed=2, workers=1)
        threaded = execute_batch(DatasetContext(points), mixed, "mwk",
                                 sample_size=40, seed=2, workers=3)

        def normalize(items):
            # Failed items carry penalty=nan, which never compares
            # equal to itself.
            out = report_fingerprint(items)
            for entry in out:
                if np.isnan(entry["penalty"]):
                    entry["penalty"] = None
            return out

        assert normalize(serial) == normalize(threaded)
        assert serial[3].error is not None
        assert sum(item.error is None for item in serial) == 6

    def test_item_order_preserved(self, points, questions):
        items = execute_batch(DatasetContext(points), questions, "mqp",
                              workers=4)
        assert [item.index for item in items] == \
            list(range(len(questions)))


class TestExecutionItems:
    def test_per_item_timing(self, points, questions):
        items = execute_batch(DatasetContext(points), questions[:4],
                              "mwk", sample_size=40)
        assert all(item.elapsed > 0.0 for item in items)

    def test_failure_is_isolated(self, points):
        wm = preference_set(1, 3, seed=2)
        good_q = query_point_with_rank(points, wm[0], RANK)
        items = execute_batch(
            DatasetContext(points),
            [(good_q, K, wm), (np.zeros(3), K, wm)], "mqp")
        assert items[0].error is None and items[0].valid
        assert "already has q" in items[1].error
        assert items[1].elapsed >= 0.0

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("exc_type, marker", [
        (np.linalg.LinAlgError, "singular KKT system"),
        (RuntimeError, "RuntimeError: solver state corrupted"),
    ])
    def test_unexpected_exception_is_isolated(self, points,
                                              monkeypatch, workers,
                                              exc_type, marker):
        """An exception escaping an algorithm (e.g. a LinAlgError
        from the QP solver) must become a failed item, not abort the
        batch via ``pool.map`` and lose every completed sibling.

        The registry adapters resolve the implementation through its
        module attribute at call time, so patching the algorithm
        module is seen by every entry point."""
        import repro.core.mqp as mqp_module

        real_mqp = mqp_module.modify_query_point
        poison = np.float64(0.123456789)

        def exploding_mqp(query, **kwargs):
            if query.q[0] == poison:
                raise exc_type(marker.split(": ")[-1])
            return real_mqp(query, **kwargs)

        monkeypatch.setattr(mqp_module, "modify_query_point",
                            exploding_mqp)
        wm = preference_set(1, 3, seed=2)
        good_q = query_point_with_rank(points, wm[0], RANK)
        bad_q = good_q.copy()
        bad_q[0] = poison
        items = execute_batch(
            DatasetContext(points),
            [(good_q, K, wm), (bad_q, K, wm), (good_q, K, wm)],
            "mqp", workers=workers)
        assert [item.error is None for item in items] == \
            [True, False, True]
        assert marker in items[1].error
        assert not items[1].valid and np.isnan(items[1].penalty)
        assert items[0].valid and items[2].valid

    def test_unknown_algorithm(self, points):
        with pytest.raises(ValueError, match="unknown algorithm"):
            execute_batch(DatasetContext(points), [], "simplex")
        with pytest.raises(ValueError, match="unknown algorithm"):
            answer_one(DatasetContext(points), 0, np.ones(3), 2,
                       preference_set(1, 3, seed=1), "simplex")


class TestCacheReuseAcceptance:
    @pytest.mark.parametrize("algorithm", ["mwk", "mqwk"])
    def test_warm_context_halves_index_work(self, points, questions,
                                            algorithm):
        """Acceptance criterion: >= 2x fewer R-tree builds +
        FindIncom traversals with a shared context than cold."""
        sample = 30

        # Cold: every question answered against a fresh context, the
        # way independent WQRTQ calls would.
        cold_work = 0
        cold_items = []
        for index, (q, k, wm) in enumerate(questions):
            ctx = DatasetContext(points)
            cold_items.append(answer_one(
                ctx, index, q, k, wm, algorithm, sample_size=sample,
                rng=np.random.default_rng(7 + index)))
            cold_work += ctx.stats.index_work

        # Warm: one shared context for the whole batch.
        shared = DatasetContext(points)
        warm_items = execute_batch(shared, questions, algorithm,
                                   sample_size=sample, seed=7)
        warm_work = shared.stats.index_work

        # 20 questions / 5 products: cold pays 20 traversals, warm
        # pays 5; answering builds no R-tree either way.
        assert cold_work >= 2 * warm_work
        assert shared.stats.tree_builds == 0
        assert shared.stats.findincom_traversals == N_PRODUCTS
        # Every repeat product is a cache hit (partition cache for
        # MWK, box cache for MQWK).
        assert shared.stats.cache_hits == \
            len(questions) - N_PRODUCTS

        # Reuse must not change the answers.
        assert report_fingerprint(cold_items) == \
            report_fingerprint(warm_items)
