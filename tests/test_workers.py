"""Multi-process worker pool: scatter-gather byte-identity + lifecycle.

Satellite acceptance for the tentpole: answers served by the
:class:`~repro.service.workers.WorkerPool` — whole questions and
sharded scatter-gather alike — must be **byte-identical** to the
single-process session path for every registered algorithm, across
``k``, dimensionality and tie-heavy data; catalogue mutations publish
new versions to the workers and retire old shared segments; and a
shutdown leaves no worker process and no ``/dev/shm`` segment alive.

The pool spawns real processes, so fixtures are module-scoped: one
pool serves every identity test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.protocol import Answer, ErrorInfo, Question
from repro.data import independent, preference_set, query_point_with_rank
from repro.engine.shm import owned_segments
from repro.service import CatalogueRegistry, WorkerPool, WorkerPoolError

D = 3


def tie_heavy(n: int, d: int, seed: int) -> np.ndarray:
    """A catalogue where exact score ties are common: duplicated rows
    force the k-th boundary and dominance partitions through the
    tie-break rules the shard merge must reproduce."""
    base = independent(n, d, seed=seed)
    return np.vstack([base, base[: n // 3]])


@pytest.fixture(scope="module")
def registry():
    reg = CatalogueRegistry()
    reg.register("tie", tie_heavy(360, D, seed=31))
    reg.register("d5", independent(300, 5, seed=32))
    reg.register("mut", independent(240, D, seed=33))
    return reg


@pytest.fixture(scope="module")
def pool(registry):
    pool = WorkerPool(registry, workers=2, shards=3)
    yield pool
    pool.shutdown()


def strip_elapsed(answer) -> dict:
    payload = answer.to_dict()
    payload.pop("elapsed")
    return payload


def make_question(points, j, *, algorithm, k, options=None, m=2):
    # The second why-not vector's rank for q is unconstrained, so a
    # large k must stick to the vector with the known rank.
    d = points.shape[1]
    w = preference_set(m, d, seed=900 + j)
    rank = min(max(41, 2 * k + 1), len(points) - 1)
    q = query_point_with_rank(points, w[0], rank)
    return Question(q=q, k=k, why_not=w, algorithm=algorithm,
                    options=options or {})


ALGORITHMS = [("mqp", {}), ("mwk", {"sample_size": 60}),
              ("mqwk", {"sample_size": 40})]


class TestAskIdentity:
    @pytest.mark.parametrize("name", ["tie", "d5"])
    @pytest.mark.parametrize("algorithm, options", ALGORITHMS)
    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_sharded_equals_session(self, registry, pool, name,
                                    algorithm, options, k):
        points = registry.get(name).points
        question = make_question(points, k, algorithm=algorithm,
                                 k=k, options=options,
                                 m=2 if k <= 5 else 1)
        expected = registry.session(name).ask(question, seed=17)
        got = pool.ask(name, question, seed=17)
        assert expected.ok, expected.error
        assert strip_elapsed(expected) == strip_elapsed(got)

    @pytest.mark.parametrize("use_rtree", [False, True])
    def test_use_rtree_question_shards_identically(self, registry,
                                                   pool, use_rtree):
        # Both k-th-point paths (the scan and BRS) score with the
        # shard merge's gemv, so either option scatter-gathers and
        # the merged answer is byte-identical to the whole one.
        points = registry.get("tie").points
        question = make_question(points, 7, algorithm="mqp", k=9,
                                 options={"use_rtree": use_rtree})
        before = pool.stats()["partials"]
        expected = registry.session("tie").ask(question, seed=2)
        got = pool.ask("tie", question, seed=2)
        assert expected.ok
        assert pool.stats()["partials"] == before + pool.shards
        assert strip_elapsed(expected) == strip_elapsed(got)

    def test_failure_identity(self, registry, pool):
        points = registry.get("tie").points
        question = make_question(points, 8, algorithm="mqp",
                                 k=10 ** 6)
        expected = registry.session("tie").ask(question, seed=0)
        got = pool.ask("tie", question, seed=0)
        assert not expected.ok
        assert strip_elapsed(expected) == strip_elapsed(got)

    def test_unpublished_catalogue_rejected(self, pool):
        question = Question(q=[0.2] * D, k=3,
                            why_not=preference_set(1, D, seed=1))
        with pytest.raises((WorkerPoolError, KeyError)):
            pool.ask("nope", question, seed=0)


class TestBatchIdentity:
    def test_mixed_batch_equals_session(self, registry, pool):
        points = registry.get("tie").points
        questions = [
            make_question(points, 20 + j, algorithm=algorithm,
                          k=5 + j, options=options)
            for j, (algorithm, options) in enumerate(ALGORITHMS * 3)]
        expected = registry.session("tie").ask_batch(questions,
                                                     seed=40)
        got = pool.ask_batch("tie", questions, seed=40)
        assert [strip_elapsed(a) for a in expected] \
            == [strip_elapsed(a) for a in got]

    def test_prefailed_entries_ride_along(self, registry, pool):
        points = registry.get("tie").points
        prefailed = Answer(index=0, algorithm="mwk", result=None,
                           penalty=float("nan"), valid=False,
                           error=ErrorInfo(type="ValueError",
                                           message="bad entry"))
        items = [make_question(points, 30, algorithm="mwk", k=6,
                               options={"sample_size": 40}),
                 prefailed,
                 make_question(points, 31, algorithm="mqp", k=4)]
        expected = registry.session("tie").ask_batch(items, seed=9)
        got = pool.ask_batch("tie", items, seed=9)
        assert [strip_elapsed(a) for a in expected] \
            == [strip_elapsed(a) for a in got]
        assert got[1].error.message == "bad entry"
        assert got[1].index == 1

    def test_empty_batch(self, pool):
        assert pool.ask_batch("tie", []) == []


class TestPublish:
    def test_mutation_publish_retire(self, registry, pool):
        catalogue = registry.catalogue("mut")
        points = registry.get("mut").points
        question = make_question(points, 50, algorithm="mqwk", k=7,
                                 options={"sample_size": 40})
        before = pool.ask("mut", question, seed=3)
        assert before.catalogue_version == 0

        old_segment = pool.manifest("mut").segment
        assert old_segment in owned_segments()
        catalogue.add_products(independent(5, D, seed=60) + 0.01)
        manifest = pool.publish("mut")
        assert manifest.version == catalogue.version == 1
        assert pool.version("mut") == 1
        assert manifest.segment in owned_segments()
        assert old_segment not in owned_segments()   # retired

        after = pool.ask("mut", question, seed=3)
        expected = registry.session("mut").ask(question, seed=3)
        assert after.catalogue_version == 1
        assert strip_elapsed(after) == strip_elapsed(expected)

    def test_publish_is_idempotent_per_version(self, registry, pool):
        first = pool.publish("tie")
        again = pool.publish("tie")
        assert again is first


class TestStats:
    def test_counters(self, pool):
        stats = pool.stats()
        assert stats["workers"] == 2
        assert stats["shards"] == 3
        assert stats["questions"] > 0
        assert stats["partials"] > 0
        assert len(stats["per_worker"]) == 2
        for worker in stats["per_worker"]:
            assert worker["publishes"] >= 3     # three catalogues
            assert worker["throughput_qps"] >= 0.0
        assert set(stats["published"]) == {"tie", "d5", "mut"}


class TestServedOverHTTP:
    """The wire path: ``create_server(workers=...)`` routes /answer
    and /batch through the pool, mutations publish, /stats reports
    per-worker throughput — and the rendered items match the
    in-process session byte for byte."""

    @pytest.fixture(scope="class")
    def served(self):
        import threading

        from repro.service import ServiceClient, create_server

        registry = CatalogueRegistry()
        registry.register("wire", tie_heavy(240, D, seed=90))
        server = create_server(registry, workers=2, shards=2)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        yield registry, server, ServiceClient(port=server.port)
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def test_answer_matches_session(self, served):
        registry, server, client = served
        points = registry.get("wire").points
        question = make_question(points, 100, algorithm="mqwk", k=6,
                                 options={"sample_size": 40})
        expected = registry.session("wire").ask(question, seed=4)
        got = client.ask("wire", question, seed=4)
        assert strip_elapsed(expected) == strip_elapsed(got)

    def test_batch_matches_session(self, served):
        registry, server, client = served
        points = registry.get("wire").points
        questions = [make_question(points, 110 + j, algorithm="mwk",
                                   k=5, options={"sample_size": 40})
                     for j in range(5)]
        expected = registry.session("wire").ask_batch(questions,
                                                      seed=8)
        answers, summary = client.ask_batch("wire", questions, seed=8)
        assert summary["failed"] == 0
        assert [strip_elapsed(a) for a in expected] \
            == [strip_elapsed(a) for a in answers]

    def test_mutation_publishes_to_workers(self, served):
        registry, server, client = served
        points = registry.get("wire").points
        response = client.add_products(
            "wire", (independent(3, D, seed=91) + 0.01).tolist())
        version = response["catalogue_version"]
        assert server.pool.version("wire") == version
        question = make_question(points, 120, algorithm="mqp", k=5)
        answer = client.ask("wire", question, seed=1)
        assert answer.catalogue_version == version

    def test_stats_report_workers(self, served):
        registry, server, client = served
        stats = client.stats()
        workers = stats["workers"]
        assert workers["workers"] == 2
        assert workers["shards"] == 2
        assert workers["questions"] > 0
        assert len(workers["per_worker"]) == 2


def test_shutdown_releases_everything():
    """Full lifecycle of a private pool: processes exit, published
    segments unlink, later questions are refused."""
    registry = CatalogueRegistry()
    points = independent(120, D, seed=70)
    registry.register("solo", points)
    pool = WorkerPool(registry, workers=1, shards=1)
    segments = set()
    try:
        question = make_question(points, 80, algorithm="mqp", k=4)
        answer = pool.ask("solo", question, seed=1)
        assert answer.ok
        segments = {name for name in owned_segments()
                    if name == pool.publish("solo").segment}
        assert segments
    finally:
        pool.shutdown()
    pool.shutdown()   # idempotent
    for name in segments:
        assert name not in owned_segments()
    assert all(not handle.process.is_alive()
               for handle in pool._workers)
    with pytest.raises(WorkerPoolError):
        pool.ask("solo", make_question(points, 81, algorithm="mqp",
                                       k=4))
