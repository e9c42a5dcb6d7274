"""Service layer: registry, HTTP endpoints, wire schema, bounded serving.

The server under test is a real ``ThreadingHTTPServer`` bound to an
ephemeral loopback port and driven through the package's own
:class:`ServiceClient` — the same wire path ``wqrtq serve`` exposes.
This module runs in CI with ``-W error::DeprecationWarning``: it only
uses the typed Question/Answer API (raw dict payloads appear solely
to exercise the server's pre-schema wire compatibility).
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time

import numpy as np
import pytest

from repro.core.protocol import SCHEMA_VERSION, Answer, Question
from repro.core.registry import algorithm_names
from repro.core.session import Session
from repro.data import independent, preference_set, query_point_with_rank
from repro.engine.context import DatasetContext
from repro.engine.executor import answer_question, execute_questions
from repro.service import (
    CatalogueRegistry,
    ServiceClient,
    ServiceConnectionError,
    ServiceError,
    create_server,
)
from repro.service.server import ServiceStats

N = 400
D = 3
K = 10
RANK = 41


@pytest.fixture(scope="module")
def points():
    return independent(N, D, seed=17)


@pytest.fixture(scope="module")
def registry(points):
    reg = CatalogueRegistry()
    reg.register("demo", points, meta={"kind": "independent"})
    reg.register("bounded", points, max_partitions=8,
                 max_box_caches=8)
    return reg


@pytest.fixture(scope="module")
def server(registry):
    srv = create_server(registry)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(port=server.port)


def make_question(points, j, *, rank=RANK):
    w = preference_set(1, D, seed=7000 + j)
    q = query_point_with_rank(points, w[0], rank)
    return q, K, w


def make_typed(points, j, *, rank=RANK, algorithm="mqp",
               options=None, id=None):
    q, k, w = make_question(points, j, rank=rank)
    return Question(q=q, k=k, why_not=w, algorithm=algorithm,
                    options=options or {}, id=id)


def strip_elapsed(payload: dict) -> dict:
    """An Answer payload minus its (run-dependent) timing."""
    return {key: value for key, value in payload.items()
            if key != "elapsed"}


class TestRegistry:
    def test_names_and_contains(self, registry):
        assert registry.names() == ["bounded", "demo"]
        assert "demo" in registry and "nope" not in registry
        assert len(registry) == 2

    def test_registration_warms_tree(self, registry):
        # Registration builds no index: serving answers by scans.
        assert registry.get("demo").stats.tree_builds == 0

    def test_duplicate_name_rejected(self, registry, points):
        with pytest.raises(ValueError, match="already registered"):
            registry.register("demo", points)

    def test_empty_name_rejected(self, points):
        with pytest.raises(ValueError, match="non-empty"):
            CatalogueRegistry().register("", points)

    def test_unknown_name(self, registry):
        with pytest.raises(KeyError, match="unknown catalogue"):
            registry.get("nope")

    def test_load_from_archive(self, tmp_path, points):
        from repro.data.io import save_dataset

        path = save_dataset(tmp_path / "cat.npz", points,
                            kind="independent", seed=17)
        reg = CatalogueRegistry(max_partitions=16)
        context = reg.load("disk", path)
        assert np.array_equal(context.points, points)
        assert context.max_partitions == 16
        (entry,) = reg.describe()
        assert entry["meta"]["kind"] == "independent"
        assert entry["meta"]["path"] == str(path)

    def test_describe_is_json_safe(self, registry):
        import json

        json.dumps(registry.describe())


class TestPlumbingEndpoints:
    def test_health(self, client):
        assert client.health() == {"status": "ok"}

    def test_catalogues(self, client):
        entries = {e["name"]: e for e in client.catalogues()}
        assert set(entries) == {"demo", "bounded"}
        assert entries["demo"]["n"] == N
        assert entries["demo"]["d"] == D
        assert entries["bounded"]["max_partitions"] == 8

    def test_unknown_path_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("/nope")
        assert err.value.status == 404

    def test_unknown_catalogue_400(self, client, points):
        q, k, wm = make_question(points, 0)
        with pytest.raises(ServiceError) as err:
            client.answer("nope", q, k, wm)
        assert err.value.status == 400
        assert "unknown catalogue" in err.value.message

    def test_malformed_json_400(self, client):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            client.base_url + "/answer", data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_missing_field_400(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("/answer", {"catalogue": "demo"})
        assert err.value.status == 400
        assert "missing" in err.value.message

    def test_mismatched_shapes_400(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("/answer", {
                "catalogue": "demo", "q": [0.5] * D, "k": K,
                "why_not": [[0.5, 0.5]]})   # wrong dimensionality
        assert err.value.status == 400

    def test_unknown_algorithm_400_lists_registered(self, client,
                                                    points):
        """An unknown algorithm on the wire is a 400 whose message
        enumerates the registry — no hard-coded name list."""
        q, k, wm = make_question(points, 0)
        with pytest.raises(ServiceError) as err:
            client._request("/answer", {
                "catalogue": "demo", "q": q.tolist(), "k": k,
                "why_not": wm.tolist(), "algorithm": "simplex"})
        assert err.value.status == 400
        assert "unknown algorithm" in err.value.message
        for name in algorithm_names():
            assert name in err.value.message

    def test_unknown_algorithm_split_validation(self, client, points):
        """The dict-level client defers algorithm validation to the
        server (so server-only registrations stay reachable); the
        typed path rejects at Question construction."""
        q, k, wm = make_question(points, 0)
        with pytest.raises(ServiceError) as err:
            client.answer("demo", q, k, wm, algorithm="simplex")
        assert err.value.status == 400
        with pytest.raises(ValueError, match="unknown algorithm"):
            Question(q=q, k=k, why_not=wm, algorithm="simplex")

    def test_null_scalar_field_400(self, client):
        """Malformed scalar fields (k=null) are client errors."""
        with pytest.raises(ServiceError) as err:
            client._request("/answer", {
                "catalogue": "demo", "q": [0.5] * D, "k": None,
                "why_not": [[0.4, 0.3, 0.3]]})
        assert err.value.status == 400

    def test_unknown_post_path_keeps_connection_usable(self, server):
        """A 404'd POST must still drain its body, or the unread
        bytes desynchronize a keep-alive connection and the *next*
        request on it is garbage-parsed."""
        import http.client
        import json as jsonlib

        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10)
        try:
            conn.request("POST", "/nope", body=b'{"x": 1}',
                         headers={"Content-Type":
                                  "application/json"})
            response = conn.getresponse()
            assert response.status == 404
            response.read()
            # Same connection, next request: must parse cleanly.
            conn.request("GET", "/health")
            response = conn.getresponse()
            assert response.status == 200
            assert jsonlib.loads(response.read()) == {"status": "ok"}
        finally:
            conn.close()

    def test_empty_batch_400(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("/batch", {"catalogue": "demo",
                                       "questions": []})
        assert err.value.status == 400


class TestAnswer:
    def test_wire_payload_is_byte_identical_to_library(self, client,
                                                       points):
        """Acceptance criterion: the HTTP item for a Question is the
        library's ``Answer.to_dict()`` for the same Question, byte
        for byte (timing excluded)."""
        q, k, wm = make_question(points, 1)
        item = client.answer("demo", q, k, wm, algorithm="mqp",
                             seed=3)
        local = answer_question(
            DatasetContext(points),
            Question(q=q, k=k, why_not=wm, algorithm="mqp"),
            rng=np.random.default_rng(3))
        assert item["valid"] and item["error"] is None
        assert item["schema_version"] == SCHEMA_VERSION
        assert item["penalty"] == local.penalty
        assert item["result"]["kind"] == "mqp"
        np.testing.assert_array_equal(item["result"]["q_refined"],
                                      np.asarray(local.result.q_refined))
        assert strip_elapsed(item) == \
            strip_elapsed(local.to_dict())

    def test_typed_ask_round_trips_answer(self, client, points):
        question = make_typed(points, 5, algorithm="mwk",
                              options={"sample_size": 30},
                              id="typed-5")
        answer = client.ask("demo", question, seed=7)
        assert isinstance(answer, Answer)
        assert answer.ok and answer.question_id == "typed-5"
        local = Session(points).ask(question, seed=7)
        assert strip_elapsed(answer.to_dict()) == \
            strip_elapsed(local.to_dict())

    def test_question_as_list_payload(self, client, points):
        q, k, wm = make_question(points, 2)
        response = client._request("/batch", {
            "catalogue": "demo",
            "questions": [[q.tolist(), k, wm.tolist()]]})
        assert response["summary"]["answered"] == 1

    def test_invalid_question_is_item_error_not_http_error(
            self, client, points):
        """A question that fails catalogue-dependent validation is an
        application-level failed item — the HTTP layer reports 200
        and the item carries a structured error."""
        q, k, wm = make_question(points, 3, rank=5)   # already top-k
        item = client.answer("demo", q, k, wm)
        assert item["error"] is not None
        assert item["error"]["type"] == "ValueError"
        assert "already has q" in item["error"]["message"]
        assert item["penalty"] is None and not item["valid"]

    def test_typed_construction_invalid_question_is_400(self,
                                                        client):
        """A *typed* question payload that fails construction-time
        validation is a strict client error (the typed client would
        have rejected it locally)."""
        with pytest.raises(ServiceError) as err:
            client._request("/answer", {
                "catalogue": "demo", "question": {
                    "schema_version": SCHEMA_VERSION,
                    "q": [0.5] * D, "k": K, "algorithm": "mqp",
                    "why_not": [[0.8, 0.8, 0.8]]}})
        assert err.value.status == 400
        assert "simplex" in err.value.message

    def test_legacy_construction_invalid_is_failed_item(self, client):
        """A *pre-schema* flat payload keeps the legacy error
        contract: content failures (off-simplex) are 200 items, not
        request errors."""
        response = client._request("/answer", {
            "catalogue": "demo", "q": [0.5] * D, "k": K,
            "why_not": [[0.8, 0.8, 0.8]]})
        item = response["item"]
        assert item["error"]["type"] == "ValueError"
        assert "simplex" in item["error"]["message"]
        assert item["penalty"] is None and not item["valid"]

    def test_legacy_batch_poisoned_construction_keeps_siblings(
            self, client, points):
        """One construction-invalid pre-schema entry in a batch must
        not lose the other answers (the old per-item contract)."""
        q, k, wm = make_question(points, 70)
        response = client._request("/batch", {
            "catalogue": "demo", "algorithm": "mqp",
            "questions": [
                {"q": q.tolist(), "k": k, "why_not": wm.tolist()},
                {"q": q.tolist(), "k": k,
                 "why_not": [[0.8, 0.8, 0.8]]},   # off simplex
                [q.tolist(), k, wm.tolist()],
            ]})
        summary = response["summary"]
        assert summary["answered"] == 2 and summary["failed"] == 1
        errors = [item["error"] for item in response["items"]]
        assert errors[0] is None and errors[2] is None
        assert "simplex" in errors[1]["message"]
        assert [item["index"] for item in response["items"]] == \
            [0, 1, 2]

    def test_legacy_entry_extra_keys_stay_legacy_and_are_honored(
            self, client, points):
        """A pre-schema entry carrying extra keys must not be
        mistaken for a typed payload (only the ``schema_version``
        stamp marks one): its ``id`` is echoed and an entry-level
        ``algorithm`` — a flat /answer shape reused in a batch — is
        honored rather than silently overridden by the body's."""
        q, k, wm = make_question(points, 71)
        response = client._request("/batch", {
            "catalogue": "demo", "algorithm": "mqp",
            "sample_size": 25,
            "questions": [
                {"q": q.tolist(), "k": k, "why_not": wm.tolist(),
                 "id": "x1", "algorithm": "mwk"},
                {"q": q.tolist(), "k": k, "why_not": wm.tolist()},
            ]})
        first, second = response["items"]
        assert first["algorithm"] == "mwk"
        assert first["id"] == "x1"
        assert first["result"]["kind"] == "mwk"
        assert second["algorithm"] == "mqp"   # body-level default

    def test_legacy_answer_echoes_id(self, client, points):
        """The flat /answer form echoes a caller-supplied ``id``,
        same as the equivalent /batch entry."""
        q, k, wm = make_question(points, 72)
        response = client._request("/answer", {
            "catalogue": "demo", "q": q.tolist(), "k": k,
            "why_not": wm.tolist(), "id": "a1"})
        assert response["item"]["id"] == "a1"


class TestBatch:
    @pytest.fixture(scope="class")
    def questions(self, points):
        return [make_question(points, 10 + j) for j in range(6)]

    @pytest.fixture(scope="class")
    def typed_questions(self, points):
        return [make_typed(points, 10 + j, algorithm="mwk",
                           options={"sample_size": 30})
                for j in range(6)]

    def test_matches_local_execution(self, client, points, questions,
                                     typed_questions):
        response = client.batch("demo", questions, algorithm="mwk",
                                sample_size=30, seed=5)
        local = execute_questions(DatasetContext(points),
                                  typed_questions, seed=5)
        assert response["summary"]["answered"] == len(questions)
        assert response["summary"]["all_valid"]
        for item, want in zip(response["items"], local):
            assert strip_elapsed(item) == strip_elapsed(want.to_dict())

    def test_typed_ask_batch(self, client, points, typed_questions):
        answers, summary = client.ask_batch("demo", typed_questions,
                                            seed=5, workers=2)
        local = Session(points).ask_batch(typed_questions, seed=5)
        assert summary["answered"] == len(typed_questions)
        assert [strip_elapsed(a.to_dict()) for a in answers] == \
            [strip_elapsed(a.to_dict()) for a in local]

    def test_workers_do_not_change_results(self, client, questions):
        serial = client.batch("demo", questions, algorithm="mwk",
                              sample_size=30, seed=5, workers=1)
        threaded = client.batch("demo", questions, algorithm="mwk",
                                sample_size=30, seed=5, workers=4)
        strip = lambda resp: [  # noqa: E731
            {k: v for k, v in item.items() if k != "elapsed"}
            for item in resp["items"]]
        assert strip(serial) == strip(threaded)

    def test_poisoned_item_does_not_kill_batch(self, client, points,
                                               questions):
        poisoned = (questions[:2]
                    + [make_question(points, 30, rank=5)]
                    + questions[2:4])
        response = client.batch("demo", poisoned, seed=2)
        summary = response["summary"]
        assert summary["answered"] == 4 and summary["failed"] == 1
        errors = [item["error"] for item in response["items"]]
        assert errors[2] is not None
        assert all(e is None for i, e in enumerate(errors) if i != 2)


class TestStatsEndpoint:
    def test_endpoint_latency_and_counts(self, client, points):
        q, k, wm = make_question(points, 40)
        client.answer("demo", q, k, wm)
        stats = client.stats()
        assert stats["uptime_seconds"] > 0
        answer_stats = stats["endpoints"]["POST /answer"]
        assert answer_stats["requests"] >= 1
        assert answer_stats["total_seconds"] > 0
        assert answer_stats["mean_seconds"] > 0
        assert answer_stats["max_seconds"] >= \
            answer_stats["mean_seconds"]
        assert answer_stats["throughput_rps"] > 0
        cache_stats = {e["name"]: e["stats"]
                       for e in stats["catalogues"]}
        assert cache_stats["demo"]["findincom_traversals"] >= 0

    def test_throughput_is_requests_per_uptime(self):
        # 5 requests of 10 ms each over 10 s of uptime: 0.5 requests
        # per second — not 1 / mean = 100, a service rate.
        stats = ServiceStats(started=time.time() - 10.0)
        for _ in range(5):
            stats.record("POST /answer", 0.010)
        snapshot = stats.snapshot()
        rps = snapshot["endpoints"]["POST /answer"]["throughput_rps"]
        assert rps == pytest.approx(5 / snapshot["uptime_seconds"])
        assert 0.4 < rps < 0.6

    def test_errors_are_counted(self, client):
        before = client.stats()["endpoints"].get(
            "POST /answer", {}).get("errors", 0)
        with pytest.raises(ServiceError):
            client._request("/answer", {"catalogue": "demo"})
        after = client.stats()["endpoints"]["POST /answer"]["errors"]
        assert after == before + 1


class TestBoundedServing:
    def test_fifty_products_stay_within_cap(self, client, registry,
                                            points):
        """Acceptance criterion, over the wire: 50 distinct products
        against a cap-8 catalogue keep at most 8 resident partitions,
        report evictions, and answer exactly like an unbounded
        context."""
        questions = [make_question(points, 100 + j)
                     for j in range(50)]
        response = client.batch("bounded", questions,
                                algorithm="mwk", sample_size=25,
                                seed=11)
        assert response["summary"]["answered"] == 50

        context = registry.get("bounded")
        assert len(context._partitions) <= 8
        assert context.stats.partition_evictions > 0

        unbounded = DatasetContext(points, max_partitions=None,
                                   max_box_caches=None)
        typed = [Question(q=q, k=k, why_not=wm, algorithm="mwk",
                          options={"sample_size": 25})
                 for q, k, wm in questions]
        local = execute_questions(unbounded, typed, seed=11)
        for item, want in zip(response["items"], local):
            assert item["error"] is None and want.error is None
            assert item["penalty"] == want.penalty
            assert item["result"]["k_refined"] == want.result.k_refined
            np.testing.assert_array_equal(
                item["result"]["weights_refined"],
                np.asarray(want.result.weights_refined))

        entries = {e["name"]: e for e in client.catalogues()}
        assert entries["bounded"]["cached_partitions"] <= 8
        assert entries["bounded"]["stats"]["partition_evictions"] > 0


class TestCatalogueLifecycleEndpoints:
    """Mutations over the wire: ``POST /catalogues/<name>/products``,
    ``GET /catalogues/<name>``, and ``catalogue_version`` stamping.

    Uses its own server so mutations cannot leak into the
    module-scoped fixtures other classes share.
    """

    @pytest.fixture()
    def live(self, points):
        registry = CatalogueRegistry()
        registry.register("mutable", points)
        server = create_server(registry)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            yield registry, ServiceClient(port=server.port)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_get_catalogue_reports_lifecycle_state(self, live):
        _, client = live
        entry = client.catalogue("mutable")
        assert entry["schema_version"] == SCHEMA_VERSION
        assert entry["name"] == "mutable"
        assert entry["version"] == 0
        assert entry["n"] == N and entry["d"] == D
        assert entry["mutations"] == {"count": 0, "adds": 0,
                                      "updates": 0, "removes": 0}
        assert entry["next_product_id"] == N
        assert "tree_patches" in entry["stats"]

    def test_unknown_catalogue_is_404(self, live):
        _, client = live
        for call in (lambda: client.catalogue("nope"),
                     lambda: client.add_products("nope", [[0.5] * D]),
                     lambda: client.remove_products("nope", [1])):
            with pytest.raises(ServiceError) as err:
                call()
            assert err.value.status == 404
            assert "unknown catalogue" in err.value.message

    def test_mutations_advance_version_and_stamp_answers(self, live,
                                                         points):
        registry, client = live
        q, k, wm = make_question(points, 80)
        item = client.answer("mutable", q, k, wm)
        assert item["catalogue_version"] == 0

        response = client.add_products(
            "mutable", [[3.0] * D, [4.0] * D])
        assert response["op"] == "add"
        assert response["ids"] == [N, N + 1]
        assert response["catalogue_version"] == 1
        assert response["n"] == N + 2

        response = client.update_products("mutable", [N], [[5.0] * D])
        assert response["catalogue_version"] == 2
        response = client.remove_products("mutable", [N + 1])
        assert response["catalogue_version"] == 3
        assert response["n"] == N + 1

        # Subsequent answers carry the new version; a far-away
        # product changes no answer content.
        after = client.answer("mutable", q, k, wm)
        assert after["catalogue_version"] == 3
        assert after["penalty"] == item["penalty"]
        entry = client.catalogue("mutable")
        assert entry["version"] == 3
        assert entry["mutations"] == {"count": 3, "adds": 2,
                                      "updates": 1, "removes": 1}

    def test_mutation_affects_subsequent_answers(self, live, points):
        """End-to-end acceptance: a product mutation visibly changes
        what the service answers, while a reader pinned to the old
        snapshot is unaffected."""
        registry, client = live
        q, k, wm = make_question(points, 81)
        pinned = registry.get("mutable")          # snapshot at v0
        before = client.answer("mutable", q, k, wm)
        assert before["error"] is None

        # Add products that dominate q: they push q's rank beyond
        # reach, so the same question now fails validation ("already
        # has q" no longer, but k > reachable) — or at minimum the
        # answer changes.  Use products at the origin: they dominate
        # everything, raising every rank by 3.
        client.add_products("mutable", np.full((3, D), 1e-6).tolist())
        after = client.answer("mutable", q, k, wm)
        assert after["catalogue_version"] == 1
        assert strip_elapsed(after) != strip_elapsed(before)

        # The pinned snapshot still answers byte-identically.
        question = Question(q=q, k=k, why_not=wm)
        replay = answer_question(pinned, question,
                                 rng=np.random.default_rng(0))
        baseline = answer_question(DatasetContext(points), question,
                                   rng=np.random.default_rng(0))
        assert strip_elapsed(replay.to_dict()) == \
            strip_elapsed(baseline.to_dict())

    def test_bad_op_400(self, live):
        _, client = live
        with pytest.raises(ServiceError) as err:
            client._request("/catalogues/mutable/products",
                            {"op": "zap"})
        assert err.value.status == 400
        assert "op must be" in err.value.message

    def test_missing_fields_400(self, live):
        _, client = live
        for body in ({"op": "add"}, {"op": "update", "ids": [1]},
                     {"op": "remove"}):
            with pytest.raises(ServiceError) as err:
                client._request("/catalogues/mutable/products", body)
            assert err.value.status == 400

    def test_invalid_mutation_400(self, live):
        _, client = live
        with pytest.raises(ServiceError) as err:
            client.remove_products("mutable", [99999])
        assert err.value.status == 400
        assert "unknown product id" in err.value.message
        with pytest.raises(ServiceError) as err:
            client.add_products("mutable", [[0.5, 0.5]])   # wrong d
        assert err.value.status == 400

    def test_v1_request_gets_v1_response(self, live, points):
        """A client stamping schema_version 1 keeps working: the
        server speaks version 1 *back* — a v1 client's own version
        check would reject a reply stamped 2, and a v1 decoder has
        no ``catalogue_version`` field."""
        _, client = live
        q, k, wm = make_question(points, 82)
        response = client._request("/answer", {
            "schema_version": 1, "catalogue": "mutable",
            "q": q.tolist(), "k": k, "why_not": wm.tolist()})
        assert response["schema_version"] == 1
        assert response["item"]["schema_version"] == 1
        assert response["item"]["error"] is None
        assert "catalogue_version" not in response["item"]

    def test_v1_batch_negotiation(self, live, points):
        _, client = live
        q, k, wm = make_question(points, 83)
        response = client._request("/batch", {
            "schema_version": 1, "catalogue": "mutable",
            "questions": [[q.tolist(), k, wm.tolist()]]})
        assert response["schema_version"] == 1
        assert all(item["schema_version"] == 1
                   and "catalogue_version" not in item
                   for item in response["items"])
        # Unstamped and v2-stamped requests get the current schema.
        response = client._request("/batch", {
            "catalogue": "mutable",
            "questions": [[q.tolist(), k, wm.tolist()]]})
        assert response["schema_version"] == SCHEMA_VERSION
        assert response["items"][0]["catalogue_version"] >= 0

    def test_v1_answer_payload_decodes(self):
        """A version-1 Answer payload (no catalogue_version) decodes
        with catalogue_version 0 — the v1 producer's meaning."""
        payload = {"schema_version": 1, "id": None, "index": 0,
                   "algorithm": "mqp", "valid": False,
                   "penalty": None,
                   "error": {"type": "ValueError", "message": "x",
                             "category": "validation"},
                   "elapsed": 0.0, "result": None}
        answer = Answer.from_dict(payload)
        assert answer.catalogue_version == 0


class _FlakyHTTPStub:
    """A raw socket listener that kills its first ``fail`` connections
    without a response, then serves a canned HTTP 200 — the smallest
    thing that looks like a server restarting under a client."""

    RESPONSE = (b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 16\r\n"
                b"Connection: close\r\n\r\n"
                b'{"status": "ok"}')

    def __init__(self, fail: int):
        self.fail = fail
        self.connections = 0
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            self.connections += 1
            with conn:
                if self.connections <= self.fail:
                    continue   # close without any response bytes
                conn.recv(65536)
                conn.sendall(self.RESPONSE)

    def close(self):
        self.sock.close()
        self.thread.join(timeout=5)


class TestClientTransportErrors:
    """Satellite: transport failures are typed, idempotent GETs are
    retried once, POSTs never are."""

    def test_get_retries_once_and_succeeds(self):
        stub = _FlakyHTTPStub(fail=1)
        try:
            client = ServiceClient(port=stub.port, timeout=5)
            assert client.health() == {"status": "ok"}
            assert stub.connections == 2   # one failure + one retry
        finally:
            stub.close()

    def test_get_gives_typed_error_after_retry(self):
        stub = _FlakyHTTPStub(fail=10)
        try:
            client = ServiceClient(port=stub.port, timeout=5)
            with pytest.raises(ServiceConnectionError) as err:
                client.health()
            assert err.value.attempts == 2
            assert err.value.status is None
            assert stub.connections == 2
        finally:
            stub.close()

    def test_post_is_never_retried(self, points):
        stub = _FlakyHTTPStub(fail=10)
        try:
            client = ServiceClient(port=stub.port, timeout=5)
            q, k, wm = make_question(points, 0)
            with pytest.raises(ServiceConnectionError) as err:
                client.answer("demo", q, k, wm)
            assert err.value.attempts == 1
            assert stub.connections == 1   # a mutation must not repeat
        finally:
            stub.close()

    def test_connection_refused_is_typed(self):
        # Bind-then-close guarantees an unused port.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServiceClient(port=port, timeout=5)
        with pytest.raises(ServiceConnectionError):
            client.health()
        # ...and stays catchable as the base ServiceError.
        with pytest.raises(ServiceError):
            client.health()


class TestRegistryConcurrency:
    """Satellite: the registry is hammered by ThreadingHTTPServer
    handler threads — registration, lookup and mutation must be safe
    to interleave."""

    def test_concurrent_register_answer_mutate(self, points):
        registry = CatalogueRegistry()
        registry.register("base", points)
        question = make_typed(points, 1)
        errors: list[Exception] = []
        barrier = threading.Barrier(7)

        def registrar(i):
            barrier.wait()
            try:
                for j in range(8):
                    registry.register(f"cat-{i}-{j}", points[:40])
                    assert f"cat-{i}-{j}" in registry
                with pytest.raises(ValueError,
                                   match="already registered"):
                    registry.register(f"cat-{i}-0", points[:40])
            except Exception as exc:   # pragma: no cover
                errors.append(exc)

        def answerer():
            barrier.wait()
            try:
                for _ in range(12):
                    answer = registry.session("base").ask(question,
                                                          seed=2)
                    assert answer.ok
            except Exception as exc:   # pragma: no cover
                errors.append(exc)

        def mutator():
            barrier.wait()
            try:
                catalogue = registry.catalogue("base")
                for _ in range(12):
                    ids = catalogue.add_products([[3.0] * D])
                    catalogue.remove_products(ids)
            except Exception as exc:   # pragma: no cover
                errors.append(exc)

        threads = ([threading.Thread(target=registrar, args=(i,))
                    for i in range(3)]
                   + [threading.Thread(target=answerer)
                      for _ in range(3)]
                   + [threading.Thread(target=mutator)])
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert len(registry) == 1 + 3 * 8
        assert registry.get("base").n == N


class TestWireSchema:
    """Version negotiation and schema round-trips over the wire."""

    def test_responses_echo_schema_version(self, client, points):
        q, k, wm = make_question(points, 60)
        response = client._request("/answer", {
            "catalogue": "demo", "q": q.tolist(), "k": k,
            "why_not": wm.tolist()})
        assert response["schema_version"] == SCHEMA_VERSION
        assert response["item"]["schema_version"] == SCHEMA_VERSION

    def test_unsupported_request_version_400(self, client, points):
        q, k, wm = make_question(points, 61)
        with pytest.raises(ServiceError) as err:
            client._request("/answer", {
                "schema_version": 99, "catalogue": "demo",
                "q": q.tolist(), "k": k, "why_not": wm.tolist()})
        assert err.value.status == 400
        assert "schema_version" in err.value.message

    def test_algorithms_endpoint_enumerates_registry(self, client):
        names = [entry["name"] for entry in client.algorithms()]
        assert names == list(algorithm_names())
        for entry in client.algorithms():
            assert set(entry) == {"name", "summary", "options",
                                  "anytime"}
            assert entry["anytime"] is True   # all builtins step

    def test_wire_item_survives_round_trip(self, client, points):
        """to_dict → HTTP/json → from_dict → to_dict is the identity,
        for answered and failed items alike."""
        good = make_typed(points, 62)
        bad = make_typed(points, 63, rank=5)   # already in top-k
        answers, _ = client.ask_batch("demo", [good, bad], seed=1)
        assert answers[0].ok and not answers[1].ok
        assert np.isnan(answers[1].penalty)
        for answer in answers:
            again = Answer.from_dict(answer.to_dict())
            assert again.to_dict() == answer.to_dict()


class TestSchemaNegotiationMatrix:
    """Client stamps × server renders, across v1/v2/v3/v4/v5.

    The server negotiates *down*: a request stamped with an older
    supported version receives payloads rendered at that version —
    ``quality`` exists only in v3+, ``catalogue_version`` only in
    v2+ — while unstamped and current-version requests get the full
    current schema.
    """

    EXPECTATIONS = {
        1: {"quality": False, "catalogue_version": False},
        2: {"quality": False, "catalogue_version": True},
        # v3, v4 and v5 are field-identical for Answer payloads (v4
        # added the watch event envelope, v5 the planner/admission
        # types — neither touched Answer).
        3: {"quality": True, "catalogue_version": True},
        4: {"quality": True, "catalogue_version": True},
        SCHEMA_VERSION: {"quality": True, "catalogue_version": True},
    }

    @staticmethod
    def _flat(points, j):
        q, k, wm = make_question(points, 90 + j)
        return {"q": q.tolist(), "k": k, "why_not": wm.tolist()}

    @pytest.mark.parametrize("version", sorted(EXPECTATIONS))
    def test_answer_rendered_at_request_version(self, client, points,
                                                version):
        payload = self._flat(points, 0)
        payload.update(catalogue="demo", schema_version=version)
        response = client._request("/answer", payload)
        expect = self.EXPECTATIONS[version]
        assert response["schema_version"] == version
        item = response["item"]
        assert item["schema_version"] == version
        assert item["error"] is None
        assert ("quality" in item) == expect["quality"]
        assert ("catalogue_version" in item) == \
            expect["catalogue_version"]

    @pytest.mark.parametrize("version", sorted(EXPECTATIONS))
    def test_batch_rendered_at_request_version(self, client, points,
                                               version):
        response = client._request("/batch", {
            "schema_version": version, "catalogue": "demo",
            "questions": [self._flat(points, 1),
                          self._flat(points, 2)]})
        expect = self.EXPECTATIONS[version]
        assert response["schema_version"] == version
        for item in response["items"]:
            assert item["schema_version"] == version
            assert ("quality" in item) == expect["quality"]
            assert ("catalogue_version" in item) == \
                expect["catalogue_version"]

    def test_unstamped_request_gets_current_schema(self, client,
                                                   points):
        payload = self._flat(points, 3)
        payload.update(catalogue="demo")
        response = client._request("/answer", payload)
        assert response["schema_version"] == SCHEMA_VERSION
        assert "quality" in response["item"]
        assert "catalogue_version" in response["item"]

    def test_budgeted_v3_answer_carries_quality(self, client, points):
        from repro.core.protocol import Budget

        question = make_typed(points, 91)
        import dataclasses as _dc
        question = _dc.replace(question,
                               budget=Budget(sample_budget=128),
                               algorithm="mwk")
        answer = client.ask("demo", question, seed=2)
        assert answer.quality is not None
        assert answer.quality.samples_examined == 128

    def test_v2_question_payload_decodes_without_budget(self):
        payload = {"schema_version": 2, "q": [0.2, 0.2], "k": 2,
                   "why_not": [[0.5, 0.5]], "algorithm": "mqp"}
        question = Question.from_dict(payload)
        assert question.budget is None

    def test_v2_answer_payload_decodes_without_quality(self):
        payload = {"schema_version": 2, "id": None, "index": 0,
                   "algorithm": "mqp", "valid": False,
                   "penalty": None,
                   "error": {"type": "ValueError", "message": "x",
                             "category": "validation"},
                   "elapsed": 0.0, "catalogue_version": 3,
                   "result": None}
        answer = Answer.from_dict(payload)
        assert answer.quality is None
        assert answer.catalogue_version == 3

    def test_future_version_rejected_both_sides(self, client, points):
        future = {"schema_version": SCHEMA_VERSION + 1,
                  "catalogue": "demo"}
        future.update(self._flat(points, 4))
        with pytest.raises(ServiceError) as err:
            client._request("/answer", future)
        assert err.value.status == 400
        with pytest.raises(ValueError, match="schema_version"):
            Answer.from_dict({"schema_version": SCHEMA_VERSION + 1})


class TestKeepAlive:
    def test_kept_alive_round_trips_beat_delayed_ack_floor(
            self, server, points):
        """Round trips of a trivial question over one kept-alive
        connection take a few ms.  Two writes per response would let
        Nagle's algorithm wait for the client's delayed ACK, ~40 ms
        on every response."""
        question = make_typed(points, 3, id="keep-alive")
        body = json.dumps({"catalogue": "demo",
                           "question": question.to_dict()}).encode()
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            latencies = []
            for _ in range(20):
                start = time.perf_counter()
                conn.request("POST", "/answer", body=body, headers={
                    "Content-Type": "application/json"})
                response = conn.getresponse()
                payload = json.loads(response.read())
                latencies.append(time.perf_counter() - start)
                assert response.status == 200, payload
                assert payload["item"]["error"] is None, payload
        finally:
            conn.close()
        p50 = statistics.median(latencies[2:])
        assert p50 < 0.020, (
            f"kept-alive p50 {p50 * 1000:.1f} ms is near the 40 ms "
            f"delayed-ACK floor")
