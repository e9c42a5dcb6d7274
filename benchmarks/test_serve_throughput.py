"""Load benchmark for the HTTP serving layer.

Measures the three serving shapes against a live
``ThreadingHTTPServer`` on loopback:

* one ``/batch`` request answered by the server's executor pool
  (the intended hot path),
* sequential ``/answer`` requests from one client,
* concurrent ``/answer`` requests from a pool of client threads.

Two invariants are asserted so the benchmark keeps measuring what it
claims to: a warm ``/batch`` builds no index and scans once per
distinct product, where per-request cold construction (fresh context
per question — what every CLI invocation used to pay) scans once per
question; and a catalogue with a small LRU cap must hold bounded
resident state under a stream of more distinct products than the cap.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.data import independent, preference_set, query_point_with_rank
from repro.engine.context import DatasetContext
# Baseline for the served path is the legacy one-shot shim.
from repro.engine.executor import answer_one  # reprolint: disable=DEPRECATED-API
from repro.service import CatalogueRegistry, ServiceClient, create_server

N = 4_000
D = 3
K = 10
RANK = 51
SAMPLE = 50
ALGORITHM = "mwk"
CACHE_CAP = 8
N_PRODUCTS = 50     # > CACHE_CAP, so the LRU must evict


@pytest.fixture(scope="module")
def catalogue():
    return independent(N, D, seed=0)


@pytest.fixture(scope="module")
def questions(catalogue):
    """One question per distinct product — more than the LRU cap."""
    out = []
    for j in range(N_PRODUCTS):
        w = preference_set(1, D, seed=4000 + j)
        q = query_point_with_rank(catalogue, w[0], RANK)
        out.append((q, K, w))
    return out


@pytest.fixture(scope="module")
def registry(catalogue):
    reg = CatalogueRegistry()
    reg.register("bench", catalogue)
    reg.register("bench-bounded", catalogue,
                 max_partitions=CACHE_CAP, max_box_caches=CACHE_CAP)
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


def test_warm_batch_beats_cold_construction(client, registry,
                                            catalogue, questions):
    """Acceptance criterion: one warm ``/batch`` round trip builds no
    index and runs one ``FindIncom`` per distinct product, where a
    fresh context per question — the pre-serve cold path — runs one
    per question.  Every product is asked about twice."""
    subset = questions[:10] * 2
    products = len(subset) // 2
    before = dataclasses.replace(registry.get("bench").stats)

    start = time.perf_counter()
    response = client.batch("bench", subset, algorithm=ALGORITHM,
                            sample_size=SAMPLE, seed=1, workers=1)
    warm_seconds = time.perf_counter() - start
    assert response["summary"]["answered"] == len(subset)
    after = registry.get("bench").stats
    assert after.tree_builds == before.tree_builds == 0
    assert (after.findincom_traversals
            - before.findincom_traversals) == products

    cold_traversals = cold_builds = 0
    start = time.perf_counter()
    for index, (q, k, wm) in enumerate(subset):
        context = DatasetContext(catalogue)   # cold: scan per call
        item = answer_one(context, index, q, k, wm, ALGORITHM,
                          sample_size=SAMPLE,
                          rng=np.random.default_rng(1 + index))
        assert item.error is None
        cold_traversals += context.stats.findincom_traversals
        cold_builds += context.stats.tree_builds
    cold_seconds = time.perf_counter() - start
    assert cold_traversals == len(subset)
    assert cold_builds == 0

    print(f"\nwarm /batch: {warm_seconds:.3f}s   "
          f"cold per-request: {cold_seconds:.3f}s   "
          f"speedup: {cold_seconds / warm_seconds:.1f}x")


def test_bounded_cache_under_load(client, registry, questions):
    """>cap distinct products: resident partitions stay <= cap and
    the eviction counters prove the LRU did the bounding."""
    response = client.batch("bench-bounded", questions,
                            algorithm=ALGORITHM, sample_size=SAMPLE,
                            seed=2, workers=4)
    assert response["summary"]["answered"] == N_PRODUCTS
    context = registry.get("bench-bounded")
    assert len(context._partitions) <= CACHE_CAP
    assert len(context._box_caches) <= CACHE_CAP
    assert context.stats.partition_evictions > 0
    assert context.stats.box_cache_evictions > 0


def bench_batch(client, questions, workers):
    response = client.batch("bench", questions, algorithm=ALGORITHM,
                            sample_size=SAMPLE, seed=0,
                            workers=workers)
    assert response["summary"]["failed"] == 0
    return response


@pytest.mark.parametrize("workers", [1, 4])
def test_batch_endpoint(benchmark, client, questions, workers):
    """One /batch request; the server's executor pool fans out."""
    benchmark(bench_batch, client, questions[:20], workers)


def test_sequential_answer_requests(benchmark, client, questions):
    """20 /answer round trips from a single client thread."""
    subset = questions[:20]

    def run():
        for q, k, wm in subset:
            item = client.answer("bench", q, k, wm,
                                 algorithm=ALGORITHM,
                                 sample_size=SAMPLE)
            assert item["error"] is None

    benchmark(run)


def test_threaded_answer_requests(benchmark, server, questions):
    """The same 20 /answer requests from 4 concurrent clients —
    ThreadingHTTPServer gives each its own handler thread."""
    subset = questions[:20]
    clients = [ServiceClient(port=server.port) for _ in range(4)]

    def one(args):
        index, (q, k, wm) = args
        item = clients[index % len(clients)].answer(
            "bench", q, k, wm, algorithm=ALGORITHM,
            sample_size=SAMPLE)
        assert item["error"] is None

    def run():
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(one, enumerate(subset)))

    benchmark(run)
