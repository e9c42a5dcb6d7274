"""Load benchmark for admission-controlled traffic shaping.

Drives a live server into overload — more concurrent requests than
``max_concurrent`` execution slots — and checks the two promises the
admission controller makes:

* **priority shaping works**: under 4x overload, the p50 queue wait
  of admitted high-priority requests is at least 2x better than the
  same workload served FIFO (everyone at equal priority, so the
  grant order degenerates to arrival order);
* **shedding is cheap**: a request rejected by the controller fails
  in well under 10ms — the refusal path never touches an executor.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager

import pytest

from repro.core.protocol import Question
from repro.data import independent, preference_set, query_point_with_rank
from repro.service import (
    CatalogueRegistry,
    ServiceClient,
    ServiceError,
    create_server,
)

N = 4_000
D = 3
K = 10
RANK = 51
SAMPLE = 200
ALGORITHM = "mwk"

SLOTS = 4            # max_concurrent execution slots
OVERLOAD = 4         # offered concurrency = OVERLOAD * SLOTS
N_HIGH = 4           # urgent requests inside the flood


@pytest.fixture(scope="module")
def catalogue():
    return independent(N, D, seed=0)


@pytest.fixture(scope="module")
def registry(catalogue):
    reg = CatalogueRegistry()
    reg.register("bench", catalogue)
    return reg


def make_typed(catalogue, j, *, priority=0, tenant=None):
    w = preference_set(1, D, seed=6100 + j)
    q = query_point_with_rank(catalogue, w[0], RANK)
    return Question(q=q, k=K, why_not=w, algorithm=ALGORITHM,
                    options={"sample_size": SAMPLE},
                    priority=priority, tenant=tenant)


def run_flood(port, questions, *, stagger=0.005):
    """Fire all questions concurrently in list order (a small
    stagger keeps arrival order deterministic and the loopback
    accept backlog happy); return per-question latencies in
    seconds, ordered like ``questions``."""
    clients = [ServiceClient(port=port) for _ in range(len(questions))]

    def one(index):
        start = time.perf_counter()
        answer = clients[index].ask("bench", questions[index],
                                    seed=index)
        elapsed = time.perf_counter() - start
        assert answer.ok
        return elapsed

    with ThreadPoolExecutor(max_workers=len(questions)) as pool:
        futures = []
        for index in range(len(questions)):
            futures.append(pool.submit(one, index))
            time.sleep(stagger)
        return [future.result() for future in futures]


def gated_flood(server, questions):
    """Run ``questions`` as one flood that is wholly queued before any
    of it executes; return ``(latencies, waits)``.

    Every execution slot is held while the flood arrives, so the
    grant order alone — what the admission controller decides —
    sets who runs first once the slots open.  ``waits`` maps each
    question's tenant to the queue waits of its requests, measured
    from the moment the slots open: once a request holds a slot, its
    run time depends on how many others share the CPUs and the GIL,
    which the grant order does not control.
    """
    controller = server.admission
    slot = controller.slot
    grants = []

    @contextmanager
    def timed_slot(*, priority=0, tenant=None):
        with slot(priority=priority, tenant=tenant):
            grants.append((tenant, time.perf_counter()))
            yield

    controller.slot = timed_slot
    try:
        with ThreadPoolExecutor(max_workers=1) as runner:
            with ExitStack() as held:
                for _ in range(SLOTS):
                    held.enter_context(slot())
                flood = runner.submit(run_flood, server.port, questions)
                deadline = time.monotonic() + 60
                while controller.describe()["queued"] < len(questions):
                    assert time.monotonic() < deadline, "never queued"
                    assert not flood.done(), flood.result()
                    time.sleep(0.005)
                opened = time.perf_counter()
            latencies = flood.result()
    finally:
        del controller.slot
    waits = {}
    for tenant, granted in grants:
        waits.setdefault(tenant, []).append(granted - opened)
    return latencies, waits


def p50(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def test_priority_shaping_beats_fifo_under_overload(registry,
                                                    catalogue):
    """4x overload: N_HIGH urgent requests ride in a flood of
    background ones.  With every request at equal priority the
    bounded queue drains in arrival order (FIFO); with priorities
    the urgent requests jump the queue.  The p50 queue wait of the
    urgent requests must be >= 2x better shaped than FIFO.

    Queue wait, not end-to-end latency, is compared: an admitted
    request shares the CPUs and the GIL with the other granted
    slots, so on a host with fewer CPUs than slots its run time
    swamps what the grant order saved."""
    total = SLOTS * OVERLOAD
    # The urgent requests sit at the BACK of the arrival order —
    # the worst case for FIFO, the shaped case must rescue them.
    # Their tenant tag only labels their queue waits: no quota is
    # configured, so it changes no grant.
    low = [make_typed(catalogue, j) for j in range(total - N_HIGH)]
    high_fifo = [make_typed(catalogue, 500 + j, tenant="urgent")
                 for j in range(N_HIGH)]
    high_shaped = [make_typed(catalogue, 500 + j, priority=10,
                              tenant="urgent")
                   for j in range(N_HIGH)]

    server = create_server(registry, max_concurrent=SLOTS,
                           max_queue=4 * total)
    thread = threading.Thread(target=server.serve_forever,
                              daemon=True)
    thread.start()
    try:
        # Warm the catalogue's caches so both phases measure queueing,
        # not one-time index construction.
        warm = ServiceClient(port=server.port)
        assert warm.ask("bench", low[0], seed=999).ok

        fifo_lat, fifo = gated_flood(server, low + high_fifo)
        shaped_lat, shaped = gated_flood(server, low + high_shaped)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    fifo_waits, shaped_waits = fifo["urgent"], shaped["urgent"]
    assert len(fifo_waits) == len(shaped_waits) == N_HIGH
    fifo_high = p50(fifo_waits)
    shaped_high = p50(shaped_waits)
    print(f"\nhigh-priority queue wait p50 under {OVERLOAD}x overload: "
          f"FIFO {fifo_high * 1000:.1f}ms  "
          f"shaped {shaped_high * 1000:.1f}ms  "
          f"improvement {fifo_high / max(shaped_high, 1e-9):.1f}x  "
          f"(latency p50 FIFO {p50(fifo_lat[-N_HIGH:]) * 1000:.1f}ms, "
          f"shaped {p50(shaped_lat[-N_HIGH:]) * 1000:.1f}ms)")
    assert shaped_high * 2 <= fifo_high, (
        f"priority shaping gained only "
        f"{fifo_high / max(shaped_high, 1e-9):.2f}x (need >= 2x)")


def test_shed_requests_fail_fast(registry, catalogue):
    """A rejected request costs microseconds of server work: the
    refusal is computed before any executor is touched, so the
    client sees the 429 in well under 10ms."""
    server = create_server(registry, tenant_rate=0.001,
                           tenant_burst=1)
    thread = threading.Thread(target=server.serve_forever,
                              daemon=True)
    thread.start()
    try:
        client = ServiceClient(port=server.port)
        question = make_typed(catalogue, 900, tenant="shed")
        assert client.ask("bench", question, seed=0).ok  # burst token
        latencies = []
        for _ in range(20):
            start = time.perf_counter()
            with pytest.raises(ServiceError) as excinfo:
                client.ask("bench", question)
            latencies.append(time.perf_counter() - start)
            assert excinfo.value.status == 429
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    shed_p50 = p50(latencies)
    print(f"\nshed round-trip p50: {shed_p50 * 1000:.2f}ms "
          f"(max {max(latencies) * 1000:.2f}ms)")
    assert shed_p50 < 0.010, (
        f"shed p50 {shed_p50 * 1000:.2f}ms >= 10ms")
