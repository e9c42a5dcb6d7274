"""Per-layer metrics of a traced run (``--trace 1``).

Engine-layer times and work counters are totals over the traced half
divided by the questions answered in it (``ms/question``,
``count/question``); boundary layers report the median per call
(``ms``); catalogue and watch counters are per mutation.  A layer a
workload does not reach reads 0.  ``trace.overhead_ms`` is the traced
half's median read latency minus the untraced half's.
"""

from __future__ import annotations

import statistics

import spans

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    ("ranks.ms", "ms/question"),
    ("ranks.rows", "count/question"),
    ("sampling.ms", "ms/question"),
    ("sampling.samples", "count/question"),
    ("mwk.scan_ms", "ms/question"),
    ("mwk.thresholds", "count/question"),
    ("findincom.ms", "ms/question"),
    ("rtree.node_accesses", "count/question"),
    ("context.partition_hit_ratio", "ratio"),
    ("context.box_cache_hits", "count/question"),
    ("context.findincom_traversals", "count/question"),
    ("kth.ms", "ms/question"),
    ("qp.ms", "ms/question"),
    ("qp.iterations", "count/question"),
    ("audit.ms", "ms/question"),
    ("planner.observe_ms", "ms/question"),
    ("protocol.decode_ms", "ms"),
    ("protocol.encode_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("admission.wait_ms", "ms"),
    ("workers.roundtrip_ms", "ms"),
    ("catalogue.commit_ms", "ms"),
    ("context.tree_patches", "count/mutation"),
    ("context.partitions_inherited", "count/mutation"),
    ("context.partition_invalidations", "count/mutation"),
    ("delta.checks", "count/mutation"),
    ("delta.skip_ratio", "ratio"),
    ("watch.reanswers", "count/mutation"),
    ("watch.reanswer_ms", "ms"),
    ("jobs.queue_wait_ms", "ms"),
    ("trace.overhead_ms", "ms"),
)

#: Per-question span totals: metric name -> span name.
_PER_QUESTION_MS = {
    "ranks.ms": "ranks", "sampling.ms": "sampling",
    "mwk.scan_ms": "mwk.scan", "findincom.ms": "findincom",
    "kth.ms": "kth", "qp.ms": "qp", "audit.ms": "audit",
    "planner.observe_ms": "planner.observe",
}
_PER_QUESTION_COUNT = {
    "ranks.rows": "ranks.rows", "sampling.samples": "sampling.samples",
    "mwk.thresholds": "mwk.thresholds",
    "rtree.node_accesses": "rtree.node_accesses",
    "context.box_cache_hits": "context.box_cache_hits",
    "context.findincom_traversals": "context.findincom_traversals",
    "qp.iterations": "qp.iterations",
}
#: Median-per-call spans: metric name -> span name.
_PER_CALL_MS = {
    "protocol.decode_ms": "protocol.decode",
    "protocol.encode_ms": "protocol.encode",
    "admission.wait_ms": "admission.wait",
    "workers.roundtrip_ms": "workers.roundtrip",
    "catalogue.commit_ms": "catalogue.commit",
    "watch.reanswer_ms": "watch.reanswer",
    "jobs.queue_wait_ms": "jobs.queue_wait",
}
_PER_MUTATION_COUNT = ("context.tree_patches",
                       "context.partitions_inherited",
                       "context.partition_invalidations")


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def per_layer(m) -> dict:
    snap = m.extra.get("spans") or spans.RECORDER.snapshot()
    times, counts = snap["times"], snap["counts"]
    questions = max(1, sum(m.get("questions", "traced")))
    mutations = max(1, len(m.get("mutation", "traced")))
    values: dict[str, float] = {}
    for name, span in _PER_QUESTION_MS.items():
        values[name] = sum(times.get(span, ())) * 1e3 / questions
    for name, counter in _PER_QUESTION_COUNT.items():
        values[name] = counts.get(counter, 0.0) / questions
    for name, span in _PER_CALL_MS.items():
        values[name] = _median_ms(times.get(span, ()))
    for name in _PER_MUTATION_COUNT:
        values[name] = counts.get(name, 0.0) / mutations
    hits = counts.get("context.partition_hits", 0.0)
    misses = counts.get("context.partition_misses", 0.0)
    values["context.partition_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)

    reads = m.get("read", "traced")
    elapsed = m.get("read_elapsed", "traced")
    values["service.overhead_ms"] = _median_ms(
        [r - e for r, e in zip(reads, elapsed)])
    values["trace.overhead_ms"] = _median_ms(reads) - _median_ms(
        m.get("read", "untraced"))

    after = m.extra.get("watches", {})
    before = m.extra.get("watches_before", {})

    def grew(key):
        return after.get(key, 0) - before.get(key, 0)

    skipped, performed = grew("reanswers_skipped"), grew(
        "reanswers_performed")
    values["delta.checks"] = grew("delta_checks") / mutations
    values["delta.skip_ratio"] = (skipped / (skipped + performed)
                                  if skipped + performed else 0.0)
    values["watch.reanswers"] = performed / mutations
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}
