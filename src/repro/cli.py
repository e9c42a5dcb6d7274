"""``wqrtq`` — command-line interface to the WQRTQ framework.

Subcommands
-----------

``query``
    Run a reverse top-k query on a generated dataset and show the
    result plus which panel members are missing.
``refine``
    Answer a why-not question with MQP / MWK / MQWK on a generated
    workload (the same workloads the benchmark harness uses).
``batch``
    Answer a whole batch of why-not questions against one catalogue
    through one :class:`~repro.core.session.Session` (optionally in
    parallel with ``--workers``), and report cache effectiveness.
    ``--json`` emits the versioned ``Answer.to_dict()`` payloads —
    byte-identical to what ``Session.ask_batch`` and the HTTP
    ``/batch`` endpoint produce for the same questions.
    ``--sample-budget`` / ``--deadline-ms`` / ``--tolerance`` attach
    an anytime :class:`~repro.core.protocol.Budget` to every
    question; ``--submit`` runs the workload as an async job on a
    running daemon and ``--watch`` follows a job's convergence.
``serve``
    Run the long-lived JSON-over-HTTP daemon
    (:mod:`repro.service`): named catalogues — generated and/or
    loaded from ``.npz`` archives — each behind one
    LRU-bounded context, answering ``/answer`` and ``/batch``
    requests until interrupted.  ``--workers N`` executes in ``N``
    worker processes attached to zero-copy shared-memory snapshots;
    ``--shards M`` additionally scatter-gathers each shardable
    question over ``M`` catalogue row ranges.
``explain``
    Ask a *running* daemon for the cost-based execution plan of a
    why-not question — without executing it.  Prints the
    Impala-style plan tree (:mod:`repro.planner`): execution path
    (session / worker pool / scatter-gather), chunk schedule,
    estimated latency and peak memory, and whether the estimate is
    backed by calibrated timings or the analytic prior.
``watch``
    Register a standing why-not question on a *running* daemon and
    stream its refreshed answers: every catalogue mutation that can
    affect the answer (see :mod:`repro.engine.delta`) re-answers it
    and pushes the result; provably unaffected mutations are
    skipped.
``catalogue``
    Inspect or mutate a catalogue on a *running* ``wqrtq serve``
    daemon: ``show`` (version, size, mutation counters), ``add`` /
    ``update`` / ``remove`` products.  Mutations advance the
    catalogue's version live — no restart, no reload.
``bench``
    Regenerate a figure of the paper (delegates to
    :mod:`repro.bench`).
``lint``
    Run *reprolint* (:mod:`repro.analysis`) — the AST-based checker
    that enforces the repo's architectural invariants: the DESIGN.md
    layer matrix, the ``schema_lock.json`` wire-schema freeze,
    seeded determinism, resource lifecycles and frozen-value
    discipline.  ``--json`` emits a machine-readable report,
    ``--rule ID`` narrows to one rule, ``--update-lock`` regenerates
    the schema lock, ``--list-rules`` documents every contract.

Every subcommand builds one ``DatasetContext`` per catalogue and runs
all its queries through it, so ``FindIncom`` partitions (and, where a
subcommand traverses one, the R-tree) are paid once.  Algorithm
choices are enumerated from the
:mod:`~repro.core.registry` algorithm registry — a newly registered
refinement shows up in every subcommand without CLI changes.

Examples
--------
::

    wqrtq query --dataset independent -n 5000 -d 3 -k 10
    wqrtq refine --algorithm mqwk --rank 101 --sample-size 400
    wqrtq batch --questions 20 --products 5 --workers 4
    wqrtq batch --questions 50 --deadline-ms 50 --algorithm mwk
    wqrtq batch --questions 50 --submit --watch --port 8977
    wqrtq serve --port 8977 -n 10000 --max-partitions 1024
    wqrtq serve --port 0 --load laptops=data/laptops.npz
    wqrtq serve --port 0 -n 100000 --workers 4 --shards 4
    wqrtq serve --port 0 --max-concurrent 4 --tenant-rate 20
    wqrtq explain laptops --q '[0.4, 0.1, 0.2]' -k 10 \\
        --why-not '[[0.3, 0.3, 0.4]]' --port 8977
    wqrtq watch laptops --q '[0.4, 0.1, 0.2]' -k 10 \\
        --why-not '[[0.3, 0.3, 0.4]]' --port 8977
    wqrtq catalogue show laptops --port 8977
    wqrtq catalogue add laptops --products '[[0.4, 0.1, 0.2]]'
    wqrtq catalogue remove laptops --ids 17,23
    wqrtq bench fig9
    wqrtq lint --json
    wqrtq lint --rule SCHEMA-LOCK --update-lock
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="independent",
                        choices=["independent", "anticorrelated",
                                 "correlated", "nba", "household"])
    parser.add_argument("-n", "--cardinality", type=int, default=20_000)
    parser.add_argument("-d", "--dim", type=int, default=3)
    parser.add_argument("-k", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)


def _cmd_query(args) -> int:
    from repro.bench.harness import (
        ExperimentCell,
        build_context,
        build_workload,
    )
    from repro.rtopk.bichromatic import brtopk_rta

    cell = ExperimentCell(dataset=args.dataset, n=args.cardinality,
                          d=args.dim, k=args.k, rank=args.rank,
                          wm_size=1, sample_size=1, seed=args.seed)
    context = build_context(cell)
    query = build_workload(cell, context=context)
    panel = np.random.default_rng(args.seed + 5).dirichlet(
        np.ones(query.dim), size=args.panel)
    members = brtopk_rta(query.rtree, panel, query.q, args.k)
    print(f"dataset: {cell.label()}")
    print(f"q = {np.round(query.q, 4).tolist()}")
    print(f"reverse top-{args.k}: {len(members)} of {args.panel} panel "
          f"vectors rank q in their top-{args.k}")
    if len(members):
        print("member indices:", members.tolist())
    return 0


def _describe_result(name: str, result) -> str:
    """One human line per refinement result, keyed on result type."""
    from repro.core.types import MQPResult, MQWKResult, MWKResult

    label = f"{name.upper():<4}:"
    if isinstance(result, MQPResult):
        return (f"{label} q' = "
                f"{np.round(result.q_refined, 4).tolist()} "
                f"penalty = {result.penalty:.4f}")
    if isinstance(result, MWKResult):
        return (f"{label} k' = {result.k_refined} "
                f"(k_max = {result.k_max}), "
                f"ΔW = {result.delta_w:.4f}, "
                f"penalty = {result.penalty:.4f}")
    if isinstance(result, MQWKResult):
        return (f"{label} q' = "
                f"{np.round(result.q_refined, 4).tolist()}, "
                f"k' = {result.k_refined}, "
                f"penalty = {result.penalty:.4f}")
    return f"{label} penalty = {result.penalty:.4f}"


def _cmd_refine(args) -> int:
    from repro.bench.harness import (
        ExperimentCell,
        build_context,
        build_workload,
    )
    from repro.core.protocol import Question
    from repro.core.registry import algorithm_names
    from repro.core.session import Session
    from repro.core.types import MQPResult

    cell = ExperimentCell(dataset=args.dataset, n=args.cardinality,
                          d=args.dim, k=args.k, rank=args.rank,
                          wm_size=args.wm_size,
                          sample_size=args.sample_size, seed=args.seed)
    session = Session(context=build_context(cell))
    query = build_workload(cell, context=session.context)
    print(f"workload: {cell.label()}")
    print(f"q = {np.round(query.q, 4).tolist()}")
    print(f"why-not ranks: {query.ranks().tolist()}")

    if args.explain:
        question = Question(q=query.q, k=query.k,
                            why_not=query.why_not)
        for expl in session.explain(question, max_culprits=5):
            print("  " + expl.describe(query.k))

    names = (algorithm_names() if args.algorithm == "all"
             else (args.algorithm,))
    failed = 0
    for offset, name in enumerate(names):
        answer = session.ask(
            Question.from_legacy(query.q, query.k, query.why_not,
                                 algorithm=name,
                                 sample_size=args.sample_size),
            seed=args.seed + 10 + offset)
        if answer.error is not None:
            failed += 1
            print(f"{name.upper():<4}: FAILED "
                  f"({answer.error.type}: {answer.error.message})")
            continue
        print(_describe_result(name, answer.result))
        if args.plot and isinstance(answer.result, MQPResult):
            if query.dim == 2:
                from repro.core.safe_region import safe_region_polygon
                from repro.viz import render_plane

                polygon = safe_region_polygon(query.points, query.q,
                                              query.why_not, query.k)
                print(render_plane(query.points[:300], query.q,
                                   polygon=polygon, width=56,
                                   height=18))
            else:
                print("(--plot requires 2-dimensional data)")
    return 0 if failed == 0 else 1


def build_batch_questions(session, *, n_questions: int,
                          products: int, dim: int, k: int, rank: int,
                          algorithm: str, sample_size: int,
                          seed: int, budget=None):
    """The ``wqrtq batch`` workload as typed Questions.

    A realistic serving mix: a few distinct products, each asked
    about by several customer panels.  Factored out so tests can
    rebuild the exact question list the CLI answers and assert the
    payloads match ``Session.ask_batch`` byte for byte.  ``budget``
    (a :class:`~repro.core.protocol.Budget`) is attached to every
    question when given — the anytime form of the same workload.
    """
    import dataclasses

    from repro.core.protocol import Question
    from repro.data import preference_set, query_point_with_rank

    products = max(1, min(products, n_questions))
    wts = preference_set(n_questions, dim, seed=seed + 3)
    qs = []
    for j in range(products):
        base = preference_set(1, dim, seed=seed + 100 + j)[0]
        qs.append(query_point_with_rank(session.points, base, rank))
    # One buffered batched-rank call per product validates every
    # panel at once (reusing the context's score buffer).
    panel_ranks = [session.context.ranks(wts, q) for q in qs]
    questions = []
    for i in range(n_questions):
        j = i % products
        if panel_ranks[j][i] <= k:
            continue   # this panel already shortlists the product
        question = Question.from_legacy(
            qs[j], k, wts[i:i + 1], algorithm=algorithm,
            sample_size=sample_size, id=f"q{i:04d}-p{j}")
        if budget is not None:
            question = dataclasses.replace(question, budget=budget)
        questions.append(question)
    return questions, products


def _batch_budget(args):
    """The :class:`~repro.core.protocol.Budget` the batch flags ask
    for, or ``None`` when no limit was given."""
    from repro.core.protocol import Budget

    budget = Budget(sample_budget=args.sample_budget,
                    deadline_ms=args.deadline_ms,
                    target_penalty_tolerance=args.tolerance)
    return None if budget.is_unbounded else budget


def _cmd_batch_submit(args, questions) -> int:
    """``wqrtq batch --submit``: run the workload as an async job on
    a running daemon, optionally watching it converge."""
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(host=args.host, port=args.port)
    catalogue = args.name or args.dataset
    try:
        job = client.submit(catalogue, questions, seed=args.seed)
        print(f"submitted job {job['id']} ({job['total']} questions) "
              f"to {catalogue!r} on {client.base_url}")
        if not args.watch:
            print(f"poll with: wqrtq batch --watch {job['id']} "
                  f"--port {args.port}")
            return 0
        return _watch_job(client, job["id"],
                          poll_interval=args.poll_interval)
    except (ServiceError, OSError, TimeoutError) as exc:
        print(f"batch --submit failed: {exc}", file=sys.stderr)
        return 1


def _watch_job(client, job_id: str, *,
               poll_interval: float = 0.2) -> int:
    """Poll one job to completion, printing progress lines."""
    from repro.service import ServiceError

    def show(progress):
        penalties = [p for p in progress["penalties"]
                     if p is not None]
        worst = max(penalties) if penalties else None
        line = (f"job {progress['id']}: {progress['status']} "
                f"{progress['done']}/{progress['total']}")
        if worst is not None:
            line += f" worst-penalty={worst:.4f}"
        print(line, flush=True)

    try:
        final = client.wait(job_id, poll_interval=poll_interval,
                            timeout=3600.0, on_progress=show)
        if final["status"] != "done":
            print(f"job finished as {final['status']}"
                  + (f": {final['error']}" if final.get("error")
                     else ""), file=sys.stderr)
            return 1
        _, summary = client.result(job_id)
        print(f"answered={summary['answered']} "
              f"failed={summary['failed']} "
              f"all_valid={summary['all_valid']}")
        if summary["mean_penalty"] is not None:
            print(f"penalty: mean={summary['mean_penalty']:.4f} "
                  f"max={summary['max_penalty']:.4f}")
        return 0 if summary["failed"] == 0 else 1
    except (ServiceError, OSError, TimeoutError) as exc:
        print(f"batch --watch failed: {exc}", file=sys.stderr)
        return 1


def _cmd_batch(args) -> int:
    import json
    import time

    from repro.core.protocol import SCHEMA_VERSION
    from repro.core.session import Session
    from repro.data import make_dataset

    if isinstance(args.watch, str):
        # Standalone ``--watch JOB_ID``: attach to a job submitted
        # earlier (or by someone else) and follow it to completion.
        from repro.service import ServiceClient

        return _watch_job(
            ServiceClient(host=args.host, port=args.port),
            args.watch, poll_interval=args.poll_interval)
    if args.watch and not args.submit:
        # A bare flag with nothing to watch would otherwise fall
        # through to a silent local run — make the misuse loud.
        print("--watch needs --submit (follow the new job) or an "
              "explicit JOB_ID", file=sys.stderr)
        return 2

    points = make_dataset(args.dataset, args.cardinality, args.dim,
                          seed=args.seed)
    session = Session(points)
    questions, products = build_batch_questions(
        session, n_questions=args.questions, products=args.products,
        dim=args.dim, k=args.k, rank=args.rank,
        algorithm=args.algorithm, sample_size=args.sample_size,
        seed=args.seed, budget=_batch_budget(args))

    if args.submit:
        return _cmd_batch_submit(args, questions)

    start = time.perf_counter()
    answers = session.ask_batch(questions, seed=args.seed,
                                workers=args.workers)
    wall = time.perf_counter() - start
    summary = session.summarize(answers, wall_seconds=wall)
    stats = session.context.stats

    if args.json:
        print(json.dumps({
            "schema_version": SCHEMA_VERSION,
            "answers": [answer.to_dict() for answer in answers],
            "summary": summary,
        }, sort_keys=True))
        return 0 if summary["failed"] == 0 else 1

    print(f"batch: {len(questions)} questions ({products} products) "
          f"on {args.dataset}[n={args.cardinality}, d={args.dim}], "
          f"algorithm={args.algorithm}, workers={args.workers}")
    print(f"answered={summary['answered']} failed={summary['failed']} "
          f"all_valid={summary['all_valid']}")
    if summary["mean_penalty"] is not None:
        print(f"penalty: mean={summary['mean_penalty']:.4f} "
              f"max={summary['max_penalty']:.4f}")
    print(f"wall time: {wall:.3f}s  "
          f"(sum of per-item times: {summary['total_item_time']:.3f}s)")
    print(f"engine cache: tree_builds={stats.tree_builds} "
          f"findincom_traversals={stats.findincom_traversals} "
          f"cache_hits={stats.cache_hits} "
          f"buffer_reuses={stats.buffer_reuses}")
    return 0 if summary["failed"] == 0 else 1


def _cmd_serve(args) -> int:
    import signal
    import threading
    import zipfile

    from repro.data import make_dataset
    from repro.service import CatalogueRegistry, create_server

    # Unset flags keep the registry's default (bounded) caps.
    caps = {key: value for key, value in
            (("max_partitions", args.max_partitions),
             ("max_box_caches", args.max_box_caches))
            if value is not None}
    registry = CatalogueRegistry(**caps)
    try:
        for spec in args.load:
            name, sep, path = spec.partition("=")
            if not sep or not name or not path:
                print(f"--load expects NAME=PATH, got {spec!r}",
                      file=sys.stderr)
                return 2
            registry.load(name, path)
        if not args.load or args.generate:
            name = args.name or args.dataset
            points = make_dataset(args.dataset, args.cardinality,
                                  args.dim, seed=args.seed)
            registry.register(name, points,
                              meta={"kind": args.dataset,
                                    "seed": args.seed})
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        # Missing/corrupt archives and duplicate catalogue names are
        # configuration errors, not tracebacks.
        print(f"failed to register catalogue: {exc}", file=sys.stderr)
        return 2

    server = create_server(registry, host=args.host, port=args.port,
                           verbose=args.verbose,
                           job_workers=args.job_workers,
                           workers=args.workers, shards=args.shards,
                           max_concurrent=args.max_concurrent,
                           max_queue=args.max_queue,
                           tenant_rate=args.tenant_rate,
                           tenant_burst=args.tenant_burst,
                           enforce_deadlines=args.enforce_deadlines,
                           calibration_path=args.calibration)
    from repro.core.registry import algorithm_names
    print(f"algorithms: {', '.join(algorithm_names())}", flush=True)
    if args.workers > 0:
        print(f"worker pool: {args.workers} process(es), "
              f"{args.shards} shard(s)", flush=True)
    for entry in registry.describe():
        print(f"catalogue: {entry['name']} (n={entry['n']}, "
              f"d={entry['d']}, "
              f"max_partitions={entry['max_partitions']})",
              flush=True)
    # The CI smoke test and the load benchmark parse this line to
    # discover the ephemeral port, so keep its shape stable.
    print(f"serving on {server.url}", flush=True)

    # Graceful shutdown: SIGTERM/SIGINT stop the accept loop, then
    # server_close() drains — in-flight handler threads are joined
    # (socketserver's block_on_close) and the job pool cancels
    # cooperatively at the next chunk boundary.  shutdown() must run
    # off the signal frame: the handler interrupts serve_forever's
    # own poll loop, which shutdown() waits on.
    def _drain(signum, frame):
        _status(f"received {signal.Signals(signum).name}, draining...")
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    try:
        server.serve_forever()
    except KeyboardInterrupt:   # pragma: no cover - belt and braces
        pass
    finally:
        server.server_close()
    _status("server stopped")
    return 0


def _status(line: str) -> None:
    """Print a daemon status line.  A reader that went away (a closed
    stdout pipe) must not abort the drain: stdout is pointed at
    ``os.devnull`` instead, so neither this nor the interpreter's
    exit-time flush of the unwritten line raises again."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _parse_ids(raw: str) -> list[int]:
    try:
        return [int(token) for token in raw.split(",") if token.strip()]
    except ValueError:
        raise ValueError(f"--ids expects a comma-separated list of "
                         f"product ids, got {raw!r}") from None


def _parse_products(args) -> list:
    """Product rows from ``--products`` JSON or an ``--from-npz``
    archive (exactly one of the two)."""
    import json

    if (args.products is None) == (getattr(args, "from_npz", None)
                                   is None):
        raise ValueError("pass exactly one of --products or "
                         "--from-npz")
    if args.products is not None:
        try:
            rows = json.loads(args.products)
        except json.JSONDecodeError as exc:
            raise ValueError(f"--products is not valid JSON: {exc}") \
                from None
        return rows
    from repro.data.io import load_dataset

    points, _ = load_dataset(args.from_npz)
    return points.tolist()


def _cmd_catalogue(args) -> int:
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(host=args.host, port=args.port)
    try:
        if args.action == "show":
            entry = client.catalogue(args.name)
            print(f"catalogue: {entry['name']}")
            print(f"version: {entry['version']}  n: {entry['n']}  "
                  f"d: {entry['d']}")
            mutations = entry["mutations"]
            print(f"mutations: adds={mutations['adds']} "
                  f"updates={mutations['updates']} "
                  f"removes={mutations['removes']} "
                  f"(count={mutations['count']})")
            stats = entry["stats"]
            print(f"caches: partitions={entry['cached_partitions']} "
                  f"inherited={stats['partitions_inherited']} "
                  f"invalidated={stats['partition_invalidations']} "
                  f"tree_patches={stats['tree_patches']}")
        elif args.action == "add":
            response = client.add_products(args.name,
                                           _parse_products(args))
            print(f"added {len(response['ids'])} product(s) "
                  f"(ids {response['ids']}) -> "
                  f"version {response['catalogue_version']}, "
                  f"n={response['n']}")
        elif args.action == "update":
            response = client.update_products(
                args.name, _parse_ids(args.ids),
                _parse_products(args))
            print(f"updated {len(response['ids'])} product(s) -> "
                  f"version {response['catalogue_version']}")
        else:   # remove
            response = client.remove_products(args.name,
                                              _parse_ids(args.ids))
            print(f"removed {len(response['ids'])} product(s) -> "
                  f"version {response['catalogue_version']}, "
                  f"n={response['n']}")
    except (ServiceError, ValueError, OSError) as exc:
        print(f"catalogue {args.action} failed: {exc}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_explain(args) -> int:
    """Print a running daemon's execution plan for one question."""
    import json

    from repro.core.protocol import Question
    from repro.service import (
        ServiceClient,
        ServiceConnectionError,
        ServiceError,
    )

    try:
        q = json.loads(args.q)
        why_not = json.loads(args.why_not)
    except json.JSONDecodeError as exc:
        print(f"--q/--why-not must be JSON: {exc}", file=sys.stderr)
        return 2
    try:
        question = Question.from_legacy(
            q, args.k, why_not, algorithm=args.algorithm,
            sample_size=args.sample_size)
    except (ValueError, KeyError) as exc:
        print(f"invalid question: {exc}", file=sys.stderr)
        return 2

    client = ServiceClient(host=args.host, port=args.port)
    try:
        plan, rendered = client.explain(args.name, question,
                                        seed=args.seed)
    except (ServiceError, ServiceConnectionError, ValueError) as exc:
        print(f"explain failed: {exc}", file=sys.stderr)
        return 1
    print(rendered, flush=True)
    if args.json:
        print(json.dumps(plan.to_dict(), sort_keys=True), flush=True)
    return 0


def _cmd_watch(args) -> int:
    """Register a watch on a running daemon and stream refreshed
    answers until the terminal event (or ``--max-events``)."""
    import json

    from repro.core.protocol import Question
    from repro.service import (
        ServiceClient,
        ServiceConnectionError,
        ServiceError,
    )

    try:
        q = json.loads(args.q)
        why_not = json.loads(args.why_not)
    except json.JSONDecodeError as exc:
        print(f"--q/--why-not must be JSON: {exc}", file=sys.stderr)
        return 2
    try:
        question = Question.from_legacy(
            q, args.k, why_not, algorithm=args.algorithm,
            sample_size=args.sample_size)
    except (ValueError, KeyError) as exc:
        print(f"invalid question: {exc}", file=sys.stderr)
        return 2

    client = ServiceClient(host=args.host, port=args.port)
    count = 0
    try:
        for answer in client.watch(args.name, question,
                                   seed=args.seed,
                                   timeout_ms=args.timeout_ms,
                                   max_events=args.max_events):
            label = "answer" if count == 0 else "refresh"
            if answer.error is not None:
                print(f"[{count}] {label} "
                      f"v{answer.catalogue_version} "
                      f"error: {answer.error.message}", flush=True)
            else:
                print(f"[{count}] {label} "
                      f"v{answer.catalogue_version} "
                      f"penalty={answer.penalty:.4f} "
                      f"valid={answer.valid}", flush=True)
            count += 1
    except (ServiceError, ServiceConnectionError, ValueError) as exc:
        print(f"watch failed: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:   # pragma: no cover - interactive
        pass
    print(f"watch ended after {count} event(s)", flush=True)
    return 0


def _cmd_bench(args) -> int:
    from repro.bench.__main__ import main as bench_main

    argv = [args.figure]
    if args.paper_scale:
        argv.append("--paper-scale")
    return bench_main(argv)


def _cmd_lint(args) -> int:
    from repro.analysis.runner import lint_command

    return lint_command(args)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="wqrtq",
        description="Why-not questions on reverse top-k queries "
                    "(Gao et al., VLDB 2015 — reproduction).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_query = sub.add_parser("query", help="run a reverse top-k query")
    _add_workload_args(p_query)
    p_query.add_argument("--rank", type=int, default=51,
                         help="rank of q under the probe vector")
    p_query.add_argument("--panel", type=int, default=100,
                         help="size of the customer panel W")
    p_query.set_defaults(func=_cmd_query)

    p_refine = sub.add_parser("refine",
                              help="answer a why-not question")
    _add_workload_args(p_refine)
    p_refine.add_argument("--rank", type=int, default=51)
    p_refine.add_argument("--wm-size", type=int, default=1)
    p_refine.add_argument("--sample-size", type=int, default=200)
    from repro.core.registry import algorithm_names
    p_refine.add_argument("--algorithm", default="all",
                          choices=[*algorithm_names(), "all"])
    p_refine.add_argument("--explain", action="store_true",
                          help="also print aspect (i) explanations")
    p_refine.add_argument("--plot", action="store_true",
                          help="render the 2-D safe region (d=2 only)")
    p_refine.set_defaults(func=_cmd_refine)

    p_batch = sub.add_parser(
        "batch", help="answer a batch of why-not questions")
    _add_workload_args(p_batch)
    p_batch.add_argument("--rank", type=int, default=51)
    p_batch.add_argument("--questions", type=int, default=20,
                         help="number of (product, panel) questions")
    p_batch.add_argument("--products", type=int, default=5,
                         help="distinct products the questions cover")
    p_batch.add_argument("--sample-size", type=int, default=200)
    p_batch.add_argument("--algorithm", default="mqwk",
                         choices=list(algorithm_names()))
    p_batch.add_argument("--workers", type=int, default=1,
                         help="executor threads (1 = serial)")
    p_batch.add_argument("--json", action="store_true",
                         help="emit the versioned Answer payloads as "
                              "JSON instead of the human summary")
    p_batch.add_argument("--sample-budget", type=int, default=None,
                         help="anytime budget: cap on samples "
                              "examined per question")
    p_batch.add_argument("--deadline-ms", type=float, default=None,
                         help="anytime budget: soft per-question "
                              "deadline in milliseconds")
    p_batch.add_argument("--tolerance", type=float, default=None,
                         help="anytime budget: stop refining once "
                              "the penalty is at or below this")
    p_batch.add_argument("--submit", action="store_true",
                         help="submit the workload as an async job "
                              "to a running wqrtq serve daemon "
                              "instead of answering locally")
    p_batch.add_argument("--watch", nargs="?", const=True,
                         default=False, metavar="JOB_ID",
                         help="with --submit: follow the new job to "
                              "completion; standalone: follow an "
                              "existing job by id")
    p_batch.add_argument("--host", default="127.0.0.1",
                         help="daemon host for --submit/--watch")
    p_batch.add_argument("--port", type=int, default=8977,
                         help="daemon port for --submit/--watch")
    p_batch.add_argument("--name", default=None,
                         help="server catalogue name for --submit "
                              "(default: the dataset kind)")
    p_batch.add_argument("--poll-interval", type=float, default=0.2,
                         help="seconds between --watch polls")
    p_batch.set_defaults(func=_cmd_batch)

    p_serve = sub.add_parser(
        "serve", help="run the JSON-over-HTTP why-not daemon")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8977,
                         help="TCP port (0 = pick an ephemeral port)")
    p_serve.add_argument("--dataset", default="independent",
                         choices=["independent", "anticorrelated",
                                  "correlated", "nba", "household"],
                         help="distribution of the generated catalogue")
    p_serve.add_argument("-n", "--cardinality", type=int,
                         default=20_000)
    p_serve.add_argument("-d", "--dim", type=int, default=3)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--name", default=None,
                         help="registry name of the generated "
                              "catalogue (default: the dataset kind)")
    p_serve.add_argument("--load", action="append", default=[],
                         metavar="NAME=PATH",
                         help="register a saved .npz catalogue "
                              "(repeatable; suppresses the generated "
                              "one unless --generate)")
    p_serve.add_argument("--generate", action="store_true",
                         help="also register the generated catalogue "
                              "when --load is given")
    p_serve.add_argument("--max-partitions", type=int, default=None,
                         help="LRU bound on cached FindIncom "
                              "partitions per catalogue")
    p_serve.add_argument("--max-box-caches", type=int, default=None,
                         help="LRU bound on cached box traversals "
                              "per catalogue")
    p_serve.add_argument("--workers", type=int, default=0,
                         help="worker processes answering over "
                              "shared-memory snapshots (0 = "
                              "single-process threaded execution)")
    p_serve.add_argument("--shards", type=int, default=1,
                         help="catalogue row-range fan-out per "
                              "shardable question (needs --workers)")
    p_serve.add_argument("--job-workers", type=int, default=2,
                         help="async job worker threads "
                              "(POST /jobs)")
    p_serve.add_argument("--max-concurrent", type=int, default=None,
                         help="admission: cap on concurrently "
                              "executing requests (default: "
                              "unlimited)")
    p_serve.add_argument("--max-queue", type=int, default=64,
                         help="admission: waiters allowed behind a "
                              "full --max-concurrent before "
                              "load-shedding with 429")
    p_serve.add_argument("--tenant-rate", type=float, default=None,
                         help="admission: per-tenant token-bucket "
                              "refill rate in requests/second "
                              "(default: no quota)")
    p_serve.add_argument("--tenant-burst", type=float, default=None,
                         help="admission: per-tenant bucket "
                              "capacity (default: the rate)")
    p_serve.add_argument("--enforce-deadlines", action="store_true",
                         help="admission: reject questions whose "
                              "calibrated latency estimate exceeds "
                              "their budget's deadline_ms")
    p_serve.add_argument("--calibration", default=None,
                         metavar="PATH",
                         help="load/persist cost-model calibration "
                              "at this JSON path (saved on drain)")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log every HTTP request")
    p_serve.set_defaults(func=_cmd_serve)

    p_explain = sub.add_parser(
        "explain", help="show a running daemon's cost-based "
                        "execution plan for a question")
    p_explain.add_argument("name",
                           help="registry name of the catalogue")
    p_explain.add_argument("--q", required=True,
                           help="JSON coordinate list of the missing "
                                "product, e.g. '[0.4, 0.1, 0.2]'")
    p_explain.add_argument("-k", type=int, default=10)
    p_explain.add_argument("--why-not", required=True,
                           dest="why_not",
                           help="JSON weight rows, e.g. "
                                "'[[0.3, 0.3, 0.4]]'")
    p_explain.add_argument("--algorithm", default="mqp",
                           choices=list(algorithm_names()))
    p_explain.add_argument("--sample-size", type=int, default=200)
    p_explain.add_argument("--seed", type=int, default=0)
    p_explain.add_argument("--host", default="127.0.0.1")
    p_explain.add_argument("--port", type=int, default=8977)
    p_explain.add_argument("--json", action="store_true",
                           help="also print the Plan payload as "
                                "JSON after the rendering")
    p_explain.set_defaults(func=_cmd_explain)

    p_watch = sub.add_parser(
        "watch", help="stream live answers to a standing question "
                      "from a running server")
    p_watch.add_argument("name",
                         help="registry name of the catalogue")
    p_watch.add_argument("--q", required=True,
                         help="JSON coordinate list of the missing "
                              "product, e.g. '[0.4, 0.1, 0.2]'")
    p_watch.add_argument("-k", type=int, default=10)
    p_watch.add_argument("--why-not", required=True, dest="why_not",
                         help="JSON weight rows, e.g. "
                              "'[[0.3, 0.3, 0.4]]'")
    p_watch.add_argument("--algorithm", default="mqp",
                         choices=list(algorithm_names()))
    p_watch.add_argument("--sample-size", type=int, default=200)
    p_watch.add_argument("--seed", type=int, default=0)
    p_watch.add_argument("--host", default="127.0.0.1")
    p_watch.add_argument("--port", type=int, default=8977)
    p_watch.add_argument("--max-events", type=int, default=None,
                         help="stop after this many answers "
                              "(default: until the server ends the "
                              "watch)")
    p_watch.add_argument("--timeout-ms", type=int, default=10_000,
                         dest="timeout_ms",
                         help="long-poll leg duration")
    p_watch.set_defaults(func=_cmd_watch)

    p_cat = sub.add_parser(
        "catalogue",
        help="inspect or mutate a catalogue on a running server")
    cat_sub = p_cat.add_subparsers(dest="action", required=True)

    def _cat_common(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("name",
                            help="registry name of the catalogue")
        parser.add_argument("--host", default="127.0.0.1")
        parser.add_argument("--port", type=int, default=8977)
        parser.set_defaults(func=_cmd_catalogue)

    c_show = cat_sub.add_parser(
        "show", help="version, size and mutation counters")
    _cat_common(c_show)

    c_add = cat_sub.add_parser("add", help="append products")
    _cat_common(c_add)
    c_add.add_argument("--products", default=None,
                       help="JSON list of coordinate rows, e.g. "
                            "'[[0.4, 0.1, 0.2]]'")
    c_add.add_argument("--from-npz", dest="from_npz", default=None,
                       help="append every row of a save_dataset "
                            "archive instead of --products")

    c_update = cat_sub.add_parser(
        "update", help="replace coordinates of existing products")
    _cat_common(c_update)
    c_update.add_argument("--ids", required=True,
                          help="comma-separated product ids")
    c_update.add_argument("--products", default=None,
                          help="JSON list of replacement rows "
                               "(one per id)")
    c_update.add_argument("--from-npz", dest="from_npz", default=None,
                          help="take the replacement rows from a "
                               "save_dataset archive")

    c_remove = cat_sub.add_parser("remove", help="delete products")
    _cat_common(c_remove)
    c_remove.add_argument("--ids", required=True,
                          help="comma-separated product ids")

    p_bench = sub.add_parser("bench", help="regenerate a paper figure")
    from repro.bench.figures import FIGURES
    p_bench.add_argument("figure", choices=sorted(FIGURES) + ["all"])
    p_bench.add_argument("--paper-scale", action="store_true")
    p_bench.set_defaults(func=_cmd_bench)

    p_lint = sub.add_parser(
        "lint", help="check the repo's architectural invariants "
                     "(reprolint)")
    from repro.analysis.runner import add_lint_arguments
    add_lint_arguments(p_lint)
    p_lint.set_defaults(func=_cmd_lint)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
