"""The three workloads: ``paper-mix``, ``serve-hot``, ``serve-churn``.

Each workload function takes the parsed arguments and a
:class:`Measure` (which already holds the process start time), runs
one or two *phases* of whole rounds until each phase's time is up,
checks every answer with :mod:`oracle`, and fills the ``Measure``.
An untraced run has one phase.  A traced run (``--trace 1``) has two
halves: untraced, then traced, so the tracing overhead is the
difference of the two halves' read latencies.

Every workload carries the same operation kinds (single reads,
batches, catalogue mutations, and the wait until standing answers are
current again), so every end-to-end metric is measured on every
workload; the mix differs and sets what each workload stresses.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import time

import numpy as np

import daemon as dmn
import gen
import oracle
import qpscreen
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: paper-mix question templates per catalogue and round:
#: (algorithm, options, sample_budget).  Ordered by typical latency:
#: MQP, a sample-budgeted anytime MWK, MWK at |S| = 100 (where the
#: median read falls), MWK at |S| = 200, then MQWK fixed and
#: sample-budgeted.  On the anticorrelated catalogue MQWK is a tenth
#: of all reads, so p95 falls inside it rather than on its edge.
PAPER_TEMPLATES = (
    ("mqp", {}, None),
    ("mqp", {}, None),
    ("mqp", {}, None),
    ("mwk", {"sample_size": 800}, 128),
    ("mwk", {"sample_size": 100}, None),
    ("mwk", {"sample_size": 100}, None),
    ("mwk", {"sample_size": 100}, None),
    ("mwk", {"sample_size": 200}, None),
    ("mqwk", {"sample_size": 50, "q_sample_size": 8}, None),
    ("mqwk", {"sample_size": 100}, 4),
)
#: One fixed MQP question on the anticorrelated catalogue on which the
#: program's MQP method stalls (see :mod:`qpscreen`).  It is asked once
#: per round and counted in ``failed`` while it fails, so the known
#: solver defect shows in every run; the seed does not touch it.
STALLED_MQP = {"product": 71007, "k": 10, "why_not": (
    (0.4726404316000805, 0.3715088803134359, 0.15585068808648356),
    (0.12565772103058376, 0.8583295121838872, 0.01601276678552909))}
#: Templates of the one ``Session.ask_batch`` per round.
PAPER_BATCH = (0, 1, 3, 4)
#: Long-tail mutations (each followed by the refresh wait) per round.
PAPER_MUTATIONS = 4


def table1_params(round_no: int, slot: int) -> tuple[int, int, int]:
    """``(k, rank, |Wm|)`` for one question slot of one round.

    The three parameters cycle through Table 1 at co-prime strides, so
    every run sees nearly the same multiset of shapes whatever the
    seed and length; only products and vectors are drawn at random.
    """
    rank = gen.TABLE1_RANKS[(round_no + slot) % len(gen.TABLE1_RANKS)]
    k = gen.TABLE1_KS[(round_no + 2 * slot) % len(gen.TABLE1_KS)]
    m = gen.TABLE1_WM[(round_no + 3 * slot) % len(gen.TABLE1_WM)]
    return (min(k, rank - 1), rank, m)


def cycled(i: int, *choices) -> tuple:
    """The ``i``-th entry of each of ``choices``, cycled.  With pairwise
    co-prime lengths every combination comes once per cycle, so, as
    with :func:`table1_params`, the shapes do not depend on the seed."""
    return tuple(c[i % len(c)] for c in choices)


class Measure:
    """Everything one run measures, per phase."""

    def __init__(self, t_start: float):
        self.t_start = t_start
        self.setup_s = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.phase = "main"
        self.data: dict[str, dict[str, list]] = {}
        self.extra: dict[str, object] = {}

    def add(self, key: str, value) -> None:
        self.data.setdefault(self.phase, {}).setdefault(key, []).append(
            value)

    def get(self, key: str, phase: str | None = None) -> list:
        return self.data.get(phase or self.phase, {}).get(key, [])

    def check(self, what: str, problems) -> None:
        for problem in problems:
            self.problems.append(f"{what}: {problem}")

    def op(self, ok: bool = True) -> None:
        """Count one operation of a round.  Warm-up reads are not
        counted (a failed one is still a check failure), so whole
        rounds make up ``attempted`` and ``failed`` is the same share
        of it in every run."""
        self.attempted += 1
        if not ok:
            self.failed += 1


#: Timed reads an untraced run takes at least, even past ``--seconds``
#: on a slow host: nearest-rank p95 then has ten samples beyond it.
MIN_READS = 200


def _more(m: Measure, end: float) -> bool:
    """Whether the current phase runs another whole round."""
    return (time.perf_counter() < end
            or (m.phase == "main" and len(m.get("read")) < MIN_READS))


def _phases(args):
    if args.trace:
        half = args.seconds / 2.0
        return [("untraced", half), ("traced", half)]
    return [("main", float(args.seconds))]


def _rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), purpose])


#: The catalogues are the same in every run, so runs with different
#: ``--seed`` compare like with like; the seed draws the questions,
#: products, watches and mutations.
CATALOGUE_SEED = 0


#: Draws one screened question may take.  A stalled MQP program is
#: rare (2 in 2437 Table-1 questions on paper-mix's ``anti``), so
#: reaching the cap means the inputs have gone wrong; the run is then
#: marked incorrect.
MAX_REDRAWS = 200


def qp_stalls(points: np.ndarray, q, wm, k: int) -> bool:
    """Whether the frozen MQP method in :mod:`qpscreen` stalls on a
    question, given brute-force k-th scores."""
    scores = [oracle.kth_score(points, w, k) for w in np.atleast_2d(wm)]
    return qpscreen.stalls(q, wm, scores)


def _screened(m: Measure, points, make, algorithm: str, *,
              tail: float | None = None):
    """``make()`` -> ``(q, k, wm)``, redrawn while the MQP program
    stalls (MQP and MQWK only) or, with ``tail``, while ``q`` does not
    lie below ``tail`` in every coordinate; at most
    :data:`MAX_REDRAWS` draws."""
    for _ in range(MAX_REDRAWS):
        q, k, wm = make()
        if tail is not None and q.max() >= tail:
            continue
        if algorithm not in ("mqp", "mqwk") or not qp_stalls(points, q,
                                                             wm, k):
            return q, k, wm
    m.check("inputs", [f"no {algorithm} question passed the input "
                       f"screen in {MAX_REDRAWS} draws"])
    return q, k, wm


def _workdir() -> str:
    path = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(path, exist_ok=True)
    return path


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------
# paper-mix: in-process Session.ask at the paper's default shape
# ---------------------------------------------------------------------

PAPER_N, PAPER_D = 100_000, 3
PAPER_TAIL = 0.5
#: Partition and box-cache cap.  Every product is distinct, so nothing
#: hits; with the default cap the caches (and peak RSS) would grow with
#: the reads a run manages.
PAPER_CACHE = 64


def paper_mix(args, m: Measure) -> None:
    """Each phase builds its own registry from the same seed, so a
    traced half replays the untraced half's question stream against
    equally cold caches."""
    for phase, seconds in _phases(args):
        m.phase = phase
        if phase == "traced":
            spans.install()
        with spans.RECORDER.paused():
            mix = PaperMix(args, m)
        try:
            end = time.perf_counter() + seconds
            while _more(m, end):
                mix.round()
            if phase == "traced":
                m.extra["watches"] = mix.watches.describe()
        finally:
            mix.close()
    m.add("rss", _self_peak_rss_mb())


class PaperMix:
    def __init__(self, args, m: Measure):
        from repro import Question
        from repro.service import CatalogueRegistry
        from repro.service.jobs import JobManager
        from repro.service.watch import WatchManager

        self.m = m
        self.Question = Question
        # The inputs: drawn by the benchmark, so not part of setup_s.
        t_inputs = time.perf_counter()
        data_rng = _rng(CATALOGUE_SEED, 1)
        points = {"ind": gen.independent(data_rng, PAPER_N, PAPER_D),
                  "anti": gen.anticorrelated(data_rng, PAPER_N, PAPER_D)}
        self.mirrors = {name: gen.Mirror(pts)
                        for name, pts in points.items()}
        self.qrng = _rng(args.seed, 2)
        self.maker = gen.QuestionMaker(self.qrng)
        self.mutator = gen.MutationMaker(_rng(args.seed, 3),
                                         self.mirrors["ind"],
                                         tail_lo=PAPER_TAIL)
        self.rotation = 0
        self.round_no = self.slot = 0
        # Two standing watches on the mutated catalogue, about products
        # that dominate its long tail.
        standing = []
        for algorithm, options in (("mqp", {}),
                                   ("mwk", {"sample_size": 100})):
            ind = self.mirrors["ind"].points

            def draw():
                _, q, wm = self.maker.make(ind, k=10, rank=101, m=2)
                return q, 10, wm

            q, k, wm = _screened(m, ind, draw, algorithm, tail=PAPER_TAIL)
            standing.append((Question.from_dict(gen.question_payload(
                q, k, wm, algorithm, options=options)),
                int(self.qrng.integers(1 << 30))))
        inputs_s = time.perf_counter() - t_inputs

        # The program's set-up: registration builds each R-tree.  The
        # watches' first answers are left out: their cost follows the
        # seeded questions, not the set-up.
        self.registry = CatalogueRegistry(max_partitions=PAPER_CACHE,
                                          max_box_caches=PAPER_CACHE)
        for name, pts in points.items():
            self.registry.register(name, pts)
        self.sessions = {name: self.registry.session(name)
                         for name in points}
        self.jobs = JobManager(self.registry, workers=1)
        self.watches = WatchManager(self.registry, self.jobs)
        if m.setup_s is None:
            m.setup_s = time.perf_counter() - m.t_start - inputs_s
        self.standing = [self.watches.create("ind", question, seed=seed)[0]
                         for question, seed in standing]
        # Warm-up: one question per algorithm per catalogue, discarded.
        for name in ("ind", "anti"):
            for algorithm, options, budget in PAPER_TEMPLATES[::2]:
                self.ask(name, algorithm, options, budget, record=False)

    def close(self) -> None:
        self.watches.shutdown()
        self.jobs.shutdown()

    def _payload(self, name, algorithm, options, budget) -> dict:
        k, rank, size = table1_params(self.round_no, self.slot)
        self.slot += 1
        points = self.mirrors[name].points

        def draw():
            _, q, wm = self.maker.make(points, k=k, rank=rank, m=size)
            return q, k, wm

        q, k, wm = _screened(self.m, points, draw, algorithm)
        return gen.question_payload(q, k, wm, algorithm, options=options,
                                    sample_budget=budget)

    def ask(self, name, algorithm, options, budget, *, record=True):
        m, mirror = self.m, self.mirrors[name]
        payload = self._payload(name, algorithm, options, budget)
        seed = int(self.qrng.integers(1 << 30))
        question = self.Question.from_dict(payload)
        c0, t0 = time.thread_time(), time.perf_counter()
        answer = self.sessions[name].ask(question, seed=seed)
        wall = time.perf_counter() - t0
        cpu = time.thread_time() - c0
        item = answer.to_dict()
        with spans.RECORDER.paused():
            problems = oracle.check_answer(mirror.points, payload, item,
                                           version=mirror.version)
            if algorithm == "mqwk" and not problems:
                refs = [self.sessions[name].ask(self.Question.from_dict(
                            dict(payload, algorithm=alg, options=opts,
                                 budget=None)), seed=seed).to_dict()
                        for alg, opts in (("mqp", {}), ("mwk", {
                            "sample_size": options["sample_size"]}))]
                problems += oracle.check_mqwk_bounds(
                    mirror.points, payload, item, *refs)
        m.check(f"{name} {algorithm}", problems)
        if record:
            m.op(answer.ok)
            m.add("read", wall)
            m.add("read_elapsed", answer.elapsed)
            m.add("cpu", cpu)
            m.add("questions", 1)
            if answer.ok:
                m.add("penalty", answer.penalty)

    def stalled(self) -> None:
        """The question of :data:`STALLED_MQP`.  An answer, should the
        program come to give one, is checked like any other."""
        m, mirror = self.m, self.mirrors["anti"]
        q = mirror.points[STALLED_MQP["product"]]
        payload = gen.question_payload(q, STALLED_MQP["k"],
                                       STALLED_MQP["why_not"], "mqp")
        answer = self.sessions["anti"].ask(
            self.Question.from_dict(payload), seed=0)
        if answer.ok:
            with spans.RECORDER.paused():
                m.check("anti stalled mqp", oracle.check_answer(
                    mirror.points, payload, answer.to_dict(),
                    version=mirror.version))
        m.op(answer.ok)

    def batch(self) -> None:
        m, mirror = self.m, self.mirrors["anti"]
        payloads = [self._payload("anti", *PAPER_TEMPLATES[i])
                    for i in PAPER_BATCH]
        seed = int(self.qrng.integers(1 << 30))
        questions = [self.Question.from_dict(p) for p in payloads]
        c0, t0 = time.thread_time(), time.perf_counter()
        answers = self.sessions["anti"].ask_batch(questions, seed=seed)
        wall = time.perf_counter() - t0
        m.add("cpu", time.thread_time() - c0)
        m.add("batch", wall)
        m.add("questions", len(answers))
        ok = True
        for payload, answer in zip(payloads, answers):
            item = answer.to_dict()
            with spans.RECORDER.paused():
                m.check("anti batch", oracle.check_answer(
                    mirror.points, payload, item,
                    version=mirror.version))
            ok = ok and answer.ok
            if answer.ok:
                m.add("penalty", answer.penalty)
        m.op(ok)

    def mutation(self) -> None:
        m, mirror = self.m, self.mirrors["ind"]
        ids, rows = self.mutator.draw(competitive=False)
        catalogue = self.registry.catalogue("ind")
        t0 = time.perf_counter()
        applied = catalogue.apply("update", ids=ids,
                                  products=rows.tolist())
        m.add("mutation", time.perf_counter() - t0)
        mirror.update(ids, rows)
        ok = applied["version"] == mirror.version
        m.op(ok)
        if not ok:
            m.check("ind mutation", [f"version {applied['version']} != "
                                     f"mirror {mirror.version}"])
        # In-process there is no HTTP handler to do it: publish the
        # commit to the watch manager as the mutation endpoint does,
        # then wait until every standing answer is current.
        t0 = time.perf_counter()
        self.watches.publish("ind")
        while any(w.state()[1] < mirror.version for w in self.standing):
            time.sleep(0.0002)
        m.add("refresh", time.perf_counter() - t0)
        m.op()
        with spans.RECORDER.paused():
            for i, watch in enumerate(self.standing):
                answer, _ = watch.state()
                item = answer.to_dict()
                m.check("ind watch", oracle.check_answer(
                    mirror.points, watch.question.to_dict(), item))
                if i == self.rotation % len(self.standing):
                    fresh = self.sessions["ind"].ask(
                        watch.question, seed=watch.seed).to_dict()
                    if not oracle.same_payload(
                            fresh, item,
                            ignore=("elapsed", "catalogue_version")):
                        m.check("ind watch", ["standing answer differs "
                                              "from a fresh ask"])
        self.rotation += 1

    def round(self) -> None:
        self.slot = 0
        for name in ("ind", "anti"):
            for algorithm, options, budget in PAPER_TEMPLATES:
                self.ask(name, algorithm, options, budget)
        if STALLED_MQP is not None:
            self.stalled()
        self.batch()
        for _ in range(PAPER_MUTATIONS):
            self.mutation()
        self.round_no += 1


# ---------------------------------------------------------------------
# Served workloads
# ---------------------------------------------------------------------

class Served:
    """One daemon plus the client-side state of a served workload."""

    def __init__(self, m: Measure, workdir: str,
                 catalogues: dict[str, np.ndarray], serve_args: list[str],
                 *, keep_alive: bool, trace_dir: str | None):
        self.m = m
        self.name = next(iter(catalogues))   # the catalogue reads use
        self.keep_alive = keep_alive
        self.mirrors = {name: gen.Mirror(points)
                        for name, points in catalogues.items()}
        self.daemon = dmn.Daemon(workdir, serve_args,
                                 trace_dir=trace_dir,
                                 tag=f"daemon-{m.phase}")
        self.client: dmn.Client | None = None

    @property
    def mirror(self) -> gen.Mirror:
        return self.mirrors[self.name]

    # -- transport -----------------------------------------------------

    def call(self, method: str, path: str, body=None, *,
             fresh: bool = False):
        """One request: on the kept-alive connection, or with ``fresh``
        (or without keep-alive) on a connection of its own."""
        if self.keep_alive and not fresh:
            if self.client is None:
                self.client = dmn.Client(self.daemon.port)
            return self.client.request(method, path, body)
        client = dmn.Client(self.daemon.port)
        try:
            return client.request(method, path, body)
        finally:
            client.close()

    def probe(self, path: str):
        """A measurement probe on its own short-lived connection."""
        client = dmn.Client(self.daemon.port)
        try:
            return client.get(path)
        finally:
            client.close()

    # -- operations ----------------------------------------------------

    def read(self, payload: dict, seed: int, *, record: bool = True):
        t0 = time.perf_counter()
        status, body = self.call("POST", "/answer", {
            "catalogue": self.name, "question": payload, "seed": seed})
        wall = time.perf_counter() - t0
        m = self.m
        if status != 200:
            m.check("read", [f"HTTP {status}: {body}"])
            if record:
                m.op(False)
            return None
        item = body["item"]
        m.check(f"read {payload['algorithm']}", oracle.check_answer(
            self.mirror.points, payload, item,
            version=self.mirror.version))
        ok = item.get("error") is None
        if record:
            m.op(ok)
            m.add("questions", 1)
            m.add("read", wall)
            m.add("read_elapsed", float(item["elapsed"]))
            if ok:
                m.add("penalty", float(item["penalty"]))
        return item

    def batch(self, payloads: list[dict], seed: int):
        t0 = time.perf_counter()
        status, body = self.call("POST", "/batch", {
            "catalogue": self.name, "questions": payloads, "seed": seed})
        wall = time.perf_counter() - t0
        m = self.m
        if status != 200:
            m.check("batch", [f"HTTP {status}: {body}"])
            m.op(False)
            return None
        m.add("batch", wall)
        ok = True
        for payload, item in zip(payloads, body["items"]):
            m.check("batch item", oracle.check_answer(
                self.mirror.points, payload, item,
                version=self.mirror.version))
            ok = ok and item.get("error") is None
            m.add("questions", 1)
            if item.get("error") is None:
                m.add("penalty", float(item["penalty"]))
        m.op(ok and len(body["items"]) == len(payloads))
        return body["items"]

    def mutate(self, ids, rows, catalogue: str | None = None) -> int:
        name = catalogue or self.name
        mirror = self.mirrors[name]
        # Always on a connection of its own: on a kept-alive one the
        # daemon holds this small response back by 0-44 ms at random
        # (the keep-alive FOUND line in CHANGES.md), which would swamp
        # the commit it measures.
        t0 = time.perf_counter()
        status, body = self.call(
            "POST", f"/catalogues/{name}/products",
            {"op": "update", "ids": ids, "products": rows.tolist()},
            fresh=True)
        wall = time.perf_counter() - t0
        mirror.update(ids, rows)
        ok = (status == 200
              and body.get("catalogue_version") == mirror.version)
        self.m.op(ok)
        if not ok:
            self.m.check("mutation", [f"HTTP {status}: {body}"])
        self.m.add("mutation", wall)
        return mirror.version

    def wait_current(self, version: int,
                     catalogue: str | None = None) -> list[dict]:
        """Poll ``GET /watches`` until every watch on ``catalogue`` is
        current at ``version``."""
        name = catalogue or self.name
        t0 = time.perf_counter()
        deadline = t0 + 60.0
        while True:
            status, body = self.probe("/watches")
            listed = [w for w in body.get("watches", [])
                      if w["catalogue"] == name] if status == 200 else []
            if listed and all(w["checked_version"] >= version
                              for w in listed):
                break
            if time.perf_counter() > deadline:
                self.m.check("refresh", ["watches never caught up"])
                break
            time.sleep(0.001)
        self.m.add("refresh", time.perf_counter() - t0)
        self.m.op(bool(listed))
        return listed


class Watches:
    """Client-side view of the daemon's standing watches."""

    def __init__(self, served: Served, catalogue: str | None = None):
        self.served = served
        self.catalogue = catalogue or served.name
        self.mirror = served.mirrors[self.catalogue]
        self.items: dict[str, dict] = {}     # id -> state

    def create(self, payload: dict, seed: int) -> None:
        status, body = self.served.call("POST", "/watches", {
            "catalogue": self.catalogue, "question": payload,
            "seed": seed})
        if status != 201:
            raise RuntimeError(f"watch registration failed: {body}")
        event = body["event"]
        self.items[body["watch"]["id"]] = {
            "question": payload, "seed": seed, "seq": event["seq"],
            "answer": event["answer"]}

    def update(self, listed: list[dict]) -> None:
        """Pull the new events of every watch whose ``seq`` moved."""
        for entry in listed:
            state = self.items[entry["id"]]
            if entry["seq"] == state["seq"]:
                continue
            status, body = self.served.call(
                "GET", f"/watches/{entry['id']}/events"
                       f"?cursor={state['seq']}&timeout_ms=0")
            for event in body.get("events", []):
                if event["kind"] == "answer":
                    state["answer"] = event["answer"]
                state["seq"] = event["seq"]

    def check(self, fresh_for: str | None) -> None:
        """Independent checks on every standing answer, plus byte
        equality with a fresh ``/answer`` for ``fresh_for``."""
        served, m = self.served, self.served.m
        for watch_id, state in self.items.items():
            m.check("watch", oracle.check_answer(
                self.mirror.points, state["question"], state["answer"]))
            if watch_id == fresh_for:
                status, body = served.call("POST", "/answer", {
                    "catalogue": self.catalogue,
                    "question": state["question"],
                    "seed": state["seed"]})
                m.add("questions", 1)
                if status != 200 or not oracle.same_payload(
                        body["item"], state["answer"],
                        ignore=("elapsed", "catalogue_version")):
                    m.check("watch", ["standing answer differs from a "
                                      "fresh /answer"])


def _served(args, m: Measure, setup, begin, round_fn) -> None:
    """Phase loop shared by the served workloads.

    ``setup(workdir, trace_dir)`` returns a :class:`Served` whose daemon
    is not started yet; ``begin(served)`` returns the workload state
    once the daemon is up; ``round_fn(served, state)`` runs one whole
    round.  The daemon is stopped in a ``finally`` whatever happens.
    """
    workdir = _workdir()
    shm_before = dmn.shm_segments()
    try:
        for phase, seconds in _phases(args):
            m.phase = phase
            trace_dir = None
            if phase == "traced":
                trace_dir = os.path.join(workdir, "spans")
                os.makedirs(trace_dir, exist_ok=True)
            served = setup(workdir, trace_dir)
            try:
                served.daemon.start()
                state = begin(served)
                if m.setup_s is None:
                    m.setup_s = served.daemon.setup_s
                cpu0 = served.daemon.cpu_seconds()
                end = time.perf_counter() + seconds
                while _more(m, end):
                    round_fn(served, state)
                m.add("cpu_total", served.daemon.cpu_seconds() - cpu0)
                m.add("rss", served.daemon.peak_rss_mb())
                if phase == "traced":
                    status, body = served.probe("/stats")
                    m.extra["watches"] = body.get("watches", {})
            finally:
                if served.client is not None:
                    served.client.close()
                m.check("hygiene", served.daemon.stop())
            if trace_dir is not None:
                m.extra["spans"] = spans.merge(
                    _load_spans(trace_dir))
        leaked = dmn.shm_segments() - shm_before
        if leaked:
            m.check("hygiene", [f"/dev/shm segments left: "
                                f"{sorted(leaked)}"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


def _load_spans(trace_dir: str) -> list[dict]:
    out = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(trace_dir, name)) as fh:
                out.append(json.load(fh))
    return out


def _save_catalogue(workdir: str, points: np.ndarray,
                    name: str = "catalogue") -> str:
    """The catalogue archive the daemon loads (``--load``)."""
    from repro.data.io import save_dataset

    path = os.path.join(workdir, f"{name}.npz")
    if not os.path.exists(path):
        save_dataset(path, points, kind="perfbench")
    return path


def _good_products(maker: gen.QuestionMaker, points: np.ndarray, *,
                   count: int, rank: int, tail_lo: float) -> list[int]:
    """``count`` products near ``rank`` that lie below ``tail_lo`` in
    every coordinate, so long-tail moves cannot affect them."""
    out = []
    for _ in range(count * MAX_REDRAWS):
        if len(out) == count:
            return out
        pid, q, _ = maker.make(points, k=10, rank=rank, m=1)
        if q.max() < tail_lo:
            out.append(pid)
    raise RuntimeError(f"found {len(out)} of {count} products below "
                       f"{tail_lo} in {count * MAX_REDRAWS} draws")


# ---------------------------------------------------------------------
# serve-hot: one-process worker pool, hot products, keep-alive client
# ---------------------------------------------------------------------

HOT_N, HOT_D = 50_000, 3
HOT_TAIL = 0.5
HOT_PRODUCTS = 4
HOT_SUBROUNDS = 4
#: Long-tail mutations of the side catalogue (each followed by the
#: refresh wait) per round.
HOT_MUTATIONS = 4
HOT_OPTIONS = {"mqp": {}, "mwk": {"sample_size": 50},
               "mqwk": {"sample_size": 50, "q_sample_size": 4}}


def serve_hot(args, m: Measure) -> None:
    """Reads go to ``hot``; mutations and the standing watch live on a
    second catalogue, ``side``, of the same shape.  A publish re-attaches
    only the mutated catalogue in the worker, so the hot caches stay
    warm while every end-to-end metric is still measured."""
    from repro import Catalogue, Question, Session

    points = gen.independent(_rng(CATALOGUE_SEED, 1), HOT_N, HOT_D)
    side_points = gen.independent(_rng(CATALOGUE_SEED, 5), HOT_N, HOT_D)

    def setup(workdir, trace_dir):
        path = _save_catalogue(workdir, points, "hot")
        side_path = _save_catalogue(workdir, side_points, "side")
        return Served(m, workdir, {"hot": points, "side": side_points}, [
            "--port", "0", "--load", f"hot={path}",
            "--load", f"side={side_path}", "--workers", "1",
            "--shards", "1", "--job-workers", "1"],
            keep_alive=True, trace_dir=trace_dir)

    def begin(served):
        side = Catalogue(side_points)
        sessions = {"hot": Session(points),
                    "side": Session(catalogue=side)}
        qrng = _rng(args.seed, 2)
        maker = gen.QuestionMaker(qrng, distinct=False)
        fixed = gen.QuestionMaker(_rng(CATALOGUE_SEED, 4))
        hot = _good_products(fixed, points, count=HOT_PRODUCTS, rank=501,
                             tail_lo=HOT_TAIL)
        watched = _good_products(fixed, side_points, count=1, rank=101,
                                 tail_lo=HOT_TAIL)[0]
        watches = Watches(served, "side")

        def draw():
            _, q, wm = maker.make(side_points, k=10, rank=0, m=2,
                                  product=watched)
            return q, 10, wm

        q, _, wm = _screened(served.m, side_points, draw, "mqp")
        watches.create(gen.question_payload(q, 10, wm, "mqp"), seed=1)
        state = {
            "qrng": qrng, "maker": maker, "hot": hot, "side": side,
            "sessions": sessions, "watches": watches, "reads": 0,
            "asked": 0, "batches": 0,
            "Question": Question,
            "mutate": gen.MutationMaker(_rng(args.seed, 3),
                                        served.mirrors["side"],
                                        tail_lo=HOT_TAIL),
        }
        for pid in hot:   # warm-up, discarded
            for algorithm in ("mqp", "mwk", "mqwk"):
                payload, seed = _hot_question(state, served, pid,
                                              algorithm)
                served.read(payload, seed, record=False)
        return state

    _served(args, m, setup, begin, _hot_round)


def _hot_question(state, served, pid: int, algorithm: str):
    qrng, points = state["qrng"], served.mirror.points

    k, size = cycled(state["asked"], gen.TABLE1_KS, (1, 2, 3))
    state["asked"] += 1

    def draw():
        _, q, wm = state["maker"].make(points, k=k, rank=0, m=size,
                                       product=pid)
        return q, k, wm

    q, k, wm = _screened(served.m, points, draw, algorithm)
    options = HOT_OPTIONS[algorithm]
    return (gen.question_payload(q, k, wm, algorithm, options=options),
            int(qrng.integers(1 << 30)))


def _hot_round(served: Served, state) -> None:
    Question, sessions = state["Question"], state["sessions"]
    for _ in range(HOT_SUBROUNDS):
        for pid in state["hot"]:
            for algorithm in ("mqp", "mqp", "mqp", "mwk"):
                payload, seed = _hot_question(state, served, pid,
                                              algorithm)
                item = served.read(payload, seed)
                state["reads"] += 1
                if item is not None and state["reads"] % 4 == 0:
                    local = sessions["hot"].ask(
                        Question.from_dict(payload), seed=seed).to_dict()
                    if not oracle.same_payload(item, local):
                        served.m.check("wire", [
                            "wire payload differs from the in-process "
                            "Session payload"])
        payloads = []
        for pid in state["hot"]:
            for algorithm in ("mqp", "mwk"):
                payloads.append(_hot_question(state, served, pid,
                                              algorithm)[0])
        # One MQWK on a hot product: its [0, q] box is cached already.
        pid = state["hot"][state["batches"] % len(state["hot"])]
        state["batches"] += 1
        payloads.append(_hot_question(state, served, pid, "mqwk")[0])
        served.batch(payloads, int(state["qrng"].integers(1 << 30)))
    watches = state["watches"]
    for _ in range(HOT_MUTATIONS):
        ids, rows = state["mutate"].draw(competitive=False)
        version = served.mutate(ids, rows, "side")
        state["side"].apply("update", ids=ids, products=rows.tolist())
        watches.update(served.wait_current(version, "side"))
        watches.check(fresh_for=None)
        for entry in watches.items.values():
            local = sessions["side"].ask(
                Question.from_dict(entry["question"]),
                seed=entry["seed"]).to_dict()
            if not oracle.same_payload(
                    entry["answer"], local,
                    ignore=("elapsed", "catalogue_version")):
                served.m.check("watch", ["standing answer differs from "
                                         "the in-process Session"])


# ---------------------------------------------------------------------
# serve-churn: thread tier, standing watches, mutations beside reads
# ---------------------------------------------------------------------

CHURN_N, CHURN_D = 50_000, 3
CHURN_TAIL = 0.45
CHURN_WATCHES = 8
#: Partition and box-cache cap.  Every read is about a new product, so
#: with the default cap the caches (and peak RSS) grow with the reads a
#: run manages; at 64 they fill within the first rounds, while the
#: watches' entries (touched every 4 steps, 28 reads apart) stay.
CHURN_CACHE = 64
#: Per round: three long-tail mutations and one competitive one.
CHURN_MUTATIONS = (False, False, False, True)
CHURN_READS = (("mqp", {}), ("mqp", {}), ("mwk", {"sample_size": 100}))
#: One ``POST /batch`` after each step's reads.
CHURN_BATCH = CHURN_READS + (("mqp", {}),)


def serve_churn(args, m: Measure) -> None:
    points = gen.independent(_rng(CATALOGUE_SEED, 1), CHURN_N, CHURN_D)

    def setup(workdir, trace_dir):
        path = _save_catalogue(workdir, points)
        return Served(m, workdir, {"churn": points}, [
            "--port", "0", "--load", f"churn={path}",
            "--job-workers", "2", "--max-partitions", str(CHURN_CACHE),
            "--max-box-caches", str(CHURN_CACHE)],
            keep_alive=False, trace_dir=trace_dir)

    def begin(served):
        qrng = _rng(args.seed, 2)
        maker = gen.QuestionMaker(qrng)
        watched = _good_products(maker, points, count=CHURN_WATCHES,
                                 rank=101, tail_lo=CHURN_TAIL)
        watches = Watches(served)
        fixed = gen.QuestionMaker(qrng, distinct=False)
        for i, pid in enumerate(watched):
            algorithm, options = (("mqp", {}) if i % 2 == 0 else
                                  ("mwk", {"sample_size": 100}))

            def draw():
                k = gen.TABLE1_KS[i % 3]
                _, q, wm = fixed.make(points, k=k, rank=0, m=1 + i % 2,
                                      product=pid)
                return q, k, wm

            q, k, wm = _screened(served.m, points, draw, algorithm)
            watches.create(gen.question_payload(q, k, wm, algorithm,
                                                options=options),
                           seed=int(qrng.integers(1 << 30)))
        state = {
            "qrng": qrng, "maker": maker, "watches": watches,
            "rotation": 0, "asked": 0,
            "mutate": gen.MutationMaker(_rng(args.seed, 3),
                                        served.mirror,
                                        tail_lo=CHURN_TAIL),
        }
        for algorithm, options in CHURN_READS:   # warm-up, discarded
            served.read(*_churn_question(state, served, algorithm,
                                         options), record=False)
        return state

    _served(args, m, setup, begin, _churn_round)


def _churn_question(state, served, algorithm, options):
    qrng, points = state["qrng"], served.mirror.points

    k, rank, size = cycled(state["asked"], gen.TABLE1_KS,
                           gen.TABLE1_RANKS, gen.TABLE1_WM[:3])
    k = min(k, rank - 1)
    state["asked"] += 1

    def draw():
        _, q, wm = state["maker"].make(points, k=k, rank=rank, m=size)
        return q, k, wm

    q, k, wm = _screened(served.m, points, draw, algorithm)
    return (gen.question_payload(q, k, wm, algorithm, options=options),
            int(qrng.integers(1 << 30)))


def _watches_stall(served: Served, watches, ids, rows) -> bool:
    """A competitive move changes top-k boundaries, so the MQP watches
    are re-answered on new data: whether the MQP program of any of them
    stalls there (see :func:`qp_stalls`)."""
    points = served.mirror.points.copy()
    points[ids] = rows
    return any(
        question["algorithm"] == "mqp" and qp_stalls(
            points, question["q"], np.array(question["why_not"]),
            question["k"])
        for question in (state["question"]
                         for state in watches.items.values()))


def _churn_round(served: Served, state) -> None:
    watches = state["watches"]
    ids_order = list(watches.items)
    for competitive in CHURN_MUTATIONS:
        for _ in range(MAX_REDRAWS):
            ids, rows = state["mutate"].draw(competitive)
            if not competitive or not _watches_stall(served, watches,
                                                     ids, rows):
                break
        else:
            served.m.check("inputs", [f"every one of {MAX_REDRAWS} "
                                      f"competitive moves stalls a watch"])
        version = served.mutate(ids, rows)
        listed = served.wait_current(version)
        watches.update(listed)
        fresh = ids_order[state["rotation"] % len(ids_order)]
        state["rotation"] += 1
        watches.check(fresh_for=fresh)
        for algorithm, options in CHURN_READS:
            served.read(*_churn_question(state, served, algorithm,
                                         options))
        payloads = [_churn_question(state, served, algorithm, options)[0]
                    for algorithm, options in CHURN_BATCH]
        served.batch(payloads, int(state["qrng"].integers(1 << 30)))


WORKLOADS = {
    "paper-mix": paper_mix,
    "serve-hot": serve_hot,
    "serve-churn": serve_churn,
}
