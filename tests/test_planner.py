"""Planner: analytic cost model, calibration, plans and EXPLAIN.

The properties pinned here are the ones the admission controller
relies on: estimates are *monotone* in catalogue size and ``k`` (so
ordering decisions are stable before calibration), the calibrated
coefficient *converges* onto real executor timings (so deadline
admission is trustworthy), and the deterministic planner modules
never read a clock (enforced separately by reprolint DET-CLOCK —
timings only flow in through the observer seam).
"""

from __future__ import annotations

import json
import pickle
import time

import numpy as np
import pytest

from repro.core.protocol import (
    Budget,
    CostEstimate,
    Plan,
    Question,
)
from repro.core.registry import algorithm_names
from repro.core.session import Session
from repro.data import independent, preference_set, query_point_with_rank
from repro.planner import (
    CALIBRATION_MIN_OBSERVATIONS,
    CostModel,
    build_plan,
    chunk_schedule,
    render_plan,
    work_units,
)
from repro.planner.model import sample_target

ALGORITHMS = list(algorithm_names())

N = 400
D = 3
K = 10


@pytest.fixture(scope="module")
def points():
    return independent(N, D, seed=23)


def make_typed(points, j, *, rank=41, algorithm="mqp", options=None,
               budget=None):
    w = preference_set(1, D, seed=8100 + j)
    q = query_point_with_rank(points, w[0], rank)
    return Question(q=q, k=K, why_not=w, algorithm=algorithm,
                    options=options or {}, budget=budget)


class TestWorkUnits:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_monotone_in_n(self, algorithm):
        units = [work_units(algorithm, n=n, d=3, k=10, m=1,
                            samples=200)
                 for n in (100, 1_000, 10_000, 100_000)]
        assert units == sorted(units)
        assert units[0] < units[-1]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_monotone_in_k(self, algorithm):
        units = [work_units(algorithm, n=5_000, d=3, k=k, m=1,
                            samples=200)
                 for k in (1, 5, 20, 100)]
        assert units == sorted(units)
        assert units[0] < units[-1]

    def test_mqwk_sample_is_an_inner_mwk(self):
        cheap = work_units("mqwk", n=5_000, d=3, k=10, m=1,
                           samples=4, options={"sample_size": 100})
        rich = work_units("mqwk", n=5_000, d=3, k=10, m=1,
                          samples=4, options={"sample_size": 800})
        assert rich > cheap


class TestSampleTarget:
    def test_defaults_mirror_the_steppers(self):
        assert sample_target("mqp") == 1
        assert sample_target("mwk") == 800
        assert sample_target("mqwk") == 800

    def test_options_override(self):
        assert sample_target("mwk",
                             options={"sample_size": 300}) == 300
        assert sample_target(
            "mqwk", options={"q_sample_size": 64,
                             "sample_size": 500}) == 64

    def test_sample_budget_caps(self):
        budget = Budget(sample_budget=50)
        assert sample_target("mwk", budget=budget) == 50
        assert sample_target("mqp", budget=budget) == 1


class TestChunkSchedule:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_unbudgeted_is_one_chunk(self, algorithm):
        assert chunk_schedule(algorithm, samples=800) == (800,)

    def test_schedule_sums_to_samples(self):
        for budget in (Budget(sample_budget=500),
                       Budget(deadline_ms=50.0),
                       Budget(deadline_ms=50.0, sample_budget=500)):
            for algorithm in ALGORITHMS:
                schedule = chunk_schedule(algorithm, samples=777,
                                          budget=budget)
                assert sum(schedule) == 777
                assert all(c > 0 for c in schedule)

    def test_deadline_probes_min_chunk_first(self):
        schedule = chunk_schedule("mwk", samples=800,
                                  budget=Budget(deadline_ms=50.0))
        assert schedule[0] == 64          # the probe
        assert set(schedule[1:-1]) <= {256}


class TestEstimateMonotonicity:
    """Satellite: latency non-decreasing in n and in k, per
    algorithm — before *and* after calibration, with and without a
    deadline truncating the estimate."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("calibrate", [False, True])
    def test_latency_monotone_in_n(self, algorithm, calibrate):
        model = CostModel()
        if calibrate:
            for _ in range(CALIBRATION_MIN_OBSERVATIONS):
                model.observe(algorithm=algorithm, n=1_000, d=3,
                              k=10, m=1, samples=200, elapsed=0.01)
        latencies = [
            model.estimate(algorithm=algorithm, n=n, d=3, k=10,
                           m=1).est_latency_ms
            for n in (100, 1_000, 10_000, 100_000)]
        assert latencies == sorted(latencies)
        assert latencies[0] < latencies[-1]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("calibrate", [False, True])
    def test_latency_monotone_in_k(self, algorithm, calibrate):
        model = CostModel()
        if calibrate:
            for _ in range(CALIBRATION_MIN_OBSERVATIONS):
                model.observe(algorithm=algorithm, n=5_000, d=3,
                              k=10, m=1, samples=200, elapsed=0.01)
        latencies = [
            model.estimate(algorithm=algorithm, n=5_000, d=3, k=k,
                           m=1).est_latency_ms
            for k in (1, 5, 20, 100)]
        assert latencies == sorted(latencies)
        assert latencies[0] < latencies[-1]

    def test_deadline_truncation_stays_monotone(self):
        model = CostModel()
        for _ in range(CALIBRATION_MIN_OBSERVATIONS):
            model.observe(algorithm="mwk", n=10_000, d=3, k=10, m=1,
                          samples=800, elapsed=0.1)
        budget = Budget(deadline_ms=20.0)
        latencies = [
            model.estimate(algorithm="mwk", n=n, d=3, k=10, m=1,
                           budget=budget).est_latency_ms
            for n in (100, 1_000, 10_000, 100_000, 1_000_000)]
        assert latencies == sorted(latencies)

    def test_deadline_never_raises_the_estimate(self):
        model = CostModel()
        for _ in range(CALIBRATION_MIN_OBSERVATIONS):
            model.observe(algorithm="mwk", n=10_000, d=3, k=10, m=1,
                          samples=800, elapsed=0.1)
        free = model.estimate(algorithm="mwk", n=10_000, d=3, k=10,
                              m=1)
        tight = model.estimate(algorithm="mwk", n=10_000, d=3, k=10,
                               m=1, budget=Budget(deadline_ms=5.0))
        assert tight.est_latency_ms <= free.est_latency_ms
        assert tight.est_samples <= free.est_samples


class TestCalibration:
    def test_uncalibrated_until_min_observations(self):
        model = CostModel()
        for i in range(CALIBRATION_MIN_OBSERVATIONS):
            estimate = model.estimate(algorithm="mwk", n=1_000, d=3,
                                      k=10, m=1)
            assert estimate.calibrated is (
                i >= CALIBRATION_MIN_OBSERVATIONS)
            model.observe(algorithm="mwk", n=1_000, d=3, k=10, m=1,
                          samples=800, elapsed=0.02)
        assert model.estimate(algorithm="mwk", n=1_000, d=3, k=10,
                              m=1).calibrated

    def test_converges_onto_a_synthetic_cost(self):
        """Feed timings that *are* ``coeff * work_units`` and check
        the estimate lands on them exactly (EWMA of a constant)."""
        model = CostModel()
        coeff = 3e-7
        for _ in range(20):
            units = work_units("mwk", n=2_000, d=3, k=10, m=1,
                               samples=800)
            model.observe(algorithm="mwk", n=2_000, d=3, k=10, m=1,
                          samples=800, elapsed=coeff * units)
        estimate = model.estimate(algorithm="mwk", n=2_000, d=3,
                                  k=10, m=1)
        units = work_units("mwk", n=2_000, d=3, k=10, m=1,
                           samples=800)
        assert estimate.est_latency_ms == pytest.approx(
            coeff * units * 1000.0, rel=1e-9)

    def test_converges_within_2x_of_real_executions(self, points):
        """Satellite: after 20 real executions the estimate is
        within 2x of the observed median latency."""
        session = Session(points)
        question = make_typed(points, 0, algorithm="mqp")
        elapsed = []
        for i in range(20):
            answer = session.ask(question, seed=i)
            assert answer.ok
            elapsed.append(answer.elapsed)
        estimate = session.cost_model.estimate(
            algorithm="mqp", n=session.context.n,
            d=session.context.dim, k=question.k,
            m=question.n_why_not, options=question.options)
        assert estimate.calibrated
        observed_ms = float(np.median(elapsed)) * 1000.0
        assert observed_ms / 2 <= estimate.est_latency_ms \
            <= observed_ms * 2

    def test_zero_elapsed_is_ignored(self):
        model = CostModel()
        model.observe(algorithm="mwk", n=1_000, d=3, k=10, m=1,
                      samples=800, elapsed=0.0)
        model.observe(algorithm="mwk", n=1_000, d=3, k=10, m=1,
                      samples=800, elapsed=float("nan"))
        assert model.observations("mwk") == 0

    def test_catalogue_coefficient_beats_global(self):
        model = CostModel()
        for _ in range(5):
            model.observe(algorithm="mwk", n=1_000, d=3, k=10, m=1,
                          samples=800, elapsed=0.01,
                          catalogue="slow")
        fast_units_est = model.estimate(
            algorithm="mwk", n=1_000, d=3, k=10, m=1,
            catalogue="other")
        slow_est = model.estimate(algorithm="mwk", n=1_000, d=3,
                                  k=10, m=1, catalogue="slow")
        # Both fall back to *some* observed coefficient; the unknown
        # catalogue rides the global aggregate.
        assert fast_units_est.observations > 0
        assert slow_est.observations == 5

    def test_state_round_trips_through_disk(self, tmp_path):
        model = CostModel()
        for _ in range(4):
            model.observe(algorithm="mqp", n=1_000, d=3, k=10, m=1,
                          samples=1, elapsed=0.005, catalogue="demo")
        path = tmp_path / "calibration.json"
        model.save(path)
        reloaded = CostModel.load(path)
        before = model.estimate(algorithm="mqp", n=1_000, d=3, k=10,
                                m=1, catalogue="demo")
        after = reloaded.estimate(algorithm="mqp", n=1_000, d=3,
                                  k=10, m=1, catalogue="demo")
        assert after.to_dict() == before.to_dict()
        assert json.loads(path.read_text())["version"] == 1

    def test_describe_is_json_safe(self):
        model = CostModel()
        model.observe(algorithm="mqp", n=100, d=2, k=5, m=1,
                      samples=1, elapsed=0.001, catalogue="demo")
        json.dumps(model.describe())


class TestPlan:
    def test_session_path_by_default(self, points):
        plan = build_plan(make_typed(points, 1), n=N, d=D,
                          model=CostModel())
        assert plan.path == "session"
        assert plan.workers == 0 and plan.shards == 1
        assert isinstance(plan.cost, CostEstimate)
        assert sum(plan.chunk_schedule) == plan.cost.est_samples

    def test_pooled_chooses_worker_or_scatter_gather(self, points):
        model = CostModel()
        sharded = build_plan(make_typed(points, 2, algorithm="mwk"),
                             n=N, d=D, model=model, workers=4,
                             shards=4, pooled=True)
        assert sharded.path == "scatter-gather"
        assert sharded.shards == 4
        # Either k-th-point path shards: BRS and the scan give the
        # shard merge's bits (the pooled identity tests check the
        # answers byte for byte).
        for use_rtree in (False, True):
            plan = build_plan(
                make_typed(points, 3, algorithm="mqp",
                           options={"use_rtree": use_rtree}),
                n=N, d=D, model=model, workers=4, shards=4,
                pooled=True)
            assert plan.path == "scatter-gather"
            assert plan.shards == 4
        unsharded = build_plan(make_typed(points, 3, algorithm="mwk"),
                               n=N, d=D, model=model, workers=4,
                               shards=1, pooled=True)
        assert unsharded.path == "worker"

    def test_plan_round_trips_and_pickles(self, points):
        plan = build_plan(
            make_typed(points, 4, algorithm="mwk",
                       budget=Budget(deadline_ms=40.0)),
            n=N, d=D, model=CostModel(), catalogue="demo",
            catalogue_version=3)
        again = Plan.from_dict(plan.to_dict())
        assert again.to_dict() == plan.to_dict()
        assert pickle.loads(pickle.dumps(plan)).to_dict() \
            == plan.to_dict()

    def test_render_mentions_the_load_bearing_facts(self, points):
        question = make_typed(points, 5, algorithm="mwk",
                              budget=Budget(deadline_ms=40.0))
        plan = build_plan(question, n=N, d=D, model=CostModel(),
                          catalogue="demo", catalogue_version=2)
        text = render_plan(plan, budget=question.budget)
        assert "PLAN-ROOT SINK" in text
        assert "01:REFINE [MWK, deadline=40ms]" in text
        assert "00:SCAN [in-process session]" in text
        assert "analytic prior" in text
        assert "'demo' v2" in text
        assert "chunk schedule:" in text

    def test_render_shows_calibration_state(self, points):
        model = CostModel()
        for _ in range(CALIBRATION_MIN_OBSERVATIONS):
            model.observe(algorithm="mqp", n=N, d=D, k=K, m=1,
                          samples=1, elapsed=0.004)
        text = render_plan(build_plan(make_typed(points, 6), n=N,
                                      d=D, model=model))
        assert "calibrated (3 observation(s))" in text


class TestSessionIntegration:
    def test_ask_feeds_the_cost_model(self, points):
        session = Session(points)
        assert session.cost_model.observations("mqp") == 0
        answer = session.ask(make_typed(points, 7), seed=1)
        assert answer.ok
        assert session.cost_model.observations("mqp") == 1

    def test_ask_batch_feeds_the_cost_model(self, points):
        session = Session(points)
        questions = [make_typed(points, 8 + j) for j in range(3)]
        answers = session.ask_batch(questions, seed=2)
        assert all(a.ok for a in answers)
        assert session.cost_model.observations("mqp") == 3

    def test_explain_plan_does_not_execute(self, points):
        session = Session(points)
        plan = session.explain_plan(make_typed(points, 11))
        assert plan.path == "session"
        assert plan.catalogue_version == session.catalogue_version
        assert session.cost_model.observations("mqp") == 0

    def test_explained_latency_within_2x_after_warmup(self, points):
        """Acceptance: the EXPLAIN estimate is within 2x of a
        subsequently measured execution."""
        session = Session(points)
        question = make_typed(points, 12, algorithm="mqp")
        for i in range(10):
            session.ask(question, seed=20 + i)
        plan = session.explain_plan(question)
        assert plan.cost.calibrated
        start = time.perf_counter()
        session.ask(question, seed=99)
        measured_ms = (time.perf_counter() - start) * 1000.0
        assert measured_ms / 2 <= plan.cost.est_latency_ms \
            <= measured_ms * 2
