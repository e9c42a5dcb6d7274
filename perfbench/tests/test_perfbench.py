"""Fast tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

They check the independent answer checker against the paper's worked
example and against deliberately corrupted answers, and run every
workload end to end at smoke size (small catalogues, sub-second
phases), traced and untraced.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_paper_example_penalty():
    # Gao et al., Section 4.2: q(4, 4) -> q'(3, 2.5) costs 0.318.
    assert round(oracle.penalty_q([4, 4], [3, 2.5]), 3) == 0.319
    assert abs(oracle.penalty_q([4, 4], [3, 2.5]) - 0.318) < 1e-3


def test_mqp_projection_is_the_closest_safe_point():
    q, w = np.array([4.0, 4.0]), np.array([0.5, 0.5])
    x = oracle.mqp_projection(q, w, 3.0)
    assert np.allclose(x, [3.0, 3.0])
    # An active lower bound: the projection clips to the box.
    x = oracle.mqp_projection(np.array([4.0, 0.5]), np.array([0.2, 0.8]),
                              0.2)
    assert x[1] == 0.0 and abs(0.2 * x[0] - 0.2) < 1e-9


@pytest.fixture(scope="module")
def answered():
    from repro import Question, Session

    rng = np.random.default_rng([7, 1])
    points = gen.independent(rng, 3000, 3)
    session = Session(points)
    maker = gen.QuestionMaker(np.random.default_rng([7, 2]))
    out = {}
    for algorithm, options in (("mqp", {}), ("mwk", {"sample_size": 50}),
                               ("mqwk", {"sample_size": 30,
                                         "q_sample_size": 4})):
        _, q, wm = maker.make(points, k=10, rank=101, m=1)
        payload = gen.question_payload(q, 10, wm, algorithm,
                                       options=options)
        answer = session.ask(Question.from_dict(payload), seed=3)
        out[algorithm] = (payload, answer.to_dict())
    return points, out


def test_checker_accepts_the_program_answers(answered):
    points, out = answered
    for payload, item in out.values():
        assert oracle.check_answer(points, payload, item, version=0) == []


def _corrupt(item, **result):
    bad = json.loads(json.dumps(item))
    bad["result"].update(result)
    return bad


def test_checker_rejects_q_pushed_out_of_the_safe_region(answered):
    points, out = answered
    payload, item = out["mqp"]
    q = np.array(payload["q"])
    q2 = np.array(item["result"]["q_refined"])
    outside = (q2 + 0.5 * (q - q2)).tolist()
    bad = _corrupt(item, q_refined=outside)
    bad["penalty"] = oracle.penalty_q(q, outside)
    problems = oracle.check_answer(points, payload, bad)
    assert any("beyond k" in p for p in problems)


def test_checker_rejects_an_altered_penalty(answered):
    points, out = answered
    for payload, item in out.values():
        bad = dict(item, penalty=item["penalty"] + 0.01)
        assert any("re-priced" in p
                   for p in oracle.check_answer(points, payload, bad))


def test_checker_rejects_a_lowered_k(answered):
    points, out = answered
    payload, item = out["mwk"]
    k2 = int(item["result"]["k_refined"])
    bad = _corrupt(item, k_refined=max(1, min(k2, payload["k"]) - 1))
    problems = oracle.check_answer(points, payload, bad)
    assert problems


def test_checker_rejects_a_stale_catalogue_version(answered):
    points, out = answered
    payload, item = out["mqp"]
    problems = oracle.check_answer(points, payload, item, version=1)
    assert any("stamped version" in p for p in problems)


def test_mqwk_bound_check(answered):
    points, out = answered
    payload, item = out["mqwk"]
    mqp = dict(out["mqp"][1], penalty=0.0)
    assert oracle.check_mqwk_bounds(points, payload, item, mqp,
                                    out["mwk"][1])


def test_mqwk_is_priced_by_eq5_with_the_endpoint_deviation_counted(
        answered):
    points, out = answered
    payload, item = out["mqwk"]
    k_max = int(oracle.ranks(points, payload["why_not"],
                             payload["q"]).max())
    price = oracle.expected_penalty(payload, item["result"], k_max)
    assert price == oracle.joint_price(points, payload, item)
    # An answer priced by Eq. 5 passes without a deviation.
    oracle.DEVIATIONS.clear()
    fair = dict(item, penalty=price)
    assert oracle.check_answer(points, payload, fair) == []
    assert not oracle.DEVIATIONS
    # An endpoint priced without its gamma/lambda weight is the known
    # deviation: tolerated, and counted.
    q = np.array(payload["q"])
    endpoint = _corrupt(item, weights_refined=payload["why_not"],
                        k_refined=payload["k"])
    endpoint["penalty"] = oracle.penalty_q(q, endpoint["result"][
        "q_refined"])
    assert oracle.endpoint_deviation(payload, endpoint["result"],
                                     endpoint["penalty"], k_max)
    assert not oracle.endpoint_deviation(payload, item["result"],
                                         item["penalty"] + 0.01, k_max)


def test_screen_replays_the_program_solver():
    from repro.qp.problems import closest_point_in_halfspaces

    rng = np.random.default_rng([0, 1])
    gen.independent(rng, workloads.PAPER_N, workloads.PAPER_D)
    anti = gen.anticorrelated(rng, workloads.PAPER_N, workloads.PAPER_D)
    stalled = workloads.STALLED_MQP
    cases = [(anti[stalled["product"]], np.array(stalled["why_not"]),
              stalled["k"])]
    maker = gen.QuestionMaker(np.random.default_rng([7, 3]))
    for size in (1, 2, 3, 4, 5):
        _, q, wm = maker.make(anti, k=20, rank=501, m=size)
        cases.append((q, wm, 20))
    verdicts = []
    for q, wm, k in cases:
        scores = [oracle.kth_score(anti, w, k) for w in wm]
        result = closest_point_in_halfspaces(
            q, wm, scores, lower=np.zeros(len(q)), upper=q)
        verdicts.append(workloads.qp_stalls(anti, q, wm, k))
        assert verdicts[-1] == (not result.ok)
    assert verdicts[0]


def test_same_payload_ignores_only_elapsed():
    a = {"elapsed": 1.0, "penalty": 0.5}
    assert oracle.same_payload(a, dict(a, elapsed=2.0))
    assert not oracle.same_payload(a, dict(a, penalty=0.6))


@pytest.fixture
def smoke(monkeypatch):
    for name in ("PAPER_N", "HOT_N", "CHURN_N"):
        monkeypatch.setattr(workloads, name, 4000)
    monkeypatch.setattr(workloads, "HOT_SUBROUNDS", 1)
    # The stalled question is a product of the full-size catalogue.
    monkeypatch.setattr(workloads, "STALLED_MQP", None)
    monkeypatch.setattr(workloads, "MIN_READS", 0)
    monkeypatch.setattr(workloads, "PAPER_TEMPLATES",
                        workloads.PAPER_TEMPLATES[2:])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_smoke(smoke, workload, trace):
    args = types.SimpleNamespace(seed=5, seconds=0.2, trace=trace)
    m = workloads.Measure(0.0)
    workloads.WORKLOADS[workload](args, m)
    assert m.problems == []
    assert m.failed == 0 and m.attempted > 0
    metrics = layers.per_layer(m) if trace else run.end_to_end(m)
    expected = layers.PER_LAYER if trace else run.END_TO_END
    assert list(metrics) == [name for name, _ in expected]
    if not trace:
        assert all(v["value"] > 0 for v in metrics.values())
    assert not os.path.exists(os.path.join(ROOT, ".perfbench_tmp"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
