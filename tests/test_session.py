"""The Session facade: one front door over interactive/batch/serving.

Asserts the tentpole acceptance criteria at the library level:
``Session.ask``/``ask_batch`` answer identically to the deprecated
``WQRTQ``/``WhyNotBatch``/triple paths (which must still work, while
warning), dispatch goes through the algorithm registry only, and the
CLI's ``--json`` output is byte-identical to ``Answer.to_dict()``.
Everything except the explicitly-marked shim tests runs clean under
``-W error::DeprecationWarning``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.protocol import Question
from repro.core.session import Session
from repro.data import independent, preference_set, query_point_with_rank
from repro.engine.context import DatasetContext

D = 3
K = 10
RANK = 41


@pytest.fixture(scope="module")
def points():
    return independent(500, D, seed=33)


def probe(points, j, *, rank=RANK):
    w = preference_set(1, D, seed=9100 + j)
    q = query_point_with_rank(points, w[0], rank)
    return q, w


def typed(points, j, *, rank=RANK, algorithm="mqp", options=None):
    q, w = probe(points, j, rank=rank)
    return Question(q=q, k=K, why_not=w, algorithm=algorithm,
                    options=options or {})


def payloads(answers):
    return [{key: value for key, value in a.to_dict().items()
             if key != "elapsed"} for a in answers]


class TestConstruction:
    def test_points_or_context_exclusively(self, points):
        with pytest.raises(ValueError,
                           match="points, a context or a catalogue"):
            Session()
        with pytest.raises(ValueError, match="exactly one"):
            Session(points, context=DatasetContext(points))

    def test_warm_builds_tree_once(self, points):
        # Construction builds no index; the first tree traversal
        # (explain) builds it once, later ones reuse it.
        session = Session(points)
        assert session.context.stats.tree_builds == 0
        session.tree
        session.tree
        assert session.context.stats.tree_builds == 1

    def test_shared_context_is_adopted(self, points):
        context = DatasetContext(points)
        session = Session(context=context)
        assert session.context is context
        assert session.points is context.points

    def test_algorithms_enumerates_registry(self, points):
        from repro.core.registry import algorithm_names

        assert Session(points).algorithms() == algorithm_names()


class TestAsk:
    def test_ask_answers_and_audits(self, points):
        session = Session(points)
        answer = session.ask(typed(points, 0))
        assert answer.ok and answer.valid
        assert answer.index == 0 and answer.algorithm == "mqp"
        assert 0.0 <= answer.penalty <= 1.0
        assert answer.elapsed > 0.0

    def test_catalogue_dependent_failure_is_answer_not_raise(
            self, points):
        session = Session(points)
        answer = session.ask(typed(points, 1, rank=3))  # not missing
        assert not answer.ok
        assert answer.error.type == "ValueError"
        assert "already has q" in answer.error.message
        assert np.isnan(answer.penalty)

    def test_k_larger_than_catalogue_is_answer_error(self, points):
        session = Session(points)
        q, w = probe(points, 2)
        answer = session.ask(Question(q=q, k=len(points) + 1,
                                      why_not=w))
        assert not answer.ok
        assert "out of range" in answer.error.message

    def test_seed_determinism(self, points):
        session = Session(points)
        question = typed(points, 3, algorithm="mwk",
                         options={"sample_size": 40})
        a = session.ask(question, seed=5)
        b = session.ask(question, seed=5)
        c = session.ask(question, seed=6)
        assert payloads([a]) == payloads([b])
        assert a.result.k_refined == b.result.k_refined
        assert c.ok    # different seed still answers

    def test_question_helper_builds_typed_question(self, points):
        session = Session(points)
        q, w = probe(points, 4)
        question = session.question(q, K, w, algorithm="mwk",
                                    options={"sample_size": 30},
                                    id="x1")
        assert isinstance(question, Question)
        assert question.id == "x1" and question.algorithm == "mwk"


class TestAskBatch:
    def test_serial_equals_parallel(self, points):
        session = Session(points)
        questions = [typed(points, 10 + j, algorithm="mwk",
                           options={"sample_size": 40})
                     for j in range(8)]
        serial = session.ask_batch(questions, seed=3, workers=1)
        threaded = session.ask_batch(questions, seed=3, workers=4)
        assert payloads(serial) == payloads(threaded)
        assert [a.index for a in serial] == list(range(8))

    def test_mixed_algorithms_in_one_batch(self, points):
        """Each Question carries its own algorithm — the registry
        dispatches per item, something the deprecated single-
        algorithm batch path could not express."""
        session = Session(points)
        questions = [
            typed(points, 20, algorithm="mqp"),
            typed(points, 21, algorithm="mwk",
                  options={"sample_size": 30}),
            typed(points, 22, algorithm="mqwk",
                  options={"sample_size": 20}),
        ]
        answers = session.ask_batch(questions, seed=2)
        assert [a.algorithm for a in answers] == ["mqp", "mwk",
                                                  "mqwk"]
        assert all(a.ok for a in answers)
        kinds = [a.to_dict()["result"]["kind"] for a in answers]
        assert kinds == ["mqp", "mwk", "mqwk"]

    def test_algorithm_unregistered_mid_batch_fails_item_only(
            self, points):
        """A registry lookup failure is captured per item (like any
        other per-question error), never aborting the batch."""
        from repro.core.registry import register_algorithm
        from repro.core.registry import unregister_algorithm

        @register_algorithm("vanishing")
        def vanish(query, *, context, rng, penalty_config, options):
            raise AssertionError("never runs")

        session = Session(points)
        doomed = typed(points, 24, algorithm="vanishing")
        unregister_algorithm("vanishing")
        answers = session.ask_batch([typed(points, 25), doomed],
                                    workers=2)
        assert answers[0].ok
        assert not answers[1].ok
        assert "unknown algorithm" in answers[1].error.message

    def test_triples_are_rejected_with_pointer_to_shim(self, points):
        session = Session(points)
        q, w = probe(points, 23)
        with pytest.raises(TypeError, match="Question objects"):
            session.ask_batch([(q, K, w)])

    def test_summarize(self, points):
        session = Session(points)
        questions = [typed(points, 30 + j) for j in range(3)]
        answers = session.ask_batch(questions)
        summary = session.summarize(answers)
        assert summary["answered"] == 3 and summary["failed"] == 0


class TestInteractiveParity:
    """Session covers the WQRTQ interactive surface."""

    def test_reverse_topk_and_missing_weights(self, points):
        session = Session(points)
        panel = preference_set(40, D, seed=9555)
        q, _ = probe(points, 40)
        members = session.reverse_topk(q, K, weights=panel)
        missing = session.missing_weights(q, K, panel)
        assert len(members) + len(missing) == len(panel)

    def test_explain_names_culprits(self, points):
        session = Session(points)
        question = typed(points, 41)
        (explanation,) = session.explain(question, max_culprits=3)
        assert explanation.rank_of_q > K
        assert len(explanation.culprit_ids) <= 3

    def test_monochromatic_needs_2d(self, points):
        with pytest.raises(ValueError, match="2-D"):
            Session(points).reverse_topk([0.5] * D, K)


class TestLegacyShimParity:
    """The deprecated entry points warn but answer identically."""

    def test_wqrtq_warns_and_matches_session(self, points):
        session = Session(points)
        q, w = probe(points, 50)
        with pytest.warns(DeprecationWarning, match="WQRTQ"):
            from repro import WQRTQ

            engine = WQRTQ(points, q, K)
        legacy = engine.modify_query_point(w)
        answer = session.ask(Question(q=q, k=K, why_not=w))
        assert legacy.penalty == answer.penalty
        np.testing.assert_array_equal(
            np.asarray(legacy.q_refined),
            np.asarray(answer.result.q_refined))

    def test_whynotbatch_warns_and_matches_ask_batch(self, points):
        session = Session(points)
        triples = [probe(points, 51 + j) for j in range(4)]
        with pytest.warns(DeprecationWarning, match="WhyNotBatch"):
            from repro import WhyNotBatch

            batch = WhyNotBatch(points)
        for q, w in triples:
            batch.add_question(q, K, w)
        report = batch.run("mwk", sample_size=40, seed=7)
        questions = [Question(q=q, k=K, why_not=w, algorithm="mwk",
                              options={"sample_size": 40})
                     for q, w in triples]
        answers = session.ask_batch(questions, seed=7)
        assert [item.penalty for item in report.items] == \
            [a.penalty for a in answers]
        assert [item.result.k_refined for item in report.items] == \
            [a.result.k_refined for a in answers]

    def test_executor_triple_shims_warn_and_match(self, points):
        from repro.engine.executor import (
            answer_one,
            answer_question,
            execute_batch,
        )

        q, w = probe(points, 60)
        with pytest.warns(DeprecationWarning, match="answer_one"):
            item = answer_one(DatasetContext(points), 0, q, K, w,
                              "mqp", rng=np.random.default_rng(0))
        answer = answer_question(
            DatasetContext(points), Question(q=q, k=K, why_not=w),
            rng=np.random.default_rng(0))
        assert item.penalty == answer.penalty
        assert item.query is not None     # legacy field still bound
        with pytest.warns(DeprecationWarning, match="execute_batch"):
            items = execute_batch(DatasetContext(points),
                                  [(q, K, w)], "mqp", seed=0)
        assert items[0].penalty == answer.penalty

    def test_legacy_construction_failure_is_item_not_raise(
            self, points):
        """The shims must keep reporting malformed triples as failed
        items (the typed path rejects them at construction)."""
        from repro.engine.executor import execute_batch

        q, w = probe(points, 61)
        with pytest.warns(DeprecationWarning):
            items = execute_batch(
                DatasetContext(points),
                [(q, K, w), (q, 0, w), (q, K, [[0.9, 0.9, 0.9]])],
                "mqp")
        assert items[0].error is None
        assert "k must be" in items[1].error
        assert "simplex" in items[2].error


class TestCliJsonParity:
    def test_cli_json_matches_session_payloads(self, capsys):
        """Acceptance criterion: ``wqrtq batch --json`` emits exactly
        the ``Answer.to_dict()`` payloads ``Session.ask_batch``
        produces for the same questions."""
        from repro.cli import build_batch_questions, main
        from repro.data import make_dataset

        args = ["batch", "-n", "400", "--questions", "6",
                "--products", "2", "-k", str(K), "--rank", "31",
                "--algorithm", "mwk", "--sample-size", "30",
                "--seed", "4", "--json"]
        assert main(args) == 0
        emitted = json.loads(capsys.readouterr().out)

        dataset = make_dataset("independent", 400, D, seed=4)
        session = Session(dataset)
        questions, _ = build_batch_questions(
            session, n_questions=6, products=2, dim=D, k=K, rank=31,
            algorithm="mwk", sample_size=30, seed=4)
        answers = session.ask_batch(questions, seed=4)
        assert emitted["schema_version"] == \
            answers[0].to_dict()["schema_version"]
        assert [{k: v for k, v in item.items() if k != "elapsed"}
                for item in emitted["answers"]] == payloads(answers)
