"""The served path builds, patches and ships no R-tree.

MQP's k-th points come from a gemv scan, FindIncom is a mask scan,
catalogue commits check rows without an index and shared-memory
snapshots carry the points only.  The properties here pin each piece
to what it replaces:

* serving — registration, MQP / MWK / MQWK asks, a threaded batch,
  update / add / remove commits, a snapshot export and attach —
  leaves ``tree_builds == tree_patches == 0`` on every snapshot, while
  ``Session.explain`` and ``Session.reverse_topk`` build one tree,
  lazily;
* the scan k-th point equals ``BRSEngine.kth_point`` in id and score
  bits (duplicated points, ties at the k-th score, ``k = n``);
* ``DatasetContext.derive`` rejects a changed row that is not listed
  in ``updated_rows`` and accepts every valid mutation;
* a fixed corpus of MQP / MWK / MQWK answers is byte-identical, bar
  ``elapsed``, to the BRS k-th point path.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import mqp as mqp_module
from repro.core.protocol import Question
from repro.core.safe_region import kth_points_for
from repro.core.session import Session
from repro.data import (
    anticorrelated,
    independent,
    preference_set,
    query_point_with_rank,
)
from repro.engine.context import DatasetContext
from repro.engine.executor import answer_question
from repro.engine.kernels import kth_scores_batch
from repro.engine.shm import export_snapshot, unlink_snapshot
from repro.index import RTree
from repro.service import CatalogueRegistry
from repro.topk.brs import BRSEngine

D = 3

# Coordinates on a coarse grid, so duplicated points and exact score
# ties at the k-th position are common rather than measure-zero.
_GRID = st.integers(0, 4).map(lambda v: v / 4.0)


def _tree_counts(context) -> tuple[int, int]:
    return context.stats.tree_builds, context.stats.tree_patches


def _question(points, j, algorithm, options, *, rank=41, m=2):
    w = preference_set(m, D, seed=700 + j)
    q = query_point_with_rank(points, w[0], rank)
    return Question(q=q, k=9, why_not=w, algorithm=algorithm,
                    options=options, id=f"{algorithm}-{j}")


ALGORITHMS = [("mqp", {}), ("mwk", {"sample_size": 60}),
              ("mqwk", {"sample_size": 30, "q_sample_size": 4})]


# ---------------------------------------------------------------------
# Serving builds no tree
# ---------------------------------------------------------------------

def test_serving_builds_no_tree():
    points = independent(600, D, seed=51)
    registry = CatalogueRegistry()
    registry.register("shop", points)
    catalogue = registry.catalogue("shop")
    session = registry.session("shop")
    snapshots = [catalogue.snapshot]

    questions = [_question(points, j, algorithm, options)
                 for j, (algorithm, options) in enumerate(ALGORITHMS)]
    for question in questions:
        assert session.ask(question, seed=3).ok
    answers = session.ask_batch(questions, seed=3, workers=2)
    assert all(answer.ok for answer in answers)

    catalogue.update_products([4, 9], [[0.9, 0.9, 0.9],
                                       [0.8, 0.95, 0.9]])
    snapshots.append(catalogue.snapshot)
    catalogue.add_products([[0.97, 0.99, 0.98]])
    snapshots.append(catalogue.snapshot)
    catalogue.remove_products([1, 2, 3])
    snapshots.append(catalogue.snapshot)
    for question in questions:
        assert session.ask(question, seed=3).ok

    manifest = export_snapshot(catalogue.snapshot)
    try:
        assert not [spec.key for spec in manifest.arrays
                    if spec.key.startswith("tree.")]
        attached = DatasetContext.from_shared(manifest)
        snapshots.append(attached)
        for question in questions:
            assert answer_question(attached, question, seed=3).ok
    finally:
        unlink_snapshot(manifest)

    assert [snap.version for snap in snapshots[:4]] == [0, 1, 2, 3]
    assert [_tree_counts(snap) for snap in snapshots] == [(0, 0)] * 5
    assert all(snap._tree is None for snap in snapshots)


@pytest.mark.parametrize("call", ["explain", "reverse_topk"])
def test_explanations_build_one_tree_lazily(call):
    points = independent(300, D, seed=52)
    session = Session(points)
    question = _question(points, 0, "mqp", {})
    assert session.ask(question).ok
    assert _tree_counts(session.context) == (0, 0)
    for _ in range(2):
        if call == "explain":
            session.explain(question)
        else:
            session.reverse_topk(question.q, question.k,
                                 weights=question.why_not)
    assert _tree_counts(session.context) == (1, 0)


def test_question_tree_is_the_context_tree():
    points = independent(200, D, seed=53)
    context = DatasetContext(points)
    query = context.question(points[7] + 0.5, 3,
                             preference_set(1, D, seed=1))
    assert context.stats.tree_builds == 0
    assert query.rtree is context.tree
    assert context.stats.tree_builds == 1


# ---------------------------------------------------------------------
# Scan k-th point == BRS k-th point
# ---------------------------------------------------------------------

@st.composite
def kth_problem(draw, d_max=5):
    d = draw(st.integers(2, d_max))
    n = draw(st.integers(1, 90))
    rows = draw(st.lists(st.lists(_GRID, min_size=d, max_size=d),
                         min_size=1, max_size=n))
    # Repeat a block of rows so duplicates straddle every boundary.
    pts = np.array(rows + rows[:draw(st.integers(0, len(rows)))])
    raw = np.array(draw(st.lists(
        st.lists(st.integers(0, 4), min_size=d, max_size=d).filter(
            any), min_size=1, max_size=4)), dtype=np.float64)
    weights = raw / raw.sum(axis=1, keepdims=True)
    n = len(pts)
    k = draw(st.one_of(st.just(n), st.integers(1, n)))
    capacity = draw(st.integers(2, 8))
    return pts, weights, k, capacity


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kth_problem())
def test_scan_kth_equals_brs_kth(problem):
    pts, weights, k, capacity = problem
    ids, scores = kth_scores_batch(pts, weights, k)
    engine = BRSEngine(RTree(pts, capacity=capacity))
    for i, w in enumerate(weights):
        pid, score = engine.kth_point(w, k)
        assert ids[i] == pid
        assert scores[i].tobytes() == np.float64(score).tobytes()


def test_scan_kth_sample_bound_on_large_catalogues():
    """Big enough for the sample bound to engage (and, for the k near
    n, to fall back): still BRS's ids and score bits."""
    rng = np.random.default_rng(9)
    base = rng.random((3000, D))
    pts = np.vstack([base, base[:900]])
    pts[:400] = np.round(pts[:400] * 4) / 4     # heavy ties
    weights = preference_set(12, D, seed=3)
    tree = RTree(pts)
    for k in (1, 10, 50, 1000, len(pts)):
        ids, scores = kth_points_for(pts, weights, k)
        brs_ids, brs_scores = kth_points_for(tree, weights, k)
        np.testing.assert_array_equal(ids, brs_ids)
        assert scores.tobytes() == brs_scores.tobytes()


# ---------------------------------------------------------------------
# derive() row check
# ---------------------------------------------------------------------

@st.composite
def mutation(draw):
    d = draw(st.integers(2, 3))
    n = draw(st.integers(2, 40))
    pts = np.array(draw(st.lists(st.lists(_GRID, min_size=d,
                                          max_size=d),
                                 min_size=n, max_size=n)))
    order = draw(st.permutations(range(n)))
    n_removed = draw(st.integers(0, n - 1)) if draw(st.booleans()) \
        else 0
    removed = sorted(order[:n_removed])
    updated = sorted(order[n_removed:n_removed + draw(
        st.integers(0, n - n_removed))])
    appended = draw(st.integers(0, 3))
    new_rows = np.array(draw(st.lists(
        st.lists(_GRID, min_size=d, max_size=d),
        min_size=len(updated) + appended,
        max_size=len(updated) + appended))).reshape(-1, d)
    new_pts = pts.copy()
    new_pts[updated] = new_rows[:len(updated)]
    keep = np.setdiff1d(np.arange(n), removed)
    new_pts = np.vstack([new_pts[keep], new_rows[len(updated):]])
    return pts, new_pts, removed, updated, appended, keep


@settings(max_examples=200, deadline=None)
@given(mutation(), st.data())
def test_derive_accepts_valid_and_rejects_unlisted_changes(case, data):
    pts, new_pts, removed, updated, appended, keep = case
    parent = DatasetContext(pts)
    derived = parent.derive(new_pts.copy(), removed_rows=removed,
                            updated_rows=updated, appended=appended)
    np.testing.assert_array_equal(derived.points, new_pts)
    assert not derived.points.flags.writeable

    # Change one surviving row that is not declared as updated.
    unlisted = [int(new_row) for new_row, old_row in enumerate(keep)
                if old_row not in updated]
    if not unlisted:
        return
    row = data.draw(st.sampled_from(unlisted))
    column = data.draw(st.integers(0, pts.shape[1] - 1))
    corrupt = new_pts.copy()
    corrupt[row, column] += data.draw(st.sampled_from([0.5, -1e-9,
                                                       1e-300]))
    if np.array_equal(corrupt, new_pts):   # 1e-300 absorbed by 1.0
        return
    with pytest.raises(ValueError, match="unchanged rows"):
        parent.derive(corrupt, removed_rows=removed,
                      updated_rows=updated, appended=appended)


def test_derive_adopts_the_array_without_a_copy():
    pts = independent(50, D, seed=4)
    parent = DatasetContext(pts)
    fresh = pts.copy()
    fresh[3] = [0.5, 0.5, 0.5]
    derived = parent.derive(fresh, updated_rows=[3])
    assert derived.points is fresh
    assert not fresh.flags.writeable


# ---------------------------------------------------------------------
# Answers: scan k-th == BRS k-th
# ---------------------------------------------------------------------

def _corpus():
    questions = []
    for name, pts in (("ind", independent(3000, D, seed=61)),
                      ("anti", anticorrelated(3000, D, seed=62))):
        for j, (algorithm, options, rank, m) in enumerate((
                ("mqp", {}, 51, 2),
                ("mqp", {}, 301, 3),
                ("mwk", {"sample_size": 200}, 101, 1),
                ("mqwk", {"sample_size": 60, "q_sample_size": 6},
                 51, 2))):
            w = preference_set(m, D, seed=950 + 10 * j)
            q = query_point_with_rank(pts, w[0], rank)
            questions.append((name, pts, Question(
                q=q, k=10, why_not=w, algorithm=algorithm,
                options=options, id=f"{name}-{j}")))
    return questions


def _answers(questions):
    sessions = {}
    out = []
    for name, pts, question in questions:
        session = sessions.setdefault(name, Session(pts))
        payload = session.ask(question, seed=7).to_dict()
        payload.pop("elapsed")
        out.append(payload)
    return out


def _brs_kth_points(source, why_not, k):
    tree = source if isinstance(source, RTree) else RTree(source)
    return kth_points_for(tree, why_not, k)


def test_corpus_answers_equal_brs_path():
    questions = _corpus()
    served = _answers(questions)
    with mock.patch.object(mqp_module, "kth_points_for",
                           _brs_kth_points):
        reference = _answers(questions)
    assert all(a["error"] is None for a in served), served
    assert [a["algorithm"] for a in served].count("mqp") == 4
    assert served == reference
