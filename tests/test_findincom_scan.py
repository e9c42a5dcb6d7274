"""The serving path's FindIncom scan and capped rank counting.

``DatasetContext`` finds a product's dominating / incomparable sets
with a dominance-mask scan of the point array instead of the paper's
R-tree traversal, and MWK counts sample ranks only up to ``k'max``.
Both are pure speed-ups, so the properties here pin them to the
paths they replace:

* the scan partition equals the R-tree partition as sets (rows equal
  to ``q``, ties, derived and row-remapped snapshots included);
* a capped rank equals the exact rank wherever it is ``<= cap`` and
  exceeds the cap otherwise (ties within ``RANK_EPS``, non-empty D);
* a fixed corpus of MQP / MWK / MQWK answers is byte-identical, bar
  ``elapsed``, to the R-tree traversal + uncapped counting path.
"""

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import mwk as mwk_module
from repro.core.incomparable import IncomparableCache, find_incomparable
from repro.core.protocol import Question
from repro.core.session import Session
from repro.data import (
    anticorrelated,
    independent,
    preference_set,
    query_point_with_rank,
)
from repro.engine import context as context_module
from repro.engine import kernels
from repro.engine.context import DatasetContext
from repro.index import RTree

# Coordinates on a coarse grid, so rows equal to q and ties on single
# coordinates are common rather than measure-zero.
_GRID = st.integers(0, 6).map(lambda v: v / 6.0)


@st.composite
def catalogue_and_q(draw, n_max=80):
    d = draw(st.integers(2, 4))
    n = draw(st.integers(1, n_max))
    pts = np.array(draw(st.lists(st.lists(_GRID, min_size=d,
                                          max_size=d),
                                 min_size=n, max_size=n)))
    if draw(st.booleans()):
        q = pts[draw(st.integers(0, n - 1))].copy()
    else:
        q = np.array(draw(st.lists(_GRID, min_size=d, max_size=d)))
    return pts, q


def _as_sets(result):
    return (sorted(result.dominating_ids.tolist()),
            sorted(result.incomparable_ids.tolist()))


# ---------------------------------------------------------------------
# Scan partition == R-tree partition
# ---------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(catalogue_and_q(), st.integers(2, 8))
def test_scan_partition_equals_rtree_partition(data, capacity):
    pts, q = data
    tree = RTree(pts, capacity=capacity)
    by_tree = find_incomparable(tree, q)
    by_scan = find_incomparable(pts, q)
    assert _as_sets(by_scan) == _as_sets(by_tree)
    # The scan's ids come back ascending.
    assert np.all(np.diff(by_scan.dominating_ids) > 0)
    assert np.all(np.diff(by_scan.incomparable_ids) > 0)

    scan_cache = IncomparableCache(pts, q)
    tree_cache = IncomparableCache(tree, q)
    assert sorted(scan_cache.candidate_ids.tolist()) == \
        sorted(tree_cache.candidate_ids.tolist())
    assert _as_sets(scan_cache.partition(q)) == _as_sets(by_tree)

    context = DatasetContext(pts)
    assert _as_sets(context.partition(q)) == _as_sets(by_tree)
    assert context.stats.findincom_traversals == 1


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(catalogue_and_q(n_max=40), st.data())
def test_box_subpartitions_equal_rtree(data, draw):
    """Every ``q' <= q`` of the box partitions like a fresh traversal."""
    pts, q = data
    tree = RTree(pts, capacity=4)
    cache = DatasetContext(pts).box_cache(q)
    shrink = np.array(draw.draw(st.lists(
        st.sampled_from([0.0, 0.5, 1.0]), min_size=len(q),
        max_size=len(q))))
    q_prime = q * shrink
    assert _as_sets(cache.partition(q_prime)) == \
        _as_sets(find_incomparable(tree, q_prime))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(catalogue_and_q(n_max=40), st.data())
def test_derived_snapshot_partition_equals_rtree(data, draw):
    """Partitions inherited (and row-remapped) by ``derive`` equal a
    traversal of the mutated catalogue's fresh R-tree."""
    pts, q = data
    n, d = pts.shape
    parent = DatasetContext(pts)
    # Warm the caches so derive() has entries to carry or drop.
    parent.partition(q)
    rows = draw.draw(st.permutations(range(n)))
    n_removed = draw.draw(st.integers(0, n - 1))
    removed = sorted(rows[:n_removed])
    updated = sorted(rows[n_removed:n_removed
                          + draw.draw(st.integers(0, n - n_removed))])
    appended = draw.draw(st.integers(0, 3))
    new_rows = np.array(draw.draw(st.lists(
        st.lists(_GRID, min_size=d, max_size=d),
        min_size=len(updated) + appended,
        max_size=len(updated) + appended))).reshape(-1, d)
    new_pts = pts.copy()
    new_pts[updated] = new_rows[:len(updated)]
    keep = np.setdiff1d(np.arange(n), removed)
    new_pts = np.vstack([new_pts[keep], new_rows[len(updated):]])
    derived = parent.derive(new_pts, removed_rows=removed,
                            updated_rows=updated, appended=appended)
    expected = find_incomparable(RTree(new_pts, capacity=4), q)
    assert _as_sets(derived.partition(q)) == _as_sets(expected)
    assert _as_sets(derived.box_cache(q).partition(q)) == \
        _as_sets(expected)


# ---------------------------------------------------------------------
# Capped ranks
# ---------------------------------------------------------------------

@st.composite
def rank_problem(draw):
    d = draw(st.integers(2, 4))
    q = np.array(draw(st.lists(_GRID, min_size=d, max_size=d)))
    # Rows at q plus a small offset: many scores sit exactly on, or
    # within RANK_EPS of, q's score, where ties resolve for q.
    offsets = st.sampled_from([-0.5, -1e-13, 0.0, 1e-13, 0.25, -0.25])

    def rows(lo, hi):
        count = draw(st.integers(lo, hi))
        return np.array(draw(st.lists(
            st.lists(offsets, min_size=d, max_size=d),
            min_size=count, max_size=count))).reshape(-1, d) + q

    inc = rows(0, 60)
    dom = np.minimum(rows(1, 6), q) - 1e-3 * draw(st.integers(0, 1))
    m = draw(st.integers(1, 12))
    wts = np.array(draw(st.lists(st.lists(
        st.integers(1, 8), min_size=d, max_size=d),
        min_size=m, max_size=m)), dtype=np.float64)
    wts /= wts.sum(axis=1, keepdims=True)
    return wts, inc, dom, q


@settings(max_examples=200, deadline=None)
@given(rank_problem(), st.integers(1, 70), st.integers(1, 16))
def test_capped_ranks_exact_up_to_cap(problem, cap, block):
    wts, inc, dom, q = problem
    exact = kernels.ranks_batch(wts, inc, q, dominating=dom)
    with mock.patch.object(kernels, "CAP_BLOCK_ROWS", block), \
            mock.patch.object(kernels, "CAP_SCRATCH_FLOATS",
                              block * 3):
        capped = kernels.ranks_batch(wts, inc, q, dominating=dom,
                                     cap=cap)
    within = exact <= cap
    np.testing.assert_array_equal(capped[within], exact[within])
    assert np.all(capped[~within] > cap)


def test_capped_ranks_count_dominating_exactly():
    """D is always counted in full, even past the cap."""
    q = np.array([0.5, 0.5])
    dom = np.full((5, 2), 0.1)
    inc = np.array([[0.0, 1.0], [1.0, 0.0]])
    wts = np.array([[0.5, 0.5]])
    capped = kernels.ranks_batch(wts, inc, q, dominating=dom, cap=2)
    assert capped[0] == 6 == \
        kernels.ranks_batch(wts, inc, q, dominating=dom)[0]


# ---------------------------------------------------------------------
# Answers: scan + capped counting == R-tree + uncapped counting
# ---------------------------------------------------------------------

def _corpus():
    questions = []
    for name, pts in (("ind", independent(3000, 3, seed=41)),
                      ("anti", anticorrelated(3000, 3, seed=42))):
        for j, (algorithm, options, rank, m) in enumerate((
                ("mqp", {}, 51, 2),
                ("mwk", {"sample_size": 200}, 101, 1),
                ("mwk", {"sample_size": 400}, 301, 3),
                ("mqwk", {"sample_size": 60, "q_sample_size": 6},
                 51, 2))):
            w = preference_set(m, 3, seed=900 + 10 * j)
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


def _rtree_box_cache(points, q):
    return IncomparableCache(RTree(points), q)


def _uncapped(weights, inc, dom, q, *, cap=None, **kwargs):
    return kernels.ranks_batch(weights, inc, q, dominating=dom,
                               **kwargs)


def test_corpus_answers_equal_rtree_uncapped_path():
    questions = _corpus()
    served = _answers(questions)
    with mock.patch.object(context_module, "IncomparableCache",
                           _rtree_box_cache), \
            mock.patch.object(mwk_module, "ranks_under_weights",
                              _uncapped):
        reference = _answers(questions)
    assert [a["algorithm"] for a in served].count("mqwk") == 2
    assert all(a["error"] is None for a in served), served
    assert served == reference
