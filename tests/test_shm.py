"""Shared-memory snapshots: export/attach identity and lifecycle.

Satellite acceptance for the multi-process serving tier: a context
rebuilt from a shared segment must be *behaviourally identical* to
its source — same answers for every registered algorithm — while the
segment carries the points (and product ids) only, no R-tree; and the
segment lifecycle must be leak-free: owned segments are unlinked on demand, swept at
exit, and attaching never trips Python 3.11's ``resource_tracker``
into warning about (or destroying) a segment it does not own.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro.core.protocol import Question
from repro.data import independent, preference_set, query_point_with_rank
from repro.engine.context import DatasetContext
from repro.engine.shm import (
    attach_snapshot,
    export_snapshot,
    owned_segments,
    sweep_owned_segments,
    unlink_snapshot,
)

D = 3


@pytest.fixture(scope="module")
def points():
    base = independent(400, D, seed=21)
    # Duplicate a block so exact score ties are common: tie-breaking
    # must survive the shared-memory round trip bit-for-bit.
    return np.vstack([base, base[:120]])


@pytest.fixture()
def context(points):
    return DatasetContext(points, version=7)


def strip_elapsed(answer) -> dict:
    payload = answer.to_dict()
    payload.pop("elapsed")
    return payload


def make_question(points, j, *, algorithm="mqp", options=None, k=9):
    w = preference_set(2, D, seed=500 + j)
    q = query_point_with_rank(points, w[0], 41)
    return Question(q=q, k=k, why_not=w, algorithm=algorithm,
                    options=options or {})


class TestSharedContext:
    def test_manifest_and_views(self, context):
        manifest = export_snapshot(context)
        try:
            assert manifest.version == 7
            assert manifest.n_points == context.n
            # Tree-free: the segment holds the catalogue data only.
            assert [spec.key for spec in manifest.arrays] == ["points"]
            assert context.stats.tree_builds == 0
            arrays, segment = attach_snapshot(manifest)
            try:
                np.testing.assert_array_equal(arrays["points"],
                                              context.points)
                assert not arrays["points"].flags.writeable
                # Zero-copy: the view's memory is the segment buffer.
                assert arrays["points"].base is not None
            finally:
                del arrays
                segment.close()
        finally:
            unlink_snapshot(manifest)

    @pytest.mark.parametrize("algorithm, options", [
        ("mqp", {}),
        ("mwk", {"sample_size": 60}),
        ("mqwk", {"sample_size": 40}),
    ])
    def test_from_shared_answers_identical(self, context, points,
                                           algorithm, options):
        from repro.engine.executor import answer_question

        manifest = export_snapshot(context)
        try:
            shared = DatasetContext.from_shared(manifest)
            question = make_question(points, 1, algorithm=algorithm,
                                     options=options)
            rng = lambda: np.random.default_rng(5)   # noqa: E731
            direct = answer_question(context, question, rng=rng())
            via_shm = answer_question(shared, question, rng=rng())
            assert direct.ok, direct.error
            assert strip_elapsed(direct) == strip_elapsed(via_shm)
            assert via_shm.catalogue_version == 7
        finally:
            unlink_snapshot(manifest)

    def test_from_shared_failure_identical(self, context, points):
        from repro.engine.executor import answer_question

        manifest = export_snapshot(context)
        try:
            shared = DatasetContext.from_shared(manifest)
            question = make_question(points, 2, k=10 ** 6)
            direct = answer_question(context, question)
            via_shm = answer_question(shared, question)
            assert not direct.ok
            assert strip_elapsed(direct) == strip_elapsed(via_shm)
        finally:
            unlink_snapshot(manifest)


class TestLifecycle:
    def test_unlink_is_idempotent_and_tracked(self, context):
        manifest = export_snapshot(context)
        assert manifest.segment in owned_segments()
        assert unlink_snapshot(manifest) is True
        assert manifest.segment not in owned_segments()
        assert unlink_snapshot(manifest) is False

    def test_sweep_collects_everything(self, context):
        export_snapshot(context)
        export_snapshot(context)
        swept = sweep_owned_segments()
        assert len(swept) >= 2
        assert owned_segments() == ()

    def test_no_resource_tracker_warnings(self, tmp_path):
        """Exporting, attaching from a child and exiting must leave
        no segment behind and emit no resource_tracker noise — the
        3.11 double-registration trap this repo works around."""
        script = tmp_path / "probe.py"
        script.write_text(
            "import numpy as np\n"
            "from multiprocessing import get_context\n"
            "from repro.engine.context import DatasetContext\n"
            "from repro.engine.shm import export_snapshot\n"
            "def child(manifest):\n"
            "    ctx = DatasetContext.from_shared(manifest)\n"
            "    assert ctx.n == manifest.n_points\n"
            "def main():\n"
            "    ctx = DatasetContext(\n"
            "        np.random.default_rng(0).random((200, 3)) + .01)\n"
            "    manifest = export_snapshot(ctx)\n"
            "    proc = get_context('spawn').Process(\n"
            "        target=child, args=(manifest,))\n"
            "    proc.start(); proc.join()\n"
            "    assert proc.exitcode == 0\n"
            "    # owner exits without explicit unlink: the atexit\n"
            "    # sweep must collect the segment silently.\n"
            "if __name__ == '__main__':\n"
            "    main()\n")
        result = subprocess.run(
            [sys.executable, str(script)], capture_output=True,
            text=True, timeout=110)
        assert result.returncode == 0, result.stderr
        assert "resource_tracker" not in result.stderr, result.stderr
        assert "leaked" not in result.stderr, result.stderr
