"""Workload construction and single-cell measurement.

A *cell* is one point of a figure: one dataset, one parameter setting,
three algorithms.  ``run_cell`` builds the workload (dataset, R-tree,
why-not vector set, query point with the prescribed rank), executes
MQP, MWK and MQWK, and reports wall-clock time and penalty for each —
the two metrics every figure of the paper plots.

Timing covers query processing only (the R-tree is built once per
cell, outside the timed region), matching the paper's setup where the
index pre-exists.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.mqp import modify_query_point
from repro.core.mqwk import modify_query_weights_and_k
from repro.core.mwk import modify_weights_and_k
from repro.core.types import WhyNotQuery
from repro.data import make_dataset, preference_set, query_point_with_rank
from repro.engine.context import DatasetContext
from repro.geometry.vectors import normalize_weight
from repro.topk.scan import rank_of_scan

ALGORITHMS = ("MQP", "MWK", "MQWK")


@dataclass(frozen=True)
class ExperimentCell:
    """One measurement point: dataset × parameters."""

    dataset: str
    n: int
    d: int
    k: int
    rank: int
    wm_size: int
    sample_size: int
    seed: int = 0

    def label(self) -> str:
        return (f"{self.dataset}[n={self.n}, d={self.d}, k={self.k}, "
                f"rank={self.rank}, |Wm|={self.wm_size}, "
                f"|S|={self.sample_size}]")


@dataclass
class CellResult:
    """Times (seconds) and penalties per algorithm for one cell."""

    cell: ExperimentCell
    times: dict = field(default_factory=dict)
    penalties: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def row(self) -> dict:
        """Flat dict for table printing / serialization."""
        out = {"dataset": self.cell.dataset, "n": self.cell.n,
               "d": self.cell.d, "k": self.cell.k,
               "rank": self.cell.rank, "wm": self.cell.wm_size,
               "S": self.cell.sample_size}
        for alg in ALGORITHMS:
            if alg in self.times:
                out[f"{alg}_time"] = self.times[alg]
                out[f"{alg}_penalty"] = self.penalties[alg]
        return out


def build_context(cell: ExperimentCell) -> DatasetContext:
    """The shared per-cell catalogue context (dataset, cached index)."""
    points = make_dataset(cell.dataset, cell.n, cell.d, seed=cell.seed)
    return DatasetContext(points)


def build_workload(cell: ExperimentCell, *,
                   context: DatasetContext | None = None) -> WhyNotQuery:
    """Materialize the why-not question a cell prescribes.

    The first why-not vector is drawn uniformly from the simplex and
    the query point is chosen so its rank under that vector equals
    ``cell.rank`` (the Figure 10 knob).  Additional why-not vectors
    (``|Wm| > 1``, Figure 11) are small perturbations of the first,
    accepted only if the query point is genuinely missing from their
    top-k — mirroring a set of like-minded customers the paper's
    market scenario implies.

    When ``context`` is given (built by :func:`build_context` for the
    same cell), the question binds to its shared R-tree; otherwise a
    private context is created.
    """
    if cell.rank <= cell.k:
        raise ValueError("cell.rank must exceed cell.k for a why-not "
                         "question to exist")
    if context is None:
        context = build_context(cell)
    points = context.points
    rng = np.random.default_rng(cell.seed + 1)
    base = preference_set(1, cell.d, seed=cell.seed + 2)[0]
    q = query_point_with_rank(points, base, cell.rank)

    vectors = [base]
    attempts = 0
    while len(vectors) < cell.wm_size:
        attempts += 1
        if attempts > 500:
            raise RuntimeError("could not build a why-not set; "
                               "perturbations keep q inside the top-k")
        candidate = normalize_weight(
            np.clip(base + rng.normal(0.0, 0.05, cell.d), 1e-6, None))
        if rank_of_scan(points, candidate, q) > cell.k:
            vectors.append(candidate)

    return context.question(q, cell.k, np.asarray(vectors))


def run_cell(cell: ExperimentCell,
             algorithms: tuple[str, ...] = ALGORITHMS,
             *, mqwk_q_samples: int | None = None) -> CellResult:
    """Execute the requested algorithms on one cell and time them.

    ``mqwk_q_samples`` caps MQWK's query-point sample count
    independently of the weight sample size (the paper sets them
    equal, which we default to as well).

    The three algorithms share one :class:`DatasetContext` (the index
    is built once, outside the timed region); the ``FindIncom``
    traversal stays inside the timed region, as in the paper's setup,
    and MQP finds its k-th points by BRS on that index (Algorithm 1).
    """
    context = build_context(cell)
    query = build_workload(cell, context=context)
    context.tree  # build the index outside the timed region
    result = CellResult(cell=cell)

    if "MQP" in algorithms:
        start = time.perf_counter()
        res = modify_query_point(query, use_rtree=True)
        result.times["MQP"] = time.perf_counter() - start
        result.penalties["MQP"] = res.penalty

    if "MWK" in algorithms:
        rng = np.random.default_rng(cell.seed + 10)
        start = time.perf_counter()
        res = modify_weights_and_k(query,
                                   sample_size=cell.sample_size,
                                   rng=rng)
        result.times["MWK"] = time.perf_counter() - start
        result.penalties["MWK"] = res.penalty
        result.meta["k_max"] = res.k_max

    if "MQWK" in algorithms:
        rng = np.random.default_rng(cell.seed + 20)
        start = time.perf_counter()
        res = modify_query_weights_and_k(
            query, sample_size=cell.sample_size,
            q_sample_size=mqwk_q_samples, rng=rng)
        result.times["MQWK"] = time.perf_counter() - start
        result.penalties["MQWK"] = res.penalty

    return result


def print_rows(title: str, rows: list[dict], vary: str) -> None:
    """Print one figure's data in the paper's layout.

    One block per dataset; columns: the varied parameter, then
    time/penalty per algorithm (time on a log axis in the paper; raw
    seconds here).
    """
    print(f"\n=== {title} ===")
    datasets = sorted({r["dataset"] for r in rows})
    for ds in datasets:
        print(f"\n--- {ds} ---")
        header = (f"{vary:>8} | " + " | ".join(
            f"{alg} time(s)  penalty" for alg in ALGORITHMS))
        print(header)
        print("-" * len(header))
        for r in (r for r in rows if r["dataset"] == ds):
            cells = []
            for alg in ALGORITHMS:
                t = r.get(f"{alg}_time")
                p = r.get(f"{alg}_penalty")
                cells.append(f"{t:>11.3f}  {p:>7.3f}"
                             if t is not None else " " * 20)
            print(f"{r[vary]:>8} | " + " | ".join(cells))
