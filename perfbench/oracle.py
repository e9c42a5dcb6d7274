"""Independent answer checks.

Nothing here imports the program.  Ranks are counted by brute force
with the paper's strict-beat rule (a product beats ``q`` under ``w``
when its score is below ``w . q`` by more than ``RANK_EPS``; smaller
scores are better), and penalties are recomputed from an answer's
wire fields with the benchmark's own Equations 1, 4 and 5.

``check_answer`` returns a list of problems (empty when the answer
passes); the workloads count any problem as an incorrect run.
"""

from __future__ import annotations

import collections
import math

import numpy as np

RANK_EPS = 1e-12
SQRT2 = math.sqrt(2.0)
ALPHA = BETA = GAMMA = LAM = 0.5

#: Tolerance for re-priced penalties and coordinates.
TOL = 1e-9

#: How far a single-vector MQP answer may sit from the exact
#: projection ``x*``: relative distance ``||q' - x*|| / ||q||`` and
#: absolute penalty gap.  The program solves the QP with an
#: interior-point method stopped at an absolute tolerance, so its q'
#: sits up to 2.6e-3 relative (penalty gap 2.3e-3) from ``x*`` on this
#: benchmark's inputs, worst for small ``||q||`` (see CHANGES.md).
#: The bounds sit a few times above that; a q' moved by a percent of
#: ``||q||`` anywhere in the safe region still fails.
PROJ_TOL = 1e-2
PROJ_PENALTY_TOL = 1e-2


def ranks(points: np.ndarray, weights, q) -> np.ndarray:
    """Strict-beat rank of ``q`` under every row of ``weights``."""
    wts = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    qv = np.asarray(q, dtype=np.float64)
    out = np.empty(len(wts), dtype=np.int64)
    for i, w in enumerate(wts):
        out[i] = 1 + np.count_nonzero(points @ w < float(w @ qv) - RANK_EPS)
    return out


def kth_score(points: np.ndarray, w, k: int) -> float:
    """The k-th smallest score under ``w``."""
    scores = points @ np.asarray(w, dtype=np.float64)
    return float(np.partition(scores, k - 1)[k - 1])


def penalty_q(q, q2) -> float:
    """Eq. 1: ``||q - q'|| / ||q||``."""
    q = np.asarray(q, dtype=np.float64)
    q2 = np.asarray(q2, dtype=np.float64)
    return float(np.linalg.norm(q - q2) / np.linalg.norm(q))


def penalty_wk(w, w2, k: int, k2: int, k_max: int) -> float:
    """Eq. 4: ``alpha * dk / dk_max + beta * dW / (|Wm| sqrt 2)``."""
    w = np.atleast_2d(np.asarray(w, dtype=np.float64))
    w2 = np.atleast_2d(np.asarray(w2, dtype=np.float64))
    dk = max(0, int(k2) - int(k))
    dk_max = max(0, int(k_max) - int(k))
    term_k = dk / dk_max if dk_max > 0 else 0.0
    dw = float(np.sum(np.linalg.norm(w - w2, axis=1)))
    return ALPHA * term_k + BETA * dw / (len(w) * SQRT2)


def penalty_joint(q, q2, w, w2, k: int, k2: int, k_max: int) -> float:
    """Eq. 5: ``gamma * Eq.1 + lambda * Eq.4``."""
    return GAMMA * penalty_q(q, q2) + LAM * penalty_wk(w, w2, k, k2, k_max)


def mqp_projection(q, w, s_k: float, *, iters: int = 200) -> np.ndarray:
    """Projection of ``q`` onto ``{x : w.x <= s_k} ∩ [0, q]``.

    KKT: ``x(mu) = clip(q - mu w, 0, q)``; ``w . x(mu)`` falls with
    ``mu``, so bisection on the multiplier finds the active one.
    """
    q = np.asarray(q, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if float(w @ q) <= s_k:
        return q.copy()
    lo, hi = 0.0, 1.0
    while float(w @ np.clip(q - hi * w, 0.0, q)) > s_k:
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if float(w @ np.clip(q - mid * w, 0.0, q)) > s_k:
            lo = mid
        else:
            hi = mid
    return np.clip(q - hi * w, 0.0, q)


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(float(a) - float(b)) <= tol * max(1.0, abs(float(b)))


def _on_simplex(rows) -> bool:
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    return bool(np.all(rows >= -1e-12)
                and np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-6))


def expected_penalty(question: dict, result: dict, k_max: int) -> float:
    """The penalty an answer must carry, from its result fields: Eq. 1
    for MQP, Eq. 4 for MWK and Eq. 5 for MQWK."""
    q = np.asarray(question["q"], dtype=np.float64)
    w = np.asarray(question["why_not"], dtype=np.float64)
    k = int(question["k"])
    kind = result["kind"]
    if kind == "mqp":
        return penalty_q(q, result["q_refined"])
    if kind == "mwk":
        return penalty_wk(w, result["weights_refined"], k,
                          result["k_refined"], k_max)
    return penalty_joint(q, result["q_refined"], w,
                         result["weights_refined"], k,
                         result["k_refined"], k_max)


#: Answers whose penalty differs from the re-priced one in a known,
#: documented way, by kind; the run reports them on stderr.
DEVIATIONS: collections.Counter = collections.Counter()


def endpoint_deviation(question: dict, result: dict, penalty: float,
                       k_max: int) -> bool:
    """Whether an MQWK ``penalty`` is the known endpoint deviation.

    An MQWK answer that changes only ``q``, or only ``(Wm, k)``, is
    priced by the program without Eq. 5's ``gamma`` or ``lambda``
    weight (the ``FOUND`` line on ``audit_refinement`` in CHANGES.md).
    Such a penalty is tolerated and counted in :data:`DEVIATIONS`; an
    answer priced by Eq. 5 passes outright.
    """
    q = np.asarray(question["q"], dtype=np.float64)
    w = np.asarray(question["why_not"], dtype=np.float64)
    q_changed = bool(np.any(np.asarray(result["q_refined"]) != q))
    wk_changed = (bool(np.any(np.asarray(result["weights_refined"]) != w))
                  or int(result["k_refined"]) != int(question["k"]))
    if q_changed == wk_changed:
        return False
    weight = GAMMA if q_changed else LAM
    return _close(penalty,
                  expected_penalty(question, result, k_max) / weight)


def check_answer(points: np.ndarray, question: dict, answer: dict, *,
                 version: int | None = None) -> list[str]:
    """Every independent check one answer payload must pass.

    ``question`` and ``answer`` are wire dicts (``Question.to_dict`` /
    ``Answer.to_dict`` shapes); ``points`` is the catalogue at the
    version the answer claims (``version``, when given, must match).
    """
    problems: list[str] = []
    if answer.get("error") is not None:
        return [f"answer failed: {answer['error']}"]
    if version is not None and answer.get("catalogue_version") != version:
        problems.append(f"answer is stamped version "
                        f"{answer.get('catalogue_version')}, expected "
                        f"{version}")
    if not answer.get("valid"):
        problems.append("answer says it is not valid")
    result = answer.get("result") or {}
    kind = result.get("kind")
    if kind != question["algorithm"]:
        return problems + [f"result kind {kind!r} for a "
                           f"{question['algorithm']!r} question"]
    q = np.asarray(question["q"], dtype=np.float64)
    w = np.asarray(question["why_not"], dtype=np.float64)
    k = int(question["k"])
    r0 = ranks(points, w, q)
    if np.any(r0 <= k):
        problems.append(f"question is not a why-not question at this "
                        f"version (ranks {r0.tolist()}, k={k})")
        return problems
    k_max = int(r0.max())
    penalty = answer.get("penalty")
    expected = expected_penalty(question, result, k_max)
    if penalty is None or not _close(penalty, expected):
        if kind == "mqwk" and penalty is not None and endpoint_deviation(
                question, result, penalty, k_max):
            DEVIATIONS["mqwk endpoint priced without gamma/lambda"] += 1
        else:
            problems.append(f"penalty {penalty!r} differs from the "
                            f"re-priced {expected!r}")

    if kind in ("mqp", "mqwk"):
        q2 = np.asarray(result["q_refined"], dtype=np.float64)
        if np.any(q2 < -TOL) or np.any(q2 > q + TOL):
            problems.append("refined q leaves the box [0, q]")
    if kind == "mqp":
        q2 = np.asarray(result["q_refined"], dtype=np.float64)
        r2 = ranks(points, w, q2)
        if np.any(r2 > k):
            problems.append(f"refined q ranks {r2.tolist()} beyond k={k}")
        s = np.array([kth_score(points, row, k) for row in w])
        if not np.allclose(result["kth_scores"], s, rtol=0, atol=1e-9):
            problems.append("k-th scores differ from brute force")
        if len(w) == 1:
            x = mqp_projection(q, w[0], float(s[0]))
            gap = penalty_q(q, q2) - penalty_q(q, x)
            if (np.linalg.norm(x - q2) > PROJ_TOL * np.linalg.norm(q)
                    or gap > PROJ_PENALTY_TOL):
                problems.append(f"single-vector MQP q' {q2.tolist()} is "
                                f"not the projection {x.tolist()}")
    if kind in ("mwk", "mqwk"):
        w2 = np.asarray(result["weights_refined"], dtype=np.float64)
        k2 = int(result["k_refined"])
        if w2.shape != w.shape or not _on_simplex(w2):
            problems.append("refined why-not vectors leave the simplex")
            return problems
        if k2 < k:
            problems.append(f"refined k {k2} below k={k}")
        q2 = (q if kind == "mwk"
              else np.asarray(result["q_refined"], dtype=np.float64))
        r2 = ranks(points, w2, q2)
        if np.any(r2 > k2):
            problems.append(f"refined vectors rank q' at {r2.tolist()} "
                            f"beyond k'={k2}")
    if kind == "mwk":
        if int(result["k_max"]) != k_max:
            problems.append(f"k_max {result['k_max']} differs from the "
                            f"brute-force {k_max}")
        if float(answer["penalty"]) > ALPHA + TOL:
            problems.append("MWK penalty exceeds the pure-k bound alpha")
    return problems


def joint_price(points: np.ndarray, question: dict, answer: dict) -> float:
    """Eq. 5 price of an MQWK answer (original ``k'_max``)."""
    q = np.asarray(question["q"], dtype=np.float64)
    w = np.asarray(question["why_not"], dtype=np.float64)
    k = int(question["k"])
    k_max = int(ranks(points, w, q).max())
    r = answer["result"]
    return penalty_joint(q, r["q_refined"], w, r["weights_refined"], k,
                         r["k_refined"], k_max)


def check_mqwk_bounds(points: np.ndarray, question: dict, answer: dict,
                      mqp_answer: dict, mwk_answer: dict) -> list[str]:
    """MQWK's Eq. 5 price is at most ``gamma * MQP`` and ``lambda * MWK``
    for the same question, seed and ``|S|``."""
    problems = []
    price = joint_price(points, question, answer)
    if mqp_answer.get("error") is not None or \
            mwk_answer.get("error") is not None:
        return ["a single-sided reference answer failed"]
    if price > GAMMA * float(mqp_answer["penalty"]) + TOL:
        problems.append(f"MQWK price {price} exceeds gamma*MQP "
                        f"{GAMMA * float(mqp_answer['penalty'])}")
    if price > LAM * float(mwk_answer["penalty"]) + TOL:
        problems.append(f"MQWK price {price} exceeds lambda*MWK "
                        f"{LAM * float(mwk_answer['penalty'])}")
    return problems


def same_payload(a: dict, b: dict, *,
                 ignore=("elapsed",)) -> bool:
    """Byte equality of two answer payloads' canonical JSON, except the
    ``ignore`` fields (wall time differs by nature)."""
    import json

    def canon(payload):
        return json.dumps({key: value for key, value in payload.items()
                           if key not in ignore}, sort_keys=True)

    return canon(a) == canon(b)
