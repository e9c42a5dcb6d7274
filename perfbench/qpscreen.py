"""Input screen for MQP-type questions, independent of the program.

MQP solves ``min ||x - q||^2`` s.t. ``Wm x <= s_k``, ``0 <= x <= q``
with an interior-point method.  On a small share of inputs that
method stalls at its iteration cap and the question fails (see the
``FOUND`` line on the MQP solver in CHANGES.md).  Which inputs do so
is a property of the method's arithmetic, not of the question's
geometry, so the seeded question stream would otherwise carry a
failure on some seeds and not on others.

:func:`stalls` replays that method, as it stood when this benchmark was
defined, with the benchmark's own copy of its arithmetic, and the
workloads draw an MQP or MQWK question again while it stalls.  The
copy is frozen on purpose: the question stream then depends on the
seed only, not on the version of the program under test, so a change
to the program's solver sees the same questions as its parent and any
new failure on them counts in ``failed``.  The copy is only ever used
to pick inputs; no answer is checked against it.  The paper-mix
workload also asks one fixed question on which the method stalls, so
the defect stays visible in every run's ``failed`` count.
"""

from __future__ import annotations

import numpy as np

#: The method's settings when the benchmark was defined.
TOL = 1e-8
MAX_ITER = 100


def _newton(g, s, z, r_dual, r_prim, r_cent, h_mat):
    w = z / s
    r2 = -r_prim + r_cent / z
    reduced = h_mat + (g.T * w) @ g
    rhs = -r_dual + g.T @ (w * r2)
    try:
        dx = np.linalg.solve(reduced, rhs)
    except np.linalg.LinAlgError:
        dx = np.linalg.lstsq(reduced, rhs, rcond=None)[0]
    dz = w * (g @ dx - r2)
    ds = -(r_cent + s * dz) / z
    return dx, dz, ds


def _step(s, ds, z, dz, tau: float) -> float:
    alpha = 1.0
    if (ds < 0).any():
        alpha = min(alpha, float(np.min(-s[ds < 0] / ds[ds < 0])) * tau)
    if (dz < 0).any():
        alpha = min(alpha, float(np.min(-z[dz < 0] / dz[dz < 0])) * tau)
    return max(min(alpha, 1.0), 0.0)


def stalls(q, wm, kth_scores) -> bool:
    """Whether the frozen method stops without converging on the MQP
    program of ``q``, the why-not rows ``wm`` and their k-th scores."""
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    n = len(q)
    eye = np.eye(n)
    g = np.vstack([np.atleast_2d(np.asarray(wm, dtype=np.float64)),
                   eye, -eye])
    h = np.concatenate([np.asarray(kth_scores, dtype=np.float64), q,
                        -np.zeros(n)])
    h_mat, c_vec = 2.0 * eye, -2.0 * q
    m = len(h)
    x = np.zeros(n)
    s = np.maximum(h - g @ x, 1.0)
    z = np.ones(m)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(MAX_ITER):
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(s))
                    and np.all(np.isfinite(z))):
                return True
            r_dual = h_mat @ x + c_vec + g.T @ z
            r_prim = g @ x + s - h
            mu = float(s @ z) / m
            if (np.max(np.abs(r_dual)) < TOL
                    and np.max(np.abs(r_prim)) < TOL and mu < TOL):
                return False
            dx_a, dz_a, ds_a = _newton(g, s, z, r_dual, r_prim, s * z,
                                       h_mat)
            alpha_a = _step(s, ds_a, z, dz_a, 1.0)
            mu_aff = float((s + alpha_a * ds_a) @ (z + alpha_a * dz_a)) / m
            sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.1
            r_cent = s * z + ds_a * dz_a - sigma * mu
            dx, dz, ds = _newton(g, s, z, r_dual, r_prim, r_cent, h_mat)
            alpha = _step(s, ds, z, dz, 0.995)
            x = x + alpha * dx
            z = np.maximum(z + alpha * dz, 1e-14)
            s = np.maximum(s + alpha * ds, 1e-14)
    return True
