"""A reference implementation of the max-margin LP kernel, for tests.

It is ``quasieig.lp.solve_max_eps`` written in its plainest form, with
its tolerances frozen: a list basis with a ``min(key=...)`` Bland
tie-break, ``np.nonzero`` scans and an ``np.outer`` pivot update.  The
library's kernel does the same arithmetic with fewer numpy calls per
pivot, and ``test_lp.py`` checks that it returns the same bits.
"""

import numpy as np

_REDCOST_TOL = 1e-11
_PIVOT_TOL = 1e-11
_TIE_DAMAGE_TOL = 1e-12


def solve_max_eps_reference(problem):
    """``(eps_star, x_star, y_star)`` of the max-margin LP for G = ``problem``."""
    g = np.atleast_2d(np.asarray(problem, dtype=float))
    m, k = g.shape

    scale = float(np.max(np.abs(g)))
    gs = g / scale if scale > 0.0 else g.copy()

    nvar = k + 2 + m
    nrow = m + 1
    a = np.zeros((nrow, nvar + 1))
    a[:m, :k] = gs
    a[:m, k] = -1.0
    a[:m, k + 1] = 1.0
    a[:m, k + 2: nvar] = -np.eye(m)
    a[m, :k] = 1.0
    a[m, nvar] = 1.0
    cost = np.zeros(nvar)
    cost[k] = -1.0
    cost[k + 1] = 1.0

    col_worst = gs.min(axis=0)
    j0 = int(np.argmax(col_worst))
    mu = float(col_worst[j0])
    i0 = int(np.argmin(gs[:, j0]))
    eps_var = k if mu >= 0.0 else k + 1
    basis = [j0, eps_var] + [k + 2 + i for i in range(m) if i != i0]

    tableau = np.linalg.solve(a[:, basis], a)
    reduced = cost - cost[basis] @ tableau[:, :nvar]

    budget = 200 + 50 * (nvar + nrow)
    for _ in range(budget):
        candidates = np.nonzero(reduced < -_REDCOST_TOL)[0]
        if candidates.size == 0:
            reduced = cost - cost[basis] @ tableau[:, :nvar]
            if not (reduced < -_REDCOST_TOL).any():
                break
            continue
        enter = int(candidates[0])

        col = tableau[:, enter]
        rows = np.nonzero(col > _PIVOT_TOL)[0]
        if rows.size == 0:
            raise RuntimeError("unbounded pivot direction in max-eps LP")
        ratios = np.maximum(tableau[rows, nvar], 0.0) / col[rows]
        near = rows[ratios <= (ratios + _TIE_DAMAGE_TOL / col[rows]).min()]
        leave_row = int(min(near, key=lambda i: basis[i]))

        piv_row = tableau[leave_row] / tableau[leave_row, enter]
        tableau -= np.outer(tableau[:, enter], piv_row)
        tableau[leave_row] = piv_row
        basis[leave_row] = enter
        reduced = reduced - reduced[enter] * piv_row[:nvar]
    else:
        raise RuntimeError("max-eps LP exceeded its pivot budget")

    values = tableau[:, nvar]
    if values.min() < -1e-9:
        raise RuntimeError("max-eps LP lost primal feasibility")

    full = np.zeros(nvar)
    full[basis] = values
    x = full[:k].copy()
    x[(x < 0.0) & (x > -1e-12)] = 0.0
    eps = float(full[k] - full[k + 1]) * (scale if scale > 0.0 else 1.0)
    y = np.maximum(reduced[k + 2:], 0.0)
    return eps, x, y
