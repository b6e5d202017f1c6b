"""Dense simplex kernel for the max-margin feasibility LP.

The one problem solved here is

    maximize    eps
    subject to  G x >= eps * 1,   sum(x) = 1,   x >= 0,

for a finite m-by-k matrix G.  Its optimum ``eps_star`` is the best
worst-row margin achievable on the simplex; the sign of ``eps_star``
answers "does G x >= 0 admit a simplex point?", which is the feasibility
question the quasi-eigenvalue search asks at every step.  Its dual,

    minimize    mu
    subject to  G^T y <= mu * 1,   sum(y) = 1,   y >= 0,

has the same optimum; the optimal ``y`` comes back with the solution,
so one solve bounds a caller's question from above and below.

Implementation notes:

* Primal simplex with Bland's anti-cycling rule on the standard equality
  form, variables ordered [x_1..x_k, eps+, eps-, s_1..s_m].  Bland's rule
  makes the returned optimal vertex deterministic, which callers rely on
  for reproducible quasi-eigenvector tie-breaking.
* No phase-1: the vertex x = e_j maximizing the worst row margin, with
  eps set to that margin and the binding row's slack left nonbasic, is a
  basic feasible solution whose basis matrix is provably nonsingular.
* G is scaled by one scalar (its largest entry magnitude) before
  pivoting, so pivot tolerances are scale-free; the scalar is undone on
  return, which keeps ``eps_star`` and ``x_star`` exactly those of the
  stated problem.
* The tableau parts fixed by ``(m, k)`` (the ``-I`` slack block, the
  eps columns, the simplex row, the cost vector and the starting bases)
  are built once per shape, read-only, and copied per solve; G enters
  the copy already scaled.  The reduced costs are the tableau's last
  (objective) row, so one rank-one update per pivot carries them.
* The problem is always feasible and bounded for finite G, so every
  successful return is optimal; pivoting pathologies raise
  ``NumericalBreakdown`` instead of returning a bogus certificate.
  Each solution reports its ``pivots`` and final ``basis``.
* Each pivot is chosen on Python floats, from one ``tolist()`` each of
  the reduced costs, the entering column and the rhs, with a list copy
  of the basis: on these few entries a scan costs less than the dozen
  numpy calls it replaces, and IEEE comparisons and divisions give the
  same bits.  The rank-one update and the re-derivations stay in numpy.
  The final optimality re-check reads ``min(reduced.tolist())``, and the
  tear-down ``x`` and ``eps`` from one ``rhs.tolist()`` over that list.
* The starting system goes straight to the LAPACK gufunc under
  ``np.linalg.solve``.  Its basis is nonsingular and G finite (checked
  first), so the wrapper's singular and non-finite errors cannot fire.
  (``quasi._kernel_roots`` turns those into "no root" for its pencils.)
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionMismatch, NonFinite, NumericalBreakdown

_REDCOST_TOL = 1e-11
_PIVOT_TOL = 1e-11
# A row joins the Bland tie-break group only if choosing it damages every
# row's feasibility by at most this much: leaving at ratio r drives row i to
# (ratio_i - r) * col[i], so the group is the rows with ratio at most
# min_i(ratio_i + tol / col[i]), which holds the minimum-ratio row.  A fixed
# ratio window would be amplified arbitrarily by a large col[i] (the
# quasi-eigenvalue search drives these LPs nearly degenerate).
_TIE_DAMAGE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class LpSolution:
    """An optimal primal-dual pair of the max-margin LP.

    ``x_star`` is the optimal simplex point.  ``y_star`` is the optimal
    dual, one weight per row of G: ``y_star >= 0``, ``sum(y_star) = 1``
    and ``max(G^T y_star) = eps_star``, so every simplex point ``x`` has
    ``min(G x) <= y_star^T G x <= eps_star``.  ``pivots`` counts the
    pivots from the starting vertex; ``basis[r]`` is the variable basic
    in tableau row ``r`` (G's rows, then the simplex row) at the optimum.
    """

    eps_star: float
    x_star: np.ndarray = field(repr=False)
    y_star: np.ndarray = field(repr=False)
    pivots: int
    basis: np.ndarray = field(repr=False)


@lru_cache(maxsize=32)
def _template(m: int, k: int):
    """The read-only tableau with a zero G block, the cost vector, and the
    starting bases: row ``i`` lists the slacks but row ``i``'s, after two
    entries for the caller to set."""
    nvar = k + 2 + m
    a = np.zeros((m + 2, nvar + 1))  # last column is the rhs
    a[:m, k: k + 2] = -1.0, 1.0
    a[:m, k + 2: nvar] = -np.eye(m)
    a[m, :k] = 1.0
    a[m, nvar] = 1.0
    cost = np.zeros(nvar)
    cost[k: k + 2] = -1.0, 1.0  # maximize eps+ - eps-
    slack = np.arange(k + 2, nvar)
    starts = np.array([np.r_[0, 0, slack[:i], slack[i + 1:]] for i in range(m)])
    for part in (a, cost, starts):
        part.flags.writeable = False
    return a, cost, starts


def solve_max_eps(problem) -> LpSolution:
    """Solve the max-margin LP for ``problem``, an (m, k) array G.

    Guarantees on return: ``x_star >= -1e-12`` componentwise,
    ``|sum(x_star) - 1| <= 1e-10``, and ``min(G @ x_star) >= eps_star - 1e-9``.
    ``y_star`` is read off the final reduced costs of the slack columns
    (the row duals); no extra solve runs.  A G that is empty or has more
    than two axes raises ``DimensionMismatch``; a vector is one row.
    """
    g = np.atleast_2d(np.asarray(problem, dtype=float))
    if g.ndim != 2 or not g.size:
        raise DimensionMismatch(f"G must be a nonempty matrix, got shape {np.shape(problem)}")
    scale = float(np.maximum.reduce(np.abs(g), axis=None)) or 1.0
    if not scale < math.inf:  # NaN fails this too
        raise NonFinite("constraint matrix must be finite")
    m, k = g.shape
    a, cost, starts = _template(m, k)
    tableau = a.copy()
    gs = np.divide(g, scale, out=tableau[:m, :k])

    # Variable layout: x (0..k-1), eps+ (k), eps- (k+1), slacks (k+2 ..).
    nvar, nrow = k + 2 + m, m + 1
    # Views that the in-place pivots keep current.
    body, rhs, reduced = tableau[:nrow], tableau[:nrow, nvar], tableau[nrow, :nvar]

    # Starting vertex: the best single x-coordinate, eps at its worst row
    # margin, that row's slack nonbasic at zero.
    col_worst = np.minimum.reduce(gs, axis=0)
    j0 = int(col_worst.argmax())
    basis = starts[int(gs[:, j0].argmin())].copy()
    basis[0] = j0
    basis[1] = k if col_worst[j0] >= 0.0 else k + 1

    # np.linalg.solve's gufunc, unchecked: the starting basis is nonsingular.
    body[...] = _umath_linalg.solve(body[:, basis], body)
    reduced[...] = cost - cost[basis] @ body[:, :nvar]
    heads = basis.tolist()  # the basis again, as Python ints for the pivot choice

    budget = 200 + 50 * (nvar + nrow)
    pivots = 0
    for _ in range(budget):
        neg_tol = -_REDCOST_TOL
        for enter, r in enumerate(reduced.tolist()):
            if r < neg_tol:  # Bland: the lowest eligible index
                break
        else:
            # The incremental updates can drift; re-derive before accepting.
            reduced[...] = cost - cost[basis] @ body[:, :nvar]
            if min(reduced.tolist()) >= -_REDCOST_TOL:
                break
            continue

        # Each pivot row's ratio, and the tie group's bound min(ratio + tol / c).
        ratios, bound, col = {}, math.inf, tableau[:nrow, enter].tolist()
        for i, (c, r) in enumerate(zip(col, rhs.tolist())):
            if c > _PIVOT_TOL:
                ratio = ratios[i] = (r if r > 0.0 else 0.0) / c
                if ratio + _TIE_DAMAGE_TOL / c < bound:
                    bound = ratio + _TIE_DAMAGE_TOL / c
        if not ratios:
            raise NumericalBreakdown("unbounded pivot direction in max-eps LP")
        near = [i for i, ratio in ratios.items() if ratio <= bound]
        # Bland tie-break: the lowest basic variable among the tied rows.
        leave_row = min(near, key=heads.__getitem__) if len(near) > 1 else near[0]

        piv_row = tableau[leave_row] / col[leave_row]
        tableau -= tableau[:, enter, None] * piv_row
        tableau[leave_row] = piv_row
        basis[leave_row] = heads[leave_row] = enter
        pivots += 1
    else:
        raise NumericalBreakdown("max-eps LP exceeded its pivot budget")

    value = dict(zip(heads, rhs.tolist()))  # each basic variable's; the others are 0
    if min(value.values()) < -1e-9:
        raise NumericalBreakdown("max-eps LP lost primal feasibility")

    x = [value.get(j, 0.0) for j in range(k)]
    x = np.array([0.0 if -1e-12 < v < 0.0 else v for v in x])
    eps = (value.get(k, 0.0) - value.get(k + 1, 0.0)) * scale
    # A slack column is -e_i with cost 0, so its reduced cost is the dual
    # of row i; the eps+/eps- columns force these duals to sum to 1.
    # Optimality leaves them >= -_REDCOST_TOL; clip that noise.
    y = np.maximum(reduced[k + 2:], 0.0)
    return LpSolution(eps_star=eps, x_star=x, y_star=y, pivots=pivots, basis=basis)
