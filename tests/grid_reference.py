"""A reference implementation of the grid oracle, for tests.

It is ``quasieig.quasi.brute_minimax`` written in its plainest form: every
point of the simplex grid of step ``1/grid_k``, with exact coordinates
``(i, j, grid_k - i - j) / grid_k``, evaluated densely in float64.  It
forms ``B = U^T A U`` from ``cone.basis`` itself and imports nothing from
``quasieig.quasi``, so it shares no code with the library's per-row search.
Memory grows as ``grid_k ** (n - 1)``; keep ``grid_k`` small at n = 3.
"""

import numpy as np


def brute_minimax_reference(a, cone, grid_k):
    """``(sup-inf, inf-sup)`` of the quotient over the full grid: the outer
    variable on the closed simplex grid, the inner one at the vertices of
    the simplex shrunk by margin ``1/(10 grid_k)`` (sup-inf) or at the
    extreme rays (inf-sup), where the inner optima are attained."""
    a = np.asarray(a, dtype=float)
    n, k = a.shape[0], grid_k
    b = cone.basis.T @ a @ cone.basis
    if n == 2:
        points = [(j, k - j) for j in range(k + 1)]
    else:
        points = [(i, j, k - i - j) for i in range(k + 1) for j in range(k + 1 - i)]
    w = np.array(points, dtype=float) / k
    margin = 1.0 / (10.0 * k)
    verts = margin + (1.0 - n * margin) * np.eye(n)  # row t is the vertex z_t

    # <B w, z_t> / <w, z_t> for every grid point w and vertex z_t.
    sup_inf = ((w @ b.T @ verts.T) / (w @ verts.T)).min(axis=1).max()
    # (B^T z)_i / z_i for every shrunk grid point z.
    z = margin + (1.0 - n * margin) * w
    inf_sup = ((z @ b) / z).max(axis=1).min()
    return float(sup_inf), float(inf_sup)
