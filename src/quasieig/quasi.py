"""Quasi-eigenvalues of a real matrix over a self-dual cone.

The objects computed here are the two minimax values of the two-sided
Rayleigh quotient ``lam(u, v) = <A u, v> / <u, v>``:

    upper:  sup over u in the closed cone of  inf over v in the open cone,
    lower:  inf over v in the closed cone of  sup over u in the open cone,

together with the cone vectors attaining the outer optimization.

Reduction to linear programming
-------------------------------
Work in the cone's own axes (``B = U^T A U``, vectors ``w = U^T u`` on
the standard simplex).  For fixed ``w >= 0`` the inner infimum over the
open orthant has a closed form: it is ``-inf`` as soon as some zero
coordinate of ``w`` meets a negative coordinate of ``B w`` (mass of v on
that axis drives the quotient down without bound), and otherwise equals
the smallest ratio ``(B w)_i / w_i`` over the support.  Consequently

    upper(B) = max { t : (B - t I) w >= 0 for some simplex w },

because a feasible ``w`` certifies an inner infimum >= t, and any ``w``
with finite inner value s satisfies the constraint at t = s.  Feasibility
is monotone in t (decreasing t only relaxes the constraint), so the value
is found by a search on t, testing each t with the max-margin LP, whose
optimum ``eps*(t) = val(B - t I)``, the value of the matrix game
``B - t I``, is nonincreasing in t; the upper value is the top of its
zero set.  The lower value is the bottom of it,

    lower(B) = min { t : (B - t I)^T z <= 0 for some simplex z },

the reflection ``lower_C(A) = -upper_C(-A^T)``.  By LP duality
the game ``-(B - t I)^T`` has value ``-eps*(t)`` and optimal strategies
those of ``B - t I`` swapped, so one LP answers both tests: its primal
``w`` the upper one, its dual ``y`` the lower one.  Each value keeps its
own certified bracket, and every answer narrows it from the side it
certifies:

* upper feasible, ``min((B - t I) w) >= 0``: ``w`` lifts the lower end
  to its ratio ``min (B w)_i / w_i`` (a Collatz-Wielandt bound);
* upper infeasible: ``y`` lowers the upper end to
  ``t + max(B^T y - t y) / max(y)``;
* lower feasible, ``max((B - t I)^T y) <= 0``: ``y`` lowers the upper end
  to its ratio ``max (B^T y)_i / y_i``;
* lower infeasible: ``w`` lifts the lower end to
  ``t + min(B w - t w) / max(w)``;

each widened by the feasibility slack.  The next t, the midpoint or a
point by a kernel root of the last LP, lies in the first bracket wider
than ``max(tol / 2, 2 slack)``; a bracket is done at that width.
The symmetric-part eigenvalues of the searched matrix bracket both its
values, which seeds the search.

This reduction is validated against a grid oracle (``brute_minimax``),
never assumed.  It shares no code with the LP: it takes the minimax over
a simplex grid in float64, and finds the outer optimum along each grid
row by a binary search for the crossing of monotone quotients.

Strong components
-----------------
``B`` is solved along the strong components of its zero pattern, an
irreducible one as one block.  Put a source component first, ``B = [[B11,
B12], [0, B22]]``, with values ``u1, l1`` of ``B11`` and ``u2, l2`` of
``B22``, and ``w = (w1, w2)``.  By Ville's alternative ``lower > t`` iff
some simplex ``w`` has ``(B - t I) w > 0``.

1. ``u1 <= upper <= max(u1, u2)``: ``(w1, 0)`` passes if ``w1`` does, and
   a passing ``w`` has ``w2 = 0`` or ``w2`` passing on ``B22``.
2. ``min(l1, l2) <= lower <= l2``: the reflection of 1.
3. ``B12 >= 0``: ``upper = max(u1, u2)``, as ``(0, w2)`` passes if ``w2`` does.
4. ``B12 >= 0``, no zero row: ``lower = l2``, as a strict ``w2 > 0`` has ``B12 w2 > 0``.
5. ``B12 <= 0``: ``lower = min(l1, l2)``, the reflection of 3.
6. ``B12 <= 0``, no zero column: ``upper = u1``, the reflection of 4.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .cones import Cone, contains
from .errors import DimensionMismatch, NotInCone, NumericalBreakdown, UnsupportedDimension
from .lp import solve_max_eps
from .matcore import _strong_components, as_matrix, as_vector, operator_norm, symmetric_part_eigs

#: Local coordinates at or below this are treated as zero by the inner
#: closed forms; prevents catastrophic ratios at numerically-zero support.
SUPPORT_TOL = 1e-12

# Feasibility slack for the search, in units of the tested matrix's
# scale.  The decision recomputes the margin at the LP's vertex with one
# fresh matvec, so the only noise to absorb is matvec cancellation (and
# conjugation round-off in B = U^T A U); structural-zero rows evaluate
# exactly.  Any larger slack would inflate the value by its square root
# on instances whose infeasibility margin decays quadratically.
_FEAS_TOL = 256.0 * math.ulp(1.0)  # a float, so every cut built on it is one

# The two values by their side, in the order the search closes them:
# ``+1`` the upper value, ``-1`` the lower one.
_BOTH = (1, -1)


@dataclass(frozen=True, eq=False, slots=True)
class QuasiEigenResult:
    """Both quasi-eigenvalues with their certifying cone vectors.

    ``u_right`` is normalized to unit coordinate sum in the cone's axes,
    ``v_left`` to unit Euclidean norm.  ``is_saddle`` is the numerical
    reading of "both vectors interior and the two values coincide", in
    which case the common value is a genuine eigenvalue with ``u_right``,
    ``v_left`` its right and left eigenvectors (the residual fields report
    how well that holds).
    """

    lambda_upper: float
    lambda_lower: float
    u_right: np.ndarray = field(repr=False)
    v_left: np.ndarray = field(repr=False)
    u_interior: bool
    v_interior: bool
    is_saddle: bool
    eigen_residual_right: float
    eigen_residual_left: float
    tol: float


def _local_problem(a, cone: Cone):
    a = as_matrix(a)
    if a.shape[0] != cone.n:
        raise DimensionMismatch("matrix and cone dimensions differ")
    return cone.basis.T @ a @ cone.basis


def _require_in_cone(cone: Cone, x, what: str) -> np.ndarray:
    x = as_vector(x, cone.n)
    if not contains(cone, x, tol=1e-9).in_cone:
        raise NotInCone(f"{what} is not in the cone")
    return x


def _closed_inf(b: np.ndarray, w: np.ndarray, what: str) -> float:
    """The inner infimum's closed form in the cone's axes: ``-inf`` when
    some coordinate with ``w_j <= SUPPORT_TOL`` has ``(B w)_j <
    -SUPPORT_TOL max(1, max|B|)``, else the smallest ``(B w)_i / w_i``
    over the support.  The floor scales with ``B``, so the rounding in
    ``B w`` of a large matrix does not read as a negative coordinate."""
    small = w <= SUPPORT_TOL
    if small.all():
        raise NotInCone(f"{what} is numerically zero")
    bw = b @ w
    if np.any(bw[small] < -SUPPORT_TOL * max(1.0, float(np.max(np.abs(b))))):
        return -math.inf
    sup = ~small
    return float((bw[sup] / w[sup]).min())


def inner_inf(a, cone: Cone, u) -> float:
    """``inf over interior v`` of the quotient at fixed cone vector ``u``,
    in closed form on ``w = U^T u`` and ``B = U^T A U``."""
    u = _require_in_cone(cone, u, "u")
    return _closed_inf(_local_problem(a, cone), cone.to_local(u), "u")


def inner_sup(a, cone: Cone, v) -> float:
    """``sup over interior u`` of the quotient at fixed cone vector ``v``,
    by reflection: ``-inner_inf`` of ``-A^T`` at ``v``.  ``+inf`` when a
    zero coordinate of ``z = U^T v`` meets a positive coordinate of
    ``B^T z``."""
    v = _require_in_cone(cone, v, "v")
    return 0.0 - _closed_inf(-_local_problem(a, cone).T, cone.to_local(v), "v")


def _breakdown(what: str, lo: float, hi: float, tol: float, side: int) -> NumericalBreakdown:
    """A ``NumericalBreakdown`` naming the search's bracket in the value's
    own coordinates (the lower side keeps it negated and swapped)."""
    if side < 0:
        lo, hi = -hi, -lo
    return NumericalBreakdown(
        f"{what}: bracket [{lo:.17g}, {hi:.17g}], width {hi - lo:.3g}, tol {tol:.3g}"
    )


def _shift(b: np.ndarray, t: float):
    """``G = B - t I`` and the feasibility slack at ``t``."""
    # b - t I without forming I.  Subtracting 0 * t everywhere, as t * I
    # does off the diagonal, gives zero entries the same signs, and C
    # order the same summation order in later products.
    g = np.subtract(b, 0.0 * t, order="C")
    g.reshape(-1)[:: b.shape[0] + 1] -= t
    return g, _FEAS_TOL * max(1.0, float(np.maximum.reduce(np.abs(g), axis=None)))


def _answer(t: float, slack: float, w: np.ndarray, y: np.ndarray, gw: np.ndarray,
            gty: np.ndarray):
    """The upper side's answer at ``t`` from a simplex point ``w`` and a
    weight ``y >= 0`` on the rows of ``G = B - t I``, given ``gw = G w``
    and ``gty = G^T y``.

    Returns ``(w, bound)`` when the recomputed margin ``min(G w)`` is at
    least ``-slack``, with ``bound`` the ratio ``min (B w)_i / w_i`` over
    the support, a lower bound on the value.  Otherwise ``(None, bound)``
    with ``bound`` the dual cut ``t + (max(G^T y) + slack sum(y)) /
    max(y)``, an upper bound on every ``s`` the test accepts: a simplex
    ``w'`` with ``min((B - s I) w') >= -slack`` has ``-slack sum(y) <=
    y^T (B - s I) w' <= max(G^T y) + (t - s) max(y)``.  Without the slack
    term, rounding in ``G^T y`` could cut below accepted points once it
    exceeds ``tol`` (large ``||A||``).  The lower side's answer is this
    one on ``-G^T`` at ``-t`` with the roles of ``w`` and ``y`` swapped,
    so with ``gw = -G^T y`` and ``gty = -G w``.
    """
    if np.minimum.reduce(gw) >= -slack:
        sup = w > SUPPORT_TOL
        return w, t + float(np.minimum.reduce(gw[sup] / w[sup]))
    cut = float(np.maximum.reduce(gty)) + slack * float(np.add.reduce(y))
    return None, t + cut / float(np.maximum.reduce(y))


def _test(b: np.ndarray, t: float, memo: dict):
    """Test ``t`` for both values: ``{side: (vector, bound)}`` and its LP's
    kernel roots in ``t`` (``_kernel_roots`` on ``memo``), or None if no LP.

    Side ``+1`` asks whether ``G w >= 0`` has a simplex point ``w``, side
    ``-1`` whether ``G^T y <= 0`` has one, answered in its negated
    coordinates (see ``_answer``).  Pure strategies decide a side without
    an LP: a column with ``min(G e_j) >= -slack`` makes the upper side
    feasible, a row with ``max(G^T e_i) <= slack`` the lower side;
    ``min(G e_j) > slack`` certifies the lower side infeasible and
    ``max(G^T e_i) < -slack`` the upper side.  The LP runs only when a
    side is still undecided, and its primal ``w`` and dual ``y`` answer
    both tests: by LP duality ``(y, w)`` is an optimal pair of
    ``solve_max_eps(-G^T)``.
    """
    g, slack = _shift(b, t)
    cols, rows = np.minimum.reduce(g, axis=0), np.maximum.reduce(g, axis=1)
    j, i = int(cols.argmax()), int(rows.argmin())
    found = {}
    if cols[j] >= -slack:
        found[1] = (np.eye(1, g.shape[1], j)[0], float(b[j, j]))
    elif rows[i] < -slack:
        found[1] = (None, t + (float(rows[i]) + slack))
    if rows[i] <= slack:
        found[-1] = (np.eye(1, g.shape[0], i)[0], -float(b[i, i]))
    elif cols[j] > slack:
        found[-1] = (None, -t + (slack - float(cols[j])))
    if len(found) == 2:
        return found, None
    sol = solve_max_eps(g)
    # Negation is exact: -gty and -gx have the bits of (-G^T) y and (-G^T)^T x.
    x, y = sol.x_star, sol.y_star
    gx, gty = g @ x, g.T @ y
    if 1 not in found:
        found[1] = _answer(t, slack, x, y, gx, gty)
    if -1 not in found:
        found[-1] = _answer(-t, slack, y, x, -gty, -gx)
    return found, _kernel_roots(g, t, x, y, memo)


def _kernel_roots(g: np.ndarray, t: float, x: np.ndarray, y: np.ndarray, memo: dict) -> np.ndarray:
    """The ``t + s`` for the real ``s != 0`` with ``det(G_RS - s I_RS) = 0``,
    ``G = B - t I``, ``S`` and ``R`` the supports of ``x`` and ``y``, if ``|R|
    = |S|`` and ``G_RS`` is nonsingular: ``1 / mu`` for each real eigenvalue
    ``mu != 0`` of ``G_RS^-1 I_RS``.  While the kernel ``(R, S)`` stays
    optimal, the game's value at ``t + s`` is ``1 / (1^T (G_RS - s I_RS)^-1
    1)`` (Shapley and Snow 1950).  The roots do not depend on ``t``: ``memo``,
    one search's dict, keeps them by ``(y > 0, x > 0)`` as bytes, unless
    ``G_RS`` is singular at ``t``, as it need not be at the next."""
    r, s = y > 0.0, x > 0.0
    key = r.tobytes(), s.tobytes()
    roots = memo.get(key)
    if roots is None and np.count_nonzero(r) == np.count_nonzero(s):
        try:
            mu = np.linalg.eigvals(np.linalg.solve(g[r][:, s], np.eye(g.shape[0])[r][:, s]))
        except np.linalg.LinAlgError:
            return np.empty(0)
        real = (mu != 0.0) & (np.abs(mu.imag) <= 1e-9 * np.abs(mu))
        roots = memo[key] = t + 1.0 / mu.real[real]
    return np.empty(0) if roots is None else roots


def _most_interior(b: np.ndarray, t: float, floor: float, fallback: np.ndarray) -> np.ndarray:
    """The max-margin optimizer at ``t`` if it passes the test and its ratio
    ``t + min (G w)_i / w_i`` reaches ``floor``, else ``fallback``.  A cold
    LP on ``b``: at the value it can return any vertex of a degenerate
    optimal face; just inside, Bland's rule picks the most interior one."""
    g, slack = _shift(b, t)
    sol = solve_max_eps(g)
    w, bound = _answer(t, slack, sol.x_star, sol.y_star, g @ sol.x_star, g.T @ sol.y_star)
    return w if w is not None and bound >= floor else fallback


def _narrow(brackets: dict, vectors: dict, t: float, found: dict) -> None:
    """Narrow each side's bracket by its answer to the test at ``t``.

    In the side's coordinates ``ts`` (``t`` or ``-t``), a feasible answer
    lifts ``lo`` to ``min(hi, max(ts, bound))`` and keeps its vector when
    that raises ``lo``; an infeasible one lowers ``hi`` to ``max(lo,
    min(ts, bound))``.  Both are monotone clamps, so a test at any ``t``,
    inside the side's bracket or not, never widens it.
    """
    for side, (vec, bound) in found.items():
        lo, hi = brackets[side]
        ts = side * t
        if vec is None:
            brackets[side][1] = min(hi, max(lo, min(ts, bound)))
            continue
        lifted = min(hi, max(ts, bound))
        if lifted > lo:
            vectors[side], brackets[side][0] = vec, lifted


def _search(b: np.ndarray, tol: float, scale: float) -> tuple:
    """Both quasi-eigenvalues of ``b`` as ``((upper, w), (lower, z))``
    with ``w`` and ``z`` simplex vectors in the cone's axes; ``scale`` is
    ``max(1, ||A||)``.

    One stream of tests serves both values (see ``_test``).  Each side
    keeps a certified bracket ``[lo, hi]`` in its own coordinates, ``t``
    for the upper side (``+1``) and ``-t`` for the lower one (``-1``, see
    ``_narrow``).  Both start from ``[lo0, hi0]``, the symmetric-part
    eigenvalues of ``b`` padded by ``1e-6 scale``: at the low end the upper
    side must be feasible and the lower side infeasible, at the high end
    the reverse; if not, a ``NumericalBreakdown`` names that bracket.  The
    two are then closed in the order of ``_BOTH``, each down to width
    ``close = max(tol / 2, 2 _FEAS_TOL scale)``.  At ``tol / 2`` an upper
    and a lower value that coincide come out at most ``tol`` apart, within
    the margin of ``bounds_check``.  The other term bounds the slack of
    every test on the bracket (``max|B - t I|`` is about ``2 scale``
    there), so no test resolves ``t`` more finely; it is the larger from
    ``||A||`` about 4.4e3 at the default tol.  The next ``t`` in a side's
    bracket is its midpoint, unless the side's previous step at least
    halved it and a kernel root of the last LP-solved test lies strictly
    inside it (as in Crouzeix, Ferland and Schaible 1985): then the root
    ``r`` nearest the midpoint, moved ``2 close`` towards the farther end,
    if still strictly inside.  When ``r`` is the value, that test falls on
    a known side of it and moves that end to about ``r``.  Each kernel's
    roots are computed once per call, in a dict of the call keyed by the
    LP's supports (``_kernel_roots``).

    Each side's budget is ``2 L + 1`` steps, ``L = frexp(W / close)[1]``
    for its width ``W`` when its steps start (so ``W <= 2^L close``
    exactly), and no search reaches it.  Call a step halving when the
    ``halved`` flag reads it so.  No test widens a bracket, a side steps
    only while wider than ``close``, and a step after a non-halving one is
    a midpoint.  A float midpoint misses the exact one by at most ``eps
    scale`` (``[lo0, hi0]`` lies within ``1.01 scale`` of 0), so against a
    width above ``512 eps scale`` it leaves under ``1 / sqrt 2`` of it.
    Before step ``N`` let ``h`` steps halve, and ``m`` midpoints and ``s``
    root steps not.  Each of the ``s`` but the last is followed, past
    non-halving midpoints, by a halving midpoint of its own: ``s <= h +
    1``.  The widths give ``h + m / 2 < L``, so ``N - 1 = h + m + s <= 2 h
    + m + 1 <= 2 L``, with no halving added to ``L`` for float midpoints.
    A search past the budget has a defect; its error names the bracket.
    """
    # Factor 2 is the slack bound; a factor up to 8 leaves every bracket
    # at tol / 2 for ||A|| <= 1e3, a larger one coarsens large-scale values.
    close = max(0.5 * tol, 2.0 * _FEAS_TOL * scale)
    sym, pad = symmetric_part_eigs(b), 1e-6 * scale
    lo0, hi0 = float(sym[0]) - pad, float(sym[-1]) + pad
    brackets = {1: [lo0, hi0], -1: [-hi0, -lo0]}
    memo = {}
    ends = [_test(b, t, memo) for t in (lo0, hi0)]
    vectors = {}
    for side in _BOTH:
        # The answers at the side's own lo and hi (the lower side's lo is -hi0).
        (w, _), (wh, _) = (found[side] for found, _ in (ends if side > 0 else ends[::-1]))
        if w is None or wh is not None:
            raise _breakdown("symmetric-part bracket does not hold the value", *brackets[side], tol, side)
        vectors[side] = w
    for t, (found, _) in zip((lo0, hi0), ends):
        _narrow(brackets, vectors, t, found)
    # The kernel roots of the last LP-solved test, in t.
    roots = next((r for _, r in ends[::-1] if r is not None), np.empty(0))

    def width(side):
        return brackets[side][1] - brackets[side][0]

    for side in _BOTH:
        budget = 2 * math.frexp(width(side) / close)[1] + 1
        steps, halved = 0, True
        while width(side) > close:
            lo, hi = brackets[side]
            steps += 1
            if steps > budget:
                raise _breakdown(f"search exceeded its step budget of {budget} steps", lo, hi, tol, side)
            t = 0.5 * (lo + hi)
            inside = side * roots[(lo < side * roots) & (side * roots < hi)]
            if halved and inside.size:
                root = float(inside[np.abs(inside - t).argmin()])
                step = root - 2.0 * close if root - lo > hi - root else root + 2.0 * close
                if lo < step < hi:
                    t = step
            found, kernel = _test(b, side * t, memo)
            _narrow(brackets, vectors, side * t, found)
            if kernel is not None:
                roots = kernel
            halved = width(side) <= 0.5 * (hi - lo)
    return (brackets[1][0], vectors[1]), (0.0 - brackets[-1][0], vectors[-1])  # 0.0 -: no -0.0


def _split(b: np.ndarray, comps: list, tol: float, scale: float) -> dict:
    """Both values of ``b`` over its strong components ``comps``, sources
    first, as ``{side: (value, vector, exact)}``: ``B11`` is the first (all
    of an irreducible ``b``), a 1x1 block its entry and a larger one searched
    at ``b``'s scale.  A value not ``exact`` is the bound of rule 1 or 2."""
    head, rest = comps[0], comps[1:]
    if head.size == 1:
        first = ((float(b[head[0], head[0]]) + 0.0, np.ones(1)),) * 2  # + 0.0: no -0.0
    else:
        first = _search(b[np.ix_(head, head)], tol, scale)
    embed = np.eye(b.shape[0])[:, head]  # exact: each entry is a vec entry plus zeros
    parts = {side: (value, embed @ vec, True) for side, (value, vec) in zip(_BOTH, first)}
    if not rest:
        return parts
    tail = _split(b, rest, tol, scale)
    c = b[np.ix_(head, np.concatenate(rest))]
    nonneg, nonpos = (c >= 0.0).all(), (c <= 0.0).all()
    (up1, w1, _), (up2, _, up_exact) = parts[1], tail[1]
    (lo1, z1, _), (lo2, z2, lo_exact) = parts[-1], tail[-1]
    if nonneg:
        parts[1] = (up1, w1, up_exact) if up1 >= up2 else tail[1]
    else:
        parts[1] = (up1, w1, nonpos and c.any(axis=0).all())
    if nonpos:
        parts[-1] = (lo1, z1, lo_exact) if lo1 <= lo2 else tail[-1]
    else:
        parts[-1] = (lo2, z2, lo_exact and nonneg and c.any(axis=1).all())
    return parts


def quasi_pair(a, cone: Cone, tol: float = 1e-9) -> QuasiEigenResult:
    """Both quasi-eigenvalues with their certifying vectors, interiority
    flags, saddle status and eigen-residuals of ``B = U^T A U``, solved
    block by block (``_split``; an irreducible ``B`` is one block).  Each
    LP answers the upper test by its primal and the lower by its dual.

    The upper value is the lower end of its certified bracket (a
    Collatz-Wielandt ratio below, an LP-dual cut above), the lower value
    the upper end of its own.  Each bracket is at most ``close = max(tol
    / 2, 2 * 256 eps * max(1, ||A||))`` wide, the second term twice the
    search's largest feasibility slack.  ``u_right`` and ``v_left``
    certify the values: ``inner_inf(a, cone, u_right) >= lambda_upper -
    2 * tol * max(1, ||A||)`` and ``inner_sup(a, cone, v_left) <=
    lambda_lower + 2 * tol * max(1, ||A||)``.

    Cost: at most ``(s + f)(4 L + 4) + 2`` LPs, each of at most ``200 +
    50 (3 n + 3)`` pivots.  ``s`` counts the blocks wider than 1x1, and
    ``f = 1`` only when a value stays undecided, for a search on all of
    ``B`` (never for an irreducible ``B``).  ``L = ceil(log2((hi0 - lo0) /
    close))`` on the symmetric-part bracket of ``B``, which holds each
    block's.  A search costs two end tests and each side's ``2 L + 1``
    steps (see ``_search``), one LP each at most, and the two re-solves
    one each (none if n = 1).

    Caveat: when a searched block's margin decays like ``(t - value)^k``
    past the optimum (a perturbed Jordan block, a rotated cone), a test
    can accept a ``t`` up to ``slack^(1/k)`` above the upper value,
    ``slack = 256 eps``; the returned vector still certifies the true value.

    Interiority uses margin ``10 * tol`` to separate genuine interior
    vectors from boundary-within-noise ones.  The saddle reading allows
    the two values ``2 * tol * max(1, ||A||)`` apart, since the
    feasibility slack, and with it each bracket, grows with ``||A||``.
    """
    a = as_matrix(a)
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    b = _local_problem(a, cone)
    scale = max(1.0, operator_norm(a))
    parts = _split(b, _strong_components(b), tol, scale)
    if not all(exact for *_, exact in parts.values()):
        # A search decides each undecided side, unless its block bound is better.
        for side, found in zip(_BOTH, _search(b, tol, scale)):
            if not parts[side][2] and side * found[0] >= side * parts[side][0]:
                parts[side] = found
    (lam_up, w, *_), (lam_lo, z, *_) = parts[1], parts[-1]
    close = max(0.5 * tol, 2.0 * _FEAS_TOL * scale)
    if b.shape[0] > 1:  # a 1x1 B's simplex is the single point [1]
        w = _most_interior(b, lam_up - close, lam_up - tol * scale, w)
        z = _most_interior(-b.T, -lam_lo - close, -lam_lo - tol * scale, z)
    u = cone.from_local(w)
    v = cone.from_local(z)
    v = v / math.sqrt(v @ v)
    u_int = contains(cone, u, tol=10.0 * tol).in_interior
    v_int = contains(cone, v, tol=10.0 * tol).in_interior
    saddle = u_int and v_int and abs(lam_up - lam_lo) <= 2.0 * tol * scale
    # Residuals on A / 2^e, max|A| / 2^e in [1/2, 1): exact, and no overflow.
    e = math.frexp(float(np.maximum.reduce(np.abs(a), axis=None)))[1]
    s = np.ldexp(a, -e)
    r_r, r_l = s @ u - math.ldexp(lam_up, -e) * u, s.T @ v - math.ldexp(lam_lo, -e) * v
    res_r = float(np.ldexp(math.sqrt(r_r @ r_r) / math.sqrt(u @ u), e))
    res_l = float(np.ldexp(math.sqrt(r_l @ r_l) / math.sqrt(v @ v), e))
    return QuasiEigenResult(
        lambda_upper=lam_up,
        lambda_lower=lam_lo,
        u_right=u,
        v_left=v,
        u_interior=u_int,
        v_interior=v_int,
        is_saddle=saddle,
        eigen_residual_right=res_r,
        eigen_residual_left=res_l,
        tol=tol,
    )


def _grid_rows(n: int, k: int):
    """The simplex grid of step ``1/k`` as segments ``w0 + j d``, ``j = 0..last``,
    in units of ``1/k``: ``(w0, d, last)`` with one column of ``w0`` and one
    ``last`` per segment.  For n = 3 a segment per first coordinate ``i``,
    ``w0 = (i, 0, k - i)`` and ``d = (0, 1, -1)``; for n = 2 the one
    segment ``w0 = (0, k)``, ``d = (1, -1)``."""
    if n == 2:
        return np.array([[0], [k]]), np.array([[1], [-1]]), np.array([k])
    i = np.arange(k + 1)
    return np.stack([i, np.zeros_like(i), k - i]), np.array([[0], [1], [-1]]), k - i


def _grid_max_min(k: int, num: np.ndarray, den: np.ndarray) -> float:
    """``max`` over the points ``w`` of the simplex grid of step ``1/k`` of
    ``min`` over rows ``c`` of ``(num_c . w) / (den_c . w)``, each
    denominator positive.

    On a segment each quotient is ``(p + q j) / (r + s j)``, nondecreasing
    where ``q r - p s >= 0`` and nonincreasing elsewhere.  With ``inc`` the
    minimum of the first group and ``dec`` of the second, the segment's
    minimum ``min(inc, dec)`` rises while ``inc <= dec`` and falls after, so
    its largest value is at the last such ``j`` (0 if none) or the next one.
    A binary search over ``j``, run on all segments at once, finds that ``j``.
    """
    w0, d, last = _grid_rows(num.shape[1], k)

    def quotients(j):
        w = (w0 + d * j) / k  # the exact grid coordinates, one column per segment
        return (num @ w) / (den @ w)

    p, r, q, s = num @ w0 / k, den @ w0 / k, num @ d / k, den @ d / k
    rising = q * r - p * s >= 0.0
    lo, hi = np.zeros_like(last), last
    for _ in range(int(last.max()).bit_length()):
        mid = (lo + hi + 1) // 2
        f = quotients(mid)
        up = np.where(rising, f, np.inf).min(axis=0) <= np.where(rising, np.inf, f).min(axis=0)
        lo, hi = np.where(up, mid, lo), np.where(up, hi, np.maximum(mid - 1, lo))
    ends = (quotients(j).min(axis=0) for j in (lo, np.minimum(lo + 1, last)))
    return float(np.maximum(*ends).max())


def brute_minimax(a, cone: Cone, grid_k: int) -> tuple[float, float]:
    """Grid oracle for the upper minimax pair, independent of the LP path.

    Returns ``(sup-inf, inf-sup)`` of the quotient with the outer variable
    on a ``grid_k``-resolution grid of the closed cone and the inner
    variable confined to the simplex shrunk by margin ``1/(10 grid_k)``.
    Along any segment the quotient is monotone or constant (differentiate
    the one-parameter restriction), so each inner optimum over its convex
    domain is attained at an extreme point and is evaluated there exactly.
    The same fact makes each outer optimum along a grid row a crossing of
    monotone quotients, which a binary search finds (``_grid_max_min``):
    the result is the exact optimum over the grid up to float64 rounding,
    in O(grid_k log grid_k) work and O(grid_k) memory, and scaling ``A`` by
    a power of two scales it exactly.  Only the outer grid contributes
    error, O(||A|| / grid_k), documented not certified.
    """
    if isinstance(grid_k, bool) or not isinstance(grid_k, numbers.Integral):
        raise ValueError("grid_k must be an integer")
    if grid_k < 10:
        raise ValueError("grid_k must be at least 10")
    a = as_matrix(a)
    n = a.shape[0]
    if n not in (2, 3):
        raise UnsupportedDimension("brute_minimax supports n in {2, 3}")
    b = _local_problem(a, cone)
    margin = 1.0 / (10.0 * grid_k)
    # Symmetric; row t is the shrunk simplex's vertex z_t, and it maps the
    # simplex onto the shrunk one (w -> margin + (1 - n margin) w).
    shrunk = margin + (1.0 - n * margin) * np.eye(n)
    # sup over the grid of the inf over the shrunk simplex, attained at a
    # vertex: min over t of <B w, z_t> / <w, z_t>.
    sup_inf = _grid_max_min(grid_k, shrunk @ b, shrunk)
    # inf over the shrunk grid z of the sup over the closed cone, attained
    # at an extreme ray e_i: max over i of (B^T z)_i / z_i.
    inf_sup = 0.0 - _grid_max_min(grid_k, -(b.T @ shrunk), shrunk)
    return sup_inf, inf_sup
