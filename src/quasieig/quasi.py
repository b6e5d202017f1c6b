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
is found by bisection, testing each t with the max-margin LP.  The lower
value mirrors this with ``(B^T - t I) z <= 0`` and downward bisection.
The symmetric-part eigenvalues bracket both values, which seeds the
bisection.

This reduction is validated against a brute-force grid oracle
(``brute_minimax``), never assumed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .cones import Cone, contains
from .errors import (
    DegeneratePairing,
    DimensionMismatch,
    NotInCone,
    NumericalBreakdown,
    UnsupportedDimension,
)
from .lp import solve_max_eps
from .matcore import MAX_EIG_DIM, as_matrix, as_vector, operator_norm, symmetric_part_eigs

#: Local coordinates at or below this are treated as zero by the inner
#: closed forms; prevents catastrophic ratios at numerically-zero support.
SUPPORT_TOL = 1e-12

# Feasibility slack for the bisection, in units of the tested matrix's
# scale.  The decision recomputes the margin at the LP's vertex with one
# fresh matvec, so the only noise to absorb is matvec cancellation (and
# conjugation round-off in B = U^T A U); structural-zero rows evaluate
# exactly.  Any larger slack would inflate the value by its square root
# on instances whose infeasibility margin decays quadratically.
_FEAS_TOL = 256.0 * np.finfo(float).eps

_MAX_BISECT_STEPS = 200


@dataclass(frozen=True, eq=False)
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


def rayleigh(a, u, v) -> float:
    """The two-sided Rayleigh quotient ``<A u, v> / <u, v>``."""
    a = as_matrix(a)
    u = as_vector(u, a.shape[0])
    v = as_vector(v, a.shape[0])
    den = float(u @ v)
    if abs(den) <= 1e-14 * np.linalg.norm(u) * np.linalg.norm(v):
        raise DegeneratePairing("pairing <u, v> is numerically zero")
    return float(a @ u @ v) / den


def _local_problem(a, cone: Cone):
    a = as_matrix(a)
    if a.shape[0] != cone.n:
        raise DimensionMismatch("matrix and cone dimensions differ")
    u = cone.basis
    return u.T @ a @ u if cone.rotation is not None else a


def _require_in_cone(cone: Cone, x, what: str) -> np.ndarray:
    x = as_vector(x, cone.n)
    if not contains(cone, x, tol=1e-9).in_cone:
        raise NotInCone(f"{what} is not in the cone")
    return x


def inner_inf(a, cone: Cone, u, support_tol: float = SUPPORT_TOL) -> float:
    """``inf over interior v`` of the quotient at fixed cone vector ``u``.

    Closed form: with ``w = U^T u`` and ``B = U^T A U``, the value is
    ``-inf`` when some coordinate with ``w_j <= support_tol`` has
    ``(B w)_j < -support_tol``, else the smallest ``(B w)_i / w_i`` over
    the support.
    """
    u = _require_in_cone(cone, u, "u")
    b = _local_problem(a, cone)
    w = cone.to_local(u)
    bw = b @ w
    small = w <= support_tol
    if small.all():
        raise NotInCone("u is numerically zero")
    if np.any(bw[small] < -support_tol):
        return -math.inf
    sup = ~small
    return float((bw[sup] / w[sup]).min())


def inner_sup(a, cone: Cone, v, support_tol: float = SUPPORT_TOL) -> float:
    """Mirror of ``inner_inf``: ``sup over interior u`` at fixed ``v``,
    using ``B^T``; ``+inf`` when a zero coordinate of ``z`` meets a
    positive coordinate of ``B^T z``."""
    v = _require_in_cone(cone, v, "v")
    b = _local_problem(a, cone)
    z = cone.to_local(v)
    btz = b.T @ z
    small = z <= support_tol
    if small.all():
        raise NotInCone("v is numerically zero")
    if np.any(btz[small] > support_tol):
        return math.inf
    sup = ~small
    return float((btz[sup] / z[sup]).max())


def _bracket(a) -> tuple[float, float]:
    sym = symmetric_part_eigs(a)
    pad = 1e-6 * max(1.0, operator_norm(a))
    return float(sym[0]) - pad, float(sym[-1]) + pad


def _breakdown(what: str, lo: float, hi: float, tol: float) -> NumericalBreakdown:
    """A ``NumericalBreakdown`` naming the bracket at which the bisection
    stopped."""
    return NumericalBreakdown(
        f"{what}: bracket [{lo:.17g}, {hi:.17g}], width {hi - lo:.3g}, tol {tol:.3g}"
    )


def _vertex_if_feasible(g: np.ndarray, best: bool = False) -> np.ndarray | None:
    """A simplex point with (recomputed) margin ``min(G x) >= -slack``,
    or None.  Unless ``best`` is set, a single-coordinate vertex that
    already clears the slack is returned without running the LP (the
    optimum can only be better, so the accept/reject decision is
    unchanged); ``best`` forces the max-margin optimizer."""
    slack = _FEAS_TOL * max(1.0, float(np.max(np.abs(g))))
    if not best:
        col_margins = g.min(axis=0)
        j = int(np.argmax(col_margins))
        if col_margins[j] >= -slack:
            e = np.zeros(g.shape[1])
            e[j] = 1.0
            return e
    sol = solve_max_eps(g)
    margin = float((g @ sol.x_star).min())
    return sol.x_star if margin >= -slack else None


def _feasible_upper(b: np.ndarray, t: float, best: bool = False) -> np.ndarray | None:
    return _vertex_if_feasible(b - t * np.eye(b.shape[0]), best)


def _feasible_lower(bt: np.ndarray, t: float, best: bool = False) -> np.ndarray | None:
    return _vertex_if_feasible(t * np.eye(bt.shape[0]) - bt, best)


def upper_quasi_eigenvalue(a, cone: Cone, tol: float = 1e-9) -> tuple[float, np.ndarray]:
    """The upper quasi-eigenvalue and a right quasi-eigenvector.

    Returns ``(value, u)`` with the value within ``tol`` of the true
    supremum and ``u`` (unit coordinate sum in cone axes) certifying it:
    ``inner_inf(a, cone, u) >= value - 2 * tol``.

    Caveat: on degenerate instances whose infeasibility margin decays
    quadratically past the optimum (nilpotent-type reducible structure,
    e.g. a single Jordan block of 0), the value can overshoot by up to
    about sqrt of the feasibility slack, ~2e-7; the returned vector still
    certifies the true value from below.  Generic and irreducible inputs
    approach linearly and meet the stated tolerance.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    a = as_matrix(a)
    if a.shape[0] > MAX_EIG_DIM:
        raise UnsupportedDimension(f"restricted to n <= {MAX_EIG_DIM}")
    b = _local_problem(a, cone)
    lo, hi = _bracket(a)
    w = _feasible_upper(b, lo)
    for _ in range(3):
        if w is not None:
            break
        lo -= 4.0 * (hi - lo)
        w = _feasible_upper(b, lo)
    if w is None:
        raise _breakdown("no feasible lower bracket for the upper value", lo, hi, tol)
    for _ in range(3):
        if _feasible_upper(b, hi) is None:
            break
        hi += 4.0 * (hi - lo)
    steps = 0
    while hi - lo > tol:
        steps += 1
        if steps > _MAX_BISECT_STEPS:
            raise _breakdown(
                f"bisection exceeded its step budget of {_MAX_BISECT_STEPS} steps", lo, hi, tol
            )
        mid = 0.5 * (lo + hi)
        wm = _feasible_upper(b, mid)
        if wm is not None:
            lo, w = mid, wm
        else:
            hi = mid
    # Re-solve strictly inside the certified bracket: at t = lo the LP can
    # be exactly degenerate and return an arbitrary vertex of the optimal
    # face, while just below it the max-margin objective selects the most
    # interior optimizer (so interior quasi-eigenvectors are found when
    # they exist).
    wc = _feasible_upper(b, lo - 0.5 * tol, best=True)
    if wc is not None:
        w = wc
    return lo, cone.from_local(w)


def lower_quasi_eigenvalue(a, cone: Cone, tol: float = 1e-9) -> tuple[float, np.ndarray]:
    """The lower quasi-eigenvalue and a unit-norm left quasi-eigenvector.

    Mirrors ``upper_quasi_eigenvalue``: downward bisection on the
    feasibility of ``(B^T - t I) z <= 0`` over the simplex.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    a = as_matrix(a)
    if a.shape[0] > MAX_EIG_DIM:
        raise UnsupportedDimension(f"restricted to n <= {MAX_EIG_DIM}")
    bt = _local_problem(a, cone).T
    lo, hi = _bracket(a)
    z = _feasible_lower(bt, hi)
    for _ in range(3):
        if z is not None:
            break
        hi += 4.0 * (hi - lo)
        z = _feasible_lower(bt, hi)
    if z is None:
        raise _breakdown("no feasible upper bracket for the lower value", lo, hi, tol)
    for _ in range(3):
        if _feasible_lower(bt, lo) is None:
            break
        lo -= 4.0 * (hi - lo)
    steps = 0
    while hi - lo > tol:
        steps += 1
        if steps > _MAX_BISECT_STEPS:
            raise _breakdown(
                f"bisection exceeded its step budget of {_MAX_BISECT_STEPS} steps", lo, hi, tol
            )
        mid = 0.5 * (lo + hi)
        zm = _feasible_lower(bt, mid)
        if zm is not None:
            hi, z = mid, zm
        else:
            lo = mid
    zc = _feasible_lower(bt, hi + 0.5 * tol, best=True)  # see upper: avoid the degenerate face
    if zc is not None:
        z = zc
    v = cone.from_local(z)
    return hi, v / np.linalg.norm(v)


def quasi_pair(a, cone: Cone, tol: float = 1e-9) -> QuasiEigenResult:
    """Both quasi-eigenvalues, interiority flags, saddle status, and
    eigen-residuals in one report.

    Interiority uses margin ``10 * tol`` to separate genuine interior
    vectors from boundary-within-noise ones.
    """
    a = as_matrix(a)
    lam_up, u = upper_quasi_eigenvalue(a, cone, tol)
    lam_lo, v = lower_quasi_eigenvalue(a, cone, tol)
    u_int = contains(cone, u, strict=True, tol=10.0 * tol).in_interior
    v_int = contains(cone, v, strict=True, tol=10.0 * tol).in_interior
    saddle = u_int and v_int and abs(lam_up - lam_lo) <= 2.0 * tol
    res_r = float(np.linalg.norm(a @ u - lam_up * u) / np.linalg.norm(u))
    res_l = float(np.linalg.norm(a.T @ v - lam_lo * v) / np.linalg.norm(v))
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


def _simplex_grid(n: int, k: int) -> np.ndarray:
    """All points of the standard simplex with coordinates in steps of
    1/k, boundary included.  Shape (count, n); n in {2, 3}.

    Single precision: the oracle's accuracy is grid-limited (~1/k), far
    above float32 roundoff, and the grids are millions of points.
    """
    if n == 2:
        s = np.linspace(0.0, 1.0, k + 1, dtype=np.float32)
        return np.column_stack([s, np.float32(1.0) - s])
    counts = np.arange(k + 1, 0, -1)
    i = np.repeat(np.arange(k + 1), counts)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    j = np.arange(i.size) - np.repeat(starts, counts)
    a = (i / k).astype(np.float32)
    b = (j / k).astype(np.float32)
    c = np.maximum(np.float32(1.0) - a - b, np.float32(0.0))
    return np.column_stack([a, b, c])


def brute_minimax(a, cone: Cone, grid_k: int) -> tuple[float, float]:
    """Grid oracle for the upper minimax pair, independent of the LP path.

    Returns ``(sup-inf, inf-sup)`` of the quotient with the outer variable
    on a ``grid_k``-resolution grid of the closed cone and the inner
    variable confined to the simplex shrunk by margin ``1/(10 grid_k)``.
    Along any segment the quotient is monotone or constant (differentiate
    the one-parameter restriction), so each inner optimum over its convex
    domain is attained at an extreme point and is evaluated there exactly;
    only the outer grid contributes error, O(||A|| / grid_k), documented
    not certified.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if n not in (2, 3):
        raise UnsupportedDimension("brute_minimax supports n in {2, 3}")
    if cone.n != n:
        raise DimensionMismatch("matrix and cone dimensions differ")
    if grid_k < 10:
        raise ValueError("grid_k must be at least 10")
    b = _local_problem(a, cone).astype(np.float32)
    margin = np.float32(1.0 / (10.0 * grid_k))

    outer = _simplex_grid(n, grid_k)  # closed cone, includes boundary
    mverts = (margin + (1.0 - n * margin) * np.eye(n)).astype(np.float32)

    # sup over the u-grid of the exact inf over the margin simplex
    # (attained at its vertices).
    num = outer @ (b.T @ mverts.T)  # (grid, n): <B w, z_t> per vertex t
    den = outer @ mverts.T
    np.divide(num, den, out=num)
    sup_inf = float(num.min(axis=1).max())
    del num, den

    # inf over the interior grid of the exact sup over the closed cone
    # (attained at the cone's extreme rays e_i).
    outer *= np.float32(1.0) - n * margin
    outer += margin
    num2 = outer @ b  # (grid, n): <B e_i, z> per column i
    np.divide(num2, outer, out=num2)
    inf_sup = float(num2.max(axis=1).min())

    return sup_inf, inf_sup


def quasilinearity_probe(a, cone: Cone, trials: int, seed: int) -> bool:
    """Sample check that the quotient is quasilinear in each argument on
    the cone: values along segments stay between the endpoint values
    (slack 1e-9).  Returns True iff every trial passes."""
    a = as_matrix(a)
    if cone.n != a.shape[0]:
        raise DimensionMismatch("matrix and cone dimensions differ")
    rng = np.random.default_rng(seed)
    n = cone.n
    slack = 1e-9
    for _ in range(trials):
        u = cone.from_local(rng.random(n) + 1e-12)
        w = cone.from_local(rng.random(n) + 1e-12)
        v = cone.from_local(rng.random(n) + 1e-3)
        alpha = rng.random()
        lu, lw = rayleigh(a, u, v), rayleigh(a, w, v)
        mid = rayleigh(a, alpha * u + (1.0 - alpha) * w, v)
        if not (min(lu, lw) - slack <= mid <= max(lu, lw) + slack):
            return False
        lu2, lw2 = rayleigh(a, v, u), rayleigh(a, v, w)
        mid2 = rayleigh(a, v, alpha * u + (1.0 - alpha) * w)
        if not (min(lu2, lw2) - slack <= mid2 <= max(lu2, lw2) + slack):
            return False
    return True
