"""Theorem-level checkers: Perron-root identities, spectral sandwiches,
perturbation constants and stability bounds, the normal-matrix canonical
form, and its cone classification.

Checkers return ``TheoremReport`` values rather than raising: a falsified
bound is data, and so is an unmet hypothesis (``applicable=False``, which
the CLI maps to its own exit code), except in ``theorem4_classify``
(``NotNormal``).
Each checker takes a matrix or a ``MatrixFacts`` record; checkers handed
one record share its solves and matrix facts.  Every comparison a
checker makes against ``tol * max(1, ||A||)``: the search's feasibility
slack, and with it the width at which each bracket closes, grows with
``||A||``, and so does rounding in the values.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cones import Cone
from .errors import ConvergenceFailure, DimensionMismatch, NotInterior, NotNormal
from .lp import solve_max_eps
from .matcore import (
    as_matrix, classify, eig_oracle, is_irreducible, operator_norm, symmetric_part_eigs
)
from .quasi import QuasiEigenResult, quasi_pair


@dataclass(frozen=True)
class TheoremReport:
    name: str
    holds: bool
    lhs: float
    rhs: float
    slack: float
    details: str
    applicable: bool = True


@dataclass(frozen=True)
class PerturbationBound:
    """Lipschitz constants of the quasi-eigenvalue map at (A, C).

    ``c1`` is the supremum of ``||u|| / <u, v>`` over the cone for the
    unit left quasi-eigenvector v, finite only when v is interior (it
    equals one over the smallest local coordinate of v, attained on an
    extreme ray); ``c2`` mirrors it with the unit right quasi-eigenvector.
    ``c0`` is the larger of the two.
    """

    c1: float
    c2: float
    c0 = property(lambda self: max(self.c1, self.c2))


@dataclass(frozen=True, eq=False)
class NormalCanonicalForm:
    """Orthogonal reduction of a normal matrix to ``l`` rotation-scaling
    blocks plus real scalars."""

    u_a: np.ndarray = field(repr=False)
    rotation_blocks: list[tuple[float, float]]  # (r, theta), theta in (0, pi)
    real_eigs: list[float]
    l = property(lambda self: len(self.rotation_blocks))


def rotation_block(r: float, theta: float) -> np.ndarray:
    """The 2x2 rotation-scaling block with eigenvalues r e^{+-i theta}."""
    c, s = math.cos(theta), math.sin(theta)
    return r * np.array([[c, -s], [s, c]])


def assemble_canonical(form: NormalCanonicalForm) -> np.ndarray:
    """Block-diagonal matrix encoded by a canonical form."""
    n = 2 * form.l + len(form.real_eigs)
    out = np.zeros((n, n))
    for i, (r, theta) in enumerate(form.rotation_blocks):
        out[2 * i: 2 * i + 2, 2 * i: 2 * i + 2] = rotation_block(r, theta)
    for j, mu in enumerate(form.real_eigs):
        out[2 * form.l + j, 2 * form.l + j] = mu
    return out


class MatrixFacts:
    """What the checkers derive from one matrix, each fact derived once, on
    first use.  Pairs are memoised per ``(cone.basis.tobytes(), tol)``:
    cones with equal bases, every orthant of one size among them, share a
    pair.  A checker handed a plain matrix builds a fresh record."""

    def __init__(self, a):
        self.a = as_matrix(a)
        self._pairs = {}

    @cached_property
    def flags(self):
        return classify(self.a)

    @cached_property
    def eigs(self) -> list[tuple[complex, np.ndarray]]:
        return eig_oracle(self.a)

    @cached_property
    def norm(self) -> float:
        return operator_norm(self.a)

    @cached_property
    def form(self) -> NormalCanonicalForm:
        return normal_canonical_form(self)

    def pair(self, cone: Cone, tol: float) -> QuasiEigenResult:
        key = (cone.basis.tobytes(), tol)
        if key not in self._pairs:
            self._pairs[key] = quasi_pair(self.a, cone, tol)
        return self._pairs[key]


def _facts(a) -> MatrixFacts:
    return a if isinstance(a, MatrixFacts) else MatrixFacts(a)


def _tau(facts: MatrixFacts, tol: float) -> float:
    """``tol * max(1, ||A||)``, the unit of every checker's comparisons."""
    return tol * max(1.0, facts.norm)


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _not_applicable(name: str, why: str) -> TheoremReport:
    return TheoremReport(
        name=name,
        holds=False,
        lhs=math.nan,
        rhs=math.nan,
        slack=math.nan,
        details=f"not applicable: {why}",
        applicable=False,
    )


# name -> (classify flag that makes it applicable, why not otherwise,
# spectral functional, its label in ``details``, what an equality matches)
_ORTHANT_IDENTITIES = {
    "perron_root": (
        "nonnegative", "matrix has negative entries", abs, "spectral_radius", "magnitude"
    ),
    "max_real_part": (
        "offdiag_nonneg", "off-diagonal entries change sign", lambda val: val.real, "max_re",
        "real part",
    ),
}


def _orthant_identity_check(name: str, a, tol: float) -> TheoremReport:
    """Shared body of ``perron_check`` and ``max_re_check``: ``upper >= max
    functional - tau`` over the orthant.  ``details`` marks an upper value
    within ``tau`` of any eigenvalue's, where equality within ``tau`` follows."""
    flag, why_not, functional, label, match = _ORTHANT_IDENTITIES[name]
    facts = _facts(a)
    if not getattr(facts.flags, flag):
        return _not_applicable(name, why_not)
    lam = facts.pair(Cone.orthant(facts.a.shape[0]), tol).lambda_upper
    tau = _tau(facts, tol)
    values = [functional(val) for val, _ in facts.eigs]
    bound = max(values)
    details = f"upper={_fmt(lam)} {label}={_fmt(bound)}"
    if min(abs(lam - x) for x in values) <= tau:
        details += f"; equality branch (value matches an eigenvalue {match})"
    return TheoremReport(
        name=name,
        holds=lam >= bound - tau,
        lhs=lam,
        rhs=bound,
        slack=lam - bound,
        details=details,
    )


def perron_check(a, tol: float = 1e-9) -> TheoremReport:
    """Nonnegative matrices: the upper quasi-eigenvalue over the orthant
    dominates the spectral radius, and equals it when it lands on an
    eigenvalue magnitude."""
    return _orthant_identity_check("perron_root", a, tol)


def max_re_check(a, tol: float = 1e-9) -> TheoremReport:
    """Matrices with nonnegative off-diagonal entries: the upper
    quasi-eigenvalue over the orthant dominates the largest eigenvalue
    real part, and equals it when it lands on one."""
    return _orthant_identity_check("max_real_part", a, tol)


def _eig_is_simple(facts: MatrixFacts, lam: float) -> bool:
    """No other eigenvalue lies within ``1e-6 ||A||`` of the one nearest ``lam``."""
    vals = np.array([val for val, _ in facts.eigs])
    nearest = vals[np.argmin(np.abs(vals - lam))]
    return int(np.sum(np.abs(vals - nearest) <= 1e-6 * facts.norm)) == 1


def isc_check(a, tol: float = 1e-9) -> TheoremReport:
    """Irreducible sign-constant-off-diagonal matrices: the two
    quasi-eigenvalues over the orthant coincide at a simple eigenvalue
    whose right and left eigenvectors are strictly positive.  Entries of
    magnitude at most ``tau`` count as zero for irreducibility here."""
    facts = _facts(a)
    if not facts.flags.isc:
        return _not_applicable("isc_saddle", "matrix is not irreducible sign-constant")
    tau = _tau(facts, tol)
    if not is_irreducible(np.abs(facts.a) > tau):
        return _not_applicable("isc_saddle", f"irreducible only through entries <= {_fmt(tau)}")
    pair = facts.pair(Cone.orthant(facts.a.shape[0]), tol)
    max_res = max(pair.eigen_residual_right, pair.eigen_residual_left)
    simple = _eig_is_simple(facts, pair.lambda_upper)
    holds = pair.is_saddle and max_res <= 100.0 * tau and simple
    details = (
        f"lambda={_fmt(pair.lambda_upper)} gap={_fmt(pair.lambda_upper - pair.lambda_lower)} "
        f"saddle={pair.is_saddle} residual={_fmt(max_res)} simple={simple}"
    )
    return TheoremReport(
        name="isc_saddle",
        holds=holds,
        lhs=pair.lambda_upper,
        rhs=pair.lambda_lower,
        slack=100.0 * tau - max_res,
        details=details,
    )


def perturbation_constants(a, cone: Cone, tol: float = 1e-9) -> PerturbationBound:
    """Constants c1, c2 (and c0 = max) controlling how far a perturbation
    can move the quasi-eigenvalues.  Infinite when the corresponding
    quasi-eigenvector sits on the boundary; raises ``NotInterior`` when
    both do."""
    pair = _facts(a).pair(cone, tol)
    if not (pair.u_interior or pair.v_interior):
        raise NotInterior("both quasi-eigenvectors are boundary vectors")
    c1 = math.inf
    c2 = math.inf
    if pair.v_interior:
        z = cone.to_local(pair.v_left / np.linalg.norm(pair.v_left))
        c1 = 1.0 / float(z.min())
    if pair.u_interior:
        w = cone.to_local(pair.u_right / np.linalg.norm(pair.u_right))
        c2 = 1.0 / float(w.min())
    return PerturbationBound(c1=c1, c2=c2)


def _cone_sign(cone: Cone, d: np.ndarray) -> str:
    """Entrywise sign of the perturbation in the cone's own axes.

    A perturbation moves the quasi-eigenvalues monotonically when it
    pairs one-signedly against the cone, i.e. when U^T D U is entrywise
    one-signed; for the orthant that is D itself.
    """
    local = cone.basis.T @ d @ cone.basis
    if (local >= 0.0).all():
        return "nonnegative"
    if (local <= 0.0).all():
        return "nonpositive"
    return "mixed"


def perturbation_bound_check(a, cone: Cone, d, tol: float = 1e-9) -> TheoremReport:
    """Evaluate every perturbation inequality whose interiority gate is
    met: the one-sided Lipschitz bounds, the monotone one-signed cases,
    and the two-sided stability bound when both vectors are interior.
    Raises ``DimensionMismatch`` when ``d`` is not the shape of ``a``.

    Moving the cone is one such perturbation: the values of ``A`` over
    ``R C`` are those of ``R^T A R`` over ``C``, so ``d = R^T A R - A``
    checks cone continuity, ``dev <= c0 ||d|| <= 2 c0 ||A|| ||R - I||``,
    and at the best representative ``R`` that is ``cone_metric(C, R C)``."""
    facts = _facts(a)
    d = as_matrix(d)
    if d.shape != facts.a.shape:
        raise DimensionMismatch("perturbation and matrix dimensions differ")
    pair = facts.pair(cone, tol)
    if not (pair.u_interior or pair.v_interior):
        return _not_applicable("perturbation_bounds", "both quasi-eigenvectors on the boundary")
    bound = perturbation_constants(facts, cone, tol)
    moved = quasi_pair(facts.a + d, cone, tol)
    dnorm = operator_norm(d)
    sign = _cone_sign(cone, d)

    checks: list[tuple[str, float, float]] = []  # (name, lhs, rhs) for lhs <= rhs
    if pair.v_interior:
        checks.append(
            ("upper_vs_lower_lipschitz", moved.lambda_upper - pair.lambda_lower, bound.c1 * dnorm)
        )
        if sign == "nonpositive":
            checks.append(("monotone_nonpositive", moved.lambda_upper, pair.lambda_lower))
    if pair.u_interior:
        checks.append(
            ("lower_vs_upper_lipschitz", pair.lambda_upper - moved.lambda_lower, bound.c2 * dnorm)
        )
        if sign == "nonnegative":
            checks.append(("monotone_nonnegative", pair.lambda_upper, moved.lambda_lower))
    if pair.u_interior and pair.v_interior:
        lam = 0.5 * (pair.lambda_upper + pair.lambda_lower)
        dev = max(abs(moved.lambda_upper - lam), abs(moved.lambda_lower - lam))
        checks.append(("two_sided_stability", dev, bound.c0 * dnorm))

    _, lhs_b, rhs_b = min(checks, key=lambda c: c[2] - c[1])
    slack = rhs_b - lhs_b
    holds = slack >= -_tau(facts, tol)
    details = "; ".join(
        f"{nm}: lhs={_fmt(lhs)} rhs={_fmt(rhs)}" for nm, lhs, rhs in checks
    ) + f"; perturbation_sign={sign}"
    return TheoremReport(
        name="perturbation_bounds",
        holds=holds,
        lhs=lhs_b,
        rhs=rhs_b,
        slack=slack,
        details=details,
    )


def bounds_check(a, cone: Cone, tol: float = 1e-9) -> TheoremReport:
    """The symmetric-part eigenvalue sandwich ``lambda_min((A + A^T) / 2)
    <= lower <= upper <= lambda_max((A + A^T) / 2)``.  For a normal ``A``
    the symmetric part is ``Q Re(Lambda) Q^T``, so this is also the
    eigenvalue real-part sandwich."""
    facts = _facts(a)
    pair = facts.pair(cone, tol)
    sym = symmetric_part_eigs(facts.a)
    lo, hi = float(sym[0]), float(sym[-1])
    margins = [
        pair.lambda_lower - lo,
        hi - pair.lambda_upper,
        pair.lambda_upper - pair.lambda_lower,
    ]
    details = (
        f"sym_bounds=[{_fmt(lo)}, {_fmt(hi)}] "
        f"lower={_fmt(pair.lambda_lower)} upper={_fmt(pair.lambda_upper)}"
    )
    slack = min(margins)
    return TheoremReport(
        name="spectral_sandwich",
        holds=slack >= -_tau(facts, tol),
        lhs=pair.lambda_lower,
        rhs=pair.lambda_upper,
        slack=slack,
        details=details,
    )


def normal_canonical_form(a) -> NormalCanonicalForm:
    """Orthogonal matrix and block data reducing a normal matrix to its
    rotation-scaling canonical form.

    Built from the eigenvalue oracle: each conjugate pair contributes the
    columns Re(phi), Im(phi) of the representative with negative
    imaginary part (so every block angle lands in (0, pi)), each real
    eigenvalue its real eigenvector.  ``u_a`` is the Q of one QR of these
    columns, signed so that diag(R) > 0.  Eigenvectors of distinct
    eigenvalues of a normal matrix are already orthogonal, so the QR only
    re-orthonormalizes the columns of a repeated eigenvalue: its
    eigenspace gets one orthonormal basis, an arbitrary one, on which
    ``theorem4_classify``'s applicability then depends.
    """
    facts = _facts(a)
    if not facts.flags.normal:
        raise NotNormal("matrix is not normal")
    nrm = facts.norm
    im_tol = 1e-8 * max(1.0, nrm)

    vals = np.array([lam for lam, _ in facts.eigs])
    vecs = np.column_stack([phi for _, phi in facts.eigs])
    order = sorted(range(len(vals)), key=lambda i: (vals[i].real, vals[i].imag))
    reps = [i for i in order if vals[i].imag < -im_tol]
    reals = [i for i in order if abs(vals[i].imag) <= im_tol]
    if 2 * len(reps) + len(reals) != len(vals):
        raise ConvergenceFailure("conjugate eigenvalues do not pair up")

    blocks = [(float(abs(vals[i])), float(math.atan2(-vals[i].imag, vals[i].real)), i) for i in reps]
    blocks.sort(key=lambda blk: -blk[0] * math.cos(blk[1]))
    reals.sort(key=lambda i: -vals[i].real)
    columns = [part(vecs[:, i]) for *_, i in blocks for part in (np.real, np.imag)]
    # A repeated real eigenvalue can come back as a pair mu +- i eps with
    # conjugate vectors; the Re and Im of one span what the pair spans.
    columns += [vecs[:, i].imag if vals[i].imag > 0.0 else vecs[:, i].real for i in reals]
    q, tri = np.linalg.qr(np.column_stack(columns))
    u_a = q * np.where(np.diag(tri) >= 0.0, 1.0, -1.0)

    form = NormalCanonicalForm(
        u_a=u_a,
        rotation_blocks=[(r, theta) for r, theta, _ in blocks],
        real_eigs=[float(vals[i].real) for i in reals],
    )
    if operator_norm(u_a.T @ u_a - np.eye(len(vals))) > 1e-8:
        raise ConvergenceFailure("canonical basis lost orthogonality")
    if operator_norm(u_a.T @ facts.a @ u_a - assemble_canonical(form)) > max(1e-8 * nrm, 1e-10):
        raise ConvergenceFailure("canonical form residual exceeds contract")
    return form


def theorem4_classify(a, cone: Cone, tol: float = 1e-9) -> TheoremReport:
    """Predict both quasi-eigenvalues of a normal matrix from which
    invariant subspaces of its canonical form meet the open cone, then
    compare the prediction against the LP-search values.

    No subspace meeting the interior predicts the full real-part range;
    a meeting subspace pins both values to its eigenvalue real part.

    The rule is proven in three cases, and the report applies only in
    them: in dimension 1 and 2; when a one-dimensional subspace (a real
    eigenvector, which is a right and a left eigenvector at once) meets
    the open cone; and when the cone is the canonical form's orthant,
    where no subspace meets it.  Elsewhere a rotation 2-plane can cut the
    open cone with neither of its axes inside, or no subspace meets it at
    all, and the true values can fall strictly between the eigenvalue
    real parts: the report is then not applicable, as it is when the
    canonical form fails its contract (``NotNormal`` still raises).
    """
    facts = _facts(a)
    try:
        form = facts.form
    except ConvergenceFailure as err:  # classify's normality test passed, the form's contract not
        return _not_applicable("normal_cone_classification", str(err))
    n = facts.a.shape[0]
    if cone.n != n:
        raise DimensionMismatch("matrix and cone dimensions differ")
    # Column j of k is canonical axis j in the cone's local coordinates;
    # each invariant subspace is a 2-plane's two columns or a real
    # eigenvector's one.
    k = cone.basis.T @ form.u_a
    starts = [*range(0, 2 * form.l, 2), *range(2 * form.l, n)]
    spans = np.split(k, starts[1:], axis=1)
    re_parts = [r * math.cos(theta) for r, theta in form.rotation_blocks] + form.real_eigs
    # A span meets the open cone iff a signed combination of its columns
    # is positive: the max-margin LP over [k_S, -k_S] clears 1e-9.
    meets = [solve_max_eps(np.hstack([ks, -ks])).eps_star > 1e-9 for ks in spans]
    # Past dimension 2 only a real eigenvector pins the values.  At most
    # one subspace is hit: no two orthogonal vectors lie inside the cone.
    hit = [re for re, ks, m in zip(re_parts, spans, meets) if m and (n <= 2 or ks.shape[1] == 1)]
    if hit:
        case = "interior-subspace"
        pred_up = pred_lo = hit[0]
    # Every cone axis has all its mass in one subspace: the cone is the canonical
    # form's orthant, up to rotations in the 2-planes (for n <= 2, whenever no hit).
    elif (np.add.reduceat(k.T**2, starts, axis=0).max(axis=0) >= 1.0 - 1e-8).all():
        case = "boundary-only"
        pred_up, pred_lo = max(re_parts), min(re_parts)
    else:
        return _not_applicable(
            "normal_cone_classification",
            "no real eigenvector meets the open cone, which is not the canonical form's orthant "
            f"(meets={meets})",
        )

    pair = facts.pair(cone, tol)
    tau = _tau(facts, tol)
    dev = max(abs(pair.lambda_upper - pred_up), abs(pair.lambda_lower - pred_lo))
    mixed = form.l > 0 and len(form.real_eigs) > 0
    details = (
        f"case={case} predicted=[{_fmt(pred_lo)}, {_fmt(pred_up)}] "
        f"computed=[{_fmt(pair.lambda_lower)}, {_fmt(pair.lambda_upper)}] "
        f"meets={meets} mixed_block_sizes={mixed}"
    )
    return TheoremReport(
        name="normal_cone_classification",
        holds=dev <= 10.0 * tau,
        lhs=dev,
        rhs=10.0 * tau,
        slack=10.0 * tau - dev,
        details=details,
    )


def invariance_check(a, cone: Cone, u, tol: float = 1e-9) -> TheoremReport:
    """Both quasi-eigenvalues are unchanged by an orthogonal change of
    variables applied to the matrix and the cone together, to
    ``2 * tol * max(1, ||A||)``.  The bound scales with ``||A||`` because
    the search's feasibility slack, and with it each bracket, does.
    Raises ``DimensionMismatch`` when ``u`` is not the shape of ``a`` and
    ``NotOrthogonal`` when it is not orthogonal, both before any solve."""
    facts = _facts(a)
    u = as_matrix(u)
    if u.shape != facts.a.shape:
        raise DimensionMismatch("change-of-variables and matrix dimensions differ")
    conj = quasi_pair(u.T @ facts.a @ u, Cone.rotated(u.T @ cone.basis), tol)
    pair = facts.pair(cone, tol)
    dev = max(
        abs(pair.lambda_upper - conj.lambda_upper),
        abs(pair.lambda_lower - conj.lambda_lower),
    )
    rhs = 2.0 * _tau(facts, tol)
    return TheoremReport(
        name="orthogonal_invariance",
        holds=dev <= rhs,
        lhs=dev,
        rhs=rhs,
        slack=rhs - dev,
        details=(
            f"upper: {_fmt(pair.lambda_upper)} vs {_fmt(conj.lambda_upper)}; "
            f"lower: {_fmt(pair.lambda_lower)} vs {_fmt(conj.lambda_lower)}"
        ),
    )
