"""Dense real matrix basics: validation, norms, structural predicates,
and the eigenvalue oracle the theorem checkers use as ground truth.

Everything here is pure and operates on plain ``numpy`` arrays.  The
eigenvalue oracle is LAPACK-backed; its residual contract is enforced on
every call so downstream checkers never consume silently bad eigenpairs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NonFinite, NonSquare, UnsupportedDimension

#: Largest dimension accepted by the dense eigenvalue oracle.
MAX_EIG_DIM = 64
#: Relative tolerance of ``classify``'s symmetry, skewness and normality tests.
_CLASSIFY_TOL = 1e-10


def as_matrix(values) -> np.ndarray:
    """Validate and return a square matrix as a float64 array.

    Accepts anything ``np.asarray`` accepts.  Raises ``NonSquare`` for
    wrong shapes and ``NonFinite`` for NaN/inf entries, or for an integer
    too large for a float.
    """
    try:
        m = np.asarray(values, dtype=float)
    except OverflowError:
        raise NonFinite("matrix entries must be finite") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise NonSquare(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFinite("matrix entries must be finite")
    return m


def as_vector(values) -> np.ndarray:
    """Validate and return a 1-D float64 array: ``DimensionMismatch`` for
    any other shape, ``NonFinite`` for NaN/inf entries."""
    try:
        v = np.asarray(values, dtype=float)
    except OverflowError:
        raise NonFinite("vector entries must be finite") from None
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NonFinite("vector entries must be finite")
    return v


@dataclass(frozen=True)
class ClassificationReport:
    """Structural and numerical predicates of a matrix.

    Sign predicates (nonnegative, off-diagonal signs, irreducibility) are
    exact comparisons against zero: classification is structural, not a
    tolerance question.  Only symmetry/skewness/normality are relative
    tests, using ``tolerance_used``.
    """

    nonnegative: bool
    offdiag_nonneg: bool
    offdiag_nonpos: bool
    sign_constant_offdiag: bool
    irreducible: bool
    isc: bool
    symmetric: bool
    skew_symmetric: bool
    normal: bool
    tolerance_used: float


def operator_norm(m) -> float:
    """Spectral norm (largest singular value)."""
    return _operator_norm(as_matrix(m))


def _operator_norm(m: np.ndarray) -> float:  # on a validated m
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _strong_components(m: np.ndarray) -> list[np.ndarray]:
    """The strong components of the digraph with an edge i -> j whenever
    ``|m[i, j]| > 0``, as index arrays, sources first.  i reaches j iff
    ``((I + |m|)^(n-1))_ij > 0`` (Horn & Johnson 6.2), and squaring the
    boolean closure ``n.bit_length()`` times covers every path in exact
    float products.  A component reaching another has fewer reachers."""
    n = m.shape[0]
    if m.all():  # every edge: one component, without the closure
        return [np.arange(n)]
    reach = (np.abs(m) > 0.0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = (reach.astype(float) @ reach) > 0.0
    head = (reach & reach.T).argmax(axis=1)  # each node's lowest-index mate
    heads = np.unique(head)
    heads = heads[np.argsort(reach.sum(axis=0)[heads], kind="stable")]
    return [np.flatnonzero(head == h) for h in heads]


def is_irreducible(m) -> bool:
    """True iff ``m`` has one strong component; a 1x1 matrix does."""
    return len(_strong_components(as_matrix(m))) == 1


def classify(m) -> ClassificationReport:
    """Evaluate all structural predicates of ``m``.

    Only the symmetry, skew-symmetry and normality tests use a tolerance:
    they compare against ``_CLASSIFY_TOL`` times ``||m||`` resp. ``||m||**2``.
    """
    m = as_matrix(m)
    n = m.shape[0]
    off = ~np.eye(n, dtype=bool)
    nonnegative = bool((m >= 0.0).all())
    offdiag_nonneg = bool((m[off] >= 0.0).all())
    offdiag_nonpos = bool((m[off] <= 0.0).all())
    sign_constant = offdiag_nonneg or offdiag_nonpos
    irreducible = is_irreducible(m)
    # Relative tests on m / 2^e, of largest entry in [1/2, 1): the rescale
    # is exact, ||m|| (which can overflow) is never formed, and m m^T can
    # neither overflow nor underflow to a false zero.
    e = math.frexp(float(np.max(np.abs(m))))[1]
    s = np.ldexp(m, -e)
    nrm = operator_norm(s)
    symmetric = operator_norm(s - s.T) <= _CLASSIFY_TOL * nrm
    skew = operator_norm(s + s.T) <= _CLASSIFY_TOL * nrm
    normal = operator_norm(s @ s.T - s.T @ s) <= _CLASSIFY_TOL * nrm * nrm
    return ClassificationReport(
        nonnegative=nonnegative,
        offdiag_nonneg=offdiag_nonneg,
        offdiag_nonpos=offdiag_nonpos,
        sign_constant_offdiag=sign_constant,
        irreducible=irreducible,
        isc=irreducible and sign_constant,
        symmetric=symmetric,
        skew_symmetric=skew,
        normal=normal,
        tolerance_used=_CLASSIFY_TOL,
    )


def eig_oracle(m) -> list[tuple[complex, np.ndarray]]:
    """All eigenpairs of ``m``, repeated by algebraic multiplicity.

    Returns a list of ``(eigenvalue, unit right eigenvector)`` with complex
    entries.  Every pair is checked against the residual contract
    ``||M phi - lam phi|| <= 1e-8 ||M|| ||phi||``; a violation raises
    ``ConvergenceFailure``.  Restricted to n <= 64.
    """
    m = as_matrix(m)
    if m.shape[0] > MAX_EIG_DIM:
        raise UnsupportedDimension(f"eig_oracle is limited to n <= {MAX_EIG_DIM}")
    vals, vecs = np.linalg.eig(m)
    # Column j of M V - V diag(vals) is pair j's residual vector.
    resid = np.linalg.norm(m @ vecs - vecs * vals, axis=0)
    bad = np.flatnonzero(resid > 1e-8 * max(operator_norm(m), 1e-300) * np.linalg.norm(vecs, axis=0))
    if bad.size:
        raise ConvergenceFailure(f"eigenpair {bad[0]} residual {resid[bad[0]]:.3e} exceeds contract")
    return [(complex(lam), phi) for lam, phi in zip(vals, vecs.T)]


def symmetric_part_eigs(m) -> np.ndarray:
    """Eigenvalues of ``(m + m^T) / 2`` in ascending order."""
    return _symmetric_part_eigs(as_matrix(m))


def _symmetric_part_eigs(m: np.ndarray) -> np.ndarray:  # on a validated m
    return np.linalg.eigvalsh(0.5 * (m + m.T))

