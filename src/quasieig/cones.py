"""Self-dual solid cones: the positive orthant and its orthogonal images.

A cone here is ``U @ S_plus`` for an orthogonal ``U`` (the orthant itself
when ``U`` is the identity).  Membership questions reduce to coordinate
signs of ``U^T x``.
"""

import functools
import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotOrthogonal
from .matcore import as_matrix, as_vector, operator_norm

_ORTHOGONALITY_TOL = 1e-10
#: Exhaustive permutation minimization in the cone metric is limited to this n.
_METRIC_EXHAUSTIVE_MAX_N = 8


@dataclass(frozen=True, eq=False)
class Cone:
    """A self-dual solid cone ``U @ S_plus`` (origin excluded), given by a
    read-only copy of its orthonormal ``basis`` ``U``, the identity for the
    orthant.  ``MatrixFacts`` keys its pairs by the basis bytes."""

    basis: np.ndarray = field(repr=False)
    n: int = field(init=False)

    def __post_init__(self):
        u = np.array(as_matrix(self.basis))
        gap = u.T @ u - np.eye(u.shape[0])
        # An exact identity, every orthant's, needs no SVD.
        if gap.any() and operator_norm(gap) > _ORTHOGONALITY_TOL:
            raise NotOrthogonal("cone basis is not orthogonal within 1e-10")
        u.flags.writeable = False
        object.__setattr__(self, "basis", u)
        object.__setattr__(self, "n", u.shape[0])

    @staticmethod
    @functools.cache
    def orthant(n: int) -> "Cone":
        """The orthant, built once per ``n``: its basis cannot change."""
        if n < 1:
            raise DimensionMismatch("cone dimension must be >= 1")
        return Cone(np.eye(n))

    @staticmethod
    def rotated(u) -> "Cone":
        return Cone(u)

    def to_local(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of ``x`` in the cone's own axes (``U^T x``)."""
        return self.basis.T @ x

    def from_local(self, w: np.ndarray) -> np.ndarray:
        return self.basis @ w


@dataclass(frozen=True)
class ConeMembership:
    in_cone: bool
    in_interior: bool
    min_coordinate: float


def contains(cone: Cone, x, tol: float = 1e-12) -> ConeMembership:
    """Membership report for ``x``: cone membership within ``-tol``,
    interiority with margin ``tol``, and the minimum local coordinate."""
    x = as_vector(x)
    if x.shape[0] != cone.n:
        raise DimensionMismatch("vector length does not match cone dimension")
    w = cone.to_local(x)
    mc = float(w.min())
    in_cone = mc >= -tol and float(np.linalg.norm(x)) > 0.0
    return ConeMembership(in_cone=in_cone, in_interior=mc > tol, min_coordinate=mc)


def cone_metric(cone: Cone, other: Cone) -> float:
    """Distance ``min_P || I - U2 P U1^T ||`` over permutations of the
    orthant's axes.

    The orthogonal matrix carrying one cone onto another is only unique up
    to the orthant's stabilizer (the permutation group), so the minimum is
    taken exhaustively for n <= 8.  Beyond that the stored representatives
    are compared directly and a warning flags the representative
    dependence.
    """
    if cone.n != other.n:
        raise DimensionMismatch("cone dimensions differ")
    n = cone.n
    k = other.basis.T @ cone.basis
    if n > _METRIC_EXHAUSTIVE_MAX_N:
        warnings.warn(
            "cone_metric at n > 8 skips the permutation minimization; "
            "the value depends on the stored representatives",
            stacklevel=2,
        )
        return float(np.linalg.norm(np.eye(n) - k, 2))
    # ||I - U2 P U1^T|| = ||U2^T U1 - P|| by orthogonal invariance.
    best = np.inf
    for perm in itertools.permutations(range(n)):
        d = k.copy()
        d[perm, range(n)] -= 1.0
        best = min(best, float(np.linalg.norm(d, 2)))
    return best


def random_orthogonal(n: int, seed: int) -> np.ndarray:
    """Haar-ish random orthogonal matrix, deterministic per seed.

    QR of a Gaussian matrix (a composition of Householder reflections)
    with the R-diagonal sign fix; ``||U^T U - I|| <= 1e-12`` holds by
    construction.
    """
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)

