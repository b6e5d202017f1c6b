"""Shared random-instance generators for the test suite.

Everything is driven by an explicit ``numpy`` Generator so tests stay
reproducible; acceptance criteria reuse these with their own seeds.
"""

import numpy as np

from quasieig import Cone, random_orthogonal
from quasieig.analysis import NormalCanonicalForm, assemble_canonical, rotation_block


def record_calls(monkeypatch, module, name):
    """Wrap ``module.name`` for the rest of the test; returns the live list
    of each call's positional arguments, one tuple per call.  Only that
    module's binding is wrapped, so callers that imported the name
    elsewhere are not recorded."""
    calls = []
    fn = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


def random_matrix(rng, n, scale=1.0):
    return rng.uniform(-scale, scale, (n, n))


def random_irreducible_nonneg(rng, n):
    """Uniform[0,1] entries with an enforced cycle so the digraph is
    strongly connected."""
    a = rng.uniform(0.0, 1.0, (n, n))
    for i in range(n):
        a[i, (i + 1) % n] = max(a[i, (i + 1) % n], 0.2)
    return a


def random_metzler(rng, n):
    """Nonnegative off-diagonal entries (cycle-enforced), arbitrary
    diagonal."""
    a = random_irreducible_nonneg(rng, n)
    np.fill_diagonal(a, rng.uniform(-1.0, 1.0, n))
    return a


def random_isc(rng, n, sign=None):
    """Irreducible with one-signed off-diagonal entries; sign +1/-1 picks
    the branch, None draws it."""
    if sign is None:
        sign = 1 if rng.random() < 0.5 else -1
    a = random_metzler(rng, n)
    if sign < 0:
        off = ~np.eye(n, dtype=bool)
        a[off] = -a[off]
    return a


def givens_rotation(n, i, j, theta):
    """Plane rotation by ``theta`` in coordinates ``(i, j)``."""
    g = np.eye(n)
    c, s = np.cos(theta), np.sin(theta)
    g[[i, j, i, j], [i, j, j, i]] = c, c, -s, s
    return g


def random_cone(rng, n):
    return Cone.rotated(random_orthogonal(n, int(rng.integers(0, 2**31))))


def random_normal_matrix(rng, n, min_gap=0.05, min_blocks=0):
    """A normal matrix built from rotation-scaling blocks and real
    scalars, conjugated by a random orthogonal matrix.

    Returns (matrix, blocks, reals, conjugation); eigenvalue real parts
    are kept ``min_gap`` apart so canonical-form recovery is unambiguous.
    """
    while True:
        l = int(rng.integers(min_blocks, n // 2 + 1))
        thetas = rng.uniform(0.15, np.pi - 0.15, l)
        rs = rng.uniform(0.3, 2.0, l)
        mus = rng.uniform(-2.0, 2.0, n - 2 * l)
        res = sorted(list(rs * np.cos(thetas)) + list(mus))
        if all(b - a >= min_gap for a, b in zip(res, res[1:])):
            break
    o = np.zeros((n, n))
    for i in range(l):
        o[2 * i: 2 * i + 2, 2 * i: 2 * i + 2] = rotation_block(rs[i], thetas[i])
    for j, mu in enumerate(mus):
        o[2 * l + j, 2 * l + j] = mu
    v = random_orthogonal(n, int(rng.integers(0, 2**31)))
    return v @ o @ v.T, list(zip(rs, thetas)), list(mus), v


#: Normal spectra with a repeated eigenvalue, as (blocks, reals), and the
#: seeds of ``random_orthogonal`` at which numpy returns a repeated real
#: eigenvalue of V O V^T as a pair mu +- i eps with conjugate vectors.
REPEATED_SPECTRA = {
    "rot_pi3_half_half": ([(1.0, np.pi / 3)], [0.5, 0.5], [190]),
    "two_i3": ([], [2.0] * 3, [68, 144, 163]),
    "i4": ([], [1.0] * 4, [16, 40, 107, 133, 172]),
    "i5": ([], [1.0] * 5, [67, 151, 159]),
    "i6": ([], [1.0] * 6, [94, 151, 176]),
    "rot_twice_minus_one_twice": ([(1.5, 1.0)] * 2, [-1.0, -1.0], [86, 195]),
    "half_i4_minus_half_i2": ([], [0.5] * 4 + [-0.5] * 2, [13, 68]),
}


def repeated_normal(family, seed):
    """V O V^T for the ``REPEATED_SPECTRA`` family, V = random_orthogonal(n, seed)."""
    blocks, reals, _ = REPEATED_SPECTRA[family]
    o = assemble_canonical(NormalCanonicalForm(None, blocks, reals))
    v = random_orthogonal(o.shape[0], seed)
    return v @ o @ v.T


#: ``(family, seed, upper, lower)``: ``repeated_normal`` inputs whose search
#: over ``Cone.rotated(random_orthogonal(6, 3))`` hands the LP ratio-test
#: ties that damage primal feasibility unless each candidate is weighed by
#: the minimum-ratio row's pivot-column entry, and the eigenvalue real
#: parts that the two values equal.
TIE_BREAK_INPUTS = [
    ("rot_twice_minus_one_twice", 3, 1.5 * np.cos(1.0), -1.0),
    ("half_i4_minus_half_i2", 39, 0.5, 0.5),
]


def orthogonal_mapping_uniform_to(target):
    """Orthogonal Q (a Householder reflection) sending the uniform
    direction (1..1)/sqrt(n) onto ``target``; the cone Q S_+ then holds
    ``target`` strictly inside."""
    target = np.asarray(target, dtype=float)
    n = target.size
    a = np.full(n, 1.0 / np.sqrt(n))
    b = target / np.linalg.norm(target)
    if np.linalg.norm(a - b) < 1e-14:
        return np.eye(n)
    w = a - b
    w /= np.linalg.norm(w)
    return np.eye(n) - 2.0 * np.outer(w, w)
