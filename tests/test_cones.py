import numpy as np
import pytest

from quasieig import (
    Cone,
    DimensionMismatch,
    NonSquare,
    NotOrthogonal,
    cone_metric,
    contains,
    operator_norm,
    random_orthogonal,
)
from helpers import givens_rotation, random_cone


def test_cone_construction_validates_rotation():
    Cone.rotated(np.eye(3))
    with pytest.raises(NotOrthogonal):
        Cone.rotated([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NonSquare):
        Cone.rotated(np.eye(3)[:2])
    with pytest.raises(DimensionMismatch):
        Cone.orthant(0)


def test_a_cone_is_its_orthonormal_basis():
    # The orthant is the cone whose basis is the identity; n comes from
    # the basis, and no other attribute tells the orthant apart.
    c = Cone.orthant(3)
    assert c.n == 3 and np.array_equal(c.basis, np.eye(3))
    assert not hasattr(c, "rotation")
    u = random_orthogonal(4, 2)
    r = Cone.rotated(u)
    assert r.n == 4 and np.array_equal(r.basis, u)
    x = np.array([0.5, -1.0, 2.0, 0.25])
    assert np.array_equal(r.to_local(x), u.T @ x)
    assert np.array_equal(r.from_local(x), u @ x)
    # The basis is a read-only copy: neither the caller nor a reader can
    # change the cone (or the basis bytes MatrixFacts keys it by).
    u[0, 0] = 2.0
    assert not np.array_equal(r.basis, u)
    with pytest.raises(ValueError):
        c.basis[0, 0] = 2.0


def test_contains_examples():
    c = Cone.orthant(2)
    m = contains(c, [1.0, 0.0])
    assert m.in_cone and not m.in_interior
    m = contains(c, [1.0, 1.0])
    assert m.in_interior
    rot = Cone.rotated(givens_rotation(2, 0, 1, np.pi / 4))
    m = contains(rot, [0.0, 1.0])
    assert m.in_interior
    assert m.min_coordinate == pytest.approx(np.sqrt(2) / 2, abs=1e-12)


def test_contains_zero_vector_and_mismatch():
    c = Cone.orthant(2)
    assert not contains(c, [0.0, 0.0]).in_cone
    with pytest.raises(DimensionMismatch):
        contains(c, [1.0, 2.0, 3.0])
    # A matrix is no vector, even one with as many entries as the cone has axes.
    with pytest.raises(DimensionMismatch):
        contains(Cone.orthant(4), np.eye(2))


def test_contains_rotation_consistency():
    rng = np.random.default_rng(0)
    for k in range(50):
        n = int(rng.integers(1, 7))
        u = random_orthogonal(n, k)
        x = rng.standard_normal(n)
        a = contains(Cone.rotated(u), u @ x)
        b = contains(Cone.orthant(n), x)
        assert a.in_cone == b.in_cone and a.in_interior == b.in_interior


def test_self_duality_sampled():
    rng = np.random.default_rng(1)
    cone = random_cone(rng, 4)
    hits = 0
    while hits < 500:
        x = cone.from_local(rng.random(4))
        y = cone.from_local(rng.random(4))
        if contains(cone, x).in_cone and contains(cone, y).in_cone:
            hits += 1
            assert float(x @ y) >= -1e-9


def test_cone_metric_examples():
    c = Cone.orthant(2)
    assert cone_metric(c, c) == 0.0
    for theta in (0.05, 0.2, 0.4):
        d = cone_metric(c, Cone.rotated(givens_rotation(2, 0, 1, theta)))
        assert d == pytest.approx(2 * abs(np.sin(theta / 2)), abs=1e-12)


def test_cone_metric_symmetry_and_triangle():
    rng = np.random.default_rng(3)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        c1, c2, c3 = (random_cone(rng, n) for _ in range(3))
        d12 = cone_metric(c1, c2)
        assert d12 == pytest.approx(cone_metric(c2, c1), abs=1e-12)
        assert d12 <= cone_metric(c1, c3) + cone_metric(c3, c2) + 1e-9


def test_cone_metric_quotients_representatives():
    # Two representatives of the same cone (axes permuted) are distance 0.
    u = random_orthogonal(3, 7)
    perm = np.eye(3)[[2, 0, 1]]
    assert cone_metric(Cone.rotated(u), Cone.rotated(u @ perm)) == pytest.approx(0.0, abs=1e-12)


def test_cone_metric_and_random_orthogonal_reject_bad_sizes():
    with pytest.raises(DimensionMismatch):
        cone_metric(Cone.orthant(2), Cone.orthant(3))
    with pytest.raises(DimensionMismatch):
        random_orthogonal(0, 1)


def test_cone_metric_large_n_warns():
    import warnings

    a = Cone.rotated(random_orthogonal(9, 1))
    b = Cone.rotated(random_orthogonal(9, 2))
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        d = cone_metric(a, b)
    # The stored representatives, with no minimum over permutations.
    assert len(rec) == 1 and d == np.linalg.norm(np.eye(9) - b.basis.T @ a.basis, 2)


def test_random_orthogonal_contracts():
    u1 = random_orthogonal(5, 7)
    u2 = random_orthogonal(5, 7)
    assert np.array_equal(u1, u2)
    assert operator_norm(u1.T @ u1 - np.eye(5)) <= 1e-12
    assert random_orthogonal(1, 0).shape == (1, 1)
    assert abs(abs(random_orthogonal(1, 0)[0, 0]) - 1.0) <= 1e-15
    assert not np.array_equal(random_orthogonal(5, 7), random_orthogonal(5, 8))
