import numpy as np
import pytest

from quasieig import (
    ConvergenceFailure,
    DimensionMismatch,
    NonFinite,
    NonSquare,
    as_matrix,
    as_vector,
    classify,
    eig_oracle,
    is_irreducible,
    operator_norm,
    random_orthogonal,
    symmetric_part_eigs,
)
from helpers import random_matrix


def test_as_matrix_rejects_bad_input():
    for bad in ([[1.0, 2.0]], np.zeros((0, 0)), [1.0]):
        with pytest.raises(NonSquare):
            as_matrix(bad)
    with pytest.raises(NonFinite):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(NonFinite):
        as_matrix([[np.inf, 0.0], [0.0, 1.0]])


def test_as_vector_takes_only_one_dimensional_input():
    assert np.array_equal(as_vector([1, 2]), [1.0, 2.0])
    for bad in (1.0, [[1.0, 2.0]], np.eye(2)):
        with pytest.raises(DimensionMismatch):
            as_vector(bad)


def test_integers_too_large_for_a_float_are_non_finite():
    with pytest.raises(NonFinite, match="matrix entries must be finite"):
        as_matrix([[10**400]])
    with pytest.raises(NonFinite, match="vector entries must be finite"):
        as_vector([1, -(10**400)])


def test_operator_norm_examples():
    assert operator_norm(np.zeros((3, 3))) == 0.0
    assert operator_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-12)
    # M^T M = diag(0, 1), largest eigenvalue 1
    assert operator_norm([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_orthogonal_invariance():
    rng = np.random.default_rng(0)
    for k in range(20):
        n = int(rng.integers(1, 9))
        m = random_matrix(rng, n)
        u = random_orthogonal(n, k)
        assert operator_norm(u @ m) == pytest.approx(operator_norm(m), abs=1e-9)


def test_is_irreducible_examples():
    assert is_irreducible([[0.0, 1.0], [1.0, 0.0]])
    assert not is_irreducible([[1.0, 1.0], [0.0, 1.0]])
    assert is_irreducible([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    assert is_irreducible([[5.0]])  # n = 1 convention


def test_is_irreducible_permutation_invariant():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        m = random_matrix(rng, n) * (rng.random((n, n)) < 0.4)
        perm = rng.permutation(n)
        p = np.eye(n)[perm]
        assert is_irreducible(m) == is_irreducible(p @ m @ p.T)


def test_classify_example2_matrix():
    rep = classify([[1.0, -1.0], [1.0, 1.0]])
    assert rep.normal and not rep.skew_symmetric and not rep.symmetric
    assert not rep.offdiag_nonneg and not rep.offdiag_nonpos
    assert not rep.sign_constant_offdiag
    assert rep.irreducible and not rep.isc


def test_classify_identity_and_isc():
    rep = classify(np.eye(2))
    assert rep.symmetric and rep.normal and rep.nonnegative and not rep.irreducible
    rep = classify([[0.0, 2.0], [3.0, 0.0]])
    assert rep.nonnegative and rep.offdiag_nonneg and rep.irreducible and rep.isc


def test_classify_invariant_consistency():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        rep = classify(random_matrix(rng, n))
        assert rep.isc == (rep.irreducible and rep.sign_constant_offdiag)
        assert rep.sign_constant_offdiag == (rep.offdiag_nonneg or rep.offdiag_nonpos)


def test_eig_oracle_examples():
    vals = sorted(lam.real for lam, _ in eig_oracle(np.diag([2.0, 1.0])))
    assert vals == pytest.approx([1.0, 2.0], abs=1e-12)
    vals = sorted((lam for lam, _ in eig_oracle([[1.0, -1.0], [1.0, 1.0]])), key=lambda z: z.imag)
    assert vals[0] == pytest.approx(1.0 - 1.0j, abs=1e-10)
    assert vals[1] == pytest.approx(1.0 + 1.0j, abs=1e-10)
    vals = sorted(lam.real for lam, _ in eig_oracle([[0.0, 1.0], [1.0, 0.0]]))
    assert vals == pytest.approx([-1.0, 1.0], abs=1e-12)


def test_eig_oracle_residual_contract():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 16))
        m = random_matrix(rng, n)
        nrm = operator_norm(m)
        for lam, phi in eig_oracle(m):
            assert np.linalg.norm(m @ phi - lam * phi) <= 1e-8 * nrm * np.linalg.norm(phi)


@pytest.mark.parametrize("error, raises", [(1e-9, False), (1e-6, True)])
def test_eig_oracle_enforces_its_residual_contract(monkeypatch, error, raises):
    # Shift every eigenvector of diag(2, 1) by ``error``: pair 0 then has
    # residual ``error`` against the contract's 1e-8 ||M|| ||phi|| = 2e-8.
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda m: (eig(m)[0], eig(m)[1] + error))
    if raises:
        with pytest.raises(ConvergenceFailure, match="eigenpair 0 residual 1.000e-06"):
            eig_oracle(np.diag([2.0, 1.0]))
    else:
        assert len(eig_oracle(np.diag([2.0, 1.0]))) == 2


def test_symmetric_part_eigs_examples():
    assert symmetric_part_eigs([[0.0, -1.0], [1.0, 0.0]]) == pytest.approx([0.0, 0.0], abs=1e-12)
    assert symmetric_part_eigs([[1.0, -1.0], [1.0, 1.0]]) == pytest.approx([1.0, 1.0], abs=1e-12)
    # (A + A^T)/2 = [[0, 1], [1, 0]] has eigenvalues -1, 1 by hand
    assert symmetric_part_eigs([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx([-1.0, 1.0], abs=1e-12)


def test_symmetric_matrix_eigs_match_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        m = random_matrix(rng, n)
        m = 0.5 * (m + m.T)
        sym = symmetric_part_eigs(m)
        ora = sorted(lam.real for lam, _ in eig_oracle(m))
        assert sym == pytest.approx(ora, abs=1e-8)


def test_eig_oracle_dimension_guard():
    from quasieig import UnsupportedDimension

    with pytest.raises(UnsupportedDimension):
        eig_oracle(np.eye(65))


def test_is_irreducible_matches_strong_components():
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    rng = np.random.default_rng(11)
    seen = set()
    for i in range(320):
        n = int(rng.integers(1, 65))
        density = rng.uniform(0.02, 0.6)
        m = random_matrix(rng, n) * (rng.random((n, n)) < density)
        if i % 4 == 0:  # a permuted n-cycle: its digraph has diameter n - 1
            m = np.zeros((n, n))
            perm = rng.permutation(n)
            m[perm, np.roll(perm, 1)] = rng.uniform(-1.0, 1.0, n)
            m[perm[0], perm[-1]] *= i % 8  # every other cycle loses an edge
        count, _ = csgraph.connected_components(np.abs(m) > 0, directed=True, connection="strong")
        assert is_irreducible(m) == (count == 1)
        seen.add(count == 1)
    assert seen == {True, False}


@pytest.mark.parametrize(
    "a",
    [
        [[1.0, 1.0], [0.0, 1.0]],  # Jordan block
        [[0.0, 2.0], [3.0, 0.0]],  # ISC fixture
        [[1.0, -1.0], [1.0, 1.0]],  # paper example 2
        [[2.0, 1.0], [1.0, -3.0]],
        [[0.0, -1.0], [1.0, 0.0]],
    ],
)
@pytest.mark.parametrize("k", [-1000, -520, 0, 520, 1000])
def test_classify_is_scale_invariant(a, k):
    a = np.array(a)
    assert classify(2.0**k * a) == classify(a)


def test_classify_matrix_whose_norm_overflows():
    # ||A|| = 2e308 is not a float, but every entry is; the relative tests
    # run on A rescaled by its largest entry, so they never form the norm.
    r = classify([[1e308, 1e308], [1e308, 1e308]])
    assert r.nonnegative and r.symmetric and r.normal
    assert not r.skew_symmetric
