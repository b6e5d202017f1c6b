import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from quasieig import (
    Cone,
    DimensionMismatch,
    NonFinite,
    NotInCone,
    NumericalBreakdown,
    UnsupportedDimension,
    brute_minimax,
    contains,
    eig_oracle,
    inner_inf,
    inner_sup,
    operator_norm,
    quasi_pair,
    random_orthogonal,
    symmetric_part_eigs,
)
from quasieig.cli import RunConfig, emit_matrix, run
from quasieig.matcore import _strong_components
from grid_reference import brute_minimax_reference
from helpers import (
    REPEATED_SPECTRA,
    TIE_BREAK_INPUTS,
    givens_rotation,
    random_cone,
    random_irreducible_nonneg,
    random_isc,
    random_matrix,
    random_metzler,
    random_normal_matrix,
    record_calls,
    repeated_normal,
)

EX1 = np.diag([2.0, 1.0])
EX2 = np.array([[1.0, -1.0], [1.0, 1.0]])
ISC = np.array([[0.0, 2.0], [3.0, 0.0]])
ORTHANT2 = Cone.orthant(2)


def test_inner_inf_examples():
    assert inner_inf(EX1, ORTHANT2, [1.0, 0.0]) == pytest.approx(2.0, abs=1e-15)
    assert inner_inf(EX1, ORTHANT2, [1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)
    assert inner_inf(EX2, ORTHANT2, [0.0, 1.0]) == -math.inf


def test_inner_sup_examples():
    assert inner_sup(EX1, ORTHANT2, [0.0, 1.0]) == pytest.approx(1.0, abs=1e-15)
    assert inner_sup(EX1, ORTHANT2, [1.0, 1.0]) == pytest.approx(2.0, abs=1e-15)
    assert inner_sup(EX2, ORTHANT2, [0.0, 1.0]) == math.inf


def test_inner_ops_require_cone_membership():
    with pytest.raises(NotInCone):
        inner_inf(EX1, ORTHANT2, [-1.0, 1.0])
    with pytest.raises(NotInCone):
        inner_sup(EX1, ORTHANT2, [1.0, -1.0])
    # Inside the cone's tolerance, yet zero to the closed form.
    with pytest.raises(NotInCone, match="u is numerically zero"):
        inner_inf(np.eye(3), Cone.orthant(3), [1e-13] * 3)


def test_inner_ops_and_the_pair_validate_their_input():
    with pytest.raises(NonFinite):
        inner_inf(EX1, ORTHANT2, [np.nan, 1.0])
    # Four entries, but no vector: the cone's size is no test of shape.
    with pytest.raises(DimensionMismatch):
        inner_inf(np.eye(4), Cone.orthant(4), np.ones((2, 2)))
    with pytest.raises(DimensionMismatch):
        inner_sup(EX1, Cone.orthant(3), [1.0, 1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        quasi_pair(EX1, Cone.orthant(3))


@pytest.mark.parametrize("case", ["u boundary", "v boundary", "values apart"])
def test_is_saddle_needs_both_vectors_interior_and_one_value(monkeypatch, case):
    # ISC's values coincide with both vectors interior; EX1's values are 2
    # and 1.  Interiority is read off quasi_pair's two membership reports,
    # u's then v's, which are stubbed here.
    import quasieig.quasi as quasi_module

    assert quasi_pair(ISC, ORTHANT2).is_saddle
    interior = [case != "u boundary", case != "v boundary"]

    def stubbed(cone, x, tol):
        return dataclasses.replace(contains(cone, x, tol), in_interior=interior.pop(0))

    monkeypatch.setattr(quasi_module, "contains", stubbed)
    r = quasi_pair(EX1 if case == "values apart" else ISC, ORTHANT2)
    assert (r.u_interior, r.v_interior) == (case != "u boundary", case != "v boundary")
    assert not r.is_saddle


def test_returned_vectors_are_normalized():
    # u_right sums to 1 in the cone's axes; v_left has unit Euclidean norm.
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a, cone = random_matrix(rng, n), random_cone(rng, n)
        r = quasi_pair(a, cone)
        assert cone.to_local(r.u_right).sum() == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(r.v_left) == pytest.approx(1.0, abs=1e-14)


def test_most_interior_falls_back_unless_its_vector_passes_and_reaches_the_floor():
    from quasieig.quasi import _most_interior

    fallback = np.array([0.5, 0.5])
    t = math.sqrt(6.0) - 1e-6
    assert _most_interior(ISC, t, t, fallback) is not fallback
    assert _most_interior(ISC, t, math.sqrt(6.0) + 1e-3, fallback) is fallback
    assert _most_interior(ISC, math.sqrt(6.0) + 1e-3, -math.inf, fallback) is fallback


def test_upper_example1():
    r = quasi_pair(EX1, ORTHANT2)
    assert r.lambda_upper == pytest.approx(2.0, abs=1e-8)
    assert r.u_right == pytest.approx([1.0, 0.0], abs=1e-8)


def test_upper_example2():
    r = quasi_pair(EX2, ORTHANT2)
    assert r.lambda_upper == pytest.approx(1.0, abs=1e-8)
    assert r.u_right == pytest.approx([1.0, 0.0], abs=1e-8)


def test_upper_identity_any_cone():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5):
        r = quasi_pair(np.eye(n), random_cone(rng, n))
        assert r.lambda_upper == pytest.approx(1.0, abs=1e-8)
        assert contains(Cone.orthant(n), np.full(n, 1.0 / n)).in_interior  # sanity


def test_lower_example1():
    r = quasi_pair(EX1, ORTHANT2)
    assert r.lambda_lower == pytest.approx(1.0, abs=1e-8)
    assert r.v_left == pytest.approx([0.0, 1.0], abs=1e-8)


def test_lower_example2():
    r = quasi_pair(EX2, ORTHANT2)
    assert r.lambda_lower == pytest.approx(1.0, abs=1e-8)
    assert r.v_left == pytest.approx([1.0, 0.0], abs=1e-8)


def test_quasi_pair_example1_flags():
    r = quasi_pair(EX1, ORTHANT2)
    assert r.lambda_upper == pytest.approx(2.0, abs=1e-8)
    assert r.lambda_lower == pytest.approx(1.0, abs=1e-8)
    assert not r.u_interior and not r.v_interior and not r.is_saddle


def test_quasi_pair_isc_saddle():
    r = quasi_pair(ISC, ORTHANT2)
    root = math.sqrt(6.0)
    assert r.lambda_upper == pytest.approx(root, abs=1e-8)
    assert r.lambda_lower == pytest.approx(root, abs=1e-8)
    assert r.is_saddle and r.u_interior and r.v_interior
    assert r.eigen_residual_right <= 10.0 * r.tol
    assert r.eigen_residual_left <= 10.0 * r.tol
    # right quasi-eigenvector is the positive eigenvector (sqrt2, sqrt3) rescaled
    ratio = r.u_right[1] / r.u_right[0]
    assert ratio == pytest.approx(math.sqrt(3.0 / 2.0), abs=1e-6)


def test_quasi_pair_identity_saddle():
    r = quasi_pair(np.eye(3), Cone.orthant(3))
    assert r.is_saddle
    assert r.lambda_upper == pytest.approx(1.0, abs=1e-8)
    assert r.lambda_lower == pytest.approx(1.0, abs=1e-8)


def test_quasi_pair_one_dimensional():
    r = quasi_pair([[3.0]], Cone.orthant(1))
    assert r.lambda_upper == pytest.approx(3.0, abs=1e-9)
    assert r.lambda_lower == pytest.approx(3.0, abs=1e-9)
    assert r.is_saddle


def test_quasi_pair_order_invariant():
    rng = np.random.default_rng(1)
    for k in range(30):
        n = int(rng.integers(2, 7))
        a = random_matrix(rng, n)
        cone = random_cone(rng, n) if k % 2 else Cone.orthant(n)
        r = quasi_pair(a, cone)
        assert r.lambda_upper >= r.lambda_lower - 2.0 * r.tol
        sym = symmetric_part_eigs(a)
        assert r.lambda_lower >= sym[0] - 1e-8
        assert r.lambda_upper <= sym[-1] + 1e-8


def test_shift_equivariance():
    rng = np.random.default_rng(2)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        a = random_matrix(rng, n)
        cone = random_cone(rng, n)
        c = float(rng.uniform(-2, 2))
        r = quasi_pair(a, cone)
        shifted = quasi_pair(a + c * np.eye(n), cone)
        assert shifted.lambda_upper == pytest.approx(r.lambda_upper + c, abs=2e-9)


def test_attained_value_certificates():
    rng = np.random.default_rng(3)
    for k in range(40):
        n = int(rng.integers(2, 8))
        a = random_matrix(rng, n)
        cone = random_cone(rng, n) if k % 2 else Cone.orthant(n)
        r = quasi_pair(a, cone)
        assert inner_inf(a, cone, r.u_right) >= r.lambda_upper - 2e-9
        assert inner_sup(a, cone, r.v_left) <= r.lambda_lower + 2e-9


def test_reflection_identity():
    # lower_C(A) = -upper_C(-A^T): substituting -A^T swaps the roles of
    # the two arguments of the quotient.
    rng = np.random.default_rng(4)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        a = random_matrix(rng, n)
        cone = random_cone(rng, n)
        lo = quasi_pair(a, cone).lambda_lower
        up = quasi_pair(-a.T, cone).lambda_upper
        assert lo == pytest.approx(-up, abs=3e-9)


def test_brute_minimax_examples():
    si, isup = brute_minimax(EX1, ORTHANT2, 2000)
    assert si == pytest.approx(2.0, abs=5e-3)
    assert isup == pytest.approx(2.0, abs=5e-3)
    si, isup = brute_minimax([[0.0, -1.0], [1.0, 0.0]], ORTHANT2, 2000)
    assert si == pytest.approx(0.0, abs=5e-3)
    assert isup == pytest.approx(0.0, abs=5e-3)
    si, isup = brute_minimax(np.eye(2), ORTHANT2, 2000)
    assert si == pytest.approx(1.0, abs=1e-6)
    assert isup == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
def test_quasi_pair_rejects_a_nonpositive_or_non_finite_tol(tol):
    with pytest.raises(ValueError):
        quasi_pair(np.eye(2), ORTHANT2, tol=tol)


def test_brute_minimax_guards():
    with pytest.raises(UnsupportedDimension):
        brute_minimax(np.eye(4), Cone.orthant(4), 100)
    with pytest.raises(ValueError):
        brute_minimax(np.eye(2), ORTHANT2, 5)
    # grid_k must be an integer, numpy's included: a float such as 2000.5
    # would change the grid silently.  It is checked before any work, so
    # before the conjugation's dimension check.
    for grid_k in (2000.5, 2000.0, True, "2000"):
        with pytest.raises(ValueError, match="integer"):
            brute_minimax(np.eye(3), ORTHANT2, grid_k)
    assert brute_minimax(np.eye(2), ORTHANT2, np.int64(10)) == (1.0, 1.0)


def _grid_reference_inputs():
    """Seeded ``(a, cone, grid_k)``: n = 2 and 3 over the orthant and
    rotated cones; generic, nonnegative, Jordan, diagonal and tied-integer
    matrices at scales 1e-3 to 1e3; every grid_k in {10, 11, 37, 200}."""
    rng = np.random.default_rng(2024)
    for c in range(320):
        n = 2 + c % 2
        kind = (c // 2) % 5
        if kind == 0:
            a = random_matrix(rng, n)
        elif kind == 1:
            a = random_irreducible_nonneg(rng, n)
        elif kind == 2:
            a = rng.uniform(-1.0, 1.0) * np.eye(n) + np.eye(n, k=1)
        elif kind == 3:
            a = np.diag(rng.uniform(-1.0, 1.0, n))
        else:
            a = rng.integers(-2, 3, (n, n)).astype(float)
        a = a * 10.0 ** float(rng.integers(-3, 4))
        cone = Cone.orthant(n) if (c // 10) % 2 else random_cone(rng, n)
        yield a, cone, (10, 11, 37, 200)[(c // 4) % 4]


def test_brute_minimax_is_the_exact_grid_value():
    # The per-row search returns the optimum of the full grid that
    # tests/grid_reference.py evaluates point by point, up to rounding.
    for a, cone, grid_k in _grid_reference_inputs():
        got = brute_minimax(a, cone, grid_k)
        ref = brute_minimax_reference(a, cone, grid_k)
        tol = 1e-12 * max(1.0, np.linalg.norm(a, 2))
        assert got == pytest.approx(ref, abs=tol), (a, grid_k)


def test_brute_minimax_is_positively_homogeneous():
    # Scaling A by 2^e scales every numerator exactly and no denominator,
    # so the values scale bit for bit, beyond the float32 range included.
    a3 = random_matrix(np.random.default_rng(8), 3)
    for a, cone in ((ISC, ORTHANT2), (a3, Cone.rotated(random_orthogonal(3, 8)))):
        base = brute_minimax(a, cone, 2000)
        for e in (-490, -160, -130, 100, 130, 490):
            assert brute_minimax(np.ldexp(a, e), cone, 2000) == tuple(math.ldexp(x, e) for x in base)


def test_brute_agrees_with_bisection_small_sample():
    from quasieig import operator_norm

    rng = np.random.default_rng(5)
    for k in range(8):
        n = int(rng.integers(2, 4))
        a = random_matrix(rng, n)
        cone = random_cone(rng, n)
        si, isup = brute_minimax(a, cone, 2000)
        lam = quasi_pair(a, cone).lambda_upper
        budget = 5.0 * operator_norm(a) / 2000.0
        assert abs(si - isup) <= budget
        assert abs(lam - si) <= budget


def test_eigenvector_in_cone_inequalities():
    # A (1,1)-right-eigenvector instance: lambda = 2 with right eigenvector
    # interior, so 2 <= lower; here the left eigenvector for 2 is boundary.
    a = np.array([[2.0, 0.0], [1.0, 1.0]])
    r = quasi_pair(a, ORTHANT2)
    assert 2.0 <= r.lambda_lower + 2e-9
    assert r.lambda_upper == pytest.approx(2.0, abs=1e-8)


def test_eigenvector_in_cone_equality_both_sides():
    # Interior right AND left eigenvectors pin both values to the eigenvalue.
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        phi = rng.uniform(0.2, 1.0, n)
        psi = rng.uniform(0.2, 1.0, n)
        lam_star = float(rng.uniform(-1.0, 2.0))
        # rank-one spectral piece plus a contraction on the complement
        outer = np.outer(phi, psi) / float(phi @ psi)
        rest = rng.uniform(-0.2, 0.2, (n, n))
        rest -= outer @ rest  # kill the phi/psi coupling
        rest -= rest @ outer
        a = lam_star * outer + (np.eye(n) - outer) @ rest @ (np.eye(n) - outer)
        if np.linalg.norm(a @ phi - lam_star * phi) > 1e-10:
            continue
        r = quasi_pair(a, Cone.orthant(n))
        assert r.lambda_upper == pytest.approx(lam_star, abs=1e-7)
        assert r.lambda_lower == pytest.approx(lam_star, abs=1e-7)


def test_symmetric_over_rotated_cones():
    # Symmetric matrix diagonal in the cone's own axes: every eigenvector
    # lies on the cone boundary, so the values are the extreme eigenvalues.
    rng = np.random.default_rng(8)
    for k in range(10):
        n = int(rng.integers(2, 6))
        u = random_orthogonal(n, 50 + k)
        eigs = np.sort(rng.uniform(-2, 2, n))
        a = u @ np.diag(eigs) @ u.T
        cone = Cone.rotated(u)
        r = quasi_pair(a, cone)
        assert r.lambda_upper == pytest.approx(eigs[-1], abs=1e-7)
        assert r.lambda_lower == pytest.approx(eigs[0], abs=1e-7)


def test_symmetric_interior_eigenvector_case():
    # Example-1 matrix over the quarter-turned cone: the e2 eigenvector
    # becomes interior, pinning both values to its eigenvalue 1.
    cone = Cone.rotated(givens_rotation(2, 0, 1, np.pi / 4))
    assert contains(cone, np.eye(2)[1]).in_interior
    r = quasi_pair(EX1, cone)
    assert r.lambda_upper == pytest.approx(1.0, abs=1e-8)
    assert r.lambda_lower == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("scale", [1e7, 1e150])
def test_large_scale_values_close_at_float_resolution(monkeypatch, scale):
    # At ||A|| >= 1e7 the feasibility slack exceeds tol / 4, so each bracket
    # closes at twice the slack, not at tol / 2 (a search that waited for
    # tol / 2 would retest one t until its step budget ran out).  Both
    # values are the Perron root to a relative 1e-12, and the pair costs at
    # most 9 LPs (it takes 8).
    import quasieig.quasi as quasi_module

    a = scale * random_irreducible_nonneg(np.random.default_rng(3), 4)
    rho = max(abs(lam) for lam, _ in eig_oracle(a))
    solves = record_calls(monkeypatch, quasi_module, "solve_max_eps")
    r = quasi_pair(a, Cone.orthant(4))
    assert abs(r.lambda_upper - rho) <= 1e-12 * rho
    assert abs(r.lambda_lower - rho) <= 1e-12 * rho
    assert len(solves) <= 9

    # A search that stops narrowing runs out of its budget, derived from
    # the bracket, and names where it stopped: the bracket, which holds
    # the value, and the budget.
    _stall_narrowing(monkeypatch, 4)
    with pytest.raises(NumericalBreakdown) as exc:
        quasi_pair(a, Cone.orthant(4))
    lo, hi = _named_bracket(exc.value)
    assert lo <= rho <= hi
    assert _named_budget(exc.value) <= _step_bound(a)


def _two_block_cases():
    p = random_irreducible_nonneg(np.random.default_rng(3), 4)
    return [np.array([[0.0, 2.0], [3.0, 0.0]]), np.array([[1.0, 2.0], [3.0, 1.0]]), p]


@pytest.mark.parametrize("scale", [1e7, 1e10, 1e150])
@pytest.mark.parametrize("block", range(3))
def test_large_scale_reducible_values_are_the_block_values(scale, block):
    # diag(3, P) over the orthant: a vector supported on one block has that
    # block's value as its inner infimum, so the upper value is the larger
    # block value and the lower value the smaller.  quasi_pair splits the
    # blocks; the search on the whole matrix, which a split runs when its
    # rules leave a value undecided, must agree.  Its two brackets close
    # apart, each to twice the feasibility slack, never at a step that
    # rounds onto an end of its bracket.
    p = _two_block_cases()[block]
    n = p.shape[0] + 1
    a = np.zeros((n, n))
    a[0, 0], a[1:, 1:] = 3.0, p
    rho = max(lam.real for lam, _ in eig_oracle(p))
    r = quasi_pair(scale * a, Cone.orthant(n))
    for upper, lower in ((r.lambda_upper, r.lambda_lower), _whole_search(scale * a)):
        assert abs(upper / scale - max(3.0, rho)) <= 1e-12 * max(3.0, rho)
        assert abs(lower / scale - min(3.0, rho)) <= 1e-12 * min(3.0, rho)


def _whole_search(a):
    """Both values of ``a`` over the orthant from one search on the whole
    matrix, as ``quasi_pair`` runs it on an irreducible input."""
    import quasieig.quasi as quasi_module

    (upper, _), (lower, _) = quasi_module._search(a, 1e-9, max(1.0, operator_norm(a)))
    return upper, lower


@pytest.mark.parametrize("scale", [1.0, 1e4, 1e7, 1e10])
def test_vectors_certify_their_values_to_the_scaled_tolerance(scale):
    # The certificate contract: inner_inf(u_right) >= lambda_upper - 2 tau
    # and inner_sup(v_left) <= lambda_lower + 2 tau, tau = tol max(1, ||A||).
    # Twenty seeded generic and Perron matrices, n = 3-6, over the orthant
    # and a rotated cone.
    rng = np.random.default_rng(12)
    for k in range(20):
        n = int(rng.integers(3, 7))
        a = scale * (random_matrix(rng, n) if k % 2 else random_irreducible_nonneg(rng, n))
        cone = random_cone(rng, n) if k % 4 >= 2 else Cone.orthant(n)
        r = quasi_pair(a, cone)
        tau = r.tol * max(1.0, np.linalg.norm(a, 2))
        assert inner_inf(a, cone, r.u_right) >= r.lambda_upper - 2.0 * tau, k
        assert inner_sup(a, cone, r.v_left) <= r.lambda_lower + 2.0 * tau, k


def _named_bracket(exc) -> tuple[float, float]:
    found = re.search(r"bracket \[([^,]+), ([^\]]+)\]", str(exc))
    assert found, str(exc)
    return float(found.group(1)), float(found.group(2))


def _named_budget(exc) -> int:
    found = re.search(r"step budget of (\d+) steps", str(exc))
    assert found, str(exc)
    return int(found.group(1))


def _step_bound(a) -> int:
    """``2 L + 1``, the most steps a side of the search may take on ``a``
    at the default tol: ``L`` halvings from the symmetric-part bracket
    down to the width at which a bracket closes."""
    import quasieig.quasi as quasi_module

    lo0, hi0, scale = _start_bracket(a)
    close = max(0.5e-9, 2.0 * quasi_module._FEAS_TOL * scale)
    return 2 * max(0, math.ceil(math.log2((hi0 - lo0) / close))) + 1


def _start_bracket(a) -> tuple[float, float, float]:
    """``(lo0, hi0, scale)``: the bracket a search on all of ``a`` starts
    from, its symmetric-part eigenvalues padded by ``1e-6 scale``, and
    ``scale = max(1, ||A||)``."""
    sym, scale = symmetric_part_eigs(a), max(1.0, operator_norm(a))
    return float(sym[0]) - 1e-6 * scale, float(sym[-1]) + 1e-6 * scale, scale


def _stall_narrowing(monkeypatch, calls):
    """Let the search narrow its brackets ``calls`` times and then no
    more, so it steps at one bracket until its budget runs out."""
    import quasieig.quasi as quasi_module

    narrow, seen = quasi_module._narrow, []

    def stalled(*args):
        seen.append(args)
        if len(seen) <= calls:
            narrow(*args)

    monkeypatch.setattr(quasi_module, "_narrow", stalled)


def _bound_cases():
    """Seeded inputs of every family the search meets: generic, ISC of
    both signs, Metzler, Perron and normal matrices at n = 1-8 over the
    orthant and a rotated cone, Jordan blocks of sizes 1-8, reducible
    block-triangular matrices, Perron matrices at scales 1e-150 to 1e150,
    repeated normal spectra, and transposed Jordan blocks of size 12 plus
    uniform noise of size 1e-9, on some of which the secant steps that
    preceded the kernel-root step crept past the budget without the
    halving guard."""
    families = [
        random_matrix,
        lambda rng, n: random_isc(rng, n, 1),
        lambda rng, n: random_isc(rng, n, -1),
        random_metzler,
        random_irreducible_nonneg,
        lambda rng, n: random_normal_matrix(rng, n)[0],
    ]
    rng = np.random.default_rng(37)
    cases = []
    for n in range(1, 9):
        for make in families:
            for rotated in (False, True):
                cases.append((make(rng, n), random_cone(rng, n) if rotated else Cone.orthant(n)))
        cases.append((np.diag(np.ones(n - 1), 1), Cone.orthant(n)))
        if n >= 2:
            for make in (random_irreducible_nonneg, random_matrix):
                a = make(rng, n)
                a[n // 2:, : n // 2] = 0.0
                cases.append((a, Cone.orthant(n)))
    for scale in (1e-150, 1e-8, 1e7, 1e150):
        cases.append((scale * random_irreducible_nonneg(rng, 4), Cone.orthant(4)))
    for family, (_, _, seeds) in REPEATED_SPECTRA.items():
        for seed in (*seeds, 0, 1):
            a = repeated_normal(family, seed)
            cases += [(a, Cone.orthant(a.shape[0])), (a, Cone.rotated(random_orthogonal(a.shape[0], 3)))]
    for seed in range(40):
        noise = np.random.default_rng(seed).uniform(-1e-9, 1e-9, (12, 12))
        cases.append((np.diag(np.ones(11), -1) + noise, Cone.orthant(12)))
    return cases


def test_lp_calls_stay_within_the_stated_bound(monkeypatch):
    # quasi_pair's cost bound: each side takes at most 2 L + 1 steps, L the
    # halvings from the symmetric-part bracket down to the closing width,
    # and a step, an end test or a re-solve costs at most one LP each.  A
    # reducible B costs each of its s blocks wider than 1x1 one search, and
    # the whole B one more when a side stays undecided: (s + 1)(4 L + 4) + 2.
    import quasieig.quasi as quasi_module

    solves = record_calls(monkeypatch, quasi_module, "solve_max_eps")
    split = 0
    for k, (a, cone) in enumerate(_bound_cases()):
        comps = _strong_components(quasi_module._local_problem(a, cone))
        before = len(solves)
        quasi_pair(a, cone)
        bound = 2 * _step_bound(a) + 4
        if len(comps) > 1:
            split += 1
            bound = (sum(c.size > 1 for c in comps) + 1) * (2 * _step_bound(a) + 2) + 2
        assert len(solves) - before <= bound, (k, len(solves) - before, bound)
    assert split == 21  # the Jordan blocks of sizes 2-8 and 14 block-triangular inputs


def test_results_have_the_declared_types():
    # QuasiEigenResult declares float values and residuals and bool flags.
    # A numpy scalar in the feasibility slack once leaked into every cut
    # built on it, and so into values and is_saddle.  The bound cases
    # (Perron matrices at 1e7 and 1e150 among them) and the repeated
    # spectra at seeds 0-39 over the orthant.
    cases = _bound_cases() + [
        (a, Cone.orthant(a.shape[0]))
        for a in (repeated_normal(family, seed) for family in REPEATED_SPECTRA for seed in range(40))
    ]
    for k, (a, cone) in enumerate(cases):
        r = quasi_pair(a, cone)
        for name in ("lambda_upper", "lambda_lower", "eigen_residual_right", "eigen_residual_left"):
            assert type(getattr(r, name)) is float, (k, name)
        for name in ("u_interior", "v_interior", "is_saddle"):
            assert type(getattr(r, name)) is bool, (k, name)


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_eigen_residuals_are_finite_and_nonzero_at_extreme_scale(scale):
    # The residuals are taken on A / 2^e, exactly, so neither overflows at
    # 1e300 nor underflows to 0 at 1e-300, and no numpy warning is raised.
    a = scale * random_irreducible_nonneg(np.random.default_rng(3), 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = quasi_pair(a, Cone.orthant(4))
    for res in (r.eigen_residual_right, r.eigen_residual_left):
        assert math.isfinite(res) and 0.0 < res <= 4.0 * np.abs(a).max(), res


def test_irreducible_input_is_one_search_on_b(monkeypatch):
    # An irreducible B is the one-component case of the split: over the
    # orthant one search runs, on all of B, and the pair's values are that
    # search's bit for bit.
    import quasieig.quasi as quasi_module

    rng = np.random.default_rng(29)
    cases = [ISC, EX2, random_irreducible_nonneg(rng, 5), random_isc(rng, 4, -1), random_matrix(rng, 6)]
    for k, a in enumerate(cases):
        b = quasi_module._local_problem(a, Cone.orthant(a.shape[0]))
        searched = record_calls(monkeypatch, quasi_module, "_search")
        r = quasi_pair(a, Cone.orthant(a.shape[0]))
        assert len(searched) == 1, k
        assert np.array_equal(searched[0][0], b), k
        monkeypatch.undo()
        (upper, _), (lower, _) = quasi_module._search(b, r.tol, max(1.0, operator_norm(a)))
        assert (r.lambda_upper, r.lambda_lower) == (upper, lower), k


def test_step_budget_names_the_lower_bracket_in_its_own_coordinates(monkeypatch):
    # diag(3, P) coupled by -1/2 and 1/2 between its first two coordinates
    # is irreducible, so one search serves both values (uncoupled, the split
    # would search P alone).  Its upper value 3 closes within the first four
    # narrowings, so the search runs out of steps on the lower value.  The
    # error names the lower value's bracket in the value's coordinates: it
    # holds the lower value.
    p = random_irreducible_nonneg(np.random.default_rng(3), 4)
    a = np.zeros((5, 5))
    a[0, 0], a[1:, 1:] = 3.0, p
    a[0, 1], a[1, 0] = -0.5, 0.5
    lower = quasi_pair(a, Cone.orthant(5)).lambda_lower
    _stall_narrowing(monkeypatch, 4)
    with pytest.raises(NumericalBreakdown) as exc:
        quasi_pair(a, Cone.orthant(5))
    lo, hi = _named_bracket(exc.value)
    assert 0.0 < lo <= lower <= hi
    assert _named_budget(exc.value) <= _step_bound(a)


def _homogeneity_cases():
    """Twelve seeded matrices (Perron, generic, ISC-; n = 2-7; orthant and
    rotated cones) and nilpotent Jordan blocks of sizes 2-8."""
    rng = np.random.default_rng(41)
    cases = []
    for i in range(12):
        n = 2 + i % 6
        a = (random_irreducible_nonneg, random_matrix, lambda r, m: random_isc(r, m, -1))[i % 3](rng, n)
        cases.append((a, Cone.orthant(n) if i % 2 == 0 else random_cone(rng, n)))
    for k in (2, 3, 4, 6, 8):
        cases.append((np.diag(np.ones(k - 1), 1), Cone.orthant(k)))
    return cases


@pytest.mark.parametrize("case", range(17))
def test_values_and_certificates_are_positively_homogeneous(case):
    # quasi(cA) = c quasi(A) for c > 0.  Scaling by 2^k is exact, so the
    # values and the certificates of their vectors must scale with it, up
    # to the search's tolerance: no breakdown at large scale, and no
    # +-inf certificate from rounding in B w.
    a, cone = _homogeneity_cases()[case]
    r0 = quasi_pair(a, cone)
    tau = r0.tol * max(1.0, np.linalg.norm(a, 2))
    cert0 = inner_inf(a, cone, r0.u_right), inner_sup(a, cone, r0.v_left)
    for k in (24, 60, 300, 490):
        c = 2.0**k
        r = quasi_pair(c * a, cone)
        assert abs(r.lambda_upper / c - r0.lambda_upper) <= tau, k
        assert abs(r.lambda_lower / c - r0.lambda_lower) <= tau, k
        cert = inner_inf(c * a, cone, r.u_right) / c, inner_sup(c * a, cone, r.v_left) / c
        assert abs(cert[0] - cert0[0]) <= tau, (k, cert, cert0)
        assert abs(cert[1] - cert0[1]) <= tau, (k, cert, cert0)


@pytest.mark.parametrize("a, bracket", [
    (ISC, (-1e-3, 0.0)),
    (ISC, (2.5, 3.0)),
    (np.array([[1.0, 1.0, 0.0], [2.0, 1.0, 2.0], [-1.0, 0.0, -2.0]]), (-1.0, 0.5)),
], ids=["bracket0", "bracket1", "between_the_values"])
def test_bracket_that_misses_the_value_breaks_down(monkeypatch, a, bracket):
    # The search trusts its starting bracket (the padded symmetric-part
    # eigenvalues): each end is tested once, and an end whose test
    # disagrees (upper end below the value, or lower end above it) is an
    # error that names the bracket, never a value.  ISC's two values are
    # sqrt(6); the irreducible 3x3 matrix has upper 1 and lower -2, so its
    # bracket holds neither and only each side's upper end disagrees.  The
    # wrong eigenvalues go in where the search derives its bracket.
    import quasieig.quasi as quasi_module

    pad = 1e-6 * max(1.0, operator_norm(a))
    monkeypatch.setattr(quasi_module, "symmetric_part_eigs", lambda m: np.array(bracket))
    with pytest.raises(NumericalBreakdown) as exc:
        quasi_pair(a, Cone.orthant(a.shape[0]))
    assert f"bracket [{bracket[0] - pad:.17g}, {bracket[1] + pad:.17g}]" in str(exc.value)


def test_lp_solves_per_value(monkeypatch):
    # Every LP narrows the bracket from the side it certifies (the ratio of
    # a feasible point, the dual cut of an infeasible one), so a value
    # takes far fewer LPs than the ~34 of plain bisection to tol 1e-9.
    import quasieig.quasi as quasi_module

    solves = record_calls(monkeypatch, quasi_module, "solve_max_eps")
    rng = np.random.default_rng(23)
    cases = [(EX1, ORTHANT2), (EX2, ORTHANT2), (ISC, ORTHANT2)]
    for k in range(24):
        n = int(rng.integers(3, 9))
        a = random_matrix(rng, n) if k % 3 == 0 else random_isc(rng, n, 1 if k % 3 == 1 else -1)
        cases.append((a, Cone.orthant(n) if k % 2 == 0 else random_cone(rng, n)))
    for a, cone in cases:
        quasi_pair(a, cone)
    assert len(solves) / (2 * len(cases)) <= 20.0


def test_values_lie_within_the_closing_width_of_the_eigenvalue():
    # Over the orthant both values of a Perron, Metzler or ISC+ matrix are
    # its largest eigenvalue real part, and of an ISC- matrix its smallest.
    # Each value is an end of a bracket that holds it and closes at width
    # close = max(tol / 2, 2 _FEAS_TOL scale), so it lies within close plus
    # the feasibility slack of the eigenvalue: 300 seeded inputs, n = 2-8.
    import quasieig.quasi as quasi_module

    families = [
        (random_irreducible_nonneg, max),
        (random_metzler, max),
        (lambda rng, n: random_isc(rng, n, 1), max),
        (lambda rng, n: random_isc(rng, n, -1), min),
    ]
    rng = np.random.default_rng(43)
    for k in range(300):
        make, pick = families[k % 4]
        n = 2 + k // 4 % 7
        a = make(rng, n)
        target = pick(lam.real for lam, _ in eig_oracle(a))
        r = quasi_pair(a, Cone.orthant(n))
        scale = max(1.0, operator_norm(a))
        close = max(0.5 * r.tol, 2.0 * quasi_module._FEAS_TOL * scale)
        within = close + 2.0 * quasi_module._FEAS_TOL * scale
        assert abs(r.lambda_upper - target) <= within, (k, r.lambda_upper - target)
        assert abs(r.lambda_lower - target) <= within, (k, r.lambda_lower - target)


def test_search_has_no_dimension_limit():
    # The search needs only eigvalsh, one SVD and the LP, none limited to
    # the eigenvalue oracle's n <= 64.
    a = random_irreducible_nonneg(np.random.default_rng(65), 65)
    rho = max(abs(np.linalg.eigvals(a)))
    r = quasi_pair(a, Cone.orthant(65))
    assert abs(r.lambda_upper - rho) <= 1e-9 * rho
    assert abs(r.lambda_lower - rho) <= 1e-9 * rho


def _pair_cases():
    """Seeded unit-scale matrices of every family the search meets, over
    the orthant and a rotated cone each: generic, ISC of both signs,
    Metzler, Perron, normal, reducible block-triangular, n = 1 and both
    paper examples."""
    def reducible(rng, n):
        a = random_irreducible_nonneg(rng, n)
        a[n // 2:, : n // 2] = 0.0
        return a

    families = {
        "generic": random_matrix,
        "isc+": lambda rng, n: random_isc(rng, n, 1),
        "isc-": lambda rng, n: random_isc(rng, n, -1),
        "metzler": random_metzler,
        "perron": random_irreducible_nonneg,
        "normal": lambda rng, n: random_normal_matrix(rng, n)[0],
        "reducible": reducible,
        "n1": lambda rng, n: rng.uniform(-2.0, 2.0, (1, 1)),
        "paper1": lambda rng, n: EX1,
        "paper2": lambda rng, n: EX2,
    }
    rng = np.random.default_rng(31)
    cases = []
    for name, make in families.items():
        for k in range(2):
            n = 1 if name == "n1" else 2 if name.startswith("paper") else int(rng.integers(2, 7))
            a = make(rng, n)
            cases.append((f"{name}-{'rotated' if k else 'orthant'}", a,
                          random_cone(rng, n) if k else Cone.orthant(n)))
    return cases


@pytest.mark.parametrize("case", _pair_cases(), ids=lambda case: case[0])
def test_pair_agrees_with_the_one_sided_values(case):
    # quasi_pair closes both brackets from one stream of LPs, the upper one
    # first.  The lower value, closed second, must agree with the reflected
    # matrix's upper value, closed first: lower(A) = -upper(-A^T), to
    # tol * max(1, ||A||).  Both vectors must certify their values.
    _, a, cone = case
    r = quasi_pair(a, cone)
    tau = r.tol * max(1.0, np.linalg.norm(a, 2))
    assert abs(r.lambda_lower + quasi_pair(-a.T, cone).lambda_upper) <= tau
    assert inner_inf(a, cone, r.u_right) >= r.lambda_upper - 2.0 * r.tol
    assert inner_sup(a, cone, r.v_left) <= r.lambda_lower + 2.0 * r.tol


def test_pair_closes_two_separate_brackets_exactly():
    # diag(2, 1) over the orthant: the values 2 and 1 are the two ends of
    # the zero set of eps*(t), a whole interval, so one search on the whole
    # matrix must close two brackets that never meet.  Both come out
    # exactly, as they do from quasi_pair's split into 1x1 blocks.
    r = quasi_pair(EX1, ORTHANT2)
    assert (r.lambda_upper, r.lambda_lower) == _whole_search(EX1) == (2.0, 1.0)
    assert quasi_pair(-EX1.T, ORTHANT2).lambda_upper == _whole_search(-EX1.T)[0] == -1.0


@pytest.mark.parametrize(
    "a, pair_lps",
    [(EX1, 2), (EX2, 2), (random_isc(np.random.default_rng(55), 4), 6)],
    ids=["example1", "example2", "isc55"],
)
def test_pair_lp_counts(monkeypatch, a, pair_lps):
    # Each LP of the pair's search answers the upper test by its primal and
    # the lower test by its dual.  Example 2 takes no step inside the
    # bracket: its LPs are the final re-solve of each value.  Example 1 is
    # diagonal, so its 1x1 blocks are their own values and only the two
    # re-solves run.  The counts are exact: Bland's rule is deterministic.
    import quasieig.quasi as quasi_module

    solves = record_calls(monkeypatch, quasi_module, "solve_max_eps")
    quasi_pair(a, Cone.orthant(a.shape[0]))
    assert len(solves) == pair_lps


def test_one_by_one_input_solves_no_lp(monkeypatch):
    # A 1x1 B's simplex is the single point [1], so no re-solve can find a
    # more interior vector and the pair solves no LP.  The fields are the
    # ones the re-solves returned, bit for bit: the entry, the cone's axis
    # for both vectors, both flags set and zero residuals.
    import quasieig.quasi as quasi_module

    solves = record_calls(monkeypatch, quasi_module, "solve_max_eps")
    for entry in (3.0, -0.5, 0.0, -0.0, 1e150):
        for cone in (Cone.orthant(1), Cone.rotated(-np.eye(1))):
            r = quasi_pair([[entry]], cone)
            assert r.lambda_upper.hex() == r.lambda_lower.hex() == (entry + 0.0).hex()  # no -0.0
            assert r.u_right.tobytes() == r.v_left.tobytes() == cone.basis[:, 0].tobytes()
            assert r.u_interior and r.v_interior and r.is_saddle
            assert r.eigen_residual_right == r.eigen_residual_left == 0.0
    assert solves == []


def test_kernel_roots_are_the_real_roots_of_the_kernel_pencil():
    # The roots s of det(G_RS - s I_RS) for the supports S of x and R of y.
    import quasieig.quasi as quasi_module

    roots = quasi_module._kernel_roots
    g = np.random.default_rng(8).uniform(-1.0, 1.0, (4, 4))
    # R = S = {0, 2}: I_RS is the identity, so the roots are the (here
    # real) eigenvalues of G_SS.
    x, y = np.array([0.5, 0.0, 0.5, 0.0]), np.array([0.25, 0.0, 0.75, 0.0])
    eig = np.linalg.eigvals(g[np.ix_([0, 2], [0, 2])])
    assert not eig.imag.any()
    assert np.sort(roots(g, 0.0, x, y, {})) == pytest.approx(np.sort(eig.real), rel=1e-12)
    # Supports of different sizes hold no square kernel: no root.
    assert roots(g, 0.0, x, np.array([0.25, 0.25, 0.5, 0.0]), {}).size == 0
    # R = {0, 1} and S = {1, 2}: I_RS = [[0, 0], [1, 0]], so the
    # determinant g01 g12 - g02 (g11 - s) is linear in s, with the one root
    # below; G_RS^-1 I_RS has rank 1, and its zero eigenvalue is no root.
    x, y = np.array([0.0, 0.5, 0.5, 0.0]), np.array([0.5, 0.5, 0.0, 0.0])
    assert roots(g, 0.0, x, y, {}) == pytest.approx([g[1, 1] - g[0, 1] * g[1, 2] / g[0, 2]], rel=1e-12)
    # A rotation-scaling block in the kernel gives a complex pair, which
    # is no root of the real pencil; the real eigenvalue still is.
    g = np.array([[0.5, -2.0, 0.0], [2.0, 0.5, 0.0], [0.0, 0.0, -0.75]])
    assert roots(g, 0.0, np.full(3, 1 / 3), np.full(3, 1 / 3), {}) == pytest.approx([-0.75], rel=1e-12)
    # A singular G_RS has no kernel roots.
    assert roots(np.ones((2, 2)), 0.0, np.full(2, 0.5), np.full(2, 0.5), {}).size == 0


def test_root_step_tests_beside_the_root_nearest_the_midpoint(monkeypatch):
    # ISC over the orthant: both values are sqrt 6, in the symmetric-part
    # bracket [-2.5, 2.5] padded.  With each LP's kernel roots replaced by
    # fixed ones, the first step tests beside the root nearest the
    # midpoint, 2 close towards the farther end of the bracket.  Roots
    # outside the bracket are never tested, and the values stay certified
    # whatever the roots, since only the choice of t depends on them.
    import quasieig.quasi as quasi_module

    fixed = np.array([-3.0, math.sqrt(6.0) - 1.0, math.sqrt(6.0), 3.0])
    test, tested = quasi_module._test, []

    def fixed_roots(b, t, memo):
        tested.append(t)
        found, kernel = test(b, t, memo)
        return found, None if kernel is None else fixed

    monkeypatch.setattr(quasi_module, "_test", fixed_roots)
    r = quasi_pair(ISC, ORTHANT2)
    lo0, hi0, scale = _start_bracket(ISC)
    close = max(0.5 * r.tol, 2.0 * quasi_module._FEAS_TOL * scale)
    # The root sqrt 6 - 1 is nearer the midpoint 0 than sqrt 6, and nearer
    # the upper end than the lower.
    assert tested[:3] == [lo0, hi0, math.sqrt(6.0) - 1.0 - 2.0 * close]
    assert all(lo0 <= t <= hi0 for t in tested)
    assert abs(r.lambda_upper - math.sqrt(6.0)) <= r.tol
    assert abs(r.lambda_lower - math.sqrt(6.0)) <= r.tol


@pytest.mark.parametrize("kernel_roots", [
    lambda g, t, x, y, memo: np.empty(0),
    lambda g, t, x, y, memo: np.array([-1e300, 1e300]),
], ids=["none", "outside"])
def test_search_without_a_root_in_its_bracket_closes_on_midpoints(monkeypatch, kernel_roots):
    # With no kernel root inside a bracket every step is a midpoint: each
    # value still closes within its step budget and the pair's LP bound, at
    # the value the root steps find to tol * max(1, ||A||), and the root
    # steps save LPs.
    import quasieig.quasi as quasi_module

    rng = np.random.default_rng(61)
    cases = []
    for k in range(12):
        n = 2 + k % 6
        make = (random_matrix, random_irreducible_nonneg, lambda rng, n: random_isc(rng, n, -1))[k % 3]
        cases.append((make(rng, n), random_cone(rng, n) if k % 2 else Cone.orthant(n)))
    solves = record_calls(monkeypatch, quasi_module, "solve_max_eps")
    stepped = [quasi_pair(a, cone) for a, cone in cases]
    root_lps = len(solves)
    monkeypatch.setattr(quasi_module, "_kernel_roots", kernel_roots)
    for (a, cone), r in zip(cases, stepped):
        before = len(solves)
        m = quasi_pair(a, cone)
        assert len(solves) - before <= 2 * _step_bound(a) + 4
        tau = r.tol * max(1.0, np.linalg.norm(a, 2))
        assert abs(m.lambda_upper - r.lambda_upper) <= tau
        assert abs(m.lambda_lower - r.lambda_lower) <= tau
    assert root_lps < len(solves) - root_lps


def _memo_corpus():
    """Seeded generic, Perron and Metzler inputs at n = 2-7, over the
    orthant and rotated cones."""
    rng = np.random.default_rng(27)
    cases = []
    for k in range(18):
        n = 2 + k % 6
        make = (random_matrix, random_irreducible_nonneg, random_metzler)[k % 3]
        cases.append((make(rng, n), random_cone(rng, n) if k % 2 else Cone.orthant(n)))
    return cases


def test_each_kernel_builds_its_pencil_once_per_search(monkeypatch):
    # The roots of det(B_RS - t I_RS) belong to the kernel (R, S), not to
    # the tested t: each search computes them once per square kernel,
    # however often its LPs return that kernel.
    import quasieig.quasi as quasi_module

    kernels = record_calls(monkeypatch, quasi_module, "_kernel_roots")
    pencils = record_calls(monkeypatch, np.linalg, "eigvals")
    for a, cone in _memo_corpus():
        quasi_pair(a, cone)
    # The recorded calls keep each search's memo alive, so its id is unique.
    square = {(id(memo), (y > 0.0).tobytes(), (x > 0.0).tobytes())
              for g, t, x, y, memo in kernels if np.count_nonzero(x > 0.0) == np.count_nonzero(y > 0.0)}
    assert len(pencils) == len(square) < len(kernels)


def test_kernels_sharing_one_support_keep_their_own_roots():
    # The memo is keyed by both supports.  (R, S) = ({1, 2}, {0, 1}) shares
    # S with ({0, 1}, {0, 1}), and ({0, 1}, {1, 2}) shares R with it; each
    # still gets the roots of its own pencil, as with a fresh memo.
    import quasieig.quasi as quasi_module

    roots = quasi_module._kernel_roots
    g, t = np.random.default_rng(8).uniform(-1.0, 1.0, (4, 4)), 0.25
    front, middle = np.array([0.5, 0.5, 0.0, 0.0]), np.array([0.0, 0.5, 0.5, 0.0])
    kernels = [(front, front), (front, middle), (middle, front)]  # (x, y): S, R
    memo = {}
    shared = [roots(g, t, x, y, memo) for x, y in kernels]
    assert len(memo) == 3
    for got, (x, y) in zip(shared, kernels):
        assert roots(g, t, x, y, memo) is got
        assert got.tobytes() == roots(g, t, x, y, {}).tobytes()
    # det(G_RS - s I_RS) is linear in s for the two mixed kernels.
    assert shared[1] == pytest.approx([t + g[1, 1] - g[1, 0] * g[2, 1] / g[2, 0]], rel=1e-12)
    assert shared[2] == pytest.approx([t + g[1, 1] - g[0, 1] * g[1, 2] / g[0, 2]], rel=1e-12)
    assert np.sort(shared[0]) == pytest.approx(np.sort(t + np.linalg.eigvals(g[:2, :2]).real), rel=1e-12)


def _pair_bits(a, cone):
    r = quasi_pair(a, cone)
    return [r.lambda_upper.hex(), r.lambda_lower.hex(), r.u_right.tobytes().hex(), r.v_left.tobytes().hex(),
            r.u_interior, r.v_interior, r.is_saddle, r.eigen_residual_right.hex(), r.eigen_residual_left.hex()]


def test_no_state_carries_across_calls():
    # Each search's memo dies with it: the corpus solved forward, in
    # reverse, each input twice in a row, and in reverse by a fresh
    # interpreter gives the same bits.  State that the first caller fills
    # in would read the same in any later order, so only the fresh
    # interpreter shows it.
    cases = _memo_corpus()
    forward = [_pair_bits(a, cone) for a, cone in cases]
    assert [_pair_bits(a, cone) for a, cone in cases[::-1]] == forward[::-1]
    assert [(_pair_bits(a, cone), _pair_bits(a, cone)) for a, cone in cases] == [(b, b) for b in forward]
    code = ("import json; from test_quasi import _memo_corpus, _pair_bits; "
            "print(json.dumps([_pair_bits(a, cone) for a, cone in _memo_corpus()[::-1]]))")
    fresh = subprocess.run([sys.executable, "-c", code], cwd=os.path.dirname(__file__), capture_output=True,
                           text=True, timeout=120, check=True,
                           env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert json.loads(fresh.stdout) == forward[::-1]


def test_pure_row_strategy_cuts_the_upper_bracket_below_t():
    # At t = 0 the first row of G = [[-1, -1], [1, 1]] is negative
    # everywhere, so e_1 proves the upper side infeasible without an LP and
    # cuts it to t + (max(G^T e_1) + slack), below t; the lower side is
    # feasible at e_1.  A cut above t would be clamped back to t unseen.
    import quasieig.quasi as quasi_module

    t = 0.0
    found, kernel = quasi_module._test(np.array([[-1.0, -1.0], [1.0, 1.0]]), t, {})
    assert found[1] == (None, t + (-1.0 + quasi_module._FEAS_TOL))
    assert kernel is None


def test_interiority_reads_the_stated_margin():
    # Both vectors of [[1, 5e-8], [5e-8, 0]] over the orthant have a
    # smallest coordinate near 5e-8 (4.95e-8 in u_right), inside 10 tol
    # but not 100 tol, so the flags pin the margin at 10 tol.
    r = quasi_pair(np.array([[1.0, 5e-8], [5e-8, 0.0]]), ORTHANT2)
    assert 1e-8 < r.u_right.min() < 1e-7 and 1e-8 < r.v_left.min() < 1e-7
    assert r.u_interior and r.v_interior and r.is_saddle


@pytest.mark.parametrize("family, seed, upper, lower", TIE_BREAK_INPUTS)
def test_tie_break_inputs_solve_and_verify(tmp_path, family, seed, upper, lower):
    # Repeated normal spectra over a rotated cone drive the LPs of the
    # search nearly degenerate; the ratio-test tie-break must keep every
    # pivot primal feasible, so the values, their certificates and the
    # verify command all come out.
    a = repeated_normal(family, seed)
    cone = Cone.rotated(random_orthogonal(6, 3))
    r = quasi_pair(a, cone)
    tau = r.tol * max(1.0, np.linalg.norm(a, 2))
    assert abs(r.lambda_upper - upper) <= tau
    assert abs(r.lambda_lower - lower) <= tau
    assert inner_inf(a, cone, r.u_right) >= r.lambda_upper - 2.0 * tau
    assert inner_sup(a, cone, r.v_left) <= r.lambda_lower + 2.0 * tau
    p = tmp_path / "m.json"
    p.write_text(emit_matrix(a))
    code, rep = run(RunConfig(subcommand="verify", matrix_path=str(p), cone_spec="rotation:3"))
    assert code == 0 and "error" not in rep, rep


def _block_triangular_corpus():
    """Two hundred seeded ``[[B11, B12], [0, B22]]`` with generic or Perron
    diagonal blocks of sizes 1-3 and a coupling ``B12 >= 0``, ``<= 0`` or
    of mixed sign, whole or with a zero row, a zero column or both, each
    as ``(a, n1)``; ``B11`` is the source block, ``B22`` the sink."""
    rng = np.random.default_rng(29)
    cases = []
    for k in range(200):
        n1, n2 = 1 + k % 3, 1 + k // 3 % 3
        make = (random_matrix, random_irreducible_nonneg)[k % 2]
        a = np.zeros((n1 + n2, n1 + n2))
        a[:n1, :n1], a[n1:, n1:] = make(rng, n1), make(rng, n2)
        low, high = [(0.0, 1.0), (-1.0, 0.0), (-1.0, 1.0)][k // 9 % 3]
        c = rng.uniform(low, high, (n1, n2))
        zeros = k // 27 % 4
        if zeros & 1:
            c[rng.integers(n1), :] = 0.0
        if zeros & 2:
            c[:, rng.integers(n2)] = 0.0
        a[:n1, n1:] = c
        cases.append((a, n1))
    return cases


def test_block_triangular_values_meet_their_block_certificates():
    # Every cone vector certifies a bound: upper >= inner_inf(u) and lower
    # <= inner_sup(v).  So each block's vectors, padded with zeros, bound
    # the values of every block-triangular matrix; the source block's
    # upper vector and the sink block's lower vector always give finite
    # bounds (rules 1 and 2).  Each input is also solved as a permuted
    # copy P A P^T, with the block vectors permuted alike, and every
    # returned vector must certify its value.
    rng = np.random.default_rng(30)
    for k, (a, n1) in enumerate(_block_triangular_corpus()):
        n = a.shape[0]
        pairs = quasi_pair(a[:n1, :n1], Cone.orthant(n1)), quasi_pair(a[n1:, n1:], Cone.orthant(n - n1))
        pad = [np.zeros(n - n1), np.zeros(n1)]
        us = [np.r_[pairs[0].u_right, pad[0]], np.r_[pad[1], pairs[1].u_right]]
        vs = [np.r_[pairs[0].v_left, pad[0]], np.r_[pad[1], pairs[1].v_left]]
        p = np.eye(n)[rng.permutation(n)]
        for b, perm in ((a, np.eye(n)), (p @ a @ p.T, p)):
            cone = Cone.orthant(n)
            r = quasi_pair(b, cone)
            tau = r.tol * max(1.0, np.linalg.norm(b, 2))
            for u, v in zip(us, vs):
                assert r.lambda_upper >= inner_inf(b, cone, perm @ u) - 2.0 * tau, k
                assert r.lambda_lower <= inner_sup(b, cone, perm @ v) + 2.0 * tau, k
            assert math.isfinite(inner_inf(b, cone, perm @ us[0])), k
            assert math.isfinite(inner_sup(b, cone, perm @ vs[1])), k
            assert inner_inf(b, cone, r.u_right) >= r.lambda_upper - 2.0 * tau, k
            assert inner_sup(b, cone, r.v_left) <= r.lambda_lower + 2.0 * tau, k


def test_lower_value_of_a_split_input_is_its_sink_block_value():
    # B12 >= 0 with no zero row, so the lower value is the sink block's,
    # its largest eigenvalue 0.56085 (B22 is Metzler).  A search on the
    # whole matrix once cut its bracket at a t it had not proved and
    # returned 0.97189, which the sink block's left Perron vector refutes.
    a = np.array([
        [0.95893188, 0.36000391, 0.05642563, 0.0],
        [0.18966273, 0.27956996, 0.05125895, 0.86063481],
        [0.0, 0.0, -0.27402684, 0.93817297],
        [0.0, 0.0, 0.89120948, -0.44061667],
    ])
    cone = Cone.orthant(4)
    vals, vecs = np.linalg.eig(a[2:, 2:].T)
    z = np.r_[0.0, 0.0, np.abs(vecs[:, np.argmax(vals)])]
    bound = inner_sup(a, cone, z)
    assert bound == pytest.approx(0.56085, abs=1e-5)
    r = quasi_pair(a, cone)
    tau = r.tol * max(1.0, np.linalg.norm(a, 2))
    assert abs(r.lambda_lower - bound) <= tau
    assert inner_sup(a, cone, r.v_left) <= r.lambda_lower + 2.0 * tau


def test_undecided_value_takes_the_block_bound_past_a_wrong_search(monkeypatch):
    # A coupling of mixed sign decides neither value, so the whole matrix is
    # searched too.  That search finds the right lower value -0.45144; here
    # it is made to return 0.12685 instead, above the bound the sink block's
    # lower vector proves: lower <= -0.45144 = min(l1, l2), the value by
    # rule 2.  The block bound wins over the wrong search.
    import quasieig.quasi as quasi_module

    def wrong(b, tol, scale):
        upper, (lower, z) = search(b, tol, scale)
        return upper, (0.12685 if b.shape[0] == 5 else lower, z)

    search = quasi_module._search
    a = np.array([
        [-0.11599219, 0.46020014, -0.69823866, 0.53449183, 0.72994399],
        [0.09306362, 0.0576488, -0.63637047, 0.11607049, 0.28832873],
        [0.0, 0.0, 0.71608574, -0.60808931, -0.91876763],
        [0.0, 0.0, -0.43349288, -0.21521768, 0.21523092],
        [0.0, 0.0, 0.72414739, -0.49656772, 0.4176104],
    ])
    sink = quasi_pair(a[2:, 2:], Cone.orthant(3)).lambda_lower
    assert sink == pytest.approx(-0.45144, abs=1e-5)
    monkeypatch.setattr(quasi_module, "_search", wrong)
    searched = record_calls(monkeypatch, quasi_module, "_search")
    r = quasi_pair(a, Cone.orthant(5))
    assert [b.shape[0] for b, *_ in searched] == [2, 3, 5]  # both blocks, then the whole
    assert abs(r.lambda_lower - sink) <= 2.0 * r.tol * max(1.0, np.linalg.norm(a, 2))


@pytest.mark.parametrize(
    "reflect, head", [(False, False), (True, False), (False, True), (True, True)],
    ids=["False", "True", "False-behind_a_source", "True-behind_a_source"],
)
def test_a_zero_row_of_the_coupling_leaves_the_value_undecided(reflect, head):
    # B12 = [0, 1]^T >= 0 has a zero row, so rule 4 does not apply: z = e_1
    # has B^T z = (0, -1, 0) and proves lower <= 0, below the sink block's
    # value 1, and rule 2 gives lower >= min(0, 1).  Under -A^T the zero
    # row is a zero column of a coupling <= 0, and rule 6 does not apply.
    # Behind a source block [5] with a positive coupling, rule 4 gives the
    # lower value as this tail's, still undecided.
    a = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    if head:
        a = np.block([[np.full((1, 1), 5.0), np.ones((1, 3))], [np.zeros((3, 1)), a]])
    r = quasi_pair(-a.T if reflect else a, Cone.orthant(a.shape[0]))
    assert abs(-r.lambda_upper if reflect else r.lambda_lower) <= r.tol


@pytest.mark.parametrize("reflect", [False, True])
def test_a_decided_value_stands_past_a_better_looking_search(monkeypatch, reflect):
    # In the matrix above, rule 3 decides the upper value and the lower one
    # is left to a search on the whole matrix.  That search is made to
    # return an upper value 1 too high as well, which beats the decided
    # value; the decided value stands.  Under -A^T the roles swap.
    import quasieig.quasi as quasi_module

    a = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    a = -a.T if reflect else a
    right = quasi_pair(a, Cone.orthant(3))

    def wrong(b, tol, scale):
        (up, w), (lo, z) = search(b, tol, scale)
        if b.shape[0] == 3:
            up, lo = (up, lo - 1.0) if reflect else (up + 1.0, lo)
        return (up, w), (lo, z)

    search = quasi_module._search
    monkeypatch.setattr(quasi_module, "_search", wrong)
    r = quasi_pair(a, Cone.orthant(3))
    assert (r.lambda_upper, r.lambda_lower) == (right.lambda_upper, right.lambda_lower)


def _jordan_cases():
    """Nilpotent Jordan blocks of sizes 1-8, their transposes and a
    seeded permuted copy of each."""
    rng = np.random.default_rng(47)
    cases = []
    for k in range(1, 9):
        for j in (np.diag(np.ones(k - 1), 1), np.diag(np.ones(k - 1), -1)):
            p = np.eye(k)[rng.permutation(k)]
            cases += [j, p @ j @ p.T]
    return cases


@pytest.mark.parametrize("case", range(32))
def test_jordan_blocks_are_exact_and_take_at_most_two_lps(monkeypatch, case):
    # Every strong component of a nilpotent Jordan block is 1x1, with value
    # 0, and every coupling is >= 0 with no zero row where it is nonzero:
    # both values are exactly 0, and only the two final re-solves run.
    import quasieig.quasi as quasi_module

    a = _jordan_cases()[case]
    solves = record_calls(monkeypatch, quasi_module, "solve_max_eps")
    r = quasi_pair(a, Cone.orthant(a.shape[0]))
    assert (r.lambda_upper, r.lambda_lower) == (0.0, 0.0)
    assert len(solves) <= 2
