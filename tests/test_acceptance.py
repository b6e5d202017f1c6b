"""Acceptance suite: one test per criterion, each printing a pass/fail
line and enforcing its LP budget: the number of ``solve_max_eps`` calls
the quasi-eigenvalue search makes for the criterion.  Bland's rule makes
every solve deterministic, so the count repeats exactly from run to run.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.
"""

import math

import numpy as np
import pytest

import quasieig.quasi as quasi_module
from quasieig import (
    Cone,
    MatrixFacts,
    brute_minimax,
    cone_metric,
    eig_oracle,
    invariance_check,
    operator_norm,
    perturbation_bound_check,
    perturbation_constants,
    quasi_pair,
    random_orthogonal,
    symmetric_part_eigs,
    theorem4_classify,
)
from quasieig.analysis import rotation_block
from helpers import (
    givens_rotation,
    orthogonal_mapping_uniform_to,
    random_irreducible_nonneg,
    random_isc,
    random_matrix,
    random_normal_matrix,
    record_calls,
)

EX1 = np.diag([2.0, 1.0])
EX2 = np.array([[1.0, -1.0], [1.0, 1.0]])
ISC = np.array([[0.0, 2.0], [3.0, 0.0]])


@pytest.fixture
def lps(monkeypatch):
    """The LPs the criterion solves, one entry per search LP."""
    return record_calls(monkeypatch, quasi_module, "solve_max_eps")


def _report(num, name, ok, lps, budget, detail=""):
    status = "PASS" if ok and len(lps) <= budget else "FAIL"
    print(f"criterion {num:2d} ({name}): {status}  [{len(lps)} / {budget} LPs] {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert len(lps) <= budget, f"criterion {num}: {len(lps)} LPs over budget {budget}"


def test_criterion_1_example1_fixture(lps):
    r = quasi_pair(EX1, Cone.orthant(2))
    ok = (
        abs(r.lambda_upper - 2.0) <= 1e-8
        and abs(r.lambda_lower - 1.0) <= 1e-8
        and np.allclose(r.u_right / np.sum(r.u_right), [1.0, 0.0], atol=1e-8)
        and np.allclose(r.v_left / np.linalg.norm(r.v_left), [0.0, 1.0], atol=1e-8)
        and not r.u_interior
        and not r.v_interior
        and not r.is_saddle
    )
    _report(1, "example-1 fixture", ok, lps, 3,
            f"upper={r.lambda_upper:.12g} lower={r.lambda_lower:.12g}")


def test_criterion_2_example2_fixture(lps):
    r = quasi_pair(EX2, Cone.orthant(2))
    eigs = sorted((lam for lam, _ in eig_oracle(EX2)), key=lambda z: z.imag)
    ok = (
        abs(r.lambda_upper - 1.0) <= 1e-8
        and abs(r.lambda_lower - 1.0) <= 1e-8
        and np.allclose(r.u_right / np.sum(r.u_right), [1.0, 0.0], atol=1e-8)
        and np.allclose(r.v_left / np.linalg.norm(r.v_left), [1.0, 0.0], atol=1e-8)
        and abs(eigs[0] - (1 - 1j)) <= 1e-8
        and abs(eigs[1] - (1 + 1j)) <= 1e-8
    )
    _report(2, "example-2 fixture", ok, lps, 3,
            f"upper={r.lambda_upper:.12g} lower={r.lambda_lower:.12g}")


def test_criterion_3_perron_root_identity(lps):
    rng = np.random.default_rng(1003)
    ok = True
    detail = ""
    for k in range(100):
        n = int(rng.integers(2, 9))
        a = random_irreducible_nonneg(rng, n)
        r = quasi_pair(a, Cone.orthant(n), tol=1e-9)
        vals = np.array([lam for lam, _ in eig_oracle(a)])
        rho = float(np.abs(vals).max())
        nearest = vals[np.argmin(np.abs(vals - r.lambda_upper))]
        simple = int(np.sum(np.abs(vals - nearest) <= 1e-6)) == 1
        good = (
            abs(r.lambda_upper - rho) <= 1e-6
            and r.is_saddle
            and r.u_interior
            and r.v_interior
            and r.eigen_residual_right <= 1e-6
            and r.eigen_residual_left <= 1e-6
            and simple
        )
        if not good:
            ok = False
            detail = f"instance {k} (n={n}): |upper-rho|={abs(r.lambda_upper - rho):.2e}"
            break
    _report(3, "perron root identity x100", ok, lps, 631, detail)


def test_criterion_4_minimax_equality_oracle(lps):
    rng = np.random.default_rng(1004)
    ok = True
    detail = ""
    worst_eq = worst_lp = 0.0
    for k in range(100):
        n = int(rng.integers(2, 4))
        a = random_matrix(rng, n)
        cone = Cone.rotated(random_orthogonal(n, int(rng.integers(0, 2**31))))
        si, isup = brute_minimax(a, cone, 2000)
        lam = quasi_pair(a, cone).lambda_upper
        worst_eq = max(worst_eq, abs(si - isup))
        worst_lp = max(worst_lp, abs(lam - si))
        if abs(si - isup) > 1e-2 or abs(lam - si) > 1e-2:
            ok = False
            detail = f"instance {k} (n={n}): eq={abs(si-isup):.2e} lp={abs(lam-si):.2e}"
            break
    _report(4, "minimax equality oracle x100", ok, lps, 479,
            detail or f"worst |si-is|={worst_eq:.2e}, worst |lp-si|={worst_lp:.2e}")


def test_criterion_5_orthogonal_invariance(lps):
    rng = np.random.default_rng(1005)
    ok = True
    detail = ""
    worst = 0.0
    for k in range(100):
        n = int(rng.integers(2, 7))
        a = random_matrix(rng, n)
        u = random_orthogonal(n, int(rng.integers(0, 2**31)))
        cone = (
            Cone.rotated(random_orthogonal(n, int(rng.integers(0, 2**31))))
            if k % 2
            else Cone.orthant(n)
        )
        rep = invariance_check(a, cone, u, tol=5e-9)
        worst = max(worst, rep.lhs)
        if rep.lhs > 1e-8:
            ok = False
            detail = f"instance {k}: dev={rep.lhs:.2e}"
            break
    _report(5, "orthogonal invariance x100", ok, lps, 1578,
            detail or f"worst dev={worst:.2e}")


def test_criterion_6_weyl_perturbation_suite(lps):
    rng = np.random.default_rng(1006)
    ok = True
    detail = ""
    count = 0
    for k in range(100):
        n = int(rng.integers(2, 7))
        a = random_isc(rng, n)
        cone = Cone.orthant(n)
        facts = MatrixFacts(a)
        base = facts.pair(cone, 1e-9)
        lam = 0.5 * (base.lambda_upper + base.lambda_lower)
        c0 = perturbation_constants(facts, cone).c0
        for j in range(5):
            d = rng.standard_normal((n, n))
            d *= rng.uniform(0.02, 0.1) * operator_norm(a) / operator_norm(d)
            kind = j % 3
            if kind == 1:
                d = np.abs(d)
            elif kind == 2:
                d = -np.abs(d)
            moved = quasi_pair(a + d, cone, tol=1e-9)
            count += 1
            dev = max(abs(moved.lambda_upper - lam), abs(moved.lambda_lower - lam))
            good = dev <= c0 * operator_norm(d) + 1e-8
            if kind == 1:
                good = good and moved.lambda_lower >= base.lambda_upper - 1e-8
            elif kind == 2:
                good = good and moved.lambda_upper <= base.lambda_lower + 1e-8
            if not good:
                ok = False
                detail = f"A#{k} D#{j} kind={kind}: dev={dev:.2e} bound={c0 * operator_norm(d):.2e}"
                break
        if not ok:
            break
    _report(6, f"weyl perturbation suite x{count}", ok, lps, 3724, detail)


def test_criterion_7_spectral_sandwich(lps):
    rng = np.random.default_rng(1007)
    ok = True
    detail = ""
    for k in range(200):
        n = int(rng.integers(2, 7))
        normal_instance = k % 2 == 0
        if normal_instance:
            a, _, _, _ = random_normal_matrix(rng, n)
        else:
            a = random_matrix(rng, n)
        cone = Cone.rotated(random_orthogonal(n, int(rng.integers(0, 2**31))))
        r = quasi_pair(a, cone, tol=1e-9)
        sym = symmetric_part_eigs(a)
        good = (
            r.lambda_lower >= sym[0] - 1e-8
            and r.lambda_upper <= sym[-1] + 1e-8
            and r.lambda_upper >= r.lambda_lower - 1e-8
        )
        if normal_instance:
            res = [lam.real for lam, _ in eig_oracle(a)]
            good = good and min(res) - 1e-8 <= r.lambda_lower and r.lambda_upper <= max(res) + 1e-8
        if not good:
            ok = False
            detail = f"instance {k} (n={n}, normal={normal_instance})"
            break
    _report(7, "spectral sandwich x200", ok, lps, 1465, detail)


def test_criterion_8_theorem4_classification(lps):
    rng = np.random.default_rng(1008)
    ok = True
    detail = ""
    # 4x4 two-block fixture first: exact values known by construction.
    a4 = np.zeros((4, 4))
    a4[:2, :2] = rotation_block(1.0, np.pi / 4)
    a4[2:, 2:] = rotation_block(2.0, 3 * np.pi / 4)
    pair = quasi_pair(a4, Cone.orthant(4), tol=1e-9)
    ok = (
        abs(pair.lambda_upper - math.sqrt(2) / 2) <= 1e-8
        and abs(pair.lambda_lower + math.sqrt(2)) <= 1e-8
        and theorem4_classify(a4, Cone.orthant(4), tol=1e-7).holds
    )
    if not ok:
        detail = "4x4 two-block fixture"
    # 100 constructed instances over the provably-covered cone families:
    # the conjugated orthant, dimension 2 with independent random cones,
    # and cones holding a real eigenvector strictly inside.
    count = 0
    while ok and count < 100:
        family = count % 3
        if family == 0:
            n = int(rng.integers(3, 7))
            a, _, _, v = random_normal_matrix(rng, n)
            cone = Cone.rotated(v)
        elif family == 1:
            n = 2
            a, _, _, _ = random_normal_matrix(rng, 2)
            cone = Cone.rotated(random_orthogonal(2, int(rng.integers(0, 2**31))))
        else:
            n = int(rng.integers(3, 7))
            a, blocks, mus, v = random_normal_matrix(rng, n)
            if not mus:
                continue
            cone = Cone.rotated(orthogonal_mapping_uniform_to(v[:, 2 * len(blocks)]))
        rep = theorem4_classify(a, cone, tol=1e-7)
        count += 1
        if not rep.holds:
            ok = False
            detail = f"instance {count} family {family} (n={n}): {rep.details[:120]}"
    _report(8, "normal-matrix classification x100", ok, lps, 436, detail)


def test_criterion_9_skew_fixture(lps):
    skew = np.array([[0.0, -1.0], [1.0, 0.0]])
    ok = True
    detail = ""
    for k in range(20):
        cone = Cone.rotated(random_orthogonal(2, 9000 + k))
        r = quasi_pair(skew, cone, tol=1e-9)
        if abs(r.lambda_upper) > 1e-8 or abs(r.lambda_lower) > 1e-8:
            ok = False
            detail = f"cone {k}: upper={r.lambda_upper:.2e} lower={r.lambda_lower:.2e}"
            break
    _report(9, "skew-symmetric fixture x20 cones", ok, lps, 44, detail)


def test_criterion_10_cone_continuity(lps):
    # Rotating the cone by R is the perturbation D = R^T A R - A, so the
    # stability bound gives dev <= c0 ||D|| <= 2 c0 ||A|| cone_metric(C, R C).
    cone = Cone.orthant(2)
    facts = MatrixFacts(ISC)
    base = facts.pair(cone, 1e-9)
    lam = 0.5 * (base.lambda_upper + base.lambda_lower)
    c0 = perturbation_constants(facts, cone).c0
    scale = max(1.0, operator_norm(ISC))
    ok = True
    detail = ""
    for theta in [0.1, 0.05, 0.01, 0.001]:
        rot = givens_rotation(2, 0, 1, theta)
        rep = perturbation_bound_check(facts, cone, rot.T @ ISC @ rot - ISC)
        moved_cone = Cone.rotated(rot)
        moved = quasi_pair(ISC, moved_cone)
        dev = max(abs(moved.lambda_upper - lam), abs(moved.lambda_lower - lam))
        bound = 2.0 * c0 * scale * cone_metric(cone, moved_cone) + 1e-9 * scale
        detail = f"theta={theta:g} dev={dev:.2e} bound={bound:.2e}"
        if not (rep.holds and dev <= bound):
            ok = False
            break
    ok = ok and dev <= 1e-2
    _report(10, "cone continuity via perturbation bound", ok, lps, 50, detail)
