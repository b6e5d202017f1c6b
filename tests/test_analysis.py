import ast
import dataclasses
import math

import numpy as np
import pytest

from quasieig import (
    Cone,
    ConvergenceFailure,
    DimensionMismatch,
    MatrixFacts,
    NotInterior,
    NotNormal,
    PerturbationBound,
    bounds_check,
    classify,
    contains,
    invariance_check,
    isc_check,
    max_re_check,
    normal_canonical_form,
    operator_norm,
    perron_check,
    perturbation_bound_check,
    perturbation_constants,
    quasi_pair,
    random_orthogonal,
    rotation_block,
    theorem4_classify,
)
from quasieig.analysis import assemble_canonical
from helpers import (
    REPEATED_SPECTRA,
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

ISC = np.array([[0.0, 2.0], [3.0, 0.0]])
ORTHANT2 = Cone.orthant(2)


def test_perron_check_examples():
    rep = perron_check([[0.0, 1.0], [1.0, 0.0]])
    assert rep.applicable and rep.holds
    assert rep.lhs == pytest.approx(1.0, abs=1e-8)
    assert "equality" in rep.details

    rep = perron_check([[0.0, 1.0], [0.0, 0.0]])
    assert rep.holds
    # nilpotent reducible structure: its 1x1 blocks are their own values,
    # so the value is exactly 0
    assert rep.lhs == 0.0 and rep.rhs == pytest.approx(0.0, abs=1e-12)

    rep = perron_check(np.eye(2))
    assert rep.holds and rep.lhs == pytest.approx(1.0, abs=1e-8)

    assert not perron_check([[1.0, -1.0], [1.0, 1.0]]).applicable


def test_max_re_check_examples():
    rep = max_re_check([[-1.0, 1.0], [1.0, -1.0]])
    assert rep.applicable and rep.holds
    assert rep.lhs == pytest.approx(0.0, abs=1e-8)
    rep = max_re_check(np.diag([2.0, 1.0]))
    assert rep.holds and rep.lhs == pytest.approx(2.0, abs=1e-8)
    rep = max_re_check(ISC)
    assert rep.holds and rep.lhs == pytest.approx(math.sqrt(6.0), abs=1e-8)
    assert not max_re_check([[0.0, -1.0], [1.0, 0.0]]).applicable


def test_isc_check_examples():
    rep = isc_check(ISC)
    assert rep.applicable and rep.holds
    assert rep.lhs == pytest.approx(math.sqrt(6.0), abs=1e-8)
    rep = isc_check([[0.0, -2.0], [-3.0, 0.0]])
    assert rep.applicable and rep.holds
    assert rep.lhs == pytest.approx(-math.sqrt(6.0), abs=1e-8)
    assert not isc_check(np.eye(2)).applicable


@pytest.mark.parametrize("scale", [1e-9, 1e-7, 1.0, 1e7])
def test_isc_check_reads_a_simple_eigenvalue_at_any_scale(scale):
    # Eigenvalues +-2.45 scale lie within an absolute 1e-6 of each other
    # for scale <= 1e-7; the window scales with ||A||.
    rep = isc_check(scale * ISC)
    assert rep.applicable and rep.holds, rep.details
    assert "simple=True" in rep.details


def test_isc_check_does_not_apply_through_rounding():
    # V (2 I) V^T is 2 I up to off-diagonal rounding of about 1e-17, which
    # the exact classify flags read as irreducible sign-constant.  At the
    # checker's resolution the matrix is reducible, so the check does not
    # apply, and on no repeated-spectrum matrix may it fail.
    a = repeated_normal("two_i3", 68)
    rep = isc_check(a)
    assert classify(a).isc and not rep.applicable
    assert "irreducible only through entries <= 2e-09" in rep.details
    for family in REPEATED_SPECTRA:
        for seed in range(200):
            rep = isc_check(repeated_normal(family, seed))
            assert rep.holds or not rep.applicable, (family, seed, rep.details)


def test_perturbation_constants_examples():
    pb = perturbation_constants(ISC, ORTHANT2)
    assert pb.c1 == pytest.approx(math.sqrt(5.0) / math.sqrt(2.0), abs=1e-7)
    assert pb.c2 == pytest.approx(math.sqrt(5.0) / math.sqrt(2.0), abs=1e-7)
    assert pb.c0 == max(pb.c1, pb.c2)
    assert pb.c1 >= 1.0 and pb.c2 >= 1.0

    for n in (2, 3, 5):
        pb = perturbation_constants(np.eye(n), Cone.orthant(n))
        assert pb.c1 == pytest.approx(math.sqrt(n), abs=1e-6)

    with pytest.raises(NotInterior):
        perturbation_constants(np.diag([2.0, 1.0]), ORTHANT2)


def _facts_with_pair(a, cone, **changes):
    """A ``MatrixFacts`` whose pair over ``cone`` at the default tol is the
    solved one with ``changes`` applied."""
    facts = MatrixFacts(a)
    key = (cone.basis.tobytes(), 1e-9)
    facts._pairs[key] = dataclasses.replace(facts.pair(cone, 1e-9), **changes)
    return facts


def _check_names(rep):
    return [part.split(":")[0] for part in rep.details.split("; ")[:-1]]


@pytest.mark.parametrize("interior", ["u", "v"])
def test_one_interior_vector_gives_its_one_sided_constant_and_bounds(interior):
    # ISC's pair has both vectors interior; each is made a boundary vector
    # in turn.  Only the interior one's constant is finite, and only its
    # one-sided bounds are checked.
    facts = _facts_with_pair(ISC, ORTHANT2, u_interior=interior == "u", v_interior=interior == "v")
    pb = perturbation_constants(facts, ORTHANT2)
    finite = pytest.approx(math.sqrt(5.0) / math.sqrt(2.0), abs=1e-7)
    assert (pb.c1, pb.c2) == ((math.inf, finite) if interior == "u" else (finite, math.inf))
    up = perturbation_bound_check(facts, ORTHANT2, 0.1 * np.ones((2, 2)))
    down = perturbation_bound_check(facts, ORTHANT2, -0.1 * np.ones((2, 2)))
    assert up.holds and down.holds
    if interior == "u":
        assert _check_names(up) == ["lower_vs_upper_lipschitz", "monotone_nonnegative"]
        assert _check_names(down) == ["lower_vs_upper_lipschitz"]
    else:
        assert _check_names(up) == ["upper_vs_lower_lipschitz"]
        assert _check_names(down) == ["upper_vs_lower_lipschitz", "monotone_nonpositive"]


@pytest.mark.parametrize(
    "changes", [dict(is_saddle=False), dict(eigen_residual_right=1.0), dict(eigen_residual_left=1.0)]
)
def test_isc_check_fails_without_each_part_of_its_saddle(changes):
    assert isc_check(ISC).holds
    assert not isc_check(_facts_with_pair(ISC, ORTHANT2, **changes)).holds


def test_isc_check_fails_at_a_repeated_eigenvalue():
    facts = MatrixFacts(ISC)
    lam = facts.pair(ORTHANT2, 1e-9).lambda_upper
    facts.eigs = [(complex(lam), np.ones(2)), (complex(lam), np.ones(2))]
    rep = isc_check(facts)
    assert not rep.holds and "simple=False" in rep.details


def test_perturbation_bound_check_zero_and_signed():
    rep = perturbation_bound_check(ISC, ORTHANT2, np.zeros((2, 2)))
    assert rep.holds
    rep = perturbation_bound_check(ISC, ORTHANT2, 0.1 * np.ones((2, 2)))
    assert rep.holds and "monotone_nonnegative" in rep.details
    rep = perturbation_bound_check(ISC, ORTHANT2, -0.1 * np.ones((2, 2)))
    assert rep.holds and "monotone_nonpositive" in rep.details
    # Both vectors interior: both one-sided bounds and the two-sided one.
    rep = perturbation_bound_check(ISC, ORTHANT2, [[0.1, -0.1], [0.0, 0.0]])
    assert rep.holds and rep.details.endswith("; perturbation_sign=mixed")
    assert _check_names(rep) == [
        "upper_vs_lower_lipschitz", "lower_vs_upper_lipschitz", "two_sided_stability"
    ]
    assert not perturbation_bound_check(np.diag([2.0, 1.0]), ORTHANT2, np.eye(2)).applicable


def test_perturbation_bound_random_small_suite():
    rng = np.random.default_rng(20)
    for k in range(25):
        n = int(rng.integers(2, 6))
        a = random_isc(rng, n)
        d = rng.standard_normal((n, n))
        d *= 0.05 * operator_norm(a) / operator_norm(d)
        if k % 3 == 1:
            d = np.abs(d)
        elif k % 3 == 2:
            d = -np.abs(d)
        rep = perturbation_bound_check(a, Cone.orthant(n), d)
        assert rep.holds, rep


def _rotation_perturbation(a, theta):
    """``R^T A R - A`` for the Givens rotation ``R`` by ``theta``: the values
    of ``A`` over ``R C`` are those of ``A`` plus this over ``C``."""
    rot = givens_rotation(2, 0, 1, theta)
    return rot.T @ a @ rot - a


def test_perturbation_bound_check_on_cone_rotations():
    for theta in [0.1, 0.05, 0.01]:
        rep = perturbation_bound_check(ISC, ORTHANT2, _rotation_perturbation(ISC, theta))
        assert rep.holds and rep.lhs <= rep.rhs, rep

    d = _rotation_perturbation(np.eye(2), 0.0)
    assert not d.any()
    rep = perturbation_bound_check(np.eye(2), ORTHANT2, d)
    assert rep.holds and rep.lhs == 0.0
    rep = perturbation_bound_check(np.eye(2), ORTHANT2, _rotation_perturbation(np.eye(2), 0.1))
    assert rep.holds and rep.slack == pytest.approx(0.0, abs=1e-9)

    a = np.diag([2.0, 1.0])
    rep = perturbation_bound_check(a, ORTHANT2, _rotation_perturbation(a, 0.1))
    assert not rep.applicable and "boundary" in rep.details


def test_perturbation_bound_check_fails_on_a_rotation_with_shrunken_constants(monkeypatch):
    # At angle 0.3 the Perron vector of this matrix leaves the rotated
    # orthant, and the two-sided deviation reaches 0.89 of c0 ||D||.
    a = np.array([[0.6, 0.4], [0.2, 0.0]])
    d = _rotation_perturbation(a, 0.3)
    assert perturbation_bound_check(a, ORTHANT2, d).holds

    import quasieig.analysis as analysis_module

    real = analysis_module.perturbation_constants

    def shrunken(*args, **kwargs):
        pb = real(*args, **kwargs)
        return PerturbationBound(c1=pb.c1 / 10.0, c2=pb.c2 / 10.0)

    monkeypatch.setattr(analysis_module, "perturbation_constants", shrunken)
    rep = perturbation_bound_check(a, ORTHANT2, d)
    assert rep.applicable and not rep.holds, rep


def test_bounds_check_examples():
    rng = np.random.default_rng(21)
    for k in range(5):
        cone = Cone.rotated(random_orthogonal(2, 60 + k))
        rep = bounds_check([[0.0, -1.0], [1.0, 0.0]], cone)
        assert rep.holds
        assert rep.lhs == pytest.approx(0.0, abs=1e-8)
        assert rep.rhs == pytest.approx(0.0, abs=1e-8)
    rep = bounds_check([[1.0, -1.0], [1.0, 1.0]], ORTHANT2)
    assert rep.holds
    assert rep.lhs == pytest.approx(1.0, abs=1e-8)
    for k in range(20):
        n = int(rng.integers(2, 7))
        a = rng.uniform(-1, 1, (n, n))
        cone = Cone.rotated(random_orthogonal(n, 100 + k))
        assert bounds_check(a, cone).holds


def test_bounds_check_holds_where_the_two_values_coincide():
    # Each value is the lower end of a bracket narrowed to tol/2 around the
    # truth, so a coinciding upper and lower value differ by at most tol,
    # the margin the sandwich allows for upper - lower.  A search stopping
    # at width tol could leave them 2 tol apart.
    rng = np.random.default_rng(22)
    coinciding = 0
    for _ in range(60):
        n = int(rng.integers(2, 9))
        a = rng.uniform(-1, 1, (n, n))
        cone = Cone.orthant(n)
        facts = MatrixFacts(a)
        r = facts.pair(cone, 1e-9)
        if abs(r.lambda_upper - r.lambda_lower) > r.tol:
            continue
        coinciding += 1
        rep = bounds_check(facts, cone)
        assert rep.holds, rep.details
        assert r.lambda_upper - r.lambda_lower >= -r.tol
    assert coinciding >= 30


def test_normal_canonical_form_examples():
    form = normal_canonical_form([[0.0, -1.0], [1.0, 0.0]])
    assert form.l == 1 and form.real_eigs == []
    r, theta = form.rotation_blocks[0]
    assert r == pytest.approx(1.0, abs=1e-10)
    assert theta == pytest.approx(np.pi / 2, abs=1e-10)

    form = normal_canonical_form(np.diag([3.0, -1.0]))
    assert form.l == 0 and form.real_eigs == [3.0, -1.0]

    v = random_orthogonal(3, 11)
    o = np.zeros((3, 3))
    o[:2, :2] = rotation_block(2.0, np.pi / 3)
    o[2, 2] = 5.0
    a = v @ o @ v.T
    form = normal_canonical_form(a)
    assert form.rotation_blocks[0][0] == pytest.approx(2.0, abs=1e-8)
    assert form.rotation_blocks[0][1] == pytest.approx(np.pi / 3, abs=1e-8)
    assert form.real_eigs[0] == pytest.approx(5.0, abs=1e-8)

    with pytest.raises(NotNormal):
        normal_canonical_form([[1.0, 1.0], [0.0, 1.0]])


def test_normal_canonical_form_raises_on_each_broken_contract(monkeypatch):
    e1, e2 = np.eye(2)
    facts = MatrixFacts(np.diag([2.0, 1.0]))
    facts.eigs = [(1.0 + 1.0j, e1), (2.0, e2)]  # a complex eigenvalue without its conjugate
    with pytest.raises(ConvergenceFailure, match="conjugate eigenvalues do not pair up"):
        normal_canonical_form(facts)
    facts = MatrixFacts(np.diag([2.0, 1.0]))
    facts.eigs = [(2.0, e2), (1.0, e1)]  # each eigenvalue with the other's vector
    with pytest.raises(ConvergenceFailure, match="canonical form residual exceeds contract"):
        normal_canonical_form(facts)
    monkeypatch.setattr(np.linalg, "qr", lambda m: (2.0 * np.eye(len(m)), np.eye(len(m))))
    with pytest.raises(ConvergenceFailure, match="canonical basis lost orthogonality"):
        normal_canonical_form(np.diag([2.0, 1.0]))


def test_normal_canonical_form_invariants():
    rng = np.random.default_rng(22)
    for k in range(15):
        n = int(rng.integers(2, 7))
        a, _, _, _ = random_normal_matrix(rng, n)
        form = normal_canonical_form(a)
        nrm = operator_norm(a)
        assert operator_norm(form.u_a.T @ form.u_a - np.eye(n)) <= 1e-8
        assert operator_norm(form.u_a.T @ a @ form.u_a - assemble_canonical(form)) <= 1e-8 * nrm
        # block data reproduces the spectrum as a multiset
        spec = sorted(
            [complex(r * np.cos(t), r * np.sin(t)) for r, t in form.rotation_blocks]
            + [complex(r * np.cos(t), -r * np.sin(t)) for r, t in form.rotation_blocks]
            + [complex(mu) for mu in form.real_eigs],
            key=lambda z: (z.real, z.imag),
        )
        from quasieig import eig_oracle

        ora = sorted((lam for lam, _ in eig_oracle(a)), key=lambda z: (z.real, z.imag))
        assert all(abs(s - o) <= 1e-8 for s, o in zip(spec, ora))
        # ordering contract: blocks by descending real part, reals descending
        res = [r * np.cos(t) for r, t in form.rotation_blocks]
        assert res == sorted(res, reverse=True)
        assert form.real_eigs == sorted(form.real_eigs, reverse=True)


def test_normal_canonical_form_degenerate_clusters():
    # repeated complex pair: two identical blocks
    o = np.zeros((4, 4))
    o[:2, :2] = rotation_block(1.0, np.pi / 3)
    o[2:, 2:] = rotation_block(1.0, np.pi / 3)
    v = random_orthogonal(4, 5)
    a = v @ o @ v.T
    form = normal_canonical_form(a)
    assert form.l == 2
    for r, theta in form.rotation_blocks:
        assert r == pytest.approx(1.0, abs=1e-8)
        assert theta == pytest.approx(np.pi / 3, abs=1e-8)
    assert operator_norm(form.u_a.T @ a @ form.u_a - assemble_canonical(form)) <= 1e-10

    # repeated real eigenvalue
    v2 = random_orthogonal(3, 9)
    a2 = v2 @ np.diag([2.0, 2.0, -1.0]) @ v2.T
    form2 = normal_canonical_form(a2)
    assert form2.real_eigs == pytest.approx([2.0, 2.0, -1.0], abs=1e-8)
    assert operator_norm(form2.u_a.T @ a2 @ form2.u_a - assemble_canonical(form2)) <= 1e-10


@pytest.mark.parametrize(
    "family, seed", [(fam, seed) for fam, (_, _, seeds) in REPEATED_SPECTRA.items() for seed in seeds]
)
def test_normal_canonical_form_on_repeated_spectra(family, seed):
    # Each repeated eigenspace gets one orthonormal basis from the QR; the
    # block data are the spectrum in the documented order.
    blocks, reals, _ = REPEATED_SPECTRA[family]
    a = repeated_normal(family, seed)
    n = a.shape[0]
    form = normal_canonical_form(a)
    assert operator_norm(form.u_a.T @ form.u_a - np.eye(n)) <= 1e-8
    assert operator_norm(form.u_a.T @ a @ form.u_a - assemble_canonical(form)) <= 1e-8 * operator_norm(a)
    assert form.l == len(blocks)
    assert np.allclose(np.reshape(form.rotation_blocks, (-1, 2)), np.reshape(blocks, (-1, 2)), atol=1e-8)
    assert form.real_eigs == pytest.approx(sorted(reals, reverse=True), abs=1e-8)
    for cone in (Cone.orthant(n), Cone.rotated(random_orthogonal(n, 3))):
        rep = theorem4_classify(a, cone)
        assert rep.holds or not rep.applicable, rep


def test_theorem4_classify_examples():
    rep = theorem4_classify([[0.0, -1.0], [1.0, 0.0]], ORTHANT2)
    assert rep.holds and "interior-subspace" in rep.details
    assert "mixed_block_sizes=False" in rep.details  # one 2-plane, no real eigenvalue

    a4 = np.zeros((4, 4))
    a4[:2, :2] = rotation_block(1.0, np.pi / 4)
    a4[2:, 2:] = rotation_block(2.0, 3 * np.pi / 4)
    rep = theorem4_classify(a4, Cone.orthant(4))
    assert rep.holds and "boundary-only" in rep.details
    pair = quasi_pair(a4, Cone.orthant(4))
    assert pair.lambda_upper == pytest.approx(np.sqrt(2) / 2, abs=1e-8)
    assert pair.lambda_lower == pytest.approx(-np.sqrt(2), abs=1e-8)

    rep = theorem4_classify(np.diag([2.0, 1.0]), ORTHANT2)
    assert rep.holds and "boundary-only" in rep.details
    assert "mixed_block_sizes=False" in rep.details  # real eigenvalues, no 2-plane
    a3 = np.zeros((3, 3))
    a3[:2, :2] = rotation_block(1.0, np.pi / 4)
    a3[2, 2] = 2.0
    assert "mixed_block_sizes=True" in theorem4_classify(a3, Cone.orthant(3)).details

    with pytest.raises(NotNormal):
        theorem4_classify([[1.0, 1.0], [0.0, 1.0]], ORTHANT2)


def test_theorem4_classify_rejects_a_cone_of_another_size():
    with pytest.raises(DimensionMismatch, match="matrix and cone dimensions differ"):
        theorem4_classify(np.eye(2), Cone.orthant(3))
    # normality is checked first
    with pytest.raises(NotNormal):
        theorem4_classify([[1.0, 1.0], [0.0, 1.0]], Cone.orthant(3))


def test_theorem4_aligned_cones_suite():
    # The cone is the conjugated orthant: the geometry the block
    # classification covers (its subspace rule is tied to the canonical
    # axes; see the misalignment test below).
    rng = np.random.default_rng(23)
    for _ in range(12):
        n = int(rng.integers(2, 7))
        a, _, _, v = random_normal_matrix(rng, n)
        rep = theorem4_classify(a, Cone.rotated(v), tol=1e-7)
        assert rep.holds, rep


def test_theorem4_interior_eigenvector_cones():
    # A real eigenvector of a normal matrix is a right and left
    # eigenvector at once, so a cone holding it strictly inside pins both
    # quasi-eigenvalues to its eigenvalue.
    from helpers import orthogonal_mapping_uniform_to

    rng = np.random.default_rng(24)
    hits = 0
    while hits < 8:
        n = int(rng.integers(3, 7))
        a, blocks, mus, v = random_normal_matrix(rng, n)
        if not mus:
            continue
        hits += 1
        phi = v[:, 2 * len(blocks)]  # eigenvector of mus[0]
        cone = Cone.rotated(orthogonal_mapping_uniform_to(phi))
        rep = theorem4_classify(a, cone, tol=1e-7)
        assert rep.holds and "interior-subspace" in rep.details, rep


def test_theorem4_detects_misaligned_counterexample():
    # For cones not aligned with the canonical axes the block rule can
    # genuinely fail: a 2-plane may cut the open cone with neither of its
    # axes inside, and the computed values then sit strictly between the
    # eigenvalue real parts.  The checker must not claim the rule there:
    # with no real eigenvector inside the cone it is not applicable.  LP
    # search and the grid oracle are required to agree on the values, so
    # the failure would be the prediction's.
    from quasieig import brute_minimax

    o = np.zeros((3, 3))
    o[:2, :2] = rotation_block(1.362, 0.8698)
    o[2, 2] = 1.0577
    predicted_block = 1.362 * np.cos(0.8698)
    v = random_orthogonal(3, 41)
    a = v @ o @ v.T
    found = False
    for seed in range(30):
        cone = Cone.rotated(random_orthogonal(3, seed))
        rep = theorem4_classify(a, cone, tol=1e-7)
        if rep.applicable:
            assert rep.holds, rep
            continue
        assert "meets=[True, False]" in rep.details, rep
        pair = quasi_pair(a, cone)
        if found or abs(pair.lambda_upper - predicted_block) <= 1e-3:
            continue
        found = True
        si, isup = brute_minimax(a, cone, 2000)
        assert abs(pair.lambda_upper - si) <= 1e-2
        assert abs(si - isup) <= 1e-2
    assert found, "no misaligned counterexample found in the seed scan"


def _meets_by_scan(a, cone):
    """Which invariant subspaces of the canonical form meet the open cone,
    read without an LP: a real eigenvector when +-phi is strictly
    interior, a 2-plane when a 3,600-step scan of cos(t) p + sin(t) q
    finds a point with every local coordinate above 1e-9."""
    form = normal_canonical_form(a)
    u = form.u_a
    t = np.linspace(0.0, 2.0 * np.pi, 3600, endpoint=False)
    meets = []
    for i in range(form.l):
        points = np.outer(u[:, 2 * i], np.cos(t)) + np.outer(u[:, 2 * i + 1], np.sin(t))
        meets.append(bool((cone.to_local(points).min(axis=0) > 1e-9).any()))
    for phi in u[:, 2 * form.l:].T:
        meets.append(contains(cone, phi).in_interior or contains(cone, -phi).in_interior)
    return meets


def _reported_meets(rep):
    return ast.literal_eval(rep.details.split("meets=")[1].split("]")[0] + "]")


def test_theorem4_meets_matches_an_independent_reading():
    # Fixed cases first: [1, 1] meets the open quadrant and [1, -1] does
    # not; the plane of the first two axes misses the open 4-orthant.
    rep = theorem4_classify([[0.0, 1.0], [1.0, 0.0]], ORTHANT2)
    assert _reported_meets(rep) == [True, False]
    a4 = np.zeros((4, 4))
    a4[:2, :2] = rotation_block(1.0, np.pi / 4)
    a4[2:, 2:] = rotation_block(2.0, 3 * np.pi / 4)
    assert _reported_meets(theorem4_classify(a4, Cone.orthant(4))) == [False, False]
    rng = np.random.default_rng(31)
    counts = {True: 0, False: 0}
    for n in range(2, 7):
        for _ in range(16):
            a = random_normal_matrix(rng, n)[0]
            cone = random_cone(rng, n)
            meets = _reported_meets(theorem4_classify(a, cone))
            assert meets == _meets_by_scan(a, cone), (n, meets)
            for m in meets:
                counts[m] += 1
    assert min(counts.values()) >= 20, counts


def test_theorem4_never_fails_on_seeded_normals_and_agrees_with_the_oracle():
    # Over the orthant, a normal 3x3 matrix whose real eigenvector lies
    # outside the open cone is out of the proven cases (a rotation 2-plane
    # or nothing meets the cone), so the check does not apply there.
    # Wherever it applies it holds, and the grid oracle confirms the upper
    # value the prediction is compared with.
    from quasieig import brute_minimax

    applicable = 0
    for seed in range(60):
        a = random_normal_matrix(np.random.default_rng(seed), 3)[0]
        rep = theorem4_classify(a, Cone.orthant(3))
        assert rep.holds or not rep.applicable, (seed, rep)
        if not rep.applicable:
            continue
        applicable += 1
        lam = quasi_pair(a, Cone.orthant(3)).lambda_upper
        si, isup = brute_minimax(a, Cone.orthant(3), 2000)
        assert max(abs(lam - si), abs(lam - isup)) <= 1e-2, (seed, lam, si, isup)
    assert applicable == 29


def test_invariance_check_examples():
    rep = invariance_check(np.diag([2.0, 1.0]), ORTHANT2, np.eye(2))
    assert rep.holds and rep.lhs <= 1e-12
    rep = invariance_check(np.diag([2.0, 1.0]), ORTHANT2, givens_rotation(2, 0, 1, np.pi / 2))
    assert rep.holds
    from quasieig import NotOrthogonal

    with pytest.raises(NotOrthogonal):
        invariance_check(np.eye(2), ORTHANT2, [[1.0, 1.0], [0.0, 1.0]])
    rep = invariance_check(np.diag([0.5, 0.25]), ORTHANT2, givens_rotation(2, 0, 1, 0.3))
    assert rep.holds and rep.rhs == 2e-9  # ||A|| <= 1: the absolute 2 tol


def test_invariance_check_rejects_a_change_of_variables_of_another_size():
    with pytest.raises(DimensionMismatch):
        invariance_check(np.diag([2.0, 1.0]), ORTHANT2, np.eye(3))


@pytest.mark.parametrize(
    "seed, family, cone_seed",
    [(1, "perron", None), (0, "generic", 3), (2, "perron", 11), (2, "generic", None)],
)
def test_invariance_check_at_large_scale_reads_no_rounding(seed, family, cone_seed):
    # At ||A|| ~ 1e7 each bracket closes at twice the feasibility slack, so
    # the pairs differ by a few ulps of ||A||, far beyond an absolute 2 tol.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    gen = random_irreducible_nonneg if family == "perron" else random_matrix
    a = 1e7 * gen(rng, n)
    cone = Cone.orthant(n) if cone_seed is None else Cone.rotated(random_orthogonal(n, cone_seed))
    rep = invariance_check(a, cone, random_orthogonal(n, seed + 100))
    assert rep.rhs == 2e-9 * operator_norm(a)
    assert rep.holds and rep.lhs <= 1e-12 * operator_norm(a), rep


def test_perron_random_irreducible_nonneg_small_suite():
    rng = np.random.default_rng(24)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = random_irreducible_nonneg(rng, n)
        rep = perron_check(a)
        assert rep.holds
        assert abs(rep.lhs - rep.rhs) <= 1e-6  # Perron root identity


def test_isc_check_negated_metzler_suite():
    rng = np.random.default_rng(25)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        rep = isc_check(random_isc(rng, n, sign=-1))
        assert rep.applicable and rep.holds, rep


def test_max_re_identity_metzler_suite():
    # Nonnegative off-diagonal entries: the upper quasi-eigenvalue equals
    # the largest eigenvalue real part (shift by a large multiple of the
    # identity reduces to the nonnegative case).
    from helpers import random_metzler

    rng = np.random.default_rng(26)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        rep = max_re_check(random_metzler(rng, n))
        assert rep.holds
        assert abs(rep.lhs - rep.rhs) <= 1e-6


def test_perturbation_stability_fixture_hundred_seeds():
    # eq-style two-sided stability at the isc fixture: 100 random
    # perturbations of operator norm 0.05, each recomputed by bisection.
    cone = ORTHANT2
    facts = MatrixFacts(ISC)
    base = facts.pair(cone, 1e-9)
    lam = 0.5 * (base.lambda_upper + base.lambda_lower)
    c0 = perturbation_constants(facts, cone).c0
    rng = np.random.default_rng(27)
    for _ in range(100):
        d = rng.standard_normal((2, 2))
        d *= 0.05 / operator_norm(d)
        moved = quasi_pair(ISC + d, cone)
        dev = max(abs(moved.lambda_upper - lam), abs(moved.lambda_lower - lam))
        assert dev <= c0 * 0.05 + 1e-8


_REUSE_RNG = np.random.default_rng(28)
REUSE_CASES = {
    "example1": np.diag([2.0, 1.0]),
    "example2": np.array([[1.0, -1.0], [1.0, 1.0]]),
    "isc_fixture": ISC,
    "isc+": random_isc(_REUSE_RNG, 4, sign=1),
    "isc-": random_isc(_REUSE_RNG, 5, sign=-1),
    "metzler": random_metzler(_REUSE_RNG, 4),
    "perron": random_irreducible_nonneg(_REUSE_RNG, 5),
    "normal": random_normal_matrix(_REUSE_RNG, 4)[0],
    "generic": random_matrix(_REUSE_RNG, 4),
}


@pytest.mark.parametrize("kind", ["orthant", "rotated"])
@pytest.mark.parametrize("case", list(REUSE_CASES))
def test_checkers_give_the_same_report_with_a_precomputed_pair(case, kind):
    # A checker handed a MatrixFacts record that already holds the pairs
    # over ``cone`` and over the orthant must report exactly what it
    # reports on the plain matrix (repr compares floats bit-for-bit and
    # NaN equal to NaN).  The orthant-only checkers run on the rotated
    # case too: they must read the orthant pair, not the one over ``cone``.
    a = REUSE_CASES[case]
    n = a.shape[0]
    cone = Cone.orthant(n) if kind == "orthant" else Cone.rotated(random_orthogonal(n, 5))
    facts = MatrixFacts(a)
    facts.pair(cone, 1e-9)
    facts.pair(Cone.orthant(n), 1e-9)
    calls = [(bounds_check, (cone,)), (invariance_check, (cone, random_orthogonal(n, 9))),
             (perron_check, ()), (max_re_check, ()), (isc_check, ())]
    if classify(a).normal:
        calls.append((theorem4_classify, (cone,)))
    for check, args in calls:
        assert repr(check(facts, *args)) == repr(check(a, *args)), check.__name__


def test_matrix_facts_keys_pairs_by_cone_and_tol():
    # A pair is keyed by the cone's basis and the tol: equal bases share
    # one pair, every orthant among them; another basis or tol does not.
    a = REUSE_CASES["generic"]
    n = a.shape[0]
    facts = MatrixFacts(a)
    assert facts.pair(Cone.orthant(n), 1e-9) is facts.pair(Cone.orthant(n), 1e-9)
    assert facts.pair(Cone.orthant(n), 1e-9) is facts.pair(Cone.rotated(np.eye(n)), 1e-9)
    assert facts.pair(Cone.orthant(n), 1e-9) is not facts.pair(Cone.orthant(n), 1e-8)
    u = random_orthogonal(n, 5)
    first, second = Cone.rotated(u), Cone.rotated(u.copy())
    assert facts.pair(first, 1e-9) is facts.pair(second, 1e-9)
    assert facts.pair(first, 1e-9) is not facts.pair(first, 1e-8)
    assert facts.pair(first, 1e-9) is not facts.pair(Cone.rotated(random_orthogonal(n, 6)), 1e-9)
    assert facts.pair(first, 1e-9) is not facts.pair(Cone.orthant(n), 1e-9)


def test_perron_check_reads_the_orthant_value_after_a_rotated_pair():
    # A record holding only the pair over a rotated cone must not lend that
    # pair's upper value to the orthant identity.
    a = random_irreducible_nonneg(np.random.default_rng(5), 4)
    facts = MatrixFacts(a)
    facts.pair(Cone.rotated(random_orthogonal(4, 3)), 1e-9)
    rep = perron_check(facts)
    assert repr(rep) == repr(perron_check(a))
    assert rep.holds, rep.details


_SCALE_FAMILIES = (
    random_irreducible_nonneg,
    lambda rng, n: random_isc(rng, n, 1),
    lambda rng, n: random_isc(rng, n, -1),
    random_metzler,
    random_matrix,
    lambda rng, n: random_normal_matrix(rng, n)[0],
)


@pytest.mark.parametrize("scale", [1e4, 1e7, 1e10])
def test_checkers_read_no_rounding_at_large_scale(scale):
    # Every checker compares at tol * max(1, ||A||): the values' rounding,
    # the width at which the search closes its brackets and the
    # eigen-residuals all grow with ||A||.  Forty seeded matrices of six families, each over the
    # orthant and a rotated cone: no applicable report fails.
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        a = scale * _SCALE_FAMILIES[seed % len(_SCALE_FAMILIES)](rng, n)
        for cone in (Cone.orthant(n), Cone.rotated(random_orthogonal(n, int(rng.integers(0, 2**31))))):
            facts = MatrixFacts(a)
            d = np.random.default_rng(100 + seed).standard_normal((n, n))
            d *= 0.05 * facts.norm / operator_norm(d)
            reps = [
                bounds_check(facts, cone),
                perron_check(facts),
                max_re_check(facts),
                isc_check(facts),
                invariance_check(facts, cone, random_orthogonal(n, seed)),
                perturbation_bound_check(facts, cone, d),
            ]
            if facts.flags.normal:
                reps.append(theorem4_classify(facts, cone))
            failed = [r for r in reps if r.applicable and not r.holds]
            assert not failed, (seed, np.array_equal(cone.basis, np.eye(n)), failed)


def test_orthant_identities_and_isc_share_one_orthant_pair(monkeypatch):
    # The Perron, max-real-part and ISC checks all read the orthant pair;
    # on one record they solve it once.
    import quasieig.quasi as quasi_module

    solved = record_calls(monkeypatch, quasi_module, "_search")
    facts = MatrixFacts(ISC)
    reps = [perron_check(facts), max_re_check(facts), isc_check(facts)]
    assert all(r.applicable and r.holds for r in reps), reps
    assert len(solved) == 1
