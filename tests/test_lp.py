import math
import re

import numpy as np
import pytest

from quasieig import (
    Cone,
    DimensionMismatch,
    LpSolution,
    NonFinite,
    NumericalBreakdown,
    QuasiEigError,
    quasi_pair,
    solve_max_eps,
)
from quasieig.cli import RunConfig, emit_json, emit_matrix, run
from helpers import (
    TIE_BREAK_INPUTS,
    random_cone,
    random_irreducible_nonneg,
    random_isc,
    random_matrix,
    random_metzler,
    random_normal_matrix,
    record_calls,
    repeated_normal,
)


def grid_best_margin(g, step=1e-3):
    """Independent oracle: exhaustive simplex-grid search for
    max over x of min(G x).  Underestimates the optimum by at most the
    grid resolution; used to pin expected values before trusting the
    simplex kernel."""
    g = np.asarray(g, dtype=float)
    k = g.shape[1]
    assert k in (2, 3)
    if k == 2:
        s = np.arange(0.0, 1.0 + step / 2, step)
        pts = np.column_stack([s, 1.0 - s])
    else:
        s = np.arange(0.0, 1.0 + step / 2, step)
        a, b = np.meshgrid(s, s, indexing="ij")
        keep = a + b <= 1.0 + 1e-12
        a, b = a[keep], b[keep]
        pts = np.column_stack([a, b, np.maximum(1.0 - a - b, 0.0)])
    return float((pts @ g.T).min(axis=1).max())


def test_grid_oracle_sanity():
    # max over the simplex of min(0.5 x1, -0.5 x2): any x2 > 0 hurts, so 0 at (1, 0)
    assert grid_best_margin([[0.5, 0.0], [0.0, -0.5]]) == pytest.approx(0.0, abs=1e-9)
    # both rows negative: balance -0.5 x1 = -1.5 x2 at x = (3/4, 1/4), value -3/8
    assert grid_best_margin([[-0.5, 0.0], [0.0, -1.5]]) == pytest.approx(-0.375, abs=2e-3)


def test_examples_against_frozen_oracle_values():
    sol = solve_max_eps(np.array([[0.5, 0.0], [0.0, -0.5]]))
    assert sol.eps_star == pytest.approx(0.0, abs=1e-10)
    assert sol.x_star == pytest.approx([1.0, 0.0], abs=1e-10)

    # Oracle-computed optimum for diag(-0.5, -1.5): the mixture (3/4, 1/4)
    # beats both vertices, value exactly -3/8.
    sol = solve_max_eps(np.array([[-0.5, 0.0], [0.0, -1.5]]))
    assert sol.eps_star == pytest.approx(-0.375, abs=1e-10)
    assert sol.x_star == pytest.approx([0.75, 0.25], abs=1e-9)

    sol = solve_max_eps(np.zeros((2, 2)))
    assert sol.eps_star == pytest.approx(0.0, abs=1e-12)
    assert sol.x_star.sum() == pytest.approx(1.0, abs=1e-10)
    assert (sol.x_star >= -1e-12).all()


def test_tableau_template_is_read_only():
    # Every solve copies the cached template; no solve may write into it.
    from quasieig.lp import _template

    for part in _template(3, 2):
        with pytest.raises(ValueError):
            part[(0,) * part.ndim] = 7


_PATHOLOGY_G = np.array([[1.0, -2.0, 0.5], [-1.0, 3.0, 0.2], [0.3, -0.4, -1.0]])


@pytest.mark.parametrize("name, value, message", [
    ("_PIVOT_TOL", math.inf, "unbounded pivot direction in max-eps LP"),
    ("_REDCOST_TOL", -math.inf, "max-eps LP exceeded its pivot budget"),
    ("_TIE_DAMAGE_TOL", 1e9, "max-eps LP lost primal feasibility"),
])
def test_each_pivoting_pathology_raises(monkeypatch, name, value, message):
    # No finite G reaches these on its own; a broken tolerance does: no
    # pivot row passes, every column stays eligible, or a ratio-test tie
    # admits every row.
    import quasieig.lp as lp_module

    monkeypatch.setattr(lp_module, name, value)
    with pytest.raises(NumericalBreakdown, match=message):
        solve_max_eps(_PATHOLOGY_G)


def test_reduced_costs_rederived_at_the_end_resume_the_pivots(monkeypatch):
    # The incremental reduced costs may drift and hide an eligible column;
    # the re-derived ones then resume pivoting.  The first optimality test
    # here is blind, and the solve must still end where it does unblinded.
    import quasieig.lp as lp_module

    class FirstTestBlind(float):
        tests = 0

        def __neg__(self):
            FirstTestBlind.tests += 1
            return -math.inf if FirstTestBlind.tests == 1 else -float(self)

    right = solve_max_eps(_PATHOLOGY_G)
    assert right.pivots > 0
    monkeypatch.setattr(lp_module, "_REDCOST_TOL", FirstTestBlind(lp_module._REDCOST_TOL))
    sol = solve_max_eps(_PATHOLOGY_G)
    assert FirstTestBlind.tests > 2
    assert (sol.eps_star, sol.pivots) == (right.eps_star, right.pivots)
    assert np.array_equal(sol.x_star, right.x_star) and np.array_equal(sol.y_star, right.y_star)


def test_accepts_problem_wrapper():
    sol = solve_max_eps(np.eye(2))
    assert isinstance(sol, LpSolution)
    assert sol.eps_star == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("g", [np.zeros((0, 3)), np.zeros((3, 0)), [], [[]], np.zeros((2, 2, 2))],
                         ids=["no-rows", "no-columns", "empty-list", "empty-row", "3-d"])
def test_rejects_an_empty_or_not_two_dimensional_g(g):
    with pytest.raises(DimensionMismatch, match=re.escape(f"got shape {np.shape(g)}")):
        solve_max_eps(g)


def test_a_vector_is_one_row():
    sol = solve_max_eps([1.0, 2.0])
    assert sol.eps_star == 2.0 and sol.x_star.tolist() == [0.0, 1.0] and sol.y_star.tolist() == [1.0]


def test_rejects_nonfinite():
    with pytest.raises(NonFinite):
        solve_max_eps(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_solution_invariants_random():
    rng = np.random.default_rng(10)
    for _ in range(200):
        m = int(rng.integers(1, 8))
        k = int(rng.integers(1, 8))
        g = rng.uniform(-2, 2, (m, k))
        sol = solve_max_eps(g)
        assert (sol.x_star >= -1e-12).all()
        assert abs(sol.x_star.sum() - 1.0) <= 1e-10
        assert (g @ sol.x_star).min() >= sol.eps_star - 1e-9


def test_agrees_with_grid_oracle():
    # The grid can only underestimate (it is a subset of the simplex), and
    # by no more than its Lipschitz resolution.
    rng = np.random.default_rng(11)
    for _ in range(40):
        k = int(rng.integers(2, 4))
        g = rng.uniform(-2, 2, (int(rng.integers(1, 5)), k))
        step = 1e-3 if k == 2 else 4e-3
        grid = grid_best_margin(g, step)
        sol = solve_max_eps(g)
        lipschitz = float(np.abs(g).sum(axis=1).max())
        assert sol.eps_star >= grid - 1e-9
        assert sol.eps_star <= grid + 2.0 * lipschitz * step


def test_eps_monotone_in_shift():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        a = random_matrix(rng, n, 2.0)
        t = float(rng.uniform(-2, 2))
        tp = t + float(rng.uniform(0.01, 1.0))
        e1 = solve_max_eps(a - t * np.eye(n)).eps_star
        e2 = solve_max_eps(a - tp * np.eye(n)).eps_star
        assert e2 <= e1 + 1e-9


def test_row_scaling_scales_eps():
    rng = np.random.default_rng(13)
    for c in (2.0, 3.0, 0.125, 7.5):
        g = rng.uniform(-1, 1, (4, 4))
        e1 = solve_max_eps(g).eps_star
        e2 = solve_max_eps(c * g).eps_star
        assert e2 == pytest.approx(c * e1, rel=1e-12, abs=1e-15)


def test_bland_vertex_is_deterministic():
    rng = np.random.default_rng(14)
    g = rng.uniform(-1, 1, (5, 5))
    a = solve_max_eps(g)
    b = solve_max_eps(g.copy())
    assert np.array_equal(a.x_star, b.x_star)
    assert a.eps_star == b.eps_star


def test_dual_certifies_eps_star():
    # y_star is a dual optimum: y >= 0, sum(y) = 1, max(G^T y) = eps_star.
    # HiGHS solves the primal independently as a test-only oracle.
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(15)
    for _ in range(100):
        m = int(rng.integers(1, 9))
        k = int(rng.integers(1, 9))
        g = rng.uniform(-2, 2, (m, k))
        sol = solve_max_eps(g)
        y = sol.y_star
        assert y.shape == (m,)
        assert (y >= 0.0).all()
        assert abs(y.sum() - 1.0) <= 1e-9
        assert abs(float((g.T @ y).max()) - sol.eps_star) <= 1e-9
        assert abs(_highs_eps_star(linprog, g) - sol.eps_star) <= 1e-9


def _highs_eps_star(linprog, g, **options):
    """``eps_star`` of G by HiGHS on the variables (x, eps): maximize eps
    s.t. eps - G x <= 0, sum(x) = 1, x >= 0; ``options`` go to HiGHS."""
    m, k = g.shape
    ref = linprog(
        np.r_[np.zeros(k), -1.0],
        A_ub=np.hstack([-g, np.ones((m, 1))]),
        b_ub=np.zeros(m),
        A_eq=np.r_[np.ones(k), 0.0][None, :],
        b_eq=[1.0],
        bounds=[(0.0, None)] * k + [(None, None)],
        method="highs",
        options=options,
    )
    assert ref.status == 0
    return -ref.fun


@pytest.mark.parametrize(
    "family, seed", [case[:2] for case in TIE_BREAK_INPUTS] + [("half_i4_minus_half_i2", 37)]
)
def test_search_lps_on_tie_break_inputs_match_highs(monkeypatch, family, seed):
    # Every G the quasi-eigenvalue search hands the kernel on these nearly
    # degenerate inputs is solved again, by the kernel (Bland's rule repeats
    # its solution) and by HiGHS, an independent judge.  At its default
    # feasibility tolerances (1e-7) HiGHS is 1.3e-8 off an optimum the
    # kernel's dual certifies on one of these G, so the judge runs at 1e-10.
    # Each returned point must also keep every row's margin at eps*: on
    # seed 37 a tie group that bounded its damage on the minimum-ratio row
    # alone let another row fall 2.2e-12 max|G| short.
    import quasieig.quasi as quasi_module
    from quasieig import Cone, quasi_pair, random_orthogonal

    linprog = pytest.importorskip("scipy.optimize").linprog
    solved = record_calls(monkeypatch, quasi_module, "solve_max_eps")
    quasi_pair(repeated_normal(family, seed), Cone.rotated(random_orthogonal(6, 3)))
    assert solved
    for i, (g,) in enumerate(solved):
        sol = solve_max_eps(g)
        scale = float(np.max(np.abs(g)))
        assert float((g @ sol.x_star).min()) >= sol.eps_star - 1e-12 * scale, i
        ref = _highs_eps_star(linprog, g, primal_feasibility_tolerance=1e-10,
                              dual_feasibility_tolerance=1e-10)
        assert abs(ref - sol.eps_star) <= 1e-9 * scale, i


def _bit_identity_inputs():
    """600 seeded G: random (m != k), with repeated columns and zero rows,
    and near-degenerate B - t I with t within 1e-9 of the upper value of
    B, as the quasi-eigenvalue search feeds the kernel (also in the
    Fortran order of a reflected B^T)."""
    from quasieig import Cone, quasi_pair

    rng = np.random.default_rng(16)
    out = []
    for _ in range(200):
        m, k = (int(x) for x in rng.choice(np.arange(1, 10), 2, replace=False))
        out.append(rng.uniform(-2.0, 2.0, (m, k)))
    for _ in range(200):
        m, k = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        g = rng.uniform(-1.0, 1.0, (m, k))
        g[:, rng.integers(0, k)] = g[:, rng.integers(0, k)]
        g[rng.integers(0, m)] = 0.0
        out.append(g)
    for i in range(200):
        n = int(rng.integers(2, 9))
        b = rng.uniform(-1.0, 1.0, (n, n))
        if i % 2:
            b = -b.T
        value = quasi_pair(b, Cone.orthant(n)).lambda_upper
        t = value + float(rng.uniform(-1e-9, 1e-9))
        g = b - t * np.eye(n)
        out.append(np.asfortranarray(g) if i % 4 == 1 else g)
    return out


def test_kernel_matches_frozen_reference_bit_for_bit():
    from lp_reference import solve_max_eps_reference

    for i, g in enumerate(_bit_identity_inputs()):
        sol = solve_max_eps(g)
        eps, x, y = solve_max_eps_reference(g)
        assert np.array_equal(sol.eps_star, eps), i
        assert np.array_equal(sol.x_star, x), i
        assert np.array_equal(sol.y_star, y), i
        assert sol.x_star.tobytes() == x.tobytes() and sol.y_star.tobytes() == y.tobytes(), i


def _assert_reference_bits(gs):
    from lp_reference import solve_max_eps_reference

    for i, g in enumerate(gs):
        sol = solve_max_eps(g)
        eps, x, y = solve_max_eps_reference(g)
        assert np.array_equal(sol.eps_star, eps), i
        assert sol.x_star.tobytes() == x.tobytes() and sol.y_star.tobytes() == y.tobytes(), i


def _tie_break_inputs():
    """200 seeded G = B - t I with the entries of B and t in {-1, 0, 1},
    n = 3..9: degenerate vertices whose ratio tests tie several rows."""
    rng = np.random.default_rng(31)
    out = []
    for _ in range(200):
        n = int(rng.integers(3, 10))
        out.append(rng.choice([-1.0, 0.0, 1.0], (n, n)) - float(rng.integers(-1, 2)) * np.eye(n))
    return out


def test_kernel_matches_the_reference_where_bland_breaks_ties(monkeypatch):
    # Bland's tie-break decides a pivot only when it leaves by a tied row
    # other than the first; the reference kernel counts those pivots, so the
    # corpus cannot lose them unnoticed while the kernel is judged on it.
    import lp_reference

    away = []

    def bland_min(rows, key):
        chosen = min(rows, key=key)
        away.append(chosen != rows[0])
        return chosen

    monkeypatch.setattr(lp_reference, "min", bland_min, raising=False)
    _assert_reference_bits(_tie_break_inputs())
    assert sum(away) >= 30, sum(away)


def test_kernel_matches_the_reference_where_drift_leaves_a_negative_rhs(monkeypatch):
    # On sparse inputs the rank-one updates can leave a basic value a hair
    # below zero; the ratio test reads its ratio as 0, as the reference does.
    # Draw 612 of these sparse orthant inputs (n in [3, 12], density
    # U[0.2, 0.6]) is one: one of the 39 LPs of its search is solved
    # differently when that ratio is r / c.
    import quasieig.quasi as quasi_module
    from quasieig import Cone, quasi_pair

    rng = np.random.default_rng(11)
    for _ in range(613):
        n = int(rng.integers(3, 13))
        density = rng.uniform(0.2, 0.6)
        a = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    lps = record_calls(monkeypatch, quasi_module, "solve_max_eps")
    quasi_pair(a, Cone.orthant(n))
    assert (n, len(lps)) == (7, 39)
    _assert_reference_bits([g for g, in lps])


def test_transposed_game_has_the_negated_value():
    # LP duality (von Neumann's minimax theorem): max_x min(G x) over the
    # simplex equals min_y max(G^T y), so the max-margin LP of -G^T has
    # optimum -eps* and G's own dual y among its optimizers.  The
    # quasi-eigenvalue search reads its lower test off G's LP on this.
    for i, g in enumerate(_bit_identity_inputs()):
        sol = solve_max_eps(g)
        flipped = solve_max_eps(-g.T)
        assert abs(flipped.eps_star + sol.eps_star) <= 1e-12 * float(np.max(np.abs(g))), i
        assert float((g.T @ sol.y_star).max()) <= sol.eps_star + 1e-9, i


def _search_corpus():
    """Seeded ``quasi_pair`` inputs in the mix of the ``pair_small``
    benchmark: generic, ISC, Metzler and Perron matrices at n = 1-8 over
    the orthant and a rotated cone, Jordan blocks of sizes 2, 3, 4 and 6,
    reducible block-triangular matrices, and Perron matrices at 1e-150
    and 1e150.  The 1e-150 values are off by the search's known defect,
    which must not move either."""
    rng = np.random.default_rng(22)
    cases = []
    for n in range(1, 9):
        for make in (random_matrix, random_isc, random_metzler, random_irreducible_nonneg):
            cases += [(make(rng, n), Cone.orthant(n)), (make(rng, n), random_cone(rng, n))]
    for k in (2, 3, 4, 6):
        cases.append((np.diag(np.ones(k - 1), 1), Cone.orthant(k)))
    for n in (3, 4, 6, 8):
        a = random_irreducible_nonneg(rng, n)
        a[n // 2:, : n // 2] = 0.0
        cases.append((a, Cone.orthant(n)))
    for scale in (1e-150, 1e150):
        cases.append((scale * random_irreducible_nonneg(rng, 4), Cone.orthant(4)))
        cases.append((scale * random_irreducible_nonneg(rng, 3), random_cone(rng, 3)))
    return cases


def _search_pivots(monkeypatch, cases):
    """The pivots of every LP the searches of ``cases`` solve, in order."""
    import quasieig.quasi as quasi_module

    solves = record_calls(monkeypatch, quasi_module, "solve_max_eps")
    for a, cone in cases:
        quasi_pair(a, cone)
    return [solve_max_eps(g).pivots for (g,) in solves]


def test_solution_reports_its_pivots_and_final_basis():
    # The final basis, solved on G itself, reproduces the returned vertex.
    assert solve_max_eps(np.eye(2)).pivots == 1
    rng = np.random.default_rng(17)
    for _ in range(50):
        m, k = (int(x) for x in rng.integers(1, 8, 2))
        g = rng.uniform(-2.0, 2.0, (m, k))
        sol = solve_max_eps(g)
        assert sol.pivots >= 0 and len(set(sol.basis.tolist())) == sol.basis.size == m + 1
        a = np.zeros((m + 1, k + 2 + m))
        a[:m, :k], a[:m, k], a[:m, k + 1], a[:m, k + 2:] = g, -1.0, 1.0, -np.eye(m)
        a[m, :k] = 1.0
        full = np.zeros(k + 2 + m)
        full[sol.basis] = np.linalg.solve(a[:, sol.basis], np.eye(m + 1)[m])
        assert np.allclose(full[:k], sol.x_star, atol=1e-9)
        assert full[k] - full[k + 1] == pytest.approx(sol.eps_star, abs=1e-9)


# Bland's rule repeats each pivot sequence, so these counts are exact.  They
# were counted on the kernel before it reported its pivots, and recounted
# when reducible inputs began to be solved block by block (example 1 is
# diagonal, so only its two final re-solves run an LP) and when the search
# began to step to the kernel roots of its last LP.
@pytest.mark.parametrize("a, pivots", [
    (np.diag([2.0, 1.0]), [0, 0]),
    (np.array([[1.0, -1.0], [1.0, 1.0]]), [0, 0]),
], ids=["example1", "example2"])
def test_search_pivots_on_the_paper_examples(monkeypatch, a, pivots):
    assert _search_pivots(monkeypatch, [(a, Cone.orthant(2))]) == pivots


def test_search_pivots_over_a_seeded_corpus(monkeypatch):
    pivots = _search_pivots(monkeypatch, _search_corpus())
    assert (len(pivots), sum(pivots)) == (479, 2243)


def _reference_kernel(problem):
    """The frozen reference as a drop-in for ``solve_max_eps``; it reports
    no pivots or basis, which no search reads."""
    from lp_reference import solve_max_eps_reference

    try:
        eps, x, y = solve_max_eps_reference(problem)
    except RuntimeError as err:
        raise NumericalBreakdown(str(err)) from None
    return LpSolution(eps_star=eps, x_star=x, y_star=y, pivots=-1, basis=None)


def _pair_bits(a, cone):
    try:
        r = quasi_pair(a, cone)
    except QuasiEigError as err:
        return repr(err)
    floats = (r.lambda_upper, r.lambda_lower, r.eigen_residual_right, r.eigen_residual_left)
    return ([float(v).hex() for v in floats], r.u_right.tobytes(), r.v_left.tobytes(),
            (r.u_interior, r.v_interior, r.is_saddle))


def _verify_bits(path):
    code, report = run(RunConfig(subcommand="verify", matrix_path=path, seed=3, output="json"))
    return code, emit_json(report)


def test_searches_and_verify_match_the_frozen_reference_bit_for_bit(monkeypatch, tmp_path):
    # Whole searches on the library kernel and on the frozen reference give
    # the same values, vectors, flags and verify JSON, to the bit.
    import quasieig.analysis as analysis_module
    import quasieig.quasi as quasi_module

    rng = np.random.default_rng(23)
    paths = []
    for i, a in enumerate([random_isc(rng, 4, 1), random_isc(rng, 5, -1), random_metzler(rng, 4),
                           random_irreducible_nonneg(rng, 6), random_normal_matrix(rng, 5)[0],
                           random_matrix(rng, 4)]):
        path = tmp_path / f"m{i}.json"
        path.write_text(emit_matrix(a))
        paths.append(str(path))
    cases = _search_corpus()

    def outcomes():
        return [_pair_bits(a, cone) for a, cone in cases] + [_verify_bits(p) for p in paths]

    library = outcomes()
    monkeypatch.setattr(quasi_module, "solve_max_eps", _reference_kernel)
    monkeypatch.setattr(analysis_module, "solve_max_eps", _reference_kernel)
    solved = record_calls(monkeypatch, quasi_module, "solve_max_eps")
    cone_lps = record_calls(monkeypatch, analysis_module, "solve_max_eps")
    reference = outcomes()
    assert solved and cone_lps
    for i, (lib, ref) in enumerate(zip(library, reference, strict=True)):
        assert lib == ref, i
