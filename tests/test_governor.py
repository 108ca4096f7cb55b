"""Governor QP, joint set Lambda, ROA projection, and the command-governor
baseline, cross-checked by grid search and slice containment."""

import numpy as np
import pytest

import systems

import fgmpc
from fgmpc import governor
from fgmpc.governor import GovernorProblem, RoaError, fg_step, r_star, roa
from fgmpc.polytope import HPolyhedron


def test_lambda_joint_set(fig2, fig2_gov):
    gp = fig2_gov["gp"]
    R_eps = fig2["spec"].R_eps
    assert gp.n_x == 1 and gp.n_v == 1
    assert fig2_gov["gamma"].set_xv.contains_set(gp.Lambda, tol=1e-9)
    # v-range of Lambda stays inside R_eps, and x-slices match Gamma's
    for v in (-0.79, -0.3, 0.0, 0.55, 0.79):
        assert R_eps.contains_point([v], tol=1e-9)
        s_lambda = gp.Lambda.slice([1], [v])
        s_gamma = fig2_gov["gamma"].set_xv.slice([1], [v])
        assert s_lambda.contains_set(s_gamma, tol=1e-8)
        assert s_gamma.contains_set(s_lambda, tol=1e-8)
    for v in (-0.9, 0.9):
        assert gp.Lambda.slice([1], [v]).is_empty()


def test_fg_step_no_interference_at_equilibrium(fig2, fig2_gov):
    em, gp = fig2["em"], fig2_gov["gp"]
    for r in (0.5, -0.7, 0.0):
        v, _ = fg_step(gp, em.x_bar([r]), [r])
        np.testing.assert_allclose(v, [r], atol=1e-8)


def test_fg_step_projects_unreachable_reference(fig2, fig2_gov):
    em, gp = fig2["em"], fig2_gov["gp"]
    # target beyond R_eps from the matching equilibrium: result is the
    # projection r* onto R_eps
    v, _ = fg_step(gp, em.x_bar([0.8]), [2.0])
    np.testing.assert_allclose(v, [0.8], atol=1e-8)


def test_fg_step_grid_search_oracle(y1_gov):
    gp = y1_gov["gp"]
    x = np.array([-1.0, 0.0])
    r = np.array([0.75])
    v, _ = fg_step(gp, x, r)
    assert gp.Lambda.contains_point(np.concatenate([x, v]), tol=1e-7)
    assert abs(v[0] - 0.75) > 1e-3  # (x, 0.75) is not feasible

    vs = np.linspace(-0.99, 0.99, 3961)
    W = np.column_stack([np.full(vs.size, x[0]),
                         np.full(vs.size, x[1]), vs])
    feas = np.all(W @ gp.Lambda.A.T <= gp.Lambda.b + 1e-9, axis=1)
    assert feas.any()
    best = vs[feas][np.argmin(np.abs(vs[feas] - 0.75))]
    assert abs(v[0] - 0.75) <= abs(best - 0.75) + 1e-6


def test_fg_step_minimal_interference_inside_slice(fig2_gov):
    gp = fig2_gov["gp"]
    target = np.array([0.6])
    s_x = gp.Lambda.slice([1], target)
    rng = np.random.default_rng(3)
    for x in systems.sample_in_polytope(s_x, rng, 40):
        np.testing.assert_allclose(fg_step(gp, x, target)[0], target,
                                   atol=1e-8)


def test_fg_step_deterministic(fig2_gov):
    gp = fig2_gov["gp"]
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, size=1)
        r = rng.uniform(-1.5, 1.5, size=1)
        try:
            v1, _ = fg_step(gp, x, r)
        except RoaError:
            continue
        v2, _ = fg_step(gp, x, r)
        assert np.array_equal(v1, v2)


def test_fg_step_outside_roa(fig2_gov):
    with pytest.raises(RoaError, match="state outside governed ROA"):
        fg_step(fig2_gov["gp"], [5.0], [0.0])


@pytest.mark.parametrize("x, r", [([np.nan, 0.0], [0.5]),
                                  ([-1.0, np.inf], [0.5]),
                                  ([-1.0, 0.0], [np.nan])])
def test_fg_step_rejects_non_finite_input(monkeypatch, y1_gov, x, r):
    """A NaN or infinite state or target raises ValueError before any QP
    is solved, instead of returning the target unchanged."""
    solves = []
    monkeypatch.setattr(governor, "solve_qp",
                        lambda *args, **kwargs: solves.append(args))
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match="must be finite"):
        fg_step(y1_gov["gp"], x, r)
    assert solves == []


def test_fg_step_warm_start_from_its_record(y1_gov):
    """A step warm-started from its own record's factors at the same (x, r)
    repeats v bit for bit in 0 iterations; at a nearby state it agrees
    with a cold solve to 1e-10."""
    gp = y1_gov["gp"]
    x = np.array([-1.0, 0.0])
    v, record = fg_step(gp, x, [0.75])
    assert record.factors is not None  # the governor interferes here
    assert v is record.x
    v_again, again = fg_step(gp, x, [0.75], warm_start=record.factors)
    assert np.array_equal(v_again, v)
    assert again.iterations == 0
    x2 = x + np.array([0.01, 0.005])
    v_warm, _ = fg_step(gp, x2, [0.75], warm_start=record.factors)
    v_cold, _ = fg_step(gp, x2, [0.75])
    np.testing.assert_allclose(v_warm, v_cold, atol=1e-10)


def test_cg_step_equilibrium_and_empty_slice(fig2):
    em, T = fig2["em"], fig2["T"]
    gp_T = GovernorProblem(T, fig2["spec"].R_eps)
    for r in (0.4, -0.6):
        v, _ = fg_step(gp_T, em.x_bar([r]), [r])
        np.testing.assert_allclose(v, [r], atol=1e-8)
    with pytest.raises(RoaError, match="outside governed ROA"):
        fg_step(gp_T, [5.0], [0.0])


def test_cg_never_closer_than_fg(fig2, fig2_gov):
    T, gp = fig2["T"], fig2_gov["gp"]
    gp_T = GovernorProblem(T, fig2["spec"].R_eps)
    rng = np.random.default_rng(17)
    W = systems.sample_in_polytope(T.set_xv, rng, 60)
    for w in W:
        r = rng.uniform(-1.5, 1.5, size=1)
        v_cg, _ = fg_step(gp_T, w[:1], r)
        v_fg, _ = fg_step(gp, w[:1], r)
        assert np.linalg.norm(v_fg - r) <= np.linalg.norm(v_cg - r) + 1e-9


def test_r_star_projection(fig2):
    R_eps = fig2["spec"].R_eps
    np.testing.assert_allclose(r_star(R_eps, [2.0]), [0.8], atol=1e-9)
    np.testing.assert_allclose(r_star(R_eps, [-2.0]), [-0.8], atol=1e-9)
    np.testing.assert_allclose(r_star(R_eps, [0.5]), [0.5], atol=1e-9)
    empty = HPolyhedron([[1.0], [-1.0]], [-1.0, 0.0])
    with pytest.raises(RoaError, match="empty"):
        r_star(empty, [0.0])


def test_roa_strictly_contains_every_slice(fig2_gov):
    gp = fig2_gov["gp"]
    D = roa(gp)
    assert D.dim == 1
    for v in (-0.5, 0.0, 0.5):
        s_x = gp.Lambda.slice([1], [v])
        assert D.contains_set(s_x, tol=1e-8)
        assert not s_x.contains_set(D, tol=1e-8)


def test_roa_sampled_membership(fig2_gov):
    """Points of the ROA admit a feasible reference; points outside don't."""
    gp = fig2_gov["gp"]
    D = roa(gp)
    for x in np.linspace(-1.3, 1.3, 53):
        inside = D.contains_point([x])
        margin = np.max(np.array([[x]]) @ D.A.T - D.b)
        if abs(margin) <= 1e-9:
            continue
        if inside:
            fg_step(gp, [x], [0.0])
        else:
            with pytest.raises(RoaError):
                fg_step(gp, [x], [0.0])


def test_governor_problem_validation(fig2):
    R_eps = fig2["spec"].R_eps
    with pytest.raises(ValueError, match="state"):
        GovernorProblem(R_eps, R_eps)
    # empty reference set flags the ROA as empty at projection time
    empty = HPolyhedron([[1.0], [-1.0]], [-1.0, 0.0])
    gp = GovernorProblem(HPolyhedron.from_box([-1.0, -1.0], [1.0, 1.0]),
                         empty)
    assert gp.Lambda.is_empty()
    with pytest.raises(ValueError, match="empty"):
        roa(gp)


def test_public_names_resolve():
    """Every name the package exports is bound on it."""
    missing = [name for name in fgmpc.__all__ if not hasattr(fgmpc, name)]
    assert missing == []
