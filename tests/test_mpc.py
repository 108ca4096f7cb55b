"""Condensation, feedback law, explicit feasible sets, and horizon search,
checked against explicit rollouts and per-point feasibility LPs."""

import math

import numpy as np
import pytest

import systems

from fgmpc import mpc
from fgmpc.mpc import (CondensedQp, FeasibleSet, OcpDesign,
                       OcpInfeasibleError, condense, feasible_set,
                       mpc_feedback, n_star, ocp_feasible)
from fgmpc.plant import equilibrium_basis


def rollout(plant, mu, x):
    """State sequence xi_0..xi_N under the stacked input mu."""
    n_u = plant.n_u
    N = mu.size // n_u
    xi = [np.asarray(x, dtype=float).ravel()]
    for i in range(N):
        xi.append(plant.A @ xi[-1] + plant.B @ mu[i * n_u:(i + 1) * n_u])
    return xi


def rollout_objective(plant, em, design, mu, x, v):
    xi = rollout(plant, mu, x)
    xb, ub = em.x_bar(v), em.u_bar(v)
    N, n_u = design.N, plant.n_u
    J = 0.0
    for i in range(N):
        dx = xi[i] - xb
        du = mu[i * n_u:(i + 1) * n_u] - ub
        J += dx @ design.Q @ dx + du @ design.R @ du
    dN = xi[N] - xb
    return J + dN @ design.P @ dN


def rollout_residuals(plant, design, mu, x, v):
    """Constraint residuals in the documented row order: output blocks
    i = 0..N-1, then the terminal block."""
    xi = rollout(plant, mu, x)
    Y, T = design.Y, design.T
    n_u = plant.n_u
    parts = []
    for i in range(design.N):
        y = plant.C @ xi[i] + plant.D @ mu[i * n_u:(i + 1) * n_u]
        parts.append(Y.A @ y - Y.b)
    parts.append(T.T_x @ xi[design.N] + T.T_v @ np.atleast_1d(v) - T.c)
    return np.concatenate(parts)


def test_condense_scalar_n1_by_hand(fig2):
    plant, em, rs = fig2["plant"], fig2["em"], fig2["rs"]
    design = systems.make_design(fig2, 1)
    qp = condense(plant, design, em)
    P = rs.P[0, 0]
    # quadratic coefficient R + B'PB (doubled by the 0.5 mu'H mu form)
    np.testing.assert_allclose(qp.H, [[2.0 * (1.0 + P)]], atol=1e-12)
    # linear map: 2 B'PA on x, -2 (B'P G_x + R G_u) on v
    np.testing.assert_allclose(qp.W, [[2.0 * P, -2.0 * P]], atol=1e-12)
    assert qp.M.shape == (fig2["Y"].nrows + fig2["T"].nrows, 1)


def test_condense_equilibrium_is_unconstrained_minimum(y1):
    plant, em = y1["plant"], y1["em"]
    design = systems.make_design(y1, 5)
    qp = condense(plant, design, em)
    for v in ([0.3], [-0.7]):
        mu = np.tile(em.u_bar(v), design.N)
        theta = np.concatenate([em.x_bar(v), v])
        np.testing.assert_allclose(qp.H @ mu + qp.W @ theta,
                                   np.zeros(design.N), atol=1e-9)
        assert abs(rollout_objective(plant, em, design, mu,
                                     em.x_bar(v), v)) <= 1e-12


def test_condense_matches_rollout(y1):
    plant, em = y1["plant"], y1["em"]
    design = systems.make_design(y1, 4)
    qp = condense(plant, design, em)
    rng = np.random.default_rng(7)
    for _ in range(40):
        x = rng.uniform(-1.0, 1.0, size=2)
        v = rng.uniform(-1.0, 1.0, size=1)
        theta = np.concatenate([x, v])
        mu1 = rng.uniform(-0.5, 0.5, size=4)
        mu2 = rng.uniform(-0.5, 0.5, size=4)
        res = qp.M @ mu1 + qp.L @ theta - qp.b
        np.testing.assert_allclose(
            res, rollout_residuals(plant, design, mu1, x, v), atol=1e-10)

        def condensed(mu):
            return 0.5 * mu @ qp.H @ mu + (qp.W @ theta) @ mu

        dJ_condensed = condensed(mu1) - condensed(mu2)
        dJ_rollout = (rollout_objective(plant, em, design, mu1, x, v)
                      - rollout_objective(plant, em, design, mu2, x, v))
        np.testing.assert_allclose(dJ_condensed, dJ_rollout, atol=1e-9)


def test_design_validation(fig2, y1):
    T, Y = fig2["T"], fig2["Y"]
    rs = fig2["rs"]
    with pytest.raises(ValueError, match="at least 1"):
        OcpDesign(0, [[1.0]], [[1.0]], rs.P, rs.K, T, Y)
    with pytest.raises(ValueError, match="positive definite"):
        OcpDesign(2, [[1.0]], [[0.0]], rs.P, rs.K, T, Y)
    with pytest.raises(ValueError, match="columns"):
        OcpDesign(2, [[1.0]], [[1.0]], rs.P, np.ones((1, 2)), T, Y)
    rs2 = y1["rs"]
    with pytest.raises(ValueError, match="symmetric"):
        OcpDesign(2, [[1.0, 0.3], [0.0, 1.0]], [[1.0]], rs2.P, rs2.K,
                  y1["T"], y1["Y"])


def test_condensed_qp_immutable(fig2):
    qp = condense(fig2["plant"], systems.make_design(fig2, 2), fig2["em"])
    for arr in (qp.H, qp.W, qp.M, qp.L, qp.b):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_feedback_equilibrium(y1):
    plant, em = y1["plant"], y1["em"]
    design = systems.make_design(y1, 5)
    qp = condense(plant, design, em)
    v = np.array([0.4])
    u, st = mpc_feedback(qp, em.x_bar(v), v)
    np.testing.assert_allclose(u, em.u_bar(v), atol=1e-8)
    assert abs(rollout_objective(plant, em, design, st.x,
                                 em.x_bar(v), v)) <= 1e-10


def test_feedback_matches_lqr_in_the_interior(fig2):
    plant, em, rs = fig2["plant"], fig2["em"], fig2["rs"]
    design = systems.make_design(fig2, 3)
    qp = condense(plant, design, em)
    L_v = em.G_u + rs.K @ em.G_x
    for x, v in ((np.array([0.05]), np.array([0.0])),
                 (np.array([0.35]), np.array([0.3]))):
        u, _ = mpc_feedback(qp, x, v)
        np.testing.assert_allclose(u, -rs.K @ x + L_v @ v, atol=1e-8)


def test_feedback_infeasible_y1(y1):
    plant, em = y1["plant"], y1["em"]
    qp = condense(plant, systems.make_design(y1, 10), em)
    with pytest.raises(OcpInfeasibleError, match="OCP infeasible"):
        mpc_feedback(qp, [-1.0, 0.0], [0.75])


def test_feedback_input_validation(fig2):
    qp = condense(fig2["plant"], systems.make_design(fig2, 2), fig2["em"])
    with pytest.raises(ValueError, match="size"):
        mpc_feedback(qp, [0.0, 0.0], [0.0])


def test_feasible_set_gamma2_grid_oracle(fig2):
    plant, em = fig2["plant"], fig2["em"]
    design = systems.make_design(fig2, 2)
    qp = condense(plant, design, em)
    gamma2 = feasible_set(qp)
    assert gamma2.N == 2 and gamma2.set_xv.dim == 2

    pts = np.linspace(-1.2, 1.2, 61)
    X, V = np.meshgrid(pts, pts, indexing="ij")
    W = np.stack([X.ravel(), V.ravel()], axis=1)
    margins = np.max(W @ gamma2.set_xv.A.T - gamma2.set_xv.b, axis=1)
    checked = 0
    for w, margin in zip(W, margins):
        if abs(margin) <= 1e-6:
            continue
        assert (margin < 0.0) == ocp_feasible(plant, design, w[:1], w[1:], 2)
        checked += 1
    assert checked >= 2000


def test_feasible_set_contains_terminal(fig2):
    design = systems.make_design(fig2, 2)
    qp = condense(fig2["plant"], design, fig2["em"])
    gamma2 = feasible_set(qp)
    assert gamma2.set_xv.contains_set(fig2["T"].set_xv, tol=1e-7)


def test_feasible_set_nesting(fig2):
    plant, em, T = fig2["plant"], fig2["em"], fig2["T"]
    sets = [FeasibleSet.from_terminal(T)]
    for N in (1, 2, 3, 4):
        sets.append(feasible_set(condense(
            plant, systems.make_design(fig2, N), em)))
    assert sets[0].set_xv is T.set_xv
    for inner, outer in zip(sets[:-1], sets[1:]):
        assert outer.set_xv.contains_set(inner.set_xv, tol=1e-7)


def test_ocp_feasible_equilibrium_any_horizon(fig2):
    plant, em = fig2["plant"], fig2["em"]
    design = systems.make_design(fig2, 2)
    v = np.array([0.5])
    for horizon in (0, 1, 3, 7):
        assert ocp_feasible(plant, design, em.x_bar(v), v, horizon)


def test_ocp_feasible_outside_state_bounds(fig2):
    plant = fig2["plant"]
    design = systems.make_design(fig2, 2)
    for horizon in range(6):
        assert not ocp_feasible(plant, design, [5.0], [0.0], horizon)
    with pytest.raises(ValueError, match="nonnegative"):
        ocp_feasible(plant, design, [0.0], [0.0], -1)


def test_ocp_feasible_builds_rows_once_per_problem(monkeypatch, fig2):
    """Repeated queries on one (plant, design, horizon) build one oracle
    and assemble its rows once; a new design or horizon builds again, and
    the answers match those of a fresh oracle."""
    plant, em = fig2["plant"], fig2["em"]
    built, assembled = [], []
    real_init = mpc._HorizonOracle.__init__
    real_assemble = mpc._HorizonOracle.assemble

    def init(self, *args):
        built.append(args[-1])
        real_init(self, *args)

    def assemble(self, h):
        assembled.append(h)
        return real_assemble(self, h)

    monkeypatch.setattr(mpc._HorizonOracle, "__init__", init)
    monkeypatch.setattr(mpc._HorizonOracle, "assemble", assemble)
    design = systems.make_design(fig2, 2)
    grid = [(x, v) for x in (-1.0, -0.2, 0.4, 1.1) for v in (-0.5, 0.0, 0.7)]
    first = [ocp_feasible(plant, design, [x], [v], 2) for x, v in grid]
    assert built == [2] and assembled == [2]
    assert any(first) and not all(first)
    other = systems.make_design(fig2, 2)
    again = [ocp_feasible(plant, other, [x], [v], 2) for x, v in grid]
    assert again == first and built == [2, 2]
    ocp_feasible(plant, other, em.x_bar([0.5]), [0.5], 3)
    assert built == [2, 2, 3] and assembled == [2, 2, 3]


def test_n_star_trivial_and_boundary(fig2):
    plant, em = fig2["plant"], fig2["em"]
    design = systems.make_design(fig2, 2)
    v = np.array([0.5])
    assert n_star(plant, design, em.x_bar(v), v, 10) == 0

    # just outside the terminal slice: a short horizon suffices
    x0 = np.array([-0.9])
    n = n_star(plant, design, x0, v, 30)
    assert 1 <= n <= 30
    assert not ocp_feasible(plant, design, x0, v, n - 1)
    assert ocp_feasible(plant, design, x0, v, n)

    # a cap equal to N* that is not a power of two: the search must probe
    # the cap itself rather than stop at the last power of two below it
    x0, v = np.array([-0.95]), np.array([0.6])
    assert not ocp_feasible(plant, design, x0, v, 4)
    assert ocp_feasible(plant, design, x0, v, 5)
    assert n_star(plant, design, x0, v, 5) == 5


def test_n_star_monotone_trace(fig2):
    plant = fig2["plant"]
    design = systems.make_design(fig2, 2)
    trace = []
    n = n_star(plant, design, [-0.95], [0.6], 40, trace=trace)
    viols = [t for _, t in trace]
    # worst violation shrinks (weakly) as the horizon grows
    assert all(b <= a + 1e-9 for a, b in zip(viols[1:-1], viols[2:]))
    assert viols[-1] <= 1e-8
    # violations are read from the basic t row, never -0.0 or below zero
    assert all(v >= 0.0 and math.copysign(1.0, v) > 0.0 for v in viols)
    # one entry per probe, sorted, bracketing the answer
    horizons = [h for h, _ in trace]
    assert all(a < b for a, b in zip(horizons, horizons[1:]))
    probed = dict(trace)
    assert probed[n - 1] > 1e-8
    assert probed[n] <= 1e-8
    # O(log N*) feasibility LPs, not one per horizon up to N*
    assert len(trace) <= 2 * math.ceil(math.log2(n + 1)) + 2


def test_n_star_probe_count_long_horizon(y3):
    # N* well above the probe bound, so one LP per horizon would fail it
    plant = y3["plant"]
    design = systems.make_design(y3, 1)
    x0, v = [-2.0, 0.0], [1.0]
    trace = []
    n = n_star(plant, design, x0, v, 400, trace=trace)
    assert n > 2 * math.ceil(math.log2(n + 1)) + 2
    assert len(trace) <= 2 * math.ceil(math.log2(n + 1)) + 2
    assert not ocp_feasible(plant, design, x0, v, n - 1)
    assert ocp_feasible(plant, design, x0, v, n)


def test_n_star_cap_error(fig2):
    plant = fig2["plant"]
    design = systems.make_design(fig2, 2)
    with pytest.raises(RuntimeError, match="no feasible horizon"):
        n_star(plant, design, [5.0], [0.0], 6)
    # N* = 5 here, so a cap of N* - 1 leaves no feasible horizon
    with pytest.raises(RuntimeError, match="no feasible horizon <= 4"):
        n_star(plant, design, [-0.95], [0.6], 4)
    with pytest.raises(ValueError, match="cap"):
        n_star(plant, design, [0.0], [0.0], 0)
    with pytest.raises(ValueError, match="cap"):
        n_star(plant, design, [0.0], [0.0], -3)


def test_closed_loop_recursive_feasibility_and_convergence(fig2):
    plant, em = fig2["plant"], fig2["em"]
    design = systems.make_design(fig2, 3)
    qp = condense(plant, design, em)
    gamma = feasible_set(qp)
    Y = fig2["Y"]
    v = np.array([0.1])
    x = np.array([-0.9])
    assert gamma.set_xv.contains_point(np.concatenate([x, v]))
    st = None
    for _ in range(120):
        warm = st.active_set if st is not None else None
        u, st = mpc_feedback(qp, x, v, warm_start=warm)
        x, y, _ = plant.step(x, u)
        assert gamma.set_xv.contains_point(np.concatenate([x, v]), tol=1e-7)
        assert Y.contains_point(y, tol=1e-8)
    np.testing.assert_allclose(x, em.x_bar(v), atol=1e-4)
