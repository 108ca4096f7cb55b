"""Condensation, feedback law, explicit feasible sets, and horizon search,
checked against explicit rollouts and per-point feasibility LPs."""

import math
import re

import numpy as np
import pytest

from test_solver import assert_bit_equal, assert_close, batch_factors

from fgmpc import mpc, solver
from fgmpc.mpc import (OcpDesign, OcpInfeasibleError, condense,
                       feasible_set, mpc_feedback, n_star, ocp_feasible)
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
    plant, rs = fig2.plant, fig2.rs
    design = fig2.design(1)
    qp = condense(plant, design)
    P = rs.P[0, 0]
    # quadratic coefficient R + B'PB (doubled by the 0.5 mu'H mu form)
    np.testing.assert_allclose(qp.H, [[2.0 * (1.0 + P)]], atol=1e-12)
    # linear map: 2 B'PA on x, -2 (B'P G_x + R G_u) on v
    np.testing.assert_allclose(qp.W, [[2.0 * P, -2.0 * P]], atol=1e-12)
    assert qp.M.shape == (fig2.Y.nrows + fig2.T.nrows, 1)


def test_condense_equilibrium_is_unconstrained_minimum(y1):
    plant, em = y1.plant, y1.em
    design = y1.design(5)
    qp = condense(plant, design)
    for v in ([0.3], [-0.7]):
        mu = np.tile(em.u_bar(v), design.N)
        theta = np.concatenate([em.x_bar(v), v])
        np.testing.assert_allclose(qp.H @ mu + qp.W @ theta,
                                   np.zeros(design.N), atol=1e-9)
        assert abs(rollout_objective(plant, em, design, mu,
                                     em.x_bar(v), v)) <= 1e-12


def test_condense_matches_rollout(y1):
    plant, em = y1.plant, y1.em
    design = y1.design(4)
    qp = condense(plant, design)
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


def assemble_by_blocks(oracle, h):
    """The rows of horizon h by the block loop that the stacked fancy index
    replaced: one slice copy per block, from the oracle's lag blocks."""
    T, Y, n_u = oracle.T, oracle.Y, oracle.n_u
    n_r, n_x = Y.nrows, T.n_x
    YaD, YG = oracle.lags[1], oracle.lags[2:]
    M = np.zeros((h * n_r + T.nrows, h * n_u))
    L = np.zeros((h * n_r + T.nrows, n_x + T.T_v.shape[1]))
    b = np.empty(h * n_r + T.nrows)
    for i in range(h):
        rows = slice(i * n_r, (i + 1) * n_r)
        for j in range(i):
            M[rows, j * n_u:(j + 1) * n_u] = YG[i - 1 - j]
        M[rows, i * n_u:(i + 1) * n_u] = YaD
        L[rows, :n_x] = oracle.YA[i]
        b[rows] = Y.b
    tr = slice(h * n_r, None)
    for j in range(h):
        M[tr, j * n_u:(j + 1) * n_u] = oracle.TG[h - 1 - j]
    L[tr, :n_x] = T.T_x @ oracle.Apow[h]
    L[tr, n_x:] = T.T_v
    b[tr] = T.c
    return M, L, b


def lag_blocks_by_loop(lags, h):
    """mpc._lag_blocks by one slice copy per nonzero block."""
    p, q = lags.shape[1:]
    out = np.zeros((h * p, h * q))
    for i in range(h):
        for j in range(i + 1):
            out[i * p:(i + 1) * p, j * q:(j + 1) * q] = lags[i - j + 1]
    return out


def test_stacked_rows_equal_the_block_loop(monkeypatch, y3):
    """assemble and condense place the lag blocks by one fancy index; the
    block loops they replaced give the same bits, up to N = 236."""
    plant = y3.plant
    oracle = mpc._HorizonOracle(plant, y3.design(1), 236)
    for h in (1, 2, 7, 116, 236):
        for new, old in zip(oracle.assemble(h), assemble_by_blocks(oracle, h)):
            assert np.array_equal(new, old), h
    for N in (1, 10, 116):
        design = y3.design(N)
        stacked = condense(plant, design)
        with monkeypatch.context() as m:
            m.setattr(mpc, "_lag_blocks", lag_blocks_by_loop)
            looped = condense(plant, design)
        for name in ("H", "W", "M", "L", "b"):
            assert np.array_equal(getattr(stacked, name),
                                  getattr(looped, name)), (N, name)


def test_grown_oracle_rows_equal_a_full_depth_build(monkeypatch, y3):
    """An oracle started at depth 1 grows, as horizons are assembled, to
    twice its depth or to the horizon, and assembles the same (M, L, b)
    bits as one built at depth 400. n_star's oracle grows only as deep as
    its probes reach: 64 for the search that ends at N* = 55."""
    plant = y3.plant
    design = y3.design(1)
    full = mpc._HorizonOracle(plant, design, 400)
    grown = mpc._HorizonOracle(plant, design, 1)
    depths = []
    for h in (1, 2, 3, 8, 5, 64, 116, 40, 300):
        for new, ref in zip(grown.assemble(h), full.assemble(h)):
            assert np.array_equal(new, ref), h
        depths.append(grown.depth)
    assert depths == [1, 2, 4, 8, 8, 64, 128, 128, 300]
    for name in ("Apow", "G", "lags", "TG", "YA"):
        size = getattr(grown, name).shape[0]
        assert np.array_equal(getattr(grown, name),
                              getattr(full, name)[:size]), name
    reached = []
    real = mpc._HorizonOracle._grow

    def grow(self, depth):
        reached.append(depth)
        return real(self, depth)

    monkeypatch.setattr(mpc._HorizonOracle, "_grow", grow)
    assert n_star(plant, design, [-2.0, 0.0], [1.0], 400) == 55
    assert max(reached) == 64


def test_horizon_rows_match_a_stepped_plant(y3):
    """M mu + L theta of horizon h are the rows Y.A y_i (i < h) and
    T_x x_h + T_v v of the plant stepped forward under mu from x, and b
    repeats Y.b per step before T.c."""
    plant = y3.plant
    design = y3.design(1)
    Y, T = design.Y, design.T
    oracle = mpc._HorizonOracle(plant, design, 116)
    rng = np.random.default_rng(29)
    for h in (1, 2, 7, 116):
        M, L, b = oracle.assemble(h)
        for _ in range(3):
            x = rng.uniform(-1.0, 1.0, size=2)
            v = rng.uniform(-1.0, 1.0, size=1)
            mu = rng.uniform(-0.5, 0.5, size=h)
            rows, xi = [], x
            for i in range(h):
                xi, y, _ = plant.step(xi, mu[i:i + 1])
                rows.append(Y.A @ y)
            rows.append(T.T_x @ xi + T.T_v @ v)
            expected = np.concatenate(rows)
            np.testing.assert_allclose(M @ mu + L @ np.concatenate([x, v]),
                                       expected, rtol=1e-12,
                                       atol=1e-12 * np.abs(expected).max())
        for i in range(h):
            np.testing.assert_array_equal(b[i * Y.nrows:(i + 1) * Y.nrows],
                                          Y.b)
        np.testing.assert_array_equal(b[h * Y.nrows:], T.c)


def test_design_validation(fig2, y1):
    T, Y = fig2.T, fig2.Y
    rs = fig2.rs
    with pytest.raises(ValueError, match="at least 1"):
        OcpDesign(0, [[1.0]], [[1.0]], rs.P, rs.K, T, Y)
    with pytest.raises(ValueError, match="positive definite"):
        OcpDesign(2, [[1.0]], [[0.0]], rs.P, rs.K, T, Y)
    with pytest.raises(ValueError, match="columns"):
        OcpDesign(2, [[1.0]], [[1.0]], rs.P, np.ones((1, 2)), T, Y)
    rs2 = y1.rs
    with pytest.raises(ValueError, match="symmetric"):
        OcpDesign(2, [[1.0, 0.3], [0.0, 1.0]], [[1.0]], rs2.P, rs2.K,
                  y1.T, y1.Y)
    # condense takes em only as T's own, not an equal map built again
    with pytest.raises(ValueError, match="terminal set's equilibrium map"):
        condense(fig2.plant, fig2.design(2), equilibrium_basis(fig2.plant))


def test_condensed_qp_immutable(fig2):
    qp = condense(fig2.plant, fig2.design(2))
    for arr in (qp.H, qp.W, qp.M, qp.L, qp.b):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_feedback_equilibrium(y1):
    plant, em = y1.plant, y1.em
    design = y1.design(5)
    qp = condense(plant, design)
    v = np.array([0.4])
    u, st = mpc_feedback(qp, em.x_bar(v), v)
    np.testing.assert_allclose(u, em.u_bar(v), atol=1e-8)
    assert abs(rollout_objective(plant, em, design, st.x,
                                 em.x_bar(v), v)) <= 1e-10


def test_feedback_matches_lqr_in_the_interior(fig2):
    plant, em, rs = fig2.plant, fig2.em, fig2.rs
    design = fig2.design(3)
    qp = condense(plant, design)
    L_v = em.G_u + rs.K @ em.G_x
    for x, v in ((np.array([0.05]), np.array([0.0])),
                 (np.array([0.35]), np.array([0.3]))):
        u, _ = mpc_feedback(qp, x, v)
        np.testing.assert_allclose(u, -rs.K @ x + L_v @ v, atol=1e-8)


def test_feedback_infeasible_y1(y1):
    qp = condense(y1.plant, y1.design(10))
    with pytest.raises(OcpInfeasibleError, match="OCP infeasible"):
        mpc_feedback(qp, [-1.0, 0.0], [0.75])


def test_feedback_input_validation(fig2):
    qp = condense(fig2.plant, fig2.design(2))
    with pytest.raises(ValueError, match="size"):
        mpc_feedback(qp, [0.0, 0.0], [0.0])


def test_feasible_set_gamma2_grid_oracle(fig2):
    plant, design = fig2.plant, fig2.design(2)
    qp = condense(plant, design)
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
    design = fig2.design(2)
    qp = condense(fig2.plant, design)
    gamma2 = feasible_set(qp)
    assert gamma2.set_xv.contains_set(fig2.T.set_xv, tol=1e-7)


def test_feasible_set_nesting(fig2):
    plant, T = fig2.plant, fig2.T
    sets = [T.set_xv]
    for N in (1, 2, 3, 4):
        sets.append(feasible_set(condense(plant, fig2.design(N))).set_xv)
    for inner, outer in zip(sets[:-1], sets[1:]):
        assert outer.contains_set(inner, tol=1e-7)


def test_ocp_feasible_equilibrium_any_horizon(fig2):
    plant, em = fig2.plant, fig2.em
    design = fig2.design(2)
    v = np.array([0.5])
    for horizon in (0, 1, 3, 7):
        assert ocp_feasible(plant, design, em.x_bar(v), v, horizon)


def test_ocp_feasible_outside_state_bounds(fig2):
    plant = fig2.plant
    design = fig2.design(2)
    for horizon in range(6):
        assert not ocp_feasible(plant, design, [5.0], [0.0], horizon)
    with pytest.raises(ValueError, match="nonnegative"):
        ocp_feasible(plant, design, [0.0], [0.0], -1)


def test_ocp_feasible_builds_rows_once_per_problem(monkeypatch, fig2):
    """Repeated queries on one (plant, design, horizon) build one oracle
    and assemble its rows once; a new design or horizon builds again, and
    the answers match those of a fresh oracle."""
    plant, em = fig2.plant, fig2.em
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
    design = fig2.design(2)
    grid = [(x, v) for x in (-1.0, -0.2, 0.4, 1.1) for v in (-0.5, 0.0, 0.7)]
    first = [ocp_feasible(plant, design, [x], [v], 2) for x, v in grid]
    assert built == [2] and assembled == [2]
    assert any(first) and not all(first)
    other = fig2.design(2)
    again = [ocp_feasible(plant, other, [x], [v], 2) for x, v in grid]
    assert again == first and built == [2, 2]
    ocp_feasible(plant, other, em.x_bar([0.5]), [0.5], 3)
    assert built == [2, 2, 3] and assembled == [2, 2, 3]


def test_n_star_trivial_and_boundary(fig2):
    plant, em = fig2.plant, fig2.em
    design = fig2.design(2)
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
    plant = fig2.plant
    design = fig2.design(2)
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
    plant = y3.plant
    design = y3.design(1)
    x0, v = [-2.0, 0.0], [1.0]
    trace = []
    n = n_star(plant, design, x0, v, 400, trace=trace)
    assert n > 2 * math.ceil(math.log2(n + 1)) + 2
    assert len(trace) <= 2 * math.ceil(math.log2(n + 1)) + 2
    assert not ocp_feasible(plant, design, x0, v, n - 1)
    assert ocp_feasible(plant, design, x0, v, n)


def test_n_star_cap_error(fig2):
    plant = fig2.plant
    design = fig2.design(2)
    with pytest.raises(RuntimeError, match="no feasible horizon"):
        n_star(plant, design, [5.0], [0.0], 6)
    # N* = 5 here, so a cap of N* - 1 leaves no feasible horizon
    with pytest.raises(RuntimeError, match="no feasible horizon <= 4"):
        n_star(plant, design, [-0.95], [0.6], 4)
    with pytest.raises(ValueError, match="cap"):
        n_star(plant, design, [0.0], [0.0], 0)
    with pytest.raises(ValueError, match="cap"):
        n_star(plant, design, [0.0], [0.0], -3)


def no_lp(*args, **kwargs):
    raise AssertionError("an LP was solved")


@pytest.mark.parametrize("x, v, message", [
    ([np.nan], [0.1], "x must be finite"),
    ([0.0], [np.inf], "v must be finite"),
    ([0.0, 0.0], [0.1], "expected x of size 1, got size 2"),
    ([0.0], [], "expected v of size 1, got size 0")])
def test_ocp_feasible_rejects_bad_points(monkeypatch, fig2, x, v, message):
    """A NaN state used to read as infeasible, and a point of the wrong
    size failed inside numpy; each raises ValueError before any LP."""
    design = fig2.design(2)
    monkeypatch.setattr(mpc, "min_violation", no_lp)
    for horizon in (0, 2):
        with pytest.raises(ValueError, match=message):
            ocp_feasible(fig2.plant, design, x, v, horizon)


@pytest.mark.parametrize("x0, r, message", [
    ([np.nan], [0.1], "x0 must be finite"),
    ([0.0], [np.nan], "r must be finite"),
    ([0.0, 0.0], [0.1], "expected x0 of size 1, got size 2"),
    ([0.0], [0.1, 0.2], "expected r of size 1, got size 2")])
def test_n_star_rejects_bad_points(monkeypatch, fig2, x0, r, message):
    """A NaN state used to end in "no feasible horizon <= cap"."""
    design = fig2.design(2)
    monkeypatch.setattr(mpc, "min_violation", no_lp)
    with pytest.raises(ValueError, match=message):
        n_star(fig2.plant, design, x0, r, 10)


@pytest.mark.parametrize("cap", [True, 4.5, 4.0, "4"])
def test_n_star_rejects_a_cap_that_is_not_an_integer(monkeypatch, fig2, cap):
    """cap=True used to end in "no feasible horizon <= True", and 4.5 in a
    TypeError inside numpy."""
    design = fig2.design(2)
    monkeypatch.setattr(mpc, "min_violation", no_lp)
    with pytest.raises(ValueError, match="cap must be an integer, got "
                       + re.escape(repr(cap))):
        n_star(fig2.plant, design, [-0.95], [0.6], cap)


@pytest.mark.parametrize("horizon", [True, 2.5, 2.0, "2"])
def test_ocp_feasible_rejects_a_horizon_that_is_not_an_integer(
        monkeypatch, fig2, horizon):
    """horizon=2.5 used to fail with a TypeError inside numpy, and True
    with a numpy broadcast ValueError."""
    design = fig2.design(2)
    monkeypatch.setattr(mpc, "min_violation", no_lp)
    with pytest.raises(ValueError, match="horizon must be an integer, got "
                       + re.escape(repr(horizon))):
        ocp_feasible(fig2.plant, design, [0.0], [0.1], horizon)


@pytest.mark.parametrize("N", [True, 2.5, 2.0, "2"])
def test_design_rejects_a_horizon_that_is_not_an_integer(fig2, N):
    """OcpDesign(2.5, ...) used to get N = 2 in silence, and True N = 1."""
    rs = fig2.rs
    with pytest.raises(ValueError, match="horizon N must be an integer, got "
                       + re.escape(repr(N))):
        OcpDesign(N, [[1.0]], [[1.0]], rs.P, rs.K, fig2.T, fig2.Y)


def test_horizons_accept_numpy_integers(fig2):
    plant, rs = fig2.plant, fig2.rs
    design = OcpDesign(np.int64(2), [[1.0]], [[1.0]], rs.P, rs.K, fig2.T,
                       fig2.Y)
    assert design.N == 2 and type(design.N) is int
    assert n_star(plant, design, [-0.95], [0.6], np.int32(10)) == 5
    assert ocp_feasible(plant, design, [-0.95], [0.6], np.int64(5))
    assert not ocp_feasible(plant, design, [-0.95], [0.6], np.int64(4))


def test_closed_loop_recursive_feasibility_and_convergence(fig2):
    plant, em = fig2.plant, fig2.em
    design = fig2.design(3)
    qp = condense(plant, design)
    gamma = feasible_set(qp)
    Y = fig2.Y
    v = np.array([0.1])
    x = np.array([-0.9])
    assert gamma.set_xv.contains_point(np.concatenate([x, v]))
    st = None
    for _ in range(120):
        warm = st.factors if st is not None else None
        u, st = mpc_feedback(qp, x, v, warm_start=warm)
        x, y, _ = plant.step(x, u)
        assert gamma.set_xv.contains_point(np.concatenate([x, v]), tol=1e-7)
        assert Y.contains_point(y, tol=1e-8)
    np.testing.assert_allclose(x, em.x_bar(v), atol=1e-4)


@pytest.mark.parametrize("x, v", [([np.nan, 0.0], [0.5]),
                                  ([-0.6, 0.0], [np.inf])])
def test_mpc_feedback_rejects_non_finite_input(y3, x, v):
    """A NaN state or an infinite reference raises ValueError instead of
    returning u = [nan] as optimal."""
    qp = condense(y3.plant, y3.design(5))
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match="must be finite"):
        mpc_feedback(qp, x, v)


def test_hot_started_mpc_loop_cuts_qp_iterations(y3):
    """A plain MPC loop at N = 40 on the wide-range double integrator,
    warm started from the previous solve's kept factors, next to a cold
    solve of every step. The hot start resumes from the previous active
    set, so the loop needs at most a third of the cold iterations (73
    against 581). The step's result does not depend on the path beyond
    rounding: the same active set, and an input within 1e-9 of the cold
    one."""
    plant = y3.plant
    qp = condense(plant, y3.design(40))
    x, v = np.array([-0.6, 0.0]), np.array([0.5])
    warm, hot, cold = None, 0, 0
    for _ in range(150):
        u, st = mpc_feedback(qp, x, v, warm_start=warm)
        u_cold, st_cold = mpc_feedback(qp, x, v)
        assert st.active_set == st_cold.active_set
        np.testing.assert_allclose(u, u_cold, rtol=0.0, atol=1e-9)
        hot += st.iterations
        cold += st_cold.iterations
        warm = st.factors
        x = plant.step(x, u)[0]
    np.testing.assert_allclose(x, [0.5, 0.0], atol=1e-4)
    assert 3 * hot <= cold, (hot, cold)


def test_hot_start_iterations_and_drops_pinned(monkeypatch, y3):
    """30 warm-started MPC steps at N = 40 from (-1.8, 0) toward v = 0
    take 99 QP iterations and 51 constraint drops in all. The hot start
    drops the most negative multiplier and solves again; dropping every
    negative one at once takes 121 iterations and 73 drops, because most
    of the dropped rows come back."""
    drops = []
    real = solver._drop_constraint

    def counted(J, R, Rinv, q, k):
        drops.append(q)
        return real(J, R, Rinv, q, k)

    monkeypatch.setattr(solver, "_drop_constraint", counted)
    plant = y3.plant
    qp = condense(plant, y3.design(40))
    x, warm, iterations = np.array([-1.8, 0.0]), None, 0
    for _ in range(30):
        u, st = mpc_feedback(qp, x, [0.0], warm_start=warm)
        iterations += st.iterations
        warm = st.factors
        x = plant.step(x, u)[0]
    assert (iterations, len(drops)) == (99, 51)


def test_kept_factors_mpc_loop_matches_reference_and_cold_solves(y3):
    """The N = 40 loop of the test above, warm started from the previous
    record's kept factors, next to a warm start from reference factors of
    the previous active set, built outside the solve in the kept factors'
    column order, and a cold solve of every step. All three end on one
    active set with u and lam within 1e-9 of each other, relative to the
    largest entry of each. At every step a solve warm-started from the
    step's own factors repeats its bits in 0 iterations, the property
    that makes the loop deterministic."""
    plant = y3.plant
    qp = condense(plant, y3.design(40))
    x, v = np.array([-0.6, 0.0]), np.array([0.5])
    record, warm_steps = None, 0
    for _ in range(150):
        factors = record.factors if record is not None else None
        u, st = mpc_feedback(qp, x, v, warm_start=factors)
        reference = None if factors is None else \
            batch_factors(qp.problem, factors.active_set)
        for u_other, other in (mpc_feedback(qp, x, v, warm_start=reference),
                               mpc_feedback(qp, x, v)):
            assert_close(other, st)
            np.testing.assert_allclose(u, u_other, rtol=0.0, atol=1e-9)
        u_again, again = mpc_feedback(qp, x, v, warm_start=st.factors)
        assert_bit_equal(again, st)
        assert again.iterations == 0
        np.testing.assert_array_equal(u_again, u)
        warm_steps += factors is not None
        record = st
        x = plant.step(x, u)[0]
    np.testing.assert_allclose(x, [0.5, 0.0], atol=1e-4)
    assert warm_steps >= 30, warm_steps
