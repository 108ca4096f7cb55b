"""Closed-loop simulator, metrics report, and invariant audits, checked
against hand-built logs, fault injection, and randomized governed runs."""

import collections
import csv
import re

import numpy as np
import pytest

import systems

from fgmpc.governor import GovernorProblem, roa
from fgmpc.solver import QpProblem, solve_qp
from fgmpc.sim import (Scenario, SimulationError, TrajectoryLog,
                       audit_invariants, metrics, run_closed_loop,
                       write_trajectory_csv)


def make_scenario(bundle, N, kind, x0, r, budget):
    return Scenario(bundle.plant, bundle.spec, bundle.design(N), kind, x0,
                    r, budget)


@pytest.fixture(scope="module")
def y1_log(y1, y1_gov):
    sc = make_scenario(y1, 10, "MPC+FG", [-1.0, 0.0], [0.75], 400)
    return run_closed_loop(sc, qp=y1_gov["qp"], gp=y1_gov["gp"])


def test_scenario_validation(fig2):
    with pytest.raises(ValueError, match="controller kind"):
        make_scenario(fig2, 2, "LQR", [0.0], [0.0], 10)
    with pytest.raises(ValueError, match="at least 1"):
        make_scenario(fig2, 2, "MPC", [0.0], [0.0], 0)
    with pytest.raises(ValueError, match="expected x0 of size 1, got size 2"):
        make_scenario(fig2, 2, "MPC", [0.0, 0.0], [0.0], 10)
    with pytest.raises(ValueError, match="expected r of size 1, got size 2"):
        make_scenario(fig2, 2, "MPC", [0.0], [0.0, 1.0], 10)
    # a non-finite start or reference is refused by name, before any QP
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^x0 must be finite$"):
            make_scenario(fig2, 2, "MPC", [bad], [0.0], 10)
        with pytest.raises(ValueError, match="^r must be finite$"):
            make_scenario(fig2, 2, "MPC+FG", [0.0], [bad], 10)


@pytest.mark.parametrize("budget", [2.5, 3.0, True, "3", None])
def test_scenario_budget_must_be_an_integer(fig2, budget):
    """A budget of 2.5 used to run 2 steps, and True 1 step."""
    with pytest.raises(ValueError, match="budget must be an integer"):
        make_scenario(fig2, 2, "MPC", [0.0], [0.0], budget)


def test_scenario_accepts_numpy_integer_budget(fig2):
    sc = make_scenario(fig2, 2, "MPC", [0.0], [0.0], np.int64(3))
    assert sc.budget == 3 and type(sc.budget) is int


def test_equilibrium_run_is_constant(fig2, fig2_gov):
    em = fig2.em
    sc = make_scenario(fig2, 2, "MPC+FG", em.x_bar([0.5]), [0.5], 30)
    log = run_closed_loop(sc, qp=fig2_gov["qp"], gp=fig2_gov["gp"])
    np.testing.assert_allclose(log.v, 0.5, atol=1e-8)
    np.testing.assert_allclose(log.x, 0.5, atol=1e-8)
    np.testing.assert_allclose(log.u, 0.0, atol=1e-8)
    rep = metrics(log, [0.5], fig2.Y)
    assert rep["rise_time_steps"] == 0
    assert rep["v_convergence_step"] == 0
    assert rep["max_output_residual"] < 0.0
    assert all(vd.passed for vd in
               audit_invariants(log, fig2_gov["gp"], fig2.Y))


def test_log_is_internally_consistent(fig2, fig2_gov):
    plant = fig2.plant
    sc = make_scenario(fig2, 2, "MPC+FG", [-0.9], [0.7], 50)
    log = run_closed_loop(sc, qp=fig2_gov["qp"], gp=fig2_gov["gp"])
    assert log.n_steps == 50
    assert metrics(log, [0.7], fig2.Y)["max_output_residual"] <= 1e-8
    for arr in (log.u, log.y, log.z, log.v, log.V, log.t_fg, log.t_mpc):
        assert arr.shape[0] == 50
    # logged outputs match recomputation from (x_k, u_k), and the state
    # sequence actually follows the plant recursion
    np.testing.assert_array_equal(
        log.y, log.x @ plant.C.T + log.u @ plant.D.T)
    np.testing.assert_array_equal(
        log.z, log.x @ plant.E.T + log.u @ plant.F.T)
    np.testing.assert_array_equal(
        log.x[1:], log.x[:-1] @ plant.A.T + log.u[:-1] @ plant.B.T)
    np.testing.assert_array_equal(
        log.x_final, plant.A @ log.x[-1] + plant.B @ log.u[-1])
    np.testing.assert_allclose(
        log.V, np.sum((log.v - sc.r) ** 2, axis=1), atol=0.0)
    with pytest.raises(ValueError, match="length"):
        TrajectoryLog(sc, log.x, log.u[:-1], log.y, log.z, log.v, log.V,
                      log.t_fg, log.t_mpc, log.x_final)


def test_runs_are_deterministic(fig2, fig2_gov):
    logs = []
    for _ in range(2):
        sc = make_scenario(fig2, 2, "MPC+FG", [-0.9], [0.7], 60)
        logs.append(run_closed_loop(sc, qp=fig2_gov["qp"],
                                    gp=fig2_gov["gp"]))
    a, b = logs
    for name in ("x", "u", "y", "z", "v", "V"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_fg_is_transparent_when_target_feasible(fig2, fig2_gov):
    sc_fg = make_scenario(fig2, 2, "MPC+FG", [-0.2], [0.3], 40)
    sc_mpc = make_scenario(fig2, 2, "MPC", [-0.2], [0.3], 40)
    log_fg = run_closed_loop(sc_fg, qp=fig2_gov["qp"], gp=fig2_gov["gp"])
    log_mpc = run_closed_loop(sc_mpc, qp=fig2_gov["qp"])
    np.testing.assert_allclose(log_fg.v, 0.3, atol=1e-10)
    assert np.all(log_mpc.v == 0.3)
    assert np.all(log_mpc.t_fg == 0.0)
    np.testing.assert_allclose(log_fg.x, log_mpc.x, atol=1e-8)
    np.testing.assert_allclose(log_fg.u, log_mpc.u, atol=1e-8)


def test_plain_mpc_infeasible_start_aborts(fig2, fig2_gov):
    sc = make_scenario(fig2, 2, "MPC", [-0.95], [0.8], 10)
    with pytest.raises(SimulationError, match="step 0"):
        run_closed_loop(sc, qp=fig2_gov["qp"])


def test_governed_start_outside_roa_aborts(fig2, fig2_gov):
    sc = make_scenario(fig2, 2, "MPC+FG", [5.0], [0.0], 10)
    with pytest.raises(SimulationError, match="ROA"):
        run_closed_loop(sc, gp=fig2_gov["gp"], qp=fig2_gov["qp"])


def test_fault_injection_fails_output_audit(fig2, fig2_gov):
    sc = make_scenario(fig2, 2, "MPC+FG", [-0.9], [0.7], 20)
    log = run_closed_loop(sc, qp=fig2_gov["qp"], gp=fig2_gov["gp"])
    y_bad = log.y.copy()
    y_bad[7] = [2.0, 0.0]
    tampered = TrajectoryLog(sc, log.x, log.u, y_bad, log.z, log.v, log.V,
                             log.t_fg, log.t_mpc, log.x_final)
    verdicts = {vd.name: vd for vd in
                audit_invariants(tampered, fig2_gov["gp"], fig2.Y)}
    assert not verdicts["output_admissible"].passed
    assert verdicts["output_admissible"].first_failure == 7
    assert verdicts["joint_membership"].passed
    assert verdicts["lyapunov_decrease"].passed


def test_command_governor_run_converges(fig2, fig2_gov):
    sc = make_scenario(fig2, 2, "MPC+CG(LQR)", [-0.2], [0.6], 200)
    log = run_closed_loop(sc, gp=GovernorProblem(fig2.T, fig2.spec.R_eps))
    np.testing.assert_allclose(log.v[-1], [0.6], atol=1e-8)
    assert np.linalg.norm(log.x_final - 0.6) <= 1e-3
    assert all(vd.passed for vd in
               audit_invariants(log, fig2_gov["gp"], fig2.Y))


def test_governed_runs_from_random_starts(fig2, fig2_gov):
    """Safety, Lyapunov decrease, and finite-time convergence hold from
    random starts in the governed ROA toward arbitrary targets."""
    gp = fig2_gov["gp"]
    D = roa(gp)
    rng = np.random.default_rng(29)
    starts = [x for x in systems.sample_in_polytope(D, rng, 24)
              if np.max(D.A @ x - D.b) <= -1e-6][:12]
    assert len(starts) == 12
    for x0 in starts:
        r = rng.uniform(-2.0, 2.0, size=1)
        sc = make_scenario(fig2, 2, "MPC+FG", x0, r, 80)
        log = run_closed_loop(sc, qp=fig2_gov["qp"], gp=gp)
        for vd in audit_invariants(log, gp, fig2.Y):
            assert vd.passed, (vd, x0, r)


def test_y1_governed_run(y1, y1_gov, y1_log):
    log = y1_log
    assert abs(log.v[0, 0] - 0.75) > 1e-3  # the governor interferes early
    np.testing.assert_allclose(log.v[-1], [0.75], atol=1e-8)
    assert np.linalg.norm(log.x_final - [0.75, 0.0]) <= 1e-3
    assert metrics(log, [0.75], y1.Y)["max_output_residual"] <= 1e-8
    for vd in audit_invariants(log, y1_gov["gp"], y1.Y):
        assert vd.passed, vd


def test_metrics_report_fields(y1, y1_log):
    rep = metrics(y1_log, [0.75], y1.Y)
    assert rep["kind"] == "MPC+FG"
    assert rep["steps"] == 400
    assert 0 < rep["rise_time_steps"] < 400
    assert rep["rise_time_seconds"] == rep["rise_time_steps"] * 0.1
    assert 0 < rep["v_convergence_step"] < 400
    assert rep["max_output_residual"] <= 1e-8
    assert 0.0 < rep["tave_s"] <= rep["tmax_s"]
    assert rep["t_fg_max_s"] > 0.0 and rep["t_mpc_max_s"] > 0.0
    assert rep["lyapunov_monotone"]
    assert rep["hardware"]


def test_trajectory_csv_roundtrip(tmp_path, fig2, fig2_gov):
    sc = make_scenario(fig2, 2, "MPC+FG", [-0.9], [0.7], 12)
    log = run_closed_loop(sc, qp=fig2_gov["qp"], gp=fig2_gov["gp"])
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(log, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "x[0]", "u[0]", "y[0]", "y[1]", "z[0]",
                       "v[0]", "V", "t_fg_us", "t_mpc_us"]
    assert len(rows) == 1 + log.n_steps
    data = np.array([[float(c) for c in row] for row in rows[1:]])
    np.testing.assert_array_equal(data[:, 0], np.arange(12))
    np.testing.assert_array_equal(data[:, 1], log.x[:, 0])
    np.testing.assert_array_equal(data[:, 2], log.u[:, 0])
    np.testing.assert_array_equal(data[:, 6], log.v[:, 0])
    np.testing.assert_array_equal(data[:, 8], log.t_fg * 1e6)


def count_factorizations(monkeypatch):
    """A Counter of the np.linalg cholesky, inv and solve calls made from
    here on."""
    calls = collections.Counter()
    for name in ("cholesky", "inv", "solve"):
        def counted(*args, _real=getattr(np.linalg, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_governed_loop_reuses_the_qp_factors(monkeypatch, fig2, fig2_gov):
    """With prebuilt qp and gp, no control step validates, factorizes or
    solves with a Hessian: both QPs were factorized, and their inverses
    kept, when qp and gp were built."""
    sc = make_scenario(fig2, 2, "MPC+FG", [-0.9], [0.7], 100)
    calls = count_factorizations(monkeypatch)
    log = run_closed_loop(sc, qp=fig2_gov["qp"], gp=fig2_gov["gp"])
    assert log.n_steps == 100
    assert calls["cholesky"] == 0 and calls["inv"] == 0
    assert calls["solve"] == 0


def test_command_governor_loop_uses_the_gp_it_is_given(monkeypatch, fig2):
    """An MPC+CG(LQR) loop given GovernorProblem(T, R_eps) factorizes no
    Hessian and inverts nothing: its law reads em and K from T, and no
    step solves with a Hessian. Every step matches to 1e-9 a cold solve
    of the command-governor QP over the rows of T and R_eps, built here
    without the governor module."""
    sc = make_scenario(fig2, 2, "MPC+CG(LQR)", [-0.2], [0.6], 100)
    T, R_eps = sc.design.T, sc.spec.R_eps
    gp_T = GovernorProblem(T, R_eps)
    calls = count_factorizations(monkeypatch)
    log = run_closed_loop(sc, gp=gp_T)
    assert log.n_steps == 100
    assert calls["cholesky"] == 0 and calls["inv"] == 0
    assert calls["solve"] == 0
    A_v = np.vstack([T.T_v, R_eps.A])
    for x, v in zip(log.x, log.v):
        rhs = np.concatenate([T.c - T.T_x @ x, R_eps.b])
        st = solve_qp(QpProblem(2.0 * np.eye(A_v.shape[1]), -2.0 * sc.r,
                                A_v, rhs))
        np.testing.assert_allclose(st.x, v, atol=1e-9)


def test_command_governor_steers_with_the_law_of_its_terminal_set(
        wide_gov):
    """T is invariant only under the law it was built for. Given the
    Q = 100 I design, whose K is not T's, a CG run still steers with T's
    em and K: it equals the run given the nominal design bit for bit and
    passes every audit (with the design's K it left the ROA at step 3)."""
    nom = wide_gov["nom"]
    assert not np.array_equal(wide_gov["design"].K, nom.rs.K)
    gp = GovernorProblem(nom.T, nom.spec.R_eps)
    a, b = (run_closed_loop(Scenario(nom.plant, nom.spec, design,
                                     "MPC+CG(LQR)", [-5.0, 0.0], [4.0], 300),
                            gp=gp)
            for design in (wide_gov["design"], nom.design(10)))
    for name in ("x", "u", "y", "z", "v", "V", "x_final"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for vd in audit_invariants(a, gp, nom.Y):
        assert vd.passed, vd


@pytest.mark.parametrize("kind, given, missing", [
    ("MPC", None, "qp"), ("MPC+FG", "qp", "gp"), ("MPC+CG(LQR)", None, "gp")])
def test_run_closed_loop_refuses_a_missing_piece(monkeypatch, fig2,
                                                 fig2_gov, kind, given,
                                                 missing):
    """run_closed_loop builds no controller: a kind run without the qp or
    gp it needs raises ValueError naming both, before any step."""
    def unexpected(*args, **kwargs):
        raise AssertionError("no step may run")
    monkeypatch.setattr(type(fig2.plant), "step", unexpected)
    sc = make_scenario(fig2, 2, kind, [-0.2], [0.6], 10)
    kwargs = {given: fig2_gov[given]} if given else {}
    with pytest.raises(ValueError, match=r"^controller kind '{}' needs {}$"
                       .format(re.escape(kind), missing)):
        run_closed_loop(sc, **kwargs)
