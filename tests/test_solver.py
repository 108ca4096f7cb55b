"""LP/QP solver tests against independent oracles.

The simplex is checked against brute-force vertex enumeration and, where
scipy is installed, against HiGHS on random and degenerate LPs; the dual
active-set QP against Dykstra's alternating projection and a nested grid
search; and both against their KKT systems at the advertised tolerances.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import fgmpc.solver

from fgmpc.solver import (LpProblem, QpProblem, Status, TOL, _maximize,
                          _phase_one, min_violation, solve_lp, solve_qp,
                          support_value)


def lp_vertex_oracle(c, A, b):
    """Maximize c'x over {Ax <= b} by enumerating basic solutions.

    Assumes the feasible set is a bounded polytope (every instance below
    includes box rows). Completely independent of the simplex code path.
    """
    m, n = A.shape
    best = -np.inf
    best_x = None
    for rows in itertools.combinations(range(m), n):
        sub = A[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, b[list(rows)])
        if np.all(A @ x <= b + 1e-9):
            v = float(c @ x)
            if v > best:
                best, best_x = v, x
    return best, best_x


def qp_dykstra_oracle(H, f, A, b, sweeps=8000):
    """Minimize 0.5 x'Hx + f'x over {Ax <= b} by Dykstra's projections.

    Change of variables y = L'x turns the objective into a nearest-point
    problem; halfspace projections are closed-form, so no mathematical
    programming machinery is shared with the solver under test.
    """
    L = np.linalg.cholesky(H)
    Linv = np.linalg.inv(L)
    # 0.5|y - y0|^2 with y = L'x, y0 = -L^{-1} f
    G = A @ Linv.T
    y0 = -Linv @ f
    norms2 = np.einsum("ij,ij->i", G, G)
    m = A.shape[0]
    y = y0.copy()
    corr = np.zeros((m, y0.size))
    for _ in range(sweeps):
        for i in range(m):
            z = y + corr[i]
            gap = G[i] @ z - b[i]
            if gap > 0.0:
                ynew = z - (gap / norms2[i]) * G[i]
            else:
                ynew = z
            corr[i] = z - ynew
            y = ynew
    x = np.linalg.solve(L.T, y)
    return 0.5 * x @ H @ x + f @ x, x


def qp_grid_oracle(H, f, A, b, lo, hi, rounds=14, pts=13):
    """Nested grid refinement for the QP value over a known bounding box."""
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    n = lo.size
    best = np.inf
    best_x = None
    for _ in range(rounds):
        axes = [np.linspace(lo[d], hi[d], pts) for d in range(n)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        P = mesh.reshape(-1, n)
        feas = np.all(P @ A.T <= b + 1e-12, axis=1)
        if np.any(feas):
            Pf = P[feas]
            vals = 0.5 * np.einsum("ij,jk,ik->i", Pf, H, Pf) + Pf @ f
            k = int(np.argmin(vals))
            if vals[k] < best:
                best, best_x = float(vals[k]), Pf[k]
        center = best_x if best_x is not None else 0.5 * (lo + hi)
        width = (hi - lo) / 4.0
        lo, hi = center - width, center + width
    return best, best_x


def random_bounded_lp(rng, n, extra):
    """A box plus random cutting planes, guaranteed bounded and feasible
    near a known interior point."""
    box = np.vstack([np.eye(n), -np.eye(n)])
    box_b = rng.uniform(0.5, 3.0, size=2 * n)
    cuts = rng.normal(size=(extra, n))
    interior = rng.uniform(-0.2, 0.2, size=n)
    cut_b = cuts @ interior + rng.uniform(0.1, 1.5, size=extra)
    A = np.vstack([box, cuts])
    b = np.concatenate([box_b, cut_b])
    c = rng.normal(size=n)
    return c, A, b


def check_lp_kkt(c, A, b, res):
    assert res.status is Status.OPTIMAL
    assert np.max(A @ res.x - b) <= 1e-8
    assert res.lam is not None
    assert np.min(res.lam) >= -1e-8
    np.testing.assert_allclose(A.T @ res.lam, c, atol=1e-6)
    comp = res.lam * (A @ res.x - b)
    assert np.max(np.abs(comp)) <= 1e-6


def test_lp_box_corners():
    # maximize x + 2y over the unit box
    c = np.array([1.0, 2.0])
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.ones(4)
    res = solve_lp(LpProblem(c, A, b))
    assert res.status is Status.OPTIMAL
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-9)
    assert abs(res.value - 3.0) < 1e-9


def test_lp_negative_rhs_needs_phase_one():
    # feasible set is the segment 1 <= x <= 2 (written with b < 0 rows)
    c = np.array([-1.0])
    A = np.array([[-1.0], [1.0]])
    b = np.array([-1.0, 2.0])
    res = solve_lp(LpProblem(c, A, b))
    assert res.status is Status.OPTIMAL
    np.testing.assert_allclose(res.x, [1.0], atol=1e-9)
    assert abs(res.value - (-1.0)) < 1e-9


def test_lp_infeasible():
    A = np.array([[1.0], [-1.0]])
    b = np.array([-2.0, 1.0])  # x <= -2 and x >= -1
    res = solve_lp(LpProblem(np.array([1.0]), A, b))
    assert res.status is Status.INFEASIBLE
    assert res.x is None


def test_lp_unbounded():
    A = np.array([[-1.0, 0.0]])
    b = np.array([0.0])
    res = solve_lp(LpProblem(np.array([1.0, 0.0]), A, b))
    assert res.status is Status.UNBOUNDED


def test_lp_iteration_limit_status():
    rng = np.random.default_rng(7)
    c, A, b = random_bounded_lp(rng, 4, 10)
    res = solve_lp(LpProblem(c, A, b), max_pivots=1)
    assert res.status is Status.ITERATION_LIMIT


def test_lp_matches_vertex_enumeration():
    rng = np.random.default_rng(42)
    for trial in range(120):
        n = int(rng.integers(2, 4))
        c, A, b = random_bounded_lp(rng, n, int(rng.integers(2, 6)))
        res = solve_lp(LpProblem(c, A, b))
        ref, _ = lp_vertex_oracle(c, A, b)
        assert res.status is Status.OPTIMAL, trial
        np.testing.assert_allclose(res.value, ref, atol=1e-7, rtol=0)


def test_lp_duality_and_kkt():
    rng = np.random.default_rng(3)
    for trial in range(60):
        n = int(rng.integers(2, 6))
        c, A, b = random_bounded_lp(rng, n, int(rng.integers(2, 8)))
        res = solve_lp(LpProblem(c, A, b))
        check_lp_kkt(c, A, b, res)
        # strong duality: primal and dual objectives agree
        assert abs(res.value - b @ res.lam) <= 1e-6


def test_lp_shape_validation():
    with pytest.raises(ValueError):
        LpProblem([1.0, 2.0], np.eye(3), np.ones(3))
    with pytest.raises(ValueError):
        LpProblem([1.0], [[np.inf]], [1.0])


def test_support_value_box():
    A = np.vstack([np.eye(3), -np.eye(3)])
    b = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
    out, val, x = support_value(np.array([0.0, 1.0, 0.0]), A, b)
    assert out == "optimal"
    assert abs(val - 2.0) < 1e-9


def test_support_value_early_exit():
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.ones(4)
    out, val, _ = support_value(np.array([1.0, 1.0]), A, b, stop_above=0.5)
    assert out == "above"
    assert val > 0.5


def test_min_violation_feasible_and_not():
    A = np.array([[1.0], [-1.0]])
    t, x, out = min_violation(A, np.array([1.0, 1.0]))
    assert out == "feasible" and t <= TOL
    assert np.all(A @ x <= 1.0 + 1e-9)
    # x <= 0 and x >= d: least worst-case violation is d/2
    d = 0.8
    t, x, out = min_violation(A, np.array([0.0, -d]))
    assert out == "optimal"
    assert abs(t - d / 2) < 1e-9


def test_min_violation_unbounded_polyhedron():
    # a single halfspace is feasible but has unbounded slack
    t, x, out = min_violation(np.array([[1.0, 1.0]]), np.array([-5.0]))
    assert out == "feasible"
    assert x @ np.array([1.0, 1.0]) <= -5.0 + TOL


def test_min_violation_warm_shift():
    rng = np.random.default_rng(11)
    c, A, b = random_bounded_lp(rng, 3, 5)
    t0, x0, _ = min_violation(A, b)
    t1, x1, out = min_violation(A, b, x0=x0)
    assert out == "feasible" and t1 <= TOL


def degenerate_lp(rng):
    """A small LP that is often degenerate, infeasible or unbounded: random
    or integer rows, duplicated rows, and right-hand sides of either sign."""
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 12))
    kind = int(rng.integers(0, 4))
    if kind == 0:
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
    else:
        A = rng.integers(-2, 3, size=(m, n)).astype(float)
        b = rng.integers(-2, 3, size=m).astype(float)
    if kind == 2:
        dup = rng.integers(0, m, size=int(rng.integers(1, m + 1)))
        A, b = np.vstack([A, A[dup]]), np.concatenate([b, b[dup]])
    if kind == 3:
        b = -np.abs(b)
    return rng.normal(size=n), A, b


def highs_min_violation(A, b):
    """min t over {(x, t) : A x - t <= b, t >= -1} by HiGHS; the polyhedron
    {A x <= b} is non-empty iff the minimum is <= 0. The bound on t keeps
    the LP bounded, so the status of this LP, unlike that of a plain LP on
    an unbounded polyhedron, is reliable."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    m, n = A.shape
    res = linprog(np.r_[np.zeros(n), 1.0],
                  A_ub=np.hstack([A, -np.ones((m, 1))]), b_ub=b,
                  bounds=[(None, None)] * n + [(-1.0, None)], method="highs")
    assert res.status == 0, res.message
    return res.fun


def highs_lp(c, A, b):
    """(status, value) of max c'x s.t. A x <= b, with feasibility decided
    by highs_min_violation and boundedness by the dual, A'lam = c, lam >= 0,
    being feasible."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    m, n = A.shape
    if highs_min_violation(A, b) > 1e-9:
        return Status.INFEASIBLE, None
    dual = linprog(np.zeros(m), A_eq=A.T, b_eq=c, bounds=(0.0, None),
                   method="highs")
    if dual.status == 2:
        return Status.UNBOUNDED, None
    assert dual.status == 0, dual.message
    primal = linprog(-c, A_ub=A, b_ub=b, bounds=(None, None),
                     method="highs")
    assert primal.status == 0, primal.message
    return Status.OPTIMAL, -primal.fun


@pytest.mark.parametrize("seed", [5, 6])
def test_lp_engine_matches_highs(seed):
    rng = np.random.default_rng(seed)
    for trial in range(300):
        c, A, b = degenerate_lp(rng)
        status, value = highs_lp(c, A, b)
        res = solve_lp(LpProblem(c, A, b))
        assert res.status is status, trial
        out, val, _ = support_value(c, A, b)
        assert out == status.value, trial
        if status is Status.OPTIMAL:
            tol = 1e-7 * (1.0 + abs(value))
            assert abs(res.value - value) <= tol, trial
            assert abs(val - value) <= tol, trial
            check_lp_kkt(c, A, b, res)
            assert abs(res.value - b @ res.lam) <= 1e-6, trial
        t_ref = highs_min_violation(A, b)
        t, x, out = min_violation(A, b)
        assert np.max(A @ x - b) <= t + 1e-9, trial
        if t_ref > 1e-9:
            assert out == "optimal", trial
            assert abs(t - t_ref) <= 1e-7 * (1.0 + t_ref), trial
        else:
            assert out in ("feasible", "optimal") and t <= TOL, trial


def test_lp_auxiliary_column_left_basic():
    # twice the zero row 0'x <= -5e-9 (feasible within TOL): its violation
    # involves no x, so phase 1 ends with t basic at 5e-9, and the LP can
    # only be solved after t is pivoted out and its column retired
    A = np.vstack([np.zeros((2, 2)), np.eye(2), -np.eye(2)])
    b = np.array([-5e-9, -5e-9, 1.0, 1.0, 1.0, 1.0])
    t = A.shape[1]  # the label of t on the short tableau
    _, T, basis, _, _ = _phase_one(A, b, 100)
    assert t in basis and 0.0 < T[list(basis).index(t), -1] <= TOL
    c = np.array([1.0, -2.0])
    # phase 2 pivots t out and zeroes its column
    _, T, basis, nonbasic, _ = _maximize(c, A, b, 100)
    assert t in nonbasic and not np.any(T[:, list(nonbasic).index(t)])
    res = solve_lp(LpProblem(c, A, b))
    np.testing.assert_allclose(res.x, [1.0, -1.0], atol=1e-12)
    assert res.value == pytest.approx(3.0, abs=1e-12)
    check_lp_kkt(c, A, b, res)
    out, val, _ = support_value(c, A, b)
    assert out == "optimal" and val == pytest.approx(3.0, abs=1e-12)


def test_lp_beale_cycling_ends_on_bland_switch(monkeypatch):
    # Beale's LP (1955): max 3/4 x1 - 20 x2 + 1/2 x3 - 6 x4 over x >= 0
    # and three rows. Its degenerate vertex at 0 makes Dantzig's rule
    # cycle; the switch to Bland's rule after a degenerate streak ends it.
    c = np.array([0.75, -20.0, 0.5, -6.0])
    A = np.vstack([[[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0],
                    [0.0, 0.0, 1.0, 0.0]], -np.eye(4)])
    b = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    res = solve_lp(LpProblem(c, A, b), max_pivots=200)
    assert res.status is Status.OPTIMAL
    np.testing.assert_allclose(res.x, [1.0, 0.0, 1.0, 0.0], atol=1e-12)
    assert res.value == pytest.approx(1.25, abs=1e-12)
    check_lp_kkt(c, A, b, res)
    monkeypatch.setattr(fgmpc.solver, "_DEGENERATE_STREAK", 10 ** 9)
    res = solve_lp(LpProblem(c, A, b), max_pivots=200)
    assert res.status is Status.ITERATION_LIMIT


def test_lp_free_variable_enters_negative():
    # max -x over -3 <= x <= 5: x leaves 0 downwards in one exchange and
    # stays basic at -3, its own sign free
    A = np.array([[1.0], [-1.0]])
    b = np.array([5.0, 3.0])
    c = np.array([-1.0])
    res = solve_lp(LpProblem(c, A, b))
    assert res.status is Status.OPTIMAL and res.iterations == 1
    np.testing.assert_array_equal(res.x, [-3.0])
    np.testing.assert_array_equal(res.lam, [0.0, 1.0])
    _, T, basis, nonbasic, _ = _maximize(c, A, b, 10)
    assert list(basis).count(0) == 1 and 0 not in nonbasic
    assert T[list(basis).index(0), -1] == -3.0


def test_lp_free_variable_passes_through_zero():
    # phase 1 leaves x1 basic at 1 (on x1 + x2 >= 1); max -x1 then moves it
    # to -3 in a single exchange with x2 entering. A split x1 = x+ - x-
    # with x+ >= 0 needs a second one to pass zero.
    A = np.array([[-1.0, -1.0], [0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]])
    b = np.array([-1.0, 10.0, 3.0, 5.0])
    c = np.array([-1.0, 0.0])
    _, T, basis, _, pivots = _phase_one(A, b, 10)
    assert pivots == 2 and T[list(basis).index(0), -1] == 1.0
    res = solve_lp(LpProblem(c, A, b))
    assert res.status is Status.OPTIMAL and res.iterations == 3
    np.testing.assert_allclose(res.x, [-3.0, 4.0], atol=1e-12)
    check_lp_kkt(c, A, b, res)


def tall_lp(rng):
    """An LP with m >= 20 n rows: a bounded one (box plus cuts), one whose
    rows all recede along x1 (unbounded for c1 > 0), or random or integer
    rows with right-hand sides of either sign, often infeasible."""
    n = int(rng.integers(1, 6))
    m = int(rng.integers(20 * n, 30 * n + 1))
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return random_bounded_lp(rng, n, m - 2 * n)
    c = rng.normal(size=n)
    if kind == 1:
        A = rng.normal(size=(m, n))
        A[:, 0] = -np.abs(A[:, 0])
        b = rng.normal(size=m)
        c[0] = abs(c[0]) + 0.1
    elif kind == 2:
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m) + 1.0
    else:
        A = rng.integers(-2, 3, size=(m, n)).astype(float)
        b = rng.integers(-1, 3, size=m).astype(float)
    return c, A, b


@pytest.mark.parametrize("seed", [8, 9])
def test_tall_lp_engine_matches_highs(seed):
    rng = np.random.default_rng(seed)
    statuses = set()
    for trial in range(60):
        c, A, b = tall_lp(rng)
        assert A.shape[0] >= 20 * A.shape[1]
        status, value = highs_lp(c, A, b)
        statuses.add(status)
        res = solve_lp(LpProblem(c, A, b))
        assert res.status is status, trial
        out, val, _ = support_value(c, A, b)
        assert out == status.value, trial
        if status is Status.OPTIMAL:
            tol = 1e-7 * (1.0 + abs(value))
            assert abs(res.value - value) <= tol, trial
            assert abs(val - value) <= tol, trial
            check_lp_kkt(c, A, b, res)
        t_ref = highs_min_violation(A, b)
        t, x, out = min_violation(A, b)
        assert np.max(A @ x - b) <= t + 1e-9, trial
        if t_ref > 1e-9:
            assert out == "optimal", trial
            assert abs(t - t_ref) <= 1e-7 * (1.0 + t_ref), trial
        else:
            assert out in ("feasible", "optimal") and t <= TOL, trial
    assert statuses == {Status.OPTIMAL, Status.INFEASIBLE, Status.UNBOUNDED}


def test_min_violation_memory_is_the_short_tableau():
    # 1,200 rows and 120 columns: the short tableau is 1,201 x 122 doubles
    # (1.2 MB), one with slack columns 1,201 x 1,442 (14 MB)
    rng = np.random.default_rng(3)
    A = rng.normal(size=(1200, 120))
    b = rng.normal(size=1200) - 0.5
    tracemalloc.start()
    try:
        t, x, out = min_violation(A, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == "optimal" and t > 1.0
    assert np.max(A @ x - b) <= t + 1e-9
    assert peak < 4e6


def check_qp_kkt(p, res):
    assert res.status is Status.OPTIMAL
    grad = p.H @ res.x + p.f + p.A.T @ res.lam
    assert np.max(np.abs(grad)) <= 1e-6
    assert np.max(p.A @ res.x - p.b, initial=-np.inf) <= 1e-8
    assert np.min(res.lam, initial=0.0) >= -1e-8
    comp = res.lam * (p.A @ res.x - p.b)
    assert np.max(np.abs(comp), initial=0.0) <= 1e-6


def test_qp_unconstrained_interior():
    H = np.diag([2.0, 4.0])
    f = np.array([-2.0, -4.0])
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = 5.0 * np.ones(4)
    res = solve_qp(QpProblem(H, f, A, b))
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-10)
    assert res.active_set == []
    check_qp_kkt(QpProblem(H, f, A, b), res)


def test_qp_projection_onto_halfspace():
    # project the origin-seeking optimum onto x1 + x2 <= 1
    H = np.eye(2)
    f = np.array([-2.0, -2.0])  # unconstrained optimum (2, 2)
    A = np.array([[1.0, 1.0]])
    b = np.array([1.0])
    p = QpProblem(H, f, A, b)
    res = solve_qp(p)
    np.testing.assert_allclose(res.x, [0.5, 0.5], atol=1e-9)
    assert res.active_set == [0]
    check_qp_kkt(p, res)


def test_qp_vertex_solution_two_active():
    H = np.eye(2)
    f = np.array([-10.0, -10.0])
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.array([1.0, 2.0, 0.0, 0.0])
    p = QpProblem(H, f, A, b)
    res = solve_qp(p)
    np.testing.assert_allclose(res.x, [1.0, 2.0], atol=1e-9)
    assert sorted(res.active_set) == [0, 1]
    check_qp_kkt(p, res)


def test_qp_infeasible():
    H = np.eye(1)
    A = np.array([[1.0], [-1.0]])
    b = np.array([-1.0, 0.0])  # x <= -1 and x >= 0
    res = solve_qp(QpProblem(H, np.zeros(1), A, b))
    assert res.status is Status.INFEASIBLE
    assert res.x is None


def test_qp_iteration_limit_status():
    H = np.eye(2)
    f = np.array([-10.0, -10.0])
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.array([1.0, 2.0, 0.0, 0.0])
    res = solve_qp(QpProblem(H, f, A, b), max_iterations=0)
    assert res.status is Status.ITERATION_LIMIT


def test_qp_validation():
    with pytest.raises(ValueError):
        QpProblem(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2),
                  np.eye(2), np.ones(2))
    with pytest.raises(ValueError):
        QpProblem(-np.eye(2), np.zeros(2), np.eye(2), np.ones(2))


def random_qp(rng, n, extra):
    M = rng.normal(size=(n, n))
    H = M @ M.T + n * np.eye(n)
    f = rng.normal(size=n) * 3.0
    box = np.vstack([np.eye(n), -np.eye(n)])
    box_b = rng.uniform(0.3, 2.0, size=2 * n)
    cuts = rng.normal(size=(extra, n))
    interior = rng.uniform(-0.1, 0.1, size=n)
    cut_b = cuts @ interior + rng.uniform(0.05, 1.0, size=extra)
    A = np.vstack([box, cuts])
    b = np.concatenate([box_b, cut_b])
    return QpProblem(H, f, A, b)


def test_qp_matches_dykstra():
    rng = np.random.default_rng(5)
    for trial in range(25):
        n = int(rng.integers(2, 5))
        p = random_qp(rng, n, int(rng.integers(1, 5)))
        res = solve_qp(p)
        check_qp_kkt(p, res)
        ref_val, ref_x = qp_dykstra_oracle(p.H, p.f, p.A, p.b)
        np.testing.assert_allclose(res.value, ref_val, atol=1e-6, rtol=0)
        np.testing.assert_allclose(res.x, ref_x, atol=1e-4)


def test_qp_matches_grid_refinement():
    rng = np.random.default_rng(17)
    for trial in range(6):
        p = random_qp(rng, 3, 2)
        res = solve_qp(p)
        lo = -np.max(p.b[3:6]) * np.ones(3)
        hi = np.max(p.b[0:3]) * np.ones(3)
        ref_val, _ = qp_grid_oracle(p.H, p.f, p.A, p.b, lo, hi)
        assert abs(res.value - ref_val) <= 1e-4


def test_qp_no_feasible_descent_direction():
    rng = np.random.default_rng(13)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        p = random_qp(rng, n, 3)
        res = solve_qp(p)
        obj = lambda x: 0.5 * x @ p.H @ x + p.f @ x
        base = obj(res.x)
        checked = 0
        while checked < 20:
            d = rng.normal(size=n)
            d /= np.linalg.norm(d)
            for sgn in (1.0, -1.0):
                xp = res.x + sgn * 1e-4 * d
                if np.all(p.A @ xp <= p.b + 1e-12):
                    assert obj(xp) >= base - 1e-8
                    checked += 1


def test_qp_warm_start_same_minimizer():
    rng = np.random.default_rng(23)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        p = random_qp(rng, n, int(rng.integers(1, 6)))
        cold = solve_qp(p)
        assert cold.status is Status.OPTIMAL
        m = p.A.shape[0]
        guesses = [
            cold.active_set,
            [],
            list(rng.choice(m, size=min(3, m), replace=False)),
        ]
        for warm in guesses:
            hot = solve_qp(p, warm_start=warm)
            assert hot.status is Status.OPTIMAL
            np.testing.assert_allclose(hot.x, cold.x, atol=1e-9)


def test_qp_warm_start_shortens_path():
    rng = np.random.default_rng(31)
    p = random_qp(rng, 6, 14)
    cold = solve_qp(p)
    hot = solve_qp(p, warm_start=cold.active_set)
    assert hot.iterations <= cold.iterations
    np.testing.assert_allclose(hot.x, cold.x, atol=1e-10)


def assert_same_solve(a, b):
    assert a.status is b.status
    np.testing.assert_array_equal(a.x, b.x)
    assert a.active_set == b.active_set
    np.testing.assert_array_equal(a.lam, b.lam)
    assert a.iterations == b.iterations


def test_qp_with_linear_matches_fresh_problem():
    rng = np.random.default_rng(41)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        base = random_qp(rng, n, int(rng.integers(1, 6)))
        prev = solve_qp(base)
        f = rng.normal(size=n) * 3.0
        b = base.b + rng.uniform(0.0, 0.5, size=base.b.size)
        derived = base.with_linear(f, b)
        fresh = QpProblem(base.H, f, base.A, b)
        for warm in (None, prev.active_set):
            assert_same_solve(solve_qp(derived, warm_start=warm),
                              solve_qp(fresh, warm_start=warm))


def test_qp_with_linear_keeps_sizes():
    p = random_qp(np.random.default_rng(43), 3, 2)
    with pytest.raises(ValueError, match="sizes"):
        p.with_linear(np.zeros(4), p.b)
    with pytest.raises(ValueError, match="sizes"):
        p.with_linear(p.f, p.b[:-1])


def test_qp_cached_factor_is_read_only_and_unchanged_by_solves():
    rng = np.random.default_rng(47)
    H_in = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
    p = QpProblem(H_in, rng.normal(size=3) * 5.0,
                  np.vstack([np.eye(3), -np.eye(3), rng.normal(size=(4, 3))]),
                  np.full(10, 0.2))
    assert H_in.flags.writeable  # the caller's array keeps its flags
    cached = (p.H, p.A, p.J, p.norms, p.A_scaled)
    before = [arr.copy() for arr in cached]
    np.testing.assert_allclose(p.J @ p.J.T, np.linalg.inv(H_in), atol=1e-12)
    first = solve_qp(p)
    assert first.status is Status.OPTIMAL and first.active_set
    assert_same_solve(solve_qp(p), first)
    for arr, snap in zip(cached, before):
        assert not arr.flags.writeable
        np.testing.assert_array_equal(arr, snap)
    derived = p.with_linear(-p.f, p.b)
    assert all(a is b for a, b in zip(
        (derived.H, derived.A, derived.J, derived.norms, derived.A_scaled),
        cached))


def test_qp_without_constraints():
    p = QpProblem(np.diag([2.0, 4.0]), [-2.0, -4.0], np.zeros((0, 2)),
                  np.zeros(0))
    res = solve_qp(p)
    assert res.status is Status.OPTIMAL
    np.testing.assert_array_equal(res.x, [1.0, 1.0])
    assert res.value == -3.0
    assert res.lam.shape == (0,)
    assert res.active_set == []
    assert res.iterations == 0
