"""LP/QP solver tests against independent oracles.

The simplex is checked against brute-force vertex enumeration and, where
scipy is installed, against HiGHS on random and degenerate LPs; the dual
active-set QP against Dykstra's alternating projection and a nested grid
search; and both against their KKT systems at the advertised tolerances.
"""

import collections
import inspect
import itertools
import tracemalloc

import numpy as np
import pytest

import fgmpc.polytope
import fgmpc.solver
import fgmpc.synthesis
import systems
from oracles import random_bounded_polytope

from fgmpc.mpc import n_star
from fgmpc.polytope import HPolyhedron
from fgmpc.solver import (LimitError, LpProblem, QpFactors, QpProblem,
                          Status, SupportLp, TOL, _SPARSE_MIN_COLS,
                          _drop_constraint, _phase_one, _pivot,
                          min_violation, solve_lp, solve_qp, support_value)
from fgmpc.synthesis import solve_dare, terminal_set


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


def test_lp_iteration_limit_status(monkeypatch):
    # a budget of 0 pivots stops every run of the simplex at its first
    # pivot, as a budget of 1 does
    monkeypatch.setattr(fgmpc.solver, "_LP_PIVOTS_PER_SIZE", 0)
    rng = np.random.default_rng(7)
    c, A, b = random_bounded_lp(rng, 4, 10)
    with pytest.raises(LimitError, match=r"^LP of 18 rows, 4 variables gave "
                       r"up at its cap of 0 \(_LP_PIVOTS_PER_SIZE\)$"):
        solve_lp(LpProblem(c, A, b))
    # phase 1 of this LP needs 2 pivots, so the budget stops it there:
    # every entry point raises, a SupportLp already when it is built
    A = np.array([[-1.0, -1.0], [0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]])
    b = np.array([-1.0, 10.0, 3.0, 5.0])
    c = np.array([-1.0, 0.0])
    for query in (lambda: solve_lp(LpProblem(c, A, b)),
                  lambda: support_value(c, A, b),
                  lambda: min_violation(A, b),
                  lambda: SupportLp(A, b)):
        with pytest.raises(LimitError, match="LP of 4 rows, 2 variables"):
            query()


@pytest.mark.parametrize("func, params", [
    (solve_lp, ["problem"]),
    (SupportLp, ["A", "b"]),
    (support_value, ["a", "A", "b", "stop_above"]),
    (min_violation, ["A", "b", "x0"]),
    (solve_qp, ["problem", "warm_start"]),
    (solve_dare, ["A", "B", "Q", "R"]),
    (terminal_set, ["plant", "em", "rs", "Y", "eps"]),
    (HPolyhedron.project, ["self", "keep_indices"])])
def test_give_up_limits_are_not_parameters(func, params):
    """Each limit is a module constant: _LP_PIVOTS_PER_SIZE,
    _QP_ITERATIONS_PER_SIZE, _DARE_CAP, _TERMINAL_CAP, DEFAULT_ROW_CAP."""
    assert list(inspect.signature(func).parameters) == params


@pytest.mark.parametrize("module, limit, value, cap, call", [
    (fgmpc.solver, "_LP_PIVOTS_PER_SIZE", 0, 0,
     lambda b: solve_lp(LpProblem([1.0], [[1.0], [-1.0]], [1.0, 1.0]))),
    # 12 iterations, past the 0 (12 + 12) + 10 the patched constant allows
    (fgmpc.solver, "_QP_ITERATIONS_PER_SIZE", 0, 10,
     lambda b: solve_qp(QpProblem(np.eye(12), np.full(12, -10.0),
                                  np.eye(12), np.ones(12)))),
    (fgmpc.polytope, "DEFAULT_ROW_CAP", 3, 3,
     lambda b: HPolyhedron(*random_bounded_polytope(
         np.random.default_rng(8), 4, 12)).project([0, 1])),
    (fgmpc.synthesis, "_DARE_CAP", 2, 2,
     lambda b: solve_dare(b["plant"].A, b["plant"].B, [[1.0]], [[1.0]])),
    (fgmpc.synthesis, "_TERMINAL_CAP", 0, 0,
     lambda b: terminal_set(b["plant"], b["em"], b["rs"], b["Y"], 0.05))],
    ids=["lp", "qp", "projection", "dare", "terminal_set"])
def test_every_give_up_limit_raises_limit_error(monkeypatch, fig2, module,
                                                limit, value, cap, call):
    """Each of the five fixed limits raises the one LimitError where it is
    hit, naming its constant and the cap it set; no solve returns a
    give-up status."""
    assert [s.name for s in Status] == ["OPTIMAL", "INFEASIBLE", "UNBOUNDED"]
    call(fig2)  # within the default limits
    monkeypatch.setattr(module, limit, value)
    with pytest.raises(LimitError) as err:
        call(fig2)
    assert isinstance(err.value, RuntimeError)
    assert (err.value.limit, err.value.cap) == (limit, cap)
    assert str(err.value).endswith(" gave up at its cap of {} ({})".format(
        cap, limit))


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


@pytest.mark.parametrize("seed", [5, 6])
def test_support_lp_warm_matches_cold(seed):
    """A sequence of objectives over one constraint set, each warm started
    from the tableau the previous one left (after an unbounded or optimal
    outcome alike), gives the status and value of a cold solve_lp, with
    duals that meet the KKT conditions."""
    rng = np.random.default_rng(seed)
    for trial in range(60):
        _, A, b = degenerate_lp(rng)
        lp = SupportLp(A, b)
        for c in rng.normal(size=(8, A.shape[1])):
            warm = lp.maximize(c)
            cold = solve_lp(LpProblem(c, A, b))
            assert warm.status is cold.status, trial
            if cold.optimal:
                assert abs(warm.value - cold.value) <= 1e-7, trial
                check_lp_kkt(c, A, b, warm)


def test_support_lp_warm_start_saves_pivots(monkeypatch):
    """Close directions over a tall LP: phase 1 runs once, and the
    warm-started solves pivot less than half as much as the same cold
    solves."""
    rng = np.random.default_rng(3)
    c0, A, b = random_bounded_lp(rng, 4, 200)
    b = b + A @ np.full(4, 5.0)  # moved off the origin: phase 1 pivots
    phase_ones = []
    real = fgmpc.solver._phase_one

    def counted(*args, **kwargs):
        phase_ones.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fgmpc.solver, "_phase_one", counted)
    lp = SupportLp(A, b)
    directions = c0 + 0.05 * np.arange(20)[:, None] * rng.normal(size=(20, 4))
    warm = [lp.maximize(c) for c in directions]
    assert len(phase_ones) == 1
    cold = [solve_lp(LpProblem(c, A, b)) for c in directions]
    for w, c in zip(warm, cold):
        assert w.optimal and abs(w.value - c.value) <= 1e-8
    assert sum(w.iterations for w in warm) < \
        sum(c.iterations for c in cold) / 2


def test_lp_auxiliary_column_left_basic():
    # twice the zero row 0'x <= -5e-9 (feasible within TOL): its violation
    # involves no x, so phase 1 ends with t basic at 5e-9, and the LP can
    # only be solved after t is pivoted out and its column retired
    A = np.vstack([np.zeros((2, 2)), np.eye(2), -np.eye(2)])
    b = np.array([-5e-9, -5e-9, 1.0, 1.0, 1.0, 1.0])
    t = A.shape[1]  # the label of t on the short tableau
    _, T, basis, _, _ = _phase_one(A, b)
    assert t in basis and 0.0 < T[list(basis).index(t), -1] <= TOL
    c = np.array([1.0, -2.0])
    # phase 2 pivots t out and zeroes its column
    lp = SupportLp(A, b)
    lp.maximize(c)
    T, nonbasic = lp._T, lp._nonbasic
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
    res = solve_lp(LpProblem(c, A, b))
    assert res.status is Status.OPTIMAL and res.iterations < 200
    np.testing.assert_allclose(res.x, [1.0, 0.0, 1.0, 0.0], atol=1e-12)
    assert res.value == pytest.approx(1.25, abs=1e-12)
    check_lp_kkt(c, A, b, res)
    # without the switch Dantzig's rule cycles up to the budget of
    # 50 (m + n) pivots
    monkeypatch.setattr(fgmpc.solver, "_DEGENERATE_STREAK", 10 ** 9)
    with pytest.raises(LimitError) as err:
        solve_lp(LpProblem(c, A, b))
    assert err.value.limit == "_LP_PIVOTS_PER_SIZE"
    assert err.value.cap == 50 * (7 + 4)


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
    lp = SupportLp(A, b)
    lp.maximize(c)
    T, basis, nonbasic = lp._T, lp._basis, lp._nonbasic
    assert list(basis).count(0) == 1 and 0 not in nonbasic
    assert T[list(basis).index(0), -1] == -3.0


def test_lp_free_variable_passes_through_zero():
    # phase 1 leaves x1 basic at 1 (on x1 + x2 >= 1); max -x1 then moves it
    # to -3 in a single exchange with x2 entering. A split x1 = x+ - x-
    # with x+ >= 0 needs a second one to pass zero.
    A = np.array([[-1.0, -1.0], [0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]])
    b = np.array([-1.0, 10.0, 3.0, 5.0])
    c = np.array([-1.0, 0.0])
    _, T, basis, _, pivots = _phase_one(A, b)
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


def dense_exchange(T, row, col):
    """The exchange of _pivot as a dense rank-1 update of a copy of T."""
    T = T.copy()
    piv = T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T[row] /= piv
    T -= np.outer(colvals, T[row])
    T[:, col] = colvals * (-1.0 / piv)
    T[row, col] = 1.0 / piv
    return T


@pytest.mark.parametrize("width", [16, _SPARSE_MIN_COLS - 1,
                                   _SPARSE_MIN_COLS, 118])
@pytest.mark.parametrize("sparse", [True, False])
def test_pivot_matches_the_dense_exchange(width, sparse):
    """Every exchange has the values of the dense rank-1 update and swaps
    the same labels. A sparse pivot row on a tableau of at least
    _SPARSE_MIN_COLS columns leaves the columns where it is zero untouched,
    so a -0.0 there keeps its sign; the dense update turns it into +0.0
    when the column entry of its row is negative. Every other case keeps
    even the signs of zeros."""
    rng = np.random.default_rng(width + 2 * sparse)
    rows, row = 6 * width, 5
    T = rng.normal(size=(rows, width))
    # the pivot row is nonzero at col, in the right-hand side and, when
    # sparse, at about 3% of the other columns
    nz = rng.choice(width - 1, size=max(2, width // 30) if sparse
                    else width - 1, replace=False)
    col = int(nz[0])
    nz = np.append(nz, width - 1)
    T[row] = 0.0
    T[row, nz] = rng.uniform(0.5, 2.0, size=nz.size)
    zero_cols = np.setdiff1d(np.arange(width), nz)
    if zero_cols.size:
        # -0.0 in an untouched column, on rows where the update subtracts -0
        neg = (T[:, col] < 0.0).nonzero()[0]
        neg = neg[neg != row][:3]
        T[neg, zero_cols[0]] = -0.0
    basis, nonbasic = np.arange(width, width + rows), np.arange(width)
    want = dense_exchange(T, row, col)
    _pivot(T, basis, nonbasic, row, col)
    assert np.array_equal(T, want)
    assert basis[row] == col and nonbasic[col] == width + row
    assert np.array_equal(np.delete(basis, row),
                          np.delete(np.arange(width, width + rows), row))
    assert np.array_equal(np.delete(nonbasic, col),
                          np.delete(np.arange(width), col))
    restricted = sparse and width >= _SPARSE_MIN_COLS
    if zero_cols.size:
        assert np.signbit(T[neg, zero_cols[0]]).all() == restricted
        assert not np.signbit(want[neg, zero_cols[0]]).any()
    if not restricted:
        assert np.array_equal(np.signbit(T), np.signbit(want))


def test_n_star_pivots_pinned_on_a_long_horizon(monkeypatch, y3):
    """The n_star scan of the wide-range double integrator from (-2, 0)
    toward 1 probes these horizons, with these worst violations, in 434
    pivots: the values an all-dense exchange gives. Its horizon LPs reach
    66 columns, so most of their pivots take the sparse update."""
    counts = collections.Counter()
    real = fgmpc.solver._pivot

    def counted(T, basis, nonbasic, row, col):
        counts["pivots"] += 1
        sparse = 8 * np.count_nonzero(T[row]) <= T.shape[1]
        counts["sparse"] += sparse and T.shape[1] >= _SPARSE_MIN_COLS
        return real(T, basis, nonbasic, row, col)

    monkeypatch.setattr(fgmpc.solver, "_pivot", counted)
    trace = []
    n = n_star(y3["plant"], systems.make_design(y3, 1), [-2.0, 0.0], [1.0],
               400, trace=trace)
    assert n == 55
    assert counts["pivots"] == 434
    assert counts["sparse"] > counts["pivots"] // 2
    assert [h for h, _ in trace] == [0, 1, 2, 4, 8, 16, 32, 48, 52, 54, 55,
                                     56, 64]
    np.testing.assert_allclose(
        [v for _, v in trace],
        [2.447399649947515, 2.4102265493309583, 2.385733481699507,
         2.310579386866578, 2.047222954683179, 1.355365387325714,
         0.37565464956963446, 0.06197625574216216, 0.020594108675602067,
         0.002883018647978932, 0.0, 0.0, 0.0], rtol=1e-12, atol=0.0)


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


def test_qp_iteration_limit_status(monkeypatch):
    # min ||x - 10||^2 over x <= 1 in 12 dimensions: one iteration per
    # bound, 12 in all, past a budget of 0 (m + n) + 10
    problem = QpProblem(np.eye(12), np.full(12, -10.0), np.eye(12),
                        np.ones(12))
    res = solve_qp(problem)
    assert res.status is Status.OPTIMAL and res.iterations == 12
    monkeypatch.setattr(fgmpc.solver, "_QP_ITERATIONS_PER_SIZE", 0)
    with pytest.raises(LimitError, match=r"^QP of 12 rows, 12 variables gave "
                       r"up at its cap of 10 \(_QP_ITERATIONS_PER_SIZE\)$"):
        solve_qp(problem)


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
        guesses = [
            cold.factors,
            None,
            factors_on(p, independent_rows(p, min(3, n), rng), rng),
        ]
        for warm in guesses:
            hot = solve_qp(p, warm_start=warm)
            assert hot.status is Status.OPTIMAL
            np.testing.assert_allclose(hot.x, cold.x, atol=1e-9)


def test_qp_warm_start_shortens_path():
    rng = np.random.default_rng(31)
    p = random_qp(rng, 6, 14)
    cold = solve_qp(p)
    hot = solve_qp(p, warm_start=cold.factors)
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
        # the factors of prev's set, in its path order, on each problem's
        # own J0
        order = [] if prev.factors is None else prev.factors.active_set
        assert_same_solve(solve_qp(derived), solve_qp(fresh))
        assert_same_solve(
            solve_qp(derived, warm_start=batch_factors(derived, order)),
            solve_qp(fresh, warm_start=batch_factors(fresh, order)))


def test_qp_with_linear_keeps_sizes():
    p = random_qp(np.random.default_rng(43), 3, 2)
    with pytest.raises(ValueError, match="sizes"):
        p.with_linear(np.zeros(4), p.b)
    with pytest.raises(ValueError, match="sizes"):
        p.with_linear(p.f, p.b[:-1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_qp_rejects_non_finite_data(bad):
    """A NaN or an infinity in A, f or b raises ValueError naming the
    array, at construction and in with_linear: a NaN bound was ignored
    (x = [2] returned as optimal), an infinite row raised IndexError."""
    H = 2.0 * np.eye(1)
    data = {"A": ([-4.0], [[bad]], [1.0]), "f": ([bad], [[1.0]], [1.0]),
            "b": ([-4.0], [[1.0]], [bad])}
    for name, (f, A, b) in data.items():
        with pytest.raises(ValueError, match="QP {} must be finite"
                           .format(name)):
            QpProblem(H, f, A, b)
    p = QpProblem(H, [-4.0], [[1.0]], [1.0])
    with pytest.raises(ValueError, match="QP f must be finite"):
        p.with_linear([bad], p.b)
    with pytest.raises(ValueError, match="QP b must be finite"):
        p.with_linear(p.f, [bad])


def test_qp_cached_factor_is_read_only_and_unchanged_by_solves():
    """The arrays a QpProblem keeps are read-only, unchanged by solves and
    shared, not copied, by every problem with_linear derives."""
    rng = np.random.default_rng(47)
    H_in = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
    p = QpProblem(H_in, rng.normal(size=3) * 5.0,
                  np.vstack([np.eye(3), -np.eye(3), rng.normal(size=(4, 3))]),
                  np.full(10, 0.2))
    assert H_in.flags.writeable  # the caller's array keeps its flags
    cached = (p.H, p.A, p.J, p.Hinv, p.norms, p.inv_norms, p.A_scaled)
    before = [arr.copy() for arr in cached]
    np.testing.assert_allclose(p.J @ p.J.T, np.linalg.inv(H_in), atol=1e-12)
    np.testing.assert_array_equal(p.Hinv, np.linalg.inv(H_in))
    first = solve_qp(p)
    assert first.status is Status.OPTIMAL and first.active_set
    assert_same_solve(solve_qp(p), first)
    for arr, snap in zip(cached, before):
        assert not arr.flags.writeable
        np.testing.assert_array_equal(arr, snap)
    np.testing.assert_array_equal(p.inv_norms, 1.0 / p.norms)
    # a chain of warm-started solves on derived problems: each holds the
    # base's arrays themselves and its own f and b, and the base's f and b
    # keep their bits
    f0, b0 = p.f.copy(), p.b.copy()
    factors = None
    for step in range(60):
        f = f0 + rng.normal(size=3)
        rhs = b0 + rng.uniform(0.0, 0.5, size=b0.size)
        derived = p.with_linear(f, rhs)
        assert all(a is b for a, b in zip(
            (derived.H, derived.A, derived.J, derived.Hinv, derived.norms,
             derived.inv_norms, derived.A_scaled), cached))
        np.testing.assert_array_equal(derived.f, f)
        np.testing.assert_array_equal(derived.b, rhs)
        st = solve_qp(derived, warm_start=factors)
        check_qp_kkt(derived, st)
        factors = st.factors
    np.testing.assert_array_equal(p.f, f0)
    np.testing.assert_array_equal(p.b, b0)


def test_qp_empty_final_set_returns_x0_and_allocates_no_square_array():
    """A solve whose unconstrained minimizer is feasible, cold or
    warm-started from factors whose rows all drop, ends on the empty set
    with factors None and x exactly -Hinv f. At n = 300 a cold one
    allocates no n x n array (720 kB)."""
    rng = np.random.default_rng(83)
    p = random_qp(rng, 4, 6)
    inside = p.with_linear(p.f, p.b + 100.0)
    x0 = -(p.Hinv @ p.f)
    prior = solve_qp(qp_optimal_on(p, [0, 5], rng))
    assert prior.factors is not None
    for warm in (None, prior.factors):
        st = solve_qp(inside, warm_start=warm)
        assert st.status is Status.OPTIMAL and st.active_set == []
        assert st.factors is None and st.iterations == 0
        np.testing.assert_array_equal(st.x, x0)
        assert not st.lam.any()
    n = 300
    big = QpProblem(np.eye(n), np.ones(n), np.vstack([np.eye(n), -np.eye(n)]),
                    np.full(2 * n, 2.0))
    tracemalloc.start()
    try:
        st = solve_qp(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st.active_set == [] and st.factors is None
    np.testing.assert_array_equal(st.x, -np.ones(n))
    assert peak < 8 * n * n // 4, peak


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


def check_qp_kkt_tight(p, res, tol=1e-9, scale=1.0):
    """Stationarity, primal and dual feasibility and complementarity of a
    QP solve, each to tol; stationarity and complementarity to tol * scale,
    for a problem whose gradient terms are of size scale."""
    assert res.status is Status.OPTIMAL
    assert np.max(np.abs(p.H @ res.x + p.f + p.A.T @ res.lam)) \
        <= tol * scale
    assert np.max(p.A @ res.x - p.b, initial=-np.inf) <= tol
    assert np.min(res.lam, initial=0.0) >= 0.0
    assert np.max(np.abs(res.lam * (p.A @ res.x - p.b)), initial=0.0) \
        <= tol * scale
    off = np.ones(p.b.size, dtype=bool)
    off[res.active_set] = False
    assert not res.lam[off].any()


def equality_multipliers(p, rows):
    """Multipliers of the QP with rows held at equality, from the dense
    KKT system (independent of the solver's factors)."""
    N = p.A[rows]
    q = len(rows)
    K = np.block([[p.H, N.T], [N, np.zeros((q, q))]])
    return np.linalg.solve(K, np.concatenate([-p.f, p.b[rows]]))[p.f.size:]


@pytest.mark.parametrize("seed", [51, 52])
def test_qp_hot_start_matches_cold_solve(seed):
    """Hot starts from the kept factors of exact, wrong, negative and
    empty warm sets end on the cold solve's active set, with x and lam
    equal to the cold solve's up to rounding, on random QPs where some
    rows are exact duplicates. A solve warm-started from its own factors
    repeats its bits in 0 iterations."""
    rng = np.random.default_rng(seed)
    kinds = collections.Counter()
    for trial in range(40):
        n = int(rng.integers(2, 7))
        base = random_qp(rng, n, int(rng.integers(2, 8)))
        dup = rng.choice(base.b.size, size=2, replace=False)
        p = QpProblem(base.H, base.f, np.vstack([base.A, base.A[dup]]),
                      np.concatenate([base.b, base.b[dup]]))
        cold = solve_qp(p)
        check_qp_kkt_tight(p, cold)
        act = cold.active_set
        assert act == sorted(act)
        # the copies tie with their rows and are never chosen by a cold
        # solve, so the warm sets below leave them out
        rows = [i for i in range(base.b.size) if i not in act]
        warms = {"exact": act, "empty": [],
                 "random": independent_rows(base, int(rng.integers(1, n + 1)),
                                            rng)}
        extra = sorted(act + rng.choice(rows, size=min(
            2, len(rows), n - len(act)), replace=False).tolist())
        if len(extra) > len(act) \
                and np.linalg.matrix_rank(p.A[extra]) == len(extra) \
                and np.min(equality_multipliers(p, extra)) < 0.0:
            warms["negative"] = extra
        for kind, warm in warms.items():
            hot = solve_qp(p, warm_start=factors_on(p, warm, rng))
            check_qp_kkt_tight(p, hot)
            assert hot.active_set == act, (trial, kind)
            assert_close(hot, cold)
            assert_repeats(p, hot)
            kinds[kind] += 1
        assert_repeats(p, cold)
        if act:
            assert solve_qp(p, warm_start=factors_on(p, act, rng)) \
                .iterations == 0
    # every kind of warm set was exercised
    assert min(kinds.values()) > 0 and len(kinds) == 4, kinds


@pytest.mark.parametrize("q", [1, 4, 7])
def test_drop_constraint_retriangularizes_at_every_k(q):
    """Dropping any column k of a reference factorization of q normals
    leaves a triangular R with its inverse, J J' = H^{-1} and J' N = R for
    the kept normals."""
    rng = np.random.default_rng(59 + q)
    n = 7
    M = rng.normal(size=(n, n))
    p = QpProblem(M @ M.T + np.eye(n), np.zeros(n),
                  rng.normal(size=(q, n)), np.ones(q))
    _, _, J0, R0, Rinv0 = batch_factors(p, list(range(q)))
    np.testing.assert_allclose(J0[:, :q].T @ p.A_scaled.T, R0[:q, :q],
                               atol=1e-12)
    for k in range(q):
        J, R, Rinv = J0.copy(), R0.copy(), Rinv0.copy()
        _drop_constraint(J, R, Rinv, q, k)
        kept = np.delete(p.A_scaled, k, axis=0)
        assert not np.tril(R[:q - 1, :q - 1], -1).any()
        assert not R[q - 1:].any() and not R[:, q - 1:].any()
        np.testing.assert_allclose(Rinv[:q - 1, :q - 1] @ R[:q - 1, :q - 1],
                                   np.eye(q - 1), atol=1e-10)
        np.testing.assert_allclose(J @ J.T, J0 @ J0.T, atol=1e-12)
        np.testing.assert_allclose(J[:, :q - 1].T @ kept.T,
                                   R[:q - 1, :q - 1], atol=1e-12)
        # the freed column and the rest of J are orthogonal to kept normals
        np.testing.assert_allclose(J[:, q - 1:].T @ kept.T, 0.0, atol=1e-12)


def assert_bit_equal(hot, cold):
    """Same sorted active set, and bit-equal x, lam and value."""
    assert hot.status is Status.OPTIMAL
    assert hot.active_set == cold.active_set
    np.testing.assert_array_equal(hot.x, cold.x)
    np.testing.assert_array_equal(hot.lam, cold.lam)
    assert hot.value == cold.value


def assert_close(hot, cold):
    """Same sorted active set, and x and lam within 1e-9 of cold's,
    relative to the largest entry of each (at least 1)."""
    assert hot.status is Status.OPTIMAL
    assert hot.active_set == cold.active_set
    for a, ref in ((hot.x, cold.x), (hot.lam, cold.lam)):
        scale = max(1.0, np.abs(ref).max(initial=0.0))
        assert np.abs(a - ref).max(initial=0.0) <= 1e-9 * scale, \
            (np.abs(a - ref).max(), scale)


def assert_repeats(p, st):
    """A solve of p warm-started from st's own factors returns st's bits
    (active set, x, lam and value) in 0 iterations."""
    again = solve_qp(p, warm_start=st.factors)
    assert_bit_equal(again, st)
    assert again.iterations == 0


def qp_optimal_on(p, rows, rng):
    """p.with_linear(f, b) whose unique minimizer has exactly rows active,
    with positive multipliers and slack on every other row (KKT by
    construction)."""
    x = rng.uniform(-0.5, 0.5, size=p.f.size)
    slack = rng.uniform(0.1, 1.0, size=p.b.size)
    slack[rows] = 0.0
    lam = rng.uniform(0.5, 2.0, size=len(rows))
    return p.with_linear(-p.H @ x - p.A[rows].T @ lam, p.A @ x + slack)


def factors_on(p, rows, rng):
    """The kept factors of a solve that ends on exactly rows (None for no
    rows), built on p's J0: a warm start for p from that set."""
    prior = solve_qp(qp_optimal_on(p, rows, rng))
    assert prior.active_set == sorted(rows)
    return prior.factors


def independent_rows(p, size, rng):
    """size random rows of p with linearly independent normals, sorted."""
    while True:
        rows = sorted(rng.choice(p.b.size, size=size, replace=False).tolist())
        if np.linalg.matrix_rank(p.A[rows]) == size:
            return rows


def batch_factors(p, rows):
    """Reference factors of rows, in that order, on p's J0, built outside
    any solve: Q and R from one np.linalg.qr of J0' N give J = J0 Q, and
    Rinv is np.linalg.inv of R's leading triangle. None for no rows."""
    if not len(rows):
        return None
    n, q = p.f.size, len(rows)
    Q, R_q = np.linalg.qr(p.J.T @ p.A_scaled[list(rows)].T, mode="complete")
    R, Rinv = np.zeros((n, n)), np.zeros((n, n))
    R[:, :q] = R_q
    Rinv[:q, :q] = np.triu(np.linalg.inv(R_q[:q]))
    J = p.J @ Q
    for arr in (J, R, Rinv):
        arr.setflags(write=False)
    return QpFactors(p.J, tuple(rows), J, R, Rinv)


@pytest.mark.parametrize("seed", [61, 62])
def test_qp_negative_warm_multipliers_dropped_in_place(seed):
    """Warm sets whose equality solve has negative multipliers lose those
    indices by the drop path, from the kept factors of that set or from
    reference factors of it built outside the solve, in the kept ones'
    column order. Either way the solve ends on the cold solve's sorted
    active set with x and lam equal to the cold ones up to rounding, in
    the same iterations, and its own factors repeat its bits."""
    rng = np.random.default_rng(seed)
    checked = 0
    for trial in range(60):
        n = int(rng.integers(3, 7))
        p = random_qp(rng, n, int(rng.integers(2, 8)))
        warm = sorted(rng.choice(p.b.size, size=int(rng.integers(2, n + 1)),
                                 replace=False).tolist())
        if np.linalg.matrix_rank(p.A[warm]) < len(warm) \
                or np.min(equality_multipliers(p, warm)) > -1e-6:
            continue
        prior = solve_qp(qp_optimal_on(p, warm, rng))
        assert prior.active_set == warm
        cold = solve_qp(p)
        batch = batch_factors(p, prior.factors.active_set)
        # R and its inverse are unique up to the signs of their rows
        for arr, same in zip(prior.factors[3:], batch[3:]):
            np.testing.assert_allclose(np.abs(arr), np.abs(same), atol=1e-9)
        from_batch = solve_qp(p, warm_start=batch)
        kept = solve_qp(p, warm_start=prior.factors)
        assert_close(from_batch, cold)
        assert_close(kept, cold)
        assert kept.iterations == from_batch.iterations
        assert_repeats(p, kept)
        checked += 1
    assert checked >= 20, checked


def test_qp_foreign_factors_give_a_cold_start():
    """Factors built on another J0 are not used: those of another QpProblem
    of the same shape (another H), even on the cold solve's own set, and
    those of a twin QpProblem(p.H, p.f, p.A, p.b) give the cold start, as
    None does. Each solve is bit-equal to the cold one, with its
    iterations, and the passed arrays stay read-only and unchanged."""
    rng = np.random.default_rng(67)
    checked = 0
    for trial in range(30):
        n = int(rng.integers(2, 6))
        p = random_qp(rng, n, int(rng.integers(2, 6)))
        cold = solve_qp(p)
        if not cold.active_set:
            continue
        other = random_qp(rng, n, p.b.size - 2 * n)
        foreign = solve_qp(other)
        same_set = solve_qp(qp_optimal_on(other, cold.active_set, rng))
        assert same_set.active_set == cold.active_set
        # a fresh problem on the same H and A has its own J0
        twin = QpProblem(p.H, p.f, p.A, p.b)
        twin_cold = solve_qp(twin)
        assert twin_cold.active_set == cold.active_set
        for factors in (foreign.factors, same_set.factors, twin_cold.factors,
                        None):
            before = [] if factors is None else \
                [arr.copy() for arr in factors[2:]]
            hot = solve_qp(p, warm_start=factors)
            assert_bit_equal(hot, cold)
            assert hot.iterations == cold.iterations
            for arr, snap in zip([] if factors is None else factors[2:],
                                 before):
                assert not arr.flags.writeable
                np.testing.assert_array_equal(arr, snap)
        checked += 1
    assert checked >= 10, checked


def test_qp_kept_factors_are_never_written():
    """A record's factors, passed into later solves that drop and add
    constraints, keep their bits; they are read-only arrays. A solve that
    changed no index returns factors equal to those it was given."""
    rng = np.random.default_rng(71)
    p = random_qp(rng, 6, 10)
    record = solve_qp(qp_optimal_on(p, [0, 7, 12], rng))
    paths = collections.Counter()
    for step in range(40):
        factors = record.factors
        before = [arr.copy() for arr in factors[2:]]
        b = p.b + rng.uniform(-0.3, 0.3, size=p.b.size)
        st = solve_qp(p.with_linear(p.f + rng.normal(size=6), b),
                      warm_start=factors)
        assert st.status is Status.OPTIMAL
        for arr, snap in zip(factors[2:], before):
            assert not arr.flags.writeable
            np.testing.assert_array_equal(arr, snap)
        if st.iterations == 0 and st.active_set == record.active_set:
            paths["unchanged"] += 1
            for arr, snap in zip(st.factors[2:], before):
                np.testing.assert_array_equal(arr, snap)
        else:
            paths["changed"] += 1
        if st.active_set:
            record = st
    assert paths["unchanged"] and paths["changed"] >= 10, paths


def test_qp_adding_rows_only_runs_no_qr(monkeypatch):
    """A cold solve whose iterations only add rows (one per iteration,
    ending on q = 3 active rows) makes no np.linalg.qr call: it ends on
    the factors its add path built, and those repeat its bits."""
    calls = []
    real = np.linalg.qr

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    H = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
    # the unconstrained minimizer (1, 2, 3) violates all three rows
    p = QpProblem(H, -H @ np.array([1.0, 2.0, 3.0]),
                  np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0],
                            [0.0, 1.0, 1.0], [-1.0, -1.0, -1.0]]),
                  np.array([0.5, 1.0, 1.5, 10.0]))
    st = solve_qp(p)
    assert st.active_set == [0, 1, 2]
    assert st.iterations == 3
    assert (st.lam[:3] > 0.0).all()
    assert calls == []
    assert_repeats(p, st)
    assert calls == []
