"""Dense linear and strictly convex quadratic programming.

Two solvers live here: a two-phase primal simplex for linear programs in
inequality form (maximize c'x subject to A x <= b, x free), and a dual
active-set method for strictly convex quadratic programs (minimize
0.5 x'H x + f'x subject to A x <= b). Both are self-contained on top of
numpy and are re-entrant: every solve owns its workspace.

The three LP entry points share one simplex driver on a short tableau:
one row per constraint plus the objective row, and one column per
nonbasic variable (n free x, the auxiliary t) plus the right-hand side,
so a tall LP (m >> n) never carries an m x m slack block. Phase 1 of
every LP is the worst-violation problem min t s.t. A x - t <= b, t >= 0;
min_violation is that problem on its own, while solve_lp and
support_value go on to phase 2 from the basis it leaves. solve_lp reads
its duals off the final tableau.
"""

import copy
import enum

import numpy as np

# Global numerical tolerance shared with the polytope module.
TOL = 1e-8


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


class SolveStatus:
    """Outcome of an LP or QP solve.

    Attributes
    ----------
    status : Status
    x : numpy.ndarray or None
        Optimizer; present iff status is OPTIMAL.
    value : float or None
        Optimal objective value (max c'x for LPs, min 0.5x'Hx + f'x for QPs).
    active_set : list of int
        Indices of constraints active at the optimizer.
    lam : numpy.ndarray or None
        Inequality multipliers (length m, zero off the active set). For LPs
        these are the duals of the maximization problem, so b'lam == value
        at optimality.
    iterations : int
    """

    def __init__(self, status, x=None, value=None, active_set=None, lam=None,
                 iterations=0):
        self.status = status
        self.x = x
        self.value = value
        self.active_set = [] if active_set is None else list(active_set)
        self.lam = lam
        self.iterations = iterations

    @property
    def optimal(self):
        return self.status is Status.OPTIMAL

    def __repr__(self):
        return "SolveStatus({}, value={}, iterations={})".format(
            self.status.value, self.value, self.iterations)


class LpProblem:
    """maximize c'x subject to A x <= b (x free)."""

    def __init__(self, c, A, b):
        self.c = np.asarray(c, dtype=float).ravel()
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.b = np.asarray(b, dtype=float).ravel()
        if self.A.shape != (self.b.size, self.c.size):
            raise ValueError("inconsistent LP dimensions: A is {}, c has {}, "
                             "b has {}".format(self.A.shape, self.c.size,
                                               self.b.size))
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.b))
                and np.all(np.isfinite(self.c))):
            raise ValueError("LP data must be finite")


def check_weight(M, name, dim, semidefinite=False):
    """Validate a dim x dim weight: symmetric, and positive definite or,
    with semidefinite, positive semidefinite. Returns the float matrix and
    its lower Cholesky factor (None for a semidefinite weight)."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape != (dim, dim):
        raise ValueError("{} must be {}x{}, got {}x{}".format(
            name, dim, dim, M.shape[0], M.shape[1]))
    if np.max(np.abs(M - M.T), initial=0.0) > 1e-10:
        raise ValueError("{} must be symmetric".format(name))
    if semidefinite:
        if np.linalg.eigvalsh(M)[0] < -1e-10:
            raise ValueError("{} must be positive semidefinite".format(name))
        return M, None
    try:
        return M, np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise ValueError("{} must be positive definite".format(name))


class QpProblem:
    """minimize 0.5 x'H x + f'x subject to A x <= b, with H symmetric PD.

    H and A are validated once, here, together with what every solve
    needs of them: J = inv(L)' for the Cholesky factor L of H, and the row
    norms of A with the rows they scale. These arrays are read-only and
    shared by every problem that with_linear derives, so a loop that only
    changes f and b never factorizes H again.
    """

    def __init__(self, H, f, A, b):
        self.f = np.asarray(f, dtype=float).ravel()
        self.b = np.asarray(b, dtype=float).ravel()
        n = self.f.size
        H, L = check_weight(H, "H", n)
        A = np.atleast_2d(np.asarray(A, dtype=float))
        if A.shape[1] != n:
            raise ValueError("constraint matrix has {} columns, expected {}"
                             .format(A.shape[1], n))
        if A.shape[0] != self.b.size:
            raise ValueError("A has {} rows but b has {} entries"
                             .format(A.shape[0], self.b.size))
        # read-only views, so the caller's arrays keep their flags
        self.H, self.A = H.view(), A.view()
        self.J = np.linalg.inv(L).T  # J J' = H^{-1}
        self.norms = np.linalg.norm(A, axis=1)
        self.norms[self.norms < 1e-300] = 1.0
        self.A_scaled = A / self.norms[:, None]
        for arr in (self.H, self.A, self.J, self.norms, self.A_scaled):
            arr.setflags(write=False)

    def with_linear(self, f, b):
        """The same problem with linear term f and right-hand side b,
        sharing the validated H and A data; only the sizes are checked."""
        problem = copy.copy(self)
        problem.f = np.asarray(f, dtype=float).ravel()
        problem.b = np.asarray(b, dtype=float).ravel()
        if (problem.f.size, problem.b.size) != (self.f.size, self.b.size):
            raise ValueError("f and b must keep their sizes {} and {}"
                             .format(self.f.size, self.b.size))
        return problem


# ---------------------------------------------------------------------------
# Simplex engine
# ---------------------------------------------------------------------------
#
# Every LP runs on one short (condensed) tableau of the system
# A x - t + s = b, with x free (n), the auxiliary t >= 0 and one slack
# s_i >= 0 per row. It keeps one row per constraint plus the objective row,
# but only the n + 1 nonbasic columns and the right-hand side. Two label
# arrays name the variables: basis (one per row) and nonbasic (one per
# column), with labels x_j = j, t = n and s_i = n + 1 + i. Row i reads
# basis[i] = T[i, -1] - sum_j T[i, j] nonbasic[j]; the objective row holds
# the reduced costs and minus the objective value.
#
# The t column has -1 on every row. Phase 1 minimizes t over it: a single
# pivot of t on the most violated row gives a feasible basis, and
# {A x <= b} is non-empty iff the minimum is 0. Phase 2 retires t (zeroes
# its column) and optimizes the real objective from the basis phase 1
# left. A nonbasic x_j may enter in either direction, ranked by |d_j|; a
# basic x_j never leaves, so x passes through zero in one exchange. An
# exchange is a dense rank-1 update of the (m + 1) x (n + 2) tableau.
# Entering column: Dantzig rule, switching to Bland's rule after a streak
# of degenerate pivots so cycling terminates. Both take the first of tied
# candidates in the order x_j upwards (by j), x_j downwards, t, slacks.
# The leaving row is the one with the smallest basis label among tied
# ratios.

_DEGENERATE_STREAK = 12


def _pivot(T, basis, nonbasic, row, col):
    """Exchange the basic variable of row with the nonbasic one of col."""
    piv = T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T[row] /= piv
    T -= colvals[:, None] * T[row]
    np.multiply(colvals, -1.0 / piv, out=T[:, col])
    T[row, col] = 1.0 / piv
    basis[row], nonbasic[col] = nonbasic[col], basis[row]


def _iterate(T, basis, nonbasic, max_pivots, pivots_done, value_cap=None):
    """Run simplex exchanges on the short tableau T (minimization,
    objective in the last row).

    Returns (outcome, pivots) with outcome one of "optimal", "unbounded",
    "iteration_limit", "cap". The current objective value is -T[-1, -1].
    value_cap, when given, stops early once the phase objective drops below
    it (used for feasibility checks and bound tests).
    """
    m = T.shape[0] - 1
    n = T.shape[1] - 2
    free = nonbasic < n  # nonbasic x columns, which enter either way
    n_free = int(np.count_nonzero(free))
    bounded = basis >= n  # rows whose basic variable may leave
    red, rhs = T[-1, :-1], T[:m, -1]  # views, kept current by _pivot
    pivots = pivots_done
    degen = 0
    use_bland = False
    while True:
        if value_cap is not None and -T[-1, -1] < value_cap:
            return "cap", pivots
        score = np.where(free, -np.abs(red), red) if n_free else red
        if use_bland:
            cand = (score < -TOL).nonzero()[0]
            if cand.size == 0:
                return "optimal", pivots
        else:
            col = int(score.argmin())
            if score[col] >= -TOL:
                return "optimal", pivots
            cand = (score == score[col]).nonzero()[0]
        if cand.size > 1:
            # the first in the order x_j upwards, x_j downwards, t, slacks
            up = free[cand] & (red[cand] < 0.0)
            col = int(cand[(nonbasic[cand] + n * ~up).argmin()])
        else:
            col = int(cand[0])
        # the column of the entering variable in its improving direction
        colvals = T[:m, col] if red[col] < 0.0 else -T[:m, col]
        rows = ((colvals > TOL) & bounded).nonzero()[0]
        if rows.size == 0:
            return "unbounded", pivots
        ratios = rhs[rows] / colvals[rows]
        rmin = ratios.min()
        ties = rows[ratios <= rmin + TOL]
        # deterministic leaving choice: smallest basis label among ties
        row = int(ties[basis[ties].argmin()])
        if rmin <= TOL:
            degen += 1
            if degen >= _DEGENERATE_STREAK:
                use_bland = True
        else:
            degen = 0
            use_bland = False
        if free[col]:
            # x_j stays basic for good; the bounded variable leaving takes
            # its column
            free[col] = False
            n_free -= 1
            bounded[row] = False
        _pivot(T, basis, nonbasic, row, col)
        pivots += 1
        if pivots >= max_pivots:
            return "iteration_limit", pivots


def _phase_one(A, b, max_pivots, value_cap=None):
    """Build the short tableau of A x - t <= b and minimize t >= 0 over it.

    Returns (outcome, T, basis, nonbasic, pivots) with an outcome of
    _iterate. When b >= 0 the slack basis is already feasible and no pivot
    is made.
    """
    m, n = A.shape
    T = np.empty((m + 1, n + 2))
    T[:m, :n] = A
    T[:m, n] = -1.0
    T[:m, -1] = b
    T[-1] = 0.0
    basis = np.arange(n + 1, n + 1 + m)
    nonbasic = np.arange(n + 1)
    if (b >= 0.0).all():
        return "optimal", T, basis, nonbasic, 0
    # drive t into the basis on the most violated row: rhs becomes b - min(b)
    T[-1, n] = 1.0
    _pivot(T, basis, nonbasic, int(b.argmin()), n)
    outcome, pivots = _iterate(T, basis, nonbasic, max_pivots, 1, value_cap)
    return outcome, T, basis, nonbasic, pivots


def _extract(T, basis, n):
    """The point (x, t) of the current basis; nonbasic variables are 0."""
    xt = np.zeros(n + 1)
    rows = (basis <= n).nonzero()[0]
    xt[basis[rows]] = T[rows, -1]
    return xt[:n], float(xt[n])


def _maximize(a, A, b, max_pivots, value_cap=None):
    """Both phases for ``maximize a'x s.t. A x <= b``.

    Returns (outcome, T, basis, nonbasic, pivots): "infeasible" when phase
    1 leaves t > TOL, else an outcome of _iterate on the phase-2 tableau,
    whose objective is min -a'x.
    """
    n = A.shape[1]
    outcome, T, basis, nonbasic, pivots = _phase_one(A, b, max_pivots)
    if outcome == "iteration_limit":
        return outcome, T, basis, nonbasic, pivots
    t_col = (nonbasic == n).nonzero()[0]
    if t_col.size == 0:
        i = int((basis == n).nonzero()[0][0])
        if T[i, -1] > TOL:
            return "infeasible", T, basis, nonbasic, pivots
        # a t still basic (at most TOL) leaves on a real column
        cand = (np.abs(T[i, :-1]) > TOL).nonzero()[0]
        if cand.size:
            t_col = int(cand[nonbasic[cand].argmin()])
            _pivot(T, basis, nonbasic, i, t_col)
            pivots += 1
    # retire t's column, so phase 2 never moves it
    T[:, t_col] = 0.0
    # phase-2 costs by label: -a on x, 0 on t and the slacks
    cost = np.zeros(T.shape[0] + n)
    cost[:n] = -a
    cost_b = cost[basis]
    T[-1, :-1] = cost[nonbasic] - cost_b @ T[:-1, :-1]
    T[-1, -1] = -(cost_b @ T[:-1, -1])
    outcome, pivots = _iterate(T, basis, nonbasic, max_pivots, pivots,
                               value_cap)
    return outcome, T, basis, nonbasic, pivots


def solve_lp(problem, max_pivots=None):
    """Two-phase primal simplex for ``maximize c'x s.t. A x <= b``.

    Runs on the short tableau, with x free. Phase 1 is the auxiliary
    problem of min_violation. Returns a SolveStatus. On OPTIMAL the duals,
    read off the reduced costs of the nonbasic slacks (a basic slack has
    dual 0), satisfy A'lam = c, lam >= 0 and b'lam = value (strong
    duality).
    """
    c, A, b = problem.c, problem.A, problem.b
    m, n = A.shape
    if max_pivots is None:
        max_pivots = 50 * (m + n)
    outcome, T, basis, nonbasic, pivots = _maximize(c, A, b, max_pivots)
    if outcome != "optimal":
        return SolveStatus(Status(outcome), iterations=pivots)
    x, _ = _extract(T, basis, n)
    lam = np.zeros(m)
    slack_cols = (nonbasic > n).nonzero()[0]
    lam[nonbasic[slack_cols] - (n + 1)] = T[-1, slack_cols]
    lam[np.abs(lam) < TOL] = 0.0
    active = [int(i) for i in np.nonzero(np.abs(A @ x - b) <= 1e-7)[0]]
    return SolveStatus(Status.OPTIMAL, x=x, value=float(c @ x),
                       active_set=active, lam=lam, iterations=pivots)


def support_value(a, A, b, stop_above=None, max_pivots=None):
    """Maximize a'x over {x : A x <= b}, stopping early once the objective
    provably exceeds ``stop_above``.

    Returns (outcome, value, x) with outcome "optimal", "above" (early
    stop), "infeasible", "unbounded" or "iteration_limit". Membership and
    redundancy tests only need the comparison against a threshold, so the
    early exit saves most of the pivots on irredundant rows.
    """
    a = np.asarray(a, dtype=float).ravel()
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    m, n = A.shape
    if max_pivots is None:
        max_pivots = 50 * (m + n)
    cap = -stop_above if stop_above is not None else None
    outcome, T, basis, _, _ = _maximize(a, A, b, max_pivots, value_cap=cap)
    if outcome not in ("optimal", "cap"):
        return outcome, None, None
    x, _ = _extract(T, basis, n)
    return ("above" if outcome == "cap" else "optimal"), float(a @ x), x


def min_violation(A, b, x0=None, max_pivots=None):
    """Minimize the worst constraint violation t >= 0 over
    {(x, t) : A x - t <= b}, x free.

    This is the feasibility LP used for emptiness and OCP feasibility
    queries, and phase 1 of every other LP here: the polyhedron {A x <= b}
    is non-empty iff the optimum satisfies t* <= tol. Its short tableau
    holds (m + 1) x (n + 2) entries, so a tall LP (m >> n) costs no
    m x m block. ``x0`` shifts the origin of the search, which warm starts
    scans over families of related problems.

    Returns (t_star, x, outcome); outcome "feasible" means the search was
    stopped early because t dropped below tol, in which case t_star is an
    upper bound on the true minimum.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    m, n = A.shape
    if max_pivots is None:
        max_pivots = 50 * (m + n)
    shift = np.zeros(n)
    if x0 is not None:
        shift = np.asarray(x0, dtype=float).ravel()
        b = b - A @ shift
    if (b >= -TOL).all():
        return 0.0, shift.copy(), "feasible"
    outcome, T, basis, _, _ = _phase_one(A, b, max_pivots, value_cap=TOL)
    if outcome not in ("optimal", "cap"):
        return np.inf, None, outcome
    x, t = _extract(T, basis, n)
    return t, x + shift, ("feasible" if outcome == "cap" else "optimal")


# ---------------------------------------------------------------------------
# Dual active-set QP
# ---------------------------------------------------------------------------


def _add_constraint(J, R, d, q):
    """Append the projected normal d as column q of R, rotating J along.

    One Householder reflection on components q..n-1 collapses the tail of
    d onto position q; applying the same reflection to the trailing
    columns of J keeps J J' = H^{-1} intact (a rank-one BLAS update, much
    cheaper than a cascade of Givens rotations).
    """
    sub = d[q:]
    tail = np.linalg.norm(sub[1:])
    if tail <= 1e-300:
        R[:q + 1, q] = d[:q + 1]
        return
    alpha = -np.hypot(sub[0], tail) if sub[0] >= 0.0 else \
        np.hypot(sub[0], tail)
    w = sub.copy()
    w[0] -= alpha
    w /= np.linalg.norm(w)
    Jw = J[:, q:] @ w
    J[:, q:] -= 2.0 * np.outer(Jw, w)
    d[q] = alpha
    d[q + 1:] = 0.0
    R[:q + 1, q] = d[:q + 1]


def _drop_constraint(J, R, Rinv, q, k):
    """Remove column k from the active-set factor R, re-triangularizing.

    Rinv is maintained alongside: deleting row k of the old inverse gives
    a left inverse of the shortened R, and applying the transposed Givens
    rotations to its columns turns that into the inverse of the new R.
    """
    R[:, k:q - 1] = R[:, k + 1:q]
    R[:, q - 1] = 0.0
    Rinv[k:q - 1, :q] = Rinv[k + 1:q, :q]
    Rinv[q - 1, :q] = 0.0
    for j in range(k, q - 1):
        a, bb = R[j, j], R[j + 1, j]
        if abs(bb) > 1e-300:
            r = np.hypot(a, bb)
            cth, sth = a / r, bb / r
            row1 = R[j, j:q - 1] * cth + R[j + 1, j:q - 1] * sth
            row2 = -R[j, j:q - 1] * sth + R[j + 1, j:q - 1] * cth
            R[j, j:q - 1], R[j + 1, j:q - 1] = row1, row2
            R[j + 1, j] = 0.0
            col1 = J[:, j] * cth + J[:, j + 1] * sth
            col2 = -J[:, j] * sth + J[:, j + 1] * cth
            J[:, j], J[:, j + 1] = col1, col2
            icol1 = Rinv[:q - 1, j] * cth + Rinv[:q - 1, j + 1] * sth
            icol2 = -Rinv[:q - 1, j] * sth + Rinv[:q - 1, j + 1] * cth
            Rinv[:q - 1, j], Rinv[:q - 1, j + 1] = icol1, icol2


def solve_qp(problem, warm_start=None, max_iterations=None):
    """Dual active-set method for strictly convex QPs (Goldfarb-Idnani).

    Starts from the unconstrained minimum and adds violated constraints one
    at a time, taking dual steps (dropping blocking constraints) whenever a
    full primal step is blocked. The factor J = inv(L)' of H comes from
    the problem, computed once at its construction; each solve rotates a
    copy of it. An added constraint is folded into J and the triangular
    factor R of the active normals by one Householder reflection; Givens
    rotations re-triangularize R only when a constraint is dropped.

    warm_start, when given, is a sequence of constraint indices tried first
    when choosing the violated constraint to add; with few active-set
    changes between consecutive solves this keeps the path short. The
    minimizer is unique regardless (H is positive definite).
    """
    H, f, A, b = problem.H, problem.f, problem.A, problem.b
    n = f.size
    m = A.shape[0]
    if max_iterations is None:
        max_iterations = 50 * (m + n) + 10

    x = -np.linalg.solve(H, f)
    # row scaling makes the violation comparison scale-free
    norms, As = problem.norms, problem.A_scaled
    inv_norms = 1.0 / norms
    bs = b / norms

    J = problem.J.copy()  # rotated in place by the updates below
    R = np.zeros((n, n))
    Rinv = np.zeros((n, n))  # inverse of the active R block, kept in step
    active = []
    lam = np.zeros(0)
    warm = [int(i) for i in warm_start] if warm_start is not None else []
    warm_mask = np.zeros(m, dtype=bool)
    warm_mask[warm] = True

    iters = 0
    while True:
        # violations are tested on the raw rows (that is the tolerance the
        # caller sees) but ranked on the normalized ones for scale freedom
        s_raw = A @ x - b
        s = s_raw * inv_norms
        if active:
            s_raw[active] = 0.0
        viol = s_raw > TOL
        if not np.any(viol):
            lam_full = np.zeros(m)
            for k, idx in enumerate(active):
                lam_full[idx] = lam[k] / norms[idx]
            val = 0.5 * x @ H @ x + f @ x
            return SolveStatus(Status.OPTIMAL, x=x, value=float(val),
                               active_set=list(active), lam=lam_full,
                               iterations=iters)
        cand = np.nonzero(viol & warm_mask)[0]
        if cand.size == 0:
            cand = np.nonzero(viol)[0]
        p = int(cand[np.argmax(s[cand])])
        npl = As[p]
        u = 0.0  # multiplier of the incoming constraint
        while True:
            iters += 1
            if iters > max_iterations:
                return SolveStatus(Status.ITERATION_LIMIT, iterations=iters)
            q = len(active)
            d = J.T @ npl
            z = J[:, q:] @ d[q:]
            if q:
                r = Rinv[:q, :q] @ d[:q]
            else:
                r = np.zeros(0)
            znorm = np.linalg.norm(z)
            # partial (dual) step length: first active multiplier to hit zero
            t1 = np.inf
            k_block = -1
            if q:
                pos = r > TOL
                if np.any(pos):
                    ratios = np.where(pos, lam / np.where(pos, r, 1.0), np.inf)
                    k_block = int(np.argmin(ratios))
                    t1 = ratios[k_block]
            if znorm <= 1e-12:
                if not np.isfinite(t1):
                    # no curvature left and no blocking constraint to drop:
                    # the constraints are inconsistent
                    return SolveStatus(Status.INFEASIBLE, iterations=iters)
                t = t1
                x_step = None
            else:
                t2 = (As[p] @ x - bs[p]) / (z @ npl)
                t = min(t1, t2)
                x_step = z
            if x_step is not None:
                x = x - t * x_step
            if q:
                lam = lam - t * r
            u = u + t
            if x_step is not None and t == t2 and t <= t1:
                # full step: constraint p becomes active
                _add_constraint(J, R, d, q)
                if q:
                    Rinv[:q, q] = -(Rinv[:q, :q] @ R[:q, q]) / R[q, q]
                Rinv[q, q] = 1.0 / R[q, q]
                active.append(p)
                lam = np.append(lam, u)
                break
            # blocked: drop the blocking constraint, stay on constraint p
            _drop_constraint(J, R, Rinv, q, k_block)
            active.pop(k_block)
            lam = np.delete(lam, k_block)
