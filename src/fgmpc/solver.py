"""Dense linear and strictly convex quadratic programming.

Two solvers live here: a two-phase primal simplex for linear programs in
inequality form (maximize c'x subject to A x <= b, x free), and a dual
active-set method for strictly convex quadratic programs (minimize
0.5 x'H x + f'x subject to A x <= b). Both are self-contained on top of
numpy and are re-entrant: every solve owns its workspace.

The LP entry points share one simplex engine on a short tableau:
one row per constraint plus the objective row, and one column per
nonbasic variable (n free x, the auxiliary t) plus the right-hand side,
so a tall LP (m >> n) never carries an m x m slack block. Phase 1 of
every LP is the worst-violation problem min t s.t. A x - t <= b, t >= 0;
min_violation is that problem on its own. SupportLp is the one driver
of phase 2: it runs phase 1 once per constraint set, and prices each
objective into the tableau the previous one left, so it starts from
that basis. solve_lp and support_value are one call on a fresh
SupportLp each; solve_lp reads its duals off the final tableau, and
support_value may stop early at a threshold.
"""

import collections
import enum

import numpy as np

# Global numerical tolerance shared with the polytope module.
TOL = 1e-8


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LimitError(RuntimeError):
    """A loop of the solvers or of the set algorithms hit its fixed
    give-up limit: what it was solving, the name of the module constant
    that sets the limit, and cap, the number of pivots, iterations, steps,
    layers or facets that constant allowed here. It is raised where the
    limit is hit, since a result cut off there proves nothing."""

    def __init__(self, what, limit, cap):
        self.limit = limit
        self.cap = cap
        super().__init__("{} gave up at its cap of {} ({})".format(
            what, cap, limit))


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
        Indices of constraints active at the optimizer, in increasing
        order.
    lam : numpy.ndarray or None
        Inequality multipliers (length m, zero off the active set). For LPs
        these are the duals of the maximization problem, so b'lam == value
        at optimality.
    iterations : int
        Simplex pivots or QP iterations. An LP's count includes the pivots
        of phase 1 on the call that ran it (a SupportLp's first call).
    factors : QpFactors or None
        QP only: the factors of the final active set, for the next solve's
        warm_start, with that set in path order; None when it is empty or
        the QP is infeasible.
    """

    def __init__(self, status, x=None, value=None, active_set=None, lam=None,
                 iterations=0, factors=None):
        self.status = status
        self.x = x
        self.value = value
        self.active_set = [] if active_set is None else list(active_set)
        self.lam = lam
        self.iterations = iterations
        self.factors = factors

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
    if not np.all(np.isfinite(M)):
        raise ValueError("{} must be finite".format(name))
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
    needs of them: J = inv(L)' for the Cholesky factor L of H, the inverse
    Hinv of H (the unconstrained minimizer is -Hinv f), and the row data
    of A: the norms ||a_i|| (1 for a zero row), their reciprocals
    inv_norms and the rows A_scaled they scale. These arrays are read-only
    and shared by every problem that with_linear derives, so a loop that
    only changes f and b never factorizes H or rescales A again.
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
        _check_finite(("A", A), ("f", self.f), ("b", self.b))
        # read-only views, so the caller's arrays keep their flags
        self.H, self.A = H.view(), A.view()
        self.J = np.linalg.inv(L).T  # J J' = H^{-1}
        # inv(H), not J J': it is exact for H = c I with c a power of two
        self.Hinv = np.linalg.inv(H)
        self.norms = np.linalg.norm(A, axis=1)
        self.norms[self.norms < 1e-300] = 1.0
        self.inv_norms = 1.0 / self.norms
        self.A_scaled = A / self.norms[:, None]
        for arr in (self.H, self.A, self.J, self.Hinv, self.norms,
                    self.inv_norms, self.A_scaled):
            arr.setflags(write=False)

    def with_linear(self, f, b):
        """The same problem with linear term f and right-hand side b,
        sharing the validated H and A data; only the sizes and finiteness
        of f and b are checked."""
        f = np.asarray(f, dtype=float).ravel()
        b = np.asarray(b, dtype=float).ravel()
        if (f.size, b.size) != (self.f.size, self.b.size):
            raise ValueError("f and b must keep their sizes {} and {}"
                             .format(self.f.size, self.b.size))
        _check_finite(("f", f), ("b", b))
        problem = object.__new__(type(self))
        problem.__dict__.update(self.__dict__)
        problem.f, problem.b = f, b
        return problem


def _check_finite(*named):
    """Raise ValueError naming the first (name, array) pair that holds a
    NaN or an infinity: the solvers would read past such a row in silence
    or fail deep inside an update."""
    for name, arr in named:
        if not np.isfinite(arr).all():
            raise ValueError("QP {} must be finite".format(name))


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
# exchange is a rank-1 update of the (m + 1) x (n + 2) tableau: every row
# loses a multiple of the normalized pivot row, so columns where that row
# is zero do not change. Most pivot rows of the horizon LPs of n_star
# (about 6h rows by h + 2 columns) are a few percent nonzero; on a tableau
# of at least _SPARSE_MIN_COLS columns whose pivot row is at most
# one-eighth nonzero the update runs over those columns one by one, with
# the values the dense update gives. Narrower tableaux (the projection
# and hull LPs) keep the one dense update: with about 6 rows per column
# and a pivot row one-eighth nonzero, the two tie at 16 columns and the
# column loop wins from 24, so the cutoff of 32 leaves a margin.
# Entering column: Dantzig rule, switching to Bland's rule after a streak
# of degenerate pivots so cycling terminates. Both take the first of tied
# candidates in the order x_j upwards (by j), x_j downwards, t, slacks.
# The leaving row is the one with the smallest basis label among tied
# ratios.

_DEGENERATE_STREAK = 12
_LP_PIVOTS_PER_SIZE = 50  # an LP of m rows, n variables: 50 (m + n) pivots
_SPARSE_MIN_COLS = 32


def _pivot(T, basis, nonbasic, row, col):
    """Exchange the basic variable of row with the nonbasic one of col."""
    piv = T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    prow = T[row]
    prow /= piv
    if prow.size >= _SPARSE_MIN_COLS \
            and 8 * np.count_nonzero(prow) <= prow.size:
        for j in prow.nonzero()[0].tolist():
            T[:, j] -= colvals * prow[j]
    else:
        T -= colvals[:, None] * prow
    np.multiply(colvals, -1.0 / piv, out=T[:, col])
    T[row, col] = 1.0 / piv
    basis[row], nonbasic[col] = nonbasic[col], basis[row]


def _iterate(T, basis, nonbasic, pivots_done, value_cap=None):
    """Run simplex exchanges on the short tableau T (minimization,
    objective in the last row).

    Returns (outcome, pivots) with outcome one of "optimal", "unbounded",
    "cap". The current objective value is -T[-1, -1]. value_cap, when
    given, stops early once the phase objective drops below it (used for
    feasibility checks and bound tests). Raises LimitError at
    _LP_PIVOTS_PER_SIZE (m + n) pivots.
    """
    m, n = T.shape[0] - 1, T.shape[1] - 2
    max_pivots = _LP_PIVOTS_PER_SIZE * (m + n)  # pivots_done included
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
            raise LimitError("LP of {} rows, {} variables".format(m, n),
                             "_LP_PIVOTS_PER_SIZE", max_pivots)


def _phase_one(A, b, value_cap=None):
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
    outcome, pivots = _iterate(T, basis, nonbasic, 1, value_cap)
    return outcome, T, basis, nonbasic, pivots


def _extract(T, basis, n):
    """The point (x, t) of the current basis; nonbasic variables are 0."""
    xt = np.zeros(n + 1)
    rows = (basis <= n).nonzero()[0]
    xt[basis[rows]] = T[rows, -1]
    return xt[:n], float(xt[n])


def _retire_t(T, basis, nonbasic, n):
    """End phase 1 on the short tableau T: take t out of the basis and
    zero its column, so phase 2 never moves it.

    Returns the pivots made (0 or 1), or None when phase 1 left t > TOL
    (the set is empty).
    """
    t_col = (nonbasic == n).nonzero()[0]
    pivots = 0
    if t_col.size == 0:
        i = int((basis == n).nonzero()[0][0])
        if T[i, -1] > TOL:
            return None
        # a t still basic (at most TOL) leaves on a real column
        cand = (np.abs(T[i, :-1]) > TOL).nonzero()[0]
        if cand.size:
            t_col = int(cand[nonbasic[cand].argmin()])
            _pivot(T, basis, nonbasic, i, t_col)
            pivots = 1
    T[:, t_col] = 0.0
    return pivots


def _set_objective(T, basis, nonbasic, a):
    """Write the phase-2 objective min -a'x into the last row of T, priced
    out against the current basis (costs by label: -a on x, 0 on t and
    the slacks)."""
    n = a.size
    cost = np.zeros(T.shape[0] + n)
    cost[:n] = -a
    cost_b = cost[basis]
    T[-1, :-1] = cost[nonbasic] - cost_b @ T[:-1, :-1]
    T[-1, -1] = -(cost_b @ T[:-1, -1])


def _optimum(T, basis, nonbasic, c, A, b, pivots):
    """The OPTIMAL SolveStatus of an optimal phase-2 tableau. The duals
    are read off the reduced costs of the nonbasic slacks (a basic slack
    has dual 0)."""
    m, n = A.shape
    x, _ = _extract(T, basis, n)
    lam = np.zeros(m)
    slack_cols = (nonbasic > n).nonzero()[0]
    lam[nonbasic[slack_cols] - (n + 1)] = T[-1, slack_cols]
    lam[np.abs(lam) < TOL] = 0.0
    active = [int(i) for i in np.nonzero(np.abs(A @ x - b) <= 1e-7)[0]]
    return SolveStatus(Status.OPTIMAL, x=x, value=float(c @ x),
                       active_set=active, lam=lam, iterations=pivots)


def solve_lp(problem):
    """Two-phase primal simplex for ``maximize c'x s.t. A x <= b``.

    One call on a fresh SupportLp (the short tableau, x free), returning
    its SolveStatus. Phase 1 is the problem of min_violation; its pivots
    count toward iterations and the budget of _LP_PIVOTS_PER_SIZE (m + n).
    On OPTIMAL the duals satisfy A'lam = c, lam >= 0 and b'lam = value.
    """
    return SupportLp(problem.A, problem.b).maximize(problem.c)


class SupportLp:
    """LPs ``maximize c'x s.t. A x <= b`` over one fixed constraint set,
    for a sequence of objectives c: the one phase-2 driver of the LP
    engine.

    Phase 1 runs once, here. When it finds the set empty, every call
    returns INFEASIBLE. Otherwise each call prices its objective into the
    tableau the previous call left, which is primal feasible whatever
    that call's outcome, and goes on pivoting from its basis, so that
    close successive directions cost few pivots. The pivots of phase 1,
    and the one that retires t, count toward the first call, in its
    iterations and in its budget of _LP_PIVOTS_PER_SIZE (m + n) pivots
    per call, so a fresh SupportLp pivots as one cold solve does. Results
    and duals are those of solve_lp.
    """

    def __init__(self, A, b):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.b = np.asarray(b, dtype=float).ravel()
        n = self.A.shape[1]
        _, self._T, self._basis, self._nonbasic, self._pending = \
            _phase_one(self.A, self.b)
        self._failed = None  # the status of a failed phase 1
        retired = _retire_t(self._T, self._basis, self._nonbasic, n)
        if retired is None:
            self._failed = Status.INFEASIBLE
        else:
            self._pending += retired

    def _run(self, c, value_cap=None):
        """Phase 2 for min -c'x from the current basis, stopping early
        once the objective provably exceeds -value_cap (an outcome of
        _iterate). Returns (outcome, pivots), the pivots of phase 1
        included on the first call."""
        pivots, self._pending = self._pending, 0
        if self._failed is not None:
            return self._failed.value, pivots
        _set_objective(self._T, self._basis, self._nonbasic, c)
        return _iterate(self._T, self._basis, self._nonbasic, pivots,
                        value_cap)

    def maximize(self, c):
        """A SolveStatus for maximize c'x, warm started."""
        c = np.asarray(c, dtype=float).ravel()
        outcome, pivots = self._run(c)
        if outcome != "optimal":
            return SolveStatus(Status(outcome), iterations=pivots)
        return _optimum(self._T, self._basis, self._nonbasic, c, self.A,
                        self.b, pivots)


def support_value(a, A, b, stop_above=None):
    """Maximize a'x over {x : A x <= b}, stopping early once the objective
    provably exceeds ``stop_above``.

    Returns (outcome, value, x) with outcome "optimal", "above" (early
    stop), "infeasible" or "unbounded". Membership and redundancy tests
    only need the comparison against a threshold, so the early exit saves
    most of the pivots on irredundant rows. One fresh SupportLp solves
    it, within _LP_PIVOTS_PER_SIZE (m + n) pivots.
    """
    a = np.asarray(a, dtype=float).ravel()
    lp = SupportLp(A, b)
    cap = -stop_above if stop_above is not None else None
    outcome, _ = lp._run(a, value_cap=cap)
    if outcome not in ("optimal", "cap"):
        return outcome, None, None
    x, _ = _extract(lp._T, lp._basis, lp.A.shape[1])
    return ("above" if outcome == "cap" else "optimal"), float(a @ x), x


def min_violation(A, b, x0=None):
    """Minimize the worst constraint violation t >= 0 over
    {(x, t) : A x - t <= b}, x free.

    This is the feasibility LP used for emptiness and OCP feasibility
    queries, and phase 1 of every other LP here: the polyhedron {A x <= b}
    is non-empty iff the optimum satisfies t* <= tol. Its short tableau
    holds (m + 1) x (n + 2) entries, so a tall LP (m >> n) costs no
    m x m block. ``x0`` shifts the origin of the search, which warm starts
    scans over families of related problems.

    Returns (t_star, x, outcome); outcome "feasible" means the search was
    stopped early because t dropped below TOL, in which case t_star is an
    upper bound on the true minimum. Past _LP_PIVOTS_PER_SIZE (m + n)
    pivots it raises LimitError.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    n = A.shape[1]
    shift = np.zeros(n)
    if x0 is not None:
        shift = np.asarray(x0, dtype=float).ravel()
        b = b - A @ shift
    if (b >= -TOL).all():
        return 0.0, shift.copy(), "feasible"
    outcome, T, basis, _, _ = _phase_one(A, b, value_cap=TOL)
    x, t = _extract(T, basis, n)
    return t, x + shift, ("feasible" if outcome == "cap" else "optimal")


# ---------------------------------------------------------------------------
# Dual active-set QP
# ---------------------------------------------------------------------------

_QP_ITERATIONS_PER_SIZE = 50  # a QP gives up past 50 (m + n) + 10 iterations

# The factors of a solve's final active set: J = J0 Q, R and the inverse
# Rinv of R's leading block, with the set in path order (the order in which
# the solve's adds and drops left R's columns) and the problem's J0 they
# were built on. The arrays are read-only; a solve that takes them back
# updates a copy once it changes the set, and returns them unchanged when
# it does not.
QpFactors = collections.namedtuple("QpFactors",
                                   ["J0", "active_set", "J", "R", "Rinv"])


def _invert_column(R, Rinv, q):
    """Extend Rinv, the inverse of the upper triangle R[:q, :q], to the
    inverse of R[:q + 1, :q + 1] (one back-substitution column)."""
    if q:
        Rinv[:q, q] = -(Rinv[:q, :q] @ R[:q, q]) / R[q, q]
    Rinv[q, q] = 1.0 / R[q, q]


def _add_constraint(J, R, Rinv, d, q):
    """Append the projected normal d as column q of R, rotating J along.

    One Householder reflection on components q..n-1 collapses the tail of
    d onto position q; applying the same reflection to the trailing
    columns of J keeps J J' = H^{-1} intact (a rank-one BLAS update, much
    cheaper than a cascade of Givens rotations). Rinv gains column q.
    """
    sub = d[q:]
    tail = np.linalg.norm(sub[1:])
    if tail > 1e-300:
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
    _invert_column(R, Rinv, q)


def _drop_constraint(J, R, Rinv, q, k):
    """Remove column k from the active-set factor R, re-triangularizing.

    Shifting the later columns left leaves the block R[k:q, k:q-1] upper
    Hessenberg. One QR of that block, Q_b' B = R_b, restores the triangle,
    and the same orthogonal Q_b applied to J[:, k:q] keeps J J' = H^{-1}
    and J[:, :q-1]' N = R for the kept normals N. Rinv follows: deleting
    row k of the old inverse gives a left inverse of the shortened R, and
    multiplying its columns k..q-1 by Q_b turns that into the inverse of
    the new R.
    """
    R[:, k:q - 1] = R[:, k + 1:q]
    R[:, q - 1] = 0.0
    Rinv[k:q - 1, :q] = Rinv[k + 1:q, :q]
    Rinv[q - 1, :q] = 0.0
    if k < q - 1:
        Qb, R[k:q, k:q - 1] = np.linalg.qr(R[k:q, k:q - 1], mode="complete")
        J[:, k:q] = J[:, k:q] @ Qb
        Rinv[:q - 1, k:q] = Rinv[:q - 1, k:q] @ Qb
    Rinv[:, q - 1] = 0.0


def _equality_solve(J, Rinv, x0, normals, rhs):
    """Minimizer and multipliers of the QP with the working set held at
    equality (normals x = rhs), from its factor J and the inverse Rinv of
    R's leading block. With x0 the unconstrained minimizer,
    lam = (R'R)^{-1} (N x0 - rhs) and x = x0 - J[:, :q] R^{-T} (N x0 - rhs).
    """
    q = normals.shape[0]
    w = Rinv[:q, :q].T @ (normals @ x0 - rhs)
    return x0 - J[:, :q] @ w, Rinv[:q, :q] @ w


def solve_qp(problem, warm_start=None):
    """Dual active-set method for strictly convex QPs (Goldfarb-Idnani).

    The method moves between dual-feasible pairs: x minimizes the
    objective with the active constraints held at equality, and their
    multipliers are nonnegative. Violated constraints are added one at a
    time, with dual steps (dropping blocking constraints) whenever a full
    primal step is blocked, until x is feasible. The cold start is the
    unconstrained minimizer x0 = -Hinv f. Hinv and the factor J = inv(L)'
    of H come from the problem, computed once at its construction, so no
    solve factorizes or solves with H. Each solve works on a rotated copy
    J = J0 Q, with R the triangular factor of J0' N for the active
    normals N. An added constraint is folded into J and R by one
    Householder reflection, a dropped one by one QR of the Hessenberg
    block it leaves.

    warm_start, when given, is the QpFactors a previous solve returned
    (SolveStatus.factors), typically the previous control step's. When
    they were built on this problem's own J0 array (an identity test:
    every with_linear problem shares it, and with it the row data), the
    solve hot-starts from their active set: it solves the QP with that
    set held at equality and, while a multiplier is negative, drops the
    most negative one (the first NaN, when there is one, counts as most
    negative) by the drop path and solves again. The iterations go on
    from that pair. Factors built on another J0, or None, give the cold
    start at the unconstrained minimum. The solve never writes to the
    factors it is given: it copies them at its first drop or add, and a
    solve that changes no index returns them as they came.

    Only what the result needs is formed. The row data (norms,
    inv_norms, A_scaled) is the problem's. Each test for violated rows
    ranks only the violated ones, by their violation over ||a_i||, and
    b_i / ||a_i|| is formed only for the active rows and the row being
    added. J, R and Rinv are allocated at the first add of a solve that
    starts with no active set, so a solve that ends on an empty set
    allocates no n x n array and returns factors None.

    The solve ends on the factors its own adds and drops built and
    refactorizes nothing. When iterations moved x, x and lam are
    recomputed by one equality solve on those factors; an empty final
    set returns exactly x0. A warm and a cold solve that end on the same
    active set agree up to rounding, not bit for bit, but the same calls
    give the same bits, and a solve warm-started from its own returned
    factors repeats them in 0 iterations. active_set is returned sorted.
    Past _QP_ITERATIONS_PER_SIZE (m + n) + 10 iterations it raises
    LimitError.
    """
    H, f, A, b = problem.H, problem.f, problem.A, problem.b
    m, n = A.shape
    max_iterations = _QP_ITERATIONS_PER_SIZE * (m + n) + 10

    # a product with the kept inverse, not an LU of the fixed H per solve
    x0 = -(problem.Hinv @ f)
    norms, As = problem.norms, problem.A_scaled

    # kept: the read-only factors of the current set, until the solve
    # changes the set and takes working copies of them
    kept, active = None, []
    if warm_start is not None and warm_start.J0 is problem.J:
        kept, active = warm_start, list(warm_start.active_set)
        J, R, Rinv = kept.J, kept.R, kept.Rinv
    while active:
        x, lam = _equality_solve(J, Rinv, x0, As[active],
                                 b[active] / norms[active])
        k = np.argmin(lam)  # the first NaN, when there is one
        if lam[k] >= 0.0:
            break
        if kept is not None:
            J, R, Rinv, kept = J.copy(), R.copy(), Rinv.copy(), None
        _drop_constraint(J, R, Rinv, len(active), k)
        del active[k]
    if not active:
        # no factors yet: the first add builds them from a copy of J0
        x, lam, J, kept = x0, np.zeros(0), None, None

    iters = 0
    while True:
        # violations are tested on the raw rows (that is the tolerance the
        # caller sees) but ranked on the normalized ones for scale freedom
        s_raw = A @ x - b
        if active:
            s_raw[active] = 0.0
        viol = s_raw > TOL
        if not np.any(viol):
            break
        cand = np.nonzero(viol)[0]
        p = int(cand[np.argmax(s_raw[cand] * problem.inv_norms[cand])])
        if J is None:
            J = problem.J.copy()  # rotated in place by the updates below
            R = np.zeros((n, n))
            Rinv = np.zeros((n, n))  # inverse of the active R block
        elif kept is not None:
            J, R, Rinv, kept = J.copy(), R.copy(), Rinv.copy(), None
        npl = As[p]
        bp = b[p] / norms[p]
        u = 0.0  # multiplier of the incoming constraint
        while True:
            iters += 1
            if iters > max_iterations:
                raise LimitError("QP of {} rows, {} variables".format(m, n),
                                 "_QP_ITERATIONS_PER_SIZE", max_iterations)
            q = len(active)
            d = J.T @ npl
            z = J[:, q:] @ d[q:]
            znorm = np.linalg.norm(z)
            # partial (dual) step length: first active multiplier to hit zero
            t1 = np.inf
            k_block = -1
            if q:
                r = Rinv[:q, :q] @ d[:q]
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
                t2 = (npl @ x - bp) / (z @ npl)
                t = min(t1, t2)
                x_step = z
            if x_step is not None:
                x = x - t * x_step
            if q:
                lam = lam - t * r
            u = u + t
            if x_step is not None and t2 <= t1:
                # full step: constraint p becomes active
                _add_constraint(J, R, Rinv, d, q)
                active.append(p)
                lam = np.append(lam, u)
                break
            # blocked: drop the blocking constraint, stay on constraint p
            _drop_constraint(J, R, Rinv, q, k_block)
            active.pop(k_block)
            lam = np.delete(lam, k_block)

    if iters:
        # the iterate accumulated its steps' rounding: solve again on the
        # factors the iterations built
        x, lam = _equality_solve(J, Rinv, x0, As[active],
                                 b[active] / norms[active])
    lam_full = np.zeros(m)
    if active:
        lam_full[active] = lam / norms[active]
    val = 0.5 * x @ H @ x + f @ x
    if active and kept is None:
        for arr in (J, R, Rinv):
            arr.setflags(write=False)
        kept = QpFactors(problem.J, tuple(active), J, R, Rinv)
    return SolveStatus(Status.OPTIMAL, x=x, value=float(val),
                       active_set=sorted(active), lam=lam_full,
                       iterations=iters, factors=kept)
