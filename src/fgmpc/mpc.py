"""Condensed linear tracking MPC.

The optimal control problem over the horizon N,

    min  ||xi_N - x_bar_v||_P^2 + sum_{i<N} ||xi_i - x_bar_v||_Q^2
                                          + ||mu_i - u_bar_v||_R^2
    s.t. xi_0 = x,  xi_{i+1} = A xi_i + B mu_i,
         C xi_i + D mu_i in Y  (i = 0..N-1),
         (xi_N, v) in T,

is condensed by eliminating the state sequence through the stacked
prediction map, leaving a strictly convex QP in the stacked input mu with
constraint rows M mu + L theta <= b over the parameter theta = (x, v).
The same data yields the feedback law (first input block of the
minimizer), the explicit feasible set (projection of the condensed
polytope onto theta), per-instance feasibility LPs, and the minimal
feasible horizon search.
"""

import numpy as np

from fgmpc.plant import equilibrium_basis
from fgmpc.polytope import DEFAULT_ROW_CAP, HPolyhedron
from fgmpc.solver import TOL, QpProblem, Status, check_weight, \
    min_violation, solve_qp


class OcpInfeasibleError(RuntimeError):
    """The optimal control problem has no solution at the queried (x, v)."""


class OcpDesign:
    """Horizon, weights, terminal ingredients, and the output constraint set.

    Q and P weight the state error, R the input error, K is the terminal
    LQR gain, T the terminal set over (x, v), and Y the output constraint
    polytope imposed along the horizon.
    """

    def __init__(self, N, Q, R, P, K, T, Y):
        self.N = int(N)
        if self.N < 1:
            raise ValueError("horizon N must be at least 1")
        n_x = T.n_x
        self.Q, _ = check_weight(Q, "Q", n_x, semidefinite=True)
        self.P, _ = check_weight(P, "P", n_x, semidefinite=True)
        self.K = np.atleast_2d(np.asarray(K, dtype=float))
        if self.K.shape[1] != n_x:
            raise ValueError("K must have {} columns".format(n_x))
        n_u = self.K.shape[0]
        self.R, _ = check_weight(R, "R", n_u)
        self.T = T
        self.Y = Y
        for M in (self.Q, self.R, self.P, self.K):
            M.setflags(write=False)


class CondensedQp:
    """Condensed OCP data: objective (H, W) and constraints (M, L, b).

    For theta = (x, v) the instance solved online is

        min 0.5 mu' H mu + (W theta)' mu   s.t.  M mu <= b - L theta,

    with H positive definite. problem is that QP at theta = 0, built once
    here; each control step derives its instance with problem.with_linear,
    so H is validated and factorized only at construction. Immutable;
    concurrent solves on the same object are safe because each solve owns
    its workspace.
    """

    def __init__(self, H, W, M, L, b, n_x, n_u, n_v, design):
        self.H = H
        self.W = W
        self.M = M
        self.L = L
        self.b = b
        self.n_x = n_x
        self.n_u = n_u
        self.n_v = n_v
        self.design = design
        for arr in (self.H, self.W, self.M, self.L, self.b):
            arr.setflags(write=False)
        self.problem = QpProblem(H, np.zeros(H.shape[0]), M, b)

    @property
    def N(self):
        return self.design.N


class FeasibleSet:
    """Explicit feasible set of the horizon-N problem over (x, v)."""

    def __init__(self, set_xv, N):
        self.set_xv = set_xv
        self.N = N

    @classmethod
    def from_terminal(cls, T):
        """Horizon-0 convention: with no moves left, feasibility is exactly
        terminal-set membership."""
        return cls(T.set_xv, 0)


def _prediction_maps(plant, N):
    """Powers A^i (i = 0..N) and impulse blocks A^k B (k = 0..N-1)."""
    n_x = plant.n_x
    Apow = np.empty((N + 1, n_x, n_x))
    Apow[0] = np.eye(n_x)
    for i in range(N):
        Apow[i + 1] = plant.A @ Apow[i]
    G = np.empty((N, n_x, plant.n_u))
    for k in range(N):
        G[k] = Apow[k] @ plant.B
    return Apow, G


def condense(plant, design, em=None):
    """Build the condensed QP for the given plant and design.

    The mu-independent additive part of the objective is dropped: it does
    not move the minimizer. Constraint rows are ordered output block
    i = 0..N-1 first, terminal block last, so the data is bit-reproducible.
    """
    if em is None:
        em = equilibrium_basis(plant)
    N = design.N
    n_x, n_u, n_v = plant.n_x, plant.n_u, em.n_v
    T, Y = design.T, design.Y
    if T.n_x != n_x:
        raise ValueError("terminal set is over a {}-dimensional state, the "
                         "plant has {}".format(T.n_x, n_x))
    if T.T_v.shape[1] != n_v:
        raise ValueError("terminal set reference dimension mismatch")
    if Y.dim != plant.n_y:
        raise ValueError("Y has dimension {} but the plant has {} "
                         "constrained outputs".format(Y.dim, plant.n_y))

    rows = _HorizonOracle(plant, design, N)
    Apow, G = rows.Apow, rows.G

    # stacked prediction of (xi_1 .. xi_N): Sx x + Su mu
    Sx = Apow[1:].reshape(N * n_x, n_x)
    Su = np.zeros((N * n_x, N * n_u))
    for i in range(1, N + 1):
        for j in range(i):
            Su[(i - 1) * n_x:i * n_x, j * n_u:(j + 1) * n_u] = G[i - 1 - j]

    Qbar = np.zeros((N * n_x, N * n_x))
    for i in range(N - 1):
        Qbar[i * n_x:(i + 1) * n_x, i * n_x:(i + 1) * n_x] = design.Q
    Qbar[(N - 1) * n_x:, (N - 1) * n_x:] = design.P
    Rbar = np.kron(np.eye(N), design.R)

    H = 2.0 * (Su.T @ Qbar @ Su + Rbar)
    H = 0.5 * (H + H.T)
    Gx_stack = np.tile(em.G_x, (N, 1))
    Gu_stack = np.tile(em.G_u, (N, 1))
    W = np.hstack([
        2.0 * Su.T @ Qbar @ Sx,
        -2.0 * (Su.T @ Qbar @ Gx_stack + Rbar @ Gu_stack),
    ])

    M, L, b = rows.assemble(N)
    return CondensedQp(H, W, M, L, b, n_x, n_u, n_v, design)


def mpc_feedback(qp, x, v, warm_start=None):
    """Solve the condensed QP at (x, v) and return (u, solve record).

    u is the first input block of the unique minimizer. warm_start is an
    optional sequence of constraint indices tried first by the QP solver
    (typically the previous step's active set).
    """
    x = np.asarray(x, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if x.size != qp.n_x or v.size != qp.n_v:
        raise ValueError("expected state of size {} and reference of size "
                         "{}".format(qp.n_x, qp.n_v))
    theta = np.concatenate([x, v])
    problem = qp.problem.with_linear(qp.W @ theta, qp.b - qp.L @ theta)
    st = solve_qp(problem, warm_start=warm_start)
    if st.status == Status.INFEASIBLE:
        raise OcpInfeasibleError(
            "OCP infeasible at (x, v) = ({}, {})".format(x.tolist(),
                                                         v.tolist()))
    if st.status != Status.OPTIMAL:
        raise RuntimeError("QP solve failed with status {}".format(
            st.status.name))
    return st.x[:qp.n_u].copy(), st


def feasible_set(qp, row_cap=DEFAULT_ROW_CAP):
    """Project the condensed polytope {(mu, theta) : M mu + L theta <= b}
    onto theta, returning the explicit feasible set in minimal H-rep (the
    prune after the last of the N * n_u >= 1 eliminations leaves it
    minimal)."""
    N, n_u = qp.N, qp.n_u
    stacked = HPolyhedron(np.hstack([qp.M, qp.L]), qp.b)
    keep = list(range(N * n_u, N * n_u + qp.n_x + qp.n_v))
    return FeasibleSet(stacked.project(keep, row_cap=row_cap), N)


class _HorizonOracle:
    """Constraint rows M mu + L theta <= b of every horizon up to cap, from
    per-lag blocks computed once. condense takes the rows of its horizon;
    n_star and ocp_feasible solve one feasibility LP per probed horizon,
    which only assembles its rows. feasible keeps the rows of the last
    horizon it assembled, so repeated queries at one horizon reuse them.

    Row block i = 0..h-1 constrains the output at step i, whose input mu_j
    (j < i) enters through YaC A^(i-1-j) B; the terminal block at step h
    sees mu_j through T_x A^(h-1-j) B.
    """

    def __init__(self, plant, design, cap):
        T, Y = design.T, design.Y
        self.T, self.Y, self.n_u = T, Y, plant.n_u
        self.Apow, self.G = _prediction_maps(plant, cap)
        YaC = Y.A @ plant.C
        self.YaD = Y.A @ plant.D
        self.YG = [YaC @ Gk for Gk in self.G]
        self.TG = [T.T_x @ Gk for Gk in self.G]
        self.YA = [YaC @ Ai for Ai in self.Apow[:cap]]
        self._last = (None, None)  # (h, (M, L, b)) of the last feasible

    def assemble(self, h):
        """(M, L, b) of horizon h: output blocks i = 0..h-1 first, terminal
        block last."""
        T, Y, n_u = self.T, self.Y, self.n_u
        n_r, n_x = Y.nrows, T.n_x
        M = np.zeros((h * n_r + T.nrows, h * n_u))
        L = np.zeros((h * n_r + T.nrows, n_x + T.T_v.shape[1]))
        b = np.empty(h * n_r + T.nrows)
        for i in range(h):
            rows = slice(i * n_r, (i + 1) * n_r)
            for j in range(i):
                M[rows, j * n_u:(j + 1) * n_u] = self.YG[i - 1 - j]
            M[rows, i * n_u:(i + 1) * n_u] = self.YaD
            L[rows, :n_x] = self.YA[i]
            b[rows] = Y.b
        tr = slice(h * n_r, None)
        for j in range(h):
            M[tr, j * n_u:(j + 1) * n_u] = self.TG[h - 1 - j]
        L[tr, :n_x] = T.T_x @ self.Apow[h]
        L[tr, n_x:] = T.T_v
        b[tr] = T.c
        return M, L, b

    def feasible(self, h, x, v, mu0=None):
        """Returns (feasible, mu, violation) for horizon h at (x, v)."""
        theta = np.concatenate([x, v])
        if h == 0:
            margin = float(np.max(self.T.set_xv.A @ theta - self.T.c,
                                  initial=0.0))
            return margin <= TOL, np.zeros(0), margin
        last = self._last
        if last[0] != h:
            last = self._last = (h, self.assemble(h))
        M, L, b = last[1]
        t, mu, outcome = min_violation(M, b - L @ theta, x0=mu0)
        if outcome not in ("feasible", "optimal"):
            raise RuntimeError(
                "feasibility LP failed at horizon {} ({})".format(h, outcome))
        return t <= TOL, mu, t


# (plant, design, horizon, oracle) of the last ocp_feasible call
_ocp_memo = (None, None, None, None)


def ocp_feasible(plant, design, x, v, horizon):
    """Feasibility of the horizon-specific problem at (x, v) by a direct
    phase-1 LP (horizon 0 reduces to terminal-set membership).

    The rows are built once per (plant, design, horizon): the oracle of
    the last call is kept, keyed on the identity of the plant and the
    design (both are treated as immutable), so a scan over many points
    assembles them once.
    """
    global _ocp_memo
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    x = np.asarray(x, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    memo_plant, memo_design, memo_horizon, oracle = _ocp_memo
    if (memo_plant is not plant or memo_design is not design
            or memo_horizon != horizon):
        oracle = _HorizonOracle(plant, design, max(horizon, 1))
        _ocp_memo = (plant, design, horizon, oracle)
    ok, _, _ = oracle.feasible(horizon, x, v)
    return ok


def n_star(plant, design, x0, r, cap, trace=None):
    """Smallest horizon h <= cap whose problem is feasible at (x0, r).

    Feasibility is monotone in the horizon (T is invariant, so Gamma_h lies
    inside Gamma_{h+1}). A galloping search therefore probes h = 0, 1, 2,
    4, 8, ... (the last probe clamped to cap) until one is feasible, and a
    bisection between the largest infeasible and the smallest feasible
    probe closes the gap: O(log N*) feasibility LPs instead of N* + 1. Each
    LP is warm started from the min-violation inputs of the nearest smaller
    probe, padded with the steady-state input. The search never constructs
    feasible-set projections.

    When given, trace receives one (horizon, worst violation) pair per
    probed horizon, sorted by horizon, also when the search raises. It
    always holds N* and, for N* > 0, the infeasible horizon N* - 1, so the
    answer can be checked from the trace alone.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    x0 = np.asarray(x0, dtype=float).ravel()
    r = np.asarray(r, dtype=float).ravel()
    em = equilibrium_basis(plant)
    u_pad = em.G_u @ r
    oracle = _HorizonOracle(plant, design, cap)
    probes = []

    def probe(h, lo, mu_lo):
        mu0 = np.concatenate([mu_lo, np.tile(u_pad, h - lo)]) if h else None
        ok, mu, viol = oracle.feasible(h, x0, r, mu0=mu0)
        probes.append((h, viol))
        return ok, mu

    try:
        ok, mu_lo = probe(0, 0, None)
        if ok:
            return 0
        # invariant: lo is infeasible (mu_lo its min-violation inputs)
        lo, hi = 0, 1
        while True:
            ok, mu = probe(hi, lo, mu_lo)
            if ok:
                break
            if hi == cap:
                raise RuntimeError("no feasible horizon <= {}".format(cap))
            lo, mu_lo, hi = hi, mu, min(2 * hi, cap)
        # invariant: hi is feasible
        while hi - lo > 1:
            mid = (lo + hi) // 2
            ok, mu = probe(mid, lo, mu_lo)
            if ok:
                hi = mid
            else:
                lo, mu_lo = mid, mu
        return hi
    finally:
        if trace is not None:
            trace.extend(sorted(probes))
