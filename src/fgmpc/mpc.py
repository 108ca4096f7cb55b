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

import functools
import math
import numbers

import numpy as np

from fgmpc.polytope import HPolyhedron
from fgmpc.solver import TOL, QpProblem, Status, check_weight, \
    min_violation, solve_qp


class OcpInfeasibleError(RuntimeError):
    """The optimal control problem has no solution at the queried (x, v)."""


def check_integer(value, name):
    """value as an int, or ValueError naming it: a bool, a float (even
    3.0) or a string is not a count; a numpy integer is."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError("{} must be an integer, got {!r}".format(name,
                                                                 value))
    return int(value)


def check_vector(value, name, size):
    """value as a finite float vector of the given size, or ValueError."""
    vec = np.asarray(value, dtype=float).ravel()
    if vec.size != size:
        raise ValueError("expected {} of size {}, got size {}".format(
            name, size, vec.size))
    if not all(map(math.isfinite, vec.tolist())):
        raise ValueError("{} must be finite".format(name))
    return vec


class OcpDesign:
    """Horizon, weights, terminal ingredients, and the output constraint set.

    Q and P weight the state error, R the input error, K is the terminal
    LQR gain, T the terminal set over (x, v), and Y the output constraint
    polytope imposed along the horizon.
    """

    def __init__(self, N, Q, R, P, K, T, Y):
        self.N = check_integer(N, "horizon N")
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


def _lag_blocks(lags, h):
    """The (h p) x (h q) matrix whose block (i, j) is lags[i - j + 1] for
    j <= i and lags[0] for j > i, from the stack lags of p x q blocks: one
    fancy index in place of a copy per block. The callers keep lags[0]
    zero, so the matrix is block lower triangular."""
    i = np.arange(h)
    lag = np.maximum(i[:, None] - i + 1, 0)
    p, q = lags.shape[1:]
    return lags[lag].transpose(0, 2, 1, 3).reshape(h * p, h * q)


def condense(plant, design, em=None):
    """Build the condensed QP for the given plant and design.

    The mu-independent additive part of the objective is dropped: it does
    not move the minimizer. Constraint rows are ordered output block
    i = 0..N-1 first, terminal block last, so the data is bit-reproducible.
    The stacked prediction Su and the output rows are block lower
    triangular in per-lag blocks computed once; each is placed by one
    fancy index (_lag_blocks). The equilibrium map is the terminal set's,
    design.T.em; an em passed in must be that object, or ValueError.
    """
    N = design.N
    T, Y = design.T, design.Y
    if em is not None and em is not T.em:
        raise ValueError("em must be the terminal set's equilibrium map")
    em = T.em
    n_x, n_u, n_v = plant.n_x, plant.n_u, em.n_v
    if T.n_x != n_x:
        raise ValueError("terminal set is over a {}-dimensional state, the "
                         "plant has {}".format(T.n_x, n_x))
    if Y.dim != plant.n_y:
        raise ValueError("Y has dimension {} but the plant has {} "
                         "constrained outputs".format(Y.dim, plant.n_y))

    rows = _HorizonOracle(plant, design, N)
    Apow, G = rows.Apow, rows.G

    # stacked prediction of (xi_1 .. xi_N): Sx x + Su mu
    Sx = Apow[1:].reshape(N * n_x, n_x)
    Su = _lag_blocks(np.concatenate([np.zeros((1, n_x, n_u)), G]), N)

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

    u is the first input block of the unique minimizer, a view of the
    record's x. warm_start is
    optional: the factors a previous solve of this qp returned (typically
    the previous step's record.factors), which hot-start the QP solver
    from that solve's active set. u is then equal to a cold solve's up to
    rounding.
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
    return st.x[:qp.n_u], st


def feasible_set(qp):
    """Project the condensed polytope {(mu, theta) : M mu + L theta <= b}
    onto theta, returning the explicit feasible set in minimal H-rep."""
    N, n_u = qp.N, qp.n_u
    stacked = HPolyhedron(np.hstack([qp.M, qp.L]), qp.b)
    keep = list(range(N * n_u, N * n_u + qp.n_x + qp.n_v))
    return FeasibleSet(stacked.project(keep), N)


class _HorizonOracle:
    """Constraint rows M mu + L theta <= b of every horizon up to its
    depth, from per-lag blocks computed and stacked once. condense takes
    the rows of its horizon; n_star and ocp_feasible solve one feasibility
    LP per probed horizon, which only assembles its rows. feasible keeps
    the rows of the last horizon it assembled, so repeated queries at one
    horizon reuse them.

    Row block i = 0..h-1 constrains the output at step i, whose input mu_j
    enters through lags[i - j + 1]: Y.A D for j = i, Y.A C A^(i-1-j) B for
    j < i, and the zero block lags[0] for j > i. The terminal block at step
    h sees mu_j through TG[h-1-j] = T_x A^(h-1-j) B. The stacks start at
    the given depth and grow, when a deeper horizon is assembled, to twice
    their depth or to that horizon, whichever is deeper; every block is
    computed as a build at full depth computes it, so the rows keep their
    bits.
    """

    def __init__(self, plant, design, depth):
        T, Y = design.T, design.Y
        self.plant, self.T, self.Y, self.n_u = plant, T, Y, plant.n_u
        self._YaC = Y.A @ plant.C
        n_x, n_u = plant.n_x, plant.n_u
        self.depth = 0
        self.Apow = np.eye(n_x)[None]  # A^i, i = 0..depth
        self.G = np.empty((0, n_x, n_u))  # A^k B, k < depth
        self.lags = np.stack([np.zeros((Y.nrows, n_u)), Y.A @ plant.D])
        self.TG = np.empty((0, T.nrows, n_u))
        self.YA = np.empty((0, Y.nrows, n_x))
        self._grow(depth)
        self._last = (None, None)  # (h, (M, L, b)) of the last feasible

    def _grow(self, depth):
        """Extend every stack from the current depth to depth."""
        if depth <= self.depth:
            return
        A, B, YaC = self.plant.A, self.plant.B, self._YaC
        Apow = [self.Apow[-1]]
        for _ in range(self.depth, depth):
            Apow.append(A @ Apow[-1])
        G = [Ai @ B for Ai in Apow[:-1]]
        self.Apow = np.concatenate([self.Apow, Apow[1:]])
        self.G = np.concatenate([self.G, G])
        self.lags = np.concatenate([self.lags, [YaC @ Gk for Gk in G]])
        self.TG = np.concatenate([self.TG, [self.T.T_x @ Gk for Gk in G]])
        self.YA = np.concatenate([self.YA, [YaC @ Ai for Ai in Apow[:-1]]])
        self.depth = depth

    def assemble(self, h):
        """(M, L, b) of horizon h: output blocks i = 0..h-1 first, terminal
        block last."""
        if h > self.depth:
            self._grow(max(h, 2 * self.depth))
        T, Y, n_u = self.T, self.Y, self.n_u
        top, n_x = h * Y.nrows, T.n_x
        M = np.empty((top + T.nrows, h * n_u))
        M[:top] = _lag_blocks(self.lags, h)
        M[top:] = self.TG[:h][::-1].transpose(1, 0, 2).reshape(T.nrows,
                                                              h * n_u)
        L = np.zeros((top + T.nrows, n_x + T.T_v.shape[1]))
        L[:top, :n_x] = self.YA[:h].reshape(top, n_x)
        L[top:, :n_x] = T.T_x @ self.Apow[h]
        L[top:, n_x:] = T.T_v
        b = np.concatenate([np.tile(Y.b, h), T.c])
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
        t, mu, _ = min_violation(M, b - L @ theta, x0=mu0)
        return t <= TOL, mu, t


@functools.lru_cache(maxsize=1)
def _oracle(plant, design, horizon):
    """The oracle of the last (plant, design, horizon), keyed on identity:
    neither class defines equality, and both are treated as immutable."""
    return _HorizonOracle(plant, design, max(horizon, 1))


def ocp_feasible(plant, design, x, v, horizon):
    """Feasibility of the horizon-specific problem at (x, v) by a direct
    phase-1 LP (horizon 0 reduces to terminal-set membership).

    The rows are built once per (plant, design, horizon): the oracle of
    the last call is kept, so a scan over many points assembles them once.
    An x or v of the wrong size or with a non-finite entry, or a horizon
    that is not an integer, raises ValueError before any LP.
    """
    horizon = check_integer(horizon, "horizon")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    x = check_vector(x, "x", plant.n_x)
    v = check_vector(v, "v", plant.n_z)
    ok, _, _ = _oracle(plant, design, horizon).feasible(horizon, x, v)
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
    answer can be checked from the trace alone. An x0 or r of the wrong
    size or with a non-finite entry, or a cap that is not an integer,
    raises ValueError before any LP.
    """
    cap = check_integer(cap, "cap")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    x0 = check_vector(x0, "x0", plant.n_x)
    r = check_vector(r, "r", plant.n_z)
    u_pad = design.T.em.G_u @ r
    oracle = _HorizonOracle(plant, design, 1)  # as deep as the probes
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
