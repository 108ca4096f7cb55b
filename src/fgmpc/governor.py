"""Feasibility governor and the command-governor baseline.

The governor sits between the target reference r and the MPC law: at each
step it solves

    g(x, r) = argmin { ||v - r||^2 : v in R_eps, (x, v) in Gamma_N },

handing the MPC the closest safely trackable reference. The joint
constraint set Lambda = Gamma_N intersected with the R_eps cylinder is
built offline; online only the measured x is substituted, leaving a QP in
v with few variables and many rows. The projection of Lambda onto x is
the governed region of attraction. The command-governor baseline applies
the same step over the terminal set, paired with the LQR law instead of
the MPC.
"""

import numpy as np

from fgmpc.polytope import DEFAULT_ROW_CAP, HPolyhedron
from fgmpc.solver import QpProblem, Status, solve_qp


class RoaError(RuntimeError):
    """The queried state admits no feasible auxiliary reference."""


class GovernorProblem:
    """Offline governor data: Gamma_N, R_eps, and their joint set Lambda.

    Lambda = Gamma_N intersected with {(x, v) : v in R_eps}; the state
    dimension is recovered from the two operand dimensions. problem is the
    governor QP min ||v||^2 s.t. Lambda_v v <= Lambda.b, that is at x = 0
    and r = 0, built once here; fg_step derives each step's instance from
    it with problem.with_linear.
    """

    def __init__(self, gamma, R_eps):
        if isinstance(gamma, HPolyhedron):
            gamma_set = gamma
        else:
            gamma_set = gamma.set_xv
        self.n_v = R_eps.dim
        self.n_x = gamma_set.dim - self.n_v
        if self.n_x < 1:
            raise ValueError("feasible set dimension {} leaves no state "
                             "coordinates after {} reference coordinates"
                             .format(gamma_set.dim, self.n_v))
        self.gamma = gamma_set
        self.R_eps = R_eps
        cylinder = HPolyhedron(
            np.hstack([np.zeros((R_eps.nrows, self.n_x)), R_eps.A]),
            R_eps.b)
        self.Lambda = gamma_set.intersect(cylinder).remove_redundancy()
        self.problem = QpProblem(2.0 * np.eye(self.n_v), np.zeros(self.n_v),
                                 self.Lambda.A[:, self.n_x:], self.Lambda.b)


class GovernorState:
    """Carries the applied reference and the last solve record between
    steps of one control loop, and the command-governor QP that cg_step
    builds on its first step. The record's active set and kept factors
    warm start the next solve."""

    def __init__(self, v=None):
        self.v = None if v is None else np.asarray(v, dtype=float).ravel()
        self.record = None
        self.cg_problem = None  # (T, R_eps, QpProblem) of cg_step


def _closest(problem, state=None, message="state outside governed ROA"):
    """Solve the distance QP problem (Hessian 2I, f = -2r), warm started
    from the active set and factors of state's record when given, record
    the solve into state, and return its minimizer. solve_qp ignores
    factors that were not built on this problem's shared J0."""
    warm = factors = None
    if state is not None and state.record is not None:
        warm, factors = state.record.active_set, state.record.factors
    st = solve_qp(problem, warm_start=warm, warm_factors=factors)
    if st.status == Status.INFEASIBLE:
        raise RoaError(message)
    if st.status != Status.OPTIMAL:
        raise RuntimeError("governor QP failed with status {}".format(
            st.status.name))
    if state is not None:
        state.v = st.x.copy()
        state.record = st
    return st.x.copy()


def _distance_qp(A_v, rhs, r):
    """min ||v - r||^2 s.t. A_v v <= rhs, up to the constant ||r||^2."""
    f = -2.0 * np.asarray(r, dtype=float)
    return QpProblem(2.0 * np.eye(A_v.shape[1]), f, A_v, rhs)


def fg_step(gp, x, r, state=None):
    """One feasibility-governor step: the admissible reference closest to r.

    Strictly convex, so the minimizer is unique; when (x, r*) is already
    in Lambda the result is r* itself (the governor does not interfere).
    The optional state carries the previous active set as a warm start.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size != gp.n_x:
        raise ValueError("expected state of size {}".format(gp.n_x))
    rhs = gp.Lambda.b - gp.Lambda.A[:, :gp.n_x] @ x
    f = -2.0 * np.asarray(r, dtype=float)
    return _closest(gp.problem.with_linear(f, rhs), state=state)


def cg_step(T, R_eps, x, r, state=None):
    """Command-governor baseline: same projection, over the terminal set.

    The admissible pairs are (x, v) in T with v in R_eps; the paired
    control law is the terminal LQR law rather than the MPC. Its rows
    vstack([T.T_v, R_eps.A]) do not depend on x or r, so the QP is built
    once per state (once per control loop) and each step derives its
    instance with with_linear, as fg_step does.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size != T.n_x:
        raise ValueError("expected state of size {}".format(T.n_x))
    rhs = np.concatenate([T.c - T.T_x @ x, R_eps.b])
    cached = None if state is None else state.cg_problem
    if cached is None or cached[0] is not T or cached[1] is not R_eps:
        A_v = np.vstack([T.T_v, R_eps.A])
        cached = (T, R_eps, _distance_qp(A_v, rhs, np.zeros(A_v.shape[1])))
        if state is not None:
            state.cg_problem = cached
    f = -2.0 * np.asarray(r, dtype=float)
    return _closest(cached[2].with_linear(f, rhs), state=state)


def r_star(R_eps, r):
    """Projection of the target onto the admissible reference set; the
    value the governed reference converges to in finite time."""
    return _closest(_distance_qp(R_eps.A, R_eps.b, r),
                    message="admissible reference set is empty")


def roa(gp, row_cap=DEFAULT_ROW_CAP):
    """Governed region of attraction: the projection of Lambda onto x."""
    return gp.Lambda.project(list(range(gp.n_x)), row_cap=row_cap)
