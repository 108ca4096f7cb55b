"""Feasibility governor and the command-governor baseline.

The governor sits between the target reference r and the MPC law: at each
step it solves

    g(x, r) = argmin { ||v - r||^2 : v in R_eps, (x, v) in Gamma_N },

handing the MPC the closest safely trackable reference. The joint
constraint set Lambda = Gamma_N intersected with the R_eps cylinder is
built offline; online only the measured x is substituted, leaving a QP in
v with few variables and many rows. The projection of Lambda onto x is
the governed region of attraction. The command-governor baseline is the
same step on GovernorProblem(T, R_eps), over the terminal set T in place
of Gamma_N, paired with the LQR law instead of the MPC.
"""

import numpy as np

from fgmpc.polytope import HPolyhedron
from fgmpc.solver import QpProblem, Status, solve_qp


class RoaError(RuntimeError):
    """The queried state admits no feasible auxiliary reference."""


class GovernorProblem:
    """Offline governor data: Gamma_N, R_eps, and their joint set Lambda.

    Lambda = Gamma_N intersected with {(x, v) : v in R_eps}; the state
    dimension is recovered from the two operand dimensions. gamma is an
    HPolyhedron or a set holding one as set_xv: the FeasibleSet Gamma_N
    of the feasibility governor, or the TerminalSet T of the command
    governor. problem is the governor QP min ||v||^2 s.t. Lambda_v v <=
    Lambda.b, that is at x = 0 and r = 0, built once here; fg_step derives
    each step's instance from it with problem.with_linear. Lambda_x holds
    Lambda's x-columns as one contiguous read-only block, the map from x
    to the instance's b.
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
        self.R_eps = R_eps
        cylinder = HPolyhedron(
            np.hstack([np.zeros((R_eps.nrows, self.n_x)), R_eps.A]),
            R_eps.b)
        self.Lambda = gamma_set.intersect(cylinder).remove_redundancy()
        self.problem = QpProblem(2.0 * np.eye(self.n_v), np.zeros(self.n_v),
                                 self.Lambda.A[:, self.n_x:], self.Lambda.b)
        self.Lambda_x = np.ascontiguousarray(self.Lambda.A[:, :self.n_x])
        self.Lambda_x.setflags(write=False)


def _closest(problem, warm_start, message):
    """Solve the distance QP problem (Hessian 2I, f = -2r) warm started
    from warm_start and return its record. solve_qp ignores factors that
    were not built on this problem's shared J0."""
    st = solve_qp(problem, warm_start=warm_start)
    if st.status == Status.INFEASIBLE:
        raise RoaError(message)
    return st


def fg_step(gp, x, r, warm_start=None):
    """One feasibility-governor step: the admissible reference closest to r.

    Returns (v, record) as mpc_feedback does: record.factors, passed as
    the next step's warm_start, hot-start it from this step's active set.
    Strictly convex, so the minimizer is unique; when (x, r*) is already
    in Lambda the result is r* itself (the governor does not interfere).
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size != gp.n_x:
        raise ValueError("expected state of size {}".format(gp.n_x))
    f = -2.0 * np.asarray(r, dtype=float)
    problem = gp.problem
    st = _closest(problem.with_linear(f, problem.b - gp.Lambda_x @ x),
                  warm_start, "state outside governed ROA")
    return st.x, st


def r_star(R_eps, r):
    """Projection of the target onto the admissible reference set; the
    value the governed reference converges to in finite time."""
    f = -2.0 * np.asarray(r, dtype=float)
    problem = QpProblem(2.0 * np.eye(R_eps.dim), f, R_eps.A, R_eps.b)
    return _closest(problem, None, "admissible reference set is empty").x


def roa(gp):
    """Governed region of attraction: the projection of Lambda onto x."""
    return gp.Lambda.project(list(range(gp.n_x)))
