"""Benchmark systems shared across test modules."""

import numpy as np

from fgmpc.plant import LtiPlant
from fgmpc.polytope import HPolyhedron
from fgmpc.sim import Offline


def double_integrator_plant(ts=0.1):
    return LtiPlant(
        A=[[1.0, ts], [0.0, 1.0]],
        B=[[0.0], [ts]],
        C=[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
        D=[[0.0], [0.0], [1.0]],
        E=[[1.0, 0.0]],
        F=[[0.0]],
        ts=ts,
    )


def scalar_integrator_plant():
    return LtiPlant(A=[[1.0]], B=[[1.0]], C=[[1.0], [0.0]],
                    D=[[0.0], [1.0]], E=[[1.0]], F=[[0.0]], ts=1.0)


def fig2_bundle():
    """Scalar integrator micro-system: |x| <= 1, |u| <= 0.25, eps = 0.2
    for the reference set, terminal set built at eps = 0.05."""
    plant = scalar_integrator_plant()
    Y = HPolyhedron.from_box([-1.0, -0.25], [1.0, 0.25])
    return Offline(plant, Y, 0.2, [[1.0]], [[1.0]], eps_terminal=0.05)


def y_box(index):
    bounds = {
        1: ([-1.0, -0.25, -0.25], [1.0, 0.25, 0.25]),
        2: ([-1.0, -1.0, -0.05], [1.0, 1.0, 0.05]),
        3: ([-20.0, -1.0, -0.25], [20.0, 1.0, 0.25]),
    }[index]
    return HPolyhedron.from_box(*bounds)


def y1_bundle():
    """Double integrator with the tight position/velocity/input box."""
    return Offline(double_integrator_plant(), y_box(1), 0.01,
                   np.eye(2), [[1.0]])


def y2_bundle():
    return Offline(double_integrator_plant(), y_box(2), 0.01,
                   np.eye(2), [[1.0]])


def y3_bundle():
    """Comparison setup: wide position range, aggressive state weight."""
    return Offline(double_integrator_plant(), y_box(3), 0.01,
                   100.0 * np.eye(2), [[1.0]])


def governor_stack(off, N):
    """The horizon-N design of off, its condensed QP, Gamma_N and the
    feasibility governor's problem."""
    from fgmpc.governor import GovernorProblem
    from fgmpc.mpc import condense, feasible_set

    design = off.design(N)
    qp = condense(off.plant, design)
    gamma = feasible_set(qp)
    return {"off": off, "design": design, "qp": qp, "gamma": gamma,
            "gp": GovernorProblem(gamma, off.spec.R_eps)}


def wide_box_stack():
    """The wide-box double integrator of the governed-loop benchmark:
    terminal set from unit weights (nom), controller with Q = 100 I,
    N = 10, and its Gamma_N, Lambda and governed region of attraction."""
    from fgmpc.governor import GovernorProblem, roa
    from fgmpc.mpc import OcpDesign, condense, feasible_set
    from fgmpc.synthesis import solve_dare

    plant = double_integrator_plant()
    nom = Offline(plant, y_box(3), 0.01, np.eye(2), [[1.0]])
    rs_ctrl = solve_dare(plant.A, plant.B, 100.0 * np.eye(2), [[1.0]])
    design = OcpDesign(10, 100.0 * np.eye(2), [[1.0]], rs_ctrl.P,
                       rs_ctrl.K, nom.T, nom.Y)
    qp = condense(plant, design)
    gamma = feasible_set(qp)
    gp = GovernorProblem(gamma, nom.spec.R_eps)
    return {"nom": nom, "design": design, "qp": qp, "gamma": gamma,
            "gp": gp, "roa": roa(gp)}


def sample_in_polytope(P, rng, count, attempts=200_000):
    """Rejection sampling from the bounding box of a bounded polytope."""
    from fgmpc.solver import support_value

    lo = np.empty(P.dim)
    hi = np.empty(P.dim)
    for j in range(P.dim):
        e = np.zeros(P.dim)
        e[j] = 1.0
        _, up, _ = support_value(e, P.A, P.b)
        _, dn, _ = support_value(-e, P.A, P.b)
        lo[j], hi[j] = -dn, up
    out = []
    for _ in range(attempts):
        x = rng.uniform(lo, hi)
        if P.contains_point(x):
            out.append(x)
            if len(out) == count:
                break
    return np.array(out)
