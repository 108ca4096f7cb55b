"""Benchmark systems shared across test modules."""

import numpy as np

from fgmpc.plant import ConstraintSpec, LtiPlant, equilibrium_basis
from fgmpc.polytope import HPolyhedron
from fgmpc.synthesis import solve_dare, terminal_set


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


def build_bundle(plant, Y, eps, Q, R, eps_terminal=None):
    """Everything a scenario needs: equilibrium map, constraint spec,
    Riccati solution, and terminal set."""
    em = equilibrium_basis(plant)
    spec = ConstraintSpec(plant, em, Y, eps)
    rs = solve_dare(plant.A, plant.B, Q, R)
    T = terminal_set(plant, em, rs, Y,
                     eps if eps_terminal is None else eps_terminal)
    return {"plant": plant, "em": em, "spec": spec, "rs": rs, "T": T,
            "Y": Y, "eps": eps, "Q": np.atleast_2d(np.asarray(Q, float)),
            "R": np.atleast_2d(np.asarray(R, float))}


def fig2_bundle():
    """Scalar integrator micro-system: |x| <= 1, |u| <= 0.25, eps = 0.2
    for the reference set, terminal set built at eps = 0.05."""
    plant = scalar_integrator_plant()
    Y = HPolyhedron.from_box([-1.0, -0.25], [1.0, 0.25])
    return build_bundle(plant, Y, 0.2, [[1.0]], [[1.0]], eps_terminal=0.05)


def y_box(index):
    bounds = {
        1: ([-1.0, -0.25, -0.25], [1.0, 0.25, 0.25]),
        2: ([-1.0, -1.0, -0.05], [1.0, 1.0, 0.05]),
        3: ([-20.0, -1.0, -0.25], [20.0, 1.0, 0.25]),
    }[index]
    return HPolyhedron.from_box(*bounds)


def y1_bundle():
    """Double integrator with the tight position/velocity/input box."""
    return build_bundle(double_integrator_plant(), y_box(1), 0.01,
                        np.eye(2), [[1.0]])


def y2_bundle():
    return build_bundle(double_integrator_plant(), y_box(2), 0.01,
                        np.eye(2), [[1.0]])


def y3_bundle():
    """Comparison setup: wide position range, aggressive state weight."""
    return build_bundle(double_integrator_plant(), y_box(3), 0.01,
                        100.0 * np.eye(2), [[1.0]])


def wide_box_stack():
    """The wide-box double integrator of the governed-loop benchmark:
    terminal set from unit weights, controller with Q = 100 I, N = 10,
    and its Gamma_N, Lambda and governed region of attraction."""
    from fgmpc.governor import GovernorProblem, roa
    from fgmpc.mpc import OcpDesign, condense, feasible_set

    plant = double_integrator_plant()
    em = equilibrium_basis(plant)
    Y = y_box(3)
    spec = ConstraintSpec(plant, em, Y, 0.01)
    rs_ctrl = solve_dare(plant.A, plant.B, 100.0 * np.eye(2), [[1.0]])
    rs_nom = solve_dare(plant.A, plant.B, np.eye(2), [[1.0]])
    T = terminal_set(plant, em, rs_nom, Y, 0.01)
    design = OcpDesign(10, 100.0 * np.eye(2), [[1.0]], rs_ctrl.P,
                       rs_ctrl.K, T, Y)
    qp = condense(plant, design, em)
    gamma = feasible_set(qp)
    gp = GovernorProblem(gamma, spec.R_eps)
    return {"plant": plant, "spec": spec, "design": design, "qp": qp,
            "gamma": gamma, "gp": gp, "roa": roa(gp)}


def make_design(bundle, N):
    from fgmpc.mpc import OcpDesign

    return OcpDesign(N, bundle["Q"], bundle["R"], bundle["rs"].P,
                     bundle["rs"].K, bundle["T"], bundle["Y"])


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
