"""Closed-loop simulation of plant + MPC (+ governor), metric extraction,
and invariant auditing.

One simulation is one sequential loop: at step k the governor picks the
auxiliary reference v_k (or v_k = r for plain MPC), the controller maps
(x_k, v_k) to u_k, and the plant advances. Every solve is timed with a
wall clock; everything else in the log is deterministic, so two runs of
the same scenario produce bitwise-identical state, input, and reference
arrays. Any infeasible solve aborts the loop with the step index and
cause; for a governed run started inside the region of attraction that
is a safety violation, never an expected outcome.
"""

import collections
import platform
import time

import numpy as np

from fgmpc import governor
from fgmpc.mpc import OcpInfeasibleError, check_integer, check_vector, \
    condense, feasible_set, mpc_feedback
from fgmpc.plant import equilibrium_basis
from fgmpc.polytope import write_csv

KINDS = ("MPC", "MPC+FG", "MPC+CG(LQR)")
CONV_TOL = 1e-3  # terminal state-tracking tolerance of the audit
V_TOL = 1e-8  # reference-convergence tolerance of metrics and the audit

Verdict = collections.namedtuple("Verdict", ["name", "passed",
                                             "first_failure"])


class SimulationError(RuntimeError):
    """A closed-loop solve failed; carries the step index and cause."""

    def __init__(self, step, cause):
        self.step = int(step)
        self.cause = str(cause)
        super().__init__("closed loop aborted at step {}: {}".format(
            self.step, self.cause))


class Scenario:
    """One closed-loop experiment.

    kind selects the controller: "MPC" tracks v = r directly, "MPC+FG"
    filters r through the feasibility governor, "MPC+CG(LQR)" pairs the
    command governor over the terminal set with the LQR law.
    """

    def __init__(self, plant, spec, design, kind, x0, r, budget):
        if kind not in KINDS:
            raise ValueError("controller kind must be one of {}, got {!r}"
                             .format(list(KINDS), kind))
        self.plant = plant
        self.spec = spec
        self.design = design
        self.kind = kind
        self.x0 = check_vector(x0, "x0", plant.n_x)
        self.r = check_vector(r, "r", plant.n_z)
        self.budget = check_integer(budget, "step budget")
        if self.budget < 1:
            raise ValueError("step budget must be at least 1")


class TrajectoryLog:
    """Per-step closed-loop record.

    All per-step arrays share one length; x_final is the state reached
    after the last applied input. V is the reference-tracking Lyapunov
    value ||v_k - r||^2 against the raw target. Solve times are seconds;
    for ungoverned runs t_fg is zero, and for the command-governor runs
    t_mpc holds the (trivial) LQR evaluation time.
    """

    def __init__(self, scenario, x, u, y, z, v, V, t_fg, t_mpc, x_final):
        self.scenario = scenario
        self.x = np.atleast_2d(np.asarray(x, dtype=float))
        self.u = np.atleast_2d(np.asarray(u, dtype=float))
        self.y = np.atleast_2d(np.asarray(y, dtype=float))
        self.z = np.atleast_2d(np.asarray(z, dtype=float))
        self.v = np.atleast_2d(np.asarray(v, dtype=float))
        self.V = np.asarray(V, dtype=float).ravel()
        self.t_fg = np.asarray(t_fg, dtype=float).ravel()
        self.t_mpc = np.asarray(t_mpc, dtype=float).ravel()
        self.x_final = np.asarray(x_final, dtype=float).ravel()
        lengths = {arr.shape[0] for arr in (self.x, self.u, self.y, self.z,
                                            self.v, self.V, self.t_fg,
                                            self.t_mpc)}
        if len(lengths) != 1:
            raise ValueError("log arrays disagree in length: {}".format(
                sorted(lengths)))

    @property
    def n_steps(self):
        return self.x.shape[0]


def run_closed_loop(sc, qp=None, gp=None):
    """Simulate the scenario for its full step budget.

    qp is the condensed OCP of "MPC" and "MPC+FG"; gp is
    GovernorProblem(Gamma_N, R_eps) for "MPC+FG" and GovernorProblem(T,
    R_eps) for "MPC+CG(LQR)", which pairs it with the LQR law. Each is
    built here when not supplied; prebuilt ones spare repeating the
    offline set construction across runs. Each solver warm-starts from
    its own previous solve's factors. A failed solve raises
    SimulationError with the step index; at step 0 that means the initial
    condition is outside the governed region of attraction (governed
    kinds) or outside Gamma_N (plain MPC).
    """
    plant = sc.plant
    governed, lqr = sc.kind != "MPC", sc.kind == "MPC+CG(LQR)"
    if lqr:
        em = equilibrium_basis(plant)
    elif qp is None:
        qp = condense(plant, sc.design)
    if governed and gp is None:
        gamma = sc.design.T if lqr else feasible_set(qp)
        gp = governor.GovernorProblem(gamma, sc.spec.R_eps)

    n = sc.budget
    X = np.empty((n, plant.n_x))
    U = np.empty((n, plant.n_u))
    Y_log = np.empty((n, plant.n_y))
    Z = np.empty((n, plant.n_z))
    Vref = np.empty((n, plant.n_z))
    lyap = np.empty(n)
    t_fg = np.zeros(n)
    t_mpc = np.zeros(n)

    x = sc.x0.copy()
    r = sc.r
    fg_factors = mpc_factors = None  # each solver's next warm start
    K = sc.design.K
    for k in range(n):
        v = r
        if governed:
            tic = time.perf_counter()
            try:
                v, record = governor.fg_step(gp, x, r, fg_factors)
            except governor.RoaError as err:
                raise SimulationError(k, err) from err
            fg_factors = record.factors
            t_fg[k] = time.perf_counter() - tic

        tic = time.perf_counter()
        if lqr:
            u = em.u_bar(v) - K @ (x - em.x_bar(v))
        else:
            try:
                u, record = mpc_feedback(qp, x, v, warm_start=mpc_factors)
            except OcpInfeasibleError as err:
                raise SimulationError(k, err) from err
            mpc_factors = record.factors
        t_mpc[k] = time.perf_counter() - tic

        X[k] = x
        U[k] = u
        Vref[k] = v
        dv = v - r
        lyap[k] = dv.dot(dv)
        x, Y_log[k], Z[k] = plant.step(x, u)

    return TrajectoryLog(sc, X, U, Y_log, Z, Vref, lyap, t_fg, t_mpc, x)


def _transition_fraction(z, z_target):
    """Progress of the tracked output along its commanded transition,
    0 at the start value and 1 at the target."""
    d = z_target - z[0]
    scale = float(np.dot(d, d))
    if scale <= 1e-24:
        return np.ones(z.shape[0])
    return (z - z[0]) @ d / scale


def _first_crossing(frac, level):
    hits = np.nonzero(frac >= level)[0]
    return int(hits[0]) if hits.size else None


def metrics(log, r_star, Y):
    """Summary report for one trajectory log.

    Rise time is the 10% to 90% span of the tracked-output transition
    toward the steady output at r_star, in steps and in seconds via the
    plant sample time (inf when 90% is never crossed). The convergence
    step is the first k from which v stays within V_TOL of r_star to the
    end. Solve-time statistics are wall-clock per-step; tave/tmax
    aggregate governor plus controller time, and the hardware fingerprint
    notes what machine produced them.
    """
    r_star = np.asarray(r_star, dtype=float).ravel()
    ts = log.scenario.plant.ts
    frac = _transition_fraction(log.z, r_star)
    k10 = _first_crossing(frac, 0.1)
    k90 = _first_crossing(frac, 0.9)
    if k10 is None or k90 is None:
        rise_steps = float("inf")
    else:
        rise_steps = float(k90 - k10)

    devs = np.max(np.abs(log.v - r_star), axis=1)
    conv = None
    bad = np.nonzero(devs > V_TOL)[0]
    if bad.size == 0:
        conv = 0
    elif bad[-1] + 1 < log.n_steps:
        conv = int(bad[-1] + 1)
    t_total = log.t_fg + log.t_mpc

    return {
        "kind": log.scenario.kind,
        "steps": log.n_steps,
        "ts": ts,
        "rise_time_steps": rise_steps,
        "rise_time_seconds": rise_steps * ts,
        "v_convergence_step": float("inf") if conv is None else conv,
        "max_output_residual": float(np.max(log.y @ Y.A.T - Y.b)),
        "t_fg_min_s": float(np.min(log.t_fg)),
        "t_fg_mean_s": float(np.mean(log.t_fg)),
        "t_fg_max_s": float(np.max(log.t_fg)),
        "t_mpc_min_s": float(np.min(log.t_mpc)),
        "t_mpc_mean_s": float(np.mean(log.t_mpc)),
        "t_mpc_max_s": float(np.max(log.t_mpc)),
        "tave_s": float(np.mean(t_total)),
        "tmax_s": float(np.max(t_total)),
        "lyapunov_monotone": bool(np.all(np.diff(log.V) <= 1e-9)),
        "hardware": "{} / {}".format(platform.platform(),
                                     platform.processor() or "unknown"),
    }


def audit_invariants(log, gp, Y, tol=1e-7):
    """Safety, stability, and convergence verdicts for a governed log.

    gp has Lambda over Gamma_N for "MPC" and "MPC+FG", over T for
    "MPC+CG(LQR)". Returns five Verdict rows: (a) joint membership
    (x_k, v_k) in Lambda, (b) output admissibility y_k in Y, (c) Lyapunov
    value non-increasing, (d) v constant at the projected reference after
    its convergence step, (e) final state within CONV_TOL of the commanded
    equilibrium. A plain-MPC log with fixed v in R_eps passes the same
    audit, since Lambda and Gamma_N have identical slices there.
    """
    verdicts = []

    fail = None
    for k in range(log.n_steps):
        w = np.concatenate([log.x[k], log.v[k]])
        if not gp.Lambda.contains_point(w, tol=tol):
            fail = k
            break
    verdicts.append(Verdict("joint_membership", fail is None, fail))

    resid = log.y @ Y.A.T - Y.b
    bad = np.nonzero(np.max(resid, axis=1) > tol)[0]
    fail = int(bad[0]) if bad.size else None
    verdicts.append(Verdict("output_admissible", fail is None, fail))

    rising = np.nonzero(np.diff(log.V) > 1e-9)[0]
    fail = int(rising[0] + 1) if rising.size else None
    verdicts.append(Verdict("lyapunov_decrease", fail is None, fail))

    target = governor.r_star(gp.R_eps, log.scenario.r)
    devs = np.max(np.abs(log.v - target), axis=1)
    hit = np.nonzero(devs <= V_TOL)[0]
    if hit.size == 0:
        verdicts.append(Verdict("reference_convergence", False, None))
    else:
        t = int(hit[0])
        drift = [k for k in range(t + 1, log.n_steps)
                 if not np.array_equal(log.v[k], log.v[t])]
        fail = drift[0] if drift else None
        verdicts.append(Verdict("reference_convergence", fail is None,
                                fail))

    em = equilibrium_basis(log.scenario.plant)
    err = float(np.linalg.norm(log.x_final - em.x_bar(target)))
    verdicts.append(Verdict("terminal_tracking", err <= CONV_TOL, None))
    return verdicts


def write_trajectory_csv(log, path):
    """One line per step: k, x[..], u[..], y[..], z[..], v[..], V, and the
    solve times converted to microseconds. The file is written atomically."""
    header = ["k"]
    for name, arr in (("x", log.x), ("u", log.u), ("y", log.y),
                      ("z", log.z), ("v", log.v)):
        header += ["{}[{}]".format(name, j) for j in range(arr.shape[1])]
    header += ["V", "t_fg_us", "t_mpc_us"]
    rows = []
    for k in range(log.n_steps):
        row = [k]
        for arr in (log.x, log.u, log.y, log.z, log.v):
            row += [repr(float(val)) for val in arr[k]]
        row += [repr(float(log.V[k])), repr(float(log.t_fg[k] * 1e6)),
                repr(float(log.t_mpc[k] * 1e6))]
        rows.append(row)
    write_csv(path, header, rows)
