"""Correctness oracles that share no code with fgmpc.

Every check here works from plain numpy data: the plant matrices and the
output box of the scenario, and sets read from the program's output
files or arrays. Linear programs go to scipy's HiGHS, which fgmpc never
uses. The horizon problem is posed directly over states and inputs with
the dynamics as equality rows, not condensed as fgmpc does.
"""

import numpy as np
from scipy.optimize import linprog

# HiGHS works to a 1e-7 feasibility tolerance, so a worst violation below
# this is "feasible" and one above it is "infeasible".
FEAS_TOL = 1e-7
# sample points this close to the boundary of Gamma_N are skipped, where
# the two solvers' tolerances could disagree
BOUNDARY_SKIP = 1e-6


def box(lower, upper):
    """{y : lower <= y <= upper} as (A, b)."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = lower.size
    return np.vstack([np.eye(n), -np.eye(n)]), np.concatenate([upper, -lower])


def read_hrep(path):
    """Parse one .hrep file: a '#hrep dim=D rows=M' header, then M lines of
    D coefficients and the offset."""
    with open(path) as fh:
        header = fh.readline().split()
        if not header or header[0] != "#hrep":
            raise ValueError("{}: no #hrep header".format(path))
        fields = dict(tok.split("=") for tok in header[1:])
        dim, rows = int(fields["dim"]), int(fields["rows"])
        data = [[float(tok) for tok in line.split()] for line in fh
                if line.strip()]
    arr = np.array(data, dtype=float).reshape(len(data), dim + 1)
    if arr.shape[0] != rows:
        raise ValueError("{}: header says {} rows, file has {}".format(
            path, rows, arr.shape[0]))
    return arr[:, :dim], arr[:, dim]


def support(A, b, c):
    """max c'x over {A x <= b} by HiGHS; inf when unbounded."""
    res = linprog(-np.asarray(c, dtype=float), A_ub=A, b_ub=b,
                  bounds=[(None, None)] * A.shape[1], method="highs")
    if res.status == 3:
        return np.inf
    if res.status != 0:
        raise RuntimeError("support LP failed: {}".format(res.message))
    return -res.fun


def horizon_violation(plant, Y, T, N, x, v):
    """Smallest t >= 0 such that some inputs u_0..u_{N-1} keep every
    output row within t of Y and end in T relaxed by t, from x0 = x at
    reference v. Zero (to FEAS_TOL) iff the horizon-N problem is feasible.

    Variables are the states x_0..x_N, the inputs and t; the dynamics
    are equality rows.
    """
    A, B, C, D = (np.asarray(plant[k], dtype=float) for k in "ABCD")
    YA, Yb = Y
    TA, Tb = T
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    n_x, n_u = B.shape
    n_v = v.size
    nz = (N + 1) * n_x + N * n_u + 1

    def xs(i):
        return slice(i * n_x, (i + 1) * n_x)

    def us(i):
        off = (N + 1) * n_x
        return slice(off + i * n_u, off + (i + 1) * n_u)

    eq_rows, eq_rhs = [], []
    row = np.zeros((n_x, nz))
    row[:, xs(0)] = np.eye(n_x)
    eq_rows.append(row)
    eq_rhs.append(x)
    for i in range(N):
        row = np.zeros((n_x, nz))
        row[:, xs(i + 1)] = np.eye(n_x)
        row[:, xs(i)] = -A
        row[:, us(i)] = -B
        eq_rows.append(row)
        eq_rhs.append(np.zeros(n_x))

    ub_rows, ub_rhs = [], []
    for i in range(N):
        row = np.zeros((YA.shape[0], nz))
        row[:, xs(i)] = YA @ C
        row[:, us(i)] = YA @ D
        row[:, -1] = -1.0
        ub_rows.append(row)
        ub_rhs.append(Yb)
    row = np.zeros((TA.shape[0], nz))
    row[:, xs(N)] = TA[:, :n_x]
    row[:, -1] = -1.0
    ub_rows.append(row)
    ub_rhs.append(Tb - TA[:, n_x:n_x + n_v] @ v)

    cost = np.zeros(nz)
    cost[-1] = 1.0
    bounds = [(None, None)] * (nz - 1) + [(0.0, None)]
    res = linprog(cost, A_ub=np.vstack(ub_rows), b_ub=np.concatenate(ub_rhs),
                  A_eq=np.vstack(eq_rows), b_eq=np.concatenate(eq_rhs),
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError("horizon LP failed: {}".format(res.message))
    return float(res.x[-1])


def check_membership(gamma, plant, Y, T, N, n_x, rng, count):
    """Gamma_N against the direct horizon-N LP at seeded points of its
    bounding box, widened by a tenth on each side. Returns the counts of
    points inside, outside and skipped, and the disagreements."""
    GA, Gb = gamma
    dim = GA.shape[1]
    hi = np.array([support(GA, Gb, e) for e in np.eye(dim)])
    lo = -np.array([support(GA, Gb, -e) for e in np.eye(dim)])
    pad = 0.1 * (hi - lo)
    norms = np.linalg.norm(GA, axis=1)
    counts = {"inside": 0, "outside": 0, "skipped": 0}
    mismatches = []
    for theta in rng.uniform(lo - pad, hi + pad, size=(count, dim)):
        margin = float(np.max((GA @ theta - Gb) / norms))
        if abs(margin) < BOUNDARY_SKIP:
            counts["skipped"] += 1
            continue
        claimed = margin < 0.0
        counts["inside" if claimed else "outside"] += 1
        t = horizon_violation(plant, Y, T, N, theta[:n_x], theta[n_x:])
        if claimed != (t <= FEAS_TOL):
            mismatches.append("theta={} in Gamma_N: {}, LP violation {:.3e}"
                              .format(theta.tolist(), claimed, t))
    return counts, mismatches


def check_subset(inner, outer, tol=FEAS_TOL):
    """Rows of outer that some point of inner violates by more than tol."""
    IA, Ib = inner
    OA, Ob = outer
    return [i for i, (a, bi) in enumerate(zip(OA, Ob))
            if support(IA, Ib, a) > bi + tol]


def equilibrium(plant):
    """(x_bar, u_bar) per unit of a scalar reference: the solution of
    x = A x + B u, E x + F u = v at v = 1."""
    A, B, E, F = (np.atleast_2d(np.asarray(plant[k], dtype=float))
                  for k in "ABEF")
    n_x = A.shape[0]
    M = np.block([[A - np.eye(n_x), B], [E, F]])
    rhs = np.concatenate([np.zeros(n_x), [1.0]])
    sol = np.linalg.solve(M, rhs)
    return sol[:n_x], sol[n_x:]


def reference_interval(plant, lower, upper, eps):
    """Scalar references whose steady output lies in (1 - eps) Y."""
    xb, ub = equilibrium(plant)
    g = np.asarray(plant["C"], float) @ xb + np.asarray(plant["D"], float) @ ub
    lo, hi = -np.inf, np.inf
    for gi, l, u in zip(g, (1.0 - eps) * np.asarray(lower),
                        (1.0 - eps) * np.asarray(upper)):
        if abs(gi) > 1e-12:
            a, b = sorted((l / gi, u / gi))
            lo, hi = max(lo, a), min(hi, b)
    return lo, hi


def check_governed(log, Lam, plant, lower, upper, eps, r, conv_tol=1e-3,
                   tol=1e-7, v_tol=1e-8):
    """The five invariants of a governed run, each from the log's arrays:
    joint membership in Lambda, admissible outputs, non-increasing
    tracking value, exact finite-time convergence of v to the admissible
    projection of r, and the final state at that equilibrium."""
    fails = []
    LA, Lb = Lam
    W = np.hstack([log.x, log.v])
    bad = np.nonzero(np.max(W @ LA.T - Lb, axis=1) > tol)[0]
    if bad.size:
        fails.append("joint membership fails at step {}".format(bad[0]))
    out_of_box = np.maximum(log.y - np.asarray(upper),
                            np.asarray(lower) - log.y)
    bad = np.nonzero(np.max(out_of_box, axis=1) > tol)[0]
    if bad.size:
        fails.append("output outside Y at step {}".format(bad[0]))
    V = np.sum((log.v - r) ** 2, axis=1)
    bad = np.nonzero(np.diff(V) > 1e-9)[0]
    if bad.size:
        fails.append("tracking value rises at step {}".format(bad[0] + 1))
    lo, hi = reference_interval(plant, lower, upper, eps)
    target = np.clip(r, lo, hi)
    hit = np.nonzero(np.max(np.abs(log.v - target), axis=1) <= v_tol)[0]
    if hit.size == 0:
        fails.append("v never reaches r* = {}".format(target.tolist()))
    elif np.any(log.v[hit[0]:] != log.v[hit[0]]):
        fails.append("v moves after reaching r* at step {}".format(hit[0]))
    xb, _ = equilibrium(plant)
    err = float(np.linalg.norm(log.x_final - xb * target[0]))
    if err > conv_tol:
        fails.append("final state {:.3e} from the equilibrium".format(err))
    return fails


def output_residual(y, lower, upper):
    """Largest amount by which any logged output leaves the box."""
    return float(np.max(np.maximum(y - np.asarray(upper),
                                   np.asarray(lower) - y)))
