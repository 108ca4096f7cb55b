"""LQR synthesis and the tracking terminal set.

solve_dare finds the stabilizing solution of the discrete algebraic
Riccati equation by fixed-point iteration and returns the terminal weight
P together with the gain K. terminal_set builds the maximal output
admissible set of the reference-augmented closed loop, with the
steady-state rows tightened by epsilon so the iteration is finitely
determined.
"""

import numpy as np

from fgmpc.plant import unstabilizable_mode
from fgmpc.polytope import HPolyhedron
from fgmpc.solver import LimitError, check_weight

_DARE_RESIDUAL = 1e-8
_DARE_CAP = 10_000  # Riccati steps before solve_dare gives up
_TERMINAL_CAP = 500  # forward layers before terminal_set gives up


class RiccatiSolution:
    """Terminal weight P and LQR gain K with a Schur-stable closed loop."""

    def __init__(self, P, K):
        self.P = np.atleast_2d(np.asarray(P, dtype=float))
        self.K = np.atleast_2d(np.asarray(K, dtype=float))
        self.P.setflags(write=False)
        self.K.setflags(write=False)


def solve_dare(A, B, Q, R):
    """Fixed-point solution of P = Q + A'PA - (A'PB)(R + B'PB)^{-1}(B'PA).

    Requires Q PSD with (A, Q) detectable and R PD (both checked), which
    together with stabilizability of (A, B) guarantee convergence to the
    unique stabilizing solution. From P = Q, each iteration takes one
    Riccati step P -> F(P), whose one linear solve also gives P's gain K.
    F(P) - P is the DARE residual of P, so the first P whose step is at
    most 1e-8 in Frobenius norm is returned, with that K. Raises ValueError
    on assumption violations, and LimitError on non-convergence within
    _DARE_CAP steps.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[0]
    Q, _ = check_weight(Q, "Q", n, semidefinite=True)
    R, _ = check_weight(R, "R", B.shape[1])
    # detectability of (A, Q): stabilizability of (A', Q^1/2), by duality
    lam = unstabilizable_mode(A.T, _psd_sqrt(Q))
    if lam is not None:
        raise ValueError(
            "(A, Q) is not detectable: the mode at magnitude {:.6g} "
            "is invisible to the cost".format(abs(lam)))

    P = Q.copy()
    for _ in range(_DARE_CAP):
        BtPA = B.T @ P @ A
        K = np.linalg.solve(R + B.T @ P @ B, BtPA)
        P_next = Q + A.T @ P @ A - BtPA.T @ K
        P_next = 0.5 * (P_next + P_next.T)
        if np.linalg.norm(P_next - P, ord="fro") <= _DARE_RESIDUAL:
            break
        P = P_next
    else:
        raise LimitError("Riccati iteration of {} states".format(n),
                         "_DARE_CAP", _DARE_CAP)
    closed = np.max(np.abs(np.linalg.eigvals(A - B @ K)))
    if not closed < 1.0:
        raise RuntimeError("closed loop is not Schur stable (spectral "
                           "radius {:.6g})".format(closed))
    return RiccatiSolution(P, K)


def _psd_sqrt(Q):
    w, V = np.linalg.eigh(Q)
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T


class TerminalSet:
    """Invariant, output-admissible polytope {(x, v) : T_x x + T_v v <= c}.

    t_star is the number of forward constraint layers needed for finite
    determination.
    """

    def __init__(self, set_xv, n_x, t_star):
        self.set_xv = set_xv
        self.n_x = n_x
        self.t_star = t_star

    @property
    def T_x(self):
        return self.set_xv.A[:, :self.n_x]

    @property
    def T_v(self):
        return self.set_xv.A[:, self.n_x:]

    @property
    def c(self):
        return self.set_xv.b

    @property
    def nrows(self):
        return self.set_xv.nrows


def terminal_set(plant, em, rs, Y, eps):
    """Maximal output admissible set of the reference-augmented loop.

    Under the terminal law u = -K x + (G_u + K G_x) v the augmented state
    w = (x, v) evolves autonomously:

        x+ = (A - B K) x + B (G_u + K G_x) v,    v+ = v,

    with output y = (C - D K) x + D (G_u + K G_x) v. The set collects the
    output constraint propagated through every forward step, plus the
    steady-state constraint tightened to (1 - eps) Y, which makes the
    iteration finitely determined (Gilbert & Tan, 1991). Each row of layer
    t+1 is tested once, by one support LP over the set so far, and only the
    rows that cut the set are added; the first layer with no such row ends
    the iteration at t* = t < _TERMINAL_CAP, then the rows are pruned once;
    with none by then it raises LimitError.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    n_x, n_v = plant.n_x, em.n_v
    K = rs.K
    L_v = em.G_u + K @ em.G_x  # feedforward to the reference
    A_cl = np.block([
        [plant.A - plant.B @ K, plant.B @ L_v],
        [np.zeros((n_v, n_x)), np.eye(n_v)],
    ])
    Ymat = np.hstack([plant.C - plant.D @ K, plant.D @ L_v])
    ss_rows = np.hstack([np.zeros((plant.n_y, n_x)),
                         plant.C @ em.G_x + plant.D @ em.G_u])

    # steady-state tightened rows plus the t=0 output layer
    current = HPolyhedron(
        np.vstack([Y.A @ ss_rows, Y.A @ Ymat]),
        np.concatenate([(1.0 - eps) * Y.b, Y.b]),
    )

    power = A_cl
    for t in range(_TERMINAL_CAP):
        layer = HPolyhedron(Y.A @ Ymat @ power, Y.b)
        cuts = [i for i in range(layer.nrows)
                if not HPolyhedron(layer.A[i:i + 1], layer.b[i:i + 1])
                .contains_set(current)]
        if not cuts:
            return TerminalSet(current.remove_redundancy(), n_x, t)
        current = current.intersect(HPolyhedron(layer.A[cuts],
                                                 layer.b[cuts]))
        power = power @ A_cl
    raise LimitError("terminal set of {} rows in {} dimensions".format(
        current.nrows, n_x + n_v), "_TERMINAL_CAP", _TERMINAL_CAP)
