"""Discrete-time LTI plant, equilibrium parameterization, reference sets.

The plant is

    x+ = A x + B u,    y = C x + D u,    z = E x + F u,

where y collects the constrained outputs and z the tracking outputs. Every
constant reference v induces an equilibrium (x_bar, u_bar) = (G_x v, G_u v)
through the kernel of the equilibrium matrix; after normalization the
steady-state tracking output equals v itself.
"""

import numpy as np

from fgmpc.polytope import HPolyhedron

_EIG_TOL = 1e-8
_KERNEL_TOL = 1e-10


def _as_matrix(M, name, rows=None, cols=None):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if rows is not None and M.shape[0] != rows:
        raise ValueError("{} must have {} rows, got {}".format(
            name, rows, M.shape[0]))
    if cols is not None and M.shape[1] != cols:
        raise ValueError("{} must have {} columns, got {}".format(
            name, cols, M.shape[1]))
    if not np.all(np.isfinite(M)):
        raise ValueError("{} must be finite".format(name))
    return M


def unstabilizable_mode(A, B):
    """The first eigenvalue lam of A with |lam| >= 1 at which [lam I - A, B]
    loses rank (PBH test), or None when (A, B) is stabilizable."""
    for lam in np.linalg.eigvals(A):
        if abs(lam) < 1.0 - _EIG_TOL:
            continue
        sv = np.linalg.svd(np.hstack([lam * np.eye(A.shape[0]) - A, B]),
                           compute_uv=False)
        if sv[-1] <= _EIG_TOL * max(1.0, sv[0]):
            return lam
    return None


class LtiPlant:
    """Immutable LTI model with constrained and tracking output maps.

    The constructor verifies stabilizability of (A, B): every eigenvalue of
    A on or outside the unit circle must be controllable (PBH rank test).
    """

    def __init__(self, A, B, C, D, E, F, ts=1.0):
        self.A = _as_matrix(A, "A")
        n_x = self.A.shape[0]
        if self.A.shape[1] != n_x:
            raise ValueError("A must be square")
        self.B = _as_matrix(B, "B", rows=n_x)
        n_u = self.B.shape[1]
        self.C = _as_matrix(C, "C", cols=n_x)
        n_y = self.C.shape[0]
        self.D = _as_matrix(D, "D", rows=n_y, cols=n_u)
        self.E = _as_matrix(E, "E", cols=n_x)
        n_z = self.E.shape[0]
        self.F = _as_matrix(F, "F", rows=n_z, cols=n_u)
        self.ts = float(ts)
        if not (np.isfinite(self.ts) and self.ts > 0.0):
            raise ValueError("sample time must be positive and finite")
        for M in (self.A, self.B, self.C, self.D, self.E, self.F):
            M.setflags(write=False)

        lam = unstabilizable_mode(self.A, self.B)
        if lam is not None:
            mode = ("{:g}".format(lam.real)
                    if abs(lam.imag) < 1e-12 else str(lam))
            raise ValueError(
                "(A, B) is not stabilizable: the mode at {} (magnitude "
                "{:.6g}) cannot be moved inside the unit circle"
                .format(mode, abs(lam)))

    @property
    def n_x(self):
        return self.A.shape[0]

    @property
    def n_u(self):
        return self.B.shape[1]

    @property
    def n_y(self):
        return self.C.shape[0]

    @property
    def n_z(self):
        return self.E.shape[0]

    def step(self, x, u):
        """One exact plant update: returns (x_next, y, z)."""
        x = np.asarray(x, dtype=float).ravel()
        u = np.asarray(u, dtype=float).ravel()
        if x.size != self.n_x or u.size != self.n_u:
            raise ValueError("state/input dimension mismatch")
        return (self.A @ x + self.B @ u,
                self.C @ x + self.D @ u,
                self.E @ x + self.F @ u)


class EquilibriumMap:
    """Basis (G_x, G_u) of the equilibrium family, with G_z = I.

    For every reference v: x_bar = G_x v and u_bar = G_u v satisfy
    x_bar = A x_bar + B u_bar and E x_bar + F u_bar = v.
    """

    def __init__(self, G_x, G_u):
        self.G_x = np.atleast_2d(np.asarray(G_x, dtype=float))
        self.G_u = np.atleast_2d(np.asarray(G_u, dtype=float))
        for M in (self.G_x, self.G_u):
            M.setflags(write=False)

    @property
    def n_v(self):
        return self.G_x.shape[1]

    def x_bar(self, v):
        return self.G_x @ np.asarray(v, dtype=float).ravel()

    def u_bar(self, v):
        return self.G_u @ np.asarray(v, dtype=float).ravel()


def equilibrium_basis(plant):
    """Kernel basis of the equilibrium matrix, normalized so G_z = I.

    The equilibrium matrix stacks the fixed-point condition and the
    tracking-output definition:

        Z = [A - I   B   0 ]      Z (x; u; z) = 0.
            [  E     F  -I ]

    A basis of ker Z is computed by SVD; the reference dimension is
    dim ker Z and must match n_z so references correspond one-to-one to
    equilibria (the tracking-output block G_z must be invertible).
    """
    n_x, n_u, n_z = plant.n_x, plant.n_u, plant.n_z
    Z = np.block([
        [plant.A - np.eye(n_x), plant.B, np.zeros((n_x, n_z))],
        [plant.E, plant.F, -np.eye(n_z)],
    ])
    _, sv, Vt = np.linalg.svd(Z)
    smax = sv[0] if sv.size else 0.0
    rank = int(np.sum(sv > _KERNEL_TOL * max(smax, 1.0)))
    kernel = Vt[rank:].T  # (n_x+n_u+n_z) x n_v
    n_v = kernel.shape[1]
    if n_v == 0:
        raise ValueError("the plant admits no equilibrium family "
                         "(the equilibrium matrix has a trivial kernel)")
    if n_v != n_z:
        raise ValueError(
            "equilibrium family has dimension {} but there are {} tracking "
            "outputs; the steady-state map G_z cannot be invertible, so "
            "references do not correspond one-to-one to equilibria"
            .format(n_v, n_z))
    G_x = kernel[:n_x]
    G_u = kernel[n_x:n_x + n_u]
    G_z = kernel[n_x + n_u:]
    sv_gz = np.linalg.svd(G_z, compute_uv=False)
    if sv_gz[-1] <= _KERNEL_TOL * max(sv_gz[0], 1.0):
        raise ValueError(
            "the steady-state tracking-output map G_z is singular; "
            "references cannot be mapped one-to-one to equilibria")
    Gz_inv = np.linalg.inv(G_z)
    return EquilibriumMap(G_x @ Gz_inv, G_u @ Gz_inv)


def steady_state_ref_set(plant, em, Y, eps):
    """References whose steady-state output lies in the (1-eps)-shrunk
    constraint set: {v : (C G_x + D G_u) v in (1-eps) Y}, minimal rows."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    M = plant.C @ em.G_x + plant.D @ em.G_u
    shrunk = Y.scale(1.0 - eps)
    return HPolyhedron(shrunk.A @ M, shrunk.b).remove_redundancy()


class ConstraintSpec:
    """Output constraint set Y, tightening level eps, and the induced
    strictly steady-state admissible reference set R_eps."""

    def __init__(self, plant, em, Y, eps):
        if Y.dim != plant.n_y:
            raise ValueError("Y has dimension {} but the plant has {} "
                             "constrained outputs".format(Y.dim, plant.n_y))
        _, radius = Y.chebyshev_center()
        # rows are unit-normalized, so min(b) > 0 puts 0 strictly inside
        if not (radius > 0.0 and np.min(Y.b, initial=np.inf) > 0.0):
            raise ValueError("the output constraint set must contain 0 in "
                             "its interior (inscribed radius {:g})"
                             .format(radius))
        self.Y = Y
        self.eps = float(eps)
        self.R_eps = steady_state_ref_set(plant, em, Y, eps)
