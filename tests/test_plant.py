"""Plant model, equilibrium kernel, and reference-set tests."""

import numpy as np
import pytest

from systems import double_integrator_plant, scalar_integrator_plant

from fgmpc.plant import (ConstraintSpec, LtiPlant, equilibrium_basis,
                         steady_state_ref_set)
from fgmpc.polytope import HPolyhedron


def equilibrium_matrix(plant):
    n_x, n_z = plant.n_x, plant.n_z
    return np.block([
        [plant.A - np.eye(n_x), plant.B, np.zeros((n_x, n_z))],
        [plant.E, plant.F, -np.eye(n_z)],
    ])


def test_dimensions_and_validation():
    p = double_integrator_plant()
    assert (p.n_x, p.n_u, p.n_y, p.n_z) == (2, 1, 3, 1)
    with pytest.raises(ValueError):
        LtiPlant(A=[[1.0, 0.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]],
                 E=[[1.0]], F=[[0.0]])
    with pytest.raises(ValueError):
        LtiPlant(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0, 0.0]],
                 E=[[1.0]], F=[[0.0]])


def test_non_finite_sample_time_rejected():
    for ts in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sample time"):
            LtiPlant(
                A=[[1.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]], E=[[1.0]],
                F=[[0.0]], ts=ts)


def test_unstabilizable_rejected():
    # the unstable mode at 2 is disconnected from the input
    with pytest.raises(ValueError, match="stabilizable"):
        LtiPlant(A=[[2.0, 0.0], [0.0, 0.5]], B=[[0.0], [1.0]],
                 C=[[1.0, 0.0]], D=[[0.0]], E=[[1.0, 0.0]], F=[[0.0]])


def test_stabilizable_despite_uncontrollable_stable_mode():
    p = LtiPlant(A=[[0.5, 0.0], [0.0, 0.9]], B=[[0.0], [1.0]],
                 C=[[1.0, 0.0]], D=[[0.0]], E=[[0.0, 1.0]], F=[[0.0]])
    assert p.n_x == 2


def test_step_values():
    p = double_integrator_plant()
    xn, y, z = p.step([0.0, 0.0], [1.0])
    np.testing.assert_allclose(xn, [0.0, 0.1])
    np.testing.assert_allclose(y, [0.0, 0.0, 1.0])
    np.testing.assert_allclose(z, [0.0])
    xn, y, z = p.step([0.0, 0.0], [0.0])
    np.testing.assert_allclose(np.concatenate([xn, y, z]), 0.0, atol=0.0)


def test_equilibrium_basis_double_integrator():
    p = double_integrator_plant()
    em = equilibrium_basis(p)
    np.testing.assert_allclose(em.G_x, [[1.0], [0.0]], atol=1e-12)
    np.testing.assert_allclose(em.G_u, [[0.0]], atol=1e-12)
    Z = equilibrium_matrix(p)
    G = np.vstack([em.G_x, em.G_u, np.eye(1)])  # normalized: G_z = I
    assert np.max(np.abs(Z @ G)) <= 1e-10


def test_equilibrium_basis_scalar_integrator():
    em = equilibrium_basis(scalar_integrator_plant())
    np.testing.assert_allclose(em.G_x, [[1.0]], atol=1e-12)
    np.testing.assert_allclose(em.G_u, [[0.0]], atol=1e-12)


def test_equilibrium_basis_input_tracking():
    # z = u with stable A: x_bar = (I-A)^{-1} B u_bar, G_u = 1
    A = np.array([[0.4, 0.1], [0.0, 0.3]])
    B = np.array([[1.0], [0.5]])
    p = LtiPlant(A=A, B=B, C=np.eye(2), D=np.zeros((2, 1)),
                 E=np.zeros((1, 2)), F=[[1.0]])
    em = equilibrium_basis(p)
    np.testing.assert_allclose(em.G_u, [[1.0]], atol=1e-10)
    np.testing.assert_allclose(em.G_x, np.linalg.solve(np.eye(2) - A, B),
                               atol=1e-10)


def test_equilibrium_kernel_property_random():
    rng = np.random.default_rng(4)
    for trial in range(20):
        n_x = int(rng.integers(2, 5))
        n_u = int(rng.integers(1, 3))
        A = rng.normal(size=(n_x, n_x)) * 0.3  # comfortably stable
        B = rng.normal(size=(n_x, n_u))
        E = rng.normal(size=(1, n_x))
        F = rng.normal(size=(1, n_u))
        p = LtiPlant(A=A, B=B, C=np.eye(n_x), D=np.zeros((n_x, n_u)),
                     E=E, F=F)
        try:
            em = equilibrium_basis(p)
        except ValueError:
            continue  # randomly degenerate tracking map
        Z = equilibrium_matrix(p)
        G = np.vstack([em.G_x, em.G_u, np.eye(1)])  # normalized: G_z = I
        assert np.max(np.abs(Z @ G)) <= 1e-10, trial
        # equilibrium is a fixed point and tracks exactly
        v = rng.normal(size=1)
        xn, _, z = p.step(em.x_bar(v), em.u_bar(v))
        np.testing.assert_allclose(xn, em.x_bar(v), atol=1e-9)
        np.testing.assert_allclose(z, v, atol=1e-9)


def test_equilibrium_gz_singular():
    # tracking output identically zero: kernel exists but G_z = 0
    p = double_integrator_plant()
    broken = LtiPlant(A=p.A, B=p.B, C=p.C, D=p.D, E=[[0.0, 0.0]], F=[[0.0]])
    with pytest.raises(ValueError, match="singular|one-to-one"):
        equilibrium_basis(broken)


def test_equilibrium_dimension_mismatch():
    # two decoupled integrators with full input authority but one tracking
    # output: the equilibrium family is 2-D, G_z cannot be square
    p = LtiPlant(A=np.eye(2), B=np.eye(2), C=np.eye(2), D=np.zeros((2, 2)),
                 E=[[1.0, 0.0]], F=[[0.0, 0.0]])
    with pytest.raises(ValueError, match="one-to-one"):
        equilibrium_basis(p)


def test_steady_state_ref_set_y1():
    p = double_integrator_plant()
    em = equilibrium_basis(p)
    Y1 = HPolyhedron.from_box([-1, -0.25, -0.25], [1, 0.25, 0.25])
    R = steady_state_ref_set(p, em, Y1, 0.01)
    assert R.dim == 1 and R.nrows == 2
    assert R.contains_point([0.99]) and not R.contains_point([0.9901])
    assert R.contains_point([-0.99]) and not R.contains_point([-0.9901])


def test_steady_state_ref_set_scalar_eps02():
    p = scalar_integrator_plant()
    em = equilibrium_basis(p)
    Y = HPolyhedron.from_box([-1.0, -0.25], [1.0, 0.25])
    R = steady_state_ref_set(p, em, Y, 0.2)
    assert R.contains_point([0.8]) and not R.contains_point([0.8 + 1e-7])
    assert R.contains_point([-0.8]) and not R.contains_point([-0.8 - 1e-7])


def test_steady_state_ref_set_shrinks_to_zero():
    p = scalar_integrator_plant()
    em = equilibrium_basis(p)
    Y = HPolyhedron.from_box([-1.0, -0.25], [1.0, 0.25])
    R = steady_state_ref_set(p, em, Y, 0.999)
    assert R.contains_point([0.0005]) and not R.contains_point([0.0015])
    with pytest.raises(ValueError):
        steady_state_ref_set(p, em, Y, 0.0)
    with pytest.raises(ValueError):
        steady_state_ref_set(p, em, Y, 1.0)


def test_ref_sets_nested_in_eps():
    p = double_integrator_plant()
    em = equilibrium_basis(p)
    Y1 = HPolyhedron.from_box([-1, -0.25, -0.25], [1, 0.25, 0.25])
    tighter = steady_state_ref_set(p, em, Y1, 0.3)
    looser = steady_state_ref_set(p, em, Y1, 0.05)
    assert looser.contains_set(tighter)
    assert not tighter.contains_set(looser)


def test_ref_set_interior_margin():
    p = double_integrator_plant()
    em = equilibrium_basis(p)
    Y1 = HPolyhedron.from_box([-1, -0.25, -0.25], [1, 0.25, 0.25])
    eps = 0.1
    R = steady_state_ref_set(p, em, Y1, eps)
    _, r_y = Y1.chebyshev_center()
    M = p.C @ em.G_x + p.D @ em.G_u
    rng = np.random.default_rng(6)
    for _ in range(50):
        # rejection-sample v in R_eps
        v = rng.uniform(-1.0, 1.0, size=1)
        if not R.contains_point(v):
            continue
        margin = np.min(Y1.b - Y1.A @ (M @ v))
        assert margin >= eps * r_y / np.sqrt(Y1.dim) - 1e-12


def test_constraint_spec():
    p = double_integrator_plant()
    em = equilibrium_basis(p)
    Y1 = HPolyhedron.from_box([-1, -0.25, -0.25], [1, 0.25, 0.25])
    spec = ConstraintSpec(p, em, Y1, 0.01)
    assert spec.R_eps.contains_point([0.75])
    shifted = HPolyhedron.from_box([0.5, -1.0, -1.0], [2.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="interior"):
        ConstraintSpec(p, em, shifted, 0.01)
    with pytest.raises(ValueError):
        ConstraintSpec(p, em, Y1, 1.5)
