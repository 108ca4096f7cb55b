"""Riccati synthesis and terminal-set tests against analytic, sampling,
and forward-simulation oracles."""

import numpy as np
import pytest

import systems
from oracles import implied_rows, irredundant_rows

from fgmpc import synthesis
from fgmpc.plant import equilibrium_basis, steady_state_ref_set
from fgmpc.polytope import HPolyhedron
from fgmpc.solver import LimitError
from fgmpc.synthesis import RiccatiSolution, solve_dare, terminal_set


def dare_residual(A, B, Q, R, P):
    A, B, Q, R, P = map(np.atleast_2d, (A, B, Q, R, P))
    term = A.T @ P @ B @ np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    return np.linalg.norm(Q + A.T @ P @ A - term - P, ord="fro")


def test_dare_scalar_analytic():
    # scalar equation reduces to B^2 P^2 + (R - Q B^2 - A^2 R) P - Q R = 0
    A, B, Q, R = 0.5, 1.0, 1.0, 1.0
    roots = np.roots([B * B, R - Q * B * B - A * A * R, -Q * R])
    exact = float(np.max(roots))
    rs = solve_dare([[A]], [[B]], [[Q]], [[R]])
    np.testing.assert_allclose(rs.P, [[exact]], atol=1e-7)
    assert dare_residual(A, B, Q, R, rs.P) <= 1e-8


def test_dare_deadbeat():
    rs = solve_dare([[0.0]], [[1.0]], [[3.0]], [[2.0]])
    np.testing.assert_allclose(rs.P, [[3.0]], atol=1e-12)
    np.testing.assert_allclose(rs.K, [[0.0]], atol=1e-12)


def test_dare_double_integrator():
    p = systems.double_integrator_plant()
    rs = solve_dare(p.A, p.B, np.eye(2), [[1.0]])
    assert dare_residual(p.A, p.B, np.eye(2), np.eye(1), rs.P) <= 1e-8
    assert np.max(np.abs(np.linalg.eigvals(p.A - p.B @ rs.K))) < 1.0
    # P must dominate Q (it is an infinite-horizon cost)
    assert np.min(np.linalg.eigvalsh(rs.P - np.eye(2))) >= -1e-9


def test_dare_validation():
    with pytest.raises(ValueError, match="positive definite"):
        solve_dare([[0.5]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(ValueError, match="semidefinite"):
        solve_dare([[0.5]], [[1.0]], [[-1.0]], [[1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        solve_dare(np.eye(2) * 0.5, np.eye(2),
                   [[1.0, 0.3], [0.0, 1.0]], np.eye(2))
    # unstable mode invisible to the cost
    with pytest.raises(ValueError, match="detectable"):
        solve_dare([[2.0, 0.0], [0.0, 0.5]], np.eye(2),
                   np.diag([0.0, 1.0]), np.eye(2))


@pytest.mark.parametrize("name", ["Q", "R"])
def test_dare_rejects_non_finite_weights(name):
    """A NaN weight used to pass the symmetry test and fail later in an
    SVD (Q) or after the whole Riccati iteration cap (R)."""
    for value in (float("nan"), float("inf")):
        weights = {"Q": [[1.0]], "R": [[1.0]]}
        weights[name] = [[value]]
        with pytest.raises(ValueError, match="{} must be finite".format(
                name)):
            solve_dare([[0.5]], [[1.0]], weights["Q"], weights["R"])


def test_dare_iteration_cap(monkeypatch):
    p = systems.double_integrator_plant()
    monkeypatch.setattr(synthesis, "_DARE_CAP", 2)
    with pytest.raises(LimitError, match=r"^Riccati iteration of 2 states "
                       r"gave up at its cap of 2 \(_DARE_CAP\)$") as err:
        solve_dare(p.A, p.B, np.eye(2), [[1.0]])
    assert (err.value.limit, err.value.cap) == ("_DARE_CAP", 2)


def riccati_steps(A, B, Q, R):
    """Frobenius norms of the Riccati steps F(P) - P from P = Q, up to the
    first one at most 1e-8, by the textbook formula."""
    P, steps = Q, []
    while not steps or steps[-1] > 1e-8:
        gain = np.linalg.inv(R + B.T @ P @ B) @ (B.T @ P @ A)
        P_next = Q + A.T @ P @ A - A.T @ P @ B @ gain
        steps.append(np.linalg.norm(P_next - P, ord="fro"))
        P = P_next
    return steps


@pytest.mark.parametrize("weight", [1.0, 100.0])
def test_dare_solves_once_per_riccati_step(monkeypatch, weight):
    """Each iteration takes one Riccati step, whose linear solve also
    gives the gain: the step that meets the tolerance is not repeated to
    test it, and K is not solved for again."""
    p = systems.double_integrator_plant()
    Q, R = weight * np.eye(2), np.eye(1)
    steps = riccati_steps(p.A, p.B, Q, R)
    # the tolerance falls clear of rounding, so the count is exact
    assert steps[-1] < 1e-8 - 1e-10 and steps[-2] > 1e-8 + 1e-10
    calls = []
    real_solve = np.linalg.solve

    def counting_solve(a, b):
        calls.append(a.shape)
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    rs = solve_dare(p.A, p.B, Q, R)
    assert len(calls) == len(steps)
    assert dare_residual(p.A, p.B, Q, R, rs.P) <= 1e-8


def test_dare_matches_scipy():
    """P against scipy's Schur-method solver, which shares no code with
    fgmpc. The iteration stops on a step of 1e-8, and the iterates
    approach P* like the Lyapunov sum W = sum_k (A_cl')^k A_cl^k, so
    |P - P*| is bounded by 1e-8 |W| (measured: at most 0.96 of it), and
    by 1e-8 |P*| on the repo's weights."""
    linalg = pytest.importorskip("scipy.linalg")
    p = systems.double_integrator_plant()
    cases = [(p.A, p.B, w * np.eye(2), np.eye(1)) for w in (1.0, 100.0)]
    cases.append((np.eye(1), np.eye(1), np.eye(1), np.eye(1)))
    for A, B, Q, R in cases:
        P_ref = linalg.solve_discrete_are(A, B, Q, R)
        P = solve_dare(A, B, Q, R).P
        assert np.linalg.norm(P - P_ref) <= 1e-8 * np.linalg.norm(P_ref)
    rng = np.random.default_rng(7)
    tested = 0
    while tested < 100:
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        A, B = rng.normal(size=(n, n)), rng.normal(size=(n, m))
        L, M = rng.normal(size=(n, n)), rng.normal(size=(m, m))
        Q, R = L @ L.T + 0.1 * np.eye(n), M @ M.T + 0.1 * np.eye(m)
        ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B
                          for k in range(n)])
        if np.linalg.svd(ctrb, compute_uv=False)[-1] < 1e-3:
            continue  # too close to uncontrollable
        tested += 1
        rs = solve_dare(A, B, Q, R)
        P_ref = linalg.solve_discrete_are(A, B, Q, R)
        K_ref = np.linalg.solve(R + B.T @ P_ref @ B, B.T @ P_ref @ A)
        W = linalg.solve_discrete_lyapunov((A - B @ K_ref).T, np.eye(n))
        assert (np.linalg.norm(rs.P - P_ref)
                <= 1e-8 * np.linalg.norm(W, 2) + 1e-12 * np.linalg.norm(P_ref))
        np.testing.assert_allclose(rs.K, K_ref, rtol=1e-6, atol=1e-8)


def test_terminal_set_fig2_structure(fig2):
    T = fig2.T
    assert T.set_xv.dim == 2
    assert T.T_x.shape[1] == 1 and T.T_v.shape[1] == 1
    assert 0 <= T.t_star < 500
    # the zero equilibrium is strictly inside
    assert T.set_xv.contains_point([0.0, 0.0])
    assert np.min(T.c - T.set_xv.A @ np.zeros(2)) > 0.01


def test_terminal_set_invariance_and_admissibility(fig2):
    plant, em, rs, T = fig2.plant, fig2.em, fig2.rs, fig2.T
    Y = fig2.Y
    A_cl = plant.A - plant.B @ rs.K
    L_v = em.G_u + rs.K @ em.G_x
    rng = np.random.default_rng(21)
    W = systems.sample_in_polytope(T.set_xv, rng, 1000)
    assert W.shape[0] == 1000
    for w in W:
        x, v = w[:1], w[1:]
        u = -rs.K @ x + L_v @ v
        x_next = A_cl @ x + plant.B @ L_v @ v
        # one-step image stays in the same-v slice; output admissible
        assert T.set_xv.contains_point(np.concatenate([x_next, v]), tol=1e-9)
        y = plant.C @ x + plant.D @ u
        assert Y.contains_point(y, tol=1e-9)


def test_terminal_set_gridding_oracle(fig2):
    plant, em, rs, T = fig2.plant, fig2.em, fig2.rs, fig2.T
    Y = fig2.Y
    K, eps = rs.K, 0.05
    L_v = em.G_u + K @ em.G_x
    A_aug = np.block([[plant.A - plant.B @ K, plant.B @ L_v],
                      [np.zeros((1, 1)), np.eye(1)]])
    Ymat = np.hstack([plant.C - plant.D @ K, plant.D @ L_v])
    ss = np.hstack([np.zeros((plant.n_y, 1)),
                    plant.C @ em.G_x + plant.D @ em.G_u])

    xs = np.linspace(-1.1, 1.1, 89)
    vs = np.linspace(-1.1, 1.1, 89)
    X, V = np.meshgrid(xs, vs, indexing="ij")
    W = np.stack([X.ravel(), V.ravel()], axis=1)

    # oracle: outputs admissible along a long forward rollout, plus the
    # tightened steady-state condition
    ok = np.all(W @ ss.T @ Y.A.T <= (1 - eps) * Y.b + 1e-12, axis=1)
    P = W.T.copy()
    for _ in range(300):
        yv = Y.A @ (Ymat @ P)
        ok &= np.all(yv.T <= Y.b + 1e-12, axis=1)
        P = A_aug @ P
    margins = np.max(W @ T.set_xv.A.T - T.c, axis=1)
    inside = margins <= 0.0
    confident = np.abs(margins) > 1e-6
    assert np.all(inside[confident] == ok[confident])
    assert inside.sum() > 100  # the grid genuinely straddles the set


def test_terminal_set_eps_nesting():
    plant = systems.scalar_integrator_plant()
    em = equilibrium_basis(plant)
    rs = solve_dare(plant.A, plant.B, [[1.0]], [[1.0]])
    Y = HPolyhedron.from_box([-1.0, -0.25], [1.0, 0.25])
    tight = terminal_set(plant, em, rs, Y, 0.2)
    loose = terminal_set(plant, em, rs, Y, 0.05)
    assert loose.set_xv.contains_set(tight.set_xv, tol=1e-9)


def test_terminal_set_sigma_strictly_inside(fig2):
    plant, em, T = fig2.plant, fig2.em, fig2.T
    R_eps = steady_state_ref_set(plant, em, fig2.Y, 0.05)
    for v in np.linspace(-0.9, 0.9, 25):
        if not R_eps.contains_point([v]):
            continue
        w = np.concatenate([em.x_bar([v]), [v]])
        margin = np.min(T.c - T.set_xv.A @ w)
        assert margin > 1e-6, v


def test_terminal_set_deadbeat_determination():
    plant = systems.scalar_integrator_plant()
    em = equilibrium_basis(plant)
    # deadbeat gain: x+ = (1 - 1)x + ... = reference feedforward only
    rs = RiccatiSolution(P=[[1.0]], K=[[1.0]])
    Y = HPolyhedron.from_box([-1.0, -0.5], [1.0, 0.5])
    T = terminal_set(plant, em, rs, Y, 0.1)
    assert T.t_star <= 1
    assert T.em is em and T.K is rs.K  # the law T is invariant under


def test_terminal_set_support_lp_count(y1, support_lps):
    """T on y1 (82 rows, t* = 30): one LP per row of each new layer and
    one final prune, 268 support LPs. Re-pruning the whole set after
    every layer took 1,698."""
    plant, em, rs, Y = y1.plant, y1.em, y1.rs, y1.Y
    T = terminal_set(plant, em, rs, Y, y1.eps)
    assert (T.nrows, T.t_star) == (82, 30)
    assert len(support_lps) <= 300


def test_terminal_set_layer_cap(monkeypatch, y1):
    plant, em, rs, Y = y1.plant, y1.em, y1.rs, y1.Y
    assert y1.T.t_star >= 1
    # capping the iteration one layer before determination must raise
    cap = y1.T.t_star
    monkeypatch.setattr(synthesis, "_TERMINAL_CAP", cap)
    with pytest.raises(LimitError, match=r"^terminal set of \d+ rows in 3 "
                       r"dimensions gave up at its cap of {} "
                       r"\(_TERMINAL_CAP\)$".format(cap)) as err:
        terminal_set(plant, em, rs, Y, y1.eps)
    assert (err.value.limit, err.value.cap) == ("_TERMINAL_CAP", cap)


def terminal_layers(bundle, eps, count):
    """The steady-state rows and the output layers 0..count-1 of the
    reference-augmented loop, straight from the definitions, unpruned.
    Vacuous zero rows are left out."""
    plant, em, rs, Y = bundle.plant, bundle.em, bundle.rs, bundle.Y
    K = rs.K
    n_x, n_v = plant.n_x, em.n_v
    L_v = em.G_u + K @ em.G_x
    A_aug = np.block([[plant.A - plant.B @ K, plant.B @ L_v],
                      [np.zeros((n_v, n_x)), np.eye(n_v)]])
    Ymat = np.hstack([plant.C - plant.D @ K, plant.D @ L_v])
    ss = np.hstack([np.zeros((plant.n_y, n_x)),
                    plant.C @ em.G_x + plant.D @ em.G_u])

    def nonzero(A, b):
        live = np.max(np.abs(A), axis=1) > 1e-12
        return A[live], b[live]

    layers, power = [], np.eye(n_x + n_v)
    for _ in range(count):
        layers.append(nonzero(Y.A @ Ymat @ power, Y.b))
        power = A_aug @ power
    return nonzero(Y.A @ ss, (1.0 - eps) * Y.b), layers


def stack(parts):
    return (np.vstack([A for A, _ in parts]),
            np.concatenate([b for _, b in parts]))


@pytest.mark.parametrize("name, eps", [("fig2", 0.05), ("y1", 0.01),
                                       ("y3", 0.01)])
def test_terminal_set_matches_highs_oracle(name, eps, request):
    """T against HiGHS on the unpruned layers: the same set, determined at
    t*, and minimal."""
    pytest.importorskip("scipy")
    bundle = request.getfixturevalue(name)
    T = bundle.T
    t = T.t_star
    A, b = T.set_xv.A, T.set_xv.b
    ss, layers = terminal_layers(bundle, eps, t + 2)
    S_A, S_b = stack([ss] + layers[:t + 1])
    # the same set, by mutual implication row by row
    assert np.all(implied_rows(S_A, S_b, A, b))
    assert np.all(implied_rows(A, b, S_A, S_b))
    # determined at t*: layer t*+1 adds nothing, layer t* does
    assert np.all(implied_rows(*layers[t + 1], A, b))
    assert not np.all(implied_rows(*layers[t], *stack([ss] + layers[:t])))
    # minimal: no row of T is implied by the others
    assert np.all(irredundant_rows(A, b))
