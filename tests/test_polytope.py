"""Polyhedron operations against brute-force geometric oracles."""

import itertools

import numpy as np
import pytest

import systems
from oracles import (convex_hull_2d, enumerate_vertices, highs_support,
                     hull_to_hrep, irredundant_rows, random_bounded_polytope)

import fgmpc.polytope
import fgmpc.solver
from fgmpc.governor import GovernorProblem, roa
from fgmpc.mpc import condense, feasible_set
from fgmpc.polytope import DEFAULT_ROW_CAP, HPolyhedron
from fgmpc.solver import LimitError, TOL


def unit_box(n):
    return HPolyhedron.from_box(-np.ones(n), np.ones(n))


def test_from_box_rows():
    P = HPolyhedron.from_box([-1.0], [1.0])
    assert P.nrows == 2 and P.dim == 1
    assert P.contains_point([0.99]) and not P.contains_point([1.01])
    Y1 = HPolyhedron.from_box([-1, -0.25, -0.25], [1, 0.25, 0.25])
    assert Y1.nrows == 6
    assert Y1.contains_point([0.9, 0.2, -0.2])
    assert not Y1.contains_point([0.9, 0.3, 0.0])


def test_from_box_inverted_bounds():
    with pytest.raises(ValueError):
        HPolyhedron.from_box([1.0, 0.0], [0.5, 1.0])
    with pytest.raises(ValueError):
        HPolyhedron.from_box([0.0], [0.0])


def test_scale():
    P = unit_box(1)
    same = P.scale(1.0)
    assert same.contains_set(P) and P.contains_set(same)
    small = P.scale(0.8)
    assert small.contains_point([0.8]) and not small.contains_point([0.81])
    with pytest.raises(ValueError):
        P.scale(0.0)


def test_intersect_interval():
    P = HPolyhedron.from_box([-1.0], [1.0])
    Q = HPolyhedron.from_box([0.0 - 1e-15], [2.0])
    both = P.intersect(Q)
    assert both.contains_point([0.5])
    assert not both.contains_point([-0.5])
    assert not both.contains_point([1.5])


def test_intersect_idempotent_commutative():
    rng = np.random.default_rng(2)
    A, b = random_bounded_polytope(rng, 3, 4)
    P = HPolyhedron(A, b)
    PP = P.intersect(P)
    assert PP.contains_set(P) and P.contains_set(PP)
    A2, b2 = random_bounded_polytope(rng, 3, 4)
    Q = HPolyhedron(A2, b2)
    PQ, QP = P.intersect(Q), Q.intersect(P)
    assert PQ.contains_set(QP) and QP.contains_set(PQ)


def test_intersect_dimension_mismatch():
    with pytest.raises(ValueError):
        unit_box(2).intersect(unit_box(3))


def test_slice_square():
    S = unit_box(2).slice([0], [0.0])
    assert S.dim == 1
    assert S.contains_point([1.0]) and not S.contains_point([1.1])


def test_slice_empty():
    # fixing x1 beyond the box leaves no feasible x2
    S = unit_box(2).slice([0], [2.0])
    assert S.is_empty()


def test_slice_validation():
    with pytest.raises(ValueError):
        unit_box(2).slice([2], [0.0])
    with pytest.raises(ValueError):
        unit_box(2).slice([0, 0], [0.0, 0.0])


def test_project_square_interval():
    P = unit_box(2).project([0])
    assert P.dim == 1
    assert P.contains_point([1.0]) and not P.contains_point([1.0 + 1e-6])


def test_project_simplex_shadow():
    A = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    b = np.array([1.0, 0.0, 0.0])
    P = HPolyhedron(A, b).project([0])
    assert P.contains_point([0.0]) and P.contains_point([1.0])
    assert not P.contains_point([-1e-6]) and not P.contains_point([1 + 1e-6])


def test_project_empty_input_rejected():
    P = HPolyhedron(np.array([[1.0], [-1.0]]), np.array([-1.0, 0.0]))
    assert P.is_empty()
    with pytest.raises(ValueError):
        P.project([0])


def test_project_identity_permutes_without_lp(support_lps):
    """Keeping every coordinate only reorders the columns."""
    rng = np.random.default_rng(4)
    A, b = random_bounded_polytope(rng, 3, 4)
    P = HPolyhedron(A, b)
    proj = P.project([2, 0, 1])
    assert support_lps == []
    np.testing.assert_array_equal(proj.A, P.A[:, [2, 0, 1]])
    np.testing.assert_array_equal(proj.b, P.b)


def test_project_unbounded_image_rejected():
    """x1 >= 0 is the only bound on x1: the image on x1 is unbounded, the
    one on x2 is not."""
    A = np.array([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    P = HPolyhedron(A, np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match=r"unbounded along direction "
                                         r"\[1.0\]"):
        P.project([0])
    np.testing.assert_allclose(np.sort(P.project([1]).b), [1.0, 1.0])
    with pytest.raises(ValueError, match=r"unbounded along direction "
                                         r"\[-1.0, 0.0\]"):
        HPolyhedron(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                              [0.0, 0.0, -1.0]]),
                    np.array([1.0, 1.0, 1.0])).project([0, 1])


def test_project_flat_image_rejected():
    """The box cut to the plane x1 = x2 has a flat image on (x1, x2)."""
    A = np.vstack([np.eye(3), -np.eye(3), [[1.0, -1.0, 0.0],
                                           [-1.0, 1.0, 0.0]]])
    P = HPolyhedron(A, np.concatenate([np.ones(6), np.zeros(2)]))
    with pytest.raises(ValueError, match=r"not full-dimensional.*direction "
                                         r"\[(-1.0, 1.0|1.0, -1.0)\]"):
        P.project([0, 1])


def test_project_blowup_guard(monkeypatch):
    rng = np.random.default_rng(8)
    A, b = random_bounded_polytope(rng, 4, 12)
    monkeypatch.setattr(fgmpc.polytope, "DEFAULT_ROW_CAP", 3)
    with pytest.raises(LimitError, match=r"^projection of 20 rows onto 2 "
                       r"coordinates, at \d+ hull facets, gave up at its cap "
                       r"of 3 \(DEFAULT_ROW_CAP\)$") as err:
        HPolyhedron(A, b).project([0, 1])
    assert (err.value.limit, err.value.cap) == ("DEFAULT_ROW_CAP", 3)


def test_project_matches_vertex_hull_oracle():
    rng = np.random.default_rng(101)
    for trial in range(25):
        n = int(rng.integers(3, 5))
        A, b = random_bounded_polytope(rng, n, int(rng.integers(2, 6)))
        P = HPolyhedron(A, b)
        keep = sorted(rng.choice(n, size=2, replace=False).tolist())
        proj = P.project(keep)
        V = enumerate_vertices(A, b)
        shadow = V[:, keep]
        # soundness: every projected vertex lands inside the projection
        for w in shadow:
            assert proj.contains_point(w, tol=1e-7), trial
        # completeness/equivalence: mutual containment with the hull
        hull = convex_hull_2d(shadow)
        Hh, hh = hull_to_hrep(hull)
        Q = HPolyhedron(Hh, hh)
        assert proj.contains_set(Q, tol=1e-6), trial
        assert Q.contains_set(proj, tol=1e-6), trial


def assert_same_polygon(proj, hull):
    """proj equals the polygon with CCW vertices hull, one row per edge."""
    Q = HPolyhedron(*hull_to_hrep(hull))
    assert proj.nrows == hull.shape[0]
    assert proj.contains_set(Q, tol=1e-6) and Q.contains_set(proj, tol=1e-6)


def assert_minimal_hull(proj, verts, rng):
    """proj is the convex hull of the points verts (rows): its supports in
    50 random directions are the maxima over verts, and HiGHS finds no row
    implied by the others."""
    pytest.importorskip("scipy")
    for c in rng.normal(size=(50, verts.shape[1])):
        assert abs(highs_support(c, proj.A, proj.b) - np.max(verts @ c)) \
            <= 1e-9
    assert irredundant_rows(proj.A, proj.b).all()


@pytest.mark.parametrize("n, extra, seed",
                         [(5, 8, 34), (5, 10, 33), (6, 6, 31), (6, 8, 31)])
def test_project_deep_elimination_matches_hull(n, extra, seed):
    """Projections to 2-D that eliminate 3 or 4 variables, deep enough for
    the ancestor rule to drop rows."""
    rng = np.random.default_rng(seed)
    A, b = random_bounded_polytope(rng, n, extra)
    keep = sorted(rng.choice(n, size=2, replace=False).tolist())
    proj = HPolyhedron(A, b).project(keep)
    assert_same_polygon(proj, convex_hull_2d(
        enumerate_vertices(A, b)[:, keep]))


def test_project_degenerate_apex():
    """Square pyramid |x1| + |x2| <= 1 - y, y >= 0, projected onto y. The
    first elimination leaves y <= 1 only as a row tangent at the apex; the
    bound must survive the ancestor rule."""
    A = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [-1.0, 1.0, 1.0],
                  [-1.0, -1.0, 1.0], [0.0, 0.0, -1.0]])
    b = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
    proj = HPolyhedron(A, b).project([2])
    order = np.argsort(proj.A[:, 0])
    np.testing.assert_allclose(proj.A[order, 0], [-1.0, 1.0])
    np.testing.assert_allclose(proj.b[order], [0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_project_rotated_cross_polytope(seed):
    """The cross-polytope {Q y : sum |y_i| <= 1} with Q a random rotation:
    2^4 rows, every vertex degenerate, and its vertices +-Q e_i are known in
    closed form. Its shadows in 3-D have vertices on more than three
    facets."""
    n = 4
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    signs = np.array(list(itertools.product([-1.0, 1.0], repeat=n)))
    P = HPolyhedron(signs @ Q.T, np.ones(signs.shape[0]))
    verts = np.vstack([Q.T, -Q.T])
    for keep in ([0, 1], [1, 3]):
        assert_same_polygon(P.project(keep), convex_hull_2d(verts[:, keep]))
    for keep in ([0, 1, 2], [1, 2, 3]):
        assert_minimal_hull(P.project(keep), verts[:, keep], rng)


def test_project_rotated_cube_in_3d():
    """A rotated cube times y in [-1, 1], with loose rows that couple y,
    projected onto the cube's coordinates. Each square facet of the image
    splits into two hull triangles, yet one row each must come out."""
    rng = np.random.default_rng(8)
    R = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    cube = np.array(list(itertools.product([-1.0, 1.0], repeat=3))) @ R.T
    box = np.vstack([R.T, -R.T])
    A = np.vstack([np.hstack([box, np.zeros((6, 1))]),
                   [[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, -1.0]]])
    b = np.ones(8)
    loose = rng.normal(size=(4, 4))
    A = np.vstack([A, loose])
    b = np.concatenate([b, np.max(cube @ loose[:, :3].T, axis=0)
                        + np.abs(loose[:, 3]) + 0.1])
    proj = HPolyhedron(A, b).project([0, 1, 2])
    assert proj.nrows == 6
    assert_minimal_hull(proj, cube, rng)


@pytest.mark.parametrize("n, seed", [(4, 3), (4, 5), (5, 7), (5, 11)])
def test_project_pass_through_facets_are_sound(n, seed):
    """The input carries redundant rows with zero coefficients on every
    eliminated variable, some of them tangent (they touch the shadow at a
    vertex), and loose rows zero on one eliminated variable. The
    projection must still be the minimal hull."""
    rng = np.random.default_rng(seed)
    A, b = random_bounded_polytope(rng, n, 4)
    keep = sorted(rng.choice(n, size=2, replace=False).tolist())
    V = enumerate_vertices(A, b)
    hull = convex_hull_2d(V[:, keep])
    rows, offsets = [A], [b]
    for k in range(hull.shape[0]):
        # a normal strictly between the two edges at hull vertex k: the
        # row touches the shadow only there
        w = hull[k]
        out = (w - hull[k - 1]) / np.linalg.norm(w - hull[k - 1]) + \
            (w - hull[(k + 1) % hull.shape[0]]) / np.linalg.norm(
                w - hull[(k + 1) % hull.shape[0]])
        a = np.zeros(n)
        a[keep] = out
        rows.append(a[None, :])
        offsets.append([a[keep] @ w + (0.0 if k % 2 == 0 else 0.05)])
    for _ in range(3):
        # zero only on one eliminated variable, loose
        a = rng.normal(size=n)
        a[rng.choice([j for j in range(n) if j not in keep])] = 0.0
        rows.append(a[None, :])
        offsets.append([np.max(V @ a) + 0.1])
    order = rng.permutation(sum(r.shape[0] for r in rows))
    A_all = np.vstack(rows)[order]
    b_all = np.concatenate(offsets)[order]

    proj = HPolyhedron(A_all, b_all).project(keep)
    assert_same_polygon(proj, hull)


def test_feasible_set_support_lp_count(y2, support_lps):
    """One feasible_set on y2, N = 5: 239 hull LPs for 80 facets, and no
    redundancy LP after the hull."""
    qp = condense(y2["plant"], systems.make_design(y2, 5), y2["em"])
    feasible_set(qp)
    assert len(support_lps) <= 245


def test_feasible_set_support_lp_count_y1(y1, support_lps):
    """One feasible_set on y1, N = 10: 146 hull LPs for 48 facets, and no
    redundancy LP after the hull."""
    qp = condense(y1["plant"], systems.make_design(y1, 10), y1["em"])
    feasible_set(qp)
    assert len(support_lps) <= 150


def test_feasible_set_support_lp_count_y1_long_horizon(y1, support_lps):
    """One feasible_set on y1, N = 30: 180 hull LPs for 66 facets."""
    qp = condense(y1["plant"], systems.make_design(y1, 30), y1["em"])
    feasible_set(qp)
    assert len(support_lps) <= 185


def test_roa_support_lp_count_y1(y1, support_lps):
    """The ROA of y1 at N = 5: 63 hull LPs for 30 facets."""
    gp = GovernorProblem(feasible_set(condense(
        y1["plant"], systems.make_design(y1, 5), y1["em"])),
        y1["spec"].R_eps)
    del support_lps[:]
    assert roa(gp).nrows == 30
    assert len(support_lps) <= 65


def test_project_soundness_sampling():
    rng = np.random.default_rng(55)
    A, b = random_bounded_polytope(rng, 4, 5)
    P = HPolyhedron(A, b)
    proj = P.project([0, 1])
    hits = 0
    for _ in range(200):
        x = rng.uniform(-2.2, 2.2, size=2)
        inside = proj.contains_point(x)
        # lift query: exists (x3,x4) completing x into P
        lifted = P.slice([0, 1], x)
        assert inside == (not lifted.is_empty())
        hits += inside
    assert 0 < hits < 200


def test_remove_redundancy_simple():
    P = HPolyhedron(np.array([[1.0], [1.0]]), np.array([1.0, 2.0]))
    R = P.remove_redundancy()
    assert R.nrows == 1
    assert R.contains_point([1.0]) and not R.contains_point([1.0 + 1e-6])


def test_remove_redundancy_duplicated_box():
    P = unit_box(3)
    doubled = P.intersect(P)
    assert doubled.nrows == 12
    R = doubled.remove_redundancy()
    assert R.nrows == 6
    assert R.contains_set(P) and P.contains_set(R)


def test_remove_redundancy_preserves_set():
    rng = np.random.default_rng(9)
    for trial in range(15):
        A, b = random_bounded_polytope(rng, 3, 8)
        P = HPolyhedron(A, b)
        R = P.remove_redundancy()
        assert R.nrows <= P.nrows
        assert R.contains_set(P) and P.contains_set(R), trial


def facet_count(A, b, V):
    """Distinct facets among the rows of {A x <= b}, whose vertices are V:
    rows whose vertices span a hyperplane, grouped by that vertex set."""
    n = A.shape[1]
    facets = set()
    for a, bi in zip(A, b):
        on = np.nonzero(np.abs(V @ a - bi) <= 1e-9 * max(1.0, abs(bi)))[0]
        if on.size >= n and np.linalg.matrix_rank(
                np.hstack([V[on], np.ones((on.size, 1))]), tol=1e-9) == n:
            facets.add(tuple(on))
    return len(facets)


def test_remove_redundancy_weakly_redundant_rows():
    """Rows that touch the set only at a vertex or along an edge are
    redundant; exactly the facets must remain, also on the octahedron,
    whose vertices each lie on four facets."""
    octahedron = np.array(list(itertools.product([-1.0, 1.0], repeat=3)))
    rng = np.random.default_rng(17)
    for trial in range(12):
        if trial % 3 == 0:
            A, b = octahedron, np.ones(8)
        else:
            A, b = random_bounded_polytope(rng, 3 + trial % 2, 4)
        n = A.shape[1]
        V = enumerate_vertices(A, b)
        rows, offsets = [A], [b]
        for _ in range(6):
            v = V[rng.integers(V.shape[0])]
            active = np.nonzero(np.abs(A @ v - b) <= 1e-9)[0]
            if rng.random() < 0.5:
                # n - 1 rows through a vertex meet along a line through it
                active = rng.choice(active, size=n - 1, replace=False)
            a = rng.uniform(0.2, 1.0, size=active.size) @ A[active]
            rows.append(a[None, :])
            offsets.append([a @ v])
        A_all, b_all = np.vstack(rows), np.concatenate(offsets)
        order = rng.permutation(b_all.size)
        P = HPolyhedron(A_all[order], b_all[order])
        R = P.remove_redundancy()
        assert R.nrows == facet_count(A_all, b_all, V), trial
        assert R.contains_set(P) and P.contains_set(R), trial


def record_support_values(monkeypatch):
    """Replace the support_value that polytope calls by one that records
    each LP's rows and outcome."""
    calls = []
    real = fgmpc.polytope.support_value

    def record(a, A, b, **kwargs):
        out = real(a, A, b, **kwargs)
        calls.append((np.array(a), np.array(A), np.array(b), out[0]))
        return out

    monkeypatch.setattr(fgmpc.polytope, "support_value", record)
    return calls


def test_prune_lp_holds_only_the_other_kept_rows(monkeypatch):
    """Row i's LP is the rows still kept, without row i: those before it
    that survived and all those after it; no relaxed copy of row i."""
    rng = np.random.default_rng(3)
    A, b = random_bounded_polytope(rng, 3, 8)
    implied = rng.uniform(0.2, 1.0, size=(4, 2))
    pairs = [rng.choice(b.size, size=2, replace=False) for _ in range(4)]
    A = np.vstack([A] + [w @ A[ij] for w, ij in zip(implied, pairs)])
    b = np.concatenate([b] + [[w @ b[ij] + 0.5]
                              for w, ij in zip(implied, pairs)])
    P = HPolyhedron(A, b)
    calls = record_support_values(monkeypatch)
    kept = fgmpc.polytope._prune_lp(P.A, P.b)
    assert kept.size < P.nrows  # the implied rows go
    assert len(calls) == P.nrows
    for i, (a, A_lp, b_lp, _) in enumerate(calls):
        others = [j for j in range(P.nrows)
                  if j > i or (j < i and j in kept)]
        np.testing.assert_array_equal(a, P.A[i])
        np.testing.assert_array_equal(A_lp, P.A[others])
        np.testing.assert_array_equal(b_lp, P.b[others])


def test_prune_lp_keeps_rows_whose_lp_is_unbounded(monkeypatch):
    """{x <= 1, y <= 1, x + y <= 3, -x - y <= 1}: without x <= 1 (or
    y <= 1, or -x - y <= 1) the others leave that row's objective
    unbounded, so it stays; x + y <= 3 is implied and goes."""
    pytest.importorskip("scipy")
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, -1.0]])
    b = np.array([1.0, 1.0, 3.0, 1.0])
    P = HPolyhedron(A, b)
    calls = record_support_values(monkeypatch)
    R = P.remove_redundancy()
    outcomes = [out for *_, out in calls]
    # an LP that passes b_i stops early ("above") or ends unbounded
    assert outcomes[2] == "optimal" and outcomes[3] == "unbounded"
    assert set(outcomes[:2]) <= {"above", "unbounded"}
    assert R.nrows == 3
    assert not any(np.allclose(row, A[2] / np.sqrt(2.0)) for row in R.A)
    assert irredundant_rows(R.A, R.b).all()
    assert R.contains_set(P) and P.contains_set(R)


def test_contains_point_tolerance():
    P = unit_box(2)
    assert P.contains_point([0.0, 0.0])
    assert P.contains_point([1.0 + 0.5 * TOL, 0.0])
    assert not P.contains_point([1.0 + 2.0 * TOL, 0.0])


def test_contains_set_basic():
    P = unit_box(2)
    assert P.contains_set(P)
    inner = HPolyhedron.from_box([0.0 - 1e-12, -0.5], [1.0, 0.5])
    assert P.contains_set(inner)
    assert not inner.contains_set(P)
    wide = HPolyhedron.from_box([-1.0], [2.0])
    assert wide.contains_set(HPolyhedron.from_box([0.0 - 1e-12], [1.0]))


def test_contains_set_unbounded_inner():
    halfspace = HPolyhedron(np.array([[1.0, 0.0]]), np.array([0.0]))
    assert not unit_box(2).contains_set(halfspace)


def test_contains_set_empty_inner_vacuous():
    empty = HPolyhedron(np.array([[1.0], [-1.0]]), np.array([-1.0, 0.0]))
    assert unit_box(1).contains_set(empty)


def test_chebyshev_center():
    c, r = unit_box(3).chebyshev_center()
    np.testing.assert_allclose(c, np.zeros(3), atol=1e-9)
    assert abs(r - 1.0) < 1e-9
    point = HPolyhedron(np.array([[1.0], [-1.0]]), np.array([0.0, 0.0]))
    _, r0 = point.chebyshev_center()
    assert abs(r0) <= 1e-9
    empty = HPolyhedron(np.array([[1.0], [-1.0]]), np.array([-1.0, 0.0]))
    _, re = empty.chebyshev_center()
    assert re < 0.0
    marker = HPolyhedron(np.zeros((1, 2)), np.array([-1.0]))
    _, rm = marker.chebyshev_center()
    assert rm == -np.inf
    halfspace = HPolyhedron(np.array([[1.0, 0.0]]), np.array([1.0]))
    _, rh = halfspace.chebyshev_center()
    assert rh == np.inf


def test_is_empty():
    assert not unit_box(2).is_empty()
    assert HPolyhedron(np.array([[1.0], [-1.0]]),
                       np.array([-1.0, 0.0])).is_empty()


@pytest.mark.parametrize("query", ["is_empty", "project", "contains_set",
                                   "remove_redundancy", "project_hull"])
def test_failed_emptiness_lp_raises(monkeypatch, query):
    """An LP stopped at its pivot cap proves nothing: it must not read as
    an empty set, a containment, a redundant row or a facet. With no pivot
    allowed, every LP that must pivot raises. The box [1, 2]^2 leaves the
    origin outside, so its own phase 1 pivots: the first two queries fail
    at the emptiness LP, the next two at their support LPs. The unit box
    needs no LP to be non-empty, so its projection fails at a hull LP."""
    monkeypatch.setattr(fgmpc.solver, "_LP_PIVOTS_PER_SIZE", 0)
    P = HPolyhedron.from_box([1.0, 1.0], [2.0, 2.0])
    queries = {"is_empty": P.is_empty,
               "project": lambda: P.project([0]),
               "contains_set": lambda: unit_box(2).contains_set(P),
               "remove_redundancy": P.remove_redundancy,
               "project_hull": lambda: unit_box(2).project([0])}
    with pytest.raises(LimitError, match="_LP_PIVOTS_PER_SIZE"):
        queries[query]()


def test_zero_row_handling():
    # vacuous zero row dropped, infeasible zero row collapses the set
    P = HPolyhedron(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([5.0, 1.0]))
    assert P.nrows == 1
    Q = HPolyhedron(np.array([[0.0, 0.0], [1.0, 0.0]]),
                    np.array([-5.0, 1.0]))
    assert Q.is_empty()


def test_row_normalization():
    P = HPolyhedron(np.array([[10.0, 0.0]]), np.array([5.0]))
    np.testing.assert_allclose(np.max(np.abs(P.A), axis=1), [1.0])
    np.testing.assert_allclose(P.b, [0.5])


def test_immutability():
    P = unit_box(2)
    with pytest.raises(ValueError):
        P.A[0, 0] = 7.0
    with pytest.raises(ValueError):
        P.b[0] = 7.0


def test_hrep_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    A, b = random_bounded_polytope(rng, 3, 5)
    P = HPolyhedron(A, b)
    path = tmp_path / "poly.hrep"
    P.write(str(path))
    Q = HPolyhedron.read(str(path))
    assert Q.dim == P.dim and Q.nrows == P.nrows
    assert P.contains_set(Q) and Q.contains_set(P)
    head = path.read_text().splitlines()[0]
    assert head == "#hrep dim=3 rows={}".format(P.nrows)


def test_hrep_universe_round_trip(tmp_path):
    U = HPolyhedron.universe(2)
    path = tmp_path / "universe.hrep"
    U.write(str(path))
    V = HPolyhedron.read(str(path))
    assert V.dim == 2 and V.nrows == 0


def test_hrep_malformed(tmp_path):
    bad = tmp_path / "bad.hrep"
    bad.write_text("not a header\n1 0 1\n")
    with pytest.raises(ValueError):
        HPolyhedron.read(str(bad))
    bad.write_text("#hrep dim=oops rows=1\n1 0 1\n")
    with pytest.raises(ValueError):
        HPolyhedron.read(str(bad))
    bad.write_text("#hrep dim=2 rows=2\n1 0 1\n")
    with pytest.raises(ValueError):
        HPolyhedron.read(str(bad))
    bad.write_text("#hrep dim=2 rows=1\n1 0\n")
    with pytest.raises(ValueError):
        HPolyhedron.read(str(bad))
