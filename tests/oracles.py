"""Independent geometric oracles shared across test modules.

Everything here is deliberately built from first principles (dense linear
algebra, brute-force enumeration, gridding) so it shares no code path with
the library under test.
"""

import itertools

import numpy as np


def enumerate_vertices(A, b, feas_tol=1e-9):
    """All vertices of the bounded polytope {Ax <= b} by brute force:
    solve every dim-subset of rows, keep feasible intersection points."""
    m, n = A.shape
    verts = []
    for rows in itertools.combinations(range(m), n):
        sub = A[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, b[list(rows)])
        if np.all(A @ x <= b + feas_tol):
            verts.append(x)
    if not verts:
        return np.zeros((0, n))
    V = np.array(verts)
    # deduplicate within a small ball
    keep = []
    for i, v in enumerate(V):
        if all(np.linalg.norm(v - V[j]) > 1e-7 for j in keep):
            keep.append(i)
    return V[keep]


def convex_hull_2d(points):
    """Hull vertices in counter-clockwise order (Andrew's monotone chain)."""
    pts = sorted(map(tuple, np.asarray(points, dtype=float)))
    if len(pts) <= 2:
        return np.array(pts)

    def cross(o, a, b):
        return ((a[0] - o[0]) * (b[1] - o[1])
                - (a[1] - o[1]) * (b[0] - o[0]))

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 1e-12:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 1e-12:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def hull_to_hrep(hull):
    """Outward-normal H-rep rows of a CCW 2-D hull."""
    k = hull.shape[0]
    rows, offs = [], []
    for i in range(k):
        p, q = hull[i], hull[(i + 1) % k]
        edge = q - p
        normal = np.array([edge[1], -edge[0]])  # outward for CCW order
        nn = np.linalg.norm(normal)
        if nn < 1e-12:
            continue
        normal /= nn
        rows.append(normal)
        offs.append(normal @ p)
    return np.array(rows), np.array(offs)


def random_bounded_polytope(rng, n, extra):
    """Box plus random cuts through a known interior point: bounded,
    full-dimensional, non-empty by construction."""
    box_a = np.vstack([np.eye(n), -np.eye(n)])
    box_b = rng.uniform(0.5, 2.0, size=2 * n)
    cuts = rng.normal(size=(extra, n))
    cuts /= np.linalg.norm(cuts, axis=1)[:, None]
    interior = rng.uniform(-0.2, 0.2, size=n)
    cut_b = cuts @ interior + rng.uniform(0.15, 1.2, size=extra)
    return (np.vstack([box_a, cuts]),
            np.concatenate([box_b, cut_b]))


def highs_support(c, A, b):
    """max c'x over {A x <= b} by HiGHS (scipy): +inf when unbounded.
    Raises on an infeasible set. Callers skip the test without scipy."""
    from scipy.optimize import linprog

    res = linprog(-np.asarray(c, dtype=float), A_ub=A, b_ub=b,
                  bounds=(None, None), method="highs")
    if res.status == 3:
        return np.inf
    if res.status != 0:
        raise RuntimeError("HiGHS: {}".format(res.message))
    return -res.fun


def implied_rows(A, b, A_by, b_by, tol=1e-8):
    """Mask of the rows of {A x <= b} implied by {A_by x <= b_by}: the
    support of each row over the second set stays within tol of its
    offset. Rows are scaled to unit infinity norm first."""
    scale = np.max(np.abs(A), axis=1)
    return np.array([highs_support(a / s, A_by, b_by) <= bi / s + tol
                     for a, bi, s in zip(A, b, scale)], dtype=bool)


def irredundant_rows(A, b, tol=1e-8):
    """Mask of the rows of {A x <= b} that the other rows do not imply;
    row i is relaxed to b_i + 1 in its own test so that the LP stays
    bounded."""
    out = np.zeros(b.size, dtype=bool)
    for i in range(b.size):
        b_relaxed = b.copy()
        b_relaxed[i] += 1.0
        s = np.max(np.abs(A[i]))
        out[i] = highs_support(A[i] / s, A, b_relaxed) > b[i] / s + tol
    return out
