"""H-representation polyhedral calculus.

An HPolyhedron is the set {x : A x <= b}. Instances are immutable; every
operation returns a new object. Rows are stored scaled to unit infinity
norm so the global tolerance is scale-free. Projection is Fourier-Motzkin
elimination with redundancy removal interleaved after every eliminated
variable, which is what keeps intermediate row counts alive through a
10-step condensed horizon. Most redundant rows go without an LP, by
counting ancestors (Chernikov's rule: after k eliminations, a row built
from more than k + 1 original rows is redundant). A row that the last
prune kept and that passes an elimination unchanged (a zero coefficient on
the eliminated variable) is still a facet, so it is kept without an LP.
The rest are pruned by support LPs against the rows already certified
irredundant, and a certificate is confirmed by a further LP only when the
ray that found it hit a lower-dimensional face, the one case where it may
be tangent.
"""

import csv
import io
import os
import tempfile

import numpy as np

from fgmpc.solver import (LpProblem, Status, TOL, min_violation, solve_lp,
                          support_value)

# rows whose coefficient vector is numerically zero carry no geometry
ZERO_ROW = 1e-12

DEFAULT_ROW_CAP = 100_000


class ProjectionBlowupError(RuntimeError):
    """Raised when the intermediate row count exceeds the configured cap."""

    def __init__(self, rows, cap):
        self.rows = rows
        self.cap = cap
        super().__init__(
            "projection intractable: {} intermediate rows exceed the cap of"
            " {}".format(rows, cap))


def write_atomic(path, text):
    """Write text to path through a temp file in the same directory and a
    rename, so an interrupted write never leaves a truncated file behind
    and a failed one leaves an existing file as it was."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    """Write a header line and the rows as CSV to path, atomically."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, buf.getvalue())


class HPolyhedron:
    """Polyhedron {x : A x <= b} with normalized, finite rows.

    Construction normalizes each row by its infinity norm. Rows with a
    numerically zero coefficient vector are dropped when their offset is
    nonnegative (0 <= b is vacuous) and collapse the set to a canonical
    empty representation when the offset is negative (0 <= b < 0 is
    unsatisfiable).
    """

    def __init__(self, A, b):
        A = np.array(A, dtype=float)
        if A.ndim != 2:
            A = np.atleast_2d(A)
        b = np.array(b, dtype=float).ravel()
        if A.shape[0] != b.size:
            raise ValueError("A has {} rows but b has {} entries".format(
                A.shape[0], b.size))
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("polyhedron data must be finite")
        norms = np.max(np.abs(A), axis=1) if A.size else np.zeros(0)
        tiny = norms < ZERO_ROW
        if np.any(tiny & (b < -ZERO_ROW)):
            # 0'x <= b with b < 0 is unsatisfiable: canonical empty set
            self._A = np.zeros((1, A.shape[1]))
            self._b = np.array([-1.0])
        else:
            keep = ~tiny
            self._A = A[keep] / norms[keep, None]
            self._b = b[keep] / norms[keep]
        self._A.setflags(write=False)
        self._b.setflags(write=False)
        self._dim = A.shape[1]

    @property
    def A(self):
        return self._A

    @property
    def b(self):
        return self._b

    @property
    def dim(self):
        return self._dim

    @property
    def nrows(self):
        return self._b.size

    def __repr__(self):
        return "HPolyhedron(dim={}, rows={})".format(self.dim, self.nrows)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_box(cls, lower, upper):
        """Axis-aligned box {x : lower <= x <= upper} as 2n rows."""
        lower = np.asarray(lower, dtype=float).ravel()
        upper = np.asarray(upper, dtype=float).ravel()
        if lower.size != upper.size:
            raise ValueError("bound vectors differ in length")
        if np.any(lower >= upper):
            raise ValueError("inverted bounds: lower must be strictly below "
                             "upper in every coordinate")
        n = lower.size
        return cls(np.vstack([np.eye(n), -np.eye(n)]),
                   np.concatenate([upper, -lower]))

    @classmethod
    def universe(cls, dim):
        """The whole space (no constraints)."""
        return cls(np.zeros((0, dim)), np.zeros(0))

    # -- algebra -----------------------------------------------------------

    def scale(self, s):
        """Dilation {x : A x <= s b}; correct as scaling when 0 is interior."""
        if s <= 0.0:
            raise ValueError("scale factor must be positive")
        return HPolyhedron(self._A, s * self._b)

    def intersect(self, other):
        """Stacked rows of both sets; redundancy is not removed."""
        if other.dim != self.dim:
            raise ValueError("dimension mismatch: {} vs {}".format(
                self.dim, other.dim))
        return HPolyhedron(np.vstack([self._A, other._A]),
                           np.concatenate([self._b, other._b]))

    def slice(self, fixed_indices, fixed_values):
        """Cross-section: substitute fixed coordinate values, returning a
        polyhedron over the remaining coordinates (original order)."""
        fixed = [int(i) for i in fixed_indices]
        vals = np.asarray(fixed_values, dtype=float).ravel()
        if len(fixed) != vals.size:
            raise ValueError("index and value counts differ")
        if len(set(fixed)) != len(fixed):
            raise ValueError("fixed indices must be distinct")
        for i in fixed:
            if not 0 <= i < self.dim:
                raise ValueError("index {} out of range for dimension {}"
                                 .format(i, self.dim))
        keep = [i for i in range(self.dim) if i not in fixed]
        b_new = self._b - self._A[:, fixed] @ vals
        return HPolyhedron(self._A[:, keep], b_new)

    # -- queries -----------------------------------------------------------

    def contains_point(self, x, tol=TOL):
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.dim:
            raise ValueError("point dimension {} does not match {}".format(
                x.size, self.dim))
        if self.nrows == 0:
            return True
        return bool(np.all(self._A @ x <= self._b + tol))

    def contains_set(self, other, tol=TOL):
        """True iff other is a subset of self, by one support LP per row of
        self. Directions in which other is unbounded count as
        non-containment; an empty other is vacuously contained."""
        if other.dim != self.dim:
            raise ValueError("dimension mismatch: {} vs {}".format(
                self.dim, other.dim))
        for a, bi in zip(self._A, self._b):
            out, val, _ = support_value(a, other._A, other._b,
                                        stop_above=bi + tol)
            if out == "infeasible":
                return True
            if out == "above" or out == "unbounded":
                return False
            if out == "iteration_limit":
                raise RuntimeError("support LP hit its pivot cap")
        return True

    def is_empty(self, tol=TOL):
        if self.nrows == 0:
            return False
        t, _, _ = min_violation(self._A, self._b)
        return t > tol

    def chebyshev_center(self):
        """Center and radius of the largest inscribed ball, via one LP.

        A negative radius flags an empty set (it is the best signed margin
        the rows allow; -inf when even that LP is infeasible). Radius +inf
        means inscribed balls grow without bound; the center is None in the
        infinite cases.
        """
        if self.nrows == 0:
            return None, np.inf
        res = _inscribed_ball(self._A, self._b)
        if res.status is Status.INFEASIBLE:
            return None, -np.inf
        if res.status is Status.UNBOUNDED:
            return None, np.inf
        if res.status is not Status.OPTIMAL:
            raise RuntimeError("chebyshev LP failed: {}".format(res.status))
        return res.x[:-1], float(res.x[-1])

    # -- reduction ---------------------------------------------------------

    def remove_redundancy(self, tol=TOL):
        """Minimal representation: drops every row whose removal provably
        leaves the set unchanged (one support LP per row, early exit)."""
        sel, _ = _dedup(self._A, self._b)
        A, b = self._A[sel], self._b[sel]
        kept, _ = _prune_lp(A, b, tol=tol)
        return HPolyhedron(A[kept], b[kept])

    def project(self, keep_indices, row_cap=DEFAULT_ROW_CAP):
        """Orthogonal projection onto the kept coordinates.

        Fourier-Motzkin elimination, one variable at a time in greedy
        min-fill order (smallest positive-row x negative-row product), with
        ancestor, duplicate and LP redundancy pruning after every
        elimination. Raises ProjectionBlowupError when an intermediate
        system would exceed row_cap rows (counted before any pruning), and
        ValueError on an empty input.

        Every row carries the set of base rows it combines, its ancestors;
        the base is the input. After k eliminations a row with more than
        k + 1 ancestors is redundant (Chernikov's rule) and goes without an
        LP. The rule relies on every row that touches the projection being
        present: when duplicate removal drops a row as tight as the one it
        keeps, or the LP prune drops a row that touches the set without
        being a facet (a tangent row), the rows that survive become the new
        base and k restarts at 0.

        A row that the previous prune kept and that passes an elimination
        unchanged is a pass-through facet: it needs no LP. Some point of
        the previous set's other rows violates it, and the projection of
        that point satisfies every new row but this one, because the new
        rows without it are exactly the elimination of the other rows. The
        first elimination seeds no row, since the input was never pruned.
        """
        keep = [int(i) for i in keep_indices]
        if len(set(keep)) != len(keep):
            raise ValueError("keep indices must be distinct")
        for i in keep:
            if not 0 <= i < self.dim:
                raise ValueError("index {} out of range for dimension {}"
                                 .format(i, self.dim))
        if self.is_empty():
            raise ValueError("cannot project an empty polyhedron")
        cols = list(range(self.dim))
        A = np.array(self._A)
        b = np.array(self._b)
        # anc[r, i]: base row i is an ancestor of row r
        anc = np.eye(b.size, dtype=bool)
        depth = 0
        # the input was never pruned, so no row is a known facet yet
        pruned = False
        while True:
            elim = [j for j, c in enumerate(cols) if c not in keep]
            if not elim:
                break
            # greedy min-fill: eliminate the variable with the smallest
            # positive x negative row-count product
            best_j, best_score = None, None
            for j in elim:
                col = A[:, j]
                score = (int(np.sum(col > ZERO_ROW)) *
                         int(np.sum(col < -ZERO_ROW)))
                if best_score is None or score < best_score:
                    best_j, best_score = j, score
            A, b, anc, passed = _eliminate(A, b, anc, best_j, row_cap)
            del cols[best_j]
            depth += 1
            facet = passed & pruned
            few = np.count_nonzero(anc, axis=1) <= depth + 1
            A, b, anc, facet = A[few], b[few], anc[few], facet[few]
            sel, tied = _dedup(A, b)
            A, b, anc, facet = A[sel], b[sel], anc[sel], facet[sel]
            kept, tangent = _prune_lp(A, b, np.nonzero(facet)[0], tol=TOL)
            A, b, anc = A[kept], b[kept], anc[kept]
            pruned = True
            if tied or tangent.size:
                anc = np.eye(b.size, dtype=bool)
                depth = 0
        # order the surviving columns as requested
        perm = [cols.index(i) for i in keep]
        return HPolyhedron(A[:, perm], b)

    # -- file format --------------------------------------------------------

    def write(self, path):
        """Write the H-rep text format atomically (temp file + rename)."""
        lines = ["#hrep dim={} rows={}".format(self.dim, self.nrows)]
        for a, bi in zip(self._A, self._b):
            lines.append(" ".join("%.17g" % v for v in a) + " %.17g" % bi)
        write_atomic(path, "\n".join(lines) + "\n")

    @classmethod
    def read(cls, path):
        """Parse the H-rep text format written by write()."""
        with open(path) as fh:
            header = fh.readline().strip()
            if not header.startswith("#hrep"):
                raise ValueError("{}: missing #hrep header".format(path))
            try:
                fields = dict(tok.split("=") for tok in header.split()[1:])
                dim = int(fields["dim"])
                rows = int(fields["rows"])
            except (KeyError, ValueError):
                raise ValueError("{}: malformed #hrep header: {!r}".format(
                    path, header))
            data = []
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                vals = [float(tok) for tok in line.split()]
                if len(vals) != dim + 1:
                    raise ValueError("{}: row with {} values, expected {}"
                                     .format(path, len(vals), dim + 1))
                data.append(vals)
        if len(data) != rows:
            raise ValueError("{}: header promises {} rows, found {}".format(
                path, rows, len(data)))
        if rows == 0:
            return cls(np.zeros((0, dim)), np.zeros(0))
        arr = np.array(data)
        return cls(arr[:, :dim], arr[:, dim])


def _dedup(A, b):
    """Duplicate removal: rows with the same normalized coefficients keep
    only the tightest offset. Returns the surviving row indices in input
    order, and whether a dropped row was as tight as its survivor."""
    m = b.size
    if m <= 1:
        return np.arange(m), False
    key = np.round(A * 1e9).astype(np.int64)
    order = np.lexsort((b,) + tuple(key.T))
    K = key[order]
    first = np.ones(m, dtype=bool)
    first[1:] = np.any(K[1:] != K[:-1], axis=1)
    b_sorted = b[order]
    lead = np.maximum.accumulate(np.where(first, np.arange(m), 0))
    tied = bool(np.any(~first & (b_sorted <= b_sorted[lead] + TOL)))
    return np.sort(order[first]), tied


def _prune_lp(A, b, facets=(), tol=TOL):
    """LP redundancy removal, output-sensitive.

    Rows are tested against the set of already-certified irredundant rows
    only; a support value at or below b_i over that subset is a sound
    redundancy proof, because the subset's polyhedron contains the full
    one. When a test point violates row i instead, the segment from a
    strict interior point to it crosses the boundary first at row j, which
    joins the certified set. With r irredundant rows out of m this costs
    O(m) LPs of size r instead of size m.

    A certificate j is provably irredundant when the first hit is unique:
    past the hit point the ray stays inside every other row for a while,
    and if it gains more than tol on row j before another row binds, the
    pairwise test below would keep j as well. Only a certificate whose hit
    ties with another row's within that margin (the ray meets a
    lower-dimensional face, where j may be tangent) is a suspect, and only
    suspects are confirmed by the pairwise test against all kept rows. Sets
    without a usable interior point (empty, flat, or containing
    arbitrarily large balls) fall back to the pairwise scan of every row.
    The rows listed in facets are known to be irredundant: they start out
    certified and are never tested.

    Returns the indices of the irredundant rows and of the redundant rows
    that still touch the set (support value within tol of the offset),
    both in input order.
    """
    m = b.size
    if m <= 1:
        return np.arange(m), np.zeros(0, dtype=int)
    ball = _inscribed_ball(A, b)
    facets = np.asarray(facets, dtype=int)
    in_certified = np.zeros(m, dtype=bool)
    in_certified[facets] = True
    if ball.status is not Status.OPTIMAL or ball.value <= 1e-7:
        return _prune_lp_pairwise(A, b, np.nonzero(~in_certified)[0], tol)
    z = ball.x[:-1]

    margins = b - A @ z
    certified = [int(i) for i in facets]
    suspect = []
    redundant = np.zeros(m, dtype=bool)
    tangent = np.zeros(m, dtype=bool)
    for i in range(m):
        if in_certified[i]:
            continue
        while True:
            A_lp = np.vstack([A[certified], A[i:i + 1]])
            b_lp = np.concatenate([b[certified], [b[i] + 1.0]])
            out, val, xs = support_value(A[i], A_lp, b_lp,
                                         stop_above=b[i] + tol)
            if out == "iteration_limit":
                raise RuntimeError("redundancy LP hit its pivot cap")
            if out == "optimal" and val <= b[i] + tol:
                redundant[i] = True
                tangent[i] = val >= b[i] - tol
                break
            # xs violates row i: the first row crossed on the way from the
            # interior point is a new certificate. Certified rows lie at
            # t >= 1 and row i below 1, so progress is sure.
            d = xs - z
            den = A @ d
            t = np.full(m, np.inf)
            ok = (den > 1e-12) & ~redundant
            t[ok] = margins[ok] / den[ok]
            j = int(np.argmin(t))
            # the gain on row j before the next hit; twice tol, so that
            # rounding in t cannot pass a tie off as a unique hit
            t_j, t[j] = t[j], np.inf
            if (np.min(t) - t_j) * den[j] <= 2.0 * tol:
                suspect.append(j)
            certified.append(j)
            in_certified[j] = True
            if j == i:
                break
    kept = np.sort(np.asarray(certified, dtype=int))
    tangent = np.nonzero(tangent)[0]
    if suspect:
        pos = np.searchsorted(kept, np.sort(suspect))
        k_sub, t_sub = _prune_lp_pairwise(A[kept], b[kept], pos, tol)
        tangent = np.union1d(tangent, kept[t_sub])
        kept = kept[k_sub]
    return kept, tangent


def _inscribed_ball(A, b):
    """The LP for the largest inscribed ball of {x : A x <= b}: maximize r
    over a_i x + ||a_i|| r <= b_i. Its solution is (center, radius)."""
    radii = np.linalg.norm(A, axis=1)
    c = np.zeros(A.shape[1] + 1)
    c[-1] = 1.0
    return solve_lp(LpProblem(c, np.hstack([A, radii[:, None]]), b))


def _prune_lp_pairwise(A, b, test, tol=TOL):
    """Sequential redundancy scan over the rows listed in test (ascending):
    row i goes when its support value over the remaining rows (plus the
    relaxed bound b_i + 1, which keeps the LP bounded) stays at or below
    b_i. Returns the kept row indices and the removed rows that still
    touch the set, both in input order."""
    m = b.size
    keep = np.ones(m, dtype=bool)
    tangent = np.zeros(m, dtype=bool)
    for i in test:
        others = np.nonzero(keep)[0]
        others = others[others != i]
        if others.size == 0:
            continue
        A_lp = np.vstack([A[others], A[i]])
        b_lp = np.concatenate([b[others], [b[i] + 1.0]])
        out, val, _ = support_value(A[i], A_lp, b_lp, stop_above=b[i] + tol)
        if out == "optimal" and val <= b[i] + tol:
            keep[i] = False
            tangent[i] = val >= b[i] - tol
        elif out == "iteration_limit":
            raise RuntimeError("redundancy LP hit its pivot cap")
    return np.nonzero(keep)[0], np.nonzero(tangent)[0]


def _eliminate(A, b, anc, j, row_cap):
    """One Fourier-Motzkin step removing column j.

    Rows with a zero coefficient pass through; every pair of a positive and
    a negative row yields their combination. anc[r] marks the base rows
    that row r combines (its ancestors); a combined row's ancestors are the
    union of its parents'. Returns the new A, b and anc, and a mask of the
    rows that passed through.
    """
    col = A[:, j]
    pos = col > ZERO_ROW
    neg = col < -ZERO_ROW
    zero = ~(pos | neg)
    n_new = int(np.sum(zero)) + int(np.sum(pos)) * int(np.sum(neg))
    if n_new > row_cap:
        raise ProjectionBlowupError(n_new, row_cap)
    P = A[pos] / col[pos, None]
    bp = b[pos] / col[pos]
    Ng = A[neg] / (-col[neg, None])
    bn = b[neg] / (-col[neg])
    comb = (P[:, None, :] + Ng[None, :, :]).reshape(-1, A.shape[1])
    bcomb = (bp[:, None] + bn[None, :]).ravel()
    anc_comb = (anc[pos][:, None, :] | anc[neg][None, :, :]).reshape(
        -1, anc.shape[1])
    A_new = np.vstack([A[zero], comb])
    b_new = np.concatenate([b[zero], bcomb])
    anc_new = np.vstack([anc[zero], anc_comb])
    passed = np.arange(b_new.size) < int(np.sum(zero))
    A_new = np.delete(A_new, j, axis=1)
    # renormalize and drop vacuous rows; a negative-offset zero row would
    # mean an empty input, which project() has already excluded
    norms = np.max(np.abs(A_new), axis=1) if A_new.size else np.zeros(0)
    keep = norms >= ZERO_ROW
    return (A_new[keep] / norms[keep, None], b_new[keep] / norms[keep],
            anc_new[keep], passed[keep])
