"""H-representation polyhedral calculus.

An HPolyhedron is the set {x : A x <= b}. Instances are immutable; every
operation returns a new object. Rows are stored scaled to unit infinity
norm so the global tolerance is scale-free.

Projection is the convex hull method (Lassez and Lassez, 1992): support
LPs over the input, in directions on the kept coordinates, grow an inner
hull of the image until an LP in the normal direction of each hull facet
confirms it. Its cost follows the number of facets of the image, not the
number of eliminated coordinates: about three warm-started LPs per facet,
all on one simplex tableau. The row of a confirmed facet comes from the
duals of its LP, a nonnegative combination of input rows, so structural
zeros stay exact.

Redundancy removal solves one LP per row against the rows still kept.
"""

import csv
import io
import itertools
import os
import stat
import tempfile

import numpy as np

from fgmpc.solver import (LimitError, LpProblem, Status, SupportLp, TOL,
                          min_violation, solve_lp, support_value)

# rows whose coefficient vector is numerically zero carry no geometry
ZERO_ROW = 1e-12

DEFAULT_ROW_CAP = 100_000  # hull facets before a projection gives up


def write_atomic(path, text):
    """Write text to path through a temp file in the same directory and a
    rename, so an interrupted write never leaves a truncated file behind
    and a failed one leaves an existing file as it was. The file gets the
    mode open(path, "w") would give it: that of the file it replaces,
    else 0o666 less the umask (mkstemp's own mode is 0o600)."""
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            os.fchmod(fh.fileno(), mode)
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
        return True

    def is_empty(self):
        if self.nrows == 0:
            return False
        t, _, _ = min_violation(self._A, self._b)
        return t > TOL

    def chebyshev_center(self):
        """Center and radius of the largest inscribed ball, via one LP.

        A negative radius flags an empty set (it is the best signed margin
        the rows allow; -inf when even that LP is infeasible). Radius +inf
        means inscribed balls grow without bound; the center is None in the
        infinite cases.
        """
        if self.nrows == 0:
            return None, np.inf
        # maximize r over a_i x + ||a_i|| r <= b_i
        radii = np.linalg.norm(self._A, axis=1)
        c = np.zeros(self.dim + 1)
        c[-1] = 1.0
        res = solve_lp(LpProblem(c, np.hstack([self._A, radii[:, None]]),
                                 self._b))
        if res.status is Status.INFEASIBLE:
            return None, -np.inf
        if res.status is Status.UNBOUNDED:
            return None, np.inf
        return res.x[:-1], float(res.x[-1])

    # -- reduction ---------------------------------------------------------

    def remove_redundancy(self):
        """Minimal representation: drops every row whose removal provably
        leaves the set unchanged (one support LP per row, early exit)."""
        sel = _dedup(self._A, self._b)
        A, b = self._A[sel], self._b[sel]
        kept = _prune_lp(A, b)
        return HPolyhedron(A[kept], b[kept])

    def project(self, keep_indices):
        """Orthogonal projection onto the kept coordinates, by the convex
        hull method (Lassez and Lassez, 1992).

        Support LPs over this set, in directions on the kept coordinates,
        give points of the projection; their convex hull is an inner
        approximation, grown by beneath-beyond insertion. Each hull facet
        is tested by one LP in its normal direction: a point beyond the
        facet joins the hull, otherwise the facet is a facet of the
        projection. A hull facet whose vertices all lie on an already
        confirmed plane is confirmed without an LP. Every LP has the same
        constraints, so phase 1 runs once and each LP starts from the
        basis the previous one left (SupportLp). The LPs number about
        three per facet of the projection, whatever the number of
        eliminated coordinates.

        The row of a confirmed facet is lam'A restricted to the kept
        columns, with offset lam'b, for the duals lam of its LP: a
        nonnegative combination of input rows whose other columns cancel,
        as a Fourier-Motzkin row is, so a coefficient that is zero in
        every row it combines stays exactly 0.0. No redundancy LP follows:
        the LP shows that the row's plane supports the projection, and
        that plane passes through the d affinely independent points of a
        hull facet, so the row is a facet of the projection. One row is
        kept per plane; duplicate removal only guards against rounding.

        When every coordinate is kept the rows are only permuted, without
        a support LP. Raises ValueError on an empty input, and on an image
        that is unbounded or not full-dimensional (naming the direction),
        and LimitError past DEFAULT_ROW_CAP hull facets.
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
        if len(keep) == self.dim:
            return HPolyhedron(self._A[:, keep], self._b)
        rows, offsets = _hull_facets(self._A, self._b, keep)
        sel = _dedup(rows, offsets)
        return HPolyhedron(rows[sel], offsets[sel])

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
    order."""
    m = b.size
    if m <= 1:
        return np.arange(m)
    key = np.round(A * 1e9).astype(np.int64)
    order = np.lexsort((b,) + tuple(key.T))
    K = key[order]
    first = np.ones(m, dtype=bool)
    first[1:] = np.any(K[1:] != K[:-1], axis=1)
    return np.sort(order[first])


def _prune_lp(A, b):
    """Sequential redundancy scan: row i goes when its support value over
    the other rows still kept stays at or below b_i. The LP holds only
    those rows: it stops early once its value passes b_i, and an
    unbounded or infeasible LP keeps the row. Returns the kept row
    indices, in input order."""
    keep = np.ones(b.size, dtype=bool)
    for i in range(b.size):
        others = np.nonzero(keep)[0]
        others = others[others != i]
        if others.size == 0:
            continue
        out, val, _ = support_value(A[i], A[others], b[others],
                                    stop_above=b[i] + TOL)
        if out == "optimal" and val <= b[i] + TOL:
            keep[i] = False
    return np.nonzero(keep)[0]


def _initial_simplex(support, d):
    """d + 1 affinely independent points of the image: support points in
    the directions +-e_i, chosen greedily by their distance to the affine
    hull of those already chosen, topped up by the support points in both
    directions orthogonal to that hull when none is farther than TOL.
    Raises ValueError when those are no farther either: the image is flat
    along that direction."""
    seeds = [support(s * e)[1] for e in np.eye(d) for s in (1.0, -1.0)]
    simplex = [seeds[0]]
    basis = np.zeros((0, d))  # orthonormal directions of the affine hull
    while len(simplex) <= d:
        res = np.array(seeds) - simplex[0]
        res -= (res @ basis.T) @ basis
        dist = np.linalg.norm(res, axis=1)
        j = int(np.argmax(dist))
        if dist[j] > TOL:
            simplex.append(seeds[j])
            basis = np.vstack([basis, res[j] / dist[j]])
            continue
        w = np.linalg.svd(np.vstack([basis, np.zeros((1, d))]))[2][-1]
        w /= np.max(np.abs(w))
        new = [support(s * w)[1] for s in (1.0, -1.0)]
        if np.max(np.abs((np.array(new) - simplex[0]) @ w)) <= TOL:
            raise ValueError("cannot project: the image is not "
                             "full-dimensional, it is flat along "
                             "direction {}".format((w + 0.0).tolist()))
        seeds += new
    return np.array(simplex)


def _plane(P, center):
    """The plane through the d points P (rows) as (normal, offset), the
    normal scaled to unit infinity norm and pointing away from center."""
    if P.shape[1] == 1:
        n = np.ones(1)
    else:
        n = np.linalg.svd(P[1:] - P[0])[2][-1]
    if n @ (center - P[0]) > 0.0:
        n = -n
    n /= np.max(np.abs(n))
    return n, float(np.max(P @ n))


def _hull_facets(A, b, keep):
    """The facet rows of the projection of {x : A x <= b} onto keep, by
    the convex hull method (see HPolyhedron.project), one row per
    confirmed plane (LimitError past DEFAULT_ROW_CAP)."""
    d = len(keep)
    lp = SupportLp(A, b)

    def support(c):
        """An optimal support LP of the image in direction c, and the
        point of the image it found."""
        full = np.zeros(A.shape[1])
        full[keep] = c
        st = lp.maximize(full)
        if st.status is Status.UNBOUNDED:
            raise ValueError("cannot project: the image is unbounded along"
                             " direction {}".format((c + 0.0).tolist()))
        if not st.optimal:
            raise RuntimeError("hull LP failed: {}".format(st.status.value))
        return st, st.x[keep]

    V = list(_initial_simplex(support, d))
    center = np.mean(V, axis=0)  # stays inside the growing hull
    facets = {}  # key: (sorted vertex indices, outward normal, offset)
    todo = []  # keys of the facets to test, tested last in first out
    keys = itertools.count()
    rows, offsets = np.zeros((0, d)), np.zeros(0)

    def add_facet(verts):
        key = next(keys)
        n, h = _plane(np.array([V[v] for v in verts]), center)
        facets[key] = (tuple(sorted(verts)), n, h)
        todo.append(key)

    for k in range(d + 1):
        add_facet([v for v in range(d + 1) if v != k])
    while todo:
        key = todo.pop()
        if key not in facets:
            continue
        verts, n, h = facets[key]
        P = np.array([V[v] for v in verts])
        if np.any(np.max(np.abs(rows @ P.T - offsets[:, None]), axis=1)
                  <= TOL):
            continue  # on a confirmed plane
        st, y = support(n)
        if n @ y <= h + TOL:
            # the dual row (lam'A[:, keep], lam'b), at unit infinity norm
            a = st.lam @ A[:, keep]
            scale = np.max(np.abs(a))
            rows = np.vstack([rows, a / scale])
            offsets = np.append(offsets, st.lam @ b / scale)
            facets[key] = (verts, n, max(h, float(n @ y)))
            continue
        # y is beyond this facet: every facet that sees y gives way to the
        # cone from y over their horizon, the ridges only one of them has
        V.append(y)
        ridges = {}
        for k in [k for k, (_, m, g) in facets.items() if m @ y > g + TOL]:
            vs = facets.pop(k)[0]
            for i in range(d):
                r = vs[:i] + vs[i + 1:]
                ridges[r] = ridges.get(r, 0) + 1
        for r, count in ridges.items():
            if count == 1:
                add_facet(list(r) + [len(V) - 1])
        if len(facets) > DEFAULT_ROW_CAP:
            raise LimitError("projection of {} rows onto {} coordinates, "
                             "at {} hull facets,".format(b.size, d,
                                                         len(facets)),
                             "DEFAULT_ROW_CAP", DEFAULT_ROW_CAP)
    return rows, offsets
