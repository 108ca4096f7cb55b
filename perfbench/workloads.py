"""The three benchmark workloads.

Each workload builds its inputs from the seed alone, so one seed gives
one sequence of operations. ``setup`` builds what every operation
shares, ``instance(i)`` the input of operation i, ``run`` performs and
times one operation, and ``check`` verifies its output through
``oracles`` outside the timed window. Calls into fgmpc go through module
attributes looked up at call time, so the tracer's wrappers see them.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import time

import numpy as np

from fgmpc import cli, governor, mpc, plant, polytope, sim, synthesis

import oracles

# the double integrator of the paper, 0.1 s sample time, y = (x1, x2, u)
DOUBLE_INTEGRATOR = {
    "A": [[1.0, 0.1], [0.0, 1.0]],
    "B": [[0.0], [0.1]],
    "C": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
    "D": [[0.0], [0.0], [1.0]],
    "E": [[1.0, 0.0]],
    "F": [[0.0]],
    "ts": 0.1,
}
WIDE_BOX = ([-20.0, -1.0, -0.25], [20.0, 1.0, 0.25])
# step of the R3 low-discrepancy sequence: powers of 1/g, where g is the
# positive root of g^4 = g + 1
_R3 = 1.0 / 1.2207440846057596 ** np.arange(1, 4)


def _digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _log_digest(log):
    return _digest(log.x, log.u, log.y, log.z, log.v, log.V, log.x_final)


def _write_config(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)


class OfflineSets:
    """One operation is ``fgmpc sets`` on the tight-box double integrator
    at N = 10 with slices 0 and 0.5, called in-process."""

    name = "offline_sets"
    same_input = True
    min_ops = 2
    traced_ops = 1
    sample_points = 100

    def __init__(self, seed, work_dir):
        self.seed = seed
        scale = 1.0 if seed == 0 else \
            float(np.random.default_rng(seed).uniform(0.95, 1.05))
        half = scale * np.array([1.0, 0.25, 0.25])
        self.config = {"plant": DOUBLE_INTEGRATOR,
                       "Y": {"lower": (-half).tolist(),
                             "upper": half.tolist()},
                       "eps": 0.01, "Q": [[1.0, 0.0], [0.0, 1.0]],
                       "R": [[1.0]], "N": 10, "slices": [0.0, 0.5]}
        self.config_path = os.path.join(work_dir, "offline_sets.json")
        self.out_dir = os.path.join(work_dir, "offline_sets")

    @contextlib.contextmanager
    def _capture_writes(self, written):
        """Keep every polyhedron that ``sets`` exports, so the files can be
        compared with the sets the program held in memory."""
        write = polytope.HPolyhedron.write

        def capture(poly, path):
            write(poly, path)
            written.append((os.path.basename(path), poly.A, poly.b))

        polytope.HPolyhedron.write = capture
        try:
            yield
        finally:
            polytope.HPolyhedron.write = write

    def setup(self):
        """Write the config, parse it, and build the terminal ingredients
        the verb starts from."""
        _write_config(self.config_path, self.config)
        cfg = cli.ScenarioConfig.from_file(self.config_path)
        em = plant.equilibrium_basis(cfg.plant)
        plant.ConstraintSpec(cfg.plant, em, cfg.Y, cfg.eps)
        rs = synthesis.solve_dare(cfg.plant.A, cfg.plant.B, cfg.Q, cfg.R)
        T = synthesis.terminal_set(cfg.plant, em, rs, cfg.Y,
                                   cfg.eps_terminal)
        self.T = (T.set_xv.A, T.set_xv.b)
        return _digest(*self.T)

    def instance(self, i):
        return i

    def run(self, i):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        written = []
        with self._capture_writes(written):
            tic = time.perf_counter()
            rc = cli.main(["sets", "--config", self.config_path,
                           "--out", self.out_dir, "--quiet"])
            sets_s = time.perf_counter() - tic
        return {"op_s": sets_s, "sets_s": sets_s, "rc": rc,
                "written": written}

    def check(self, i, res):
        if res["rc"] != 0:
            return ["fgmpc sets exited {}".format(res["rc"])]
        fails = []
        files = {}
        for name, A, b in res["written"]:
            fA, fb = oracles.read_hrep(os.path.join(self.out_dir, name))
            files[name] = (fA, fb)
            if not (np.array_equal(fA, A) and np.array_equal(fb, b)):
                fails.append("{} does not read back equal".format(name))
        expected = {"T.hrep", "GammaN.hrep", "Lambda.hrep", "Reps.hrep",
                    "RoaFG.hrep"}
        if set(files) != expected:
            return fails + ["exported {}".format(sorted(files))]
        T = files["T.hrep"]
        if not (np.array_equal(T[0], self.T[0])
                and np.array_equal(T[1], self.T[1])):
            fails.append("T.hrep differs from the terminal set of set-up")
        gamma = files["GammaN.hrep"]
        Y = oracles.box(self.config["Y"]["lower"], self.config["Y"]["upper"])
        rng = np.random.default_rng([self.seed, i])
        di = self.config["plant"]
        counts, mismatches = oracles.check_membership(
            gamma, di, Y, T, self.config["N"], len(di["A"]), rng,
            self.sample_points)
        fails += mismatches
        bad = oracles.check_subset(T, gamma)
        if bad:
            fails.append("T leaves Gamma_N through rows {}".format(bad))
        res["oracle_points"] = counts
        res["gamma_rows"] = int(gamma[1].size)
        return fails

    def fingerprint(self, res):
        h = hashlib.sha256()
        for name in sorted(os.listdir(self.out_dir)):
            with open(os.path.join(self.out_dir, name), "rb") as fh:
                h.update(name.encode() + fh.read())
        return h.hexdigest()[:16]

    def report(self, results):
        points = {"inside": 0, "outside": 0, "skipped": 0}
        for res in results:
            for key, val in res.get("oracle_points", {}).items():
                points[key] += val
        return [
            timing("sets_s", [res["sets_s"] for res in results], "s"),
            ("gamma_rows", results[0].get("gamma_rows", 0), "rows",
             "rows of the exported Gamma_N"),
            ("oracle_points", points["inside"] + points["outside"], "count",
             "{inside} inside, {outside} outside, {skipped} skipped near "
             "the boundary".format(**points)),
        ]


class GovernedLoop:
    """One operation is one governed closed loop (MPC+FG, N = 10) on the
    wide-range double integrator, from a seeded state in the governed
    region of attraction toward a seeded reference.

    The slowest starts, at the far corners of the region with r beyond
    the other end of R_eps, settle to 1e-3 only after about 606 steps, so
    600 steps are too few for every run to pass its checks; 800 leave a
    margin."""

    name = "governed_loop"
    same_input = False
    min_ops = 1
    traced_ops = 2
    budget = 800
    r_range = 25.0

    def __init__(self, seed, work_dir):
        self.seed = seed
        self._starts = []

    def setup(self):
        """Terminal set from unit weights, controller with Q = 100 I,
        Gamma_10, Lambda and the governed region of attraction."""
        di = {k: DOUBLE_INTEGRATOR[k] for k in "ABCDEF"}
        self.plant = plant.LtiPlant(ts=DOUBLE_INTEGRATOR["ts"], **di)
        em = plant.equilibrium_basis(self.plant)
        self.Y = polytope.HPolyhedron.from_box(*WIDE_BOX)
        self.spec = plant.ConstraintSpec(self.plant, em, self.Y, 0.01)
        A, B = self.plant.A, self.plant.B
        rs_ctrl = synthesis.solve_dare(A, B, 100.0 * np.eye(2), [[1.0]])
        rs_nom = synthesis.solve_dare(A, B, np.eye(2), [[1.0]])
        T = synthesis.terminal_set(self.plant, em, rs_nom, self.Y, 0.01)
        self.design = mpc.OcpDesign(10, 100.0 * np.eye(2), [[1.0]],
                                    rs_ctrl.P, rs_ctrl.K, T, self.Y)
        self.qp = mpc.condense(self.plant, self.design, em)
        gamma = mpc.feasible_set(self.qp)
        self.gp = governor.GovernorProblem(gamma, self.spec.R_eps)
        self.roa = governor.roa(self.gp)
        self.Lam = (self.gp.Lambda.A, self.gp.Lambda.b)
        return _digest(*self.Lam, self.roa.A, self.roa.b)

    def instance(self, i):
        """x0 uniform in the governed ROA and r uniform in [-25, 25].

        The points come from a low-discrepancy sequence over the ROA's
        bounding box times the range of r, shifted by the seed and thinned
        to the ROA (1e-6 inside every facet). Every run then covers the
        inputs evenly, so its median does not hinge on which easy or hard
        starts the seed happened to draw.
        """
        A, b = self.roa.A, self.roa.b
        if not self._starts:
            hi = np.array([oracles.support(A, b, e) for e in np.eye(2)])
            lo = -np.array([oracles.support(A, b, -e) for e in np.eye(2)])
            self._box = (np.append(lo, -self.r_range),
                         np.append(hi, self.r_range))
            self._point = np.random.default_rng(self.seed).random(3)
        lo, hi = self._box
        while len(self._starts) <= i:
            self._point = (self._point + _R3) % 1.0
            p = lo + self._point * (hi - lo)
            if np.all(A @ p[:2] <= b - 1e-6):
                self._starts.append((p[:2], p[2:]))
        return self._starts[i]

    def run(self, inst):
        x0, r = inst
        sc = sim.Scenario(self.plant, self.spec, self.design, "MPC+FG", x0,
                          r, self.budget)
        tic = time.perf_counter()
        log = sim.run_closed_loop(sc, qp=self.qp, gp=self.gp)
        loop_s = time.perf_counter() - tic
        return {"op_s": loop_s, "loop_s": loop_s, "log": log}

    def check(self, inst, res):
        return oracles.check_governed(
            res["log"], self.Lam, DOUBLE_INTEGRATOR,
            WIDE_BOX[0], WIDE_BOX[1], 0.01, inst[1])

    def fingerprint(self, res):
        return _log_digest(res["log"])

    def report(self, results):
        return loop_report(results)


class LongHorizon:
    """One operation is ``fgmpc nstar`` on the wide-range config from
    x0 = (x, 0), then plain MPC at the horizon N* it found."""

    name = "long_horizon"
    same_input = True
    min_ops = 2
    traced_ops = 2
    budget = 500

    def __init__(self, seed, work_dir):
        self.seed = seed
        x = -5.0 if seed == 0 else \
            float(np.random.default_rng(seed).uniform(-5.05, -4.95))
        self.config = {"plant": DOUBLE_INTEGRATOR,
                       "Y": {"lower": WIDE_BOX[0], "upper": WIDE_BOX[1]},
                       "eps": 0.01, "Q": [[100.0, 0.0], [0.0, 100.0]],
                       "R": [[1.0]], "N": 1, "x0": [x, 0.0], "r": [4.0],
                       "cap": 400}
        self.config_path = os.path.join(work_dir, "long_horizon.json")

    def setup(self):
        """Write and parse the config, and build the terminal ingredients
        that the MPC at N* and the oracle use."""
        _write_config(self.config_path, self.config)
        cfg = self.cfg = cli.ScenarioConfig.from_file(self.config_path)
        em = plant.equilibrium_basis(cfg.plant)
        self.em = em
        self.spec = plant.ConstraintSpec(cfg.plant, em, cfg.Y, cfg.eps)
        self.rs = synthesis.solve_dare(cfg.plant.A, cfg.plant.B, cfg.Q,
                                       cfg.R)
        self.T = synthesis.terminal_set(cfg.plant, em, self.rs, cfg.Y,
                                        cfg.eps_terminal)
        return _digest(self.T.set_xv.A, self.T.set_xv.b)

    def instance(self, i):
        return i

    def run(self, i):
        cfg = self.cfg
        out = io.StringIO()
        tic = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["nstar", "--config", self.config_path, "--quiet"])
        nstar_s = time.perf_counter() - tic
        m = re.search(r"N\* = (\d+)", out.getvalue())
        res = {"rc": rc, "nstar_s": nstar_s, "n_star": None}
        if rc != 0 or m is None:
            res["op_s"] = time.perf_counter() - tic
            return res
        n = res["n_star"] = int(m.group(1))
        design = mpc.OcpDesign(n, cfg.Q, cfg.R, self.rs.P, self.rs.K,
                               self.T, cfg.Y)
        qp = mpc.condense(cfg.plant, design, self.em)
        sc = sim.Scenario(cfg.plant, self.spec, design, "MPC", cfg.x0,
                          cfg.r, self.budget)
        loop_tic = time.perf_counter()
        res["log"] = sim.run_closed_loop(sc, qp=qp)
        res["loop_s"] = time.perf_counter() - loop_tic
        res["op_s"] = time.perf_counter() - tic
        return res

    def check(self, i, res):
        if res["rc"] != 0 or res["n_star"] is None:
            return ["fgmpc nstar exited {} without N*".format(res["rc"])]
        n = res["n_star"]
        Y = oracles.box(*WIDE_BOX)
        T = (self.T.set_xv.A, self.T.set_xv.b)
        x0, r = self.config["x0"], self.config["r"]
        t_at = oracles.horizon_violation(DOUBLE_INTEGRATOR, Y, T, n, x0, r)
        t_below = oracles.horizon_violation(DOUBLE_INTEGRATOR, Y, T, n - 1,
                                            x0, r)
        res["violation_below"] = t_below
        fails = []
        if t_at > oracles.FEAS_TOL:
            fails.append("horizon {} infeasible by HiGHS ({:.3e})".format(
                n, t_at))
        if t_below <= oracles.FEAS_TOL:
            fails.append("horizon {} already feasible by HiGHS".format(n - 1))
        resid = oracles.output_residual(res["log"].y, *WIDE_BOX)
        if resid > 1e-9:
            fails.append("MPC output residual {:.3e}".format(resid))
        return fails

    def fingerprint(self, res):
        if res.get("log") is None:
            return str(res["n_star"])
        return "{}:{}".format(res["n_star"], _log_digest(res["log"]))

    def report(self, results):
        done = [res for res in results if "log" in res]
        lines = [timing("nstar_s", [res["nstar_s"] for res in results], "s")]
        lines += loop_report(done)
        lines.append(timing("cold_step_ms",
                            [1e3 * res["log"].t_mpc[0] for res in done],
                            "ms"))
        lines.append(("n_star", sorted({res["n_star"] for res in done}),
                      "horizon", "the linear scan solves N* LPs"))
        lines.append(("violation_below", min(
            (res.get("violation_below", np.inf) for res in done),
            default=0.0), "1",
            "smallest HiGHS worst violation at N*-1"))
        return lines


def tail(values, low=False):
    """Most extreme of the usual percentiles that has at least ten samples
    beyond it, as (label, value), or None; ``low`` takes the lower tail,
    the slow end of a rate."""
    n = len(values)
    for q in (99.9, 99, 95, 90, 75):
        if n * (100.0 - q) / 100.0 >= 10.0:
            q = round(100.0 - q, 1) if low else q
            return "p{:g}".format(q), float(np.percentile(values, q))
    return None


def timing(name, values, unit, low=False):
    """(name, median, unit, note) with the sample count and the tail."""
    values = [float(v) for v in values]
    med = float(np.median(values)) if values else 0.0
    t = tail(values, low)
    note = "median of n={}; {}".format(
        len(values), "{} {:.6g}".format(*t) if t else
        "no percentile has 10 samples beyond it")
    return name, med, unit, note


def loop_report(results):
    steps = [res["log"].n_steps for res in results]
    rates = [n / res["loop_s"] for n, res in zip(steps, results)]
    pooled = np.concatenate([res["log"].t_fg + res["log"].t_mpc
                             for res in results]) * 1e6 \
        if results else np.zeros(0)
    beyond = int(np.sum(pooled > np.percentile(pooled, 99))) \
        if pooled.size else 0
    return [
        timing("loop_steps_per_s", rates, "1/s", low=True),
        ("step_p50_us", float(np.percentile(pooled, 50)) if pooled.size
         else 0.0, "us", "t_fg + t_mpc pooled over {} steps".format(
             pooled.size)),
        ("step_p99_us", float(np.percentile(pooled, 99)) if pooled.size
         else 0.0, "us", "{} steps beyond it".format(beyond)),
    ]


WORKLOADS = {cls.name: cls for cls in (OfflineSets, GovernedLoop,
                                       LongHorizon)}
