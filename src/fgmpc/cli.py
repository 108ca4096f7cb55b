"""Command-line front end: scenario parsing, offline set construction,
closed-loop simulation, controller comparison, and plot-data export.

A scenario lives in one JSON config file; matrices are nested row-major
arrays. Every output is plain text (.hrep set files, CSV boundary samples
and trajectories, key=value metrics) and every file is written atomically
(temp file + rename), so an interrupted run never leaves a truncated
fixture behind. Verbs: sets, simulate, compare, nstar.
"""

import argparse
import json
import os
import re
import statistics
import sys

import numpy as np

from fgmpc import governor
from fgmpc.mpc import FeasibleSet, OcpDesign, condense, feasible_set, \
    n_star
from fgmpc.plant import ConstraintSpec, LtiPlant, equilibrium_basis
from fgmpc.polytope import HPolyhedron, write_atomic, write_csv
from fgmpc.sim import KINDS, Scenario, SimulationError, audit_invariants, \
    metrics, run_closed_loop, write_trajectory_csv
from fgmpc.synthesis import solve_dare, terminal_set

_TOP_KEYS = ("plant", "Y", "eps", "eps_terminal", "Q", "R", "N", "kind",
             "controllers", "x0", "r", "budget", "cap", "slices")
_PLANT_KEYS = ("A", "B", "C", "D", "E", "F", "ts")
_REPEATS = 5  # timing repetitions per variant in compare; TAVE is their median
_BOUNDARY_RAYS = 256  # boundary samples of a 2-D set in the CSV exports
_CAP = 600  # nstar's largest probed horizon when the config sets no cap


class ConfigError(ValueError):
    """A config file failed validation; the message names the field."""


def _fail(field, problem):
    raise ConfigError("config field '{}': {}".format(field, problem))


def _numeric(raw):
    """True when every leaf of the nested lists raw is an int or a float:
    JSON's true and false parse as bools, and "1" as a string."""
    if isinstance(raw, (list, tuple)):
        return all(_numeric(item) for item in raw)
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


def _floats(raw, field, problem):
    """raw as a float array; the ConfigError names the field and the
    problem when a leaf of raw is not a number, and says so when a number
    is not finite (JSON's NaN and Infinity, or an integer beyond the float
    range)."""
    if not _numeric(raw):
        _fail(field, problem)
    try:
        arr = np.array(raw, dtype=float)
    except OverflowError:
        _fail(field, "must be finite")
    except (TypeError, ValueError):
        _fail(field, problem)
    if not np.all(np.isfinite(arr)):
        _fail(field, "must be finite")
    return arr


def _matrix(raw, field):
    arr = _floats(raw, field, "must be a rectangular nested array of numbers")
    if arr.ndim != 2 or arr.size == 0:
        _fail(field, "must be a non-empty two-dimensional array")
    return arr


def _vector(raw, field):
    arr = _floats(raw, field, "must be an array of numbers")
    if arr.ndim != 1 or arr.size == 0:
        _fail(field, "must be a non-empty flat array of numbers")
    return arr


def _number(raw, field):
    if isinstance(raw, (list, tuple)):
        _fail(field, "must be a number")
    return float(_floats(raw, field, "must be a number"))


def _integer(raw, field, minimum):
    if isinstance(raw, bool) or not isinstance(raw, int):
        _fail(field, "must be an integer")
    if raw < minimum:
        _fail(field, "must be at least {}".format(minimum))
    return int(raw)


class ScenarioConfig:
    """Validated contents of one JSON config file.

    Fields used by every verb (plant, Y, eps, Q, R) are mandatory; the
    rest are optional here and demanded by the verbs that need them.
    """

    def __init__(self, data, source="config"):
        if not isinstance(data, dict):
            raise ConfigError(
                "{}: top level must be a JSON object".format(source))
        for key in data:
            if key not in _TOP_KEYS:
                _fail(key, "unknown field (expected one of: {})".format(
                    ", ".join(_TOP_KEYS)))
        for key in ("plant", "Y", "eps", "Q", "R"):
            if key not in data:
                _fail(key, "required")

        self.plant = self._parse_plant(data["plant"])
        self.Y = self._parse_output_set(data["Y"])
        if self.Y.dim != self.plant.n_y:
            _fail("Y", "has dimension {} but the plant has {} constrained "
                  "outputs".format(self.Y.dim, self.plant.n_y))
        self.eps = _number(data["eps"], "eps")
        if not 0.0 < self.eps < 1.0:
            _fail("eps", "must lie strictly between 0 and 1")
        if "eps_terminal" in data:
            self.eps_terminal = _number(data["eps_terminal"],
                                        "eps_terminal")
            if not 0.0 < self.eps_terminal < 1.0:
                _fail("eps_terminal", "must lie strictly between 0 and 1")
        else:
            self.eps_terminal = self.eps
        self.Q = _matrix(data["Q"], "Q")
        self.R = _matrix(data["R"], "R")

        self.N = _integer(data["N"], "N", 0) if "N" in data else None
        self.kind = None
        if "kind" in data:
            if data["kind"] not in KINDS:
                _fail("kind", "must be one of {}, got {!r}".format(
                    list(KINDS), data["kind"]))
            self.kind = data["kind"]
        self.controllers = None
        if "controllers" in data:
            self.controllers = self._parse_controllers(data["controllers"])
        self.x0 = None
        if "x0" in data:
            self.x0 = _vector(data["x0"], "x0")
            if self.x0.size != self.plant.n_x:
                _fail("x0", "has size {} but the plant has {} states"
                      .format(self.x0.size, self.plant.n_x))
        self.r = None
        if "r" in data:
            self.r = _vector(data["r"], "r")
            if self.r.size != self.plant.n_z:
                _fail("r", "has size {} but the plant tracks {} outputs"
                      .format(self.r.size, self.plant.n_z))
        self.budget = _integer(data["budget"], "budget", 1) \
            if "budget" in data else None
        self.cap = _integer(data["cap"], "cap", 1) if "cap" in data \
            else _CAP
        self.slices = self._parse_slices(data.get("slices"))

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError("{}: line {} column {}: {}".format(
                path, err.lineno, err.colno, err.msg)) from err
        return cls(data, source=path)

    @staticmethod
    def _parse_plant(raw):
        if not isinstance(raw, dict):
            _fail("plant", "must be an object with matrices A..F")
        for key in raw:
            if key not in _PLANT_KEYS:
                _fail("plant.{}".format(key), "unknown field")
        mats = {}
        for key in ("A", "B", "C", "D", "E", "F"):
            if key not in raw:
                _fail("plant.{}".format(key), "required")
            mats[key] = _matrix(raw[key], "plant.{}".format(key))
        ts = _number(raw["ts"], "plant.ts") if "ts" in raw else 1.0
        try:
            return LtiPlant(ts=ts, **mats)
        except ValueError as err:
            _fail("plant", str(err))

    @staticmethod
    def _parse_output_set(raw):
        if not isinstance(raw, dict):
            _fail("Y", "must be an object: either {lower, upper} box "
                  "bounds or an {A, b} H-representation")
        keys = set(raw)
        try:
            if keys == {"lower", "upper"}:
                return HPolyhedron.from_box(
                    _vector(raw["lower"], "Y.lower"),
                    _vector(raw["upper"], "Y.upper"))
            if keys == {"A", "b"}:
                return HPolyhedron(_matrix(raw["A"], "Y.A"),
                                   _vector(raw["b"], "Y.b"))
        except ConfigError:
            raise
        except ValueError as err:
            _fail("Y", str(err))
        _fail("Y", "expected exactly the keys lower+upper or A+b, got "
              "{}".format(sorted(keys)))

    def _parse_controllers(self, raw):
        if not isinstance(raw, list) or not raw:
            _fail("controllers", "must be a non-empty list of "
                  "{kind, N} objects")
        entries = []
        for i, entry in enumerate(raw):
            where = "controllers[{}]".format(i)
            if not isinstance(entry, dict):
                _fail(where, "must be an object with a 'kind' field")
            for key in entry:
                if key not in ("kind", "N"):
                    _fail("{}.{}".format(where, key), "unknown field")
            if "kind" not in entry:
                _fail("{}.kind".format(where), "required")
            if entry["kind"] not in KINDS:
                _fail("{}.kind".format(where),
                      "must be one of {}, got {!r}".format(list(KINDS),
                                                           entry["kind"]))
            N = _integer(entry["N"], "{}.N".format(where), 1) \
                if "N" in entry else None
            entries.append({"kind": entry["kind"], "N": N})
        return entries

    def _parse_slices(self, raw):
        if raw is None:
            return []
        if not isinstance(raw, list):
            _fail("slices", "must be a list of reference values")
        out = []
        for i, entry in enumerate(raw):
            where = "slices[{}]".format(i)
            val = _vector(entry if isinstance(entry, list) else [entry], where)
            if val.size != self.plant.n_z:
                _fail(where, "has size {} but references have size {}"
                      .format(val.size, self.plant.n_z))
            out.append(val)
        return out


def _require(cfg, field, command):
    value = getattr(cfg, field)
    if value is None:
        _fail(field, "required for the {} command".format(command))
    return value


# ---------------------------------------------------------------------------
# Offline pieces and file helpers
# ---------------------------------------------------------------------------


def _offline(cfg):
    plant = cfg.plant
    em = equilibrium_basis(plant)
    spec = ConstraintSpec(plant, em, cfg.Y, cfg.eps)
    rs = solve_dare(plant.A, plant.B, cfg.Q, cfg.R)
    T = terminal_set(plant, em, rs, cfg.Y, cfg.eps_terminal)
    return {"em": em, "spec": spec, "rs": rs, "T": T}


def _design(cfg, off, N):
    """The OcpDesign of horizon N. The command governor and nstar read
    only K and T of it, so they may pass an N of None or 0: it gets the
    placeholder horizon 1."""
    return OcpDesign(max(N or 1, 1), cfg.Q, cfg.R, off["rs"].P,
                     off["rs"].K, off["T"], cfg.Y)


def _controller(cfg, off, kind, N):
    """The (design, qp) of one controller kind. The command governor
    reads only K and T, so it needs no N and gets the placeholder design
    and no QP; every MPC kind needs N >= 1 and gets its condensed QP."""
    if kind == "MPC+CG(LQR)":
        return _design(cfg, off, None), None
    if N is None or N < 1:
        _fail("N", "required (>= 1) for controller '{}'".format(kind))
    design = _design(cfg, off, N)
    return design, condense(cfg.plant, design, off["em"])


def _governor(off, qp):
    """GovernorProblem over T when there is no qp (the command governor),
    over Gamma_N of qp otherwise."""
    gamma = off["T"] if qp is None else feasible_set(qp)
    return governor.GovernorProblem(gamma, off["spec"].R_eps)


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _boundary_points(P):
    """Boundary samples of a 1- or 2-D polytope: rays from the center of
    the largest inscribed ball to the first facet they hit."""
    if P.dim not in (1, 2):
        raise ValueError("boundary export needs a 1- or 2-D set, got "
                         "dimension {}".format(P.dim))
    center, radius = P.chebyshev_center()
    if radius <= 0.0:
        return np.zeros((0, P.dim))
    if P.dim == 1:
        dirs = np.array([[-1.0], [1.0]])
    else:
        angles = np.linspace(0.0, 2.0 * np.pi, _BOUNDARY_RAYS, endpoint=False)
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    margins = P.b - P.A @ center
    points = []
    for d in dirs:
        den = P.A @ d
        hit = den > 1e-12
        if not np.any(hit):
            continue  # the set is unbounded along this ray
        t = np.min(margins[hit] / den[hit])
        points.append(center + t * d)
    return np.array(points)


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------


def cmd_sets(cfg, out_dir, quiet=False):
    """Build T, Gamma_N, Lambda, R_eps, and the governed ROA, then export
    them as .hrep files plus CSV boundary samples for plotting."""
    N = _require(cfg, "N", "sets")
    off = _offline(cfg)
    plant, spec = cfg.plant, off["spec"]
    if N == 0:
        gamma = FeasibleSet.from_terminal(off["T"])
    else:
        qp = condense(plant, _design(cfg, off, N), off["em"])
        gamma = feasible_set(qp)
    gp = governor.GovernorProblem(gamma, spec.R_eps)
    roa_set = governor.roa(gp)

    # compute every export before touching the filesystem
    exports = {
        "T.hrep": off["T"].set_xv,
        "GammaN.hrep": gamma.set_xv,
        "Lambda.hrep": gp.Lambda,
        "Reps.hrep": spec.R_eps,
        "RoaFG.hrep": roa_set,
    }
    csv_exports = []
    joint = gamma.set_xv
    if joint.dim == 2:
        header = ["x[0]"] * (joint.dim - spec.R_eps.dim) + ["v[0]"]
        csv_exports.append(("GammaN_boundary.csv", header,
                            _boundary_points(joint)))
    v_cols = list(range(plant.n_x, joint.dim))
    for v in cfg.slices:
        s_x = joint.slice(v_cols, v)
        name = "GammaN_slice_v{}.csv".format(
            "_".join("{:g}".format(c) for c in v))
        header = ["x[{}]".format(j) for j in range(plant.n_x)]
        csv_exports.append((name, header, _boundary_points(s_x)))

    for name, poly in exports.items():
        poly.write(os.path.join(out_dir, name))
    for name, header, pts in csv_exports:
        write_csv(os.path.join(out_dir, name), header,
                  [[repr(float(c)) for c in p] for p in pts])
    if not quiet:
        for name, poly in exports.items():
            print("{}: dim {}, {} rows".format(name, poly.dim, poly.nrows))
        for name, _, pts in csv_exports:
            print("{}: {} boundary points".format(name, len(pts)))
    return 0


def cmd_simulate(cfg, out_dir, quiet=False):
    """Run one closed loop, export trajectory.csv and metrics.txt, and
    exit 0 exactly when every invariant audit passes."""
    kind = _require(cfg, "kind", "simulate")
    x0 = _require(cfg, "x0", "simulate")
    r = _require(cfg, "r", "simulate")
    budget = _require(cfg, "budget", "simulate")

    off = _offline(cfg)
    design, qp = _controller(cfg, off, kind, cfg.N)
    gp = _governor(off, qp)
    sc = Scenario(cfg.plant, off["spec"], design, kind, x0, r, budget)
    log = run_closed_loop(sc, qp=qp, gp=gp)

    target = governor.r_star(off["spec"].R_eps, sc.r)
    report = metrics(log, target, cfg.Y)
    verdicts = audit_invariants(log, gp, cfg.Y)

    lines = ["{}={}".format(k, _format_value(v))
             for k, v in report.items()]
    for vd in verdicts:
        lines.append("audit_{}={}".format(
            vd.name, "pass" if vd.passed else
            "fail@{}".format(vd.first_failure)))
    all_pass = all(vd.passed for vd in verdicts)
    lines.append("audit_overall={}".format("pass" if all_pass else "fail"))

    write_trajectory_csv(log, os.path.join(out_dir, "trajectory.csv"))
    write_atomic(os.path.join(out_dir, "metrics.txt"),
                 "\n".join(lines) + "\n")
    if not quiet:
        print("\n".join(lines))
    return 0 if all_pass else 1


def _compare_one(cfg, off, entry, slug, out_dir):
    """Build, run, and time one controller variant; never raises."""
    try:
        N = entry["N"] if entry["N"] is not None else cfg.N
        design, qp = _controller(cfg, off, entry["kind"], N)
        gp = None if entry["kind"] == "MPC" else _governor(off, qp)
        sc = Scenario(cfg.plant, off["spec"], design, entry["kind"],
                      cfg.x0, cfg.r, cfg.budget)
        log = None
        taves, tmaxes = [], []
        for _ in range(_REPEATS):
            log = run_closed_loop(sc, qp=qp, gp=gp)
            total = log.t_fg + log.t_mpc
            taves.append(float(np.mean(total)))
            tmaxes.append(float(np.max(total)))
        target = governor.r_star(off["spec"].R_eps, sc.r)
        report = metrics(log, target, cfg.Y)
        write_trajectory_csv(log, os.path.join(
            out_dir, "trajectory_{}.csv".format(slug)))
        return {"slug": slug, "kind": entry["kind"], "N": N, "ok": True,
                "rise_steps": report["rise_time_steps"],
                "rise_s": report["rise_time_seconds"],
                "tave_s": statistics.median(taves),
                "tmax_s": max(tmaxes), "log": log, "error": ""}
    except Exception as err:  # per-variant errors become table rows
        return {"slug": slug, "kind": entry["kind"], "N": entry["N"],
                "ok": False, "error": str(err), "log": None}


def cmd_compare(cfg, out_dir, quiet=False):
    """Run two or more controller variants on one scenario, one after the
    other so each is timed alone, and export a side-by-side metrics table
    plus plot data."""
    controllers = _require(cfg, "controllers", "compare")
    if len(controllers) < 2:
        _fail("controllers", "the compare command needs at least 2 "
              "entries, got {}".format(len(controllers)))
    _require(cfg, "x0", "compare")
    _require(cfg, "r", "compare")
    _require(cfg, "budget", "compare")

    off = _offline(cfg)
    slugs = ["{}_{}".format(i, re.sub(r"[^a-z0-9]+", "_",
                                      entry["kind"].lower()).strip("_"))
             for i, entry in enumerate(controllers)]
    rows = [_compare_one(cfg, off, entry, slug, out_dir)
            for entry, slug in zip(controllers, slugs)]

    table = ["{:<14} {:>4} {:>11} {:>9} {:>11} {:>11}  {}".format(
        "kind", "N", "rise_steps", "rise_s", "tave_s", "tmax_s", "status")]
    for row in rows:
        if row["ok"]:
            table.append(
                "{:<14} {:>4} {:>11g} {:>9g} {:>11.6f} {:>11.6f}  ok"
                .format(row["kind"], row["N"] or "-", row["rise_steps"],
                        row["rise_s"], row["tave_s"], row["tmax_s"]))
        else:
            table.append("{:<14} {:>4} {:>11} {:>9} {:>11} {:>11}  "
                         "error: {}".format(row["kind"],
                                            row["N"] or "-", "-", "-", "-",
                                            "-", row["error"]))
    text = "\n".join(table) + "\n"
    write_atomic(os.path.join(out_dir, "compare.txt"), text)

    ok_rows = [row for row in rows if row["ok"]]
    if ok_rows:
        n_steps = min(row["log"].n_steps for row in ok_rows)
        header = ["k"]
        for row in ok_rows:
            header += ["z_{}[{}]".format(row["slug"], j)
                       for j in range(row["log"].z.shape[1])]
        data = []
        for k in range(n_steps):
            line = [k]
            for row in ok_rows:
                line += [repr(float(c)) for c in row["log"].z[k]]
            data.append(line)
        write_csv(os.path.join(out_dir, "compare_z.csv"), header, data)
    if not quiet:
        print(text, end="")
    return 0 if all(row["ok"] for row in rows) else 1


def cmd_nstar(cfg, quiet=False):
    """Search the horizons 0..cfg.cap and print the smallest feasible one.

    Unless quiet, each probed horizon is logged with its worst violation,
    in increasing order of horizon, also when no feasible horizon is found.
    """
    x0 = _require(cfg, "x0", "nstar")
    r = _require(cfg, "r", "nstar")
    off = _offline(cfg)
    design = _design(cfg, off, cfg.N)
    trace = []
    try:
        n = n_star(cfg.plant, design, x0, r, cfg.cap, trace=trace)
    finally:
        if not quiet:
            for h, violation in trace:
                print("h={:d} violation={:.6e}".format(h, violation))
    print("N* = {}".format(n))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fgmpc",
        description="Linear MPC with a feasibility-governor add-on: "
                    "offline set construction, closed-loop simulation, "
                    "controller comparison, and minimal-horizon search.")
    sub = parser.add_subparsers(dest="command", required=True)
    verbs = {}
    for verb, helptext in (
            ("sets", "build and export T, Gamma_N, Lambda, R_eps, ROA"),
            ("simulate", "run one closed loop and audit its invariants"),
            ("compare", "run several controller variants side by side"),
            ("nstar", "find the smallest feasible horizon")):
        p = verbs[verb] = sub.add_parser(verb, help=helptext)
        p.add_argument("--config", required=True,
                       help="path to the JSON scenario config")
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress output")
    # a verb takes only the options it reads: a misplaced one exits 2
    for verb in ("sets", "simulate", "compare"):
        verbs[verb].add_argument("--out", default=None,
                                 help="output directory (default: the "
                                      "working directory)")
    args = parser.parse_args(argv)

    try:
        cfg = ScenarioConfig.from_file(args.config)
        if args.command == "nstar":
            return cmd_nstar(cfg, quiet=args.quiet)
        out_dir = args.out or "."
        os.makedirs(out_dir, exist_ok=True)
        if args.command == "sets":
            return cmd_sets(cfg, out_dir, quiet=args.quiet)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir, quiet=args.quiet)
        return cmd_compare(cfg, out_dir, quiet=args.quiet)
    except (ValueError, RuntimeError, OSError) as err:
        print("error: {}".format(err), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
