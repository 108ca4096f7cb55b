"""Span tracer that wraps fgmpc's public functions from outside the package.

Every traced function is wrapped at each binding a caller looks it up
through: a module attribute such as ``fgmpc.mpc.solve_qp`` or a class
attribute such as ``HPolyhedron.project``. Bindings are found by object
identity, so an import that a later change adds or removes is picked up
or shows as a span with zero calls. The split of ``solve_qp`` by caller
comes from the binding: ``fgmpc.governor.solve_qp`` and
``fgmpc.mpc.solve_qp`` are two names for one function.

A span records its name, start, end, parent and the counts taken from
the call's arguments and return value. Spans stay in memory; ``dump``
writes them out when the run ends.
"""

import functools
import json
import os
import sys
import time

import numpy as np


def _count_support(args, kwargs, result):
    return {"early_exit": int(result[0] == "above")}


def _count_lp(args, kwargs, result):
    return {"pivots": int(result.iterations)}


def _count_min_violation(args, kwargs, result):
    A = args[0] if args else kwargs["A"]
    return {"rows_total": int(np.atleast_2d(np.asarray(A)).shape[0])}


def _count_qp(args, kwargs, result):
    warm = args[1] if len(args) > 1 else kwargs.get("warm_start")
    return {"iters": int(result.iterations),
            "warm": int(warm is not None and len(warm) > 0)}


def _count_rows(args, kwargs, result):
    return {"rows_in": int(args[0].nrows), "rows_out": int(result.nrows)}


def _count_write(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": int(os.path.getsize(path))}


def _count_terminal(args, kwargs, result):
    return {"layers": int(result.t_star), "rows": int(result.nrows)}


def _count_feasible(args, kwargs, result):
    return {"rows_out": int(result.set_xv.nrows)}


# (defining module, attribute path, span name, counter). A span name of
# None on a module function means "name it after the caller's module".
TARGETS = (
    ("fgmpc.solver", "support_value", "solver.support_value",
     _count_support),
    ("fgmpc.solver", "solve_lp", "solver.solve_lp", _count_lp),
    ("fgmpc.solver", "min_violation", "solver.min_violation",
     _count_min_violation),
    ("fgmpc.solver", "solve_qp", None, _count_qp),
    ("fgmpc.polytope", "HPolyhedron.project", "polytope.project",
     _count_rows),
    ("fgmpc.polytope", "HPolyhedron.remove_redundancy",
     "polytope.remove_redundancy", _count_rows),
    ("fgmpc.polytope", "HPolyhedron.contains_set", "polytope.contains_set",
     None),
    ("fgmpc.polytope", "HPolyhedron.write", "polytope.write", _count_write),
    ("fgmpc.synthesis", "solve_dare", "synthesis.solve_dare", None),
    ("fgmpc.synthesis", "terminal_set", "synthesis.terminal_set",
     _count_terminal),
    ("fgmpc.plant", "LtiPlant.step", "plant.step", None),
    ("fgmpc.plant", "ConstraintSpec.__init__", "plant.ConstraintSpec", None),
    ("fgmpc.mpc", "condense", "mpc.condense", None),
    ("fgmpc.mpc", "feasible_set", "mpc.feasible_set", _count_feasible),
    ("fgmpc.mpc", "mpc_feedback", "mpc.mpc_feedback", None),
    ("fgmpc.mpc", "n_star", "mpc.n_star", None),
    ("fgmpc.governor", "GovernorProblem.__init__",
     "governor.GovernorProblem", None),
    ("fgmpc.governor", "roa", "governor.roa", None),
    ("fgmpc.governor", "fg_step", "governor.fg_step", None),
    ("fgmpc.sim", "run_closed_loop", "sim.run_closed_loop", None),
    ("fgmpc.cli", "main", "cli.main", None),
)


def _bindings(module_name, path, span_name):
    """(owner, attribute, span name) for every place the target is bound.

    A class method has one binding, the class. A module function is bound
    in every fgmpc module that holds the same object under that name.
    """
    owner = sys.modules[module_name]
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    if classes:
        return [(owner, attr, span_name)]
    fn = getattr(owner, attr)
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name != "fgmpc" and not mod_name.startswith("fgmpc."):
            continue
        if getattr(mod, attr, None) is fn:
            name = span_name
            if name is None:
                caller = mod_name.rpartition(".")[2]
                name = "solver.{}.{}".format(attr, caller)
            found.append((mod, attr, name))
    return found


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` swap the
    wrappers in and out so untraced calls run the original code."""

    def __init__(self):
        # span: [name, start, end, parent index, counts or None]
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, path, span_name, count in TARGETS:
            for owner, attr, name in _bindings(module_name, path, span_name):
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, count))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        """Write every span as one JSON line (times relative to the first
        span's start)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, counts) in enumerate(
                    self.spans):
                fh.write(json.dumps({"id": i, "name": name,
                                     "start": start - t0, "end": end - t0,
                                     "parent": parent,
                                     "counts": counts or {}}) + "\n")


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def aggregate(spans):
    """Per span name: calls, total and self seconds, summed and maximal
    counts, and the per-call durations. Spans of one name never nest in
    this package, so summing their durations counts no time twice."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {}
    for i, (name, start, end, parent, counts) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                     "durations": [], "sum": {}, "max": {},
                                     "descendants": {}})
        st["calls"] += 1
        st["s"] += end - start
        st["self_s"] += end - start - child[i]
        st["durations"].append(end - start)
        for key, val in (counts or {}).items():
            st["sum"][key] = st["sum"].get(key, 0) + val
            st["max"][key] = max(st["max"].get(key, val), val)
    # descendant calls by name, for counts a span only sees through its
    # children (LPs under one n_star call)
    for i, (name, _, _, parent, _) in enumerate(spans):
        seen = set()
        while parent >= 0:
            anc = spans[parent][0]
            if anc not in seen:
                seen.add(anc)
                desc = stats[anc]["descendants"]
                desc[name] = desc.get(name, 0) + 1
            parent = spans[parent][3]
    return stats


def layer_metrics(stats, layers):
    """Flatten aggregated spans into the per-layer metrics that
    layers.json declares; a layer with no calls reports zeros."""
    out = {}
    for layer, spec in layers.items():
        st = stats.get(layer)
        for field, (unit, _better) in spec["metrics"].items():
            value = 0
            if st is not None and st["calls"]:
                calls = st["calls"]
                if field in ("calls", "s", "self_s"):
                    value = st[field]
                elif field == "p50_us":
                    value = 1e6 * _percentile(st["durations"], 50)
                elif field == "p99_us":
                    value = 1e6 * _percentile(st["durations"], 99)
                elif field == "early_exit_frac":
                    value = st["sum"]["early_exit"] / calls
                elif field == "warm_frac":
                    value = st["sum"]["warm"] / calls
                elif field == "iters_max":
                    value = st["max"]["iters"]
                elif field == "lps":
                    value = st["descendants"].get("solver.min_violation", 0)
                else:
                    value = st["sum"][field]
            out["{}.{}".format(layer, field)] = {"value": value,
                                                 "unit": unit}
    return out
