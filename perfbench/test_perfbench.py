"""Tests of the benchmark itself, run apart from the package's suite:

    python3 -m pytest perfbench

The count tests run the traced benchmark twice on every workload and
take a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import oracles
import tracer
import workloads
from fgmpc import governor, mpc, plant, polytope, sim, solver, synthesis

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
COUNT_UNITS = ("count", "rows", "bytes", "frac")


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _load(name):
    with open(name) as fh:
        return json.load(fh)


def test_benchmark_json_lists_what_the_benchmark_reports():
    bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
    layers = _load(os.path.join(BENCH_DIR, "layers.json"))
    names = ["{}.{}".format(layer, field)
             for layer, spec in layers.items() for field in spec["metrics"]]
    assert [m["name"] for m in bench["per_layer"]] == \
        names + ["trace.overhead_frac"]
    assert [w["name"] for w in bench["workloads"]] == \
        list(workloads.WORKLOADS)
    for spec in layers.values():
        assert set(spec["expect"]) <= set(workloads.WORKLOADS)

    res = _result(_bench("--workload", "governed_loop", "--seed", "1",
                         "--seconds", "1", "--trace", "0"))
    assert res["correct"] and res["failed"] == 0
    assert list(res["metrics"]) == [m["name"] for m in bench["end_to_end"]]
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_counts_repeat_exactly(workload):
    def counts(res):
        return {k: m["value"] for k, m in res["metrics"].items()
                if m["unit"] in COUNT_UNITS and k != "trace.overhead_frac"}

    args = ("--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", "1")
    first, second = _result(_bench(*args)), _result(_bench(*args))
    assert first["correct"] and second["correct"]
    assert counts(first) == counts(second)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "offline_sets", "--seed", "0", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_oracles_import_nothing_from_fgmpc():
    code = ("import sys; sys.path.insert(0, {!r}); import oracles; "
            "sys.exit(any(m.split('.')[0] == 'fgmpc' for m in sys.modules))"
            .format(BENCH_DIR))
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_horizon_oracle_agrees_with_ocp_feasible():
    di = workloads.DOUBLE_INTEGRATOR
    p = plant.LtiPlant(ts=di["ts"], **{k: di[k] for k in "ABCDEF"})
    em = plant.equilibrium_basis(p)
    Y = polytope.HPolyhedron.from_box(*workloads.WIDE_BOX)
    rs = synthesis.solve_dare(p.A, p.B, np.eye(2), [[1.0]])
    T = synthesis.terminal_set(p, em, rs, Y, 0.01)
    design = mpc.OcpDesign(5, np.eye(2), [[1.0]], rs.P, rs.K, T, Y)
    rng = np.random.default_rng(5)
    verdicts = []
    # states near the equilibrium of v, so that both verdicts occur
    for v, dx, x2 in rng.uniform([-19, -1.5, -0.4], [19, 1.5, 0.4], (40, 3)):
        x = [v + dx, x2]
        t = oracles.horizon_violation(di, oracles.box(*workloads.WIDE_BOX),
                                      (T.set_xv.A, T.set_xv.b), 5, x, [v])
        ours = t <= oracles.FEAS_TOL
        assert ours == mpc.ocp_feasible(p, design, x, [v], 5)
        verdicts.append(ours)
    assert any(verdicts) and not all(verdicts)


def test_governed_checks_agree_with_the_audits(tmp_path):
    wl = workloads.GovernedLoop(0, str(tmp_path))
    wl.setup()
    inst = wl.instance(0)
    log = wl.run(inst)["log"]
    assert wl.check(inst, {"log": log}) == []
    assert all(v.passed for v in sim.audit_invariants(log, wl.gp, wl.Y))

    # a reference that moves after converging must be caught
    v = log.v.copy()
    v[-1] += 1e-6
    moved = types.SimpleNamespace(x=log.x, y=log.y, v=v,
                                  x_final=log.x_final)
    fails = wl.check(inst, {"log": moved})
    assert any("v moves" in f or "rises" in f for f in fails)


def test_tracer_self_time_and_descendants():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, {"x": 1}],
             ["c", 2.0, 3.0, 1, None], ["b", 5.0, 6.0, 0, {"x": 2}]]
    stats = tracer.aggregate(spans)
    assert stats["a"]["self_s"] == 6.0
    assert stats["b"]["calls"] == 2 and stats["b"]["self_s"] == 3.0
    assert stats["b"]["sum"] == {"x": 3} and stats["b"]["max"] == {"x": 2}
    assert stats["a"]["descendants"] == {"b": 2, "c": 1}


def test_tracer_splits_solve_qp_by_binding_and_restores_it():
    t = tracer.Tracer()
    t.install()
    try:
        assert governor.solve_qp is not solver.solve_qp
        governor.r_star(polytope.HPolyhedron.from_box([-1.0], [1.0]), [2.0])
    finally:
        t.uninstall()
    assert governor.solve_qp is solver.solve_qp
    assert mpc.solve_qp is solver.solve_qp
    assert [s[0] for s in t.spans] == ["solver.solve_qp.governor"]
