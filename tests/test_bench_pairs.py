"""The no-regression verdict of tools/bench_pairs.py on fixed run lists,
and the host readings it keeps from each run's report."""

import importlib.util
import json
import os
import re
import time

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "bench_pairs.py")
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

TIGHT = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
# quartiles 0.825 and 1.175 around a median of 1.0: a spread of 35%
WIDE = [0.6, 0.8, 1.0, 1.2, 1.4, 0.7, 0.9, 1.1, 1.3, 1.0]


@pytest.mark.parametrize("parent, change, better, verdict", [
    (TIGHT, [1.05 * v for v in TIGHT], "lower", "within"),
    (TIGHT, [1.4 * v for v in TIGHT], "lower", "worse"),
    (WIDE, WIDE[::-1], "lower", "unresolved"),
    # a wide spread resolves when every change run beats every parent run
    (WIDE, [0.5] * 10, "lower", "within"),
    (WIDE, [0.59] + [0.5] * 9, "lower", "within"),
    (WIDE, [0.6] + [0.5] * 9, "lower", "unresolved"),
    (WIDE, [2.0] * 10, "lower", "worse"),
    ([10.0] * 10, [5.0] * 10, "higher", "worse"),
    ([10.0] * 10, [9.0] * 10, "higher", "within"),
    ([2.0 * v for v in WIDE], [3.0] * 10, "higher", "within"),
])
def test_compare_verdict(parent, change, better, verdict):
    m = bench_pairs.compare(parent, change, better, 0.25)
    assert m["verdict"] == verdict
    assert m["bound"] == 0.25


def test_compare_reports_spread_and_median_change():
    m = bench_pairs.compare(WIDE, [0.6] + [0.5] * 9, "lower", 0.25)
    assert m["parent_spread"] == pytest.approx(0.35)
    assert m["median_worse_by"] == pytest.approx(-0.5)
    assert m["change_wins"] == 9  # a tie counts for neither side


FAKE_RUN = '''import json
print("perfbench long_horizon seed=3 trace=0 seconds=30")
print("env calibration_s = {cal}")
{steal}print("fingerprint of op 0 = 116:abc (1 distinct in 9 ops)")
print(json.dumps({{"correct": True, "attempted": 9, "failed": 0,
                  "metrics": {{"op_s": {{"value": 0.5, "unit": "s"}}}}}}))
'''


def fake_tree(root, cal, steal):
    """A tree whose perfbench/run.py prints a fixed report."""
    os.makedirs(os.path.join(root, "perfbench"))
    with open(os.path.join(root, "perfbench", "run.py"), "w") as fh:
        fh.write(FAKE_RUN.format(cal=cal, steal="" if steal is None else
                                 'print("env steal_s = {}")\n'.format(steal)))
    return str(root)


def test_run_once_keeps_the_host_readings(tmp_path):
    res = bench_pairs.run_once(fake_tree(tmp_path / "a", "0.0412 -> 0.0530",
                                         1.25), "long_horizon", 3)
    assert res["calibration_s"] == [0.0412, 0.053]
    assert res["steal_s"] == 1.25
    assert res["fingerprint"] == "116:abc"
    res = bench_pairs.run_once(fake_tree(tmp_path / "b", "0.0412 -> 0.0530",
                                         None), "long_horizon", 3)
    assert res["steal_s"] is None  # perfbench found no /proc/stat


def test_run_once_kills_a_run_past_its_timeout(tmp_path, monkeypatch):
    root = tmp_path / "slow"
    os.makedirs(root / "perfbench")
    (root / "perfbench" / "run.py").write_text(
        "import os, time\nopen('pid', 'w').write(str(os.getpid()))\n"
        "time.sleep(60)\n")
    monkeypatch.setattr(bench_pairs, "RUN_TIMEOUT_S", 3.0)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="run.py.*in {}.*killed after "
                       "3.0 s".format(re.escape(str(root)))):
        bench_pairs.run_once(str(root), "long_horizon", 3)
    assert time.monotonic() - start < 30.0
    with pytest.raises(ProcessLookupError):  # killed and reaped
        os.kill(int((root / "pid").read_text()), 0)


def test_run_once_reports_the_tail_of_a_failed_run(tmp_path):
    root = tmp_path / "failing"
    os.makedirs(root / "perfbench")
    (root / "perfbench" / "run.py").write_text(
        "import sys\nfor i in range(30):\n    print('op', i, 'failed')\n"
        "sys.exit(3)\n")
    with pytest.raises(RuntimeError) as err:
        bench_pairs.run_once(str(root), "long_horizon", 3)
    lines = str(err.value).splitlines()
    assert "run.py" in lines[0]
    assert lines[0].endswith(" in {} exited 3:".format(root))
    assert lines[1:] == ["op {} failed".format(i) for i in range(10, 30)]


def test_run_once_reports_the_traceback_of_a_crashed_run(tmp_path):
    """A run that dies of an uncaught exception leaves its traceback on
    stderr; the error holds its last 20 lines after the stdout tail."""
    root = tmp_path / "crashing"
    os.makedirs(root / "perfbench")
    (root / "perfbench" / "run.py").write_text(
        "print('perfbench x')\nraise RuntimeError('boom')\n")
    with pytest.raises(RuntimeError) as err:
        bench_pairs.run_once(str(root), "long_horizon", 3)
    lines = str(err.value).splitlines()
    assert lines[0].endswith(" in {} exited 1:".format(root))
    assert lines[1] == "perfbench x"
    assert lines[2] == "Traceback (most recent call last):"
    assert lines[-1] == "RuntimeError: boom"


def run_with(cal, steal=0.0):
    return {"calibration_s": cal, "steal_s": steal}


@pytest.mark.parametrize("parent, change, drift", [
    ([0.04, 0.04], [0.04, 0.049], False),  # means 0.040 and 0.0445
    ([0.04, 0.04], [0.05, 0.0501], True),  # 0.05005 is 25.1% above
    ([0.05, 0.0501], [0.04, 0.04], True),  # either side may be the slower
    ([0.04, 0.04], [0.0499, 0.0499], False),  # 24.75% is not marked
    ([0.04, 0.04], None, False),  # a side without readings
    # equal means, but one run's own readings drift apart
    ([0.04, 0.0501], [0.0501, 0.04], True),
    ([0.0412, 0.0412], [0.0501, 0.04], True),
    ([0.0412, 0.0412], [0.0163, 0.0103], True),  # 58% within one run
    ([0.04, 0.0499], [0.0499, 0.04], False),  # 24.75% within each run
    ([0.04, 0.0501], None, True),  # one side's own readings suffice
])
def test_host_drift_marks_pairs_beyond_a_quarter(parent, change, drift):
    pair = bench_pairs.host_drift(run_with(parent), run_with(change, 2.0))
    assert pair["drift"] is drift
    assert pair["parent"] == {"calibration_s": parent, "steal_s": 0.0}
    assert pair["change"] == {"calibration_s": change, "steal_s": 2.0}


def traced(metrics):
    return {"metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def test_counts_compare_the_deterministic_metrics():
    """Counts, rows, bytes and the frac shares of counts are compared;
    timings and the tracer's time ratio trace.overhead_frac are not."""
    parent = traced({
        "solver.solve_qp.mpc.iters": (120, "count"),
        "solver.solve_qp.mpc.warm_frac": (0.99, "frac"),
        "solver.support_value.early_exit_frac": (0.25, "frac"),
        "polytope.write.bytes": (4096, "bytes"),
        "trace.overhead_frac": (0.1, "frac"),
        "solver.solve_qp.mpc.s": (0.5, "s")})
    change = traced({
        "solver.solve_qp.mpc.iters": (120, "count"),
        "solver.solve_qp.mpc.warm_frac": (0.98, "frac"),
        "solver.support_value.early_exit_frac": (0.25, "frac"),
        "polytope.write.bytes": (4096, "bytes"),
        "trace.overhead_frac": (0.2, "frac"),
        "solver.solve_qp.mpc.s": (0.4, "s"),
        "solver.solve_lp.pivots": (7, "count")})
    out = bench_pairs.counts(parent, change)
    assert sorted(out) == ["polytope.write.bytes", "solver.solve_lp.pivots",
                           "solver.solve_qp.mpc.iters",
                           "solver.solve_qp.mpc.warm_frac",
                           "solver.support_value.early_exit_frac"]
    assert out["solver.solve_qp.mpc.warm_frac"] == {
        "unit": "frac", "parent": 0.99, "change": 0.98, "differs": True}
    assert not out["solver.support_value.early_exit_frac"]["differs"]
    assert not out["solver.solve_qp.mpc.iters"]["differs"]
    assert out["solver.solve_lp.pivots"] == {
        "unit": "count", "parent": None, "change": 7, "differs": True}


def test_without_drift_compares_the_pairs_that_did_not_drift():
    # the parent's widest runs are the drifted pairs; the other five agree
    drifted = [0, 1, 3, 4, 5]
    assert bench_pairs.compare(WIDE, WIDE[::-1], "lower",
                               0.25)["verdict"] == "unresolved"
    m = bench_pairs.without_drift(WIDE, WIDE[::-1], drifted, "lower", 0.25)
    assert m["pairs"] == 5
    assert m["parent"]["runs"] == [1.0, 0.9, 1.1, 1.3, 1.0]
    assert m["change"]["runs"] == [1.1, 1.2, 1.0, 0.8, 0.6]
    assert m["parent_spread"] == pytest.approx(0.1)
    assert m["verdict"] == "within"
    # four undrifted pairs are too few for a verdict, however they read
    assert bench_pairs.without_drift(WIDE, WIDE[::-1], drifted + [8],
                                     "lower", 0.25) == \
        {"pairs": 4, "verdict": "unresolved"}
    # with no drifted pair it is the full comparison
    full = bench_pairs.compare(TIGHT, TIGHT[::-1], "higher", 0.25)
    assert bench_pairs.without_drift(TIGHT, TIGHT[::-1], [], "higher",
                                     0.25) == dict(full, pairs=10)
    # one pair left tells nothing
    assert bench_pairs.without_drift(TIGHT, TIGHT, list(range(1, 10)),
                                     "lower", 0.25) == \
        {"pairs": 1, "verdict": "unresolved"}
    assert bench_pairs.MIN_CLEAN_PAIRS == 5


def bench_trees(tmp_path, parent_cal, change_cal):
    """A parent and a change tree, each a fake_tree with a BENCHMARK.json
    whose one end-to-end metric is op_s."""
    trees = []
    for side, cal in (("parent", parent_cal), ("change", change_cal)):
        root = fake_tree(tmp_path / side, cal, 0.0)
        os.makedirs(os.path.join(root, "src", "fgmpc"))
        with open(os.path.join(root, "BENCHMARK.json"), "w") as fh:
            json.dump({"end_to_end": [{"name": "op_s", "unit": "s",
                                       "better": "lower", "bound": 0.25}]},
                      fh)
        trees.append(root)
    return trees


def test_main_reports_verdicts_without_drifted_pairs(tmp_path, monkeypatch):
    """Two trees whose runs agree but whose host readings differ by more
    than DRIFT in every pair: the full verdict is "within", the one
    without drifted pairs "unresolved", and so are the top-level flags."""
    monkeypatch.setattr(bench_pairs, "PAIRS", 3)
    trees = bench_trees(tmp_path, "0.04 -> 0.04", "0.06 -> 0.06")
    out = tmp_path / "bench.json"
    assert bench_pairs.main(trees + ["--workload", "long_horizon", "--seed",
                                     "3", "--claim", "long_horizon:op_s",
                                     "--out", str(out)]) == 0
    with open(out) as fh:
        report = json.load(fh)
    entry = report["pairs"]["long_horizon"]
    assert entry["drift_pairs"] == [0, 1, 2]
    assert entry["op_s"]["verdict"] == "within"
    assert entry["op_s"]["without_drift"] == {"pairs": 0,
                                              "verdict": "unresolved"}
    assert report["no_regression"] is True
    assert report["no_regression_without_drift"] is False
    # equal runs: the change wins no pair, so the claim is not met
    assert report["claim"]["workload"] == "long_horizon"
    assert report["claim"]["metric"] == "op_s"
    assert report["claim"]["wins"] == 0 and report["claim"]["met"] is False


@pytest.mark.parametrize("claim, message", [
    ("governed_loop:op_s", "--claim workload 'governed_loop' is not a "
                           "--workload: long_horizon"),
    ("long_horizon:wall_s", "--claim metric 'wall_s' is not an end-to-end "
                            "metric of BENCHMARK.json: op_s"),
    ("long_horizon", "--claim must be WORKLOAD:METRIC, got 'long_horizon'"),
])
def test_main_refuses_a_bad_claim_before_any_run(tmp_path, monkeypatch,
                                                 capsys, claim, message):
    """A claim on a workload that is not run, on a metric that is not in
    BENCHMARK.json, or without a colon is a usage error (exit 2) before
    the first run, and writes no report."""
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")
    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    trees = bench_trees(tmp_path, "0.04 -> 0.04", "0.04 -> 0.04")
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(trees + ["--workload", "long_horizon", "--seed",
                                  "3", "--claim", claim, "--out", str(out)])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.rstrip().endswith("error: " + message)
    assert not out.exists()
