"""The no-regression verdict of tools/bench_pairs.py on fixed run lists,
and the host readings it keeps from each run's report."""

import importlib.util
import os

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


def run_with(cal, steal=0.0):
    return {"calibration_s": cal, "steal_s": steal}


@pytest.mark.parametrize("parent, change, drift", [
    ([0.04, 0.04], [0.04, 0.05], False),  # means 0.040 and 0.045
    ([0.04, 0.04], [0.05, 0.0501], True),  # 0.05005 is 25.1% above
    ([0.05, 0.0501], [0.04, 0.04], True),  # either side may be the slower
    ([0.04, 0.04], [0.0499, 0.0499], False),  # 24.75% is not marked
    ([0.04, 0.04], None, False),  # a side without readings
])
def test_host_drift_marks_pairs_beyond_a_quarter(parent, change, drift):
    pair = bench_pairs.host_drift(run_with(parent), run_with(change, 2.0))
    assert pair["drift"] is drift
    assert pair["parent"] == {"calibration_s": parent, "steal_s": 0.0}
    assert pair["change"] == {"calibration_s": change, "steal_s": 2.0}
