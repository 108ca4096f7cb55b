"""The no-regression verdict of tools/bench_pairs.py on fixed run lists."""

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
