"""Generated QPs for the dual active-set solver's cold start, the
unconstrained minimizer -Hinv f taken from the inverse kept on the
problem: badly scaled Hessians H = D S D, and H = 2^k I, where the kept
inverse must be exact."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from test_solver import (assert_close, assert_repeats,  # noqa: E402
                         batch_factors, check_qp_kkt_tight)

from fgmpc.solver import QpProblem, Status, solve_qp  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, database=None,
                    max_examples=150)


def unit_floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False,
                     allow_subnormal=False)


@st.composite
def scaled_qps(draw):
    """min 0.5 x'H x + f'x s.t. A x <= b with H = D S D: S = M M'/n + I
    is well conditioned, D is diagonal with entries from 1e-3 to 1e3, so
    H spans up to twelve decades. f = -H c puts the unconstrained
    minimizer at c, in the box [-3, 3]^n; the rows hold a point of
    [-1, 1]^n strictly inside, so every QP is feasible."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 8))
    M = draw(arrays(float, (n, n), elements=unit_floats(-1.0, 1.0)))
    d = 10.0 ** draw(arrays(float, n, elements=unit_floats(-3.0, 3.0)))
    H = d[:, None] * (M @ M.T / n + np.eye(n)) * d[None, :]
    H = 0.5 * (H + H.T)
    c = draw(arrays(float, n, elements=unit_floats(-3.0, 3.0)))
    A = draw(arrays(float, (m, n), elements=unit_floats(-1.0, 1.0)))
    inside = draw(arrays(float, n, elements=unit_floats(-1.0, 1.0)))
    margin = draw(arrays(float, m, elements=unit_floats(0.05, 1.0)))
    return QpProblem(H, -H @ c, A, A @ inside + margin)


@SETTINGS
@given(scaled_qps())
def test_scaled_qp_kkt_and_hot_start_bits(p):
    """The solve satisfies its KKT conditions, with stationarity and
    complementarity to 1e-9 relative to max(1, |H| |x|) (the size of the
    terms H x and A'lam that cancel) and feasibility to 1e-9 absolute.
    A hot start from the cold solve's own factors returns its bits in 0
    iterations; one from reference factors of its active set, built
    outside the solve, ends on that set with x and lam within 1e-9 of the
    cold ones, relative to the largest entry of each."""
    cold = solve_qp(p)
    assert cold.status is Status.OPTIMAL
    scale = max(1.0, np.linalg.norm(p.H, 2) * np.linalg.norm(cold.x))
    check_qp_kkt_tight(p, cold, scale=scale)
    assert_repeats(p, cold)
    assert_close(solve_qp(p, warm_start=batch_factors(p, cold.active_set)),
                 cold)


@SETTINGS
@given(st.integers(-20, 20),
       arrays(float, st.integers(1, 8), elements=unit_floats(-1e6, 1e6)))
def test_power_of_two_hessian_minimizer_is_exact(k, f):
    """For H = 2^k I the kept inverse is exactly 2^-k I, so the
    unconstrained minimizer is x = -f / 2^k to the last bit."""
    n = f.size
    p = QpProblem(2.0 ** k * np.eye(n), f, np.zeros((0, n)), np.zeros(0))
    res = solve_qp(p)
    assert res.status is Status.OPTIMAL and res.iterations == 0
    assert np.array_equal(res.x, -f / 2.0 ** k)
