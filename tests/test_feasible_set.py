"""Gamma_N in three dimensions against HiGHS, and the exact zeros of its
rows that the governed loop relies on."""

import numpy as np
import pytest

from oracles import highs_support, irredundant_rows

from fgmpc.governor import r_star
from fgmpc.sim import Scenario, run_closed_loop


@pytest.mark.parametrize("case", ["y1", "wide"])
def test_feasible_set_matches_highs_in_3d(case, request):
    """Every row of Gamma_N (x, v in R^3) touches the lifted polytope
    {(mu, theta) : M mu + L theta <= b} (its offset is the HiGHS support
    in its direction), no row is implied by the others, and the supports
    of Gamma_N and of the lifted polytope agree in 200 random
    directions."""
    pytest.importorskip("scipy")
    stack = request.getfixturevalue(case + "_gov")
    qp, gamma = stack["qp"], stack["gamma"].set_xv
    lifted = np.hstack([qp.M, qp.L])
    n_mu = qp.M.shape[1]
    assert gamma.dim == 3

    def lifted_support(c):
        return highs_support(np.concatenate([np.zeros(n_mu), c]), lifted,
                             qp.b)

    for a, bi in zip(gamma.A, gamma.b):
        assert abs(lifted_support(a) - bi) <= 1e-7
    assert irredundant_rows(gamma.A, gamma.b).all()
    rng = np.random.default_rng(2024)
    for c in rng.normal(size=(200, 3)):
        assert abs(highs_support(c, gamma.A, gamma.b) - lifted_support(c)) \
            <= 1e-7 * max(1.0, np.abs(c).sum())


def test_wide_box_sets_keep_exact_zeros(wide_gov):
    """On the governed-loop set-up (wide box, Q = 100 I, N = 10), every
    coefficient of Gamma_N and Lambda below 1e-9 in magnitude is exactly
    0.0. A v-bound row with coefficients of 1e-12 on x would let the
    governed reference move in its last bits after reaching r*: from x = 0
    with r beyond R_eps, v reaches r* exactly and stays bit-constant."""
    for P in (wide_gov["gamma"].set_xv, wide_gov["gp"].Lambda):
        tiny = np.abs(P.A) < 1e-9
        assert np.all(P.A[tiny] == 0.0)
        assert np.count_nonzero(tiny)
    nom = wide_gov["nom"]
    for target in (25.0, -25.0):
        r = np.array([target])
        v_star = r_star(nom.spec.R_eps, r)
        sc = Scenario(nom.plant, nom.spec, wide_gov["design"], "MPC+FG",
                      np.zeros(2), r, 300)
        log = run_closed_loop(sc, qp=wide_gov["qp"], gp=wide_gov["gp"])
        exact = np.nonzero(np.all(log.v == v_star, axis=1))[0]
        assert exact.size, "v never reached r* = {} exactly".format(v_star)
        assert np.all(log.v[exact[0]:] == v_star)
