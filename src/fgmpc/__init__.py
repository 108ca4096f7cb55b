"""Linear MPC with a feasibility-governor add-on.

Offline: polyhedral computation of terminal and feasible sets for
constrained tracking. Online: condensed-QP model predictive control and a
reference governor that keeps the MPC problem feasible. A simulation
harness ties the two together and reports closed-loop metrics.
"""

from fgmpc.governor import GovernorProblem, RoaError, fg_step, r_star, \
    roa
from fgmpc.mpc import CondensedQp, FeasibleSet, OcpDesign, \
    OcpInfeasibleError, condense, feasible_set, mpc_feedback, n_star, \
    ocp_feasible
from fgmpc.plant import ConstraintSpec, EquilibriumMap, LtiPlant, \
    equilibrium_basis, steady_state_ref_set
from fgmpc.polytope import HPolyhedron
from fgmpc.sim import KINDS, Offline, Scenario, SimulationError, \
    TrajectoryLog, Verdict, audit_invariants, metrics, run_closed_loop, \
    write_trajectory_csv
from fgmpc.solver import LimitError, LpProblem, QpProblem, SolveStatus, \
    Status, min_violation, solve_lp, solve_qp, support_value
from fgmpc.synthesis import RiccatiSolution, TerminalSet, solve_dare, \
    terminal_set

__version__ = "0.1.0"

__all__ = [
    "CondensedQp",
    "ConstraintSpec",
    "EquilibriumMap",
    "FeasibleSet",
    "GovernorProblem",
    "HPolyhedron",
    "KINDS",
    "LimitError",
    "LpProblem",
    "LtiPlant",
    "OcpDesign",
    "OcpInfeasibleError",
    "Offline",
    "QpProblem",
    "RiccatiSolution",
    "RoaError",
    "Scenario",
    "SimulationError",
    "SolveStatus",
    "Status",
    "TerminalSet",
    "TrajectoryLog",
    "Verdict",
    "audit_invariants",
    "condense",
    "equilibrium_basis",
    "feasible_set",
    "fg_step",
    "metrics",
    "min_violation",
    "mpc_feedback",
    "n_star",
    "ocp_feasible",
    "r_star",
    "roa",
    "run_closed_loop",
    "solve_dare",
    "solve_lp",
    "solve_qp",
    "steady_state_ref_set",
    "support_value",
    "terminal_set",
    "write_trajectory_csv",
]
