"""Exact solver library for the minimum chordal completion problem.

A chordal completion of a graph is a set of complement ("fill") edges whose
addition leaves no chordless cycle of length four or more; this package
finds completions of minimum size by branch-and-cut over an edge-space
formulation, with a brute-force oracle for verification at small scale.
"""

__version__ = "0.1.0"

from .cuts import (
    Cut,
    CutError,
    FamilyInapplicableError,
    cut_i1,
    cut_i2,
    cut_i3,
    cut_i4,
    evaluate,
    lift_chord,
    lift_conditional,
    lift_zero_pad,
)
from .graphs import (
    Cycle,
    Graph,
    GraphError,
    Point,
    apply_completion,
    edge,
    is_chordal,
    is_valid_completion,
    iter_chordless_cycles,
    new_graph,
)
from .heuristics import chordalize_with_order, mdo_completion, mdo_order, primal_repair
from .instances import (
    InstanceError,
    gen_caveman,
    gen_grid,
    gen_mycielski,
    gen_queen,
    load_completion,
    load_instance,
    parse_dimacs,
    parse_edgelist,
    save_instance,
    serialize_dimacs,
    serialize_edgelist,
)
from .lp import LpProblem, LpResult, solve_lp
from .oracle import (
    OracleBudgetError,
    affine_rank,
    brute_force_mccp,
    enumerate_completions,
    feasible_points,
)
from .separation import (
    SeparationCapabilityError,
    SeparationError,
    SeparationReport,
    separate_i2_exact,
    separate_i3_exact,
    separate_integer,
    separate_threshold,
)
from .solver import SolveResult, SolverConfig, root_initialize, solve

__all__ = [
    "Cut", "CutError", "Cycle", "FamilyInapplicableError",
    "Graph", "GraphError", "InstanceError", "LpProblem", "LpResult",
    "OracleBudgetError", "Point", "SeparationCapabilityError", "SeparationError",
    "SeparationReport", "SolveResult", "SolverConfig", "affine_rank",
    "apply_completion", "brute_force_mccp", "chordalize_with_order", "cut_i1",
    "cut_i2", "cut_i3", "cut_i4", "edge", "enumerate_completions", "evaluate",
    "feasible_points", "gen_caveman", "gen_grid",
    "gen_mycielski", "gen_queen", "is_chordal", "is_valid_completion",
    "iter_chordless_cycles", "lift_chord", "lift_conditional", "lift_zero_pad",
    "load_completion", "load_instance",
    "mdo_completion", "mdo_order", "new_graph", "parse_dimacs", "parse_edgelist",
    "primal_repair", "root_initialize", "save_instance", "separate_i2_exact",
    "separate_i3_exact", "separate_integer", "separate_threshold",
    "serialize_dimacs", "serialize_edgelist", "solve", "solve_lp",
]
