"""forcing-lab: exact k-forcing numbers of graphs.

A colored vertex with at most k non-colored neighbors colors all of its
non-colored neighbors; a set whose closure under that rule covers the
graph is a k-forcing set. This package computes minimum k-forcing sets
exactly, evaluates the sharp degree upper bounds in exact rational
arithmetic, and verifies exhaustively over all small connected graphs
that bound equality at k = 1 happens precisely on cycles, complete
graphs, and balanced complete bipartite graphs.
"""

__version__ = "0.1.0"

from ._kernels import HAVE_COMPILED, active_backend
from .bounds import (ExtremalClass, classify_extremal, degree_refined_bound,
                     forcing_upper_bound)
from .engine import ForcingTrace, closure, is_forcing_set, trace
from .enumeration import enumerate_connected, random_trees
from .graph6 import Graph6Error, encode_graph6, parse_graph6
from .graphs import (Graph, VertexSet, complete, complete_bipartite, cycle,
                     degree_stats, generate, is_connected, is_k_connected,
                     parse_edge_list, path, star, tree_from_pruefer)
from .solver import (DEFAULT_NODE_BUDGET, BudgetExceeded, SolveResult,
                     brute_force_oracle, forcing_number, greedy_upper_bound,
                     solve, solve_connected_complement)
from .verifier import (VerifyRun, check_extremal_structure,
                       run_known_values, run_tree_leaf_suite)

__all__ = [
    "__version__", "HAVE_COMPILED", "active_backend",
    "Graph", "VertexSet", "Graph6Error", "parse_graph6", "encode_graph6",
    "parse_edge_list",
    "cycle", "complete", "complete_bipartite", "path", "star",
    "tree_from_pruefer", "generate", "degree_stats", "is_connected",
    "is_k_connected",
    "enumerate_connected", "random_trees",
    "closure", "is_forcing_set", "trace", "ForcingTrace",
    "SolveResult", "BudgetExceeded", "DEFAULT_NODE_BUDGET",
    "brute_force_oracle", "forcing_number", "solve", "greedy_upper_bound",
    "solve_connected_complement",
    "forcing_upper_bound", "degree_refined_bound",
    "ExtremalClass", "classify_extremal",
    "VerifyRun", "check_extremal_structure",
    "run_tree_leaf_suite", "run_known_values",
]
