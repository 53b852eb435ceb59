"""forcing-lab: exact k-forcing numbers of graphs.

A colored vertex with at most k non-colored neighbors colors all of its
non-colored neighbors; a set whose closure under that rule covers the
graph is a k-forcing set. This package computes minimum k-forcing sets
exactly, evaluates the sharp degree upper bounds in exact rational
arithmetic, and verifies exhaustively over all small connected graphs
that bound equality at k = 1 happens precisely on cycles, complete
graphs, and balanced complete bipartite graphs.

Importing the package loads none of its submodules: each public name
imports the submodule that defines it on first use.
"""

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "_kernels": ("HAVE_COMPILED", "active_backend"),
    "graphs": ("Graph", "VertexSet", "parse_edge_list", "cycle", "complete",
               "complete_bipartite", "path", "star", "tree_from_pruefer",
               "generate", "degree_stats", "is_connected", "is_k_connected"),
    "graph6": ("Graph6Error", "parse_graph6", "encode_graph6"),
    "enumeration": ("enumerate_connected", "random_trees"),
    "engine": ("closure", "is_forcing_set", "trace", "ForcingTrace"),
    "solver": ("SolveResult", "BudgetExceeded", "DEFAULT_NODE_BUDGET",
               "brute_force_oracle", "forcing_number", "solve",
               "greedy_upper_bound", "solve_connected_complement"),
    "bounds": ("forcing_upper_bound", "degree_refined_bound",
               "ExtremalClass", "classify_extremal"),
    "verifier": ("VerifyRun", "check_extremal_structure",
                 "run_tree_leaf_suite", "run_known_values"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    """Import the submodule that defines ``name`` and keep its value here,
    so that later lookups do not come back."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
