"""Exact minimum k-forcing sets.

Two independent routes to the same value. The oracle is a plain brute
force in the pure-Python kernel: it scans subset sizes upward, every
subset of each, and stops at the first size that forces. The fast path,
``forcing_number``, finds the value alone by a best-first search over
closed sets (the ``wavefront`` kernel); ``solve`` then runs one pruned
depth-first search at that size for the lexicographically smallest
witness. A constrained variant restricts the search to sets whose
complement induces a connected subgraph: the oracle's subset scan with
that test, from the wavefront value up, since no smaller set forces.
``_scan_levels`` drives the level searches of all three. A greedy upper
bound is available on its own.

Node counts follow the work done: ``forcing_number`` counts the
wavefront's closures only, and ``solve``'s ``nodes_explored`` adds those of
its witness level. So a ``verify`` record, whose ``solver_nodes`` comes
from ``forcing_number``, counts fewer nodes than ``solve`` on the same
graph.
"""

from collections import namedtuple

from . import _kernels
from ._kernels import pure
from .graphs import VertexSet

# One node budget bounds all the solving done for one graph: each solve
# gets only what the solves before it left. A `verify` record's structure
# check continues the record's solve and runs no wavefront of its own. The
# budget also bounds memory: the wavefront stores at most one closed set
# per node, at most 52 bytes each compiled (a 9-byte slot in a hash table
# at least a quarter full, and an 8-byte queue slot in an array that grows
# by doubling; about 70 while the table doubles) and 70 to 115 pure (a
# dict entry, an int and a list slot). At the default that bound is about
# 5 GB compiled. Far fewer sets than nodes are stored in practice: Q5
# stores 19,033 sets in 296,545 nodes.
DEFAULT_NODE_BUDGET = 10**8


class BudgetExceeded(RuntimeError):
    """Search hit its node budget before proving an optimum.

    Carries the partial picture: ``nodes_explored`` so far and
    ``size_reached``, the largest size proven not to force (one less than
    the proven lower bound).
    """

    def __init__(self, message, nodes_explored, size_reached):
        super().__init__(message)
        self.nodes_explored = nodes_explored
        self.size_reached = size_reached


class SolveResult(namedtuple("SolveResult", [
        "value", "witness", "nodes_explored", "method", "k", "constrained",
        "complement_empty"], defaults=(False, False))):
    """Outcome of a forcing-number computation.

    ``value`` is exact for methods "oracle" and "bnb"; for "greedy" it is
    only an upper bound. ``nodes_explored`` counts closures: for "bnb", the
    wavefront's plus those of the final level search. A constrained result
    counts the wavefront's closures plus every subset its level scans
    visited. ``complement_empty`` flags the degenerate constrained solution
    S = V (no smaller forcing set has a connected nonempty complement).
    """

    __slots__ = ()

    def to_dict(self):
        return {
            "value": self.value,
            "witness": list(self.witness),
            "nodes": self.nodes_explored,
            "method": self.method,
            "k": self.k,
            "constrained": self.constrained,
            "complement_empty": self.complement_empty,
        }


def _check_args(g, k):
    if g.n < 1:
        raise ValueError("forcing numbers need at least one vertex")
    if k < 1:
        raise ValueError("k must be positive")


def forcing_number(g, k=1, *, node_budget=DEFAULT_NODE_BUDGET, spent=0):
    """The exact k-forcing number of ``g`` without a witness, as
    ``(value, nodes)``: the ``wavefront`` kernel's value and the closures
    it computed on what is left of ``node_budget`` after the ``spent``
    nodes, which ``nodes`` includes. Raises BudgetExceeded past
    ``node_budget``; its ``size_reached`` is then the cost being
    expanded, since no set that small forces."""
    _check_args(g, k)
    value, nodes, aborted = _kernels.wavefront(g.neighbor_masks, k,
                                               node_budget - spent)
    nodes += spent
    if aborted:
        raise BudgetExceeded(
            f"node budget {node_budget} exhausted; no set of {value} or "
            f"fewer vertices forces", nodes, value)
    return value, nodes


def _scan_levels(g, k, search, sizes, node_budget, spent=0):
    """Run the level kernel ``search`` at each size in ``sizes``, in order,
    until one returns a witness, on what is left of ``node_budget`` after
    the ``spent`` nodes.

    Returns ``(size, witness, nodes)``, or ``(None, None, nodes)`` when no
    size hits; ``nodes`` includes ``spent``. Callers pass the kernel as
    looked up when they run, so a wrapper installed on its module sees
    every level.
    """
    nbrs = g.neighbor_masks
    total = spent
    for size in sizes:
        witness, nodes, aborted = search(nbrs, k, size, node_budget - total)
        total += nodes
        if aborted:
            raise BudgetExceeded(
                f"node budget {node_budget} exhausted at subset size {size}",
                total, size - 1)
        if witness is not None:
            return size, VertexSet(witness, g.n), total
    return None, None, total


def brute_force_oracle(g, k=1, *, node_budget=DEFAULT_NODE_BUDGET):
    """Exact by construction: try subset sizes 1, 2, ... and within each
    size every subset in ascending mask order; the first forcing set found
    is returned. Always runs the pure-Python kernel, so it stays an
    independent reference for the compiled pruned search.
    """
    _check_args(g, k)
    size, witness, total = _scan_levels(
        g, k, pure.search_level_exhaustive, range(1, g.n + 1), node_budget)
    if witness is None:
        raise AssertionError("the full vertex set always forces")
    return SolveResult(size, witness, total, "oracle", k)


def greedy_upper_bound(g, k=1):
    """Valid forcing set built greedily: repeatedly add the non-colored
    vertex whose addition grows the closure most, ties to the smallest id.
    Size is an upper bound on the k-forcing number."""
    _check_args(g, k)
    nbrs = g.neighbor_masks
    full = (1 << g.n) - 1
    chosen = 0
    cl = 0
    nodes = 0
    while cl != full:
        best_v = -1
        best_cl = 0
        best_gain = -1
        for v in range(g.n):
            if (cl >> v) & 1:
                continue
            cand = _kernels.closure(nbrs, k, cl | (1 << v))
            nodes += 1
            gain = cand.bit_count()
            if gain > best_gain:
                best_gain = gain
                best_v = v
                best_cl = cand
        chosen |= 1 << best_v
        cl = best_cl
    return SolveResult(chosen.bit_count(), VertexSet(chosen, g.n), nodes,
                       "greedy", k)


def solve(g, k=1, *, node_budget=DEFAULT_NODE_BUDGET):
    """Exact k-forcing number and its witness: the ``forcing_number``
    value, then one pruned level search at that size for the witness.

    Matches brute_force_oracle on every input where both complete, and
    returns the lexicographically smallest witness at the optimum. The
    level search skips candidates inside the closure of its partial set,
    which is exact because the wavefront proved that no smaller set
    forces. Both kernels draw on the one ``node_budget``.
    """
    value, nodes = forcing_number(g, k, node_budget=node_budget)
    _, witness, nodes = _scan_levels(
        g, k, _kernels.search_level_pruned, (value,), node_budget, nodes)
    if witness is None:
        raise AssertionError("a set of the wavefront's size always forces")
    return SolveResult(value, witness, nodes, "bnb", k)


def solve_connected_complement(g, k=1, *, node_budget=DEFAULT_NODE_BUDGET):
    """Minimum k-forcing set among those whose complement induces a
    connected subgraph: the first such set, in ascending mask order, of the
    smallest size that has one.

    ``forcing_number`` gives the forcing number, below which no set
    forces; the restricted exhaustive scan runs from that size up to
    n - 1, and both draw on the one ``node_budget``. An abort in either is
    BudgetExceeded, as in ``solve``. When no proper subset qualifies, the
    answer degenerates to S = V (the empty complement); that case comes
    back flagged via ``complement_empty`` rather than silently. ``verify``
    runs the scan alone, from its record's value: no second wavefront.
    """
    value, nodes = forcing_number(g, k, node_budget=node_budget)
    return _connected_complement_from(g, k, value, node_budget, nodes)


def _connected_complement_from(g, k, value, node_budget, spent):
    """The scan of ``solve_connected_complement`` from size ``value``, the
    k-forcing number, after ``spent`` of the ``node_budget`` nodes; the
    result's ``nodes_explored`` includes ``spent``."""
    size, witness, total = _scan_levels(
        g, k, _kernels.search_level_constrained, range(value, g.n),
        node_budget, spent)
    if witness is None:
        return SolveResult(g.n, VertexSet.full(g.n), total, "oracle", k,
                           constrained=True, complement_empty=True)
    return SolveResult(size, witness, total, "oracle", k, constrained=True)
