"""Sharp degree-based upper bounds, their hypotheses and the
extremal-family classifier. The ``graph_facts`` kernel alone decides
whether the bound applies, as a reason code read in the same call as the
degrees; ``failure_reason`` names the code. ``verify`` skips and
``bounds`` rejects a graph by that name. ``classify_extremal`` needs no
hypothesis, as a graph outside them is in no family.

Everything here is exact integer arithmetic: bounds are returned as
unreduced (numerator, denominator) pairs and every comparison is
cross-multiplied. No floating point, so equality detection cannot drift.
"""

from collections import namedtuple

from .graphs import degree_stats, is_connected


def failure_reason(code, k):
    """The name of a ``graph_facts`` reason code at ``k``: None for 0 (the
    bound applies), then "disconnected", "max degree < 2" and "not
    k-connected"."""
    if code == 3:
        return f"not {k}-connected"
    return (None, "disconnected", "max degree < 2")[code]


def forcing_upper_bound(n, max_degree, k):
    """Upper bound for the k-forcing number of a connected graph:
    ((max_degree - 2) * n + 2) / (max_degree + k - 2), as an unreduced
    (numerator, denominator) pair. Sharp; at k = 1 its equality cases are
    exactly the cycles, completes, and balanced complete bipartites."""
    if max_degree < 2:
        raise ValueError("bound needs max degree >= 2")
    if k < 1:
        raise ValueError("k must be positive")
    return (max_degree - 2) * n + 2, max_degree + k - 2


def degree_refined_bound(n, max_degree, min_degree):
    """Refinement of the k = 1 bound using the minimum degree:
    ((max_degree - 2) * n - (max_degree - min_degree) + 2) / (max_degree - 1).
    Coincides with forcing_upper_bound(n, max_degree, 1) on regular graphs
    and is strictly smaller otherwise. ``verify`` counts a graph whose
    forcing number exceeds it at k = 1 as a counterexample."""
    if max_degree < 2:
        raise ValueError("bound needs max degree >= 2")
    if not 1 <= min_degree <= max_degree:
        raise ValueError("need 1 <= min_degree <= max_degree")
    return (max_degree - 2) * n - (max_degree - min_degree) + 2, max_degree - 1


class ExtremalClass(namedtuple("ExtremalClass", ["tag", "parameter"])):
    """Structural family tag for a bound-attaining graph.

    ``tag`` is "cycle", "complete", or "balanced_complete_bipartite";
    ``parameter`` is the cycle length for cycles and the degree for the
    other two families.
    """

    __slots__ = ()


def classify_extremal(g):
    """Which of the three k = 1 equality families ``g`` is in, or None:
    exact on every graph with at least one vertex (``degree_stats``
    raises on the empty one). Every family member is regular of degree
    d >= 2, and connected.

    The families overlap on small orders; overlaps resolve in the fixed
    order complete > balanced_complete_bipartite > cycle, so K_3 reports
    "complete" and C_4 = K_{2,2} reports "balanced_complete_bipartite".
    """
    d, dmin, _ = degree_stats(g)
    if dmin != d or d < 2:
        return None
    if d == g.n - 1:
        return ExtremalClass("complete", d)
    if g.n == 2 * d:
        # Let B = N(0) and A = V \ B, so |A| = |B| = d. If every vertex of
        # A has neighbor mask B, then A is independent and joined to all
        # of B; each vertex of B then has its d neighbors in A, so B is
        # independent too, and the graph is K_{d,d}. K_{d,d} passes the
        # test, so the test is exact.
        nbrs = g.neighbor_masks
        b = nbrs[0]
        if all(m == b for v, m in enumerate(nbrs) if not b >> v & 1):
            return ExtremalClass("balanced_complete_bipartite", d)
    if d == 2 and is_connected(g):
        return ExtremalClass("cycle", g.n)
    return None
