"""Sharp degree-based upper bounds, their hypotheses and the
extremal-family classifier. ``hypothesis_failure`` alone decides whether
the bound applies: ``verify`` skips, ``bounds`` rejects and
``classify_extremal`` refuses a graph by the reason it gives.

Everything here is exact integer arithmetic: bounds are returned as
unreduced (numerator, denominator) pairs and every comparison is
cross-multiplied. No floating point, so equality detection cannot drift.
"""

from collections import namedtuple

from .graphs import degree_stats, is_connected, is_k_connected


def hypothesis_failure(g, k):
    """Why the bound at ``k`` does not apply to ``g``: "disconnected",
    "max degree < 2" or "not k-connected" (k >= 2 only), checked in that
    order; None when it applies."""
    if not is_connected(g):
        return "disconnected"
    if max(map(int.bit_count, g.neighbor_masks), default=0) < 2:
        return "max degree < 2"
    if k >= 2 and not is_k_connected(g, k):
        return f"not {k}-connected"
    return None


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


class BoundReport(namedtuple("BoundReport", [
        "n", "max_degree", "min_degree", "k", "bound_num", "bound_den",
        "refined_num", "refined_den", "meets_equality"])):
    """Both bounds for one graph, plus the verdict of whether its exactly
    computed k-forcing number equals the bound at the same k."""

    __slots__ = ()

    def to_dict(self):
        return self._asdict()


def build_bound_report(g, k, f_k):
    """Assemble a BoundReport for graph ``g`` from its exact k-forcing
    number ``f_k`` (callers compute it with the solver)."""
    dmax, dmin, _ = degree_stats(g)
    num, den = forcing_upper_bound(g.n, dmax, k)
    rnum, rden = degree_refined_bound(g.n, dmax, dmin)
    return BoundReport(
        n=g.n, max_degree=dmax, min_degree=dmin, k=k,
        bound_num=num, bound_den=den,
        refined_num=rnum, refined_den=rden,
        meets_equality=f_k * den == num,
    )


class ExtremalClass(namedtuple("ExtremalClass", ["tag", "parameter"])):
    """Structural family tag for a bound-attaining graph.

    ``tag`` is "cycle", "complete", or "balanced_complete_bipartite";
    ``parameter`` is the cycle length for cycles and the degree for the
    other two families.
    """

    __slots__ = ()


def classify_extremal(g):
    """Match a graph inside the k = 1 hypotheses against the three
    equality families; None when it is none of them. A graph outside
    them raises ValueError with the ``hypothesis_failure`` reason.

    The families overlap on small orders; overlaps resolve in the fixed
    order complete > balanced_complete_bipartite > cycle, so K_3 reports
    "complete" and C_4 = K_{2,2} reports "balanced_complete_bipartite".
    """
    reason = hypothesis_failure(g, 1)
    if reason:
        raise ValueError(f"graph outside the bound's hypotheses: {reason}")
    dmax, dmin, _ = degree_stats(g)
    if dmin != dmax:
        return None
    d = dmax
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
    if d == 2:
        return ExtremalClass("cycle", g.n)
    return None
