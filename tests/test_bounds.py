"""Rational bound arithmetic and the extremal-family classifier."""

import networkx as nx
import pytest

from forcing_lab import (classify_extremal, complete, complete_bipartite,
                         cycle, degree_refined_bound, forcing_number,
                         forcing_upper_bound, parse_graph6, path, solve, star)
from forcing_lab import _kernels
from forcing_lab._kernels import pure
from forcing_lab.bounds import failure_reason
from forcing_lab.enumeration import enumerate_connected
from forcing_lab.graphs import Graph, degree_stats

from conftest import hypothesis_inputs


def test_hypothesis_failure_is_the_rule_it_replaced():
    # The rule as it was written before the graph_facts kernel decided it,
    # on the pure kernels, against the reason verify and bounds name.
    for nbrs in hypothesis_inputs():
        for k in (1, 2, 3, 4):
            if not pure.connected_in(nbrs, (1 << len(nbrs)) - 1):
                expected = "disconnected"
            elif max(map(int.bit_count, nbrs), default=0) < 2:
                expected = "max degree < 2"
            elif k >= 2 and not pure.k_connected(nbrs, k):
                expected = f"not {k}-connected"
            else:
                expected = None
            got = failure_reason(_kernels.graph_facts(nbrs, k)[2], k)
            assert got == expected, (nbrs, k)


def _meets_bound(g, k):
    """``(F_k(g), whether it equals the bound at k)``."""
    value, _ = forcing_number(g, k)
    num, den = forcing_upper_bound(g.n, degree_stats(g)[0], k)
    return value, value * den == num


class TestEqualityBeyondK1:
    # Where the bound is tight at k >= 2, solved exactly for n <= 12.
    def test_complete_graphs_meet_it_at_k_1_and_2_only(self):
        # F_k(K_n) = n - k, and (n - 1)(n - 2) = (n - k)(n + k - 3) only
        # for k in {1, 2}.
        for n in range(3, 13):
            assert [_meets_bound(complete(n), k) for k in range(1, n)] == [
                (n - k, k <= 2) for k in range(1, n)]

    def test_cycles_meet_it_at_k2(self):
        assert all(_meets_bound(cycle(n), 2) == (1, True)
                   for n in range(3, 13))

    def test_balanced_bipartite_at_k2_meets_it_only_at_d2(self):
        # The bound is 2d - 4 + 2/d, an integer only for d <= 2.
        assert [d for d in range(2, 7)
                if _meets_bound(complete_bipartite(d, d), 2)[1]] == [2]


class TestForcingUpperBound:
    def test_cycle_point(self):
        assert forcing_upper_bound(5, 2, 1) == (2, 1)

    def test_complete_point(self):
        num, den = forcing_upper_bound(4, 3, 1)
        assert (num, den) == (6, 2)

    def test_cubic_point(self):
        assert forcing_upper_bound(10, 3, 1) == (12, 2)

    def test_unreduced(self):
        # 18/3, not 6/1
        assert forcing_upper_bound(8, 4, 1) == (18, 3)

    def test_rejects_low_degree(self):
        with pytest.raises(ValueError):
            forcing_upper_bound(5, 1, 1)
        with pytest.raises(ValueError):
            forcing_upper_bound(5, 2, 0)


class TestDegreeRefinedBound:
    def test_star_point(self):
        assert degree_refined_bound(4, 3, 1) == (4, 2)

    def test_regular_case_collapses_to_plain_bound(self):
        for n, d in [(5, 2), (6, 3), (10, 3), (8, 4)]:
            assert degree_refined_bound(n, d, d) == forcing_upper_bound(n, d, 1)

    def test_petersen_point(self):
        assert degree_refined_bound(10, 3, 3) == (12, 2)

    def test_rejects_bad_degrees(self):
        with pytest.raises(ValueError):
            degree_refined_bound(4, 1, 1)
        with pytest.raises(ValueError):
            degree_refined_bound(4, 3, 0)
        with pytest.raises(ValueError):
            degree_refined_bound(4, 3, 4)


class TestClassifier:
    def test_families(self, petersen):
        assert classify_extremal(cycle(7)).tag == "cycle"
        assert classify_extremal(cycle(7)).parameter == 7
        assert classify_extremal(complete_bipartite(4, 4)).tag == \
            "balanced_complete_bipartite"
        assert classify_extremal(complete_bipartite(4, 4)).parameter == 4
        assert classify_extremal(complete(5)).tag == "complete"
        assert classify_extremal(complete(5)).parameter == 4
        assert classify_extremal(petersen) is None

    def test_overlap_resolution(self):
        # K_3 is also C_3; C_4 is also K_{2,2}. Canonical order:
        # complete > balanced_complete_bipartite > cycle.
        assert classify_extremal(complete(3)).tag == "complete"
        assert classify_extremal(cycle(4)).tag == "balanced_complete_bipartite"

    def test_non_members(self):
        assert classify_extremal(path(4)) is None
        assert classify_extremal(star(3)) is None
        assert classify_extremal(complete_bipartite(2, 3)) is None

    def test_balanced_bipartite_matches_networkx(self):
        # A connected d-regular graph on 2d vertices is K_{d,d} exactly
        # when it is bipartite.
        checked = 0
        for n in range(4, 9, 2):
            for g in map(parse_graph6, enumerate_connected(n)):
                dmax, dmin, _ = degree_stats(g)
                if not dmax == dmin == n // 2:
                    continue
                tagged = classify_extremal(g) == (
                    "balanced_complete_bipartite", n // 2)
                assert tagged == nx.is_bipartite(nx.Graph(g.edges())), \
                    g.edges()
                checked += 1
        assert checked > 3
        for d in range(2, 32):
            assert classify_extremal(complete_bipartite(d, d)) == \
                ("balanced_complete_bipartite", d)

    def test_rejects_disconnected(self):
        # Outside the hypotheses is outside every family. The two disjoint
        # triangles are 2-regular, so only the cycle's connectivity test
        # turns them away.
        assert classify_extremal(Graph(4, [(0, 1), (2, 3)])) is None
        assert classify_extremal(parse_graph6("EwCW")) is None

    def test_rejects_max_degree_below_two(self):
        assert classify_extremal(path(2)) is None
        assert classify_extremal(Graph(1)) is None
        with pytest.raises(ValueError):
            classify_extremal(Graph(0))

    def test_exact_on_the_atlas(self):
        # Every graph on 1 to 7 vertices, connected or not: the tag is
        # what isomorphism to K_n, K_{n/2,n/2} or C_n gives, in the
        # classifier's overlap order.
        atlas = nx.graph_atlas_g()[1:]
        assert len(atlas) == 1252
        tagged = 0
        for nxg in atlas:
            n = nxg.number_of_nodes()
            expected = None
            if n >= 3 and nx.is_isomorphic(nxg, nx.complete_graph(n)):
                expected = ("complete", n - 1)
            elif n >= 4 and n % 2 == 0 and nx.is_isomorphic(
                    nxg, nx.complete_bipartite_graph(n // 2, n // 2)):
                expected = ("balanced_complete_bipartite", n // 2)
            elif n >= 3 and nx.is_isomorphic(nxg, nx.cycle_graph(n)):
                expected = ("cycle", n)
            got = classify_extremal(Graph(n, nxg.edges()))
            assert got == expected, (n, sorted(nxg.edges()))
            tagged += got is not None
        # K_3..K_7, K_{2,2}, K_{3,3}, C_5, C_6 and C_7.
        assert tagged == 10


class TestBoundProperties:
    def test_bound_holds_exhaustively_small(self):
        # cross-multiplied, exact integers only
        for n in range(3, 7):
            for g in map(parse_graph6, enumerate_connected(n)):
                dmax, _, _ = degree_stats(g)
                if dmax < 2:
                    continue
                z = solve(g).value
                num, den = forcing_upper_bound(g.n, dmax, 1)
                assert z * den <= num, g.edges()

    def test_refined_bound_dominates(self):
        for n in range(3, 7):
            for g in map(parse_graph6, enumerate_connected(n)):
                dmax, dmin, _ = degree_stats(g)
                if dmax < 2 or dmin < 1:
                    continue
                num, den = forcing_upper_bound(g.n, dmax, 1)
                rnum, rden = degree_refined_bound(g.n, dmax, dmin)
                # refined <= plain, equality iff regular
                assert rnum * den <= num * rden
                assert (rnum * den == num * rden) == (dmax == dmin)

    def test_classified_families_attain_equality(self):
        for g in [cycle(5), cycle(8), complete(4), complete(6),
                  complete_bipartite(3, 3), complete_bipartite(4, 4)]:
            assert classify_extremal(g) is not None
            num, den = forcing_upper_bound(g.n, degree_stats(g)[0], 1)
            assert solve(g).value * den == num, g.name
