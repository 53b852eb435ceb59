"""Exact solver: oracle values, oracle/fast-path equivalence, greedy bound,
the connected-complement variant, and budget behavior."""

import random
from itertools import combinations

import pytest

from forcing_lab import (BudgetExceeded, Graph, _kernels, brute_force_oracle,
                         complete, complete_bipartite, cycle, forcing_number,
                         greedy_upper_bound, is_forcing_set, parse_graph6,
                         path, solve, solve_connected_complement, star)
from forcing_lab._kernels import pure
from forcing_lab.enumeration import enumerate_connected
from forcing_lab.graphs import VertexSet, connected_within

from conftest import random_graph


def grid(m, n):
    """P_m x P_n, vertex (r, c) numbered r * n + c."""
    edges = [(r * n + c, r * n + c + 1) for r in range(m) for c in range(n - 1)]
    edges += [(r * n + c, (r + 1) * n + c) for r in range(m - 1) for c in range(n)]
    return Graph(m * n, edges)


def hypercube(d):
    return Graph(1 << d, [(v, v | 1 << b) for v in range(1 << d)
                          for b in range(d) if not v >> b & 1])


class TestOracle:
    @pytest.mark.parametrize("g,k,expected", [
        (cycle(5), 1, 2),
        (complete(5), 1, 4),
        (complete_bipartite(3, 3), 1, 4),
        (complete(5), 2, 3),
        (complete(1), 1, 1),
        (complete(1), 3, 1),
        (path(7), 1, 1),
    ])
    def test_known_values(self, g, k, expected):
        res = brute_force_oracle(g, k)
        assert res.value == expected
        assert res.method == "oracle"
        assert is_forcing_set(g, k, res.witness)
        assert len(res.witness) == res.value

    def test_petersen(self, petersen):
        assert brute_force_oracle(petersen).value == 5

    def test_budget_abort_is_loud(self, petersen):
        with pytest.raises(BudgetExceeded) as err:
            brute_force_oracle(petersen, node_budget=10)
        assert err.value.nodes_explored == 10
        assert err.value.size_reached < 5


class TestSolve:
    def test_matches_oracle_everywhere_small(self):
        for n in range(1, 7):
            for g in map(parse_graph6, enumerate_connected(n)):
                for k in (1, 2, 3):
                    assert (solve(g, k).value
                            == brute_force_oracle(g, k).value), (g.edges(), k)

    def test_path_witness_is_an_endpoint(self):
        res = solve(path(7))
        assert res.value == 1
        assert list(res.witness) == [0]

    def test_petersen(self, petersen):
        res = solve(petersen)
        assert res.value == 5
        assert is_forcing_set(petersen, 1, res.witness)

    def test_lexicographically_smallest_witness(self):
        # {0,1,2,x} never forces K_{3,3}; the first working 4-set in lex
        # order is {0,1,3,4}.
        res = solve(complete_bipartite(3, 3))
        assert list(res.witness) == [0, 1, 3, 4]

    def test_anti_monotone_in_k(self):
        for n in range(2, 6):
            for g in map(parse_graph6, enumerate_connected(n)):
                values = [solve(g, k).value for k in (1, 2, 3, 4)]
                assert values == sorted(values, reverse=True), g.edges()

    def test_value_range(self):
        for n in range(1, 6):
            for g in map(parse_graph6, enumerate_connected(n)):
                v = solve(g).value
                assert 1 <= v <= g.n

    def test_rejects_empty_graph_and_bad_k(self):
        with pytest.raises(ValueError):
            solve(Graph(0))
        with pytest.raises(ValueError):
            solve(cycle(3), 0)

    def test_forcing_number_is_the_wavefront_alone(self):
        # solve's value, from the wavefront's closures only: no level runs.
        for n in range(1, 7):
            for g in map(parse_graph6, enumerate_connected(n)):
                for k in (1, 2, 3):
                    value, nodes = forcing_number(g, k)
                    assert (value, nodes, False) == _kernels.wavefront(
                        g.neighbor_masks, k, 10**9)
                    assert value == solve(g, k).value, (g.edges(), k)

    def test_forcing_number_checks_its_arguments_and_budget(self, petersen):
        with pytest.raises(ValueError):
            forcing_number(Graph(0))
        with pytest.raises(ValueError):
            forcing_number(cycle(3), 0)
        with pytest.raises(BudgetExceeded) as err:
            forcing_number(petersen, node_budget=20)
        assert err.value.nodes_explored == 20
        assert err.value.size_reached == _kernels.wavefront(
            petersen.neighbor_masks, 1, 20)[0] < 5

    def test_forcing_number_counts_the_spent_nodes(self):
        # As in `bounds --k 2`: the k = 2 solve of K_{4,4} runs on what its
        # k = 1 solve left, counts both, and names the whole budget.
        g = complete_bipartite(4, 4)
        assert forcing_number(g, 1) == (6, 33)
        _, nodes = forcing_number(g, 2)
        assert forcing_number(g, 2, spent=33) == (4, 33 + nodes)
        with pytest.raises(BudgetExceeded, match="^node budget 40 exhausted"):
            forcing_number(g, 2, node_budget=40, spent=33)

    def test_budget_abort_never_reported_as_optimum(self, petersen):
        with pytest.raises(BudgetExceeded) as err:
            solve(petersen, node_budget=20)
        assert err.value.nodes_explored <= 20
        assert err.value.size_reached < 5

    @pytest.mark.parametrize("name,k", [("petersen", 1), ("petersen", 2),
                                        ("k33", 1)])
    def test_nodes_are_exactly_the_level_scans(self, petersen, name, k):
        # The node count is the wavefront's closures plus the one pruned
        # level search at the optimum; no other level is scanned.
        g = petersen if name == "petersen" else complete_bipartite(3, 3)
        res = solve(g, k)
        value, wave, aborted = _kernels.wavefront(g.neighbor_masks, k, 10**9)
        witness, level, _ = _kernels.search_level_pruned(
            g.neighbor_masks, k, value, 10**9)
        assert (value, aborted, witness) == (res.value, False,
                                             res.witness.mask)
        assert res.nodes_explored == wave + level

    def test_every_budget_short_of_the_solve_aborts(self, petersen):
        # The wavefront and the final level draw on one budget. An abort in
        # either names every node spent and a size proven not to force.
        nbrs = petersen.neighbor_masks
        wave = _kernels.wavefront(nbrs, 1, 10**9)[1]
        total = solve(petersen).nodes_explored
        for budget in range(total):
            with pytest.raises(BudgetExceeded) as err:
                solve(petersen, node_budget=budget)
            assert err.value.nodes_explored == budget
            if budget < wave:
                settled = _kernels.wavefront(nbrs, 1, budget)[0]
                assert err.value.size_reached == settled
            else:
                assert err.value.size_reached == 4
            assert not any(
                is_forcing_set(petersen, 1, VertexSet.from_ids(ids, 10))
                for ids in combinations(range(10), err.value.size_reached))
        assert solve(petersen, node_budget=total).value == 5

    @pytest.mark.parametrize("m,n", [(6, 7), (7, 7)])
    def test_grid_closed_form(self, kernels, m, n):
        # Z(P_m x P_n) = min(m, n) (AIM Minimum Rank-Special Graphs Work
        # Group, LAA 2008); vertices 0..Z-1 are the smallest witness.
        nbrs = grid(m, n).neighbor_masks
        value, _, aborted = kernels.wavefront(nbrs, 1, 10**6)
        assert (value, aborted) == (min(m, n), False)
        witness, _, _ = kernels.search_level_pruned(nbrs, 1, value, 10**6)
        assert witness == (1 << value) - 1

    @pytest.mark.skipif(not _kernels.HAVE_COMPILED,
                        reason="compiled kernels not built in place")
    def test_hypercube_q5(self):
        # Z(Q_d) = 2^(d-1) (same source); out of reach of a level scan.
        res = solve(hypercube(5), node_budget=2 * 10**6)
        assert res.value == 16
        assert list(res.witness) == list(range(16))

    def test_deterministic(self, petersen):
        a = solve(petersen)
        b = solve(petersen)
        assert a == b


class TestGreedy:
    def test_cycle_reaches_two(self):
        res = greedy_upper_bound(cycle(5))
        assert res.value == 2
        assert res.method == "greedy"

    def test_complete_cannot_beat_optimum(self):
        for n in (3, 5, 7):
            assert greedy_upper_bound(complete(n)).value == n - 1

    def test_single_vertex_when_k_covers_max_degree(self):
        for g in (cycle(6), star(5), complete(4)):
            k = max(g.degree(v) for v in range(g.n))
            assert greedy_upper_bound(g, k).value == 1

    def test_valid_upper_bound_on_random_graphs(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, 0.5)
            for k in (1, 2):
                res = greedy_upper_bound(g, k)
                assert is_forcing_set(g, k, res.witness)
                assert res.value >= solve(g, k).value


class TestConnectedComplement:
    def test_cycle_takes_adjacent_pair(self):
        res = solve_connected_complement(cycle(5))
        assert res.value == 2
        assert res.constrained and not res.complement_empty
        assert list(res.witness) == [0, 1]
        assert connected_within(cycle(5), res.witness.complement())

    def test_complete_leaves_one_vertex(self):
        res = solve_connected_complement(complete(4))
        assert res.value == 3
        assert len(res.witness.complement()) == 1

    def test_single_vertex_degenerates(self):
        res = solve_connected_complement(complete(1))
        assert res.value == 1
        assert res.complement_empty

    def test_witness_forces_and_complement_connects(self):
        for n in range(2, 6):
            for g in map(parse_graph6, enumerate_connected(n)):
                res = solve_connected_complement(g)
                assert is_forcing_set(g, 1, res.witness)
                if not res.complement_empty:
                    assert connected_within(g, res.witness.complement())

    def test_constrained_never_below_unconstrained(self):
        for n in range(2, 6):
            for g in map(parse_graph6, enumerate_connected(n)):
                assert (solve_connected_complement(g).value
                        >= solve(g).value)

    def test_matches_first_qualifying_subset(self):
        # Independent brute force: subsets by size, then ascending mask;
        # the first one that forces and leaves a nonempty connected
        # complement is the value and the witness.
        for n in range(1, 7):
            full = (1 << n) - 1
            order = sorted(range(full), key=lambda m: (m.bit_count(), m))
            for g in map(parse_graph6, enumerate_connected(n)):
                nbrs = g.neighbor_masks
                for k in (1, 2, 3):
                    first = next((m for m in order
                                  if pure.closure(nbrs, k, m) == full
                                  and pure.connected_in(nbrs, full & ~m)),
                                 None)
                    res = solve_connected_complement(g, k)
                    if first is None:
                        expected = (n, full, True)
                    else:
                        expected = (first.bit_count(), first, False)
                    assert (res.value, res.witness.mask,
                            res.complement_empty) == expected, (g, k)

    @pytest.mark.parametrize("name,k", [("petersen", 1), ("petersen", 2),
                                        ("k33", 1), ("two_edges", 1)])
    def test_nodes_are_the_wavefront_and_the_scans(self, petersen, name, k):
        # The wavefront's closures plus every subset the constrained scans
        # visit from its value up to the hit; the two disjoint edges force
        # with 2 vertices but need 3 for a connected complement.
        g = {"petersen": petersen, "k33": complete_bipartite(3, 3),
             "two_edges": Graph(4, [(0, 1), (2, 3)])}[name]
        nbrs = g.neighbor_masks
        res = solve_connected_complement(g, k)
        value, nodes, aborted = _kernels.wavefront(nbrs, k, 10**9)
        assert not aborted
        for size in range(value, g.n):
            witness, level, _ = _kernels.search_level_constrained(
                nbrs, k, size, 10**9)
            nodes += level
            if witness is not None:
                break
        assert (res.value, res.witness.mask) == (size, witness)
        assert res.nodes_explored == nodes

    def test_every_budget_short_of_the_solve_aborts(self, petersen):
        # The wavefront and the scan draw on one budget. An abort in either
        # spends all of it and names a size proven not to qualify.
        nbrs = petersen.neighbor_masks
        wave = _kernels.wavefront(nbrs, 1, 10**9)[1]
        total = solve_connected_complement(petersen).nodes_explored
        assert wave < total
        for budget in range(total):
            with pytest.raises(BudgetExceeded) as err:
                solve_connected_complement(petersen, node_budget=budget)
            assert err.value.nodes_explored == budget
            if budget < wave:
                settled = _kernels.wavefront(nbrs, 1, budget)[0]
                assert err.value.size_reached == settled
            else:
                assert err.value.size_reached == 4
        res = solve_connected_complement(petersen, node_budget=total)
        assert res.value == 5
