"""Graph construction, families, degree/connectivity utilities, and the
edge-list format. Connectivity is cross-checked against networkx."""

import pickle
import random
from functools import lru_cache

import networkx as nx
import pytest

from forcing_lab import (Graph, SolveResult, VertexSet, _kernels,
                         check_extremal_structure, classify_extremal,
                         complete, complete_bipartite, cycle, degree_stats,
                         generate, is_connected, is_k_connected,
                         parse_edge_list, parse_graph6, path, solve,
                         solve_connected_complement, star, trace,
                         tree_from_pruefer)
from forcing_lab._kernels import pure
from forcing_lab.enumeration import enumerate_connected
from forcing_lab.graphs import is_tree, leaves

from conftest import outside_counts, random_graph


class TestVertexSet:
    def test_from_ids_and_iteration(self):
        s = VertexSet.from_ids([4, 0, 2], 5)
        assert list(s) == [0, 2, 4]
        assert len(s) == 3
        assert 2 in s and 1 not in s

    def test_complement(self):
        s = VertexSet.from_ids([0, 2], 4)
        assert list(s.complement()) == [1, 3]
        assert s.complement().complement() == s

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            VertexSet.from_ids([5], 5)
        with pytest.raises(ValueError):
            VertexSet(1 << 5, 5)
        with pytest.raises(ValueError, match="mask must be non-negative"):
            VertexSet(-1, 3)

    def test_immutable(self):
        s = VertexSet.from_ids([1], 3)
        with pytest.raises(AttributeError):
            s.mask = 0


class TestGraph:
    def test_adjacency_is_symmetric(self):
        g = Graph(3, [(0, 1)])
        assert g.neighbor_masks == (0b010, 0b001, 0b000)

    def test_rejects_loops_and_bad_ids(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError, match="vertex count must be non-negative"):
            Graph(-1)

    def test_upper_triangle_mask_round_trip(self):
        # The pure decoder reads every order back, past 62 vertices too.
        rng = random.Random(7)
        for n in [rng.randint(1, 9) for _ in range(50)] + [0, 62, 63, 70]:
            g = random_graph(rng, n, 0.4)
            assert pure.triangle_masks(g.upper_triangle_mask(), n) \
                == g.neighbor_masks

    def test_pickle_round_trip(self):
        g = cycle(5)
        for obj in (g, VertexSet(3, 4)):
            assert pickle.loads(pickle.dumps(obj)) == obj
        assert pickle.loads(pickle.dumps(g)).name == "C_5"
        # Result types, each with its fields in order. They pickle, for
        # callers that split work across their own processes; results are
        # immutable.
        results = [
            (solve(g, 1), ["value", "witness", "nodes_explored", "method",
                           "k", "constrained", "complement_empty"]),
            (classify_extremal(g), ["tag", "parameter"]),
            (trace(g, 1, [0, 1]), ["k", "initial", "events"]),
        ]
        for obj, fields in results:
            cls = type(obj)
            back = pickle.loads(pickle.dumps(obj))
            assert type(back) is cls and back == obj
            with pytest.raises(AttributeError):
                setattr(obj, fields[0], None)
            with pytest.raises(AttributeError):
                obj.extra = None
            values = [getattr(obj, f) for f in fields]
            assert cls(*values) == cls(**dict(zip(fields, values))) == obj
        witness = VertexSet(3, 5)
        assert SolveResult(value=2, witness=witness, nodes_explored=1,
                           method="bnb", k=1) == SolveResult(
            2, witness, 1, "bnb", 1, constrained=False,
            complement_empty=False)


class TestFamilies:
    def test_cycle(self):
        g = cycle(5)
        assert g.n == 5 and g.edge_count() == 5
        assert all(g.degree(v) == 2 for v in range(5))
        assert is_connected(g)

    def test_complete_bipartite_balanced(self):
        g = complete_bipartite(3, 3)
        assert g.n == 6 and g.edge_count() == 9
        assert all(g.degree(v) == 3 for v in range(6))

    def test_complete(self):
        g = complete(5)
        assert g.edge_count() == 10
        assert degree_stats(g) == (4, 4, (4, 4, 4, 4, 4))

    def test_star_and_path(self):
        assert degree_stats(star(3))[:2] == (3, 1)
        assert degree_stats(path(2))[:2] == (1, 1)

    def test_pruefer_00_is_star(self):
        # Decode by hand: both entries attach the smallest leaf to vertex 0,
        # and the final edge joins 0 to 3.
        g = tree_from_pruefer([0, 0])
        assert g.n == 4
        assert g.edges() == [(0, 1), (0, 2), (0, 3)]

    def test_pruefer_round_sizes(self):
        assert tree_from_pruefer(()).n == 2
        g = tree_from_pruefer([3, 3, 3, 4])
        assert g.n == 6 and is_tree(g)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            cycle(2)
        with pytest.raises(ValueError):
            complete(0)
        with pytest.raises(ValueError):
            complete_bipartite(0, 2)
        with pytest.raises(ValueError):
            tree_from_pruefer([5])

    def test_generate_dispatch(self):
        assert generate("cycle", [6]) == cycle(6)
        assert generate("complete_bipartite", [2, 3]) == complete_bipartite(2, 3)
        assert generate("tree_from_pruefer", [0, 0]) == tree_from_pruefer([0, 0])
        with pytest.raises(ValueError):
            generate("hypercube", [3])
        with pytest.raises(ValueError):
            generate("cycle", [3, 4])


def test_degree_stats_petersen(petersen):
    assert degree_stats(petersen)[:2] == (3, 3)


def test_degree_stats_requires_vertices():
    with pytest.raises(ValueError):
        degree_stats(Graph(0))


@lru_cache(maxsize=None)
def _node_connectivities():
    """(neighbor masks, networkx node connectivity) of every connected graph
    on at most 7 vertices."""
    out = []
    for n in range(1, 8):
        for g in map(parse_graph6, enumerate_connected(n)):
            nxg = nx.Graph()
            nxg.add_nodes_from(range(g.n))
            nxg.add_edges_from(g.edges())
            out.append((g.neighbor_masks, nx.node_connectivity(nxg)))
    return out


class TestConnectivity:
    def test_basics(self):
        assert is_connected(cycle(5))
        assert is_connected(path(3))
        assert not is_connected(Graph(2))
        assert is_connected(Graph(1))
        assert is_connected(Graph(0))

    def test_k_connectivity_examples(self):
        assert is_k_connected(cycle(5), 1)
        assert is_k_connected(cycle(5), 2)
        assert not is_k_connected(cycle(5), 3)
        assert is_k_connected(path(3), 1)
        assert not is_k_connected(path(3), 2)
        assert is_k_connected(complete(4), 3)
        assert not is_k_connected(complete(1), 1)
        # More than k vertices are asked for, of a huge k too.
        assert is_k_connected(path(2), 1)
        assert not is_k_connected(path(2), 2)
        assert not is_k_connected(Graph(0), 1)
        assert not is_k_connected(Graph(2), 1)
        assert not is_k_connected(complete(4), 10**30)

    def test_matches_networkx_connectivity(self, kernels, monkeypatch):
        # k-connectivity as graph_facts decides it, through is_k_connected
        # on each backend.
        monkeypatch.setattr(_kernels, "_compiled",
                            None if kernels.BACKEND == "pure" else kernels)
        for nbrs, kappa in _node_connectivities():
            g = Graph._from_masks(nbrs)
            for k in range(1, 5):
                assert is_k_connected(g, k) == (kappa >= k), (nbrs, k)


class TestEdgeBoundary:
    # The edge boundary of the connected-complement witness S is the sum of
    # the dissection's per-vertex counts of neighbours outside S. On these
    # bound-attaining graphs it is |S|, and the structure check holds.
    def test_examples(self):
        for g, size in ((complete(4), 3), (complete_bipartite(3, 3), 4),
                        (cycle(6), 2)):
            solution = solve_connected_complement(g)
            s = solution.witness
            assert len(s) == sum(outside_counts(g, solution)) == size
            cut = [(u, v) for u, v in g.edges() if (u in s) != (v in s)]
            assert len(cut) == size
            assert check_extremal_structure(g, solution) is True

    def test_complement_symmetry(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(60):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, 0.5)
            solution = solve_connected_complement(g)
            if solution.complement_empty:
                continue
            checked += 1
            s = solution.witness
            assert sum(outside_counts(g, solution)) == sum(
                (g.neighbor_masks[v] & s.mask).bit_count()
                for v in s.complement())
        assert checked


def test_leaves():
    assert leaves(star(3)) == (1, 2, 3)
    assert leaves(path(4)) == (0, 3)
    assert leaves(cycle(4)) == ()


class TestEdgeListFormat:
    def test_round_trip(self):
        g = complete_bipartite(2, 3)
        edges = g.edges()
        text = "".join(f"{u} {v}\n" for u, v in edges)
        assert parse_edge_list(f"{g.n} {len(edges)}\n{text}") == g

    def test_parse(self):
        g = parse_edge_list("3 2\n0 1\n1 2\n")
        assert g == path(3)

    def test_rejects_bad_header_and_counts(self):
        with pytest.raises(ValueError):
            parse_edge_list("")
        with pytest.raises(ValueError):
            parse_edge_list("3\n0 1\n")
        with pytest.raises(ValueError) as err:
            parse_edge_list("x y\n")
        assert str(err.value) == 'edge-list header must be two integers "n m"'
        with pytest.raises(ValueError):
            parse_edge_list("3 2\n0 1\n")
        with pytest.raises(ValueError):
            parse_edge_list("2 1\n0 2\n")

    @pytest.mark.parametrize("line", ["1 x", "x 1", "1", "1 2 3", "1 2.0"])
    def test_rejects_a_line_that_is_not_two_integers(self, line):
        with pytest.raises(ValueError) as err:
            parse_edge_list(f"3 1\n{line}\n")
        assert str(err.value) == f"bad edge line: {line!r}"

    @pytest.mark.parametrize("text, line, earlier", [
        ("3 2\n0 1\n1 0\n", "1 0", "0 1"),
        ("3 3\n0 1\n1 2\n0 1\n", "0 1", "0 1"),
        ("4 3\n2  3\n0 1\n3 2\n", "3 2", "2  3"),
    ])
    def test_rejects_repeated_edge(self, text, line, earlier):
        # The header's count matches, but a merged repeat would leave the
        # graph with fewer edges than it promises.
        with pytest.raises(ValueError, match=f"edge line {line!r} repeats "
                                             f"{earlier!r}"):
            parse_edge_list(text)
