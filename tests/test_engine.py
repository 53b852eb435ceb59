"""Coloring-rule engine: closures, forcing tests, traces, and the order
independence / monotonicity properties, on both kernel backends."""

import random
from itertools import combinations

import pytest

from forcing_lab import (ForcingTrace, VertexSet, closure, complete,
                         complete_bipartite, cycle, is_forcing_set, path,
                         star, trace)
from forcing_lab._kernels import pure as pure_kernels

from conftest import TraceError, closure_random_order, random_graph, replay


class TestClosure:
    def test_adjacent_pair_forces_cycle(self):
        out = closure(cycle(5), 1, [0, 1])
        assert len(out) == 5

    def test_single_vertex_stalls_on_cycle(self):
        assert list(closure(cycle(5), 1, [0])) == [0]

    def test_single_vertex_forces_cycle_at_k2(self):
        assert len(closure(cycle(5), 2, [0])) == 5

    def test_empty_set_stays_empty(self):
        assert len(closure(cycle(5), 1, [])) == 0

    def test_k_at_least_max_degree_floods_from_anywhere(self):
        for g in (cycle(6), complete(5), star(4)):
            k = max(g.degree(v) for v in range(g.n))
            assert len(closure(g, k, [g.n - 1])) == g.n

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            closure(cycle(3), 0, [0])

    def test_rejects_wrong_capacity(self):
        with pytest.raises(ValueError):
            closure(cycle(3), 1, VertexSet.from_ids([0], 4))


class TestIsForcingSet:
    def test_k4_three_vertex_sets_force(self):
        g = complete(4)
        for ids in combinations(range(4), 3):
            assert is_forcing_set(g, 1, ids)

    def test_k4_two_vertex_sets_do_not_force(self):
        g = complete(4)
        for ids in combinations(range(4), 2):
            assert not is_forcing_set(g, 1, ids)

    def test_whole_vertex_set_always_forces(self):
        for g in (cycle(4), path(5), complete(3)):
            assert is_forcing_set(g, 1, range(g.n))


class TestTrace:
    def test_path_from_one_end(self):
        tr = trace(path(3), 1, [0])
        assert tr.events == ((0, 1), (1, 2))
        assert len(tr.final_state()) == 3

    def test_lexicographic_tie_break(self):
        # Both colored vertices of the triangle can force vertex 2; the
        # smaller forcer id wins.
        tr = trace(complete(3), 1, [0, 1])
        assert tr.events == ((0, 2),)

    def test_full_set_has_no_events(self):
        tr = trace(cycle(4), 1, range(4))
        assert tr.events == ()

    def test_stalled_trace_covers_only_the_closure(self):
        tr = trace(cycle(5), 1, [0])
        assert tr.events == ()
        assert list(tr.final_state()) == [0]

    def test_replay_validates_and_matches_closure(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 10)
            g = random_graph(rng, n)
            s = VertexSet(rng.getrandbits(n), n)
            k = rng.randint(1, 3)
            tr = trace(g, k, s)
            assert replay(g, tr) == closure(g, k, s)

    def test_replay_rejects_bogus_event(self):
        g = path(3)
        bad = ForcingTrace(k=1, initial=VertexSet.from_ids([0], 3),
                           events=((0, 2),))
        with pytest.raises(TraceError):
            replay(g, bad)
        uncolored = ForcingTrace(k=1, initial=VertexSet.from_ids([0], 3),
                                 events=((1, 2),))
        with pytest.raises(TraceError, match="forcer 1 is not colored"):
            replay(g, uncolored)
        with pytest.raises(TypeError, match="replay needs a Graph"):
            replay(g.neighbor_masks, bad)

    def test_replay_rejects_over_budget_forcer(self):
        g = star(3)
        bad = ForcingTrace(k=1, initial=VertexSet.from_ids([0], 4),
                           events=((0, 1),))
        with pytest.raises(TraceError):
            replay(g, bad)

    def test_deterministic(self):
        a = trace(complete_bipartite(3, 3), 1, [0, 1, 3, 4])
        b = trace(complete_bipartite(3, 3), 1, [0, 1, 3, 4])
        assert a == b


class TestProperties:
    def test_confluence_under_random_orders(self):
        rng = random.Random(101)
        for _ in range(60):
            n = rng.randint(2, 10)
            g = random_graph(rng, n)
            s = rng.getrandbits(n)
            k = rng.randint(1, 3)
            expected = closure(g, k, VertexSet(s, n)).mask
            for _ in range(100):
                assert closure_random_order(g, k, s, rng) == expected

    def test_monotone_in_initial_set(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 10)
            g = random_graph(rng, n)
            k = rng.randint(1, 3)
            small = rng.getrandbits(n)
            big = small | rng.getrandbits(n)
            cs = closure(g, k, VertexSet(small, n))
            cb = closure(g, k, VertexSet(big, n))
            assert cs.mask & ~cb.mask == 0

    def test_monotone_in_k(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(1, 10)
            g = random_graph(rng, n)
            s = VertexSet(rng.getrandbits(n), n)
            k = rng.randint(1, 3)
            assert closure(g, k, s).mask & ~closure(g, k + 1, s).mask == 0

    def test_idempotent(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(1, 10)
            g = random_graph(rng, n)
            s = VertexSet(rng.getrandbits(n), n)
            k = rng.randint(1, 3)
            once = closure(g, k, s)
            assert closure(g, k, once) == once


class TestKernelParity:
    """Both backends must agree bit for bit (tests/test_kernels.py covers
    the other kernels)."""

    def test_closure_matches_across_backends(self, kernels):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(1, 62)
            g = random_graph(rng, n, rng.choice((0.03, 0.08, 0.4)))
            s = rng.getrandbits(n)
            k = rng.randint(1, 4)
            expected = pure_kernels.closure(g.neighbor_masks, k, s)
            assert kernels.closure(g.neighbor_masks, k, s) == expected

    def test_connected_in_matches_bfs(self, kernels):
        rng = random.Random(37)
        for _ in range(300):
            n = rng.randint(1, 62)
            g = random_graph(rng, n, rng.choice((0.03, 0.08, 0.4)))
            mask = rng.getrandbits(n)
            inside = [v for v in range(n) if (mask >> v) & 1]
            # reference: plain set-based reachability within the mask
            if inside:
                seen = {inside[0]}
                stack = [inside[0]]
                while stack:
                    v = stack.pop()
                    for u in inside:
                        if u not in seen and g.neighbor_masks[u] >> v & 1:
                            seen.add(u)
                            stack.append(u)
                expected = len(seen) == len(inside)
            else:
                expected = True
            assert kernels.connected_in(g.neighbor_masks, mask) == expected
