"""Isomorph-free enumeration, cross-checked against published class counts
and the networkx graph atlas."""

import hashlib
import json

import networkx as nx
import pytest

from forcing_lab import (_kernels, encode_graph6, enumeration, is_connected,
                         parse_graph6, run_tree_leaf_suite)
from forcing_lab._kernels import pure
from forcing_lab.enumeration import (CONNECTED_CLASS_COUNTS,
                                     enumerate_connected, random_trees)
from forcing_lab.graphs import degree_stats, is_tree


def _to_nx(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    return nxg


@pytest.mark.parametrize("n", range(1, 8))
def test_connected_counts_match_published_totals(n):
    assert sum(1 for _ in enumerate_connected(n)) == CONNECTED_CLASS_COUNTS[n]


@pytest.fixture
def fresh_classes(monkeypatch):
    """Rebuild the class cache inside the test; the cache built before it
    is back after it."""
    monkeypatch.setattr(enumeration, "_built", {})


def _certificate(mask, n):
    return _kernels.canonical_mask(pure.triangle_masks(mask, n))


def test_only_connected_parents_are_extended(fresh_classes, monkeypatch):
    # Each connected (m-1)-class is passed to augment exactly once, and
    # nothing else is.
    calls = []
    real = _kernels.augment

    def counting(bits, n):
        calls.append((n, _certificate(bits, n)))
        return real(bits, n)

    monkeypatch.setattr(_kernels, "augment", counting)
    assert sum(1 for _ in enumerate_connected(6)) == CONNECTED_CLASS_COUNTS[6]
    expected = {(m - 1, _certificate(mask, m - 1)) for m in range(2, 7)
                for mask in enumeration._classes(m - 1)}
    assert len(calls) == len(expected) == 1 + 1 + 2 + 6 + 21
    assert set(calls) == expected


def test_wrong_class_count_raises(fresh_classes, monkeypatch):
    # Drop the first child of every 3-vertex parent: order 4 then has 4
    # classes, not 6. Streamed as the top order, its 4 lines come first and
    # the check fails after the last; as parents of order 5 they are
    # checked before any line.
    real = _kernels.augment
    monkeypatch.setattr(_kernels, "augment",
                        lambda bits, n: real(bits, n)[n == 3:])
    lines = []
    with pytest.raises(AssertionError, match="found 4 connected classes on "
                       "4 vertices, published count is 6"):
        lines.extend(enumerate_connected(4))
    assert len(lines) == 4
    stream = enumerate_connected(5)
    with pytest.raises(AssertionError, match="published count is 6"):
        next(stream)


def test_counts_match_networkx_atlas():
    # Independent oracle: the atlas holds every graph on up to 7 vertices.
    atlas_connected = {n: 0 for n in range(1, 8)}
    for nxg in nx.graph_atlas_g()[1:]:
        n = nxg.number_of_nodes()
        if 1 <= n <= 7 and nx.is_connected(nxg):
            atlas_connected[n] += 1
    for n in range(1, 8):
        assert atlas_connected[n] == CONNECTED_CLASS_COUNTS[n]


def test_out_of_range_points_to_graph6_files():
    # Checked at the call, before the first draw. Only a larger order is
    # sent to graph6 files.
    with pytest.raises(ValueError, match="supply a graph6 file"):
        enumerate_connected(10)
    for n in (0, -1):
        with pytest.raises(ValueError, match="^built-in enumeration needs at "
                           f"least one vertex, got n={n}$"):
            enumerate_connected(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_lines_are_the_published_classes_once_each(n, compiled_kernels):
    # The min-relabeling certificates of the lines are pairwise distinct
    # and as many as the published count, so the lines hold every class
    # once: the set of classes that a certificate-sorted enumeration
    # gives, in another order and other labels.
    lines = list(enumerate_connected(n))
    certs = {compiled_kernels.canonical_mask(parse_graph6(line).neighbor_masks)
             for line in lines}
    assert len(lines) == len(certs) == CONNECTED_CLASS_COUNTS[n]


def test_lines_come_in_generation_order(fresh_classes):
    # Each line is its parent's mask with the new vertex's neighborhood S
    # as the last column: parents in the order they were generated, each
    # one's children by ascending S.
    parents = enumeration._classes(5)
    order = []
    for line in enumerate_connected(6):
        mask = parse_graph6(line).upper_triangle_mask()
        order.append((parents.index(mask & 0x3FF), mask >> 10))
    assert order == sorted(set(order))


def test_all_representatives_connected_and_distinct():
    for n in range(1, 7):
        seen = set()
        for line in enumerate_connected(n):
            g = parse_graph6(line)
            assert g.n == n
            assert is_connected(g)
            assert encode_graph6(g) == line
            assert line not in seen
            seen.add(line)


def _triangle_count(g):
    total = 0
    for u, v in g.edges():
        total += (g.neighbor_masks[u] & g.neighbor_masks[v]).bit_count()
    return total // 3


def test_pairwise_non_isomorphic_spot_check():
    # Invariant vector first (degree sequence + triangle count); any two
    # representatives that collide on it must be told apart by a real
    # isomorphism test.
    for n in range(3, 7):
        buckets = {}
        for g in map(parse_graph6, enumerate_connected(n)):
            key = (tuple(sorted(degree_stats(g)[2])), _triangle_count(g))
            buckets.setdefault(key, []).append(g)
        for group in buckets.values():
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    assert not nx.is_isomorphic(_to_nx(group[i]),
                                                _to_nx(group[j]))


def test_enumeration_is_deterministic():
    assert list(enumerate_connected(6)) == list(enumerate_connected(6))


class TestTreeStreams:
    # OEIS A000055: the trees on n vertices up to isomorphism, the
    # exhaustive tree stream of ``lemmas trees``.
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 1), (4, 2), (5, 3),
                                         (6, 6), (7, 11), (8, 23)])
    def test_tree_class_counts(self, n, count):
        trees = list(filter(is_tree,
                            map(parse_graph6, enumerate_connected(n))))
        assert len(trees) == count
        assert all(t.n == n for t in trees)

    def test_random_trees_are_seed_reproducible(self):
        a = [t.edges() for t in random_trees(20, 9, 16, seed=42)]
        b = [t.edges() for t in random_trees(20, 9, 16, seed=42)]
        c = [t.edges() for t in random_trees(20, 9, 16, seed=43)]
        assert a == b
        assert a != c

    def test_random_trees_sizes_and_shape(self):
        trees = list(random_trees(50, 5, 9, seed=1))
        assert len(trees) == 50
        assert all(5 <= t.n <= 9 for t in trees)
        assert all(is_tree(t) for t in trees)

    def test_seeded_stream_with_two_vertex_trees_is_pinned(self):
        # A tree on n vertices draws n - 2 sequence entries, none when
        # n = 2, so 2-vertex trees need no case of their own.
        trees = list(random_trees(500, 2, 16, seed=20260810))
        assert sum(t.n == 2 for t in trees) == 24
        edges = repr([t.edges() for t in trees]).encode()
        assert hashlib.sha256(edges).hexdigest() == (
            "c8815cf12933fddab3862c03df40113c55de5f1ac1ca4d02814e4f22762ce091")
        out = run_tree_leaf_suite(trees)
        assert (out["trees_checked"], out["subsets_checked"]) == (500, 2010)
        digest = json.dumps(out, sort_keys=True).encode()
        assert hashlib.sha256(digest).hexdigest() == (
            "5b6c9d5b16d6dd636739a9a15eab7822f63b7a3695163e3b36b4fea72a5e7f7b")
