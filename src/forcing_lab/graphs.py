"""Immutable simple undirected graphs with bit-packed vertex subsets.

Vertex ids are dense 0-based integers (bitmask-friendly); any external
label belongs in ``Graph.name``. Includes the named-family generators,
degree/connectivity utilities and the edge-list input parser.
"""

from itertools import combinations

from . import _kernels


class VertexSet:
    """Bit-packed subset of {0, ..., capacity-1}."""

    __slots__ = ("mask", "capacity")

    def __init__(self, mask, capacity):
        if mask < 0:
            raise ValueError("mask must be non-negative")
        if mask >> capacity:
            raise ValueError(f"member id out of range for capacity {capacity}")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "capacity", capacity)

    def __setattr__(self, name, value):
        raise AttributeError("VertexSet is immutable")

    def __reduce__(self):
        return (VertexSet, (self.mask, self.capacity))

    @classmethod
    def from_ids(cls, ids, capacity):
        mask = 0
        for v in ids:
            if not 0 <= v < capacity:
                raise ValueError(f"vertex id {v} out of range for capacity {capacity}")
            mask |= 1 << v
        return cls(mask, capacity)

    @classmethod
    def full(cls, capacity):
        return cls((1 << capacity) - 1, capacity)

    def complement(self):
        return VertexSet(~self.mask & ((1 << self.capacity) - 1), self.capacity)

    def __contains__(self, v):
        return 0 <= v < self.capacity and (self.mask >> v) & 1 == 1

    def __iter__(self):
        m = self.mask
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def __len__(self):
        return self.mask.bit_count()

    def __eq__(self, other):
        if not isinstance(other, VertexSet):
            return NotImplemented
        return self.mask == other.mask and self.capacity == other.capacity

    def __hash__(self):
        return hash((self.mask, self.capacity))

    def __repr__(self):
        return f"VertexSet({{{', '.join(map(str, self))}}}, capacity={self.capacity})"


class Graph:
    """Simple undirected graph; adjacency stored per vertex as a bitmask.

    Immutable after construction. Invariants enforced: symmetric adjacency,
    no loops, all neighbor ids < n.
    """

    __slots__ = ("n", "neighbor_masks", "name")

    def __init__(self, n, edges=(), name=None):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "neighbor_masks", tuple(masks))
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        return (Graph._from_masks, (self.neighbor_masks, self.name))

    @classmethod
    def _from_masks(cls, masks, name=None):
        """Wrap a tuple of neighbor masks that a kernel built, unchecked:
        the kernel already guarantees the invariants."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", len(masks))
        object.__setattr__(g, "neighbor_masks", masks)
        object.__setattr__(g, "name", name)
        return g

    def upper_triangle_mask(self):
        bits = 0
        for j in range(1, self.n):
            lower = self.neighbor_masks[j] & ((1 << j) - 1)
            bits |= lower << (j * (j - 1) // 2)
        return bits

    def degree(self, v):
        return self.neighbor_masks[v].bit_count()

    def edge_count(self):
        return sum(m.bit_count() for m in self.neighbor_masks) // 2

    def edges(self):
        """Edges as (u, v) with u < v, sorted."""
        out = []
        for v in range(self.n):
            m = self.neighbor_masks[v] & ((1 << v) - 1)
            for u in VertexSet(m, self.n):
                out.append((u, v))
        return sorted(out)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.neighbor_masks == other.neighbor_masks

    def __hash__(self):
        return hash((self.n, self.neighbor_masks))

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"<Graph{label} n={self.n} m={self.edge_count()}>"


# -- named families ----------------------------------------------------------


def cycle(m):
    if m < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(m, [(i, (i + 1) % m) for i in range(m)], name=f"C_{m}")


def complete(n):
    if n < 1:
        raise ValueError("a complete graph needs at least 1 vertex")
    return Graph(n, combinations(range(n), 2), name=f"K_{n}")


def complete_bipartite(a, b):
    if a < 1 or b < 1:
        raise ValueError("both parts need at least 1 vertex")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return Graph(a + b, edges, name=f"K_{{{a},{b}}}")


def path(n):
    if n < 1:
        raise ValueError("a path needs at least 1 vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)], name=f"P_{n}")


def star(leaves):
    if leaves < 1:
        raise ValueError("a star needs at least 1 leaf")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)],
                 name=f"K_{{1,{leaves}}}")


def tree_from_pruefer(seq):
    """Decode a Pruefer sequence into the labeled tree on len(seq)+2 vertices."""
    import heapq

    seq = tuple(seq)
    n = len(seq) + 2
    for s in seq:
        if not 0 <= s < n:
            raise ValueError(f"sequence entry {s} out of range for n={n}")
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph(n, edges, name=f"tree{list(seq)}")


FAMILIES = {
    "cycle": (cycle, 1),
    "complete": (complete, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "path": (path, 1),
    "star": (star, 1),
    "tree_from_pruefer": (tree_from_pruefer, None),
}


def generate(family, params):
    """Build a named-family graph; ``params`` is a sequence of integers."""
    if family not in FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; choose from {sorted(FAMILIES)}"
        )
    fn, arity = FAMILIES[family]
    params = list(params)
    if arity is None:
        return fn(params)
    if len(params) != arity:
        raise ValueError(f"family {family!r} takes {arity} parameter(s)")
    return fn(*params)


# -- invariants and utilities -------------------------------------------------


def degree_stats(g):
    """(max degree, min degree, degree sequence by vertex id)."""
    if g.n < 1:
        raise ValueError("degree stats need at least one vertex")
    seq = tuple(map(int.bit_count, g.neighbor_masks))
    return max(seq), min(seq), seq


def is_connected(g):
    """Single-traversal connectivity; graphs with at most one vertex count
    as connected."""
    full = (1 << g.n) - 1
    return _kernels.connected_in(g.neighbor_masks, full)


def is_k_connected(g, k):
    """Exact k-connectivity: n > k and no vertex cut of fewer than k vertices.

    ``graph_facts`` decides the cuts: reason 0 or 2 (max degree below 2, so
    at most 2 vertices) means connected with no such cut. Its walk runs one
    connectivity test per removal set, so the cost grows as n^(k-1): cheap
    at the small k the sweeps use, on any order graph6 carries.
    """
    if k < 1:
        raise ValueError("k must be positive")
    return g.n > k and _kernels.graph_facts(g.neighbor_masks, k)[2] in (0, 2)


def connected_within(g, s):
    """True iff the subgraph induced by VertexSet ``s`` is connected."""
    return _kernels.connected_in(g.neighbor_masks, s.mask)


def is_tree(g):
    return g.n >= 1 and g.edge_count() == g.n - 1 and is_connected(g)


def leaves(g):
    """Vertices of degree exactly 1, ascending."""
    return tuple(v for v in range(g.n) if g.degree(v) == 1)


# -- edge-list input ----------------------------------------------------------


def parse_edge_list(text):
    """Parse the plain format: first line "n m", then m lines "u v"."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError('edge-list header must be "n m"')
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError('edge-list header must be two integers "n m"') from None
    if len(lines) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(lines) - 1}")
    edges = {}  # (u, v) -> its line, in input order
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise ValueError(f"bad edge line: {ln!r}") from None
        earlier = edges.get((u, v)) or edges.get((v, u))
        if earlier:
            raise ValueError(f"edge line {ln!r} repeats {earlier!r}")
        edges[u, v] = ln
    return Graph(n, edges)

