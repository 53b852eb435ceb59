"""Reference code the benchmark trusts instead of the package.

Graph builders, a graph6 encoder and decoder, the k-forcing closure and
the structural tests behind the correctness gates. Nothing here imports
forcing_lab, so a defect in the package can neither corrupt the
benchmark's inputs nor pass its own checks.

A graph is a list of neighbour bitmasks: bit u of nbrs[v] is set iff uv is
an edge.
"""

import random
from itertools import combinations


def from_edges(n, edges):
    nbrs = [0] * n
    for u, v in edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    return nbrs


def cycle(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return from_edges(n, combinations(range(n), 2))


def complete_bipartite(a, b):
    return from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def grid(m, n):
    """Cartesian product P_m x P_n, vertex (r, c) numbered r * n + c."""
    edges = [(r * n + c, r * n + c + 1) for r in range(m) for c in range(n - 1)]
    edges += [(r * n + c, (r + 1) * n + c) for r in range(m - 1) for c in range(n)]
    return from_edges(m * n, edges)


def hypercube(d):
    return from_edges(1 << d, [(v, v ^ (1 << b)) for v in range(1 << d)
                               for b in range(d) if v < v ^ (1 << b)])


def petersen():
    return from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                      + [(i, i + 5) for i in range(5)])


def random_connected(rng, n, p):
    """G(n, p), redrawn until connected."""
    while True:
        nbrs = from_edges(n, [e for e in combinations(range(n), 2)
                              if rng.random() < p])
        if connected(nbrs, (1 << n) - 1):
            return nbrs


def encode_graph6(nbrs):
    """graph6 for n <= 62: size byte n + 63, then the upper triangle read
    column by column, six bits per byte, each byte offset by 63."""
    n = len(nbrs)
    bits = [(nbrs[j] >> i) & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    return chr(n + 63) + "".join(
        chr(63 + int("".join(map(str, bits[p:p + 6])), 2))
        for p in range(0, len(bits), 6))


def decode_graph6(line):
    n = ord(line[0]) - 63
    bits = "".join(format(ord(ch) - 63, "06b") for ch in line[1:])
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return from_edges(n, [pair for pair, bit in zip(pairs, bits) if bit == "1"])


def closure(nbrs, k, colored):
    """Colour set reached when every coloured vertex with between 1 and k
    uncoloured neighbours keeps colouring all of them."""
    grew = True
    while grew:
        grew = False
        for v in range(len(nbrs)):
            if colored >> v & 1:
                rest = nbrs[v] & ~colored
                if 0 < rest.bit_count() <= k:
                    colored |= rest
                    grew = True
    return colored


def forces(nbrs, k, vertices):
    full = (1 << len(nbrs)) - 1
    return closure(nbrs, k, sum(1 << v for v in vertices)) == full


def connected(nbrs, mask):
    """True iff the vertices in mask induce a connected subgraph."""
    if not mask:
        return True
    seen = frontier = mask & -mask
    while frontier:
        reach = 0
        for v in range(len(nbrs)):
            if frontier >> v & 1:
                reach |= nbrs[v]
        frontier = reach & mask & ~seen
        seen |= frontier
    return seen == mask


def biconnected(nbrs):
    """At least 3 vertices, connected, and no cut vertex."""
    n = len(nbrs)
    full = (1 << n) - 1
    return n >= 3 and connected(nbrs, full) and all(
        connected(nbrs, full & ~(1 << v)) for v in range(n))


def degrees(nbrs):
    return [m.bit_count() for m in nbrs]


def bipartite(nbrs):
    side = {0: 0}
    queue = [0]
    for v in queue:
        for u in range(len(nbrs)):
            if nbrs[v] >> u & 1:
                if u not in side:
                    side[u] = 1 - side[v]
                    queue.append(u)
                elif side[u] == side[v]:
                    return False
    return True


def equality_family(nbrs):
    """(tag, parameter) when a connected graph is one of the k = 1 equality
    cases of the bound, else None: ("complete", degree),
    ("balanced_complete_bipartite", degree) or ("cycle", length), with
    overlaps resolved in that order (K_3 is complete, C_4 is K_{2,2})."""
    n = len(nbrs)
    degs = set(degrees(nbrs))
    if len(degs) != 1 or not connected(nbrs, (1 << n) - 1):
        return None
    d = degs.pop()
    if d == n - 1:
        return ("complete", d)
    if n == 2 * d and bipartite(nbrs):
        return ("balanced_complete_bipartite", d)
    if d == 2:
        return ("cycle", n)
    return None


def smaller_set_forces(nbrs, k, size, constrained):
    """True iff some set of `size` vertices forces the graph (with a
    nonempty connected complement when constrained). Forcing is monotone
    under supersets, so False at size f - 1 proves f minimum."""
    n = len(nbrs)
    full = (1 << n) - 1
    for s in combinations(range(n), size):
        mask = sum(1 << v for v in s)
        if constrained and (mask == full or not connected(nbrs, full & ~mask)):
            continue
        if closure(nbrs, k, mask) == full:
            return True
    return False


def stream_lines(seed, per_cell):
    """Seeded graph6 lines for the verify stream.

    Returns (lines, kinds): per_cell random connected G(n, p) graphs for
    every 9 <= n <= 14 and p in {0.2, 0.3, 0.45, 0.6} (a fixed count per
    cell keeps the work per seed steady), the k = 1 equality families
    C_9..C_20, K_9..K_14 and K_{5,5}..K_{7,7}, and a few lines outside the
    verifier's hypotheses, shuffled together. kinds[i] is "random",
    "family", "skip" (disconnected or max degree < 2) or "malformed".
    """
    rng = random.Random(seed)
    items = [(encode_graph6(random_connected(rng, n, p)), "random")
             for n in range(9, 15) for p in (0.2, 0.3, 0.45, 0.6)
             for _ in range(per_cell)]
    families = ([cycle(n) for n in range(9, 21)]
                + [complete(n) for n in range(9, 15)]
                + [complete_bipartite(d, d) for d in range(5, 8)])
    items += [(encode_graph6(g), "family") for g in families]
    skips = [from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
             from_edges(9, [(i, (i + 1) % 8) for i in range(8)]),
             from_edges(4, [(0, 1), (2, 3)]),
             from_edges(2, [(0, 1)]),
             from_edges(1, [])]
    items += [(encode_graph6(g), "skip") for g in skips]
    # Size byte out of range, truncated payload, trailing garbage, payload
    # byte below 63, and a multi-byte size the codec does not support.
    items += [(line, "malformed")
              for line in ("!abc", "Dh", "A__", "C!", "~?@A")]
    rng.shuffle(items)
    return [line for line, _ in items], [kind for _, kind in items]
