"""Pure-Python kernels for the hot inner loops.

All kernels speak a single low-level dialect: a graph is a sequence of
neighbor bitmasks (``nbrs[v]`` has bit ``u`` set iff ``uv`` is an edge)
and a vertex subset is one Python integer. The compiled extension
(``_ckern``, built from ``_ckern.c``) implements nine of the twelve
functions here with identical semantics (same return values, same node
counts) for n <= 62; this module is the reference, the fallback when the
extension is not built, and the only implementation for n > 62. The
other three run here on every backend. Two are the exhaustive subset
scan, one Gosper walk: the brute-force oracle runs it plain
(``search_level_exhaustive``) and the connected-complement solve as
``search_level_constrained``. The third is ``k_connected``, whose cut
walk the compiled ``graph_facts`` runs inside itself.

Three kernels build or test whole graphs rather than search them:
``triangle_masks`` unpacks the upper-triangle bit layout that graph6 and
the canonical certificates share, ``graph6_masks`` decodes a graph6
payload with it, and ``graph_facts`` gives the degrees and decides the
degree bound's hypotheses in one call, k-connectivity by ``k_connected``.
"""

from itertools import combinations

BACKEND = "pure"


def closure(nbrs, k, colored):
    """Fixed point of the coloring rule from the initial set ``colored``.

    A colored vertex with between 1 and k non-colored neighbors colors
    all of them. The result is the unique smallest superset closed under
    the rule, independent of application order.
    """
    changed = True
    while changed:
        changed = False
        m = colored
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            w = nbrs[v] & ~colored
            if w and w.bit_count() <= k:
                colored |= w
                changed = True
    return colored


def connected_in(nbrs, mask):
    """True iff the subgraph induced by the vertices in ``mask`` is connected.

    The empty set counts as connected (degenerate case; callers decide).
    """
    if mask == 0:
        return True
    seen = mask & -mask
    frontier = seen
    while frontier:
        nxt = 0
        m = frontier
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            nxt |= nbrs[v]
        nxt &= mask & ~seen
        seen |= nxt
        frontier = nxt
    return seen == mask


# _REVERSED6[v]: the six low bits of v in reverse order.
_REVERSED6 = tuple(int(f"{v:06b}"[::-1], 2) for v in range(64))


def triangle_masks(bits, n):
    """Neighbor masks of the n-vertex graph whose upper triangle is packed
    in ``bits``: bit j(j-1)/2 + i is the pair i < j (column-major, the
    graph6 pair order). Raises ValueError for a negative n or for bits
    beyond the triangle."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if bits >> (n * (n - 1) // 2):
        raise ValueError("mask has bits beyond the upper triangle")
    masks = [0] * n
    for j in range(1, n):
        col = (bits >> (j * (j - 1) // 2)) & ((1 << j) - 1)
        masks[j] = col
        while col:
            low = col & -col
            masks[low.bit_length() - 1] |= 1 << j
            col ^= low
    return tuple(masks)


def graph6_masks(payload, n):
    """Neighbor masks from a graph6 payload: the n(n-1)/2 pair bits, six
    to a character, chr(value + 63), the first pair in the high bit.

    Padding bits past the triangle are ignored. Returns None when some
    character lies outside '?'..'~'; raises ValueError when the payload
    does not have exactly ceil(n(n-1)/12) characters.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    pairs = n * (n - 1) // 2
    if len(payload) != (pairs + 5) // 6:
        raise ValueError(
            f"graph6 payload length must be {(pairs + 5) // 6} for n={n}")
    bits = 0
    for pos, ch in enumerate(payload):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            return None
        bits |= _REVERSED6[val] << (6 * pos)
    return triangle_masks(bits & ((1 << pairs) - 1), n)


def k_connected(nbrs, k):
    """True iff the graph has more than k vertices and no vertex cut of
    fewer than k vertices: removing any set of fewer than k vertices
    leaves it connected. A k below 1 asks only for more than k vertices.
    """
    n = len(nbrs)
    if n <= k:
        return False
    full = (1 << n) - 1
    for size in range(k):
        for cut in combinations(range(n), size):
            rest = full
            for v in cut:
                rest &= ~(1 << v)
            if not connected_in(nbrs, rest):
                return False
    return True


def graph_facts(nbrs, k):
    """``(max_degree, min_degree, reason)``: the degree extremes (0 and 0
    on the empty graph) and why the degree bound at ``k`` does not apply,
    checked in this order: 1 when the graph is disconnected, 2 when its
    max degree is below 2, 3 when k >= 2 and it is not k-connected; 0 when
    the bound applies. ``bounds.failure_reason`` names the codes.
    """
    degrees = [m.bit_count() for m in nbrs]
    dmax, dmin = max(degrees, default=0), min(degrees, default=0)
    if not connected_in(nbrs, (1 << len(nbrs)) - 1):
        return dmax, dmin, 1
    if dmax < 2:
        return dmax, dmin, 2
    if k >= 2 and not k_connected(nbrs, k):
        return dmax, dmin, 3
    return dmax, dmin, 0


def search_level_exhaustive(nbrs, k, size, node_budget,
                            connected_complement=False):
    """Scan every ``size``-subset in ascending mask order for a forcing set;
    with ``connected_complement``, for one whose complement is nonempty
    and induces a connected subgraph.

    Returns (witness_mask or None, nodes, aborted). ``nodes`` counts the
    subsets visited, whether or not their complement qualifies; the scan
    aborts once it would exceed ``node_budget``.
    """
    n = len(nbrs)
    full = (1 << n) - 1
    if size < 1 or size > n:
        return None, 0, False
    mask = (1 << size) - 1
    last = mask << (n - size)
    nodes = 0
    while True:
        if nodes >= node_budget:
            return None, nodes, True
        nodes += 1
        comp = full & ~mask
        if ((not connected_complement or comp and connected_in(nbrs, comp))
                and closure(nbrs, k, mask) == full):
            return mask, nodes, False
        if mask == last:
            return None, nodes, False
        # Gosper's hack: the next larger mask with as many bits.
        c = mask & -mask
        r = mask + c
        mask = (((r ^ mask) >> 2) // c) | r


def search_level_pruned(nbrs, k, size, node_budget):
    """Depth-first search for a forcing set of exactly ``size`` vertices.

    Vertices are tried in ascending id order and a candidate already inside
    the closure of the current partial set is skipped (adding it cannot
    enlarge the closure). The skip is exact when no smaller set forces: a
    forcing set holding such a candidate would still force without it. At
    the optimum size the first hit is therefore the lexicographically
    smallest witness.

    Returns (witness_mask or None, nodes, aborted).
    """
    n = len(nbrs)
    full = (1 << n) - 1
    if size < 1 or size > n:
        return None, 0, False
    nodes = 0
    chosen = [0] * size
    base_cl = [0] * (size + 1)
    cand = [0] * size
    depth = 0
    while depth >= 0:
        v = cand[depth]
        if v > n - (size - depth):
            depth -= 1
            if depth >= 0:
                cand[depth] += 1
            continue
        if (base_cl[depth] >> v) & 1:
            cand[depth] += 1
            continue
        if nodes >= node_budget:
            return None, nodes, True
        nodes += 1
        new_cl = closure(nbrs, k, base_cl[depth] | (1 << v))
        if depth + 1 == size:
            if new_cl == full:
                witness = 1 << v
                for i in range(depth):
                    witness |= 1 << chosen[i]
                return witness, nodes, False
            cand[depth] += 1
        else:
            chosen[depth] = v
            base_cl[depth + 1] = new_cl
            depth += 1
            cand[depth] = v + 1
    return None, nodes, False


def wavefront(nbrs, k, node_budget):
    """Exact k-forcing number by best-first search over closed sets.

    Dijkstra over the sets that ``closure`` leaves unchanged, with one FIFO
    bucket per cost, from the empty set (closed: nothing is colored).
    Expanding a closed set S through vertex v pays for v when v is not in
    S and for all but k of its neighbors outside S; v then colors the rest,
    so the step leads to ``closure(S | {v} | N(v))``. A vertex of S with no
    neighbor outside S gives nothing and is skipped. Every step costs at
    least one (a vertex of a closed set has no or more than k neighbors
    outside it), so a bucket is never appended to while it is popped.

    The value is the cost at which the full set is reached; ``limit``, the
    cheapest such cost found so far (n at first, since the full set forces
    itself), is the upper bound: no step of cost ``limit`` or more is
    taken, and no closed set is queued that could only reach the full set
    at cost ``limit`` or more. The search returns as soon as every cost
    below ``limit`` is settled. Buckets are popped in FIFO order, vertices
    tried in ascending order, an entry popped at a cost above the best
    known for its set is skipped, and the budget is checked before each
    closure, so the node count is the same on both backends.

    Returns (value, nodes, aborted); ``nodes`` counts closures. On abort,
    ``value`` is the cost being expanded: every cost up to it is settled,
    so no set of ``value`` or fewer vertices forces. The table and queues
    hold at most one entry per node.
    """
    n = len(nbrs)
    full = (1 << n) - 1
    best = {0: 0}
    buckets = [[] for _ in range(n + 1)]
    buckets[0].append(0)
    limit = n
    nodes = 0
    cost = 0
    while cost < limit:
        for s in buckets[cost]:
            if best[s] != cost:
                continue
            for v in range(n):
                out = nbrs[v] & ~s
                inside = (s >> v) & 1
                if inside and not out:
                    continue
                step = cost + (not inside) + max(0, out.bit_count() - k)
                if step >= limit:
                    continue
                if nodes >= node_budget:
                    return cost, nodes, True
                nodes += 1
                t = closure(nbrs, k, s | (1 << v) | nbrs[v])
                if t == full:
                    limit = step
                elif step + 1 < limit and best.get(t, limit) > step:
                    best[t] = step
                    buckets[step].append(t)
        buckets[cost] = None
        cost += 1
    return limit, nodes, False


def search_level_constrained(nbrs, k, size, node_budget):
    """``search_level_exhaustive`` restricted to forcing sets whose
    complement is nonempty and induces a connected subgraph."""
    return search_level_exhaustive(nbrs, k, size, node_budget, True)


def canonical_mask(nbrs):
    """Canonical certificate: the minimum upper-triangle mask over all
    vertex relabelings.

    Bit order follows the graph6 payload (column-major upper triangle,
    earlier bits more significant), so two graphs get the same certificate
    iff they are isomorphic. Branch-and-bound over partial relabelings;
    prefixes that already exceed the best known column are cut.
    """
    n = len(nbrs)
    if n <= 1:
        return 0
    # best[j] = column j of the smallest labeling found so far; 1 << j is an
    # unattainable sentinel (columns hold j bits).
    best = [1 << j for j in range(n)]
    perm = [0] * n

    def place(pos, used):
        if pos == n:
            return
        for v in range(n):
            bit = 1 << v
            if used & bit:
                continue
            col = 0
            nv = nbrs[v]
            for i in range(pos):
                col = (col << 1) | ((nv >> perm[i]) & 1)
            if pos > 0:
                if col > best[pos]:
                    continue
                if col < best[pos]:
                    best[pos] = col
                    for j in range(pos + 1, n):
                        best[j] = 1 << j
            perm[pos] = v
            place(pos + 1, used | bit)

    place(0, 0)
    out = 0
    base = 0
    for j in range(1, n):
        col = best[j]
        for i in range(j):
            if (col >> (j - 1 - i)) & 1:
                out |= 1 << (base + i)
        base += j
    return out


def augment(nbrs):
    """Certificates of the one-vertex extensions of a parent that pass the
    canonical-deletion rule.

    For each nonempty neighborhood S of a new vertex w, in ascending mask
    order, the child is the parent plus w joined to S. Every vertex gets
    the invariant (degree, sum of its neighbors' degrees), taken in the
    child and compared lexicographically. The child is rejected when some
    vertex u other than w is not a cut vertex (the child minus u is
    connected) and its invariant is strictly below w's. Otherwise the
    ``canonical_mask`` of the child is appended to the returned list,
    duplicates included.

    The rule is exact for connected parents (McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 1998, used here only as a
    prefilter): take any connected graph G on n + 1 >= 2 vertices and a
    non-cut vertex v of G whose invariant is smallest among the non-cut
    vertices (a leaf of a spanning tree is not a cut vertex, so one
    exists). G - v is connected, so it is isomorphic to some parent P on
    n vertices. Joining w to the image of N(v) in P gives a child
    isomorphic to G in which w plays the role of v, so no non-cut vertex
    has a smaller invariant than w and the child is kept. Every connected
    class on n + 1 vertices therefore appears among the certificates
    returned for the connected classes on n vertices.
    """
    n = len(nbrs)
    w = 1 << n
    rest = (w << 1) - 1
    deg = [m.bit_count() for m in nbrs]
    # Sum of the parent degrees of each vertex's parent neighbors.
    nsum = [0] * n
    for v, m in enumerate(nbrs):
        while m:
            nsum[v] += deg[(m & -m).bit_length() - 1]
            m &= m - 1
    out = []
    for s in range(1, w):
        k = s.bit_count()
        sw = k
        m = s
        while m:
            sw += deg[(m & -m).bit_length() - 1]
            m &= m - 1
        child = [x | w if s >> v & 1 else x for v, x in enumerate(nbrs)]
        child.append(s)
        for u in range(n):
            inside = s >> u & 1
            du = deg[u] + inside
            if du > k or (du == k and nsum[u] + (nbrs[u] & s).bit_count()
                          + inside * k >= sw):
                continue
            if connected_in(child, rest & ~(1 << u)):
                break
        else:
            out.append(canonical_mask(child))
    return out
