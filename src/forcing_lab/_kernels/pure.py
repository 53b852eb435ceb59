"""Pure-Python kernels for the hot inner loops.

All kernels speak a single low-level dialect: a graph is a sequence of
neighbor bitmasks (``nbrs[v]`` has bit ``u`` set iff ``uv`` is an edge)
and a vertex subset is one Python integer. The compiled extension
(``_ckern``, built from ``_ckern.c``) implements ten of the twelve
functions here with identical semantics (same return values, same node
counts) for n <= 62; this module is the reference, the fallback when the
extension is not built, and the only implementation for n > 62. The
other two run here on every backend: ``k_connected``, whose cut walk the
compiled ``graph_facts`` runs inside itself, and ``triangle_masks``,
whose unpacking the compiled ``augment`` and ``graph6_masks`` do inside
themselves. The exhaustive level scans are ``_kernels``' own, on the
``closure`` and ``connected_in`` of a backend.

Four kernels build or test whole graphs rather than search them:
``triangle_masks`` unpacks the upper-triangle bit layout that graph6, the
canonical certificates, ``augment``'s parents and its children share,
``triangle_graph6`` writes a graph6 line from it, ``graph6_masks`` decodes
a graph6 payload with it, and ``graph_facts`` gives the degrees and
decides the degree bound's hypotheses in one call, k-connectivity by
``k_connected``. ``verify_line`` is a sweep's whole kernel work on one
graph6 line: it frames and decodes the line, then runs ``graph_facts``
and, when the bound applies, ``wavefront``, all in one call, so a line
crosses into the compiled extension once.

``wavefront`` and ``search_level_pruned`` only ever close a closed set
plus a few vertices, so they restart the rule from that set
(``_close_from``) instead of calling ``closure``, which serves any
starting set.
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


def _close_from(nbrs, k, closed, added):
    """``closure(nbrs, k, closed | added)`` for a set ``closed`` that
    ``closure`` leaves unchanged.

    A vertex of ``closed`` has no or more than k uncolored neighbors, and
    only a vertex whose uncolored neighbors change can start to force. So
    the rule is tried on the vertices of ``added`` outside ``closed`` and
    their colored neighbors, and after each force on the vertices it
    colored and their colored neighbors, until none is left to try. The
    closure is the unique fixed point, so the order does not matter.
    """
    colored = closed | added
    todo = added & ~closed
    m = todo
    while m:
        low = m & -m
        todo |= nbrs[low.bit_length() - 1]
        m ^= low
    todo &= colored
    while todo:
        low = todo & -todo
        todo ^= low
        w = nbrs[low.bit_length() - 1] & ~colored
        if w and w.bit_count() <= k:
            colored |= w
            todo |= w
            m = w
            while m:
                low = m & -m
                todo |= nbrs[low.bit_length() - 1]
                m ^= low
            todo &= colored
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
# _ENCODED6[v]: the graph6 payload character of the six low bits of v,
# reversed.
_ENCODED6 = tuple(chr(r + 63) for r in _REVERSED6)


def _triangle_pairs(bits, n):
    """n(n-1)/2, the number of pairs of n vertices, once ``bits`` is
    checked to be a packed upper triangle of n vertices. Raises ValueError
    for a negative n or for bits beyond the triangle."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    pairs = n * (n - 1) // 2
    if bits >> pairs:
        raise ValueError("mask has bits beyond the upper triangle")
    return pairs


def triangle_masks(bits, n):
    """Neighbor masks of the n-vertex graph whose upper triangle is packed
    in ``bits``: bit j(j-1)/2 + i is the pair i < j (column-major, the
    graph6 pair order). Raises ValueError for a negative n or for bits
    beyond the triangle."""
    _triangle_pairs(bits, n)
    masks = [0] * n
    for j in range(1, n):
        col = (bits >> (j * (j - 1) // 2)) & ((1 << j) - 1)
        masks[j] = col
        while col:
            low = col & -col
            masks[low.bit_length() - 1] |= 1 << j
            col ^= low
    return tuple(masks)


def triangle_graph6(bits, n):
    """The graph6 line (no line break) of the n-vertex graph whose upper
    triangle is packed in ``bits``, as for ``triangle_masks``: the size
    character, then each six pairs in order as chr(value + 63), the first
    pair in the high bit. Raises ValueError as ``triangle_masks`` does."""
    pairs = _triangle_pairs(bits, n)
    return chr(n + 63) + "".join([
        _ENCODED6[(bits >> shift) & 63] for shift in range(0, pairs, 6)])


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


# The optional graph6 header, as graph6.HEADER.
_HEADER = ">>graph6<<"


def verify_line(line, k, node_budget):
    """One stripped graph6 line through the degree bound's per-graph
    kernels: framed and decoded by the rules of ``graph6.parse_graph6`` (an
    optional ">>graph6<<" header, a size byte '?'..'}', exactly
    ceil(n(n-1)/12) payload characters, each '?'..'~'), then
    ``graph_facts`` and, when the bound applies, ``wavefront`` at
    ``node_budget``.

    Returns None for a malformed line, else ``(n, max_degree, min_degree,
    reason, value, nodes, aborted)``: the order, ``graph_facts`` and then
    ``wavefront``, or ``(None, 0, False)`` in the last three places when
    ``reason`` is not 0.
    """
    record = line.removeprefix(_HEADER)
    if not record:
        return None
    n = ord(record[0]) - 63
    if not 0 <= n <= 62 or len(record) - 1 != (n * (n - 1) // 2 + 5) // 6:
        return None
    nbrs = graph6_masks(record[1:], n)
    if nbrs is None:
        return None
    dmax, dmin, reason = graph_facts(nbrs, k)
    if reason:
        return n, dmax, dmin, reason, None, 0, False
    return (n, dmax, dmin, reason, *wavefront(nbrs, k, node_budget))


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
        new_cl = _close_from(nbrs, k, base_cl[depth], 1 << v)
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
    so the step leads to ``closure(S | {v} | N(v))``, which ``_close_from``
    finds from the closed S. A vertex of S with no neighbor outside S gives
    nothing and is skipped. Every step costs at least one (a vertex of a
    closed set has no or more than k neighbors outside it), so a bucket is
    never appended to while it is popped.

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
                t = _close_from(nbrs, k, s, (1 << v) | nbrs[v])
                if t == full:
                    limit = step
                elif step + 1 < limit and best.get(t, limit) > step:
                    best[t] = step
                    buckets[step].append(t)
        buckets[cost] = None
        cost += 1
    return limit, nodes, False


def _refine(nbrs):
    """Stable colours of degree-seeded colour refinement (1-WL), as ranks
    0, 1, ...

    The first colour of a vertex is the rank of its degree among the
    distinct degrees. Each round gives every vertex the signature (its
    colour, the sorted colours of its neighbors) and recolours it by the
    rank of that signature among the sorted distinct signatures; it stops
    when a round splits no colour. A signature starts with the old colour,
    so a round keeps the order of the colours it splits. The ranks depend
    on nothing but the graph, so an isomorphism maps each vertex to one of
    the same colour; the compiled kernels compute the same integers.
    """
    n = len(nbrs)
    degs = [m.bit_count() for m in nbrs]
    rank = {d: i for i, d in enumerate(sorted(set(degs)))}
    col = [rank[d] for d in degs]
    adj = [[u for u in range(n) if m >> u & 1] for m in nbrs]
    count = len(rank)
    while count < n:
        sig = [(col[v], tuple(sorted(col[u] for u in adj[v])))
               for v in range(n)]
        rank = {x: i for i, x in enumerate(sorted(set(sig)))}
        if len(rank) == count:
            break
        col = [rank[x] for x in sig]
        count = len(rank)
    return col


def _place(nbrs, cells, perm, pos, used, best, bounded):
    """Branch and bound over the labelings that extend perm[:pos] by placing
    at each later position p an unused vertex of the mask ``cells[p]``, in
    ascending order. Column j of a labeling is the adjacency of the vertex
    at position j to those at positions 0..j-1, the earlier more
    significant; labelings compare column by column.

    ``best[j]`` is column j of the smallest labeling found so far (1 << j,
    one bit too wide for a column, while there is none); a prefix whose
    latest column exceeds it is cut. Unless ``bounded``, a smaller prefix
    replaces it. When ``bounded``, ``best`` is a fixed labeling: the search
    returns True at the first prefix strictly below it, which every
    completion then stays, and False when there is none.
    """
    n = len(nbrs)
    if pos == n:
        return False
    m = cells[pos] & ~used
    while m:
        bit = m & -m
        m ^= bit
        v = bit.bit_length() - 1
        nv = nbrs[v]
        col = 0
        for i in range(pos):
            col = (col << 1) | ((nv >> perm[i]) & 1)
        if pos > 0:
            if col > best[pos]:
                continue
            if col < best[pos]:
                if bounded:
                    return True
                best[pos] = col
                for j in range(pos + 1, n):
                    best[j] = 1 << j
        perm[pos] = v
        if _place(nbrs, cells, perm, pos + 1, used | bit, best, bounded):
            return True
    return False


def canonical_mask(nbrs):
    """Canonical certificate: the minimum upper-triangle mask over all
    vertex relabelings.

    Bit order follows the graph6 payload (column-major upper triangle,
    earlier bits more significant), so two graphs get the same certificate
    iff they are isomorphic. It is ``_place`` with every vertex allowed at
    every position.
    """
    n = len(nbrs)
    if n <= 1:
        return 0
    best = [1 << j for j in range(n)]
    _place(nbrs, [(1 << n) - 1] * n, [0] * n, 0, 0, best, False)
    out = 0
    base = 0
    for j in range(1, n):
        col = best[j]
        for i in range(j):
            if (col >> (j - 1 - i)) & 1:
                out |= 1 << (base + i)
        base += j
    return out


def _automorphism_generators(nbrs):
    """Generators of the automorphism group, each as its tuple of images:
    for every vertex i and every later vertex x of i's colour, the first
    automorphism found that fixes 0..i-1 and maps i to x, if one does. They
    hold a transversal of each stabilizer in the one before, so they
    generate the group; the identity is left out. Found by backtracking
    over colour-preserving bijections, vertex by vertex.
    """
    n = len(nbrs)
    col = _refine(nbrs)
    img = list(range(n))

    def fits(i, x):
        # Mapping i to x keeps i's adjacency to 0..i-1.
        nx = nbrs[x]
        ni = nbrs[i]
        return all(((ni >> j) & 1) == ((nx >> img[j]) & 1) for j in range(i))

    def extend(i, used):
        if i == n:
            return True
        for x in range(n):
            if not used >> x & 1 and col[x] == col[i] and fits(i, x):
                img[i] = x
                if extend(i + 1, used | 1 << x):
                    return True
        return False

    gens = []
    for i in range(n):
        for x in range(i + 1, n):
            img[:i] = range(i)
            if col[x] == col[i] and fits(i, x):
                img[i] = x
                if extend(i + 1, (1 << i) - 1 | 1 << x):
                    gens.append(tuple(img))
    return gens


def _wins_deletion(child, rivals):
    """Cuts 2 to 4 of ``augment``: whether the last vertex w of ``child``
    stays in the canonical deletion class against ``rivals``, the mask of
    the other non-cut vertices whose invariant equals w's.
    """
    n = len(child)
    w = n - 1
    col = _refine(child)
    mine = col[w]
    ties = 0
    m = rivals
    while m:
        u = (m & -m).bit_length() - 1
        m &= m - 1
        if col[u] < mine:
            return False
        if col[u] == mine:
            ties |= 1 << u
    if not ties:
        return True
    # Position 0 holds the first vertex, the rest the others by colour.
    members = [0] * n
    for v, c in enumerate(col):
        members[c] |= 1 << v
    order = sorted(col)
    order.remove(mine)
    cells = [1 << w] + [members[c] for c in order]
    perm = [0] * n
    key = [1 << j for j in range(n)]
    _place(child, cells, perm, 0, 0, key, False)
    while ties:
        u = ties & -ties
        ties ^= u
        cells[0] = u
        if _place(child, cells, perm, 0, 0, key, True):
            return False
    return True


def augment(bits, n):
    """Upper-triangle masks of the one-vertex extensions of the n-vertex
    parent P packed in ``bits``, as for ``triangle_masks``, one per
    isomorphism class of child that has P as its canonical parent. Raises
    ValueError as ``triangle_masks`` does.

    The new vertex w is joined to one nonempty neighborhood S per orbit of
    Aut(P) on vertex subsets, the smallest mask of its orbit, in ascending
    order (the orbits come from ``_automorphism_generators``). The child
    is kept when w lies in its canonical deletion class, cut by cut:

    1. among the non-cut vertices (the child minus the vertex is
       connected), those with the smallest (degree, sum of the neighbors'
       degrees), taken in the child;
    2. among these, those with the smallest ``_refine`` colour;
    3. among these, those u with the smallest key(u), the smallest
       labeling that puts u first and the other vertices in colour order
       (``_place``);
    4. w is kept unless some u has key(u) < key(w), found by a search
       bounded by key(w) that stops at the first smaller labeling.

    Each cut is invariant under isomorphism and the last leaves exactly
    one orbit of the child's automorphism group: equal keys come from two
    labelings with the same matrix, whose composition maps one vertex to
    the other. The returned mask is the child in P's labelling with w
    last: P's mask with S as its last column.

    For connected parents this is McKay's canonical augmentation
    ("Isomorph-free exhaustive generation", J. Algorithms 1998), and over
    the connected classes on n vertices it returns each connected class
    on n + 1 vertices exactly once. At least once: a connected G has a
    vertex v in its deletion class (a leaf of a spanning tree is not a cut
    vertex), G - v is connected, hence some parent P, and the child of P
    on the image of N(v), moved by an automorphism of P onto its orbit's
    smallest mask, is G with w in v's place. At most once: if P + w (S)
    and P' + w' (S') are both kept and isomorphic, an isomorphism can be
    chosen to map w to w', since both lie in the one deletion orbit; it
    maps P onto P', so P = P' and S' is an image of S under Aut(P), hence
    S = S'. A disconnected parent gets no child, since w is then a cut
    vertex.
    """
    nbrs = triangle_masks(bits, n)
    w = 1 << n
    rest = (w << 1) - 1
    if not connected_in(nbrs, w - 1):
        return []
    deg = [m.bit_count() for m in nbrs]
    # Sum of the parent degrees of each vertex's parent neighbors.
    nsum = [0] * n
    for v, m in enumerate(nbrs):
        while m:
            nsum[v] += deg[(m & -m).bit_length() - 1]
            m &= m - 1
    shift = n * (n - 1) // 2
    images = [[1 << x for x in g] for g in _automorphism_generators(nbrs)]
    seen = bytearray(w) if images else None
    out = []
    for s in range(1, w):
        if images:
            if seen[s]:
                continue
            seen[s] = 1
            orbit = [s]
            while orbit:
                t = orbit.pop()
                for gen in images:
                    image = 0
                    m = t
                    while m:
                        low = m & -m
                        image |= gen[low.bit_length() - 1]
                        m ^= low
                    if not seen[image]:
                        seen[image] = 1
                        orbit.append(image)
        k = s.bit_count()
        sw = k
        m = s
        while m:
            sw += deg[(m & -m).bit_length() - 1]
            m &= m - 1
        child = [x | w if s >> v & 1 else x for v, x in enumerate(nbrs)]
        child.append(s)
        rivals = 0
        for u in range(n):
            inside = s >> u & 1
            du = deg[u] + inside
            if du > k:
                continue
            su = nsum[u] + (nbrs[u] & s).bit_count() + inside * k
            if du == k and su > sw:
                continue
            if connected_in(child, rest & ~(1 << u)):
                if du < k or su < sw:
                    break
                rivals |= 1 << u
        else:
            if not rivals or _wins_deletion(child, rivals):
                out.append(bits | s << shift)
    return out
