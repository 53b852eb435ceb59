"""Exhaustive small-graph and tree enumeration.

Connected graphs come from vertex augmentation of connected parents with
canonical-certificate deduplication: each connected class on n - 1
vertices gains a new vertex with every nonempty neighborhood, the
canonical-deletion rule of McKay's "Isomorph-free exhaustive generation"
(J. Algorithms 1998) drops the children whose new vertex could not be the
one deleted, and the minimum-relabeling certificate collapses the
isomorphs that remain. Disconnected graphs are never built. Each order's
class count is checked against the published total. The classes come out
as graph6 lines, the format every sweep reads: this is the built-in
source for orders up to 9, and larger orders are expected to arrive as
graph6 files from external generators (nauty's ``geng``).

Trees come one per class as
``filter(is_tree, map(parse_graph6, enumerate_connected(n)))``;
``random_trees`` draws larger ones from seeded Pruefer sequences.
"""

import random
from functools import lru_cache

from . import _kernels
from .graph6 import encode_triangle_mask
from .graphs import tree_from_pruefer

MAX_ENUMERATION_ORDER = 9

# Published counts of connected classes (OEIS A001349), checked by every
# enumeration.
CONNECTED_CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117,
                          9: 261080}


@lru_cache(maxsize=None)
def _canonical_classes(n):
    """Sorted canonical certificates of the connected graphs on n vertices.

    Each connected class on n - 1 vertices is passed once to
    ``_kernels.augment``, which tries a new vertex with each of the
    2^(n-1) - 1 nonempty neighborhoods and returns the certificates of the
    children that pass the canonical-deletion rule. This is exact: removing
    a non-cut vertex whose (degree, neighbor-degree sum) is smallest leaves
    a connected parent, and the child rebuilt from it passes the rule (the
    proof is in ``pure.augment``); a new vertex with a nonempty neighborhood
    keeps a connected parent connected. Raises AssertionError when the class
    count differs from the published one, so a faulty kernel cannot silently
    shorten a sweep.
    """
    if n == 1:
        return (0,)
    seen = set()
    for parent in _canonical_classes(n - 1):
        seen.update(_kernels.augment(_kernels.triangle_masks(parent, n - 1)))
    if len(seen) != CONNECTED_CLASS_COUNTS[n]:
        raise AssertionError(
            f"enumeration found {len(seen)} connected classes on {n} "
            f"vertices, published count is {CONNECTED_CLASS_COUNTS[n]}")
    return tuple(sorted(seen))


def enumerate_connected(n):
    """An iterator over the graph6 lines of one representative per
    isomorphism class of connected graphs on n vertices, in certificate
    order, each written straight from its certificate, no Graph built.

    Supported for n <= 9 only, checked at the call; beyond that, supply a
    graph6 file produced by an external generator instead. The classes of
    an order are built at the first draw and cached; n = 9 (261,080
    classes, from 399,244 canonical calls) takes about 5 s on the compiled
    backend and about 8 min on the pure one (2 vCPU, Python 3.11).
    """
    if not 1 <= n <= MAX_ENUMERATION_ORDER:
        raise ValueError(
            f"built-in enumeration covers 1 <= n <= {MAX_ENUMERATION_ORDER}; "
            "supply a graph6 file for larger orders")

    def lines():
        for cert in _canonical_classes(n):
            yield encode_triangle_mask(cert, n)
    return lines()


def random_trees(count, min_n, max_n, seed):
    """Seeded stream of random labeled trees with min_n <= n <= max_n; the
    arguments are checked at the call."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if not 2 <= min_n <= max_n:
        raise ValueError("need 2 <= min_n <= max_n")
    rng = random.Random(seed)

    def trees():
        for _ in range(count):
            n = rng.randint(min_n, max_n)
            yield tree_from_pruefer(rng.randrange(n) for _ in range(n - 2))
    return trees()
