"""Exhaustive small-graph and tree enumeration.

Connected graphs come from McKay's canonical augmentation ("Isomorph-free
exhaustive generation", J. Algorithms 1998): ``_kernels.augment`` takes
each connected class on n - 1 vertices as the packed mask that the cache
holds, extends it by a new last vertex and returns, as packed masks,
exactly one child per connected class on n vertices that has it as its
canonical parent, so the classes need no dedup set and no sort.
Disconnected graphs are never built. Each order's class count is checked
against the published total. The orders below the one asked for are built
once and cached; the order asked for is streamed, each line as its parent
is extended, unless it is cached already, and its count is checked after
the last line. The classes come out as graph6 lines, the format every
sweep reads: this is the built-in source for orders up to 9, and larger
orders are expected to arrive as graph6 files from external generators
(nauty's ``geng``).

Line order and labels are those of the augmentation: parents in the order
they were generated, each parent's children in ascending neighborhood
mask, and each graph in its parent's labelling with the new vertex last.
So a line is one representative of its class, not a canonical form.

Trees come one per class as
``filter(is_tree, map(parse_graph6, enumerate_connected(n)))``;
``random_trees`` draws larger ones from seeded Pruefer sequences.
"""

import random

from . import _kernels
from .graphs import tree_from_pruefer

MAX_ENUMERATION_ORDER = 9

# Published counts of connected classes (OEIS A001349), checked by every
# enumeration.
CONNECTED_CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117,
                          9: 261080}


def _check_count(n, found):
    """Raise AssertionError when ``found`` classes on n vertices is not the
    published count, so a faulty kernel cannot silently shorten a sweep."""
    if found != CONNECTED_CLASS_COUNTS[n]:
        raise AssertionError(
            f"enumeration found {found} connected classes on {n} "
            f"vertices, published count is {CONNECTED_CLASS_COUNTS[n]}")


def _children(n):
    """An iterator over the upper-triangle masks of the connected classes
    on n vertices, one each: the children that ``_kernels.augment`` gives
    each class on n - 1 vertices, parent by parent, from the parent's
    cached mask."""
    if n == 1:
        yield 0
        return
    for parent in _classes(n - 1):
        yield from _kernels.augment(parent, n - 1)


# The count-checked masks of each order built as parents, by order.
_built = {}


def _classes(n):
    """The masks of ``_children(n)``, count-checked and kept in ``_built``:
    the parents of order n + 1."""
    if n not in _built:
        classes = tuple(_children(n))
        _check_count(n, len(classes))
        _built[n] = classes
    return _built[n]


def enumerate_connected(n):
    """An iterator over the graph6 lines of one representative per
    isomorphism class of connected graphs on n vertices, each written
    straight from its mask by ``_kernels.triangle_graph6``, looked up when
    the first line is asked for, no Graph built.

    Supported for 1 <= n <= 9 only, checked at the call; beyond that,
    supply a graph6 file produced by an external generator instead. The
    lines come as their parents are extended, or from the cache when an
    earlier call built order n as parents, and the published count is
    checked after the last one: AssertionError then, not StopIteration,
    when it differs. Drained in a fresh process, n = 8 (11,117 classes)
    takes about 0.025 s on the compiled backend and 1.2 s on the pure one,
    n = 9 (261,080 classes) about 0.5 s and 20 s (2 vCPU, Python 3.11).
    """
    if n < 1:
        raise ValueError(
            f"built-in enumeration needs at least one vertex, got n={n}")
    if n > MAX_ENUMERATION_ORDER:
        raise ValueError(
            f"built-in enumeration covers 1 <= n <= {MAX_ENUMERATION_ORDER}; "
            "supply a graph6 file for larger orders")

    def lines():
        encode = _kernels.triangle_graph6
        found = 0
        for mask in _built.get(n) or _children(n):
            found += 1
            yield encode(mask, n)
        _check_count(n, found)
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
