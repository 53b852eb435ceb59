"""Kernel backend selection.

One rule picks the backend of every kernel call: the compiled extension
when it is built (``python setup.py build_ext --inplace``) and the graph
has at most 62 vertices, the pure-Python kernels otherwise. ``pure`` is
imported on the first call that needs it, so a process that the compiled
module serves throughout never loads it.
Six kernels (``closure``, ``connected_in``, ``graph_facts``,
``wavefront``, ``search_level_pruned`` and ``canonical_mask``) take a
graph of any order and apply the rule per call. The other four are bound
once, here: a graph6 line or a packed triangle names at most 62
vertices, so ``augment``, ``triangle_graph6``, ``graph6_masks`` and
``verify_line`` have one backend for every call. Callers look names up
on this module when they run, so a patched or traced kernel is the one
they call. ``_level_scan``, the exhaustive subset scan, runs on the
kernels it is given: ``search_level_constrained`` passes the rule's,
and ``search_level_exhaustive``, the brute-force oracle's scan, the pure
``closure`` on every backend, so the oracle stays independent of the
compiled kernels.
A compiled module built from an older ``_ckern.c`` that lacks one of
``COMPILED_KERNELS`` is not used: every kernel then runs pure, and
``HAVE_COMPILED`` and ``active_backend`` say so. Tests reach both
backends directly through the ``kernels`` fixture.
"""

# Every kernel this module sends to the compiled extension: all of pure.py
# but k_connected, whose cut walk graph_facts runs, and triangle_masks,
# whose unpacking augment and graph6_masks do inside.
COMPILED_KERNELS = ("closure", "connected_in", "search_level_pruned",
                    "wavefront", "canonical_mask", "augment",
                    "triangle_graph6", "graph6_masks", "graph_facts",
                    "verify_line")


def _load_compiled():
    """The compiled module, or None when it is not built or lacks one of
    ``COMPILED_KERNELS``."""
    try:
        from . import _ckern
    except ImportError:
        return None
    if all(hasattr(_ckern, name) for name in COMPILED_KERNELS):
        return _ckern
    return None


_compiled = _load_compiled()
HAVE_COMPILED = _compiled is not None
_C_MAX_VERTICES = 62
# The pure kernels once a call has needed them (see ``_load_pure``).
_pure = None


def _load_pure():
    """Import the pure kernels; every later call finds them in ``_pure``."""
    global _pure
    from . import pure
    _pure = pure
    return pure


def active_backend(n=0):
    """Backend name that a kernel call for an n-vertex graph would use."""
    return _impl(n).BACKEND


def _impl(n):
    if _compiled is not None and n <= _C_MAX_VERTICES:
        return _compiled
    return _pure or _load_pure()


def closure(nbrs, k, colored):
    return _impl(len(nbrs)).closure(nbrs, k, colored)


def connected_in(nbrs, mask):
    return _impl(len(nbrs)).connected_in(nbrs, mask)


def graph_facts(nbrs, k):
    return _impl(len(nbrs)).graph_facts(nbrs, k)


def search_level_pruned(nbrs, k, size, node_budget):
    return _impl(len(nbrs)).search_level_pruned(nbrs, k, size, node_budget)


def _level_scan(nbrs, k, size, node_budget, closure, connected_in=None):
    """Scan every ``size``-subset in ascending mask order for a set that
    ``closure`` takes to the full set; with ``connected_in``, for one whose
    complement is nonempty and induces a connected subgraph.

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
        if ((connected_in is None or comp and connected_in(nbrs, comp))
                and closure(nbrs, k, mask) == full):
            return mask, nodes, False
        if mask == last:
            return None, nodes, False
        # Gosper's hack: the next larger mask with as many bits.
        c = mask & -mask
        r = mask + c
        mask = (((r ^ mask) >> 2) // c) | r


def search_level_constrained(nbrs, k, size, node_budget):
    impl = _impl(len(nbrs))
    return _level_scan(nbrs, k, size, node_budget, impl.closure,
                       impl.connected_in)


def search_level_exhaustive(nbrs, k, size, node_budget):
    return _level_scan(nbrs, k, size, node_budget,
                       (_pure or _load_pure()).closure)


def wavefront(nbrs, k, node_budget):
    return _impl(len(nbrs)).wavefront(nbrs, k, node_budget)


def canonical_mask(nbrs):
    return _impl(len(nbrs)).canonical_mask(nbrs)


augment = (_compiled or _load_pure()).augment
triangle_graph6 = (_compiled or _load_pure()).triangle_graph6
graph6_masks = (_compiled or _load_pure()).graph6_masks
verify_line = (_compiled or _load_pure()).verify_line
