"""Kernel backend selection.

The compiled extension serves every graph of at most 62 vertices when it
is built (``python setup.py build_ext --inplace``); the pure-Python
kernels serve everything else, and ``search_level_constrained`` always.
``augment`` is dispatched by the order of the children it builds, one
more than its parent's, so a 62-vertex parent goes to the pure kernel;
``triangle_masks`` and ``graph6_masks`` by the order they are given. The
two kernels a sweep calls once per line are handed out whole instead, so
that a run looks its kernel up once: ``graph6_kernel(n)`` gives the
``triangle_graph6`` that serves order n, which writes the enumeration's
lines and ``graph6.encode_triangle_mask``'s, and ``line_kernel`` gives
``verify_line``: a graph6 line names at most 62 vertices, so one backend
serves every line.
A compiled module built from an older ``_ckern.c`` that lacks one of
``COMPILED_KERNELS`` is not used: every kernel then runs pure, and
``HAVE_COMPILED`` and ``active_backend`` say so. Tests reach both
backends directly through the ``kernels`` fixture.
"""

from . import pure as _pure

# Every kernel this module sends to the compiled extension: all of pure.py
# but the two exhaustive level scans and k_connected, whose cut walk
# graph_facts runs.
COMPILED_KERNELS = ("closure", "connected_in", "search_level_pruned",
                    "wavefront", "canonical_mask", "augment",
                    "triangle_masks", "triangle_graph6", "graph6_masks",
                    "graph_facts", "verify_line")


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


def active_backend(n=0):
    """Backend name that a kernel call for an n-vertex graph would use."""
    return _impl(n).BACKEND


def _impl(n):
    if _compiled is not None and n <= _C_MAX_VERTICES:
        return _compiled
    return _pure


def closure(nbrs, k, colored):
    return _impl(len(nbrs)).closure(nbrs, k, colored)


def connected_in(nbrs, mask):
    return _impl(len(nbrs)).connected_in(nbrs, mask)


def graph_facts(nbrs, k):
    return _impl(len(nbrs)).graph_facts(nbrs, k)


def search_level_pruned(nbrs, k, size, node_budget):
    return _impl(len(nbrs)).search_level_pruned(nbrs, k, size, node_budget)


# Pure on every backend: the connected-complement solve runs this scan only
# from the forcing number up, so a compiled copy would save little.
search_level_constrained = _pure.search_level_constrained


def wavefront(nbrs, k, node_budget):
    return _impl(len(nbrs)).wavefront(nbrs, k, node_budget)


def canonical_mask(nbrs):
    return _impl(len(nbrs)).canonical_mask(nbrs)


def augment(nbrs):
    return _impl(len(nbrs) + 1).augment(nbrs)


def triangle_masks(bits, n):
    return _impl(n).triangle_masks(bits, n)


def graph6_kernel(n):
    """The ``triangle_graph6`` kernel that serves order n."""
    return _impl(n).triangle_graph6


def graph6_masks(payload, n):
    return _impl(n).graph6_masks(payload, n)


def line_kernel():
    """The ``verify_line`` kernel that serves every graph6 line."""
    return _impl(_C_MAX_VERTICES).verify_line
