"""Kernel backend selection.

The compiled extension serves every graph of at most 62 vertices when it
is built (``python setup.py build_ext --inplace``); the pure-Python
kernels serve everything else, and ``search_level_constrained`` always.
Each kernel has one route from its caller. The six that take a graph of
any order (``closure``, ``connected_in``, ``graph_facts``,
``wavefront``, ``search_level_pruned`` and ``canonical_mask``) pick the
backend per call, by that order. The other four are bound once, here,
from the backend in use: a graph6 line or a packed triangle names at
most 62 vertices, and enumeration stops at 9, so ``augment``,
``triangle_graph6``, ``graph6_masks`` and ``verify_line`` each have one
backend for every call. Callers look those names up on this module when
they run, so a patched or traced kernel is the one they call.
A compiled module built from an older ``_ckern.c`` that lacks one of
``COMPILED_KERNELS`` is not used: every kernel then runs pure, and
``HAVE_COMPILED`` and ``active_backend`` say so. Tests reach both
backends directly through the ``kernels`` fixture.
"""

from . import pure as _pure

# Every kernel this module sends to the compiled extension: all of pure.py
# but the two exhaustive level scans, k_connected, whose cut walk
# graph_facts runs, and triangle_masks, whose unpacking augment and
# graph6_masks do inside.
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


augment = (_compiled or _pure).augment
triangle_graph6 = (_compiled or _pure).triangle_graph6
graph6_masks = (_compiled or _pure).graph6_masks
verify_line = (_compiled or _pure).verify_line
