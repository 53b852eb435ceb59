"""Kernel backend selection.

The compiled extension serves every graph of at most 62 vertices when it
is built (``python setup.py build_ext --inplace``); the pure-Python
kernels serve everything else, and ``search_level_constrained`` always.
``augment`` is dispatched by the order of the children it builds, one
more than its parent's, so a 62-vertex parent goes to the pure kernel.
Tests reach both backends directly through the ``kernels`` fixture.
"""

from . import pure as _pure

try:
    from . import _ckern as _compiled
except ImportError:
    _compiled = None

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
