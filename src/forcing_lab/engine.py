"""The k-forcing process: closures, forcing tests, and deterministic traces.

The color change rule: a colored vertex with at most k non-colored
neighbors colors all of them. A set forces the graph when repeated
application colors every vertex. All operations are pure functions on
immutable inputs. ``closure`` and ``is_forcing_set`` run the kernel;
``trace`` fires the rule one event at a time, and the ``closure`` command
prints its events.
"""

from collections import namedtuple

from . import _kernels
from .graphs import VertexSet


def _as_mask(g, s):
    if isinstance(s, VertexSet):
        if s.capacity != g.n:
            raise ValueError(f"set capacity {s.capacity} != graph order {g.n}")
        return s.mask
    return VertexSet.from_ids(s, g.n).mask


def closure(g, k, s):
    """Colored set at the fixed point of the rule, starting from ``s``.

    The result is the unique smallest superset of ``s`` closed under the
    rule; application order does not matter.
    """
    if k < 1:
        raise ValueError("k must be positive")
    mask = _kernels.closure(g.neighbor_masks, k, _as_mask(g, s))
    return VertexSet(mask, g.n)


def is_forcing_set(g, k, s):
    """True iff the closure of ``s`` colors every vertex."""
    if k < 1:
        raise ValueError("k must be positive")
    full = (1 << g.n) - 1
    return _kernels.closure(g.neighbor_masks, k, _as_mask(g, s)) == full


class ForcingTrace(namedtuple("ForcingTrace", ["k", "initial", "events"])):
    """Ordered (forcer, forced) events proving what a set colors.

    ``initial`` is a VertexSet and ``events`` a tuple of pairs. Each event
    colors exactly one vertex; at the moment it fires, the forcer is
    colored and has at most k non-colored neighbors, one of which is the
    forced vertex.
    """

    __slots__ = ()

    def final_state(self):
        mask = self.initial.mask
        for _, forced in self.events:
            mask |= 1 << forced
        return VertexSet(mask, self.initial.capacity)


def trace(g, k, s):
    """Deterministic forcing trace from ``s`` to its closure.

    At each step the eligible (forcer, forced) pair with the smallest
    (forcer id, forced id) fires, coloring just that one vertex. Single
    firings reach the same fixed point as batch application: coloring
    never raises a non-colored-neighbor count, so eligibility is never
    lost, only gained.
    """
    if k < 1:
        raise ValueError("k must be positive")
    initial = VertexSet(_as_mask(g, s), g.n)
    nbrs = g.neighbor_masks
    colored = initial.mask
    events = []
    while True:
        fired = None
        for u in VertexSet(colored, g.n):
            w = nbrs[u] & ~colored
            if w and w.bit_count() <= k:
                fired = (u, (w & -w).bit_length() - 1)
                break
        if fired is None:
            break
        colored |= 1 << fired[1]
        events.append(fired)
    return ForcingTrace(k=k, initial=initial, events=tuple(events))

