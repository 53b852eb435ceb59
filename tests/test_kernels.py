"""Differential tests of the compiled kernels against the pure-Python
reference, called directly rather than through the dispatcher."""

import random

import pytest

from forcing_lab._kernels import pure

LEVEL_SEARCHES = ("search_level_pruned", "search_level_constrained")


def _random_masks(rng, n, p):
    nbrs = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                nbrs[i] |= 1 << j
                nbrs[j] |= 1 << i
    return nbrs


@pytest.mark.parametrize("name", LEVEL_SEARCHES)
def test_level_searches_match_pure(compiled_kernels, name):
    """Full (witness, nodes, aborted) triples at every size, including
    budgets small enough to abort."""
    rng = random.Random(43)
    compiled, reference = getattr(compiled_kernels, name), getattr(pure, name)
    for n in range(11):
        for p in (0.25, 0.5, 0.8):
            nbrs = _random_masks(rng, n, p)
            for k in (1, 2, 3):
                for size in range(-1, n + 2):
                    for budget in (0, 3, 10**9):
                        expected = reference(nbrs, k, size, budget)
                        assert compiled(nbrs, k, size, budget) == expected, \
                            (nbrs, k, size, budget)


def test_canonical_mask_matches_pure(compiled_kernels):
    # Certificates have n(n-1)/2 bits, more than 32 from n = 9 on. Pure takes
    # about 0.06 s per graph at n = 12 and 0.8 s at n = 14, hence the stop.
    rng = random.Random(47)
    for n in range(13):
        for _ in range(3):
            nbrs = _random_masks(rng, n, 0.5)
            assert compiled_kernels.canonical_mask(nbrs) == pure.canonical_mask(nbrs), n


@pytest.mark.parametrize("call", [
    lambda m, nbrs: m.closure(nbrs, 1, 1),
    lambda m, nbrs: m.connected_in(nbrs, 1),
    lambda m, nbrs: m.search_level_pruned(nbrs, 1, 2, 10),
    lambda m, nbrs: m.search_level_constrained(nbrs, 1, 2, 10),
    lambda m, nbrs: m.canonical_mask(nbrs),
], ids=["closure", "connected_in", "pruned", "constrained", "canonical_mask"])
def test_compiled_refuses_63_vertices(compiled_kernels, call):
    with pytest.raises(ValueError, match="at most 62 vertices"):
        call(compiled_kernels, [0] * 63)


def test_compiled_refuses_masks_beyond_the_last_vertex(compiled_kernels):
    with pytest.raises(ValueError, match="beyond the last vertex"):
        compiled_kernels.closure([0, 0], 1, 0b100)
    with pytest.raises(ValueError, match="beyond the last vertex"):
        compiled_kernels.closure([0, 0b100], 1, 0)
