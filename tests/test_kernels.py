"""Differential tests of the compiled kernels against the pure-Python
reference, called directly rather than through the dispatcher."""

import random
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from forcing_lab import _kernels, brute_force_oracle
from forcing_lab._kernels import pure
from forcing_lab.enumeration import CONNECTED_CLASS_COUNTS, enumerate_connected


def _random_masks(rng, n, p):
    nbrs = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                nbrs[i] |= 1 << j
                nbrs[j] |= 1 << i
    return nbrs


@pytest.mark.parametrize("name", ["search_level_pruned"])
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


def test_constrained_scan_counts_every_subset_visited():
    # A subset whose complement is disconnected is a node too, so the
    # budget bounds the walk however few complements qualify.
    for n in range(1, 7):
        for g in enumerate_connected(n):
            nbrs = g.neighbor_masks
            for size in range(1, n + 1):
                witness, nodes, aborted = pure.search_level_constrained(
                    nbrs, 1, size, 10**9)
                visited = sum(1 for m in range(1 << n) if m.bit_count() == size
                              and (witness is None or m <= witness))
                assert (nodes, aborted) == (visited, False)
                assert pure.search_level_constrained(
                    nbrs, 1, size, nodes - 1) == (None, nodes - 1, True)


def _wavefront_inputs():
    """Every connected graph with at most 7 vertices and seeded G(n, p)
    graphs up to n = 20, as neighbor masks."""
    for n in range(1, 8):
        for g in enumerate_connected(n):
            yield g.neighbor_masks
    rng = random.Random(53)
    for n in (12, 16, 20):
        for p in (0.2, 0.35, 0.5):
            yield _random_masks(rng, n, p)


def test_wavefront_matches_pure(compiled_kernels):
    """Full (value, nodes, aborted) triples, with the budget unlimited and
    cut to 0, 1, half and all but one of the nodes the search needs."""
    for nbrs in _wavefront_inputs():
        for k in (1, 2, 3):
            expected = pure.wavefront(nbrs, k, 10**9)
            assert compiled_kernels.wavefront(nbrs, k, 10**9) == expected, \
                (nbrs, k)
            nodes = expected[1]
            for budget in {0, 1, nodes // 2, nodes - 1} - {-1}:
                cut = pure.wavefront(nbrs, k, budget)
                assert cut[1:] == (min(budget, nodes), nodes > budget), \
                    (nbrs, k, budget)
                assert compiled_kernels.wavefront(nbrs, k, budget) == cut, \
                    (nbrs, k, budget)


def test_wavefront_is_the_forcing_number(kernels):
    for n in range(1, 7):
        for g in enumerate_connected(n):
            for k in (1, 2, 3):
                value, _, aborted = kernels.wavefront(g.neighbor_masks, k, 10**9)
                assert not aborted
                assert value == brute_force_oracle(g, k).value, (g.edges(), k)


def test_wavefront_edge_cases(kernels):
    assert kernels.wavefront([], 1, 0) == (0, 0, False)
    # Without edges every vertex is paid for, and the full set forces
    # itself: no step reaches cost 3.
    assert kernels.wavefront([0, 0, 0], 1, 10) == (3, 9, False)
    # A clamped k: the compiled step cost must not overflow.
    assert kernels.wavefront([0b10, 0b01], -10**30, 10) == (2, 0, False)
    assert kernels.wavefront([0b10, 0b01], 10**30, 10) == (1, 1, False)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmSize from /proc")
def test_wavefront_out_of_memory_raises(compiled_kernels):
    # This G(60, 0.06) grows the peak RSS by about 36 MB (8.4 M nodes); with
    # 8 MB of address space to spare every call must raise MemoryError,
    # free what it took, and leave the module usable.
    code = f"""
import importlib.util, random, resource
spec = importlib.util.spec_from_file_location(
    "forcing_lab._kernels._ckern", {compiled_kernels.__file__!r})
ckern = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ckern)
rng = random.Random(7)
nbrs = [0] * 60
for i in range(60):
    for j in range(i + 1, 60):
        if rng.random() < 0.06:
            nbrs[i] |= 1 << j
            nbrs[j] |= 1 << i
with open("/proc/self/status") as fh:
    vm = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmSize:"))
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, ((vm + 8 * 1024) * 1024, hard))
for _ in range(3):
    try:
        ckern.wavefront(nbrs, 1, 10**9)
    except MemoryError:
        print("MemoryError")
print(ckern.wavefront([0b10, 0b01], 1, 10))
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["MemoryError"] * 3 + ["(1, 1, False)", ""]


def test_canonical_mask_matches_pure(compiled_kernels):
    # Certificates have n(n-1)/2 bits, more than 32 from n = 9 on. Pure takes
    # about 0.06 s per graph at n = 12 and 0.8 s at n = 14, hence the stop.
    rng = random.Random(47)
    for n in range(13):
        for _ in range(3):
            nbrs = _random_masks(rng, n, 0.5)
            assert compiled_kernels.canonical_mask(nbrs) == pure.canonical_mask(nbrs), n


def _parents(m):
    """Neighbor masks of every connected class on m - 1 vertices."""
    return [g.neighbor_masks for g in enumerate_connected(m - 1)]


def _child(nbrs, s):
    """The parent plus a new last vertex joined to the vertices in s."""
    w = 1 << len(nbrs)
    return [x | w if s >> v & 1 else x for v, x in enumerate(nbrs)] + [s]


def test_augment_matches_pure(compiled_kernels, monkeypatch):
    # Every connected graph with n <= 6 and seeded G(n, p) parents up to
    # n = 8, connected or not: the same certificates in the same order.
    rng = random.Random(59)
    parents = [g.neighbor_masks for n in range(1, 7)
               for g in enumerate_connected(n)]
    parents += [_random_masks(rng, n, p) for n in (7, 8) for p in (0.3, 0.6)]
    for nbrs in [[]] + parents:
        assert compiled_kernels.augment(nbrs) == pure.augment(nbrs), nbrs
    # 12-vertex children have 66-bit certificates, past the one-word path.
    # Pure canonical_mask needs about 0.06 s a call there, so the pure rule
    # is checked with the compiled certificates.
    monkeypatch.setattr(pure, "canonical_mask", compiled_kernels.canonical_mask)
    wide = []
    for nbrs in ([(1 << v - 1 if v else 0) | (1 << v + 1 if v < 10 else 0)
                  for v in range(11)], _random_masks(rng, 11, 0.4)):
        kept = compiled_kernels.augment(nbrs)
        assert kept == pure.augment(nbrs), nbrs
        wide += [cert for cert in kept if cert >> 64]
    assert wide


@pytest.mark.parametrize("m", range(2, 8))
def test_augment_reaches_every_class(kernels, m):
    # The deletion rule drops children, never a class: the kept
    # certificates are exactly those of all one-vertex extensions.
    kept, every = set(), set()
    for nbrs in _parents(m):
        kept.update(kernels.augment(nbrs))
        every.update(kernels.canonical_mask(_child(nbrs, s))
                     for s in range(1, 1 << (m - 1)))
    assert kept == every
    assert len(every) == CONNECTED_CLASS_COUNTS[m]


# Children the deletion rule passes to canonical_mask, summed over the
# connected parents, out of 90, 651 and 7,056 one-vertex extensions.
AUGMENT_KEPT = {5: 47, 6: 244, 7: 1816}


@pytest.mark.parametrize("m", sorted(AUGMENT_KEPT))
def test_augment_keeps_the_pinned_number_of_children(kernels, m):
    # A looser rule still enumerates correctly; this makes it fail a test.
    assert sum(len(kernels.augment(nbrs)) for nbrs in _parents(m)) \
        == AUGMENT_KEPT[m]


def test_augment_of_a_62_vertex_parent_goes_to_pure(compiled_kernels,
                                                     monkeypatch):
    # Its children have 63 vertices: the compiled kernel refuses it, and
    # the dispatcher, which picks by the child's order, never sends it there.
    with pytest.raises(ValueError, match="at most 62 vertices"):
        compiled_kernels.augment([0] * 62)
    served = []
    monkeypatch.setattr(_kernels, "_compiled", compiled_kernels)
    monkeypatch.setattr(pure, "augment", lambda nbrs: served.append(len(nbrs)))
    _kernels.augment([0] * 62)
    assert served == [62]


@pytest.mark.parametrize("call", [
    lambda m, nbrs: m.closure(nbrs, 1, 1),
    lambda m, nbrs: m.connected_in(nbrs, 1),
    lambda m, nbrs: m.search_level_pruned(nbrs, 1, 2, 10),
    lambda m, nbrs: m.wavefront(nbrs, 1, 10),
    lambda m, nbrs: m.canonical_mask(nbrs),
    lambda m, nbrs: m.augment(nbrs),
], ids=["closure", "connected_in", "pruned", "wavefront", "canonical_mask",
        "augment"])
def test_compiled_refuses_63_vertices(compiled_kernels, call):
    with pytest.raises(ValueError, match="at most 62 vertices"):
        call(compiled_kernels, [0] * 63)


def test_compiled_refuses_masks_beyond_the_last_vertex(compiled_kernels):
    with pytest.raises(ValueError, match="beyond the last vertex"):
        compiled_kernels.closure([0, 0], 1, 0b100)
    with pytest.raises(ValueError, match="beyond the last vertex"):
        compiled_kernels.closure([0, 0b100], 1, 0)


def test_c_source_compiles_cleanly_under_wall(c_compiler):
    source = Path(pure.__file__).with_name("_ckern.c")
    done = subprocess.run(
        [c_compiler, "-Wall", "-Werror", "-fsyntax-only",
         "-I", sysconfig.get_paths()["include"], str(source)],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
