"""Differential tests of the compiled kernels against the pure-Python
reference, called directly rather than through the dispatcher, and tests
of which backend the dispatcher picks."""

import inspect
import random
import subprocess
import sys
import sysconfig
import types
from pathlib import Path

import pytest

import forcing_lab
from forcing_lab import (DEFAULT_NODE_BUDGET, Graph, Graph6Error, _kernels,
                         brute_force_oracle, encode_graph6, parse_graph6)
from forcing_lab._kernels import pure
from forcing_lab.enumeration import CONNECTED_CLASS_COUNTS, enumerate_connected

from conftest import (BOUND_KERNELS, compiled_module, hypothesis_inputs,
                      random_masks)


@pytest.mark.parametrize("name", ["search_level_pruned"])
def test_level_searches_match_pure(compiled_kernels, name):
    """Full (witness, nodes, aborted) triples at every size, including
    budgets small enough to abort."""
    rng = random.Random(43)
    compiled, reference = getattr(compiled_kernels, name), getattr(pure, name)
    for n in range(11):
        for p in (0.25, 0.5, 0.8):
            nbrs = random_masks(rng, n, p)
            for k in (1, 2, 3):
                for size in range(-1, n + 2):
                    for budget in (0, 3, 10**9):
                        expected = reference(nbrs, k, size, budget)
                        assert compiled(nbrs, k, size, budget) == expected, \
                            (nbrs, k, size, budget)


@pytest.mark.parametrize("name", ["search_level_exhaustive",
                                  "search_level_constrained"])
def test_constrained_scan_counts_every_subset_visited(name):
    # Both scans walk the same subsets and stop at the first that
    # qualifies. A subset whose complement is disconnected is a node too,
    # so the budget bounds the constrained walk however few qualify.
    scan = getattr(pure, name)
    constrained = name == "search_level_constrained"
    for n in range(1, 7):
        full = (1 << n) - 1
        for g in map(parse_graph6, enumerate_connected(n)):
            nbrs = g.neighbor_masks
            for size in range(1, n + 1):
                subsets = [m for m in range(1 << n) if m.bit_count() == size]
                hits = [m for m in subsets if pure.closure(nbrs, 1, m) == full]
                if constrained:
                    hits = [m for m in hits if m != full
                            and pure.connected_in(nbrs, full & ~m)]
                witness, nodes, aborted = scan(nbrs, 1, size, 10**9)
                assert witness == next(iter(hits), None)
                visited = sum(1 for m in subsets
                              if witness is None or m <= witness)
                assert (nodes, aborted) == (visited, False)
                assert scan(nbrs, 1, size, nodes - 1) == (None, nodes - 1, True)


def _wavefront_inputs():
    """Every connected graph with at most 7 vertices and seeded G(n, p)
    graphs up to n = 20, as neighbor masks."""
    for n in range(1, 8):
        for g in map(parse_graph6, enumerate_connected(n)):
            yield g.neighbor_masks
    rng = random.Random(53)
    for n in (12, 16, 20):
        for p in (0.2, 0.35, 0.5):
            yield random_masks(rng, n, p)


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


def test_closure_matches_pure_exhaustively(compiled_kernels):
    # The compiled closure is the restarted rule from the empty set, which
    # is closed; pure's round-robin closure is the reference. Every start
    # on every labeled graph of at most 5 vertices, then seeded starts,
    # sparse, dense and single vertices, on the larger hypothesis graphs.
    rng = random.Random(101)
    for nbrs in hypothesis_inputs():
        n = len(nbrs)
        if n <= 5:
            starts = range(1 << n)
        else:
            starts = [rng.getrandbits(n) & rng.getrandbits(n)
                      for _ in range(4)]
            starts += [rng.getrandbits(n) for _ in range(4)]
            starts += [1 << rng.randrange(n)]
        for k in (1, 2, 3):
            for start in starts:
                assert compiled_kernels.closure(nbrs, k, start) \
                    == pure.closure(nbrs, k, start), (nbrs, k, start)


def test_close_from_is_the_closure():
    # From a closed set S and any A, the restarted rule reaches the
    # closure of S | A. The compiled helper mirrors this one line for line.
    # From the empty set it is what the compiled closure runs, checked
    # above; from other closed sets the pins below and the n = 8 sweep pin
    # check it.
    rng = random.Random(97)
    for _ in range(300):
        n = rng.randrange(1, 16)
        nbrs = random_masks(rng, n, rng.choice((0.2, 0.4, 0.7)))
        k = rng.randrange(1, 4)
        closed = pure.closure(nbrs, k, rng.getrandbits(n) & rng.getrandbits(n))
        added = rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
        assert pure._close_from(nbrs, k, closed, added) \
            == pure.closure(nbrs, k, closed | added), (nbrs, k, closed, added)


def _torus(a, b):
    """Neighbor masks of C_a x C_b, vertex (r, c) numbered r * b + c."""
    return [sum(1 << u for u in {((r + 1) % a) * b + c, ((r - 1) % a) * b + c,
                                 r * b + (c + 1) % b, r * b + (c - 1) % b})
            for r in range(a) for c in range(b)]


@pytest.mark.parametrize("nbrs, expected", [
    ([sum(1 << (v ^ 1 << b) for b in range(5)) for v in range(32)],
     (16, 296545, False)),
    (_torus(7, 8), (14, 766529, False))], ids=["Q5", "C7xC8"])
def test_compiled_wavefront_on_costly_graphs(compiled_kernels, nbrs,
                                             expected):
    # Both backends restart each closure from the closed set it extends, so
    # the differential tests cannot see a force the restart would skip:
    # the value and node count of each are pinned from the full closure.
    assert compiled_kernels.wavefront(nbrs, 1, 10**9) == expected


def test_wavefront_is_the_forcing_number(kernels):
    for n in range(1, 7):
        for g in map(parse_graph6, enumerate_connected(n)):
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
            nbrs = random_masks(rng, n, 0.5)
            assert compiled_kernels.canonical_mask(nbrs) == pure.canonical_mask(nbrs), n


def _parents(m):
    """Packed upper triangles of every connected class on m - 1
    vertices."""
    return [parse_graph6(line).upper_triangle_mask()
            for line in enumerate_connected(m - 1)]


def _packed(nbrs):
    """The packed upper triangle of the graph with neighbor masks nbrs."""
    return Graph._from_masks(tuple(nbrs)).upper_triangle_mask()


def _child(nbrs, s):
    """The parent plus a new last vertex joined to the vertices in s."""
    w = 1 << len(nbrs)
    return [x | w if s >> v & 1 else x for v, x in enumerate(nbrs)] + [s]


def test_augment_matches_pure(compiled_kernels):
    # Every labeled graph with n <= 5, every connected class with n = 6
    # and 7, and seeded G(n, p) parents with n = 8, connected or not: the
    # same masks in the same order.
    rng = random.Random(59)
    parents = [(bits, n) for n in range(6)
               for bits in range(1 << (n * (n - 1) // 2))]
    parents += [(bits, m - 1) for m in (7, 8) for bits in _parents(m)]
    parents += [(_packed(random_masks(rng, 8, p)), 8) for p in (0.3, 0.6)]
    for bits, n in parents:
        assert compiled_kernels.augment(bits, n) == pure.augment(bits, n), \
            (bits, n)
    # 12-vertex children have 66-bit masks, past the one-word path, and a
    # 12-vertex parent arrives in two words.
    wide = []
    path = [(1 << v - 1 if v else 0) | (1 << v + 1 if v < 10 else 0)
            for v in range(11)]
    for nbrs in (path, random_masks(rng, 11, 0.4), random_masks(rng, 12, 0.3)):
        bits, n = _packed(nbrs), len(nbrs)
        kept = compiled_kernels.augment(bits, n)
        assert kept == pure.augment(bits, n), (bits, n)
        wide += [mask for mask in kept if mask >> 64]
    assert wide


@pytest.mark.parametrize("m", range(2, 8))
def test_augment_reaches_every_class(kernels, compiled_kernels, m):
    # Each child is its parent's mask with the new vertex's neighborhood
    # as the last column, and the children over all connected parents are
    # the classes of all one-vertex extensions, each once. The classes are
    # told apart by the compiled canonical_mask on both backends, since
    # test_canonical_mask_matches_pure covers the pure one.
    certificate = compiled_kernels.canonical_mask
    shift = (m - 1) * (m - 2) // 2
    kept, every = [], set()
    for parent in _parents(m):
        for mask in kernels.augment(parent, m - 1):
            assert mask & ((1 << shift) - 1) == parent
            assert 0 < mask >> shift < 1 << (m - 1)
            kept.append(certificate(pure.triangle_masks(mask, m)))
        nbrs = pure.triangle_masks(parent, m - 1)
        every.update(certificate(_child(nbrs, s))
                     for s in range(1, 1 << (m - 1)))
    assert len(set(kept)) == len(kept)
    assert set(kept) == every
    assert len(every) == CONNECTED_CLASS_COUNTS[m]


@pytest.mark.parametrize("m", range(2, 8))
def test_augment_keeps_the_pinned_number_of_children(kernels, m):
    # One child per class: over the connected parents, as many children as
    # the published count. A rule that let an isomorph through would keep
    # more.
    assert sum(len(kernels.augment(parent, m - 1)) for parent in _parents(m)) \
        == CONNECTED_CLASS_COUNTS[m]


def test_compiled_augment_keeps_one_child_per_class_on_8_vertices(
        compiled_kernels):
    kept = [compiled_kernels.canonical_mask(pure.triangle_masks(mask, 8))
            for parent in _parents(8)
            for mask in compiled_kernels.augment(parent, 7)]
    assert len(kept) == len(set(kept)) == CONNECTED_CLASS_COUNTS[8]


def test_augment_of_a_62_vertex_parent_is_pure_only(compiled_kernels):
    # Its children have 63 vertices: the compiled kernel refuses it, and
    # the pure one serves it. No caller needs that: enumeration stops at 9.
    with pytest.raises(ValueError, match="at most 62 vertices"):
        compiled_kernels.augment(0, 62)
    assert pure.augment(0, 62) == []


def _naive_graph6_masks(payload, n):
    """Independent decoder: the payload as a string of six-bit groups, read
    pair by pair in column-major order; padding bits are never reached."""
    bits = "".join(f"{ord(ch) - 63:06b}" for ch in payload)
    masks = [0] * n
    pairs = ((i, j) for j in range(1, n) for i in range(j))
    for bit, (i, j) in zip(bits, pairs):
        if bit == "1":
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return tuple(masks)


def _payloads():
    """(payload, n) of every connected graph with at most 7 vertices and of
    seeded G(n, p) graphs for every n up to 62, by ``encode_graph6``."""
    for n in range(1, 8):
        for line in enumerate_connected(n):
            yield line[1:], n
    rng = random.Random(61)
    for n in range(63):
        for p in (0.1, 0.5, 0.9):
            nbrs = random_masks(rng, n, p)
            yield encode_graph6(Graph._from_masks(tuple(nbrs)))[1:], n


def test_graph6_and_triangle_masks_decode(kernels):
    # triangle_masks is pure-only: the compiled kernels unpack inside.
    for payload, n in _payloads():
        masks = _naive_graph6_masks(payload, n)
        assert kernels.graph6_masks(payload, n) == masks, (payload, n)
        bits = Graph._from_masks(masks).upper_triangle_mask()
        assert pure.triangle_masks(bits, n) == masks, (payload, n)


def _triangles():
    """(bits, n) of every upper-triangle mask on at most 5 vertices, of
    every class of ``enumerate_connected(7)`` and of seeded random masks for
    every n up to 62, whose triangles span up to 30 words of 64 bits."""
    for n in range(6):
        for bits in range(1 << (n * (n - 1) // 2)):
            yield bits, n
    for line in enumerate_connected(7):
        yield parse_graph6(line).upper_triangle_mask(), 7
    rng = random.Random(89)
    for n in range(63):
        for _ in range(3):
            yield rng.getrandbits(n * (n - 1) // 2), n


def test_triangle_graph6_round_trips(kernels):
    # The size character, then a payload that graph6_masks and the
    # independent decoder both read back as the triangle's masks, with
    # zero padding bits: the one graph6 line of the graph.
    for bits, n in _triangles():
        line = kernels.triangle_graph6(bits, n)
        masks = pure.triangle_masks(bits, n)
        assert line[0] == chr(n + 63), (bits, n)
        assert kernels.graph6_masks(line[1:], n) == masks, (bits, n)
        assert _naive_graph6_masks(line[1:], n) == masks, (bits, n)
        assert line == pure.triangle_graph6(bits, n), (bits, n)
        pad = -(n * (n - 1) // 2) % 6
        assert not (ord(line[-1]) - 63) & (1 << pad) - 1, (bits, n)


def test_graph6_masks_ignore_padding_bits(kernels):
    for payload, n in _payloads():
        pad = -(n * (n - 1) // 2) % 6
        if pad:
            last = ord(payload[-1]) - 63 | (1 << pad) - 1
            padded = payload[:-1] + chr(last + 63)
            assert kernels.graph6_masks(padded, n) \
                == _naive_graph6_masks(payload, n), (payload, n)


# Below '?', above '~', and outside ASCII, a lone surrogate included.
BAD_PAYLOAD_CHARS = ["\x00", " ", ">", "\x7f", "\x80", "\xe9", "\u20ac",
                     "\udc80"]


def test_out_of_range_payload_bytes(kernels, monkeypatch):
    # The kernel returns None, and parse_graph6 names the first such byte
    # with the text and offset it gave when it decoded payloads itself.
    monkeypatch.setattr(_kernels, "graph6_masks", kernels.graph6_masks)
    rng = random.Random(71)
    wide = Graph._from_masks(tuple(random_masks(rng, 62, 0.5)))
    lines = ["Bw", "H~~~~~~", encode_graph6(wide)]
    for line in lines:
        n = ord(line[0]) - 63
        for pos in range(len(line) - 1):
            for ch in BAD_PAYLOAD_CHARS:
                chars = list(line[1:])
                chars[pos] = ch
                if pos + 1 < len(chars):
                    chars[-1] = "\x7f"  # a later bad byte is not named
                payload = "".join(chars)
                assert kernels.graph6_masks(payload, n) is None, (payload, n)
                for header in ("", ">>graph6<<"):
                    offset = len(header) + 1 + pos
                    with pytest.raises(Graph6Error) as err:
                        parse_graph6(header + line[0] + payload)
                    assert (str(err.value), err.value.offset) == (
                        f"non-printable payload byte {ch!r} (byte offset "
                        f"{offset})", offset)


def test_whole_graph_kernel_edge_cases(kernels):
    assert kernels.graph6_masks("", 0) == pure.triangle_masks(0, 0) == ()
    assert kernels.graph6_masks("", 1) == pure.triangle_masks(0, 1) == (0,)
    assert kernels.augment(0, 0) == [] and kernels.augment(0, 1) == [1]
    full = (1 << 62) - 1
    line = kernels.triangle_graph6((1 << 1891) - 1, 62)
    assert kernels.graph6_masks(line[1:], 62) \
        == pure.triangle_masks((1 << 1891) - 1, 62) \
        == tuple(full & ~(1 << v) for v in range(62))


@pytest.mark.parametrize("call, message", [
    (lambda m: m.augment(0b1000, 3), "beyond the upper triangle"),
    (lambda m: m.augment(1, 1), "beyond the upper triangle"),
    (lambda m: m.augment(-1, 3), "beyond the upper triangle"),
    (lambda m: m.augment(1 << 1891, 62), "beyond the upper triangle"),
    (lambda m: m.augment(0, -1), "must be non-negative"),
    (lambda m: m.graph6_masks("", -1), "must be non-negative"),
    (lambda m: m.graph6_masks("ww", 3), "payload length must be 1 for n=3"),
    (lambda m: m.graph6_masks("", 2), "payload length must be 1 for n=2"),
    (lambda m: m.triangle_graph6(0b1000, 3), "beyond the upper triangle"),
    (lambda m: m.triangle_graph6(1, 1), "beyond the upper triangle"),
    (lambda m: m.triangle_graph6(-1, 3), "beyond the upper triangle"),
    (lambda m: m.triangle_graph6(1 << 1891, 62), "beyond the upper triangle"),
    (lambda m: m.triangle_graph6(0, -1), "must be non-negative"),
])
def test_whole_graph_kernels_refuse(kernels, call, message):
    with pytest.raises(ValueError, match=message):
        call(kernels)


def _verify_line_inputs():
    """(line, neighbor masks) of every labeled graph on at most 5 vertices
    (every upper-triangle mask, so disconnected, max-degree-below-2 and
    not-k-connected lines are in) and of every line of
    ``enumerate_connected(7)``, the masks by the independent decoder."""
    lines = [pure.triangle_graph6(bits, n) for n in range(6)
             for bits in range(1 << (n * (n - 1) // 2))]
    lines += enumerate_connected(7)
    for line in lines:
        yield line, _naive_graph6_masks(line[1:], ord(line[0]) - 63)


def test_verify_line_is_facts_then_wavefront(kernels):
    # Bare and with the header, at k = 1, 2 and 3, with budgets that abort
    # and the default: the order, pure graph_facts, then pure wavefront
    # when the bound applies.
    reasons = set()
    for line, masks in _verify_line_inputs():
        n = len(masks)
        for k in (1, 2, 3):
            dmax, dmin, reason = pure.graph_facts(masks, k)
            reasons.add(reason)
            for budget in (1, 3, DEFAULT_NODE_BUDGET):
                expected = (n, dmax, dmin, reason, *(
                    pure.wavefront(masks, k, budget) if reason == 0
                    else (None, 0, False)))
                for text in (line, ">>graph6<<" + line):
                    assert kernels.verify_line(text, k, budget) == expected, \
                        (text, k, budget)
    assert reasons == {0, 1, 2, 3}


# The malformed lines of test_graph6.py, and those of each bad payload byte.
MALFORMED_LINES = ["\x1fw", "~??~?????", "D", "Bwx", "B!", ""] + [
    "B" + ch for ch in BAD_PAYLOAD_CHARS]


def test_verify_line_refuses_what_parse_graph6_refuses(kernels):
    # ">>graph6<<" alone is the header-only line.
    for line in MALFORMED_LINES + ["Bw", "Bx", "@", "?"]:
        for text in (line, ">>graph6<<" + line):
            try:
                parse_graph6(text)
            except Graph6Error:
                refused = True
            else:
                refused = False
            assert refused == (line in MALFORMED_LINES), text
            assert (kernels.verify_line(text, 1, 10) is None) == refused, text


def test_k_connected_matches_pure(compiled_kernels):
    # The compiled cut walk runs inside graph_facts: the graph is
    # k-connected exactly when it has more than k vertices and the reason
    # is 0 or 2 (max degree below 2 leaves at most 2 vertices).
    rng = random.Random(67)
    graphs = [random_masks(rng, n, p) for n in range(13)
              for p in (0.2, 0.4, 0.6, 0.8)]
    cases = [(nbrs, k) for nbrs in graphs for k in range(1, len(nbrs) + 2)]
    cases += [(nbrs, k) for nbrs in (random_masks(rng, 62, 0.1),
                                     random_masks(rng, 62, 0.9))
              for k in (1, 2, 3)]
    for nbrs, k in cases:
        reason = compiled_kernels.graph_facts(nbrs, k)[2]
        assert (len(nbrs) > k and reason in (0, 2)) \
            == pure.k_connected(nbrs, k), (nbrs, k)


def test_graph_facts_matches_pure(compiled_kernels):
    for nbrs in hypothesis_inputs():
        for k in (1, 2, 3, 4):
            assert compiled_kernels.graph_facts(nbrs, k) \
                == pure.graph_facts(nbrs, k), (nbrs, k)


def test_graph_facts_edge_cases(kernels):
    # Degrees are 0 on the empty graph; the reasons come in their order: a
    # disconnected graph of max degree 0 is "disconnected", and k-
    # connectivity is asked only from k = 2 on, of a clamped k too.
    triangle, path3 = [0b110, 0b101, 0b011], [0b010, 0b101, 0b010]
    cases = [([], 1, (0, 0, 2)), ([0], 1, (0, 0, 2)), ([0, 0], 1, (0, 0, 1)),
             ([0b10, 0b01], 1, (1, 1, 2)), (path3, 1, (2, 1, 0)),
             (path3, 2, (2, 1, 3)), (triangle, 2, (2, 2, 0)),
             (triangle, 3, (2, 2, 3)), (triangle, -10**30, (2, 2, 0)),
             (triangle, 10**30, (2, 2, 3))]
    for nbrs, k, expected in cases:
        assert kernels.graph_facts(nbrs, k) == expected, (nbrs, k)


@pytest.mark.skipif(not hasattr(__import__("signal"), "setitimer"),
                    reason="needs signal.setitimer")
def test_compiled_k_connected_stops_on_a_signal(compiled_kernels):
    # K_62 at k = 31 has about 10^17 cuts to try, all of them connected: a
    # signal handler that raises must end graph_facts's walk over them.
    code = f"""
import importlib.util, signal
spec = importlib.util.spec_from_file_location(
    "forcing_lab._kernels._ckern", {compiled_kernels.__file__!r})
ckern = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ckern)
def interrupt(signum, frame):
    raise KeyboardInterrupt
signal.signal(signal.SIGALRM, interrupt)
full = (1 << 62) - 1
signal.setitimer(signal.ITIMER_REAL, 0.2)
try:
    ckern.graph_facts([full & ~(1 << v) for v in range(62)], 31)
except KeyboardInterrupt:
    print("interrupted")
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "interrupted\n"), \
        done.stderr


def test_compiled_module_exports_only_dispatched_kernels(compiled_kernels):
    # A compiled entry point that the dispatcher never uses is dead code.
    public = {name for name in vars(compiled_kernels)
              if not name.startswith("_")}
    assert public == {*_kernels.COMPILED_KERNELS, "BACKEND"}


def test_bound_kernels_come_from_the_backend_in_use():
    # Bound at import: compiled when it is built, so the binding cannot
    # silently serve pure, and pure when it is not.
    for name in BOUND_KERNELS:
        assert getattr(_kernels, name) \
            is getattr(_kernels._compiled or pure, name), name


def test_stale_compiled_module_is_rebuilt_for_the_tests(monkeypatch, request,
                                                         tmp_path):
    # As built from an older _ckern.c: every kernel but graph6_masks.
    fake = types.ModuleType("forcing_lab._kernels._ckern")
    fake.BACKEND = "compiled"
    for name in _kernels.COMPILED_KERNELS:
        if name != "graph6_masks":
            setattr(fake, name, getattr(pure, name))
    monkeypatch.setitem(sys.modules, fake.__name__, fake)
    monkeypatch.setattr(_kernels, "_ckern", fake, raising=False)
    assert _kernels._load_compiled() is None
    fresh = compiled_module(request, tmp_path)
    assert fresh is not fake and fresh.BACKEND == "compiled"
    assert fresh.graph6_masks("w", 3) == (0b110, 0b101, 0b011)


def test_stale_compiled_module_leaves_every_kernel_pure():
    # At import, before anything is dispatched: the fake refuses each call.
    names = [name for name in _kernels.COMPILED_KERNELS
             if name != "graph6_masks"]
    code = f"""
import sys, types
sys.path.insert(0, {str(Path(forcing_lab.__file__).parents[1])!r})
fake = types.ModuleType("forcing_lab._kernels._ckern")
fake.BACKEND = "compiled"
def refuse(*args):
    raise AssertionError("a stale compiled kernel was called")
for name in {names!r}:
    setattr(fake, name, refuse)
sys.modules[fake.__name__] = fake
from forcing_lab import _kernels, cycle, is_k_connected, parse_graph6
print(_kernels.HAVE_COMPILED, _kernels.active_backend(5))
print(parse_graph6("Bw").edges(), is_k_connected(cycle(5), 2))
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False pure\n[(0, 1), (0, 2), (1, 2)] True\n"


@pytest.mark.parametrize("call", [
    lambda m, nbrs: m.closure(nbrs, 1, 1),
    lambda m, nbrs: m.connected_in(nbrs, 1),
    lambda m, nbrs: m.search_level_pruned(nbrs, 1, 2, 10),
    lambda m, nbrs: m.wavefront(nbrs, 1, 10),
    lambda m, nbrs: m.canonical_mask(nbrs),
    lambda m, nbrs: m.augment(0, len(nbrs)),
    lambda m, nbrs: m.triangle_graph6(0, len(nbrs)),
    lambda m, nbrs: m.graph6_masks("?" * 326, len(nbrs)),
    lambda m, nbrs: m.graph_facts(nbrs, 1),
], ids=["closure", "connected_in", "pruned", "wavefront", "canonical_mask",
        "augment", "triangle_graph6", "graph6_masks", "graph_facts"])
def test_compiled_refuses_63_vertices(compiled_kernels, call):
    with pytest.raises(ValueError, match="at most 62 vertices"):
        call(compiled_kernels, [0] * 63)


C4 = (0b1010, 0b0101, 0b1010, 0b0101)


@pytest.mark.parametrize("name, args", [
    ("closure", (C4, 1, 0b11)), ("connected_in", (C4, 0b101)),
    ("search_level_pruned", (C4, 1, 2, 10)), ("wavefront", (C4, 1, 10)),
    ("canonical_mask", (C4,)), ("augment", (0b101101, 4)),
    # A 12-vertex parent: 66 bits, more than one word.
    ("augment", ((1 << 66) - 1 & 0x5A5A5A5A5A5A5A5A5, 12)),
    ("graph6_masks", ("w", 3)),
    ("graph_facts", (C4, 2)), ("verify_line", ("Bw", 1, 10)),
    ("triangle_graph6", (0b101101, 4))])
def test_compiled_kernels_take_positional_arguments_only(compiled_kernels,
                                                         name, args):
    # No caller names an argument, so the compiled kernels parse none: each
    # takes exactly the pure kernel's parameters, by position.
    compiled, reference = getattr(compiled_kernels, name), getattr(pure, name)
    params = list(inspect.signature(reference).parameters)
    signature = inspect.signature(compiled).parameters.values()
    assert [p.name for p in signature] == params
    assert len(args) == len(params)
    assert {p.kind for p in signature} == {inspect.Parameter.POSITIONAL_ONLY}
    assert compiled(*args) == reference(*args)
    with pytest.raises(TypeError, match="no keyword arguments"):
        compiled(*args[:-1], **{params[-1]: args[-1]})
    for wrong in (args[:-1], args + (0,)):
        with pytest.raises(TypeError, match=f"expected {len(args)} argument"):
            compiled(*wrong)
    if name in ("graph6_masks", "verify_line"):
        with pytest.raises(TypeError, match="must be str, not bytes"):
            compiled(b"w", *args[1:])


def test_compiled_refuses_masks_beyond_the_last_vertex(compiled_kernels):
    with pytest.raises(ValueError, match="beyond the last vertex"):
        compiled_kernels.closure([0, 0], 1, 0b100)
    with pytest.raises(ValueError, match="beyond the last vertex"):
        compiled_kernels.closure([0, 0b100], 1, 0)
    with pytest.raises(ValueError, match="beyond the last vertex"):
        compiled_kernels.graph_facts([0, 0b100], 1)


def test_c_source_compiles_cleanly_under_wall(c_compiler):
    source = Path(pure.__file__).with_name("_ckern.c")
    done = subprocess.run(
        [c_compiler, "-Wall", "-Werror", "-fsyntax-only",
         "-I", sysconfig.get_paths()["include"], str(source)],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
