import importlib.util
import json
import os
import random
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path
from types import SimpleNamespace

import pytest

from forcing_lab import Graph, VerifyRun, VertexSet, _kernels, parse_graph6
from forcing_lab._kernels import pure as pure_kernels
from forcing_lab.enumeration import enumerate_connected

ROOT = Path(__file__).resolve().parent.parent


def verify_stream(lines, k=1, **kwargs):
    """A drained ``VerifyRun`` over graph6 lines: the summary is complete,
    and ``records`` is a list of each record line's fields as attributes
    (``rec.f_k``)."""
    run = VerifyRun(lines, k, **kwargs)
    run.records = [SimpleNamespace(**json.loads(line)) for line in run.records]
    return run


# The kernels that ``_kernels`` binds once, at import.
BOUND_KERNELS = ("augment", "triangle_graph6", "graph6_masks", "verify_line")


def use_backend(monkeypatch, module):
    """Serve every ``_kernels`` call from ``module``, pure or compiled: the
    kernels dispatched per call and those bound at import."""
    monkeypatch.setattr(_kernels, "_compiled",
                        None if module is pure_kernels else module)
    for name in BOUND_KERNELS:
        monkeypatch.setattr(_kernels, name, getattr(module, name))


def outside_counts(g, solution):
    """For the witness S of a ``solve_connected_complement`` result, each
    vertex of S's number of neighbors outside S, in vertex order."""
    comp = solution.witness.complement().mask
    return [(g.neighbor_masks[v] & comp).bit_count() for v in solution.witness]


class TraceError(ValueError):
    """A trace event violates the coloring rule during replay."""


def replay(g, tr):
    """Re-run a trace, checking every event against the rule.

    Returns the final colored VertexSet; raises TraceError on the first
    event whose forcer is non-colored, over its non-colored-neighbor
    budget, or forcing a vertex that is not an eligible neighbor.
    """
    if not isinstance(g, Graph):
        raise TypeError("replay needs a Graph")
    colored = tr.initial.mask
    for step, (u, v) in enumerate(tr.events):
        if not (colored >> u) & 1:
            raise TraceError(f"event {step}: forcer {u} is not colored")
        w = g.neighbor_masks[u] & ~colored
        if not (w >> v) & 1:
            raise TraceError(
                f"event {step}: {v} is not a non-colored neighbor of {u}")
        if w.bit_count() > tr.k:
            raise TraceError(
                f"event {step}: forcer {u} has {w.bit_count()} non-colored "
                f"neighbors, over the budget k={tr.k}")
        colored |= 1 << v
    return VertexSet(colored, g.n)


def random_masks(rng, n, p):
    """Neighbor masks of a G(n, p) graph drawn from ``rng``."""
    nbrs = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                nbrs[i] |= 1 << j
                nbrs[j] |= 1 << i
    return nbrs


def random_graph(rng, n, p=0.4):
    """A G(n, p) graph drawn from ``rng``, pairs i < j in order."""
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < p])


def closure_random_order(g, k, start, rng):
    """Reference fixed point from the mask ``start``: fire one qualifying
    vertex at a time, chosen at random. Order independence says this
    must match the engine."""
    colored = start
    while True:
        eligible = []
        for v in range(g.n):
            if not (colored >> v) & 1:
                continue
            w = g.neighbor_masks[v] & ~colored
            if w and w.bit_count() <= k:
                eligible.append(w)
        if not eligible:
            return colored
        colored |= eligible[rng.randrange(len(eligible))]


def hypothesis_inputs():
    """Neighbor masks of every labeled graph on at most 5 vertices (every
    edge set, so disconnected and max-degree-below-2 graphs are in), of
    every connected graph on at most 7, and of seeded G(n, p) graphs up to
    n = 62: sparse ones at every order, denser ones while the pure k = 4
    cut walk is cheap, and one dense 62-vertex graph that walks every cut
    of up to 3 vertices."""
    for n in range(6):
        for bits in range(1 << (n * (n - 1) // 2)):
            yield pure_kernels.triangle_masks(bits, n)
    for n in range(1, 8):
        for line in enumerate_connected(n):
            yield parse_graph6(line).neighbor_masks
    rng = random.Random(73)
    for n in (6, 9, 12, 16, 24, 32, 40, 48, 56, 62):
        for p in (0.05, 0.15, 0.5) if n <= 24 else (0.05, 0.15):
            yield random_masks(rng, n, p)
    yield random_masks(rng, 62, 0.5)


@pytest.fixture(scope="session")
def c_compiler():
    """The C compiler that builds extensions for this Python; skips the
    test when there is none."""
    cc = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) to build the compiled kernels")
    return cc


# The module that compiled_module built from _ckern.c, once a session.
_built = []


def compiled_module(request, out):
    """The compiled kernel module: the in-place build when the dispatcher
    uses it, otherwise one built from ``_ckern.c`` into the directory
    ``out`` (the source tree is left untouched) by the session's first
    call that needs it, and reused by every later one. So an in-place
    build that lacks one of the dispatched kernels, built from an older
    ``_ckern.c``, is never what the tests compare. Skips only when a build
    is needed and no C compiler exists."""
    module = _kernels._load_compiled()
    if module is not None:
        return module
    if _built:
        return _built[0]
    request.getfixturevalue("c_compiler")
    done = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(out), "--build-temp", str(out)],
        cwd=ROOT, capture_output=True, text=True)
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    built = out / "forcing_lab" / "_kernels" / ("_ckern" + suffix)
    if done.returncode != 0 or not built.is_file():
        pytest.fail("building the compiled kernels failed:\n"
                    + done.stdout + done.stderr)
    spec = importlib.util.spec_from_file_location(
        "forcing_lab._kernels._ckern", built)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    _built.append(module)
    return module


@pytest.fixture(scope="session")
def compiled_kernels(request, tmp_path_factory):
    """The compiled kernel module (see ``compiled_module``)."""
    return compiled_module(request, tmp_path_factory.mktemp("ckern"))


@pytest.fixture(params=["pure", "compiled"])
def kernels(request):
    """Run the test once per kernel backend."""
    if request.param == "pure":
        return pure_kernels
    return request.getfixturevalue("compiled_kernels")


@pytest.fixture
def petersen():
    edges = ([(i, (i + 1) % 5) for i in range(5)]
             + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
             + [(i, i + 5) for i in range(5)])
    return Graph(10, edges, name="Petersen")


@pytest.fixture
def spider_4_leaves():
    # Four legs of length 2 glued at vertex 0.
    edges = [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (0, 7), (7, 8)]
    return Graph(9, edges, name="spider")
