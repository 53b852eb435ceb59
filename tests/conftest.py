import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from forcing_lab import Graph
from forcing_lab._kernels import pure as pure_kernels

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def c_compiler():
    """The C compiler that builds extensions for this Python; skips the
    test when there is none."""
    cc = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) to build the compiled kernels")
    return cc


@pytest.fixture(scope="session")
def compiled_kernels(request, tmp_path_factory):
    """The compiled kernel module: the in-place build when it imports,
    otherwise one built for this session into a temporary directory (the
    source tree is left untouched). Skips only when no C compiler exists."""
    try:
        from forcing_lab._kernels import _ckern
        return _ckern
    except ImportError:
        pass
    request.getfixturevalue("c_compiler")
    out = tmp_path_factory.mktemp("ckern")
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
    return module


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
