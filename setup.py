"""Build script: compiles the optional bitset kernel extension.

The extension is one hand-written C file,
src/forcing_lab/_kernels/_ckern.c, and needs nothing but a C compiler.
The package is fully functional without it (a pure-Python implementation
of the same kernels is selected at import time), so a failed compile only
costs speed.

To run the tests straight from src/ on the compiled backend, build it in
place first:

    python setup.py build_ext --inplace
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension(
    "forcing_lab._kernels._ckern",
    ["src/forcing_lab/_kernels/_ckern.c"],
    extra_compile_args=["-O3"],
    optional=True,
)])
