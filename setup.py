"""Build script: compiles the optional kernel extension from the tracked
src/powmon/_core.c (generated by Cython from _core.pyx; Cython is not
needed to build it).  The package works without it (pure fallback), and a
failed compile leaves a pure install; build in place with:
    python setup.py build_ext --inplace
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension(
    "powmon._core",
    sources=["src/powmon/_core.c"],
    extra_compile_args=["-O2", "-fwrapv", "-DNDEBUG"],
    optional=True,
)])
