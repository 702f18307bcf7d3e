"""Hides numpy's OpenBLAS from subspec._lapack, as on an Accelerate, MKL or
distribution build, so that it calls scipy's _flapack.

Import it in a fresh interpreter before subspec; it imports numpy first, so
numpy itself loads as usual.  tests/test_lapack.py runs its text at the
head of subprocesses, and CI runs tier-1 on scipy's library after
importing it.
"""

import os

import numpy  # noqa: F401

listdir = os.listdir
os.listdir = lambda path=".": ([] if os.path.basename(path) in ("numpy.libs", ".dylibs")
                               else listdir(path))
