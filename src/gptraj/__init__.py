"""Codebook-conditioned GP trajectory prediction, training, and adaptation.

The package loads no numpy: ``gptraj.cli`` pins the BLAS pools to one
thread before numpy loads, so import the modules by name. Library callers
that want the bytes of the determinism contract set ``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1 before importing
numpy, as ``perfbench/run.py`` does.

Importing the package pins glibc's allocator, so a training step reuses the
multi-MB blocks the step before it freed instead of faulting in fresh pages.
"""

import ctypes

__version__ = "0.1.0"

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's malloc.h
_mallopt = ctypes.CDLL(None).mallopt
_mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
_mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # the cap of glibc's own sliding threshold
_mallopt(_M_TRIM_THRESHOLD, 1 << 30)
