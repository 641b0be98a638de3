"""Codebook-conditioned GP trajectory prediction, training, and adaptation.

The package imports nothing: ``gptraj.cli`` pins the BLAS pools to one
thread before numpy loads, so import the modules by name. Library callers
that want the bytes of the determinism contract set ``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1 before importing
numpy, as ``perfbench/run.py`` does.
"""

__version__ = "0.1.0"
