"""Codebook-conditioned GP trajectory prediction, training, and adaptation.

The package imports nothing: ``gptraj.cli`` caps the BLAS thread pools
before numpy loads, so import the modules by name.
"""

__version__ = "0.1.0"
