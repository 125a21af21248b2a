"""Shallow-depth linear-optical circuit toolkit.

Builds layered beam-splitter architectures (lattice brickwork and non-local
hypercubic), realizes them with Haar-random two-mode gates, evaluates exact
Fock-state and Gaussian sampling probabilities through permanents and
hafnians, counts lightcone-permitted outcomes against closed-form depth
thresholds, and measures ensemble randomness through entropy Page curves,
frame potentials and probability-density comparisons.
"""

from ._version import __version__
from . import arch, fock, gaussian, linalg, matfn, stats
from .arch import *
from .fock import *
from .gaussian import *
from .linalg import *
from .matfn import *
from .stats import *

__all__ = ["__version__"]
__all__ += arch.__all__
__all__ += fock.__all__
__all__ += gaussian.__all__
__all__ += linalg.__all__
__all__ += matfn.__all__
__all__ += stats.__all__
