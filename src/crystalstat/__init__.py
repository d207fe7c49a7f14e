"""Statistical equilibrium of harmonic lattice dynamics.

Finite-range interaction kernels on Z^d, their dispersion structure, the exact
linear flow, Gaussian and transformed initial measures, covariance transport
with its long-time limit, and the ensemble statistics that certify convergence,
Gaussianity and mixing numerically.
"""

__version__ = "0.1.0"

from ._lattice import NumericalFault
from . import kernel, spectral, dynamics, fields, covariance, stats
from .kernel import *
from .spectral import *
from .dynamics import *
from .fields import *
from .covariance import *
from .stats import *

__all__ = ["__version__", "NumericalFault"]
__all__ += kernel.__all__
__all__ += spectral.__all__
__all__ += dynamics.__all__
__all__ += fields.__all__
__all__ += covariance.__all__
__all__ += stats.__all__
