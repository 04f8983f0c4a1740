"""Numerical certificates for drift-Laplacian spectral gaps and shrinker diameters.

The package verifies a chain of statements about the first nonzero
eigenvalue of the drift Laplacian Delta - grad(phi).grad on compact
weighted spaces, each reduced to margins in a machine-readable report:

* closed-form interval gap bounds cross-checked against brute-force
  grid suprema (:mod:`wittengap.bounds`),
* a finite-volume comparison operator on an interval whose Neumann gap
  realizes the bound (:mod:`wittengap.sturm`),
* weighted graph and mesh spectra, circles and icospheres with height
  weights, dominating the bound (:mod:`wittengap.spectral`),
* self-shrinking plane curves whose length and curvature feed intrinsic
  diameter bounds (:mod:`wittengap.shrinkers`),
* a command-line front end that runs the certification suite
  (:mod:`wittengap.cli`).
"""

from wittengap import bounds, report, shrinkers, spectral, sturm
from wittengap.bounds import *
from wittengap.report import *
from wittengap.shrinkers import *
from wittengap.spectral import *
from wittengap.sturm import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = [
    *bounds.__all__,
    *report.__all__,
    *shrinkers.__all__,
    *spectral.__all__,
    *sturm.__all__,
]
