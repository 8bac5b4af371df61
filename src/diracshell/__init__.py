"""Boundary-integral toolkit for two-dimensional Dirac shell interactions.

Subpackages: geometry (curves and grids), kernels (special functions and
fundamental solutions), boundary_ops (Nystrom operators and layer
potentials), corner_symbol (polygon Fredholm criterion), classify (the
self-adjointness decision engine), spectral (gap eigenvalues and identity
verification), cli (command-line front end).

``Coupling`` is resolved on first access, so that importing the package (and
``diracshell.cli``) does not load numpy before ``--threads`` caps the BLAS
thread pools.
"""

__all__ = ["Coupling"]
__version__ = "0.1.0"


def __getattr__(name):
    if name == "Coupling":
        from .kernels import Coupling
        return Coupling
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
