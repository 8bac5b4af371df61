"""Exception types shared across the package."""


class DiracShellError(Exception):
    """Base class for all package errors."""


class CuspError(DiracShellError):
    """A junction of two arcs forms a cusp (one-sided tangents anti-parallel)."""


class OpenCurveError(DiracShellError):
    """The edge chain does not close up within tolerance."""


class SelfIntersectionError(DiracShellError):
    """Two non-adjacent arcs of the curve come closer than tolerance."""


class InvalidRefinement(DiracShellError):
    """Discretization parameters incompatible with the quadrature scheme."""


class EmptyCorners(DiracShellError):
    """Corner-based quantity requested for a curve without corners."""


class DomainError(DiracShellError):
    """Argument outside the mathematical domain of a special function."""


class SingularPointError(DiracShellError):
    """Kernel evaluated at its singular point x = 0."""


class SpectralParameterError(DiracShellError):
    """Spectral parameter z outside the admissible gap (-m, m)."""


class CriticalCouplingError(DiracShellError):
    """Operation undefined at critical coupling |eps| = |mu|."""


class ConvergenceError(DiracShellError):
    """Adaptive quadrature or iteration failed to reach tolerance."""


class PointOnCurveError(DiracShellError):
    """Potential evaluation requested at a point lying on the curve."""


class ConfigError(DiracShellError):
    """Malformed or incomplete run configuration."""
