"""Couplings, modified Bessel functions and the Dirac fundamental solutions.

The fundamental solution of the two-dimensional Dirac expression
``D - z = -i(sigma_1 d_1 + sigma_2 d_2) + m sigma_3 - z`` in the spectral gap
``|z| < m`` is

    phi_z(x) = (1/2pi) K0(kappa|x|) (m sigma_3 + z sigma_0)
             + (i kappa / 2pi|x|) K1(kappa|x|) (sigma . x),   kappa = sqrt(m^2-z^2),

and the limiting value at z = m is the pure Cauchy-type matrix kernel phi_m.
The modified Bessel functions K0, K1, I0 and I1 come from scipy.special; the
only series here is the one that keeps kappa K1(kappa r) - 1/r accurate at
small kappa r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, SingularPointError, SpectralParameterError

EULER_GAMMA = 0.57721566490153286061

SIGMA0 = np.eye(2, dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class Coupling:
    """Interaction strengths: electrostatic eps, Lorentz-scalar mu, mass m > 0."""

    eps: float
    mu: float
    mass: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.eps, self.mu, self.mass))):
            raise DomainError(f"eps, mu and mass must be finite, got {self.eps}, {self.mu}, "
                              f"{self.mass}")
        if not self.mass > 0:
            raise DomainError(f"mass must be positive, got {self.mass}")

    @property
    def strength(self) -> float:
        """eps^2 - mu^2, the combination all self-adjointness thresholds use."""
        return self.eps**2 - self.mu**2

    @property
    def diagonal(self) -> tuple:
        """(eps + mu, eps - mu), the diagonal of eps sigma_0 + mu sigma_3."""
        return (self.eps + self.mu, self.eps - self.mu)

    @property
    def is_critical(self) -> bool:
        return abs(self.eps) == abs(self.mu)

    def matrix(self) -> np.ndarray:
        """eps sigma_0 + mu sigma_3."""
        return self.eps * SIGMA0 + self.mu * SIGMA3


# ---------------------------------------------------------------------------
# modified Bessel functions
# ---------------------------------------------------------------------------


def _checked(func, x):
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("modified Bessel K requires finite x > 0")
    res = func(arr)
    return float(res) if arr.ndim == 0 else res


def bessel_k0(x):
    """Modified Bessel K0; scalar or array, x > 0."""
    return _checked(special.k0, x)


def bessel_k1(x):
    """Modified Bessel K1; scalar or array, x > 0."""
    return _checked(special.k1, x)


def bessel_i0(x):
    """Modified Bessel I0; scalar or array."""
    return special.i0(x)


def bessel_i1(x):
    """Modified Bessel I1; scalar or array."""
    return special.i1(x)


# ---------------------------------------------------------------------------
# logarithmic splittings of the kernel difference phi_z - phi_m
# ---------------------------------------------------------------------------
#
# K0(kr)            =  -log(r) * I0(kr)   + b_k0(r; k)
# k K1(kr) - 1/r    =   log(r) * k I1(kr) + b_k1(r; k)
#
# with b_k0, b_k1 continuous at r = 0.  Each split returns the Bessel I factor
# of its log term together with b, from one evaluation.  Near r = 0 the direct
# formula for b_k1 cancels catastrophically, so for kr <= 2 it is summed from
#
# K1(w) = 1/w + log(w/2) I1(w) - (w/4) sum_k c_k (w^2/4)^k,
# c_k = (psi(k+1) + psi(k+2)) / (k! (k+1)!) = (2 H_k + 1/(k+1) - 2 gamma) / (k! (k+1)!);
#
# 14 terms bring the tail below 1e-23 at w = 2.

_K1_SERIES = np.array([
    (2.0 * sum(1.0 / j for j in range(1, k + 1)) + 1.0 / (k + 1) - 2.0 * EULER_GAMMA)
    / (math.factorial(k) * math.factorial(k + 1))
    for k in range(14)
])


def b_k0(r, kappa, log_r):
    """(I0(kappa r), b) with K0(kappa r) = -log(r) I0(kappa r) + b, for r > 0.

    ``log_r`` is np.log(r) computed beforehand.
    """
    w = kappa * np.asarray(r, dtype=float)
    i0 = bessel_i0(w)
    return i0, bessel_k0(w) + log_r * i0


def b_k0_at_zero(kappa):
    return -(np.log(0.5 * kappa) + EULER_GAMMA)


def b_k1(r, kappa, log_r):
    """(I1(kappa r), b) with kappa K1(kappa r) - 1/r = kappa log(r) I1(kappa r) + b.

    r > 0; the pair comes from one evaluation of I1.  ``log_r`` is np.log(r)
    computed beforehand.
    """
    r = np.asarray(r, dtype=float)
    w = kappa * r
    i1 = bessel_i1(w)
    b = np.empty_like(w)
    small = w <= 2.0
    ws = w[small]
    series = np.polynomial.polynomial.polyval(0.25 * ws * ws, _K1_SERIES)
    b[small] = kappa * (np.log(0.5 * kappa) * i1[small] - 0.25 * ws * series)
    large = ~small
    rl = r[large]
    b[large] = kappa * bessel_k1(w[large]) - 1.0 / rl - kappa * log_r[large] * i1[large]
    return i1, b


# ---------------------------------------------------------------------------
# fundamental solutions
# ---------------------------------------------------------------------------


def gap_kappa(z: float, mass: float) -> float:
    """kappa = sqrt(m^2 - z^2) for real z in the gap."""
    if not abs(z) < mass:
        raise SpectralParameterError(f"z = {z} outside the open gap (-{mass}, {mass})")
    return float(np.sqrt(mass * mass - z * z))


def phi_z(x, z: float, coupling: Coupling):
    """Fundamental-solution matrix phi_z(x) for real z in the gap, x != 0.

    x has shape (2,) or (..., 2); the result has shape (..., 2, 2).
    """
    kappa = gap_kappa(z, coupling.mass)
    x = np.asarray(x, dtype=float)
    r = np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2)
    if np.any(r == 0.0):
        raise SingularPointError("phi_z evaluated at x = 0")
    k0v = bessel_k0(kappa * r)
    k1v = bessel_k1(kappa * r)
    pref = 1.0 / (2.0 * np.pi)
    m = coupling.mass
    out = np.zeros(x.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = pref * k0v * (m + z)
    out[..., 1, 1] = pref * k0v * (z - m)
    radial = 1j * pref * kappa * k1v / r
    out[..., 0, 1] = radial * (x[..., 0] - 1j * x[..., 1])
    out[..., 1, 0] = radial * (x[..., 0] + 1j * x[..., 1])
    return out


def phi_m(x):
    """Limiting Cauchy-type kernel at z = m (off-diagonal only), x != 0."""
    x = np.asarray(x, dtype=float)
    xc = x[..., 0] + 1j * x[..., 1]
    if np.any(xc == 0.0):
        raise SingularPointError("phi_m evaluated at x = 0")
    pref = 1j / (2.0 * np.pi)
    out = np.zeros(x.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 1] = pref / xc
    out[..., 1, 0] = pref / np.conj(xc)
    return out
