"""Product-integration and log-quadrature building blocks.

Panel rules are built from Legendre moments: with nodal values of a smooth
factor F at the panel's Gauss points, weights v_j such that

    sum_j v_j F(s_j)  ~  integral_{-1}^{1} F(s) k(s) ds

are exact whenever F is a polynomial of degree < n, for the singular factors
k(s) = 1/(s - x0) (principal value when x0 is on the panel) and, for x0 on
the panel, k(s) = log|s - x0|.  The discrete Legendre transform uses
Gauss-Legendre orthogonality, so no Vandermonde solve is needed.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    s, w = np.polynomial.legendre.leggauss(n)
    s.setflags(write=False)
    w.setflags(write=False)
    return s, w


@lru_cache(maxsize=64)
def legendre_matrix(n: int):
    """(n, n) matrix P[k, j] = P_k(s_j) at the n Gauss-Legendre nodes."""
    s, _ = gauss_legendre(n)
    P = np.zeros((n, n))
    P[0] = 1.0
    if n > 1:
        P[1] = s
    for k in range(1, n - 1):
        P[k + 1] = ((2 * k + 1) * s * P[k] - k * P[k - 1]) / (k + 1)
    P.setflags(write=False)
    return P


def cauchy_moments(x0: complex, n: int, on_panel: bool) -> np.ndarray:
    """m_k = int_{-1}^{1} P_k(s)/(s - x0) ds for k < n.

    For on_panel the target lies inside (-1, 1) and the integral is a real
    principal value.  Off the panel the principal branch of the logarithm is
    correct for targets that do not cross the panel.
    """
    m = np.zeros(n, dtype=complex)
    if on_panel:
        x0 = float(np.real(x0))
        m[0] = np.log((1.0 - x0) / (1.0 + x0))
    else:
        m[0] = np.log(1.0 - x0) - np.log(-1.0 - x0)
    if n > 1:
        m[1] = 2.0 + x0 * m[0]
    for k in range(1, n - 1):
        m[k + 1] = ((2 * k + 1) * x0 * m[k] - k * m[k - 1]) / (k + 1)
    return m


def log_moments(x0: float, n: int) -> np.ndarray:
    """l_k = int_{-1}^{1} P_k(s) log|s - x0| ds for k < n, x0 in (-1, 1)."""
    mm = cauchy_moments(x0, n + 1, True).real
    l = np.empty(n)
    l[0] = (1.0 - x0) * np.log(1.0 - x0) + (1.0 + x0) * np.log(1.0 + x0) - 2.0
    # l_k = (m_(k-1) - m_(k+1)) / (2k + 1) for k >= 1, as a product with the
    # reciprocal: a division moves some weights by an ulp, and with them the
    # artifacts of every panel grid
    l[1:] = (mm[:n - 1] - mm[2:]) * (1.0 / np.arange(3, 2 * n, 2))
    return l


def product_weights(moments: np.ndarray, n: int) -> np.ndarray:
    """Nodal weights v_j from Legendre moments of the singular factor."""
    P = legendre_matrix(n)
    _, w = gauss_legendre(n)
    k = np.arange(n)
    coeff = (2 * k + 1) / 2.0
    return w * (coeff[:, None] * P * moments[:n, None]).sum(axis=0)


def kress_log_weights(n: int) -> np.ndarray:
    """First row c of the circulant quadrature for the periodic log kernel.

    sum_j c[(i-j) mod n] f(t_j)  ~  int_0^{2pi} log(4 sin^2((t_i-t)/2)) f(t) dt,
    exact for trigonometric polynomials representable on the n-point grid.
    """
    m = np.fft.fftfreq(n, 1.0 / n)
    lam = np.zeros(n)
    nz = m != 0
    lam[nz] = -2.0 * np.pi / np.abs(m[nz])
    c = np.fft.ifft(lam).real
    return c
