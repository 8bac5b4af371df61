"""Corner symbol machinery for the polygon Fredholm criterion.

Everything here is per-corner and purely analytic: the even function

    M_theta(x) = cosh((pi - theta) x) / (2 (1 + cosh(pi x))),

its supremum m(theta), the corner symbol determinant Delta on the line
xi = eta + i/2 (in closed form and by direct quadrature of the Mellin-type
integrals, which serves as the independent oracle).  The Fredholm
criterion they give for a polygon, eps^2 - mu^2 < 1/m(omega) with omega the
sharpest effective corner opening, is decided in ``classify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, quad_vec

from .errors import ConvergenceError, DomainError
from .kernels import Coupling

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# the integration windows of mellin_symbol: past 354 the e^{2t} of the
# integrand overflows a double (at about 354.9)
TRUNC_RANGE = (40.0, 354.0)


def check_angle(theta: float, straight: bool = True) -> None:
    """Refuse an opening outside (0, 2pi), or pi where not ``straight``."""
    if not 0.0 < theta < 2.0 * math.pi or (theta == math.pi and not straight):
        raise DomainError(f"{theta!r} = {theta / math.pi:g} pi is not an angle in (0, 2pi)"
                          + ("" if straight else " other than pi"))


def check_quadrature(trunc: float, tol: float) -> None:
    """Refuse a window outside ``TRUNC_RANGE``, or a tolerance not in (0, inf)."""
    if not TRUNC_RANGE[0] <= trunc <= TRUNC_RANGE[1]:
        raise DomainError(f"window {trunc!r} outside [{TRUNC_RANGE[0]:g}, {TRUNC_RANGE[1]:g}]")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance {tol!r} is not finite and positive")


def M(theta: float, x):
    """M_theta(x), evaluated in overflow-safe exponential form.

    With a = |pi - theta| |x| and b = pi |x| all exponents are <= 0:
    M = (e^(a-b) + e^(-a-b)) / (2 (1 + e^(-b))^2).
    """
    check_angle(theta)
    ax = np.abs(np.asarray(x, dtype=float))
    a = abs(math.pi - theta) * ax
    b = math.pi * ax
    val = 0.5 * (np.exp(a - b) + np.exp(-a - b)) / (1.0 + np.exp(-b)) ** 2
    return float(val) if np.isscalar(x) else val


def _golden_max(f, lo: float, hi: float):
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(90):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
        if b - a < 1e-14 * max(1.0, abs(a)):
            break
    xm = 0.5 * (a + b)
    return xm, f(xm)


def m_of(theta: float) -> float:
    """m(theta) = sup_x M_theta(x), by grid scan plus golden-section refinement.

    m(theta) is the largest of the best scan point, the refined point and
    M_theta(0) = 1/4.  The scan window [0, X] is chosen from the tail bound
    M_theta(x) <= exp(-min(theta, 2pi-theta) x), so that no point beyond X
    can exceed M_theta(0).

    m(theta) = m(2pi - theta), and for theta in (0, pi]

        1/2 - (theta/2pi) (1 + ln(2pi/theta)) <= m(theta) < 1/2,

    so m(theta) -> 1/2 as theta -> 0 (and as theta -> 2pi), but only like
    (theta/2pi) ln(1/theta): m(0.005 pi) = 0.48283.  The upper edge holds
    because cosh((pi - theta) x) <= cosh(pi x) < 1 + cosh(pi x); the lower
    edge is M_theta(x) >= e^(-theta x) / (2 (1 + e^(-pi x))^2) evaluated at
    x = ln(2pi/theta)/pi with e^(-y) >= 1 - y and (1 + t)^-2 >= 1 - 2t.
    """
    check_angle(theta)
    omega = min(theta, 2.0 * math.pi - theta)
    xmax = (math.log(4.0) + 37.0) / omega
    grid = np.linspace(0.0, xmax, 4001)
    vals = M(theta, grid)
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    _, fm = _golden_max(lambda x: M(theta, x), lo, hi)
    return max(float(vals[i]), float(fm), M(theta, 0.0))


# ---------------------------------------------------------------------------
# symbol determinant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MellinResult:
    h1: np.ndarray  # (..., 2, 2), anti-diagonal; the leading shape is eta's
    h2: np.ndarray
    s_value: complex  # coupling-free scalar S(xi), or an array of them
    delta: complex  # det(sigma_0 - h1 h2), or an array of them


def delta_closed(theta: float, eta: float, coupling: Coupling) -> float:
    """Closed-form corner symbol determinant (1 - (eps^2-mu^2) M_theta(2 eta))^2."""
    return (1.0 - coupling.strength * M(theta, 2.0 * eta)) ** 2


def _exp_integral(beta, theta: float, trunc: float, tol: float) -> np.ndarray:
    """int_{-trunc}^{trunc} e^{beta t} / (e^t + e^-t - 2 cos theta) dt for each
    exponent of the array beta, all by one vector quadrature: the subdivision
    serves the worst of them, and the error estimate is their largest."""
    beta1 = np.asarray(beta, dtype=complex) + 1.0
    two_cos = 2.0 * math.cos(theta)

    def f(t):
        return np.exp(beta1 * t) / (math.exp(2.0 * t) + 1.0 - two_cos * math.exp(t))

    val, err = quad_vec(f, -trunc, trunc, epsabs=0.25 * tol, epsrel=0, norm="max",
                        limit=400)
    if err > tol:
        raise ConvergenceError(
            f"Mellin quadrature error estimate {err:.2e} above tol {tol:.2e}")
    return val


def mellin_symbol(theta: float, eta, coupling: Coupling,
                  trunc: float = 60.0, tol: float = 1e-10) -> MellinResult:
    """Direct quadrature of the corner symbol in the model frame tau=(1,0), nu=(0,1).

    eta may be an array: every field then carries its shape in front, h1 and
    h2 being (..., 2, 2), and all the integrals of one call are one vector
    quadrature.  A scalar eta gives scalars and 2x2 matrices.
    """
    check_angle(theta, straight=False)
    check_quadrature(trunc, tol)
    eta = np.asarray(eta, dtype=float)
    xi = eta + 0.5j
    xib = eta - 0.5j
    i_xi, i_xib = _exp_integral(np.stack([1j * xi, 1j * xib]), theta, trunc, tol)
    ct, st = math.cos(theta), math.sin(theta)
    a_tau = ct * i_xib - i_xi
    a_nu = -st * i_xib
    b_tau = ct * i_xi - i_xib
    b_nu = -st * i_xi
    # the kernel matrix enters the two symbol factors with opposite signs
    # (the second one is evaluated at -zeta), hence the opposite prefactors
    pref_a = -1j / (2.0 * math.pi)
    pref_b = +1j / (2.0 * math.pi)
    tau_c, nu_c = 1.0, 1.0j
    a_full = pref_a * (a_tau * tau_c + a_nu * nu_c)
    a_conj = pref_a * (a_tau * np.conj(tau_c) + a_nu * np.conj(nu_c))
    b_full = pref_b * (b_tau * tau_c + b_nu * nu_c)
    b_conj = pref_b * (b_tau * np.conj(tau_c) + b_nu * np.conj(nu_c))
    ep, em = coupling.diagonal
    h1 = np.zeros(eta.shape + (2, 2), dtype=complex)
    h2 = np.zeros(eta.shape + (2, 2), dtype=complex)
    h1[..., 0, 1], h1[..., 1, 0] = ep * a_conj, em * a_full
    h2[..., 0, 1], h2[..., 1, 0] = ep * b_conj, em * b_full
    # The two cross-arm factors carry opposite spinor frame phases that the
    # scalar direction function above cannot represent; they cancel in the
    # symmetrized product, which is the combination the closed-form scalar
    # symbol corresponds to (the unsymmetrized product would contradict the
    # smooth-curve threshold in the flat-angle limit).
    prod = 0.5 * (h1 @ h2 + h2 @ h1)
    delta = (1.0 - prod[..., 0, 0]) * (1.0 - prod[..., 1, 1])
    s_value = 2.0 * st * st * (a_conj * b_full + a_full * b_conj)
    return MellinResult(h1, h2, s_value[()], delta[()])


def delta_direct(theta: float, eta, coupling: Coupling,
                 trunc: float = 60.0, tol: float = 1e-10):
    """Quadrature oracle for delta_closed, at a scalar eta or an array of them."""
    return mellin_symbol(theta, eta, coupling, trunc, tol).delta


def s_closed(theta: float, eta: float) -> float:
    """Closed form of the scalar symbol S: 2 sin^2(theta) cosh(2 eta (pi-theta)) / (1 + cosh(2 pi eta))."""
    st = math.sin(theta)
    return 4.0 * st * st * M(theta, 2.0 * eta)


# ---------------------------------------------------------------------------
# reference Mellin integral
# ---------------------------------------------------------------------------


def _reference_alpha(alpha: complex, omega: float, b: float) -> complex:
    """alpha as a complex number, once 0 < Re alpha < 2, 0 < |omega| < pi, b > 0."""
    alpha = complex(alpha)
    if not 0.0 < alpha.real < 2.0:
        raise DomainError("alpha must satisfy 0 < Re alpha < 2")
    if not 0.0 < abs(omega) < math.pi:
        raise DomainError("omega must satisfy 0 < |omega| < pi")
    if not b > 0:
        raise DomainError("b must be positive")
    return alpha


def mellin_reference(alpha: complex, omega: float, b: float) -> complex:
    """Closed form of int_0^inf x^(alpha-1) / (x^2 + 2 b x cos(omega) + b^2) dx
    for 0 < Re alpha < 2, 0 < |omega| < pi, b > 0.

    At the removable points sin(alpha pi) = 0 the value is taken as the
    symmetric limit alpha +- 1e-6.
    """
    alpha = _reference_alpha(alpha, omega, b)
    s = np.sin(np.pi * alpha)
    if abs(s) < 1e-8:
        d = 1e-6
        return 0.5 * (mellin_reference(alpha - d, omega, b)
                      + mellin_reference(alpha + d, omega, b))
    return (-math.pi * b ** (alpha - 2.0) / math.sin(omega) / s
            * np.sin((alpha - 1.0) * omega))


def mellin_reference_quadrature(alpha: complex, omega: float, b: float,
                                tol: float = 1e-12) -> complex:
    """Adaptive-quadrature cross-check of mellin_reference (t = log(x/b))."""
    alpha = _reference_alpha(alpha, omega, b)
    decay = min(alpha.real, 2.0 - alpha.real)
    trunc = 42.0 / decay

    def f(t):
        e = np.exp((alpha - 1.0) * t)
        d = np.exp(t) + np.exp(-t) + 2.0 * math.cos(omega)
        return complex(e.real / d, e.imag / d)

    val, err = quad(f, -trunc, trunc, limit=800, epsabs=0.25 * tol, epsrel=0,
                    complex_func=True)
    err = max(err.real, err.imag)
    if err > 10 * tol:
        raise ConvergenceError(
            f"reference quadrature error {err:.2e} above tol {tol:.2e}")
    return b ** (alpha - 2.0) * val
