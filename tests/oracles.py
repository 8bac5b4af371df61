"""Independent references for the tests, free of the Nystrom code.

On a circle of radius R the operator C_z is block diagonal in Fourier
modes: component 0 in mode k couples only with component 1 in mode k + 1,
through the 2 x 2 block

    C_k(z) = [[(z + m) R I_p K_p,  i x], [-i x,  (z - m) R I_q K_q]],
    x = kappa R I_min(p,q) K_max(p,q) - 1/2,   p = |k|,  q = |k + 1|,

every Bessel function taken at kappa R, kappa = sqrt(m^2 - z^2).  A gap
eigenvalue is therefore a zero in z of the real function
det(I + diag(eps + mu, eps - mu) C_k(z)) for some k.  On the scalar route
(eps = +-mu) one coefficient is 0 and the determinant is that of the other
component alone, so the same function covers both routes.
"""

import numpy as np
from scipy.optimize import brentq
from scipy.special import ive, kve

MODES = 60  # the modes searched are |k| < MODES
SCAN = 2001  # points of the sign scan over the window


def circle_mode_determinant(z, k, coupling, radius):
    """det(I + diag(eps + mu, eps - mu) C_k(z)) on the circle of the given
    radius, at a scalar z or an array of them in the gap."""
    m = coupling.mass
    kappa = np.sqrt(m * m - np.square(z))
    w = kappa * radius
    p, q = abs(k), abs(k + 1)

    def r_ik(a, b):  # R I_a(kappa R) K_b(kappa R): the scalings of ive and kve cancel
        return radius * ive(a, w) * kve(b, w)

    x = kappa * r_ik(min(p, q), max(p, q)) - 0.5
    d0, d1 = coupling.diagonal
    return (1.0 + d0 * (z + m) * r_ik(p, p)) * (1.0 + d1 * (z - m) * r_ik(q, q)) - d0 * d1 * x * x


def circle_eigenvalues(coupling, radius, window):
    """The gap eigenvalues in the window (lo, hi), ascending, each repeated
    by the number of modes it is a zero of: the sign changes of each mode's
    determinant on a ``SCAN``-point grid, refined by brentq."""
    zs = np.linspace(*window, SCAN)
    roots = []
    for k in range(1 - MODES, MODES):
        vals = circle_mode_determinant(zs, k, coupling, radius)
        for i in np.nonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))[0]:
            roots.append(brentq(circle_mode_determinant, zs[i], zs[i + 1],
                                args=(k, coupling, radius), xtol=1e-15))
    return sorted(roots)
