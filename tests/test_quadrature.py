import numpy as np
import pytest
import scipy.integrate as si

from diracshell.quadrature import (
    cauchy_moments,
    gauss_legendre,
    kress_log_weights,
    legendre_matrix,
    log_moments,
    product_weights,
)


def _poly(t):
    return 1.0 + 2 * t + 0.5 * t**3 - t**5


def test_legendre_matrix_orthogonality():
    n = 8
    P = legendre_matrix(n)
    _, w = gauss_legendre(n)
    gram = (P * w) @ P.T
    want = np.diag(2.0 / (2 * np.arange(n) + 1))
    assert np.max(np.abs(gram - want)) < 1e-14


def test_cauchy_pv_on_panel():
    n = 8
    s, _ = gauss_legendre(n)
    x0 = 0.3
    v = product_weights(cauchy_moments(x0, n, True), n)
    got = np.sum(v * _poly(s))
    smooth = si.quad(lambda t: (_poly(t) - _poly(x0)) / (t - x0), -1, 1,
                     points=[x0], limit=200)[0]
    want = smooth + _poly(x0) * np.log((1 - x0) / (1 + x0))
    assert abs(got - want) < 1e-13


@pytest.mark.parametrize("x0", [1.3 + 0.2j, 0.2 + 0.05j, -1.1 - 0.3j, 2.0 + 0j])
def test_cauchy_moments_off_panel(x0):
    n = 8
    s, _ = gauss_legendre(n)
    v = product_weights(cauchy_moments(x0, n, False), n)
    got = np.sum(v * _poly(s))
    re = si.quad(lambda t: np.real(_poly(t) / (t - x0)), -1, 1, limit=400)[0]
    im = si.quad(lambda t: np.imag(_poly(t) / (t - x0)), -1, 1, limit=400)[0]
    assert abs(got - (re + 1j * im)) < 1e-12


def test_log_moments_on_panel():
    n = 8
    s, _ = gauss_legendre(n)
    x0 = -0.4
    v = product_weights(log_moments(x0, n), n)
    got = np.sum(v * _poly(s))
    want = si.quad(lambda t: _poly(t) * np.log(abs(t - x0)), -1, 1,
                   points=[x0], limit=300)[0]
    assert abs(got - want) < 1e-13


def test_kress_weights_integrate_fourier_modes():
    n = 64
    c = kress_log_weights(n)
    th = 2 * np.pi * np.arange(n) / n
    w = c[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]
    for m in (0, 1, 3, 10):
        f = np.exp(1j * m * th)
        got = w @ f
        want = np.zeros(n, complex) if m == 0 else -(2 * np.pi / m) * f
        assert np.max(np.abs(got - want)) < 1e-12
