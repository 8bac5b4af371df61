import math

import mpmath as mp
import numpy as np
import pytest

from diracshell.errors import DomainError, SingularPointError, SpectralParameterError
from diracshell.kernels import (
    Coupling,
    SIGMA0,
    SIGMA3,
    b_k0,
    b_k0_at_zero,
    b_k1,
    bessel_i0,
    bessel_i1,
    bessel_k0,
    bessel_k1,
    phi_m,
    phi_z,
)

mp.mp.dps = 30


def test_k0_k1_against_arbitrary_precision():
    xs = np.concatenate([np.geomspace(1e-8, 2.0, 120), np.linspace(2.001, 60.0, 120)])
    for f, nu in ((bessel_k0, 0), (bessel_k1, 1)):
        vals = f(xs)
        for v, x in zip(vals, xs):
            ref = mp.besselk(nu, mp.mpf(float(x)))
            assert abs((mp.mpf(float(v)) - ref) / ref) < 1e-12


def test_k0_reference_value():
    assert bessel_k0(1.0) == pytest.approx(0.421024438241, abs=1e-11)


def test_k1_reference_value():
    assert bessel_k1(1.0) == pytest.approx(0.601907230197, abs=1e-11)


def test_k0_small_argument_logarithmic():
    x = 1e-6
    assert abs(bessel_k0(x) + math.log(x / 2.0) + 0.5772156649015329) < 1e-5


def test_k1_small_argument_pole():
    x = 1e-6
    assert abs(x * bessel_k1(x) - 1.0) < 1e-5


def test_k0_leading_asymptotics():
    x = 10.0
    lead = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
    assert bessel_k0(x) / lead == pytest.approx(1.0, abs=2e-2)


def test_k_recurrence_by_finite_differences():
    h = 1e-6
    x = 2.0
    deriv = (bessel_k0(x + h) - bessel_k0(x - h)) / (2 * h)
    assert deriv == pytest.approx(-bessel_k1(x), abs=1e-6)


def test_i0_i1_against_arbitrary_precision():
    xs = np.geomspace(1e-6, 25.0, 120)
    for f, nu in ((bessel_i0, 0), (bessel_i1, 1)):
        vals = f(xs)
        for v, x in zip(vals, xs):
            ref = mp.besseli(nu, mp.mpf(float(x)))
            assert abs((mp.mpf(float(v)) - ref) / ref) < 1e-12


def test_bessel_domain_errors():
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(DomainError):
            bessel_k0(bad)
        with pytest.raises(DomainError):
            bessel_k1(bad)


def test_log_splits_against_arbitrary_precision():
    kappa = 0.87
    for r in (1e-10, 1e-4, 0.3, 1.9, 2.5, 6.0):
        want0 = mp.besselk(0, kappa * mp.mpf(r)) + mp.log(mp.mpf(r)) * mp.besseli(0, kappa * mp.mpf(r))
        rr = np.array([r])
        assert abs(float(b_k0(rr, kappa, np.log(rr))[1][0]) - float(want0)) < 1e-13
        want1 = (kappa * mp.besselk(1, kappa * mp.mpf(r)) - 1 / mp.mpf(r)
                 - kappa * mp.log(mp.mpf(r)) * mp.besseli(1, kappa * mp.mpf(r)))
        assert abs(float(b_k1(rr, kappa, np.log(rr))[1][0]) - float(want1)) < 1e-12
    assert b_k0_at_zero(kappa) == pytest.approx(
        -(math.log(kappa / 2) + 0.5772156649015329), abs=1e-15)


def test_log_splits_large_argument_against_arbitrary_precision():
    # I0/I1 (the log-term factors) and both smooth parts out to kappa r = 150,
    # on both sides of r = 1; no point sits where K0 and log(r) I0 cancel
    for kappa in (0.87, 1.0, 40.0):
        r = np.geomspace(2.0, 150.0, 40) / kappa
        i0, b0 = b_k0(r, kappa, np.log(r))
        i1, b1 = b_k1(r, kappa, np.log(r))
        for k, rk in enumerate(r):
            rm = mp.mpf(float(rk))
            w = kappa * rm
            want = {
                "I0": (i0[k], mp.besseli(0, w)),
                "I1": (i1[k], mp.besseli(1, w)),
                "b_k0": (b0[k], mp.besselk(0, w) + mp.log(rm) * mp.besseli(0, w)),
                "b_k1": (b1[k], kappa * mp.besselk(1, w) - 1 / rm
                         - kappa * mp.log(rm) * mp.besseli(1, w)),
            }
            for name, (got, ref) in want.items():
                rel = abs((mp.mpf(float(got)) - ref) / ref)
                assert rel < 1e-13, (name, kappa, float(w), float(rel))


def test_phi_z_conjugate_symmetry():
    c = Coupling(0.0, 0.0, 1.0)
    x = np.array([0.3, 0.7])
    left = np.conj(phi_z(-x, 0.2, c)).T
    right = phi_z(x, 0.2, c)
    assert np.max(np.abs(left - right)) < 1e-14


def test_phi_z_entry_value():
    c = Coupling(0.0, 0.0, 1.0)
    v = phi_z(np.array([1.0, 0.0]), 0.0, c)
    assert v[0, 0].real == pytest.approx(float(mp.besselk(0, 1)) / (2 * math.pi), abs=1e-10)
    assert v[0, 0].imag == 0.0


def _dirac_apply(fvals, h, z, mass):
    """(D - z) via the 5-point stencil dictionary fvals[(dx,dy)] -> (2,) values."""
    d1 = (fvals[(1, 0)] - fvals[(-1, 0)]) / (2 * h)
    d2 = (fvals[(0, 1)] - fvals[(0, -1)]) / (2 * h)
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    return (-1j * (s1 @ d1 + s2 @ d2) + mass * s3 @ fvals[(0, 0)]
            - z * fvals[(0, 0)])


def test_phi_z_is_fundamental_solution_away_from_origin():
    c = Coupling(0.0, 0.0, 1.0)
    z = 0.3
    x0 = np.array([0.5, 0.5])
    h = 1e-4
    for col in range(2):
        fvals = {}
        for dx, dy in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
            pt = x0 + h * np.array([dx, dy])
            fvals[(dx, dy)] = phi_z(pt, z, c)[:, col]
        resid = _dirac_apply(fvals, h, z, 1.0)
        assert np.max(np.abs(resid)) < 1e-6


def test_phi_m_exact_values():
    v = phi_m(np.array([1.0, 0.0]))
    want = (1j / (2 * math.pi)) * np.array([[0, 1], [1, 0]])
    assert np.array_equal(v, want)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=2)
        m = phi_m(x)
        assert m[0, 0] == 0 and m[1, 1] == 0


def test_phi_z_minus_phi_m_log_bounded():
    c = Coupling(0.0, 0.0, 1.0)
    z = 0.4
    direction = np.array([0.6, 0.8])
    norms = []
    for r in (1e-2, 1e-4):
        d = phi_z(r * direction, z, c) - phi_m(r * direction)
        norms.append(np.max(np.abs(d)) / abs(math.log(r)))
    # log-growth bound: the log-normalized difference stays O(1)
    assert norms[1] < 4.0 * norms[0] + 1.0


def test_phi_z_exponential_decay():
    c = Coupling(0.0, 0.0, 1.0)
    z = 0.6
    kappa = math.sqrt(1 - z * z)
    mags = []
    for r in (5.0, 10.0):
        v = phi_z(np.array([r, 0.0]), z, c)
        mags.append(np.max(np.abs(v)))
    predicted = math.exp(-kappa * 5.0) * math.sqrt(5.0 / 10.0)
    assert mags[1] / mags[0] == pytest.approx(predicted, rel=0.10)


def test_phi_errors():
    c = Coupling(0.0, 0.0, 1.0)
    with pytest.raises(SingularPointError):
        phi_z(np.array([0.0, 0.0]), 0.0, c)
    with pytest.raises(SingularPointError):
        phi_m(np.array([0.0, 0.0]))
    with pytest.raises(SpectralParameterError):
        phi_z(np.array([1.0, 0.0]), 1.5, c)
    with pytest.raises(SpectralParameterError):  # once kappa = nan
        phi_z(np.array([1.0, 0.0]), np.nan, c)


def test_coupling_validation():
    with pytest.raises(DomainError):
        Coupling(1.0, 0.0, 0.0)
    c = Coupling(3.0, 1.0, 1.0)
    assert c.strength == 8.0
    assert not c.is_critical
    assert Coupling(2.0, -2.0).is_critical
    assert np.array_equal(c.matrix(), 3.0 * SIGMA0 + 1.0 * SIGMA3)


@pytest.mark.parametrize("args", [(math.nan, 0.0), (0.0, math.inf), (1.0, 0.0, math.inf),
                                  (1.0, -math.inf, 1.0)])
def test_coupling_refuses_non_finite_values(args):
    with pytest.raises(DomainError, match="finite"):
        Coupling(*args)
