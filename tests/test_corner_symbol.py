import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracshell import corner_symbol as cs
from diracshell.errors import ConvergenceError, DomainError
from diracshell.kernels import Coupling


def test_M_at_zero_is_quarter():
    for th in (0.1 * math.pi, 0.5 * math.pi, 1.3 * math.pi, 1.9 * math.pi):
        assert cs.M(th, 0.0) == 0.25


def test_M_decays():
    assert cs.M(0.4 * math.pi, 50.0) < 1e-10


def test_M_reflection_symmetry_exact():
    assert cs.M(0.7 * math.pi, 1.3) == cs.M(2 * math.pi - 0.7 * math.pi, 1.3)


@settings(max_examples=80, deadline=None)
@given(st.floats(0.01, 1.99), st.floats(-60, 60))
def test_M_properties(theta_pi, x):
    th = theta_pi * math.pi
    v = cs.M(th, x)
    assert 0.0 <= v <= 0.5
    assert v == cs.M(th, -x)
    # rounding of 2 pi - theta perturbs the exponent by ~ulp(2 pi) * |x|
    assert abs(v - cs.M(2 * math.pi - th, x)) <= 1e-14 * (1.0 + abs(x))


def _m_oracle(theta):
    """Independent supremum: dense scan plus Brent refinement (scipy)."""
    from scipy.optimize import minimize_scalar

    x = np.linspace(0.0, 60.0 / min(theta, 2 * math.pi - theta), 200001)
    v = cs.M(theta, x)
    i = int(np.argmax(v))
    lo, hi = x[max(i - 1, 0)], x[min(i + 1, len(x) - 1)]
    res = minimize_scalar(lambda t: -cs.M(theta, t), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-13})
    return max(float(v[i]), float(-res.fun), cs.M(theta, 0.0))


def test_m_against_independent_oracle():
    for tpi in (0.005, 0.05, 0.15, 0.25, 0.29, 0.31, 0.45, 0.75):
        want = _m_oracle(tpi * math.pi)
        assert cs.m_of(tpi * math.pi) == pytest.approx(want, abs=1e-10)


def test_m_quarter_plateau():
    assert cs.m_of(math.pi / 2) == pytest.approx(0.25, abs=1e-10)
    assert cs.m_of(0.75 * math.pi) == pytest.approx(0.25, abs=1e-10)


def test_m_range_and_monotonicity_spot():
    v04 = cs.m_of(0.4 * math.pi)
    v06 = cs.m_of(0.6 * math.pi)
    assert 0.25 <= v04 <= 0.5
    assert v04 >= v06


def test_m_symmetry_grid():
    for tpi in np.linspace(0.02, 0.98, 50):
        assert abs(cs.m_of(tpi * math.pi) - cs.m_of((2 - tpi) * math.pi)) <= 1e-12


def test_m_tol_validation():
    with pytest.raises(DomainError):
        cs.m_of(0.0)


def test_threshold_localization():
    grid = np.linspace(0.05, 0.95, 181) * math.pi
    vals = np.array([cs.m_of(t) for t in grid])
    above = grid[vals > 0.25 + 1e-8]
    # m is non-increasing, so the exceedance set is the low-theta end; its
    # upper edge localizes the plateau onset
    edge = above.max()
    assert 0.25 * math.pi < edge < 0.35 * math.pi


def test_delta_closed_examples():
    assert cs.delta_closed(0.7 * math.pi, 1.1, Coupling(2.0, 2.0)) == 1.0
    assert cs.delta_closed(math.pi / 2, 0.0, Coupling(2.0, 0.0)) == 0.0
    assert cs.delta_closed(math.pi / 2, 0.0, Coupling(1.0, 0.0)) == pytest.approx(0.5625)


def test_delta_direct_matches_closed_form():
    c = Coupling(2.0, 0.0)
    dd, = cs.delta_direct(0.5 * math.pi, [0.7], c)
    assert abs(dd - cs.delta_closed(0.5 * math.pi, 0.7, c)) <= 1e-8
    assert abs(dd.imag) <= 1e-9


_ETA_ROW = (-4.0, -0.5, 0.0, 0.7, 2.5)
# delta_direct at Coupling(3, 1) and the etas of _ETA_ROW, one scalar
# quad call per integral (the quadrature before it took eta rows)
_DELTA_SCALAR_QUAD = {
    0.3: (0.9957525835558119 - 1.7189056198954651e-18j, 0.2023233206335994 + 0j,
          0.999999999999567 + 0j, 0.0020699944994886253 + 0j,
          0.9294248849750214 - 2.7066141018827994e-17j),
    0.7: (0.9999998169446153 + 5.8540161100616285e-21j,
          0.28142477292172385 + 7.885534707069465e-17j, 0.9999999999991509 + 0j,
          0.6521354017012663 - 1.3045624797642355e-17j,
          0.9998657874614342 - 1.398818635497197e-19j),
    1.3: (0.9999998169446153 + 1.0659736527531471e-20j,
          0.28142477292172374 + 4.189348888873755e-17j, 0.9999999999991509 + 0j,
          0.6521354017012663 + 8.759425945649233e-18j,
          0.9998657874614342 - 8.323968191130865e-19j),
}


@pytest.mark.parametrize("theta_pi", sorted(_DELTA_SCALAR_QUAD))
def test_delta_direct_row_matches_per_eta_calls(theta_pi):
    c = Coupling(3.0, 1.0)
    theta = theta_pi * math.pi
    row = cs.delta_direct(theta, _ETA_ROW, c)
    assert row.shape == (len(_ETA_ROW),)
    single = np.array([cs.delta_direct(theta, eta, c) for eta in _ETA_ROW])
    assert np.max(np.abs(row - single)) <= 1e-14
    assert np.max(np.abs(row - np.array(_DELTA_SCALAR_QUAD[theta_pi]))) <= 1e-13


def test_mellin_symbol_row_shapes():
    res = cs.mellin_symbol(0.7 * math.pi, np.array([[0.3, -1.0, 2.0]]), Coupling(3.0, 1.0))
    assert res.h1.shape == res.h2.shape == (1, 3, 2, 2)
    assert res.delta.shape == res.s_value.shape == (1, 3)
    one = cs.mellin_symbol(0.7 * math.pi, -1.0, Coupling(3.0, 1.0))
    assert one.h1.shape == (2, 2) and np.ndim(one.delta) == 0
    assert np.max(np.abs(res.h1[0, 1] - one.h1)) <= 1e-15


def test_delta_direct_tolerance_out_of_reach_raises():
    with pytest.raises(ConvergenceError):
        cs.delta_direct(0.5 * math.pi, [0.0, 0.7], Coupling(2.0, 0.0), tol=1e-20)


def test_symbol_matrices_antidiagonal():
    res = cs.mellin_symbol(0.7 * math.pi, 0.3, Coupling(3.0, 1.0))
    for h in (res.h1, res.h2):
        assert h[0, 0] == 0.0 and h[1, 1] == 0.0
        assert h[0, 1] != 0.0 and h[1, 0] != 0.0


def test_intermediate_s_closed_form():
    res = cs.mellin_symbol(1.2 * math.pi, -0.4, Coupling(2.0, 0.0))
    assert abs(res.s_value - cs.s_closed(1.2 * math.pi, -0.4)) <= 1e-8


def test_mellin_symbol_domain_errors():
    with pytest.raises(DomainError):
        cs.mellin_symbol(math.pi, 0.0, Coupling(1.0, 0.0))
    # past 354 the integrand's e^{2t} overflows: once an OverflowError
    for trunc in (30.0, 400.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            cs.mellin_symbol(0.5 * math.pi, 0.0, Coupling(1.0, 0.0), trunc=trunc)
    # a tolerance that is not finite and positive: inf once returned 0.8506
    # at eta = 5 against delta_closed 0.99999940, and -1 a ConvergenceError
    for tol in (math.inf, 0.0, math.nan, -1.0):
        with pytest.raises(DomainError):
            cs.delta_direct(0.5 * math.pi, 5.0, Coupling(2.0, 0.0), tol=tol)
    assert cs.mellin_symbol(0.5 * math.pi, 0.0, Coupling(1.0, 0.0),
                            trunc=cs.TRUNC_RANGE[1]).delta == pytest.approx(
        cs.mellin_symbol(0.5 * math.pi, 0.0, Coupling(1.0, 0.0)).delta, abs=1e-8)


def test_mellin_reference_alpha_one_limit():
    # direct elementary integral: int dx/(x^2+1) = pi/2
    val = cs.mellin_reference(1.0, math.pi / 2, 1.0)
    assert val == pytest.approx(math.pi / 2, abs=1e-8)


def test_mellin_reference_vs_quadrature():
    v1 = cs.mellin_reference(1.5, 0.3 * math.pi, 1.0)
    v2 = cs.mellin_reference_quadrature(1.5, 0.3 * math.pi, 1.0)
    assert abs(v1 - v2) <= 1e-10


def test_mellin_reference_b_scaling():
    a = 1.3 + 0.2j
    v1 = cs.mellin_reference(a, 0.4, 1.0)
    v2 = cs.mellin_reference(a, 0.4, 2.0)
    assert abs(v2 - 2.0 ** (a - 2.0) * v1) <= 1e-10


def test_mellin_reference_domain():
    with pytest.raises(DomainError):
        cs.mellin_reference(2.5, 0.4, 1.0)
    with pytest.raises(DomainError):
        cs.mellin_reference(1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        cs.mellin_reference(1.0, 0.4, -1.0)
