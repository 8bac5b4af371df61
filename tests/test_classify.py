import math

import numpy as np
import pytest

from diracshell.classify import (
    CERT_C1,
    CERT_COR_A,
    CERT_COR_B,
    CERT_COR_C,
    CERT_CRITICAL,
    CERT_DOMINATED,
    CERT_POLYGON_LOWER,
    CERT_POLYGON_UPPER,
    CurveClass,
    classify,
    reduced_coupling,
)
from diracshell import classify as cl
from diracshell import geometry as geo
from diracshell.corner_symbol import m_of
from diracshell.kernels import Coupling

SQUARE = CurveClass.polygon([math.pi / 2] * 4)


def test_spec_examples():
    r = classify(CurveClass.lipschitz(), Coupling(1.0, 1.0))
    assert (r.verdict, r.certificate) == ("SelfAdjoint", CERT_CRITICAL)

    r = classify(SQUARE, Coupling(3.0, 0.0))
    assert (r.verdict, r.certificate) == ("SelfAdjoint", CERT_POLYGON_UPPER)
    assert r.evidence["strength"] == 9.0
    assert r.evidence["threshold_upper"] == pytest.approx(4.0)
    assert CERT_COR_B in r.evidence["corollaries"]

    r = classify(SQUARE, Coupling(2.0, 0.0))
    assert (r.verdict, r.certificate) == ("Unknown", None)

    r = classify(CurveClass.c1(), Coupling(2.0, 0.0))
    assert (r.verdict, r.certificate) == ("Unknown", None)


def test_dominated_and_c1():
    r = classify(CurveClass.lipschitz(), Coupling(1.0, 2.0))
    assert (r.verdict, r.certificate) == ("SelfAdjoint", CERT_DOMINATED)
    r = classify(CurveClass.c1(), Coupling(1.0, 0.0))
    assert (r.verdict, r.certificate) == ("SelfAdjoint", CERT_C1)


def test_free_operator_note():
    r = classify(CurveClass.lipschitz(), Coupling(0.0, 0.0))
    assert r.verdict == "SelfAdjoint" and r.certificate == CERT_CRITICAL
    assert any("free operator" in n for n in r.notes)


def test_lipschitz_above_critical_is_unknown():
    r = classify(CurveClass.lipschitz(), Coupling(2.0, 0.0))
    assert (r.verdict, r.certificate) == ("Unknown", None)


def test_square_lower_branch_and_corollaries():
    r = classify(SQUARE, Coupling(1.0, 0.0))
    assert (r.verdict, r.certificate) == ("SelfAdjoint", CERT_POLYGON_LOWER)
    assert CERT_COR_A in r.evidence["corollaries"]
    assert CERT_COR_C in r.evidence["corollaries"]
    assert r.evidence["fredholm"] is True


def test_upper_branch_reports_non_fredholm():
    r = classify(SQUARE, Coupling(3.0, 0.0))
    assert r.evidence["fredholm"] is False
    assert any("fredholm=false, self_adjoint=true" in n for n in r.notes)


def test_fredholm_evidence_is_strict_and_read_at_the_sharpest_corner():
    e = classify(SQUARE, Coupling(1.0, 0.0)).evidence
    assert e["fredholm"] is True
    assert e["threshold_lower"] == pytest.approx(4.0)
    # d = 4 = 1/m(pi/2): the inequality d < 1/m(omega) is strict
    assert classify(SQUARE, Coupling(2.0, 0.0)).evidence["fredholm"] is False
    e = classify(CurveClass.polygon([0.3 * math.pi, math.pi / 2]), Coupling(2.0, 0.0)).evidence
    assert e["omega"] == 0.3 * math.pi
    assert e["fredholm"] == (4.0 < 1.0 / m_of(0.3 * math.pi))


def test_verdict_certificate_invariant():
    rng = np.random.default_rng(11)
    for _ in range(200):
        eps, mu = rng.uniform(-5, 5, size=2)
        cls = (CurveClass.lipschitz(), CurveClass.c1(), SQUARE)[rng.integers(3)]
        r = classify(cls, Coupling(eps, mu))
        if r.verdict == "SelfAdjoint":
            assert r.certificate is not None
        else:
            assert r.certificate is None


def test_empty_polygon_reclassified():
    r = classify(CurveClass.polygon([]), Coupling(1.0, 0.0))
    assert (r.verdict, r.certificate) == ("SelfAdjoint", CERT_C1)
    assert any("reclassified" in n for n in r.notes)


def test_reduction_consistency_500_random():
    rng = np.random.default_rng(2024)
    classes = [CurveClass.lipschitz(), CurveClass.c1(), SQUARE,
               CurveClass.polygon([0.3 * math.pi, 0.8 * math.pi])]
    done = 0
    while done < 500:
        eps, mu = rng.uniform(-4, 4, size=2)
        if abs(abs(eps) - abs(mu)) < 1e-3:
            continue
        c = Coupling(eps, mu)
        partner = reduced_coupling(c)
        cls = classes[int(rng.integers(len(classes)))]
        assert classify(cls, c).verdict == classify(cls, partner).verdict
        done += 1


def test_monotone_coverage():
    rng = np.random.default_rng(5)
    angles_pool = [[math.pi / 2] * 4, [0.4 * math.pi], [1.7 * math.pi, 0.9 * math.pi]]
    for _ in range(200):
        eps, mu = rng.uniform(-4, 4, size=2)
        if abs(eps) <= abs(mu):
            continue
        cls = CurveClass.polygon(angles_pool[int(rng.integers(3))])
        r = classify(cls, Coupling(eps, mu))
        d = eps**2 - mu**2
        cors = r.evidence["corollaries"]
        if CERT_COR_A in cors:  # d < 2 <= 1/m(omega)
            assert r.certificate == CERT_POLYGON_LOWER
        if CERT_COR_B in cors:  # d > 8 >= 16 m(omega)
            assert r.certificate == CERT_POLYGON_UPPER


def test_class_widening():
    rng = np.random.default_rng(17)
    for _ in range(200):
        eps, mu = rng.uniform(-4, 4, size=2)
        c = Coupling(eps, mu)
        if classify(CurveClass.lipschitz(), c).verdict == "SelfAdjoint":
            assert classify(CurveClass.c1(), c).verdict == "SelfAdjoint"
            assert classify(SQUARE, c).verdict == "SelfAdjoint"


def test_threshold_equality_exact_arithmetic():
    # strength lands exactly on the smooth threshold: must stay Unknown
    r = classify(CurveClass.c1(), Coupling(2.0, 0.0))
    assert r.verdict == "Unknown"
    r = classify(CurveClass.c1(), Coupling(math.sqrt(5.0), 1.0))
    # sqrt(5)^2 - 1 is 4 only up to rounding; exact rational arithmetic on the
    # float inputs decides, and a borderline note is attached either way
    assert r.verdict in ("SelfAdjoint", "Unknown")
    assert any("borderline" in n for n in r.notes) or r.verdict == "Unknown"


def test_from_curve():
    sq = geo.build_curve(geo.square(1.0))
    cls = CurveClass.from_curve(sq)
    assert cls.kind == "polygon" and len(cls.angles) == 4
    ci = geo.build_curve(geo.circle(1.0))
    assert CurveClass.from_curve(ci).kind == "c1"


def test_result_json_shape():
    r = classify(SQUARE, Coupling(1.0, 0.0))
    doc = r.to_json_dict()
    assert set(doc) == {"verdict", "certificate", "evidence", "notes"}


def test_m_omega_computed_once_per_curve_class(monkeypatch):
    # a sweep classifies many couplings on one curve class: m(omega) is a
    # scan plus a refinement, paid once per class, not once per coupling
    calls = []
    m_of = cl.m_of
    monkeypatch.setattr(cl, "m_of", lambda omega: calls.append(omega) or m_of(omega))
    square, triangle = CurveClass.polygon([math.pi / 2] * 4), CurveClass.polygon([math.pi / 3] * 3)
    for eps in np.linspace(-4.0, 4.0, 9):
        for mu in (0.0, 0.5):
            classify(square, Coupling(eps, mu))
    assert square.m_omega == m_of(math.pi / 2)
    assert calls == [math.pi / 2]
    assert 0.25 <= triangle.m_omega < 0.5
    assert calls == [math.pi / 2, pytest.approx(math.pi / 3)]
    assert CurveClass.polygon([math.pi / 2] * 4).m_omega == square.m_omega
    assert len(calls) == 3
