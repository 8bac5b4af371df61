"""Decision engine: which self-adjointness condition fires for (curve class, eps, mu).

The verdict is SelfAdjoint or Unknown; Unknown never means "not self-adjoint",
it means none of the implemented sufficient conditions applies.  Certificates
are opaque labels naming the condition that fired; the numeric evidence
(sharpest opening omega, m(omega), eps^2 - mu^2 and both thresholds) is
attached for polygon decisions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .corner_symbol import check_angle, m_of
from .errors import DomainError
from .geometry import Curve, interior_angles, sharpest_angle
from .kernels import Coupling

CERT_CRITICAL = "Thm3.1"
CERT_DOMINATED = "Cor4.4"
CERT_C1 = "Thm4.5"
CERT_POLYGON_LOWER = "Thm5.4-lower"
CERT_POLYGON_UPPER = "Thm5.4-upper"
CERT_COR_A = "Cor5.5a"
CERT_COR_B = "Cor5.5b"
CERT_COR_C = "Cor5.5c"
CERT_REDUCTION = "Rmk1.2-reduction"

_BORDERLINE = 1e-12


@dataclass(frozen=True)
class CurveClass:
    """Regularity class of the interaction curve: lipschitz, c1 or polygon."""

    kind: str
    angles: tuple = ()

    def __post_init__(self):
        if self.kind not in ("lipschitz", "c1", "polygon"):
            raise DomainError(f"unknown curve class {self.kind!r}")
        for th in self.angles:
            check_angle(th, straight=False)

    @functools.cached_property
    def omega(self) -> float:
        """The sharpest effective corner opening min(theta, 2pi - theta)."""
        return sharpest_angle(self.angles)

    @functools.cached_property
    def m_omega(self) -> float:
        """m(omega), computed once per curve class."""
        return m_of(self.omega)

    @staticmethod
    def lipschitz() -> "CurveClass":
        return CurveClass("lipschitz")

    @staticmethod
    def c1() -> "CurveClass":
        return CurveClass("c1")

    @staticmethod
    def polygon(angles) -> "CurveClass":
        return CurveClass("polygon", tuple(float(a) for a in angles))

    @staticmethod
    def from_curve(curve: Curve) -> "CurveClass":
        if len(curve.corners) == 0:
            return CurveClass.c1()
        return CurveClass.polygon(interior_angles(curve))


@dataclass
class ClassificationResult:
    verdict: str  # "SelfAdjoint" | "Unknown"
    certificate: str | None
    evidence: dict
    notes: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "certificate": self.certificate,
            "evidence": self.evidence,
            "notes": list(self.notes),
        }


def _exact_strength(coupling: Coupling) -> Fraction:
    return Fraction(coupling.eps) ** 2 - Fraction(coupling.mu) ** 2


def classify(curve_class: CurveClass, coupling: Coupling) -> ClassificationResult:
    """Apply the sufficient conditions in order of generality.

    1. |eps| <= |mu|: self-adjoint on any Lipschitz curve.
    2. C^1-smooth curves: self-adjoint iff-condition eps^2 - mu^2 != 4.
    3. Polygons: self-adjoint when eps^2 - mu^2 < 1/m(omega) or > 16 m(omega);
       the upper branch goes through the unitary coupling reduction.
    Equalities at the thresholds return Unknown (the conditions are strict).
    """
    eps, mu = coupling.eps, coupling.mu
    d = coupling.strength
    d_exact = _exact_strength(coupling)
    evidence: dict = {"strength": d}
    notes: list = []

    if coupling.is_critical:
        cert = CERT_CRITICAL
        if eps == 0.0 and mu == 0.0:
            notes.append("free operator: eps = mu = 0, no shell interaction")
        return ClassificationResult("SelfAdjoint", cert, evidence, notes)
    if abs(eps) < abs(mu):
        return ClassificationResult("SelfAdjoint", CERT_DOMINATED, evidence, notes)

    cls = curve_class
    if cls.kind == "polygon" and len(cls.angles) == 0:
        notes.append("polygon without corners reclassified as C1-smooth")
        cls = CurveClass.c1()

    if cls.kind == "c1":
        evidence["threshold"] = 4.0
        if d_exact == 4:
            notes.append("strength equals the smooth-curve threshold 4")
            return ClassificationResult("Unknown", None, evidence, notes)
        if abs(d - 4.0) < _BORDERLINE:
            notes.append("borderline: strength within 1e-12 of threshold 4")
        return ClassificationResult("SelfAdjoint", CERT_C1, evidence, notes)

    if cls.kind == "polygon":
        omega, m_omega = cls.omega, cls.m_omega
        lower = 1.0 / m_omega
        upper = 16.0 * m_omega
        evidence.update({
            "omega": omega,
            "m_omega": m_omega,
            "threshold_lower": lower,
            "threshold_upper": upper,
        })
        corollaries = []
        if d < 2.0:
            corollaries.append(CERT_COR_A)
        if d > 8.0:
            corollaries.append(CERT_COR_B)
        if d_exact != 4 and all(
                math.pi / 2 <= th <= 3 * math.pi / 2 for th in cls.angles):
            corollaries.append(CERT_COR_C)
        evidence["corollaries"] = corollaries
        for thr in (lower, upper):
            if abs(d - thr) < _BORDERLINE and d != thr:
                notes.append(f"borderline: strength within 1e-12 of threshold {thr!r}")
        evidence["fredholm"] = bool(d < lower)
        if d < lower:
            return ClassificationResult("SelfAdjoint", CERT_POLYGON_LOWER, evidence, notes)
        if d > upper:
            notes.append(f"upper branch via {CERT_REDUCTION}: "
                         "partner coupling strength 16/strength is below 1/m(omega)")
            notes.append("fredholm=false, self_adjoint=true: boundary operator "
                         "is not Fredholm on the upper branch")
            return ClassificationResult("SelfAdjoint", CERT_POLYGON_UPPER, evidence, notes)
        return ClassificationResult("Unknown", None, evidence, notes)

    # general Lipschitz with |eps| > |mu|: no applicable condition
    return ClassificationResult("Unknown", None, evidence, notes)


def reduced_coupling(coupling: Coupling) -> Coupling:
    """The unitary-equivalence partner (-4 eps/d, -4 mu/d), d = eps^2 - mu^2."""
    d = coupling.strength
    if d == 0.0:
        raise DomainError("reduction undefined at |eps| = |mu|")
    return Coupling(-4.0 * coupling.eps / d, -4.0 * coupling.mu / d, coupling.mass)
