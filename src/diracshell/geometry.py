"""Closed curvilinear polygons and corner-graded quadrature grids.

A curve is an ordered chain of smooth parametric arcs (polynomial or
trigonometric in the arc parameter t in [0, 1]) that closes up.  Orientation
is normalized to anticlockwise, so the bounded component Omega_+ lies on the
left of the direction of travel.  Frames follow the convention

    nu = unit normal pointing into the unbounded component Omega_-,
    tau = (-nu_2, nu_1)  (the direction of travel).

Each Corner records its interior angle and the two edges that meet there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CuspError,
    DomainError,
    EmptyCorners,
    InvalidRefinement,
    OpenCurveError,
    SelfIntersectionError,
)
from .quadrature import gauss_legendre

_ANGLE_TOL = 1e-9
_CLOSURE_TOL = 1e-12
PANEL_ORDER = 8  # Gauss-Legendre nodes per panel
MIN_NODES = 16  # the fewest nodes of a grid the boundary operators take


@dataclass(frozen=True)
class Edge:
    """One smooth parametric arc t in [0,1] -> R^2.

    kind 'poly':  x(t) = sum_k xc[k] t^k               (same for y)
    kind 'trig':  x(t) = sum_k xc[k] cos(2 pi k t) + sum_k xs[k-1] sin(2 pi k t)
    """

    kind: str
    xc: tuple
    yc: tuple
    xs: tuple = ()
    ys: tuple = ()

    def point(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "poly":
            x = np.polynomial.polynomial.polyval(t, self.xc)
            y = np.polynomial.polynomial.polyval(t, self.yc)
        else:
            x = np.zeros_like(t) + self.xc[0]
            y = np.zeros_like(t) + self.yc[0]
            for k in range(1, len(self.xc)):
                x = x + self.xc[k] * np.cos(2 * np.pi * k * t)
                y = y + self.yc[k] * np.cos(2 * np.pi * k * t)
            for k, (cx, cy) in enumerate(zip(self.xs, self.ys), start=1):
                x = x + cx * np.sin(2 * np.pi * k * t)
                y = y + cy * np.sin(2 * np.pi * k * t)
        return np.stack([x, y], axis=-1)

    def velocity(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "poly":
            dxc = np.polynomial.polynomial.polyder(self.xc)
            dyc = np.polynomial.polynomial.polyder(self.yc)
            x = np.polynomial.polynomial.polyval(t, dxc)
            y = np.polynomial.polynomial.polyval(t, dyc)
        else:
            x = np.zeros_like(t)
            y = np.zeros_like(t)
            for k in range(1, len(self.xc)):
                w = 2 * np.pi * k
                x = x - self.xc[k] * w * np.sin(w * t)
                y = y - self.yc[k] * w * np.sin(w * t)
            for k, (cx, cy) in enumerate(zip(self.xs, self.ys), start=1):
                w = 2 * np.pi * k
                x = x + cx * w * np.cos(w * t)
                y = y + cy * w * np.cos(w * t)
        return np.stack([x, y], axis=-1)

    def reversed_(self) -> "Edge":
        if self.kind == "poly":
            p = np.polynomial.Polynomial
            flip = p([1.0, -1.0])
            xc = tuple(p(list(self.xc))(flip).coef)
            yc = tuple(p(list(self.yc))(flip).coef)
            return Edge("poly", xc, yc)
        xs = tuple(-c for c in self.xs)
        ys = tuple(-c for c in self.ys)
        return Edge("trig", self.xc, self.yc, xs, ys)

    @property
    def is_straight(self) -> bool:
        return self.kind == "poly" and len(self.xc) <= 2 and len(self.yc) <= 2


def line_edge(p0, p1) -> Edge:
    return Edge("poly", (float(p0[0]), float(p1[0] - p0[0])),
                (float(p0[1]), float(p1[1] - p0[1])))


@dataclass(frozen=True)
class ArcEdge:
    """Circular arc, angle phi0 -> phi1 around center; duck-types Edge."""

    center: tuple
    radius: float
    phi0: float
    phi1: float
    kind: str = "arc"

    def point(self, t):
        t = np.asarray(t, dtype=float)
        ph = self.phi0 + (self.phi1 - self.phi0) * t
        return np.stack([self.center[0] + self.radius * np.cos(ph),
                         self.center[1] + self.radius * np.sin(ph)], axis=-1)

    def velocity(self, t):
        t = np.asarray(t, dtype=float)
        dph = self.phi1 - self.phi0
        ph = self.phi0 + dph * t
        return np.stack([-self.radius * dph * np.sin(ph),
                         self.radius * dph * np.cos(ph)], axis=-1)

    def reversed_(self) -> "ArcEdge":
        return ArcEdge(self.center, self.radius, self.phi1, self.phi0)

    @property
    def is_straight(self) -> bool:
        return False


@dataclass(frozen=True)
class CurveSpec:
    """Raw edge chain; validated and normalized by build_curve."""

    edges: tuple


@dataclass(frozen=True)
class Corner:
    theta: float  # interior angle in (0, 2pi) \ {pi}, measured inside Omega_+
    edge_in: int
    edge_out: int


@dataclass(frozen=True)
class Curve:
    edges: tuple
    corners: tuple
    signed_area: float

    @property
    def is_single_smooth(self) -> bool:
        return len(self.edges) == 1 and len(self.corners) == 0


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def circle(radius: float = 1.0, center=(0.0, 0.0)) -> CurveSpec:
    e = Edge("trig", (center[0], radius), (center[1], 0.0), (0.0,), (radius,))
    return CurveSpec((e,))


def ellipse(a: float, b: float, center=(0.0, 0.0)) -> CurveSpec:
    e = Edge("trig", (center[0], a), (center[1], 0.0), (0.0,), (b,))
    return CurveSpec((e,))


def polygon_from_vertices(vertices) -> CurveSpec:
    pts = [np.asarray(v, dtype=float) for v in vertices]
    edges = tuple(line_edge(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts)))
    return CurveSpec(edges)


def regular_polygon(k: int, circumradius: float = 1.0) -> CurveSpec:
    ang = 2 * np.pi * np.arange(k) / k
    verts = np.stack([circumradius * np.cos(ang), circumradius * np.sin(ang)], axis=-1)
    return polygon_from_vertices(verts)


def square(side: float = 1.0) -> CurveSpec:
    h = 0.5 * side
    return polygon_from_vertices([(-h, -h), (h, -h), (h, h), (-h, h)])


def l_shape(scale: float = 1.0) -> CurveSpec:
    s = scale
    verts = [(0, 0), (2 * s, 0), (2 * s, s), (s, s), (s, 2 * s), (0, 2 * s)]
    return polygon_from_vertices(verts)


def rounded_polygon(k: int, circumradius: float = 1.0, radius: float = 0.2) -> CurveSpec:
    """Regular polygon with corners replaced by tangent circular arcs (C^1)."""
    ang = 2 * np.pi * np.arange(k) / k
    verts = np.stack([circumradius * np.cos(ang), circumradius * np.sin(ang)], axis=-1)
    theta = np.pi * (k - 2) / k  # interior angle
    setback = radius / np.tan(theta / 2)
    side = 2 * circumradius * np.sin(np.pi / k)
    if setback >= side / 2:
        raise DomainError(f"rounding radius {radius} too large for this polygon")
    edges = []
    for j in range(k):
        a = verts[j]
        b = verts[(j + 1) % k]
        d = (b - a) / np.linalg.norm(b - a)
        edges.append(line_edge(a + setback * d, b - setback * d))
        # arc around vertex b
        c = verts[(j + 1) % k]
        bis = -c / np.linalg.norm(c)  # inward bisector for a regular polygon
        centre = c + bis * (radius / np.sin(theta / 2))
        p_in = c - setback * d  # arc start: end of this line
        e = (verts[(j + 2) % k] - c) / np.linalg.norm(verts[(j + 2) % k] - c)
        p_out = c + setback * e  # arc end: start of next line
        phi0 = math.atan2(p_in[1] - centre[1], p_in[0] - centre[0])
        phi1 = math.atan2(p_out[1] - centre[1], p_out[0] - centre[0])
        while phi1 <= phi0:  # anticlockwise sweep
            phi1 += 2 * np.pi
        edges.append(ArcEdge((centre[0], centre[1]), radius, phi0, phi1))
    return CurveSpec(tuple(edges))


def rounded_square(side: float = 1.0, radius: float = 0.2) -> CurveSpec:
    return rounded_polygon(4, side / np.sqrt(2.0), radius)


PRESETS = {
    "circle": circle,
    "ellipse": ellipse,
    "square": square,
    "regular_polygon": regular_polygon,
    "l_shape": l_shape,
    "rounded_square": rounded_square,
    "rounded_polygon": rounded_polygon,
}


# ---------------------------------------------------------------------------
# curve construction
# ---------------------------------------------------------------------------


def _signed_area(edges) -> float:
    s, w = gauss_legendre(96)
    t = 0.5 * (s + 1.0)
    total = 0.0
    for e in edges:
        p = e.point(t)
        v = e.velocity(t)
        total += 0.25 * np.sum(w * (p[..., 0] * v[..., 1] - p[..., 1] * v[..., 0]))
    return float(total)


def _unit(v):
    return v / np.linalg.norm(v)


def _segments_meet(p, q):
    """(K, L) mask of the closed segments p_k p_(k+1) and q_l q_(l+1) of two
    polylines that meet, touching included: each has its ends on both sides
    of, or on, the other's line, and (which decides collinear ones) their
    bounding boxes overlap."""
    def straddles(p, q):  # (K, L): segment l of q against the line of segment k of p
        a, u = p[:-1, None], p[1:, None] - p[:-1, None]
        side = u[..., 0] * (q[:, 1] - a[..., 1]) - u[..., 1] * (q[:, 0] - a[..., 0])
        return side[:, :-1] * side[:, 1:] <= 0
    lo_p, hi_p = np.minimum(p[:-1], p[1:])[:, None], np.maximum(p[:-1], p[1:])[:, None]
    lo_q, hi_q = np.minimum(q[:-1], q[1:]), np.maximum(q[:-1], q[1:])
    return (straddles(p, q) & straddles(q, p).T
            & np.all((hi_p >= lo_q) & (hi_q >= lo_p), axis=-1))


def _check_self_intersection(edges, scale):
    """Refuse two arcs whose samples come within 1e-9 scale of each other
    away from a shared junction, or whose sampled polylines meet, so that a
    crossing between samples is refused too.  Segments that share a sample
    (neighbours along one arc, the two at a junction) are not compared."""
    t = np.linspace(0.0, 1.0, 65)
    samples = [e.point(t) for e in edges]
    lo = [p.min(axis=0) - 1e-9 * scale for p in samples]
    hi = [p.max(axis=0) for p in samples]
    ne = len(edges)
    for i in range(ne):
        for j in range(i, ne):
            if np.any(lo[i] > hi[j]) or np.any(lo[j] > hi[i]):
                continue  # bounding boxes apart
            pi, pj = samples[i], samples[j]
            d = np.linalg.norm(pi[:, None, :] - pj[None, :, :], axis=-1)
            meet = _segments_meet(pi, pj)
            if i == j:  # parametrically close pairs on the same arc
                idx = np.abs(np.arange(65)[:, None] - np.arange(65)[None, :])
                if ne == 1:  # a closed arc: sample 64 is sample 0
                    idx = np.minimum(idx, 64 - idx)
                mask = idx > 8
                meet &= idx[:-1, :-1] > 1
            else:  # the neighbourhood of a shared junction
                mask = np.ones_like(d, dtype=bool)
                if j == i + 1:
                    mask[-9:, :9] = meet[-1, 0] = False
                if i == 0 and j == ne - 1:
                    mask[:9, -9:] = meet[0, -1] = False
            if np.any(d[mask] < 1e-9 * scale) or np.any(meet):
                raise SelfIntersectionError("arc approaches itself" if i == j
                                            else f"arcs {i} and {j} intersect")


def build_curve(spec: CurveSpec) -> Curve:
    """Validate a CurveSpec and produce a normalized anticlockwise Curve.

    Raises OpenCurveError / CuspError / SelfIntersectionError per the
    corresponding invariant violation.  Junctions with a straight-through
    tangent (interior angle pi within tolerance) are treated as smooth and
    produce no corner.
    """
    edges = list(spec.edges)
    if not edges:
        raise OpenCurveError("curve has no edges")
    pts = np.concatenate([e.point(np.array([0.0, 1.0])) for e in edges])
    scale = max(1.0, float(np.max(np.abs(pts))))
    for i, e in enumerate(edges):
        p_end = e.point(np.array(1.0))
        nxt = edges[(i + 1) % len(edges)]
        p_start = nxt.point(np.array(0.0))
        if np.linalg.norm(p_end - p_start) > _CLOSURE_TOL * scale * 10:
            raise OpenCurveError(
                f"edge {i} ends at {p_end} but edge {(i + 1) % len(edges)} starts at {p_start}")

    area = _signed_area(edges)
    if area < 0:
        edges = [e.reversed_() for e in reversed(edges)]
        area = -area

    _check_self_intersection(edges, scale)

    corners = []
    ne = len(edges)
    for j in range(ne):
        prev = edges[j - 1]
        nxt = edges[j]
        u = _unit(prev.velocity(np.array(1.0)))
        v = _unit(nxt.velocity(np.array(0.0)))
        cross = u[0] * v[1] - u[1] * v[0]
        dot = float(np.dot(u, v))
        delta = math.atan2(cross, dot)
        if abs(delta) <= _ANGLE_TOL:
            continue  # smooth junction
        if math.pi - abs(delta) <= _ANGLE_TOL:
            raise CuspError(f"cusp at junction {j}: tangents anti-parallel")
        theta = math.pi - delta
        corners.append(Corner(theta=theta, edge_in=(j - 1) % ne, edge_out=j))

    return Curve(tuple(edges), tuple(corners), area)


def interior_angles(curve: Curve) -> np.ndarray:
    """Interior angles theta_j (inside Omega_+), one per corner."""
    return np.array([c.theta for c in curve.corners])


def sharpest_angle(angles) -> float:
    """omega = min_j min(theta_j, 2 pi - theta_j), in (0, pi)."""
    angles = np.asarray(angles, dtype=float)
    if angles.size == 0:
        raise EmptyCorners("curve has no corners")
    return float(np.min(np.minimum(angles, 2 * np.pi - angles)))


# ---------------------------------------------------------------------------
# quadrature grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Panel:
    start: int  # node index range [start, stop)
    stop: int
    edge_id: int
    t_a: float  # edge-parameter endpoints
    t_b: float
    za: complex  # physical endpoints
    zb: complex
    straight: bool


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Nystrom grid on the curve: nodes, arclength weights and frames.

    kind 'trapezoid': equispaced-in-parameter periodic rule on a single
    smooth closed arc (N even).  kind 'panel': per-edge composite
    Gauss-Legendre panels, graded toward adjacent corners.
    """

    kind: str
    curve: Curve
    nodes: np.ndarray  # (N, 2)
    weights: np.ndarray  # (N,) arclength weights
    tangents: np.ndarray  # (N, 2), tau = (-nu2, nu1)
    normals: np.ndarray  # (N, 2), pointing into Omega_-
    panels: tuple  # Panel tuple, empty on trapezoid grids
    param: np.ndarray  # (N,) trapezoid angle theta in [0, 2pi); empty otherwise
    dy_dparam: np.ndarray  # complex velocity dz/dtheta (trapezoid) or dz/ds (panel)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def zc(self) -> np.ndarray:
        return self.nodes[:, 0] + 1j * self.nodes[:, 1]

    @property
    def tc(self) -> np.ndarray:
        return self.tangents[:, 0] + 1j * self.tangents[:, 1]

    @property
    def nc(self) -> np.ndarray:
        return self.normals[:, 0] + 1j * self.normals[:, 1]

    # z-independent tables, filled by the operator builders on first use
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    def cache(self) -> dict:
        return self._tables


def _freeze(arr):
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _grade_breakpoints(n_panels: int, q: float, corner_at_start: bool, corner_at_end: bool):
    s = np.linspace(0.0, 1.0, n_panels + 1)
    if corner_at_start and corner_at_end:
        u = np.where(s <= 0.5, 0.5 * (2 * s) ** q, 1.0 - 0.5 * (2 * (1 - s)) ** q)
    elif corner_at_start:
        u = s**q
    elif corner_at_end:
        u = 1.0 - (1.0 - s) ** q
    else:
        u = s
    u[0], u[-1] = 0.0, 1.0
    return u


def discretize(curve: Curve, nodes_per_edge: int, grading_exponent: float = 3.0) -> QuadratureGrid:
    """Build the quadrature grid; see class docstring for the two flavours.
    A single smooth arc gets ``nodes_per_edge`` nodes, each edge of any
    other curve that many rounded up to whole panels; a grid of fewer than
    MIN_NODES nodes is refused."""
    n_pan = math.ceil(nodes_per_edge / PANEL_ORDER)
    n = nodes_per_edge if curve.is_single_smooth else len(curve.edges) * n_pan * PANEL_ORDER
    if n < MIN_NODES:
        raise InvalidRefinement(f"a grid needs at least {MIN_NODES} nodes; "
                                f"nodes_per_edge = {nodes_per_edge} gives {n}")
    if grading_exponent < 1.0:
        raise InvalidRefinement("grading_exponent must be >= 1")

    if curve.is_single_smooth:
        if n % 2:
            raise InvalidRefinement(
                "smooth closed curves require even N (alternate-point rule)")
        edge = curve.edges[0]
        t = np.arange(n) / n
        pos = edge.point(t)
        vel = edge.velocity(t)
        speed = np.linalg.norm(vel, axis=-1)
        tang = vel / speed[:, None]
        norm = np.stack([tang[:, 1], -tang[:, 0]], axis=-1)
        weights = speed / n
        dy_dparam = (vel[:, 0] + 1j * vel[:, 1]) / (2 * np.pi)
        return QuadratureGrid(
            kind="trapezoid", curve=curve,
            nodes=_freeze(pos), weights=_freeze(weights),
            tangents=_freeze(tang), normals=_freeze(norm),
            panels=(),
            param=_freeze(2 * np.pi * t),
            dy_dparam=_freeze(dy_dparam),
        )

    # panel flavour
    sgl, wgl = gauss_legendre(PANEL_ORDER)
    corner_edges_in = {c.edge_in for c in curve.corners}
    corner_edges_out = {c.edge_out for c in curve.corners}
    nodes, dyds_all, panels = [], [], []
    for ei, edge in enumerate(curve.edges):
        u = _grade_breakpoints(n_pan, grading_exponent,
                               ei in corner_edges_out, ei in corner_edges_in)
        ta, tb = u[:-1, None], u[1:, None]
        t = ta + ((tb - ta) * 0.5) * (sgl + 1.0)  # (n_pan, PANEL_ORDER)
        vel = edge.velocity(t)
        nodes.append(edge.point(t).reshape(-1, 2))
        dyds_all.append((((vel[..., 0] + 1j * vel[..., 1]) * 0.5) * (tb - ta)).ravel())
        zu = edge.point(u)
        start = len(panels) * PANEL_ORDER
        panels.extend(
            Panel(start + p * PANEL_ORDER, start + (p + 1) * PANEL_ORDER, ei, u[p], u[p + 1],
                  complex(zu[p, 0], zu[p, 1]), complex(zu[p + 1, 0], zu[p + 1, 1]),
                  edge.is_straight)
            for p in range(n_pan))
    dyds = np.concatenate(dyds_all)
    speed = np.abs(dyds)
    tang = np.stack([dyds.real, dyds.imag], axis=-1) / speed[:, None]
    return QuadratureGrid(
        kind="panel", curve=curve,
        nodes=_freeze(np.concatenate(nodes)), weights=_freeze(np.tile(wgl, len(panels)) * speed),
        tangents=_freeze(tang), normals=_freeze(np.stack([tang[:, 1], -tang[:, 0]], axis=-1)),
        panels=tuple(panels),
        param=_freeze(np.zeros(0)),
        dy_dparam=_freeze(dyds),
    )
