import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from diracshell import geometry as geo
from diracshell.errors import (
    CuspError,
    EmptyCorners,
    InvalidRefinement,
    OpenCurveError,
    SelfIntersectionError,
)
from diracshell.quadrature import gauss_legendre

# closed-form perimeters of the presets, independent of any quadrature
PERIMETER_CIRCLE = 2 * math.pi
PERIMETER_SQUARE = 4.0
PERIMETER_L_SHAPE = 8.0
PERIMETER_ROUNDED_SQUARE = 4 * (1.0 - 0.3) + 0.3 * math.pi  # rounded_square(1, 0.15)
PERIMETER_ELLIPSE = 16 * scipy.special.ellipe(15 / 16)  # ellipse(4, 1)


def _perimeter(curve, nodes=64):
    return geo.discretize(curve, nodes).weights.sum()


def test_circle_build(circle_curve):
    assert len(circle_curve.corners) == 0
    assert _perimeter(circle_curve) == pytest.approx(PERIMETER_CIRCLE, abs=1e-10)
    assert circle_curve.is_single_smooth


def test_square_build(square_curve):
    assert len(square_curve.corners) == 4
    assert np.allclose(geo.interior_angles(square_curve), math.pi / 2)
    assert _perimeter(square_curve) == pytest.approx(PERIMETER_SQUARE, abs=1e-12)


def test_regular_polygon_square_equivalent():
    c = geo.build_curve(geo.regular_polygon(4, 1.0 / math.sqrt(2.0)))
    assert len(c.corners) == 4
    assert np.allclose(geo.interior_angles(c), math.pi / 2)
    assert _perimeter(c) == pytest.approx(PERIMETER_SQUARE, abs=1e-12)


def test_l_shape_angles():
    c = geo.build_curve(geo.l_shape(1.0))
    th = np.sort(geo.interior_angles(c))
    assert len(th) == 6
    assert np.allclose(th[:5], math.pi / 2)
    assert th[5] == pytest.approx(3 * math.pi / 2, abs=1e-12)


def test_circle_grid_is_equispaced(circle_curve):
    g = geo.discretize(circle_curve, 64)
    want = np.stack([np.cos(2 * np.pi * np.arange(64) / 64),
                     np.sin(2 * np.pi * np.arange(64) / 64)], axis=-1)
    assert np.max(np.abs(g.nodes - want)) < 1e-14
    assert np.allclose(g.weights, 2 * np.pi / 64)


def test_square_grid_counts_and_perimeter(square_curve):
    g = geo.discretize(square_curve, 32, 3.0)
    assert g.n_nodes == 128
    assert g.weights.sum() == pytest.approx(4.0, abs=1e-8)
    assert np.all(g.weights > 0)
    # corners never collide with nodes
    vertices = np.array([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
    corner_distance = np.linalg.norm(g.nodes[:, None, :] - vertices[None, :, :], axis=-1)
    assert corner_distance.min() > 1e-4


def test_square_grading_follows_cubic_law(square_curve):
    g = geo.discretize(square_curve, 32, 3.0)
    # breakpoints of the 4 panels on each edge follow t -> t^3 toward corners
    panels = [p for p in g.panels if p.edge_id == 0]
    bps = sorted({p.t_a for p in panels} | {p.t_b for p in panels})
    assert bps == pytest.approx([0.0, 0.5 * 0.5**3, 0.5, 1.0 - 0.5 * 0.5**3, 1.0])


def test_grid_frames(square_curve, circle_curve):
    for g in (geo.discretize(square_curve, 16), geo.discretize(circle_curve, 32)):
        # paper convention: tau = (-nu2, nu1) exactly
        assert np.array_equal(g.tangents,
                              np.stack([-g.normals[:, 1], g.normals[:, 0]], axis=-1))
        dots = np.einsum("ij,ij->i", g.tangents, g.normals)
        assert np.max(np.abs(dots)) < 1e-15


def test_circle_normal_points_outward(circle_curve):
    g = geo.discretize(circle_curve, 16)
    assert np.allclose(g.normals, g.nodes, atol=1e-13)  # radially outward


def test_interior_angle_examples(circle_curve, square_curve):
    assert geo.interior_angles(circle_curve).size == 0
    assert np.allclose(geo.interior_angles(square_curve), math.pi / 2)


def test_sharpest_angle():
    assert geo.sharpest_angle([math.pi / 2] * 4) == pytest.approx(math.pi / 2)
    assert geo.sharpest_angle([3 * math.pi / 2]) == pytest.approx(math.pi / 2)
    assert geo.sharpest_angle([0.3 * math.pi, 1.4 * math.pi]) == pytest.approx(0.3 * math.pi)
    with pytest.raises(EmptyCorners):
        geo.sharpest_angle([])


def test_refinement_convergence_of_perimeter():
    presets = [(geo.circle(1.0), PERIMETER_CIRCLE),
               (geo.ellipse(4.0, 1.0), PERIMETER_ELLIPSE),
               (geo.square(1.0), PERIMETER_SQUARE),
               (geo.l_shape(1.0), PERIMETER_L_SHAPE),
               (geo.rounded_square(1.0, 0.15), PERIMETER_ROUNDED_SQUARE)]
    for spec, length in presets:
        c = geo.build_curve(spec)
        errs = []
        for n in (64, 128, 256):
            g = geo.discretize(c, n)
            errs.append(abs(g.weights.sum() - length))
        floor = 64 * np.finfo(float).eps * length
        assert errs[1] <= errs[0] + floor
        assert errs[2] <= errs[1] + floor


@settings(max_examples=30, deadline=None)
@given(st.floats(-math.pi, math.pi), st.floats(-5, 5), st.floats(-5, 5),
       st.floats(0.1, 10.0))
def test_interior_angles_rigid_motion_invariant(rot, tx, ty, scale):
    base = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
    r = np.array([[math.cos(rot), -math.sin(rot)], [math.sin(rot), math.cos(rot)]])
    moved = [scale * r @ np.array(v) + np.array([tx, ty]) for v in base]
    c0 = geo.build_curve(geo.polygon_from_vertices(base))
    c1 = geo.build_curve(geo.polygon_from_vertices(moved))
    assert np.max(np.abs(geo.interior_angles(c0) - geo.interior_angles(c1))) < 1e-12


def test_orientation_normalized():
    # clockwise input gets reversed to anticlockwise
    cw = geo.polygon_from_vertices([(0, 0), (0, 1), (1, 1), (1, 0)])
    c = geo.build_curve(cw)
    assert c.signed_area > 0
    assert np.allclose(geo.interior_angles(c), math.pi / 2)


def test_orientation_needs_one_area_pass(monkeypatch):
    # the area of the reversed chain is the negative of the clockwise one,
    # so build_curve integrates it once
    calls = []
    area = geo._signed_area
    monkeypatch.setattr(geo, "_signed_area", lambda edges: calls.append(1) or area(edges))
    cw = geo.polygon_from_vertices([(0, 0), (0, 1), (1, 1), (1, 0)])
    c = geo.build_curve(cw)
    assert len(calls) == 1
    assert c.signed_area == pytest.approx(1.0, abs=1e-14)
    assert area(c.edges) == pytest.approx(c.signed_area, abs=1e-14)  # anticlockwise


def test_open_curve_error():
    e1 = geo.line_edge((0, 0), (1, 0))
    e2 = geo.line_edge((1, 0.5), (0, 0))  # gap at (1, 0)
    with pytest.raises(OpenCurveError):
        geo.build_curve(geo.CurveSpec((e1, e2)))


def test_cusp_error():
    # two arches over [0,1] meeting tangentially at (1,0): a cusp, but the
    # arcs stay apart so the self-intersection check is not triggered
    e1 = geo.Edge("poly", (0.0, 1.0), (0.0, 0.5, -0.5))  # y = 0.5 t (1-t)
    e2 = geo.Edge("poly", (1.0, -1.0), (0.0, 0.5, 1.5, -2.0))  # higher arch, back
    with pytest.raises(CuspError):
        geo.build_curve(geo.CurveSpec((e1, e2)))


def test_self_intersection_error():
    for vertices in (
        [(0, 0), (1, 1), (1, 0), (0, 1)],  # bowtie
        # crossings between the edge samples
        [(0, 0), (2, 1), (2, 0), (0, 1.3)],
        # crossings (2, 0) and (0.5, 0) at samples of one edge that lie on another
        [(0, 0), (3, 0), (3, 1), (1, -1), (0, 1)],
    ):
        with pytest.raises(SelfIntersectionError):
            geo.build_curve(geo.polygon_from_vertices(vertices))


def test_invalid_refinement(circle_curve, square_curve):
    with pytest.raises(InvalidRefinement):
        geo.discretize(circle_curve, 63)  # odd
    for n in (6, 8, 12):  # too few nodes, refused before any operator is built
        with pytest.raises(InvalidRefinement, match=f"at least 16 nodes; nodes_per_edge = {n} "):
            geo.discretize(circle_curve, n)
    assert geo.discretize(circle_curve, 16).n_nodes == 16
    # a one-edge panel curve (a lens with one corner): 8 per edge, rounded up
    # to whole 8-node panels, makes 8 nodes; 9 makes 16
    lens = geo.build_curve(geo.CurveSpec((geo.Edge("poly", (0.0, 1.0, -1.0),
                                                   (0.0, -1.0, 3.0, -2.0)),)))
    assert len(lens.corners) == 1 and not lens.is_single_smooth
    with pytest.raises(InvalidRefinement, match="nodes_per_edge = 8 gives 8$"):
        geo.discretize(lens, 8)
    assert geo.discretize(lens, 9).n_nodes == 16
    # four edges of one panel each: 32 nodes, the grid of 8 per edge
    assert (geo.discretize(square_curve, 1).nodes.tobytes()
            == geo.discretize(square_curve, 8).nodes.tobytes())
    with pytest.raises(InvalidRefinement):
        geo.discretize(square_curve, 0)
    with pytest.raises(InvalidRefinement):
        geo.discretize(square_curve, 16, 0.5)  # grading below 1


def _outward(grid):
    """Each node's normal points away from the centre of a curve symmetric
    about the origin, convex, so into Omega_-."""
    return np.all(np.sum(grid.normals * grid.nodes, axis=1) > 0)


def _mirrored(spec):
    """The curve reflected in the x axis, so traversed clockwise."""
    edges = []
    for e in spec.edges:
        if e.kind == "arc":
            edges.append(geo.ArcEdge((e.center[0], -e.center[1]), e.radius, -e.phi0, -e.phi1))
        else:
            edges.append(geo.Edge(e.kind, e.xc, tuple(-c for c in e.yc), e.xs,
                                  tuple(-c for c in e.ys)))
    return geo.CurveSpec(tuple(edges))


@pytest.mark.parametrize("spec", [geo.circle(1.0), geo.rounded_square(1.0, 0.2)],
                         ids=["circle", "rounded-square"])
def test_clockwise_trig_and_arc_curves_are_turned_anticlockwise(spec):
    # a clockwise circle is the anticlockwise one with xs and ys negated
    clockwise = _mirrored(spec)
    assert geo._signed_area(clockwise.edges) < 0
    want, got = geo.build_curve(spec), geo.build_curve(clockwise)
    assert got.signed_area > 0
    assert got.signed_area == pytest.approx(want.signed_area, rel=1e-13)
    assert len(got.corners) == len(want.corners)
    grid = geo.discretize(got, 64)
    assert _outward(grid) and _outward(geo.discretize(want, 64))
    assert grid.weights.sum() == pytest.approx(geo.discretize(want, 64).weights.sum(), rel=1e-13)


def test_one_sided_grading_crowds_panels_toward_the_sharp_end_only():
    # the unit square with its corner at (0.5, 0.5) rounded: the edges either
    # side of the arc have a corner at one end only
    h, r = 0.5, 0.2
    spec = geo.CurveSpec((
        geo.line_edge((-h, -h), (h, -h)),
        geo.line_edge((h, -h), (h, h - r)),
        geo.ArcEdge((h - r, h - r), r, 0.0, 0.5 * math.pi),
        geo.line_edge((h - r, h), (-h, h)),
        geo.line_edge((-h, h), (-h, -h)),
    ))
    curve = geo.build_curve(spec)
    assert sorted((c.edge_in, c.edge_out) for c in curve.corners) == [(0, 1), (3, 4), (4, 0)]
    grid = geo.discretize(curve, 32)
    widths = {ei: np.array([p.t_b - p.t_a for p in grid.panels if p.edge_id == ei])
              for ei in range(5)}
    assert np.all(np.diff(widths[1]) > 0)  # corner at its start only
    assert np.all(np.diff(widths[3]) < 0)  # corner at its end only
    assert widths[1] == pytest.approx(widths[3][::-1], rel=1e-14)
    assert widths[2] == pytest.approx(np.full(4, 0.25), rel=1e-14)  # no corner
    assert widths[0] == pytest.approx(widths[0][::-1], rel=1e-14)  # both ends
    assert widths[0][0] < widths[0][1]


def test_rounded_square_is_smooth():
    c = geo.build_curve(geo.rounded_square(1.0, 0.15))
    assert len(c.corners) == 0
    assert _perimeter(c) == pytest.approx(PERIMETER_ROUNDED_SQUARE, abs=1e-10)


def test_grid_immutability(circle_curve):
    g = geo.discretize(circle_curve, 32)
    with pytest.raises(ValueError):
        g.nodes[0, 0] = 5.0


def _panel_grid_by_loop(curve, nodes_per_edge, q=3.0):
    """The panel rule built one panel at a time: the reference for the
    per-edge evaluation in discretize."""
    sgl, wgl = gauss_legendre(geo.PANEL_ORDER)
    n_pan = int(np.ceil(nodes_per_edge / geo.PANEL_ORDER))
    ends_in = {c.edge_in for c in curve.corners}
    ends_out = {c.edge_out for c in curve.corners}
    nodes, weights, tangents, normals, dyds_all, panels = [], [], [], [], [], []
    for ei, edge in enumerate(curve.edges):
        u = geo._grade_breakpoints(n_pan, q, ei in ends_out, ei in ends_in)
        for p in range(n_pan):
            ta, tb = u[p], u[p + 1]
            t = ta + (tb - ta) * 0.5 * (sgl + 1.0)
            vel = edge.velocity(t)
            dyds = (vel[:, 0] + 1j * vel[:, 1]) * 0.5 * (tb - ta)
            speed = np.abs(dyds)
            tang = np.stack([dyds.real, dyds.imag], axis=-1) / speed[:, None]
            pa, pb = edge.point(np.array(ta)), edge.point(np.array(tb))
            start = len(panels) * geo.PANEL_ORDER
            panels.append(geo.Panel(start, start + geo.PANEL_ORDER, ei, ta, tb,
                                    complex(pa[0], pa[1]), complex(pb[0], pb[1]),
                                    edge.is_straight))
            nodes.append(edge.point(t))
            weights.append(wgl * speed)
            tangents.append(tang)
            normals.append(np.stack([tang[:, 1], -tang[:, 0]], axis=-1))
            dyds_all.append(dyds)
    return ([np.concatenate(a) for a in (nodes, weights, tangents, normals, dyds_all)],
            tuple(panels))


@pytest.mark.parametrize("spec", [geo.square(2.0), geo.l_shape(1.0),
                                  geo.rounded_square(1.0, 0.15), geo.regular_polygon(3),
                                  geo.rounded_polygon(5, 1.0, 0.2)])
@pytest.mark.parametrize("nodes", [16, 20, 64])
def test_panel_grid_equals_the_per_panel_rule(spec, nodes):
    curve = geo.build_curve(spec)
    grid = geo.discretize(curve, nodes)
    arrays, panels = _panel_grid_by_loop(curve, nodes)
    got = (grid.nodes, grid.weights, grid.tangents, grid.normals, grid.dy_dparam)
    for a, b in zip(got, arrays):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert grid.panels == panels
