import builtins
import sys
import tracemalloc

import numpy as np
import pytest

from diracshell import boundary_ops as bo
from diracshell import geometry as geo
from diracshell import kernels as K
from diracshell import spectral as sp
from diracshell.errors import (
    CriticalCouplingError,
    DomainError,
    PointOnCurveError,
    SpectralParameterError,
)
from diracshell.kernels import Coupling

COUP = Coupling(1.0, 0.0, 1.0)


def test_cauchy_residue_oracle_modes(circle_grid_256):
    a = bo.assemble_cauchy(circle_grid_256)
    th = circle_grid_256.param
    for n, lam in ((0, 0.5), (1, 0.5), (3, 0.5), (-1, -0.5), (-3, -0.5)):
        g = np.exp(1j * n * th)
        assert np.max(np.abs(a @ g - lam * g)) < 1e-8


def test_cauchy_polynomial_oracle_on_square(square_curve):
    g = geo.discretize(square_curve, 32, 3.0)
    a = bo.assemble_cauchy(g)
    y = g.zc
    for k in (0, 1, 3):
        assert np.max(np.abs(a @ y**k - 0.5 * y**k)) < 1e-7
    w = 0.1 + 0.05j  # pole inside: density analytic outside, decaying
    ge = 1.0 / (y - w)
    assert np.max(np.abs(a @ ge + 0.5 * ge)) < 1e-3


def test_cm_block_structure(circle_grid_256):
    cm = bo.assemble_Cm(circle_grid_256)
    n = circle_grid_256.n_nodes
    b12 = cm[:n, n:]
    assert np.max(np.abs(cm[:n, :n])) == 0.0
    assert np.max(np.abs(cm[n:, n:])) == 0.0
    assert bo.hermitian_defect(cm) < 1e-8
    one = np.ones(circle_grid_256.n_nodes)
    th = circle_grid_256.param
    # upper-right block applied to 1 equals C(conj(t)) = (i/2) e^{-i th}
    assert np.max(np.abs(b12 @ one - 0.5j * np.exp(-1j * th))) < 1e-8


def test_cz_minus_cm_compactness_proxy(circle_grid_128, circle_grid_256):
    svs = []
    for g in (circle_grid_128, circle_grid_256):
        diff = bo.assemble_Cz(g, 0.0, COUP) - bo.assemble_Cm(g)
        svs.append(np.linalg.norm(diff, 2))
    assert abs(svs[1] - svs[0]) / svs[0] < 0.05


@pytest.mark.parametrize("spec, nodes", [(geo.circle(1.0), 128),
                                         (geo.square(1.0), 16),
                                         (geo.l_shape(1.0), 16)])
def test_cz_lower_block_equals_explicit_assembly(spec, nodes):
    # reference: each block in the writer's expression order on full
    # matrices, the lower off-diagonal block from its own kernel,
    # i (1/2pi) [kappa I1(kappa r) log r + b_K1(r)] dx/r; assemble_Cz
    # derives it from the upper block instead
    grid = geo.discretize(geo.build_curve(spec), nodes)
    z, mass = 0.3, COUP.mass
    kappa = bo.K.gap_kappa(z, mass)
    pref = 1.0 / (2 * np.pi)
    dx = grid.zc[:, None] - grid.zc[None, :]
    r = np.abs(dx)
    np.fill_diagonal(r, 1.0)
    log_w, w = bo.grid_tables(grid).log_weights, grid.weights[None, :]
    i0, b0 = bo.K.b_k0(r, kappa, np.log(r))
    s_mat = b0 * w
    s_mat -= i0 * log_w
    s_mat *= pref
    np.fill_diagonal(s_mat, (bo.K.b_k0_at_zero(kappa) * grid.weights
                             - np.diagonal(log_w)) / (2 * np.pi))
    i1, b1 = bo.K.b_k1(r, kappa, np.log(r))
    k1 = i1 * log_w
    k1 *= kappa
    k1 += b1 * w
    np.fill_diagonal(k1, 0.0)

    def off_block(conj):
        return (1j * pref * (conj(dx) / r)) * k1

    diff = np.block([[(mass + z) * s_mat, off_block(np.conj)],
                     [off_block(lambda d: d), (z - mass) * s_mat]])
    want = bo.assemble_Cm(grid) + diff
    want[grid.n_nodes:, :grid.n_nodes] += 0.0  # the writer's lower zero entries are +0.0
    got = bo.assemble_Cz(grid, z, COUP)
    assert got.tobytes() == want.tobytes()  # bitwise, signed zeros included


def _complex_cache_bytes(obj):
    if isinstance(obj, dict):
        return sum(_complex_cache_bytes(v) for v in obj.values())
    if isinstance(obj, tuple):
        return sum(_complex_cache_bytes(v) for v in obj)
    return obj.nbytes if np.iscomplexobj(obj) else 0


@pytest.mark.parametrize("spec, nodes", [(geo.circle(1.0), 128), (geo.square(1.0), 16)])
def test_grid_cache_holds_three_complex_matrices(spec, nodes):
    # after one sweep sample: the K1 phase, the Cauchy block and its
    # Hermitian half; the displacements and the Cauchy weights are not kept
    grid = geo.discretize(geo.build_curve(spec), nodes)
    sp._hermitian_eigs(grid, Coupling(3.0, 1.0, 1.0), 0.3)
    n = grid.n_nodes
    assert _complex_cache_bytes(grid.cache()) <= 3 * 16 * n * n


@pytest.mark.parametrize("spec, nodes", [(geo.circle(1.0), 128),
                                         (geo.square(1.0), 16),
                                         (geo.l_shape(1.0), 16)])
def test_cauchy_half_is_the_hermitian_half_of_the_explicit_blocks(spec, nodes):
    # the lower block assembled from its own kernel, L = t C_Sigma*: the
    # grid's Cauchy half is the Hermitian half (U + L^H)/2 of the two blocks
    grid = geo.discretize(geo.build_curve(spec), nodes)
    a = bo.assemble_cauchy(grid)
    upper = a * np.conj(grid.tc)[None, :]
    lower = -np.conj(a) * grid.tc[None, :]
    tables = bo.grid_tables(grid)
    assert "cauchy_lower" not in bo.GridTables._fields
    assert np.array_equal(tables.cauchy_upper, upper)
    assert np.array_equal(tables.cauchy_half, 0.5 * (upper + lower.conj().T))


@pytest.mark.parametrize("spec, nodes", [(geo.circle(1.0), 64),
                                         (geo.square(1.0), 16),
                                         (geo.l_shape(1.0), 16)])
def test_pair_tables_hold_each_pair_and_its_transpose(spec, nodes):
    # the operator's weights on the pair i < j and on its transpose, two
    # rows; the Hermitian part's are their half sums, one row
    grid = geo.discretize(geo.build_curve(spec), nodes)
    tables = bo.grid_tables(grid)
    upper, log_w = tables.upper, tables.log_weights
    rows, cols = np.nonzero(upper)
    assert np.array_equal(tables.l_pairs, np.stack([log_w[upper], log_w.T[upper]]))
    assert np.array_equal(tables.w_pairs, np.stack([grid.weights[cols], grid.weights[rows]]))
    assert tables.l_sym.shape == tables.w_sym.shape == (1, len(rows))
    assert np.array_equal(tables.l_sym, 0.5 * (tables.l_pairs[:1] + tables.l_pairs[1:]))
    assert np.array_equal(tables.w_sym, 0.5 * (tables.w_pairs[:1] + tables.w_pairs[1:]))


@pytest.mark.parametrize("spec, nodes", [(geo.circle(1.0), 64), (geo.square(1.0), 16)])
def test_grid_tables_are_read_only(spec, nodes):
    grid = geo.discretize(geo.build_curve(spec), nodes)
    sp._hermitian_eigs(grid, Coupling(3.0, 1.0, 1.0), 0.3)
    tables = bo.grid_tables(grid)
    assert len(grid.cache()) == 1 and next(iter(grid.cache().values())) is tables
    arrays = [a for a in tables if isinstance(a, np.ndarray)]
    assert len(arrays) == len(tables) - 1  # every table but the diameter
    assert not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("spec", [geo.square(1.0), geo.rounded_square(1.0, 0.15)])
def test_cauchy_self_panel_rows_equal_the_per_row_rule(spec, monkeypatch):
    # the self-panel block of each panel, against the rule applied row by row;
    # the principal-value moments are taken once per abscissa, not per row
    grid = geo.discretize(geo.build_curve(spec), 16)
    calls = []
    moments = bo.cauchy_moments
    monkeypatch.setattr(bo, "cauchy_moments",
                        lambda *a: calls.append(a[2]) or moments(*a))
    table = bo.cauchy_weight_table(grid)
    assert calls.count(True) == geo.PANEL_ORDER
    snod = bo.gauss_legendre(geo.PANEL_ORDER)[0]
    for p in grid.panels:
        sl = slice(p.start, p.stop)
        dyds, ynod = grid.dy_dparam[sl], grid.zc[sl]
        for i, s0 in enumerate(snod):
            vt = bo.product_weights(moments(s0, geo.PANEL_ORDER, True), geo.PANEL_ORDER)
            ratio = np.empty(geo.PANEL_ORDER, dtype=complex)
            off = np.arange(geo.PANEL_ORDER) != i
            ratio[off] = (snod - s0)[off] / (ynod - ynod[i])[off]
            ratio[i] = 1.0 / dyds[i]
            assert table[p.start + i, sl].tobytes() == (vt * dyds * ratio).tobytes()


def test_log_weight_table_built_once_per_grid(monkeypatch):
    grid = geo.discretize(geo.build_curve(geo.square(1.0)), 16)
    calls = []
    moments = bo.log_moments
    monkeypatch.setattr(bo, "log_moments", lambda *a: calls.append(a) or moments(*a))
    bo.assemble_Cz(grid, 0.1, COUP)
    first = len(calls)
    bo.assemble_Cz(grid, 0.4, COUP)
    assert first > 0
    assert len(calls) == first  # the second z reuses the table
    table = bo.grid_tables(grid).log_weights
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0.0


def test_kernel_values_refuse_kappa_diameter_beyond_the_log_split():
    # kappa = 1 at z = 0, m = 1: a radius-10 circle (kappa diam = 20) is
    # beyond what the log split resolves, a radius-1 circle (2) is not
    big, unit = (geo.discretize(geo.build_curve(geo.circle(r)), 64) for r in (10.0, 1.0))
    with pytest.raises(DomainError):
        bo.kernel_values(big, 0.0, 1.0)
    with pytest.raises(DomainError):
        bo.assemble_Sz(big, 0.0, COUP)
    assert np.isfinite(bo.kernel_values(unit, 0.0, 1.0).b_k1).all()


def test_cz_near_gap_edge(circle_grid_128):
    cz = bo.assemble_Cz(circle_grid_128, 0.999, COUP)
    assert bo.hermitian_defect(cz) < 1e-8


def test_cz_rejects_z_outside_gap(circle_grid_128):
    with pytest.raises(SpectralParameterError):
        bo.assemble_Cz(circle_grid_128, 1.0, COUP)


def test_theta_free_coupling_is_identity(circle_grid_128):
    th = bo.assemble_theta(circle_grid_128, 0.2, Coupling(0.0, 0.0, 1.0))
    assert np.array_equal(th, np.eye(2 * circle_grid_128.n_nodes, dtype=complex))


def test_theta_block_pattern(circle_grid_128):
    c = Coupling(2.0, 0.5, 1.0)
    th = bo.assemble_theta(circle_grid_128, 0.2, c)
    cz = bo.assemble_Cz(circle_grid_128, 0.2, c)
    n = circle_grid_128.n_nodes
    want = np.eye(2 * n) + bo.coupling_diagonal(c, n)[:, None] * cz
    assert np.array_equal(th, want)


def test_theta_critical_coupling_touches_first_row_only(circle_grid_128):
    c = Coupling(1.5, 1.5, 1.0)
    th = bo.assemble_theta(circle_grid_128, 0.1, c)
    cz = bo.assemble_Cz(circle_grid_128, 0.1, c)
    n = circle_grid_128.n_nodes
    pattern = np.zeros_like(th)
    pattern[:n, :] = 2 * 1.5 * cz[:n, :]
    assert np.array_equal(th, np.eye(2 * n) + pattern)


def test_lambda_explicit_form(circle_grid_128):
    c = Coupling(2.0, 0.0, 1.0)
    lam = bo.assemble_lambda(circle_grid_128, 0.2, c)
    cz = bo.assemble_Cz(circle_grid_128, 0.2, c)
    n = circle_grid_128.n_nodes
    assert np.max(np.abs(lam - (0.5 * np.eye(2 * n) + cz))) < 1e-15


def test_lambda_coupling_identity(circle_grid_128):
    c = Coupling(3.0, 1.0, 1.0)
    lam = bo.assemble_lambda(circle_grid_128, 0.2, c)
    th = bo.assemble_theta(circle_grid_128, 0.2, c)
    d = bo.coupling_diagonal(c, circle_grid_128.n_nodes)
    assert np.max(np.abs(d[:, None] * lam - th)) < 1e-13


def test_lambda_hermitian_on_circle(circle_grid_128):
    lam = bo.assemble_lambda(circle_grid_128, 0.5, Coupling(3.0, 1.0, 1.0))
    assert bo.hermitian_defect(lam) < 1e-10


def test_lambda_critical_coupling_error(circle_grid_128):
    with pytest.raises(CriticalCouplingError):
        bo.assemble_lambda(circle_grid_128, 0.2, Coupling(1.0, -1.0, 1.0))


def test_gamma_structure_and_bounds(circle_grid_256):
    n = circle_grid_256.n_nodes
    g0 = bo.assemble_gamma(circle_grid_256, Coupling(1.5, 0.0, 1.0))
    assert np.max(np.abs(g0[:n, :n])) == 0.0 and np.max(np.abs(g0[n:, n:])) == 0.0

    c = Coupling(1.0, 2.0, 1.0)
    gam = bo.assemble_gamma(circle_grid_256, c)
    lam_m = bo.assemble_lambda(circle_grid_256, c.mass, c)
    assert np.max(np.abs(c.strength * lam_m - (c.eps * np.eye(2 * n) + gam))) < 1e-13
    h = 0.5 * (gam + gam.conj().T)
    ev = np.linalg.eigvalsh(h)
    assert np.min(np.abs(ev)) >= abs(c.mu) - 1e-3
    ev2 = np.linalg.eigvalsh(h @ h)
    assert ev2.min() >= c.mu**2 - 1e-3


def test_sz_symmetry_decay_and_block_identity(circle_grid_256):
    z = 0.3
    s = bo.assemble_Sz(circle_grid_256, z, COUP)
    assert np.max(np.abs(s - s.T)) < 1e-12
    # Hilbert-Schmidt proxy: the circle singular values are the Bessel
    # products I_n K_n ~ 1/(2n), so the N/4-th is ~2/N of the largest
    import mpmath as mp
    kappa = np.sqrt(1.0 - z * z)
    sv = np.linalg.svd(s, compute_uv=False)
    n = circle_grid_256.n_nodes
    assert sv[n // 4] / sv[0] < 10.0 / n
    k_quarter = n // 8  # sorted index n//4 pairs +-mode n//8
    want = float(mp.besseli(k_quarter, kappa) * mp.besselk(k_quarter, kappa))
    assert sv[n // 4] == pytest.approx(want, rel=1e-6)
    assert float(np.sum(sv**2)) < np.inf
    cz = bo.assemble_Cz(circle_grid_256, z, COUP)
    assert np.max(np.abs(cz[:n, :n] - (z + 1.0) * s)) < 1e-12


def test_critical_theta_factorization(circle_grid_128):
    # Theta_z P+ = 2 eps P+ lambda_z with lambda_z = 1/(2 eps) + (z+m) S_z
    eps = 1.3
    c = Coupling(eps, eps, 1.0)
    z = 0.25
    th = bo.assemble_theta(circle_grid_128, z, c)
    s = bo.assemble_Sz(circle_grid_128, z, c)
    n = circle_grid_128.n_nodes
    lam_scalar = np.eye(n) / (2 * eps) + (z + 1.0) * s
    theta_p = th[:n, :n], th[n:, :n]
    assert np.max(np.abs(theta_p[0] - 2 * eps * lam_scalar)) < 1e-12
    # lower spinor row of Theta P+ vanishes for eps = mu
    assert np.max(np.abs(theta_p[1])) < 1e-12


def test_resolvent_cancellation(circle_grid_256):
    c = Coupling(3.0, 1.0, 1.0)
    z = 0.3
    n = circle_grid_256.n_nodes
    cz = bo.assemble_Cz(circle_grid_256, z, c)
    lam = bo.assemble_lambda(circle_grid_256, z, c)
    inv, cond = bo.lu_solve_with_cond(lam, np.eye(2 * n, dtype=complex))
    d = bo.coupling_diagonal(c, n)
    e = d[:, None] * (np.eye(2 * n) - cz @ inv) - inv
    assert np.max(np.abs(e)) <= 1e-9 * cond


def test_c1_compactness_proxy_on_ellipse():
    c = geo.build_curve(geo.ellipse(2.0, 1.0))
    g = geo.discretize(c, 256)
    a = bo.assemble_cauchy(g)
    sv = np.linalg.svd(a - a.conj().T, compute_uv=False)
    assert sv[g.n_nodes // 4] < 1e-3 * sv[0]


def test_potential_zero_density(circle_grid_128):
    pts = np.array([[0.2, 0.1], [3.0, 0.0]])
    vals, flags = bo.evaluate_potential(circle_grid_128, np.zeros((2, 128)), 0.3,
                                        COUP, pts)
    assert np.max(np.abs(vals)) == 0.0
    assert not flags.any()


def test_potential_point_on_curve(circle_grid_128):
    with pytest.raises(PointOnCurveError):
        bo.evaluate_potential(circle_grid_128, np.ones((2, 128)), 0.3, COUP,
                              circle_grid_128.nodes[3])


def test_jump_relations(circle_grid_256):
    g = circle_grid_256
    z = 0.5
    dens = sp._smooth_test_density(g, 7)
    h = 1e-3
    vin, fin = bo.evaluate_potential(g, dens, z, COUP, g.nodes - h * g.normals)
    vout, fout = bo.evaluate_potential(g, dens, z, COUP, g.nodes + h * g.normals)
    assert not fin.any() and not fout.any()
    snu_g = np.stack([np.conj(g.nc) * dens[1], g.nc * dens[0]])
    want_jump = -1j * snu_g
    assert (np.linalg.norm(vin - vout - want_jump) / np.linalg.norm(want_jump)) < 1e-2
    cz = bo.assemble_Cz(g, z, COUP)
    czg = (cz @ dens.reshape(-1)).reshape(2, -1)
    want_in = -0.5j * snu_g + czg
    want_out = +0.5j * snu_g + czg
    assert (np.linalg.norm(vin - want_in) / np.linalg.norm(want_in)) < 2e-2
    assert (np.linalg.norm(vout - want_out) / np.linalg.norm(want_out)) < 2e-2


def _explicit_potential(points, srcs, weights, g2, z, coupling):
    """sum_j phi_z(p - y_j) g_j w_j from the full 2x2 kernel matrices."""
    phi = K.phi_z(points[:, None, :] - srcs[None, :, :], z, coupling)
    return np.einsum("mnab,bn->am", phi, g2 * weights)


def _off_curve(grid, offset, step):
    """Points at +-offset along the normal from every step-th node."""
    nodes, normals = grid.nodes[::step], grid.normals[::step]
    return np.concatenate([nodes - offset * normals, nodes + offset * normals])


@pytest.mark.parametrize("spec, nodes", [(geo.circle(1.0), 128), (geo.square(1.0), 16)])
def test_potential_equals_explicit_sum(spec, nodes):
    grid = geo.discretize(geo.build_curve(spec), nodes)
    c, z = Coupling(3.0, 1.0, 1.0), 0.3
    rng = np.random.default_rng(5)
    g2 = (rng.normal(size=(grid.n_nodes, 2)) + 1j * rng.normal(size=(grid.n_nodes, 2))).T
    # on the circle, points 0.6 off are far (ten mesh widths are 0.49) and
    # take the coarse rule; points 0.01 off are near and take the upsampled
    # rule with 8 / 0.01 = 800 sources wanted, so 128 nodes times 8.  Panel
    # grids evaluate every point by the coarse rule.
    far = np.concatenate([_off_curve(grid, 0.6, 8), [[0.05, -0.1], [2.5, 1.0]]])
    near = _off_curve(grid, 0.01, 8)
    vals, flags = bo.evaluate_potential(grid, g2, z, c, np.concatenate([far, near]))
    want_far = _explicit_potential(far, grid.nodes, grid.weights, g2, z, c)
    if grid.kind == "trapezoid":
        # the trigonometric interpolant of the density, summed mode by mode
        # (the Nyquist mode as a cosine), at the nodes of the 8 N grid
        fine = geo.discretize(grid.curve, 8 * grid.n_nodes)
        k = np.fft.fftfreq(grid.n_nodes, 1.0 / grid.n_nodes)
        modes = np.exp(1j * k[:, None] * fine.param[None, :])
        modes[grid.n_nodes // 2] = np.cos(grid.n_nodes // 2 * fine.param)
        g_up = (np.fft.fft(g2) / grid.n_nodes) @ modes
        want_near = _explicit_potential(near, fine.nodes, fine.weights, g_up, z, c)
        assert not flags.any()
    else:
        want_near = _explicit_potential(near, grid.nodes, grid.weights, g2, z, c)
    want = np.concatenate([want_far, want_near], axis=1)
    assert np.max(np.abs(vals - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("radius", [0.1, 10.0])
def test_near_curve_potential_is_scale_covariant(radius):
    # Phi_z scales like 1/R and the weights like R when the curve, the points,
    # 1/mass and 1/z all scale by R: the values at points 1e-3 R off a circle
    # of radius R are those on the unit circle, so the upsampling must resolve
    # the same relative distance at every R
    def values(r):
        grid = geo.discretize(geo.build_curve(geo.circle(r)), 256)
        dens = sp._smooth_test_density(grid, 7)
        pts = grid.nodes[::16] + 1e-3 * r * grid.normals[::16]
        vals, flags = bo.evaluate_potential(grid, dens, 0.3 / r, Coupling(3.0, 1.0, 1.0 / r), pts)
        assert not flags.any()
        return vals

    want = values(1.0)
    assert np.max(np.abs(values(radius) - want)) <= 1e-10 * np.max(np.abs(want))


def test_potential_reads_a_density_in_any_memory_order():
    # the flat (2N,) density, its C-ordered (2, N) form and the transpose of
    # a C-ordered (N, 2) copy (a Fortran-ordered (2, N) array) give bitwise
    # the same values, on the coarse and the upsampled rule; an (N, 2)
    # array, which reshapes to (2, N) with its components mixed, is refused
    grid = geo.discretize(geo.build_curve(geo.circle(1.0)), 64)
    dens = sp._smooth_test_density(grid, 7)
    pts = np.concatenate([_off_curve(grid, 0.6, 8), _off_curve(grid, 0.01, 8)])
    want, _ = bo.evaluate_potential(grid, dens.reshape(-1), 0.3, COUP, pts)
    for layout in (dens, dens.T.copy().T):
        got, _ = bo.evaluate_potential(grid, layout, 0.3, COUP, pts)
        assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        bo.evaluate_potential(grid, dens.T, 0.3, COUP, pts)


def test_potential_near_curve_peak_memory(circle_grid_256):
    # 256 points 1e-3 off the circle take the upsampled rule with 8192
    # sources: 2M point-source pairs, contracted in bounded chunks
    g = circle_grid_256
    dens = sp._smooth_test_density(g, 7)
    pts = g.nodes + 1e-3 * g.normals
    tracemalloc.start()
    try:
        _, flags = bo.evaluate_potential(g, dens, 0.3, COUP, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not flags.any()
    assert peak < 32 * 2**20


def test_potential_memory_does_not_grow_with_the_points(circle_grid_256):
    # far points on a radius-3 circle: the near/far classification takes the
    # row chunks of the fields, so 8192 points peak as 1024 do
    g = circle_grid_256
    dens = sp._smooth_test_density(g, 7)
    peaks = []
    for m in (1024, 8192):
        t = 2 * np.pi * np.arange(m) / m
        pts = 3.0 * np.stack([np.cos(t), np.sin(t)], axis=-1)
        tracemalloc.start()
        try:
            _, flags = bo.evaluate_potential(g, dens, 0.3, COUP, pts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert not flags.any()
    assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.parametrize("workers", [2, 4])
def test_pooled_potential_matches_one_worker(circle_grid_256, monkeypatch, workers):
    # the near-curve case above: the pool fills disjoint rows of each
    # chunk's fields, and the products still take whole chunks, so the
    # values are bitwise those of one worker, within the same memory bound
    g = circle_grid_256
    dens = sp._smooth_test_density(g, 7)
    pts = g.nodes + 1e-3 * g.normals
    monkeypatch.setattr(bo, "_openblas_thread_setters", lambda: [])
    want, _ = bo.evaluate_potential(g, dens, 0.3, COUP, pts)
    monkeypatch.setattr(bo, "_openblas_thread_setters", lambda: [lambda n: workers])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    tracemalloc.start()
    try:
        got, flags = bo.evaluate_potential(g, dens, 0.3, COUP, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        sys.setswitchinterval(interval)
    assert not flags.any()
    assert np.array_equal(got, want)
    assert peak < 32 * 2**20


def test_potential_far_field_flagless(circle_grid_128):
    dens = sp._smooth_test_density(circle_grid_128, 7)
    pts = np.array([[2.5, 0.0], [0.0, 0.1]])
    _, flags = bo.evaluate_potential(circle_grid_128, dens, 0.2, COUP, pts)
    assert not flags.any()


@pytest.mark.parametrize("name", ["theta_from_cz", "lambda_from_cz"])
def test_theta_and_lambda_from_cz_allocate_one_matrix(circle_grid_256, name):
    # Theta_z and Lambda_z add a diagonal to (a scaled) C_z in place: no
    # full identity or diagonal matrix is allocated beside the result (a
    # real diagonal matrix alone would add half of cz.nbytes)
    c = Coupling(3.0, 1.0, 1.0)
    cz = bo.assemble_Cz(circle_grid_256, 0.3, c)
    assert cz.shape == (512, 512)
    tracemalloc.start()
    try:
        got = getattr(bo, name)(cz, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * cz.nbytes
    d = bo.coupling_diagonal(c, circle_grid_256.n_nodes)
    if name == "theta_from_cz":
        want = np.eye(512) + d[:, None] * cz
    else:
        want = np.diag(np.repeat([1 / (c.eps + c.mu), 1 / (c.eps - c.mu)], 256)) + cz
    assert np.array_equal(got, want)


def test_scalar_k0_matrix_is_written_into_its_kernel_values(circle_grid_256):
    # S_z is written from its kernel values on the pair tables, one
    # triangle at a time, so it holds about its kernel values, the kernel
    # on the pairs and the Bessel values of the upper triangle
    grid, z, mass = circle_grid_256, 0.3, 1.0
    bo.grid_tables(grid)  # per-grid tables, built once and kept
    tracemalloc.start()
    try:
        got = bo.assemble_Sz(grid, z, Coupling(1.0, 0.0, mass))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.shape == (256, 256)
    assert peak <= 4 * got.nbytes
    pref, kappa = 1.0 / (2 * np.pi), K.gap_kappa(z, mass)
    r = np.abs(grid.zc[:, None] - grid.zc[None, :])
    np.fill_diagonal(r, 1.0)
    i0, b = K.b_k0(r, kappa, np.log(r))
    log_w = bo.grid_tables(grid).log_weights
    want = b * grid.weights[None, :]
    want -= i0 * log_w
    want *= pref
    np.fill_diagonal(want, pref * (K.b_k0_at_zero(kappa) * grid.weights - np.diagonal(log_w)))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_solve_pool_lists_the_blas_libraries_once(monkeypatch):
    # /proc/self/maps is read and each OpenBLAS library opened once per
    # process, not on every entry of the pool
    reads = []
    real_open = builtins.open

    def counting_open(path, *args, **kwargs):
        if path == "/proc/self/maps":
            reads.append(path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    bo._openblas_thread_setters.cache_clear()
    for _ in range(2):
        with bo.solve_pool() as solve_map:
            assert list(solve_map(abs, [-1, 2])) == [1, 2]
    assert len(reads) == 1


def test_potential_with_every_point_near_makes_no_empty_coarse_pass(circle_grid_256,
                                                                    monkeypatch):
    # points 1e-3 off the circle are all near: only the upsampled rule runs
    g = circle_grid_256
    dens = sp._smooth_test_density(g, 7)
    pts = g.nodes + 1e-3 * g.normals
    want, _ = bo.evaluate_potential(g, dens, 0.3, COUP, pts)
    sizes = []
    apply = bo._phi_z_apply
    monkeypatch.setattr(bo, "_phi_z_apply",
                        lambda points, *a: sizes.append(len(points)) or apply(points, *a))
    got, _ = bo.evaluate_potential(g, dens, 0.3, COUP, pts)
    assert sizes == [len(pts)]
    assert np.array_equal(got, want)


def test_cz_blocks_hold_the_blocks_and_one_complex_matrix(circle_grid_256):
    # each block is written in place into the one 2N x 2N matrix from the
    # kernel values: the peak is that matrix plus one complex N x N temporary
    grid, c = circle_grid_256, Coupling(3.0, 1.0, 1.0)
    bo.grid_tables(grid)
    values = bo.kernel_values(grid, 0.3, c.mass)
    tracemalloc.start()
    try:
        cz = bo.cz_blocks(grid, c, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = grid.n_nodes
    assert cz.shape == (2 * n, 2 * n) and cz.nbytes == 4 * 16 * n * n
    assert peak <= cz.nbytes + 16 * n * n
