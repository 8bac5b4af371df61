"""Nystrom assembly of the boundary integral operators and layer potentials.

Every operator is returned as its dense matrix.  Scalar operators act on
discretized densities sampled at the grid nodes; spinor operators act on
C^2-valued densities stored component by component: entry k*N + i is
component k at node i, so block (k, j) of a spinor operator is
[k*N:(k+1)*N, j*N:(j+1)*N] and a density reshapes to (2, N).
Principal values use the alternate-point trapezoid rule on smooth closed
curves and Legendre product integration on panels; logarithmic kernels use
the periodic circulant log rule (smooth curves) or a parameter-space log
split on the singular panel.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
from scipy.special import erf

from . import kernels as K
from .errors import CriticalCouplingError, DomainError, PointOnCurveError
from .geometry import PANEL_ORDER, QuadratureGrid, discretize
from .kernels import Coupling
from .quadrature import (
    cauchy_moments,
    gauss_legendre,
    kress_log_weights,
    log_moments,
    product_weights,
)

_NEAR_SCALED = 1.5  # panel product integration radius, in scaled coordinates
_POTENTIAL_PAIRS = 1 << 18  # point-source pairs per chunk: 2 MB per real field
_FIELD_PAIRS = 1 << 13  # pairs per solve-pool task; worker temporaries stay resident
_TABLES_LOCK = threading.Lock()  # held to build a grid's tables
# the near-curve window chi (``_window``), in coarse spacings of the trapezoid
# parameter: erfc(5.9) = 7e-17 is what chi leaves past the cut and what 1 - chi
# leaves at the centre
_WINDOW_SIGMA = 2.0  # width of chi's erf edges
_WINDOW_CORE = 5.9 * _WINDOW_SIGMA  # chi's half-width a
_WINDOW_CUT = _WINDOW_CORE + 5.9 * _WINDOW_SIGMA  # chi's share is summed where |tau| <= cut
_WINDOW_ALIAS = 1e-15  # the largest aliasing bound of the coarse share, relative, that takes it
KAPPA_DIAM_MAX = 16.0  # kappa times the node diameter the log split resolves to 1e-9


def coupling_diagonal(coupling: Coupling, n: int) -> np.ndarray:
    """(eps sigma_0 + mu sigma_3) as a (2N,) diagonal."""
    return np.repeat(coupling.diagonal, n)


def _off_diagonal(upper, lower) -> np.ndarray:
    """The 2N x 2N complex matrix [[0, upper], [lower, 0]] of N x N blocks."""
    n = len(upper)
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, n:] = upper
    out[n:, :n] = lower
    return out


def sigma_nu_matrix(grid: QuadratureGrid) -> np.ndarray:
    """Multiplication operator by sigma . nu(x)."""
    return _off_diagonal(np.diag(np.conj(grid.nc)), np.diag(grid.nc))


@functools.cache
def _openblas_thread_setters() -> tuple:
    """``openblas_set_num_threads_local`` of each OpenBLAS library loaded in
    this process (numpy and scipy each bring one), looked up once per
    process.  Empty where there is none with that symbol: another BLAS,
    OpenBLAS before 0.3.27, or no /proc/self/maps to list the libraries (not
    Linux)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({fields[5].rstrip("\n")
                            for fields in (line.split(maxsplit=5) for line in fh)
                            if len(fields) == 6 and "openblas" in fields[5]})
    except OSError:
        return ()
    setters = []
    for path in paths:
        try:
            set_threads = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = ctypes.c_int
        setters.append(set_threads)
    return tuple(setters)


@contextlib.contextmanager
def solve_pool():
    """A ``map`` over independent tasks that spend their time in native code
    that releases the interpreter lock (eigensolves, Bessel ufuncs): one
    worker per BLAS thread the process allows, every BLAS pool at one thread
    until the block exits.

    ``openblas_set_num_threads_local`` returns the previous count; in the
    OpenBLAS builds numpy and scipy ship it sets the count of the whole
    process, so each library gets its count back on exit, also after an
    error.  Without such a library the map is the builtin one, on one
    worker.
    """
    setters = _openblas_thread_setters()
    previous = []
    try:
        for set_threads in setters:
            previous.append(set_threads(1))
        workers = max(previous, default=1)
        if workers <= 1:
            yield map
        else:
            with ThreadPoolExecutor(workers) as pool:
                yield pool.map
    finally:
        for set_threads, count in zip(setters, previous):
            set_threads(count)


# ---------------------------------------------------------------------------
# per-grid tables
# ---------------------------------------------------------------------------


class GridTables(NamedTuple):
    """The z-independent tables of one grid (``grid_tables``), read-only.
    The node pairs are the strict upper triangle i < j, in row-major order."""

    upper: np.ndarray  # (N, N) boolean mask of the node pairs
    r: np.ndarray  # R = |x_i - x_j| on the pairs
    log_r: np.ndarray  # log R on the pairs
    diameter: float  # the largest R
    log_weights: np.ndarray  # L, (N, N) (``log_weight_table``)
    l_pairs: np.ndarray  # (L_ij, L_ji) on the pairs, two rows
    w_pairs: np.ndarray  # (w_j, w_i) on the pairs, two rows
    l_sym: np.ndarray  # (L_ij + L_ji)/2 on the pairs, one row
    w_sym: np.ndarray  # (w_i + w_j)/2 on the pairs, one row
    k1_phase: np.ndarray  # (i/2pi) conj(x_i - x_j)/R, (N, N) complex, 0 on the diagonal
    cauchy_upper: np.ndarray  # U = C_Sigma t*, the upper off-diagonal block at z = m
    cauchy_half: np.ndarray  # (U - U^T)/2, the Hermitian half of the Cauchy blocks


def grid_tables(grid: QuadratureGrid) -> GridTables:
    """The grid's tables, built on first use under one lock, so that
    concurrent assemblies build them once, and kept as the only entry of
    ``grid.cache()``.  Pools call this on their calling thread first: built
    in a worker, among its per-z arrays, the tables raised the repeated
    ``eigs`` peak RSS by up to 6 MB (N=256 circle, 2 cores)."""
    cache = grid.cache()
    if "tables" not in cache:
        with _TABLES_LOCK:
            if "tables" not in cache:
                dx = grid.zc[:, None] - grid.zc[None, :]
                r = np.abs(dx)
                np.fill_diagonal(r, 1.0)  # masked; diagonal handled explicitly
                k1_phase = 1j * (1.0 / (2 * np.pi)) * (np.conj(dx) / r)
                upper = np.triu(np.ones(r.shape, dtype=bool), 1)
                r_upper = r[upper]
                log_weights = log_weight_table(grid, r)
                rows, cols = np.nonzero(upper)
                l_pairs = np.stack([log_weights[upper], log_weights.T[upper]])
                w_pairs = grid.weights[np.stack([cols, rows])]
                cauchy = assemble_cauchy(grid) * np.conj(grid.tc)[None, :]
                tables = GridTables(
                    upper, r_upper, np.log(r_upper), float(np.max(r_upper)), log_weights,
                    l_pairs, w_pairs, 0.5 * l_pairs.sum(axis=0, keepdims=True),
                    0.5 * w_pairs.sum(axis=0, keepdims=True), k1_phase,
                    cauchy, 0.5 * (cauchy - cauchy.T))
                for table in tables:
                    if isinstance(table, np.ndarray):
                        table.setflags(write=False)
                cache["tables"] = tables
    return cache["tables"]


# ---------------------------------------------------------------------------
# Cauchy transform
# ---------------------------------------------------------------------------


def cauchy_weight_table(grid: QuadratureGrid) -> np.ndarray:
    """Complex weights V with sum_j V[i,j] h(y_j) ~ pv int h(y)/(y - x_i) dy."""
    n = grid.n_nodes
    z = grid.zc
    dy = grid.weights * grid.tc  # complex line elements
    if grid.kind == "trapezoid":
        with np.errstate(divide="ignore", invalid="ignore"):
            V = 2.0 * dy[None, :] / (z[None, :] - z[:, None])
        parity = (np.arange(n)[:, None] - np.arange(n)[None, :]) % 2 == 1
        V = np.where(parity, V, 0.0)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            V = dy[None, :] / (z[None, :] - z[:, None])
        np.fill_diagonal(V, 0.0)
        snod = gauss_legendre(PANEL_ORDER)[0]  # the same abscissae on every panel
        # self-panel rows: parameter-space principal value, one product-weight
        # vector per abscissa, the same on every panel
        vself = np.array([product_weights(cauchy_moments(s0, PANEL_ORDER, True), PANEL_ORDER)
                          for s0 in snod])
        dsnod = snod[None, :] - snod[:, None]
        diag = np.diag_indices(PANEL_ORDER)
        for p in grid.panels:
            sl = slice(p.start, p.stop)
            mid = 0.5 * (p.za + p.zb)
            half = 0.5 * (p.zb - p.za)
            xhat = (z - mid) / half
            dyds = grid.dy_dparam[sl]
            ynod = z[sl]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = dsnod / (ynod[None, :] - ynod[:, None])
            ratio[diag] = 1.0 / dyds
            V[sl, sl] = vself * dyds * ratio
            if not p.straight:
                continue
            near = (np.abs(xhat) <= _NEAR_SCALED)
            near[sl] = False
            for row in np.nonzero(near)[0]:
                x0 = xhat[row]
                vt = product_weights(cauchy_moments(x0, PANEL_ORDER, False), PANEL_ORDER)
                num = snod - x0
                den = ynod - z[row]
                V[row, sl] = vt * dyds * num / den
    return V


def assemble_cauchy(grid: QuadratureGrid) -> np.ndarray:
    """C_Sigma g(x) = (i/2pi) pv int g(y)/(x - y) dy, complex line element dy.

    On a circle's trapezoid grid the alternate-point rule is exact at every
    even N: C e^{ik theta} = +1/2 e^{ik theta} for 0 <= k < N/2 and
    -1/2 e^{ik theta} for -N/2 <= k < 0, hence C^2 = I/4; on the computed
    matrix both hold to roundoff.
    """
    V = cauchy_weight_table(grid)
    return -(1j / (2 * np.pi)) * V


def assemble_Cm(grid: QuadratureGrid) -> np.ndarray:
    """The singular matrix operator at z = m: off-diagonal Cauchy blocks, the
    lower one minus the conjugate of the upper one."""
    upper = grid_tables(grid).cauchy_upper
    return _off_diagonal(upper, -np.conj(upper))


# ---------------------------------------------------------------------------
# logarithmic kernels
# ---------------------------------------------------------------------------


def log_weight_table(grid: QuadratureGrid, r: np.ndarray) -> np.ndarray:
    """Real weights L with sum_j L[i,j] a(y_j) ~ int a(y) log|x_i - y| ds(y),
    from the node distances r (1.0 on the diagonal).

    Trapezoid grids use the periodic circulant log rule on log(4 sin^2) plus
    the smooth remainder log(|x - y| / 2|sin|); panel grids use the plain
    rule off the own panel and a parameter-space log split on it (the same
    eight product-weight vectors on every panel, whose Gauss nodes agree).
    """
    n = grid.n_nodes
    if grid.kind == "trapezoid":
        sp = np.abs(grid.dy_dparam)  # |dz/dtheta|
        th = grid.param
        c = kress_log_weights(n)
        KW = c[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]
        with np.errstate(divide="ignore", invalid="ignore"):
            sin2 = 2.0 * np.abs(np.sin(0.5 * (th[:, None] - th[None, :])))
            logpsi = np.log(r / sin2)
        logpsi[np.diag_indices(n)] = np.log(sp)
        L = (0.5 * KW + (2 * np.pi / n) * logpsi) * sp[None, :]
    else:
        L = np.log(r) * grid.weights[None, :]
        snod, _ = gauss_legendre(PANEL_ORDER)
        lw = np.array([product_weights(log_moments(s0, PANEL_ORDER), PANEL_ORDER)
                       for s0 in snod])
        dspar = np.abs(snod[:, None] - snod[None, :])
        np.fill_diagonal(dspar, 1.0)
        for p in grid.panels:
            sl = slice(p.start, p.stop)
            jac = np.abs(grid.dy_dparam[sl])
            logphi = np.log(r[sl, sl] / dspar)
            np.fill_diagonal(logphi, np.log(jac))
            L[sl, sl] = lw * jac + logphi * grid.weights[sl]
    return L


def log_kernel_matrix(grid, a, b) -> np.ndarray:
    """Nystrom matrix for kernel a(x,y) log|x-y| + b(x,y) against arclength.

    a and b are (N, N) kernel values at the node pairs, with their diagonal
    limits on the diagonal; both are overwritten, and a holds the result.
    The operators here are written by ``_per_z_matrix``; this general rule
    is for tests (and ``perfbench/tracer.py`` names it).
    """
    a *= grid_tables(grid).log_weights
    b *= grid.weights[None, :]
    a += b
    return a


class KernelValues(NamedTuple):
    """The Bessel factors of the log splits of K0 and kappa K1 - 1/r at one
    z, on the strict upper node pairs (row-major, as ``GridTables`` orders
    them); ``i1`` and ``b_k1`` are None where no K1 block is formed."""

    z: float
    kappa: float
    i0: np.ndarray
    b_k0: np.ndarray
    i1: np.ndarray | None
    b_k1: np.ndarray | None


def kernel_values(grid: QuadratureGrid, z: float, mass: float, k1: bool = True) -> KernelValues:
    """The per-z kernel values every matrix at z is formed from.  R is exactly
    symmetric, so each Bessel function is evaluated once per unordered node
    pair; the matrices formed from them only read them, so one set serves
    every matrix formed at z."""
    kappa = K.gap_kappa(z, mass)
    tables = grid_tables(grid)
    if kappa * tables.diameter > KAPPA_DIAM_MAX:  # beyond what the log split resolves
        raise DomainError(f"kappa diameter {kappa * tables.diameter:.4g} > {KAPPA_DIAM_MAX:g}")
    i0, b0 = K.b_k0(tables.r, kappa, tables.log_r)
    i1, b1 = K.b_k1(tables.r, kappa, tables.log_r) if k1 else (None, None)
    return KernelValues(z, kappa, i0, b0, i1, b1)


def _write_pairs(block, upper, coef, pairs, diagonal):
    """Write coef times a pair table into the N x N ``block``, its first row
    on the pairs i < j and its last on their transposes, then ``diagonal``."""
    tri = coef * pairs[0]
    block[upper] = tri
    if len(pairs) == 2:  # a one-row table's product serves both triangles
        np.multiply(coef, pairs[1], out=tri)
    block.T[upper] = tri
    np.fill_diagonal(block, diagonal)


def _per_z_matrix(grid, values: KernelValues, coefs, shifts, l, w, cauchy=None) -> np.ndarray:
    """Every matrix at z, from the kernel values at z, one block row per entry
    of ``coefs`` (real on one, complex on two): the diagonal blocks coef_k
    (1/2pi)(b_K0 w - I0 l) + shift_k I; on two, the upper block k1_phase
    (kappa I1 l + b_K1 w) + ``cauchy`` and the lower one 0 - conj(upper),
    whose zero entries are +0.0.  With the pair tables ``l_pairs``,
    ``w_pairs`` of ``GridTables`` these are the operator's blocks; with their
    one-row half sums ``l_sym``, ``w_sym``, its Hermitian part's."""
    n, tables = grid.n_nodes, grid_tables(grid)
    s = values.b_k0 * w
    s -= values.i0 * l
    s *= 1.0 / (2 * np.pi)
    s_diag = (K.b_k0_at_zero(values.kappa) * grid.weights
              - np.diagonal(tables.log_weights)) / (2 * np.pi)
    out = np.empty((len(coefs) * n,) * 2, dtype=complex if len(coefs) == 2 else float)
    for k, (coef, shift) in enumerate(zip(coefs, shifts)):
        _write_pairs(out[k * n:(k + 1) * n, k * n:(k + 1) * n], tables.upper, coef, s,
                     shift + coef * s_diag)
    del s
    if len(coefs) == 2:
        k1 = values.i1 * l
        k1 *= values.kappa
        for k1_row, w_row in zip(k1, w):  # one pair-sized temporary at a time
            k1_row += values.b_k1 * w_row
        top, bottom = out[:n, n:], out[n:, :n]
        _write_pairs(top, tables.upper, 1.0, k1, 0.0)
        top *= tables.k1_phase
        top += cauchy
        np.conjugate(top, out=bottom)
        np.subtract(0.0, bottom, out=bottom)
    return out


def _coefficients(z: float, mass: float, components) -> list:
    """The coefficient z + m of S_z on spinor component 0, z - m on 1."""
    return [z + mass if k == 0 else z - mass for k in components]


def assemble_Sz(grid: QuadratureGrid, z: float, coupling: Coupling) -> np.ndarray:
    """(S_z g)(x) = (1/2pi) int K0(kappa|x-y|) g(y) ds(y)."""
    tables = grid_tables(grid)
    return _per_z_matrix(grid, kernel_values(grid, z, coupling.mass, k1=False), (1.0,), (0.0,),
                         tables.l_pairs, tables.w_pairs)


def assemble_Cz(grid: QuadratureGrid, z: float, coupling: Coupling) -> np.ndarray:
    """Principal-value operator with the full gap kernel at real z, |z| < m."""
    return cz_blocks(grid, coupling, kernel_values(grid, z, coupling.mass))


def cz_blocks(grid: QuadratureGrid, coupling: Coupling, values: KernelValues,
              components=(0, 1)) -> np.ndarray:
    """The matrix of C_z at |z| < m among the given spinor components, from
    the kernel values at z: (z +- m) S_z, real, on one component; on both,
    the complex 2N x 2N matrix with the diagonal blocks (z + m) S_z and
    (z - m) S_z and the Cauchy plus K1 blocks off the diagonal."""
    tables = grid_tables(grid)
    return _per_z_matrix(grid, values, _coefficients(values.z, coupling.mass, components),
                         (0.0,) * len(components), tables.l_pairs, tables.w_pairs,
                         tables.cauchy_upper)


def hermitian_matrix(grid: QuadratureGrid, coupling: Coupling, values: KernelValues,
                     components=(0, 1)) -> np.ndarray:
    """The Hermitian part of diag(1/d_k) + C_z on the given spinor components,
    d_k = eps +- mu, written once from the kernel values at z, component by
    component (the rows and columns of the k-th given component are k N to
    (k+1) N - 1); real on one component.

    The kernel values are symmetric in the node pair, so the Hermitian part
    of a log-kernel block weighs them by the half sums ``l_sym``, ``w_sym``
    of the pair tables.  The K1 phase and the Cauchy half are antisymmetric,
    so minus the conjugate of the upper block is its conjugate transpose:
    the matrix is Hermitian bitwise.
    """
    tables = grid_tables(grid)
    return _per_z_matrix(grid, values, _coefficients(values.z, coupling.mass, components),
                         [1.0 / coupling.diagonal[k] for k in components],
                         tables.l_sym, tables.w_sym, tables.cauchy_half)


# ---------------------------------------------------------------------------
# derived operators
# ---------------------------------------------------------------------------


def _cz_or_cm(grid, z, coupling):
    if z == coupling.mass:
        return assemble_Cm(grid)
    return assemble_Cz(grid, z, coupling)


def theta_from_cz(cz: np.ndarray, coupling: Coupling) -> np.ndarray:
    """Matrix of Theta_z = I + (eps sigma_0 + mu sigma_3) C_z from that of C_z."""
    return theta_in_place(cz.copy(), coupling_diagonal(coupling, cz.shape[0] // 2))


def theta_in_place(cz: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """Theta_z = I + diag(diagonal) C_z, one coefficient a row, in place of C_z."""
    cz *= diagonal[:, None]
    cz[np.diag_indices_from(cz)] += 1.0
    return cz


def lambda_from_cz(cz: np.ndarray, coupling: Coupling) -> np.ndarray:
    """Matrix of Lambda_z = (eps sigma_0 - mu sigma_3)/(eps^2 - mu^2) + C_z,
    in Fortran order, so that ``lu_solve_with_cond`` factors it in place."""
    if coupling.is_critical:
        raise CriticalCouplingError("Lambda_z undefined at |eps| = |mu|")
    lam = cz.copy(order="F")
    lam[np.diag_indices_from(lam)] += 1.0 / coupling_diagonal(coupling, cz.shape[0] // 2)
    return lam


def assemble_theta(grid: QuadratureGrid, z: float, coupling: Coupling) -> np.ndarray:
    """Theta_z = I + (eps sigma_0 + mu sigma_3) C_z; z = m uses the Cauchy limit."""
    return theta_from_cz(_cz_or_cm(grid, z, coupling), coupling)


def assemble_lambda(grid: QuadratureGrid, z: float, coupling: Coupling) -> np.ndarray:
    """Lambda_z = (eps sigma_0 - mu sigma_3)/(eps^2 - mu^2) + C_z."""
    return lambda_from_cz(_cz_or_cm(grid, z, coupling), coupling)


def assemble_gamma(grid: QuadratureGrid, coupling: Coupling) -> np.ndarray:
    """Gamma with (eps^2 - mu^2) Lambda_m = eps sigma_0 + Gamma."""
    upper = coupling.strength * grid_tables(grid).cauchy_upper
    gamma = _off_diagonal(upper, -np.conj(upper))
    np.fill_diagonal(gamma, np.repeat([-coupling.mu, coupling.mu], grid.n_nodes))
    return gamma


def hermitian_defect(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix - matrix.conj().T)))


def lu_solve_with_cond(matrix: np.ndarray, rhs: np.ndarray):
    """LU solve with a 1-norm condition estimate (reported alongside inverses).
    Both arguments are overwritten, matrix by its factor and rhs by the
    solution, where LAPACK can take them as they are (Fortran order, of the
    solve's dtype); otherwise the solve works on copies."""
    anorm = np.linalg.norm(matrix, 1)
    lu, piv = sla.lu_factor(matrix, overwrite_a=True)
    rcond, _ = sla.get_lapack_funcs("gecon", (lu,))(lu, anorm)
    cond = np.inf if rcond == 0 else 1.0 / rcond
    return sla.lu_solve((lu, piv), rhs, overwrite_b=True), cond


# ---------------------------------------------------------------------------
# layer potential
# ---------------------------------------------------------------------------


def _phi_z_apply(points, grid, g2, z, coupling):
    """sum_j phi_z(p - y_j) g_j w_j, (2, M), for points (M, 2) and g2 (2, N)
    at the grid's nodes y_j and weights w_j.

    phi_z = (1/2pi) K0 (m sigma_3 + z sigma_0) + (i kappa / 2pi r) K1 (sigma . x),
    so with gw = g w each component takes a product with the real field K0
    and one with the complex field F = (kappa / 2pi r) K1 (dx + i dy):
        out_0 = (m+z)/2pi K0 gw_0 + i conj(F conj(gw_1)),
        out_1 = (z-m)/2pi K0 gw_1 + i F gw_0.
    Rows are taken in chunks of about ``_POTENTIAL_PAIRS`` point-source pairs.
    The solve pool fills a chunk's two fields, ``_FIELD_PAIRS`` pairs a task
    (the Bessel ufuncs release the interpreter lock); the products then take
    the whole chunk, whose row count fixes how BLAS sums each row.
    """
    kappa = K.gap_kappa(z, coupling.mass)
    sc, gw_real, gw_f = _cyclic_sources(grid, g2, 1)
    pc = points[:, 0] + 1j * points[:, 1]
    rows = max(1, _POTENTIAL_PAIRS // max(len(sc), 1))
    step = max(1, _FIELD_PAIRS // max(len(sc), 1))

    def fill(chunk, k0, f, i):
        d = chunk[i:i + step, None] - sc[None, :]
        r = np.abs(d)
        k0[i:i + step] = K.bessel_k0(kappa * r)
        f[i:i + step] = K.bessel_k1(kappa * r) / r * d

    out = np.empty((2, len(pc)), dtype=complex)
    with solve_pool() as pool_map:
        for lo in range(0, len(pc), rows):
            chunk = pc[lo:lo + rows]
            k0 = np.empty((len(chunk), len(sc)))
            f = np.empty(k0.shape, dtype=complex)
            for _ in pool_map(functools.partial(fill, chunk, k0, f),
                              range(0, len(chunk), step)):
                pass  # reading each result raises what its task raised
            out[:, lo:lo + rows] = _spinor_values((k0 @ gw_real).view(complex), f @ gw_f,
                                                  kappa, z, coupling.mass)
    return out


def _spinor_values(k0_gw, f_gw, kappa, z, mass):
    """The potential's (2, M) values from the (M, 2) products of the K0 field
    with (gw_0, gw_1) and of K1 (dx + i dy)/r with (gw_0, conj(gw_1))."""
    pref = 1.0 / (2 * np.pi)
    f_gw = (pref * kappa) * f_gw
    return np.stack([pref * (mass + z) * k0_gw[:, 0] + 1j * np.conj(f_gw[:, 1]),
                     pref * (z - mass) * k0_gw[:, 1] + 1j * f_gw[:, 0]])


def _window(tau):
    """chi(tau) = (erf((tau + a)/sigma) - erf((tau - a)/sigma))/2, the partition
    of unity that splits a near point's potential (``_window_apply``)."""
    return 0.5 * (erf((tau + _WINDOW_CORE) / _WINDOW_SIGMA)
                  - erf((tau - _WINDOW_CORE) / _WINDOW_SIGMA))


def _cyclic_sources(grid, g2, length):
    """The grid's nodes, g w as (N, 4) reals (real and imaginary parts side
    by side) and (g_0 w, conj(g_1) w), each continued cyclically by
    length - 1 nodes, so that every run of ``length`` consecutive nodes is
    one slice."""
    ext = np.arange(grid.n_nodes + length - 1) % grid.n_nodes
    gw = np.ascontiguousarray((g2 * grid.weights).T[ext])
    return grid.zc[ext], gw.view(float), np.stack([gw[:, 0], np.conj(gw[:, 1])], axis=1)


def _window_apply(points, jmin, grid, g2, fine, g_fine, z, coupling):
    """``_phi_z_apply`` of the fine grid's density at points (M, 2), each
    point's integral split by the window chi centred on its nearest coarse
    node jmin, tau in coarse spacings from it: chi's share is summed on the
    fine grid where |tau| <= ``_WINDOW_CUT``, the share 1 - chi on the coarse
    grid.  Both shares are smooth and periodic, so each trapezoid sum equals
    the fine grid's to roundoff where ``evaluate_potential`` takes the window.
    A solve-pool task takes a number of points fixed by the grids and sums
    each point apart, so the values do not depend on the worker count."""
    kappa = K.gap_kappa(z, coupling.mass)
    n = grid.n_nodes
    factor = fine.n_nodes // n
    half = int(_WINDOW_CUT * factor)
    lags = np.arange(-half, half + 1), np.arange(-(n // 2), n - n // 2)
    share = np.concatenate([_window(lags[0] / factor), 1.0 - _window(lags[1])])
    sizes = len(lags[0]), n
    cols = slice(0, sizes[0]), slice(sizes[0], None)
    starts = (jmin * factor - half) % fine.n_nodes, (jmin - n // 2) % n
    sources = _cyclic_sources(fine, g_fine, sizes[0]), _cyclic_sources(grid, g2, n)
    pc = points[:, 0] + 1j * points[:, 1]
    step = max(1, _FIELD_PAIRS // len(share))
    out = np.empty((2, len(pc)), dtype=complex)

    def fill(lo):
        rows = np.arange(lo, min(lo + step, len(pc)))
        d = np.empty((len(rows), len(share)), dtype=complex)
        for i, p in enumerate(rows):
            for (nodes, _, _), start, col, size in zip(sources, starts, cols, sizes):
                np.subtract(pc[p], nodes[start[p]:start[p] + size], out=d[i, col])
        r = np.abs(d)
        k0 = K.bessel_k0(kappa * r)
        k0 *= share
        f = K.bessel_k1(kappa * r)
        f *= share
        f /= r
        f = f * d
        k0_gw = np.zeros((len(rows), 4))
        f_gw = np.zeros((len(rows), 2), dtype=complex)
        for i, p in enumerate(rows):
            for (_, gw_real, gw_f), start, col, size in zip(sources, starts, cols, sizes):
                k0_gw[i] += k0[i, col] @ gw_real[start[p]:start[p] + size]
                f_gw[i] += f[i, col] @ gw_f[start[p]:start[p] + size]
        out[:, rows] = _spinor_values(k0_gw.view(complex), f_gw, kappa, z, coupling.mass)

    with solve_pool() as pool_map:
        for _ in pool_map(fill, range(0, len(pc), step)):
            pass  # reading each result raises what its task raised
    return out


def _nearest_nodes(grid, points):
    """Each point's nearest node j, and whether a node more than
    ``_WINDOW_CORE`` nodes from j comes within ten of its own weights of the
    point: a thin neck of the curve, on a trapezoid grid."""
    n = grid.n_nodes
    dist = np.linalg.norm(points[:, None, :] - grid.nodes, axis=-1)
    j = np.argmin(dist, axis=1)
    lag = np.abs((np.arange(n) - j[:, None] + n // 2) % n - n // 2)
    return j, np.any((lag > _WINDOW_CORE) & (dist < 10.0 * grid.weights), axis=1)


def evaluate_potential(grid, density, z, coupling, points):
    """Layer potential Phi_z applied to a boundary density, evaluated off Sigma.

    The density is (2N,) or (2, N); returns (values (2, M) complex,
    degraded (M,) bool).  Points closer than ten local mesh widths are near:
    on smooth grids they are evaluated against a finer trapezoid grid of the
    curve (``discretize``), the density interpolated to it by FFT
    zero-padding; on panel grids they are flagged as degraded instead.  Each
    near point sums the fine grid only over a window around its nearest node
    and the rest of the curve on the coarse grid (``_window_apply``), with
    the fine grid's values to roundoff.  It sums the whole fine grid instead
    where another arc of the curve comes within ten local weights of it
    outside the window's core (a thin neck), and every near point does where
    the grid is too coarse for the window or the density's top modes would
    alias through the window's edges.
    """
    g2 = np.asarray(density, dtype=complex)
    if g2.shape not in ((2 * grid.n_nodes,), (2, grid.n_nodes)):
        raise ValueError(f"density of shape {g2.shape}, not (2N,) or (2, N), N = {grid.n_nodes}")
    g2 = g2.reshape(2, -1)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    rows = max(1, _POTENTIAL_PAIRS // grid.n_nodes)  # the distances in chunks
    jmin, neck = (np.concatenate(parts) for parts in zip(
        *(_nearest_nodes(grid, points[lo:lo + rows]) for lo in range(0, len(points), rows))))
    dmin = np.linalg.norm(points - grid.nodes[jmin], axis=-1)
    scale = max(1.0, float(np.max(np.abs(grid.nodes))))
    if np.any(dmin < 1e-12 * scale):
        raise PointOnCurveError("evaluation point lies on the curve")
    near = dmin < 10.0 * grid.weights[jmin]
    factor = 1
    degraded = near
    if np.any(near) and grid.kind == "trapezoid":
        # spectral upsampling for the near points; the curve length over 2pi
        # (a circle's radius) in the target keeps the rule scale-covariant
        radius = float(np.sum(grid.weights)) / (2.0 * np.pi)
        target = 8.0 * radius / max(np.min(dmin[near]), 1e-6 * radius)
        while grid.n_nodes * factor < target and grid.n_nodes * factor < 131072:
            factor *= 2
        if grid.n_nodes * factor >= target:
            degraded = np.zeros(len(points), dtype=bool)
    values = np.empty((2, len(points)), dtype=complex)
    coarse = ~near if factor > 1 else slice(None)
    if factor == 1 or np.any(coarse):
        values[:, coarse] = _phi_z_apply(points[coarse], grid, g2, z, coupling)
    if factor > 1:
        n, half = grid.n_nodes, grid.n_nodes // 2
        spec = np.fft.fft(g2)
        pad = np.zeros((2, n * factor), dtype=complex)
        pad[:, :half] = spec[:, :half]
        pad[:, -half + 1:] = spec[:, -half + 1:]
        pad[:, half] = 0.5 * spec[:, half]
        pad[:, -half] += 0.5 * spec[:, half]
        fine = discretize(grid.curve, n * factor)
        g_fine = np.fft.ifft(pad) * factor
        # chi must fall to erfc(5.9) before |tau| = n/2, and the coarse share
        # aliases mode l through frequency n - |l|, where chi's edges weigh it
        # by exp(-(pi sigma (n - |l|)/n)^2)
        modes = np.abs(np.fft.fftfreq(n, 1.0 / n))
        alias = np.sum(np.abs(spec) * np.exp(-(np.pi * _WINDOW_SIGMA * (1.0 - modes / n)) ** 2))
        windowed = n > 2.0 * _WINDOW_CUT and alias <= _WINDOW_ALIAS * np.sum(np.abs(spec))
        whole = near & neck if windowed else near
        if np.any(whole):
            values[:, whole] = _phi_z_apply(points[whole], fine, g_fine, z, coupling)
        part = near & ~whole
        if np.any(part):
            values[:, part] = _window_apply(points[part], jmin[part], grid, g2, fine, g_fine,
                                            z, coupling)
    return values, degraded
