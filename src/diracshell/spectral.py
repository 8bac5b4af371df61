"""Gap eigenvalues via the boundary characterization and identity checks.

The discrete eigenvalues in (-m, m) are the z where Theta_z = I + (eps
sigma_0 + mu sigma_3) C_z has a kernel: where the Hermitian part of
diag(1/d_k) + C_z, on the spinor components whose d_k = eps +- mu is
nonzero, becomes singular.  That is Lambda_z on both components (route
"lambda"), lambda_z = 1/(2 eps) + (z +- m) S_z on one when eps = +-mu != 0
("scalar"), and nothing when eps = mu = 0 ("empty").  Roots are located
from the count of negative eigenvalues over a sweep: where the count
changes between two samples, each sorted eigenvalue lambda_j whose index
lies between the two counts changes sign.  Sorted eigenvalues are
continuous in z, so this is robust to branch reordering at crossings.

Between the samples, brentq needs values of lambda_j of exact sign, not
spectra: at the samples their lambda_j, elsewhere one factorization of the
matrix (Bunch-Kaufman) per step.  Its negative count gives the sign
(lambda_j < 0 iff more than j eigenvalues are, Sylvester's law of inertia)
and the Rayleigh quotient of inverse iteration on it the size (one step
from the bracket's previous vector, three from a seeded one at its first
point; near its zero lambda_j is the eigenvalue nearest zero, which inverse
iteration finds).  With exact signs brentq keeps a sign change of lambda_j
in its bracket: run to tol/2, it returns a point within tol/2 of one,
whatever the sizes.  ``brentq`` is scipy's Brent loop, transcribed bit for
bit so that the search does not import ``scipy.optimize``.  Each cluster of
roots forms its matrix twice from one set of kernel values: its exact
spectrum gives the conditioning and the window of eigenvalues nearest zero,
and two inverse-iteration steps of a seeded block on one factorization of
the matrix shifted into that window (``_factor_step``) and a QR step give
the eigenvectors.  No dense eigenvector solver is used.

The sweep samples, the brackets and then the roots do not depend on each
other and are solved concurrently, one BLAS thread each
(``boundary_ops.solve_pool``), each task on one matrix that its spectrum
or factorization overwrites.  scipy's f2py LAPACK wrappers hold the
interpreter lock for the whole call, as does the Python loop of ARPACK's
shift-invert mode, so the search calls LAPACK through scipy's Cython
function pointers by ctypes (``_lapack``), which releases it.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cython_lapack

from . import boundary_ops as bo
from .errors import DomainError, SpectralParameterError
from .geometry import QuadratureGrid
from .kernels import Coupling, gap_kappa

TOL_RANGE = (1e-12, 1e-8)  # the supported root tolerances in z
_RTOL = 4 * np.finfo(float).eps  # brentq's smallest relative tolerance
_START_STEPS = 3  # inverse-iteration steps at a bracket's first interior point
_SEED = 0  # of the start vectors: the same in every bracket and root


@dataclass(frozen=True)
class BranchData:
    z_samples: np.ndarray  # strictly increasing
    eigenvalues: np.ndarray  # (samples, k), ascending per sample
    route: str  # "lambda" | "scalar" | "empty"
    coupling: Coupling
    notes: tuple = ()


@dataclass
class Eigenpair:
    z0: float
    density: np.ndarray  # (2N,) complex, component by component, unit norm
    residual: float  # ||Theta_{z0} density||_2
    cluster: int
    second_smallest: float  # at the root, the (mult + 1)-th smallest |eigenvalue|
    condition: float  # spread of the Hermitian spectrum at the root
    coupling: Coupling


def _active(coupling: Coupling) -> list:
    """The spinor components whose coefficient d_k = eps +- mu is nonzero."""
    return [k for k, d in enumerate(coupling.diagonal) if d != 0.0]


_ROUTES = ("empty", "scalar", "lambda")  # by the number of active components


def _kernel_values(grid, coupling, z):
    return bo.kernel_values(grid, z, coupling.mass, k1=len(_active(coupling)) == 2)


def _hermitian_matrix(grid, coupling, z, values=None):
    """The Hermitian matrix of the search at z, the active components one
    after the other (``boundary_ops.hermitian_matrix``), from the kernel
    values at z (evaluated here by default)."""
    if values is None:
        values = _kernel_values(grid, coupling, z)
    return bo.hermitian_matrix(grid, coupling, values, _active(coupling))


def _hermitian_eigs(grid, coupling, z):
    return _eigvalsh(_hermitian_matrix(grid, coupling, z))


def _start(size, columns=1):
    """The seeded start block of inverse iteration."""
    return np.random.default_rng(_SEED).standard_normal((size, columns))


# what each argument of a Cython LAPACK routine points to, by the last word
# of its C type: characters, C ints, or doubles or complex doubles
_LAPACK_TYPES = {b"char": str, b"int": np.dtype(np.intc), b"d": np.dtype(float),
                 b"complex": np.dtype(complex)}


@functools.cache
def _lapack(name):
    """scipy's Cython LAPACK routine ``name`` (``scipy.linalg.cython_lapack``)
    as a ctypes function of as many pointers as it takes, and what each
    points to (``_LAPACK_TYPES``); a ctypes call releases the interpreter
    lock."""
    capsule, api = cython_lapack.__pyx_capi__[name], ctypes.pythonapi
    signature = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))(capsule)
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))(capsule, signature)
    kinds = [_LAPACK_TYPES[arg.rstrip(b" *").rsplit(b"_", 1)[-1]]
             for arg in signature[signature.index(b"(") + 1:-1].split(b", ")]
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * len(kinds))(address), kinds


def _reference(arg, kind):
    """The pointer a LAPACK argument of that kind is passed as: a contiguous
    array of its dtype as its buffer, a str as its characters, an int as a C
    int; anything else raises, before LAPACK reads a wrong buffer."""
    if isinstance(arg, np.ndarray) and arg.dtype == kind and (
            arg.flags.c_contiguous or arg.flags.f_contiguous):
        return arg.ctypes.data
    if kind is str and isinstance(arg, str):
        return arg.encode()
    if kind == np.intc and isinstance(arg, int):
        return ctypes.byref(ctypes.c_int(arg))
    raise TypeError(f"a LAPACK argument of {kind} got {type(arg).__name__} "
                    f"{getattr(arg, 'dtype', '')}")


def _lapack_call(name, *args):
    """Call LAPACK ``name`` off the interpreter lock on the arguments before
    its info (``_reference``), and return info (an illegal argument
    raises)."""
    function, kinds = _lapack(name)
    if len(args) != len(kinds) - 1:
        raise TypeError(f"{name} takes {len(kinds) - 1} arguments before info")
    info = ctypes.c_int()
    function(*map(_reference, args, kinds), ctypes.byref(info))
    if info.value < 0:
        raise ValueError(f"{name}: illegal value of argument {-info.value}")
    return info.value


def _eigvalsh(h):
    """The ascending eigenvalues of the Hermitian h, as ``numpy.linalg.eigvalsh``
    computes them (LAPACK ``?heevd``, or ``?syevd`` for a real h, eigenvalues
    only, on the lower triangle, in the workspace a query returns), but in
    place: h is overwritten.  h.T, in Fortran order, is conj(h), whose
    spectrum is h's."""
    n, w = len(h), np.empty(len(h))
    if np.iscomplexobj(h):
        name, kinds = "zheevd", (complex, float, np.intc)  # work, rwork, iwork
    else:
        name, kinds = "dsyevd", (float, np.intc)  # work, iwork
    query = [np.zeros(1, kind) for kind in kinds]
    _lapack_call(name, "N", "L", n, h, n, w, *[x for a in query for x in (a, -1)])
    spaces = [np.empty(int(a[0].real), a.dtype) for a in query]
    if _lapack_call(name, "N", "L", n, h, n, w, *[x for a in spaces for x in (a, len(a))]):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w


def _factor_step(h, vec, steps=1):
    """Factor h once (Bunch-Kaufman, LAPACK ``?hetrf`` or, for a real h,
    ``?sytrf``, on the upper triangle in the workspace a query returns; h is
    overwritten) and take ``steps`` inverse-iteration steps from vec on the
    factor (``?hetrs``, ``?sytrs``): the number of negative eigenvalues of
    h, the Rayleigh quotient of the unit vector the steps reach, and that
    vector.  vec may be a block of columns, which are solved at once; the
    quotient and the norm are then those of the block as one vector.  Both
    calls run off the interpreter lock.

    h = U D U^H has the inertia of the block diagonal D (Sylvester's law):
    the signs of its 1x1 blocks and of the eigenvalues of its 2x2 ones.
    h.T, in Fortran order, is conj(h): factoring it in place keeps no copy,
    and h x = v is conj(h) conj(x) = conj(v).  With x = h^-1 v, the
    Rayleigh quotient of x is x^H v / x^H x.
    """
    n, udu = len(h), h.T
    trf, trs = ("zhetrf", "zhetrs") if np.iscomplexobj(h) else ("dsytrf", "dsytrs")
    ipiv, work = np.empty(n, np.intc), np.zeros(1, h.dtype)
    _lapack_call(trf, "U", n, h, n, ipiv, work, -1)
    work = np.empty(int(work[0].real), h.dtype)
    if _lapack_call(trf, "U", n, h, n, ipiv, work, len(work)):
        raise np.linalg.LinAlgError("the search matrix is singular")
    for _ in range(steps):
        x = np.array(vec.conj(), h.dtype, order="F")  # a copy: a real conj() is vec
        _lapack_call(trs, "U", n, x.shape[1], h, n, ipiv, x, n)
        x = x.conj()
        lam = float(np.vdot(x, vec).real / np.vdot(x, x).real)
        vec = x / np.linalg.norm(x)
    # a 2x2 block of rows k, k+1 (both pivots negative) keeps its
    # off-diagonal in the upper factor at (k, k+1)
    d = udu.diagonal().real.copy()
    k = np.flatnonzero(ipiv < 0)[::2]
    mean = 0.5 * (d[k] + d[k + 1])
    half = np.hypot(0.5 * (d[k] - d[k + 1]), np.abs(udu[k, k + 1]))
    d[k], d[k + 1] = mean - half, mean + half
    return int(np.sum(d < 0.0)), lam, vec


def default_window(coupling: Coupling) -> tuple:
    m = coupling.mass
    return (-m + 0.01 * m, m - 0.01 * m)


def check_sweep(coupling: Coupling, window: tuple, samples: int) -> None:
    """Refuse fewer than 16 samples, or a window not inside the open gap."""
    if not samples >= 16:
        raise SpectralParameterError(f"need at least 16 sweep samples, got {samples!r}")
    m = coupling.mass
    if not -m < window[0] < window[1] < m:
        raise SpectralParameterError(f"window ({window[0]!r}, {window[1]!r}) is not an interval "
                                     f"inside the open gap (-{m!r}, {m!r})")


def check_tol(tol: float) -> None:
    """Refuse a root tolerance outside ``TOL_RANGE``: a coarser one merges
    distinct roots into one cluster, and a finer one is below what the
    search resolves."""
    if not TOL_RANGE[0] <= tol <= TOL_RANGE[1]:
        raise SpectralParameterError(f"tol {tol!r} outside [{TOL_RANGE[0]:g}, {TOL_RANGE[1]:g}]")


def gap_sweep(grid: QuadratureGrid, coupling: Coupling,
              z_range: tuple | None = None, samples: int = 128) -> BranchData:
    """Sorted Hermitian eigenvalue trajectories over a z sweep in the gap."""
    window = z_range if z_range is not None else default_window(coupling)
    check_sweep(coupling, window, samples)
    route = _ROUTES[len(_active(coupling))]
    if route == "empty":
        return BranchData(np.zeros(0), np.zeros((0, 0)), "empty", coupling,
                          notes=("free operator: spectrum (-inf,-|m|] U [|m|,inf), "
                                 "no shell interaction",))
    zs = np.linspace(*window, samples)
    bo.grid_tables(grid)  # on this thread, not among a worker's per-z arrays
    with bo.solve_pool() as solve_map:
        eigs = np.stack(list(solve_map(functools.partial(_hermitian_eigs, grid, coupling), zs)))
    return BranchData(zs, eigs, route, coupling)


def find_eigenvalues(grid: QuadratureGrid, sweep: BranchData,
                     tol: float = 1e-12) -> list:
    """Locate the gap eigenvalues of a ``gap_sweep`` of this grid: between
    two samples whose negative-eigenvalue counts differ, each sorted
    eigenvalue that changes sign has a root, within tol/2 of a sign change
    by construction (``_bracket_root``).  Roots within 10 tol are one
    cluster, its size the multiplicity; tol lies in ``TOL_RANGE``
    (``check_tol``).

    The coupling, the sample points and their spectra are those of the
    sweep; each brentq step between samples costs one factorization, and
    each cluster one set of kernel values, its spectrum and one
    factorization (``_cluster_pairs``).
    """
    check_tol(tol)
    coupling = sweep.coupling
    zs = sweep.z_samples
    # float(z) -> eigenvalues of the Hermitian operator at z
    spectra = dict(zip(map(float, zs), sweep.eigenvalues))
    counts = [int(np.sum(ev < 0.0)) for ev in sweep.eigenvalues]
    # the j-th sorted eigenvalue is continuous in z, so each j between the
    # counts of two samples changes sign between them
    brackets = [(float(a), float(b), j)
                for a, b, ca, cb in zip(zs, zs[1:], counts, counts[1:])
                for j in range(min(ca, cb), max(ca, cb))]

    def root_pairs(numbered):
        cluster, members = numbered
        return _cluster_pairs(grid, coupling, members[0], len(members), cluster)

    if brackets:
        bo.grid_tables(grid)  # on this thread, not among a worker's per-z arrays
    with bo.solve_pool() as solve_map:
        roots = sorted(solve_map(functools.partial(_bracket_root, grid, coupling, spectra, tol),
                                 brackets))
        clusters = []  # roots closer than 10 tol are one multiple root
        for root in roots:
            if clusters and root - clusters[-1][-1] <= 10.0 * tol:
                clusters[-1].append(root)
            else:
                clusters.append([root])
        return [pair for pairs in solve_map(root_pairs, enumerate(clusters)) for pair in pairs]


def brentq(f, a, b, xtol, rtol, maxiter=100):
    """A zero of f in [a, b], f(a) and f(b) of opposite signs, by Brent's
    method (Brent, Algorithms for Minimization Without Derivatives, 1973,
    ch. 4), to |dx| <= xtol + rtol |x|.  This is scipy's
    ``optimize/Zeros/brentq.c`` line for line with the checks of
    ``scipy.optimize.brentq``: it evaluates f at the same points in the
    same order and returns the same float.  It is here because importing
    ``scipy.optimize`` for it loaded about 210 scipy modules (scipy.sparse,
    scipy.spatial, scipy.fft), 18 MB, into every process of the search.
    Raises ValueError on xtol <= 0, rtol < 4u, a NaN value or ends of one
    sign bit, and RuntimeError after ``maxiter`` steps."""
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter should be > 0")

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; solver cannot continue")
        return fx

    def negative(fx):  # C's signbit
        return math.copysign(1.0, fx) < 0.0

    # xcur is the estimate, xblk the other end of a bracket of it with
    # |f(xcur)| <= |f(xblk)|, xpre the previous estimate; spre and scur are
    # the steps before the last and the last
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if negative(fpre) == negative(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and negative(fpre) != negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.nan  # bisect unless interpolation gives a good short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's quotient is then inf or NaN: bisect
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"failed to converge after {maxiter} iterations, value is {xcur!r}")


def _bracket_root(grid, coupling, spectra, tol, bracket):
    """The root of lambda_j in the bracket (a, b, j): brentq to tol/2 on
    values of the sign of lambda_j (``_factor_step``, see the module
    docstring), so within tol/2 (+ 4u|r|) of a sign change."""
    a, b, j = bracket
    vec = None

    def value(z):
        nonlocal vec
        if z in spectra:
            return spectra[z][j]
        h = _hermitian_matrix(grid, coupling, z)
        if vec is None:
            count, lam, vec = _factor_step(h, _start(len(h)), _START_STEPS)
        else:
            count, lam, vec = _factor_step(h, vec)
        return -abs(lam) if count > j else abs(lam)  # lambda_j < 0 iff count > j

    return brentq(value, a, b, xtol=0.5 * tol, rtol=_RTOL)


def _cluster_pairs(grid, coupling, z0, mult, cluster) -> list:
    """The ``mult`` eigenpairs of the root z0, from the Hermitian matrix at
    z0, formed twice from one set of kernel values: each solve overwrites
    its matrix, so the task holds one matrix, not a copy beside it.
    Its ascending spectrum gives the conditioning and the window of the
    ``mult`` eigenvalues nearest zero.  Shifted in place by the window's
    mean, it is factored once; two inverse-iteration steps of a
    seeded block on the factor (``_factor_step``) and a QR step give an
    orthonormal basis of the window's eigenspace.  The roots of a cluster
    lie within 10 tol, below what the search resolves, so any such basis
    is an answer.  Theta_z0 = I + diag(d_k) C_z0 on the active components
    (the other rows are the identity on zeros) is formed in place of their
    C_z0 from the same kernel values once the factor is dropped.  Both
    matrices order the active components one after the other, as does the
    density."""
    active = _active(coupling)
    values = _kernel_values(grid, coupling, z0)
    ev = _eigvalsh(_hermitian_matrix(grid, coupling, z0, values))
    second = float(np.sort(np.abs(ev))[min(mult, len(ev) - 1)])
    cond = float(np.max(np.abs(ev)) / max(second, np.finfo(float).tiny))
    # the mult eigenvalues nearest zero are the window of mult sorted ones
    # whose end farthest from zero is nearest
    lo = int(np.argmin(np.maximum(-ev[:len(ev) - mult + 1], ev[mult - 1:])))
    h = _hermitian_matrix(grid, coupling, z0, values)
    h[np.diag_indices_from(h)] -= np.mean(ev[lo:lo + mult])
    vecs = np.linalg.qr(_factor_step(h, _start(len(h), mult), 2)[2])[0]
    del h  # the factor, before the blocks of Theta_z0 are formed
    theta = bo.theta_in_place(bo.cz_blocks(grid, coupling, values, active),
                              np.repeat(np.take(coupling.diagonal, active), grid.n_nodes))
    return [Eigenpair(float(z0), _embed_density(v, coupling), float(np.linalg.norm(theta @ v)),
                      cluster, second, cond, coupling) for v in vecs.T]


def _embed_density(vec, coupling):
    """The 2N density: ``vec`` on the active components, else 0."""
    active = _active(coupling)
    g = np.zeros((2, len(vec) // len(active)), dtype=complex)
    g[active] = vec.reshape(len(active), -1)
    return g.reshape(-1)


def theta_min_singular(grid: QuadratureGrid, coupling: Coupling, z: float) -> float:
    """Smallest singular value of Theta_z (kernel detection for any coupling)."""
    theta = bo.assemble_theta(grid, z, coupling)
    return float(np.linalg.svd(theta, compute_uv=False)[-1])


def eigenfunction(grid: QuadratureGrid, pair: Eigenpair, points):
    """Evaluate the eigenfunction Phi_{z0} g at points off the curve: values
    (2, M) and degraded flags (M,), as ``boundary_ops.evaluate_potential``."""
    return bo.evaluate_potential(grid, pair.density, pair.z0, pair.coupling, points)


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------


@dataclass
class IdentityCheck:
    name: str
    residual: float
    threshold: float
    passed: bool | None  # None: not applicable on this grid
    details: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    z: float
    coupling: Coupling
    grid_kind: str
    n_nodes: int
    checks: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.passed is not None)

    def to_json_dict(self) -> dict:
        return {
            "z": self.z,
            "eps": self.coupling.eps,
            "mu": self.coupling.mu,
            "mass": self.coupling.mass,
            "grid_kind": self.grid_kind,
            "n_nodes": self.n_nodes,
            "checks": [
                {"name": c.name, "residual": c.residual, "threshold": c.threshold,
                 "passed": c.passed, "details": c.details}
                for c in self.checks
            ],
        }


DEFAULT_TOLERANCES = {
    "cc2": 1e-4,
    "jump_two_sided": 1e-2,
    "jump_one_sided": 2e-2,
    "csq_opnorm": 1e-6,
    "resolvent_factor": 1e-9,  # times cond(Lambda_z)
}


def _smooth_test_density(grid, seed=1234):
    """A deterministic band-limited (2, N) density on a trapezoid grid."""
    rng = np.random.default_rng(seed)
    n = grid.n_nodes
    dens = np.zeros((2, n), dtype=complex)
    th = grid.param
    for comp in range(2):
        for k in range(-8, 9):
            dens[comp] += (rng.normal() + 1j * rng.normal()) * np.exp(1j * k * th)
    return dens / np.abs(dens).max()


def check_verify(z: float, coupling: Coupling, offset: float, seed: int) -> None:
    """Refuse z outside the open gap, an offset not positive or a negative seed."""
    gap_kappa(z, coupling.mass)
    if not offset > 0.0:  # the jump checks take the points at -offset as inside
        raise DomainError(f"offset {offset!r} is not positive")
    if not seed >= 0:
        raise DomainError(f"seed {seed!r} is negative")


def verify_identities(grid: QuadratureGrid, z: float, coupling: Coupling,
                      offset: float = 1e-3, seed: int = 1234) -> VerificationReport:
    """Run the four operator-identity checks and report measured residuals."""
    check_verify(z, coupling, offset, seed)
    tols = DEFAULT_TOLERANCES
    n = grid.n_nodes
    checks = []

    cz = bo.assemble_Cz(grid, z, coupling)
    # C_z (sigma . nu): sigma . nu swaps the spinor components and scales
    # them by nu and conj(nu), so it swaps the column blocks of C_z
    m1 = np.empty_like(cz)
    m1[:, :n] = cz[:, n:] * grid.nc
    m1[:, n:] = cz[:, :n] * np.conj(grid.nc)
    m1 = m1 @ m1
    m1[np.diag_indices_from(m1)] += 0.25
    cc2 = float(np.linalg.norm(m1, 2))
    del m1
    checks.append(IdentityCheck("cc2", cc2, tols["cc2"], cc2 <= tols["cc2"]))

    if grid.kind == "trapezoid":
        dens = _smooth_test_density(grid, seed)
        pts = np.concatenate([grid.nodes - offset * grid.normals,
                              grid.nodes + offset * grid.normals])
        values, degraded = bo.evaluate_potential(grid, dens, z, coupling, pts)
        vin, vout = np.split(values, 2, axis=1)
        snu_g = np.stack([np.conj(grid.nc) * dens[1], grid.nc * dens[0]])
        want_jump = -1j * snu_g
        rel2 = float(np.linalg.norm(vin - vout - want_jump)
                     / np.linalg.norm(want_jump))
        czg = (cz @ dens.reshape(-1)).reshape(2, -1)
        want_in = -0.5j * snu_g + czg
        want_out = +0.5j * snu_g + czg
        rel1 = max(
            float(np.linalg.norm(vin - want_in) / np.linalg.norm(want_in)),
            float(np.linalg.norm(vout - want_out) / np.linalg.norm(want_out)),
        )
        n_degraded = int(np.count_nonzero(degraded))
        for name, rel in (("jump_two_sided", rel2), ("jump_one_sided", rel1)):
            details = {"offset": offset, "degraded_points": n_degraded}
            if n_degraded:  # the potential there misses the accuracy the check rests on
                details["note"] = "near-curve values degraded beyond the upsampling cap"
            checks.append(IdentityCheck(name, rel, tols[name],
                                        rel <= tols[name] and not n_degraded, details))
    else:
        checks += [IdentityCheck(name, float("nan"), tols[name], None,
                                 {"note": "near-curve evaluation needs a smooth grid"})
                   for name in ("jump_two_sided", "jump_one_sided")]

    # C_Sigma from the grid's table set, its Cauchy weights built once
    csigma = bo.grid_tables(grid).cauchy_upper * grid.tc[None, :]
    resid_mat = csigma @ csigma - 0.25 * np.eye(n)
    sv = np.linalg.svd(resid_mat, compute_uv=False)
    opnorm = float(sv[0])
    decay = float(sv[min(n // 4, n - 1)] / max(sv[0], np.finfo(float).tiny))
    if grid.kind == "trapezoid":
        checks.append(IdentityCheck("csq_compact", opnorm, tols["csq_opnorm"],
                                    opnorm <= tols["csq_opnorm"],
                                    {"sv_decay_at_quarter": decay}))
    else:
        checks.append(IdentityCheck("csq_compact", opnorm, tols["csq_opnorm"], None,
                                    {"sv_decay_at_quarter": decay,
                                     "note": "operator-norm criterion applies to "
                                             "smooth curves"}))

    if not coupling.is_critical:
        # Lambda_z and the identity are factored and solved in place
        lam = bo.lambda_from_cz(cz, coupling)
        inv, cond = bo.lu_solve_with_cond(lam, np.eye(2 * n, dtype=complex, order="F"))
        del lam
        # d (I - C_z inv) - inv, formed in place of the product
        e = cz @ inv
        np.negative(e, out=e)
        e[np.diag_indices_from(e)] += 1.0
        e *= bo.coupling_diagonal(coupling, n)[:, None]
        e -= inv
        resid = float(np.max(np.abs(e)))
        thr = tols["resolvent_factor"] * cond
        checks.append(IdentityCheck("resolvent_cancellation", resid, thr,
                                    resid <= thr, {"cond_lambda": cond}))
    else:
        checks.append(IdentityCheck("resolvent_cancellation", float("nan"), 0.0, None,
                                    {"note": "Lambda_z undefined at |eps| = |mu|"}))

    return VerificationReport(z, coupling, grid.kind, n, checks)
