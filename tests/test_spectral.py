import functools
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs
from scipy.optimize import brentq

from diracshell import boundary_ops as bo
from diracshell import geometry as geo
from diracshell import spectral as sp
from diracshell.errors import DomainError, SpectralParameterError
from diracshell.kernels import Coupling
from oracles import circle_eigenvalues


def test_free_coupling_empty_sweep(circle_grid_128):
    bd = sp.gap_sweep(circle_grid_128, Coupling(0.0, 0.0, 1.0))
    assert bd.route == "empty"
    assert bd.z_samples.size == 0
    assert any("free operator" in n for n in bd.notes)
    assert sp.find_eigenvalues(circle_grid_128, bd) == []


def test_sweep_continuity_dense_oracle(circle_grid_256):
    c = Coupling(0.0, 1.0, 1.0)
    coarse = sp.gap_sweep(circle_grid_256, c, z_range=(-0.9, 0.9), samples=64)
    fine = sp.gap_sweep(circle_grid_256, c, z_range=(-0.9, 0.9), samples=127)
    coarse_jump, fine_jump = (float(np.abs(np.diff(s.eigenvalues, axis=0)).max())
                              for s in (coarse, fine))
    # jumps of continuous branches scale linearly with the step
    assert fine_jump <= 0.6 * coarse_jump + 1e-12
    assert coarse_jump <= 2.2 * fine_jump


def test_sweep_window_validation(circle_grid_128):
    with pytest.raises(SpectralParameterError):
        sp.gap_sweep(circle_grid_128, Coupling(1.0, 0.0), z_range=(-2.0, 0.5))
    with pytest.raises(SpectralParameterError):
        sp.gap_sweep(circle_grid_128, Coupling(1.0, 0.0), samples=4)
    # the free operator has no sweep, but its window is refused all the same
    with pytest.raises(SpectralParameterError):
        sp.gap_sweep(circle_grid_128, Coupling(0.0, 0.0), z_range=(-2.0, 0.5))


def test_branch_mirror_symmetry(circle_grid_128):
    # eigenvalue trajectories for (eps, mu) at z mirror those for (-eps, mu)
    # at -z; numerical observation on the circle, checked by recomputation
    zs = np.linspace(-0.8, 0.8, 9)
    for z in zs:
        e1 = np.sort(sp._hermitian_eigs(circle_grid_128, Coupling(1.0, 0.5), z))
        e2 = np.sort(sp._hermitian_eigs(circle_grid_128, Coupling(-1.0, 0.5), -z))
        assert np.max(np.abs(e1 + e2[::-1])) < 1e-6


def test_find_eigenvalues_circle(circle_grid_128):
    sweep = sp.gap_sweep(circle_grid_128, Coupling(1.0, 0.0, 1.0), samples=48)
    pairs = sp.find_eigenvalues(circle_grid_128, sweep)
    assert len(pairs) >= 1
    for p in pairs:
        assert -1.0 < p.z0 < 1.0
        assert p.residual < 1e-8
        assert abs(np.linalg.norm(p.density) - 1.0) < 1e-12


@pytest.mark.parametrize("eps, mu, mass, radius, nodes, count", [
    (1.0, 0.0, 1.0, 1.0, 256, 3),  # configs/eigs_circle.cfg
    (-1.0, -1.0, 1.0, 1.0, 128, 3),  # scalar route: modes k and -k give one double root
    (0.7, 0.2, 1.5, 1.0, 128, 1),
    (1.0, 0.0, 2.0, 0.5, 128, 3),  # twice the roots of (1, 0, 1, 1): scale covariance
    (-4.0, 0.0, 1.0, 1.0, 128, 3),  # the unitary partner of (1, 0): the same roots
])
def test_circle_roots_match_the_mode_oracle(eps, mu, mass, radius, nodes, count):
    coup = Coupling(eps, mu, mass)
    grid = geo.discretize(geo.build_curve(geo.circle(radius)), nodes)
    pairs = sp.find_eigenvalues(grid, sp.gap_sweep(grid, coup, samples=64))
    want = np.array(circle_eigenvalues(coup, radius, sp.default_window(coup)))
    assert len(want) == len(pairs) == count
    assert np.max(np.abs([p.z0 for p in pairs] - want)) < 1e-10
    # the oracle's roots closer than 1e-9 are one root of that multiplicity
    starts = np.flatnonzero(np.r_[True, np.diff(want) > 1e-9, True])
    assert np.bincount([p.cluster for p in pairs]).tolist() == np.diff(starts).tolist()


@pytest.mark.parametrize("coup", [Coupling(1.0, 0.0), Coupling(-1.0, -1.0)])
def test_find_eigenvalues_reads_the_coupling_of_the_sweep(circle_grid_128, coup):
    sweep = sp.gap_sweep(circle_grid_128, coup, samples=48)
    pairs = sp.find_eigenvalues(circle_grid_128, sweep)
    assert len(pairs) >= 1
    assert all(p.coupling == sweep.coupling for p in pairs)


def test_roots_by_brentq_are_kernel_points_in_few_solves(circle_grid_128, monkeypatch):
    # brentq on the sorted eigenvalue that changes sign between two sweep
    # samples: residuals at roundoff, a handful of solves per root
    found = {}
    for coup in (Coupling(1.0, 0.0), Coupling(-4.0, 0.0), Coupling(-1.0, -1.0)):
        sweep = sp.gap_sweep(circle_grid_128, coup, samples=48)
        solves = []
        eigvalsh = sp._eigvalsh
        monkeypatch.setattr(sp, "_eigvalsh", lambda h: solves.append(1) or eigvalsh(h))
        pairs = sp.find_eigenvalues(circle_grid_128, sweep)
        monkeypatch.undo()
        assert len(pairs) >= 1
        assert max(p.residual for p in pairs) <= 1e-12
        assert len(solves) <= 6 * len(pairs)
        found[coup] = pairs
    scalar = found[Coupling(-1.0, -1.0)]
    assert len(scalar) == 3
    assert [p.cluster for p in scalar] == [0, 1, 1]
    assert scalar[1].z0 == scalar[2].z0
    assert scalar[1].z0 == pytest.approx(0.4111791917, abs=1e-10)


def test_root_count_stable_under_refinement(circle_curve, circle_grid_128,
                                            circle_grid_256):
    for coup in (Coupling(1.0, 0.0), Coupling(0.0, 1.0), Coupling(1.0, 1.0)):
        n1, n2 = (len(sp.find_eigenvalues(g, sp.gap_sweep(g, coup, samples=48)))
                  for g in (circle_grid_128, circle_grid_256))
        assert n1 == n2


def test_remark_reduction_pairing(circle_grid_128):
    e1, e2 = (sorted(p.z0 for p in sp.find_eigenvalues(
        circle_grid_128, sp.gap_sweep(circle_grid_128, Coupling(eps, 0.0), samples=48)))
        for eps in (1.0, -4.0))
    assert len(e1) == len(e2)
    assert np.max(np.abs(np.array(e1) - np.array(e2))) < 1e-6


def test_scalar_route_negative_coupling(circle_grid_128):
    sweep = sp.gap_sweep(circle_grid_128, Coupling(-1.0, -1.0), samples=48)
    pairs = sp.find_eigenvalues(circle_grid_128, sweep)
    assert len(pairs) >= 1
    for p in pairs:
        # density is supported on the first spinor component for eps = mu
        assert np.max(np.abs(p.density.reshape(2, -1)[1])) < 1e-14
        assert p.residual < 1e-8
        # full-operator cross-check: Theta_z is singular there
        assert sp.theta_min_singular(circle_grid_128, p.coupling, p.z0) < 1e-7


def test_scalar_route_on_the_second_component(circle_grid_128):
    # eps = -mu: lambda_z = 1/(2 eps) + (z - m) S_z on the second spinor
    # component, which for (1, -1) is minus that of (-1, -1) at -z
    second, first = (sp.find_eigenvalues(circle_grid_128,
                                         sp.gap_sweep(circle_grid_128, coup, samples=48))
                     for coup in (Coupling(1.0, -1.0), Coupling(-1.0, -1.0)))
    assert len(second) == len(first) >= 1
    z_second, z_first = (np.array([p.z0 for p in pairs]) for pairs in (second, first))
    assert np.max(np.abs(z_second + z_first[::-1])) <= 1e-10
    for p in second:
        assert not np.any(p.density.reshape(2, -1)[0])
        assert p.residual < 1e-8


def _factored(monkeypatch):
    """The matrices (copied, upper triangle as given) that ``_factor_step``
    factors from within ``_cluster_pairs``, with their start blocks' column
    counts and step counts."""
    factored = []
    factor_step = sp._factor_step

    def record(h, vec, steps=1):
        if sys._getframe(1).f_code.co_name == "_cluster_pairs":
            factored.append((h.copy(), vec.shape[1], steps))
        return factor_step(h, vec, steps)

    monkeypatch.setattr(sp, "_factor_step", record)
    return factored


def test_scalar_root_operators_assemble_k0_once(monkeypatch):
    # S_z alone: one set of kernel values per scalar root, and the writer
    # forms the search's matrix (twice: the spectrum and the factorization
    # each overwrite theirs) and C_z on one component each, no K1 block
    # and no 2N x 2N Theta_z; the one factorization takes the search's
    # matrix shifted by the eigenvalue nearest zero, and the residual is
    # still ||Theta_z g||, bitwise on the lambda route
    grid = geo.discretize(geo.build_curve(geo.circle(1.0)), 64)
    calls, values = [], []
    write, kernel_values = bo._per_z_matrix, bo.kernel_values
    monkeypatch.setattr(bo, "_per_z_matrix",
                        lambda *a: calls.append(len(a[2])) or write(*a))
    monkeypatch.setattr(bo, "kernel_values",
                        lambda *a, **kw: values.append(a) or kernel_values(*a, **kw))
    factored = _factored(monkeypatch)
    for coup in (Coupling(-1.0, -1.0), Coupling(1.0, -1.0), Coupling(3.0, 1.0)):
        ev = sp._hermitian_eigs(grid, coup, 0.3)
        calls.clear()
        values.clear()
        factored.clear()
        (pair,) = sp._cluster_pairs(grid, coup, 0.3, 1, 0)
        assemblies = list(calls)
        assert len(values) == 1 and len(factored) == 1
        want = sp._hermitian_matrix(grid, coup, 0.3)
        want[np.diag_indices_from(want)] -= ev[np.argmin(np.abs(ev))]
        assert factored[0][0].tobytes() == want.tobytes()
        want = np.linalg.norm(bo.assemble_theta(grid, 0.3, coup) @ pair.density)
        if coup.is_critical:
            assert assemblies == [1, 1, 1]
            assert pair.residual == pytest.approx(want, rel=1e-13, abs=0.0)
        else:
            assert pair.residual == want


def test_root_step_factors_the_matrix_shifted_into_the_cluster_window(circle_grid_128,
                                                                      monkeypatch):
    # the scalar double root of the circle: one factorization per cluster,
    # of its matrix shifted by the mean of the kept eigenvalues, with a
    # block of as many columns as the cluster has roots and two steps; the
    # eigenvalues are those of the one exact spectrum of that matrix
    coup = Coupling(-1.0, -1.0)
    z_of, spectra = {}, {}
    hermitian, eigvalsh = sp._hermitian_matrix, sp._eigvalsh

    def record_matrix(grid, coupling, z, values=None):
        mat = hermitian(grid, coupling, z, values)
        z_of[mat.tobytes()] = float(z)
        return mat

    def record_spectrum(a):
        formed = a.tobytes()  # before the eigensolver overwrites a
        ev = eigvalsh(a)
        if formed in z_of:
            spectra[z_of[formed]] = ev
        return ev

    monkeypatch.setattr(sp, "_hermitian_matrix", record_matrix)
    monkeypatch.setattr(sp, "_eigvalsh", record_spectrum)
    factored = _factored(monkeypatch)
    pairs = sp.find_eigenvalues(circle_grid_128, sp.gap_sweep(circle_grid_128, coup, samples=48))
    assert [p.cluster for p in pairs] == [0, 1, 1]
    clusters = {p.z0: [q for q in pairs if q.z0 == p.z0] for p in pairs}
    assert len(factored) == len(clusters)
    want = {}
    for z0, members in clusters.items():
        ev = spectra[z0]
        lo = int(np.argmin(np.maximum(-ev[:len(ev) - len(members) + 1], ev[len(members) - 1:])))
        mat = hermitian(circle_grid_128, coup, z0)
        mat[np.diag_indices_from(mat)] -= np.mean(ev[lo:lo + len(members)])
        want[mat.tobytes()] = len(members)
    for mat, columns, steps in factored:
        assert want[mat.tobytes()] == columns and steps == 2
    for z0, members in clusters.items():
        ev = np.sort(np.abs(spectra[z0]))
        second = ev[min(len(members), len(ev) - 1)]
        for p in members:
            assert p.second_smallest == second
            assert p.condition == ev[-1] / second
            assert p.residual <= 1e-12
    g1, g2 = (p.density for p in clusters[pairs[1].z0])
    assert abs(np.vdot(g1, g2)) <= 1e-12


@pytest.mark.parametrize("coup, sizes", [(Coupling(-1.0, -1.0), [1, 2]),
                                         (Coupling(3.0, 1.0), [1] * 7)],
                         ids=["scalar-double", "lambda"])
def test_cluster_densities_span_the_eigenspace_nearest_zero(circle_grid_128, coup, sizes):
    # any orthonormal basis of the window's eigenspace is an answer: the
    # projector onto a cluster's densities is that onto the mult
    # eigenvectors nearest zero of a dense eigensolve (here only)
    grid = circle_grid_128
    pairs = sp.find_eigenvalues(grid, sp.gap_sweep(grid, coup, samples=48))
    active = [k for k, d in enumerate(coup.diagonal) if d != 0.0]
    clusters = [[p for p in pairs if p.cluster == c] for c in range(pairs[-1].cluster + 1)]
    assert [len(members) for members in clusters] == sizes
    for members in clusters:
        g = np.stack([p.density.reshape(2, -1)[active].reshape(-1) for p in members], axis=1)
        ev, vecs = np.linalg.eigh(sp._hermitian_matrix(grid, coup, members[0].z0))
        q = vecs[:, np.argsort(np.abs(ev))[:len(members)]]
        assert np.linalg.norm(g.conj().T @ g - np.eye(len(members)), 2) <= 1e-12
        assert np.linalg.norm(g @ g.conj().T - q @ q.conj().T, 2) <= 1e-10


def test_root_step_holds_the_blocks_and_about_one_matrix():
    # the Hermitian matrix is solved and dropped before the blocks of C_z
    # are written from the same kernel values into the one matrix that
    # becomes Theta_z
    grid = geo.discretize(geo.build_curve(geo.circle(1.0)), 128)
    coup = Coupling(3.0, 1.0)
    held = bo.cz_blocks(grid, coup, bo.kernel_values(grid, 0.3, coup.mass)).nbytes
    matrix = (2 * grid.n_nodes) ** 2 * 16
    assert held == matrix
    tracemalloc.start()
    try:
        sp._cluster_pairs(grid, coup, 0.3, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= held + matrix


_SEARCH_CASES = [
    (geo.circle(1.0), 128, Coupling(1.0, 0.0)),
    (geo.circle(1.0), 128, Coupling(3.0, 1.0)),
    (geo.circle(1.0), 128, Coupling(-1.0, -1.0)),  # a double root
    (geo.square(2.0), 16, Coupling(1.0, 0.0)),
    (geo.square(2.0), 16, Coupling(-1.0, -1.0)),
    (geo.ellipse(1.5, 1.0), 128, Coupling(1.0, 0.0)),
]


def _exact_bracket_root(grid, coupling, spectra, tol, bracket):
    """The reference of ``sp._bracket_root``: brentq on the exact lambda_j,
    one Hermitian eigensolve per step, to tol/100."""
    a, b, j = bracket
    solved = dict(spectra)

    def eigs_at(z):
        if z not in solved:
            solved[z] = sp._hermitian_eigs(grid, coupling, z)
        return solved[z]

    return brentq(lambda z: eigs_at(z)[j], a, b, xtol=0.01 * tol, rtol=sp._RTOL)


def _reference_pairs(grid, sweep, tol, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(sp, "_bracket_root", _exact_bracket_root)
        return sp.find_eigenvalues(grid, sweep, tol)


def _f2py_factor_step(h, vec, steps=1):
    """The reference of ``sp._factor_step``: the same LAPACK routines through
    scipy's f2py wrappers, which hold the interpreter lock."""
    kind = "he" if np.iscomplexobj(h) else "sy"
    trf, trs, trf_lwork = get_lapack_funcs((kind + "trf", kind + "trs", kind + "trf_lwork"),
                                           (h,))
    udu, ipiv, info = trf(h.T, lwork=int(trf_lwork(len(h))[0].real), overwrite_a=True)
    assert info == 0
    for _ in range(steps):
        x = trs(udu, ipiv, vec.conj())[0].conj()
        lam = float(np.vdot(x, vec).real / np.vdot(x, x).real)
        vec = x / np.linalg.norm(x)
    d = udu.diagonal().real.copy()
    k = np.flatnonzero(ipiv < 0)[::2]
    mean = 0.5 * (d[k] + d[k + 1])
    half = np.hypot(0.5 * (d[k] - d[k + 1]), np.abs(udu[k, k + 1]))
    d[k], d[k + 1] = mean - half, mean + half
    return int(np.sum(d < 0.0)), lam, vec


_INERTIA_CASES = pytest.mark.parametrize("spec, nodes, coup", [
    (geo.circle(1.0), 128, Coupling(1.0, 0.0)),
    (geo.circle(1.0), 128, Coupling(-1.0, -1.0)),
    (geo.square(2.0), 64, Coupling(1.0, 0.0)),
    (geo.square(2.0), 64, Coupling(-1.0, -1.0)),
    (geo.ellipse(1.5, 0.7), 128, Coupling(1.0, 0.0)),
    (geo.ellipse(1.5, 0.7), 128, Coupling(-1.0, -1.0)),
], ids=["circle-lambda", "circle-scalar", "square-lambda", "square-scalar",
        "ellipse-lambda", "ellipse-scalar"])


@_INERTIA_CASES
def test_in_place_solves_are_bitwise_those_of_numpy_and_f2py(spec, nodes, coup):
    # the same LAPACK routines in the same workspace: the spectrum is
    # numpy's eigvalsh's and the factor step the f2py one's, to the bit, for
    # one and several columns, complex on the lambda route and real on the
    # scalar one; the right-hand side is copied, so vec is left as it was
    grid = geo.discretize(geo.build_curve(spec), nodes)
    for z in np.linspace(*sp.default_window(coup), 4):
        h = sp._hermitian_matrix(grid, coup, z)
        assert np.iscomplexobj(h) == (coup.mu == 0.0)
        assert sp._eigvalsh(h.copy()).tobytes() == np.linalg.eigvalsh(h).tobytes()
        for columns, steps in ((1, sp._START_STEPS), (2, 2)):
            vec = sp._start(len(h), columns)
            count, lam, got = sp._factor_step(h.copy(), vec, steps)
            want = _f2py_factor_step(h.copy(), vec, steps)
            assert (count, lam) == want[:2]
            assert got.tobytes() == want[2].tobytes()
            assert vec.tobytes() == sp._start(len(h), columns).tobytes()


def test_lapack_call_refuses_what_the_routine_would_misread():
    # checked against the routine's C signature before LAPACK runs: a real
    # right-hand side for zhetrs (read as complex, past its end), a strided
    # matrix, a float where a C int goes, and a missing argument
    h, ipiv, rhs = np.eye(4, dtype=complex), np.zeros(4, np.intc), np.ones((4, 1))
    for args in [("U", 4, 1, h, 4, ipiv, rhs, 4),
                 ("U", 4, 1, np.eye(8, dtype=complex)[::2, ::2], 4, ipiv, rhs + 0j, 4),
                 ("U", 4, 1.0, h, 4, ipiv, rhs + 0j, 4),
                 ("U", 4, 1, h, 4, ipiv, rhs + 0j)]:
        with pytest.raises(TypeError):
            sp._lapack_call("zhetrs", *args)


@pytest.mark.parametrize("solve", ["factor_step", "eigvalsh"])
def test_a_thread_runs_beside_the_search_solves(solve):
    # the LAPACK calls release the interpreter lock: a thread spinning
    # beside a 2N = 1024 solve (one BLAS thread, as on the solve pool) is
    # held up for a small fraction of the call at most, where the f2py
    # factorization stalled it for most of it (best of three, against
    # preemption on a loaded machine)
    grid = geo.discretize(geo.build_curve(geo.circle(1.0)), 512)
    h = sp._hermitian_matrix(grid, Coupling(1.0, 0.0), 0.3)
    run = {"factor_step": lambda a: sp._factor_step(a, sp._start(len(a)), sp._START_STEPS),
           "eigvalsh": sp._eigvalsh}[solve]

    def stall_and_call():
        stop, stalls = threading.Event(), []

        def spin():
            last, worst = time.perf_counter(), 0.0
            while not stop.is_set():
                now = time.perf_counter()
                worst, last = max(worst, now - last), now
            stalls.append(worst)

        a = h.copy()
        spinner = threading.Thread(target=spin)
        spinner.start()
        time.sleep(0.01)
        start = time.perf_counter()
        run(a)
        call = time.perf_counter() - start
        stop.set()
        spinner.join()
        return stalls[0], call

    with bo.solve_pool():
        stall, call = min((stall_and_call() for _ in range(3)), key=lambda sc: sc[0] / sc[1])
    assert stall <= 0.2 * call


def test_sweep_sample_takes_its_spectrum_in_place_of_its_matrix(monkeypatch):
    # the eigensolver runs on the buffer the writer formed, not on a copy,
    # and one sample peaks below two matrices (numpy's eigvalsh copied its
    # input with an allocator tracemalloc does not see)
    grid = geo.discretize(geo.build_curve(geo.circle(1.0)), 128)
    coup = Coupling(1.0, 0.0)
    formed, solved = [], []
    hermitian, lapack_call = bo.hermitian_matrix, sp._lapack_call

    def record_matrix(*args):
        mat = hermitian(*args)
        formed.append(mat.ctypes.data)
        return mat

    def record_solve(name, *args):
        if name.endswith("evd"):
            solved.append(args[3].ctypes.data)  # (jobz, uplo, n, a, ...)
        return lapack_call(name, *args)

    sp._hermitian_eigs(grid, coup, 0.3)  # the grid's tables, outside the trace
    monkeypatch.setattr(bo, "hermitian_matrix", record_matrix)
    monkeypatch.setattr(sp, "_lapack_call", record_solve)
    matrix = (2 * grid.n_nodes) ** 2 * 16
    tracemalloc.start()
    try:
        sp._hermitian_eigs(grid, coup, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(formed) == 1 and solved == formed * 2  # the workspace query, then the solve
    assert matrix <= peak < 2 * matrix


@_INERTIA_CASES
def test_factor_step_counts_the_negative_eigenvalues(spec, nodes, coup, monkeypatch):
    # Sylvester's law on the Bunch-Kaufman factor: its negative count is
    # eigvalsh's at every z, 2x2 pivots included (complex on the lambda
    # route, real on the scalar one); its value is the Rayleigh quotient of
    # the unit vector it returns
    grid = geo.discretize(geo.build_curve(spec), nodes)
    pivots = []
    lapack_call = sp._lapack_call

    def spy(name, *args):
        info = lapack_call(name, *args)
        if name.endswith("trf") and args[-1] != -1:  # not the workspace query
            pivots.append(args[4].copy())  # (uplo, n, a, lda, ipiv, work, lwork)
        return info

    monkeypatch.setattr(sp, "_lapack_call", spy)
    for z in np.linspace(*sp.default_window(coup), 16):
        h = sp._hermitian_matrix(grid, coup, z)
        assert np.iscomplexobj(h) == (coup.mu == 0.0)
        ev = np.linalg.eigvalsh(h)
        count, lam, vec = sp._factor_step(h.copy(), sp._start(len(ev)), sp._START_STEPS)
        assert count == int(np.sum(ev < 0.0))
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
        assert abs(lam - np.vdot(vec, h @ vec).real) <= 1e-12 * np.max(np.abs(ev))
    assert len(pivots) == 16
    assert any(np.any(ipiv < 0) for ipiv in pivots)


@pytest.mark.parametrize("spec, nodes, coup", _SEARCH_CASES,
                         ids=["circle-1-0", "circle-3-1", "circle-double", "square-lambda",
                              "square-scalar", "ellipse"])
def test_certified_roots_match_exact_brentq(spec, nodes, coup, monkeypatch):
    # brentq to tol/2 on values whose sign is the inertia's: the roots of
    # brentq on exact spectra to within tol/2, with the same clusters, and
    # one exact spectrum per cluster
    grid = geo.discretize(geo.build_curve(spec), nodes)
    sweep = sp.gap_sweep(grid, coup, samples=48)
    solves = []
    eigvalsh = sp._eigvalsh
    for tol in (1e-12, 1e-8):
        want = _reference_pairs(grid, sweep, tol, monkeypatch)
        with monkeypatch.context() as m:
            m.setattr(sp, "_eigvalsh", lambda h: solves.append(1) or eigvalsh(h))
            got = sp.find_eigenvalues(grid, sweep, tol)
        assert len(got) == len(want) >= 1
        assert [p.cluster for p in got] == [p.cluster for p in want]
        assert max(abs(p.z0 - q.z0) for p, q in zip(got, want)) <= 0.5 * tol
        assert len(solves) == len({p.cluster for p in got})
        solves.clear()


def test_corrupted_magnitudes_keep_each_root_within_half_tol(circle_grid_128, monkeypatch):
    # the values' signs come from the inertia, so Rayleigh quotients of the
    # wrong sign or of any size only slow brentq: negated, sign-only and
    # random ones give the reference roots to within tol/2, each before
    # brentq's maxiter
    tol = 1e-12
    rng = np.random.default_rng(7)
    factor_step = sp._factor_step
    for coup in (Coupling(3.0, 1.0), Coupling(-1.0, -1.0)):
        sweep = sp.gap_sweep(circle_grid_128, coup, samples=48)
        want = _reference_pairs(circle_grid_128, sweep, tol, monkeypatch)
        for corrupt in (lambda lam: -lam, np.sign, lambda lam: 10.0 ** rng.uniform(-3, 3)):
            def corrupted(*args, **kwargs):
                count, lam, vec = factor_step(*args, **kwargs)
                return count, corrupt(lam), vec

            with monkeypatch.context() as m:
                m.setattr(sp, "_factor_step", corrupted)
                got = sp.find_eigenvalues(circle_grid_128, sweep, tol)
            assert len(got) == len(want) >= 1
            assert [p.cluster for p in got] == [p.cluster for p in want]
            assert max(abs(p.z0 - q.z0) for p, q in zip(got, want)) <= 0.5 * tol


def _brent_run(solver, f, a, b, **kwargs):
    """What ``solver`` returns (as float.hex) or the type of what it raises
    on f over [a, b], and the points at which it evaluated f, in order."""
    points = []
    try:
        result = solver(lambda x: points.append(x.hex()) or f(x), a, b, **kwargs).hex()
    except (ValueError, RuntimeError) as err:
        result = type(err)
    return result, points


def _brent_cases(c):
    """Functions with a sign change at c in (-1, 1): smooth ones, the
    search's values (a count gives the sign, another function the size),
    step functions and signed zeros."""
    def size(x):
        return 0.5 + 0.4 * math.sin(7.0 * x)

    return [
        lambda x: math.sin(3.0 * (x - c)) + 0.1 * (x - c),
        lambda x: (x - c) ** 3 - 0.01 * (x - c),
        lambda x: math.exp(x) - math.exp(c),
        lambda x: math.copysign(abs(x - c) ** 0.3, x - c),
        lambda x: -abs(size(x)) if x < c else abs(size(x)),
        lambda x: -abs((x - c) * (1.0 + x * x)) if x < c else abs(x - c) * 1e-6,
        lambda x: np.float64(-1.0 if x < c else 1.0),
        lambda x: -0.0 if x < c else 1.0,
        lambda x: -1.0 if x < c else 0.0,
        lambda x: 0.0 * (x - c),
    ]


def test_brentq_is_scipys_bit_for_bit():
    # the package's Brent loop returns scipy's float and evaluates f at
    # scipy's points in scipy's order, on the tolerances of the search
    from scipy.optimize import brentq as scipy_brentq

    rng = np.random.default_rng(11)
    for c in rng.uniform(-0.9, 0.9, 12):
        for f in _brent_cases(c):
            for a, b in ((-1.0, 1.0), (1.0, -1.0), (-1.0, c), (c, 1.0)):
                for xtol in (5e-13, 5e-9):
                    kwargs = dict(xtol=xtol, rtol=sp._RTOL)
                    want = _brent_run(scipy_brentq, f, a, b, **kwargs)
                    assert _brent_run(sp.brentq, f, a, b, **kwargs) == want
    # dyadic tolerances, where a half bracket can equal the tolerance
    for c in (-0.3, 5 / 16, 0.7):
        for f in (lambda x: -1.0 if x < c else 1.0, lambda x: x - c):
            for k in range(14):
                kwargs = dict(xtol=2.0 ** -k, rtol=sp._RTOL)
                want = _brent_run(scipy_brentq, f, -1.0, 1.0, **kwargs)
                assert _brent_run(sp.brentq, f, -1.0, 1.0, **kwargs) == want


@pytest.mark.parametrize("f, kwargs", [
    (lambda x: x * x + 1.0, {}),  # one sign at both ends
    (lambda x: math.nan if x > 0.5 else x - 0.3, {}),  # NaN at an end
    (lambda x: math.nan if 0.2 < x < 0.9 else x - 0.7, {}),  # NaN inside
    (lambda x: -1.0 if x < 0.3 else 1.0, {"maxiter": 3}),  # bisection needs 42
    (lambda x: x - 0.3, {"xtol": 0.0}),
    (lambda x: x - 0.3, {"rtol": 1e-16}),
])
def test_brentq_raises_as_scipy_does(f, kwargs):
    from scipy.optimize import brentq as scipy_brentq

    kwargs = {"xtol": 5e-13, "rtol": sp._RTOL, **kwargs}
    got = _brent_run(sp.brentq, f, -1.0, 1.0, **kwargs)
    assert got == _brent_run(scipy_brentq, f, -1.0, 1.0, **kwargs)
    assert got[0] in (ValueError, RuntimeError)


def test_search_calls_no_dense_or_sparse_eigenvector_solver(circle_grid_128, monkeypatch):
    # nor an LU solve: the roots' eigenvectors come from the one
    # factorization of each cluster's shifted matrix
    import scipy.linalg
    import scipy.sparse.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("the search called an eigenvector solver or an LU solve")

    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    for coup in (Coupling(1.0, 0.0), Coupling(-1.0, -1.0)):
        pairs = sp.find_eigenvalues(circle_grid_128,
                                    sp.gap_sweep(circle_grid_128, coup, samples=32))
        assert len(pairs) >= 1


@pytest.mark.parametrize("tol", [1e-13, 2e-8, 0.01])
def test_find_eigenvalues_refuses_tol_outside_its_range(circle_grid_128, tol):
    sweep = sp.gap_sweep(circle_grid_128, Coupling(1.0, 0.0), samples=16)
    with pytest.raises(SpectralParameterError):
        sp.find_eigenvalues(circle_grid_128, sweep, tol)


_SHAPES = [(geo.circle(1.0), 128), (geo.square(1.0), 16), (geo.l_shape(1.0), 16)]


@pytest.mark.parametrize("spec, nodes", _SHAPES[:2])
def test_lambda_sample_forms_no_spinor_cz(spec, nodes, monkeypatch):
    # a sweep sample writes the Hermitian matrix from the symmetric kernels;
    # the 2N x 2N C_z is never formed
    grid = geo.discretize(geo.build_curve(spec), nodes)

    def refuse(*args):
        raise AssertionError("sweep sample formed the 2N x 2N C_z")

    monkeypatch.setattr(bo, "assemble_Cz", refuse)
    monkeypatch.setattr(bo, "cz_blocks", refuse)
    herm = sp._hermitian_matrix(grid, Coupling(3.0, 1.0, 1.0), 0.3)
    assert herm.shape == (2 * grid.n_nodes, 2 * grid.n_nodes)


@pytest.mark.parametrize("spec, nodes", _SHAPES)
def test_sweep_hermitian_matrix_is_hermitian_and_the_hermitian_part(spec, nodes):
    # written once from the kernel values, component by component, without
    # Lambda_z: exactly Hermitian, and (L + L^H)/2 to within the last bit of
    # its largest entry, (M + M^T)/2 + I/(2 eps) on the scalar route
    grid = geo.discretize(geo.build_curve(spec), nodes)
    n = grid.n_nodes
    ulp = 2 * np.finfo(float).eps
    for z in (-0.9, 0.3, 0.97):
        c = Coupling(3.0, 1.0, 1.0)
        lam = bo.assemble_lambda(grid, z, c)
        want = 0.5 * (lam + lam.conj().T)
        got = sp._hermitian_matrix(grid, c, z)
        assert np.array_equal(got, got.conj().T)
        assert np.max(np.abs(got - want)) <= ulp * np.max(np.abs(want))
        for c, sign in ((Coupling(1.5, 1.5), 1.0), (Coupling(-1.0, 1.0), -1.0)):
            m = (z + sign * c.mass) * bo.assemble_Sz(grid, z, c)
            want = 0.5 * (m + m.T) + np.eye(n) / (2 * c.eps)
            got = sp._hermitian_matrix(grid, c, z)
            assert got.dtype == float and np.array_equal(got, got.T)
            assert np.max(np.abs(got - want)) <= ulp * np.max(np.abs(want))


def test_one_z_evaluates_bessel_once_per_node_pair(monkeypatch):
    # R is symmetric, so a Hermitian sample evaluates each Bessel function
    # on the N(N-1)/2 unordered node pairs at most, not on all N^2
    grid = geo.discretize(geo.build_curve(geo.circle(1.0)), 128)
    n = grid.n_nodes
    points = {}
    for name in ("bessel_i0", "bessel_k0", "bessel_i1", "bessel_k1"):
        def counted(x, name=name, fn=getattr(bo.K, name)):
            points[name] = points.get(name, 0) + np.size(x)
            return fn(x)
        monkeypatch.setattr(bo.K, name, counted)
    sp._hermitian_matrix(grid, Coupling(1.0, 0.0), 0.3)
    assert set(points) == {"bessel_i0", "bessel_k0", "bessel_i1", "bessel_k1"}
    assert max(points.values()) <= n * (n - 1) // 2


@pytest.mark.parametrize("spec, nodes", _SHAPES[:2], ids=["circle", "square"])
@pytest.mark.parametrize("coup", [Coupling(1.0, 0.0), Coupling(-1.0, -1.0)],
                         ids=["lambda", "scalar"])
def test_pooled_search_matches_one_worker(spec, nodes, coup, monkeypatch):
    # the pool changes which thread solves a sample and its BLAS width, so
    # only the last bits may move
    grid = geo.discretize(geo.build_curve(spec), nodes)
    pooled = sp.gap_sweep(grid, coup, samples=48)
    pooled_pairs = sp.find_eigenvalues(grid, pooled)
    monkeypatch.setattr(bo, "_openblas_thread_setters", lambda: [])
    single = sp.gap_sweep(grid, coup, samples=48)
    single_pairs = sp.find_eigenvalues(grid, single)
    assert np.max(np.abs(pooled.eigenvalues - single.eigenvalues)) <= 1e-12
    assert len(pooled_pairs) == len(single_pairs) >= 1
    assert [p.cluster for p in pooled_pairs] == [p.cluster for p in single_pairs]
    assert max(abs(p.z0 - q.z0) for p, q in zip(pooled_pairs, single_pairs)) <= 1e-12


def _blas_thread_counts(setters):
    counts = []
    for set_threads in setters:
        count = set_threads(1)
        set_threads(count)
        counts.append(count)
    return counts


def test_solve_pool_gives_back_the_blas_thread_counts(circle_grid_128):
    setters = bo._openblas_thread_setters()
    if not setters:
        pytest.skip("no OpenBLAS library that sets its thread count")
    before = _blas_thread_counts(setters)
    sp.find_eigenvalues(circle_grid_128,
                        sp.gap_sweep(circle_grid_128, Coupling(1.0, 0.0), samples=16))
    assert _blas_thread_counts(setters) == before
    with pytest.raises(ZeroDivisionError):
        with bo.solve_pool() as solve_map:
            list(solve_map(lambda x: 1.0 / x, [1.0, 0.0, 2.0]))
    assert _blas_thread_counts(setters) == before


def test_pooled_sweep_builds_each_grid_table_once(monkeypatch):
    # four workers switching threads every microsecond: tables that two
    # workers found missing at once would be built twice.  The sweep and the
    # search's brackets and roots each build the grid's one table set on the
    # calling thread, not among a worker's per-z arrays, on a grid whose
    # tables are missing; the sweep's samples mapped on the pool alone (five
    # times, on a cleared grid) build it once
    builds, builders = [], set()
    for name in ("log_weight_table", "cauchy_weight_table"):  # one call per build
        build = getattr(bo, name)

        def counted(grid, *args, build=build):
            builds.append(build.__name__)
            builders.add(threading.get_ident())
            return build(grid, *args)
        monkeypatch.setattr(bo, name, counted)
    once = ["log_weight_table", "cauchy_weight_table"]
    setters = bo._openblas_thread_setters()
    monkeypatch.setattr(bo, "_openblas_thread_setters", lambda: [*setters, lambda n: 4])
    grid = geo.discretize(geo.build_curve(geo.square(1.0)), 16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sweep = sp.gap_sweep(grid, Coupling(1.0, 0.0), samples=32)
        assert builds == once
        grid.cache().clear()
        builds.clear()
        assert len(sp.find_eigenvalues(grid, sweep)) >= 1
        assert builds == once
        assert builders == {threading.get_ident()}
        for _ in range(5):
            grid.cache().clear()
            builds.clear()
            with bo.solve_pool() as solve_map:
                list(solve_map(functools.partial(sp._hermitian_eigs, grid, sweep.coupling),
                               sweep.z_samples))
            assert builds == once
    finally:
        sys.setswitchinterval(interval)


def test_scalar_route_positive_coupling_empty(circle_grid_128):
    sweep = sp.gap_sweep(circle_grid_128, Coupling(1.0, 1.0), samples=48)
    assert sp.find_eigenvalues(circle_grid_128, sweep) == []


def test_no_spurious_roots_dominated_coupling(circle_grid_256):
    # |eps| < |mu| away from thresholds: every detected root must survive the
    # PDE-residual test (none may be a quadrature artifact)
    c = Coupling(0.0, 1.0, 1.0)
    sweep = sp.gap_sweep(circle_grid_256, c, samples=48)
    pairs = sp.find_eigenvalues(circle_grid_256, sweep)
    rng = np.random.default_rng(21)
    for p in pairs:
        pts = []
        while len(pts) < 8:
            x = rng.uniform(-3, 3, size=2)
            if abs(np.linalg.norm(x) - 1.0) >= 0.2:
                pts.append(x)
        pts = np.array(pts)
        h = 1e-4
        vals = {}
        for dx, dy in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
            vals[(dx, dy)], _ = sp.eigenfunction(circle_grid_256, p,
                                                 pts + h * np.array([dx, dy]))
        s1 = np.array([[0, 1], [1, 0]], dtype=complex)
        s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
        s3 = np.array([[1, 0], [0, -1]], dtype=complex)
        d1 = (vals[(1, 0)] - vals[(-1, 0)]) / (2 * h)
        d2 = (vals[(0, 1)] - vals[(0, -1)]) / (2 * h)
        f0 = vals[(0, 0)]
        resid = -1j * (s1 @ d1 + s2 @ d2) + s3 @ f0 - p.z0 * f0
        assert np.linalg.norm(resid) / np.linalg.norm(f0) < 1e-3


def test_lambda_m_lower_bound(circle_grid_256):
    c = Coupling(1.0, 2.0, 1.0)
    lam = bo.assemble_lambda(circle_grid_256, c.mass, c)
    h = 0.5 * (lam + lam.conj().T) * c.strength
    ev = np.linalg.eigvalsh(h)
    assert np.min(np.abs(ev)) >= (abs(c.mu) - abs(c.eps)) - 1e-3


def test_eigenfunction_pde_residual(circle_grid_256):
    c = Coupling(1.0, 0.0, 1.0)
    sweep = sp.gap_sweep(circle_grid_256, c, samples=48)
    pairs = sp.find_eigenvalues(circle_grid_256, sweep)
    p = pairs[-1]
    rng = np.random.default_rng(3)
    pts = []
    while len(pts) < 20:
        x = rng.uniform(-3, 3, size=2)
        if abs(np.linalg.norm(x) - 1.0) >= 0.2:
            pts.append(x)
    pts = np.array(pts)
    h = 1e-4
    stencil = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    vals = {}
    for dx, dy in stencil:
        shifted = pts + h * np.array([dx, dy])
        vals[(dx, dy)], _ = sp.eigenfunction(circle_grid_256, p, shifted)
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    d1 = (vals[(1, 0)] - vals[(-1, 0)]) / (2 * h)
    d2 = (vals[(0, 1)] - vals[(0, -1)]) / (2 * h)
    f0 = vals[(0, 0)]
    resid = (-1j * (s1 @ d1 + s2 @ d2) + s3 @ f0 - p.z0 * f0)
    rel = np.linalg.norm(resid) / np.linalg.norm(f0)
    assert rel < 1e-3


def test_eigenfunction_decay(circle_grid_256):
    c = Coupling(1.0, 0.0, 1.0)
    sweep = sp.gap_sweep(circle_grid_256, c, samples=48)
    p = sp.find_eigenvalues(circle_grid_256, sweep)[-1]
    kappa = math.sqrt(1.0 - p.z0**2)
    v3, _ = sp.eigenfunction(circle_grid_256, p, np.array([[3.0, 0.0]]))
    v8, _ = sp.eigenfunction(circle_grid_256, p, np.array([[8.0, 0.0]]))
    a3 = np.max(np.abs(v3))
    a8 = np.max(np.abs(v8))
    assert a8 <= a3 * math.exp(-kappa * 4.0) / 2.0


def test_eigenfunction_transmission_condition(circle_grid_256):
    c = Coupling(1.0, 0.0, 1.0)
    sweep = sp.gap_sweep(circle_grid_256, c, samples=48)
    p = sp.find_eigenvalues(circle_grid_256, sweep)[-1]
    g = circle_grid_256
    h = 1e-3
    fin, _ = sp.eigenfunction(circle_grid_256, p, g.nodes - h * g.normals)
    fout, _ = sp.eigenfunction(circle_grid_256, p, g.nodes + h * g.normals)
    jump = fin - fout
    lhs = c.matrix() @ (fin + fout) / 2 + 1j * np.stack([np.conj(g.nc) * jump[1],
                                                         g.nc * jump[0]])
    rel = np.linalg.norm(lhs) / np.linalg.norm(fin)
    assert rel < 5e-2


def test_verify_identities_circle(circle_grid_256):
    rep = sp.verify_identities(circle_grid_256, 0.3, Coupling(3.0, 1.0, 1.0))
    assert rep.all_passed
    names = [c.name for c in rep.checks]
    assert names == ["cc2", "jump_two_sided", "jump_one_sided", "csq_compact",
                     "resolvent_cancellation"]


def test_verify_identities_peak_memory(circle_grid_256):
    # C_z, the square of C_z (sigma . nu) in place of its factor and dropped
    # before the potential, and I - C_z Lambda^-1 formed in place: the peak
    # was 26 MB (6.5 of the 4 MB matrices) before, 22 MB after; Lambda_z
    # factored and the identity solved in place, Lambda_z's factor dropped
    # before the product: 16 MB
    g = circle_grid_256
    bo.grid_tables(g)
    tracemalloc.start()
    try:
        rep = sp.verify_identities(g, 0.0, Coupling(3.0, 1.0, 1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.all_passed
    assert peak <= 4.5 * (2 * g.n_nodes) ** 2 * 16


def test_verify_identities_evaluates_the_potential_once(circle_grid_128, monkeypatch):
    # the inside and outside points share one call, so the density goes to
    # the fine grid once
    sizes = []
    evaluate = bo.evaluate_potential
    monkeypatch.setattr(bo, "evaluate_potential",
                        lambda grid, dens, z, coupling, points:
                        sizes.append(len(points)) or evaluate(grid, dens, z, coupling, points))
    rep = sp.verify_identities(circle_grid_128, 0.3, Coupling(3.0, 1.0, 1.0))
    assert sizes == [2 * circle_grid_128.n_nodes]
    assert rep.all_passed


@pytest.mark.parametrize("offset, seed", [(0.0, 1234), (-1e-3, 1234), (math.nan, 1234),
                                          (1e-3, -1)])
def test_verify_identities_refuses_its_domain_before_any_assembly(circle_grid_128, monkeypatch,
                                                                   offset, seed):
    # a non-positive offset once ran and failed both jump checks, and a
    # negative seed ended in numpy's ValueError
    def refuse(*args, **kwargs):
        raise AssertionError("assembled for refused arguments")

    monkeypatch.setattr(bo, "assemble_Cz", refuse)
    with pytest.raises(DomainError):
        sp.verify_identities(circle_grid_128, 0.0, Coupling(3.0, 1.0), offset=offset, seed=seed)


def test_verify_identities_square():
    g = geo.discretize(geo.build_curve(geo.square(1.0)), 32)
    rep = sp.verify_identities(g, 0.0, Coupling(1.0, 0.0, 1.0))
    by_name = {c.name: c for c in rep.checks}
    assert by_name["jump_two_sided"].passed is None
    assert by_name["csq_compact"].passed is None
    assert np.isfinite(by_name["cc2"].residual)
    assert by_name["resolvent_cancellation"].passed


def test_verify_identities_critical_coupling(circle_grid_128):
    rep = sp.verify_identities(circle_grid_128, 0.1, Coupling(1.0, 1.0, 1.0))
    by_name = {c.name: c for c in rep.checks}
    assert by_name["resolvent_cancellation"].passed is None
