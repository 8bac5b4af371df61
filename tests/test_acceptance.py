"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with -s or on failure),
naming the violated tolerance, bracket or bound with the measured value.

Two clauses are restated as bounds the mathematics can meet:

- criterion 01 once asked for m(0.005 pi) >= 0.499, but m(theta) < 1/2
  approaches its limit only as (theta/2pi) log(1/theta), and
  m(0.005 pi) = 0.48283; it now checks the analytic small-angle bracket
  documented in ``corner_symbol.m_of`` at theta = 0.005 pi 10^-k, k = 0..3;
- criterion 05 once asked the circle residual ||C^2 - I/4|| to decrease
  strictly from N=128 to N=512, but the alternate-point rule is exact on
  the circle, so both residuals are roundoff (which grows with N); it now
  checks the a priori roundoff bound of the matrix product at both N.
"""

import importlib.util
import math
import os
import time

import numpy as np
from scipy.optimize import minimize_scalar

from diracshell import boundary_ops as bo
from diracshell import corner_symbol as cs
from diracshell import geometry as geo
from diracshell import spectral as sp
from diracshell.kernels import Coupling


def _report(num, name, failures, elapsed, budget):
    if elapsed >= budget:
        failures = failures + [f"runtime {elapsed:.1f}s exceeds budget {budget}s"]
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {status} ({elapsed:.1f}s)"
    if failures:
        line += " -- " + "; ".join(failures)
    print(line)
    assert not failures, line


def test_criterion_01_m_exactness():
    t0 = time.time()
    failures = []
    for k in range(10):
        theta = (0.5 + 0.05 * k) * math.pi
        v = cs.m_of(theta)
        if abs(v - 0.25) > 1e-9:
            failures.append(f"m({0.5 + 0.05 * k:.2f}pi) = {v!r} not 0.25 +- 1e-9")
    # small-angle limit m -> 1/2 through the bracket stated in cs.m_of; for
    # k <= 3 the true value sits >= 1.2e-9 above the lower edge, while from
    # k ~ 6 on that gap drops below double-precision roundoff
    for k in range(4):
        theta = 0.005 * math.pi * 10.0 ** -k
        v = cs.m_of(theta)
        lower = 0.5 - theta / (2 * math.pi) * (1 + math.log(2 * math.pi / theta))
        if not lower <= v < 0.5:
            failures.append(f"m({0.005 * 10.0 ** -k:.0e}pi) = {v!r} outside "
                            f"[{lower!r}, 0.5)")
    grid = np.linspace(0.01, 0.99, 200) * math.pi
    vals = np.array([cs.m_of(t) for t in grid])
    rises = np.diff(vals)
    if rises.max() > 1e-12:
        failures.append(f"monotonicity violated by {rises.max():.2e}")
    _report(1, "m(theta) exactness", failures, time.time() - t0, 5.0)


def test_criterion_02_threshold_localization():
    t0 = time.time()
    failures = []
    grid = np.linspace(0.05, 0.95, 181) * math.pi
    vals = np.array([cs.m_of(t) for t in grid])
    above = grid[vals > 0.25 + 1e-8]
    # m is non-increasing in theta, so the exceedance set is an interval
    # anchored at small theta; its upper edge is the plateau onset
    edge = above.max() if above.size else float("nan")
    if not (0.25 * math.pi < edge < 0.35 * math.pi):
        failures.append(f"plateau onset at {edge / math.pi:.4f} pi not in (0.25, 0.35) pi")
    _report(2, "threshold near 0.3 pi", failures, time.time() - t0, 5.0)


def test_criterion_03_symbol_oracle_agreement():
    t0 = time.time()
    failures = []
    worst = 0.0
    for coup in (Coupling(2, 0), Coupling(1, 3), Coupling(3, 1)):
        for tpi in np.linspace(0.3, 1.7, 21):
            if abs(tpi - 1.0) < 1e-12:
                continue
            theta = tpi * math.pi
            etas = np.linspace(-5.0, 5.0, 21)
            diff = np.abs(cs.delta_direct(theta, etas, coup)
                          - cs.delta_closed(theta, etas, coup))
            worst = max(worst, float(np.max(diff)))
    if worst > 1e-7:
        failures.append(f"max |direct - closed| = {worst:.2e} > 1e-7")
    _report(3, "symbol oracle agreement", failures, time.time() - t0, 60.0)


def test_criterion_04_mellin_reference():
    t0 = time.time()
    failures = []
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(50):
        alpha = complex(rng.uniform(0.4, 1.6),
                        rng.choice([-1, 1]) * rng.uniform(0.1, 0.8))
        omega = float(rng.choice([-1, 1]) * rng.uniform(0.15, 0.85) * math.pi)
        b = float(rng.uniform(0.5, 2.0))
        diff = abs(cs.mellin_reference(alpha, omega, b)
                   - cs.mellin_reference_quadrature(alpha, omega, b))
        worst = max(worst, diff)
    if worst > 1e-10:
        failures.append(f"max |closed - quadrature| = {worst:.2e} > 1e-10")
    _report(4, "Mellin reference formula", failures, time.time() - t0, 10.0)


def test_criterion_05_circle_cauchy_oracle(circle_grid_128, circle_grid_512):
    t0 = time.time()
    failures = []
    resid = {}
    u = 2.0 ** -53
    for grid in (circle_grid_128, circle_grid_512):
        a = bo.assemble_cauchy(grid)
        n = grid.n_nodes
        resid[n] = float(np.linalg.norm(a @ a - 0.25 * np.eye(n), 2))
        # the rule is exact on the circle, so the residual is the rounding
        # of A's entries and of the complex product A A: at most about
        # (n + O(1)) u || |A| |A| ||_2, and || |A| |A| ||_2 <= || |A| ||_2^2
        bound = 2 * n * u * float(np.linalg.norm(np.abs(a), 2)) ** 2
        if resid[n] > bound:
            failures.append(
                f"||C^2 - I/4|| = {resid[n]:.3e} exceeds the roundoff bound "
                f"2 N u |||A|||^2 = {bound:.3e} at N={n}")
    if resid[512] > 1e-6:
        failures.append(f"||C^2 - I/4|| = {resid[512]:.2e} > 1e-6 at N=512")
    a = bo.assemble_cauchy(circle_grid_512)
    th = circle_grid_512.param
    for mode in range(-3, 4):
        g = np.exp(1j * mode * th)
        lam = 0.5 if mode >= 0 else -0.5
        err = float(np.max(np.abs(a @ g - lam * g)))
        if err > 1e-8:
            failures.append(f"mode {mode}: residue-oracle error {err:.2e} > 1e-8")
    _report(5, "circle Cauchy oracle", failures, time.time() - t0, 30.0)


def test_criterion_06_jump_formulas(circle_grid_512):
    t0 = time.time()
    failures = []
    g = circle_grid_512
    coup = Coupling(1.0, 0.0, 1.0)
    z = 0.5
    dens = sp._smooth_test_density(g, seed=7)
    h = 1e-3
    vin, _ = bo.evaluate_potential(g, dens, z, coup, g.nodes - h * g.normals)
    vout, _ = bo.evaluate_potential(g, dens, z, coup, g.nodes + h * g.normals)
    snu_g = np.stack([np.conj(g.nc) * dens[1], g.nc * dens[0]])
    want_jump = -1j * snu_g
    rel2 = float(np.linalg.norm(vin - vout - want_jump) / np.linalg.norm(want_jump))
    if rel2 > 1e-2:
        failures.append(f"two-sided jump rel err {rel2:.2e} > 1e-2")
    czg = (bo.assemble_Cz(g, z, coup) @ dens.reshape(-1)).reshape(2, -1)
    for side, vals, sign in (("interior", vin, -1), ("exterior", vout, +1)):
        want = sign * 0.5j * snu_g + czg
        rel = float(np.linalg.norm(vals - want) / np.linalg.norm(want))
        if rel > 2e-2:
            failures.append(f"{side} trace rel err {rel:.2e} > 2e-2")
    _report(6, "jump formulas", failures, time.time() - t0, 30.0)


def test_criterion_07_cc2_identity(circle_grid_512, square_curve):
    t0 = time.time()
    failures = []
    coup = Coupling(1.0, 0.0, 1.0)

    def cc2_residual(grid):
        m = bo.assemble_Cz(grid, 0.0, coup) @ bo.sigma_nu_matrix(grid)
        return float(np.linalg.norm(m @ m + 0.25 * np.eye(2 * grid.n_nodes), 2))

    r_circle = cc2_residual(circle_grid_512)
    if r_circle > 1e-4:
        failures.append(f"circle N=512 residual {r_circle:.2e} > 1e-4")
    r_sq = {}
    for npe in (64, 128):
        grid = geo.discretize(square_curve, npe, 3.0)
        r_sq[grid.n_nodes] = cc2_residual(grid)
    if not r_sq[512] < r_sq[256]:
        failures.append(f"square residual N=512 ({r_sq[512]:.4e}) not below "
                        f"N=256 ({r_sq[256]:.4e})")
    _report(7, "squared-kernel identity", failures, time.time() - t0, 120.0)


def test_criterion_08_gamma_spectral_bound(circle_grid_256):
    t0 = time.time()
    failures = []
    coup = Coupling(1.0, 2.0, 1.0)
    gam = bo.assemble_gamma(circle_grid_256, coup)
    h = 0.5 * (gam + gam.conj().T)
    ev = np.linalg.eigvalsh(h)
    low = float(np.min(np.abs(ev)))
    if low < abs(coup.mu) - 1e-3:
        failures.append(f"min |eig Gamma| = {low:.6f} < |mu| - 1e-3")
    _report(8, "Gamma spectral gap bound", failures, time.time() - t0, 30.0)


def test_criterion_09_resolvent_cancellation(circle_grid_256):
    t0 = time.time()
    failures = []
    coup = Coupling(3.0, 1.0, 1.0)
    z = 0.3
    n = circle_grid_256.n_nodes
    cz = bo.assemble_Cz(circle_grid_256, z, coup)
    lam = bo.assemble_lambda(circle_grid_256, z, coup)
    inv, cond = bo.lu_solve_with_cond(lam, np.eye(2 * n, dtype=complex))
    e = bo.coupling_diagonal(coup, n)[:, None] * (np.eye(2 * n) - cz @ inv) - inv
    resid = float(np.max(np.abs(e)))
    if resid > 1e-9 * cond:
        failures.append(f"max residual {resid:.2e} > 1e-9 * cond = {1e-9 * cond:.2e}")
    _report(9, "resolvent cancellation", failures, time.time() - t0, 30.0)


def _pde_residual(grid, pair, rng):
    pts = []
    while len(pts) < 20:
        x = rng.uniform(-3, 3, size=2)
        if abs(np.linalg.norm(x) - 1.0) >= 0.2:
            pts.append(x)
    pts = np.array(pts)
    h = 1e-4
    vals = {}
    for dx, dy in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
        vals[(dx, dy)], _ = sp.eigenfunction(grid, pair, pts + h * np.array([dx, dy]))
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    d1 = (vals[(1, 0)] - vals[(-1, 0)]) / (2 * h)
    d2 = (vals[(0, 1)] - vals[(0, -1)]) / (2 * h)
    f0 = vals[(0, 0)]
    resid = -1j * (s1 @ d1 + s2 @ d2) + s3 @ f0 - pair.z0 * f0
    return float(np.linalg.norm(resid) / np.linalg.norm(f0))


def test_criterion_10_reduction_pairing(circle_grid_256, circle_grid_512):
    t0 = time.time()
    failures = []
    samples = 48
    e_base = sp.find_eigenvalues(circle_grid_512, sp.gap_sweep(
        circle_grid_512, Coupling(1.0, 0.0, 1.0), samples=samples))
    e_partner = sp.find_eigenvalues(circle_grid_512, sp.gap_sweep(
        circle_grid_512, Coupling(-4.0, 0.0, 1.0), samples=samples))
    z1 = sorted(p.z0 for p in e_base)
    z2 = sorted(p.z0 for p in e_partner)
    if not z1 or not z2:
        failures.append("no eigenvalues found for one of the paired couplings")
    else:
        haus = max(
            max(min(abs(a - b) for b in z2) for a in z1),
            max(min(abs(a - b) for b in z1) for a in z2),
        )
        if haus > 1e-6:
            failures.append(f"Hausdorff distance {haus:.2e} > 1e-6")
    rng = np.random.default_rng(99)
    for p in e_base:
        r = _pde_residual(circle_grid_512, p, rng)
        if r > 1e-3:
            failures.append(f"PDE residual {r:.2e} > 1e-3 at z0 = {p.z0:.6f}")
    e_coarse = sorted(p.z0 for p in sp.find_eigenvalues(circle_grid_256, sp.gap_sweep(
        circle_grid_256, Coupling(1.0, 0.0, 1.0), samples=samples)))
    if len(e_coarse) != len(z1):
        failures.append(f"root count changed under refinement: "
                        f"{len(e_coarse)} vs {len(z1)}")
    else:
        move = max(abs(a - b) for a, b in zip(e_coarse, z1))
        if move > 1e-6:
            failures.append(f"roots moved {move:.2e} > 1e-6 from N=256 to N=512")
    _report(10, "coupling-reduction eigenvalue pairing", failures,
            time.time() - t0, 600.0)


def test_criterion_11_critical_scalar_route(circle_grid_256):
    t0 = time.time()
    failures = []

    def theta_route_roots(coupling, scalar_roots):
        # minimize sigma_min(Theta_z) near each scalar root; the middle point
        # of the bracket is off the root, so the search does not start on it
        return [minimize_scalar(
            lambda z: sp.theta_min_singular(circle_grid_256, coupling, z), method="brent",
            bracket=(z_s - 5e-3, z_s + 1e-3, z_s + 5e-3), tol=1e-12).x for z_s in scalar_roots]

    # stated case eps = mu = 1: the scalar operator is strictly positive in
    # the gap, so both routes must agree on "no eigenvalues"
    coup = Coupling(1.0, 1.0, 1.0)
    scalar_roots = [p.z0 for p in sp.find_eigenvalues(
        circle_grid_256, sp.gap_sweep(circle_grid_256, coup, samples=48))]
    if scalar_roots:
        failures.append(f"unexpected scalar-route roots {scalar_roots}")
    sigma_scan = [sp.theta_min_singular(circle_grid_256, coup, z)
                  for z in np.linspace(-0.95, 0.95, 33)]
    if min(sigma_scan) < 1e-2:
        failures.append(f"Theta route hints at a root (min sigma "
                        f"{min(sigma_scan):.2e}) while scalar route found none")
    # exercised variant eps = mu = -1: both routes locate the same roots
    coup_neg = Coupling(-1.0, -1.0, 1.0)
    scalar_roots = sorted(p.z0 for p in sp.find_eigenvalues(
        circle_grid_256, sp.gap_sweep(circle_grid_256, coup_neg, samples=48)))
    if not scalar_roots:
        failures.append("no scalar-route roots found for eps = mu = -1")
    else:
        theta_roots = theta_route_roots(coup_neg, scalar_roots)
        worst = max(abs(a - b) for a, b in zip(scalar_roots, theta_roots))
        if worst > 1e-8:
            failures.append(f"scalar vs full-operator roots differ by {worst:.2e}")
    _report(11, "critical-coupling scalar route", failures, time.time() - t0, 300.0)


def test_criterion_12_classification_table():
    t0 = time.time()
    failures = []
    here = os.path.dirname(__file__)
    script = os.path.join(here, "..", "scripts", "make_golden_table.py")
    spec = importlib.util.spec_from_file_location("make_golden_table", script)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    regenerated = mod.build_table().encode()
    golden_path = os.path.join(here, "golden", "classification_table.csv")
    with open(golden_path, "rb") as fh:
        golden = fh.read()
    if regenerated != golden:
        failures.append("regenerated table differs from the golden file")
    rows = golden.decode().splitlines()
    if len(rows) != 13:
        failures.append(f"expected 12 data rows, found {len(rows) - 1}")
    expected = {
        ("lipschitz", "1", "1"): ("SelfAdjoint", "Thm3.1"),
        ("lipschitz", "1", "2"): ("SelfAdjoint", "Cor4.4"),
        ("c1", "1", "0"): ("SelfAdjoint", "Thm4.5"),
        ("c1", "2", "0"): ("Unknown", ""),
        ("polygon", "3", "0"): ("SelfAdjoint", "Thm5.4-upper"),
        ("polygon", "2", "0"): ("Unknown", ""),
        ("polygon", "1", "0"): ("SelfAdjoint", "Thm5.4-lower"),
    }
    seen = {}
    for row in rows[1:]:
        f = row.split(",")
        seen[(f[0], f[2], f[3])] = (f[4], f[5])
    for key, want in expected.items():
        if seen.get(key) != want:
            failures.append(f"row {key}: got {seen.get(key)}, want {want}")
    lshape = [r for r in rows[1:] if r.split(",")[2] == "1.8999999999999999"]
    if not lshape or lshape[0].split(",")[5] != "Thm5.4-lower":
        failures.append("L-shape row (eps=1.9) must certify the lower branch "
                        "via m(pi/2) = 1/4")
    _report(12, "golden classification table", failures, time.time() - t0, 5.0)
