import ast
import builtins
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import diracshell
from diracshell import boundary_ops as bo
from diracshell import cli, errors
from diracshell import corner_symbol as cs
from diracshell import spectral as sp
from diracshell.kernels import Coupling


def _schema(name):
    with resources.files("diracshell.schemas").joinpath(name).open() as fh:
        return json.load(fh)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


CLASSIFY_CFG = """
[curve]
preset = square
side = 1.0

[coupling]
eps = 3.0
mu = 0.0
mass = 1.0

[classify]
curve_class = auto
"""


def test_parse_config_values(tmp_path):
    p = _write(tmp_path, "c.cfg", """
# comment
[sec]
a = 1
b = 2.5
c = true
d = hello
e = "quoted words"
f = 1, 2.5, x
""")
    cfg = cli.parse_config(p)
    assert cfg["sec"] == {"a": 1, "b": 2.5, "c": True, "d": "hello",
                         "e": "quoted words", "f": [1, 2.5, "x"]}


def test_parse_config_errors(tmp_path):
    from diracshell.errors import ConfigError
    with pytest.raises(ConfigError):
        cli.parse_config(_write(tmp_path, "bad1.cfg", "a = 1\n"))
    with pytest.raises(ConfigError):
        cli.parse_config(_write(tmp_path, "bad2.cfg", "[s]\nnot a pair\n"))
    with pytest.raises(ConfigError):
        cli.parse_config(str(tmp_path / "missing.cfg"))
    # the last value does not win: a repeated key or section is refused
    with pytest.raises(ConfigError, match=r"dup1\.cfg:3: key eps repeated in \[coupling\]"):
        cli.parse_config(_write(tmp_path, "dup1.cfg", "[coupling]\neps = 3.0\neps = 0.0\n"))
    with pytest.raises(ConfigError, match=r"dup2\.cfg:4: section \[coupling\] opened twice"):
        cli.parse_config(_write(tmp_path, "dup2.cfg",
                                "[coupling]\neps = 3.0\n[classify]\n[coupling]\nmu = 1.0\n"))


def test_unknown_keys_rejected(tmp_path):
    p = _write(tmp_path, "c.cfg", "[coupling]\neps = 1.0\nbogus = 2\n")
    assert cli.main(["classify", "--config", p]) == cli.EXIT_CONFIG


_TRIG_CIRCLE = "[edge.0]\nkind = trig\nx = 0.0, 1.0\ny = 0.0, 0.0\n"


@pytest.mark.parametrize("command, text", [
    ("classify", "[curve]\npreset = circle\nradius = abc\n"),
    ("eigs", "[curve]\npreset = circle\n[discretization]\nnodes_per_edge = 16\n"
             "[eigs]\nsamples = many\n"),
    ("classify", "[edge.0]\nkind = trig\nx = abc\ny = 0.0, 0.0\nxs = 0.0\nys = 1.0\n"),
    ("classify", "[edge.0]\nkind = arc\ncenter = 0.0, 0.0\nphi0 = 0.0\nphi1 = 6.2831853\n"),
    ("classify", "[curve]\npreset = square\nradius = 2.0\n"),
    ("classify", "[edge.a]\nkind = poly\nx = 0.0, 1.0\ny = 0.0\n"),
    ("classify", "[curve]\npreset = rounded_square\nside = 1.0\ncorner_radius = 0.6\n"),
    ("classify", "[classify]\ncurve_class = polygon\nangles_pi = 0.5, 1.0\n"),
], ids=["non-number", "non-integer", "non-number-coefficient", "arc-without-radius",
        "key-the-preset-does-not-read", "non-integer-edge-index", "rounding-radius-too-large",
        "straight-polygon-angle"])
def test_malformed_config_exits_2(tmp_path, capsys, command, text):
    p = _write(tmp_path, "c.cfg", text + "[coupling]\neps = 3.0\nmu = 0.0\n")
    assert cli.main([command, "--config", p, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


def test_sweep_refuses_a_polygon_angle_outside_the_range_as_a_config_error(tmp_path, capsys):
    # no [coupling] eps or mu: sweep does not read them, so they cannot be
    # the reason for the exit status
    p = _write(tmp_path, "c.cfg", "[classify]\ncurve_class = polygon\nangles_pi = 2.5\n"
                                  "[sweep]\neps_steps = 3\nmu_steps = 3\n")
    assert cli.main(["sweep", "--config", p, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: [classify] angles_pi: ")


def test_scalar_coefficients_read_as_one_term_lists(tmp_path):
    # the unit circle as a trig edge, its sine coefficients written as scalars
    tail = "[coupling]\neps = 3.0\nmu = 0.0\n"
    docs = []
    for name, text in (("preset", "[curve]\npreset = circle\n"),
                       ("trig", _TRIG_CIRCLE + "xs = 0.0\nys = 1.0\n")):
        out = tmp_path / name
        p = _write(tmp_path, name + ".cfg", text + tail)
        assert cli.main(["classify", "--config", p, "--out", str(out)]) == cli.EXIT_OK
        docs.append((out / "classification.json").read_bytes())
    assert docs[0] == docs[1]


def test_missing_section_rejected(tmp_path):
    p = _write(tmp_path, "c.cfg", "[curve]\npreset = circle\n")
    assert cli.main(["classify", "--config", p]) == cli.EXIT_CONFIG


def test_classify_end_to_end(tmp_path):
    p = _write(tmp_path, "c.cfg", CLASSIFY_CFG)
    out = tmp_path / "out"
    assert cli.main(["classify", "--config", p, "--out", str(out)]) == 0
    doc = json.loads((out / "classification.json").read_text())
    jsonschema.validate(doc, _schema("classification.schema.json"))
    assert doc["verdict"] == "SelfAdjoint"
    assert doc["certificate"] == "Thm5.4-upper"
    assert not list(out.glob("*.tmp"))


def test_classify_flag_overrides(tmp_path):
    p = _write(tmp_path, "c.cfg", CLASSIFY_CFG)
    out = tmp_path / "o2"
    assert cli.main(["classify", "--config", p, "--out", str(out),
                     "--eps", "0", "--mu", "0"]) == 0
    doc = json.loads((out / "classification.json").read_text())
    assert doc["certificate"] == "Thm3.1"
    assert any("free operator" in n for n in doc["notes"])


def test_classify_deterministic(tmp_path):
    p = _write(tmp_path, "c.cfg", CLASSIFY_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["classify", "--config", p, "--out", str(out1)])
    cli.main(["classify", "--config", p, "--out", str(out2)])
    assert (out1 / "classification.json").read_bytes() == \
        (out2 / "classification.json").read_bytes()


def test_mtheta_csv(tmp_path):
    p = _write(tmp_path, "m.cfg", """
[mtheta]
theta_min_pi = 0.05
theta_max_pi = 0.95
steps = 19
tol = 1e-12
""")
    out = tmp_path / "out"
    assert cli.main(["mtheta", "--config", p, "--out", str(out)]) == 0
    rows = np.loadtxt(out / "mtheta.csv", delimiter=",", skiprows=1)
    assert rows.shape == (19, 2)
    plateau = rows[rows[:, 0] >= 0.5 * math.pi - 1e-12]
    assert np.max(np.abs(plateau[:, 1] - 0.25)) <= 1e-9


def test_symbol_csv(tmp_path):
    p = _write(tmp_path, "s.cfg", """
[coupling]
eps = 2.0
mu = 0.0

[symbol]
theta_pi = 0.5
eta_min = -1.0
eta_max = 1.0
eta_steps = 5
trunc = 60.0
tol = 1e-10
""")
    out = tmp_path / "out"
    assert cli.main(["symbol", "--config", p, "--out", str(out)]) == 0
    header = (out / "symbol.csv").read_text().splitlines()[0]
    assert header == "theta,eta,delta_closed,delta_direct_re,delta_direct_im,abs_diff"
    rows = np.loadtxt(out / "symbol.csv", delimiter=",", skiprows=1)
    assert rows.shape == (5, 6)
    assert rows[:, 5].max() < 1e-8


def test_eigs_end_to_end(tmp_path):
    p = _write(tmp_path, "e.cfg", """
[curve]
preset = circle
radius = 1.0

[coupling]
eps = 1.0
mu = 0.0

[discretization]
nodes_per_edge = 64

[eigs]
z_min = -0.95
z_max = 0.95
samples = 24
tol = 1e-10
branch_csv = true
""")
    out = tmp_path / "out"
    assert cli.main(["eigs", "--config", p, "--out", str(out)]) == 0
    doc = json.loads((out / "eigenvalues.json").read_text())
    jsonschema.validate(doc, _schema("eigenvalues.schema.json"))
    assert doc["route"] == "lambda"
    assert len(doc["eigenvalues"]) >= 1
    branches = np.loadtxt(out / "branches.csv", delimiter=",", skiprows=1)
    assert branches.shape[0] == 24


def test_eigs_window_end_left_unset_is_the_default_one(tmp_path):
    # a config that sets one end of the window gets the other end of
    # spectral.default_window, bit for bit
    base = """
[curve]
preset = circle

[coupling]
eps = 1.0
mu = 0.0

[discretization]
nodes_per_edge = 32

[eigs]
samples = 16
"""
    windows = []
    for name, extra in (("default", ""), ("z_min", "z_min = -2.5\n")):
        p = _write(tmp_path, f"{name}.cfg", base + extra)
        out = tmp_path / name
        assert cli.main(["eigs", "--config", p, "--out", str(out), "--mass", "3"]) == 0
        windows.append(json.loads((out / "eigenvalues.json").read_text())["window"])
    assert windows[1] == [-2.5, windows[0][1]]


def test_eigs_solves_each_distinct_z_once(tmp_path, monkeypatch):
    p = _write(tmp_path, "e.cfg", """
[curve]
preset = circle

[coupling]
eps = 1.0
mu = 0.0

[discretization]
nodes_per_edge = 128

[eigs]
samples = 24
""")
    from diracshell import spectral as sp

    solves, assembled = [], []

    def count_solves(fn):
        def wrapper(*args, **kwargs):
            # count the search's calls, not those of numpy or scipy
            if sys._getframe(1).f_globals.get("__name__") == "diracshell.spectral":
                solves.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    def count_assembly(fn):
        # a per-z assembly is an evaluation of the kernel values at z
        def wrapper(grid, z, *args, **kwargs):
            assembled.append(float(z))
            return fn(grid, z, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(sp, "_eigvalsh", count_solves(sp._eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", count_solves(np.linalg.eigh))
    monkeypatch.setattr(bo, "kernel_values", count_assembly(bo.kernel_values))
    out = tmp_path / "out"
    assert cli.main(["eigs", "--config", p, "--out", str(out)]) == 0
    roots = len({e["z0"] for e in json.loads((out / "eigenvalues.json").read_text())
                 ["eigenvalues"]})
    assert roots >= 1
    distinct = len(set(assembled))
    assert len(solves) <= distinct + roots
    assert len(assembled) <= distinct + roots


@pytest.mark.parametrize("tol", ["0.01", "2e-8", "1e-13"])
def test_eigs_refuses_tol_outside_its_range_before_any_numerics(tmp_path, monkeypatch,
                                                                capsys, tol):
    # 0.01 once merged the distinct roots -0.9129 and -0.8540 of the shipped
    # circle into one double root (roots within 10 tol are one cluster), and
    # 1e-13 raised only after the whole sweep
    from diracshell import spectral as sp

    def refuse(*args, **kwargs):
        raise AssertionError("numerics ran for a refused config")

    monkeypatch.setattr(sp, "gap_sweep", refuse)
    text = (_ROOT / "configs" / "eigs_circle.cfg").read_text()
    p = _write(tmp_path, "e.cfg", text.replace("tol = 1e-12", f"tol = {tol}"))
    out = tmp_path / "out"
    assert cli.main(["eigs", "--config", p, "--out", str(out)]) == cli.EXIT_CONFIG
    assert "[eigs] tol" in capsys.readouterr().err
    assert not out.exists()


def test_shipped_eigs_config_certifies_every_root(tmp_path, monkeypatch):
    # one exact spectrum per sweep sample and one per cluster; each brentq
    # step between two samples factors its matrix once, the first step of a
    # bracket takes its three solves from that one factorization, and each
    # cluster factors its shifted matrix once
    from diracshell import spectral as sp

    solves, steps, factors = [], [], []
    brentq, eigvalsh, lapack_call = sp.brentq, sp._eigvalsh, sp._lapack_call

    def count_solves(h):
        solves.append(1)
        return eigvalsh(h)

    def count_steps(f, a, b, **kwargs):
        return brentq(lambda z: steps.append(z not in (a, b)) or f(z), a, b, **kwargs)

    def count_factors(name, *args):
        if name.endswith("trf") and args[-1] != -1:  # not the workspace query
            factors.append(1)
        return lapack_call(name, *args)

    monkeypatch.setattr(sp, "_eigvalsh", count_solves)
    monkeypatch.setattr(sp, "brentq", count_steps)
    monkeypatch.setattr(sp, "_lapack_call", count_factors)
    out = tmp_path / "out"
    assert cli.main(["eigs", "--config", str(_ROOT / "configs" / "eigs_circle.cfg"),
                     "--out", str(out)]) == 0
    doc = json.loads((out / "eigenvalues.json").read_text())
    assert [p["cluster"] for p in doc["eigenvalues"]] == [0, 1, 2]
    assert len(solves) == 64 + 3
    assert len(factors) == sum(steps) + 3 > 3


@pytest.mark.parametrize("threads", ["2", "1"])
def test_eigs_artifacts_identical_across_runs(tmp_path, threads):
    # the samples and brackets are solved concurrently with --threads 2;
    # the artifacts may not depend on which worker finished first
    p = _write(tmp_path, "e.cfg", """
[curve]
preset = circle

[coupling]
eps = 1.0
mu = 0.0

[discretization]
nodes_per_edge = 64

[eigs]
samples = 24
branch_csv = true
""")
    src = str(Path(diracshell.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    runs = []
    for run in ("a", "b"):
        out = tmp_path / run
        subprocess.run([sys.executable, "-m", "diracshell.cli", "eigs", "--config", p,
                        "--out", str(out), "--threads", threads],
                       env=env, check=True, timeout=300)
        runs.append([(out / name).read_bytes()
                     for name in ("eigenvalues.json", "branches.csv")])
    assert runs[0] == runs[1]


def test_verify_end_to_end(tmp_path):
    p = _write(tmp_path, "v.cfg", """
[curve]
preset = circle
radius = 1.0

[coupling]
eps = 2.0
mu = 0.5

[discretization]
nodes_per_edge = 64

[verify]
z = 0.1
offset = 1e-2
seed = 7
""")
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", p, "--out", str(out)]) == 0
    doc = json.loads((out / "verification.json").read_text())
    jsonschema.validate(doc, _schema("verification.schema.json"))
    names = [c["name"] for c in doc["checks"]]
    assert "cc2" in names and "resolvent_cancellation" in names


def test_strict_verify_exits_3_on_degraded_near_curve_values(tmp_path):
    # 1e-5 off the N=16 circle the upsampled grid would need more than its
    # cap of 131072 nodes: both jump checks count the degraded points, say
    # so and fail, so --strict exits 3
    p = _write(tmp_path, "v.cfg", """
[curve]
preset = circle
radius = 1.0

[coupling]
eps = 3.0
mu = 1.0

[discretization]
nodes_per_edge = 16

[verify]
z = 0.0
offset = 1e-5
seed = 7
""")
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", p, "--out", str(out), "--strict"]) == \
        cli.EXIT_NUMERICAL
    doc = json.loads((out / "verification.json").read_text())
    jsonschema.validate(doc, _schema("verification.schema.json"))
    jumps = [c for c in doc["checks"] if c["name"].startswith("jump_")]
    assert len(jumps) == 2
    for check in jumps:
        assert check["details"]["degraded_points"] == 32
        assert check["passed"] is False and "degraded" in check["details"]["note"]


def test_sweep_end_to_end(tmp_path):
    p = _write(tmp_path, "s.cfg", """
[classify]
curve_class = polygon
angles_pi = 0.5, 0.5, 0.5, 0.5

[sweep]
eps_min = -3.0
eps_max = 3.0
eps_steps = 5
mu_min = -3.0
mu_max = 3.0
mu_steps = 5
""")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", p, "--out", str(out)]) == 0
    text = (out / "sweep.csv").read_text().splitlines()
    assert text[0] == "eps,mu,verdict,certificate"
    assert len(text) == 26


_SWEEP_CFG = """
[classify]
curve_class = c1

[sweep]
eps_steps = 3
mu_steps = 3
"""


@pytest.mark.parametrize("config, flags", [
    (_SWEEP_CFG, ["--mass", "-1"]),
    (_SWEEP_CFG + "[coupling]\nmass = -1.0\n", []),
], ids=["flag", "config"])
def test_sweep_refuses_a_negative_mass_from_flag_or_config(tmp_path, config, flags):
    p = _write(tmp_path, "s.cfg", config)
    assert cli.main(["sweep", "--config", p, "--out", str(tmp_path), *flags]) == \
        cli.EXIT_CONFIG


@pytest.mark.parametrize("command, config, mass", [
    ("classify", CLASSIFY_CFG, "0"),
    ("eigs", "[curve]\npreset = circle\n[coupling]\neps = 1.0\n[discretization]\n"
             "nodes_per_edge = 16\n[eigs]\n", "-1"),
], ids=["classify-zero", "eigs-negative"])
def test_a_non_positive_mass_is_a_config_error(tmp_path, capsys, command, config, mass):
    # refused in the read step, like a bad preset or angle, before any numerics
    p = _write(tmp_path, "c.cfg", config)
    out = tmp_path / "out"
    assert cli.main([command, "--config", p, "--out", str(out), "--mass", mass]) == \
        cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: coupling: mass must be positive")
    assert not out.exists()


@pytest.mark.parametrize("command, config", [
    ("mtheta", "[mtheta]\nsteps = 0\n"),
    ("mtheta", "[mtheta]\nsteps = -3\n"),
    ("symbol", "[coupling]\neps = 2.0\n[symbol]\neta_steps = 0\n"),
    ("sweep", "[classify]\ncurve_class = c1\n[sweep]\neps_steps = 0\nmu_steps = 3\n"),
    ("sweep", "[classify]\ncurve_class = c1\n[sweep]\neps_steps = 3\nmu_steps = 0\n"),
], ids=["mtheta-zero", "mtheta-negative", "symbol-zero", "sweep-eps-zero", "sweep-mu-zero"])
def test_a_range_of_fewer_than_one_step_exits_2(tmp_path, capsys, command, config):
    p = _write(tmp_path, "c.cfg", config)
    out = tmp_path / "out"
    assert cli.main([command, "--config", p, "--out", str(out)]) == cli.EXIT_CONFIG
    assert "a range needs at least one step" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config, flags", [
    ("classify", CLASSIFY_CFG.replace("eps = 3.0", "eps = nan"), []),
    ("classify", CLASSIFY_CFG, ["--mu", "inf"]),
    ("eigs", "[curve]\npreset = circle\n[coupling]\neps = 1.0\n[discretization]\n"
             "nodes_per_edge = 16\n[eigs]\nsamples = 16\n", ["--eps", "nan"]),
    ("sweep", "[classify]\ncurve_class = c1\n[sweep]\neps_min = nan\neps_steps = 3\n"
              "mu_steps = 3\n", []),
    ("mtheta", "[mtheta]\ntheta_min_pi = nan\nsteps = 3\n", []),
], ids=["classify-eps", "classify-mu-flag", "eigs-eps-flag", "sweep-range", "mtheta-range"])
def test_a_non_finite_coupling_or_range_end_exits_2(tmp_path, capsys, command, config, flags):
    # refused in the read step, before any numerics
    p = _write(tmp_path, "c.cfg", config)
    out = tmp_path / "out"
    assert cli.main([command, "--config", p, "--out", str(out), *flags]) == cli.EXIT_CONFIG
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


_VERIFY_CFG = ("[curve]\npreset = circle\n[coupling]\neps = 3.0\n[discretization]\n"
               "nodes_per_edge = 16\n[verify]\n")


def _refusal(check, *args) -> str:
    """The message with which a check of the numerics refuses its arguments."""
    with pytest.raises(errors.DiracShellError) as info:
        check(*args)
    return str(info.value)


@pytest.mark.parametrize("command, config, refusal", [
    ("symbol", "[symbol]\ntheta_pi = 0.5, 1.0\n", (cs.check_angle, math.pi, False)),
    ("symbol", "[symbol]\ntheta_pi = 2.0\n", (cs.check_angle, 2.0 * math.pi, False)),
    ("mtheta", "[mtheta]\ntheta_max_pi = 2.0\n", (cs.check_angle, 2.0 * math.pi)),
    ("mtheta", "[mtheta]\ntheta_min_pi = 0.0\n", (cs.check_angle, 0.0)),
    # once exit 0, one row
    ("mtheta", "[mtheta]\ntheta_max_pi = 7.0\nsteps = 1\n", (cs.check_angle, 7.0 * math.pi)),
    ("symbol", "[symbol]\ntrunc = 10\n", (cs.check_quadrature, 10.0, 1e-10)),
    # once an uncaught OverflowError, exit 1
    ("symbol", "[symbol]\ntrunc = 400\n", (cs.check_quadrature, 400.0, 1e-10)),
    ("symbol", "[symbol]\ntrunc = inf\n", (cs.check_quadrature, math.inf, 1e-10)),
    ("symbol", "[symbol]\ntol = 0\n", (cs.check_quadrature, 60.0, 0.0)),
    # once ran, exit 0, abs_diff 0.15 at eta = 5
    ("symbol", "[symbol]\ntol = inf\n", (cs.check_quadrature, 60.0, math.inf)),
    ("verify", _VERIFY_CFG + "offset = -1e-3\n",
     (sp.check_verify, 0.0, Coupling(3.0, 0.0), -1e-3, 1234)),
    ("verify", _VERIFY_CFG + "z = 1.5\n", (sp.check_verify, 1.5, Coupling(3.0, 0.0), 1e-3, 1234)),
    # once an uncaught numpy ValueError, exit 1
    ("verify", _VERIFY_CFG + "seed = -1\n",
     (sp.check_verify, 0.0, Coupling(3.0, 0.0), 1e-3, -1)),
], ids=["symbol-straight", "symbol-full-turn", "mtheta-full-turn", "mtheta-zero",
        "mtheta-one-step-past-the-turn", "symbol-trunc", "symbol-trunc-overflow",
        "symbol-trunc-inf", "symbol-tol", "symbol-tol-inf", "verify-offset", "verify-z",
        "verify-seed"])
def test_a_value_outside_the_domain_of_the_numerics_exits_2(tmp_path, capsys, monkeypatch,
                                                            command, config, refusal):
    # refused in the read step, like a non-finite or empty range, before
    # any numerics: not exit 3 from the numerics, nor a failed check; the
    # message is the one the numerics' own check gives for the value
    message = _refusal(*refusal)

    def refuse(*args, **kwargs):
        raise AssertionError("numerics ran for a refused config")

    for module, name in [(cs, "M"), (cs, "m_of"), (cs, "mellin_symbol"),
                         (sp, "verify_identities")]:
        monkeypatch.setattr(module, name, refuse)
    p = _write(tmp_path, "c.cfg", config)
    out = tmp_path / "out"
    assert cli.main([command, "--config", p, "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: [{command}] ")
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("extra, message, window, samples", [
    ("samples = 8\n", "at least 16", None, 8),
    ("z_min = 0.995\n", "open gap", (0.995, 0.99), 128),  # above the default z_max
    ("z_min = -1.0\n", "open gap", (-1.0, 0.99), 128),  # on the gap edge
    ("z_min = -2.0\nz_max = 2.0\n", "open gap", (-2.0, 2.0), 128),
], ids=["samples", "empty-window", "edge", "outside"])
def test_eigs_refuses_a_short_sweep_or_a_window_outside_the_gap(tmp_path, capsys, monkeypatch,
                                                               extra, message, window, samples):
    # a config error of the read step, not a numerical failure of the sweep,
    # with the message of the sweep's own check
    coupling = Coupling(1.0, 0.0)
    refusal = _refusal(sp.check_sweep, coupling, window or sp.default_window(coupling), samples)
    monkeypatch.setattr(bo, "kernel_values", None)
    p = _write(tmp_path, "e.cfg", "[curve]\npreset = circle\n[coupling]\neps = 1.0\n"
                                  "[discretization]\nnodes_per_edge = 16\n[eigs]\n" + extra)
    out = tmp_path / "out"
    assert cli.main(["eigs", "--config", p, "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err and refusal in err
    assert not out.exists()


def config_error_conversions(source: str) -> list:
    """The lines of the except handlers of ``source`` that catch a
    DiracShellError other than ConfigError (or a base class of it) and raise
    a ConfigError."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        types = [] if node.type is None else getattr(node.type, "elts", [node.type])
        caught = [getattr(errors, t.id, None) or getattr(builtins, t.id, None)
                  if isinstance(t, ast.Name) else None for t in types] or [BaseException]
        catches = any(isinstance(c, type) and c is not errors.ConfigError
                      and (issubclass(c, errors.DiracShellError)
                           or issubclass(errors.DiracShellError, c)) for c in caught)
        raises = any(isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
                     and getattr(n.exc.func, "id", None) == "ConfigError" for n in ast.walk(node))
        if catches and raises:
            found.append(node.lineno)
    return found


def test_config_error_conversions_finds_each_handler():
    source = ("try:\n    f()\nexcept DomainError as exc:\n    raise ConfigError(str(exc))\n"
              "try:\n    g()\nexcept (KeyError, Exception):\n    raise ConfigError('g')\n"
              "try:\n    h()\nexcept ConfigError:\n    raise ConfigError('h')\n"
              "try:\n    k()\nexcept DomainError:\n    pass\n")
    assert config_error_conversions(source) == [3, 7]


def test_cli_turns_a_refusal_of_the_numerics_into_a_config_error_in_one_handler():
    # every read step asks the numerics' own check through one helper, so
    # that no second wording of a rule grows beside it
    assert len(config_error_conversions(Path(cli.__file__).read_text(encoding="utf-8"))) == 1


_MTHETA_CFG = "[mtheta]\nsteps = 3\n"


@pytest.mark.parametrize("command, config, flags", [
    ("mtheta", _MTHETA_CFG + "[curve]\npreset = circle\n[eigs]\nsamples = 16\n"
               "[verify]\nz = 0.0\n", []),
    ("mtheta", _MTHETA_CFG + "[edge.0]\nkind = poly\nx = 0.0, 1.0\n", []),
    ("mtheta", _MTHETA_CFG, ["--eps", "7", "--mass", "-5"]),
    ("sweep", _SWEEP_CFG, ["--eps", "1"]),
    ("symbol", "[symbol]\neta_steps = 3\n[discretization]\nnodes_per_edge = 16\n", []),
    ("classify", CLASSIFY_CFG + "[discretization]\nnodes_per_edge = 16\n", []),
    ("eigs", "[curve]\npreset = circle\n[coupling]\neps = 1.0\n[discretization]\n"
             "[eigs]\n[classify]\ncurve_class = c1\n", []),
], ids=["mtheta-sections", "mtheta-edge", "mtheta-flags", "sweep-eps", "symbol-discretization",
        "classify-discretization", "eigs-classify"])
def test_sections_and_flags_a_command_does_not_read_exit_2(tmp_path, capsys, command,
                                                           config, flags):
    p = _write(tmp_path, "c.cfg", config)
    out = tmp_path / "out"
    assert cli.main([command, "--config", p, "--out", str(out), *flags]) == \
        cli.EXIT_CONFIG
    assert "does not read" in capsys.readouterr().err
    assert not out.exists()


_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("command, config, artifact", [
    ("classify", "classify_square", "classification.json"),
    ("sweep", "sweep_square", "sweep.csv"),
    ("mtheta", "mtheta", "mtheta.csv"),
    ("symbol", "symbol_scan", "symbol.csv"),
])
def test_blas_free_commands_reproduce_the_golden_artifacts(tmp_path, command, config, artifact):
    # tests/golden holds these commands' artifacts of the shipped configs;
    # none of them calls BLAS, so the bytes do not depend on the thread count
    p = str(_ROOT / "configs" / f"{config}.cfg")
    assert cli.main([command, "--config", p, "--out", str(tmp_path)]) == cli.EXIT_OK
    assert (tmp_path / artifact).read_bytes() == \
        (_ROOT / "tests" / "golden" / artifact).read_bytes()


def _workload_configs():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  _ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)  # a dataclass looks its module up
    return [(op.command, op.config, list(op.flags))
            for name in workloads.WORKLOADS
            for motion in (None, workloads.motion_from_seed(1))
            for op in workloads.operations(name, motion)]


def test_shipped_and_benchmark_configs_read_every_section(tmp_path):
    # the command of a shipped config is the first word of its name
    shipped = [(path.stem.split("_")[0], path.read_text(), [])
               for path in sorted((_ROOT / "configs").glob("*.cfg"))]
    assert len(shipped) == 6
    for i, (command, text, flags) in enumerate(shipped + _workload_configs()):
        cfg = cli.parse_config(_write(tmp_path, f"{i}.cfg", text))
        cli.validate_config(cfg, command, cli.build_parser().parse_args(
            [command, "--config", "c.cfg", *flags]))


def test_custom_edge_curve(tmp_path):
    p = _write(tmp_path, "c.cfg", """
[edge.0]
kind = poly
x = 0.0, 1.0
y = 0.0

[edge.1]
kind = poly
x = 1.0
y = 0.0, 1.0

[edge.2]
kind = poly
x = 1.0, -1.0
y = 1.0

[edge.3]
kind = poly
x = 0.0
y = 1.0, -1.0

[coupling]
eps = 1.0
mu = 0.0

[classify]
curve_class = auto
""")
    out = tmp_path / "out"
    assert cli.main(["classify", "--config", p, "--out", str(out)]) == 0
    doc = json.loads((out / "classification.json").read_text())
    assert doc["curve_class"] == "polygon"
    assert len(doc["angles"]) == 4


def test_arc_edge_sections_give_the_preset_grid(tmp_path):
    # the rounded square's own poly and arc edges, written as [edge.N]
    from diracshell import geometry as geo

    def numbers(*values):  # as repr writes them, which parse back bitwise
        return ", ".join(repr(float(v)) for v in values)

    sections = []
    for i, e in enumerate(geo.rounded_square(1.0, 0.2).edges):
        if e.kind == "arc":
            keys = dict(center=numbers(*e.center), radius=numbers(e.radius),
                        phi0=numbers(e.phi0), phi1=numbers(e.phi1))
        else:
            keys = dict(x=numbers(*e.xc), y=numbers(*e.yc))
        sections.append(f"[edge.{i}]\nkind = {e.kind}\n"
                        + "".join(f"{k} = {v}\n" for k, v in keys.items()))
    assert "kind = arc" in sections[1]
    text = "\n".join(sections) + "[discretization]\nnodes_per_edge = 32\n"
    grid = cli.grid_from_config(cli.parse_config(_write(tmp_path, "g.cfg", text)))
    want = geo.discretize(geo.build_curve(geo.rounded_square(1.0, 0.2)), 32)
    assert grid.nodes.tobytes() == want.nodes.tobytes()
    p = _write(tmp_path, "c.cfg", "\n".join(sections)
               + "[coupling]\neps = 1.0\nmu = 0.0\n[classify]\ncurve_class = auto\n")
    out = tmp_path / "out"
    assert cli.main(["classify", "--config", p, "--out", str(out)]) == cli.EXIT_OK
    assert json.loads((out / "classification.json").read_text())["curve_class"] == "c1"


@pytest.mark.parametrize("command", ["eigs", "verify"])
def test_a_grid_of_too_few_nodes_exits_3_before_any_assembly(tmp_path, capsys, monkeypatch,
                                                              command):
    def assembled(*args):
        raise AssertionError("assembled on a refused grid")

    monkeypatch.setattr(bo, "kernel_values", assembled)
    monkeypatch.setattr(bo, "cauchy_weight_table", assembled)
    p = _write(tmp_path, "c.cfg", "[curve]\npreset = circle\n[coupling]\neps = 1.0\n"
               f"[discretization]\nnodes_per_edge = 12\n[{command}]\n")
    out = tmp_path / "out"
    assert cli.main([command, "--config", p, "--out", str(out)]) == cli.EXIT_NUMERICAL
    assert ("InvalidRefinement: a grid needs at least 16 nodes; nodes_per_edge = 12 gives 12"
            in capsys.readouterr().err)
    assert not out.exists()


def test_edge_sections_stand_in_for_curve_section():
    for command in ("eigs", "verify"):
        cfg = {"coupling": {}, "discretization": {}, command: {}}
        with pytest.raises(cli.ConfigError, match=r"\[curve\]"):
            cli.validate_config(cfg, command)
        cli.validate_config(dict(cfg, **{"edge.0": {"kind": "poly"}}), command)


def test_verify_on_edge_curve_without_curve_section(tmp_path):
    p = _write(tmp_path, "v.cfg", """
[edge.0]
kind = trig
x = 0.0, 1.0
y = 0.0, 0.0
xs = 0.0, 0.0
ys = 1.0, 0.0

[coupling]
eps = 2.0
mu = 0.5

[discretization]
nodes_per_edge = 64

[verify]
z = 0.1
""")
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", p, "--out", str(out)]) == 0
    doc = json.loads((out / "verification.json").read_text())
    assert doc["grid_kind"] == "trapezoid"


_CIRCLE_EDGE = _TRIG_CIRCLE + "xs = 0.0\nys = 1.0\n"
_SQUARE_EDGES = """
[edge.0]
kind = poly
x = 0.0, 1.0
y = 0.0
[edge.1]
kind = poly
x = 1.0
y = 0.0, 1.0
[edge.2]
kind = poly
x = 1.0, -1.0
y = 1.0
[edge.3]
kind = poly
x = 0.0
y = 1.0, -1.0
"""


@pytest.mark.parametrize("text, status", [
    ("[curve]\npreset = square\nradius = 5.0\n" + _CIRCLE_EDGE
     + "phi0 = 3.0\ncenter = 9.0, 9.0\n", cli.EXIT_CONFIG),
    ("[curve]\npreset = square\n" + _CIRCLE_EDGE, cli.EXIT_CONFIG),
    (_CIRCLE_EDGE + "phi0 = 3.0\n", cli.EXIT_CONFIG),
    (_SQUARE_EDGES + "xs = 1.0\n", cli.EXIT_CONFIG),
    ("[curve]\n" + _CIRCLE_EDGE, cli.EXIT_OK),
], ids=["preset-keys-and-arc-keys-on-trig", "curve-keys-next-to-edges",
        "arc-key-on-trig-edge", "trig-key-on-poly-edge", "empty-curve-next-to-edges"])
def test_edge_curves_refuse_keys_they_do_not_read(tmp_path, text, status):
    # an empty [curve] next to edge sections stays accepted: older configs
    # carry one
    p = _write(tmp_path, "c.cfg", text + "[coupling]\neps = 3.0\nmu = 0.0\n")
    assert cli.main(["classify", "--config", p, "--out", str(tmp_path)]) == status


_SWEEP_TAIL = "[sweep]\neps_steps = 3\nmu_steps = 3\n"
_LIPSCHITZ = "[classify]\ncurve_class = lipschitz\n"
_ANGLES = "[classify]\ncurve_class = polygon\nangles_pi = 0.5, 0.5, 0.5, 0.5\n"
_COUPLING = "[coupling]\neps = 3.0\nmu = 0.0\n"


@pytest.mark.parametrize("command, text", [
    ("sweep", _SWEEP_CFG + "[coupling]\neps = 7.0\nmu = 2.0\nmass = 1.0\n"),
    ("classify", "[curve]\npreset = circle\nradius = 3.0\n" + _LIPSCHITZ + _COUPLING),
    ("sweep", "[curve]\n" + _SQUARE_EDGES + _SWEEP_CFG),
    ("classify", "[curve]\npreset = square\n" + _ANGLES + _COUPLING),
    ("sweep", _SQUARE_EDGES + _ANGLES + _SWEEP_TAIL),
    ("classify", _LIPSCHITZ + "angles_pi = 0.5\n" + _COUPLING),
    ("sweep", "[curve]\npreset = square\n[classify]\nangles_pi = 0.5\n" + _SWEEP_TAIL),
], ids=["sweep-coupling-eps-mu", "lipschitz-curve", "c1-edges", "angles-curve",
        "angles-edges", "lipschitz-angles", "auto-angles"])
def test_keys_a_command_does_not_read_exit_2(tmp_path, capsys, command, text):
    p = _write(tmp_path, "c.cfg", text)
    out = tmp_path / "out"
    assert cli.main([command, "--config", p, "--out", str(out)]) == cli.EXIT_CONFIG
    assert "does not read" in capsys.readouterr().err
    assert not out.exists()


# command -> (a config with every section it reads, a section it does not
# read, the flags it does not read, each as its arguments)
_READ_WHOLE = {
    "classify": (CLASSIFY_CFG, "discretization", [["--strict"]]),
    "mtheta": (_MTHETA_CFG, "coupling", [["--eps", "1"], ["--strict"]]),
    "symbol": ("[coupling]\neps = 2.0\n[symbol]\neta_steps = 3\n", "curve", [["--strict"]]),
    "eigs": ("[curve]\npreset = circle\n[coupling]\neps = 1.0\n[discretization]\n"
             "nodes_per_edge = 16\n[eigs]\nsamples = 16\n", "verify", []),
    "verify": ("[curve]\n" + _CIRCLE_EDGE + "[coupling]\neps = 1.0\n[discretization]\n"
               "nodes_per_edge = 16\n[verify]\nz = 0.0\n", "eigs", []),
    "sweep": ("[curve]\npreset = square\n[classify]\ncurve_class = auto\n[coupling]\n"
              "mass = 1.0\n" + _SWEEP_TAIL, "symbol", [["--mu", "1"], ["--strict"]]),
}


def _refusal_cases():
    for command, (text, other, flags) in _READ_WHOLE.items():
        for section in re.findall(r"^\[(.+)\]$", text, re.M):
            header = f"[{section}]\n"
            assert text.count(header) == 1
            yield pytest.param(command, text.replace(header, header + "bogus = 1\n"), [],
                               id=f"{command}-{section}-key")
        yield pytest.param(command, text + f"[{other}]\n", [], id=f"{command}-{other}")
        for flag in flags:
            yield pytest.param(command, text, flag, id=f"{command}{flag[0]}")


@pytest.mark.parametrize("command, text, flags", list(_refusal_cases()))
def test_every_command_refuses_what_it_does_not_read(tmp_path, capsys, command, text,
                                                     flags):
    # the config without the addition is read whole
    cfg = cli.parse_config(_write(tmp_path, "whole.cfg", _READ_WHOLE[command][0]))
    cli.validate_config(cfg, command, cli.build_parser().parse_args([command, "--config", "c"]))
    p = _write(tmp_path, "c.cfg", text)
    out = tmp_path / "out"
    assert cli.main([command, "--config", p, "--out", str(out), *flags]) == cli.EXIT_CONFIG
    assert "does not read" in capsys.readouterr().err
    assert not out.exists()


def test_strict_eigs_exits_3_on_a_near_multiple_root(tmp_path, capsys, monkeypatch):
    # the gate reads each root's second_smallest, the value eigenvalues.json
    # reports, on the calling thread after the search
    p = _write(tmp_path, "e.cfg", """
[curve]
preset = circle

[coupling]
eps = 1.0
mu = 0.0

[discretization]
nodes_per_edge = 64

[eigs]
samples = 16
""")
    eigvalsh = sp._eigvalsh

    def near_multiple(a):
        # the root's spectrum scaled so that its second-smallest |eigenvalue|
        # is tiny
        if sys._getframe(1).f_code is not sp._cluster_pairs.__code__:
            return eigvalsh(a)
        return 1e-9 * eigvalsh(a)

    monkeypatch.setattr(sp, "_eigvalsh", near_multiple)
    strict, lenient = tmp_path / "strict", tmp_path / "lenient"
    assert cli.main(["eigs", "--config", p, "--out", str(strict), "--strict"]) == \
        cli.EXIT_NUMERICAL
    assert f"below {cli.STRICT_SECOND:g}" in capsys.readouterr().err
    assert not strict.exists()
    assert cli.main(["eigs", "--config", p, "--out", str(lenient)]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    roots = json.loads((lenient / "eigenvalues.json").read_text())["eigenvalues"]
    assert roots and all(e["residual"] <= cli.STRICT_RESIDUAL for e in roots)
    assert min(e["second_smallest"] for e in roots) < cli.STRICT_SECOND


_ELLIPSE_EIGS = """
[edge.0]
kind = trig
x = 0.0, 1.5
y = 0.0, 0.0
xs = 0.0
ys = 0.7

[coupling]
eps = 1.0
mu = 0.0

[discretization]
nodes_per_edge = 128

[eigs]
samples = 32
"""


@pytest.mark.parametrize("curve", ["ellipse", "shipped-circle"])
def test_strict_eigs_exits_3_on_a_root_residual_above_the_bound(tmp_path, capsys, curve):
    # the 1.5 x 0.7 ellipse's roots have residuals 0.06-0.10 and once passed
    # --strict; the shipped circle's are at roundoff
    ellipse = curve == "ellipse"
    p = (_write(tmp_path, "e.cfg", _ELLIPSE_EIGS) if ellipse
         else str(_ROOT / "configs" / "eigs_circle.cfg"))
    strict, lenient = tmp_path / "strict", tmp_path / "lenient"
    status = cli.main(["eigs", "--config", p, "--out", str(strict), "--strict"])
    assert status == (cli.EXIT_NUMERICAL if ellipse else cli.EXIT_OK)
    assert (f"above {cli.STRICT_RESIDUAL:g}" in capsys.readouterr().err) == ellipse
    assert strict.exists() != ellipse
    if ellipse:
        assert cli.main(["eigs", "--config", p, "--out", str(lenient)]) == cli.EXIT_OK
    out = lenient if ellipse else strict
    residuals = [e["residual"] for e in json.loads((out / "eigenvalues.json").read_text())
                 ["eigenvalues"]]
    assert len(residuals) == 3
    assert (min(residuals) > cli.STRICT_RESIDUAL) if ellipse else \
        (max(residuals) <= cli.STRICT_RESIDUAL)


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_write_atomic_gives_the_mode_open_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        cli.write_atomic(str(tmp_path / "atomic.json"), "{}\n")
        with open(tmp_path / "plain.json", "w") as fh:
            fh.write("{}\n")
    finally:
        os.umask(old)
    mode = os.stat(tmp_path / "atomic.json").st_mode & 0o777
    assert mode == 0o666 & ~umask
    assert mode == os.stat(tmp_path / "plain.json").st_mode & 0o777
    assert sorted(os.listdir(tmp_path)) == ["atomic.json", "plain.json"]


def test_write_atomic_leaves_no_temporary_file_when_the_rename_fails(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename refused"):
        cli.write_atomic(str(tmp_path / "out" / "atomic.json"), "{}\n")
    assert os.listdir(tmp_path / "out") == []


def test_import_cli_leaves_numpy_unloaded():
    # --threads sets the BLAS thread variables in main(); they only take
    # effect if numpy has not been imported by then
    src = str(Path(diracshell.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, diracshell.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _scipy_modules_loaded(tmp_path, command, config):
    """The scipy modules loaded by a fresh process that runs ``command`` on
    the shipped config ``config`` (it must exit 0)."""
    src = str(Path(diracshell.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys\nfrom diracshell import cli\n"
            "status = cli.main(sys.argv[1:])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "sys.exit(status)")
    res = subprocess.run([sys.executable, "-c", code, command, "--config",
                          str(_ROOT / "configs" / f"{config}.cfg"), "--out", str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == cli.EXIT_OK, res.stderr
    return ast.literal_eval(res.stdout.splitlines()[-1])


@pytest.mark.parametrize("command, config", [("classify", "classify_square"),
                                             ("mtheta", "mtheta"), ("sweep", "sweep_square")])
def test_one_shot_commands_load_no_scipy(tmp_path, command, config):
    # none of them calls a scipy routine; importing scipy.integrate alone
    # took most of their fresh-process wall time
    assert _scipy_modules_loaded(tmp_path, command, config) == []


@pytest.mark.parametrize("command, config", [("eigs", "eigs_circle"), ("verify", "verify_circle")])
def test_eigs_and_verify_load_no_scipy_optimize_or_sparse(tmp_path, command, config):
    # the search's one optimize routine, brentq, is the package's own;
    # importing scipy.optimize loaded scipy.sparse, scipy.spatial and
    # scipy.fft with it, 18 MB
    loaded = _scipy_modules_loaded(tmp_path, command, config)
    assert "scipy.linalg" in loaded
    assert [m for m in loaded if m.startswith(("scipy.optimize", "scipy.sparse"))] == []


def test_format_flag_removed(tmp_path):
    p = _write(tmp_path, "c.cfg", CLASSIFY_CFG)
    with pytest.raises(SystemExit):
        cli.main(["classify", "--config", p, "--format", "json"])
    p = _write(tmp_path, "o.cfg", CLASSIFY_CFG + "[output]\nformat = json\n")
    assert cli.main(["classify", "--config", p]) == cli.EXIT_CONFIG


def test_numerical_failure_exit_code(tmp_path):
    # kappa diam = 20 at z = 0 on a radius-10 circle, beyond what the log
    # split resolves, triggers a numerical-failure exit
    p = _write(tmp_path, "e.cfg", """
[curve]
preset = circle
radius = 10.0

[coupling]
eps = 1.0
mu = 0.0

[discretization]
nodes_per_edge = 16

[eigs]
samples = 16
""")
    assert cli.main(["eigs", "--config", p, "--out", str(tmp_path)]) == \
        cli.EXIT_NUMERICAL


def test_float_formatting():
    assert cli.fmt_float(0.25) == "0.25"
    assert cli.fmt_float(1.0 / 3.0) == "0.33333333333333331"
    assert cli.fmt_float(float("nan")) == "null"


def test_emit_json_roundtrip():
    doc = {"a": 1, "b": [0.1, None, True], "c": {"d": "x"}}
    text = cli.emit_json(doc)
    assert json.loads(text) == doc
