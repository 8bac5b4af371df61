"""Command-line front end.

Commands: classify, mtheta, symbol, eigs, verify, sweep.  Configuration is a
flat sectioned key = value file (a TOML-compatible subset).  Each command has
a read step, which fetches every section, key and flag it uses through one
typed reader, and a compute step; whatever the read step leaves
unread is refused before any numerics run.  Outputs are deterministic: floats
are serialized with 17 significant digits and files are written atomically
(temp + rename).

numpy-dependent modules are imported inside the command handlers so that
--threads can cap the BLAS thread pools before numpy loads.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import tempfile

from .errors import ConfigError, ConvergenceError, DiracShellError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
# the bounds of a root `eigs --strict` accepts: the largest ||Theta_z0 g||,
# and the smallest second_smallest, below which the root may be a multiple one
STRICT_RESIDUAL = 1e-8
STRICT_SECOND = 1e-6


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _parse_scalar(text: str):
    t = text.strip()
    if t.lower() in ("true", "false"):
        return t.lower() == "true"
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    if t.startswith('"') and t.endswith('"') and len(t) >= 2:
        return t[1:-1]
    return t


def parse_config(path: str) -> dict:
    """Parse the sectioned key = value format into {section: {key: value}}.

    Values: int, float, bool, bare or quoted strings; comma-separated lists.
    """
    sections: dict = {}
    current = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"{path}:{lineno}: empty section name")
            if current in sections:
                raise ConfigError(f"{path}:{lineno}: section [{current}] opened twice")
            sections[current] = {}
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in sections[current]:
            raise ConfigError(f"{path}:{lineno}: key {key} repeated in [{current}]")
        if "," in val:
            sections[current][key] = [_parse_scalar(v) for v in val.split(",")]
        else:
            sections[current][key] = _parse_scalar(val)
    return sections


class RunConfig(dict):
    """Parsed run configuration: {section: {key: value}}."""

    @staticmethod
    def load(path: str) -> "RunConfig":
        return RunConfig(parse_config(path))


def _has_type(value, kind) -> bool:
    """float takes any number, int an integer literal, list one number or several."""
    if kind is list:
        return all(_has_type(v, float) for v in (value if isinstance(value, list) else [value]))
    if isinstance(value, bool):  # a subclass of int, but not a number here
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


# the [coupling] keys and their defaults; the flag of the same name overrides each
_COUPLING = {"eps": 0.0, "mu": 0.0, "mass": 1.0}


class _Reader:
    """Typed access to a parsed config that records every section, key and
    flag read, so that whatever a command leaves unread is refused."""

    def __init__(self, cfg, command: str = "", args=None):
        self.cfg, self.command, self.args = cfg, command, args
        self.read = set()  # section names, (section, key) pairs and "--flag"s

    def section(self, name: str, required: bool = False):
        """The getter get(key, default=None, kind=float) of the keys of [name]."""
        if required and name not in self.cfg:
            raise ConfigError(f"config needs a [{name}] section")
        self.read.add(name)
        return functools.partial(self.get, name)

    def get(self, section: str, key: str, default=None, kind=float):
        """The value of the key as a kind (a list as a tuple of floats), or default."""
        self.read.add((section, key))
        entries = self.cfg.get(section, {})
        value = entries.get(key, default)
        if key in entries and not _has_type(value, kind):
            raise ConfigError(f"[{section}] {key}: expected {kind.__name__}, got {value!r}")
        if value is None or kind in (str, bool):
            return value
        if kind is list:
            return tuple(float(v) for v in (value if isinstance(value, (list, tuple)) else [value]))
        return kind(value)

    def flag(self, name: str):
        """The value of the flag --name, None where it is not given."""
        self.read.add("--" + name)
        return getattr(self.args, name, None)

    def refuse_unread(self):
        unread = [f"[{s}]" for s in self.cfg if s not in self.read]
        unread += [f"[{s}] {k}" for s in self.cfg if s in self.read
                   for k in self.cfg[s] if (s, k) not in self.read]
        unread += [f"--{k}" for k in (*_COUPLING, "strict")
                   if getattr(self.args, k, None) is not None and "--" + k not in self.read]
        if unread:
            raise ConfigError(f"command {self.command!r} does not read {', '.join(unread)}")


def _checked(prefix: str, check, *args):
    """check(*args), a check of the numerics on values a read step read; its
    refusal (any DiracShellError) is a ConfigError "prefix: message"."""
    try:
        return check(*args)
    except DiracShellError as exc:
        raise ConfigError(f"{prefix}: {exc}") from None


def validate_config(cfg, command: str, args=None) -> dict:
    """Run the read step of the command on a parsed config and refuse every
    section, key and flag it leaves unread; returns the keyword
    arguments of its compute step."""
    reader = _Reader(cfg, command, args)
    params = _COMMANDS[command][0](reader)
    reader.refuse_unread()
    return params


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def fmt_float(x: float) -> str:
    if x != x:  # NaN
        return "null"
    if x in (float("inf"), float("-inf")):
        return '"inf"' if x > 0 else '"-inf"'
    return "%.17g" % x


def emit_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, str):
        import json as _json
        return _json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {emit_json(str(k))}: {emit_json(v, indent + 1)}'
            for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {emit_json(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    # numpy scalars and arrays
    if hasattr(obj, "item") and not hasattr(obj, "__len__"):
        return emit_json(obj.item(), indent)
    if hasattr(obj, "tolist"):
        return emit_json(obj.tolist(), indent)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def write_atomic(path: str, text: str):
    """Write through a temporary file and a rename, so readers never see a
    partial file; the result gets the mode open() would give, 0o666 & ~umask
    (mkstemp creates the temporary file at 0o600)."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list, rows: list):
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append("%.17g" % v)
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    write_atomic(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# building blocks from config
# ---------------------------------------------------------------------------


# preset -> [curve] key -> (keyword of the preset function, default)
_PRESET_KEYS = {
    "circle": {"radius": ("radius", 1.0), "center_x": ("center_x", 0.0),
               "center_y": ("center_y", 0.0)},
    "ellipse": {"a": ("a", 2.0), "b": ("b", 1.0)},
    "square": {"side": ("side", 1.0)},
    "regular_polygon": {"k": ("k", 3), "circumradius": ("circumradius", 1.0)},
    "l_shape": {"scale": ("scale", 1.0)},
    "rounded_square": {"side": ("side", 1.0), "corner_radius": ("radius", 0.2)},
    "rounded_polygon": {"k": ("k", 4), "circumradius": ("circumradius", 1.0),
                        "corner_radius": ("radius", 0.2)},
}


def _edge_index(section: str) -> int:
    try:
        return int(section[len("edge."):])
    except ValueError:
        raise ConfigError(f"[{section}]: N in [edge.N] must be an integer") from None


def _read_curve(r):
    """The curve from its [edge.N] sections in N order, else from its [curve]
    preset, as a function that returns its CurveSpec.  A preset's spec is
    computed here, so that values its function refuses are config errors."""
    from . import geometry as geo

    get = r.section("curve")  # an empty one next to edge sections is accepted
    edges = []
    for name in sorted((s for s in r.cfg if s.startswith("edge.")), key=_edge_index):
        edge = r.section(name)
        kind = edge("kind", "poly", str)
        if kind == "poly":
            edges.append(geo.Edge("poly", edge("x", 0.0, list), edge("y", 0.0, list)))
        elif kind == "trig":
            edges.append(geo.Edge("trig", edge("x", 0.0, list), edge("y", 0.0, list),
                                  edge("xs", (), list), edge("ys", (), list)))
        elif kind == "arc":
            center = edge("center", (), list)
            arc = [edge(key) for key in ("radius", "phi0", "phi1")]
            if len(center) != 2 or None in arc:
                raise ConfigError(f"[{name}] an arc needs a two-number center, "
                                  "a radius, phi0 and phi1")
            edges.append(geo.ArcEdge(center, *arc))
        else:
            raise ConfigError(f"unknown edge kind {kind!r} in [{name}]")
    if edges:
        return functools.partial(geo.CurveSpec, tuple(edges))
    if not r.cfg.get("curve"):
        raise ConfigError("config needs a [curve] section or [edge.N] sections")
    preset = get("preset", None, str)
    if preset not in _PRESET_KEYS:
        raise ConfigError(f"unknown curve preset {preset!r}")
    kwargs = {kw: get(key, default, type(default))
              for key, (kw, default) in _PRESET_KEYS[preset].items()}
    if preset == "circle":
        kwargs["center"] = (kwargs.pop("center_x"), kwargs.pop("center_y"))
    spec = _checked(f"[curve] preset {preset}", functools.partial(geo.PRESETS[preset], **kwargs))
    return lambda: spec


def _read_curve_class(r):
    """A function that returns the curve class: the stated one (its angles
    checked here, so that a bad one is a config error), or one taken from the
    curve (auto, or polygon without angles_pi), which only then is read."""
    from . import geometry as geo
    from .classify import CurveClass

    get = r.section("classify")
    kind = get("curve_class", "auto", str)
    if kind in ("lipschitz", "c1"):
        return getattr(CurveClass, kind)
    if kind not in ("polygon", "auto"):
        raise ConfigError(f"unknown curve_class {kind!r}")
    angles = get("angles_pi", None, list) if kind == "polygon" else None
    if angles is not None:
        cls = _checked("[classify] angles_pi", CurveClass.polygon, [a * math.pi for a in angles])
        return lambda: cls
    spec = _read_curve(r)
    return lambda: CurveClass.from_curve(geo.build_curve(spec()))


def _read_grid(r):
    """A function that returns the quadrature grid of the curve."""
    from . import geometry as geo

    spec = _read_curve(r)
    get = r.section("discretization", required=True)
    nodes, grading = get("nodes_per_edge", 64, int), get("grading_exponent", 3.0)
    return lambda: geo.discretize(geo.build_curve(spec()), nodes, grading)


def grid_from_config(cfg: dict):
    """The quadrature grid of a parsed config, without the unread check."""
    return _read_grid(_Reader(cfg))()


def _read_coupling(r, required: bool = False, keys=tuple(_COUPLING)):
    """The Coupling, each of its eps, mu and mass in ``keys`` from its flag if
    set, else from [coupling] (read and type-checked either way), the others
    0; values it refuses (a non-finite value, a non-positive mass) are
    config errors."""
    from .kernels import Coupling

    get = r.section("coupling", required)
    values = [(get(key, default), r.flag(key)) if key in keys else (0.0, None)
              for key, default in _COUPLING.items()]
    return _checked("coupling", Coupling, *(v if flag is None else flag for v, flag in values))


def _read_range(r, section: str, lo, hi, steps) -> list:
    """The points lo + (hi - lo) i / max(steps - 1, 1), i < steps, of the range
    whose (key, default) pairs in [section] are lo, hi (finite) and steps (at
    least 1)."""
    a, b, n = r.get(section, *lo), r.get(section, *hi), r.get(section, *steps, kind=int)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ConfigError(f"[{section}] {lo[0]} = {a!r}, {hi[0]} = {b!r}: "
                          "a range needs finite ends")
    if n < 1:
        raise ConfigError(f"[{section}] {steps[0]} = {n}: a range needs at least one step")
    return [a + (b - a) * i / max(n - 1, 1) for i in range(n)]


# ---------------------------------------------------------------------------
# commands: a read step, which takes a _Reader and returns the keyword
# arguments of the compute step, and the compute step
# ---------------------------------------------------------------------------


def _read_classify(r):
    return dict(coupling=_read_coupling(r, required=True),
                curve_class=_read_curve_class(r))


def cmd_classify(out, coupling, curve_class):
    from .classify import classify

    cls = curve_class()
    res = classify(cls, coupling)
    doc = {"curve_class": cls.kind,
           "angles": [a for a in cls.angles],
           "eps": coupling.eps, "mu": coupling.mu, "mass": coupling.mass}
    doc.update(res.to_json_dict())
    write_atomic(os.path.join(out, "classification.json"), emit_json(doc) + "\n")
    return EXIT_OK


def _read_mtheta(r):
    from .corner_symbol import check_angle

    get = r.section("mtheta", required=True)
    get("tol")  # read and ignored (m_of has no tolerance): older configs set it
    top = ("theta_max_pi", 0.95)
    thetas_pi = _read_range(r, "mtheta", ("theta_min_pi", 0.05), top, ("steps", 19))
    # and the upper end, which one step does not reach
    for tpi in [*thetas_pi, get(*top)]:
        _checked("[mtheta] theta_min_pi..theta_max_pi", check_angle, tpi * math.pi)
    return dict(thetas_pi=thetas_pi)


def cmd_mtheta(out, thetas_pi):
    from .corner_symbol import m_of

    rows = [(tpi * math.pi, m_of(tpi * math.pi)) for tpi in thetas_pi]
    write_csv(os.path.join(out, "mtheta.csv"), ["theta", "m_theta"], rows)
    return EXIT_OK


def _read_symbol(r):
    from .corner_symbol import check_angle, check_quadrature

    get = r.section("symbol", required=True)
    thetas, trunc, tol = get("theta_pi", 0.5, list), get("trunc", 60.0), get("tol", 1e-10)
    for tpi in thetas:
        _checked("[symbol] theta_pi", check_angle, tpi * math.pi, False)
    _checked("[symbol] trunc, tol", check_quadrature, trunc, tol)
    return dict(thetas=thetas,
                etas=_read_range(r, "symbol", ("eta_min", -5.0), ("eta_max", 5.0),
                                 ("eta_steps", 21)),
                trunc=trunc, tol=tol, coupling=_read_coupling(r))


def cmd_symbol(out, thetas, etas, trunc, tol, coupling):
    from .corner_symbol import delta_closed, delta_direct

    rows = []
    for tpi in thetas:
        theta = tpi * math.pi
        row = delta_direct(theta, etas, coupling, trunc, tol)
        for eta, dd in zip(etas, row):
            dc = delta_closed(theta, eta, coupling)
            rows.append((theta, eta, dc, dd.real, dd.imag, abs(dd - dc)))
    write_csv(os.path.join(out, "symbol.csv"),
              ["theta", "eta", "delta_closed", "delta_direct_re",
               "delta_direct_im", "abs_diff"], rows)
    return EXIT_OK


def _read_eigs(r):
    from .spectral import check_sweep, check_tol, default_window

    grid, coupling = _read_grid(r), _read_coupling(r, required=True)
    get = r.section("eigs", required=True)
    tol, samples = get("tol", 1e-12), get("samples", 128, int)
    lo, hi = default_window(coupling)
    window = (get("z_min", lo), get("z_max", hi))
    _checked("[eigs] tol", check_tol, tol)
    _checked("[eigs] samples, z_min, z_max", check_sweep, coupling, window, samples)
    return dict(grid=grid, coupling=coupling, window=window, samples=samples, tol=tol,
                branch_csv=get("branch_csv", False, bool), strict=bool(r.flag("strict")))


def cmd_eigs(out, grid, coupling, window, samples, tol, branch_csv, strict):
    from . import spectral as sp

    grid = grid()
    sweep = sp.gap_sweep(grid, coupling, window, samples)
    pairs = sp.find_eigenvalues(grid, sweep, tol)
    for p in pairs:
        if strict and not p.residual <= STRICT_RESIDUAL:
            raise ConvergenceError(f"root {p.z0:.6f} has residual {p.residual:.2e}, "
                                   f"above {STRICT_RESIDUAL:g}, under --strict")
        if strict and not p.second_smallest >= STRICT_SECOND:
            raise ConvergenceError(f"root {p.z0:.6f} has second_smallest "
                                   f"{p.second_smallest:.2e}, below {STRICT_SECOND:g} "
                                   "(possible multiplicity), under --strict")
    doc = {
        "route": sweep.route,
        "window": list(window),
        "n_nodes": grid.n_nodes,
        "eigenvalues": [
            {"z0": p.z0, "residual": p.residual, "cluster": p.cluster,
             "second_smallest": p.second_smallest, "condition": p.condition}
            for p in pairs
        ],
        "notes": list(sweep.notes),
    }
    write_atomic(os.path.join(out, "eigenvalues.json"), emit_json(doc) + "\n")
    if branch_csv and sweep.route != "empty":
        rows = []
        for i, z in enumerate(sweep.z_samples):
            rows.append([float(z)] + [float(v) for v in sweep.eigenvalues[i]])
        k = sweep.eigenvalues.shape[1]
        write_csv(os.path.join(out, "branches.csv"),
                  ["z"] + [f"lambda_{j}" for j in range(k)], rows)
    return EXIT_OK


def _read_verify(r):
    from .spectral import check_verify

    grid, coupling = _read_grid(r), _read_coupling(r, required=True)
    get = r.section("verify", required=True)
    z, offset, seed = get("z", 0.0), get("offset", 1e-3), get("seed", 1234, int)
    _checked("[verify] z, offset, seed", check_verify, z, coupling, offset, seed)
    return dict(grid=grid, coupling=coupling, z=z, offset=offset, seed=seed,
                strict=bool(r.flag("strict")))


def cmd_verify(out, grid, coupling, z, offset, seed, strict):
    from . import spectral as sp

    grid = grid()
    rep = sp.verify_identities(grid, z, coupling, offset=offset, seed=seed)
    write_atomic(os.path.join(out, "verification.json"),
                 emit_json(rep.to_json_dict()) + "\n")
    if strict and not rep.all_passed:
        return EXIT_NUMERICAL
    return EXIT_OK


def _read_sweep(r):
    r.section("sweep", required=True)
    return dict(eps_values=_read_range(r, "sweep", ("eps_min", -4.0), ("eps_max", 4.0),
                                       ("eps_steps", 33)),
                mu_values=_read_range(r, "sweep", ("mu_min", -4.0), ("mu_max", 4.0),
                                      ("mu_steps", 33)),
                mass=_read_coupling(r, keys=("mass",)).mass,
                curve_class=_read_curve_class(r))


def cmd_sweep(out, eps_values, mu_values, mass, curve_class):
    from .classify import classify
    from .kernels import Coupling

    cls = curve_class()
    rows = []
    for eps in eps_values:
        for mu in mu_values:
            res = classify(cls, Coupling(eps, mu, mass))
            rows.append((eps, mu, res.verdict, res.certificate or ""))
    write_csv(os.path.join(out, "sweep.csv"),
              ["eps", "mu", "verdict", "certificate"], rows)
    return EXIT_OK


_COMMANDS = {  # command -> (read step, compute step)
    "classify": (_read_classify, cmd_classify),
    "mtheta": (_read_mtheta, cmd_mtheta),
    "symbol": (_read_symbol, cmd_symbol),
    "eigs": (_read_eigs, cmd_eigs),
    "verify": (_read_verify, cmd_verify),
    "sweep": (_read_sweep, cmd_sweep),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="diracshell",
        description="Shell-interaction Dirac operators on closed curves: "
                    "self-adjointness classification, corner symbols and gap spectra.")
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--config", required=True, help="path to the run configuration")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--strict", action="store_true", default=None,  # None: not given
                   help="exit 3 on an inaccurate or ill-conditioned result (eigs, verify)")
    p.add_argument("--threads", type=int, default=None,
                   help="cap BLAS thread pools")
    p.add_argument("--eps", type=float, default=None, help="override coupling eps")
    p.add_argument("--mu", type=float, default=None, help="override coupling mu")
    p.add_argument("--mass", type=float, default=None, help="override mass")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    try:
        params = validate_config(RunConfig.load(args.config), args.command, args)
        return _COMMANDS[args.command][1](args.out, **params)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, DiracShellError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
