"""Command-line front end.

Commands: classify, mtheta, symbol, eigs, verify, sweep.  Configuration is a
flat sectioned key = value file (a TOML-compatible subset); unknown keys are
rejected.  Outputs are deterministic: floats are serialized with 17
significant digits and files are written atomically (temp + rename).

numpy-dependent modules are imported inside the command handlers so that
--threads can cap the BLAS thread pools before numpy loads.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
import warnings

from .errors import ConfigError, ConvergenceError, DiracShellError, IllConditionedWarning

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


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
            sections.setdefault(current, {})
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
        if "," in val:
            sections[current][key] = [_parse_scalar(v) for v in val.split(",")]
        else:
            sections[current][key] = _parse_scalar(val)
    return sections


# section -> key -> value type; "edge" stands for every [edge.N] section
_KNOWN_KEYS = {
    "curve": {"preset": str, "radius": float, "center_x": float, "center_y": float,
              "a": float, "b": float, "side": float, "k": int, "circumradius": float,
              "scale": float, "corner_radius": float},
    "coupling": {"eps": float, "mu": float, "mass": float},
    "discretization": {"nodes_per_edge": int, "grading_exponent": float},
    "classify": {"curve_class": str, "angles_pi": list},
    "eigs": {"z_min": float, "z_max": float, "samples": int, "tol": float,
             "branch_csv": bool},
    "verify": {"z": float, "offset": float, "seed": int},
    # "tol" is accepted and ignored (m_of has no tolerance): older configs set it
    "mtheta": {"theta_min_pi": float, "theta_max_pi": float, "steps": int, "tol": float},
    "symbol": {"theta_pi": list, "eta_min": float, "eta_max": float, "eta_steps": int,
               "trunc": float, "tol": float},
    "sweep": {"eps_min": float, "eps_max": float, "eps_steps": int,
              "mu_min": float, "mu_max": float, "mu_steps": int},
    "edge": {"kind": str, "x": list, "y": list, "xs": list, "ys": list,
             "center": list, "radius": float, "phi0": float, "phi1": float},
}

# edge kind -> the [edge.N] keys besides "kind" that build_curve_from_config reads
_EDGE_KEYS = {
    "poly": {"x", "y"},
    "trig": {"x", "y", "xs", "ys"},
    "arc": {"center", "radius", "phi0", "phi1"},
}


def _has_type(value, kind) -> bool:
    """float takes any number, int an integer literal, list one number or several."""
    if kind is list:
        return all(_has_type(v, float) for v in (value if isinstance(value, list) else [value]))
    if isinstance(value, bool):  # a subclass of int, but not a number here
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


_COUPLING_FLAGS = ("eps", "mu", "mass")
# command -> (required sections, optional sections, coupling flags it reads);
# [edge.N] sections count as [curve]
_READS = {
    "classify": (("coupling",), ("curve", "classify"), _COUPLING_FLAGS),
    "mtheta": (("mtheta",), (), ()),
    "symbol": (("symbol",), ("coupling",), _COUPLING_FLAGS),
    "eigs": (("curve", "coupling", "discretization", "eigs"), (), _COUPLING_FLAGS),
    "verify": (("curve", "coupling", "discretization", "verify"), (), _COUPLING_FLAGS),
    "sweep": (("sweep",), ("curve", "classify", "coupling"), ("mass",)),
}
# command -> section -> its keys the command reads, where it reads only some
_KEYS_READ = {"sweep": {"coupling": {"mass"}}}


class RunConfig(dict):
    """Parsed run configuration: {section: {key: value}}."""

    @staticmethod
    def load(path: str) -> "RunConfig":
        return RunConfig(parse_config(path))


def validate_config(cfg, command: str, args=None):
    required, optional, flags = _READS[command]
    for section, entries in cfg.items():
        known = _KNOWN_KEYS.get("edge" if section.startswith("edge.") else section)
        if known is None:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = set(entries) - set(known)
        if unknown:
            raise ConfigError(
                f"unknown keys in [{section}]: {', '.join(sorted(unknown))}")
        for key, value in entries.items():
            if not _has_type(value, known[key]):
                raise ConfigError(
                    f"[{section}] {key}: expected {known[key].__name__}, got {value!r}")
        kind = entries.get("kind", "poly")
        # an unknown kind is refused where the curve is built
        if section.startswith("edge.") and kind in _EDGE_KEYS:
            unread = set(entries) - _EDGE_KEYS[kind] - {"kind"}
            if unread:
                raise ConfigError(f"[{section}] a {kind} edge does not read "
                                  f"{', '.join(sorted(unread))}")
    if cfg.get("curve") and any(section.startswith("edge.") for section in cfg):
        raise ConfigError("[curve] keys are not read when [edge.N] sections define "
                          f"the curve: {', '.join(sorted(cfg['curve']))}")
    sections = {"curve" if s.startswith("edge.") else s for s in cfg}
    for needed in required:
        if needed not in sections:
            raise ConfigError(f"command {command!r} requires a [{needed}] section")
    unread = [f"[{s}]" for s in sorted(sections - set(required) - set(optional))]
    unread += [f"--{f}" for f in _COUPLING_FLAGS
               if f not in flags and getattr(args, f, None) is not None]
    if unread:
        raise ConfigError(f"command {command!r} does not read {', '.join(unread)}")
    for section, keys in _KEYS_READ.get(command, {}).items():
        unread = set(cfg.get(section, ())) - keys
        if unread:
            raise ConfigError(f"command {command!r} does not read [{section}] "
                              f"{', '.join(sorted(unread))}")
    if "classify" in optional:
        _validate_curve_class(cfg.get("classify", {}), "curve" in sections)


def _validate_curve_class(sec, has_curve):
    """``angles_pi`` is read only by curve_class = polygon, and the curve only
    by a class taken from it: auto, or polygon without angles_pi."""
    kind = sec.get("curve_class", "auto")
    if "angles_pi" in sec and kind != "polygon":
        raise ConfigError(f"curve_class = {kind} does not read [classify] angles_pi")
    if has_curve and (kind in ("lipschitz", "c1") or "angles_pi" in sec):
        given = "polygon with angles_pi" if kind == "polygon" else kind
        raise ConfigError(f"curve_class = {given} does not read [curve] or [edge.N]")


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


def _numbers(section: dict, key: str, default=()) -> tuple:
    """One number or a list of numbers, as a tuple of floats."""
    value = section.get(key, default)
    return tuple(float(v) for v in (value if isinstance(value, (list, tuple)) else [value]))


def build_curve_from_config(cfg: dict):
    from . import geometry as geo

    edge_sections = sorted(
        (k for k in cfg if k.startswith("edge.")),
        key=lambda s: int(s.split(".", 1)[1]))
    if edge_sections:
        edges = []
        for name in edge_sections:
            e = cfg[name]
            kind = e.get("kind", "poly")
            if kind == "poly":
                edges.append(geo.Edge("poly", _numbers(e, "x", 0.0),
                                      _numbers(e, "y", 0.0)))
            elif kind == "trig":
                edges.append(geo.Edge("trig", _numbers(e, "x", 0.0),
                                      _numbers(e, "y", 0.0),
                                      _numbers(e, "xs"), _numbers(e, "ys")))
            elif kind == "arc":
                center = _numbers(e, "center")
                if len(center) != 2 or not {"radius", "phi0", "phi1"} <= set(e):
                    raise ConfigError(f"[{name}] an arc needs a two-number center, "
                                      "a radius, phi0 and phi1")
                edges.append(geo.ArcEdge(center, float(e["radius"]),
                                         float(e["phi0"]), float(e["phi1"])))
            else:
                raise ConfigError(f"unknown edge kind {kind!r} in [{name}]")
        return geo.build_curve(geo.CurveSpec(tuple(edges)))
    sec = cfg.get("curve")
    if not sec:
        raise ConfigError("config needs a [curve] section or [edge.N] sections")
    preset = sec.get("preset")
    if preset not in _PRESET_KEYS:
        raise ConfigError(f"unknown curve preset {preset!r}")
    keys = _PRESET_KEYS[preset]
    unread = set(sec) - set(keys) - {"preset"}
    if unread:
        raise ConfigError(f"preset {preset} does not read {', '.join(sorted(unread))}")
    kwargs = {kw: type(default)(sec.get(key, default)) for key, (kw, default) in keys.items()}
    if preset == "circle":
        kwargs["center"] = (kwargs.pop("center_x"), kwargs.pop("center_y"))
    return geo.build_curve(geo.PRESETS[preset](**kwargs))


def coupling_from_config(cfg: dict, args):
    from .kernels import Coupling

    sec = cfg.get("coupling", {})
    eps = args.eps if args.eps is not None else float(sec.get("eps", 0.0))
    mu = args.mu if args.mu is not None else float(sec.get("mu", 0.0))
    mass = args.mass if args.mass is not None else float(sec.get("mass", 1.0))
    return Coupling(eps, mu, mass)


def curve_class_from_config(cfg: dict):
    from .classify import CurveClass

    sec = cfg.get("classify", {})
    kind = sec.get("curve_class", "auto")
    if kind == "lipschitz":
        return CurveClass.lipschitz()
    if kind == "c1":
        return CurveClass.c1()
    if kind == "polygon" and "angles_pi" in sec:
        return CurveClass.polygon([a * math.pi for a in _numbers(sec, "angles_pi")])
    if kind in ("polygon", "auto"):
        return CurveClass.from_curve(build_curve_from_config(cfg))
    raise ConfigError(f"unknown curve_class {kind!r}")


def grid_from_config(cfg: dict):
    from . import geometry as geo

    curve = build_curve_from_config(cfg)
    sec = cfg.get("discretization", {})
    return geo.discretize(curve,
                          int(sec.get("nodes_per_edge", 64)),
                          float(sec.get("grading_exponent", 3.0)))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_classify(cfg, args, out):
    coupling = coupling_from_config(cfg, args)
    cls = curve_class_from_config(cfg)
    from .classify import classify

    res = classify(cls, coupling)
    doc = {"curve_class": cls.kind,
           "angles": [a for a in cls.angles],
           "eps": coupling.eps, "mu": coupling.mu, "mass": coupling.mass}
    doc.update(res.to_json_dict())
    write_atomic(os.path.join(out, "classification.json"), emit_json(doc) + "\n")
    return EXIT_OK


def cmd_mtheta(cfg, args, out):
    from .corner_symbol import m_of

    sec = cfg["mtheta"]
    lo = float(sec.get("theta_min_pi", 0.05))
    hi = float(sec.get("theta_max_pi", 0.95))
    steps = int(sec.get("steps", 19))
    rows = []
    for i in range(steps):
        tpi = lo + (hi - lo) * i / max(steps - 1, 1)
        rows.append((tpi * math.pi, m_of(tpi * math.pi)))
    write_csv(os.path.join(out, "mtheta.csv"), ["theta", "m_theta"], rows)
    return EXIT_OK


def cmd_symbol(cfg, args, out):
    from .corner_symbol import delta_closed, delta_direct
    from .kernels import Coupling

    sec = cfg["symbol"]
    thetas = _numbers(sec, "theta_pi", 0.5)
    eta_min = float(sec.get("eta_min", -5.0))
    eta_max = float(sec.get("eta_max", 5.0))
    eta_steps = int(sec.get("eta_steps", 21))
    trunc = float(sec.get("trunc", 60.0))
    tol = float(sec.get("tol", 1e-10))
    coupling = coupling_from_config(cfg, args)
    rows = []
    for tpi in thetas:
        theta = tpi * math.pi
        for i in range(eta_steps):
            eta = eta_min + (eta_max - eta_min) * i / max(eta_steps - 1, 1)
            dc = delta_closed(theta, eta, coupling)
            dd = delta_direct(theta, eta, coupling, trunc, tol)
            rows.append((theta, eta, dc, dd.real, dd.imag, abs(dd - dc)))
    write_csv(os.path.join(out, "symbol.csv"),
              ["theta", "eta", "delta_closed", "delta_direct_re",
               "delta_direct_im", "abs_diff"], rows)
    return EXIT_OK


def cmd_eigs(cfg, args, out):
    from . import spectral as sp

    grid = grid_from_config(cfg)
    coupling = coupling_from_config(cfg, args)
    sec = cfg["eigs"]
    lo, hi = sp.default_window(coupling)
    window = (float(sec.get("z_min", lo)), float(sec.get("z_max", hi)))
    samples = int(sec.get("samples", 128))
    tol = float(sec.get("tol", 1e-12))
    sweep = sp.gap_sweep(grid, coupling, window, samples)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IllConditionedWarning)
        pairs = sp.find_eigenvalues(grid, sweep, tol)
    if args.strict and any(issubclass(w.category, IllConditionedWarning)
                           for w in caught):
        raise ConvergenceError("ill-conditioned eigenvalue root under --strict")
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
    if sec.get("branch_csv", False) and sweep.route != "empty":
        rows = []
        for i, z in enumerate(sweep.z_samples):
            rows.append([float(z)] + [float(v) for v in sweep.eigenvalues[i]])
        k = sweep.eigenvalues.shape[1]
        write_csv(os.path.join(out, "branches.csv"),
                  ["z"] + [f"lambda_{j}" for j in range(k)], rows)
    return EXIT_OK


def cmd_verify(cfg, args, out):
    from . import spectral as sp

    grid = grid_from_config(cfg)
    coupling = coupling_from_config(cfg, args)
    sec = cfg["verify"]
    z = float(sec.get("z", 0.0))
    offset = float(sec.get("offset", 1e-3))
    seed = int(sec.get("seed", 1234))
    rep = sp.verify_identities(grid, z, coupling, offset=offset, seed=seed)
    write_atomic(os.path.join(out, "verification.json"),
                 emit_json(rep.to_json_dict()) + "\n")
    if args.strict and not rep.all_passed:
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_sweep(cfg, args, out):
    from .classify import classify
    from .kernels import Coupling

    cls = curve_class_from_config(cfg)
    sec = cfg["sweep"]
    e0, e1 = float(sec.get("eps_min", -4)), float(sec.get("eps_max", 4))
    ne = int(sec.get("eps_steps", 33))
    m0, m1 = float(sec.get("mu_min", -4)), float(sec.get("mu_max", 4))
    nm = int(sec.get("mu_steps", 33))
    mass = coupling_from_config(cfg, args).mass
    rows = []
    for i in range(ne):
        eps = e0 + (e1 - e0) * i / max(ne - 1, 1)
        for j in range(nm):
            mu = m0 + (m1 - m0) * j / max(nm - 1, 1)
            res = classify(cls, Coupling(eps, mu, mass))
            rows.append((eps, mu, res.verdict, res.certificate or ""))
    write_csv(os.path.join(out, "sweep.csv"),
              ["eps", "mu", "verdict", "certificate"], rows)
    return EXIT_OK


_COMMANDS = {
    "classify": cmd_classify,
    "mtheta": cmd_mtheta,
    "symbol": cmd_symbol,
    "eigs": cmd_eigs,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="diracshell",
        description="Shell-interaction Dirac operators on closed curves: "
                    "self-adjointness classification, corner symbols and gap spectra.")
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--config", required=True, help="path to the run configuration")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--strict", action="store_true",
                   help="promote numerical warnings to exit status 3")
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
        cfg = RunConfig.load(args.config)
        validate_config(cfg, args.command, args)
        return _COMMANDS[args.command](cfg, args, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, DiracShellError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
