"""Workload definitions: generated configs, CLI operations and output checks.

Every curve is moved by a rigid motion (a rotation about the origin, then a
translation) drawn from the workload seed.  The spectrum, the classification
and the identity checks do not change under a rigid motion, so one committed
reference (``reference.json``, made from the unmoved curves by
``make_reference.py``) checks every seed.

The generated configs mirror the shipped ``configs/*.cfg``; they are kept
here so that the benchmark does not change when the shipped examples do.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

ROOT_TOL = 1e-10  # |z0 - reference| per eigenpair
RESIDUAL_MAX = 1e-9  # ||Theta_z0 g|| per eigenpair
RESIDUAL_GROWTH = 1e-6  # relative, where the reference residual exceeds RESIDUAL_MAX
VALUE_TOL = 1e-10  # mtheta.csv and symbol.csv cells

WORKLOADS = ("eigs-circle", "eigs-polygon", "oneshot")

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Motion:
    angle: float
    shift: tuple

    def apply(self, x: float, y: float) -> tuple:
        c, s = math.cos(self.angle), math.sin(self.angle)
        return (c * x - s * y + self.shift[0], s * x + c * y + self.shift[1])


def motion_from_seed(seed: int) -> Motion:
    rng = random.Random(seed)
    return Motion(rng.uniform(0.0, 2.0 * math.pi),
                  (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))


def _num(x: float) -> str:
    return repr(float(x))


# eigs and verify insist on a [curve] section even when [edge.N] sections
# define the curve; an empty one satisfies that and is otherwise ignored.
_EDGES_ONLY = "[curve]\n\n"


def circle_sections(radius: float, motion: Motion | None) -> str:
    """A circle: the preset when unmoved, else one rotated trig edge.

    x(t) = cx + R cos(2 pi t + a), y(t) = cy + R sin(2 pi t + a).  The sine
    lists carry a zero second coefficient because the config format needs a
    comma to read a list.
    """
    if motion is None:
        return f"[curve]\npreset = circle\nradius = {_num(radius)}\n"
    c, s = math.cos(motion.angle), math.sin(motion.angle)
    cx, cy = motion.shift
    return (_EDGES_ONLY + "[edge.0]\nkind = trig\n"
            f"x = {_num(cx)}, {_num(radius * c)}\n"
            f"y = {_num(cy)}, {_num(radius * s)}\n"
            f"xs = {_num(-radius * s)}, 0.0\n"
            f"ys = {_num(radius * c)}, 0.0\n")


def square_sections(side: float, motion: Motion | None) -> str:
    """A square centred at the origin: the preset when unmoved, else four
    straight poly edges through the moved vertices, in the preset's order."""
    if motion is None:
        return f"[curve]\npreset = square\nside = {_num(side)}\n"
    h = 0.5 * side
    verts = [motion.apply(x, y) for x, y in ((-h, -h), (h, -h), (h, h), (-h, h))]
    out = []
    for i, (x0, y0) in enumerate(verts):
        x1, y1 = verts[(i + 1) % 4]
        out.append(f"[edge.{i}]\nkind = poly\n"
                   f"x = {_num(x0)}, {_num(x1 - x0)}\n"
                   f"y = {_num(y0)}, {_num(y1 - y0)}\n")
    return _EDGES_ONLY + "\n".join(out)


_EIGS_CIRCLE = """
[coupling]
eps = 1.0
mu = 0.0
mass = 1.0

[discretization]
nodes_per_edge = 256
grading_exponent = 3.0

[eigs]
z_min = -0.99
z_max = 0.99
samples = 64
tol = 1e-12
branch_csv = true
"""

_EIGS_SQUARE = """
[coupling]
eps = 1.0
mu = 0.0
mass = 1.0

[discretization]
nodes_per_edge = 64
grading_exponent = 3.0

[eigs]
z_min = -0.99
z_max = 0.99
samples = 32
tol = 1e-12
branch_csv = true
"""

_CLASSIFY = """
[coupling]
eps = 3.0
mu = 0.0
mass = 1.0

[classify]
curve_class = auto
"""

_SWEEP = """
[classify]
curve_class = auto

[sweep]
eps_min = -4.0
eps_max = 4.0
eps_steps = 17
mu_min = -4.0
mu_max = 4.0
mu_steps = 17
"""

_MTHETA = """[mtheta]
theta_min_pi = 0.05
theta_max_pi = 0.95
steps = 19
tol = 1e-12
"""

_SYMBOL = """[coupling]
eps = 2.0
mu = 0.0

[symbol]
theta_pi = 0.3, 0.5, 0.7, 1.3
eta_min = -5.0
eta_max = 5.0
eta_steps = 21
trunc = 60.0
tol = 1e-10
"""

_VERIFY = """
[coupling]
eps = 3.0
mu = 1.0
mass = 1.0

[discretization]
nodes_per_edge = 256

[verify]
z = 0.0
offset = 1e-3
seed = 1234
"""


@dataclass(frozen=True)
class Op:
    """One ``cli.main`` call: its reference key, config and extra flags."""

    key: str  # reference entry and config file stem
    command: str
    config: str  # config text
    flags: tuple = ()
    builds_grid: bool = False  # the command calls cli.grid_from_config

    def argv(self, config_path: Path, out_dir: Path) -> list:
        return [self.command, "--config", str(config_path),
                "--out", str(out_dir), *self.flags]


def operations(workload: str, motion: Motion | None) -> list:
    """The workload's operations, in the order one pass runs them."""
    if workload == "eigs-circle":
        return [Op("eigs_circle", "eigs",
                   circle_sections(1.0, motion) + _EIGS_CIRCLE, builds_grid=True)]
    if workload == "eigs-polygon":
        cfg = square_sections(2.0, motion) + _EIGS_SQUARE
        return [Op("square_lambda", "eigs", cfg, builds_grid=True),
                Op("square_scalar", "eigs", cfg, ("--eps", "-1", "--mu", "-1"),
                   builds_grid=True)]
    if workload == "oneshot":
        return [Op("classify_square", "classify", square_sections(1.0, motion) + _CLASSIFY),
                Op("sweep_square", "sweep", square_sections(1.0, motion) + _SWEEP),
                Op("mtheta", "mtheta", _MTHETA),
                Op("symbol_scan", "symbol", _SYMBOL),
                Op("verify_circle", "verify", circle_sections(1.0, motion) + _VERIFY,
                   builds_grid=True)]
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(ops: list, directory: Path) -> list:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for op in ops:
        path = directory / f"{op.key}.cfg"
        path.write_text(op.config, encoding="utf-8")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# comparable content of the artifacts
# ---------------------------------------------------------------------------


def _csv_rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def extract(command: str, out_dir: Path):
    """The parts of a command's artifacts that the reference pins down."""
    if command == "eigs":
        doc = json.loads((out_dir / "eigenvalues.json").read_text(encoding="utf-8"))
        return {"route": doc["route"],
                "z0": [p["z0"] for p in doc["eigenvalues"]],
                "residual": [p["residual"] for p in doc["eigenvalues"]]}
    if command == "classify":
        doc = json.loads((out_dir / "classification.json").read_text(encoding="utf-8"))
        return {"verdict": doc["verdict"], "certificate": doc["certificate"]}
    if command == "sweep":
        return _csv_rows(out_dir / "sweep.csv")
    if command == "mtheta":
        return [[float(v) for v in row] for row in _csv_rows(out_dir / "mtheta.csv")]
    if command == "symbol":
        return [[float(v) for v in row] for row in _csv_rows(out_dir / "symbol.csv")]
    if command == "verify":
        doc = json.loads((out_dir / "verification.json").read_text(encoding="utf-8"))
        return {c["name"]: c["passed"] for c in doc["checks"]}
    raise ValueError(f"unknown command {command!r}")


def _close_table(got: list, want: list) -> bool:
    return len(got) == len(want) and all(
        len(g) == len(w) and all(abs(a - b) <= VALUE_TOL for a, b in zip(g, w))
        for g, w in zip(got, want))


def check(command: str, got, want) -> str | None:
    """None when ``got`` matches the reference ``want``, else the reason."""
    if command == "eigs":
        if got["route"] != want["route"]:
            return f"route {got['route']} != {want['route']}"
        # compare eigenpairs, not distinct roots: a double root is listed twice
        pg = sorted(zip(got["z0"], got["residual"]))
        pw = sorted(zip(want["z0"], want["residual"]))
        if len(pg) != len(pw):
            return f"{len(pg)} eigenpairs, reference has {len(pw)}"
        for (z, r), (z_ref, r_ref) in zip(pg, pw):
            if not abs(z - z_ref) <= ROOT_TOL:
                return f"root {z!r} off the reference {z_ref!r}"
            # Panel grids leave ||Theta g|| of order one at the seed commit's
            # roots; there the residual may not grow past the reference's.
            if not r <= max(RESIDUAL_MAX, r_ref * (1.0 + RESIDUAL_GROWTH)):
                return f"residual {r:.3e} at root {z!r} (reference {r_ref:.3e})"
        return None
    if command in ("mtheta", "symbol"):
        return None if _close_table(got, want) else f"{command}.csv values differ"
    return None if got == want else f"{command} output differs from the reference"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
