"""Outside-in tracer for the traced benchmark run.

Wraps the public functions of each layer at the module attribute its caller
looks up (``boundary_ops.log_kernel_matrix``, ``kernels.bessel_i1``, the
quadrature functions as ``boundary_ops`` imported them, ``classify.m_of``,
``numpy.linalg.eigvalsh``, ...).  Each call records a span (name, start,
end, parent) in memory; hooks add counts derived from the arguments.  The
program itself is not changed: ``uninstall`` puts every original attribute
back, and the untraced run installs nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

LAYERS = ("geometry", "quadrature", "kernels", "boundary_ops",
          "corner_symbol", "classify", "spectral", "cli")


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _points(x) -> int:
    shape = getattr(x, "shape", ())
    n = 1
    for d in shape[:-1]:
        n *= int(d)
    return n


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _bessel_hook(tr, args, kwargs, result):
    tr.counts["kernels.bessel_points"] += _size(args[0])


def _phi_z_hook(tr, args, kwargs, result):
    tr.counts["kernels.phi_z_points"] += _points(args[0])


def _assemble_hook(tr, args, kwargs, result):
    tr.distinct_z.add((tr.op_index, float(_arg(args, kwargs, 1, "z"))))


def _potential_hook(tr, args, kwargs, result):
    tr.counts["boundary_ops.potential_points"] += _points(_arg(args, kwargs, 4, "points"))


def _spectral_exit_hook(tr, args, kwargs, result):
    grid = _arg(args, kwargs, 0, "grid")
    tr.max_cache_bytes = max(tr.max_cache_bytes, cache_bytes(grid.cache()))


def _find_hook(tr, args, kwargs, result):
    _spectral_exit_hook(tr, args, kwargs, result)
    tr.counts["spectral.roots"] += len(result)


# Computed work of a dense Hermitian eigensolve of order n, from the size of
# its input only: tridiagonal reduction 4/3 n^3 real flops for eigenvalues,
# about 9 n^3 with eigenvectors (Golub & Van Loan, sec. 8.3); a complex
# matrix costs four times the real flops.
def _eig_hook(flops_per_n3):
    def hook(tr, args, kwargs, result):
        a = args[0] if args else kwargs["a"]
        n = a.shape[-1]
        factor = 4.0 if a.dtype.kind == "c" else 1.0
        tr.counts["spectral.eigensolve_flop"] += factor * flops_per_n3 * n ** 3
        tr.counts["spectral.eigensolve_matrix_bytes"] += a.nbytes
    return hook


# (module, attribute, span name, layer, hook); numpy.linalg functions are
# counted only when spectral calls them (numpy's leggauss also calls eigvalsh).
TARGETS = (
    ("diracshell.cli", "main", "cli.main", "cli", None),
    ("diracshell.cli", "parse_config", "cli.parse_config", "cli", None),
    ("diracshell.cli", "write_atomic", "cli.write_atomic", "cli", None),
    ("diracshell.geometry", "build_curve", "geometry.build_curve", "geometry", None),
    ("diracshell.geometry", "discretize", "geometry.discretize", "geometry", None),
    ("diracshell.boundary_ops", "cauchy_moments", "quadrature.cauchy_moments", "quadrature", None),
    ("diracshell.boundary_ops", "log_moments", "quadrature.log_moments", "quadrature", None),
    ("diracshell.boundary_ops", "product_weights", "quadrature.product_weights", "quadrature", None),
    ("diracshell.boundary_ops", "kress_log_weights", "quadrature.kress_log_weights", "quadrature", None),
    ("diracshell.kernels", "bessel_k0", "kernels.bessel_k0", "kernels", _bessel_hook),
    ("diracshell.kernels", "bessel_k1", "kernels.bessel_k1", "kernels", _bessel_hook),
    ("diracshell.kernels", "bessel_i0", "kernels.bessel_i0", "kernels", _bessel_hook),
    ("diracshell.kernels", "bessel_i1", "kernels.bessel_i1", "kernels", _bessel_hook),
    ("diracshell.kernels", "b_k0", "kernels.b_k0", "kernels", _bessel_hook),
    ("diracshell.kernels", "b_k1", "kernels.b_k1", "kernels", _bessel_hook),
    ("diracshell.kernels", "phi_z", "kernels.phi_z", "kernels", _phi_z_hook),
    ("diracshell.boundary_ops", "cauchy_weight_table", "boundary_ops.cauchy_weight_table", "boundary_ops", None),
    ("diracshell.boundary_ops", "log_kernel_matrix", "boundary_ops.log_kernel_matrix", "boundary_ops", None),
    ("diracshell.boundary_ops", "assemble_Cz", "boundary_ops.assemble_Cz", "boundary_ops", _assemble_hook),
    ("diracshell.boundary_ops", "assemble_Sz", "boundary_ops.assemble_Sz", "boundary_ops", _assemble_hook),
    ("diracshell.boundary_ops", "assemble_lambda", "boundary_ops.assemble_lambda", "boundary_ops", None),
    ("diracshell.boundary_ops", "assemble_theta", "boundary_ops.assemble_theta", "boundary_ops", None),
    ("diracshell.boundary_ops", "assemble_cauchy", "boundary_ops.assemble_cauchy", "boundary_ops", None),
    ("diracshell.boundary_ops", "evaluate_potential", "boundary_ops.evaluate_potential", "boundary_ops", _potential_hook),
    ("diracshell.boundary_ops", "lu_solve_with_cond", "boundary_ops.lu_solve_with_cond", "boundary_ops", None),
    ("diracshell.spectral", "find_eigenvalues", "spectral.find_eigenvalues", "spectral", _find_hook),
    ("diracshell.spectral", "gap_sweep", "spectral.gap_sweep", "spectral", _spectral_exit_hook),
    ("diracshell.spectral", "verify_identities", "spectral.verify_identities", "spectral", _spectral_exit_hook),
    ("numpy.linalg", "eigvalsh", "spectral.eigvalsh", "spectral", _eig_hook(4.0 / 3.0)),
    ("numpy.linalg", "eigh", "spectral.eigh", "spectral", _eig_hook(9.0)),
    ("numpy.linalg", "svd", "spectral.svd", "spectral", None),
    ("diracshell.corner_symbol", "delta_direct", "corner_symbol.delta_direct", "corner_symbol", None),
    ("diracshell.corner_symbol", "m_of", "corner_symbol.m_of", "corner_symbol", None),
    ("diracshell.classify", "m_of", "corner_symbol.m_of", "corner_symbol", None),
    ("diracshell.classify", "classify", "classify.classify", "classify", None),
)

LAYER_OF = {name: layer for _, _, name, layer, _ in TARGETS}


def cache_bytes(obj) -> int:
    """Bytes of the numpy arrays held in a grid cache (nested containers)."""
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    if isinstance(obj, dict):
        return sum(cache_bytes(v) for v in obj.values())
    if isinstance(obj, (tuple, list)):
        return sum(cache_bytes(v) for v in obj)
    return 0


class Tracer:
    """Spans and counts of one traced pass.  Use as a context manager."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = Counter()
        self.distinct_z = set()  # (operation index, z) of each assembly
        self.max_cache_bytes = 0
        self.op_index = 0
        self.missing = []  # targets the program no longer has
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, hook, caller):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if caller is not None and sys._getframe(1).f_globals.get("__name__") != caller:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for module_name, attr, name, _, hook in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:  # renamed or removed: its metrics read zero
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            caller = "diracshell.spectral" if module_name == "numpy.linalg" else None
            setattr(module, attr, self._wrap(name, original, hook, caller))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- summaries ---------------------------------------------------------

    def durations(self) -> dict:
        """name -> (calls, total seconds)."""
        out: dict = {}
        for name, start, end, _ in self.spans:
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start))
        return out

    def self_times(self) -> dict:
        """layer -> seconds inside its spans not covered by child spans."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, *_), t in zip(self.spans, own):
            out[LAYER_OF[name]] += t
        return out

    def dump(self, path, extra: dict):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(extra)
        doc["counts"] = dict(self.counts)
        doc["missing_targets"] = self.missing
        doc["span_names"] = names
        doc["span_layers"] = [LAYER_OF[n] for n in names]
        doc["spans"] = {
            "name": [index[s[0]] for s in self.spans],
            "start": [round(s[1], 7) for s in self.spans],
            "end": [round(s[2], 7) for s in self.spans],
            "parent": [s[3] for s in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
