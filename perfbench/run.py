"""Outside-in benchmark of the diracshell CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload eigs-circle --seed 1 --seconds 30 --trace 0

Each run is one fresh Python process that calls ``diracshell.cli.main``
in-process on configs generated from the seed (a closed loop with one
client; one operation is one ``cli.main`` call).  The BLAS pool is pinned
to ``nproc`` threads through the environment, set before the interpreter
that imports numpy starts: the script re-executes itself with that
environment.

``--trace 0`` repeats passes over the workload's operations for about
``--seconds`` seconds (at least one pass) and reports the end-to-end
metrics.  ``--trace 1`` runs one traced and then one untraced pass and reports
the per-layer metrics of the traced pass.  Every operation's artifacts are
checked against ``reference.json``; the last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

_WORKER_ENV = "PERFBENCH_WORKER"
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = 3  # timed set-ups before the passes, and again after them
# After some seconds of idle, the first five or so set-ups of a burst ran
# about 1.5 times slower on a 2-vCPU virtual machine, whatever the processor
# load before them.  That many untimed set-ups come first, so that the
# median does not depend on how long the machine sat idle before the run.
SETUP_WARM_UP = 6

END_TO_END = (
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("geometry.discretize_s", "s"),
    ("quadrature.moment_calls", "count"),
    ("quadrature.moment_s", "s"),
    ("kernels.bessel_calls", "count"),
    ("kernels.bessel_points", "points"),
    ("kernels.bessel_s", "s"),
    ("kernels.phi_z_s", "s"),
    ("kernels.phi_z_points", "points"),
    ("boundary_ops.cauchy_table_s", "s"),
    ("boundary_ops.log_kernel_calls", "count"),
    ("boundary_ops.log_kernel_s", "s"),
    ("boundary_ops.assemble_calls", "count"),
    ("boundary_ops.assemble_distinct_z", "count"),
    ("boundary_ops.assemble_s", "s"),
    ("boundary_ops.repeat_assembly_ratio", "ratio"),
    ("boundary_ops.grid_cache_mb", "MB"),
    ("boundary_ops.potential_s", "s"),
    ("boundary_ops.potential_points", "points"),
    ("boundary_ops.lu_s", "s"),
    ("spectral.eigensolves", "count"),
    ("spectral.eigensolve_s", "s"),
    ("spectral.eigensolves_per_root", "count/root"),
    ("spectral.eigensolve_gflop", "GFLOP-computed"),
    ("spectral.eigensolve_gflops", "GFLOP/s"),
    ("spectral.eigensolve_matrix_mb", "MB-computed"),
    ("spectral.roots", "count"),
    ("spectral.find_s", "s"),
    ("spectral.sweep_s", "s"),
    ("spectral.verify_s", "s"),
    ("spectral.svd_s", "s"),
    ("corner_symbol.delta_direct_calls", "count"),
    ("corner_symbol.delta_direct_s", "s"),
    ("corner_symbol.m_of_calls", "count"),
    ("corner_symbol.m_of_s", "s"),
    ("classify.classify_calls", "count"),
    ("classify.classify_s", "s"),
    ("cli.parse_s", "s"),
    ("cli.write_s", "s"),
    ("cli.artifact_bytes", "bytes"),
    ("cli.artifacts_byte_identical", "flag"),
    ("geometry.self_s", "s"),
    ("quadrature.self_s", "s"),
    ("kernels.self_s", "s"),
    ("boundary_ops.self_s", "s"),
    ("corner_symbol.self_s", "s"),
    ("classify.self_s", "s"),
    ("spectral.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)

# Times the set-up of one fresh interpreter: import diracshell.cli, load
# each config and build the grid of each command that builds one.
_SETUP_CHILD = r"""
import sys, time
t0 = time.perf_counter()
import diracshell.cli as cli
for path, grid in zip(sys.argv[2::2], sys.argv[3::2]):
    cfg = cli.RunConfig.load(path)
    if grid == "1":
        cli.grid_from_config(cfg)
elapsed = time.perf_counter() - t0
if not cli.__file__.startswith(sys.argv[1]):
    sys.exit("diracshell imported from " + cli.__file__)
print(repr(elapsed))
"""


class BenchError(Exception):
    """The benchmark cannot run here (not a failed operation)."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = dict(os.environ)
    for var in _THREAD_VARS:
        env[var] = str(nproc())
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env[_WORKER_ENV] = "1"
    return env


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure_setup(ops, cfg_paths, env, repeats, warm_up=0) -> list:
    """Set-up times of ``repeats`` fresh interpreters, after ``warm_up`` untimed ones."""
    argv = [sys.executable, "-c", _SETUP_CHILD, str(SRC)]
    for op, path in zip(ops, cfg_paths):
        argv += [str(path), "1" if op.builds_grid else "0"]
    times = []
    for _ in range(repeats + warm_up):
        res = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                             text=True, timeout=120)
        if res.returncode != 0:
            raise BenchError(f"set-up child failed: {res.stderr.strip()}")
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return times[warm_up:]


def run_pass(cli, ops, cfg_paths, out_dir, reference, workloads, tracer=None):
    """One pass over the operations: (seconds inside each cli.main, failures)."""
    times = []
    failures = []
    for i, (op, path) in enumerate(zip(ops, cfg_paths)):
        out = out_dir / f"{i}-{op.key}"
        if tracer is not None:
            tracer.op_index = i
        start = time.perf_counter()
        try:
            rc = cli.main(op.argv(path, out))
            reason = None if rc == 0 else f"exit status {rc}"
        except (Exception, SystemExit) as exc:  # a failed operation, not a failed run
            reason = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        # Each CLI command normally has a process of its own.  After `eigs`
        # the grid and its cache stay alive in a reference cycle until the
        # collector runs, so collect here, or peak RSS would depend on when
        # the collector happens to run.
        gc.collect()
        if reason is None:
            try:
                reason = workloads.check(op.command, workloads.extract(op.command, out),
                                         reference[op.key])
            except (OSError, ValueError, KeyError) as exc:
                reason = f"unreadable artifact: {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"{op.key}: {reason}")
    return times, failures


def artifact_map(directory: Path) -> dict:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def layer_metrics(tr, traced_s, untraced_s, artifacts, identical) -> dict:
    """Per-layer values of one traced pass, keyed by PER_LAYER name."""
    d = tr.durations()

    def calls(*names):
        return sum(d.get(n, (0, 0.0))[0] for n in names)

    def secs(*names):
        return sum(d.get(n, (0, 0.0))[1] for n in names)

    moments = ("quadrature.cauchy_moments", "quadrature.log_moments",
               "quadrature.product_weights")
    bessel = tuple(f"kernels.{f}" for f in
                   ("bessel_k0", "bessel_k1", "bessel_i0", "bessel_i1", "b_k0", "b_k1"))
    eig = ("spectral.eigvalsh", "spectral.eigh")
    assemble = ("boundary_ops.assemble_Cz", "boundary_ops.assemble_Sz")
    n_assemble = calls(*assemble)
    n_eig = calls(*eig)
    eig_s = secs(*eig)
    roots = tr.counts["spectral.roots"]
    gflop = tr.counts["spectral.eigensolve_flop"] / 1e9
    values = {
        "geometry.discretize_s": secs("geometry.discretize"),
        "quadrature.moment_calls": calls(*moments),
        "quadrature.moment_s": secs(*moments),
        "kernels.bessel_calls": calls(*bessel),
        "kernels.bessel_points": tr.counts["kernels.bessel_points"],
        "kernels.bessel_s": secs(*bessel),
        "kernels.phi_z_s": secs("kernels.phi_z"),
        "kernels.phi_z_points": tr.counts["kernels.phi_z_points"],
        "boundary_ops.cauchy_table_s": secs("boundary_ops.cauchy_weight_table"),
        "boundary_ops.log_kernel_calls": calls("boundary_ops.log_kernel_matrix"),
        "boundary_ops.log_kernel_s": secs("boundary_ops.log_kernel_matrix"),
        "boundary_ops.assemble_calls": n_assemble,
        "boundary_ops.assemble_distinct_z": len(tr.distinct_z),
        "boundary_ops.assemble_s": secs(*assemble),
        "boundary_ops.repeat_assembly_ratio":
            1.0 - len(tr.distinct_z) / n_assemble if n_assemble else 0.0,
        "boundary_ops.grid_cache_mb": tr.max_cache_bytes / 2**20,
        "boundary_ops.potential_s": secs("boundary_ops.evaluate_potential"),
        "boundary_ops.potential_points": tr.counts["boundary_ops.potential_points"],
        "boundary_ops.lu_s": secs("boundary_ops.lu_solve_with_cond"),
        "spectral.eigensolves": n_eig,
        "spectral.eigensolve_s": eig_s,
        "spectral.eigensolves_per_root": n_eig / roots if roots else 0.0,
        "spectral.eigensolve_gflop": gflop,
        "spectral.eigensolve_gflops": gflop / eig_s if eig_s > 0 else 0.0,
        "spectral.eigensolve_matrix_mb": tr.counts["spectral.eigensolve_matrix_bytes"] / 2**20,
        "spectral.roots": roots,
        "spectral.find_s": secs("spectral.find_eigenvalues"),
        "spectral.sweep_s": secs("spectral.gap_sweep"),
        "spectral.verify_s": secs("spectral.verify_identities"),
        "spectral.svd_s": secs("spectral.svd"),
        "corner_symbol.delta_direct_calls": calls("corner_symbol.delta_direct"),
        "corner_symbol.delta_direct_s": secs("corner_symbol.delta_direct"),
        "corner_symbol.m_of_calls": calls("corner_symbol.m_of"),
        "corner_symbol.m_of_s": secs("corner_symbol.m_of"),
        "classify.classify_calls": calls("classify.classify"),
        "classify.classify_s": secs("classify.classify"),
        "cli.parse_s": secs("cli.parse_config"),
        "cli.write_s": secs("cli.write_atomic"),
        "cli.artifact_bytes": sum(len(b) for b in artifacts.values()),
        "cli.artifacts_byte_identical": 1 if identical else 0,
        "trace.overhead_s": traced_s - untraced_s,
    }
    for layer, t in tr.self_times().items():
        values[f"{layer}.self_s"] = t
    return values


def run_record(args, env) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() if res.returncode == 0 else None
    # a checkout without git history is identified by its sources
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {v: env.get(v) for v in _THREAD_VARS},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def worker(args) -> int:
    import workloads

    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    reference = workloads.load_reference()
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    ops = workloads.operations(args.workload, workloads.motion_from_seed(args.seed))
    cfg_paths = workloads.write_configs(ops, work / "configs")
    env = dict(os.environ)

    # Set-up is timed before, between and after the passes, so that its
    # median does not rest on one moment of the machine's varying speed.
    setup_times = [] if args.trace else measure_setup(ops, cfg_paths, env,
                                                      SETUP_REPEATS, SETUP_WARM_UP)

    import diracshell.cli as cli
    if not cli.__file__.startswith(str(SRC)):
        raise BenchError(f"diracshell imported from {cli.__file__}, not {SRC}")
    # import every layer before timing; set-up cost is setup_s's business
    import diracshell.classify  # noqa: F401
    import diracshell.corner_symbol  # noqa: F401
    import diracshell.spectral  # noqa: F401

    record = run_record(args, env)
    attempted = 0
    failures = []
    if args.trace:
        import tracer

        # The traced pass runs first, in the state a fresh CLI process is in;
        # the later untraced pass reuses memory the allocator already holds,
        # so trace.overhead_s is an upper bound on the tracer's cost.
        plain_dir, traced_dir = work / "untraced", work / "traced"
        with tracer.Tracer() as tr:
            traced, fails = run_pass(cli, ops, cfg_paths, traced_dir, reference,
                                     workloads, tr)
        failures += fails
        untraced, fails = run_pass(cli, ops, cfg_paths, plain_dir, reference, workloads)
        failures += fails
        untraced_s, traced_s = sum(untraced), sum(traced)
        attempted = 2 * len(ops)
        plain_files, traced_files = artifact_map(plain_dir), artifact_map(traced_dir)
        shutil.rmtree(plain_dir, ignore_errors=True)
        shutil.rmtree(traced_dir, ignore_errors=True)
        values = layer_metrics(tr, traced_s, untraced_s, traced_files,
                               plain_files == traced_files)
        record["missing_trace_targets"] = tr.missing
        tr.dump(work / "trace.json", {"record": record, "untraced_s": untraced_s,
                                      "traced_s": traced_s})
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        pass_times, op_times = [], []
        start = time.perf_counter()
        while True:
            out_dir = work / "pass"
            shutil.rmtree(out_dir, ignore_errors=True)
            times, fails = run_pass(cli, ops, cfg_paths, out_dir, reference, workloads)
            pass_times.append(sum(times))
            op_times.append(times)
            setup_times += measure_setup(ops, cfg_paths, env, 1)
            failures += fails
            attempted += len(ops)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(pass_times) > args.seconds:
                break
        shutil.rmtree(out_dir, ignore_errors=True)
        setup_times += measure_setup(ops, cfg_paths, env, SETUP_REPEATS)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"solve_s": statistics.median(pass_times),
                  "setup_s": statistics.median(setup_times), "peak_rss_mb": peak_mb}
        record.update(operation_seconds=op_times, setup_seconds=setup_times)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    record.update(attempted=attempted, failed=len(failures), failures=failures,
                  error_rate=len(failures) / attempted, metrics=metrics)
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("run record: " + ", ".join(
        f"{k}={record[k]}" for k in ("workload", "seed", "nproc", "threads", "blas",
                                     "numpy", "scipy", "python", "commit")))
    for target in record.get("missing_trace_targets", ()):
        print(f"not traced (no such attribute): {target}")
    for reason in failures:
        print(f"FAILED {reason}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'error_rate':40s} {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} operations)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "diracshell" / "__init__.py").is_file():
        print(f"perfbench: no diracshell sources under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get(_WORKER_ENV) != "1":
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                   *(argv if argv is not None else sys.argv[1:])],
                  worker_env())
    try:
        return worker(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
