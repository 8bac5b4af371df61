"""Tests of the benchmark itself: generator, reference checks, names, tracer.

Run with ``python3 -m pytest perfbench`` from the root of a checkout.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))
import diracshell.cli as cli  # noqa: E402

SEEDS = (1, 2, 7)


def _small(op: workloads.Op, nodes: int, samples: int) -> workloads.Op:
    cfg = op.config
    for key, value in (("nodes_per_edge", nodes), ("samples", samples)):
        old = next(line for line in cfg.splitlines() if line.startswith(key))
        cfg = cfg.replace(old, f"{key} = {value}")
    return workloads.Op(op.key, op.command, cfg, op.flags, op.builds_grid)


def _run(op, tmp: Path, tag: str):
    [path] = workloads.write_configs([op], tmp / tag)
    out = tmp / tag / "out"
    assert cli.main(op.argv(path, out)) == 0
    return workloads.extract(op.command, out)


@pytest.mark.parametrize("workload,nodes,samples", [
    ("eigs-circle", 64, 24),
    ("eigs-polygon", 16, 16),
])
def test_moved_curves_keep_the_unmoved_roots(tmp_path, workload, nodes, samples):
    unmoved = [_small(op, nodes, samples) for op in workloads.operations(workload, None)]
    want = {op.key: _run(op, tmp_path, f"ref-{op.key}") for op in unmoved}
    assert all(w["z0"] for w in want.values())
    for seed in SEEDS:
        motion = workloads.motion_from_seed(seed)
        for op in workloads.operations(workload, motion):
            got = _run(_small(op, nodes, samples), tmp_path, f"{seed}-{op.key}")
            assert got["route"] == want[op.key]["route"]
            assert len(got["z0"]) == len(want[op.key]["z0"])
            for a, b in zip(sorted(got["z0"]), sorted(want[op.key]["z0"])):
                assert abs(a - b) <= workloads.ROOT_TOL


def test_moved_square_keeps_the_reference_classification(tmp_path):
    reference = workloads.load_reference()
    for seed in SEEDS:
        for op in workloads.operations("oneshot", workloads.motion_from_seed(seed)):
            if op.command in ("classify", "sweep"):
                got = _run(op, tmp_path, f"{seed}-{op.key}")
                assert workloads.check(op.command, got, reference[op.key]) is None


def test_seed_fixes_the_motion():
    assert workloads.motion_from_seed(5) == workloads.motion_from_seed(5)
    assert workloads.motion_from_seed(5) != workloads.motion_from_seed(6)


def test_check_rejects_a_moved_root_and_compares_pairs():
    want = {"route": "scalar", "z0": [0.1, 0.2, 0.2], "residual": [0.0] * 3}
    ok = dict(want, z0=[0.2, 0.1, 0.2 + 5e-11])
    assert workloads.check("eigs", ok, want) is None
    assert workloads.check("eigs", dict(want, z0=[0.1, 0.2]), want) is not None
    assert workloads.check("eigs", dict(want, z0=[0.1, 0.2, 0.2 + 1e-9]), want) is not None
    assert workloads.check("eigs", dict(want, residual=[0.0, 1.0, 0.0]), want) is not None
    assert workloads.check("verify", {"cc2": False}, {"cc2": True}) is not None
    assert workloads.check("mtheta", [[1.0, 2.0]], [[1.0, 2.0 + 1e-9]]) is not None


def test_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert spec["paths"] == [run.HERE.relative_to(run.ROOT).as_posix()]


def _snapshot():
    names = {module for module, *_ in tracer.TARGETS}
    return {name: dict(vars(importlib.import_module(name))) for name in names}


def test_tracer_restores_attributes_and_reports_every_layer_metric(tmp_path):
    before = _snapshot()
    ops = [op for op in workloads.operations("oneshot", workloads.motion_from_seed(3))
           if op.command in ("classify", "mtheta")]
    paths = workloads.write_configs(ops, tmp_path / "configs")
    with tracer.Tracer() as tr:
        times, failures = run.run_pass(cli, ops, paths, tmp_path / "out",
                                       workloads.load_reference(), workloads, tr)
    after = _snapshot()
    assert failures == []
    for module, attrs in before.items():
        assert after[module].keys() == attrs.keys()
        changed = [k for k, v in attrs.items() if after[module][k] is not v]
        assert changed == [], f"{module}: {changed}"

    values = run.layer_metrics(tr, sum(times), sum(times), {}, True)
    assert sorted(values) == sorted(name for name, _ in run.PER_LAYER)
    assert all(math.isfinite(v) for v in values.values())
    assert values["classify.classify_calls"] == 1
    assert values["corner_symbol.m_of_calls"] >= 19
    spans = tr.durations()
    assert spans["cli.main"][0] == len(ops)


def test_tracer_skips_a_target_the_program_no_longer_has(monkeypatch):
    gone = ("diracshell.kernels", "no_such_function", "kernels.no_such_function",
            "kernels", None)
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (gone,))
    before = _snapshot()
    with tracer.Tracer() as tr:
        pass
    assert tr.missing == ["diracshell.kernels.no_such_function"]
    assert _snapshot()["diracshell.kernels"] == before["diracshell.kernels"]
