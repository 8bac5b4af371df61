"""Every function the benchmark tracer wraps must still exist.

The tracer (``perfbench/tracer.py``) reports a target it cannot find as
missing and its per-layer metrics then read zero, so a rename would pass
unnoticed; this test makes it fail instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, *_ in tracer.TARGETS]


@pytest.mark.parametrize("module, attr", _targets())
def test_trace_target_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
