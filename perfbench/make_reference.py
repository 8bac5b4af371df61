"""Write reference.json from the unmoved curves (preset configs).

Run from the root of a checkout whose results are the reference:

    python3 perfbench/make_reference.py

The benchmark checks every seed's moved configs against this file.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parents[1] / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    import diracshell.cli as cli

    reference = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        tmp = Path(tmp)
        for workload in workloads.WORKLOADS:
            ops = workloads.operations(workload, None)
            for op, path in zip(ops, workloads.write_configs(ops, tmp / "configs")):
                out = tmp / op.key
                rc = cli.main(op.argv(path, out))
                if rc != 0:
                    print(f"{op.key}: exit status {rc}", file=sys.stderr)
                    return 1
                reference[op.key] = workloads.extract(op.command, out)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
