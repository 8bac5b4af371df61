"""No module of the package imports a name it never reads.

Deleting code leaves its imports behind, and no linter runs on this tree,
so this test reads each module's syntax tree instead.
"""

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "diracshell"


def unused_imports(source: str) -> list:
    """The names the imports of a module bind (at any depth) that no
    expression of it reads, each with the line of its import.  A name
    listed in ``__all__`` counts as read; ``from __future__`` binds none."""
    tree = ast.parse(source)
    bound = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name.split(".")[0], node.lineno)
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((alias.asname or alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


def test_unused_imports_finds_an_unread_name():
    source = "from __future__ import annotations\nimport os\nimport sys\nsys.exit()\n"
    assert unused_imports(source) == ["os (line 2)"]


@pytest.mark.parametrize("module", sorted(p.name for p in _PACKAGE.glob("*.py")))
def test_module_reads_every_import(module):
    assert unused_imports((_PACKAGE / module).read_text(encoding="utf-8")) == []
