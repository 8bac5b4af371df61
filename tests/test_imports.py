"""No module of the package imports a name it never reads, and no private
module-level name is left that nothing in the package reads.

Deleting code leaves its imports and its private helpers behind, and no
linter runs on this tree, so these tests read each module's syntax tree
instead.
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


def orphaned_private_names(sources: dict) -> list:
    """The private names (one leading underscore) that a module of ``sources``
    (file name -> source) binds at its top level by def, class or assignment
    and that no expression of any of them reads, by name or as an attribute,
    each with its module and line."""
    bound = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.append((node.name, module, node.lineno))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound.extend((t.id, module, node.lineno) for t in targets
                             if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(f"{name} ({module}, line {line})" for name, module, line in bound
                  if name.startswith("_") and not name.startswith("__") and name not in read)


def test_orphaned_private_names_finds_an_unread_helper():
    sources = {"a.py": "_LIMIT = 3\n_unused = 1\n__all__ = []\n\n"
                       "def _helper():\n    return _LIMIT\n\n\n"
                       "def _orphan():\n    return _helper()\n",
               "b.py": "from . import a\n\nclass _Gone:\n    pass\n\nx = a._unused\n"}
    assert orphaned_private_names(sources) == ["_Gone (b.py, line 3)",
                                               "_orphan (a.py, line 9)"]


def test_package_reads_every_private_name():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(_PACKAGE.glob("*.py"))}
    assert orphaned_private_names(sources) == []
