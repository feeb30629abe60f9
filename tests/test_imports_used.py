"""Every name a module binds by a top-level import is used in that module.

Covers the package modules other than ``__init__`` (which imports to
re-export) and the scripts, parsed with ``ast``, so a deletion leaves no
import behind.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "tpl").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py"))
)


def unused_imports(source):
    """Names bound by the module's top-level imports that nothing else names."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a.b import c, d as e\nsys.exit(e)\n") == ["c", "os"]
    assert unused_imports("from __future__ import annotations\nimport a.b\na.b.f()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_top_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []
