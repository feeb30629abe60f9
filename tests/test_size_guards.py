"""Size refusals are raised in a few named places.

Parsed with ``ast``, in the style of ``test_imports_used.py``: the Koszul
side limit ``MATRIX_SIDE_GUARD`` is named only by the obstructions module,
whose Koszul size rule is the one that uses it, and the functions that
raise ``StructureTooLarge`` themselves are exactly the ones listed below.
Every other size check goes through ``scalars.check_entry_count``, so a new
private size check has to be added to the list on purpose.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tpl"
RAISERS = {
    "scalars.check_entry_count",  # the entry guard every builder counts against
    "tensor._Lane.__init__",  # packed value bits, a bit count rather than entries
    "obstructions.koszul_flatten",  # raises the reason of the Koszul size rule
}


def names(tree):
    """Every name, attribute and imported name that the module's source mentions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
    return found


def raisers(tree, module):
    """Qualified names of the functions whose own body raises StructureTooLarge."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "StructureTooLarge":
                    found.add(scope)
            visit(child, inner)

    visit(tree, module)
    return found


def parsed():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def test_the_checks_see_names_and_raises():
    tree = ast.parse(
        "from a import G\nclass C:\n    def f(self):\n        def g():\n            raise StructureTooLarge('x')\n"
        "        raise ValueError(G)\ndef h():\n    raise StructureTooLarge\n"
    )
    assert {"G", "StructureTooLarge", "ValueError"} <= names(tree)
    assert raisers(tree, "m") == {"m.C.f.g", "m.h"}


def test_the_side_guard_is_named_only_by_the_obstructions_module():
    assert sorted(m for m, tree in parsed().items() if "MATRIX_SIDE_GUARD" in names(tree)) == ["obstructions"]


def test_only_the_listed_functions_raise_structure_too_large():
    found = set().union(*(raisers(tree, module) for module, tree in parsed().items()))
    assert found == RAISERS
