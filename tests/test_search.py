import ast
import subprocess
import sys
from pathlib import Path

import tpl
from derive_decompositions import anneal_search, mamu2_entry, w_kron2_entry
from tpl import jsonio
from tpl.catalog import entry_to_json, verify_entry
from tpl.named import w_state
from tpl.tensor import kron

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "derive_decompositions.py"
PACKAGED_CATALOG = Path(tpl.__file__).parent / "data" / "catalog"


def _imported_modules(tree):
    """Absolute names of the tpl modules and packages one module imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "tpl" + ("." + base if base else "")
            names.add(base)
            names.update(f"{base}.{a.name}" for a in node.names)
    return names


def test_certificate_core_does_not_import_search():
    src = Path(tpl.__file__).parent
    for path in sorted(src.glob("*.py")):
        imported = _imported_modules(ast.parse(path.read_text()))
        assert not any(n.startswith(SCRIPT.stem) for n in imported), path.name
    preorder = ast.parse((src / "preorder.py").read_text())
    assert not any(n == "numpy" or n.startswith("numpy.") for n in _imported_modules(preorder))
    names = {n.id for n in ast.walk(preorder) if isinstance(n, ast.Name)}
    names |= {a.name for n in ast.walk(preorder) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert "FLOAT" not in names


def test_derivation_script_starts():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--help"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ")


def test_derivation_rebuilds_the_packaged_rank7_entries():
    """Both routes give the shipped files byte for byte.

    The script anneals from base seed 0, and restart 60 is the first to
    succeed; starting at seed 60 reaches the same terms in one restart.
    """
    terms = anneal_search(kron(w_state(), w_state()), 7, base_seed=60, restarts=1)
    for entry in (w_kron2_entry(terms), mamu2_entry()):
        verify_entry(entry)
        text = jsonio.dumps_pretty(entry_to_json(entry))
        assert text == (PACKAGED_CATALOG / f"{entry.id}.json").read_text(), entry.id
