import ast
import importlib.util
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import tpl
from tpl.named import ghz, w_state
from tpl.preorder import verify_restriction
from tpl.scalars import QC
from restriction_search import (
    _rational_candidates,
    _try_round_all,
    heuristic_restriction_search,
    polish_rational_certificate,
)
from tpl.tensor import Tensor


def epr_12():
    return Tensor((2, 2, 2), {(0, 0, 0): QC(1), (1, 1, 0): QC(1)})


def test_als_identity_seed_converges():
    w = w_state()
    maps, residual = heuristic_restriction_search(w, w, iterations=5, restarts=1)
    assert residual <= 1e-12


def test_als_finds_w_to_epr():
    maps, residual = heuristic_restriction_search(
        w_state(), epr_12(), iterations=200, restarts=20, seed=1
    )
    assert residual <= 1e-12
    cert = polish_rational_certificate(w_state(), epr_12(), maps)
    assert cert is not None
    assert verify_restriction(w_state(), epr_12(), cert)


def test_als_ghz2_to_w_stays_away_from_zero():
    """Heuristic evidence only: bounded iteration ALS stalls at positive
    residual for a conversion that exists only in the limit."""
    maps, residual = heuristic_restriction_search(
        ghz(2), w_state(), iterations=200, restarts=50, seed=2
    )
    assert residual > 1e-6


def test_rational_candidates_nearest_first_and_distinct():
    # Bounds 1..4 give (0, 0), (1/2, 1/2), (1/3, 1/2), (1/4, 1/2).
    assert _rational_candidates(0.26 + 0.49j) == [
        QC(Fraction(1, 4), Fraction(1, 2)),
        QC(Fraction(1, 3), Fraction(1, 2)),
        QC(Fraction(1, 2), Fraction(1, 2)),
    ]
    assert _rational_candidates(-0.74 + 0j)[:2] == [QC(Fraction(-3, 4)), QC(Fraction(-2, 3))]
    # Every bound rounds 1.0 to 1, so one candidate remains.
    assert _rational_candidates(1.0 + 0j) == [QC(1)]


def test_polish_pins_entries_when_rounding_fails():
    """GHZ_2 -> EPR converges numerically, but rounding the float maps does
    not verify, so polishing runs its pin-and-backtrack loop."""
    maps, residual = heuristic_restriction_search(
        ghz(2), epr_12(), iterations=200, restarts=20, seed=0
    )
    assert residual <= 1e-12
    assert all(isinstance(m, np.ndarray) for m in maps)
    assert _try_round_all(ghz(2), epr_12(), maps) is None
    cert = polish_rational_certificate(ghz(2), epr_12(), maps)
    assert cert is None or verify_restriction(ghz(2), epr_12(), cert)


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
        if path.name == "search.py":
            continue
        imported = _imported_modules(ast.parse(path.read_text()))
        assert "tpl.search" not in imported, path.name
    preorder = ast.parse((src / "preorder.py").read_text())
    assert not any(n == "numpy" or n.startswith("numpy.") for n in _imported_modules(preorder))
    names = {n.id for n in ast.walk(preorder) if isinstance(n, ast.Name)}
    names |= {a.name for n in ast.walk(preorder) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert "FLOAT" not in names


def test_import_tpl_and_cli_does_not_load_search():
    check = "import sys, tpl, tpl.cli; assert 'tpl.search' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_search_ships_outside_the_package():
    assert importlib.util.find_spec("tpl.search") is None


def test_derivation_script_starts():
    script = Path(__file__).resolve().parent.parent / "scripts" / "derive_decompositions.py"
    proc = subprocess.run([sys.executable, str(script), "--help"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ")
