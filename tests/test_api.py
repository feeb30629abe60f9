"""The public surface is pinned: dropping or adding a name is a visible edit here.

``PUBLIC_NAMES`` is ``dir(tpl)`` without underscore names, read in a fresh
interpreter right after ``import tpl`` (so the submodules that import pulls
in are listed too), and ``SUBCOMMANDS`` the ``tpl`` subcommands in the order
``tpl --help`` lists them.
"""

import argparse
import json
import subprocess
import sys

from tpl.cli import build_parser

PUBLIC_NAMES = [
    "Bound", "BoundReport", "Catalog", "CatalogEntry", "CatalogError", "CertificateError",
    "Degeneration", "DegenerationCertificate", "EPS", "EpsPoly", "FLOAT", "FoldResult",
    "GroupingMap", "GroupingSpec", "Hypergraph", "KoszulSpec", "Matrix", "NamedTensorSpec",
    "OrbitClass222", "QC", "RATIONAL", "RestrictionCertificate", "StructureTooLarge", "Tensor",
    "ThetaWeights", "apply_product_map", "asymptotic", "build_structure", "catalog",
    "classify_222", "compose_restrictions", "cw", "decide_222", "direct_sum", "direct_sum_many",
    "disjoint_rank_bounds", "epr", "equal_up_to_padding", "flatten", "flattening_ratio", "fold",
    "fold_to_fan", "gauge_points", "ghz", "group", "hyperdeterminant_222", "hypergraph",
    "interpolate", "is_homomorphism", "jsonio", "koszul_flatten", "kron", "kron_power",
    "lattice_construction", "lattice_obstruction", "make_family", "make_named", "mamu", "matrix",
    "named", "obstructions", "omega_bound", "permute_factors", "preorder",
    "quantum_functional_point", "rank", "rank_222", "rank_float", "scalars", "simple",
    "slot_structure", "strassen_rank_bounds", "strip_padding", "subrank_222", "tensor",
    "tensor_product", "unit", "verify_degeneration", "verify_restriction", "w_state",
]

SUBCOMMANDS = [
    "build", "classify", "op", "cert-verify", "cert-interpolate", "decide", "obstruct",
    "bounds", "hypergraph", "catalog",
]


def test_public_names_of_tpl_are_pinned():
    script = "import json, tpl; print(json.dumps([n for n in dir(tpl) if not n.startswith('_')]))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == PUBLIC_NAMES


def test_cli_subcommands_are_pinned():
    actions = build_parser()._actions
    sub = next(a for a in actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == SUBCOMMANDS
