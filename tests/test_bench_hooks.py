"""The benchmark's tracer still finds every name it wraps in the library."""

import importlib.util
from pathlib import Path

from test_preorder import w_border_cert

import tpl
from tpl.matrix import Matrix

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_the_traced_layers_and_restores_them():
    original_kron = Matrix.__dict__["kron"]
    tracer = load_tracer().Tracer()
    with tracer:
        assert Matrix.__dict__["kron"] is not original_kron
        tpl.interpolate(tpl.ghz(2), tpl.w_state(), w_border_cert())
        assert tpl.rank(tpl.flatten(tpl.w_state(), {0})) == 2
        Matrix.identity(2).kron(Matrix.identity(3))
    assert Matrix.__dict__["kron"] is original_kron
    names = {span[0] for span in tracer.spans}
    assert {
        "preorder.interpolate", "preorder.verify_degeneration", "preorder.verify_restriction",
        "tensor.apply_product_map", "matrix.eval_eps", "matrix.rank", "matrix.kron",
        "trace.probe",
    } <= names
    for counter in ("tensor.apply_product_map.nnz_in", "tensor.apply_product_map.nnz_out",
                    "tensor.apply_product_map.terms", "preorder.verify.calls",
                    "matrix.rank.max_side"):
        assert tracer.counts[counter] > 0, counter
