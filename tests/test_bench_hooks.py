"""The benchmark's tracer still finds every name it wraps in the library."""

import importlib.util
from pathlib import Path

from util import w_border_cert

import tpl
from tpl.catalog import Catalog
from tpl.matrix import Matrix
from tpl.obstructions import KoszulSpec

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
        w_border_cert().maps[0].eval_eps(2)
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


# What each of the tracer's probes records: ("counts" or "keys", name).
PROBE_OUTPUTS = {
    "tensor.apply_product_map": ("counts", "tensor.apply_product_map.terms"),
    "preorder.verify_restriction": ("keys", "preorder.verify"),
    "preorder.verify_degeneration": ("keys", "preorder.verify"),
    "matrix.rank": ("counts", "matrix.rank.max_side"),
    "hypergraph.build_structure": ("counts", "hypergraph.build_structure.nnz_out"),
    "obstructions.max_simple_koszul_rank": ("keys", "obstructions.simple_rank"),
    "catalog.verify_entry": ("keys", "catalog.verify"),
    "jsonio.load_path": ("counts", "jsonio.load_path.bytes"),
    "jsonio.dump_path": ("counts", "jsonio.dump_path.bytes"),
}


def test_every_probe_runs_and_records(tmp_path):
    tracer_module = load_tracer()
    assert set(PROBE_OUTPUTS) == set(tracer_module.PROBES)
    tracer = tracer_module.Tracer()
    with tracer:
        # Looked up at call time, so that the tracer's wrappers are called.
        tpl.interpolate(tpl.ghz(2), tpl.w_state(), w_border_cert())
        w_border_cert().maps[0].eval_eps(2)
        tpl.matrix.rank(tpl.flatten(tpl.w_state(), {0}))
        tpl.hypergraph.build_structure(tpl.hypergraph.make_family("Fan", 2), tpl.w_state())
        tpl.obstructions.max_simple_koszul_rank(KoszulSpec(3, 1), trials=4, seed=1)
        entry = Catalog.packaged().get("w-border2-degeneration")
        catalog = Catalog(tmp_path / "cat")
        catalog.put(entry)
        assert catalog.get(entry.id).tensor == entry.tensor
    names = {span[0] for span in tracer.spans}
    for probe, (store, key) in PROBE_OUTPUTS.items():
        assert probe in names, probe
        assert getattr(tracer, store)[key], (probe, key)
    assert tracer.keys["obstructions.simple_rank"] == {"3,1,4,1"}
