"""Self-tests of the benchmark: tiny runs, self time, tampering, determinism.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import oracle
import run
import speed
import tracer
import workloads
from tpl.preorder import RestrictionCertificate

BENCH = Path(__file__).resolve().parent


def tiny(name, ops=3):
    """A workload shrunk to ``ops`` cases per part; a part's name gives a mix of that part alone."""
    if name in workloads.MIXES:
        w = workloads.make(name, run.ROOT, run.child_env())
    else:
        w = workloads.Mix(name, [workloads.make_part(name, run.ROOT, run.child_env())], 90)
    for part in w.parts.values():
        part.round_ops = ops
    return w


def traced_calls(name, indices, tmp_path):
    """Trace cases ``indices`` of part ``name``; return [(kind, Counter of layer span calls)] per op."""
    w = workloads.make_part(name, run.ROOT, run.child_env())
    ctx = w.prepare(4, tmp_path)
    cases = [w.case(ctx, i) for i in indices]
    tr = tracer.Tracer()
    with tr:
        records, _seconds = run.run_pass(w, ctx, cases, tr)
    assert not run.check_records(w, ctx, records)
    calls = {c.index: Counter() for c in cases}
    for span_name, _start, _end, _up, op in tr.spans:
        calls[op][span_name] += 1
    return [(c.kind, calls[c.index]) for c in cases]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_metric(name):
    result, lines = run.run(tiny(name), seed=3, seconds=0.2, trace=False)
    assert result["correct"] is True, lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    report = "\n".join(lines)
    for name_ in ("ops_per_s", "op_p50_s", "op_tail_s", "write_p50_s", "failed_ratio", "setup_s", "peak_rss_mb"):
        assert name_ in report


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    result, _lines = run.run(tiny("query"), seed=3, seconds=0.2, trace=True)
    assert {m["name"] for m in spec["per_layer"]} == set(result["metrics"])
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        result, _lines = run.run(tiny("certify", ops=2), seed=5, seconds=0.2, trace=True)
        assert result["correct"] is True
        counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"
                       and k != "trace.overhead_ratio"})
    assert counts[0] == counts[1]
    assert counts[0]["matrix.rank.calls"] == 0
    assert counts[0]["preorder.interpolate.calls"] == 4  # one per interp op and one per lattice op


def test_layer_calls_per_op_kind(tmp_path):
    for kind, calls in traced_calls("interp", range(4), tmp_path / "interp"):
        assert calls["matrix.rank"] == 0, kind
    for kind, calls in traced_calls("lattice", [0, 1], tmp_path / "lattice"):
        assert calls["preorder.verify_degeneration"] == 3 * calls["asymptotic.lattice_construction"] == 3, kind
    bounds = traced_calls("bounds", range(5), tmp_path / "bounds")
    assert sorted({kind for kind, _calls in bounds}) == ["disjoint", "obstruct-1", "obstruct-2", "ratio"]
    for kind, calls in bounds:
        # the catalog re-verifies the W degeneration once per disjoint_rank_bounds
        assert calls["tensor.apply_product_map"] == (1 if kind == "disjoint" else 0), kind


def test_times_are_scaled_by_their_own_kinds_reference():
    s = speed.Speed(run.child_env(), run.ROOT)
    s.samples = {"process": [0.004, 0.010, 0.012], "child": [0.3]}
    assert s.scale("process") == speed.REF_S["process"] / 0.010
    assert s.scale("child") == speed.REF_S["child"] / 0.3
    s.sample("process")
    s.sample("child")
    assert [len(v) for v in s.samples.values()] == [4, 2]


def test_self_time_subtracts_merged_children():
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],  # overlaps a: covered part of root is 1..6
        ["a.child", 2.0, 3.0, 1, 0],
        ["late", 9.0, 12.0, 0, 0],  # clipped to the root's end
    ]
    assert tracer.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0]


def test_tracer_wraps_every_binding_site_and_restores():
    import tpl
    import tpl.preorder
    import tpl.tensor

    original = tpl.tensor.apply_product_map
    tr = tracer.Tracer()
    with tr:
        assert tpl.preorder.apply_product_map is not original
        assert tpl.apply_product_map is tpl.tensor.apply_product_map is tpl.preorder.apply_product_map
        tpl.ghz(2)
    assert tpl.preorder.apply_product_map is original and tpl.apply_product_map is original
    assert [s[0] for s in tr.spans] == ["named.ghz"]


@pytest.mark.parametrize("name", ["interp", "lattice", "bounds", "certify"])
def test_no_input_repeats_within_a_run(name, tmp_path):
    make = workloads.make if name in workloads.MIXES else workloads.make_part
    w = make(name, run.ROOT, run.child_env())
    ctx = w.prepare(7, tmp_path)
    cases = [w.case(ctx, i) for i in range(-1, 2 * w.round_ops)]
    assert len({run.case_text(c) for c in cases}) == len(cases)


def test_obstruction_ties_are_discriminated(tmp_path):
    w = workloads.make_part("bounds", run.ROOT, run.child_env())
    ctx = w.prepare(3, tmp_path)
    ties = [w.case(ctx, i) for i, (op, spec) in enumerate(w.cycle) if spec == w.GHZ]
    assert sorted(c.kind for c in ties) == ["obstruct-1", "obstruct-2"]
    for case in ties:
        assert w.run(ctx, case) is False
        w.check(ctx, case, False)
        with pytest.raises(oracle.CheckFailed):
            w.check(ctx, case, True)  # what `<=` in place of `<`, or a rank one too high, would give


def test_tampered_certificate_counts_as_failed():
    w = tiny("interp")
    honest = w.run

    def tampered(ctx, case):
        cert, ok = honest(ctx, case)
        # Doubling one map doubles the image, so the forgery never reaches the target.
        forged = RestrictionCertificate((cert.maps[0].scale(2), *cert.maps[1:]))
        return forged, ok  # the library's own verdict is kept: only the oracle can notice

    w.run = tampered
    result, lines = run.run(w, seed=3, seconds=0.2, trace=False)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert any("failed_ratio  1 " in line for line in lines)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "interp", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
