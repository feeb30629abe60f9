import io
import json
import time
from pathlib import Path

import pytest
from test_api import SUBCOMMANDS
from test_preorder import w_border_cert_with_tail

from tpl import jsonio
from tpl.catalog import Catalog
from tpl.cli import main, render_report
from tpl.matrix import Matrix
from tpl.named import epr, ghz, mamu, w_state
from tpl.preorder import DegenerationCertificate, RestrictionCertificate
from tpl.scalars import EPS, EpsPoly, QC
from tpl.tensor import Tensor, kron


@pytest.fixture()
def w_path(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(jsonio.dumps_pretty(jsonio.tensor_to_json(w_state())))
    return str(path)


@pytest.fixture()
def ghz2_path(tmp_path):
    path = tmp_path / "ghz2.json"
    path.write_text(jsonio.dumps_pretty(jsonio.tensor_to_json(ghz(2))))
    return str(path)


@pytest.fixture()
def border_cert_path(tmp_path):
    c, e = EpsPoly.const, EpsPoly.eps
    m = Matrix(2, 2, {(0, 0): c(1), (1, 0): e(1), (0, 1): c(-1)}, EPS)
    cert = DegenerationCertificate((m, m, m), d=1, e=2)
    path = tmp_path / "w-border.json"
    path.write_text(jsonio.dumps_pretty(jsonio.certificate_to_json(cert)))
    return str(path)


def _tensor_file(tmp_path, name, t):
    path = tmp_path / name
    path.write_text(jsonio.dumps_pretty(jsonio.tensor_to_json(t)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_writes_tensor(capsys, tmp_path):
    out = tmp_path / "t.json"
    code, _, _ = run(capsys, ["build", "--name", "MaMu", "--d", "2", "--out", str(out)])
    assert code == 0
    assert jsonio.tensor_from_json(json.loads(out.read_text())) == mamu(2)


def test_build_usage_error(capsys):
    code, _, err = run(capsys, ["build", "--name", "GHZ"])
    assert code == 2
    assert "cannot build" in err


def test_classify_from_file_and_stdin(capsys, w_path, monkeypatch):
    code, out, _ = run(capsys, ["classify", "--tensor", w_path])
    assert (code, out) == (0, "W\n")
    w_text = jsonio.dumps_pretty(jsonio.tensor_to_json(w_state()))
    monkeypatch.setattr("sys.stdin", io.StringIO(w_text))
    code, out, _ = run(capsys, ["classify"])
    assert (code, out) == (0, "W\n")


def test_build_classify_pipe_golden(capsys, monkeypatch):
    code, built, _ = run(capsys, ["build", "--name", "W"])
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(built))
    code, out, _ = run(capsys, ["classify"])
    assert (code, out) == (0, "W\n")


def test_cert_verify_golden(capsys, ghz2_path, w_path, border_cert_path):
    code, out, _ = run(
        capsys,
        ["cert-verify", "--src", ghz2_path, "--dst", w_path, "--cert", border_cert_path],
    )
    assert code == 0
    assert out == '{"ok":true,"d":1,"e":2}\n'


def test_cert_verify_false_is_success(capsys, ghz2_path, border_cert_path):
    code, out, _ = run(
        capsys,
        ["cert-verify", "--src", ghz2_path, "--dst", ghz2_path, "--cert", border_cert_path],
    )
    assert code == 0
    assert json.loads(out)["ok"] is False


def test_cert_verify_broken_cert_exits_one(capsys, ghz2_path, w_path, tmp_path):
    cert = RestrictionCertificate((Matrix.identity(3),) * 3)
    path = tmp_path / "broken.json"
    path.write_text(jsonio.dumps_pretty(jsonio.certificate_to_json(cert)))
    code, _, err = run(
        capsys, ["cert-verify", "--src", ghz2_path, "--dst", w_path, "--cert", str(path)]
    )
    assert code == 1
    assert "certificate" in err


def test_cert_verify_missing_file_usage_error(capsys, ghz2_path, w_path):
    code, _, _ = run(
        capsys, ["cert-verify", "--src", ghz2_path, "--dst", w_path, "--cert", "/nope.json"]
    )
    assert code == 2


def test_cert_interpolate_round_trip(capsys, ghz2_path, w_path, border_cert_path, tmp_path):
    out = tmp_path / "interp.json"
    code, _, _ = run(
        capsys,
        [
            "cert-interpolate",
            "--src", ghz2_path,
            "--dst", w_path,
            "--cert", border_cert_path,
            "--out", str(out),
        ],
    )
    assert code == 0
    cert = jsonio.certificate_from_json(json.loads(out.read_text()))
    assert all(m.cols == 6 for m in cert.maps)


def test_bounds_disjoint_w_golden(capsys, w_path):
    code, out1, _ = run(capsys, ["bounds", "disjoint", "--tensor", w_path, "--seed", "7"])
    assert code == 0
    obj = json.loads(out1)
    assert obj["lower"]["value"] == "2"
    assert obj["upper"]["value"] == "2"
    code, out2, _ = run(capsys, ["bounds", "disjoint", "--tensor", w_path, "--seed", "7"])
    assert out1 == out2


def test_bounds_table_render(capsys, w_path):
    code, out, _ = run(capsys, ["bounds", "disjoint", "--tensor", w_path, "--format", "table"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("quantity")
    assert any("lower" in line for line in lines)


def test_render_report_empty():
    text = render_report({"quantity": "x"})
    assert text.splitlines()[0].startswith("quantity")
    assert len(text.splitlines()) == 2


def test_obstruct_seeded_reproducible(capsys, w_path):
    code, out1, _ = run(capsys, ["obstruct", "--tensor", w_path, "--seed", "5"])
    code2, out2, _ = run(capsys, ["obstruct", "--tensor", w_path, "--seed", "5"])
    assert code == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["gauge"] == [2, 2, 2]
    assert obj["det222"] == {"re": "0", "im": "0"}


def test_decide_command(capsys, ghz2_path, w_path):
    code, out, _ = run(
        capsys, ["decide", "--src", ghz2_path, "--dst", w_path, "--mode", "degeneration"]
    )
    assert code == 0
    assert json.loads(out) == {"mode": "degeneration", "result": True}


def test_op_round_trip(capsys, w_path, tmp_path):
    out = tmp_path / "sum.json"
    code, _, _ = run(capsys, ["op", "direct-sum", "--src", w_path, "--dst", w_path, "--out", str(out)])
    assert code == 0
    t = jsonio.tensor_from_json(json.loads(out.read_text()))
    assert t.dims == (4, 4, 4) and t.nnz() == 6
    code, out_text, _ = run(capsys, ["op", "rank", "--tensor", str(out), "--left", "0"])
    assert code == 0
    assert json.loads(out_text) == {"rank": 4}


def test_op_equal_pad(capsys, tmp_path, ghz2_path, w_path):
    epr2_path = _tensor_file(tmp_path, "epr.json", epr(2))
    for other in (w_path, epr2_path):  # the same order, then order 2
        code, out, _ = run(capsys, ["op", "equal-pad", "--src", ghz2_path, "--dst", other])
        assert code == 0
        assert json.loads(out) == {"equal": False}


def test_hypergraph_commands(capsys):
    code, out, _ = run(capsys, ["hypergraph", "--family", "Strassen", "--n", "3"])
    assert code == 0
    assert json.loads(out) == {"vertices": 3, "edges": [[0, 1, 2]] * 3}
    code, out, _ = run(capsys, ["hypergraph", "--family", "Triangular", "--n", "12", "--fold-fan"])
    assert code == 0
    assert json.loads(out)["c"] == 6
    code, _, _ = run(capsys, ["hypergraph", "--family", "Triangular", "--n", "1", "--fold-fan"])
    assert code == 1


def test_hypergraph_structure(capsys, tmp_path):
    epr2 = ghz(2, 2)
    path = tmp_path / "epr2.json"
    path.write_text(jsonio.dumps_pretty(jsonio.tensor_to_json(epr2)))
    code, out, _ = run(
        capsys,
        ["hypergraph", "--family", "Strassen", "--n", "2", "--k", "2", "--tensor", str(path)],
    )
    assert code == 0
    t = jsonio.tensor_from_json(json.loads(out))
    assert t == ghz(4, 2)


def test_catalog_cli(capsys, tmp_path):
    code, out, _ = run(capsys, ["catalog", "list"])
    assert code == 0
    assert "w-border2-degeneration" in json.loads(out)["entries"]
    code, out, _ = run(capsys, ["catalog", "verify"])
    assert code == 0
    code, out, _ = run(capsys, ["catalog", "get", "--id", "w-border2-degeneration"])
    assert code == 0
    assert json.loads(out)["id"] == "w-border2-degeneration"
    code, _, _ = run(capsys, ["catalog", "get", "--id", "missing"])
    assert code == 1


def test_catalog_put_rejects_corruption(capsys, tmp_path):
    entry = json.loads(
        (Catalog.packaged().path / "w-border2-degeneration.json").read_text()
    )
    entry["tensor"]["entries"][0]["re"] = "2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(entry))
    code, _, err = run(
        capsys, ["catalog", "put", "--catalog", str(tmp_path / "cat"), "--file", str(bad)]
    )
    assert code == 1


def test_catalog_put_into_a_regular_file_exits_two(capsys, tmp_path):
    not_a_dir = tmp_path / "catalog"
    not_a_dir.write_text("")
    entry = Catalog.packaged().path / "w-border2-degeneration.json"
    code, out, err = run(
        capsys, ["catalog", "put", "--catalog", str(not_a_dir), "--file", str(entry)]
    )
    assert (code, out) == (2, "")
    assert err.startswith("tpl: cannot write")


def test_cert_interpolate_refuses_an_oversized_table(capsys, ghz2_path, w_path, tmp_path):
    # The W border certificate plus eps^100000 at entry (1, 1) of map 0
    # verifies with e = 99,999; interpolating it is refused up front.
    path = tmp_path / "tail.json"
    cert = w_border_cert_with_tail(100000)
    path.write_text(jsonio.dumps_pretty(jsonio.certificate_to_json(cert)))
    code, out, err = run(
        capsys, ["cert-interpolate", "--src", ghz2_path, "--dst", w_path, "--cert", str(path)]
    )
    assert (code, out) == (1, "")
    assert err.startswith("tpl: interpolation evaluation table of shape (100000, 400016)")


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "mystery"])
    assert exc.value.code == 2


def test_shell_pipe_build_classify():
    import subprocess
    import sys

    proc = subprocess.run(
        f"{sys.executable} -m tpl.cli build --name W | {sys.executable} -m tpl.cli classify",
        shell=True,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "W\n"


def test_render_report_omega_rows(capsys, tmp_path):
    path = tmp_path / "mamu2.json"
    path.write_text(jsonio.dumps_pretty(jsonio.tensor_to_json(mamu(2))))
    code, out, _ = run(
        capsys, ["bounds", "strassen", "--tensor", str(path), "--n", "1", "--format", "table"]
    )
    assert code == 0
    assert "exponent" in out
    assert "2.807" in out


@pytest.fixture()
def mamu2_path(tmp_path):
    path = tmp_path / "mamu2.json"
    path.write_text(jsonio.dumps_pretty(jsonio.tensor_to_json(mamu(2))))
    return str(path)


def test_hypergraph_structure_guard_exits_one(capsys, mamu2_path):
    code, out, err = run(
        capsys, ["hypergraph", "--family", "Triangular", "--n", "7", "--tensor", mamu2_path]
    )
    assert (code, out) == (1, "")
    assert err.startswith("tpl: ") and "guard" in err


def test_obstruct_bad_p_usage_error(capsys, w_path):
    code, out, err = run(capsys, ["obstruct", "--tensor", w_path, "--p", "5"])
    assert (code, out) == (2, "")
    assert err.startswith("tpl: ")


def test_obstruct_refuses_an_oversized_koszul_flattening_fast(capsys, tmp_path):
    path = _tensor_file(tmp_path, "line.json", Tensor((1, 1, 30), {(0, 0, 0): QC(1)}))
    start = time.perf_counter()
    code, out, err = run(capsys, ["obstruct", "--tensor", path, "--p", "15"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err.startswith("tpl: Koszul flattening (d3=30, p=15) lists") and err.count("\n") == 1


@pytest.mark.parametrize(
    "dims, argv",
    [((1, 1, 20), ["--p", "12"]), ((10**8, 10**8, 1), [])],
    ids=["line-p12", "huge-p0"],
)
def test_obstruct_refuses_a_koszul_flattening_over_the_side_guard_fast(capsys, tmp_path, dims, argv):
    path = _tensor_file(tmp_path, "t.json", Tensor(dims, {(0, 0, 0): QC(1)}))
    start = time.perf_counter()
    code, out, err = run(capsys, ["obstruct", "--tensor", path, *argv])
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err.startswith("tpl: Koszul flattening") and "flattening matrix side" in err


@pytest.mark.parametrize("operation", ["flatten", "rank"])
@pytest.mark.parametrize("left", ["x", "7", "0,1,2"])
def test_op_bad_left_usage_error(capsys, w_path, operation, left):
    code, out, err = run(capsys, ["op", operation, "--tensor", w_path, "--left", left])
    assert (code, out) == (2, "")
    assert err.startswith("tpl: bad --left")


def test_op_flatten_needs_left(capsys, w_path):
    code, out, err = run(capsys, ["op", "flatten", "--tensor", w_path])
    assert (code, out) == (2, "")
    assert err.startswith("tpl: ")


@pytest.mark.parametrize("operation", ["kron", "direct-sum"])
def test_op_order_mismatch_exits_one(capsys, w_path, tmp_path, operation):
    epr_path = tmp_path / "epr.json"
    epr_path.write_text(jsonio.dumps_pretty(jsonio.tensor_to_json(ghz(2, 2))))
    code, out, err = run(capsys, ["op", operation, "--src", w_path, "--dst", str(epr_path)])
    assert (code, out) == (1, "")
    assert err.startswith("tpl: ") and "order mismatch" in err


def test_obstruct_default_p_follows_d3(capsys, tmp_path):
    path = tmp_path / "t221.json"
    t221 = Tensor((2, 2, 1), {(0, 0, 0): QC(1), (1, 1, 0): QC(1)})
    path.write_text(jsonio.dumps_pretty(jsonio.tensor_to_json(t221)))
    code, out, _ = run(capsys, ["obstruct", "--tensor", str(path)])
    assert code == 0
    assert json.loads(out)["koszul"] == {"p": 0, "rank": 2, "ratio": "2/1"}


@pytest.mark.parametrize(
    "argv",
    [
        ["op", "group", "--group", "0,1"],
        ["op", "group"],
        ["op", "tensor-product", "--group", "0|1"],
    ],
)
def test_op_bad_group_usage_error(capsys, w_path, argv):
    files = ["--tensor", w_path] if argv[1] == "group" else ["--src", w_path, "--dst", w_path]
    code, out, err = run(capsys, argv + files)
    assert (code, out) == (2, "")
    assert err.startswith("tpl: ")


def test_op_tensor_product_grouped_is_kron(capsys, w_path, tmp_path):
    out = tmp_path / "ww.json"
    argv = ["op", "tensor-product", "--src", w_path, "--dst", w_path, "--group", "0,3|1,4|2,5"]
    code, _, _ = run(capsys, argv + ["--out", str(out)])
    assert code == 0
    assert jsonio.tensor_from_json(json.loads(out.read_text())) == kron(w_state(), w_state())


@pytest.mark.parametrize("bad_id", ["../escaped", 7, "", "manifest"])
def test_catalog_put_rejects_bad_id(capsys, tmp_path, bad_id):
    cat = tmp_path / "cat"
    packaged = Catalog.packaged().path / "w-border2-degeneration.json"
    code, _, _ = run(capsys, ["catalog", "put", "--catalog", str(cat), "--file", str(packaged)])
    assert code == 0
    manifest = (cat / "manifest.json").read_bytes()
    entry = json.loads(packaged.read_text())
    entry["id"] = bad_id
    src = tmp_path / "src" / "entry.json"
    src.parent.mkdir()
    src.write_text(json.dumps(entry))
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run(capsys, ["catalog", "put", "--catalog", str(cat), "--file", str(src)])
    assert (code, out) == (1, "")
    assert err.startswith("tpl: ") and "bad catalog id" in err
    assert sorted(tmp_path.rglob("*")) == before
    assert (cat / "manifest.json").read_bytes() == manifest


def test_catalog_get_rejects_path_id(capsys):
    code, out, err = run(capsys, ["catalog", "get", "--id", "../x"])
    assert (code, out) == (1, "")
    assert err.startswith("tpl: ") and "bad catalog id" in err


def test_obstruct_theta_length_usage_error(capsys, w_path):
    code, out, err = run(capsys, ["obstruct", "--tensor", w_path, "--theta", "1/2,1/2"])
    assert (code, out) == (2, "")
    assert err.startswith("tpl: ") and "2 weights for order-3 tensor" in err


@pytest.mark.parametrize(
    "t",
    [Tensor((2, 2, 2), {}), w_state().to_eps()],
    ids=["zero", "eps"],
)
def test_obstruct_undefined_functional_exits_one(capsys, tmp_path, t):
    path = tmp_path / "t.json"
    path.write_text(jsonio.dumps_pretty(jsonio.tensor_to_json(t)))
    code, out, err = run(capsys, ["obstruct", "--tensor", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("tpl: ")


@pytest.mark.parametrize("n", ["0", "-1"])
def test_bounds_strassen_bad_n_usage_error(capsys, w_path, n):
    code, out, err = run(capsys, ["bounds", "strassen", "--tensor", w_path, "--n", n])
    assert (code, out) == (2, "")
    assert err.startswith("tpl: ") and "--n" in err


def test_startup_imports_neither_numpy_nor_dataclasses_nor_inspect():
    import subprocess
    import sys

    check = (
        "import sys, tpl, tpl.cli\n"
        "print([m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_obstruct_in_child_prints_same_qf(capsys, w_path):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "tpl.cli", "obstruct", "--tensor", w_path],
        capture_output=True,
        text=True,
    )
    code, out, _ = run(capsys, ["obstruct", "--tensor", w_path])
    assert proc.returncode == code == 0
    assert proc.stdout == out
    # W's flattenings have squared singular values (2, 1), so 2^H = 3 / 2^(2/3).
    assert abs(json.loads(out)["qf"]["value"] - 3 / 2 ** (2 / 3)) < 1e-12


def _set(key, value):
    def edit(obj):
        obj[key] = value
        return obj

    return edit


def _edit_first_entry(edit):
    def apply(obj):
        edit(obj["entries"][0])
        return obj

    return apply


def _edit_first_map(edit):
    def apply(obj):
        edit(obj["maps"][0])
        return obj

    return apply


MALFORMED_JSON = {
    "tensor-entries-int": ("tensor", _set("entries", 5)),
    "tensor-entries-list-of-int": ("tensor", _set("entries", [1])),
    "tensor-entry-without-i": ("tensor", _edit_first_entry(lambda e: e.pop("i"))),
    "tensor-entry-i-str": ("tensor", _edit_first_entry(_set("i", "a"))),
    "tensor-dims-str": ("tensor", _set("dims", ["a"])),
    "tensor-order-str": ("tensor", _set("order", "x")),
    "matrix-rows-str": ("cert", _edit_first_map(_set("rows", "a"))),
    "matrix-entry-short-i": ("cert", _edit_first_map(_edit_first_entry(_set("i", [0])))),
    "cert-d-str": ("cert", _set("d", "x")),
    "entry-list": ("entry", lambda obj: [1]),
    "entry-decomposition-int": ("entry", _set("decomposition", 5)),
    "entry-degeneration-int": ("entry", _set("degeneration", 5)),
    "manifest-list": ("manifest", None),
    "listed-entry-list": ("listed", None),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_JSON))
def test_malformed_json_exits_with_message(tmp_path, w_path, ghz2_path, border_cert_path, case):
    import subprocess
    import sys

    kind, edit = MALFORMED_JSON[case]
    bad = tmp_path / "bad.json"
    cat = tmp_path / "cat"
    cat.mkdir()
    if kind == "tensor":
        bad.write_text(json.dumps(edit(json.loads(Path(w_path).read_text()))))
        argv = ["classify", "--tensor", str(bad)]
    elif kind == "cert":
        bad.write_text(json.dumps(edit(json.loads(Path(border_cert_path).read_text()))))
        argv = ["cert-verify", "--src", ghz2_path, "--dst", w_path, "--cert", str(bad)]
    elif kind == "entry":
        packaged = Catalog.packaged().path / "w-border2-degeneration.json"
        bad.write_text(json.dumps(edit(json.loads(packaged.read_text()))))
        argv = ["catalog", "put", "--catalog", str(cat), "--file", str(bad)]
    elif kind == "manifest":
        (cat / "manifest.json").write_text("[1]")
        argv = ["catalog", "list", "--catalog", str(cat)]
    else:
        (cat / "manifest.json").write_text(json.dumps({"entries": ["x"]}))
        (cat / "x.json").write_text("[1]")
        argv = ["catalog", "get", "--catalog", str(cat), "--id", "x"]
    proc = subprocess.run(
        [sys.executable, "-m", "tpl.cli", *argv], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("tpl: ")
    assert "Traceback" not in proc.stderr


def _tensor_with_first_re(tmp_path, w_path, text):
    obj = json.loads(Path(w_path).read_text())
    obj["entries"][0]["re"] = text
    path = tmp_path / "bad-scalar.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_exponent_scalar_exits_one_fast(capsys, tmp_path, w_path):
    import time

    path = _tensor_with_first_re(tmp_path, w_path, "1e4000000")
    start = time.perf_counter()
    code, out, err = run(capsys, ["classify", "--tensor", path])
    elapsed = time.perf_counter() - start
    assert (code, out) == (1, "")
    assert err.startswith("tpl: ")
    assert elapsed < 0.1


def test_decimal_scalar_exits_one(capsys, tmp_path, w_path):
    code, out, err = run(capsys, ["classify", "--tensor", _tensor_with_first_re(tmp_path, w_path, "1.5")])
    assert (code, out) == (1, "")
    assert err.startswith("tpl: ")


@pytest.mark.parametrize("theta", ["1e400,0,0", "0.5,0.25,0.25", "1/3,1/3,x"])
def test_obstruct_bad_theta_weight_usage_error(capsys, w_path, theta):
    code, out, err = run(capsys, ["obstruct", "--tensor", w_path, "--theta", theta])
    assert (code, out) == (2, "")
    assert err.startswith("tpl: ") and "bad theta" in err


def test_cert_verify_huge_degree_span_exits_one(capsys, ghz2_path, w_path, tmp_path):
    c, e = EpsPoly.const, EpsPoly.eps
    m = Matrix(2, 2, {(0, 0): c(1), (1, 0): e(1), (0, 1): EpsPoly({0: QC(-1), 10**9: QC(1)})}, EPS)
    path = tmp_path / "wide.json"
    path.write_text(jsonio.dumps_pretty(jsonio.certificate_to_json(DegenerationCertificate((m, m, m), d=1, e=2))))
    code, out, err = run(capsys, ["cert-verify", "--src", ghz2_path, "--dst", w_path, "--cert", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("tpl: ") and "exceed" in err


def test_obstruct_dense_guard_exits_one(capsys, tmp_path):
    # The Koszul flattening passes, but the float SVD would need a 2000 x 1000 dense flattening.
    path = _tensor_file(tmp_path, "tall.json", Tensor((2000, 1000, 1), {(0, 0, 0): QC(1)}))
    code, out, err = run(capsys, ["obstruct", "--tensor", path])
    assert (code, out) == (1, "")
    assert err.startswith("tpl: ") and "dense array of shape (2000, 1000)" in err


# Bad but well-formed input: a typed error exits 1, an unreadable or
# unwritable path exits 2, and neither ends in a traceback.
BAD_INPUT = {
    "rank-of-eps": (1, lambda d: ["op", "rank", "--tensor", d["eps"]]),
    "order-2-edge-tensor": (
        1,
        lambda d: ["hypergraph", "--family", "Triangular", "--n", "2", "--tensor", d["epr"]],
    ),
    "disjoint-of-eps": (1, lambda d: ["bounds", "disjoint", "--tensor", d["eps"]]),
    "strassen-of-eps": (1, lambda d: ["bounds", "strassen", "--tensor", d["eps"]]),
    "not-utf8": (1, lambda d: ["classify", "--tensor", d["latin1"]]),
    "tensor-is-directory": (2, lambda d: ["classify", "--tensor", d["dir"]]),
    "out-is-directory": (
        2,
        lambda d: ["op", "kron", "--src", d["w"], "--dst", d["w"], "--out", d["dir"]],
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_exits_with_message(capsys, tmp_path, w_path, case):
    code, argv = BAD_INPUT[case]
    (tmp_path / "latin1.json").write_bytes(b'{"order": "\xe9"}')
    files = {
        "w": w_path,
        "eps": _tensor_file(tmp_path, "eps.json", w_state().to_eps()),
        "epr": _tensor_file(tmp_path, "epr.json", epr(2)),
        "latin1": str(tmp_path / "latin1.json"),
        "dir": str(tmp_path),
    }
    got, out, err = run(capsys, argv(files))
    assert (got, out) == (code, "")
    assert err.startswith("tpl: ")


def test_bounds_of_other_orders_exit_zero(capsys, tmp_path):
    # the packaged catalog holds order-3 tensors only
    epr2 = _tensor_file(tmp_path, "epr.json", epr(2))
    ghz24 = _tensor_file(tmp_path, "ghz24.json", ghz(2, 4))
    for quantity, path in (("disjoint", epr2), ("strassen", ghz24)):
        code, out, _ = run(capsys, ["bounds", quantity, "--tensor", path])
        assert code == 0
        report = json.loads(out)
        assert (report["lower"]["value"], report["upper"]["value"]) == ("2", "2")


@pytest.mark.parametrize(
    "unreadable, argv",
    [
        ("foo.json", ["catalog", "get", "--id", "foo"]),
        ("manifest.json", ["catalog", "list"]),
        ("manifest.json", ["catalog", "verify"]),
        ("manifest.json", ["bounds", "disjoint"]),
    ],
    ids=["get", "list", "verify", "bounds"],
)
def test_unreadable_catalog_file_is_a_usage_error(capsys, tmp_path, w_path, unreadable, argv):
    catalog = tmp_path / "cat"
    (catalog / unreadable).mkdir(parents=True)
    extra = ["--tensor", w_path] if argv[0] == "bounds" else []
    code, out, err = run(capsys, [*argv, "--catalog", str(catalog), *extra])
    assert (code, out) == (2, "")
    assert err == f"tpl: cannot read {catalog / unreadable}: Is a directory\n"


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize(
    "argv",
    [["bounds", "strassen"], ["bounds", "disjoint"], ["obstruct"]],
    ids=["strassen", "disjoint", "obstruct"],
)
def test_tensors_of_order_below_two_exit_one(capsys, tmp_path, order, argv):
    t = Tensor((2,) * order, {(1,) * order: QC(1)})
    code, out, err = run(capsys, [*argv, "--tensor", _tensor_file(tmp_path, "t.json", t)])
    assert (code, out) == (1, "")
    assert err == f"tpl: gauge points need a tensor of order at least 2, got order {order}\n"


@pytest.mark.parametrize("operation", ["kron", "direct-sum", "tensor-product", "equal-pad"])
def test_op_reads_at_most_one_operand_from_stdin(capsys, monkeypatch, w_path, operation):
    stdin = io.StringIO(jsonio.dumps_pretty(jsonio.tensor_to_json(w_state())))
    monkeypatch.setattr("sys.stdin", stdin)
    for stdin_flags in ([], ["--src", "-", "--dst", "-"]):
        code, out, err = run(capsys, ["op", operation, *stdin_flags])
        assert (code, out) == (2, "")
        assert err.startswith("tpl: op ") and err.count("\n") == 1
        assert stdin.tell() == 0  # refused before stdin is read
    for flag in ("--src", "--dst"):
        stdin.seek(0)
        code, out, _ = run(capsys, ["op", operation, flag, w_path])
        assert code == 0 and out


# One valid command line per subcommand; "{w}", "{ghz2}" and "{cert}" name fixture files.
OUT_PARITY = {
    "build": ["build", "--name", "W"],
    "classify": ["classify", "--tensor", "{w}"],
    "op": ["op", "kron", "--src", "{w}", "--dst", "{w}"],
    "cert-verify": ["cert-verify", "--src", "{ghz2}", "--dst", "{w}", "--cert", "{cert}"],
    "cert-interpolate": ["cert-interpolate", "--src", "{ghz2}", "--dst", "{w}", "--cert", "{cert}"],
    "decide": ["decide", "--src", "{ghz2}", "--dst", "{w}", "--mode", "degeneration"],
    "obstruct": ["obstruct", "--tensor", "{w}"],
    "bounds": ["bounds", "disjoint", "--tensor", "{w}", "--format", "table"],
    "hypergraph": ["hypergraph", "--family", "Triangular", "--n", "12", "--fold-fan"],
    "catalog": ["catalog", "list"],
}


@pytest.mark.parametrize("verb", SUBCOMMANDS)
def test_out_gets_the_bytes_stdout_gets(capsys, tmp_path, w_path, ghz2_path, border_cert_path, verb):
    paths = {"w": w_path, "ghz2": ghz2_path, "cert": border_cert_path}
    argv = [arg.format(**paths) for arg in OUT_PARITY[verb]]
    code, printed, _ = run(capsys, argv)
    assert code == 0 and printed
    out = tmp_path / "out.txt"
    assert run(capsys, [*argv, "--out", str(out)]) == (0, "", "")
    assert out.read_bytes() == printed.encode("utf-8")
