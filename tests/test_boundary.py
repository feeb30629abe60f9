"""Input is checked once, where it enters, and never converted.

A dimension, an index component, a position, a vertex, an eps degree or a
certificate's declared degree must be an ``int``: a float (even 2.0), a
bool or a numpy integer is refused, never truncated, so no input is read
as a different one. A size that would not fit is refused before anything
is built.
"""

import io
import json
import time

import numpy as np
import pytest
from util import w_border_cert

from tpl import jsonio
from tpl.catalog import Catalog
from tpl.cli import main
from tpl.hypergraph import GroupingMap, Hypergraph, make_family, slot_structure
from tpl.matrix import Matrix
from tpl.named import NamedTensorSpec, cw, epr, ghz, make_named, mamu, simple, unit, w_state
from tpl.obstructions import KoszulSpec
from tpl.preorder import CertificateError, DegenerationCertificate, RestrictionCertificate
from tpl.scalars import EPS, EpsPoly, QC, parse_int
from tpl.tensor import DENSE_ENTRY_GUARD, GroupingSpec, StructureTooLarge, Tensor, kron, kron_power, tensor_product

CONSTRUCTORS = {
    "Tensor": lambda dims, entries: Tensor(dims, entries),
    "Matrix": lambda dims, entries: Matrix(*dims, entries),
}


@pytest.mark.parametrize("build", sorted(CONSTRUCTORS))
@pytest.mark.parametrize("dims", [(2.0, 2), (2, 2.5), (True, 2)])
def test_constructors_refuse_non_int_dimensions(build, dims):
    with pytest.raises(ValueError, match="dimensions must be ints"):
        CONSTRUCTORS[build](dims, {})


@pytest.mark.parametrize("build", sorted(CONSTRUCTORS))
@pytest.mark.parametrize("idx", [(0.5, 1), (1.0, 0), (0, True), (np.int64(1), 0)])
def test_constructors_refuse_non_int_index_components(build, idx):
    with pytest.raises(ValueError, match="index components must be ints"):
        CONSTRUCTORS[build]((2, 2), {idx: QC(1)})


def test_constructors_refuse_an_unknown_domain():
    with pytest.raises(ValueError, match="unknown domain"):
        Tensor((2,), {}, "bogus")
    with pytest.raises(ValueError, match="unknown domain"):
        Matrix(1, 1, None, "bogus")


def _tensor_json(edit):
    obj = jsonio.tensor_to_json(w_state())
    edit(obj)
    return obj


@pytest.mark.parametrize(
    "edit",
    [
        lambda o: o.update(dims=[2.5, 2, 2]),
        lambda o: o.update(dims=[2.0, 2, 2]),
        lambda o: o["entries"][0].update(i=[1.9, 0, 0]),
        lambda o: o.update(order=3.0),
        lambda o: o.update(order=True, dims=[2], entries=[]),
    ],
    ids=["dims-2.5", "dims-2.0", "i-1.9", "order-3.0", "order-true"],
)
def test_tensor_reader_refuses_non_int_numbers(edit):
    with pytest.raises(jsonio.FormatError):
        jsonio.tensor_from_json(_tensor_json(edit))


@pytest.mark.parametrize("field", ["rows", "cols"])
def test_matrix_reader_refuses_a_float_side(field):
    obj = jsonio.matrix_to_json(Matrix.identity(2))
    obj[field] = 2.0
    with pytest.raises(jsonio.FormatError):
        jsonio.matrix_from_json(obj)


@pytest.mark.parametrize("field, value", [("d", 1.9), ("e", True), ("d", 1.0)])
def test_certificate_reader_refuses_non_int_degrees(field, value):
    obj = jsonio.certificate_to_json(w_border_cert())
    obj[field] = value
    with pytest.raises(jsonio.FormatError, match="declared degrees"):
        jsonio.certificate_from_json(obj)


def test_degeneration_certificate_refuses_non_int_degrees():
    maps = w_border_cert().maps
    with pytest.raises(CertificateError):
        DegenerationCertificate(maps, d=1.9, e=2)
    with pytest.raises(CertificateError):
        DegenerationCertificate(maps, d=1, e=False)


@pytest.mark.parametrize("key", ["1_0", " 2", "1.5", "2 ", "+", "", "١"])
def test_eps_degree_key_must_be_digits(key):
    with pytest.raises(ValueError):
        parse_int(key)
    obj = {"coeffs": {key: {"re": "1", "im": "0"}}}
    with pytest.raises(jsonio.FormatError):
        jsonio.scalar_from_json(EPS, obj)


def test_eps_degree_keys_read_as_signed_ints():
    obj = {"coeffs": {"-3": {"re": "1", "im": "0"}, "+2": {"re": "2", "im": "0"}, "10": {"re": "3", "im": "0"}}}
    assert jsonio.scalar_from_json(EPS, obj).coeffs == {-3: QC(1), 2: QC(2), 10: QC(3)}


@pytest.mark.parametrize("degree", [1.7, 1.0, True])
def test_eps_poly_refuses_non_int_degrees(degree):
    with pytest.raises(ValueError, match="eps degrees must be ints"):
        EpsPoly({degree: 1})
    with pytest.raises(ValueError, match="eps degrees must be ints"):
        EpsPoly.eps(degree)


def test_grouping_spec_refuses_non_int_positions():
    with pytest.raises(ValueError, match="grouping positions must be ints"):
        GroupingSpec([(0.5,), (1.9,)])


@pytest.mark.parametrize(
    "args",
    [(3.9, [(0, 1)], None), (3, [(0, 1.2)], None), (3, [(0, 1)], 2.5), (3, [(0, True)], None)],
    ids=["vertices", "edge-vertex", "uniformity", "edge-bool"],
)
def test_hypergraph_refuses_non_int_values(args):
    n_vertices, edges, uniformity = args
    with pytest.raises(ValueError, match="must be ints"):
        Hypergraph(n_vertices, edges, uniformity=uniformity)


@pytest.mark.parametrize("args", [((0.2, 1.7), 2), ((0, 1), 2.0)], ids=["targets", "count"])
def test_grouping_map_refuses_non_int_values(args):
    with pytest.raises(ValueError, match="must be ints"):
        GroupingMap(*args)


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(jsonio.dumps_pretty(obj))
    return str(path)


def test_cert_verify_refuses_a_float_index(capsys, tmp_path):
    cert = jsonio.certificate_to_json(w_border_cert())
    cert["maps"][0]["entries"][0]["i"] = [1.9, 0]
    argv = [
        "cert-verify",
        "--src", _write(tmp_path, "src.json", jsonio.tensor_to_json(ghz(2))),
        "--dst", _write(tmp_path, "dst.json", jsonio.tensor_to_json(w_state())),
        "--cert", _write(tmp_path, "cert.json", cert),
    ]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("tpl: ") and err.count("\n") == 1
    assert "index components must be ints" in err


def test_catalog_put_refuses_a_float_declared_degree(capsys, tmp_path):
    packaged = Catalog.packaged().path / "w-border2-degeneration.json"
    obj = json.loads(packaged.read_text())
    obj["degeneration"]["cert"]["d"] = 1.9
    cat = tmp_path / "cat"
    code = main(["catalog", "put", "--catalog", str(cat), "--file", _write(tmp_path, "entry.json", obj)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("tpl: ") and err.count("\n") == 1
    assert not cat.exists()


@pytest.mark.parametrize("value, code", [(True, 1), (1, 0)], ids=["bool", "int"])
@pytest.mark.parametrize("source", ["tensor", "catalog"])
def test_a_json_bool_is_not_a_scalar(capsys, tmp_path, source, value, code):
    # true used to read as QC(1); a JSON integer is a scalar, a bool is not.
    if source == "tensor":
        obj = jsonio.tensor_to_json(w_state())
        obj["entries"][0]["re"] = value
        argv = ["classify", "--tensor", _write(tmp_path, "w.json", obj)]
    else:
        obj = json.loads((Catalog.packaged().path / "w-border2-degeneration.json").read_text())
        obj["tensor"]["entries"][0]["re"] = value
        _write(tmp_path, "manifest.json", {"entries": ["w-border2-degeneration"]})
        _write(tmp_path, "w-border2-degeneration.json", obj)
        argv = ["catalog", "get", "--catalog", str(tmp_path), "--id", "w-border2-degeneration"]
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and err.startswith("tpl: ") and err.count("\n") == 1
        assert "bad rational scalar" in err


@pytest.mark.parametrize(
    "spec",
    [
        NamedTensorSpec("GHZ", {"r": 2.5, "k": 3.7}),
        NamedTensorSpec("GHZ", {"r": True}),
        NamedTensorSpec("MaMu", {"d": 2.9}),
        NamedTensorSpec("CW", {"q": np.int64(2)}),
    ],
)
def test_make_named_refuses_non_int_parameters(spec):
    with pytest.raises(ValueError, match="parameters must be ints"):
        make_named(spec)


@pytest.mark.parametrize(
    "build, size",
    [
        (ghz, True), (ghz, 2.0), (lambda k: ghz(2, k), 3.0), (unit, 2.0), (epr, 2.0), (simple, 3.0),
        (mamu, True), (mamu, 2.0), (cw, True), (cw, 2.0), (Matrix.identity, True), (Matrix.identity, 2.0),
    ],
)
def test_named_sizes_refuse_bools_and_floats(build, size):
    # mamu(True) used to build the 1x1x1 tensor and cw(True) the 2x2x2 one.
    with pytest.raises(ValueError, match="must be ints"):
        build(size)


@pytest.mark.parametrize("n, k", [(True, 3), (2.0, 3), (2, 3.0)])
def test_make_family_refuses_non_int_size_and_uniformity(n, k):
    with pytest.raises(ValueError, match="must be ints"):
        make_family("Fan", n, k)


@pytest.mark.parametrize("d3, p", [(True, 0), (3, 1.5), (3.0, 1)])
def test_koszul_spec_refuses_non_int_parameters(d3, p):
    with pytest.raises(ValueError, match="must be ints"):
        KoszulSpec(d3, p)


DEEP_JSON = "[" * 200_000


@pytest.mark.parametrize("source", ["file", "stdin", "catalog"])
def test_deeply_nested_json_is_one_error_line(capsys, monkeypatch, tmp_path, source):
    if source == "file":
        argv = ["classify", "--tensor", _write_text(tmp_path, "deep.json", DEEP_JSON)]
    elif source == "stdin":
        monkeypatch.setattr("sys.stdin", io.StringIO(DEEP_JSON))
        argv = ["classify"]
    else:
        _write(tmp_path, "manifest.json", {"entries": ["deep"]})
        _write_text(tmp_path, "deep.json", DEEP_JSON)
        argv = ["catalog", "get", "--catalog", str(tmp_path), "--id", "deep"]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("tpl: ") and err.count("\n") == 1
    assert "recursion" in err


def _write_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _refused_fast(capsys, argv, seconds=0.5):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("tpl: ") and err.count("\n") == 1
    assert elapsed < seconds
    return err


@pytest.mark.parametrize(
    "spec",
    [
        NamedTensorSpec("MaMu", {"d": 1000}),
        NamedTensorSpec("GHZ", {"r": 100_000_000}),
        NamedTensorSpec("Unit", {"r": 2, "k": DENSE_ENTRY_GUARD}),
        NamedTensorSpec("EPR", {"d": DENSE_ENTRY_GUARD}),
        NamedTensorSpec("CW", {"q": DENSE_ENTRY_GUARD // 9 + 1}),
    ],
)
def test_make_named_refuses_an_oversized_tensor(spec):
    with pytest.raises(StructureTooLarge, match="index components"):
        make_named(spec)


def test_make_named_builds_up_to_the_guard():
    # 333,333 entries of order 3 hold 999,999 index components.
    assert make_named(NamedTensorSpec("GHZ", {"r": DENSE_ENTRY_GUARD // 3})).nnz() == 333_333


@pytest.mark.parametrize("argv", [["--name", "MaMu", "--d", "1000"], ["--name", "GHZ", "--r", "100000000"]])
def test_build_refuses_an_oversized_tensor(capsys, argv):
    assert "index components" in _refused_fast(capsys, ["build", *argv])


def test_make_family_guards_the_incidence_count(capsys):
    for family, n, k in (("Strassen", 1, DENSE_ENTRY_GUARD + 1), ("Disjoint", 1000, 1001)):
        with pytest.raises(StructureTooLarge, match="guard"):
            make_family(family, n, k)
    argv = ["hypergraph", "--family", "Strassen", "--n", "1", "--k", "100000000"]
    assert "guard" in _refused_fast(capsys, argv)


def test_cert_verify_refuses_an_oversized_contraction(capsys, tmp_path):
    # Dense 101 x 101 maps on the 101-level GHZ tensor: the contraction would
    # pass 1,030,301 entries through mode 1, over the entry-count guard. Most
    # of the time allowed goes to reading the 30,603 map entries.
    dense = Matrix(101, 101, {(r, c): QC(1) for r in range(101) for c in range(101)})
    argv = [
        "cert-verify",
        "--src", _write(tmp_path, "src.json", jsonio.tensor_to_json(ghz(101))),
        "--dst", _write(tmp_path, "dst.json", jsonio.tensor_to_json(ghz(101))),
        "--cert", _write(tmp_path, "cert.json", jsonio.certificate_to_json(RestrictionCertificate((dense,) * 3))),
    ]
    assert "mode 1 of the contraction" in _refused_fast(capsys, argv, seconds=5.0)


def _raises_fast(build, seconds=1.0):
    start = time.perf_counter()
    with pytest.raises(StructureTooLarge, match="guard") as info:
        build()
    assert time.perf_counter() - start < seconds
    return str(info.value)


def _no_product(*args):
    raise AssertionError("the guard let the product be built")


def test_product_builders_refuse_before_they_allocate(monkeypatch):
    # 1001 * 1001 = 1,002,001 entries, and 2^25 for the Kronecker power. The
    # named constructors and Matrix.identity count index components, and eps
    # evaluation its layout: eps^(10^6) spans 10^6 + 1 degrees.
    named = (lambda: Matrix.identity(10**8), lambda: ghz(10**8), lambda: mamu(1000),
             lambda: cw(DENSE_ENTRY_GUARD // 9 + 1))
    for build in named:
        assert "index components" in _raises_fast(build)
    big = ghz(1001)
    column = Matrix(1001, 1, {(i, 0): QC(i + 1) for i in range(1001)})
    assert "tensor product of 1001 x 1001 entries" in _raises_fast(lambda: tensor_product(big, big))
    _raises_fast(lambda: kron(big, big))
    _raises_fast(lambda: column.kron(column))
    high = EpsPoly.eps(DENSE_ENTRY_GUARD)
    layout = "eps evaluation layout of 1 polynomials x 1000001 degrees"
    assert layout in _raises_fast(lambda: high.eval(1))
    assert layout in _raises_fast(lambda: Matrix(1, 1, {(0, 0): high}, EPS).eval_eps(1))
    monkeypatch.setattr("tpl.tensor.kron", _no_product)
    assert "Kronecker power 25 of 2 entries" in _raises_fast(lambda: kron_power(ghz(2), 25))
    _raises_fast(lambda: kron_power(ghz(2), 10**18))


def test_kron_power_guard_is_exact_up_to_its_cap(monkeypatch):
    # 2^19 and 10^6 entries pass, 2^20 and 10^7 do not; the power of a
    # 1-entry tensor never grows.
    monkeypatch.setattr("tpl.tensor.kron", lambda acc, t: acc)
    ten = Tensor((10, 1, 1), {(i, 0, 0): QC(1) for i in range(10)})
    kron_power(ghz(2), 19)
    kron_power(ten, 6)
    kron_power(ghz(1), 1000)
    _raises_fast(lambda: kron_power(ghz(2), 20))
    _raises_fast(lambda: kron_power(ten, 7))


def test_kron_power_refuses_dimensions_past_the_guard(monkeypatch):
    # One entry keeps the entry count at 1, but each dimension of the power
    # of a 2x2x2 tensor at n = 10^7 is 2^(10^7), a 10^7-bit int.
    one = Tensor((2, 2, 2), {(1, 1, 1): QC(1)})
    assert "(10000000 index bits)" in _raises_fast(lambda: kron_power(one, 10**7))
    # n times the bits of d - 1 is checked exactly: 10^6 bits pass.
    monkeypatch.setattr("tpl.tensor.kron", lambda acc, t: acc)
    three = Tensor((3, 1, 1), {(0, 0, 0): QC(1)})
    kron_power(one, 10**6)
    kron_power(three, 5 * 10**5)
    _raises_fast(lambda: kron_power(one, 10**6 + 1))
    _raises_fast(lambda: kron_power(three, 5 * 10**5 + 1))


def test_slot_structure_refuses_before_any_product(monkeypatch):
    # 3^13 = 1,594,323 entries, the check of build_structure.
    monkeypatch.setattr("tpl.hypergraph.tensor_product", _no_product)
    h = make_family("Strassen", 13, 3)
    assert "structure tensor of 1594323 entries" in _raises_fast(lambda: slot_structure(h, ghz(3)))


@pytest.mark.parametrize("op", ["kron", "tensor-product"])
def test_op_refuses_an_oversized_product(capsys, tmp_path, op):
    path = _write(tmp_path, "big.json", jsonio.tensor_to_json(ghz(1001)))
    assert "guard" in _refused_fast(capsys, ["op", op, "--src", path, "--dst", path], seconds=1.0)
