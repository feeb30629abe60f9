"""A Matrix is an order-2 Tensor: products against numpy, kernel output types."""

import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import util
from util import w_border_cert
from tpl import jsonio
from tpl.cli import main
from tpl.matrix import Matrix, flatten
from tpl.named import ghz, w_state
from tpl.obstructions import KoszulSpec, koszul_flatten
from tpl.preorder import interpolate
from tpl.scalars import EPS, FLOAT, RATIONAL, EpsPoly, QC
from tpl.tensor import Tensor


def gaussian_rational(rng):
    return QC(Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 5])),
              Fraction(rng.randint(-6, 6), rng.choice([1, 2, 7])))


def random_matrix(rng, rows, cols, density=0.7):
    entries = {(i, j): gaussian_rational(rng) for i in range(rows) for j in range(cols)
               if rng.random() < density}
    return Matrix(rows, cols, entries)


def random_tensor(rng, dims, density=0.6):
    return Tensor(dims, {idx: gaussian_rational(rng)
                         for idx in np.ndindex(*dims) if rng.random() < density})


@pytest.mark.parametrize("seed", range(8))
def test_products_match_numpy(seed):
    rng = random.Random(seed)
    n, k, m = (rng.randint(1, 4) for _ in range(3))
    a, b = random_matrix(rng, n, k), random_matrix(rng, k, m)
    c = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
    assert np.allclose((a @ b).to_numpy(), a.to_numpy() @ b.to_numpy())
    assert np.allclose(a.kron(c).to_numpy(), np.kron(a.to_numpy(), c.to_numpy()))


def test_product_builds_its_identity_only_on_the_used_columns():
    # One entry in a 10^6 x 10^6 matrix: an identity on every column would
    # hold a million entries.
    side = 10**6
    m = Matrix(side, side, {(3, 5): QC(2)})
    u = Matrix(side, side, {(5, 7): QC(3), (6, 1): QC(1)})
    start = time.perf_counter()
    assert m @ u == Matrix(side, side, {(3, 7): QC(6)})
    assert (m @ m).is_zero()
    assert time.perf_counter() - start < 0.5
    # Every domain, with columns that the right factor leaves empty.
    cases = [
        (Matrix(2, 3, {(0, 1): EpsPoly.eps(1), (1, 2): EpsPoly({-1: QC(2)})}, EPS),
         Matrix(3, 4, {(1, 3): EpsPoly.eps(2), (2, 3): EpsPoly({0: QC(1, 1)})}, EPS)),
        (Matrix(2, 2, {(0, 1): 1j, (1, 1): 2 + 0j}, FLOAT), Matrix(2, 3, {(1, 0): 0.5 + 0j}, FLOAT)),
        (Matrix(1, 2, {(0, 0): QC(1, 2)}), Matrix(2, 5, {})),
    ]
    for a, b in cases:
        assert a @ b == util.apply_product_map_kfold([a, Matrix.identity(b.cols, b.domain)], b)


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 1, 2), (2, 2, 3, 2), (1, 3, 2, 2)])
def test_flatten_matches_numpy_for_every_left_set(dims):
    rng = random.Random(sum(dims))
    t = random_tensor(rng, dims)
    for size in range(1, len(dims)):
        for left in combinations(range(len(dims)), size):
            assert np.array_equal(flatten(t, left).to_numpy(), util.flatten_dense(t, left))


def test_kernels_return_matrices_that_pass_the_checked_constructor():
    m = util.matrix_from_rows([[1, 2], [0, -1]])
    eps_m = w_border_cert().maps[0]
    outputs = [
        m.to_eps(), m.to_float(), eps_m.eval_eps(3), m.kron(m), m @ m,
        flatten(w_state(), {1}), koszul_flatten(w_state(), KoszulSpec(2, 1)),
        *interpolate(ghz(2), w_state(), w_border_cert()).maps,
    ]
    for out in outputs:
        assert type(out) is Matrix
        assert out == Matrix(out.rows, out.cols, out.entries, out.domain)
        assert out.dims == (out.rows, out.cols) and out.order == 2
    assert [o.domain for o in outputs[:3]] == [EPS, FLOAT, RATIONAL]


def test_matrix_equals_a_tensor_with_the_same_content():
    m = Matrix.identity(2)
    assert m == Tensor((2, 2), {(0, 0): QC(1), (1, 1): QC(1)})
    assert Tensor((2, 2), {(0, 0): QC(1), (1, 1): QC(1)}) == m
    assert m != Tensor((2, 2), {(0, 0): QC(1)})
    assert m != Tensor((2, 2), {(0, 0): 1.0 + 0j, (1, 1): 1.0 + 0j}, FLOAT)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (-1, 2)])
def test_matrix_needs_positive_dimensions(shape):
    with pytest.raises(ValueError, match="matrix dimensions must be positive"):
        Matrix(*shape)


def test_matrix_checks_its_entries():
    with pytest.raises(ValueError, match="outside 2x2"):
        Matrix(2, 2, {(2, 0): QC(1)})
    with pytest.raises(TypeError, match="does not belong to domain"):
        Matrix(2, 2, {(0, 0): QC(1)}, EPS)
    assert Matrix(2, 2, {(0, 0): QC(0)}).nnz() == 0
    with pytest.raises(AttributeError):
        Matrix.identity(2).rows = 3


def test_cert_verify_refuses_a_matrix_with_zero_rows(capsys, tmp_path):
    cert = jsonio.certificate_to_json(w_border_cert())
    cert["maps"][0]["rows"] = 0
    paths = {}
    for name, obj in (("src", jsonio.tensor_to_json(ghz(2))),
                      ("dst", jsonio.tensor_to_json(w_state())), ("cert", cert)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(jsonio.dumps_pretty(obj))
    code = main(["cert-verify", *(f"--{k}={v}" for k, v in paths.items())])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("tpl: ") and "matrix dimensions must be positive" in err
    assert err.count("\n") == 1


def test_eps_matrix_has_no_numeric_form():
    with pytest.raises(ValueError, match="no numeric form"):
        w_border_cert().maps[0].to_numpy()
    assert Matrix.identity(2, RATIONAL).to_eps().to_eps().domain == EPS
