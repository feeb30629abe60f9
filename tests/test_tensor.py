import random
import time
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

import util
from tpl import jsonio
from tpl.cli import main
from tpl.matrix import Matrix, flatten, rank, rank_float
from tpl.named import cw, epr, ghz, mamu, simple, w_state
from tpl.scalars import FLOAT, QC
from tpl.tensor import (
    DENSE_ENTRY_GUARD,
    GroupingSpec,
    StructureTooLarge,
    Tensor,
    apply_product_map,
    check_dense_size,
    direct_sum,
    direct_sum_many,
    equal_up_to_padding,
    group,
    kron,
    kron_power,
    permute_factors,
    strip_padding,
    tensor_product,
)


def test_tensor_drops_zero_entries_and_validates():
    t = Tensor((2, 2), {(0, 0): QC(1), (1, 1): QC(0)})
    assert t.nnz() == 1
    with pytest.raises(ValueError):
        Tensor((2, 2), {(0, 2): QC(1)})
    with pytest.raises(ValueError):
        Tensor((2, 0), {})
    with pytest.raises(ValueError):
        Tensor((2, 2), {(0, 0, 0): QC(1)})


def test_direct_sum_block_placement():
    s = direct_sum(ghz(2), ghz(2))
    assert s.dims == (4, 4, 4)
    assert s.nnz() == 4
    assert set(s.entries) == {(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)}


def test_direct_sum_of_simples_is_ghz():
    r = 5
    total = direct_sum_many([simple(3)] * r)
    assert total == ghz(r)
    assert equal_up_to_padding(total, ghz(r))


def test_direct_sum_errors():
    with pytest.raises(ValueError):
        direct_sum(ghz(2, 3), ghz(2, 2))
    with pytest.raises(ValueError):
        direct_sum(ghz(2), ghz(2).to_float())


def test_direct_sum_many_of_no_tensors_is_a_value_error():
    with pytest.raises(ValueError, match="at least one tensor"):
        direct_sum_many([])
    assert direct_sum_many([ghz(2)]) == ghz(2)


@pytest.mark.parametrize("n", [True, 2.0, 1.5, np.int64(2), "2"])
def test_kron_power_refuses_a_count_that_is_not_an_int(n):
    with pytest.raises(ValueError, match="kron_power n must be ints"):
        kron_power(ghz(2), n)


def test_kron_power_counts_factors():
    assert kron_power(ghz(2), 1) == ghz(2)
    assert kron_power(ghz(2), 3) == ghz(8)
    with pytest.raises(ValueError, match="n >= 1"):
        kron_power(ghz(2), 0)


def test_kron_power_squares_and_equals_the_left_fold():
    start = time.perf_counter()
    assert kron_power(ghz(1), 10**9) == ghz(1)
    assert time.perf_counter() - start < 1.0
    rng = random.Random(24)
    for order, nnz, _ in product((1, 2, 3), (0, 1, 2, 3), range(3)):
        dims = tuple(rng.randint(1, 3) for _ in range(order))
        cells = list(product(*(range(d) for d in dims)))
        picked = rng.sample(cells, min(nnz, len(cells)))
        values = [QC(Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2])), rng.randint(-1, 1)) for _ in picked]
        t = Tensor(dims, dict(zip(picked, values)))
        fold = t
        for n in range(1, 8):
            assert kron_power(t, n) == fold, (dims, picked, n)
            fold = kron(fold, t)


def test_w_plus_w_flattening_ranks():
    ww = direct_sum(w_state(), w_state())
    assert ww.dims == (4, 4, 4)
    assert ww.nnz() == 6
    for j in range(3):
        m = flatten(ww, {j})
        assert rank(m) == 4
        assert util.rank_by_minors(m) == 4


def test_kron_ghz_multiplicative():
    assert kron(ghz(2), ghz(3)) == ghz(6)
    assert kron(ghz(3, 4), ghz(2, 4)) == ghz(6, 4)


def test_kron_unit_is_identity():
    w = w_state()
    assert kron(w, simple(3)) == w


def test_w_kron_w_entries():
    ww = kron(w_state(), w_state())
    assert ww.dims == (4, 4, 4)
    assert ww.nnz() == 9


def test_tensor_product_plain_and_grouped():
    w = w_state()
    full = tensor_product(w, w)
    assert full.dims == (2,) * 6
    assert full.nnz() == 9
    regrouped = group(full, GroupingSpec.kron_pairing(3))
    assert regrouped == kron(w, w)


def test_grouping_spec_validation():
    with pytest.raises(ValueError):
        GroupingSpec([(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        GroupingSpec([(0,), ()])
    with pytest.raises(ValueError):
        GroupingSpec([(0,), (2,)])


def test_kron_associative_up_to_nothing():
    rng = random.Random(7)
    a = util.random_rational_tensor(rng, (2, 2, 2), density=0.7)
    b = util.random_rational_tensor(rng, (2, 3, 2), density=0.7)
    c = util.random_rational_tensor(rng, (3, 2, 2), density=0.7)
    assert kron(kron(a, b), c) == kron(a, kron(b, c))


def test_entry_count_arithmetic_positive_entries():
    rng = random.Random(3)
    for _ in range(10):
        a = util.random_rational_tensor(rng, (2, 3), density=0.5)
        b = util.random_rational_tensor(rng, (3, 2), density=0.5)
        a_pos = Tensor(a.dims, {i: QC(abs(v.re) + 1) for i, v in a.entries.items()})
        b_pos = Tensor(b.dims, {i: QC(abs(v.re) + 1) for i, v in b.entries.items()})
        assert direct_sum(a_pos, b_pos).nnz() == a_pos.nnz() + b_pos.nnz()
        assert tensor_product(a_pos, b_pos).nnz() == a_pos.nnz() * b_pos.nnz()


def test_flatten_shapes_and_packing():
    g = ghz(3)
    m = flatten(g, {0})
    assert (m.rows, m.cols) == (3, 9)
    assert rank(m) == 3
    w = w_state()
    mw = flatten(w, {0})
    assert (mw.rows, mw.cols) == (2, 4)
    assert rank(mw) == 2
    # row-major packing matches the dense oracle
    rng = random.Random(11)
    t = util.random_rational_tensor(rng, (2, 3, 2, 2), density=0.5)
    for left in [{0}, {1, 3}, {0, 2}, {0, 1, 2}]:
        dense = util.flatten_dense(t, left)
        mine = flatten(t, left).to_numpy()
        assert (dense == mine).all()


def test_flatten_rank_bounded_by_sides():
    rng = random.Random(5)
    for _ in range(20):
        t = util.random_rational_tensor(rng, (2, 3, 2), density=0.6)
        for left in [{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}]:
            m = flatten(t, left)
            assert rank(m) <= min(m.rows, m.cols)


def test_flatten_errors():
    with pytest.raises(ValueError):
        flatten(ghz(2), set())
    with pytest.raises(ValueError):
        flatten(ghz(2), {0, 1, 2})
    with pytest.raises(ValueError):
        flatten(ghz(2), {3})


def test_simple_tensor_flatten_rank_one():
    s = Tensor((2, 2, 2), {(1, 0, 1): QC(Fraction(3, 2))})
    for left in [{0}, {1}, {0, 2}]:
        assert rank(flatten(s, left)) == 1


def test_rank_identity_and_zero():
    assert rank(Matrix.identity(3)) == 3
    assert rank(Matrix(3, 4)) == 0
    assert rank(flatten(mamu(2), {0})) == 4


def test_rank_rejects_eps():
    m = Matrix.identity(2).to_eps()
    with pytest.raises(ValueError):
        rank(m)


def test_exact_vs_numeric_rank_agree():
    # regime: entries in [-1, 1], matrix sides <= 6
    rng = random.Random(17)
    for trial in range(100):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        entries = {}
        for i in range(rows):
            for j in range(cols):
                v = QC(Fraction(rng.randint(-16, 16), 16))
                if v:
                    entries[(i, j)] = v
        m = Matrix(rows, cols, entries)
        exact = rank(m)
        numeric = rank(m.to_float())
        assert exact == numeric
        if trial % 5 == 0:
            assert util.rank_by_minors(m) == exact


def test_exact_vs_numeric_rank_on_tensor_flattenings():
    rng = random.Random(19)
    for _ in range(20):
        t = util.random_rational_tensor(rng, (3, 2, 3), density=0.7, den=16)
        for left in ({0}, {1}, {0, 2}):
            m = flatten(t, left)
            assert rank(m) == rank(flatten(t.to_float(), left))


def test_numeric_rank_tolerance_override():
    m = util.matrix_from_rows([[1, 0], [0, 1e-6]], domain=FLOAT)
    assert rank(m) == 2
    assert rank(m, tol=1e-3) == 1


@pytest.mark.parametrize("tol", [-1.0, float("nan"), 1.0, 2.0])
def test_numeric_rank_refuses_a_tolerance_outside_0_1(tol):
    # A negative tol counts the zero singular values, and one of 1 or more
    # (or NaN) counts none.
    m = util.matrix_from_rows([[1, 0], [0, 1e-6]], domain=FLOAT)
    with pytest.raises(ValueError, match=r"tolerance must lie in \[0, 1\)"):
        rank(m, tol=tol)
    with pytest.raises(ValueError, match=r"tolerance must lie in \[0, 1\)"):
        rank_float(m.to_numpy(), tol)
    assert (rank(m, tol=0), rank(m, tol=1e-3)) == (2, 1)


@pytest.mark.parametrize("tol, code", [("-1", 2), ("nan", 2), ("1", 2), ("2", 2), ("0", 0), ("1e-3", 0)])
def test_op_rank_refuses_a_tolerance_outside_0_1(capsys, tmp_path, tol, code):
    path = tmp_path / "t.json"
    path.write_text(jsonio.dumps_pretty(jsonio.tensor_to_json(Tensor((3, 3), {(0, 0): 1 + 0j}, FLOAT))))
    assert main(["op", "rank", "--tensor", str(path), f"--tol={tol}"]) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and err.startswith("tpl: bad --tol") and err.count("\n") == 1
    else:
        assert (out, err) == ('{"rank":1}\n', "")


def test_equal_up_to_padding_cases():
    g2 = ghz(2)
    padded = Tensor((3, 3, 3), dict(g2.entries))
    assert equal_up_to_padding(g2, padded)
    assert not equal_up_to_padding(g2, w_state())
    zero2 = Tensor((2, 2, 2), {})
    zero3 = Tensor((5, 1, 4), {})
    assert equal_up_to_padding(zero2, zero3)
    assert not equal_up_to_padding(g2, ghz(2, 2))
    assert not equal_up_to_padding(zero2, Tensor((2, 2), {}))
    assert not equal_up_to_padding(g2, g2.to_eps())
    assert not equal_up_to_padding(g2.to_float(), padded)


def _place(rng, t, extra, shuffle):
    """t with its slices sent to random places among ``extra`` more per factor."""
    dims = tuple(d + rng.randint(0, extra) for d in t.dims)
    places = [rng.sample(range(n), d) for n, d in zip(dims, t.dims)]
    if not shuffle:
        places = [sorted(p) for p in places]
    entries = {tuple(p[i] for p, i in zip(places, idx)): v for idx, v in t.entries.items()}
    return Tensor(dims, entries, t.domain)


def test_equal_up_to_padding_matches_stripping():
    rng = random.Random(1515)
    seen = Counter()
    for _ in range(600):
        dims = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        base = util.random_rational_tensor(rng, dims, density=0.5, den=2)
        other = base
        kind = rng.choice(["same", "permuted", "entry", "factors"])
        if kind == "permuted":
            other = _place(rng, base, 0, shuffle=True)
        elif kind == "entry":
            idx = tuple(rng.randrange(d) for d in base.dims)
            other = Tensor(base.dims, {**base.entries, idx: QC(rng.randint(0, 2))})
        elif kind == "factors":
            other = permute_factors(base, rng.sample(range(base.order), base.order))
        t, u = _place(rng, base, 2, shuffle=False), _place(rng, other, 2, shuffle=False)
        expected = strip_padding(t) == strip_padding(u)
        assert equal_up_to_padding(t, u) == expected
        assert equal_up_to_padding(u, t) == expected
        seen[expected, t.nnz() == u.nnz()] += 1
    # Equal pairs, and unequal pairs both with and without equal nnz.
    assert min(seen[True, True], seen[False, True], seen[False, False]) >= 50, seen


def test_strip_padding_compacts_in_order():
    t = Tensor((4, 4), {(1, 3): QC(1), (3, 1): QC(2)})
    s = strip_padding(t)
    assert s.dims == (2, 2)
    assert s.entries == {(0, 1): QC(1), (1, 0): QC(2)}


def test_permute_factors():
    w = w_state()
    assert permute_factors(w, [1, 2, 0]).nnz() == 3
    t = Tensor((2, 3), {(1, 2): QC(1)})
    p = permute_factors(t, [1, 0])
    assert p.dims == (3, 2)
    assert (2, 1) in p.entries


@pytest.mark.parametrize("dims", [(2, 3, 4), (3, 2, 2, 3)])
def test_permute_factors_matches_numpy_transpose(dims):
    t = util.random_rational_tensor(random.Random(len(dims)), dims)
    for perm in permutations(range(len(dims))):
        p = permute_factors(t, perm)
        assert p.dims == tuple(dims[q] for q in perm)
        assert np.array_equal(p.to_numpy(), np.transpose(t.to_numpy(), perm))


def test_apply_product_map_shapes_and_values():
    w = w_state()
    m_swap = util.matrix_from_rows([[0, 1], [1, 0]])
    ident = Matrix.identity(2)
    proj0 = util.matrix_from_rows([[1, 0], [0, 0]])
    image = apply_product_map([m_swap, ident, proj0], w)
    assert image == Tensor((2, 2, 2), {(0, 0, 0): QC(1), (1, 1, 0): QC(1)})
    with pytest.raises(ValueError):
        apply_product_map([ident, ident], w)
    with pytest.raises(ValueError):
        apply_product_map([Matrix.identity(3), ident, ident], w)


def test_named_tensors_shapes():
    assert ghz(1, 4).nnz() == 1
    assert epr(4) == ghz(4, 2)
    m = mamu(2)
    assert m.dims == (4, 4, 4) and m.nnz() == 8
    c = cw(2)
    assert c.dims == (3, 3, 3) and c.nnz() == 6
    assert w_state().entries == {
        (0, 0, 1): QC(1),
        (0, 1, 0): QC(1),
        (1, 0, 0): QC(1),
    }


def test_mamu_gauge_points_exact():
    for d in (2, 3):
        m = mamu(d)
        for j in range(3):
            assert rank(flatten(m, {j})) == d * d


def test_cw_flattening_ranks():
    for q in (1, 2, 3):
        t = cw(q)
        for j in range(3):
            assert rank(flatten(t, {j})) == q + 1


def test_to_numpy_guard_raises_before_allocating():
    # 10^16 entries: no host could allocate the dense array.
    t = Tensor((10**8, 10**8, 1), {(0, 0, 0): QC(1)})
    with pytest.raises(StructureTooLarge):
        t.to_numpy()
    with pytest.raises(StructureTooLarge):
        flatten(t, {0}).to_numpy()
    with pytest.raises(StructureTooLarge):
        Matrix(10**8, 10**8, {(0, 0): 1j}, FLOAT).to_numpy()
    check_dense_size((DENSE_ENTRY_GUARD,))
    check_dense_size((10**3, 10**3, 1))
    with pytest.raises(StructureTooLarge):
        check_dense_size((DENSE_ENTRY_GUARD + 1,))
