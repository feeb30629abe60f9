"""Property tests of the exact kernels against the reference oracles in util.

The integer-packed ``QC`` is checked against ``util.RefQC`` (a pair of
Fractions), the integer-lane ``apply_product_map`` against
``util.apply_product_map_kfold`` (the full k-fold product per entry, in
``QC``/``EpsPoly`` arithmetic) and ``Matrix.eval_eps`` against a termwise
sum. Kernel outputs, built without the constructor's checks, are checked
against the public constructor.
"""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from tpl.matrix import Matrix
from tpl.named import ghz
from tpl.scalars import EPS, FLOAT, RATIONAL, EpsPoly, QC
from tpl.tensor import (
    GroupingSpec,
    StructureTooLarge,
    Tensor,
    apply_product_map,
    direct_sum_many,
    group,
    permute_factors,
    strip_padding,
    tensor_product,
)

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

small = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)])
fractions = st.one_of(
    small,
    st.fractions(max_denominator=12).filter(lambda f: abs(f.numerator) <= 10**6),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**20)),
)
parts = st.tuples(fractions, fractions)


def same_value(q, ref):
    return (q.re, q.im) == (ref.re, ref.im)


def canonical(q):
    return q._n > 0 and math.gcd(q._a, q._b, q._n) == 1


@PROPERTY
@given(parts, parts)
def test_packed_qc_matches_fraction_pair_reference(x, y):
    qx, qy = QC(*x), QC(*y)
    rx, ry = util.RefQC(*x), util.RefQC(*y)
    assert same_value(qx, rx) and canonical(qx)
    for q, ref in ((qx + qy, rx + ry), (qx - qy, rx - ry), (qx * qy, rx * ry), (-qx, -rx)):
        assert same_value(q, ref)
        assert canonical(q)
    if ry:
        assert same_value(qx / qy, rx / ry)
        assert canonical(qx / qy)
    else:
        with pytest.raises(ZeroDivisionError):
            qx / qy
    assert bool(qx) == bool(rx)
    assert (qx == qy) == (rx == ry)


@PROPERTY
@given(parts, parts)
def test_equal_values_have_equal_fields_and_hashes(x, y):
    q = QC(*x)
    nonzero = QC(*y) if QC(*y) else QC(1)
    for other in (q + QC(0), q * QC(1), (q * nonzero) / nonzero, (q + nonzero) - nonzero):
        assert other == q
        assert (other._a, other._b, other._n) == (q._a, q._b, q._n)
        assert hash(other) == hash(q)


@PROPERTY
@given(fractions)
def test_real_qc_equals_and_hashes_like_its_fraction(f):
    q = QC(f)
    assert q == f and q.re == f and q.im == 0
    assert hash(q) == hash(f)
    if f.denominator == 1:
        assert q == f.numerator and hash(q) == hash(f.numerator)
    assert q != f + 1
    assert QC(f, 1) != f


# Mostly +-1 and +-eps^k, so that sums of several terms often cancel.
qc_values = st.one_of(st.sampled_from([QC(1), QC(-1)]), st.builds(QC, small, small))
eps_values = st.one_of(
    st.builds(EpsPoly.eps, st.integers(-1, 2), st.sampled_from([1, -1])),
    st.builds(EpsPoly, st.dictionaries(st.integers(-1, 2), qc_values, max_size=3)),
)


def sparse_fill(draw, shape, values, keep):
    """Each position of ``shape`` holds a drawn value when ``keep`` draws true."""
    return {idx: draw(values) for idx in product(*map(range, shape)) if draw(keep)}


@st.composite
def product_map_cases(draw, domain):
    values = qc_values if domain == RATIONAL else eps_values
    order = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(1, 3), min_size=order, max_size=order))
    rows = draw(st.lists(st.integers(1, 3), min_size=order, max_size=order))
    entries = sparse_fill(draw, dims, values, st.booleans())
    # Maps three quarters full: some columns are still empty.
    mats = [sparse_fill(draw, (r, d), values, st.integers(0, 3).map(bool)) for r, d in zip(rows, dims)]
    wide = [j for j, d in enumerate(dims) if d >= 2]
    if wide and draw(st.booleans()):
        # Column 1 of map j copies column 0, and some entries with index 0 at
        # position j get a negated twin at index 1: each pair cancels in mode j.
        j = draw(st.sampled_from(wide))
        mats[j] = {rc: v for rc, v in mats[j].items() if rc[1] != 1}
        mats[j].update({(r, 1): v for (r, c), v in list(mats[j].items()) if c == 0})
        for idx, v in list(entries.items()):
            if idx[j] == 0 and draw(st.booleans()):
                entries[idx[:j] + (1,) + idx[j + 1 :]] = -v
    t = Tensor(dims, entries, domain)
    maps = [Matrix(r, d, m, domain) for r, d, m in zip(rows, dims, mats)]
    return maps, t


@PROPERTY
@given(product_map_cases(RATIONAL))
def test_modewise_product_map_matches_kfold_rational(case):
    maps, t = case
    assert apply_product_map(maps, t) == util.apply_product_map_kfold(maps, t)


@PROPERTY
@given(product_map_cases(EPS))
def test_modewise_product_map_matches_kfold_eps(case):
    maps, t = case
    assert apply_product_map(maps, t) == util.apply_product_map_kfold(maps, t)


@PROPERTY
@given(eps_values, qc_values.filter(bool))
def test_eps_eval_matches_termwise_sum(p, x):
    expected = QC(0)
    for d, c in p.coeffs.items():
        power = QC(1)
        for _ in range(abs(d)):
            power = power * x
        expected = expected + (c * power if d >= 0 else c / power)
    assert p.eval(x) == expected


def test_product_map_drops_cancelling_entries_and_empty_columns():
    # Entries 1 and -1 land on the same index after mode 0 and cancel; the
    # mode-1 column 1 is empty, so entry (0, 1) contributes nothing.
    t = Tensor((2, 2), {(0, 0): QC(1), (1, 0): QC(-1), (0, 1): QC(5)})
    maps = [Matrix.from_rows([[1, 1]]), Matrix.from_rows([[1, 0], [2, 0]])]
    out = apply_product_map(maps, t)
    assert out == util.apply_product_map_kfold(maps, t)
    assert out.dims == (1, 2) and out.is_zero()


# -- the integer lane: Gaussian and Laurent values, packing bounds ----------

gaussian = st.builds(QC, small, small)
laurent_values = st.builds(EpsPoly, st.dictionaries(st.integers(-2, 3), gaussian, min_size=1, max_size=4))


@st.composite
def lane_cases(draw):
    """Order 1-4 products of Gaussian-rational or Laurent eps tensors and maps."""
    domain = draw(st.sampled_from([RATIONAL, EPS]))
    values = gaussian if domain == RATIONAL else laurent_values
    order = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(1, 3), min_size=order, max_size=order))
    rows = draw(st.lists(st.integers(1, 3), min_size=order, max_size=order))
    entries = sparse_fill(draw, dims, values, st.booleans())
    mats = [sparse_fill(draw, (r, d), values, st.integers(0, 3).map(bool)) for r, d in zip(rows, dims)]
    maps = [Matrix(r, d, m, domain) for r, d, m in zip(rows, dims, mats)]
    return maps, Tensor(dims, entries, domain)


@PROPERTY
@given(lane_cases())
def test_lane_matches_kfold_on_gaussian_and_laurent_values(case):
    maps, t = case
    out = apply_product_map(maps, t)
    assert out == util.apply_product_map_kfold(maps, t)
    for v in out.entries.values():
        for c in v.coeffs.values() if t.domain == EPS else (v,):
            assert canonical(c)


# Numerators next to 2^61 over pairwise coprime denominators: the lcm of an
# operand's denominators is their product, and with one sign the output
# coefficients reach the packing bound exactly.
near_bound = st.builds(
    lambda n, p, sign: Fraction(sign * n, p),
    st.sampled_from([2**61 - 1, 2**61, 2**61 + 1]),
    st.sampled_from([1, 3, 5, 7, 11, 13]),
    st.sampled_from([1, -1]),
)


@st.composite
def near_bound_cases(draw):
    positive = draw(st.booleans())
    part = near_bound.map(abs) if positive else near_bound
    zero_or_part = st.one_of(st.just(0), part)
    domain = draw(st.sampled_from([RATIONAL, EPS]))
    scalar = st.builds(QC, part, zero_or_part)
    if domain == EPS:
        scalar = st.builds(EpsPoly, st.dictionaries(st.integers(-1, 1), scalar, min_size=1, max_size=3))
    order = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 2), min_size=order, max_size=order))
    rows = draw(st.lists(st.integers(1, 2), min_size=order, max_size=order))
    t = Tensor(dims, sparse_fill(draw, dims, scalar, st.booleans()), domain)
    maps = [Matrix(r, d, sparse_fill(draw, (r, d), scalar, st.integers(0, 3).map(bool)), domain)
            for r, d in zip(rows, dims)]
    return maps, t


@PROPERTY
@given(near_bound_cases())
def test_lane_matches_kfold_near_the_packing_bound(case):
    maps, t = case
    assert apply_product_map(maps, t) == util.apply_product_map_kfold(maps, t)


def test_lane_drops_values_that_fold_to_zero():
    # i * i + 1 * 1 = 0: the packed value X^2 + 1 is nonzero, its fold is not.
    t = Tensor((2,), {(0,): QC(0, 1), (1,): QC(1)})
    m = Matrix(1, 2, {(0, 0): QC(0, 1), (0, 1): QC(1)})
    assert apply_product_map([m], t).is_zero()
    eps_m = Matrix(1, 2, {(0, 0): EpsPoly({-2: QC(0, 1), 3: QC(1)}), (0, 1): EpsPoly({-2: QC(1)})}, EPS)
    out = apply_product_map([eps_m], t.to_eps(), EPS)
    assert out == util.apply_product_map_kfold([eps_m], t.to_eps(), EPS)
    assert out.entries == {(0,): EpsPoly({3: QC(0, 1)})}


def test_lane_rejects_mismatched_domains():
    eps_t = Tensor((1,), {(0,): EpsPoly.eps(1)}, EPS)
    with pytest.raises(ValueError):
        apply_product_map([Matrix.identity(1)], eps_t, RATIONAL)
    with pytest.raises(ValueError):
        apply_product_map([Matrix.identity(1).to_eps()], Tensor((1,), {(0,): QC(1)}), EPS)
    with pytest.raises(ValueError):
        apply_product_map([Matrix(1, 1, {(0, 0): 1j}, FLOAT)], Tensor((1,), {(0,): QC(1)}), FLOAT)


def termwise(p, x):
    """sum_k c_k x^k term by term, with x^-k as 1 / x^k."""
    total = QC(0)
    for d, c in p.coeffs.items():
        power = QC(1)
        for _ in range(abs(d)):
            power = power * x
        total = total + (c * power if d >= 0 else c / power)
    return total


@st.composite
def eval_cases(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = sparse_fill(draw, (rows, cols), laurent_values, st.booleans())
    return Matrix(rows, cols, entries, EPS), draw(gaussian.filter(bool))


@PROPERTY
@given(eval_cases())
def test_eval_eps_matches_termwise_sum(case):
    m, x = case
    expected = {ij: termwise(p, x) for ij, p in m.entries.items()}
    assert m.eval_eps(x) == Matrix(m.rows, m.cols, expected)
    assert m.eval_eps(x) == m.map_values(lambda p: p.eval(x), RATIONAL)


def test_eval_eps_at_zero():
    m = Matrix(1, 2, {(0, 0): EpsPoly({0: QC(2), 1: QC(5)}), (0, 1): EpsPoly.eps(2)}, EPS)
    assert m.eval_eps(0) == Matrix(1, 2, {(0, 0): QC(2)})
    with pytest.raises(ZeroDivisionError):
        Matrix(1, 1, {(0, 0): EpsPoly.eps(-1)}, EPS).eval_eps(Fraction(0))


# -- kernel outputs skip the constructor's checks; they must still pass them --

floats = st.sampled_from([1 + 0j, -2j, 0.5 + 0.5j, 1e-200 + 0j, 3e-170j])


@st.composite
def tensors(draw, order, domain):
    values = {RATIONAL: gaussian, EPS: laurent_values, FLOAT: floats}[domain]
    dims = draw(st.lists(st.integers(1, 3), min_size=order, max_size=order))
    return Tensor(dims, sparse_fill(draw, dims, values, st.integers(0, 2).map(bool)), domain)


@st.composite
def kernel_outputs(draw):
    """The output of one kernel that builds its result unchecked."""
    domain = draw(st.sampled_from([RATIONAL, EPS, FLOAT]))
    order = draw(st.integers(1, 4))
    t = draw(tensors(order, domain))
    perm = draw(st.permutations(range(order)))
    kernel = draw(st.sampled_from(
        ["apply_product_map", "direct_sum_many", "to_eps", "to_float", "group",
         "permute_factors", "tensor_product", "strip_padding"]))
    if kernel == "apply_product_map":
        rows = draw(st.lists(st.integers(1, 3), min_size=order, max_size=order))
        values = {RATIONAL: gaussian, EPS: laurent_values, FLOAT: floats}[domain]
        maps = [Matrix(r, d, sparse_fill(draw, (r, d), values, st.booleans()), domain)
                for r, d in zip(rows, t.dims)]
        return apply_product_map(maps, t)
    if kernel == "direct_sum_many":
        return direct_sum_many([t] + draw(st.lists(tensors(order, domain), max_size=2)))
    if kernel == "to_eps":
        return draw(tensors(order, RATIONAL)).to_eps()
    if kernel == "to_float":
        return draw(tensors(order, RATIONAL)).to_float()
    if kernel == "group":
        cut = sorted(draw(st.sets(st.integers(1, order - 1))) if order > 1 else [])
        bounds = [0, *cut, order]
        return group(t, [perm[a:b] for a, b in zip(bounds, bounds[1:])])
    if kernel == "permute_factors":
        return permute_factors(t, perm)
    if kernel == "tensor_product":
        u = draw(tensors(order, domain))
        return tensor_product(t, u, GroupingSpec.kron_pairing(order) if draw(st.booleans()) else None)
    return strip_padding(t)


@PROPERTY
@given(kernel_outputs())
def test_kernel_outputs_pass_the_public_constructor(out):
    assert out == Tensor(out.dims, out.entries, out.domain)
    assert type(out.dims) is tuple and out.order == len(out.dims)
    assert all(type(d) is int and d > 0 for d in out.dims)
    for idx, v in out.entries.items():
        assert v
        assert type(idx) is tuple and len(idx) == out.order
        assert all(0 <= i < d for i, d in zip(idx, out.dims))


def wide_border_cert(degree):
    """The W border certificate with one more term, eps^degree, in every map."""
    c, e = EpsPoly.const, EpsPoly.eps
    m = Matrix(2, 2, {(0, 0): c(1), (1, 0): e(1), (0, 1): EpsPoly({0: QC(-1), degree: QC(1)})}, EPS)
    return [m, m, m]


def test_lane_packs_a_wide_degree_span():
    maps = wide_border_cert(1000)
    t = ghz(2).to_eps()
    assert apply_product_map(maps, t) == util.apply_product_map_kfold(maps, t)


def test_lane_guard_rejects_a_huge_degree_span_fast():
    import time

    start = time.perf_counter()
    with pytest.raises(StructureTooLarge):
        apply_product_map(wide_border_cert(10**9), ghz(2).to_eps())
    assert time.perf_counter() - start < 0.1
