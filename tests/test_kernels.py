"""Property tests of the exact kernels against the reference oracles in util.

The integer-packed ``QC`` is checked against ``util.RefQC`` (a pair of
Fractions), the integer-lane ``apply_product_map`` against
``util.apply_product_map_kfold`` (the full k-fold product per entry, in
``QC``/``EpsPoly`` arithmetic) and ``Matrix.eval_eps`` against a termwise
sum. The interpolation blocks, built from one integer evaluation table per
map and integer Kronecker products, are checked against
``util.interpolation_certificate_ref`` (each entry of each eps Kronecker
product evaluated point by point). ``lowest_eps_image``, which reads the packed image without unpacking
it, is checked against the full unpack of ``apply_product_map``. Kernel
outputs, built without the constructor's checks, are checked against the
public constructor. Exact ``rank``, an integer elimination, is checked
against ``util.rank_by_minors`` at sides up to 6 and against
``util.rank_by_field_elimination`` (``QC`` pivot division) at sides 10 to
40; ``koszul_flatten``, built from one wedge table per third index, against
``util.koszul_flatten_ref`` (one wedge insertion per entry and subset).
"""

import math
import random
from fractions import Fraction
from functools import reduce
from itertools import product

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import util
from tpl.matrix import Matrix, rank
from tpl.named import ghz
from tpl.obstructions import KoszulSpec, koszul_flatten
from tpl.preorder import _interpolation_certificate
from tpl.scalars import EPS, FLOAT, RATIONAL, EpsPoly, QC
from tpl.tensor import (
    PACKED_IMAGE_BITS,
    GroupingSpec,
    StructureTooLarge,
    Tensor,
    apply_product_map,
    direct_sum_many,
    group,
    lowest_eps_image,
    permute_factors,
    strip_padding,
    tensor_product,
    _contract,
    _Lane,
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
    maps = [util.matrix_from_rows([[1, 1]]), util.matrix_from_rows([[1, 0], [2, 0]])]
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
    out = apply_product_map([eps_m], t.to_eps())
    assert out == util.apply_product_map_kfold([eps_m], t.to_eps(), EPS)
    assert out.entries == {(0,): EpsPoly({3: QC(0, 1)})}


def test_lane_rejects_mismatched_domains():
    eps_t = Tensor((1,), {(0,): EpsPoly.eps(1)}, EPS)
    with pytest.raises(ValueError):
        apply_product_map([Matrix.identity(1)], eps_t)
    with pytest.raises(ValueError):
        apply_product_map([Matrix.identity(1).to_eps()], Tensor((1,), {(0,): QC(1)}))
    with pytest.raises(ValueError):
        apply_product_map([Matrix(1, 1, {(0, 0): 1j}, FLOAT)], Tensor((1,), {(0,): QC(1)}))
    with pytest.raises(ValueError):
        lowest_eps_image([Matrix.identity(1).to_eps()], eps_t)
    with pytest.raises(ValueError):
        lowest_eps_image([Matrix.identity(1)], Tensor((1,), {(0,): QC(1)}))


# -- the packed read of the lowest degree -------------------------------------


def lowest_by_unpacking(maps, t):
    """``lowest_eps_image`` through the full unpack: every coefficient of the eps image."""
    image = apply_product_map(maps, t.to_eps())
    if image.is_zero():
        return None
    degrees = {k for p in image.entries.values() for k in p.coeffs}
    d = min(degrees)
    low = {idx: p.coeffs[d] for idx, p in image.entries.items() if d in p.coeffs}
    return Tensor(image.dims, low), d, max(degrees) - d


real_parts = st.one_of(small, near_bound)


@st.composite
def lowest_read_cases(draw):
    """Real rational tensors under real Laurent eps maps, some values next to the
    packing bound. With ``positive`` every value is positive, so that the top
    digits reach the bound; otherwise signs are mixed, top digits included.
    Some cases hold only +-1, so that a top digit is often +-1 above a lower
    digit of the other sign."""
    positive = draw(st.booleans())
    part = draw(st.sampled_from([st.sampled_from([1, -1]), real_parts]))
    part = part.map(abs) if positive else part
    scalar = st.builds(QC, part)
    poly = st.builds(EpsPoly, st.dictionaries(st.integers(-2, 3), scalar, min_size=1, max_size=4))
    order = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 3), min_size=order, max_size=order))
    rows = draw(st.lists(st.integers(1, 3), min_size=order, max_size=order))
    t = Tensor(dims, sparse_fill(draw, dims, scalar, st.booleans()))
    maps = [Matrix(r, d, sparse_fill(draw, (r, d), poly, st.integers(0, 3).map(bool)), EPS)
            for r, d in zip(rows, dims)]
    return maps, t


@PROPERTY
@given(lowest_read_cases())
def test_packed_lowest_read_matches_the_full_unpack(case):
    maps, t = case
    assert lowest_eps_image(maps, t) == lowest_by_unpacking(maps, t)


def test_packed_lowest_read_on_chosen_digits():
    # Row 0 starts at eps^-2 and ends on a negative top digit; row 1 starts
    # above the global lowest degree, so it has no degree -2 coefficient.
    m = Matrix(2, 2, {
        (0, 0): EpsPoly({-2: QC(3), 1: QC(-5)}),
        (1, 0): EpsPoly({0: QC(1), 1: QC(-1)}),
        (1, 1): EpsPoly({1: QC(-7)}),
    }, EPS)
    t = Tensor((2,), {(0,): QC(Fraction(1, 2)), (1,): QC(Fraction(-1, 3))})
    low, d, e = lowest_eps_image([m], t)
    assert (d, e) == (-2, 3)
    assert low == Tensor((2,), {(0,): QC(Fraction(3, 2))})
    assert (low, d, e) == lowest_by_unpacking([m], t)
    # Top digits +-1 above a lower digit of the other sign: the packed value
    # is smaller in absolute value than its top slot's weight.
    for sign in (1, -1):
        m = Matrix(1, 1, {(0, 0): EpsPoly({0: QC(-sign * 5), 2: QC(sign)})}, EPS)
        assert lowest_eps_image([m], Tensor((1,), {(0,): QC(1)})) == (Tensor((1,), {(0,): QC(-sign * 5)}), 0, 2)
    assert lowest_eps_image([Matrix(1, 2, {(0, 0): EpsPoly.eps(1)}, EPS)], Tensor((2,), {(1,): QC(1)})) is None


def test_packed_lowest_read_folds_imaginary_parts_first():
    # i * i eps^-2 + 1 * eps^-2 = 0: the lowest packed slot holds a value that
    # folds to zero, and the lowest degree of the image is 3.
    t = Tensor((2,), {(0,): QC(0, 1), (1,): QC(1)})
    m = Matrix(1, 2, {(0, 0): EpsPoly({-2: QC(0, 1), 3: QC(1)}), (0, 1): EpsPoly({-2: QC(1)})}, EPS)
    assert lowest_eps_image([m], t) == (Tensor((1,), {(0,): QC(0, 1)}), 3, 0)
    assert lowest_eps_image([m], t) == lowest_by_unpacking([m], t)


# -- image slots: trailing modes folded into the packed values ----------------


def folded_modes(maps, t):
    """How many trailing modes of the image the lane packs into its values."""
    return t.order - len(_Lane(t, maps).columns)


wide_parts = st.one_of(small, st.builds(Fraction, st.integers(-(10**12), 10**12), st.sampled_from([1, 3, 7])))


@st.composite
def image_slot_cases(draw):
    """Rational tensors under rational or eps maps whose packed images run
    from one slot to several times PACKED_IMAGE_BITS: the lane folds no
    trailing mode, some of them or all. Values are real or Gaussian, eps
    maps hold Laurent degrees, and rows and dims of 1 occur."""
    part = draw(st.sampled_from([small, wide_parts]))
    imag = draw(st.sampled_from([st.just(0), part]))
    scalar = st.builds(QC, part, imag)
    domain = draw(st.sampled_from([RATIONAL, EPS]))
    poly = st.builds(EpsPoly, st.dictionaries(st.integers(-2, 3), scalar, min_size=1, max_size=3))
    order = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(1, 3), min_size=order, max_size=order))
    rows = draw(st.lists(st.sampled_from([1, 2, 3, 5, 8, 13]), min_size=order, max_size=order))
    t = Tensor(dims, sparse_fill(draw, dims, scalar, st.integers(0, 2).map(bool)))
    values = poly if domain == EPS else scalar
    maps = [Matrix(r, d, sparse_fill(draw, (r, d), values, st.integers(0, 2).map(lambda x: x == 0)), domain)
            for r, d in zip(rows, dims)]
    return maps, t


@PROPERTY
@given(image_slot_cases())
def test_image_slots_match_kfold_and_the_full_unpack(case):
    maps, t = case
    folded = folded_modes(maps, t)
    event(f"folded {'all' if folded == t.order else folded} of {t.order} modes")
    if maps[0].domain == EPS:
        assert apply_product_map(maps, t.to_eps()) == util.apply_product_map_kfold(maps, t.to_eps())
        assert lowest_eps_image(maps, t) == lowest_by_unpacking(maps, t)
    else:
        assert apply_product_map(maps, t) == util.apply_product_map_kfold(maps, t)


def signed_rows(rows, cols, domain=RATIONAL):
    """rows x cols map with one +-1 per row, in column r % cols, signs alternating.

    Every row has L1 norm 1, so an image coefficient can reach the lane's
    bound. Over EPS, row r holds +-eps^(r % 3 - 1)."""
    entries = {}
    for r in range(rows):
        s = QC(1 if r % 2 == 0 else -1)
        entries[(r, r % cols)] = s if domain == RATIONAL else EpsPoly({r % 3 - 1: s})
    return Matrix(rows, cols, entries, domain)


def test_image_slots_exactly_at_the_budget():
    # One entry 2^14 under 16-row maps whose rows hold one +-1: the bound is
    # 2^14, each digit 16 bits, and a 16 x 16 image 16 * 256 bits, which is
    # exactly the budget, so both modes fold. One more bit in the entry
    # widens the digit to 17 bits and only the last mode folds.
    assert 16 * 16 * 16 == PACKED_IMAGE_BITS
    maps = [signed_rows(16, 2)] * 2
    for value, width, folded in ((2**14, 16, 2), (2**15, 17, 1)):
        t = Tensor((2, 2), {(0, 0): QC(value), (1, 1): QC(-value + 1), (0, 1): QC(1)})
        assert _Lane(t, maps).block == width
        assert folded_modes(maps, t) == folded
        out = apply_product_map(maps, t)
        assert out == util.apply_product_map_kfold(maps, t)
        assert out.entries[(0, 0)] == QC(value) and out.entries[(1, 1)] == QC(-value + 1)


def test_image_slots_with_every_digit_at_the_width_bound():
    # Every output coefficient is +-(2^62 - 1), the bound itself, at the
    # edge of the balanced 63-bit digit, with signs alternating from one
    # block to the next and zero blocks between. All three modes fold.
    n = 2**62 - 1
    t = Tensor((2, 2, 2), {(0, 0, 0): QC(n), (1, 1, 1): QC(-n)})
    maps = [signed_rows(4, 2)] * 3
    assert folded_modes(maps, t) == 3
    out = apply_product_map(maps, t)
    assert out == util.apply_product_map_kfold(maps, t)
    assert {abs(v.re) for v in out.entries.values()} == {n}
    # The same with one eps power per map entry: the digits at the lowest
    # degree, eps^-3, are at the bound too.
    eps_maps = [signed_rows(4, 2, EPS)] * 3
    low, d, e = lowest_eps_image(eps_maps, t)
    assert (low, d, e) == lowest_by_unpacking(eps_maps, t)
    assert (d, e) == (-3, 6) and {abs(v.re) for v in low.entries.values()} == {n}


def test_image_slots_fold_no_mode_when_one_block_fills_the_budget():
    # A wide eps degree span makes one packed scalar wider than the budget
    # divided by any row count, so the lane keeps every mode mode-wise.
    maps = wide_border_cert(1000)
    t = ghz(2)
    assert _Lane(t, maps).block * 2 > PACKED_IMAGE_BITS
    assert folded_modes(maps, t) == 0
    assert lowest_eps_image(maps, t) == lowest_by_unpacking(maps, t)


def test_sparse_images_read_only_their_nonzero_blocks():
    # Twelve diagonal entries under maps with one entry per column: most
    # blocks of the packed values are zero and are jumped over.
    t = ghz(12)
    maps = [Matrix(20, 12, {((3 * c + 7 * j) % 20, c): QC(c + 1) for c in range(12)}) for j in range(3)]
    assert 0 < folded_modes(maps, t) < 3
    out = apply_product_map(maps, t)
    assert out == util.apply_product_map_kfold(maps, t) and out.nnz() == 12


@PROPERTY
@given(image_slot_cases())
def test_digits_at_every_slot_match_the_full_unpack(case):
    # On a lane without X slots, the digit at slot s of each block is the
    # coefficient of degree s + lo; the lowest slot is only one of them.
    maps, t = case
    lane = _Lane(t, maps)
    assume(not lane.x_degree)
    values = _contract(lane.tensor, lane.columns)
    image = lane.unpack(values)
    event(f"{lane.eps_slots} slots")
    for s in range(lane.eps_slots):
        k = s + lane.lo
        assert lane.digits(values, s) == {idx: c[k] for idx, c in image.items() if k in c}


def test_one_slot_eps_image_is_read_as_its_one_degree():
    # Each operand's entries share one eps degree (1, -2 and 3), so the image
    # has the one degree 2 and each block one digit. Row 0 of the first map
    # cancels column 0 of the tensor, 1 * 1/2 + 1/6 * -3 = 0, so the image
    # has no entry at (0, 0).
    def at(k, values):
        return {idx: EpsPoly({k: QC(v)}) for idx, v in values.items()}

    t = Tensor((2, 2), at(1, {(0, 0): Fraction(1, 2), (1, 0): -3, (1, 1): 5}), EPS)
    maps = [
        Matrix(2, 2, at(-2, {(0, 0): 1, (0, 1): Fraction(1, 6), (1, 1): -2}), EPS),
        Matrix(3, 2, at(3, {(0, 0): 2, (2, 0): -1, (1, 1): 7, (2, 1): 1}), EPS),
    ]
    lane = _Lane(t, maps)
    assert lane.block == lane.width and lane.lo == 2
    out = apply_product_map(maps, t)
    assert out == util.apply_product_map_kfold(maps, t)
    assert sorted(out.entries) == [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert {k for v in out.entries.values() for k in v.coeffs} == {2}


def dense_ones(side):
    return Matrix(side, side, {(r, c): QC(1) for r in range(side) for c in range(side)})


def test_contraction_guard_raises_before_the_loop():
    # 101 diagonal entries under dense 101 x 101 maps: mode 1 would hold
    # min(101 * 101 * 101, 101^3) = 1,030,301 entries, over the guard.
    import time

    t = ghz(101)
    maps = [dense_ones(101)] * 3
    eps_maps = [m.to_eps() for m in maps]
    start = time.perf_counter()
    with pytest.raises(StructureTooLarge, match="mode 1 of the contraction"):
        apply_product_map(maps, t)
    with pytest.raises(StructureTooLarge, match="mode 1 of the contraction"):
        lowest_eps_image(eps_maps, t)
    with pytest.raises(StructureTooLarge, match="mode 1 of the contraction"):
        apply_product_map([m.to_float() for m in maps], t.to_float())
    assert time.perf_counter() - start < 1.0
    # One map fewer in the dense mode stays under it.
    narrow = Matrix(1, 101, {(0, c): QC(1) for c in range(101)})
    assert apply_product_map([narrow, maps[1], maps[2]], t).nnz() == 101 * 101


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
    assert m.eval_eps(x) == Matrix(m.rows, m.cols, {ij: p.eval(x) for ij, p in m.entries.items()})


def test_eval_eps_at_zero():
    m = Matrix(1, 2, {(0, 0): EpsPoly({0: QC(2), 1: QC(5)}), (0, 1): EpsPoly.eps(2)}, EPS)
    assert m.eval_eps(0) == Matrix(1, 2, {(0, 0): QC(2)})
    with pytest.raises(ZeroDivisionError):
        Matrix(1, 1, {(0, 0): EpsPoly.eps(-1)}, EPS).eval_eps(Fraction(0))


@st.composite
def interpolation_cases(draw):
    """Orders 1-3, each factor the Kronecker product of 1-3 small Laurent maps
    with Gaussian-rational coefficients (a map may repeat, as a lattice
    vertex repeats its edge maps), and degrees d of either sign, e in 0..4."""
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        maps = []
        for _ in range(draw(st.integers(1, 3))):
            if maps and draw(st.booleans()):
                maps.append(maps[-1])
                continue
            rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 3))
            maps.append(Matrix(rows, cols, sparse_fill(draw, (rows, cols), laurent_values, st.booleans()), EPS))
        factors.append(maps)
    return factors, draw(st.integers(-3, 3)), draw(st.integers(0, 4))


@PROPERTY
@given(interpolation_cases())
def test_interpolation_certificate_matches_pointwise_reference(case):
    factors, d, e = case
    maps = [reduce(Matrix.kron, ms) for ms in factors]
    dims, target_dims = [m.cols for m in maps], [m.rows for m in maps]
    expected = util.interpolation_certificate_ref(dims, target_dims, maps, d, e)
    assert _interpolation_certificate(dims, target_dims, factors, d, e) == expected


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
        full = tensor_product(t, u)
        return group(full, GroupingSpec.kron_pairing(order)) if draw(st.booleans()) else full
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


# -- exact rank and Koszul flattenings ------------------------------------------

real_values = st.builds(QC, fractions)
gaussian_values = st.builds(QC, fractions, fractions)


@st.composite
def rank_cases(draw):
    """A matrix of side 1..6: sparse, a low-rank product, or with repeated and zero rows.

    Entries are real or Gaussian rationals; ``fractions`` reaches numerators
    near 10**30.
    """
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    values = draw(st.sampled_from([real_values, gaussian_values]))
    kind = draw(st.sampled_from(["sparse", "product", "repeated"]))
    dense = st.integers(0, 3).map(bool)
    if kind == "product":
        k = draw(st.integers(1, min(rows, cols)))
        a = Matrix(rows, k, sparse_fill(draw, (rows, k), values, dense))
        b = Matrix(k, cols, sparse_fill(draw, (k, cols), values, dense))
        return a @ b
    entries = sparse_fill(draw, (rows, cols), values, dense)
    if kind == "repeated":
        for i in range(1, rows):
            what = draw(st.sampled_from(["keep", "zero", "copy"]))
            if what == "keep":
                continue
            source = draw(st.integers(0, i - 1))
            row = {j: v for (r, j), v in entries.items() if r == source}
            scale = draw(values) if what == "copy" else QC(0)
            for j in range(cols):
                entries.pop((i, j), None)
            entries.update({(i, j): scale * v for j, v in row.items()})
    return Matrix(rows, cols, entries)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rank_cases())
def test_rank_matches_minors(m):
    assert rank(m) == util.rank_by_minors(m)


def _random_matrix(rng, rows, cols, density, imaginary, den=9):
    def part():
        return Fraction(rng.randint(-den, den), rng.randint(1, den))

    return Matrix(rows, cols, {
        (i, j): QC(part(), part() if imaginary else 0)
        for i in range(rows) for j in range(cols) if rng.random() < density
    })


@pytest.mark.parametrize("seed", range(8))
def test_rank_matches_field_elimination_at_sides_10_to_40(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(10, 40), rng.randint(10, 40)
    imaginary, density = seed % 2 == 1, (0.1, 0.4, 1.0, 1.0)[seed // 2]
    if seed >= 6:
        k = rng.randint(1, min(rows, cols) - 1)
        m = _random_matrix(rng, rows, k, density, imaginary) @ _random_matrix(rng, k, cols, density, imaginary)
    else:
        m = _random_matrix(rng, rows, cols, density, imaginary)
    assert rank(m) == util.rank_by_field_elimination(m)


@st.composite
def koszul_cases(draw):
    dims = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 5)))
    values, domain = draw(st.sampled_from(
        [(st.builds(QC, small), RATIONAL), (qc_values, RATIONAL), (eps_values, EPS)]
    ))
    return Tensor(dims, sparse_fill(draw, dims, values, st.booleans()), domain)


@PROPERTY
@given(koszul_cases())
def test_koszul_flatten_matches_the_per_entry_reference(t):
    for p in range(t.dims[2]):
        spec = KoszulSpec(t.dims[2], p)
        assert koszul_flatten(t, spec) == util.koszul_flatten_ref(t, spec)
