"""Property tests of the exact kernels against the reference oracles in util.

The integer-packed ``QC`` is checked against ``util.RefQC`` (a pair of
Fractions) and the mode-wise ``apply_product_map`` against
``util.apply_product_map_kfold`` (the full k-fold product per entry).
"""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from tpl.matrix import Matrix
from tpl.scalars import EPS, RATIONAL, EpsPoly, QC
from tpl.tensor import Tensor, apply_product_map

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
