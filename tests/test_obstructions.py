import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest

import util
from tpl.matrix import Matrix, flatten, rank
from tpl.named import ghz, mamu, simple, w_state
from tpl.obstructions import (
    KoszulSpec,
    ThetaWeights,
    flattening_ratio,
    gauge_points,
    hyperdeterminant_222,
    koszul_flatten,
    max_simple_koszul_rank,
    quantum_functional_point,
)
from tpl.scalars import QC
from tpl.tensor import StructureTooLarge, Tensor, apply_product_map, kron, permute_factors


def test_gauge_points_basics():
    assert gauge_points(ghz(4)) == (4, 4, 4)
    assert gauge_points(simple(3)) == (1, 1, 1)
    assert gauge_points(mamu(2)) == (4, 4, 4)
    assert gauge_points(w_state()) == (2, 2, 2)


def test_gauge_points_restriction_monotone():
    rng = random.Random(31)
    for _ in range(25):
        t = util.random_rational_tensor(rng, (3, 2, 3), density=0.6)
        maps = [util.random_rational_matrix(rng, rng.randint(1, 3), d) for d in t.dims]
        image = apply_product_map(maps, t)
        for rj_new, rj_old in zip(gauge_points(image), gauge_points(t)):
            assert rj_new <= rj_old


def test_hyperdeterminant_values():
    assert hyperdeterminant_222(w_state()) == QC(0)
    assert hyperdeterminant_222(ghz(2)) == QC(1)


def test_hyperdeterminant_covariance():
    rng = random.Random(41)
    for _ in range(100):
        t = util.random_rational_tensor(rng, (2, 2, 2), density=0.8, den=4)
        maps = [util.random_rational_matrix(rng, 2, 2, den=3) for _ in range(3)]
        dets = []
        for m in maps:
            dets.append(m.get(0, 0) * m.get(1, 1) - m.get(0, 1) * m.get(1, 0))
        image = apply_product_map(maps, t)
        factor = dets[0] * dets[1] * dets[2]
        scale = factor * factor
        assert hyperdeterminant_222(image) == scale * hyperdeterminant_222(t)


def test_hyperdeterminant_matches_the_explicit_expansion():
    rng = random.Random(43)
    for n in range(240):
        t = util.random_rational_tensor(rng, (2, 2, 2), density=rng.choice([0.4, 0.8, 1.0]), den=5)
        if n % 2:  # Gaussian rational entries
            entries = {i: v * QC(Fraction(rng.randint(-3, 3), 2), rng.randint(-3, 3)) for i, v in t.entries.items()}
            t = Tensor(t.dims, {i: v for i, v in entries.items() if v})
        assert hyperdeterminant_222(t) == util.hyperdeterminant_222_ref(t)


def test_hyperdeterminant_rejects_wrong_dims():
    with pytest.raises(ValueError):
        hyperdeterminant_222(ghz(3))


def test_koszul_spec_validation():
    with pytest.raises(ValueError):
        KoszulSpec(3, 3)
    spec = KoszulSpec(3, 1)
    assert spec.out_rows == 3 and spec.out_cols == 3


def test_koszul_simple_rank_two():
    spec = KoszulSpec(3, 1)
    rng = random.Random(5)
    s = Tensor((3, 3, 3), {(0, 0, 0): QC(1)})
    assert rank(koszul_flatten(s, spec)) == 2
    for _ in range(5):
        vecs = [[QC(Fraction(rng.randint(-4, 4), 2)) for _ in range(3)] for _ in range(3)]
        entries = {}
        for a, va in enumerate(vecs[0]):
            for b, vb in enumerate(vecs[1]):
                for c, vc in enumerate(vecs[2]):
                    if va * vb * vc:
                        entries[(a, b, c)] = va * vb * vc
        t = Tensor((3, 3, 3), entries)
        if not t.is_zero():
            assert rank(koszul_flatten(t, spec)) == 2


def test_koszul_ghz3_rank_six():
    assert rank(koszul_flatten(ghz(3), KoszulSpec(3, 1))) == 6


def test_koszul_p0_is_ordinary_flattening():
    # p = 0: wedge^1 is the identity, wedge^0 a scalar, so the map reduces
    # to the bipartition flattening that isolates the middle factor.
    rng = random.Random(7)
    for _ in range(10):
        t = util.random_rational_tensor(rng, (2, 3, 3), density=0.5)
        m = koszul_flatten(t, KoszulSpec(3, 0))
        assert m == flatten(t, {0, 2})
        assert rank(m) == rank(flatten(t, {1}))


def test_koszul_shape():
    t = util.random_rational_tensor(random.Random(1), (2, 3, 4), density=0.5)
    spec = KoszulSpec(4, 2)
    m = koszul_flatten(t, spec)
    assert (m.rows, m.cols) == (2 * math.comb(4, 3), 3 * math.comb(4, 2))


@pytest.mark.parametrize("d3", range(1, 6))
def test_koszul_flatten_writes_each_entry_once(d3):
    # Entry (a, b, c) reaches C(d3-1, p) keys, one per p-subset without c,
    # and no two entries reach the same key, so nothing cancels.
    rng = random.Random(d3)
    real = util.random_rational_tensor(rng, (2, 3, d3), density=0.7)
    complex_entries = {
        idx: QC(rng.randint(-3, 3), rng.randint(1, 3))
        for idx in product(range(3), range(2), range(d3))
        if rng.random() < 0.7
    }
    inner = util.random_rational_tensor(rng, (2, 2, max(d3 - 1, 1)), density=1.0)
    padded = Tensor((4, 3, d3), dict(inner.entries))
    for t in (real, Tensor((3, 2, d3), complex_entries), padded):
        for p in range(d3):
            assert koszul_flatten(t, KoszulSpec(d3, p)).nnz() == t.nnz() * math.comb(d3 - 1, p)


def test_koszul_dimension_mismatch():
    with pytest.raises(ValueError):
        koszul_flatten(ghz(2), KoszulSpec(3, 1))


def test_koszul_covariance_diagonal_and_permutation():
    """F((1 (x) 1 (x) g) t) (1 (x) wedge^p g) == (1 (x) wedge^{p+1} g) F(t),
    exactly, for invertible diagonal and permutation g (so wedge^p g is
    invertible too, and this is F(g t) == (1 (x) wedge^{p+1} g) F(t) (1 (x) wedge^p g)^-1)."""
    rng = random.Random(13)
    spec = KoszulSpec(3, 1)
    d1 = d2 = 3
    for trial in range(50):
        t = util.random_rational_tensor(rng, (d1, d2, 3), density=0.5)
        if trial % 2 == 0:
            diag = [QC(Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))) for _ in range(3)]
            g = Matrix(3, 3, {(i, i): v for i, v in enumerate(diag)})
        else:
            perm = list(range(3))
            rng.shuffle(perm)
            g = Matrix(3, 3, {(perm[i], i): QC(1) for i in range(3)})
        moved = apply_product_map([Matrix.identity(d1), Matrix.identity(d2), g], t)
        a_g = util.wedge_power_matrix(g, spec.p + 1)
        b_g = util.wedge_power_matrix(g, spec.p)
        lhs = koszul_flatten(moved, spec) @ Matrix.identity(d2).kron(b_g)
        rhs = Matrix.identity(d1).kron(a_g) @ koszul_flatten(t, spec)
        assert lhs == rhs


def test_koszul_multiplicative_under_disjoint_product():
    rng = random.Random(17)
    spec = KoszulSpec(3, 1)
    for _ in range(5):
        t = util.random_rational_tensor(rng, (2, 2, 3), density=0.6)
        u = util.random_rational_tensor(rng, (2, 2, 3), density=0.6)
        ft = koszul_flatten(t, spec)
        fu = koszul_flatten(u, spec)
        assert rank(ft.kron(fu)) == rank(ft) * rank(fu)


def test_flattening_ratio_values():
    spec = KoszulSpec(3, 1)
    assert flattening_ratio(ghz(3), spec, trials=8) == Fraction(3)
    s = Tensor((3, 3, 3), {(0, 0, 0): QC(1)})
    assert flattening_ratio(s, spec, trials=8) == Fraction(1)
    rng = random.Random(3)
    hits = 0
    for i in range(20):
        t = util.random_rational_tensor(rng, (3, 3, 3), density=1.0, den=16)
        if flattening_ratio(t, spec, trials=4, seed=i) == Fraction(9, 2):
            hits += 1
    assert hits >= 19


def test_koszul_flatten_refuses_an_oversized_flattening_before_building():
    start = time.perf_counter()
    # C(30, 15) + C(30, 16) = 300540195 wedge basis subsets.
    line = Tensor((1, 1, 30), {(0, 0, 0): QC(1)})
    with pytest.raises(StructureTooLarge, match="lists 300540195 wedge basis subsets"):
        flattening_ratio(line, KoszulSpec(30, 15))
    # 320 entries times C(19, 4) = 3876 insertions each.
    ones = Tensor((4, 4, 20), {idx: QC(1) for idx in product(range(4), range(4), range(20))})
    with pytest.raises(StructureTooLarge, match="may hold 1240320 entries"):
        koszul_flatten(ones, KoszulSpec(20, 4))
    assert time.perf_counter() - start < 1
    assert koszul_flatten(ones, KoszulSpec(20, 3)).dims == (4 * 4845, 4 * 1140)


def test_koszul_flatten_refuses_a_longer_side_over_the_side_guard_before_building():
    # e0 (x) e0 (x) e0 in 1x1x20 at p = 12: a C(20, 13) x C(20, 12) = 77520 x 125970 matrix.
    line = Tensor((1, 1, 20), {(0, 0, 0): QC(1)})
    for build in (koszul_flatten, flattening_ratio):
        start = time.perf_counter()
        with pytest.raises(StructureTooLarge, match=r"\(d3=20, p=12\): flattening matrix side 125970 exceeds 100000"):
            build(line, KoszulSpec(20, 12))
        assert time.perf_counter() - start < 1
    assert koszul_flatten(line, KoszulSpec(20, 13)).dims == (38760, 77520)
    # A tall flattening is cheap but refused all the same: side d1 at d3 = 1, p = 0.
    assert koszul_flatten(Tensor((10**5, 1, 1), {(0, 0, 0): QC(1)}), KoszulSpec(1, 0)).dims == (10**5, 1)
    with pytest.raises(StructureTooLarge, match="side 100001 exceeds"):
        koszul_flatten(Tensor((10**5 + 1, 1, 1), {(0, 0, 0): QC(1)}), KoszulSpec(1, 0))


def test_koszul_flatten_and_flattening_ratio_refuse_other_orders_and_d3():
    for build in (koszul_flatten, flattening_ratio):
        with pytest.raises(ValueError, match="order-3"):
            build(ghz(3, 2), KoszulSpec(3, 1))
        with pytest.raises(ValueError, match="does not match spec d3=4"):
            build(ghz(3), KoszulSpec(4, 1))


def test_max_simple_rank_uses_closed_value():
    assert max_simple_koszul_rank(KoszulSpec(3, 1), trials=0) == 2


def _random_nonzero_vector(rng, n):
    while True:
        vec = [QC(Fraction(rng.randint(-2, 2), rng.randint(1, 3))) for _ in range(n)]
        if any(vec):
            return vec


def test_max_simple_rank_matches_simple_tensor_flattenings():
    rng = random.Random(23)
    for d3 in range(1, 6):
        for p in range(d3):
            spec = KoszulSpec(d3, p)
            for _ in range(3):
                dims = (rng.randint(1, 3), rng.randint(1, 3), d3)
                va, vb, vc = (_random_nonzero_vector(rng, n) for n in dims)
                entries = {}
                for a, x in enumerate(va):
                    for b, y in enumerate(vb):
                        for c, z in enumerate(vc):
                            if x * y * z:
                                entries[(a, b, c)] = x * y * z
                s = Tensor(dims, entries)
                assert rank(koszul_flatten(s, spec)) == max_simple_koszul_rank(spec)


def test_theta_weights_validation():
    ThetaWeights((Fraction(1, 2), Fraction(1, 2)))
    ThetaWeights((0.25, 0.75))
    with pytest.raises(ValueError):
        ThetaWeights((Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError):
        ThetaWeights((Fraction(3, 2), Fraction(-1, 2)))


@pytest.mark.parametrize(
    "weights, message",
    [
        ((math.nan, 0.5, 0.5), "theta weights must be nonnegative"),
        ((0.5, 0.5, math.nan), "theta weights must be nonnegative"),
        ((-math.inf, 0.5, 0.5), "theta weights must be nonnegative"),
        ((math.inf, 0.5, 0.5), "theta weights sum to inf, expected 1"),
    ],
)
def test_theta_weights_refuse_nan_and_infinity(weights, message):
    with pytest.raises(ValueError) as info:
        ThetaWeights(weights)
    assert str(info.value) == message
    with pytest.raises(ValueError):
        quantum_functional_point(w_state(), weights)


def test_quantum_functional_ghz_and_simple():
    rng = random.Random(53)
    for r in (2, 3, 4, 5):
        t = ghz(r)
        for _ in range(3):
            cuts = sorted(rng.random() for _ in range(2))
            theta = (cuts[0], cuts[1] - cuts[0], 1.0 - cuts[1])
            assert abs(quantum_functional_point(t, theta) - r) <= 1e-9
    assert abs(quantum_functional_point(simple(3), ThetaWeights.uniform(3)) - 1.0) <= 1e-12


def test_quantum_functional_w_value():
    h = lambda p: -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
    expected = 2 ** h(1 / 3)
    got = quantum_functional_point(w_state(), ThetaWeights.uniform(3))
    assert abs(got - expected) <= 1e-6


def test_quantum_functional_multiplicative_and_permutation_invariant():
    rng = random.Random(61)
    for _ in range(20):
        t = util.random_rational_tensor(rng, (2, 2, 2), density=0.8)
        u = util.random_rational_tensor(rng, (2, 2, 2), density=0.8)
        if t.is_zero() or u.is_zero():
            continue
        theta = ThetaWeights.uniform(3)
        f_t = quantum_functional_point(t, theta)
        f_u = quantum_functional_point(u, theta)
        f_tu = quantum_functional_point(kron(t, u), theta)
        assert abs(f_tu - f_t * f_u) <= 1e-9 * max(1.0, f_t * f_u)
    t = util.random_rational_tensor(random.Random(3), (2, 3, 2), density=0.8)
    perm = [2, 0, 1]
    theta = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    permuted_theta = tuple(theta[p] for p in perm)
    a = quantum_functional_point(t, theta)
    b = quantum_functional_point(permute_factors(t, perm), permuted_theta)
    assert abs(a - b) <= 1e-9


def test_quantum_functional_zero_rejected():
    with pytest.raises(ValueError):
        quantum_functional_point(Tensor((2, 2), {}), ThetaWeights.uniform(2))


@pytest.mark.parametrize("order", [0, 1])
def test_gauge_points_need_order_two(order):
    with pytest.raises(ValueError, match=f"order at least 2, got order {order}$"):
        gauge_points(Tensor((3,) * order, {(0,) * order: QC(1)}))
