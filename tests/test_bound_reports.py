"""Bound reports rank the highest-ceiling flattening first and skip the rest.

``disjoint_rank_bounds`` and ``strassen_rank_bounds`` take their candidates
in descending order of ceiling, min(rows, cols) of the matrix over its
denominator, and skip one whose ceiling cannot beat the best bound so far.
``reference_lower`` below ranks every candidate in listing order (gauge
points, then Koszul levels) and keeps the first best, and the reports must
match it in value, witness and ``ref``; a second reference does the same
over fake ranks, so ties are common. The pinned texts are the ``to_json()``
of both reports before any skip existed. The Kronecker-power roots of
``strassen_rank_bounds`` are exact ``Root`` values, checked here against
400-digit decimals.
"""

import json
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from tpl import asymptotic, obstructions
from tpl.asymptotic import MATRIX_SIDE_GUARD, Bound, Root, disjoint_rank_bounds, strassen_rank_bounds
from tpl.catalog import Catalog
from tpl.matrix import rank
from tpl.named import epr, ghz, mamu, simple, w_state
from tpl.obstructions import KoszulSpec, flattening_ratio, gauge_points, koszul_flatten, _koszul_size_error
from tpl.scalars import QC
from tpl.tensor import Tensor, apply_product_map, kron

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def reference_lower(t, koszul=True):
    """Every candidate ranked: gauge points, then (order 3) the admitted Koszul ratios; the first best wins."""
    candidates = [Bound(Fraction(r), "gauge point", {"kind": "gauge", "factor": j}) for j, r in enumerate(gauge_points(t))]
    if koszul and t.order == 3:
        d3 = t.dims[2]
        for p in range(1, d3):
            spec = KoszulSpec(d3, p)
            if t.dims[0] * spec.out_rows > MATRIX_SIDE_GUARD or _koszul_size_error(t, spec):
                continue
            ratio = flattening_ratio(t, spec)
            ref = {"kind": "koszul", "d3": d3, "p": p, "ratio": str(ratio)}
            candidates.append(Bound(ratio, f"koszul flattening ratio (d3={d3}, p={p})", ref))
    best = candidates[0]
    for c in candidates[1:]:
        if c.value > best.value:
            best = c
    return best


def assert_matches_reference(t):
    catalog = Catalog.packaged()
    assert disjoint_rank_bounds(t, catalog).lower == reference_lower(t)
    assert strassen_rank_bounds(t, n_max=1, catalog=catalog).lower == reference_lower(t, koszul=False)


def moved(rng, t, span=4):
    """t under a random invertible base change of every factor."""
    return apply_product_map([util.random_invertible(rng, d, span) for d in t.dims], t)


def koszul_rank_tensor(rng, k):
    """A base-changed sparse 3x3x3 tensor whose p = 1 Koszul flattening has rank k."""
    while True:
        t = util.random_rational_tensor(rng, (3, 3, 3), density=0.3, den=2)
        if rank(koszul_flatten(t, KoszulSpec(3, 1))) == k:
            return moved(rng, t, span=2)


def pinned_tensors():
    rng = random.Random(20261020)
    tensors = {}
    for d in (3, 4):
        tensors[f"dense-{d}"] = util.random_rational_tensor(rng, (d, d, d), density=1.0, den=16)
        tensors[f"half-dense-{d}"] = util.random_rational_tensor(rng, (d, d, d), density=0.5, den=3)
    tensors["ghz3-moved"] = moved(rng, ghz(3))
    tensors["koszul-7"] = koszul_rank_tensor(rng, 7)
    tensors["koszul-8"] = koszul_rank_tensor(rng, 8)
    tensors["w"] = w_state()
    tensors["mamu2"] = mamu(2)
    return tensors


def report_texts(t):
    catalog = Catalog.packaged()
    reports = (disjoint_rank_bounds(t, catalog), strassen_rank_bounds(t, n_max=2, catalog=catalog))
    return [json.dumps(report.to_json(), sort_keys=True) for report in reports]


# ``report_texts`` of each pinned tensor, recorded before the skip existed.
PINNED = {
    'dense-3': [
        '{"lower": {"ref": {"d3": 3, "kind": "koszul", "p": 1, "ratio": "9/2"}, "value": "9/2", "witness": "koszul flattening ratio (d3=3, p=1)"}, "quantity": "disjoint asymptotic rank", "upper": null}',
        '{"lower": {"ref": {"factor": 0, "kind": "gauge"}, "value": "3", "witness": "gauge point"}, "quantity": "strassen asymptotic rank", "upper": null}',
    ],
    'half-dense-3': [
        '{"lower": {"ref": {"d3": 3, "kind": "koszul", "p": 1, "ratio": "4"}, "value": "4", "witness": "koszul flattening ratio (d3=3, p=1)"}, "quantity": "disjoint asymptotic rank", "upper": null}',
        '{"lower": {"ref": {"factor": 0, "kind": "gauge"}, "value": "3", "witness": "gauge point"}, "quantity": "strassen asymptotic rank", "upper": null}',
    ],
    'dense-4': [
        '{"lower": {"ref": {"d3": 4, "kind": "koszul", "p": 1, "ratio": "16/3"}, "value": "16/3", "witness": "koszul flattening ratio (d3=4, p=1)"}, "quantity": "disjoint asymptotic rank", "upper": null}',
        '{"lower": {"ref": {"factor": 0, "kind": "gauge"}, "value": "4", "witness": "gauge point"}, "quantity": "strassen asymptotic rank", "upper": null}',
    ],
    'half-dense-4': [
        '{"lower": {"ref": {"d3": 4, "kind": "koszul", "p": 1, "ratio": "16/3"}, "value": "16/3", "witness": "koszul flattening ratio (d3=4, p=1)"}, "quantity": "disjoint asymptotic rank", "upper": null}',
        '{"lower": {"ref": {"factor": 0, "kind": "gauge"}, "value": "4", "witness": "gauge point"}, "quantity": "strassen asymptotic rank", "upper": null}',
    ],
    'ghz3-moved': [
        '{"lower": {"ref": {"factor": 0, "kind": "gauge"}, "value": "3", "witness": "gauge point"}, "quantity": "disjoint asymptotic rank", "upper": null}',
        '{"lower": {"ref": {"factor": 0, "kind": "gauge"}, "value": "3", "witness": "gauge point"}, "quantity": "strassen asymptotic rank", "upper": null}',
    ],
    'koszul-7': [
        '{"lower": {"ref": {"d3": 3, "kind": "koszul", "p": 1, "ratio": "7/2"}, "value": "7/2", "witness": "koszul flattening ratio (d3=3, p=1)"}, "quantity": "disjoint asymptotic rank", "upper": null}',
        '{"lower": {"ref": {"factor": 0, "kind": "gauge"}, "value": "3", "witness": "gauge point"}, "quantity": "strassen asymptotic rank", "upper": null}',
    ],
    'koszul-8': [
        '{"lower": {"ref": {"d3": 3, "kind": "koszul", "p": 1, "ratio": "4"}, "value": "4", "witness": "koszul flattening ratio (d3=3, p=1)"}, "quantity": "disjoint asymptotic rank", "upper": null}',
        '{"lower": {"ref": {"factor": 0, "kind": "gauge"}, "value": "3", "witness": "gauge point"}, "quantity": "strassen asymptotic rank", "upper": null}',
    ],
    'w': [
        '{"lower": {"ref": {"factor": 0, "kind": "gauge"}, "value": "2", "witness": "gauge point"}, "quantity": "disjoint asymptotic rank", "upper": {"ref": {"id": "w-border2-degeneration", "kind": "certificate", "r": 2}, "value": "2", "witness": "verified degeneration from a unit tensor (border rank witness)"}}',
        '{"lower": {"ref": {"factor": 0, "kind": "gauge"}, "value": "2", "witness": "gauge point"}, "quantity": "strassen asymptotic rank", "table": [{"bound": 2.6457513110645907, "id": "w-kron2-rank7", "n": 2, "terms": 7}], "upper": {"ref": {"id": "w-kron2-rank7", "kind": "decomposition", "n": 2, "terms": 7}, "value": 2.6457513110645907, "witness": "verified 7-term decomposition of the Kronecker power n=2"}}',
    ],
    'mamu2': [
        '{"lower": {"ref": {"d3": 4, "kind": "koszul", "p": 1, "ratio": "16/3"}, "value": "16/3", "witness": "koszul flattening ratio (d3=4, p=1)"}, "quantity": "disjoint asymptotic rank", "upper": {"ref": {"id": "strassen-mamu2-rank7", "kind": "decomposition", "terms": 7}, "value": "7", "witness": "verified decomposition (rank witness)"}}',
        '{"extras": {"omega": {"lower": 2.0, "premise": "exponent = log2 of the asymptotic rank of the 2x2 matrix multiplication tensor", "upper": 2.807354922057604}}, "lower": {"ref": {"factor": 0, "kind": "gauge"}, "value": "4", "witness": "gauge point"}, "quantity": "strassen asymptotic rank", "table": [{"bound": 7.0, "id": "strassen-mamu2-rank7", "n": 1, "terms": 7}], "upper": {"ref": {"id": "strassen-mamu2-rank7", "kind": "decomposition", "n": 1, "terms": 7}, "value": "7", "witness": "verified 7-term decomposition of the Kronecker power n=1"}}',
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_reports_match_the_pinned_texts(name):
    assert report_texts(pinned_tensors()[name]) == PINNED[name]


# Ties (a later candidate equal to the best), orders 2 and 4, d3 = 1,
# padding and complex entries.
NAMED = {
    "mamu2": lambda: mamu(2),
    "ghz3-moved": lambda: moved(random.Random(4), ghz(3)),
    "ghz3": lambda: ghz(3),
    "ghz3-padded": lambda: Tensor((4, 3, 5), dict(ghz(3).entries)),
    "w": w_state,
    "w-kron-w": lambda: kron(w_state(), w_state()),
    "simple3": lambda: simple(3),
    "epr2": lambda: epr(2),
    "ghz2-order4": lambda: ghz(2, 4),
    "d3-is-1": lambda: Tensor((3, 2, 1), {(0, 0, 0): QC(1), (1, 1, 0): QC(2), (2, 0, 0): QC(1)}),
    "complex": lambda: Tensor((2, 3, 3), {(0, 0, 0): QC(1, 1), (1, 1, 1): QC(0, 2), (0, 2, 2): QC(1, -1), (1, 2, 0): QC(3)}),
    "zero": lambda: Tensor((2, 2, 3), {}),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_reports_match_the_reference(name):
    assert_matches_reference(NAMED[name]())


@st.composite
def report_inputs(draw):
    """Dense, sparse and complex tensors of order 2 to 4, some zero-padded."""
    order = draw(st.sampled_from((2, 3, 3, 4)))
    sizes = st.sampled_from((1, 2, 3, 3, 4, 4)) if order < 4 else st.integers(1, 3)
    dims = tuple(draw(sizes) for _ in range(order))
    density = draw(st.sampled_from((0.3, 0.6, 1.0)))
    complex_entries = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    entries = {}
    for idx in product(*map(range, dims)):
        if rng.random() < density:
            im = Fraction(rng.randint(-2, 2), 2) if complex_entries else 0
            v = QC(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))), im)
            if v:
                entries[idx] = v
    if draw(st.booleans()):
        dims = tuple(d + draw(st.integers(0, 1)) for d in dims)
    return Tensor(dims, entries)


@PROPERTY
@given(report_inputs())
def test_reports_match_the_reference(t):
    assert_matches_reference(t)


# Exact ranks per (disjoint, strassen) report. A dense or half-dense report
# ranks Koszul p = 1 first (ceiling 9/2 or 16/3), and its value is above
# every gauge ceiling. The moved GHZ_3 is a tie: Koszul p = 1 gives 3, and
# gauge 0, ceiling 3 and listed first, is ranked and takes the bound.
RANK_COUNTS = {
    "dense-3": (1, 1),
    "dense-4": (1, 1),
    "half-dense-3": (1, 1),
    "half-dense-4": (1, 1),
    "ghz3-moved": (2, 1),
}


@pytest.mark.parametrize("name", list(RANK_COUNTS))
def test_disjoint_reports_rank_the_highest_ceiling_first(monkeypatch, name):
    calls = []

    def counted(m, *args, **kwargs):
        calls.append(m)
        return rank(m, *args, **kwargs)

    monkeypatch.setattr(asymptotic, "rank", counted)
    monkeypatch.setattr(obstructions, "rank", counted)
    t = pinned_tensors()[name]
    report = disjoint_rank_bounds(t, Catalog.packaged())
    if name == "ghz3-moved":
        assert report.lower.ref == {"kind": "gauge", "factor": 0}
    else:
        assert (report.lower.ref["kind"], report.lower.ref["p"]) == ("koszul", 1)
    disjoint_calls = len(calls)
    calls.clear()
    strassen_rank_bounds(t, n_max=1, catalog=Catalog.packaged())
    assert (disjoint_calls, len(calls)) == RANK_COUNTS[name]


def test_branch_and_bound_returns_the_first_best_listed_candidate(monkeypatch):
    # Fake ranks at or below each ceiling, drawn from a few values so that
    # ties are common; no real rank runs. The reference ranks every candidate
    # in listing order and keeps the first best.
    values = {}
    monkeypatch.setattr(asymptotic, "flatten", lambda t, left: ("gauge", *left))
    monkeypatch.setattr(asymptotic, "rank", lambda key: values[key])
    monkeypatch.setattr(asymptotic, "flattening_ratio", lambda t, spec: values["koszul", spec.p])
    rng = random.Random(29)
    for _ in range(3000):
        order, koszul = rng.randint(2, 4), rng.random() < 0.8
        dims = tuple(rng.randint(1, 6 if (order, j) == (3, 2) else 4) for j in range(order))
        values.clear()
        for j, d in enumerate(dims):
            values["gauge", j] = rng.randint(0, min(d, math.prod(dims) // d))
        if koszul and order == 3:
            d1, d2, d3 = dims
            for p in range(1, d3):
                spec = KoszulSpec(d3, p)
                ceiling = Fraction(min(d1 * spec.out_rows, d2 * spec.out_cols), math.comb(d3 - 1, p))
                values["koszul", p] = rng.choice([Fraction(v, 2) for v in range(13) if v <= 2 * ceiling] + [ceiling])
        listed = None
        for key, value in values.items():
            if listed is None or value > values[listed]:
                listed = key
        best = asymptotic._best_lower(Tensor(dims, {}), koszul)
        kind, at = listed
        assert best.value == values[listed]
        assert (best.ref["kind"], best.ref["factor" if kind == "gauge" else "p"]) == (kind, at)


def oracle_sign(x, y):
    """The sign of x - y for Roots and Fractions, from 400-digit decimals.

    Differences below 10^-350 count as equal. Unequal values compared here
    differ by far more: r q^n and p^n, or r^m and s^n, then differ by 1 or more.
    """
    with localcontext() as ctx:
        ctx.prec = 400
        a, b = (
            Decimal(v.radicand) ** (Decimal(1) / v.index) if isinstance(v, Root) else Decimal(v.numerator) / v.denominator
            for v in (x, y)
        )
        d = a - b
        return 0 if abs(d) < Decimal(10) ** -350 else (1 if d > 0 else -1)


def assert_sign(root, other, expect):
    assert (root > other, root == other, root < other) == (expect > 0, expect == 0, expect < 0)
    assert (other < root, other > root) == (expect > 0, expect < 0)


@PROPERTY
@given(st.integers(0, 10**6), st.integers(1, 6), st.integers(-3, 3), st.integers(1, 10**9))
def test_roots_compare_exactly_with_the_fractions_near_their_float(r, n, steps, den):
    root = Root(r, n)
    f = float(root)
    for _ in range(abs(steps)):
        f = math.nextafter(f, math.copysign(math.inf, steps))
    for q in (Fraction(f), Fraction(round(f * den), den)):
        assert_sign(root, q, oracle_sign(root, q))


@PROPERTY
@given(st.integers(0, 10**4), st.integers(1, 6), st.integers(0, 10**4), st.integers(1, 6))
def test_roots_compare_exactly_with_roots(r, n, s, m):
    assert_sign(Root(r, n), Root(s, m), oracle_sign(Root(r, n), Root(s, m)))


@PROPERTY
@given(st.integers(0, 60), st.integers(1, 6), st.integers(1, 6), st.integers(1, 10**12))
def test_perfect_power_roots_equal_their_base(b, n, m, den):
    root = Root(b**n, n)
    assert_sign(root, Fraction(b), 0)
    assert_sign(root, Root(b**m, m), 0)
    assert_sign(root, Fraction(b * den + 1, den), -1)
    if b:
        assert_sign(root, Fraction(b * den - 1, den), 1)


def test_root_floats_and_json_keep_the_float_expression():
    assert float(Root(7, 2)) == float(7) ** (1.0 / 2) == 2.6457513110645907
    assert Bound(Root(7, 2), "w").to_json() == {"value": 2.6457513110645907, "witness": "w"}
