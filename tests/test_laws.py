"""Property tests of the preorder laws on random exact certificates.

Transitivity: composing two restriction certificates gives one for the
composite. Interpolation soundness: any eps degeneration certificate turns
into a restriction from the direct sum of e + 1 copies that verifies
exactly. Monotonicity: the gauge points and the Koszul rank never grow
under a restriction.
"""

from fractions import Fraction
from itertools import product

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tpl.matrix import Matrix, rank
from tpl.obstructions import KoszulSpec, gauge_points, koszul_flatten
from tpl.preorder import (
    DegenerationCertificate,
    RestrictionCertificate,
    compose_restrictions,
    interpolate,
    verify_degeneration,
    verify_restriction,
)
from tpl.scalars import EPS, RATIONAL, EpsPoly, QC
from tpl.tensor import Tensor, apply_product_map, direct_sum_many

LAW = settings(max_examples=60, deadline=None, derandomize=True, database=None)

qc_values = st.builds(
    QC,
    st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]),
    st.sampled_from([0, 0, 0, 1, Fraction(-1, 2)]),
)
eps_values = st.builds(EpsPoly, st.dictionaries(st.integers(-1, 2), qc_values, min_size=1, max_size=2))
dims_of = st.lists(st.integers(1, 3), min_size=2, max_size=4)


def sparse(draw, shape, values):
    """Dict over ``shape`` with about two thirds of the positions filled."""
    keep = st.integers(0, 2).map(bool)
    return {idx: draw(values) for idx in product(*map(range, shape)) if draw(keep)}


@st.composite
def rational_tensors(draw, dims):
    return Tensor(dims, sparse(draw, dims, qc_values), RATIONAL)


@st.composite
def rational_maps(draw, rows, cols):
    return tuple(Matrix(r, c, sparse(draw, (r, c), qc_values), RATIONAL) for r, c in zip(rows, cols))


@st.composite
def restriction_chains(draw):
    dims = tuple(draw(dims_of))
    mid = tuple(draw(st.integers(1, 3)) for _ in dims)
    out = tuple(draw(st.integers(1, 3)) for _ in dims)
    t = draw(rational_tensors(dims))
    return t, draw(rational_maps(mid, dims)), draw(rational_maps(out, mid))


@LAW
@given(restriction_chains())
def test_restriction_is_transitive(chain):
    t, outer, inner = chain
    c1, c2 = RestrictionCertificate(outer), RestrictionCertificate(inner)
    u = apply_product_map(list(outer), t)
    v = apply_product_map(list(inner), u)
    assert verify_restriction(t, u, c1) and verify_restriction(u, v, c2)
    assert verify_restriction(t, v, compose_restrictions(c1, c2))


@st.composite
def degenerations(draw):
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)))
    out = tuple(draw(st.integers(1, 3)) for _ in dims)
    t = draw(rational_tensors(dims))
    maps = tuple(Matrix(r, c, sparse(draw, (r, c), eps_values), EPS) for r, c in zip(out, dims))
    return t, maps


@LAW
@given(degenerations())
def test_interpolation_is_sound(case):
    t, maps = case
    image = apply_product_map(list(maps), t.to_eps())
    assume(not image.is_zero())
    degrees = {deg for p in image.entries.values() for deg in p.coeffs}
    d, e = min(degrees), max(degrees) - min(degrees)
    target = Tensor(image.dims, {i: p.coefficient(d) for i, p in image.entries.items() if p.coefficient(d)})
    cert = DegenerationCertificate(maps, d=d, e=e)
    assert verify_degeneration(t, target, cert) == (True, d, e)
    out = interpolate(t, target, cert)
    assert all(m.cols == (e + 1) * n for m, n in zip(out.maps, t.dims))
    assert verify_restriction(direct_sum_many([t] * (e + 1)), target, out)


@st.composite
def order3_restrictions(draw):
    dims = tuple(draw(st.integers(1, 3)) for _ in range(3))
    # The third map is square so that both tensors share the Koszul spec.
    rows = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), dims[2])
    t = draw(rational_tensors(dims))
    p = draw(st.integers(0, dims[2] - 1))
    return t, draw(rational_maps(rows, dims)), KoszulSpec(dims[2], p)


@LAW
@given(order3_restrictions())
def test_gauge_and_koszul_rank_are_monotone(case):
    t, maps, spec = case
    image = apply_product_map(list(maps), t)
    assert all(a <= b for a, b in zip(gauge_points(image), gauge_points(t)))
    assert rank(koszul_flatten(image, spec)) <= rank(koszul_flatten(t, spec))
