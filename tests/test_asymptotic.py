import math
import random
from fractions import Fraction

import pytest

import util
from tpl.asymptotic import (
    Bound,
    BoundReport,
    StructureTooLarge,
    _best_lower,
    disjoint_rank_bounds,
    lattice_construction,
    lattice_obstruction,
    omega_bound,
    strassen_rank_bounds,
    unit_size,
)
from tpl.catalog import Catalog
from tpl.hypergraph import build_structure, make_family
from tpl.matrix import Matrix, rank
from tpl.named import ghz, mamu, simple, w_state
from tpl.obstructions import KoszulSpec, koszul_flatten
from tpl.preorder import (
    DegenerationCertificate,
    interpolate,
    verify_degeneration,
    verify_restriction,
)
from tpl.scalars import EPS, EpsPoly, QC
from tpl.tensor import Tensor, apply_product_map, direct_sum_many


def w_border_cert():
    c, e = EpsPoly.const, EpsPoly.eps
    m = Matrix(2, 2, {(0, 0): c(1), (1, 0): e(1), (0, 1): c(-1)}, EPS)
    return DegenerationCertificate((m, m, m), d=1, e=2)


def test_unit_size():
    assert unit_size(ghz(4)) == 4
    assert unit_size(simple(3)) == 1
    padded = Tensor((3, 3, 3), dict(ghz(2).entries))
    assert unit_size(padded) == 2
    assert unit_size(w_state()) is None


def test_bound_report_orders_bounds():
    with pytest.raises(ValueError):
        BoundReport("x", lower=Bound(Fraction(3), "a"), upper=Bound(Fraction(2), "b"))


def test_bound_report_compares_exact_bounds_exactly():
    # 1 + 10^-13 is within the float slack of 1, but exact bounds must not be.
    with pytest.raises(ValueError):
        BoundReport("x", lower=Bound(Fraction(10**13 + 1, 10**13), "a"), upper=Bound(Fraction(1), "b"))
    BoundReport("x", lower=Bound(Fraction(1), "a"), upper=Bound(Fraction(1), "b"))
    BoundReport("x", lower=Bound(1.0 + 1e-13, "a"), upper=Bound(Fraction(1), "b"))


def test_best_lower_compares_exact_bounds_exactly():
    # 1 + 10^-13 is within the float slack of 1; the exact comparison still sees it.
    one, above = Bound(Fraction(1), "a"), Bound(Fraction(10**13 + 1, 10**13), "b")
    assert _best_lower([one, above]) is above
    assert _best_lower([above, one]) is above
    assert _best_lower([Bound(1.0, "c"), Bound(1.0 + 1e-13, "d")]).witness == "c"


def test_disjoint_bounds_w():
    report = disjoint_rank_bounds(w_state(), Catalog.packaged())
    assert report.lower.value == Fraction(2)
    assert report.lower.ref["kind"] == "gauge"
    assert report.upper.value == Fraction(2)
    assert report.upper.ref == {
        "kind": "certificate",
        "id": "w-border2-degeneration",
        "r": 2,
    }


def test_disjoint_bounds_simple():
    report = disjoint_rank_bounds(simple(3), Catalog.packaged())
    assert report.lower.value == Fraction(1)
    assert report.upper.value == Fraction(1)


def test_disjoint_bounds_random_dense_has_koszul_lower():
    rng = random.Random(12)
    t = util.random_rational_tensor(rng, (3, 3, 3), density=1.0, den=16)
    report = disjoint_rank_bounds(t, Catalog.packaged(), trials=4)
    assert report.lower.value == Fraction(9, 2)
    assert report.lower.ref["kind"] == "koszul"
    assert report.upper is None


def test_strassen_bounds_ghz():
    report = strassen_rank_bounds(ghz(3), n_max=1, catalog=Catalog.packaged())
    assert report.lower.value == Fraction(3)
    assert report.upper.value == Fraction(3)


def test_strassen_lower_is_max_gauge():
    report = strassen_rank_bounds(mamu(2), n_max=1, catalog=Catalog.packaged())
    assert report.lower.value == Fraction(4)


def test_monotone_consistency_disjoint_vs_strassen():
    # never report a Strassen lower bound above a verified Disjoint upper bound
    for t in (w_state(), ghz(2), ghz(3), simple(3)):
        disjoint = disjoint_rank_bounds(t, Catalog.packaged())
        strassen = strassen_rank_bounds(t, n_max=1, catalog=Catalog.packaged())
        if disjoint.upper and strassen.lower:
            assert strassen.lower.as_float() <= disjoint.upper.as_float() + 1e-12


def test_reports_are_reproducible():
    a = disjoint_rank_bounds(w_state(), Catalog.packaged(), trials=8, seed=3)
    b = disjoint_rank_bounds(w_state(), Catalog.packaged(), trials=8, seed=3)
    assert a.to_json() == b.to_json()


def test_lattice_obstruction_ghz3_vs_dense():
    rng = random.Random(4)
    dense = util.random_rational_tensor(rng, (3, 3, 3), density=1.0, den=16)
    spec = KoszulSpec(3, 1)
    assert lattice_obstruction(ghz(3), dense, 1, spec) is True
    assert lattice_obstruction(dense, ghz(3), 1, spec) is False
    assert lattice_obstruction(ghz(3), ghz(3), 1, spec) is False


def test_lattice_obstruction_covering_power():
    rng = random.Random(4)
    dense = util.random_rational_tensor(rng, (3, 3, 3), density=1.0, den=16)
    spec = KoszulSpec(3, 1)
    assert lattice_obstruction(ghz(3), dense, 2, spec) is True


def test_lattice_obstruction_matches_explicit_kron_at_c2():
    rng = random.Random(4)
    dense = util.random_rational_tensor(rng, (3, 3, 3), density=1.0, den=16)
    g = [util.random_invertible(rng, 3) for _ in range(3)]
    moved_ghz = apply_product_map(g, ghz(3))
    spec = KoszulSpec(3, 1)
    for t, other, expected in ((moved_ghz, ghz(3), False), (ghz(3), dense, True)):
        ft, fo = koszul_flatten(t, spec), koszul_flatten(other, spec)
        explicit = rank(ft.kron(ft)) < rank(fo.kron(fo))
        assert explicit is expected
        assert lattice_obstruction(t, other, 2, spec) is explicit


def test_lattice_obstruction_guard():
    rng = random.Random(4)
    dense = util.random_rational_tensor(rng, (3, 3, 3), density=1.0, den=16)
    spec = KoszulSpec(3, 1)
    for t, other in ((ghz(3), dense), (dense, ghz(3)), (ghz(3), ghz(3))):
        single = lattice_obstruction(t, other, 1, spec)
        for covering in (3, 8):
            assert lattice_obstruction(t, other, covering, spec) is single
    # One copy of the flattening has side max(C(20, 10), C(20, 9)) = 184756.
    big = Tensor((1, 1, 20), {(0, 0, 0): QC(1)})
    with pytest.raises(StructureTooLarge):
        lattice_obstruction(big, big, 1, KoszulSpec(20, 9))


def test_lattice_construction_single_triangle():
    cert = lattice_construction(ghz(2), w_state(), w_border_cert(), "Triangular", 1)
    source = direct_sum_many([ghz(2)] * 3)
    assert verify_restriction(source, w_state(), cert)


def test_lattice_construction_two_face_patch():
    h = make_family("Triangular", 2)
    source_structure = build_structure(h, ghz(2))
    target_structure = build_structure(h, w_state())
    cert = lattice_construction(ghz(2), w_state(), w_border_cert(), "Triangular", 2)
    summands = cert.maps[0].cols // source_structure.dims[0]
    assert summands == 5
    source = direct_sum_many([source_structure] * 5)
    assert verify_restriction(source, target_structure, cert)


def test_lattice_construction_small_random_property():
    rng = random.Random(8)
    rounds = 0
    while rounds < 3:
        t = util.random_rational_tensor(rng, (2, 2, 2), density=0.6, den=2)
        if t.is_zero():
            continue
        maps = []
        for _ in range(3):
            entries = {}
            for i in range(2):
                for j in range(2):
                    coeffs = {}
                    for deg in (0, 1):
                        if rng.random() < 0.6:
                            v = QC(Fraction(rng.randint(-1, 1)))
                            if v:
                                coeffs[deg] = v
                    if coeffs:
                        entries[(i, j)] = EpsPoly(coeffs)
            maps.append(Matrix(2, 2, entries, EPS))
        from tpl.preorder import verify_degeneration

        cert = DegenerationCertificate(tuple(maps))
        try:
            from tpl.tensor import apply_product_map

            image = apply_product_map(maps, t.to_eps(), domain=EPS)
        except ValueError:
            continue
        if image.is_zero():
            continue
        degrees = set()
        for p in image.entries.values():
            degrees.update(p.coeffs)
        e = max(degrees) - min(degrees)
        if e > 2:
            continue
        d = min(degrees)
        target = Tensor(
            image.dims,
            {i: p.coefficient(d) for i, p in image.entries.items() if p.coefficient(d)},
        )
        out = lattice_construction(t, target, cert, "Triangular", 2)
        h = make_family("Triangular", 2)
        src_structure = build_structure(h, t)
        dst_structure = build_structure(h, target)
        reps = out.maps[0].cols // src_structure.dims[0]
        assert verify_restriction(
            direct_sum_many([src_structure] * reps), dst_structure, out
        )
        rounds += 1


def random_edge_degenerations(rng, count):
    """The random edge certificates of the property test above: (t, target, cert, d, e)."""
    out = []
    while len(out) < count:
        t = util.random_rational_tensor(rng, (2, 2, 2), density=0.6, den=2)
        if t.is_zero():
            continue
        maps = []
        for _ in range(3):
            entries = {}
            for i in range(2):
                for j in range(2):
                    coeffs = {}
                    for deg in (0, 1):
                        if rng.random() < 0.6:
                            v = QC(Fraction(rng.randint(-1, 1)))
                            if v:
                                coeffs[deg] = v
                    if coeffs:
                        entries[(i, j)] = EpsPoly(coeffs)
            maps.append(Matrix(2, 2, entries, EPS))
        image = apply_product_map(maps, t.to_eps(), domain=EPS)
        if image.is_zero():
            continue
        degrees = set()
        for p in image.entries.values():
            degrees.update(p.coeffs)
        d, e = min(degrees), max(degrees) - min(degrees)
        if e > 2:
            continue
        target = Tensor(
            image.dims,
            {i: p.coefficient(d) for i, p in image.entries.items() if p.coefficient(d)},
        )
        out.append((t, target, DegenerationCertificate(tuple(maps)), d, e))
    return out


def structure_degeneration(h, cert):
    """Per-vertex Kronecker products of the edge maps, in slot order."""
    maps = []
    for slots in h.vertex_slots():
        m = None
        for pos, _edge in slots:
            m = cert.maps[pos] if m is None else m.kron(cert.maps[pos])
        maps.append(m)
    return DegenerationCertificate(tuple(maps))


def assert_matches_reference(t, other, cert, d, e, family, n):
    """lattice_construction equals interpolating the fully verified structure degeneration."""
    h = make_family(family, n)
    source = build_structure(h, t)
    target = build_structure(h, other)
    structure_cert = structure_degeneration(h, cert)
    assert verify_degeneration(source, target, structure_cert) == (True, n * d, n * e)
    expected = interpolate(source, target, structure_cert)
    assert lattice_construction(t, other, cert, family, n) == expected


@pytest.mark.parametrize("family", ["Triangular", "Kagome"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_lattice_construction_matches_reference_w_border(family, n):
    assert_matches_reference(ghz(2), w_state(), w_border_cert(), 1, 2, family, n)


def test_lattice_construction_matches_reference_random_edges():
    for t, target, cert, d, e in random_edge_degenerations(random.Random(8), 3):
        assert_matches_reference(t, target, cert, d, e, "Triangular", 2)


def test_lattice_construction_guards_and_errors():
    bad = DegenerationCertificate(
        (Matrix.identity(2).to_eps(),) * 3
    )
    with pytest.raises(Exception):
        lattice_construction(ghz(2), w_state(), bad, "Triangular", 1)
    with pytest.raises(StructureTooLarge):
        lattice_construction(ghz(2), w_state(), w_border_cert(), "Triangular", 30)


def test_omega_bound_values():
    assert omega_bound(4, 1) == 2.0
    assert omega_bound(8, 1) == 3.0
    assert abs(omega_bound(7, 1) - math.log2(7)) < 1e-15
    assert omega_bound(6, 3) == 1.0
    with pytest.raises(ValueError):
        omega_bound(0, 1)
    with pytest.raises(ValueError):
        omega_bound(1, 2)
