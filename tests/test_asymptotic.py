import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest

import util
from util import w_border_cert
from test_preorder import w_border_cert_with_tail
from tpl.asymptotic import (
    Bound,
    BoundReport,
    Root,
    StructureTooLarge,
    _best_lower,
    disjoint_rank_bounds,
    lattice_construction,
    lattice_obstruction,
    omega_bound,
    strassen_rank_bounds,
    unit_size,
)
from tpl import asymptotic, preorder, scalars
from tpl.catalog import Catalog
from tpl.hypergraph import build_structure, make_family
from tpl.matrix import Matrix, rank
from tpl.named import epr, ghz, mamu, simple, w_state
from tpl.obstructions import KoszulSpec, koszul_flatten
from tpl.preorder import (
    CertificateError,
    DegenerationCertificate,
    interpolate,
    verify_degeneration,
    verify_restriction,
)
from tpl.scalars import EPS, EpsPoly, QC
from tpl.tensor import Tensor, apply_product_map, direct_sum_many, kron


def test_unit_size():
    assert unit_size(ghz(4)) == 4
    assert unit_size(simple(3)) == 1
    padded = Tensor((3, 3, 3), dict(ghz(2).entries))
    assert unit_size(padded) == 2
    # Every value 1, but off the diagonal.
    assert unit_size(w_state()) is None
    assert unit_size(Tensor((3, 3, 3), {idx: QC(2) for idx in ghz(3).entries})) is None
    assert unit_size(Tensor((3, 3, 3), {**ghz(3).entries, (1, 1, 1): QC(1, 1)})) is None
    assert unit_size(ghz(3).to_eps()) is None
    assert unit_size(Tensor((2, 2, 2), {})) is None


def test_bound_report_orders_bounds():
    with pytest.raises(ValueError):
        BoundReport("x", lower=Bound(Fraction(3), "a"), upper=Bound(Fraction(2), "b"))


def test_bound_report_compares_exact_bounds_exactly():
    # 1 + 10^-13 is within a 1e-12 float slack of 1, but exact bounds must not be.
    with pytest.raises(ValueError):
        BoundReport("x", lower=Bound(Fraction(10**13 + 1, 10**13), "a"), upper=Bound(Fraction(1), "b"))
    BoundReport("x", lower=Bound(Fraction(1), "a"), upper=Bound(Fraction(1), "b"))
    # The float of 7^(1/2) lies just above it, and the float before that just below.
    with pytest.raises(ValueError):
        BoundReport("x", lower=Bound(Fraction(math.sqrt(7)), "a"), upper=Bound(Root(7, 2), "b"))
    BoundReport("x", lower=Bound(Fraction(math.nextafter(math.sqrt(7), 0)), "a"), upper=Bound(Root(7, 2), "b"))
    # The float of 1000^(1/3) is 9.999999999999998; the root itself is 10.
    BoundReport("x", lower=Bound(Fraction(10), "a"), upper=Bound(Root(1000, 3), "b"))


def test_best_lower_compares_exact_bounds_exactly():
    # 1 + 10^-13 is within a 1e-12 float slack of 1; the exact comparison still sees it.
    one, above = Bound(Fraction(1), "a"), Bound(Fraction(10**13 + 1, 10**13), "b")
    assert above.exceeds(one) and not one.exceeds(above)
    # Koszul 16/3 beats gauge 4 on mamu(2); on a base-changed GHZ_3 the Koszul
    # ratio 6/2 ties gauge point 0, which comes first and stays.
    assert _best_lower(mamu(2)).ref == {"kind": "koszul", "d3": 4, "p": 1, "ratio": "16/3"}
    rng = random.Random(4)
    moved_ghz = apply_product_map([util.random_invertible(rng, 3) for _ in range(3)], ghz(3))
    assert _best_lower(moved_ghz) == Bound(Fraction(3), "gauge point", {"kind": "gauge", "factor": 0})
    # Roots: sqrt(7) against its float neighbours, and against other roots.
    root7 = Bound(Root(7, 2), "c")
    assert Bound(Fraction(math.sqrt(7)), "d").exceeds(root7)
    assert root7.exceeds(Bound(Fraction(math.nextafter(math.sqrt(7), 0)), "d"))
    assert root7.exceeds(Bound(Root(18, 3), "e"))  # 7^3 = 343 > 18^2 = 324
    assert not Bound(Root(1000, 3), "f").exceeds(Bound(Root(100, 2), "g"))
    assert not Bound(Root(100, 2), "g").exceeds(Bound(Root(1000, 3), "f"))


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


@pytest.mark.parametrize(
    "t, lower, lower_ref, upper_id",
    [
        (mamu(2), Fraction(16, 3), {"kind": "koszul", "d3": 4, "p": 1, "ratio": "16/3"}, "strassen-mamu2-rank7"),
        (kron(w_state(), w_state()), Fraction(4), {"kind": "gauge", "factor": 0}, "w-kron2-rank7"),
    ],
    ids=["mamu2", "w-kron-w"],
)
def test_disjoint_bounds_from_catalog_decompositions(t, lower, lower_ref, upper_id):
    report = disjoint_rank_bounds(t, Catalog.packaged())
    assert (report.lower.value, report.lower.ref) == (lower, lower_ref)
    assert report.upper.value == Fraction(7)
    assert report.upper.ref == {"kind": "decomposition", "id": upper_id, "terms": 7}


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
    # never report a Strassen lower bound above a verified Disjoint upper bound;
    # the order-2 and order-4 inputs meet an order-3 catalog, and both of their
    # bounds are 2 (a gauge point below, the unit tensor above)
    expected = {"epr2": (2, 2), "ghz2-4": (2, 2)}
    inputs = {
        "w": w_state(),
        "ghz2": ghz(2),
        "ghz3": ghz(3),
        "simple3": simple(3),
        "epr2": epr(2),
        "ghz2-4": ghz(2, 4),
    }
    for name, t in inputs.items():
        disjoint = disjoint_rank_bounds(t, Catalog.packaged())
        strassen = strassen_rank_bounds(t, n_max=1, catalog=Catalog.packaged())
        if disjoint.upper and strassen.lower:
            assert strassen.lower.as_float() <= disjoint.upper.as_float() + 1e-12
        if name in expected:
            for report in (disjoint, strassen):
                assert (report.lower.value, report.upper.value) == expected[name]
                assert (report.lower.witness, report.upper.ref["kind"]) == ("gauge point", "unit")


def test_strassen_powers_stop_past_the_catalog():
    # W^n has 3^n entries; no catalog decomposition has more than 3^2
    start = time.perf_counter()
    long = strassen_rank_bounds(w_state(), n_max=12, catalog=Catalog.packaged())
    assert time.perf_counter() - start < 1.0
    assert long == strassen_rank_bounds(w_state(), n_max=2, catalog=Catalog.packaged())


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
    with pytest.raises(StructureTooLarge, match="flattening matrix side 184756 exceeds"):
        lattice_obstruction(big, big, 1, KoszulSpec(20, 9))


def test_disjoint_lower_bounds_skip_the_koszul_specs_the_size_guard_refuses(monkeypatch):
    # All-ones 4x4x20: the side guard admits p = 1..4 and 14..19, and
    # 320 * C(19, p) entries exceed the entry guard at p = 4, 14 and 15.
    ones = Tensor((4, 4, 20), {idx: QC(1) for idx in product(range(4), range(4), range(20))})
    seen = []
    monkeypatch.setattr(asymptotic, "flattening_ratio", lambda t, spec: seen.append(spec.p) or Fraction(1))
    disjoint_rank_bounds(ones, Catalog.packaged())
    # The levels are ranked highest ceiling first, so only the set is fixed.
    assert sorted(seen) == [1, 2, 3, 16, 17, 18, 19]


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
    for t, target, cert, _d, _e in random_edge_degenerations(random.Random(8), 3):
        out = lattice_construction(t, target, cert, "Triangular", 2)
        h = make_family("Triangular", 2)
        src_structure = build_structure(h, t)
        dst_structure = build_structure(h, target)
        reps = out.maps[0].cols // src_structure.dims[0]
        assert verify_restriction(
            direct_sum_many([src_structure] * reps), dst_structure, out
        )


def _gaussian_coefficient(rng):
    return QC(Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3))), Fraction(rng.randint(-2, 2), rng.choice((1, 2))))


def random_edge_degenerations(rng, count, gaussian=False):
    """Random 2x2x2 edge degenerations with e <= 2: (t, target, cert, d, e).

    The maps are 2x2 with coefficients in -1..1 at degrees 0 and 1; with
    ``gaussian``, Gaussian rationals at degrees -1..1 (Laurent terms).
    """
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
                    for deg in (-1, 0, 1) if gaussian else (0, 1):
                        if rng.random() < 0.6:
                            v = _gaussian_coefficient(rng) if gaussian else QC(Fraction(rng.randint(-1, 1)))
                            if v:
                                coeffs[deg] = v
                    if coeffs:
                        entries[(i, j)] = EpsPoly(coeffs)
            maps.append(Matrix(2, 2, entries, EPS))
        image = apply_product_map(maps, t.to_eps())
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


def assert_matches_reference(t, other, cert, d, e, family, n):
    """lattice_construction equals the reference interpolation of the verified structure degeneration.

    The structure check must measure (k*d, k*e), k the number of edges, which
    lattice_construction derives instead. Up to n = 3 the reference is the
    full interpolate, which also checks the restriction it returns.
    """
    h = make_family(family, n)
    k = h.n_edges
    source = build_structure(h, t)
    target = build_structure(h, other)
    structure_cert = util.structure_degeneration(h, cert)
    assert verify_degeneration(source, target, structure_cert) == (True, k * d, k * e)
    expected = util.interpolation_certificate_ref(source.dims, target.dims, structure_cert.maps, k * d, k * e)
    assert lattice_construction(t, other, cert, family, n) == expected
    if n <= 3:
        assert interpolate(source, target, structure_cert) == expected


# (n, family): Triangular and Kagome up to n = 6, the other families up to n = 3.
LATTICE_CASES = [(n, family) for family in ("Triangular", "Kagome") for n in range(1, 7)] + [
    (n, family) for family in ("Strassen", "Disjoint", "Fan") for n in range(1, 4)
]


@pytest.mark.parametrize("n, family", LATTICE_CASES)
def test_lattice_construction_matches_reference_w_border(family, n):
    assert_matches_reference(ghz(2), w_state(), w_border_cert(), 1, 2, family, n)


def test_lattice_construction_matches_reference_random_edges():
    # Up to n = 4: the first edge tensor is dense (8 entries), and its
    # structure check alone takes about 10 s at n = 6.
    for t, target, cert, d, e in random_edge_degenerations(random.Random(8), 3):
        for n, family in LATTICE_CASES:
            if n <= 4:
                assert_matches_reference(t, target, cert, d, e, family, n)


@pytest.mark.parametrize("family", ["Triangular", "Kagome"])
def test_lattice_construction_matches_the_eps_kron_reference(family):
    # Gaussian, fractional and Laurent edge maps next to the real W border
    # certificate, against eps vertex maps evaluated entry by entry.
    edges = random_edge_degenerations(random.Random(17), 2, gaussian=True)
    assert any(p._b for _t, _u, cert, _d, _e in edges for m in cert.maps
               for q in m.entries.values() for p in q.coeffs.values())
    cases = [(t, target, cert) for t, target, cert, _d, _e in edges] + [(ghz(2), w_state(), w_border_cert())]
    for n in range(1, 7):
        for t, target, cert in cases:
            expected = util.lattice_construction_ref(t, target, cert, family, n)
            assert lattice_construction(t, target, cert, family, n) == expected


@pytest.mark.parametrize("family", ["Triangular", "Kagome"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lattice_certificate_is_a_restriction(family, n):
    # lattice_construction derives the structure degeneration's degrees and
    # checks neither it nor the restriction it interpolates; the restriction
    # is checked here.
    h = make_family(family, n)
    source = build_structure(h, ghz(2))
    target = build_structure(h, w_state())
    cert = lattice_construction(ghz(2), w_state(), w_border_cert(), family, n)
    assert verify_restriction(direct_sum_many([source] * (2 * n + 1)), target, cert)


def test_lattice_construction_guards_and_errors(monkeypatch):
    bad = DegenerationCertificate(
        (Matrix.identity(2).to_eps(),) * 3
    )
    with pytest.raises(CertificateError, match="degeneration certificate does not verify"):
        lattice_construction(ghz(2), w_state(), bad, "Triangular", 1)

    def no_build(*args):
        raise AssertionError("the guard let a map be evaluated")

    # Triangular n = 46 and Kagome n = 166 build; one step further, the
    # vertex blocks and the evaluation table are refused before any map is
    # evaluated.
    monkeypatch.setattr(scalars, "_eval_table", no_build)
    monkeypatch.setattr(preorder, "_kron_values", no_build)
    cases = (("Triangular", 47, "vertex-map entries"), ("Kagome", 167, "interpolation evaluation table"))
    for family, n, what in cases:
        start = time.perf_counter()
        with pytest.raises(StructureTooLarge, match=what):
            lattice_construction(ghz(2), w_state(), w_border_cert(), family, n)
        assert time.perf_counter() - start < 1.0


def test_lattice_construction_bounds_the_vertex_maps_before_any_kron(monkeypatch):
    # Strassen n = 20 puts 20 edge maps on each of its 3 vertices: 3 * 3^20
    # vertex-map entries, refused before any vertex block is built.
    def no_kron(*args):
        raise AssertionError("the guard let a vertex block be built")

    monkeypatch.setattr(preorder, "_kron_values", no_kron)
    start = time.perf_counter()
    with pytest.raises(StructureTooLarge, match="vertex-map entries"):
        lattice_construction(ghz(2), w_state(), w_border_cert(), "Strassen", 20)
    assert time.perf_counter() - start < 1.0


def test_lattice_construction_guards_the_evaluation_table(monkeypatch):
    # One eps^800 entry makes e = 799 on every edge: the structure maps'
    # evaluation table is refused before any of them is evaluated.
    cert = w_border_cert_with_tail(800)

    def no_eval(*args):
        raise AssertionError("the guard let a map be evaluated")

    monkeypatch.setattr(scalars, "_eval_table", no_eval)
    with pytest.raises(StructureTooLarge, match="interpolation evaluation table"):
        lattice_construction(ghz(2), w_state(), cert, "Triangular", 1)


def test_omega_bound_values():
    assert omega_bound(4, 1) == 2.0
    assert omega_bound(8, 1) == 3.0
    assert abs(omega_bound(7, 1) - math.log2(7)) < 1e-15
    assert omega_bound(6, 3) == 1.0
    with pytest.raises(ValueError):
        omega_bound(0, 1)
    with pytest.raises(ValueError):
        omega_bound(1, 2)
