"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance and time budget is pinned here; nothing is deferred
to later calibration.
"""

import io
import json
import math
import random
import time
from fractions import Fraction

import util
from util import w_border_cert
from tpl import jsonio
from tpl.asymptotic import (
    disjoint_rank_bounds,
    lattice_construction,
    lattice_obstruction,
    strassen_rank_bounds,
)
from tpl.catalog import Catalog, decomposition_tensor
from tpl.cli import main as cli_main
from tpl.hypergraph import (
    Hypergraph,
    build_structure,
    fold,
    fold_to_fan,
    is_homomorphism,
    make_family,
    structure_dims,
)
from tpl.matrix import Matrix, rank
from tpl.named import epr, ghz, mamu, w_state
from tpl.obstructions import (
    KoszulSpec,
    ThetaWeights,
    flattening_ratio,
    hyperdeterminant_222,
    koszul_flatten,
    quantum_functional_point,
)
from tpl.preorder import (
    DegenerationCertificate,
    OrbitClass222,
    classify_222,
    decide_222,
    interpolate,
    rank_222,
    subrank_222,
    verify_restriction,
)
from tpl.scalars import EPS, EpsPoly, QC
from tpl.tensor import (
    Tensor,
    apply_product_map,
    direct_sum_many,
    kron,
    kron_power,
)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name}: took {elapsed:.2f}s, budget {self.seconds}s"
            )
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.2f}s)")
        else:
            print(f"ACCEPTANCE {self.name}: FAIL")
        return False


def test_criterion_1_orbit_suite():
    with Budget("1 (2x2x2 orbit suite)", 5.0):
        rng = random.Random(20260101)
        for cls in OrbitClass222:
            rep = util.representative_222(cls)
            assert classify_222(rep) is cls
            for _ in range(100):
                maps = [util.random_invertible(rng, 2) for _ in range(3)]
                assert classify_222(apply_product_map(maps, rep)) is cls
        w, g2 = w_state(), ghz(2)
        assert decide_222(g2, w, "restriction") is False
        assert decide_222(g2, w, "degeneration") is True
        assert decide_222(w, g2, "degeneration") is False
        assert rank_222(w) == 3
        assert subrank_222(w) == 1
        assert rank_222(g2) == 2
        assert subrank_222(g2) == 2


def test_criterion_2_hyperdeterminant():
    with Budget("2 (hyperdeterminant)", 2.0):
        assert hyperdeterminant_222(w_state()) == QC(0)
        assert hyperdeterminant_222(ghz(2)) == QC(1)
        rng = random.Random(20260102)
        for _ in range(100):
            t = util.random_rational_tensor(rng, (2, 2, 2), density=0.8, den=4)
            maps = [util.random_rational_matrix(rng, 2, 2, den=3) for _ in range(3)]
            dets = [
                m.get(0, 0) * m.get(1, 1) - m.get(0, 1) * m.get(1, 0) for m in maps
            ]
            prod = dets[0] * dets[1] * dets[2]
            assert hyperdeterminant_222(apply_product_map(maps, t)) == (
                prod * prod * hyperdeterminant_222(t)
            )


def _random_degeneration(rng):
    """A verifying degeneration with k <= 4, dims <= 4, measured e <= 6."""
    while True:
        k = rng.randint(2, 4)
        dims = tuple(rng.randint(2, 4) for _ in range(k))
        t = util.random_rational_tensor(rng, dims, density=0.4, den=3)
        if t.is_zero():
            continue
        out_dims = tuple(rng.randint(2, 3) for _ in range(k))
        deg_budget = [rng.choice([1, 1, 2]) for _ in range(k)]
        maps = []
        for j in range(k):
            entries = {}
            for i in range(out_dims[j]):
                for jj in range(dims[j]):
                    coeffs = {}
                    for deg in range(deg_budget[j] + 1):
                        if rng.random() < 0.5:
                            v = QC(Fraction(rng.randint(-2, 2)))
                            if v:
                                coeffs[deg] = v
                    if coeffs:
                        entries[(i, jj)] = EpsPoly(coeffs)
            maps.append(Matrix(out_dims[j], dims[j], entries, EPS))
        cert = DegenerationCertificate(tuple(maps))
        image = apply_product_map(maps, t.to_eps())
        if image.is_zero():
            continue
        degrees = set()
        for p in image.entries.values():
            degrees.update(p.coeffs)
        d = min(degrees)
        e = max(degrees) - d
        if e > 6:
            continue
        target = Tensor(
            image.dims,
            {i: p.coefficient(d) for i, p in image.entries.items() if p.coefficient(d)},
        )
        return t, target, cert, d, e


def test_criterion_3_interpolation():
    with Budget("3 (interpolation)", 30.0):
        cert = interpolate(ghz(2), w_state(), w_border_cert())
        source = direct_sum_many([ghz(2)] * 3)
        assert verify_restriction(source, w_state(), cert)

        rng = random.Random(20260103)
        for _ in range(200):
            t, target, degcert, d, e = _random_degeneration(rng)
            out = interpolate(t, target, degcert)
            assert verify_restriction(direct_sum_many([t] * (e + 1)), target, out)


def test_criterion_4_koszul_suite():
    with Budget("4 (koszul suite)", 30.0):
        spec = KoszulSpec(3, 1)
        assert rank(koszul_flatten(Tensor((3, 3, 3), {(0, 0, 0): QC(1)}), spec)) == 2
        assert rank(koszul_flatten(ghz(3), spec)) == 6

        rng = random.Random(20260104)
        hits = 0
        for i in range(20):
            t = util.random_rational_tensor(rng, (3, 3, 3), density=1.0, den=16)
            if flattening_ratio(t, spec, trials=4, seed=i) == Fraction(9, 2):
                hits += 1
        assert hits >= 19

        for trial in range(50):
            t = util.random_rational_tensor(rng, (3, 3, 3), density=0.5)
            if trial % 2 == 0:
                diag = [
                    QC(Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2])))
                    for _ in range(3)
                ]
                g = Matrix(3, 3, {(i, i): v for i, v in enumerate(diag)})
            else:
                perm = list(range(3))
                rng.shuffle(perm)
                g = Matrix(3, 3, {(perm[i], i): QC(1) for i in range(3)})
            moved = apply_product_map([Matrix.identity(3), Matrix.identity(3), g], t)
            # F(g t) (1 (x) wedge^1 g) == (1 (x) wedge^2 g) F(t); g is invertible.
            a_g = util.wedge_power_matrix(g, 2)
            b_g = util.wedge_power_matrix(g, 1)
            lhs = koszul_flatten(moved, spec) @ Matrix.identity(3).kron(b_g)
            rhs = Matrix.identity(3).kron(a_g) @ koszul_flatten(t, spec)
            assert lhs == rhs


def test_criterion_5_quantum_functional():
    with Budget("5 (quantum functional)", 10.0):
        rng = random.Random(20260105)
        for r in (2, 3, 4, 5):
            for _ in range(10):
                cuts = sorted(rng.random() for _ in range(2))
                theta = (cuts[0], cuts[1] - cuts[0], 1.0 - cuts[1])
                assert abs(quantum_functional_point(ghz(r), theta) - r) <= 1e-9
        h = lambda p: -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
        val = quantum_functional_point(w_state(), ThetaWeights.uniform(3))
        assert abs(val - 2 ** h(1.0 / 3.0)) <= 1e-6
        assert abs(val - 1.8898815) <= 1e-6

        pairs = 0
        while pairs < 20:
            t = util.random_rational_tensor(rng, (2, 2, 2), density=0.8)
            u = util.random_rational_tensor(rng, (2, 2, 2), density=0.8)
            if t.is_zero() or u.is_zero():
                continue
            theta = ThetaWeights.uniform(3)
            f_t = quantum_functional_point(t, theta)
            f_u = quantum_functional_point(u, theta)
            f_tu = quantum_functional_point(kron(t, u), theta)
            assert abs(f_tu - f_t * f_u) <= 1e-9 * max(1.0, abs(f_t * f_u))
            pairs += 1


def test_criterion_6_hypergraph():
    with Budget("6 (hypergraph structures)", 10.0):
        rng = random.Random(20260106)
        for n in (1, 2, 3):
            for dims in ((2, 2, 2), (3, 3, 3)):
                t = util.random_rational_tensor(rng, dims, density=0.5)
                if t.is_zero():
                    t = ghz(dims[0])
                assert build_structure(make_family("Strassen", n, 3), t) == kron_power(t, n)
        triangle = Hypergraph(3, [(0, 2), (1, 0), (2, 1)])
        for d in (2, 3):
            assert build_structure(triangle, epr(d)) == mamu(d)
        gm, covering = fold_to_fan("Triangular", 12)
        assert covering == 6
        h = make_family("Triangular", 12)
        folded = fold(h, gm)
        assert is_homomorphism(h, folded.hypergraph, gm)
        counts = {}
        for e in folded.hypergraph.edges:
            counts[e] = counts.get(e, 0) + 1
        assert set(counts) == set(make_family("Fan", 2).edges)
        assert all(c == 6 for c in counts.values())


def test_criterion_7_disjoint_rank_of_w():
    with Budget("7 (disjoint asymptotic rank of W)", 2.0):
        report = disjoint_rank_bounds(w_state(), Catalog.packaged())
        assert report.lower.value == Fraction(2)
        assert report.upper.value == Fraction(2)
        assert report.lower.ref["kind"] == "gauge"
        assert report.upper.ref["kind"] == "certificate"
        assert report.upper.ref["id"] == "w-border2-degeneration"


def test_criterion_8_catalog_certificates():
    with Budget("8 (catalog rank witnesses)", 30.0):
        catalog = Catalog.packaged()
        mamu_entry = catalog.get("strassen-mamu2-rank7")
        assert len(mamu_entry.decomposition) == 7
        assert decomposition_tensor((4, 4, 4), mamu_entry.decomposition) == mamu(2)
        wkw_entry = catalog.get("w-kron2-rank7")
        assert len(wkw_entry.decomposition) == 7
        assert decomposition_tensor((4, 4, 4), wkw_entry.decomposition) == kron(
            w_state(), w_state()
        )

        report = strassen_rank_bounds(mamu(2), n_max=1, catalog=catalog)
        assert report.upper.value == Fraction(7)
        omega = report.extras["omega"]
        assert abs(omega["upper"] - math.log2(7)) <= 1e-12
        assert abs(omega["upper"] - 2.8074) <= 1e-4
        assert omega["lower"] == 2.0

        report_w = strassen_rank_bounds(w_state(), n_max=2, catalog=catalog)
        assert abs(report_w.upper.as_float() - math.sqrt(7)) <= 1e-12


def test_criterion_9_lattice():
    with Budget("9 (lattice obstruction and construction)", 60.0):
        rng = random.Random(20260109)
        dense = util.random_rational_tensor(rng, (3, 3, 3), density=1.0, den=16)
        spec = KoszulSpec(3, 1)
        assert lattice_obstruction(ghz(3), dense, 1, spec) is True

        cert = lattice_construction(ghz(2), w_state(), w_border_cert(), "Triangular", 2)
        h = make_family("Triangular", 2)
        src = build_structure(h, ghz(2))
        dst = build_structure(h, w_state())
        summands = cert.maps[0].cols // src.dims[0]
        assert summands == 5
        assert verify_restriction(direct_sum_many([src] * 5), dst, cert)


def test_criterion_11_lattice_at_n_6():
    with Budget("11 (lattice construction at n = 6)", 6.0):
        for family in ("Triangular", "Kagome"):
            cert = lattice_construction(ghz(2), w_state(), w_border_cert(), family, 6)
            h = make_family(family, 6)
            src = build_structure(h, ghz(2))
            dst = build_structure(h, w_state())
            assert [m.dims for m in cert.maps] == [(b, 13 * a) for a, b in zip(src.dims, dst.dims)]


def test_criterion_12_lattice_at_n_12():
    with Budget("12 (lattice construction at n = 12)", 3.0):
        for family in ("Triangular", "Kagome"):
            cert = lattice_construction(ghz(2), w_state(), w_border_cert(), family, 12)
            h = make_family(family, 12)
            dims = zip(structure_dims(h, ghz(2)), structure_dims(h, w_state()))
            assert [m.dims for m in cert.maps] == [(b, 25 * a) for a, b in dims]


def test_criterion_13_lattice_near_the_guard():
    with Budget("13 (lattice construction near the size guard)", 15.0):
        for family, n, entries in (("Triangular", 40, 705_915), ("Kagome", 150, 593_271)):
            cert = lattice_construction(ghz(2), w_state(), w_border_cert(), family, n)
            h = make_family(family, n)
            dims = zip(structure_dims(h, ghz(2)), structure_dims(h, w_state()))
            assert [m.dims for m in cert.maps] == [(b, (2 * n + 1) * a) for a, b in dims]
            assert sum(m.nnz() for m in cert.maps) == entries


def _run_cli(argv, stdin_text=None):
    import contextlib
    import sys

    out = io.StringIO()
    if stdin_text is not None:
        old_stdin = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli_main(argv)
    finally:
        if stdin_text is not None:
            sys.stdin = old_stdin
    return code, out.getvalue()


def test_criterion_10_cli_golden(tmp_path):
    with Budget("10 (cli golden runs)", 5.0):
        w_path = tmp_path / "w.json"
        ghz2_path = tmp_path / "ghz2.json"
        cert_path = tmp_path / "w-border.json"
        w_path.write_text(jsonio.dumps_pretty(jsonio.tensor_to_json(w_state())))
        ghz2_path.write_text(jsonio.dumps_pretty(jsonio.tensor_to_json(ghz(2))))
        cert_path.write_text(
            jsonio.dumps_pretty(jsonio.certificate_to_json(w_border_cert()))
        )

        runs = []
        for _ in range(2):
            code, built = _run_cli(["build", "--name", "W"])
            assert code == 0
            code, classified = _run_cli(["classify"], stdin_text=built)
            assert code == 0
            runs.append((built, classified))
        assert runs[0] == runs[1]
        assert runs[0][1] == "W\n"

        outs = []
        for _ in range(2):
            code, out = _run_cli(
                [
                    "cert-verify",
                    "--src", str(ghz2_path),
                    "--dst", str(w_path),
                    "--cert", str(cert_path),
                ]
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1] == '{"ok":true,"d":1,"e":2}\n'

        reports = []
        for _ in range(2):
            code, out = _run_cli(
                ["bounds", "disjoint", "--tensor", str(w_path), "--seed", "0"]
            )
            assert code == 0
            reports.append(out)
        assert reports[0] == reports[1]
        obj = json.loads(reports[0])
        assert obj["lower"]["value"] == "2"
        assert obj["upper"]["value"] == "2"
