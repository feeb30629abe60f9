import random
from fractions import Fraction

import pytest

import util
from util import w_border_cert
from tpl import scalars
from tpl.matrix import Matrix
from tpl.named import ghz, w_state
from tpl.preorder import (
    CertificateError,
    DegenerationCertificate,
    OrbitClass222,
    RestrictionCertificate,
    classify_222,
    compose_restrictions,
    decide_222,
    interpolate,
    interpolation_weights,
    rank_222,
    subrank_222,
    verify_degeneration,
    verify_restriction,
)
from tpl.scalars import EPS, EpsPoly, QC
from tpl.tensor import StructureTooLarge, Tensor, apply_product_map, direct_sum_many


def w_border_cert_with_tail(degree):
    """The W border certificate plus eps^degree at entry (1, 1) of map 0; e = degree - 1."""
    cert = w_border_cert()
    m = cert.maps[0]
    tail = Matrix(2, 2, {**m.entries, (1, 1): EpsPoly.eps(degree)}, EPS)
    return DegenerationCertificate((tail, m, m), d=1, e=degree - 1)


def identity_cert(t):
    return RestrictionCertificate(tuple(Matrix.identity(d) for d in t.dims))


def epr_12():
    return Tensor((2, 2, 2), {(0, 0, 0): QC(1), (1, 1, 0): QC(1)})


def test_w_restricts_to_epr():
    # m3 = e0 e0*, m2 = identity, m1 = e1 e0* + e0 e1*
    m1 = util.matrix_from_rows([[0, 1], [1, 0]])
    m2 = Matrix.identity(2)
    m3 = util.matrix_from_rows([[1, 0], [0, 0]])
    cert = RestrictionCertificate((m1, m2, m3))
    assert verify_restriction(w_state(), epr_12(), cert)
    # the same maps do not send GHZ2 to the W state
    assert not verify_restriction(ghz(2), w_state(), cert)


def test_identity_certificate_verifies():
    w = w_state()
    assert verify_restriction(w, w, identity_cert(w))


def test_restriction_shape_errors():
    cert = identity_cert(w_state())
    with pytest.raises(CertificateError):
        verify_restriction(ghz(3), w_state(), cert)
    with pytest.raises(CertificateError):
        verify_restriction(w_state(), ghz(3), cert)


def test_composition_transitivity():
    rng = random.Random(23)
    for _ in range(15):
        t = util.random_rational_tensor(rng, (2, 3, 2), density=0.7)
        m_outer = [util.random_rational_matrix(rng, 2, d) for d in t.dims]
        u = apply_product_map(m_outer, t)
        m_inner = [util.random_rational_matrix(rng, 2, 2) for _ in range(3)]
        v = apply_product_map(m_inner, u)
        c1 = RestrictionCertificate(tuple(m_outer))
        c2 = RestrictionCertificate(tuple(m_inner))
        assert verify_restriction(t, u, c1)
        assert verify_restriction(u, v, c2)
        assert verify_restriction(t, v, compose_restrictions(c1, c2))


def test_laurent_degeneration_interpolates():
    # Scaling factor 0 by eps^-1 and factor 1 by eps leaves the expansion of
    # the W border certificate unchanged, so it must still interpolate.
    base = w_border_cert()
    scaled = (
        Matrix(2, 2, {ij: p * EpsPoly.eps(-1) for ij, p in base.maps[0].entries.items()}, EPS),
        Matrix(2, 2, {ij: p * EpsPoly.eps(1) for ij, p in base.maps[1].entries.items()}, EPS),
        base.maps[2],
    )
    cert = DegenerationCertificate(scaled, d=1, e=2)
    assert min(min(p.coeffs) for p in scaled[0].entries.values()) == -1
    assert verify_degeneration(ghz(2), w_state(), cert) == (True, 1, 2)
    rcert = interpolate(ghz(2), w_state(), cert)
    assert verify_restriction(direct_sum_many([ghz(2)] * 3), w_state(), rcert)


def test_ghz2_degenerates_to_w():
    ok, d, e = verify_degeneration(ghz(2), w_state(), w_border_cert())
    assert (ok, d, e) == (True, 1, 2)


def test_degeneration_wrong_target_rejected():
    ok, d, e = verify_degeneration(ghz(2), ghz(2), w_border_cert())
    assert not ok
    assert (d, e) == (1, 2)


def test_constant_certificate_is_degree_zero():
    m1 = util.matrix_from_rows([[0, 1], [1, 0]]).to_eps()
    m2 = Matrix.identity(2).to_eps()
    m3 = util.matrix_from_rows([[1, 0], [0, 0]]).to_eps()
    cert = DegenerationCertificate((m1, m2, m3), d=0, e=0)
    ok, d, e = verify_degeneration(w_state(), epr_12(), cert)
    assert (ok, d, e) == (True, 0, 0)


def test_degeneration_annihilating_maps_error():
    zero = Matrix(2, 2, {}, EPS)
    cert = DegenerationCertificate((zero, zero, zero))
    with pytest.raises(CertificateError):
        verify_degeneration(ghz(2), w_state(), cert)


def test_interpolate_w_from_three_ghz2():
    cert = interpolate(ghz(2), w_state(), w_border_cert())
    source = direct_sum_many([ghz(2)] * 3)
    assert source.dims == (6, 6, 6)
    assert all(m.cols == 6 for m in cert.maps)
    assert verify_restriction(source, w_state(), cert)


def test_interpolate_rejects_invalid_certificate():
    c, e = EpsPoly.const, EpsPoly.eps
    bad = Matrix(2, 2, {(0, 0): c(1), (1, 0): e(1), (0, 1): c(1)}, EPS)
    cert = DegenerationCertificate((bad, bad, bad), d=1, e=2)
    with pytest.raises(CertificateError):
        interpolate(ghz(2), w_state(), cert)


def _random_eps_matrix(rng, rows, cols, max_deg):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            coeffs = {}
            for deg in range(max_deg + 1):
                if rng.random() < 0.5:
                    v = QC(Fraction(rng.randint(-2, 2)))
                    if v:
                        coeffs[deg] = v
            if coeffs:
                entries[(i, j)] = EpsPoly(coeffs)
    return Matrix(rows, cols, entries, EPS)


def test_interpolate_refuses_an_oversized_evaluation_table(monkeypatch):
    # e = 799: 800 points times (4 entries * 801 degrees + 2 maps * 3 entries * 2 degrees)
    cert = w_border_cert_with_tail(800)
    assert verify_degeneration(ghz(2), w_state(), cert) == (True, 1, 799)

    def no_eval(*args):
        raise AssertionError("the guard let a map be evaluated")

    monkeypatch.setattr(scalars, "_eval_table", no_eval)
    with pytest.raises(StructureTooLarge, match=r"evaluation table of shape \(800, 3216\)"):
        interpolate(ghz(2), w_state(), cert)


def test_interpolate_accepts_a_table_under_the_guard():
    # e = 399: 400 * 1616 = 646,400 entries
    cert = interpolate(ghz(2), w_state(), w_border_cert_with_tail(400))
    assert verify_restriction(direct_sum_many([ghz(2)] * 400), w_state(), cert)


def test_interpolation_property_randomized():
    """Generated degenerations (k <= 4, dims <= 4, e <= 6) interpolate exactly."""
    rng = random.Random(20260808)
    rounds = 0
    while rounds < 60:
        k = rng.randint(2, 4)
        dims = tuple(rng.randint(2, 4) for _ in range(k))
        t = util.random_rational_tensor(rng, dims, density=0.4, den=3)
        if t.is_zero():
            continue
        out_dims = tuple(rng.randint(2, 3) for _ in range(k))
        maps = tuple(
            _random_eps_matrix(rng, od, d, max_deg=1) for od, d in zip(out_dims, dims)
        )
        cert = DegenerationCertificate(maps)
        image = apply_product_map(list(maps), t.to_eps())
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
        out = interpolate(t, target, cert)
        source = direct_sum_many([t] * (e + 1))
        assert verify_restriction(source, target, out)
        rounds += 1


def test_classify_canonical_representatives():
    for cls in OrbitClass222:
        assert classify_222(util.representative_222(cls)) is cls


def test_classify_invariance_under_local_transforms():
    rng = random.Random(99)
    for cls in OrbitClass222:
        rep = util.representative_222(cls)
        for _ in range(25):
            maps = [util.random_invertible(rng, 2) for _ in range(3)]
            moved = apply_product_map(maps, rep)
            assert classify_222(moved) is cls


def test_classify_errors():
    with pytest.raises(ValueError):
        classify_222(ghz(3))
    with pytest.raises(ValueError):
        classify_222(w_state().to_float())


def test_decide_borderline_w_conversions():
    w, g2 = w_state(), ghz(2)
    assert decide_222(g2, w, "restriction") is False
    assert decide_222(g2, w, "degeneration") is True
    assert decide_222(w, g2, "degeneration") is False
    assert decide_222(w, g2, "restriction") is False


def test_decide_epr_incomparability():
    a = util.representative_222(OrbitClass222.EPR_12)
    b = util.representative_222(OrbitClass222.EPR_13)
    assert decide_222(a, b, "restriction") is False
    assert decide_222(a, b, "degeneration") is False
    assert decide_222(w_state(), a, "restriction") is True
    assert decide_222(ghz(2), a, "restriction") is True


def test_rank_and_subrank_from_classifier():
    assert rank_222(w_state()) == 3
    assert subrank_222(w_state()) == 1
    assert rank_222(ghz(2)) == 2
    assert subrank_222(ghz(2)) == 2


def test_w_rank_three_witnessed():
    # Upper: explicit three-term certificate from GHZ_3.
    m1 = util.matrix_from_rows([[1, 1, 0], [0, 0, 1]])
    m2 = util.matrix_from_rows([[1, 0, 1], [0, 1, 0]])
    m3 = util.matrix_from_rows([[0, 1, 1], [1, 0, 0]])
    cert = RestrictionCertificate((m1, m2, m3))
    assert verify_restriction(ghz(3), w_state(), cert)
    # Lower: GHZ_2 does not restrict to W, so the rank exceeds 2.
    assert decide_222(ghz(2), w_state(), "restriction") is False


def test_interpolation_weights_satisfy_the_moment_identity():
    # sum_i w_i * x_i^(d+m) = [m == 0] at x_i = i + 1, summed over Fractions.
    for d in range(-3, 9):
        for e in range(13):
            weights = interpolation_weights(d, e)
            assert len(weights) == e + 1 and not any(w.im for w in weights)
            for m in range(e + 1):
                total = sum(w.re * Fraction(i + 1) ** (d + m) for i, w in enumerate(weights))
                assert total == (m == 0), (d, e, m)
