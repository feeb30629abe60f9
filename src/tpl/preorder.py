"""Restriction and degeneration certificates, and the 2x2x2 orbit classifier.

A restriction certificate for t >= t' is one rational matrix per factor;
verification applies the maps and compares entrywise, exactly. A
degeneration certificate carries eps-polynomial matrices; verification
expands the image symbolically and checks that the lowest-degree
coefficient tensor equals the target. Polynomial interpolation turns a
verified degeneration into a restriction from a small direct sum.
"""

from __future__ import annotations

import math
from enum import Enum

from . import scalars
from .matrix import Matrix
from .obstructions import gauge_points, hyperdeterminant_222
from .scalars import EPS, RATIONAL, QC, _Record, _qc, _reduced, _set_field
from .tensor import _tensor, apply_product_map, check_dense_size, check_entry_count, direct_sum_many, lowest_eps_image


class CertificateError(ValueError):
    """Structurally invalid certificate (shapes, domains, empty expansion)."""


class RestrictionCertificate(_Record):
    """One rational matrix per factor witnessing t >= t'."""

    __match_args__ = ("maps",)

    def __init__(self, maps):
        for m in maps:
            if not isinstance(m, Matrix) or m.domain != RATIONAL:
                raise CertificateError("restriction maps must be rational matrices")
        _set_field(self, "maps", maps)

    @property
    def order(self):
        return len(self.maps)


class DegenerationCertificate(_Record):
    """Eps-polynomial matrices with declared degree d and error degree e."""

    __match_args__ = ("maps", "d", "e")

    def __init__(self, maps, d=0, e=0):
        for m in maps:
            if not isinstance(m, Matrix) or m.domain != EPS:
                raise CertificateError("degeneration maps must be eps matrices")
        scalars.check_ints((d, e), "declared degrees d and e", CertificateError)
        _set_field(self, "maps", maps)
        _set_field(self, "d", d)
        _set_field(self, "e", e)

    @property
    def order(self):
        return len(self.maps)


def _check_cert_shapes(cert, t, target):
    if cert.order != t.order or t.order != target.order:
        raise CertificateError(
            f"certificate order {cert.order} vs tensors {t.order}/{target.order}"
        )
    for j, m in enumerate(cert.maps):
        if m.cols != t.dims[j]:
            raise CertificateError(
                f"map {j}: {m.rows}x{m.cols} does not accept source dimension {t.dims[j]}"
            )
        if m.rows != target.dims[j]:
            raise CertificateError(
                f"map {j}: {m.rows}x{m.cols} does not produce target dimension {target.dims[j]}"
            )


def verify_restriction(t, target, cert):
    """True iff (m_1 (x) ... (x) m_k) t == target, entrywise and exactly."""
    if t.domain != RATIONAL or target.domain != RATIONAL:
        raise CertificateError("restriction verification needs rational tensors")
    _check_cert_shapes(cert, t, target)
    image = apply_product_map(list(cert.maps), t)
    return image == target


def verify_degeneration(t, target, cert):
    """Expand (m_j(eps)) t symbolically and read off the degeneration degrees.

    Returns ``(ok, d, e)`` where d is the lowest degree with a nonzero
    coefficient tensor, e the spread of nonzero degrees above it, and ok is
    true iff the degree-d coefficient tensor equals the target exactly.
    Only d, e and that tensor are read from the image
    (:func:`tpl.tensor.lowest_eps_image`).
    """
    if t.domain != RATIONAL or target.domain != RATIONAL:
        raise CertificateError("degeneration verification needs rational endpoints")
    _check_cert_shapes(cert, t, target)
    image = lowest_eps_image(list(cert.maps), t)
    if image is None:
        raise CertificateError("certificate maps annihilate the source tensor")
    low, d, e = image
    return low == target, d, e


def compose_restrictions(cert_outer, cert_inner):
    """Certificate for t >= v from certificates t >= u and u >= v."""
    if cert_outer.order != cert_inner.order:
        raise CertificateError("order mismatch composing certificates")
    return RestrictionCertificate(
        tuple(mi @ mo for mo, mi in zip(cert_outer.maps, cert_inner.maps))
    )


def interpolate(t, target, degcert):
    """Turn a verified degeneration t |> t' into a restriction (+)^{e+1} t >= t'.

    Evaluation points are 1, 2, ..., e+1. The factor-j map is the horizontal
    block row [m_j(1) | ... | m_j(e+1)]; the factor-1 blocks are pre-scaled
    by the interpolation weights that extract the eps^d coefficient. The
    degeneration is verified once, here, and its measured degrees (d, e)
    drive the interpolation, which evaluates each map once at all e + 1
    points (:func:`_interpolation_certificate`); the output restriction is
    verified exactly before being returned.
    """
    ok, d, e = verify_degeneration(t, target, degcert)
    if not ok:
        raise CertificateError("degeneration certificate does not verify; refusing to interpolate")
    cert = _interpolation_certificate(t.dims, target.dims, [(m,) for m in degcert.maps], d, e)
    if not verify_restriction(direct_sum_many([t] * (e + 1)), target, cert):
        raise CertificateError("interpolated certificate failed exact verification")
    return cert


def interpolation_weights(d, e):
    """Weights w_i of the points x_i = i + 1 (i = 0..e) that extract the eps^d coefficient.

    They satisfy sum_i w_i * x_i^(d+m) = [m == 0] for m = 0..e: the
    Lagrange basis at 0 over the nodes 1..e+1 is (-1)^i * C(e+1, i+1), and
    w_i is that divided by x_i^d. Any integer d works, negative (Laurent)
    included.
    """
    weights = []
    for x in range(1, e + 2):
        c = (-1) ** (x - 1) * math.comb(e + 1, x)
        weights.append(_reduced(c, 0, x**d) if d >= 0 else _qc(c * x**-d, 0, 1))
    return weights


def _interpolation_certificate(dims, target_dims, factors, d, e):
    """The block maps of :func:`interpolate` for a degeneration with degrees (d, e).

    ``factors[j]`` lists the eps maps whose Kronecker product is the
    factor-j map: one map for :func:`interpolate`, a vertex's edge maps for
    :func:`tpl.asymptotic.lattice_construction`. ``dims`` and
    ``target_dims`` are the source's and target's. Nothing is checked here:
    (d, e) are measured by :func:`interpolate`'s check, or derived as
    (k*d, k*e) by ``lattice_construction``. The weight identity of
    :func:`interpolation_weights` makes the result a restriction from e + 1
    source copies.

    The one size guard of both callers holds what is built here to the
    dense size guard before any map is evaluated (StructureTooLarge above
    it): the evaluation table, e + 1 points times, over the listed maps,
    each one's entry count times its degree range widened to include 0;
    then the output blocks, e + 1 times the sum over the factors of the
    product of their maps' entry counts. Each listed map is then evaluated
    once at all points, in integers (:func:`tpl.scalars._eval_table`).
    Evaluation commutes with the Kronecker product, so each block is the
    integer Kronecker product of its maps' values (:func:`_kron_values`);
    the factor-0 weight is folded into its numerators and denominator, and
    each entry is reduced with one gcd.
    """
    width = 0
    for maps in factors:
        for m in maps:
            degrees = [0, *(k for p in m.entries.values() for k in p.coeffs)]
            width += m.nnz() * (max(degrees) - min(degrees) + 1)
    check_dense_size((e + 1, width), "interpolation evaluation table")
    entries = sum(math.prod(m.nnz() for m in maps) for maps in factors)
    check_entry_count((e + 1) * entries, f"{e + 1} evaluations of {entries} vertex-map entries")
    points = [QC(x) for x in range(1, e + 2)]
    values = {}
    for maps in factors:
        for m in maps:
            if id(m) not in values:
                values[id(m)] = [
                    ([(ij, xy) for ij, xy in zip(m.entries, nums) if xy[0] or xy[1]], den)
                    for nums, den in scalars._eval_table(m.entries.values(), points)
                ]
    weights = interpolation_weights(d, e)
    out = []
    for j, maps in enumerate(factors):
        cols = dims[j]
        entries = {}
        for i, (block, den) in enumerate(_kron_values(maps, [values[id(m)] for m in maps])):
            scale = 1
            if j == 0:  # the weights are real
                scale, den = weights[i]._a, den * weights[i]._n
            offset = i * cols
            for (r, c), (x, y) in block:
                x, y = x * scale, y * scale
                g = math.gcd(x, y, den)
                entries[(r, c + offset)] = _qc(x // g, y // g, den // g)
        out.append(_tensor((target_dims[j], cols * (e + 1)), entries, RATIONAL, Matrix))
    return RestrictionCertificate(tuple(out))


def _kron_values(maps, values):
    """The Kronecker product of evaluated maps, in integers, point by point.

    ``values[f][i]`` is ``maps[f]`` at point i: its nonzero entries as
    ((row, col), (x, y)) and their shared denominator. Returns the same
    per point for the product, with row-major index packing as in
    ``Matrix.kron``, and the product of the denominators, unreduced.
    """
    out = values[0]
    for m, table in zip(maps[1:], values[1:]):
        rows, cols = m.rows, m.cols
        out = [([((r * rows + r2, c * cols + c2), (x * x2 - y * y2, x * y2 + y * x2))
                 for (r, c), (x, y) in block for (r2, c2), (x2, y2) in pairs], den * d)
               for (block, den), (pairs, d) in zip(out, table)]
    return out


class OrbitClass222(Enum):
    """The SLOCC orbits of 2x2x2 tensors."""

    ZERO = "Zero"
    PRODUCT = "Product"
    EPR_12 = "EPR_12"
    EPR_13 = "EPR_13"
    EPR_23 = "EPR_23"
    W = "W"
    GHZ = "GHZ"


# Factor with flattening rank 1 -> the EPR pair sits on the other two factors.
_EPR_BY_TRIVIAL_FACTOR = {
    0: OrbitClass222.EPR_23,
    1: OrbitClass222.EPR_13,
    2: OrbitClass222.EPR_12,
}


def classify_222(t):
    """Exact SLOCC orbit of a 2x2x2 tensor.

    Nonzero hyperdeterminant separates GHZ; otherwise the three flattening
    ranks distinguish product, EPR pairs and W.
    """
    if t.dims != (2, 2, 2):
        raise ValueError(f"classify_222 needs dims (2,2,2), got {t.dims}")
    if t.domain != RATIONAL:
        raise ValueError("classify_222 needs the exact rational domain")
    if t.is_zero():
        return OrbitClass222.ZERO
    if hyperdeterminant_222(t):
        return OrbitClass222.GHZ
    ranks = gauge_points(t)
    trivial = [j for j, r in enumerate(ranks) if r == 1]
    if len(trivial) == 3:
        return OrbitClass222.PRODUCT
    if len(trivial) == 1:
        return _EPR_BY_TRIVIAL_FACTOR[trivial[0]]
    if not trivial:
        return OrbitClass222.W
    raise AssertionError(f"impossible flattening rank pattern {ranks}")


_C = OrbitClass222
_DOWNWARD_COMMON = {
    _C.ZERO: {_C.ZERO},
    _C.PRODUCT: {_C.PRODUCT, _C.ZERO},
    _C.EPR_12: {_C.EPR_12, _C.PRODUCT, _C.ZERO},
    _C.EPR_13: {_C.EPR_13, _C.PRODUCT, _C.ZERO},
    _C.EPR_23: {_C.EPR_23, _C.PRODUCT, _C.ZERO},
    _C.W: {_C.W, _C.EPR_12, _C.EPR_13, _C.EPR_23, _C.PRODUCT, _C.ZERO},
    _C.GHZ: {_C.GHZ, _C.EPR_12, _C.EPR_13, _C.EPR_23, _C.PRODUCT, _C.ZERO},
}

RESTRICTION_POSET = _DOWNWARD_COMMON

# Degeneration adds exactly one arrow: GHZ |> W. The reverse stays
# impossible (the hyperdeterminant vanishes on the W orbit closure).
DEGENERATION_POSET = {
    cls: (down | {_C.W} if cls is _C.GHZ else set(down))
    for cls, down in _DOWNWARD_COMMON.items()
}


def decide_222(t, target, mode="restriction"):
    """Decide t >= t' (or t |> t') for 2x2x2 tensors via the orbit posets."""
    if mode not in ("restriction", "degeneration"):
        raise ValueError(f"mode must be restriction or degeneration, got {mode!r}")
    src = classify_222(t)
    dst = classify_222(target)
    poset = RESTRICTION_POSET if mode == "restriction" else DEGENERATION_POSET
    return dst in poset[src]


def rank_222(t):
    """Tensor rank of a 2x2x2 tensor, read off the orbit classification."""
    return {
        _C.ZERO: 0,
        _C.PRODUCT: 1,
        _C.EPR_12: 2,
        _C.EPR_13: 2,
        _C.EPR_23: 2,
        _C.GHZ: 2,
        _C.W: 3,
    }[classify_222(t)]


def subrank_222(t):
    """Subrank of a 2x2x2 tensor: the largest r with t >= GHZ_r.

    Only the GHZ orbit reaches GHZ_2; every other nonzero orbit reaches
    GHZ_1 (a simple tensor) and no further.
    """
    cls = classify_222(t)
    if cls is _C.ZERO:
        return 0
    return 2 if cls is _C.GHZ else 1
