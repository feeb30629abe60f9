"""Restriction and degeneration certificates, and the 2x2x2 orbit classifier.

A restriction certificate for t >= t' is one rational matrix per factor;
verification applies the maps and compares entrywise, exactly. A
degeneration certificate carries eps-polynomial matrices; verification
expands the image symbolically and checks that the lowest-degree
coefficient tensor equals the target. Polynomial interpolation turns a
verified degeneration into a restriction from a small direct sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import scalars
from .matrix import Matrix, rank, solve_exact
from .named import ghz, w_state
from .obstructions import hyperdeterminant_222
from .scalars import EPS, FLOAT, RATIONAL, QC
from .tensor import (
    Tensor,
    apply_product_map,
    direct_sum_many,
    flatten,
)


class CertificateError(ValueError):
    """Structurally invalid certificate (shapes, domains, empty expansion)."""


@dataclass(frozen=True)
class RestrictionCertificate:
    """One rational matrix per factor witnessing t >= t'."""

    maps: tuple

    def __post_init__(self):
        for m in self.maps:
            if not isinstance(m, Matrix) or m.domain != RATIONAL:
                raise CertificateError("restriction maps must be rational matrices")

    @property
    def order(self):
        return len(self.maps)


@dataclass(frozen=True)
class DegenerationCertificate:
    """Eps-polynomial matrices with declared degree d and error degree e."""

    maps: tuple
    d: int = 0
    e: int = 0

    def __post_init__(self):
        for m in self.maps:
            if not isinstance(m, Matrix) or m.domain != EPS:
                raise CertificateError("degeneration maps must be eps matrices")

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
    """
    if t.domain != RATIONAL or target.domain != RATIONAL:
        raise CertificateError("degeneration verification needs rational endpoints")
    _check_cert_shapes(cert, t, target)
    image = apply_product_map(list(cert.maps), t.to_eps(), domain=EPS)
    if image.is_zero():
        raise CertificateError("certificate maps annihilate the source tensor")
    degrees = set()
    for p in image.entries.values():
        degrees.update(p.coeffs)
    d = min(degrees)
    e = max(degrees) - d
    low = {}
    for idx, p in image.entries.items():
        c = p.coefficient(d)
        if c:
            low[idx] = c
    ok = Tensor(image.dims, low, RATIONAL) == target
    return ok, d, e


def compose_restrictions(cert_outer, cert_inner):
    """Certificate for t >= v from certificates t >= u and u >= v."""
    if cert_outer.order != cert_inner.order:
        raise CertificateError("order mismatch composing certificates")
    return RestrictionCertificate(
        tuple(mi @ mo for mo, mi in zip(cert_outer.maps, cert_inner.maps))
    )


def identity_certificate(t):
    return RestrictionCertificate(tuple(Matrix.identity(d) for d in t.dims))


def interpolate(t, target, degcert):
    """Turn a verified degeneration t |> t' into a restriction (+)^{e+1} t >= t'.

    Evaluation points are 1, 2, ..., e+1. The factor-j map is the horizontal
    block row [m_j(1) | ... | m_j(e+1)]; the factor-1 blocks are pre-scaled
    by the interpolation weights that extract the eps^d coefficient. The
    degeneration is verified once, here, and its measured degrees (d, e)
    drive the interpolation; the output restriction is verified exactly
    before being returned.
    """
    ok, d, e = verify_degeneration(t, target, degcert)
    if not ok:
        raise CertificateError("degeneration certificate does not verify; refusing to interpolate")
    return _interpolate(t, target, degcert, d, e)


def _interpolate(t, target, degcert, d, e):
    """Interpolation step of :func:`interpolate` with the degrees (d, e) given.

    The degeneration itself is not expanded again. Wrong degrees cannot
    produce a bad certificate: the result is verified exactly and a
    mismatch raises CertificateError.
    """
    points = [Fraction(i + 1) for i in range(e + 1)]
    # Weights w_i with sum_i w_i * x_i^(d+m) = [m == 0] for m = 0..e.
    vand = [[QC(p ** (d + m)) for p in points] for m in range(e + 1)]
    rhs = [QC(1)] + [QC(0)] * e
    weights = solve_exact(vand, rhs)
    blocks = []
    for j in range(t.order):
        evaluated = [degcert.maps[j].eval_eps(p) for p in points]
        if j == 0:
            evaluated = [m.scale(w) for m, w in zip(evaluated, weights)]
        blocks.append(evaluated)
    maps = []
    for j, evaluated in enumerate(blocks):
        rows = target.dims[j]
        cols = t.dims[j] * (e + 1)
        entries = {}
        for i, m in enumerate(evaluated):
            off = i * t.dims[j]
            for (r, c), v in m.entries.items():
                entries[(r, c + off)] = v
        maps.append(Matrix(rows, cols, entries, RATIONAL))
    cert = RestrictionCertificate(tuple(maps))
    source = direct_sum_many([t] * (e + 1))
    if not verify_restriction(source, target, cert):
        raise CertificateError("interpolated certificate failed exact verification")
    return cert


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
    ranks = [rank(flatten(t, {j})) for j in range(3)]
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


def representative_222(cls):
    """Canonical representative tensor of each 2x2x2 orbit."""
    if cls is _C.ZERO:
        return Tensor((2, 2, 2), {}, RATIONAL)
    if cls is _C.PRODUCT:
        return Tensor((2, 2, 2), {(0, 0, 0): scalars.QC_ONE}, RATIONAL)
    if cls is _C.EPR_12:
        return Tensor((2, 2, 2), {(0, 0, 0): scalars.QC_ONE, (1, 1, 0): scalars.QC_ONE}, RATIONAL)
    if cls is _C.EPR_13:
        return Tensor((2, 2, 2), {(0, 0, 0): scalars.QC_ONE, (1, 0, 1): scalars.QC_ONE}, RATIONAL)
    if cls is _C.EPR_23:
        return Tensor((2, 2, 2), {(0, 0, 0): scalars.QC_ONE, (0, 1, 1): scalars.QC_ONE}, RATIONAL)
    if cls is _C.W:
        return w_state()
    if cls is _C.GHZ:
        return ghz(2)
    raise ValueError(f"unknown orbit class {cls!r}")


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


def heuristic_restriction_search(t, target, iterations=200, tol=1e-12, restarts=50, seed=0):
    """Alternating least squares over the factor maps.

    Minimizes || (m_1 (x) ... (x) m_k) t - t' ||^2 over float maps, restarting
    from Gaussian initializations. Returns ``(cert, residual)`` with float
    matrices; a small residual flags a candidate for rationalization and
    exact re-verification. A large residual proves nothing: the search
    never claims non-existence.
    """
    import numpy as np

    if t.order != target.order:
        raise ValueError("order mismatch in restriction search")
    t_np = t.to_numpy()
    target_np = target.to_numpy()
    rng = np.random.default_rng(seed)
    best = None
    best_res = float("inf")
    for restart in range(restarts):
        if restart == 0 and t.dims == target.dims:
            maps = [np.eye(td, sd, dtype=complex) for td, sd in zip(target.dims, t.dims)]
        else:
            maps = [
                rng.standard_normal((td, sd)) + 0j
                for td, sd in zip(target.dims, t.dims)
            ]
        res = _als_run(t_np, target_np, maps, iterations, tol)
        if res < best_res:
            best_res = res
            best = [m.copy() for m in maps]
        if best_res <= tol:
            break
    return tuple(_np_to_float_matrix(m) for m in best), float(best_res)


def _apply_maps_np(t_np, maps, skip=None):
    """Float image of t_np under the factor maps, leaving factor ``skip`` alone."""
    import numpy as np

    image = t_np
    for ax, m in enumerate(maps):
        if ax == skip:
            continue
        image = np.tensordot(m, image, axes=(1, ax))
        image = np.moveaxis(image, 0, ax)
    return image


def _als_run(t_np, target_np, maps, iterations, tol):
    import numpy as np

    k = t_np.ndim
    for _ in range(iterations):
        for j in range(k):
            image = _apply_maps_np(t_np, maps, skip=j)
            a = np.moveaxis(image, j, 0).reshape(t_np.shape[j], -1)
            b = np.moveaxis(target_np, j, 0).reshape(target_np.shape[j], -1)
            sol, *_ = np.linalg.lstsq(a.T, b.T, rcond=None)
            maps[j] = sol.T
        res = _residual(t_np, target_np, maps)
        if res <= tol:
            return res
    return _residual(t_np, target_np, maps)


def _residual(t_np, target_np, maps):
    import numpy as np

    return float(np.linalg.norm(_apply_maps_np(t_np, maps) - target_np) ** 2)


def rationalize_maps(float_maps, max_denominator=64):
    """Round float maps entrywise to small rationals.

    Imaginary parts are rounded too; entries that round to zero vanish.
    The result still needs exact re-verification by the caller.
    """
    out = []
    for m in float_maps:
        entries = {}
        for (i, j), v in m.entries.items():
            re = Fraction(v.real).limit_denominator(max_denominator)
            im = Fraction(v.imag).limit_denominator(max_denominator)
            q = QC(re, im)
            if q:
                entries[(i, j)] = q
        out.append(Matrix(m.rows, m.cols, entries, RATIONAL))
    return RestrictionCertificate(tuple(out))


def _masked_als(t_np, target_np, maps, frozen, max_iters, tol, check_every=10):
    """ALS over the factor maps with individual entries held fixed.

    Stops early on convergence or when the residual plateaus above the
    tolerance (stuck runs are the expensive case during polishing).
    """
    import numpy as np

    k = t_np.ndim
    res = _residual(t_np, target_np, maps)
    stalls = 0
    for it in range(max_iters):
        for j in range(k):
            partial = _apply_maps_np(t_np, maps, skip=j)
            a = np.moveaxis(partial, j, 0).reshape(t_np.shape[j], -1)
            b = np.moveaxis(target_np, j, 0).reshape(target_np.shape[j], -1)
            for r in range(maps[j].shape[0]):
                fixed = frozen[j][r]
                free = ~fixed
                if not free.any():
                    continue
                rhs = b[r] - maps[j][r, fixed] @ a[fixed, :]
                sol, *_ = np.linalg.lstsq(a[free, :].T, rhs, rcond=None)
                maps[j][r, free] = sol
        if it % check_every == check_every - 1 or it == max_iters - 1:
            new_res = _residual(t_np, target_np, maps)
            if new_res <= tol:
                return new_res
            if new_res > res * 0.9:
                stalls += 1
                if stalls >= 8:
                    return new_res
            else:
                stalls = 0
            res = new_res
    return res


def _rational_candidates(v, max_denominator, count=3):
    seen = {}
    for q in range(1, max_denominator + 1):
        re = Fraction(v.real).limit_denominator(q)
        im = Fraction(v.imag).limit_denominator(q)
        cand = QC(re, im)
        dist = abs(v - complex(re) - 1j * complex(im))
        key = (re, im)
        if key not in seen or dist < seen[key][0]:
            seen[key] = (dist, cand)
    ranked = sorted(seen.values(), key=lambda x: x[0])
    return [c for _, c in ranked[:count]]


def _try_round_all(t, target, maps, max_denominator):
    for q in (1, 2, max_denominator):
        cert = rationalize_maps(
            [_np_to_float_matrix(m) for m in maps], max_denominator=q
        )
        shapes_ok = all(
            mm.rows == target.dims[j] and mm.cols == t.dims[j]
            for j, mm in enumerate(cert.maps)
        )
        if shapes_ok and verify_restriction(t, target, cert):
            return cert
    return None


def _np_to_float_matrix(a):
    entries = {
        (i, j): complex(a[i, j])
        for i in range(a.shape[0])
        for j in range(a.shape[1])
        if a[i, j] != 0
    }
    return Matrix(a.shape[0], a.shape[1], entries, FLOAT)


def polish_rational_certificate(
    t,
    target,
    float_maps,
    max_denominator=4,
    als_iters=2500,
    tol=1e-18,
    entry_tries=8,
    candidate_tries=3,
):
    """Drag a numerically exact certificate onto a rational point.

    Repeatedly pins the free map entry closest to a small rational and
    re-optimizes the remaining entries with masked alternating least
    squares, backtracking over nearby candidates when the residual cannot
    recover. Returns an exactly verified RestrictionCertificate, or None
    when the sweep dead-ends. Only worth calling when the float residual is
    already at numerical zero.
    """
    import numpy as np

    t_np = t.to_numpy()
    target_np = target.to_numpy()
    maps = [m.to_numpy().astype(complex) if isinstance(m, Matrix) else np.array(m, dtype=complex) for m in float_maps]
    frozen = [np.zeros(m.shape, dtype=bool) for m in maps]
    pinned = [{} for _ in maps]
    res = _masked_als(t_np, target_np, maps, frozen, als_iters, tol)
    if res > tol:
        return None
    total = sum(m.size for m in maps)
    for _step in range(total):
        cert = _try_round_all(t, target, maps, max_denominator)
        if cert is not None:
            return cert
        options = []
        for j, m in enumerate(maps):
            for (r, c) in map(tuple, np.argwhere(~frozen[j])):
                v = complex(m[r, c])
                cands = _rational_candidates(v, max_denominator, candidate_tries)
                if cands:
                    dist = abs(v - cands[0].to_complex())
                    options.append((dist, j, r, c, cands))
        if not options:
            break
        options.sort(key=lambda o: o[0])
        committed = False
        rng = np.random.default_rng(len(options))
        for _dist, j, r, c, cands in options[:entry_tries]:
            saved = [m.copy() for m in maps]
            for cand in cands:
                maps[j][r, c] = cand.to_complex()
                frozen[j][r, c] = True
                res = _masked_als(t_np, target_np, maps, frozen, als_iters, tol)
                if res > tol:
                    # local recovery failed; retry once from a fresh start of
                    # the free entries, keeping everything pinned so far
                    for jj, m in enumerate(maps):
                        fr = frozen[jj]
                        m[~fr] = rng.standard_normal(int((~fr).sum()))
                    res = _masked_als(t_np, target_np, maps, frozen, als_iters, tol)
                if res <= tol:
                    pinned[j][(r, c)] = cand
                    committed = True
                    break
                frozen[j][r, c] = False
                for m, s in zip(maps, saved):
                    m[:] = s
            if committed:
                break
        if not committed:
            return None
    cert_maps = []
    for j, m in enumerate(maps):
        entries = {}
        for (r, c), cand in pinned[j].items():
            if cand:
                entries[(r, c)] = cand
        cert_maps.append(Matrix(m.shape[0], m.shape[1], entries, RATIONAL))
    cert = RestrictionCertificate(tuple(cert_maps))
    if all(np.all(f) for f in frozen) and verify_restriction(t, target, cert):
        return cert
    return None
