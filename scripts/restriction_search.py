"""Float search for restriction certificates, with rational polishing.

Alternating least squares looks for float factor maps sending t to t';
polishing drags a numerically exact solution onto small rationals. The
search works on numpy arrays throughout and hands back only a
:class:`RestrictionCertificate` that :func:`verify_restriction` has checked
exactly. It lives beside its one caller, ``derive_decompositions.py``,
outside the ``tpl`` package, so the certificate core never loads it.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from tpl.matrix import Matrix
from tpl.preorder import RestrictionCertificate, verify_restriction
from tpl.scalars import RATIONAL, QC

# Polishing runs at these fixed settings: rationals with denominators up to
# MAX_DENOMINATOR, masked ALS runs of at most ALS_ITERS sweeps that count as
# converged at residual POLISH_TOL and check the residual every CHECK_EVERY
# sweeps, and backtracking over the ENTRY_TRIES closest free entries with
# CANDIDATE_TRIES rational candidates each.
MAX_DENOMINATOR = 4
ALS_ITERS = 2500
POLISH_TOL = 1e-18
CHECK_EVERY = 10
ENTRY_TRIES = 8
CANDIDATE_TRIES = 3


def heuristic_restriction_search(t, target, iterations=200, tol=1e-12, restarts=50, seed=0):
    """Alternating least squares over the factor maps.

    Minimizes || (m_1 (x) ... (x) m_k) t - t' ||^2 over float maps, restarting
    from Gaussian initializations. Returns ``(maps, residual)`` with the maps
    as complex ndarrays; a small residual flags a candidate for polishing and
    exact re-verification. A large residual proves nothing: the search
    never claims non-existence.
    """
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
    return tuple(best), float(best_res)


def _apply_maps_np(t_np, maps, skip=None):
    """Float image of t_np under the factor maps, leaving factor ``skip`` alone."""
    image = t_np
    for ax, m in enumerate(maps):
        if ax == skip:
            continue
        image = np.tensordot(m, image, axes=(1, ax))
        image = np.moveaxis(image, 0, ax)
    return image


def _als_run(t_np, target_np, maps, iterations, tol):
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
    return float(np.linalg.norm(_apply_maps_np(t_np, maps) - target_np) ** 2)


def _rationalize(arrays, q):
    """Round float maps entrywise to rationals with denominators at most q.

    Imaginary parts are rounded too; entries that round to zero vanish.
    The result still needs exact re-verification by the caller.
    """
    out = []
    for a in arrays:
        entries = {}
        for (i, j), v in np.ndenumerate(a):
            re = Fraction(v.real).limit_denominator(q)
            im = Fraction(v.imag).limit_denominator(q)
            c = QC(re, im)
            if c:
                entries[(i, j)] = c
        out.append(Matrix(a.shape[0], a.shape[1], entries, RATIONAL))
    return RestrictionCertificate(tuple(out))


def _masked_als(t_np, target_np, maps, frozen):
    """ALS over the factor maps with individual entries held fixed.

    Stops early on convergence or when the residual plateaus above the
    tolerance (stuck runs are the expensive case during polishing).
    """
    k = t_np.ndim
    res = _residual(t_np, target_np, maps)
    stalls = 0
    for it in range(ALS_ITERS):
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
        if it % CHECK_EVERY == CHECK_EVERY - 1 or it == ALS_ITERS - 1:
            new_res = _residual(t_np, target_np, maps)
            if new_res <= POLISH_TOL:
                return new_res
            if new_res > res * 0.9:
                stalls += 1
                if stalls >= 8:
                    return new_res
            else:
                stalls = 0
            res = new_res
    return res


def _rational_candidates(v):
    seen = {}
    for q in range(1, MAX_DENOMINATOR + 1):
        re = Fraction(v.real).limit_denominator(q)
        im = Fraction(v.imag).limit_denominator(q)
        cand = QC(re, im)
        dist = abs(v - complex(re) - 1j * complex(im))
        key = (re, im)
        if key not in seen or dist < seen[key][0]:
            seen[key] = (dist, cand)
    ranked = sorted(seen.values(), key=lambda x: x[0])
    return [c for _, c in ranked[:CANDIDATE_TRIES]]


def _try_round_all(t, target, maps):
    for q in (1, 2, MAX_DENOMINATOR):
        cert = _rationalize(maps, q)
        if verify_restriction(t, target, cert):
            return cert
    return None


def polish_rational_certificate(t, target, float_maps):
    """Drag a numerically exact certificate onto a rational point.

    Repeatedly pins the free map entry closest to a small rational and
    re-optimizes the remaining entries with masked alternating least
    squares, backtracking over nearby candidates when the residual cannot
    recover. ``float_maps`` are array-likes, one per factor. Returns an
    exactly verified RestrictionCertificate, or None when the sweep
    dead-ends. Only worth calling when the float residual is already at
    numerical zero.
    """
    t_np = t.to_numpy()
    target_np = target.to_numpy()
    maps = [np.array(m, dtype=complex) for m in float_maps]
    frozen = [np.zeros(m.shape, dtype=bool) for m in maps]
    pinned = [{} for _ in maps]
    res = _masked_als(t_np, target_np, maps, frozen)
    if res > POLISH_TOL:
        return None
    total = sum(m.size for m in maps)
    for _step in range(total):
        cert = _try_round_all(t, target, maps)
        if cert is not None:
            return cert
        options = []
        for j, m in enumerate(maps):
            # tolist() gives Python ints, which the certificate's Matrix requires
            for r, c in np.argwhere(~frozen[j]).tolist():
                v = complex(m[r, c])
                cands = _rational_candidates(v)
                if cands:
                    dist = abs(v - cands[0].to_complex())
                    options.append((dist, j, r, c, cands))
        if not options:
            break
        options.sort(key=lambda o: o[0])
        committed = False
        rng = np.random.default_rng(len(options))
        for _dist, j, r, c, cands in options[:ENTRY_TRIES]:
            saved = [m.copy() for m in maps]
            for cand in cands:
                maps[j][r, c] = cand.to_complex()
                frozen[j][r, c] = True
                res = _masked_als(t_np, target_np, maps, frozen)
                if res > POLISH_TOL:
                    # local recovery failed; retry once from a fresh start of
                    # the free entries, keeping everything pinned so far
                    for jj, m in enumerate(maps):
                        fr = frozen[jj]
                        m[~fr] = rng.standard_normal(int((~fr).sum()))
                    res = _masked_als(t_np, target_np, maps, frozen)
                if res <= POLISH_TOL:
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
