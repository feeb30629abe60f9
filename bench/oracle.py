"""Reference arithmetic the benchmark checks outputs with, independent of ``tpl``.

Exact values are complex rationals held as ``(Fraction re, Fraction im)``
pairs; eps polynomials are ``{degree: Fraction}`` maps (generators only
make real inputs). Tensors are ``{index tuple: value}`` maps. Contraction
applies one factor map per mode in turn (the mode-n product), a different
algorithm from the library's per-entry expansion, so a shared bug is
unlikely to hide. Float code is used only for ranks of small matrices and
for the spectral functional.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np

ZERO = (Fraction(0), Fraction(0))
FLOAT_RANK_TOL = 1e-9


class CheckFailed(AssertionError):
    """An output disagrees with the reference."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# -- exact complex rationals --------------------------------------------------


def cmul(a, b):
    if not a[1] and not b[1]:
        return (a[0] * b[0], a[1])
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def pair(qc):
    """(re, im) of a library QC value, read through its public fields."""
    return (Fraction(qc.re), Fraction(qc.im))


def matrix_pairs(m):
    return {ij: pair(v) for ij, v in m.entries.items()}


def modewise(entries, col_maps):
    """Apply one map per mode in turn; ``col_maps[j]`` is col -> [(row, value)]."""
    cur = entries
    for j, cols in enumerate(col_maps):
        nxt = {}
        for idx, v in cur.items():
            for r, w in cols.get(idx[j], ()):
                key = idx[:j] + (r,) + idx[j + 1:]
                p = cmul(v, w)
                q = nxt.get(key)
                nxt[key] = p if q is None else cadd(q, p)
        cur = {k: x for k, x in nxt.items() if x != ZERO}
    return cur


def restriction_image(src, src_dims, maps, copies):
    """Image of the direct sum of ``copies`` copies of ``src`` under ``maps``.

    ``maps[j]`` is ``(rows, cols, {(r, c): value})`` with ``cols`` equal to
    ``copies * src_dims[j]``; copy i sits in column block i of every map,
    the block embedding of an iterated direct sum.
    """
    total = {}
    for i in range(copies):
        col_maps = []
        for j, (_rows, _cols, entries) in enumerate(maps):
            cols = {}
            lo = i * src_dims[j]
            for (r, c), v in entries.items():
                if lo <= c < lo + src_dims[j]:
                    cols.setdefault(c - lo, []).append((r, v))
            col_maps.append(cols)
        for k, v in modewise(src, col_maps).items():
            q = total.get(k)
            total[k] = v if q is None else cadd(q, v)
    return {k: v for k, v in total.items() if v != ZERO}


def check_restriction(src, src_dims, target, target_dims, maps, copies):
    """Raise CheckFailed unless the maps send (+)^copies src exactly onto target."""
    require(len(maps) == len(src_dims) == len(target_dims), "certificate order mismatch")
    for j, (rows, cols, _e) in enumerate(maps):
        require(rows == target_dims[j], f"map {j} has {rows} rows, target dim {target_dims[j]}")
        require(cols == copies * src_dims[j], f"map {j} has {cols} cols, expected {copies} x {src_dims[j]}")
    image = restriction_image(src, src_dims, maps, copies)
    require(image == {k: v for k, v in target.items() if v != ZERO}, "certificate image differs from target")


# -- eps polynomials (real coefficients) ---------------------------------------


def pmul(p, q):
    out = {}
    for d1, c1 in p.items():
        for d2, c2 in q.items():
            out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
    return {d: c for d, c in out.items() if c}


def padd(p, q):
    out = dict(p)
    for d, c in q.items():
        out[d] = out.get(d, 0) + c
    return {d: c for d, c in out.items() if c}


def eps_image(entries, eps_maps):
    """Mode-wise image of a real tensor under eps maps ``{(r, c): {deg: coeff}}``."""
    cur = {idx: {0: v} for idx, v in entries.items()}
    for j, m in enumerate(eps_maps):
        cols = {}
        for (r, c), p in m.items():
            cols.setdefault(c, []).append((r, p))
        nxt = {}
        for idx, v in cur.items():
            for r, w in cols.get(idx[j], ()):
                key = idx[:j] + (r,) + idx[j + 1:]
                nxt[key] = padd(nxt.get(key, {}), pmul(v, w))
        cur = {k: p for k, p in nxt.items() if p}
    return cur


def degeneration_degrees(image):
    """(d, e, lowest coefficient tensor) of an eps image, as the library defines them."""
    degrees = {d for p in image.values() for d in p}
    d = min(degrees)
    e = max(degrees) - d
    low = {idx: p[d] for idx, p in image.items() if p.get(d)}
    return d, e, low


# -- hypergraph structures --------------------------------------------------------


def structure(n_vertices, edges, entries, dims):
    """Structure tensor with the same edge tensor on every edge.

    Vertex v's index packs its slots row-major, slots sorted by
    (position in edge, edge index): the convention of ``tpl.hypergraph``.
    """
    slots = [[] for _ in range(n_vertices)]
    for e_idx, edge in enumerate(edges):
        for pos, v in enumerate(edge):
            slots[v].append((pos, e_idx))
    for s in slots:
        s.sort()
    out_dims = tuple(math.prod(dims[pos] for pos, _e in s) for s in slots)
    items = sorted(entries.items())
    out = {}
    for combo in product(items, repeat=len(edges)):
        value = (Fraction(1), Fraction(0))
        for _idx, v in combo:
            value = cmul(value, v)
        key = []
        for s in slots:
            acc = 0
            for pos, e_idx in s:
                acc = acc * dims[pos] + combo[e_idx][0][pos]
            key.append(acc)
        key = tuple(key)
        q = out.get(key)
        out[key] = value if q is None else cadd(q, value)
    return out_dims, {k: v for k, v in out.items() if v != ZERO}


# -- float ranks and functionals ------------------------------------------------


def dense(entries, dims):
    a = np.zeros(dims, dtype=complex)
    for idx, (re, im) in entries.items():
        a[idx] = complex(float(re), float(im))
    return a


def float_rank(a):
    sigma = np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > FLOAT_RANK_TOL * sigma[0]))


def koszul_dense(a, p):
    """Koszul flattening of a dense order-3 array on its third factor, level p.

    Rows (i, S) with |S| = p + 1, columns (j, T) with |T| = p; entry
    sign * a[i, j, c] when S = T + {c}, the sign being (-1) to the number of
    elements of T above c (sorted insertion of e_c into e_T).
    """
    d1, d2, d3 = a.shape
    rows = list(combinations(range(d3), p + 1))
    cols = list(combinations(range(d3), p))
    row_of = {s: i for i, s in enumerate(rows)}
    out = np.zeros((d1 * len(rows), d2 * len(cols)), dtype=complex)
    for ci, t in enumerate(cols):
        for c in range(d3):
            if c in t:
                continue
            sign = -1 if sum(1 for x in t if x > c) % 2 else 1
            ri = row_of[tuple(sorted(t + (c,)))]
            for i in range(d1):
                for j in range(d2):
                    out[i * len(rows) + ri, j * len(cols) + ci] += sign * a[i, j, c]
    return out


def gauge_ranks(a):
    """Flattening rank of each single factor against the rest."""
    out = []
    for j in range(a.ndim):
        m = np.moveaxis(a, j, 0).reshape(a.shape[j], -1)
        out.append(float_rank(m))
    return out


def simple_koszul_rank(d3, p):
    """Koszul flattening rank of any nonzero simple tensor: C(d3 - 1, p)."""
    return math.comb(d3 - 1, p)


def hyperdeterminant(t):
    """Cayley's hyperdeterminant of a 2x2x2 tensor given as exact pairs."""

    def e(i, j, k):
        return t.get((i, j, k), ZERO)

    def mul(*xs):
        acc = (Fraction(1), Fraction(0))
        for x in xs:
            acc = cmul(acc, x)
        return acc

    def total(*xs):
        acc = ZERO
        for x in xs:
            acc = cadd(acc, x)
        return acc

    a000, a001, a010, a011 = e(0, 0, 0), e(0, 0, 1), e(0, 1, 0), e(0, 1, 1)
    a100, a101, a110, a111 = e(1, 0, 0), e(1, 0, 1), e(1, 1, 0), e(1, 1, 1)
    sq = total(mul(a000, a000, a111, a111), mul(a001, a001, a110, a110),
               mul(a010, a010, a101, a101), mul(a100, a100, a011, a011))
    pairs = total(mul(a000, a001, a110, a111), mul(a000, a010, a101, a111),
                  mul(a000, a011, a100, a111), mul(a001, a010, a101, a110),
                  mul(a001, a011, a110, a100), mul(a010, a011, a101, a100))
    quads = total(mul(a000, a011, a101, a110), mul(a001, a010, a100, a111))
    two, four = (Fraction(-2), Fraction(0)), (Fraction(4), Fraction(0))
    return total(sq, cmul(two, pairs), cmul(four, quads))


def spectral_point(a, theta):
    """2 ** sum_j theta_j H_j, H_j the entropy of the j-th flattening spectrum."""
    exponent = 0.0
    for j, w in enumerate(theta):
        m = np.moveaxis(a, j, 0).reshape(a.shape[j], -1)
        sq = np.linalg.svd(m, compute_uv=False) ** 2
        probs = sq / sq.sum()
        probs = probs[probs > 0]
        exponent += float(w) * float(-(probs * np.log2(probs)).sum())
    return 2.0 ** exponent


# -- canonical text -------------------------------------------------------------


def frac_text(f):
    return str(Fraction(f))


def pairs_json(entries):
    """Canonical JSON form of exact entries: sorted [index, re, im] rows."""
    return [[list(k), frac_text(v[0]), frac_text(v[1])] for k, v in sorted(entries.items())]
