"""Shared test helpers and independent oracles.

The rank oracle enumerates minors, independent of the elimination code it
checks; :func:`rank_by_field_elimination` divides by pivots in ``QC``
field arithmetic, independent of the fraction-free integer loop, at sides
where minors are out of reach. :func:`koszul_flatten_ref` inserts every
column subset's wedge product entry by entry, independent of the
per-index wedge table. The flatten oracle goes through dense numpy
reshapes, independent of the sparse index packing. :class:`RefQC` keeps a Gaussian rational as a
pair of Fractions, independent of the integer-packed ``QC``, and
:func:`apply_product_map_kfold` expands every input entry through the full
k-fold product of map columns, independent of the mode-wise contraction.
:func:`structure_ref` multiplies every combination of edge entries and
packs each vertex index by hand, independent of the grouped tensor
product; :func:`decomposition_ref` sums each term's outer product over
every index, independent of the restriction from the unit tensor.
:func:`interpolation_certificate_ref` evaluates every map entry at every
point separately by Horner's rule in ``QC`` arithmetic
(:func:`eps_eval_ref`) and scales the factor-0 blocks by the weights,
independent of the integer evaluation table;
:func:`lattice_construction_ref` builds each eps vertex map by
``Matrix.kron`` (:func:`structure_degeneration`) and interpolates it that
way, independent of the integer Kronecker product of evaluated edge maps.
:func:`hyperdeterminant_222_ref` expands Cayley's polynomial term by
term, independent of the slice discriminant.

The rest are test-only builders and oracles: :func:`matrix_from_rows`,
:func:`representative_222` (one tensor per 2x2x2 orbit),
:func:`wedge_power_matrix` (the Koszul covariance oracle, minors by
:func:`_det`) and :func:`subadditive_split` (the families'
subadditivity, witnessed by a fold). :func:`w_border_cert` is the
border-rank-2 degeneration GHZ_2 |> W that many tests share.
"""

from __future__ import annotations

import math
from fractions import Fraction
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from tpl import scalars
from tpl.hypergraph import GroupingMap, Hypergraph, fold, make_family, resolve_assignment, structure_dims
from tpl.matrix import Matrix
from tpl.preorder import (
    DegenerationCertificate,
    OrbitClass222,
    RestrictionCertificate,
    interpolation_weights,
    verify_degeneration,
)
from tpl.scalars import EPS, QC, RATIONAL, EpsPoly
from tpl.tensor import Tensor


def rank_by_minors(m):
    """Largest k with a nonzero k x k minor; brute force, exact."""
    dense = [[m.get(i, j) for j in range(m.cols)] for i in range(m.rows)]
    upper = min(m.rows, m.cols)
    for k in range(upper, 0, -1):
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                if _det([[dense[i][j] for j in cols] for i in rows]):
                    return k
    return 0


def _det(a):
    n = len(a)
    if n == 0:
        return QC(1)
    if n == 1:
        return a[0][0]
    acc = QC(0)
    for i in range(n):
        v = a[i][0]
        if not v:
            continue
        sub = [row[1:] for r, row in enumerate(a) if r != i]
        term = v * _det(sub)
        acc = acc + term if i % 2 == 0 else acc - term
    return acc


def rank_by_field_elimination(m):
    """Rank by Gaussian elimination in QC field arithmetic (sparse rows).

    The rank reference at sides where minors are out of reach: rows are
    col -> QC maps and each step divides by the pivot, with no integer
    scaling.
    """
    rows = {}
    for (i, j), v in m.entries.items():
        rows.setdefault(i, {})[j] = v
    rows = list(rows.values())
    count = 0
    while rows:
        pivot_row = min(rows, key=lambda r: (len(r), min(r)))
        rows.remove(pivot_row)
        pivot_col = min(pivot_row)
        pivot_val = pivot_row[pivot_col]
        count += 1
        new_rows = []
        for r in rows:
            coeff = r.get(pivot_col)
            if coeff is None:
                new_rows.append(r)
                continue
            factor = coeff / pivot_val
            out = dict(r)
            for c, v in pivot_row.items():
                s = out.get(c, QC(0)) - factor * v
                if s:
                    out[c] = s
                else:
                    out.pop(c, None)
            if out:
                new_rows.append(out)
        rows = new_rows
    return count


def koszul_flatten_ref(t, spec):
    """Koszul flattening built entry by entry, one wedge insertion per column subset.

    For every entry and every p-subset S, e_S ^ e_c is inserted by sorting,
    with sign (-1)^(#elements of S above c).
    """
    d1, d2, d3 = t.dims
    rows_of = {s: i for i, s in enumerate(combinations(range(d3), spec.p + 1))}
    cols_subs = list(combinations(range(d3), spec.p))
    n_rows, n_cols = len(rows_of), len(cols_subs)
    entries = {}
    for (a, b, c), v in t.entries.items():
        for j, s in enumerate(cols_subs):
            if c in s:
                continue
            merged = tuple(sorted(s + (c,)))
            w = -v if sum(1 for x in s if x > c) % 2 else v
            key = (a * n_rows + rows_of[merged], b * n_cols + j)
            entries[key] = entries[key] + w if key in entries else w
    return Matrix(d1 * n_rows, d2 * n_cols, entries, t.domain)


def flatten_dense(t, left):
    """Flattening via numpy moveaxis/reshape; float entries."""
    a = t.to_numpy()
    left = sorted(left)
    right = [p for p in range(t.order) if p not in left]
    a = np.transpose(a, left + right)
    rows = int(np.prod([t.dims[p] for p in left]))
    return a.reshape(rows, -1)


def hyperdeterminant_222_ref(t):
    """Cayley's hyperdeterminant of a 2x2x2 tensor by its explicit expansion."""

    def e(i, j, k):
        return t.entries.get((i, j, k), scalars.QC_ZERO)

    t000, t001, t010, t011 = e(0, 0, 0), e(0, 0, 1), e(0, 1, 0), e(0, 1, 1)
    t100, t101, t110, t111 = e(1, 0, 0), e(1, 0, 1), e(1, 1, 0), e(1, 1, 1)
    sq = (
        t000 * t000 * t111 * t111
        + t001 * t001 * t110 * t110
        + t010 * t010 * t101 * t101
        + t100 * t100 * t011 * t011
    )
    pairs = (
        t000 * t001 * t110 * t111
        + t000 * t010 * t101 * t111
        + t000 * t011 * t100 * t111
        + t001 * t010 * t101 * t110
        + t001 * t011 * t110 * t100
        + t010 * t011 * t101 * t100
    )
    quads = t000 * t011 * t101 * t110 + t001 * t010 * t100 * t111
    return sq - QC(2) * pairs + QC(4) * quads


def random_rational_tensor(rng, dims, density=0.6, den=8):
    entries = {}
    for idx in product(*(range(d) for d in dims)):
        if rng.random() < density:
            v = QC(Fraction(rng.randint(-den, den), rng.choice([1, 2, 4, den])))
            if v:
                entries[idx] = v
    return Tensor(dims, entries, RATIONAL)


def random_rational_matrix(rng, rows, cols, den=8):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            v = QC(Fraction(rng.randint(-den, den), rng.choice([1, 2, den])))
            if v:
                entries[(i, j)] = v
    return Matrix(rows, cols, entries, RATIONAL)


def random_invertible(rng, n, span=4):
    while True:
        m = random_rational_matrix(rng, n, n, den=span)
        dense = [[m.get(i, j) for j in range(n)] for i in range(n)]
        if _det(dense):
            return m


class RefQC:
    """Complex scalar as a pair of Fractions (reference for the packed QC)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        return isinstance(other, RefQC) and self.re == other.re and self.im == other.im

    def __add__(self, other):
        return RefQC(self.re + other.re, self.im + other.im)

    def __neg__(self):
        return RefQC(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RefQC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero RefQC")
        return RefQC(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )


def apply_product_map_kfold(maps, t, domain=None):
    """(m_1 (x) ... (x) m_k) t by the full k-fold product of map columns."""
    domain = domain or t.domain
    columns = [m.columns() for m in maps]
    acc = {}
    for idx, v in t.entries.items():
        cols = [columns[j].get(i, []) for j, i in enumerate(idx)]
        for combo in product(*cols):
            out_idx = tuple(i for i, _ in combo)
            w = v
            for _, c in combo:
                w = w * c
            s = acc.get(out_idx)
            acc[out_idx] = w if s is None else s + w
    return Tensor(tuple(m.rows for m in maps), {i: v for i, v in acc.items() if v}, domain)


def structure_ref(h, assignment):
    """Structure tensor by the product over all combinations of edge entries."""
    tensors = resolve_assignment(h, assignment)
    slots = h.vertex_slots()
    dims = tuple(math.prod(tensors[e].dims[pos] for pos, e in vs) for vs in slots)
    domain = tensors[0].domain if tensors else RATIONAL
    entries = {}
    for combo in product(*(t.sorted_items() for t in tensors)):
        value = None
        for _, v in combo:
            value = v if value is None else value * v
        if value is None or not value:
            continue
        idx = []
        for vs in slots:
            acc = 0
            for pos, e in vs:
                acc = acc * tensors[e].dims[pos] + combo[e][0][pos]
            idx.append(acc)
        idx = tuple(idx)
        prev = entries.get(idx)
        entries[idx] = value if prev is None else prev + value
    return Tensor(dims, {i: v for i, v in entries.items() if v}, domain)


def decomposition_ref(dims, terms):
    """Sum over the terms of the outer product of their vectors, index by index."""
    acc = {}
    for term in terms:
        for idx in product(*(range(d) for d in dims)):
            v = QC(1)
            for vec, i in zip(term, idx):
                v = v * vec[i]
            acc[idx] = acc.get(idx, QC(0)) + v
    return Tensor(dims, {i: v for i, v in acc.items() if v}, RATIONAL)


def eps_eval_ref(p, point):
    """p at an exact point: Horner's rule in QC arithmetic down to min(low, 0),
    then one division by the point per Laurent degree."""
    point = QC.coerce(point)
    if not p.coeffs:
        return QC(0)
    low, high = min(p.coeffs), max(p.coeffs)
    acc = p.coeffs[high]
    for d in range(high - 1, min(low, 0) - 1, -1):
        acc = acc * point
        c = p.coeffs.get(d)
        if c is not None:
            acc = acc + c
    for _ in range(-low):
        acc = acc / point
    return acc


def interpolation_certificate_ref(dims, target_dims, eps_maps, d, e):
    """The block maps of interpolate, point by point and entry by entry.

    Block i of map j holds m_j evaluated at i + 1, and the factor-0 blocks
    are multiplied by ``interpolation_weights(d, e)``.
    """
    weights = interpolation_weights(d, e)
    maps = []
    for j, m in enumerate(eps_maps):
        entries = {}
        for i, w in enumerate(weights):
            for (r, c), p in m.entries.items():
                v = eps_eval_ref(p, i + 1)
                if j == 0:
                    v = v * w
                if v:
                    entries[(r, c + i * dims[j])] = v
        maps.append(Matrix(target_dims[j], dims[j] * (e + 1), entries, RATIONAL))
    return RestrictionCertificate(tuple(maps))


def structure_degeneration(h, cert):
    """Per-vertex Kronecker products (``Matrix.kron``) of the edge maps, in slot order."""
    maps = []
    for slots in h.vertex_slots():
        m = None
        for pos, _edge in slots:
            m = cert.maps[pos] if m is None else m.kron(cert.maps[pos])
        maps.append(m)
    return DegenerationCertificate(tuple(maps))


def lattice_construction_ref(t, other, degcert, family, n):
    """lattice_construction through the eps vertex maps of
    :func:`structure_degeneration`, interpolated by
    :func:`interpolation_certificate_ref`."""
    ok, d, e = verify_degeneration(t, other, degcert)
    assert ok
    h = make_family(family, n)
    k = h.n_edges
    maps = structure_degeneration(h, degcert).maps
    return interpolation_certificate_ref(structure_dims(h, t), structure_dims(h, other), maps, k * d, k * e)


def w_border_cert():
    """GHZ_2 |> W with d = 1, e = 2: every map is [[1, -1], [eps, 0]]."""
    c, e = EpsPoly.const, EpsPoly.eps
    m = Matrix(2, 2, {(0, 0): c(1), (1, 0): e(1), (0, 1): c(-1)}, EPS)
    return DegenerationCertificate((m, m, m), d=1, e=2)


def matrix_from_rows(data, domain=RATIONAL):
    """Matrix from a dense list of equal-length rows of raw values."""
    entries = {}
    for i, row in enumerate(data):
        if len(row) != len(data[0]):
            raise ValueError("ragged rows")
        for j, v in enumerate(row):
            entries[(i, j)] = scalars.coerce(domain, v)
    return Matrix(len(data), len(data[0]) if data else 0, entries, domain)


# The index lists of the 0/1 representatives of the 2x2x2 orbits.
_REPRESENTATIVES_222 = {
    OrbitClass222.ZERO: [],
    OrbitClass222.PRODUCT: [(0, 0, 0)],
    OrbitClass222.EPR_12: [(0, 0, 0), (1, 1, 0)],
    OrbitClass222.EPR_13: [(0, 0, 0), (1, 0, 1)],
    OrbitClass222.EPR_23: [(0, 0, 0), (0, 1, 1)],
    OrbitClass222.W: [(0, 0, 1), (0, 1, 0), (1, 0, 0)],
    OrbitClass222.GHZ: [(0, 0, 0), (1, 1, 1)],
}


def representative_222(cls):
    """Canonical representative tensor of one 2x2x2 orbit."""
    return Tensor((2, 2, 2), {idx: QC(1) for idx in _REPRESENTATIVES_222[cls]}, RATIONAL)


def wedge_power_matrix(g, p):
    """Exact p-th wedge power of a rational matrix: minors det(g[T, S]), subsets in lex order."""
    rows = list(combinations(range(g.rows), p))
    cols = list(combinations(range(g.cols), p))
    entries = {
        (i, j): _det([[g.get(r, c) for c in tcols] for r in trows])
        for i, trows in enumerate(rows)
        for j, tcols in enumerate(cols)
    }
    return Matrix(len(rows), len(cols), entries, RATIONAL)


@dataclass(frozen=True)
class SubadditiveSplit:
    """Witness that H_n is a vertex grouping of nu copies of H_{n0} plus a
    remainder patch with r edges: the families' subadditivity."""

    nu: int
    r: int
    union: Hypergraph
    grouping: GroupingMap


def subadditive_split(family, n, n0=None):
    """Split H_n into nu disjoint copies of H_{n0} plus an r-edge remainder.

    The returned grouping folds the disjoint union back onto H_n exactly
    (same edge list, in order). Disjoint and Strassen split at any n0; the
    triangular family splits star by star (n0 = 6) and the kagome family
    bowtie by bowtie (n0 = 2), with the remainder the trailing partial
    group relabeled as a standalone patch.
    """
    if family in ("Disjoint", "Strassen"):
        if n0 is None or not (1 <= n0 <= n):
            raise ValueError("Disjoint/Strassen splits need 1 <= n0 <= n")
    elif family == "Triangular":
        if n0 is None:
            n0 = 6
        if n0 != 6:
            raise ValueError("the triangular family splits into 6-face stars")
    elif family == "Kagome":
        if n0 is None:
            n0 = 2
        if n0 != 2:
            raise ValueError("the kagome family splits into 2-face bowties")
    else:
        raise ValueError(f"no subadditive split for family {family!r}")
    target = make_family(family, n)
    nu, r = divmod(n, n0)
    piece = make_family(family, n0)
    union_edges = []
    mapping = []
    offset = 0
    for copy in range(nu):
        # copy c of H_{n0} covers target edges [c*n0, (c+1)*n0); local
        # vertices map to the target vertices in the matching positions
        local_to_target = {}
        for e_local, e_target in zip(piece.edges, target.edges[copy * n0 : (copy + 1) * n0]):
            for v_local, v_target in zip(e_local, e_target):
                prev = local_to_target.setdefault(v_local, v_target)
                if prev != v_target:
                    raise AssertionError("family patch is not translation consistent")
        union_edges.extend(tuple(v + offset for v in e) for e in piece.edges)
        mapping.extend(local_to_target[v] for v in range(piece.n_vertices))
        offset += piece.n_vertices
    if r:
        tail = target.edges[nu * n0 :]
        relabel = {}
        for e in tail:
            for v in e:
                relabel.setdefault(v, len(relabel) + offset)
        union_edges.extend(tuple(relabel[v] for v in e) for e in tail)
        back = {new: old for old, new in relabel.items()}
        mapping.extend(back[offset + i] for i in range(len(relabel)))
        offset += len(relabel)
    union = Hypergraph(offset, union_edges, uniformity=target.uniformity)
    grouping = GroupingMap(tuple(mapping), target.n_vertices)
    if fold(union, grouping).hypergraph != target:
        raise AssertionError("subadditive split failed to reproduce the patch")
    return SubadditiveSplit(nu=nu, r=r, union=union, grouping=grouping)
