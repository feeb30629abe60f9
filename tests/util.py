"""Shared test helpers and independent oracles.

The rank oracle enumerates minors, independent of the elimination code it
checks. The flatten oracle goes through dense numpy reshapes, independent
of the sparse index packing. :class:`RefQC` keeps a Gaussian rational as a
pair of Fractions, independent of the integer-packed ``QC``, and
:func:`apply_product_map_kfold` expands every input entry through the full
k-fold product of map columns, independent of the mode-wise contraction.
:func:`structure_ref` multiplies every combination of edge entries and
packs each vertex index by hand, independent of the grouped tensor
product; :func:`decomposition_ref` sums each term's outer product over
every index, independent of the restriction from the unit tensor.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from tpl.hypergraph import resolve_assignment
from tpl.matrix import Matrix
from tpl.scalars import QC, RATIONAL
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


def flatten_dense(t, left):
    """Flattening via numpy moveaxis/reshape; float entries."""
    a = t.to_numpy()
    left = sorted(left)
    right = [p for p in range(t.order) if p not in left]
    a = np.transpose(a, left + right)
    rows = int(np.prod([t.dims[p] for p in left]))
    return a.reshape(rows, -1)


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
