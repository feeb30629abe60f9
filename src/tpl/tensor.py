"""Sparse tensors and their exact multilinear algebra.

A :class:`Tensor` is an order-k array over one scalar domain, stored as a
coordinate map from index tuples to nonzero scalars. All operations are
pure; values are immutable after construction, so concurrent use needs no
locking.

Index packing convention: whenever several factor positions are merged
into one (grouping, flattening, Kronecker products), the merged index is
the row-major packing of the component indices in the order the block
lists them. This convention is fixed so that files round-trip bit-exactly.
"""

from __future__ import annotations

import math

from . import scalars
from .matrix import Matrix
from .scalars import EPS, FLOAT, RATIONAL


class GroupingSpec:
    """Ordered partition of factor positions into blocks.

    Each block becomes one factor of the regrouped tensor, with dimension
    the product of the block's dimensions and index packed row-major in
    block order. Blocks must be disjoint, nonempty, and cover all
    positions; positions are 0-based.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        blocks = tuple(tuple(int(p) for p in b) for b in blocks)
        if any(len(b) == 0 for b in blocks):
            raise ValueError("empty block in grouping")
        flat = [p for b in blocks for p in b]
        if len(set(flat)) != len(flat):
            raise ValueError("grouping blocks overlap")
        n = len(flat)
        if set(flat) != set(range(n)):
            raise ValueError("grouping blocks must cover positions 0..n-1")
        self.blocks = blocks

    @classmethod
    def trivial(cls, n):
        """All singleton blocks: plain tensor product, no merging."""
        return cls([(i,) for i in range(n)])

    @classmethod
    def kron_pairing(cls, k):
        """Pair position j of the first k-tensor with position j of the second."""
        return cls([(j, k + j) for j in range(k)])

    def positions(self):
        return [p for b in self.blocks for p in b]

    def __eq__(self, other):
        return isinstance(other, GroupingSpec) and self.blocks == other.blocks

    def __repr__(self):
        return f"GroupingSpec({list(self.blocks)})"


class Tensor:
    """Order-k sparse tensor over a single scalar domain."""

    __slots__ = ("order", "dims", "domain", "entries")

    def __init__(self, dims, entries=None, domain=RATIONAL):
        dims = tuple(int(d) for d in dims)
        if any(d <= 0 for d in dims):
            raise ValueError("tensor dimensions must be positive")
        self.dims = dims
        self.order = len(dims)
        self.domain = domain
        cleaned = {}
        if entries:
            for idx, v in entries.items():
                idx = tuple(int(i) for i in idx)
                if len(idx) != self.order:
                    raise ValueError(f"index {idx} has wrong length for order {self.order}")
                if any(not (0 <= i < d) for i, d in zip(idx, dims)):
                    raise ValueError(f"index {idx} outside dims {dims}")
                v = scalars.check_domain_value(domain, v)
                if v:
                    cleaned[idx] = v
        self.entries = cleaned

    def nnz(self):
        return len(self.entries)

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.order == other.order
            and self.dims == other.dims
            and self.domain == other.domain
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"Tensor(dims={self.dims}, nnz={self.nnz()}, domain={self.domain})"

    def is_zero(self):
        return not self.entries

    def sorted_items(self):
        return sorted(self.entries.items())

    def to_float(self):
        if self.domain == FLOAT:
            return self
        if self.domain == EPS:
            raise ValueError("eps tensors have no numeric form")
        return Tensor(
            self.dims,
            {i: scalars.to_float(v) for i, v in self.entries.items()},
            FLOAT,
        )

    def to_eps(self):
        if self.domain == EPS:
            return self
        if self.domain != RATIONAL:
            raise ValueError("only rational tensors lift to eps")
        return Tensor(self.dims, {i: scalars.to_eps(v) for i, v in self.entries.items()}, EPS)

    def to_numpy(self):
        import numpy as np

        if self.domain == EPS:
            raise ValueError("eps tensors have no numeric form")
        a = np.zeros(self.dims, dtype=complex)
        for idx, v in self.entries.items():
            a[idx] = scalars.to_float(v)
        return a


def _check_same_order_domain(t, u):
    if t.order != u.order:
        raise ValueError(f"order mismatch: {t.order} vs {u.order}")
    if t.domain != u.domain:
        raise ValueError(f"domain mismatch: {t.domain} vs {u.domain}")


def direct_sum(t, u):
    """Block embedding t (+) u; t occupies the low index block on every factor."""
    return direct_sum_many([t, u])


def direct_sum_many(tensors):
    """Block embedding of the tensors in order, each after the last on every factor."""
    first = tensors[0]
    offsets = (0,) * first.order
    entries = {}
    for t in tensors:
        _check_same_order_domain(first, t)
        for idx, v in t.entries.items():
            entries[tuple(i + o for i, o in zip(idx, offsets))] = v
        offsets = tuple(o + d for o, d in zip(offsets, t.dims))
    return Tensor(offsets, entries, first.domain)


def group(t, spec):
    """Regroup the factors of one tensor according to a GroupingSpec."""
    if not isinstance(spec, GroupingSpec):
        spec = GroupingSpec(spec)
    if len(spec.positions()) != t.order:
        raise ValueError(f"grouping covers {len(spec.positions())} positions, tensor has order {t.order}")
    dims = tuple(math.prod(t.dims[p] for p in b) for b in spec.blocks)
    entries = {}
    for idx, v in t.entries.items():
        packed = []
        for b in spec.blocks:
            acc = 0
            for p in b:
                acc = acc * t.dims[p] + idx[p]
            packed.append(acc)
        entries[tuple(packed)] = v
    return Tensor(dims, entries, t.domain)


def tensor_product(t, u, spec=None):
    """Tensor product of t and u, regrouped by ``spec``.

    With the trivial partition (the default) this is the plain product of
    order k + k'; with :meth:`GroupingSpec.kron_pairing` it is the Kronecker
    product that keeps the order.
    """
    if t.domain != u.domain:
        raise ValueError(f"domain mismatch: {t.domain} vs {u.domain}")
    dims = t.dims + u.dims
    entries = {}
    for (it, vt) in t.entries.items():
        for (iu, vu) in u.entries.items():
            entries[it + iu] = vt * vu
    full = Tensor(dims, entries, t.domain)
    if spec is None:
        return full
    return group(full, spec)


def kron(t, u):
    """Kronecker product (same order, factorwise pairing, row-major packing)."""
    _check_same_order_domain(t, u)
    return tensor_product(t, u, GroupingSpec.kron_pairing(t.order))


def kron_power(t, n):
    if n < 1:
        raise ValueError("kron_power needs n >= 1")
    acc = t
    for _ in range(n - 1):
        acc = kron(acc, t)
    return acc


def flatten(t, left):
    """Matrix of the bipartition ``left`` vs the rest.

    Rows are indexed by the ``left`` positions (ascending), columns by the
    remaining positions (ascending); both sides packed row-major. ``left``
    must be a nonempty proper subset of the positions (0-based).
    """
    left = sorted(set(int(p) for p in left))
    if not left:
        raise ValueError("left set is empty")
    if any(not (0 <= p < t.order) for p in left):
        raise ValueError(f"left positions {left} outside order {t.order}")
    right = [p for p in range(t.order) if p not in left]
    if not right:
        raise ValueError("left set covers all positions; flattening needs both sides")
    rows = math.prod(t.dims[p] for p in left)
    cols = math.prod(t.dims[p] for p in right)
    entries = {}
    for idx, v in t.entries.items():
        r = 0
        for p in left:
            r = r * t.dims[p] + idx[p]
        c = 0
        for p in right:
            c = c * t.dims[p] + idx[p]
        entries[(r, c)] = v
    return Matrix(rows, cols, entries, t.domain)


def permute_factors(t, perm):
    """Reorder factors: new position j holds old position perm[j]."""
    perm = list(perm)
    if sorted(perm) != list(range(t.order)):
        raise ValueError("not a permutation of the factor positions")
    dims = tuple(t.dims[p] for p in perm)
    entries = {tuple(idx[p] for p in perm): v for idx, v in t.entries.items()}
    return Tensor(dims, entries, t.domain)


def support_per_factor(t):
    """For each factor, the sorted list of indices that occur in some entry."""
    used = [set() for _ in range(t.order)]
    for idx in t.entries:
        for j, i in enumerate(idx):
            used[j].add(i)
    return [sorted(u) for u in used]


def strip_padding(t):
    """Delete all-zero slices on every factor and compact the indices."""
    used = support_per_factor(t)
    if t.is_zero():
        return Tensor((1,) * t.order, {}, t.domain)
    remap = [{i: n for n, i in enumerate(u)} for u in used]
    dims = tuple(len(u) for u in used)
    entries = {
        tuple(remap[j][i] for j, i in enumerate(idx)): v for idx, v in t.entries.items()
    }
    return Tensor(dims, entries, t.domain)


def equal_up_to_padding(t, u):
    """True iff the two tensors agree after deleting all-zero slices."""
    _check_same_order_domain(t, u)
    return strip_padding(t) == strip_padding(u)


def apply_product_map(maps, t, domain=None):
    """Apply one linear map per factor: (m_1 (x) ... (x) m_k) t.

    ``maps[j]`` must have ``cols == t.dims[j]``; the result has dims given
    by the row counts. The maps are applied one mode at a time, in factor
    order 0, 1, ..., k-1 (the mode-n product): mode j sends each entry
    ``idx -> v`` to ``c * v`` at ``idx`` with position j replaced by r, for
    each ``(r, c)`` in column ``idx[j]`` of ``maps[j]``. Accumulation is
    exact over exact domains, and entries that cancel are dropped after
    each mode.
    """
    if len(maps) != t.order:
        raise ValueError(f"{len(maps)} maps for order-{t.order} tensor")
    domain = domain or t.domain
    for j, m in enumerate(maps):
        if m.cols != t.dims[j]:
            raise ValueError(
                f"map {j} has {m.cols} columns, factor dimension is {t.dims[j]}"
            )
        if m.domain != domain:
            raise ValueError(f"map {j} domain {m.domain} != {domain}")
    entries = t.entries
    for j, m in enumerate(maps):
        columns = m.columns()
        acc = {}
        for idx, v in entries.items():
            col = columns.get(idx[j])
            if not col:
                continue
            head, tail = idx[:j], idx[j + 1 :]
            for r, c in col:
                out_idx = head + (r,) + tail
                w = v * c
                s = acc.get(out_idx)
                acc[out_idx] = w if s is None else s + w
        entries = {i: v for i, v in acc.items() if v}
    return Tensor(tuple(m.rows for m in maps), entries, domain)
