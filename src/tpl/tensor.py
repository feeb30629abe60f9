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
from .scalars import EPS, FLOAT, RATIONAL, EpsPoly, _common_denominator, _eps, _qc


# Largest packed value, in bits, that the integer lane of apply_product_map
# builds: 128 KiB. The benchmark's inputs stay under 200 bits and the
# tests' near-bound cases under 14,000, while an eps degree span in the
# hundreds of thousands would need ints of megabytes and take seconds per
# entry to unpack; above the guard the lane raises instead.
LANE_BITS_GUARD = 2**20


class StructureTooLarge(ValueError):
    """Desk-scale guard: the requested finite structure will not fit."""


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
        return _tensor(self.dims, {i: scalars.to_float(v) for i, v in self.entries.items()}, FLOAT)

    def to_eps(self):
        if self.domain == EPS:
            return self
        if self.domain != RATIONAL:
            raise ValueError("only rational tensors lift to eps")
        return _tensor(self.dims, {i: scalars.to_eps(v) for i, v in self.entries.items()}, EPS)

    def to_numpy(self):
        import numpy as np

        if self.domain == EPS:
            raise ValueError("eps tensors have no numeric form")
        a = np.zeros(self.dims, dtype=complex)
        for idx, v in self.entries.items():
            a[idx] = scalars.to_float(v)
        return a


def _tensor(dims, entries, domain):
    """Tensor from kernel output, unchecked.

    For the kernels below, whose inputs are already valid tensors: ``dims``
    is a tuple of positive ints and ``entries`` maps in-range index tuples
    to nonzero values of ``domain``. The public constructor and the JSON
    loaders keep the full check.
    """
    t = object.__new__(Tensor)
    t.dims, t.order, t.domain, t.entries = dims, len(dims), domain, entries
    return t


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
    return _tensor(offsets, entries, first.domain)


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
    return _tensor(dims, entries, t.domain)


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
            w = vt * vu
            if w:  # a float product can underflow to zero
                entries[it + iu] = w
    full = _tensor(dims, entries, t.domain)
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
    return _tensor(dims, entries, t.domain)


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
        return _tensor((1,) * t.order, {}, t.domain)
    remap = [{i: n for n, i in enumerate(u)} for u in used]
    dims = tuple(len(u) for u in used)
    entries = {
        tuple(remap[j][i] for j, i in enumerate(idx)): v for idx, v in t.entries.items()
    }
    return _tensor(dims, entries, t.domain)


def equal_up_to_padding(t, u):
    """True iff the two tensors agree after deleting all-zero slices."""
    _check_same_order_domain(t, u)
    return strip_padding(t) == strip_padding(u)


def apply_product_map(maps, t, domain=None):
    """Apply one linear map per factor: (m_1 (x) ... (x) m_k) t.

    ``maps[j]`` must have ``cols == t.dims[j]``; the result has dims given
    by the row counts; tensor and maps share one domain. The maps are
    applied one mode at a time, in factor order 0, 1, ..., k-1 (the mode-n
    product): mode j sends each entry ``idx -> v`` to ``c * v`` at ``idx``
    with position j replaced by r, for each ``(r, c)`` in column ``idx[j]``
    of ``maps[j]``, and drops entries that cancel.

    Exact operands are packed into Python ints first (see :class:`_Lane`),
    so the loop adds and multiplies plain ints, and each output coefficient
    is reduced by one gcd when it is unpacked. Float operands enter the
    loop as they are.
    """
    if len(maps) != t.order:
        raise ValueError(f"{len(maps)} maps for order-{t.order} tensor")
    domain = domain or t.domain
    if t.domain != domain:
        raise ValueError(f"tensor domain {t.domain} != {domain}")
    for j, m in enumerate(maps):
        if m.cols != t.dims[j]:
            raise ValueError(
                f"map {j} has {m.cols} columns, factor dimension is {t.dims[j]}"
            )
        if m.domain != domain:
            raise ValueError(f"map {j} domain {m.domain} != {domain}")
    dims = tuple(m.rows for m in maps)
    if domain == FLOAT:
        return _tensor(dims, _contract(t.entries, [m.columns() for m in maps]), FLOAT)
    lane = _Lane(t, maps)
    out = {}
    for idx, x in _contract(lane.tensor, lane.columns).items():
        coeffs = lane.unpack(x)
        if coeffs:
            out[idx] = _eps(coeffs) if domain == EPS else coeffs[0]
    return _tensor(dims, out, domain)


def _contract(entries, columns):
    """The mode-wise loop over plain numbers: ints, or complex floats.

    ``columns[j]`` maps a column of map j to its ``(row, value)`` list.
    """
    for j, cols in enumerate(columns):
        acc = {}
        for idx, v in entries.items():
            col = cols.get(idx[j])
            if col is None:
                continue
            head, tail = idx[:j], idx[j + 1 :]
            for r, c in col:
                out_idx = head + (r,) + tail
                acc[out_idx] = acc.get(out_idx, 0) + v * c
        entries = {i: v for i, v in acc.items() if v}
    return entries


class _Operand:
    """The values of one operand (QC, or EpsPoly when ``eps``) over one denominator.

    ``den`` is the lcm of the coefficient denominators and ``scale[n]`` is
    den / n, so a coefficient (a + b*i)/n becomes the integers a*scale[n]
    and b*scale[n]. ``norms`` lists the L1 norms sum |a| + |b| of the
    scaled values, ``lo``..``hi`` is the degree range (0..0 for QC values
    or none) and ``imag`` tells whether any b is nonzero.
    """

    def __init__(self, entries, eps):
        self.entries, self.eps = entries, eps
        values = entries.values()
        coeffs = [c for v in values for c in v.coeffs.values()] if eps else values
        self.den, scale = _common_denominator(coeffs)
        self.scale = scale
        self.imag = any(c._b for c in coeffs)
        self.lo = self.hi = 0
        if eps:
            degrees = [k for v in values for k in v.coeffs]
            if degrees:
                self.lo, self.hi = min(degrees), max(degrees)
            self.norms = [
                sum((abs(c._a) + abs(c._b)) * scale[c._n] for c in v.coeffs.values())
                for v in values
            ]
        elif self.imag:
            self.norms = [(abs(c._a) + abs(c._b)) * scale[c._n] for c in values]
        else:
            # Real rationals pack as their numerators, whatever the width.
            self.real = {key: c._a * scale[c._n] for key, c in entries.items()}
            self.norms = [abs(x) for x in self.real.values()]

    def pack(self, width, x_shift):
        """Key -> sum over coefficients of (a + b*2^x_shift) * 2^(width*(k - lo))."""
        scale = self.scale
        if not self.eps:
            if not self.imag:
                return self.real
            return {
                key: (c._a + (c._b << x_shift)) * scale[c._n] for key, c in self.entries.items()
            }
        lo = self.lo
        return {
            key: sum(
                (c._a + (c._b << x_shift)) * scale[c._n] << (width * (k - lo))
                for k, c in v.coeffs.items()
            )
            for key, v in self.entries.items()
        }


class _Lane:
    """A tensor and its maps packed into Python ints (Kronecker substitution).

    Each operand is put over one denominator, and its coefficient of
    eps^k X^s, where X stands for i and lo is the operand's lowest degree,
    becomes a base-2^K digit at slot (k - lo) + s * E. E is the number of
    eps degrees the contraction can produce, so eps products never reach
    the X slots; each operand adds at most one to the X-degree. Before
    X^2 = -1 is applied, every output coefficient is at most the largest
    L1 norm of a tensor value times, for each map, its largest row sum of
    L1 norms (taken as at least 1, which bounds every mode's intermediate
    too). K = bound.bit_length() + 1 keeps each coefficient inside a
    balanced digit [-2^(K-1), 2^(K-1)), so a packed value is zero exactly
    when the polynomial is, and the digits read back uniquely.
    """

    def __init__(self, t, maps):
        eps = t.domain == EPS
        ops = [_Operand(t.entries, eps)] + [_Operand(m.entries, eps) for m in maps]
        bound = max(ops[0].norms, default=0)
        for m, op in zip(maps, ops[1:]):
            rows = {}
            for (r, _), norm in zip(m.entries, op.norms):
                rows[r] = rows.get(r, 0) + norm
            bound *= max(1, max(rows.values(), default=0))
        self.width = width = bound.bit_length() + 1
        self.eps_slots = 1 + sum(op.hi - op.lo for op in ops)
        self.x_degree = sum(op.imag for op in ops)
        self.den = math.prod(op.den for op in ops)
        self.lo = sum(op.lo for op in ops)
        # Half a digit added at every slot makes each digit nonnegative, so
        # a balanced digit is its masked slot minus half.
        slots = self.eps_slots * (self.x_degree + 1)
        if width * slots > LANE_BITS_GUARD:
            raise StructureTooLarge(
                f"packed values of {width * slots} bits exceed {LANE_BITS_GUARD} "
                f"(eps degree span {self.eps_slots - 1}, digit width {width})"
            )
        self.offset = (1 << (width - 1)) * ((1 << (width * slots)) - 1) // ((1 << width) - 1)
        self.nbytes = (width * slots + 7) // 8
        x_shift = width * self.eps_slots
        self.tensor = ops[0].pack(width, x_shift)
        self.columns = []
        for op in ops[1:]:
            cols = {}
            for (r, c), x in sorted(op.pack(width, x_shift).items()):
                cols.setdefault(c, []).append((r, x))
            self.columns.append(cols)

    def unpack(self, x):
        """Degree -> QC map of a packed output value; empty when it folds to zero.

        Reads the balanced digits, folds X^s to i^s and divides by the
        product of the denominators with one gcd per coefficient.
        """
        width, eps_slots, den = self.width, self.eps_slots, self.den
        half = 1 << (width - 1)
        mask = (1 << width) - 1
        # One byte string, so that reading every slot costs linear time.
        data = (x + self.offset).to_bytes(self.nbytes, "little")
        re = [0] * eps_slots
        im = [0] * eps_slots
        start = 0
        for s in range(self.x_degree + 1):
            part = re if s % 2 == 0 else im
            sign = -1 if s % 4 >= 2 else 1
            for q in range(eps_slots):
                digit = int.from_bytes(data[start >> 3 : (start + width + 7) >> 3], "little")
                part[q] += sign * (((digit >> (start & 7)) & mask) - half)
                start += width
        coeffs = {}
        for q in range(eps_slots):
            a, b = re[q], im[q]
            if a or b:
                g = math.gcd(a, b, den)
                coeffs[q + self.lo] = _qc(a // g, b // g, den // g)
        return coeffs
