"""Sparse tensors and their exact multilinear algebra.

A :class:`Tensor` is an order-k array over one scalar domain, stored as a
coordinate map from index tuples to nonzero scalars; a matrix is the
order-2 subclass :class:`tpl.matrix.Matrix`. All operations are pure;
values are immutable after construction, so concurrent use needs no
locking. The public constructor checks every entry; the kernels here build
their results with :func:`_tensor`, unchecked, since valid inputs give
valid outputs.

Index packing convention: whenever several factor positions are merged
into one (grouping, flattening, Kronecker products), the merged index is
the row-major packing of the component indices in the order the block
lists them; :func:`group` is the one routine here that packs. This
convention is fixed so that files round-trip bit-exactly.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from itertools import product

from . import scalars
from .scalars import DENSE_ENTRY_GUARD, EPS, FLOAT, RATIONAL, EpsPoly, StructureTooLarge, check_entry_count
from .scalars import _common_denominator, _eps, _qc


# Largest packed value, in bits, that the integer lane of apply_product_map
# builds: 128 KiB. The benchmark's inputs stay under 200 bits and the
# tests' near-bound cases under 14,000, while an eps degree span in the
# hundreds of thousands would need ints of megabytes and take seconds per
# entry to unpack; above the guard the lane raises instead.
LANE_BITS_GUARD = 2**20

# Largest packed value, in bits, into which the integer lane folds trailing
# modes of the image (see _Lane). Packing a whole image beat the mode-wise
# loop up to about 10,000 bits; folding only the trailing modes that fit
# 2^12 bits beat both 2^13 and 2^14 on dense, sparse and eps contractions.
PACKED_IMAGE_BITS = 2**12


def check_dense_size(shape, what="dense array"):
    """Raise StructureTooLarge when a dense array of ``shape`` exceeds the guard."""
    check_entry_count(math.prod(shape), f"{what} of shape {tuple(shape)}")


class GroupingSpec:
    """Ordered partition of factor positions into blocks.

    Each block becomes one factor of the regrouped tensor, with dimension
    the product of the block's dimensions and index packed row-major in
    block order. Blocks must be disjoint, nonempty, and cover all
    positions; positions are 0-based.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        blocks = tuple(scalars.check_ints(b, "grouping positions") for b in blocks)
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
    def kron_pairing(cls, k):
        """Pair position j of the first k-tensor with position j of the second."""
        return cls([(j, k + j) for j in range(k)])

    def positions(self):
        return [p for b in self.blocks for p in b]

    def __repr__(self):
        return f"GroupingSpec({list(self.blocks)})"


class Tensor:
    """Order-k sparse tensor over a single scalar domain."""

    __slots__ = ("order", "dims", "domain", "entries")

    def __init__(self, dims, entries=None, domain=RATIONAL):
        self.dims, self.entries = _check_entries(dims, entries, domain)
        self.order = len(self.dims)
        self.domain = domain

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
        entries = {i: scalars.coerce(FLOAT, v) for i, v in self.entries.items()}
        return _tensor(self.dims, entries, FLOAT, type(self))

    def to_eps(self):
        if self.domain == EPS:
            return self
        if self.domain != RATIONAL:
            raise ValueError("only rational tensors lift to eps")
        entries = {i: EpsPoly.coerce(v) for i, v in self.entries.items()}
        return _tensor(self.dims, entries, EPS, type(self))

    def to_numpy(self):
        import numpy as np

        if self.domain == EPS:
            raise ValueError("eps tensors have no numeric form")
        check_dense_size(self.dims)
        a = np.zeros(self.dims, dtype=complex)
        for idx, v in self.entries.items():
            a[idx] = scalars.coerce(FLOAT, v)
        return a


def _check_entries(dims, entries, domain, noun="tensor"):
    """``(dims, entries)`` checked for the public constructors, zeros dropped.

    The one entry check of ``Tensor(...)`` and ``Matrix(...)``: ``domain``
    must be a key of ``scalars.DOMAIN_TYPES`` and every value of its type,
    dimensions and index components ints (:func:`scalars.check_ints`; never
    truncated), dimensions positive and every index in range. ``noun``
    names the object in the messages. Each index position is checked as one
    column, so the cost per entry is small.
    """
    if domain not in scalars.DOMAIN_TYPES:
        raise ValueError(f"unknown domain {domain!r}")
    dims = scalars.check_ints(dims, f"{noun} dimensions")
    if dims and min(dims) <= 0:
        raise ValueError(f"{noun} dimensions must be positive, got {_shape(dims)}")
    if not entries:
        return dims, {}
    for idx in entries:
        if len(idx) != len(dims):
            raise ValueError(f"index {idx!r} has wrong length for order {len(dims)}")
    for d, column in zip(dims, zip(*entries)):
        scalars.check_ints(column, "index components")
        if min(column) < 0 or max(column) >= d:
            bad = next(idx for idx in entries if not all(0 <= i < n for i, n in zip(idx, dims)))
            raise ValueError(f"index {bad!r} outside {_shape(dims)}")
    check = scalars.check_domain_value
    return dims, {idx: v for idx, v in entries.items() if check(domain, v)}


def _shape(dims):
    return "x".join(map(str, dims))


def _tensor(dims, entries, domain, cls=Tensor):
    """Tensor (or Matrix, as ``cls``) from kernel output, unchecked.

    For kernels whose inputs are already valid tensors: ``dims`` is a tuple
    of positive ints (two of them for a Matrix) and ``entries`` maps
    in-range index tuples to nonzero values of ``domain``. The public
    constructors and the JSON loaders keep the full check.
    """
    t = object.__new__(cls)
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
    if not tensors:
        raise ValueError("direct_sum_many needs at least one tensor")
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


def tensor_product(t, u):
    """Tensor product of t and u, of order k + k': t's factors, then u's."""
    if t.domain != u.domain:
        raise ValueError(f"domain mismatch: {t.domain} vs {u.domain}")
    a, b = len(t.entries), len(u.entries)
    check_entry_count(a * b, f"tensor product of {a} x {b} entries")
    dims = t.dims + u.dims
    entries = {}
    for (it, vt) in t.entries.items():
        for (iu, vu) in u.entries.items():
            w = vt * vu
            if w:  # a float product can underflow to zero
                entries[it + iu] = w
    return _tensor(dims, entries, t.domain)


def kron(t, u):
    """Kronecker product (same order, factorwise pairing, row-major packing)."""
    _check_same_order_domain(t, u)
    return group(tensor_product(t, u), GroupingSpec.kron_pairing(t.order))


def kron_power(t, n):
    """The Kronecker product of n copies of t; n is an int >= 1."""
    scalars.check_ints((n,), "kron_power n")
    if n < 1:
        raise ValueError("kron_power needs n >= 1")
    # Each dimension d of the power is d^n, whose indices need n times the bits of d - 1.
    bits = n * (max(t.dims, default=1) - 1).bit_length()
    check_entry_count(bits, f"Kronecker power {n} of dims {t.dims} ({bits} index bits)")
    # nnz^n stays 0 or 1, or passes the guard within its bit length of factors.
    cap = min(n, DENSE_ENTRY_GUARD.bit_length())
    check_entry_count(t.nnz() ** cap, f"Kronecker power {n} of {t.nnz()} entries")
    # Square and multiply: O(log n) krons, exact since kron is associative.
    acc = None
    while True:
        if n & 1:
            acc = t if acc is None else kron(acc, t)
        n >>= 1
        if not n:
            return acc
        t = kron(t, t)


def permute_factors(t, perm):
    """Reorder factors: new position j holds old position perm[j]."""
    perm = list(perm)
    if sorted(perm) != list(range(t.order)):
        raise ValueError("not a permutation of the factor positions")
    return group(t, GroupingSpec([(p,) for p in perm]))


def strip_padding(t):
    """Delete all-zero slices on every factor and compact the indices."""
    if t.is_zero():
        return _tensor((1,) * t.order, {}, t.domain)
    used = [sorted(set(column)) for column in zip(*t.entries)]
    remap = [{i: n for n, i in enumerate(u)} for u in used]
    dims = tuple(len(u) for u in used)
    entries = {
        tuple(remap[j][i] for j, i in enumerate(idx)): v for idx, v in t.entries.items()
    }
    return _tensor(dims, entries, t.domain)


def equal_up_to_padding(t, u):
    """True iff t and u share order and domain and agree after deleting all-zero slices."""
    # Stripping drops only zero slices, so it keeps nnz.
    return t.nnz() == u.nnz() and strip_padding(t) == strip_padding(u)


def apply_product_map(maps, t):
    """Apply one linear map per factor: (m_1 (x) ... (x) m_k) t.

    ``maps[j]`` must have ``cols == t.dims[j]``; the result has dims given
    by the row counts; tensor and maps share one domain. Mode j sends each
    entry ``idx -> v`` to ``c * v`` at ``idx`` with position j replaced by
    r, for each ``(r, c)`` in column ``idx[j]`` of ``maps[j]``; entries
    that cancel are dropped.

    Exact operands are packed into Python ints first (see :class:`_Lane`).
    The trailing modes whose image fits ``PACKED_IMAGE_BITS`` are folded
    into the packed values by big-int products, the leading modes run
    through the mode-wise loop :func:`_contract` (the mode-n product), and
    each output coefficient is read with one gcd: by :meth:`_Lane.digits`
    when a block holds one real digit, else by :meth:`_Lane.unpack`.
    Float operands run through :func:`_contract` as they are, every mode in
    factor order.
    """
    domain = t.domain
    dims = _check_maps(maps, t, domain)
    if domain == FLOAT:
        _check_contraction(len(t.entries), maps, t.dims, dims)
        return _tensor(dims, _contract(t.entries, [m.columns() for m in maps]), FLOAT)
    lane = _Lane(t, maps)
    values = _contract(lane.tensor, lane.columns)
    if lane.block == lane.width:  # one real digit per block
        image = lane.digits(values, 0)
        if domain == EPS:
            image = {idx: _eps({lane.lo: q}) for idx, q in image.items()}
    elif domain == EPS:
        image = {idx: _eps(coeffs) for idx, coeffs in lane.unpack(values).items()}
    else:
        image = {idx: coeffs[0] for idx, coeffs in lane.unpack(values).items()}
    return _tensor(dims, image, domain)


def lowest_eps_image(maps, t):
    """``(low, d, e)`` of the image of a rational tensor under eps maps; None when it is zero.

    The image (m_1(eps) (x) ... (x) m_k(eps)) t is contracted in the
    integer lane of :func:`apply_product_map`, and only three things are
    read from it (:meth:`_Lane.lowest`): d, its lowest eps degree; d + e,
    its highest; and ``low``, the rational tensor of its degree-d
    coefficients, with the image dims. Without imaginary parts no value is
    unpacked; with them each one is, since X^2 = -1 must be folded before
    a slot's degree means anything.
    """
    if t.domain != RATIONAL:
        raise ValueError(f"the tensor must be rational, not {t.domain}")
    dims = _check_maps(maps, t, EPS)
    lane = _Lane(t, maps)
    found = lane.lowest(_contract(lane.tensor, lane.columns))
    if found is None:
        return None
    low, d, e = found
    return _tensor(dims, low, RATIONAL), d, e


def _check_maps(maps, t, domain):
    """The image dims of ``maps`` applied to ``t``; one map per factor, of ``domain``."""
    if len(maps) != t.order:
        raise ValueError(f"{len(maps)} maps for order-{t.order} tensor")
    for j, m in enumerate(maps):
        if m.cols != t.dims[j]:
            raise ValueError(
                f"map {j} has {m.cols} columns, factor dimension is {t.dims[j]}"
            )
        if m.domain != domain:
            raise ValueError(f"map {j} domain {m.domain} != {domain}")
    return tuple(m.rows for m in maps)


def _check_contraction(nnz, maps, dims, rows):
    """Raise StructureTooLarge when a mode of the contraction may hold too many entries.

    The tensor has ``nnz`` entries and dims ``dims``, and map j has
    ``rows[j]`` rows. Each mode's intermediate, in factor order, is
    bounded: start from the entry count, and at mode j take the smaller of
    the last bound times the longest column of map j and the product of
    the dims after mode j. A bound over ``DENSE_ENTRY_GUARD`` raises. Every
    intermediate fits the shape of the larger of each dim and row count,
    so the columns are counted only when that shape passes the guard. The
    integer lane checks all k modes before it packs any of them.
    """
    if math.prod(map(max, dims, rows)) <= DENSE_ENTRY_GUARD:
        return
    bound, shape = nnz, list(dims)
    for j, m in enumerate(maps):
        shape[j] = rows[j]
        longest = max(Counter(c for _, c in m.entries).values(), default=0)
        bound = min(bound * longest, math.prod(shape))
        check_entry_count(bound, f"mode {j} of the contraction to {_shape(shape)} (<= {bound} entries)")


def _contract(entries, columns):
    """The mode-wise loop over plain numbers: ints, or complex floats.

    ``columns[j]`` maps a column of map j to its list of ``(row, value)``
    pairs. Mode j, for each map given, replaces index position j of every
    entry by the rows of its column and sums the terms; entries that cancel
    are dropped after each mode. Index positions past the last map are kept
    as they are. The caller bounds the intermediates first
    (:func:`_check_contraction`).
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

    Scalars. Each operand is put over one denominator, and its coefficient
    of eps^k X^s, where X stands for i and lo is the operand's lowest
    degree, becomes a base-2^K digit at slot (k - lo) + s * E. E is the
    number of eps degrees the contraction can produce, so eps products
    never reach the X slots; each operand adds at most one to the X-degree.
    A packed scalar spans ``block`` = K * E * (X-degree + 1) bits. Before
    X^2 = -1 is applied, every output coefficient is at most the largest
    L1 norm of a tensor value times, for each map, its largest row sum of
    L1 norms (taken as at least 1, which bounds every partial sum too).
    K = bound.bit_length() + 1 keeps each coefficient inside a balanced
    digit [-2^(K-1), 2^(K-1)), so a packed value is zero exactly when the
    polynomial is, and the digits read back uniquely. A rational operand
    packs as degree 0, so a rational tensor meets eps maps as it is.

    Image slots. The trailing modes lead..k-1 of the image are packed too,
    as many as fit: block * R_lead * ... * R_(k-1) <= PACKED_IMAGE_BITS,
    with R_j the row count of map j. With s_j the product of the R of the
    packed modes after j, column c of map j becomes the one int
    P_j[c] = sum_r x_(r,c) * 2^(block * s_j * r), and the image index
    (r_lead, ..., r_(k-1)) owns scalar block sum_j r_j * s_j, its row-major
    number. The numbering is mixed-radix, so a product of packed columns is
    their outer product and no two terms share a block. Each tensor entry
    goes to its leading index idx[:lead] as v * prod_j P_j[idx_j], summed
    per key (:func:`_fold_tail`); every digit of these sums is a partial
    sum of an output coefficient, within the same bound. ``tensor`` holds
    them and ``columns`` the leading maps' columns, for :func:`_contract`;
    ``tails[b]`` is the trailing image index of block b. With lead = 0
    there is one key, the empty index; with lead = k each value is one
    packed scalar.

    Reading. :meth:`blocks` is the one walk over a packed value's blocks;
    :meth:`digits` reads one slot of each nonzero block, :meth:`unpack` all.
    """

    def __init__(self, t, maps):
        rows = [m.rows for m in maps]
        _check_contraction(len(t.entries), maps, t.dims, rows)
        ops = [_Operand(x.entries, x.domain == EPS) for x in (t, *maps)]
        bound = max(ops[0].norms, default=0)
        for m, op in zip(maps, ops[1:]):
            sums = {}
            for (r, _), norm in zip(m.entries, op.norms):
                sums[r] = sums.get(r, 0) + norm
            bound *= max(1, max(sums.values(), default=0))
        self.width = width = bound.bit_length() + 1
        self.eps_slots = 1 + sum(op.hi - op.lo for op in ops)
        self.x_degree = sum(op.imag for op in ops)
        self.den = math.prod(op.den for op in ops)
        self.lo = sum(op.lo for op in ops)
        self.block = block = width * self.eps_slots * (self.x_degree + 1)
        if block > LANE_BITS_GUARD:
            raise StructureTooLarge(
                f"packed values of {block} bits exceed {LANE_BITS_GUARD} "
                f"(eps degree span {self.eps_slots - 1}, digit width {width})"
            )
        lead, blocks = len(maps), 1
        while lead and block * blocks * rows[lead - 1] <= PACKED_IMAGE_BITS:
            lead -= 1
            blocks *= rows[lead]
        self.tails = _block_indices(tuple(rows[lead:]))
        x_shift, stride = width * self.eps_slots, block * blocks
        columns = []
        for j, op in enumerate(ops[1:]):
            cols = {}
            if j < lead:
                for (r, c), x in sorted(op.pack(width, x_shift).items()):
                    cols.setdefault(c, []).append((r, x))
            else:
                stride //= rows[j]
                for (r, c), x in op.pack(width, x_shift).items():
                    cols[c] = cols.get(c, 0) + (x << (stride * r))
            columns.append(cols)
        self.tensor = _fold_tail(ops[0].pack(width, x_shift), columns[lead:], lead)
        self.columns = columns[:lead]
        # Half a digit added at every slot makes each digit nonnegative, so
        # a balanced digit is its masked slot minus half.
        bits = block * blocks
        self.offset = (1 << (width - 1)) * ((1 << bits) - 1) // ((1 << width) - 1)

    def unpack(self, values):
        """Image index -> (degree -> QC map) of packed values keyed by leading index.

        Each nonzero block of a value is read once (:meth:`blocks`): every
        balanced digit, X^s folded to i^s, and each coefficient divided by
        the product of the denominators with one gcd. Blocks that fold to
        zero are left out.
        """
        width, eps_slots, den, lo = self.width, self.eps_slots, self.den, self.lo
        half = 1 << (width - 1)
        mask = (1 << width) - 1
        nbytes = (self.block + 7) // 8
        out = {}
        for key, x in values.items():
            for tail, y in self.blocks(x):
                # One byte string, so that reading every slot costs linear time.
                data = y.to_bytes(nbytes, "little")
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
                        coeffs[q + lo] = _qc(a // g, b // g, den // g)
                if coeffs:
                    out[key + tail] = coeffs
        return out

    def digits(self, values, slot):
        """Image index -> QC of the nonzero balanced digit at ``slot`` of its block.

        For lanes without X slots: the real coefficient of degree slot + lo,
        read from every nonzero block (:meth:`blocks`); zero digits are left out.
        """
        width, den = self.width, self.den
        shift, mask, half = width * slot, (1 << width) - 1, 1 << (width - 1)
        out = {}
        for key, x in values.items():
            for tail, y in self.blocks(x):
                a = ((y >> shift) & mask) - half
                if a:
                    g = math.gcd(a, den)
                    out[key + tail] = _qc(a // g, 0, den // g)
        return out

    def blocks(self, x):
        """``(tail, y)`` for each block of packed value x with a nonzero digit, lowest first.

        The one block walk of both readers. ``tail`` is the block's trailing
        image index and y its bits of x + offset, where each digit lies in
        [0, 2^K) and a balanced digit is its slot minus half. Exactly the
        nonzero balanced digits are nonzero in (x + offset) ^ offset, so each
        step jumps to its lowest set bit: a sparse image costs its nonzero
        blocks, not its size. A value of several blocks holds at most
        PACKED_IMAGE_BITS bits, so each shift is short.
        """
        block, offset = self.block, self.offset
        mask = (1 << block) - 1
        y = x + offset
        z = y ^ offset
        b = 0
        while z:
            skip = ((z & -z).bit_length() - 1) // block
            b += skip
            y >>= skip * block
            yield self.tails[b], y & mask
            z >>= (skip + 1) * block
            y >>= block
            b += 1

    def lowest(self, values):
        """``(low, d, e)`` of nonzero packed values; None when they all fold to zero.

        d is the lowest eps degree over the image, d + e the highest, and
        ``low`` maps each image index to its nonzero degree-d coefficient
        as a QC. Without X slots, a slot's digit is nonzero exactly where
        (x + offset) ^ offset is (:meth:`blocks`). The OR of these over all
        values, folded over the blocks by halving their count, gives the
        lowest and highest slot; then :meth:`digits` reads the lowest slot
        of every nonzero block. With X slots each value is unpacked, since
        X^2 = -1 must be folded first.
        """
        if self.x_degree:
            polys = self.unpack(values)
            degrees = {k for coeffs in polys.values() for k in coeffs}
            if not degrees:
                return None
            d = min(degrees)
            return {i: c[d] for i, c in polys.items() if d in c}, d, max(degrees) - d
        width, block, offset = self.width, self.block, self.offset
        used = 0
        for x in values.values():
            used |= (x + offset) ^ offset
        # Fold the blocks onto one, halving their count at each step.
        count = len(self.tails)
        while count > 1:
            count = (count + 1) // 2
            used = (used & ((1 << (count * block)) - 1)) | (used >> (count * block))
        if not used:
            return None
        low = ((used & -used).bit_length() - 1) // width
        return self.digits(values, low), low + self.lo, (used.bit_length() - 1) // width - low


@functools.lru_cache(maxsize=64)
def _block_indices(radices):
    """Trailing image index of each block: the indices below ``radices``, row-major."""
    return tuple(product(*map(range, radices)))


def _fold_tail(tensor, columns, lead):
    """Packed tensor entries folded over their index positions from ``lead`` on.

    ``columns[j]`` maps a column of map lead + j to its packed int (see
    :class:`_Lane`). The modes are folded one at a time from the last, the
    smallest stride, so the products grow one mode at a time, each pass
    keys on an index prefix, and each has at most as many keys as the one
    before. Sums that cancel are dropped once, at the end.
    """
    for j in reversed(range(lead, lead + len(columns))):
        packed, acc = columns[j - lead], {}
        for idx, v in tensor.items():
            p = packed.get(idx[j])
            if p is not None:
                key = idx[:j]
                acc[key] = acc.get(key, 0) + v * p
        tensor = acc
    return {key: x for key, x in tensor.items() if x}
