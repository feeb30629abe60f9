"""Matrices over the scalar domains, flattenings, and exact/numeric rank.

A :class:`Matrix` is an order-2 :class:`~tpl.tensor.Tensor` with
``dims == (rows, cols)``: it shares the tensor's storage, equality, dense
form and eps lift, and its products run through the tensor kernels. Rank
over the exact rational domain uses fraction-free elimination on integer
rows (a complex matrix through its real form); over the float domain it
counts singular values above a relative threshold. Rank over the eps
domain is rejected.
"""

from __future__ import annotations

import math

from . import scalars
from .scalars import EPS, FLOAT, RATIONAL, QC, _check_index_components, _reduced
from .tensor import GroupingSpec, Tensor, _check_entries, _tensor, apply_product_map, group, kron

DEFAULT_FLOAT_RANK_TOL = 1e-9


class Matrix(Tensor):
    """Immutable sparse matrix with a uniform scalar domain: an order-2 Tensor."""

    __slots__ = ()

    def __init__(self, rows, cols, entries=None, domain=RATIONAL):
        self.dims, self.entries = _check_entries((rows, cols), entries, domain, "matrix")
        self.order, self.domain = 2, domain

    @property
    def rows(self):
        return self.dims[0]

    @property
    def cols(self):
        return self.dims[1]

    @classmethod
    def identity(cls, n, domain=RATIONAL):
        _check_index_components("identity", n, 2)
        one = scalars.one(domain)
        return cls(n, n, {(i, i): one for i in range(n)}, domain)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {len(self.entries)} nnz, {self.domain})"

    def get(self, i, j):
        return self.entries.get((i, j), scalars.zero(self.domain))

    def columns(self):
        """Map col -> list of (row, value); useful for applying to tensors."""
        out = {}
        for (i, j), v in self.entries.items():
            out.setdefault(j, []).append((i, v))
        for col in out.values():
            col.sort()
        return out

    def scale(self, factor):
        factor = scalars.coerce(self.domain, factor)
        return Matrix(*self.dims, {ij: v * factor for ij, v in self.entries.items()}, self.domain)

    def __matmul__(self, other):
        """Matrix product: ``other`` under the product map (self, identity on its used columns)."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self.domain != other.domain:
            raise ValueError("domain mismatch in matrix product")
        one = scalars.one(other.domain)
        eye = _tensor((other.cols,) * 2, {(j, j): one for _, j in other.entries}, other.domain, Matrix)
        return _matrix(apply_product_map([self, eye], other))

    def kron(self, other):
        """Kronecker product with row-major index packing on both sides."""
        return _matrix(kron(self, other))

    def eval_eps(self, point):
        """Evaluate an eps-domain matrix at an exact point (int, Fraction or QC).

        The one-point case of :func:`tpl.scalars._eval_table`: all entries
        share one integer lane, and each is reduced with one gcd. This
        equals ``EpsPoly.eval`` entrywise; a Laurent entry needs a nonzero
        point.
        """
        if self.domain != EPS:
            raise ValueError("eval_eps requires an eps-domain matrix")
        (nums, den), = scalars._eval_table(self.entries.values(), [QC.coerce(point)])
        entries = {ij: _reduced(x, y, den) for ij, (x, y) in zip(self.entries, nums) if x or y}
        return _tensor(self.dims, entries, RATIONAL, Matrix)


def _matrix(t):
    """The order-2 kernel output ``t`` as a Matrix, unchecked."""
    return _tensor(t.dims, t.entries, t.domain, Matrix)


def flatten(t, left):
    """Matrix of the bipartition ``left`` vs the rest.

    Rows are indexed by the ``left`` positions (ascending), columns by the
    remaining positions (ascending); both sides packed row-major. ``left``
    must be a nonempty proper subset of the positions (0-based).
    """
    left = sorted(set(left))
    if not left:
        raise ValueError("left set is empty")
    if any(not (0 <= p < t.order) for p in left):
        raise ValueError(f"left positions {left} outside order {t.order}")
    right = [p for p in range(t.order) if p not in left]
    if not right:
        raise ValueError("left set covers all positions; flattening needs both sides")
    return _matrix(group(t, GroupingSpec([left, right])))


def rank(m, tol=None):
    """Matrix rank.

    Fraction-free integer elimination for the rational domain; singular
    value counting above ``tol * sigma_max`` (default 1e-9) for the float
    domain. The eps domain is rejected: rank over a polynomial ring is out
    of scope.
    """
    if m.domain == RATIONAL:
        return _rank_exact(m)
    if m.domain == FLOAT:
        return rank_float(m.to_numpy(), tol)
    raise ValueError("rank is not defined for eps-domain matrices")


def _float_rank_tol(tol):
    """``tol``, or the default for None; ValueError unless 0 <= tol < 1 (so not NaN)."""
    if tol is None:
        return DEFAULT_FLOAT_RANK_TOL
    if not 0 <= tol < 1:
        raise ValueError(f"float rank tolerance must lie in [0, 1), got {tol!r}")
    return tol


def rank_float(array, tol=None):
    """Numeric rank of a dense complex array by SVD thresholding."""
    import numpy as np

    tol = _float_rank_tol(tol)
    a = np.asarray(array, dtype=complex)
    if a.size == 0:
        return 0
    sigma = np.linalg.svd(a, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > tol * sigma[0]))


def _rank_exact(m):
    # Fraction-free elimination over Z. A matrix A + iB with B != 0 enters as
    # its real form [[A, -B], [B, A]], whose rank over Q is twice the rank of
    # A + iB over Q(i). Each row is scaled by the lcm of its denominators and
    # divided by the gcd of its numerators; a nonzero row scaling keeps the
    # rank. A row r is eliminated as p*r - c*pivot and made primitive again,
    # so it divides the Bareiss row of minors and stays within Hadamard size.
    # Pivot rows are chosen shortest-first, then by lowest column, to limit
    # fill-in.
    rows = {}
    if any(v._b for v in m.entries.values()):
        cols = m.cols
        for (i, j), v in m.entries.items():
            top, bottom = rows.setdefault(i, {}), rows.setdefault(~i, {})
            if v._a:
                top[j] = bottom[cols + j] = (v._a, v._n)
            if v._b:
                top[cols + j], bottom[j] = (-v._b, v._n), (v._b, v._n)
        factor = 2
    else:
        for (i, j), v in m.entries.items():
            rows.setdefault(i, {})[j] = (v._a, v._n)
        factor = 1
    work = []
    for row in rows.values():
        den = math.lcm(*(n for _, n in row.values()))
        work.append(_primitive({j: a * (den // n) for j, (a, n) in row.items()}))
    rank_count = 0
    while work:
        shortest = min(map(len, work))
        pivot_row = min((r for r in work if len(r) == shortest), key=min)
        work.remove(pivot_row)
        pivot_col = min(pivot_row)
        pivot_val = pivot_row[pivot_col]
        rank_count += 1
        new_rows = []
        for r in work:
            coeff = r.get(pivot_col)
            if coeff is None:
                new_rows.append(r)
                continue
            g = math.gcd(pivot_val, coeff)
            p, c = pivot_val // g, coeff // g
            out = {j: p * v for j, v in r.items()} if p != 1 else dict(r)
            for j, v in pivot_row.items():
                s = out.get(j, 0) - c * v
                if s:
                    out[j] = s
                else:
                    del out[j]
            if out:
                new_rows.append(_primitive(out))
        work = new_rows
    return rank_count // factor


def _primitive(row):
    """The integer row divided by the gcd of its entries (row nonempty)."""
    g = math.gcd(*row.values())
    if g == 1:
        return row
    return {j: v // g for j, v in row.items()}
