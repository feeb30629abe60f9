"""Matrices over the scalar domains, flattenings, and exact/numeric rank.

A :class:`Matrix` is an order-2 :class:`~tpl.tensor.Tensor` with
``dims == (rows, cols)``: it shares the tensor's storage, equality, dense
form and eps lift, and its products run through the tensor kernels. Rank
over the exact rational domain uses Gaussian elimination with exact field
arithmetic; over the float domain it counts singular values above a
relative threshold. Rank over the eps domain is rejected.
"""

from __future__ import annotations

from . import scalars
from .scalars import EPS, FLOAT, RATIONAL, QC, _reduced
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
        """Matrix product, as the product map (self, identity) applied to ``other``."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self.domain != other.domain:
            raise ValueError("domain mismatch in matrix product")
        return _matrix(apply_product_map([self, Matrix.identity(other.cols, other.domain)], other))

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

    Exact elimination for the rational domain; singular value counting above
    ``tol * sigma_max`` (default 1e-9) for the float domain. The eps domain
    is rejected: rank over a polynomial ring is out of scope.
    """
    if m.domain == RATIONAL:
        return _rank_exact(m)
    if m.domain == FLOAT:
        return rank_float(m.to_numpy(), tol)
    raise ValueError("rank is not defined for eps-domain matrices")


def rank_float(array, tol=None):
    """Numeric rank of a dense complex array by SVD thresholding."""
    import numpy as np

    if tol is None:
        tol = DEFAULT_FLOAT_RANK_TOL
    a = np.asarray(array, dtype=complex)
    if a.size == 0:
        return 0
    sigma = np.linalg.svd(a, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > tol * sigma[0]))


def _rank_exact(m):
    # Row-list elimination over the exact field; rows kept sparse as
    # col -> QC maps. Pivot rows are chosen shortest-first to limit fill-in.
    rows = {}
    for (i, j), v in m.entries.items():
        rows.setdefault(i, {})[j] = v
    rows = list(rows.values())
    rank_count = 0
    while rows:
        pivot_row = min(rows, key=lambda r: (len(r), min(r)))
        rows.remove(pivot_row)
        pivot_col = min(pivot_row)
        pivot_val = pivot_row[pivot_col]
        rank_count += 1
        new_rows = []
        for r in rows:
            coeff = r.get(pivot_col)
            if coeff is not None:
                factor = coeff / pivot_val
                out = dict(r)
                for c, v in pivot_row.items():
                    s = out.get(c, scalars.QC_ZERO) - factor * v
                    if s:
                        out[c] = s
                    else:
                        out.pop(c, None)
                if out:
                    new_rows.append(out)
            else:
                new_rows.append(r)
        rows = new_rows
    return rank_count
