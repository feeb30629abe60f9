"""Sparse matrices over the scalar domains and exact/numeric rank.

Matrices are stored as coordinate maps ``(row, col) -> nonzero scalar``.
Rank over the exact rational domain uses Gaussian elimination with exact
field arithmetic; over the float domain it counts singular values above a
relative threshold. Rank over the eps domain is rejected.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import scalars
from .scalars import EPS, FLOAT, RATIONAL, QC, _common_denominator, _qc

DEFAULT_FLOAT_RANK_TOL = 1e-9


class Matrix:
    """Immutable sparse matrix with a uniform scalar domain."""

    __slots__ = ("rows", "cols", "domain", "entries")

    def __init__(self, rows, cols, entries=None, domain=RATIONAL):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        self.rows = int(rows)
        self.cols = int(cols)
        self.domain = domain
        cleaned = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
                v = scalars.check_domain_value(domain, v)
                if v:
                    cleaned[(i, j)] = v
        self.entries = cleaned

    @classmethod
    def from_rows(cls, data, domain=RATIONAL):
        """Build from a dense list of row lists of raw values."""
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                v = scalars.coerce(domain, v)
                if v:
                    entries[(i, j)] = v
        return cls(rows, cols, entries, domain)

    @classmethod
    def identity(cls, n, domain=RATIONAL):
        one = scalars.one(domain)
        return cls(n, n, {(i, i): one for i in range(n)}, domain)

    @classmethod
    def zeros(cls, rows, cols, domain=RATIONAL):
        return cls(rows, cols, {}, domain)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.domain == other.domain
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {len(self.entries)} nnz, {self.domain})"

    def get(self, i, j):
        return self.entries.get((i, j), scalars.zero(self.domain))

    def nnz(self):
        return len(self.entries)

    def columns(self):
        """Map col -> list of (row, value); useful for applying to tensors."""
        out = {}
        for (i, j), v in self.entries.items():
            out.setdefault(j, []).append((i, v))
        for col in out.values():
            col.sort()
        return out

    def transpose(self):
        return Matrix(
            self.cols,
            self.rows,
            {(j, i): v for (i, j), v in self.entries.items()},
            self.domain,
        )

    def scale(self, factor):
        factor = scalars.coerce(self.domain, factor)
        if not factor:
            return Matrix.zeros(self.rows, self.cols, self.domain)
        return Matrix(
            self.rows,
            self.cols,
            {ij: v * factor for ij, v in self.entries.items()},
            self.domain,
        )

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self.domain != other.domain:
            raise ValueError("domain mismatch in matrix product")
        by_row = {}
        for (i, k), v in self.entries.items():
            by_row.setdefault(i, []).append((k, v))
        other_rows = {}
        for (k, j), w in other.entries.items():
            other_rows.setdefault(k, []).append((j, w))
        acc = {}
        for i, left in by_row.items():
            for k, v in left:
                for j, w in other_rows.get(k, ()):
                    s = acc.get((i, j))
                    s = v * w if s is None else s + v * w
                    acc[(i, j)] = s
        acc = {ij: v for ij, v in acc.items() if v}
        return Matrix(self.rows, other.cols, acc, self.domain)

    def kron(self, other):
        """Kronecker product with row-major index packing on both sides."""
        if self.domain != other.domain:
            raise ValueError("domain mismatch in kron")
        entries = {}
        for (i, j), v in self.entries.items():
            for (k, l), w in other.entries.items():
                entries[(i * other.rows + k, j * other.cols + l)] = v * w
        return Matrix(self.rows * other.rows, self.cols * other.cols, entries, self.domain)

    def map_values(self, fn, domain=None):
        domain = domain or self.domain
        out = {}
        for ij, v in self.entries.items():
            w = fn(v)
            if w:
                out[ij] = w
        return Matrix(self.rows, self.cols, out, domain)

    def eval_eps(self, point):
        """Evaluate an eps-domain matrix at an exact point (int, Fraction or QC).

        All entries share one integer lane. With D the lcm of the
        coefficient denominators, L..H the matrix's degree range widened to
        include 0, and point = u/w (u a Gaussian integer, w > 0), an entry
        sum_k c_k eps^k evaluates to S / (D * w^H * u^-L), where
        S = sum_k D*c_k * u^(k-L) * w^(H-k) comes from Horner's rule over
        ints. A negative L (a Laurent term) needs a nonzero point, and a
        complex u leaves the denominator through its conjugate. Each entry
        is reduced with one gcd; this equals ``EpsPoly.eval`` entrywise.
        """
        if self.domain != EPS:
            raise ValueError("eval_eps requires an eps-domain matrix")
        point = QC.coerce(point)
        ua, ub, w = point._a, point._b, point._n
        coeffs = [c for p in self.entries.values() for c in p.coeffs.values()]
        degrees = [k for p in self.entries.values() for k in p.coeffs]
        low, high = min(degrees + [0]), max(degrees + [0])
        lcm, scale = _common_denominator(coeffs)
        den = lcm * w**high
        wpow = [w ** (high - k) for k in range(low, high + 1)]
        if low < 0:
            if not (ua or ub):
                raise ZeroDivisionError("Laurent eps entry evaluated at 0")
            # 1 / u^m = conj(u)^m / |u|^(2m)
            ca, cb = 1, 0
            for _ in range(-low):
                ca, cb = ca * ua + cb * ub, cb * ua - ca * ub
            den *= (ua * ua + ub * ub) ** -low
        entries = {}
        for ij, p in self.entries.items():
            x = y = 0
            pc = p.coeffs
            for k in range(high, low - 1, -1):
                x, y = x * ua - y * ub, x * ub + y * ua
                c = pc.get(k)
                if c is not None:
                    f = scale[c._n] * wpow[k - low]
                    x += c._a * f
                    y += c._b * f
            if low < 0:
                x, y = x * ca - y * cb, x * cb + y * ca
            if x or y:
                g = math.gcd(x, y, den)
                entries[ij] = _qc(x // g, y // g, den // g)
        return Matrix(self.rows, self.cols, entries, RATIONAL)

    def to_eps(self):
        if self.domain == EPS:
            return self
        if self.domain != RATIONAL:
            raise ValueError("only rational matrices lift to eps")
        return self.map_values(scalars.to_eps, domain=EPS)

    def to_numpy(self):
        import numpy as np

        if self.domain == EPS:
            raise ValueError("eps matrices have no numeric form")
        a = np.zeros((self.rows, self.cols), dtype=complex)
        for (i, j), v in self.entries.items():
            a[i, j] = scalars.to_float(v)
        return a


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


def solve_exact(a, b):
    """Solve A x = b exactly over QC for square invertible A.

    ``a`` is a list of row lists, ``b`` a list; raises ValueError when A is
    singular. Used for Vandermonde systems in interpolation.
    """
    n = len(a)
    aug = [[QC.coerce(v) for v in row] + [QC.coerce(b[i])] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("singular system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [vr - f * vc for vr, vc in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def inverse_exact(m):
    """Exact inverse of a rational-domain matrix; ValueError when singular."""
    if m.domain != RATIONAL or m.rows != m.cols:
        raise ValueError("inverse requires a square rational matrix")
    n = m.rows
    cols = []
    for j in range(n):
        e = [QC(Fraction(int(i == j))) for i in range(n)]
        dense = [[m.get(i, k) for k in range(n)] for i in range(n)]
        cols.append(solve_exact(dense, e))
    entries = {}
    for j, col in enumerate(cols):
        for i, v in enumerate(col):
            if v:
                entries[(i, j)] = v
    return Matrix(n, n, entries, RATIONAL)
