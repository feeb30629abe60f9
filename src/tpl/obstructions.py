"""Monotone functionals used as obstructions.

Gauge points (single-factor flattening ranks), the 2x2x2 hyperdeterminant,
Koszul flattenings on the third factor with the normalized ratio bound, and
point evaluation of the entropy-weighted spectral functional.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from . import scalars
from .matrix import Matrix, flatten, rank
from .scalars import EPS, RATIONAL, QC, _Record, _set_field
from .tensor import DENSE_ENTRY_GUARD, StructureTooLarge, _tensor

MATRIX_SIDE_GUARD = 10**5


def _check_gauge_order(t):
    if t.order < 2:
        raise ValueError(f"gauge points need a tensor of order at least 2, got order {t.order}")


def gauge_points(t):
    """Flattening rank of each single factor against the rest (order at least 2)."""
    _check_gauge_order(t)
    return tuple(rank(flatten(t, {j})) for j in range(t.order))


def hyperdeterminant_222(t):
    """Cayley's degree-4 hyperdeterminant of a 2x2x2 tensor, exactly.

    The discriminant b^2 - 4ac of det(A_0 + x A_1) = a x^2 + b x + c, where
    A_k is the slice t[:, :, k]. Vanishes on the W orbit closure and is
    nonzero on GHZ; under factor maps it scales by the squared product of
    the determinants.
    """
    if t.dims != (2, 2, 2):
        raise ValueError(f"hyperdeterminant needs dims (2,2,2), got {t.dims}")
    if t.domain != RATIONAL:
        raise ValueError("hyperdeterminant needs the exact rational domain")

    def e(i, j, k):
        return t.entries.get((i, j, k), scalars.QC_ZERO)

    def det(k):
        return e(0, 0, k) * e(1, 1, k) - e(0, 1, k) * e(1, 0, k)

    b = (
        e(0, 0, 0) * e(1, 1, 1) + e(0, 0, 1) * e(1, 1, 0)
        - e(0, 1, 0) * e(1, 0, 1) - e(0, 1, 1) * e(1, 0, 0)
    )
    return b * b - QC(4) * det(0) * det(1)


class KoszulSpec(_Record):
    """Koszul flattening parameters: third-factor dimension and wedge level p."""

    __match_args__ = ("d3", "p")

    def __init__(self, d3, p):
        scalars.check_ints((d3, p), "Koszul d3 and p")
        if d3 < 1:
            raise ValueError("d3 must be positive")
        if not (0 <= p <= d3 - 1):
            raise ValueError(f"need 0 <= p <= d3-1, got p={p}, d3={d3}")
        _set_field(self, "d3", d3)
        _set_field(self, "p", p)

    @property
    def out_rows(self):
        return math.comb(self.d3, self.p + 1)

    @property
    def out_cols(self):
        return math.comb(self.d3, self.p)


def _koszul_size_error(t, spec):
    """Why the Koszul flattening of t at ``spec`` may not be built, or None: its one size rule.

    Refused, in this order: over ``DENSE_ENTRY_GUARD`` wedge basis subsets, C(d3, p) + C(d3, p+1);
    a longer side, max(d1 C(d3, p+1), d2 C(d3, p)), over ``MATRIX_SIDE_GUARD``, as exact rank
    slows with the sides; over ``DENSE_ENTRY_GUARD`` possible entries, nnz * C(d3-1, p).
    """
    where = f"Koszul flattening (d3={spec.d3}, p={spec.p})"
    subsets = spec.out_cols + spec.out_rows
    if subsets > DENSE_ENTRY_GUARD:
        return f"{where} lists {subsets} wedge basis subsets, over {DENSE_ENTRY_GUARD}"
    side = max(t.dims[0] * spec.out_rows, t.dims[1] * spec.out_cols)
    if side > MATRIX_SIDE_GUARD:
        return f"{where}: flattening matrix side {side} exceeds {MATRIX_SIDE_GUARD}"
    entries = t.nnz() * math.comb(spec.d3 - 1, spec.p)
    if entries > DENSE_ENTRY_GUARD:
        return f"{where} may hold {entries} entries, over {DENSE_ENTRY_GUARD}"
    return None


def _wedge_table(cols_subs, rows_of, c):
    """(row index, column index, sign is +) of e_S ^ e_c for each p-subset S without c.

    The sign is (-1)^(number of elements of S above c), from sorted insertion.
    """
    table = []
    for j, s in enumerate(cols_subs):
        if c in s:
            continue
        bigger = sum(1 for x in s if x > c)
        table.append((rows_of[tuple(sorted(s + (c,)))], j, bigger % 2 == 0))
    return table


def koszul_flatten(t, spec):
    """Apply the Koszul intertwiner on the third factor of an order-3 tensor.

    Result shape: (d1 * C(d3, p+1)) x (d2 * C(d3, p)), wedge basis ordered
    lexicographically by index set, signs from sorted insertion. Entries stay
    in the tensor's domain. The wedge table of each third index is built
    once, for the indices that occur in t. Before anything is listed, an
    order other than 3 or a third dimension other than ``spec.d3`` raises
    ValueError, and a flattening over :func:`_koszul_size_error` raises
    StructureTooLarge.
    """
    if t.order != 3:
        raise ValueError("koszul_flatten needs an order-3 tensor")
    d1, d2, d3 = t.dims
    if d3 != spec.d3:
        raise ValueError(f"third dimension {d3} does not match spec d3={spec.d3}")
    error = _koszul_size_error(t, spec)
    if error:
        raise StructureTooLarge(error)
    rows_of = {s: i for i, s in enumerate(combinations(range(d3), spec.p + 1))}
    cols_subs = list(combinations(range(d3), spec.p))
    n_rows, n_cols = len(rows_of), len(cols_subs)
    tables = {}
    entries = {}
    for (a, b, c), v in t.entries.items():
        table = tables.get(c)
        if table is None:
            table = tables[c] = _wedge_table(cols_subs, rows_of, c)
        neg = -v
        row0, col0 = a * n_rows, b * n_cols
        # Each key is written once: (row, col) gives back a, b, the column's subset S
        # and c, the one element of the row's subset outside S.
        for i, j, positive in table:
            entries[row0 + i, col0 + j] = v if positive else neg
    return _tensor((d1 * n_rows, d2 * n_cols), entries, t.domain, Matrix)


def max_simple_koszul_rank(spec, trials=64, seed=0):
    """Denominator of the ratio bound: max flattening rank of simple tensors.

    Every nonzero simple tensor a (x) b (x) c has the same rank,
    rank F(s) = rank(v -> c ^ v on the p-th wedge power) = C(d3-1, p), by
    exactness of the Koszul complex. ``trials`` and ``seed`` are accepted
    and have no effect.
    """
    return math.comb(spec.d3 - 1, spec.p)


def flattening_ratio(t, spec, trials=64, seed=0):
    """Ratio lower bound: rank F(t) / max over simple tensors of rank F(s).

    The numerator is the exact rank of the Koszul flattening of t; the
    denominator is the closed value C(d3-1, p) of
    :func:`max_simple_koszul_rank`, which is at least 1. Returned as an exact
    Fraction. ``trials`` and ``seed`` are accepted and have no effect.
    """
    return Fraction(rank(koszul_flatten(t, spec)), max_simple_koszul_rank(spec))


class ThetaWeights(_Record):
    """Probability weights over the factor positions."""

    __match_args__ = ("weights",)

    def __init__(self, weights):
        w = tuple(weights)
        if not all(x >= 0 for x in w):  # also refuses NaN, which no comparison holds for
            raise ValueError("theta weights must be nonnegative")
        total = sum(w)
        if isinstance(total, Fraction):
            if total != 1:
                raise ValueError(f"theta weights sum to {total}, expected 1")
        elif abs(float(total) - 1.0) > 1e-12:
            raise ValueError(f"theta weights sum to {total}, expected 1")
        _set_field(self, "weights", w)

    @classmethod
    def uniform(cls, k):
        return cls(tuple(Fraction(1, k) for _ in range(k)))


def flattening_entropy(t, j):
    """Base-2 Shannon entropy of the normalized squared singular values."""
    import numpy as np

    m = flatten(t, {j})
    sigma = np.linalg.svd(m.to_numpy(), compute_uv=False)
    sq = sigma**2
    total = sq.sum()
    if total == 0.0:
        raise ValueError("zero tensor has no flattening spectrum")
    probs = sq / total
    probs = probs[probs > 0]
    return float(-(probs * np.log2(probs)).sum())


def quantum_functional_point(t, theta):
    """Point evaluation 2^(sum_j theta_j H(t_j)) at the tensor itself.

    This is the inner expression of the entropy functional evaluated at
    t' = t, hence a lower bound on the supremum over degenerations.
    """
    if t.is_zero():
        raise ValueError("quantum functional of the zero tensor is undefined")
    if t.domain == EPS:
        raise ValueError("quantum functional needs a numeric or rational tensor")
    if not isinstance(theta, ThetaWeights):
        theta = ThetaWeights(tuple(theta))
    if len(theta.weights) != t.order:
        raise ValueError(f"{len(theta.weights)} weights for order-{t.order} tensor")
    exponent = sum(
        float(w) * flattening_entropy(t, j) for j, w in enumerate(theta.weights) if w
    )
    return float(2.0**exponent)
