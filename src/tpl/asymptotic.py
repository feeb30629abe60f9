"""Witness-backed bound reports for the asymptotic rank quantities.

Every reported bound carries a machine-checkable witness: a gauge point or
flattening spec on the lower side, a verified catalog certificate or
decomposition on the upper side. Nothing is taken from literature numbers
without data that re-verifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .catalog import Catalog
from .hypergraph import make_family, structure_dims
from .matrix import rank
from .named import mamu
from .obstructions import KoszulSpec, flattening_ratio, gauge_points, koszul_flatten, _koszul_size_error
from .preorder import CertificateError, _interpolation_certificate, verify_degeneration
from .scalars import RATIONAL
from .tensor import StructureTooLarge, equal_up_to_padding, kron, strip_padding

MATRIX_SIDE_GUARD = 10**5


@dataclass(frozen=True)
class Bound:
    value: object  # Fraction for exact bounds, float otherwise
    witness: str
    ref: dict = field(default_factory=dict)

    def as_float(self):
        return float(self.value)

    def exceeds(self, other):
        """True iff this bound's value is above ``other``'s.

        Exact when both values are Fractions; otherwise the floats are
        compared with a 1e-12 slack.
        """
        if isinstance(self.value, Fraction) and isinstance(other.value, Fraction):
            return self.value > other.value
        return self.as_float() > other.as_float() + 1e-12

    def to_json(self):
        value = self.value
        out = {"value": str(value) if isinstance(value, Fraction) else value}
        out["witness"] = self.witness
        if self.ref:
            out["ref"] = self.ref
        return out


@dataclass(frozen=True)
class BoundReport:
    quantity: str
    lower: Bound | None = None
    upper: Bound | None = None
    table: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lower and self.upper:
            if self.lower.exceeds(self.upper):
                raise ValueError(
                    f"{self.quantity}: lower bound {self.lower.value} exceeds "
                    f"upper bound {self.upper.value}"
                )

    def to_json(self):
        obj = {"quantity": self.quantity}
        obj["lower"] = self.lower.to_json() if self.lower else None
        obj["upper"] = self.upper.to_json() if self.upper else None
        if self.table:
            obj["table"] = self.table
        if self.extras:
            obj["extras"] = self.extras
        return obj


def unit_size(t):
    """r when t is (a padding of) the size-r unit tensor: rational, each of its r entries a diagonal 1."""
    s = strip_padding(t)
    if s.is_zero() or s.domain != RATIONAL:
        return None
    if all(v == 1 and len(set(idx)) == 1 for idx, v in s.entries.items()):
        return s.nnz()
    return None


def _flattening_lower_bounds(t):
    """Gauge points first, then configured Koszul ratios (order 3 only)."""
    candidates = []
    for j, r in enumerate(gauge_points(t)):
        candidates.append(Bound(Fraction(r), "gauge point", {"kind": "gauge", "factor": j}))
    if t.order == 3:
        d3 = t.dims[2]
        for p in range(1, d3):
            spec = KoszulSpec(d3, p)
            if t.dims[0] * spec.out_rows > MATRIX_SIDE_GUARD or _koszul_size_error(t, spec):
                continue
            ratio = flattening_ratio(t, spec)
            candidates.append(
                Bound(
                    ratio,
                    f"koszul flattening ratio (d3={d3}, p={p})",
                    {"kind": "koszul", "d3": d3, "p": p, "ratio": str(ratio)},
                )
            )
    return candidates


def _best_lower(candidates):
    best = None
    for c in candidates:
        if best is None or c.exceeds(best):
            best = c
    return best


def disjoint_rank_bounds(t, catalog=None, trials=16, seed=0):
    """Bounds on the disjoint asymptotic rank.

    Lower: the best of the gauge points and Koszul flattening ratios (both
    multiplicative under the disjoint product). Upper: border-rank witnesses,
    i.e. the smallest unit-tensor source among verified degeneration
    certificates (and exact decompositions) in the catalog targeting t, or r
    when t itself is a unit tensor. ``trials`` and ``seed`` are accepted and
    have no effect: the Koszul ratio denominators are closed values.
    """
    catalog = catalog or Catalog.default()
    lower = _best_lower(_flattening_lower_bounds(t))
    upper_candidates = []
    r = unit_size(t)
    if r is not None:
        upper_candidates.append(
            Bound(Fraction(r), "unit tensor of size r", {"kind": "unit", "r": r})
        )
    for entry in catalog.load_all():
        if not equal_up_to_padding(entry.tensor, t):
            continue
        if entry.degeneration is not None:
            src = unit_size(entry.degeneration.source)
            if src is not None:
                upper_candidates.append(
                    Bound(
                        Fraction(src),
                        "verified degeneration from a unit tensor (border rank witness)",
                        {"kind": "certificate", "id": entry.id, "r": src},
                    )
                )
        if entry.decomposition is not None:
            upper_candidates.append(
                Bound(
                    Fraction(len(entry.decomposition)),
                    "verified decomposition (rank witness)",
                    {"kind": "decomposition", "id": entry.id, "terms": len(entry.decomposition)},
                )
            )
    upper = None
    for c in upper_candidates:
        if upper is None or upper.exceeds(c):
            upper = c
    return BoundReport("disjoint asymptotic rank", lower=lower, upper=upper)


def strassen_rank_bounds(t, n_max=2, catalog=None):
    """Bounds on the Kronecker-power asymptotic rank.

    Lower: the largest gauge point (flattening ranks are multiplicative under
    the Kronecker product and monotone under restriction). Upper: n-th roots
    of verified catalog decompositions of the n-th Kronecker powers. The
    powers stop early once nnz(t)^n, the entry count of the n-th power of
    an exact tensor, exceeds that of every decomposed catalog tensor.
    """
    catalog = catalog or Catalog.default()
    gauges = gauge_points(t)
    best_j = max(range(len(gauges)), key=lambda j: gauges[j])
    lower = Bound(
        Fraction(gauges[best_j]), "gauge point", {"kind": "gauge", "factor": best_j}
    )
    table = []
    upper = None
    r = unit_size(t)
    if r is not None:
        upper = Bound(Fraction(r), "unit tensor of size r", {"kind": "unit", "r": r})
        table.append({"n": 1, "terms": r, "bound": float(r)})
    entries = [entry for entry in catalog.load_all() if entry.decomposition is not None]
    most = max((entry.tensor.nnz() for entry in entries), default=0)
    power = t
    for n in range(1, n_max + 1):
        if t.nnz() ** n > most:
            break
        if n > 1:
            power = kron(power, t)
        for entry in entries:
            if not equal_up_to_padding(entry.tensor, power):
                continue
            terms = len(entry.decomposition)
            value = Fraction(terms) if n == 1 else float(terms) ** (1.0 / n)
            table.append({"n": n, "terms": terms, "bound": float(value), "id": entry.id})
            cand = Bound(
                value,
                f"verified {terms}-term decomposition of the Kronecker power n={n}",
                {"kind": "decomposition", "id": entry.id, "n": n, "terms": terms},
            )
            if upper is None or upper.exceeds(cand):
                upper = cand
    extras = {}
    if t.dims == (4, 4, 4) and equal_up_to_padding(t, mamu(2)):
        omega = {"premise": "exponent = log2 of the asymptotic rank of the 2x2 matrix multiplication tensor"}
        if lower:
            omega["lower"] = math.log2(lower.as_float())
        if upper:
            omega["upper"] = math.log2(upper.as_float())
        extras["omega"] = omega
    return BoundReport("strassen asymptotic rank", lower=lower, upper=upper, table=table, extras=extras)


def lattice_obstruction(t, other, covering, spec):
    """True iff the Koszul rank comparison obstructs t >~ other on the lattice.

    The covering-fold flattening is the c-fold Kronecker product of the
    single-copy Koszul flattening F, and rank(A (x) B) = rank(A) * rank(B)
    over any field, so rank F(t)^c < rank F(other)^c exactly when
    rank F(t) < rank F(other). The answer therefore does not depend on the
    covering c >= 1, and only the single-copy ranks are computed.
    """
    if t.order != 3 or other.order != 3:
        raise ValueError("lattice_obstruction needs order-3 tensors")
    if covering < 1:
        raise ValueError("covering must be >= 1")
    for side, tensor in (("source", t), ("target", other)):
        if tensor.dims[2] != spec.d3:
            raise ValueError(
                f"{side} third dimension {tensor.dims[2]} does not match spec d3={spec.d3}"
            )
        matrix_side = max(tensor.dims[0] * spec.out_rows, tensor.dims[1] * spec.out_cols)
        if matrix_side > MATRIX_SIDE_GUARD:
            raise StructureTooLarge(
                f"flattening matrix side {matrix_side} exceeds {MATRIX_SIDE_GUARD}"
            )
    return rank(koszul_flatten(t, spec)) < rank(koszul_flatten(other, spec))


def lattice_construction(t, other, degcert, family, n):
    """Edgewise degeneration on a lattice patch, closed by interpolation.

    Verifies the edge degeneration t |> other, measuring its degrees (d, e),
    and places its eps maps on the k = ``h.n_edges`` edges of the n-face
    patch: each vertex map is the Kronecker product of its edges' maps. The
    structure image is the grouped tensor product of the k edge images, and
    eps degrees add under it (a product of nonzero tensors over Q(i) is
    nonzero), so the vertex maps degenerate the source structure to the
    target one with (D, E) = (k*d, k*e), derived rather than measured: no
    structure is built. No eps vertex map is built either: evaluation
    commutes with the Kronecker product, so the interpolation evaluates each
    edge map once at the E + 1 points and forms each vertex block as the
    integer Kronecker product of those values. Its guard is the only one:
    an evaluation table or vertex blocks over the dense size guard raise
    StructureTooLarge before any evaluation.
    """
    ok, d, e = verify_degeneration(t, other, degcert)
    if not ok:
        raise CertificateError("degeneration certificate does not verify")
    h = make_family(family, n)
    k, factors = h.n_edges, [[degcert.maps[pos] for pos, _edge in vs] for vs in h.vertex_slots()]
    return _interpolation_certificate(structure_dims(h, t), structure_dims(h, other), factors, k * d, k * e)


def omega_bound(alpha, beta):
    """log2(alpha/beta); the caller certifies the two conversion premises."""
    if beta <= 0 or alpha <= 0:
        raise ValueError("omega_bound needs positive alpha and beta")
    if alpha < beta:
        raise ValueError("omega_bound needs alpha >= beta")
    return math.log2(float(alpha) / float(beta))
