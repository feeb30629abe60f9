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
from .hypergraph import StructureTooLarge, build_structure, make_family, structure_dims
from .matrix import rank
from .named import ghz, mamu
from .obstructions import KoszulSpec, flattening_ratio, gauge_points, koszul_flatten
from .preorder import (
    CertificateError,
    DegenerationCertificate,
    _interpolate,
    verify_degeneration,
)
from .tensor import equal_up_to_padding, kron_power, strip_padding

MATRIX_SIDE_GUARD = 10**5
STRUCTURE_ENTRY_GUARD = 10**6


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
    """r when t is (a padding of) the size-r unit tensor in diagonal form."""
    s = strip_padding(t)
    if s.is_zero():
        return None
    r = s.nnz()
    if s == ghz(r, s.order):
        return r
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
            if t.dims[0] * spec.out_rows > MATRIX_SIDE_GUARD:
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
    for entry_id in catalog.ids():
        entry = catalog.get(entry_id)
        if not equal_up_to_padding(entry.tensor, t):
            continue
        if entry.degeneration is not None:
            src = unit_size(entry.degeneration.source)
            if src is not None:
                upper_candidates.append(
                    Bound(
                        Fraction(src),
                        "verified degeneration from a unit tensor (border rank witness)",
                        {"kind": "certificate", "id": entry_id, "r": src},
                    )
                )
        if entry.decomposition is not None:
            upper_candidates.append(
                Bound(
                    Fraction(len(entry.decomposition)),
                    "verified decomposition (rank witness)",
                    {"kind": "decomposition", "id": entry_id, "terms": len(entry.decomposition)},
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
    of verified catalog decompositions of the n-th Kronecker powers.
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
    entries = [catalog.get(i) for i in catalog.ids()]
    power = None
    for n in range(1, n_max + 1):
        power = t if n == 1 else kron_power(t, n)
        for entry in entries:
            if entry.decomposition is None:
                continue
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

    Verifies the edge degeneration t |> other (degrees d, e), places its
    eps maps on every edge of the n-face patch, and interpolates once
    globally. The structure degeneration is not expanded: each structure
    entry is a product of n edge entries, so its degrees are (n*d, n*e).
    The result is an exactly verified restriction from a direct sum of
    n*e + 1 structure copies.
    """
    ok, d, e = verify_degeneration(t, other, degcert)
    if not ok:
        raise CertificateError("degeneration certificate does not verify")
    h = make_family(family, n)
    for assignment in (t, other):
        dims = structure_dims(h, assignment)
        if math.prod(dims) > STRUCTURE_ENTRY_GUARD:
            raise StructureTooLarge(
                f"structure over {family} n={n} has {math.prod(dims)} potential entries"
            )
    source = build_structure(h, t)
    target = build_structure(h, other)
    slots = h.vertex_slots()
    maps = []
    for vs in slots:
        m = None
        for pos, _e in vs:
            factor = degcert.maps[pos]
            m = factor if m is None else m.kron(factor)
        maps.append(m)
    structure_cert = DegenerationCertificate(tuple(maps), d=d * n, e=e * n)
    return _interpolate(source, target, structure_cert, d * n, e * n)


def omega_bound(alpha, beta):
    """log2(alpha/beta); the caller certifies the two conversion premises."""
    if beta <= 0 or alpha <= 0:
        raise ValueError("omega_bound needs positive alpha and beta")
    if alpha < beta:
        raise ValueError("omega_bound needs alpha >= beta")
    return math.log2(float(alpha) / float(beta))
