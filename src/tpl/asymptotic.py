"""Witness-backed bound reports for the asymptotic rank quantities.

Every reported bound carries a machine-checkable witness: a gauge point or
flattening spec on the lower side, a verified catalog certificate or
decomposition on the upper side. Nothing is taken from literature numbers
without data that re-verifies.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .catalog import Catalog
from .hypergraph import make_family, structure_dims
from .matrix import flatten, rank
from .named import mamu
from .obstructions import KoszulSpec, flattening_ratio, koszul_flatten, _check_gauge_order, _koszul_size_error
from .preorder import CertificateError, _interpolation_certificate, verify_degeneration
from .scalars import RATIONAL, _Record, _set_field, check_ints
from .tensor import equal_up_to_padding, kron, strip_padding


class Root(_Record):
    """The exact real number ``radicand`` ** (1 / ``index``), for ints radicand >= 0 and index >= 1.

    Comparisons are exact: r^(1/n) against a rational p/q >= 0 compares
    r * q^n with p^n, and r^(1/n) against s^(1/m) compares r^m with s^n. A
    Root equals any Root or rational of the same value, so it is not
    hashable. Its float is ``float(radicand) ** (1.0 / index)``.
    """

    __match_args__ = ("radicand", "index")

    def __init__(self, radicand, index):
        _set_field(self, "radicand", radicand)
        _set_field(self, "index", index)

    def __float__(self):
        return float(self.radicand) ** (1.0 / self.index)

    def _sign(self, other):
        """The sign of self - other, for a Root or a rational other."""
        if isinstance(other, Root):
            a, b = self.radicand**other.index, other.radicand**self.index
        else:
            other = Fraction(other)
            if other < 0:
                return 1
            a, b = self.radicand * other.denominator**self.index, other.numerator**self.index
        return (a > b) - (a < b)

    def __eq__(self, other):
        return self._sign(other) == 0

    def __lt__(self, other):
        return self._sign(other) < 0

    def __gt__(self, other):
        return self._sign(other) > 0


class Bound(_Record):
    """A bound ``value`` (a Fraction, or a Root for the root of a Kronecker-power rank) and its witness.

    ``ref`` is a dict of the witness's data; without one the bound gets a new
    empty dict.
    """

    __match_args__ = ("value", "witness", "ref")

    def __init__(self, value, witness, ref=None):
        _set_field(self, "value", value)
        _set_field(self, "witness", witness)
        _set_field(self, "ref", {} if ref is None else ref)

    def as_float(self):
        return float(self.value)

    def exceeds(self, other):
        """True iff this bound's value is above ``other``'s, compared exactly."""
        return self.value > other.value

    def to_json(self):
        value = self.value
        out = {"value": str(value) if isinstance(value, Fraction) else float(value)}
        out["witness"] = self.witness
        if self.ref:
            out["ref"] = self.ref
        return out


class BoundReport(_Record):
    """Lower and upper ``Bound`` (either may be None) of one quantity; the lower may not exceed the upper.

    ``table`` (a list) and ``extras`` (a dict) default to new empty ones.
    """

    __match_args__ = ("quantity", "lower", "upper", "table", "extras")

    def __init__(self, quantity, lower=None, upper=None, table=None, extras=None):
        if lower and upper and lower.exceeds(upper):
            raise ValueError(f"{quantity}: lower bound {lower.value} exceeds upper bound {upper.value}")
        _set_field(self, "quantity", quantity)
        _set_field(self, "lower", lower)
        _set_field(self, "upper", upper)
        _set_field(self, "table", [] if table is None else table)
        _set_field(self, "extras", {} if extras is None else extras)

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
    """r when t is (a padding of) the size-r unit tensor: rational, each of its r entries a diagonal 1.

    A tensor that is not rational, or has an entry other than 1, gives None
    before any padding is stripped.
    """
    if t.domain != RATIONAL or any(v != 1 for v in t.entries.values()):
        return None
    s = strip_padding(t)
    if s.is_zero() or not all(len(set(idx)) == 1 for idx in s.entries):
        return None
    return s.nnz()


def _best_lower(t, koszul=True):
    """The first best flattening lower bound of t, by branch and bound over the candidates' ceilings.

    The candidates, in their listing order: gauge point j = 0..k-1, then,
    with ``koszul`` and t of order 3, the Koszul ratio at each level
    p = 1..d3-1 that :func:`_koszul_size_error` admits. A candidate's value
    is at most its ceiling, min(rows, cols) of its matrix over its
    denominator: min(d_j, the product of the other dims) for gauge j, and
    min(d1 C(d3, p+1), d2 C(d3, p)) / C(d3-1, p) for Koszul p.

    Candidates are taken in descending order of ceiling, equal ceilings in
    listing order. One is skipped when its ceiling is below the best so
    far, or equal to it and listed after the best. A ranked candidate
    replaces the best when its value is higher, or equal and listed before
    it. The result is the first best in listing order: that candidate is
    never skipped, since its ceiling is at least its value, which is at
    least the best so far, and once ranked nothing displaces it.
    """
    _check_gauge_order(t)
    size = math.prod(t.dims)
    # (ceiling, listing position, Koszul spec or None for a gauge point)
    candidates = [(min(d, size // d), j, None) for j, d in enumerate(t.dims)]
    if koszul and t.order == 3:
        d1, d2, d3 = t.dims
        for p in range(1, d3):
            spec = KoszulSpec(d3, p)
            ceiling = Fraction(min(d1 * spec.out_rows, d2 * spec.out_cols), math.comb(d3 - 1, p))
            candidates.append((ceiling, len(candidates), spec))
    candidates.sort(key=lambda c: c[0], reverse=True)  # stable: equal ceilings stay in listing order
    best = at = None
    for ceiling, position, spec in candidates:
        if best is not None and (ceiling < best.value or (ceiling == best.value and position > at)):
            continue
        if spec is None:
            value = Fraction(rank(flatten(t, {position})))
            bound = Bound(value, "gauge point", {"kind": "gauge", "factor": position})
        elif _koszul_size_error(t, spec):
            continue
        else:
            value = flattening_ratio(t, spec)
            ref = {"kind": "koszul", "d3": spec.d3, "p": spec.p, "ratio": str(value)}
            bound = Bound(value, f"koszul flattening ratio (d3={spec.d3}, p={spec.p})", ref)
        if best is None or value > best.value or (value == best.value and position < at):
            best, at = bound, position
    return best


def disjoint_rank_bounds(t, catalog=None, trials=16, seed=0):
    """Bounds on the disjoint asymptotic rank.

    Lower: the best of the gauge points and Koszul flattening ratios (both
    multiplicative under the disjoint product), listed gauge points 0..k-1
    first, then Koszul levels p = 1..d3-1; of equal values the first listed
    wins. Candidates are ranked highest ceiling first, the ceiling being
    min(rows, cols) of the matrix over its denominator, and one that cannot
    beat the best so far is skipped (see :func:`_best_lower`). Upper:
    border-rank witnesses, i.e. the smallest unit-tensor source among
    verified degeneration certificates (and exact decompositions) in the
    catalog targeting t, or r when t itself is a unit tensor. ``trials`` and
    ``seed`` are accepted and have no effect: the Koszul ratio denominators
    are closed values.
    """
    catalog = catalog or Catalog.default()
    lower = _best_lower(t)
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
    the Kronecker product and monotone under restriction), the first one of
    equal values. Gauge points are ranked in descending order of their
    ceiling min(d_j, the product of the other dims), and one whose ceiling
    cannot beat the best so far is skipped (see :func:`_best_lower`).
    Upper: n-th roots of verified catalog decompositions of the n-th
    Kronecker powers, held as exact :class:`Root` values and compared
    exactly. The powers stop early once nnz(t)^n, the entry count of the
    n-th power of an exact tensor, exceeds that of every decomposed catalog
    tensor.
    """
    catalog = catalog or Catalog.default()
    lower = _best_lower(t, koszul=False)
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
            value = Fraction(terms) if n == 1 else Root(terms, n)
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
    covering c >= 1 (an int), and only the single-copy ranks are computed.
    Both flattenings are built first, so what :func:`koszul_flatten`
    refuses on either side is refused before any rank.
    """
    check_ints((covering,), "covering")
    if covering < 1:
        raise ValueError("covering must be >= 1")
    ft, fo = koszul_flatten(t, spec), koszul_flatten(other, spec)
    return rank(ft) < rank(fo)


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
