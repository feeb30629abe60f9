"""Constructors for the standard named tensors.

All constructors return rational-domain tensors with entries equal to 1
unless stated otherwise. ``unit`` is an alias for ``ghz``: the unit tensor
of size r on k factors is the r-level GHZ state. ``ghz`` (so ``unit``, ``epr``
and ``simple``), ``mamu`` and ``cw`` refuse a size that is not an int, and raise
StructureTooLarge before building over ``DENSE_ENTRY_GUARD`` index components (entries times order).
"""

from __future__ import annotations

from .scalars import QC_ONE, RATIONAL, _Record, _check_index_components, _set_field, check_ints
from .tensor import Tensor

NAMES = ("GHZ", "W", "EPR", "MaMu", "CW", "Unit")


def ghz(r, k=3):
    """r-level GHZ state on k factors: entries 1 at (i, i, ..., i)."""
    check_ints((r, k), "ghz r and k")
    if r < 1 or k < 1:
        raise ValueError("ghz needs r >= 1 and k >= 1")
    _check_index_components("GHZ", r, k)
    return Tensor((r,) * k, {(i,) * k: QC_ONE for i in range(r)}, RATIONAL)


def unit(r, k=3):
    return ghz(r, k)


def w_state():
    """Order-3 W state on qubit dimensions: entries at 001, 010, 100."""
    return Tensor(
        (2, 2, 2),
        {(0, 0, 1): QC_ONE, (0, 1, 0): QC_ONE, (1, 0, 0): QC_ONE},
        RATIONAL,
    )


def epr(d):
    """d-level EPR pair: the d-by-d identity matrix as a 2-tensor."""
    return ghz(d, 2)


def mamu(d):
    """d-by-d matrix multiplication tensor, dims (d^2, d^2, d^2).

    Entry 1 at ((i1,i2), (i2,i3), (i3,i1)) with each pair packed row-major.
    """
    check_ints((d,), "mamu d")
    if d < 1:
        raise ValueError("mamu needs d >= 1")
    _check_index_components("MaMu", d**3, 3)
    entries = {}
    for i1 in range(d):
        for i2 in range(d):
            for i3 in range(d):
                entries[(i1 * d + i2, i2 * d + i3, i3 * d + i1)] = QC_ONE
    return Tensor((d * d,) * 3, entries, RATIONAL)


def cw(q):
    """q-level EPR pairs embedded in a W pattern: dims (q+1)^3, 3q entries."""
    check_ints((q,), "cw q")
    if q < 1:
        raise ValueError("cw needs q >= 1")
    _check_index_components("CW", 3 * q, 3)
    entries = {}
    for i in range(1, q + 1):
        entries[(i, i, 0)] = QC_ONE
        entries[(0, i, i)] = QC_ONE
        entries[(i, 0, i)] = QC_ONE
    return Tensor((q + 1,) * 3, entries, RATIONAL)


def simple(k=3):
    """Order-k simple (product) tensor of dimension 1 per factor."""
    return ghz(1, k)


class NamedTensorSpec(_Record):
    """Name plus parameters selecting one of the named tensors; ``params`` defaults to a new empty dict."""

    __match_args__ = ("name", "params")

    def __init__(self, name, params=None):
        if name not in NAMES:
            raise ValueError(f"unknown tensor name {name!r}; expected one of {NAMES}")
        _set_field(self, "name", name)
        _set_field(self, "params", {} if params is None else params)


def make_named(spec):
    """Build the tensor a NamedTensorSpec describes; every parameter must be an int.

    The size guard is the constructor's own (see the module docstring).
    """
    p = spec.params
    check_ints(p.values(), f"{spec.name} parameters")
    if spec.name in ("GHZ", "Unit"):
        return ghz(p["r"], p.get("k", 3))
    if spec.name == "W":
        return w_state()
    if spec.name == "EPR":
        return epr(p["d"])
    if spec.name == "MaMu":
        return mamu(p["d"])
    if spec.name == "CW":
        return cw(p["q"])
    raise ValueError(f"unknown tensor name {spec.name!r}")
