"""Scalar domains for tensor entries.

Three domains are supported:

* ``rational`` -- complex numbers with exact rational real/imaginary parts
  (:class:`QC`); all algebra is exact.
* ``eps`` -- polynomials in a formal degeneration parameter with ``QC``
  coefficients (:class:`EpsPoly`); used by degeneration certificates.
* ``float`` -- ordinary Python ``complex``; used for float tensors, float
  rank and spectrum computations, never by a certificate.

Every tensor or matrix carries exactly one domain and all its entries are
values of that domain.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

RATIONAL = "rational"
EPS = "eps"
FLOAT = "float"

# Largest structure, in entries, that any builder builds. The guard sits here,
# at the bottom of the import graph, so every builder can call it (tensor re-exports it).
DENSE_ENTRY_GUARD = 10**6


class StructureTooLarge(ValueError):
    """Desk-scale guard: the requested finite structure will not fit."""


def check_entry_count(count, what):
    """Raise StructureTooLarge when ``count``, the entries of ``what``, exceeds the guard."""
    if count > DENSE_ENTRY_GUARD:
        raise StructureTooLarge(f"{what} exceeds the entry guard {DENSE_ENTRY_GUARD}")


def _check_index_components(name, entries, order):
    """Raise StructureTooLarge when ``entries`` index tuples of length ``order`` exceed the guard."""
    components = entries * order
    check_entry_count(components, f"{name} of {entries} entries of order {order} ({components} index components)")


def check_ints(values, what, error=ValueError):
    """``values`` as a tuple; raise ``error`` unless each one is an ``int``.

    This is the one rule for indices, dimensions, positions and degrees:
    a bool, a float (even 2.0) or a numpy integer is refused, never
    truncated, so no input is read as a different one.
    """
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            raise error(f"{what} must be ints, got {v!r}")
    return values


# Sets a field of a record past its refusing ``__setattr__``. Writing through
# ``self.__dict__`` instead would be quicker to build but about three times
# slower to read: the instance dict is then materialized.
_set_field = object.__setattr__


class _Record:
    """Base of the immutable record classes: field-wise ``==``, ``hash`` and ``repr``.

    A subclass names its fields, in order, in ``__match_args__``. Its
    ``__init__`` checks the values and sets them with ``_set_field``, because
    assigning or deleting an attribute raises AttributeError. Two records are
    equal when they are of the same class and their field tuples are equal,
    so a record never equals a tuple. Copy and pickle restore the instance
    ``__dict__`` without assigning, which is why records have no
    ``__slots__``.
    """

    def _values(self):
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_INTEGER = r"[+-]?[0-9]+"
_FRACTION = re.compile(f"({_INTEGER})(?:/([0-9]+))?")


def _fraction_parts(s):
    """(p, q) of an int or of a string "p" or "p/q" (``[+-]?digits[/digits]``).

    Only ASCII digits match. A bool, a float or any other form raises
    ValueError; q may be 0, and the caller decides what that means.
    """
    if type(s) is int:
        return s, 1
    m = _FRACTION.fullmatch(s) if isinstance(s, str) else None
    if m is None:
        raise ValueError(f"not a fraction p or p/q: {s!r}")
    p, q = m.groups()
    return int(p), 1 if q is None else int(q)


def parse_fraction(s):
    """Parse "p/q" or "p" (``[+-]?digits[/digits]``) into a Fraction.

    This is the form :func:`format_fraction` writes. Ints and Fractions are
    accepted as they are. Anything else raises ValueError, so exponent
    forms such as "1e4000000", which would expand to millions of digits,
    decimals such as "1.5" and bools are rejected before any arithmetic.
    """
    if isinstance(s, Fraction):
        return s
    return Fraction(*_fraction_parts(s))


def parse_qc(real, imag):
    """The QC real + imag*i of two :func:`parse_fraction` forms (not Fractions).

    Reads the digits straight into the fields (a, b, n), with one gcd and
    no intermediate Fraction. A zero denominator raises ZeroDivisionError.
    """
    p, q = _fraction_parts(real)
    r, s = _fraction_parts(imag)
    if not q or not s:
        raise ZeroDivisionError(f"zero denominator in {real!r}, {imag!r}")
    a, b, n = p * s, r * q, q * s
    g = math.gcd(a, b, n)
    return _qc(a // g, b // g, n // g)


def parse_int(s):
    """Parse "p" (``[+-]?digits``), the integer form of :func:`parse_fraction`.

    Used for eps degree keys; "1_0", " 2" and "1.5" raise ValueError.
    """
    if isinstance(s, str) and re.fullmatch(_INTEGER, s):
        return int(s)
    raise ValueError(f"not an integer p: {s!r}")


def format_fraction(f):
    """Canonical string for a Fraction: "p" or "p/q" in lowest terms."""
    return str(f)


class QC:
    """Complex scalar with exact rational real and imaginary parts.

    The value (a + b*i)/n is stored as three integers ``(a, b, n)`` with
    n > 0 and gcd(a, b, n) == 1, so equal values have equal fields and
    arithmetic is plain integer arithmetic followed by one gcd reduction.
    ``re`` and ``im`` read the parts back as Fractions in lowest terms.
    """

    __slots__ = ("_a", "_b", "_n")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._n = re, im, 1
            return
        re = re if isinstance(re, Fraction) else Fraction(re)
        im = im if isinstance(im, Fraction) else Fraction(im)
        # Lowest-terms parts over the lcm of their denominators already have
        # gcd(a, b, n) == 1: no prime divides n without missing a or b.
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        n = q * s // math.gcd(q, s)
        self._a, self._b, self._n = p * (n // q), r * (n // s), n

    @property
    def re(self):
        return Fraction(self._a, self._n)

    @property
    def im(self):
        return Fraction(self._b, self._n)

    @classmethod
    def coerce(cls, v):
        if isinstance(v, QC):
            return v
        if isinstance(v, (int, Fraction)):
            return cls(v)
        raise TypeError(f"cannot coerce {type(v).__name__} to QC")

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        if isinstance(other, QC):
            return self._a == other._a and self._b == other._b and self._n == other._n
        if isinstance(other, int):
            return self._b == 0 and self._n == 1 and self._a == other
        if isinstance(other, Fraction):
            return self._b == 0 and self._a == other.numerator and self._n == other.denominator
        return NotImplemented

    def __hash__(self):
        # Real values hash like the equal int or Fraction.
        if self._b == 0:
            return hash(self._a) if self._n == 1 else hash(Fraction(self._a, self._n))
        return hash((self._a, self._b, self._n))

    def __add__(self, other):
        if type(other) is not QC:
            other = QC.coerce(other)
        n, n2 = self._n, other._n
        a = self._a * n2 + other._a * n
        b = self._b * n2 + other._b * n
        n *= n2
        g = math.gcd(a, b, n)
        return _qc(a // g, b // g, n // g)

    __radd__ = __add__

    def __neg__(self):
        return _qc(-self._a, -self._b, self._n)

    def __sub__(self, other):
        return self + (-QC.coerce(other))

    def __mul__(self, other):
        if type(other) is not QC:
            other = QC.coerce(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        n = self._n * other._n
        a = a1 * a2 - b1 * b2
        b = a1 * b2 + b1 * a2
        g = math.gcd(a, b, n)
        return _qc(a // g, b // g, n // g)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = QC.coerce(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        norm = a2 * a2 + b2 * b2
        if not norm:
            raise ZeroDivisionError("division by zero QC")
        a = (a1 * a2 + b1 * b2) * other._n
        b = (b1 * a2 - a1 * b2) * other._n
        n = self._n * norm
        g = math.gcd(a, b, n)
        return _qc(a // g, b // g, n // g)

    def to_complex(self):
        return complex(self._a / self._n, self._b / self._n)

    def __repr__(self):
        if not self._b:
            return f"QC({self.re})"
        return f"QC({self.re}, {self.im})"


def _qc(a, b, n):
    """QC from canonical fields (n > 0, gcd(a, b, n) == 1), unchecked."""
    v = object.__new__(QC)
    v._a, v._b, v._n = a, b, n
    return v


QC_ZERO = QC(0)
QC_ONE = QC(1)


def _common_denominator(coeffs):
    """(lcm of the QC coefficients' denominators, map n -> lcm // n)."""
    scale = {c._n: 0 for c in coeffs}
    den = math.lcm(*scale)
    for n in scale:
        scale[n] = den // n
    return den, scale


def _eval_table(polys, points):
    """Values of eps polynomials at exact points, on one integer lane per point.

    ``polys`` are EpsPoly values and ``points`` QC values u/w (u a Gaussian
    integer, w > 0). Returns, per point, ``(nums, den)``: at that point
    ``polys[j]`` is (x + y*i) / den with (x, y) = ``nums[j]``, unreduced.
    The denominators are cleared once: with D the lcm of the coefficient
    denominators and L..H the degree range widened to include 0, each
    polynomial's D*c_k are laid out once, and Horner's rule over ints gives
    S = sum_k D*c_k * u^(k-L) * w^(H-k), so the value is S / (D * w^H * u^-L).
    An integer point (w = 1) needs no w powers. A negative L (a Laurent
    term) needs a nonzero point, and a complex u leaves the denominator
    through its conjugate. The layout (polys x slots) is guarded before it is built.
    """
    polys = list(polys)
    coeffs = [c for p in polys for c in p.coeffs.values()]
    degrees = [k for p in polys for k in p.coeffs]
    low, high = min(degrees + [0]), max(degrees + [0])
    slots = high - low + 1
    check_entry_count(len(polys) * slots, f"eps evaluation layout of {len(polys)} polynomials x {slots} degrees")
    lcm, scale = _common_denominator(coeffs)
    layouts = []
    for p in polys:
        pc = p.coeffs
        row = []
        for k in range(high, low - 1, -1):
            c = pc.get(k)
            row.append((0, 0) if c is None else (c._a * scale[c._n], c._b * scale[c._n]))
        layouts.append(row)
    table = []
    for point in points:
        ua, ub, w = point._a, point._b, point._n
        rows = layouts
        if w != 1:
            wpow = [w**j for j in range(slots)]
            rows = [[(a * f, b * f) for (a, b), f in zip(row, wpow)] for row in layouts]
        nums = []
        for row in rows:
            x = y = 0
            for a, b in row:
                x, y = x * ua - y * ub + a, x * ub + y * ua + b
            nums.append((x, y))
        den = lcm * w**high
        if low < 0:
            if not (ua or ub):
                raise ZeroDivisionError("Laurent eps entry evaluated at 0")
            # 1 / u^m = conj(u)^m / |u|^(2m)
            ca, cb = 1, 0
            for _ in range(-low):
                ca, cb = ca * ua + cb * ub, cb * ua - ca * ub
            den *= (ua * ua + ub * ub) ** -low
            nums = [(x * ca - y * cb, x * cb + y * ca) for x, y in nums]
        table.append((nums, den))
    return table


def _reduced(a, b, n):
    """QC (a + b*i)/n for ints with n > 0, reduced by one gcd."""
    g = math.gcd(a, b, n)
    return _qc(a // g, b // g, n // g)


def _eps(coeffs):
    """EpsPoly from a map degree -> nonzero QC, unchecked."""
    v = object.__new__(EpsPoly)
    v.coeffs = coeffs
    return v


class EpsPoly:
    """Polynomial in the formal degeneration parameter, QC coefficients.

    Stored as a map degree -> nonzero QC coefficient. Immutable by
    convention: operations always return new values.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        cleaned = {}
        if coeffs:
            check_ints(coeffs, "eps degrees")
            for d, c in coeffs.items():
                c = QC.coerce(c)
                if c:
                    cleaned[d] = c
        self.coeffs = cleaned

    @classmethod
    def const(cls, v):
        return cls({0: QC.coerce(v)})

    @classmethod
    def eps(cls, degree=1, coeff=1):
        return cls({degree: QC.coerce(coeff)})

    @classmethod
    def coerce(cls, v):
        if isinstance(v, EpsPoly):
            return v
        return cls.const(QC.coerce(v))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QC)):
            other = EpsPoly.coerce(other)
        if not isinstance(other, EpsPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        other = EpsPoly.coerce(other)
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            s = out.get(d, QC_ZERO) + c
            if s:
                out[d] = s
            else:
                out.pop(d, None)
        return _eps(out)

    __radd__ = __add__

    def __neg__(self):
        return _eps({d: -c for d, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-EpsPoly.coerce(other))

    def __mul__(self, other):
        other = EpsPoly.coerce(other)
        out = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d = d1 + d2
                s = out.get(d, QC_ZERO) + c1 * c2
                if s:
                    out[d] = s
                else:
                    out.pop(d, None)
        return _eps(out)

    __rmul__ = __mul__

    def coefficient(self, degree):
        return self.coeffs.get(degree, QC_ZERO)

    def eval(self, point):
        """Evaluate at an exact point (int, Fraction or QC), by :func:`_eval_table`.

        A negative degree (a Laurent term) divides by the point, so the
        point must be nonzero.
        """
        (((x, y),), den), = _eval_table([self], [QC.coerce(point)])
        return _reduced(x, y, den)

    def __repr__(self):
        if not self.coeffs:
            return "EpsPoly(0)"
        parts = [f"e^{d}*{c!r}" for d, c in sorted(self.coeffs.items())]
        return "EpsPoly(" + " + ".join(parts) + ")"


# The scalar type of each domain: the one place that decides which domains
# exist and what their values are.
DOMAIN_TYPES = {RATIONAL: QC, EPS: EpsPoly, FLOAT: complex}


def coerce(domain, v):
    """Coerce a raw value into the given domain's scalar type."""
    cls = DOMAIN_TYPES.get(domain)
    if cls is None:
        raise ValueError(f"unknown domain {domain!r}")
    if cls is complex:
        return v.to_complex() if isinstance(v, QC) else complex(v)
    return cls.coerce(v)


def zero(domain):
    return coerce(domain, 0)


def one(domain):
    return coerce(domain, 1)


def check_domain_value(domain, v):
    """Raise TypeError unless v is a value of the domain."""
    if isinstance(v, DOMAIN_TYPES.get(domain, ())):
        return v
    raise TypeError(f"value {v!r} does not belong to domain {domain!r}")
