"""Scalar domains for tensor entries.

Three domains are supported:

* ``rational`` -- complex numbers with exact rational real/imaginary parts
  (:class:`QC`); all algebra is exact.
* ``eps`` -- polynomials in a formal degeneration parameter with ``QC``
  coefficients (:class:`EpsPoly`); used by degeneration certificates.
* ``float`` -- ordinary Python ``complex``; used for numeric search and
  spectrum computations.

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

DOMAINS = (RATIONAL, EPS, FLOAT)


_FRACTION = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_fraction(s):
    """Parse "p/q" or "p" (``[+-]?digits[/digits]``) into a Fraction.

    This is the form :func:`format_fraction` writes. Ints and Fractions are
    accepted as they are. Anything else raises ValueError, so exponent
    forms such as "1e4000000", which would expand to millions of digits,
    and decimals such as "1.5" are rejected before any arithmetic.
    """
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str) and _FRACTION.fullmatch(s):
        return Fraction(s)
    raise ValueError(f"not a fraction p or p/q: {s!r}")


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
        n = self._n
        n2 = other._n
        if n == n2:
            a = self._a + other._a
            b = self._b + other._b
            if n == 1:
                return _qc(a, b, 1)
        else:
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

    def __rsub__(self, other):
        return QC.coerce(other) + (-self)

    def __mul__(self, other):
        if type(other) is not QC:
            other = QC.coerce(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        n = self._n * other._n
        if b1 == 0 and b2 == 0:
            a = a1 * a2
            if n == 1:
                return _qc(a, 0, 1)
            g = math.gcd(a, n)
            return _qc(a // g, 0, n // g)
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
            for d, c in coeffs.items():
                c = QC.coerce(c)
                if c:
                    cleaned[int(d)] = c
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
        return EpsPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return EpsPoly({d: -c for d, c in self.coeffs.items()})

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
        return EpsPoly(out)

    __rmul__ = __mul__

    def min_degree(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return min(self.coeffs)

    def max_degree(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self.coeffs)

    def coefficient(self, degree):
        return self.coeffs.get(degree, QC_ZERO)

    def eval(self, point):
        """Evaluate at an exact point (Fraction or QC).

        Horner's rule down to the lowest degree m, or to 0 when m > 0, so
        the value is point^m * sum_k c_k point^(k-m). A negative m (a Laurent
        term) divides by the point -m times, so the point must be nonzero.
        """
        point = QC.coerce(point)
        if not self.coeffs:
            return QC_ZERO
        low, high = min(self.coeffs), max(self.coeffs)
        acc = self.coeffs[high]
        for d in range(high - 1, min(low, 0) - 1, -1):
            acc = acc * point
            c = self.coeffs.get(d)
            if c is not None:
                acc = acc + c
        for _ in range(-low):
            acc = acc / point
        return acc

    def __repr__(self):
        if not self.coeffs:
            return "EpsPoly(0)"
        parts = [f"e^{d}*{c!r}" for d, c in sorted(self.coeffs.items())]
        return "EpsPoly(" + " + ".join(parts) + ")"


def zero(domain):
    if domain == RATIONAL:
        return QC_ZERO
    if domain == EPS:
        return EpsPoly()
    if domain == FLOAT:
        return 0j
    raise ValueError(f"unknown domain {domain!r}")


def one(domain):
    if domain == RATIONAL:
        return QC_ONE
    if domain == EPS:
        return EpsPoly.const(1)
    if domain == FLOAT:
        return 1 + 0j
    raise ValueError(f"unknown domain {domain!r}")


def coerce(domain, v):
    """Coerce a raw value into the given domain's scalar type."""
    if domain == RATIONAL:
        return QC.coerce(v)
    if domain == EPS:
        return EpsPoly.coerce(v)
    if domain == FLOAT:
        if isinstance(v, QC):
            return v.to_complex()
        return complex(v)
    raise ValueError(f"unknown domain {domain!r}")


def check_domain_value(domain, v):
    """Raise TypeError unless v is a value of the domain."""
    if domain == RATIONAL and isinstance(v, QC):
        return v
    if domain == EPS and isinstance(v, EpsPoly):
        return v
    if domain == FLOAT and isinstance(v, complex):
        return v
    raise TypeError(f"value {v!r} does not belong to domain {domain!r}")


def to_float(v):
    """Convert an exact or float scalar to complex. EpsPoly is rejected."""
    if isinstance(v, QC):
        return v.to_complex()
    if isinstance(v, complex):
        return v
    if isinstance(v, (int, Fraction)):
        return complex(v)
    raise TypeError(f"cannot convert {type(v).__name__} to complex")


def to_eps(v):
    """Lift a rational scalar to a degree-0 eps polynomial."""
    if isinstance(v, EpsPoly):
        return v
    return EpsPoly.const(QC.coerce(v))
