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

from fractions import Fraction

RATIONAL = "rational"
EPS = "eps"
FLOAT = "float"

DOMAINS = (RATIONAL, EPS, FLOAT)


def parse_fraction(s):
    """Parse "p/q" or "p" into a Fraction. Accepts ints and Fractions as-is."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    return Fraction(str(s))


def format_fraction(f):
    """Canonical string for a Fraction: "p" or "p/q" in lowest terms."""
    return str(f)


class QC:
    """Complex scalar with exact rational real and imaginary parts.

    Fractions are kept in lowest terms with positive denominator (the
    ``fractions`` module guarantees this).
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @classmethod
    def coerce(cls, v):
        if isinstance(v, QC):
            return v
        if isinstance(v, (int, Fraction)):
            return cls(v)
        raise TypeError(f"cannot coerce {type(v).__name__} to QC")

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QC(other)
        if not isinstance(other, QC):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        other = QC.coerce(other)
        return QC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-QC.coerce(other))

    def __rsub__(self, other):
        return QC.coerce(other) + (-self)

    def __mul__(self, other):
        other = QC.coerce(other)
        return QC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = QC.coerce(other)
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero QC")
        return QC(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def to_complex(self):
        return complex(self.re, self.im)

    def __repr__(self):
        if not self.im:
            return f"QC({self.re})"
        return f"QC({self.re}, {self.im})"


QC_ZERO = QC(0)
QC_ONE = QC(1)


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
        """Evaluate at an exact point (Fraction or QC)."""
        point = QC.coerce(point)
        acc = QC_ZERO
        for d, c in self.coeffs.items():
            acc = acc + c * _qc_pow(point, d)
        return acc

    def __repr__(self):
        if not self.coeffs:
            return "EpsPoly(0)"
        parts = [f"e^{d}*{c!r}" for d, c in sorted(self.coeffs.items())]
        return "EpsPoly(" + " + ".join(parts) + ")"


def _qc_pow(base, exp):
    acc = QC_ONE
    for _ in range(exp):
        acc = acc * base
    return acc


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
