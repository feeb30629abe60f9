from fractions import Fraction

import pytest

from tpl.scalars import EpsPoly, QC, parse_fraction, format_fraction


def test_qc_arithmetic():
    a = QC(Fraction(1, 2), Fraction(1, 3))
    b = QC(2, -1)
    assert a + b == QC(Fraction(5, 2), Fraction(-2, 3))
    assert a - a == QC(0)
    assert not (a - a)
    assert a * QC(0) == QC(0)
    # (i)^2 = -1
    i = QC(0, 1)
    assert i * i == QC(-1)


def test_qc_division_exact():
    a = QC(3, 4)
    b = QC(1, 2)
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / QC(0)


def test_qc_lowest_terms():
    v = QC(Fraction(2, 4), Fraction(-6, 8))
    assert v.re == Fraction(1, 2)
    assert v.im.denominator == 4 and v.im.numerator == -3


def test_eps_poly_mul_and_cancellation():
    x = EpsPoly.eps(1)
    c = EpsPoly.const
    p = (c(1) + x) * (c(1) - x)
    assert p == c(1) + EpsPoly.eps(2, -1)
    assert (p - p) == EpsPoly()
    assert not (p - p)


def test_eps_poly_no_zero_coeffs_stored():
    p = EpsPoly({0: QC(1), 3: QC(0)})
    assert list(p.coeffs) == [0]


def test_eps_poly_degrees_and_eval():
    p = EpsPoly({1: QC(1), 3: QC(2)})
    assert min(p.coeffs) == 1
    assert max(p.coeffs) == 3
    assert p.eval(Fraction(1, 2)) == QC(Fraction(1, 2) + 2 * Fraction(1, 8))


def test_fraction_round_trip():
    for s in ["0", "1", "-3/4", "22/7"]:
        assert format_fraction(parse_fraction(s)) == s


@pytest.mark.parametrize("s", ["+5", "007/3", "-1/2", 3, Fraction(2, 3)])
def test_parse_fraction_accepts_the_written_grammar(s):
    assert parse_fraction(s) == Fraction(s)


REJECTED_FRACTIONS = ["1.5", "1e4000000", "1E3", " 1", "1 /2", "1/-2", "", "/2", "inf", "nan", "½", "1_0", 1.5, None, True, False]


@pytest.mark.parametrize("s", REJECTED_FRACTIONS)
def test_parse_fraction_rejects_other_forms(s):
    with pytest.raises(ValueError):
        parse_fraction(s)
