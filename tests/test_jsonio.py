import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_scalars import REJECTED_FRACTIONS

import util
from tpl import jsonio
from tpl.hypergraph import GroupingMap, make_family
from tpl.matrix import Matrix
from tpl.named import ghz, w_state
from tpl.preorder import DegenerationCertificate, RestrictionCertificate
from tpl.scalars import EPS, FLOAT, RATIONAL, EpsPoly, QC
from tpl.tensor import Tensor


def test_tensor_round_trip_bit_exact():
    rng = random.Random(71)
    for _ in range(20):
        t = util.random_rational_tensor(rng, (2, 3, 2), density=0.5, den=7)
        obj = jsonio.tensor_to_json(t)
        text = jsonio.dumps_pretty(obj)
        back = jsonio.tensor_from_json(json.loads(text))
        assert back == t
        assert jsonio.dumps_pretty(jsonio.tensor_to_json(back)) == text


def test_eps_tensor_round_trip():
    p = EpsPoly({0: QC(1), 2: QC(-1, 2)})
    t = Tensor((2, 2), {(0, 1): p}, EPS)
    back = jsonio.tensor_from_json(jsonio.tensor_to_json(t))
    assert back == t


def test_float_tensor_round_trip():
    t = Tensor((2, 2), {(0, 0): complex(0.5, -0.25)}, FLOAT)
    back = jsonio.tensor_from_json(jsonio.tensor_to_json(t))
    assert back == t


def test_tensor_json_shape_checks():
    obj = jsonio.tensor_to_json(ghz(2))
    obj["order"] = 5
    with pytest.raises(jsonio.FormatError):
        jsonio.tensor_from_json(obj)
    obj = jsonio.tensor_to_json(ghz(2))
    obj["entries"][0]["i"] = [9, 9, 9]
    with pytest.raises(jsonio.FormatError):
        jsonio.tensor_from_json(obj)
    with pytest.raises(jsonio.FormatError):
        jsonio.tensor_from_json({"dims": [2], "domain": "nope", "entries": []})


def test_matrix_round_trip():
    from fractions import Fraction

    m = util.matrix_from_rows([[1, 0], [Fraction(1, 2), -2]])
    back = jsonio.matrix_from_json(jsonio.matrix_to_json(m))
    assert back == m


def test_certificate_round_trip():
    ident = Matrix.identity(2)
    rc = RestrictionCertificate((ident, ident, ident))
    back = jsonio.certificate_from_json(jsonio.certificate_to_json(rc))
    assert isinstance(back, RestrictionCertificate)
    assert back.maps == rc.maps

    c, e = EpsPoly.const, EpsPoly.eps
    m = Matrix(2, 2, {(0, 0): c(1), (1, 0): e(1), (0, 1): c(-1)}, EPS)
    dc = DegenerationCertificate((m, m, m), d=1, e=2)
    back = jsonio.certificate_from_json(jsonio.certificate_to_json(dc))
    assert isinstance(back, DegenerationCertificate)
    assert back.maps == dc.maps
    assert (back.d, back.e) == (1, 2)


def test_certificate_kind_checked():
    obj = jsonio.certificate_to_json(RestrictionCertificate((Matrix.identity(2),)))
    obj["kind"] = "mystery"
    with pytest.raises(jsonio.FormatError):
        jsonio.certificate_from_json(obj)


def test_hypergraph_writer():
    h = make_family("Fan", 2)
    text = jsonio.dumps_compact(jsonio.hypergraph_to_json(h))
    assert text == '{"vertices":4,"edges":[[0,1,2],[0,1,3]]}\n'


def test_grouping_map_writer():
    gm = GroupingMap((0, 1, 0, 2), 3)
    assert jsonio.dumps_compact(jsonio.grouping_map_to_json(gm)) == '{"map":[0,1,0,2]}\n'


def test_decomposition_round_trip():
    terms = [[[QC(1), QC(0)], [QC("1/2"), QC(1)]], [[QC(0), QC(-1)], [QC(2), QC(0)]]]
    back = jsonio.decomposition_from_json(jsonio.decomposition_to_json(terms))
    assert back == terms


@pytest.mark.parametrize("raw", [5, [5], [[5]], [[[{"re": "x", "im": "0"}]]]])
def test_malformed_decomposition_is_format_error(raw):
    with pytest.raises(jsonio.FormatError):
        jsonio.decomposition_from_json(raw)


def test_writer_is_deterministic():
    t = w_state()
    a = jsonio.dumps_pretty(jsonio.tensor_to_json(t))
    b = jsonio.dumps_pretty(jsonio.tensor_to_json(t))
    assert a == b
    assert '"re": "1"' in a


# -- rational scalars are read straight into QC's fields ---------------------

GRAMMAR = re.compile(r"[+-]?[0-9]+(/[0-9]+)?", re.ASCII)


def fraction_ref(s):
    """The Fraction path: the written grammar read by Fraction itself."""
    if type(s) is int:
        return Fraction(s)
    if isinstance(s, str) and GRAMMAR.fullmatch(s):
        return Fraction(s)  # raises ZeroDivisionError on "p/0"
    raise ValueError(s)


digits = st.text(st.sampled_from("0123456789"), min_size=1, max_size=24)
fraction_fields = st.one_of(
    st.builds(
        lambda sign, p, q: sign + p + ("" if q is None else "/" + q),
        st.sampled_from(["", "+", "-"]),
        digits,
        st.none() | digits | st.sampled_from(["0", "00", "1", "01"]),
    ),
    st.integers(-(10**30), 10**30),
    st.sampled_from(["007/3", "+5", "-0/5", "0/7", "6/4", "-12/18", "000", "1/0", "-4/-2", "0x1A"]),
    st.sampled_from(REJECTED_FRACTIONS),
    st.text(max_size=6),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(fraction_fields, fraction_fields)
@example("007/3", "-0/5")
@example("+5", "6/4")
@example("-12/18", "000")
@example("½", "0")
@example("0", "1_0")
@example(True, "0")
@example("0", False)
@example("3/0", "1")
def test_rational_scalar_read_matches_the_fraction_path(re_field, im_field):
    try:
        expected = QC(fraction_ref(re_field), fraction_ref(im_field))
    except (ValueError, ZeroDivisionError):
        with pytest.raises(jsonio.FormatError):
            jsonio.scalar_from_json(RATIONAL, {"re": re_field, "im": im_field})
        return
    got = jsonio.scalar_from_json(RATIONAL, {"re": re_field, "im": im_field})
    assert (got.re, got.im) == (expected.re, expected.im)
    assert got._n > 0 and math.gcd(got._a, got._b, got._n) == 1
