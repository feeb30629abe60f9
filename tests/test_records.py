"""The twelve record classes behave as immutable value records.

For each class: positional and keyword construction, the ``repr`` text,
``==``/``!=`` against an equal record, an unequal one and a non-record (the
tuple of its own field values), hashing, refusal of assignment and deletion,
fresh default containers, copy/deepcopy/pickle round trips, and the exact
validation messages.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from tpl.asymptotic import Bound, BoundReport, Root
from tpl.catalog import CatalogEntry, Degeneration
from tpl.hypergraph import FoldResult, GroupingMap, make_family
from tpl.matrix import Matrix
from tpl.named import NamedTensorSpec, ghz, w_state
from tpl.obstructions import KoszulSpec, ThetaWeights
from tpl.preorder import CertificateError, DegenerationCertificate, RestrictionCertificate
from tpl.scalars import EPS, EpsPoly
from tpl.tensor import GroupingSpec

W = w_state()
I2 = Matrix.identity(2)
E2 = Matrix(2, 2, {(0, 0): EpsPoly.eps(1), (1, 1): EpsPoly.const(1)}, EPS)
FAN = make_family("Fan", 2)
SLOTS = GroupingSpec([(0, 3), (1, 4), (2, 5)])  # compares by identity, so every case shares it
HALF = Fraction(1, 2)
LOW = Bound(Fraction(2), "gauge point", {"kind": "gauge", "factor": 0})
HIGH = Bound(Root(27, 2), "kronecker power", {"kind": "power", "n": 2})
DEG = Degeneration(ghz(2), DegenerationCertificate((E2, E2, E2), 1, 1))

# (class, field names, field values, values of an unequal record, repr of the record)
CASES = [
    (Root, ("radicand", "index"), (2, 3), (3, 3), "Root(radicand=2, index=3)"),
    (
        Bound,
        ("value", "witness", "ref"),
        (Fraction(3, 2), "gauge point", {"kind": "gauge"}),
        (Fraction(1), "gauge point", {"kind": "gauge"}),
        "Bound(value=Fraction(3, 2), witness='gauge point', ref={'kind': 'gauge'})",
    ),
    (
        BoundReport,
        ("quantity", "lower", "upper", "table", "extras"),
        ("strassen asymptotic rank", LOW, HIGH, [{"n": 1}], {"note": "x"}),
        ("strassen asymptotic rank", LOW, None, [{"n": 1}], {"note": "x"}),
        "BoundReport(quantity='strassen asymptotic rank', "
        "lower=Bound(value=Fraction(2, 1), witness='gauge point', ref={'kind': 'gauge', 'factor': 0}), "
        "upper=Bound(value=Root(radicand=27, index=2), witness='kronecker power', ref={'kind': 'power', 'n': 2}), "
        "table=[{'n': 1}], extras={'note': 'x'})",
    ),
    (
        Degeneration,
        ("source", "cert"),
        (DEG.source, DEG.cert),
        (W, DEG.cert),
        "Degeneration(source=Tensor(dims=(2, 2, 2), nnz=2, domain=rational), "
        "cert=DegenerationCertificate(maps=(Matrix(2x2, 2 nnz, eps), Matrix(2x2, 2 nnz, eps), "
        "Matrix(2x2, 2 nnz, eps)), d=1, e=1))",
    ),
    (
        CatalogEntry,
        ("id", "tensor", "decomposition", "degeneration", "metadata"),
        ("w", W, [[[1, 0], [0, 1], [1, 1]]], DEG, {"provenance": "test"}),
        ("w2", W, [[[1, 0], [0, 1], [1, 1]]], DEG, {"provenance": "test"}),
        "CatalogEntry(id='w', tensor=Tensor(dims=(2, 2, 2), nnz=3, domain=rational), "
        "decomposition=[[[1, 0], [0, 1], [1, 1]]], "
        "degeneration=Degeneration(source=Tensor(dims=(2, 2, 2), nnz=2, domain=rational), "
        "cert=DegenerationCertificate(maps=(Matrix(2x2, 2 nnz, eps), Matrix(2x2, 2 nnz, eps), "
        "Matrix(2x2, 2 nnz, eps)), d=1, e=1)), metadata={'provenance': 'test'})",
    ),
    (
        GroupingMap,
        ("mapping", "n_targets"),
        ((0, 1, 1), 2),
        ((1, 0, 0), 2),
        "GroupingMap(mapping=(0, 1, 1), n_targets=2)",
    ),
    (
        FoldResult,
        ("hypergraph", "slot_grouping"),
        (FAN, SLOTS),
        (make_family("Fan", 3), SLOTS),
        "FoldResult(hypergraph=Hypergraph(4 vertices, 2 edges), "
        "slot_grouping=GroupingSpec([(0, 3), (1, 4), (2, 5)]))",
    ),
    (
        NamedTensorSpec,
        ("name", "params"),
        ("GHZ", {"r": 2, "k": 3}),
        ("GHZ", {"r": 3, "k": 3}),
        "NamedTensorSpec(name='GHZ', params={'r': 2, 'k': 3})",
    ),
    (KoszulSpec, ("d3", "p"), (3, 1), (3, 2), "KoszulSpec(d3=3, p=1)"),
    (
        ThetaWeights,
        ("weights",),
        ((HALF, HALF),),
        ((Fraction(1, 4), Fraction(3, 4)),),
        "ThetaWeights(weights=(Fraction(1, 2), Fraction(1, 2)))",
    ),
    (
        RestrictionCertificate,
        ("maps",),
        ((I2, I2, I2),),
        ((I2, I2, I2.scale(2)),),
        "RestrictionCertificate(maps=(Matrix(2x2, 2 nnz, rational), "
        "Matrix(2x2, 2 nnz, rational), Matrix(2x2, 2 nnz, rational)))",
    ),
    (
        DegenerationCertificate,
        ("maps", "d", "e"),
        ((E2, E2), 1, 2),
        ((E2, E2), 1, 3),
        "DegenerationCertificate(maps=(Matrix(2x2, 2 nnz, eps), Matrix(2x2, 2 nnz, eps)), d=1, e=2)",
    ),
]
IDS = [case[0].__name__ for case in CASES]
HASHABLE = (GroupingMap, KoszulSpec, ThetaWeights)
# FoldResult's slot grouping compares by identity, so a deep copy of it is not ==.
IDENTITY_FIELDS = (FoldResult,)


@pytest.mark.parametrize("cls, names, values, other, text", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, names, values, other, text):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for rec in (by_position, by_keyword):
        assert type(rec) is cls
        for name, value in zip(names, values):
            assert getattr(rec, name) is value
    assert repr(by_position) == repr(by_keyword) == text


@pytest.mark.parametrize("cls, names, values, other, text", CASES, ids=IDS)
def test_equality(cls, names, values, other, text):
    rec = cls(*values)
    same, different = cls(*values), cls(*other)
    assert rec == same and not (rec != same)
    assert rec != different and not (rec == different)
    if cls is Root:
        # Root compares as the real number it is, also with a rational.
        assert Root(8, 3) == 2 and Root(8, 3) != 3 and Root(8, 3) == Root(4, 2)
    else:
        assert rec != values and not (rec == values)
        assert rec.__eq__(values) is NotImplemented


@pytest.mark.parametrize("cls, names, values, other, text", CASES, ids=IDS)
def test_hash(cls, names, values, other, text):
    rec = cls(*values)
    if cls in HASHABLE:
        assert hash(rec) == hash(cls(*values)) == hash(values)
        assert len({rec, cls(*values), cls(*other)}) == 2
    else:
        with pytest.raises(TypeError):
            hash(rec)


def test_every_bound_is_unhashable():
    for bound in (Bound(Fraction(1), "w"), Bound(Root(2, 2), "w", {"k": 1}), LOW, HIGH):
        with pytest.raises(TypeError):
            hash(bound)


@pytest.mark.parametrize("cls, names, values, other, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, names, values, other, text):
    rec = cls(*values)
    for name in (*names, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert repr(rec) == text


@pytest.mark.parametrize(
    "build, containers",
    [
        (lambda: Bound(Fraction(1), "w"), ("ref",)),
        (lambda: BoundReport("q"), ("table", "extras")),
        (lambda: CatalogEntry("w", W), ("metadata",)),
        (lambda: NamedTensorSpec("W"), ("params",)),
    ],
    ids=["Bound", "BoundReport", "CatalogEntry", "NamedTensorSpec"],
)
def test_default_containers_are_fresh(build, containers):
    a, b = build(), build()
    for name in containers:
        assert getattr(a, name) == getattr(b, name)
        assert not getattr(a, name)
        assert getattr(a, name) is not getattr(b, name)


def test_defaults():
    assert (BoundReport("q").lower, BoundReport("q").upper) == (None, None)
    entry = CatalogEntry("w", W)
    assert (entry.decomposition, entry.degeneration) == (None, None)
    cert = DegenerationCertificate((E2,))
    assert (cert.d, cert.e) == (0, 0)


def test_inputs_become_tuples():
    assert GroupingMap([0, 1, 1], 2).mapping == (0, 1, 1)
    assert type(GroupingMap([0, 1, 1], 2).mapping) is tuple
    assert ThetaWeights([HALF, HALF]).weights == (HALF, HALF)
    assert type(ThetaWeights(iter([HALF, HALF])).weights) is tuple


def _round_trips(rec):
    yield copy.copy(rec)
    yield copy.deepcopy(rec)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):  # 0 and 1 cannot pickle a slotted Tensor
        yield pickle.loads(pickle.dumps(rec, protocol))


@pytest.mark.parametrize("cls, names, values, other, text", CASES, ids=IDS)
def test_copies_and_pickles_round_trip(cls, names, values, other, text):
    rec = cls(*values)
    for i, twin in enumerate(_round_trips(rec)):
        assert type(twin) is cls
        assert repr(twin) == text
        if i == 0 or cls not in IDENTITY_FIELDS:
            assert twin == rec
        with pytest.raises(AttributeError):
            setattr(twin, names[0], 0)


def _message(build, error):
    with pytest.raises(error) as info:
        build()
    return str(info.value)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: KoszulSpec(3, 1.0), ValueError, "Koszul d3 and p must be ints, got 1.0"),
        (lambda: KoszulSpec(0, 0), ValueError, "d3 must be positive"),
        (lambda: KoszulSpec(3, 3), ValueError, "need 0 <= p <= d3-1, got p=3, d3=3"),
        (lambda: KoszulSpec(3, -1), ValueError, "need 0 <= p <= d3-1, got p=-1, d3=3"),
        (lambda: ThetaWeights((Fraction(3, 2), Fraction(-1, 2))), ValueError, "theta weights must be nonnegative"),
        (lambda: ThetaWeights((HALF, Fraction(1, 3))), ValueError, "theta weights sum to 5/6, expected 1"),
        (lambda: ThetaWeights((0.25, 0.25)), ValueError, "theta weights sum to 0.5, expected 1"),
        (lambda: GroupingMap((0, 1.0), 2), ValueError, "grouping map targets must be ints, got 1.0"),
        (lambda: GroupingMap((0, 1), True), ValueError, "grouping map target count must be ints, got True"),
        (lambda: GroupingMap((0, 2), 2), ValueError, "grouping map target out of range"),
        (lambda: GroupingMap((0, 0), 2), ValueError, "grouping map must be surjective"),
        (
            lambda: NamedTensorSpec("Foo"),
            ValueError,
            "unknown tensor name 'Foo'; expected one of ('GHZ', 'W', 'EPR', 'MaMu', 'CW', 'Unit')",
        ),
        (lambda: RestrictionCertificate((I2, E2)), CertificateError, "restriction maps must be rational matrices"),
        (lambda: RestrictionCertificate((W,)), CertificateError, "restriction maps must be rational matrices"),
        (lambda: DegenerationCertificate((E2, I2)), CertificateError, "degeneration maps must be eps matrices"),
        (
            lambda: DegenerationCertificate((E2,), 1, 2.0),
            CertificateError,
            "declared degrees d and e must be ints, got 2.0",
        ),
        (
            lambda: BoundReport("q", Bound(Fraction(3), "a"), Bound(Fraction(2), "b")),
            ValueError,
            "q: lower bound 3 exceeds upper bound 2",
        ),
        (
            lambda: BoundReport("q", Bound(Fraction(3), "a"), Bound(Root(8, 3), "b")),
            ValueError,
            "q: lower bound 3 exceeds upper bound Root(radicand=8, index=3)",
        ),
    ],
)
def test_validation_messages(build, error, message):
    assert _message(build, error) == message


def test_bound_report_accepts_equal_and_one_sided_bounds():
    two = Bound(Fraction(2), "a")
    assert BoundReport("q", two, Bound(Root(4, 2), "b")).upper.value == 2
    assert BoundReport("q", lower=two).upper is None
    assert BoundReport("q", upper=two).lower is None
