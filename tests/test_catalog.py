import copy
import os
import random
import stat
from collections import Counter
from fractions import Fraction

import pytest

import util
from util import w_border_cert

from tpl import catalog, jsonio
from tpl.asymptotic import disjoint_rank_bounds, strassen_rank_bounds
from tpl.catalog import (
    Catalog,
    CatalogEntry,
    CatalogError,
    Degeneration,
    decomposition_tensor,
    entry_from_json,
    entry_to_json,
    verify_entry,
)
from tpl.named import NamedTensorSpec, epr, ghz, make_named, mamu, w_state
from tpl.preorder import DegenerationCertificate
from tpl.scalars import QC
from tpl.tensor import Tensor, kron


def w_rank3_terms():
    one, zero = QC(1), QC(0)
    return [
        [[one, zero], [one, zero], [zero, one]],
        [[one, zero], [zero, one], [one, zero]],
        [[zero, one], [one, zero], [one, zero]],
    ]


def test_make_named_specs():
    assert make_named(NamedTensorSpec("W")) == w_state()
    assert make_named(NamedTensorSpec("GHZ", {"r": 3, "k": 4})) == ghz(3, 4)
    assert make_named(NamedTensorSpec("Unit", {"r": 2})) == ghz(2)
    assert make_named(NamedTensorSpec("EPR", {"d": 3})) == ghz(3, 2)
    assert make_named(NamedTensorSpec("MaMu", {"d": 2})).nnz() == 8
    assert make_named(NamedTensorSpec("CW", {"q": 2})).nnz() == 6
    with pytest.raises(ValueError):
        NamedTensorSpec("RVB")
    with pytest.raises(ValueError):
        make_named(NamedTensorSpec("GHZ", {"r": 0}))


def test_epr_is_two_factor_ghz():
    for d in (2, 3, 5):
        assert epr(d) == ghz(d, 2)


def test_term_tensor_outer_product():
    term = [[QC(1), QC(2)], [QC(0), QC(1)]]
    t = decomposition_tensor((2, 2), [term])
    assert t.entries == {(0, 1): QC(1), (1, 1): QC(2)}


def test_decomposition_of_w_verifies():
    total = decomposition_tensor((2, 2, 2), w_rank3_terms())
    assert total == w_state()


def random_vector(rng, n, gaussian):
    if rng.random() < 0.15:
        return [QC(0)] * n
    return [QC(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5))), rng.randint(-2, 2) if gaussian else 0)
            for _ in range(n)]


@pytest.mark.parametrize("gaussian", [False, True], ids=["rational", "gaussian"])
def test_decomposition_tensor_matches_termwise_oracle(gaussian):
    rng = random.Random(20261018 + gaussian)
    for _ in range(60):
        dims = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
        terms = [[random_vector(rng, d, gaussian) for d in dims] for _ in range(rng.randint(0, 5))]
        if terms and rng.random() < 0.5:
            # A term and its negation (first vector negated) cancel.
            twin = copy.deepcopy(rng.choice(terms))
            twin[0] = [-c for c in twin[0]]
            terms.insert(rng.randint(0, len(terms)), twin)
        assert decomposition_tensor(dims, terms) == util.decomposition_ref(dims, terms)


def test_decomposition_tensor_edge_cases():
    assert decomposition_tensor((2, 3), []) == Tensor((2, 3), {})
    term = [[QC(1), QC(0, 2)], [QC(3), QC(0)]]
    negated = [[QC(-1), QC(0, -2)], [QC(3), QC(0)]]
    assert decomposition_tensor((2, 2), [term, negated]).is_zero()
    assert decomposition_tensor((2, 2), [[[QC(0)] * 2, [QC(1)] * 2]]).is_zero()
    assert decomposition_tensor((2, 2), [term]).entries == {(0, 0): QC(3), (1, 0): QC(0, 6)}
    with pytest.raises(CatalogError):
        decomposition_tensor((), [[], []])


@pytest.mark.parametrize(
    "bad",
    [
        [[QC(1), QC(0)], [QC(1), QC(0)]],
        [[QC(1), QC(0)], [QC(1), QC(0)], [QC(1)]],
        [[QC(1), QC(0)], [QC(1), QC(0), QC(0)], [QC(1), QC(0)]],
        [[QC(1), QC(0)], [QC(1), QC(0)], [QC(1), QC(0)], [QC(1), QC(0)]],
    ],
    ids=["two-factors", "short", "long", "four-factors"],
)
def test_decomposition_bad_term_lengths_write_nothing(tmp_path, bad):
    with pytest.raises(CatalogError):
        decomposition_tensor((2, 2, 2), [bad])
    cat = Catalog(tmp_path)
    with pytest.raises(CatalogError):
        cat.put(CatalogEntry(id="w-bad", tensor=w_state(), decomposition=w_rank3_terms() + [bad]))
    assert list(tmp_path.iterdir()) == []


def test_verify_entry_accepts_and_rejects():
    entry = CatalogEntry(id="w-rank3", tensor=w_state(), decomposition=w_rank3_terms())
    verify_entry(entry)
    corrupted = copy.deepcopy(w_rank3_terms())
    corrupted[1][2][0] = -corrupted[1][2][0]
    bad = CatalogEntry(id="w-rank3", tensor=w_state(), decomposition=corrupted)
    with pytest.raises(CatalogError):
        verify_entry(bad)


def test_degeneration_entry_checks_declared_degrees():
    good = CatalogEntry(
        id="x",
        tensor=w_state(),
        degeneration=Degeneration(source=ghz(2), cert=w_border_cert()),
    )
    verify_entry(good)
    cert = w_border_cert()
    wrong_degrees = DegenerationCertificate(cert.maps, d=2, e=2)
    bad = CatalogEntry(
        id="x",
        tensor=w_state(),
        degeneration=Degeneration(source=ghz(2), cert=wrong_degrees),
    )
    with pytest.raises(CatalogError):
        verify_entry(bad)


def test_entry_json_round_trip():
    entry = CatalogEntry(
        id="w-rank3",
        tensor=w_state(),
        decomposition=w_rank3_terms(),
        degeneration=Degeneration(source=ghz(2), cert=w_border_cert()),
        metadata={"rank": 3},
    )
    back = entry_from_json(entry_to_json(entry))
    assert back.tensor == entry.tensor
    assert back.decomposition == entry.decomposition
    assert back.degeneration.source == entry.degeneration.source
    assert back.metadata == {"rank": 3}


def test_catalog_store_round_trip(tmp_path):
    cat = Catalog(tmp_path)
    entry = CatalogEntry(id="w-rank3", tensor=w_state(), decomposition=w_rank3_terms())
    cat.put(entry)
    assert cat.ids() == ["w-rank3"]
    loaded = cat.get("w-rank3")
    assert loaded.tensor == w_state()
    assert len(cat.load_all()) == 1


def test_catalog_put_rejects_corruption(tmp_path):
    cat = Catalog(tmp_path)
    corrupted = copy.deepcopy(w_rank3_terms())
    corrupted[0][0][0] = QC(2)
    with pytest.raises(CatalogError):
        cat.put(CatalogEntry(id="bad", tensor=w_state(), decomposition=corrupted))
    assert cat.ids() == []


def test_catalog_load_detects_tampering(tmp_path):
    cat = Catalog(tmp_path)
    cat.put(CatalogEntry(id="w-rank3", tensor=w_state(), decomposition=w_rank3_terms()))
    path = tmp_path / "w-rank3.json"
    text = path.read_text().replace('"re": "1"', '"re": "-1"', 1)
    path.write_text(text)
    with pytest.raises(CatalogError):
        cat.get("w-rank3")


def test_catalog_unknown_id(tmp_path):
    with pytest.raises(CatalogError):
        Catalog(tmp_path).get("missing")


def test_packaged_catalog_verifies():
    cat = Catalog.packaged()
    entries = cat.load_all()
    ids = {e.id for e in entries}
    assert "w-border2-degeneration" in ids
    w_entry = cat.get("w-border2-degeneration")
    assert w_entry.tensor == w_state()
    assert w_entry.degeneration.cert.d == 1
    assert w_entry.degeneration.cert.e == 2


def test_default_catalog_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("TPL_CATALOG", str(tmp_path))
    cat = Catalog.default()
    assert cat.path == tmp_path
    monkeypatch.delenv("TPL_CATALOG")
    assert Catalog.default().path.name == "catalog"


def test_catalog_put_rejects_malformed_term(tmp_path):
    # The zero first factor used to hide the wrong lengths of the others.
    one, zero = QC(1), QC(0)
    malformed = [[zero, zero], [one], [one, zero, one, one]]
    terms = w_rank3_terms() + [malformed]
    cat = Catalog(tmp_path)
    with pytest.raises(CatalogError):
        cat.put(CatalogEntry(id="w-malformed", tensor=w_state(), decomposition=terms))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fail_on", ["manifest.json", "w-copy.json"])
def test_catalog_put_crash_keeps_old_files(tmp_path, monkeypatch, fail_on):
    cat = Catalog(tmp_path)
    cat.put(CatalogEntry(id="w-rank3", tensor=w_state(), decomposition=w_rank3_terms()))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real_replace = os.replace

    def replace(src, dst):
        if os.path.basename(dst) == fail_on:
            raise OSError("simulated crash")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="simulated crash"):
        cat.put(CatalogEntry(id="w-copy", tensor=w_state(), decomposition=w_rank3_terms()))
    monkeypatch.undo()
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert {name: after[name] for name in before} == before
    # The entry is written before the manifest: no temp file is left, and at
    # most an unlisted entry is new.
    assert set(after) - set(before) == {"w-copy.json"} - {fail_on}
    assert cat.ids() == ["w-rank3"]
    assert cat.get("w-rank3").tensor == w_state()


def test_catalog_put_syncs_the_directory_after_each_replace(tmp_path, monkeypatch):
    # A rename is durable only once its directory is synced, so the order
    # "entry first, then manifest" holds on disk only with a sync after each.
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        st = os.fstat(fd)
        is_dir = stat.S_ISDIR(st.st_mode)
        events.append(("sync dir", st.st_ino) if is_dir else ("sync file",))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.path.basename(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    Catalog(tmp_path).put(CatalogEntry(id="w-rank3", tensor=w_state(), decomposition=w_rank3_terms()))
    directory = ("sync dir", tmp_path.stat().st_ino)
    assert events == [
        ("sync file",), ("replace", "w-rank3.json"), directory,
        ("sync file",), ("replace", "manifest.json"), directory,
    ]


def test_manifest_id_is_refused_and_the_catalog_survives(tmp_path):
    # <id>.json for the id "manifest" is the manifest itself: a put would
    # overwrite the id list and drop every other entry from the listing.
    cat = Catalog(tmp_path)
    cat.put(CatalogEntry(id="w-rank3", tensor=w_state(), decomposition=w_rank3_terms()))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(CatalogError, match="bad catalog id 'manifest'"):
        cat.put(CatalogEntry(id="manifest", tensor=w_state(), decomposition=w_rank3_terms()))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert cat.ids() == ["w-rank3"]
    assert [entry.id for entry in cat.load_all()] == ["w-rank3"]


@pytest.mark.parametrize("bad_id", ["../escaped", "a/b", ".hidden", "", 7, None])
def test_catalog_rejects_ids_outside_the_directory(tmp_path, bad_id):
    cat = Catalog(tmp_path / "cat")
    with pytest.raises(CatalogError, match="bad catalog id"):
        cat.put(CatalogEntry(id=bad_id, tensor=w_state(), decomposition=w_rank3_terms()))
    with pytest.raises(CatalogError, match="bad catalog id"):
        cat.get(bad_id)
    good = entry_to_json(CatalogEntry(id="w-rank3", tensor=w_state(), decomposition=w_rank3_terms()))
    with pytest.raises(CatalogError, match="bad catalog id"):
        entry_from_json(dict(good, id=bad_id))
    assert list(tmp_path.iterdir()) == []


# -- the verified-entry table: each entry file is verified once per version --


@pytest.fixture
def verify_calls(monkeypatch):
    """An empty verified-entry table, and the verify_entry calls per entry id."""
    monkeypatch.setattr(catalog, "_VERIFIED", {})
    calls = Counter()
    real = catalog.verify_entry

    def counting(entry):
        calls[entry.id] += 1
        return real(entry)

    monkeypatch.setattr(catalog, "verify_entry", counting)
    return calls


def test_packaged_entries_are_verified_once_per_process(verify_calls):
    ids = Catalog.packaged().ids()
    for _ in range(3):
        assert [e.id for e in Catalog.packaged().load_all()] == ids
    for _ in range(3):
        report = disjoint_rank_bounds(w_state(), Catalog.packaged())
        assert report.upper.ref["id"] == "w-border2-degeneration"
        strassen_rank_bounds(w_state(), catalog=Catalog.packaged())
    assert verify_calls == {entry_id: 1 for entry_id in ids}


def test_bound_reports_leave_cached_entries_unchanged(verify_calls):
    cat = Catalog.packaged()
    before = {e.id: entry_to_json(e) for e in cat.load_all()}
    for t in (w_state(), mamu(2), kron(w_state(), w_state())):
        for _ in range(2):
            disjoint_rank_bounds(t, cat)
            strassen_rank_bounds(t, n_max=2, catalog=cat)
    assert {e.id: entry_to_json(e) for e in cat.load_all()} == before
    assert set(verify_calls.values()) == {1}


def w_entry(**metadata):
    return CatalogEntry(id="w-rank3", tensor=w_state(), decomposition=w_rank3_terms(), metadata=metadata)


def test_two_catalogs_on_one_directory_share_verified_entries(tmp_path, verify_calls):
    Catalog(tmp_path).put(w_entry())
    first = Catalog(tmp_path).get("w-rank3")
    assert Catalog(tmp_path).get("w-rank3") is first
    assert Catalog(tmp_path).load_all() == [first]
    assert verify_calls["w-rank3"] == 2  # the put, then the first get


def test_same_size_in_place_edit_is_verified_again(tmp_path, verify_calls):
    cat = Catalog(tmp_path)
    cat.put(w_entry())
    cat.get("w-rank3")
    path = tmp_path / "w-rank3.json"
    before = os.stat(path)
    text = path.read_text()
    edited = text.replace('"re": "1"', '"re": "2"', 1)
    assert edited != text and len(edited) == len(text)
    with open(path, "r+") as fh:
        fh.write(edited)
    after = os.stat(path)
    assert (after.st_ino, after.st_size) == (before.st_ino, before.st_size)
    with pytest.raises(CatalogError, match="does not sum"):
        cat.get("w-rank3")


def test_a_new_version_is_read_and_verified(tmp_path, verify_calls):
    cat = Catalog(tmp_path)
    cat.put(w_entry(version=1))
    assert cat.get("w-rank3").metadata == {"version": 1}
    cat.put(w_entry(version=2))
    assert cat.get("w-rank3").metadata == {"version": 2}
    assert verify_calls["w-rank3"] == 4  # two puts, two gets


def test_a_deleted_entry_file_is_an_unknown_id(tmp_path, verify_calls):
    cat = Catalog(tmp_path)
    cat.put(w_entry())
    cat.get("w-rank3")
    (tmp_path / "w-rank3.json").unlink()
    with pytest.raises(CatalogError, match="unknown catalog id"):
        cat.get("w-rank3")


def test_a_failing_entry_is_never_cached(tmp_path, verify_calls):
    cat = Catalog(tmp_path)
    cat.put(w_entry())
    path = tmp_path / "w-rank3.json"
    good = path.read_text()
    path.write_text(good.replace('"re": "1"', '"re": "-1"', 1))
    for _ in range(2):
        with pytest.raises(CatalogError, match="does not sum"):
            cat.get("w-rank3")
    assert verify_calls["w-rank3"] == 3
    path.write_text(good)
    assert cat.get("w-rank3").tensor == w_state()


def test_the_manifest_is_read_once_per_version(tmp_path, verify_calls, monkeypatch):
    cat = Catalog(tmp_path)
    cat.put(w_entry())
    reads = Counter()
    real = jsonio.load_path

    def counting(path):
        reads[os.path.basename(path)] += 1
        return real(path)

    monkeypatch.setattr(jsonio, "load_path", counting)
    for _ in range(2):
        assert [e.id for e in cat.load_all()] == ["w-rank3"]
    assert reads["manifest.json"] == 1
    cat.ids().append("not-stored")
    assert cat.ids() == ["w-rank3"]
    with pytest.raises(CatalogError, match="malformed"):
        cat.get("manifest")  # the same file, read as an entry, is not served the id list
    cat.put(CatalogEntry(id="w-copy", tensor=w_state(), decomposition=w_rank3_terms()))
    assert [e.id for e in cat.load_all()] == ["w-copy", "w-rank3"]
    assert reads["manifest.json"] == 3  # the get("manifest"), then the new version
