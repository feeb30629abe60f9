"""Persistent store of named tensors, decompositions and certificates.

A catalog is a directory of JSON entry files plus a manifest listing the
entry ids. Every stored decomposition and degeneration certificate is
verified exactly on put, and on load once per file version per process;
corrupted data fails loudly. A verified entry, and the manifest's id list,
is kept in a table shared by every ``Catalog`` of the process, keyed on its
file's path and stat key (device, inode, size, mtime_ns, ctime_ns): a file
that changed in any of these is read (and verified) again; each ``Catalog``
builds the path of its manifest and of each entry file once. Cached entries
are shared between callers and must be treated as read-only.
Literature-sourced values live in entry metadata as provenance strings and
are never used as bounds without a verifying witness.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

from . import jsonio
from .matrix import Matrix
from .named import ghz
from .preorder import verify_degeneration
from .scalars import RATIONAL, _Record, _set_field
from .tensor import Tensor, apply_product_map

ENV_CATALOG_DIR = "TPL_CATALOG"
_PACKAGED_CATALOG = Path(__file__).parent / "data" / "catalog"
# An id names the file <id>.json inside the catalog directory, so it may not
# contain a path separator or start with a dot. No entry may be stored as
# "manifest": that file lists the ids.
_ID_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")
_MANIFEST_ID = "manifest"
# (reader, file path) -> (stat key, what the reader returned): a verified
# CatalogEntry or the manifest's ids. The key is taken before the file is
# read, so a file replaced mid-read is read again next time, never stale.
_VERIFIED = {}


class CatalogError(ValueError):
    """Unknown id, malformed entry, or verification failure."""


def _check_id(entry_id):
    """Return ``entry_id`` if it is a valid catalog id; raise CatalogError otherwise."""
    if not isinstance(entry_id, str) or not _ID_PATTERN.fullmatch(entry_id):
        raise CatalogError(f"bad catalog id {entry_id!r}: use letters, digits, '.', '_' and '-'")
    return entry_id


class Degeneration(_Record):
    """Source tensor plus an eps certificate degenerating it to the entry tensor."""

    __match_args__ = ("source", "cert")

    def __init__(self, source, cert):
        _set_field(self, "source", source)
        _set_field(self, "cert", cert)


class CatalogEntry(_Record):
    """A named tensor with its optional decomposition (a list of terms), ``Degeneration`` and metadata dict.

    ``metadata`` defaults to a new empty dict.
    """

    __match_args__ = ("id", "tensor", "decomposition", "degeneration", "metadata")

    def __init__(self, id, tensor, decomposition=None, degeneration=None, metadata=None):
        _set_field(self, "id", id)
        _set_field(self, "tensor", tensor)
        _set_field(self, "decomposition", decomposition)
        _set_field(self, "degeneration", degeneration)
        _set_field(self, "metadata", {} if metadata is None else metadata)


def decomposition_tensor(dims, terms):
    """Exact sum of the simple tensors of a decomposition.

    A rank-R decomposition is a restriction from the unit tensor <R>: map j
    has term r's j-th vector as column r, and applying the maps to <R>
    sums the terms' outer products.
    """
    if not dims:
        raise CatalogError("a decomposition needs a tensor of order at least 1")
    for term in terms:
        if len(term) != len(dims):
            raise CatalogError(f"term has {len(term)} factors for order {len(dims)}")
        for j, (vec, d) in enumerate(zip(term, dims)):
            if len(vec) != d:
                raise CatalogError(f"term factor {j} has length {len(vec)}, dimension is {d}")
    if not terms:
        return Tensor(dims, {}, RATIONAL)
    maps = []
    for j, d in enumerate(dims):
        columns = {(i, r): c for r, term in enumerate(terms) for i, c in enumerate(term[j])}
        maps.append(Matrix(d, len(terms), columns))
    return apply_product_map(maps, ghz(len(terms), len(dims)))


def verify_entry(entry):
    """Exact verification of everything the entry claims; raises on failure."""
    if entry.decomposition is not None:
        total = decomposition_tensor(entry.tensor.dims, entry.decomposition)
        if total != entry.tensor:
            raise CatalogError(
                f"entry {entry.id!r}: decomposition does not sum to the stored tensor"
            )
    if entry.degeneration is not None:
        deg = entry.degeneration
        try:
            ok, d, e = verify_degeneration(deg.source, entry.tensor, deg.cert)
        except Exception as exc:
            raise CatalogError(f"entry {entry.id!r}: degeneration check failed: {exc}") from exc
        if not ok:
            raise CatalogError(
                f"entry {entry.id!r}: degeneration certificate does not reach the tensor"
            )
        if (d, e) != (deg.cert.d, deg.cert.e):
            raise CatalogError(
                f"entry {entry.id!r}: declared degrees (d={deg.cert.d}, e={deg.cert.e}) "
                f"differ from measured (d={d}, e={e})"
            )


def entry_to_json(entry):
    obj = {"id": entry.id, "tensor": jsonio.tensor_to_json(entry.tensor)}
    if entry.decomposition is not None:
        obj["decomposition"] = jsonio.decomposition_to_json(entry.decomposition)
    if entry.degeneration is not None:
        obj["degeneration"] = {
            "source": jsonio.tensor_to_json(entry.degeneration.source),
            "cert": jsonio.certificate_to_json(entry.degeneration.cert),
        }
    if entry.metadata:
        obj["metadata"] = entry.metadata
    return obj


def entry_from_json(obj):
    entry_id = None
    try:
        entry_id = _check_id(obj["id"])
        tensor = jsonio.tensor_from_json(obj["tensor"])
        decomposition = None
        if "decomposition" in obj:
            decomposition = jsonio.decomposition_from_json(obj["decomposition"])
        degeneration = None
        if "degeneration" in obj:
            degeneration = Degeneration(
                source=jsonio.tensor_from_json(obj["degeneration"]["source"]),
                cert=jsonio.certificate_from_json(obj["degeneration"]["cert"]),
            )
        return CatalogEntry(
            id=entry_id,
            tensor=tensor,
            decomposition=decomposition,
            degeneration=degeneration,
            metadata=obj.get("metadata", {}),
        )
    except CatalogError:
        raise
    except jsonio.MALFORMED as exc:
        where = "catalog entry" if entry_id is None else f"entry {entry_id!r}"
        raise CatalogError(f"malformed {where}: {exc}") from exc


def _read_once(read, path):
    """``read(path)``, once per version of the file in this process (see ``_VERIFIED``)."""
    st = os.stat(path)
    key = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)
    cached = _VERIFIED.get((read, path))
    if cached is None or cached[0] != key:
        cached = _VERIFIED[read, path] = (key, read(path))
    return cached[1]


def _read_manifest(path):
    obj = jsonio.load_path(path)
    entries = obj.get("entries") if isinstance(obj, dict) else None
    if not isinstance(entries, list):
        raise CatalogError(f"{path}: manifest has no entry list")
    return tuple(entries)


def _read_entry(path):
    entry = entry_from_json(jsonio.load_path(path))
    if entry.id != path.stem:
        raise CatalogError(f"{path}: id field {entry.id!r} disagrees with filename")
    verify_entry(entry)
    return entry


class Catalog:
    """Directory-backed store; reads verify (once per file version), puts verify before writing."""

    def __init__(self, path):
        self.path = Path(path)
        self._manifest_path = self.path / f"{_MANIFEST_ID}.json"
        # id -> the path of its entry file, built once per Catalog.
        self._entry_paths = {}

    @classmethod
    def default(cls):
        """Catalog from $TPL_CATALOG, falling back to the packaged data."""
        env = os.environ.get(ENV_CATALOG_DIR)
        return cls(env) if env else cls(_PACKAGED_CATALOG)

    @classmethod
    def packaged(cls):
        return cls(_PACKAGED_CATALOG)

    def _entry_path(self, entry_id):
        path = self._entry_paths.get(_check_id(entry_id))
        if path is None:
            path = self._entry_paths[entry_id] = self.path / f"{entry_id}.json"
        return path

    def ids(self):
        try:
            return list(_read_once(_read_manifest, self._manifest_path))
        except (FileNotFoundError, NotADirectoryError):
            return []

    def get(self, entry_id):
        """The verified entry ``entry_id``; read and verified once per file version."""
        try:
            return _read_once(_read_entry, self._entry_path(entry_id))
        except (FileNotFoundError, NotADirectoryError):
            raise CatalogError(f"unknown catalog id {entry_id!r}") from None

    def put(self, entry):
        if _check_id(entry.id) == _MANIFEST_ID:
            raise CatalogError(f"bad catalog id {entry.id!r}: it names the catalog's manifest file")
        verify_entry(entry)
        self.path.mkdir(parents=True, exist_ok=True)
        # Entry first, then manifest: a crash in between leaves at most an
        # unlisted entry, never a listed id whose file is missing.
        jsonio.dump_path(self._entry_path(entry.id), entry_to_json(entry))
        ids = self.ids()
        if entry.id not in ids:
            ids.append(entry.id)
        jsonio.dump_path(self._manifest_path, {"entries": sorted(ids)})
        return entry

    def load_all(self):
        """Every entry, each verified (see ``get``); fails loudly on the first mismatch."""
        return [self.get(entry_id) for entry_id in self.ids()]
