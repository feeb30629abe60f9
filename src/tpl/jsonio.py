"""JSON wire formats for tensors, matrices, certificates and hypergraphs.

Exact scalars serialize as fraction strings ("p" or "p/q"), so files in the
rational and eps domains round-trip bit-exactly. Entry lists are written in
sorted index order and dict keys in a fixed order, making every writer
deterministic byte for byte.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from . import scalars
from .matrix import Matrix
from .preorder import CertificateError, DegenerationCertificate, RestrictionCertificate
from .scalars import EPS, FLOAT, RATIONAL, EpsPoly
from .tensor import Tensor


class FormatError(ValueError):
    """Malformed or inconsistent JSON payload."""


# What parsing a payload of the wrong shape raises: a missing key, a value
# of the wrong type or form, or a list where an object was expected.
MALFORMED = (KeyError, TypeError, ValueError, AttributeError)


def _malformed(what, exc):
    if isinstance(exc, KeyError):
        return FormatError(f"{what} object missing field {exc}")
    return FormatError(f"bad {what} object: {exc}")


def _qc_fields(v):
    return {
        "re": scalars.format_fraction(v.re),
        "im": scalars.format_fraction(v.im),
    }


def _qc_from_fields(obj):
    try:
        return scalars.parse_qc(obj["re"], obj["im"])
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational scalar {obj!r}") from exc


def scalar_to_json(domain, v):
    if domain == RATIONAL:
        return _qc_fields(v)
    if domain == EPS:
        return {
            "coeffs": {
                str(d): _qc_fields(c) for d, c in sorted(v.coeffs.items())
            }
        }
    if domain == FLOAT:
        return {"re": v.real, "im": v.imag}
    raise FormatError(f"unknown domain {domain!r}")


def scalar_from_json(domain, obj):
    if domain == RATIONAL:
        return _qc_from_fields(obj)
    if domain == EPS:
        coeffs = obj.get("coeffs")
        if not isinstance(coeffs, dict):
            raise FormatError(f"eps scalar needs a coeffs map, got {obj!r}")
        try:
            return EpsPoly({scalars.parse_int(d): _qc_from_fields(c) for d, c in coeffs.items()})
        except ValueError as exc:
            raise FormatError(f"bad eps scalar {obj!r}") from exc
    if domain == FLOAT:
        try:
            return complex(float(obj["re"]), float(obj["im"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad float scalar {obj!r}") from exc
    raise FormatError(f"unknown domain {domain!r}")


def _entries_to_json(t):
    """Entry list of a tensor or matrix, in sorted index order."""
    entries = []
    for idx, v in t.sorted_items():
        item = {"i": list(idx)}
        item.update(scalar_to_json(t.domain, v))
        entries.append(item)
    return entries


def _entries_from_json(obj):
    """(entries, domain) of a tensor or matrix payload."""
    domain = obj["domain"]
    entries = {}
    for item in obj["entries"]:
        entries[tuple(item["i"])] = scalar_from_json(domain, item)
    return entries, domain


def tensor_to_json(t):
    return {
        "order": t.order,
        "dims": list(t.dims),
        "domain": t.domain,
        "entries": _entries_to_json(t),
    }


def tensor_from_json(obj):
    try:
        t = Tensor(obj["dims"], *_entries_from_json(obj))
        if "order" in obj and scalars.check_ints((obj["order"],), "order") != (t.order,):
            raise FormatError("order field disagrees with dims length")
        return t
    except FormatError:
        raise
    except MALFORMED as exc:
        raise _malformed("tensor", exc) from exc


def matrix_to_json(m):
    return {"rows": m.rows, "cols": m.cols, "domain": m.domain, "entries": _entries_to_json(m)}


def matrix_from_json(obj):
    try:
        return Matrix(obj["rows"], obj["cols"], *_entries_from_json(obj))
    except FormatError:
        raise
    except MALFORMED as exc:
        raise _malformed("matrix", exc) from exc


def certificate_to_json(cert):
    if isinstance(cert, RestrictionCertificate):
        return {"kind": "restriction", "maps": [matrix_to_json(m) for m in cert.maps]}
    if isinstance(cert, DegenerationCertificate):
        return {
            "kind": "degeneration",
            "maps": [matrix_to_json(m) for m in cert.maps],
            "d": cert.d,
            "e": cert.e,
        }
    raise FormatError(f"not a certificate: {cert!r}")


def certificate_from_json(obj):
    try:
        kind = obj["kind"]
        maps = tuple(matrix_from_json(m) for m in obj["maps"])
        if kind == "restriction":
            return RestrictionCertificate(maps)
        if kind == "degeneration":
            return DegenerationCertificate(maps, obj.get("d", 0), obj.get("e", 0))
    except FormatError:
        raise
    except CertificateError as exc:
        raise FormatError(str(exc)) from exc
    except MALFORMED as exc:
        raise _malformed("certificate", exc) from exc
    raise FormatError(f"unknown certificate kind {kind!r}")


def hypergraph_to_json(h):
    return {"vertices": h.n_vertices, "edges": [list(e) for e in h.edges]}


def grouping_map_to_json(gm):
    return {"map": list(gm.mapping)}


def vector_to_json(vec):
    return [_qc_fields(v) for v in vec]


def vector_from_json(raw):
    return [_qc_from_fields(x) for x in raw]


def decomposition_to_json(terms):
    """Terms are lists of k rational vectors (one per factor)."""
    return [[vector_to_json(vec) for vec in term] for term in terms]


def decomposition_from_json(raw):
    try:
        return [[vector_from_json(vec) for vec in term] for term in raw]
    except FormatError:
        raise
    except MALFORMED as exc:
        raise _malformed("decomposition", exc) from exc


def dumps_pretty(obj):
    return json.dumps(obj, indent=2) + "\n"


def dumps_compact(obj):
    return json.dumps(obj, separators=(",", ":")) + "\n"


def loads(data, where):
    """The JSON value of ``data``: text, or UTF-8 bytes, read from ``where``.

    Bytes that are not UTF-8, text that is not JSON, and nesting deeper than
    the interpreter's recursion limit raise FormatError naming ``where``.
    """
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{where}: {exc}") from exc


def load_path(path):
    with open(path, "rb") as fh:
        return loads(fh.read(), path)


def dump_path(path, obj):
    """Write obj as pretty JSON via a synced temp file that replaces ``path`` atomically.

    The directory is synced after the rename, so the rename itself survives
    a power loss once this returns, and writes made one after another reach
    the disk in that order.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(16).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(dumps_pretty(obj))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
