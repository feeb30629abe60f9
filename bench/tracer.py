"""In-memory span tracer that wraps the public functions of ``tpl`` from outside.

``Tracer.install()`` replaces every public module-level function of the
traced modules with a wrapper, at every place the function is bound: a
function defined in ``tpl.tensor`` and imported elsewhere with
``from .tensor import apply_product_map`` is replaced in ``tpl.tensor``,
``tpl.preorder``, ``tpl`` and every other ``tpl`` module that holds it.
Named methods (``Matrix.kron``, ``Catalog.get``, ...) are wrapped on their
class. ``uninstall()`` puts every original back.

Each wrapped call records one span ``(name, start, end, parent, op)`` in a
list; nothing is written until :meth:`Tracer.write_jsonl`. The scalar
dunders of ``QC`` and ``EpsPoly`` run millions of times per op, so they get
exact call counters and no spans.

Probes compute exact counters (entries in and out, contraction terms,
distinct-input keys) from the arguments and result seen at the wrapper. A
probe runs after its span has closed and is itself recorded as a
``trace.probe`` span, so its cost lands in no layer's self time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

TRACED_MODULES = (
    "tensor",
    "matrix",
    "named",
    "preorder",
    "obstructions",
    "hypergraph",
    "catalog",
    "asymptotic",
    "jsonio",
    "cli",
)

# (module, class, methods): methods wrapped on the class itself.
TRACED_METHODS = (
    ("matrix", "Matrix", ("kron", "eval_eps")),
    ("catalog", "Catalog", ("get", "put", "ids", "load_all")),
)

# (class, dunder, counter): exact scalar call counts. Reflected operators
# share the counter of their forward form.
SCALAR_COUNTERS = (
    ("QC", "__mul__", "scalars.qc_mul"),
    ("QC", "__rmul__", "scalars.qc_mul"),
    ("QC", "__add__", "scalars.qc_add"),
    ("QC", "__radd__", "scalars.qc_add"),
    ("QC", "__truediv__", "scalars.qc_div"),
    ("EpsPoly", "__mul__", "scalars.eps_mul"),
    ("EpsPoly", "__rmul__", "scalars.eps_mul"),
    ("EpsPoly", "__add__", "scalars.eps_add"),
    ("EpsPoly", "__radd__", "scalars.eps_add"),
)

PROBE_SPAN = "trace.probe"


# -- content keys: canonical text digests, computed without calling tpl -----
# Digests rather than objects, so that keys from traced child processes can
# be merged and so that equal inputs give equal keys in every process.


def _scalar_text(v):
    if hasattr(v, "coeffs"):
        return "{" + ";".join(f"{d}:{_scalar_text(c)}" for d, c in sorted(v.coeffs.items())) + "}"
    if hasattr(v, "re"):
        return f"{v.re},{v.im}"
    return repr(v)


def _entries_text(entries):
    return "|".join(f"{idx}={_scalar_text(v)}" for idx, v in sorted(entries.items()))


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def tensor_text(t):
    return f"T{t.dims}{t.domain}:{_entries_text(t.entries)}"


def matrix_text(m):
    return f"M{m.rows}x{m.cols}{m.domain}:{_entries_text(m.entries)}"


def cert_text(c):
    maps = "/".join(matrix_text(m) for m in c.maps)
    return f"{type(c).__name__}:{getattr(c, 'd', '')}:{getattr(c, 'e', '')}:{maps}"


def verify_key(kind, t, target, cert):
    return _digest(f"{kind}#{tensor_text(t)}#{tensor_text(target)}#{cert_text(cert)}")


def entry_key(entry):
    parts = [entry.id, tensor_text(entry.tensor)]
    if entry.decomposition is not None:
        parts.append(repr([[[_scalar_text(v) for v in vec] for vec in term] for term in entry.decomposition]))
    if entry.degeneration is not None:
        parts.append(tensor_text(entry.degeneration.source) + cert_text(entry.degeneration.cert))
    parts.append(json.dumps(entry.metadata, sort_keys=True))
    return _digest("#".join(parts))


def product_map_terms(maps, t):
    """Sum over input entries of the product of that entry's map-column lengths."""
    col_len = []
    for m in maps:
        lengths = Counter(j for (_i, j) in m.entries)
        col_len.append(lengths)
    total = 0
    for idx in t.entries:
        prod = 1
        for j, i in enumerate(idx):
            prod *= col_len[j].get(i, 0)
            if not prod:
                break
        total += prod
    return total


# -- probes: (tracer, bound arguments, result) -> None -----------------------


def _probe_apply_product_map(tr, a, result):
    tr.counts["tensor.apply_product_map.nnz_in"] += a["t"].nnz()
    tr.counts["tensor.apply_product_map.nnz_out"] += result.nnz()
    tr.counts["tensor.apply_product_map.terms"] += product_map_terms(a["maps"], a["t"])


def _probe_verify(kind):
    def probe(tr, a, _result):
        tr.keys["preorder.verify"].add(verify_key(kind, a["t"], a["target"], a["cert"]))
        tr.counts["preorder.verify.calls"] += 1

    return probe


def _probe_rank(tr, a, _result):
    m = a["m"]
    side = max(m.rows, m.cols)
    if side > tr.counts["matrix.rank.max_side"]:
        tr.counts["matrix.rank.max_side"] = side


def _probe_build_structure(tr, _a, result):
    tr.counts["hypergraph.build_structure.nnz_out"] += result.nnz()


def _probe_simple_rank(tr, a, _result):
    spec = a["spec"]
    tr.keys["obstructions.simple_rank"].add(f"{spec.d3},{spec.p},{a['trials']},{a['seed']}")


def _probe_verify_entry(tr, a, _result):
    tr.keys["catalog.verify"].add(entry_key(a["entry"]))


def _probe_load_path(tr, a, _result):
    tr.counts["jsonio.load_path.bytes"] += os.path.getsize(a["path"])


def _probe_dump_path(tr, a, _result):
    tr.counts["jsonio.dump_path.bytes"] += os.path.getsize(a["path"])


PROBES = {
    "tensor.apply_product_map": _probe_apply_product_map,
    "preorder.verify_restriction": _probe_verify("restriction"),
    "preorder.verify_degeneration": _probe_verify("degeneration"),
    "matrix.rank": _probe_rank,
    "hypergraph.build_structure": _probe_build_structure,
    "obstructions.max_simple_koszul_rank": _probe_simple_rank,
    "catalog.verify_entry": _probe_verify_entry,
    "jsonio.load_path": _probe_load_path,
    "jsonio.dump_path": _probe_dump_path,
}


class Tracer:
    """Span and counter store plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, op id]
        self.counts = Counter()
        self.keys = defaultdict(set)
        self.op_id = None
        self._stack = []
        self._restore = []

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        probe = PROBES.get(name)
        signature = inspect.signature(fn) if probe else None
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            span = [name, 0.0, 0.0, parent, tracer.op_id]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if probe is not None:
                start = perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                probe(tracer, bound.arguments, result)
                spans.append([PROBE_SPAN, start, perf_counter(), parent, tracer.op_id])
            return result

        return wrapper

    @staticmethod
    def _count_wrapper(counts, name, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced function at every binding site in ``tpl``."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        import tpl

        modules = {m: importlib.import_module(f"tpl.{m}") for m in TRACED_MODULES}
        scalars = importlib.import_module("tpl.scalars")
        namespaces = [tpl, scalars, *modules.values()]
        wrapped = {}
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped[id(fn)] = (fn, self._span_wrapper(f"{short}.{attr}", fn))
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(namespace, attr, hit[1])
        for short, cls_name, methods in TRACED_METHODS:
            cls = getattr(modules[short], cls_name)
            for attr in methods:
                self._set(cls, attr, self._span_wrapper(f"{short}.{attr}", cls.__dict__[attr]))
        for cls_name, attr, counter in SCALAR_COUNTERS:
            cls = getattr(scalars, cls_name)
            self._set(cls, attr, self._count_wrapper(self.counts, counter, cls.__dict__[attr]))
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results --------------------------------------------------------------

    @contextmanager
    def op(self, op_id):
        """Record one benchmark op as a ``bench.op`` span enclosing its layer spans."""
        span = ["bench.op", 0.0, 0.0, None, op_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self.op_id = op_id
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()
            self.op_id = None

    def merge(self, spans, counts, keys):
        """Fold in what a traced child process recorded during the current span.

        ``perf_counter`` reads the system's monotonic clock on Linux, so child
        and parent span times share one time line.
        """
        parent = self._stack[-1] if self._stack else None
        base = len(self.spans)
        for name, start, end, up, _op in spans:
            self.spans.append([name, start, end, parent if up is None else up + base, self.op_id])
        self.counts.update(counts)
        for name, values in keys.items():
            self.keys[name].update(values)

    def layer_totals(self):
        """name -> {"calls": n, "self_s": total self time} over all spans."""
        totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for span, own in zip(self.spans, self_times(self.spans)):
            t = totals[span[0]]
            t["calls"] += 1
            t["self_s"] += own
        return totals

    def write_jsonl(self, path):
        own = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (span, self_s) in enumerate(zip(self.spans, own)):
                name, start, end, parent, op = span
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "self_s": self_s,
                }) + "\n")
            fh.write(json.dumps({"counts": dict(sorted(self.counts.items())),
                                 "distinct": {k: len(v) for k, v in sorted(self.keys.items())}}) + "\n")


def self_times(spans):
    """Per span: duration minus the part of it that child spans cover.

    ``spans`` is a list of ``(name, start, end, parent, op)`` with ``parent``
    the index of the enclosing span or None. Child intervals are clipped to
    the parent and merged before subtracting, so overlapping children are
    not counted twice.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_name, start, end, _parent, _op) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out
