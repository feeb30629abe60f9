"""The seeded workloads: inputs, the op each case runs, and its output check.

Four parts (``interp``, ``lattice``, ``bounds``, ``cli``) each generate one
kind of traffic. The benchmark runs two workloads, each a :class:`Mix` that
interleaves the rounds of two parts: ``certify`` (``interp`` and
``lattice``, the contraction layer) and ``query`` (``bounds`` and ``cli``,
exact rank, the catalog and the command line). Two workloads leave time for
longer runs than four would, and every layer is still measured.

A part's ``prepare`` builds what every case shares (shape cycles,
hypergraph families, the catalog); ``case(ctx, i)`` then builds case ``i``
from ``random.Random(f"{name}-{seed}-{i}")`` alone, so every op of a run
gets inputs of its own and the same seed gives the same inputs. Cases follow
a fixed cycle of op kinds and sizes, and the seed draws only the values, so
each run sees the same cost mix.

Generators may call ``tpl`` constructors and ``make_family``, and they use
:mod:`oracle` where an input is itself a computed value (the target of a
random degeneration). Every expected output is computed in ``check``, from
the raw generated values and with :mod:`oracle` only, after the op's time
has been taken.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracle
from oracle import require
from tpl import asymptotic, catalog, hypergraph, obstructions, preorder
from tpl.matrix import Matrix
from tpl.preorder import DegenerationCertificate
from tpl.scalars import EPS, RATIONAL, QC, EpsPoly
from tpl.tensor import Tensor

ONE = Fraction(1)


@dataclass
class Case:
    """One op: what the library receives (``args``) and the raw values its check needs (``data``)."""

    index: int
    kind: str
    args: tuple
    data: object = None
    writes: bool = False
    child: bool = False
    part: str = ""


@dataclass
class Context:
    seed: int
    state: dict = field(default_factory=dict)


def case_rng(name, seed, index):
    return random.Random(f"{name}-{seed}-{index}")


# -- seeded generators --------------------------------------------------------


def _random_entries(rng, dims, density, num, den):
    """Sparse real tensor: entries p/q with |p| <= num, q in {1, den}."""
    out = {}
    for idx in np.ndindex(*dims):
        if rng.random() < density:
            v = Fraction(rng.randint(-num, num), rng.choice((1, den)))
            if v:
                out[tuple(int(i) for i in idx)] = v
    return out


# Magnitudes of the six scalings of one base change (three 2x2 monomials).
# The seed permutes them and picks signs; a fixed multiset keeps the size of
# the rationals, and so the cost of each op, the same for every seed.
SCALINGS = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 4), Fraction(4, 3), Fraction(3))


def _monomials_2x2(rng):
    """Three random 2x2 monomials (perm, scalings): A e_i = a_i e_perm(i)."""
    mags = list(SCALINGS)
    rng.shuffle(mags)
    out = []
    for j in range(3):
        perm = [0, 1]
        rng.shuffle(perm)
        out.append((perm, [m * rng.choice((1, -1)) for m in mags[2 * j:2 * j + 2]]))
    return out


def _apply_monomials(entries, mons):
    out = {}
    for idx, v in entries.items():
        key = tuple(perm[i] for i, (perm, _s) in zip(idx, mons))
        for i, (_perm, scale) in zip(idx, mons):
            v = v * scale[i]
        out[key] = v
    return out


def _invertible(rng, d, span, dens=(1,)):
    """Random invertible d x d matrix with entries p/q, |p| <= span, q in ``dens``."""
    while True:
        m = [[Fraction(rng.randint(-span, span), rng.choice(dens)) for _ in range(d)] for _ in range(d)]
        if oracle.float_rank(np.array(m, dtype=float)) == d:
            return m


def _apply_dense_maps(entries, maps):
    col_maps = []
    for m in maps:
        cols = {}
        for r, row in enumerate(m):
            for c, v in enumerate(row):
                if v:
                    cols.setdefault(c, []).append((r, (v, Fraction(0))))
        col_maps.append(cols)
    out = oracle.modewise({k: (v, Fraction(0)) for k, v in entries.items()}, col_maps)
    return {k: v[0] for k, v in out.items()}


def ghz_entries(r, k=3):
    return {(i,) * k: ONE for i in range(r)}


W_ENTRIES = {(0, 0, 1): ONE, (0, 1, 0): ONE, (1, 0, 0): ONE}
# The eps-certificate GHZ_2 |> W with (d, e) = (1, 2): [[1, -1], [eps, 0]] on each factor.
W_BORDER_MAP = {(0, 0): {0: ONE}, (1, 0): {1: ONE}, (0, 1): {0: -ONE}}


def seeded_w_border(rng):
    """GHZ_2 |> W under random monomial base changes of source and target.

    Returns (source, target, eps maps): the maps become B_j M A_j^-1, so the
    degrees (d, e) = (1, 2) and the sparsity are unchanged.
    """
    a, b = _monomials_2x2(rng), _monomials_2x2(rng)
    maps = []
    for (pa, sa), (pb, sb) in zip(a, b):
        m = {}
        for (r, c), p in W_BORDER_MAP.items():
            m[(pb[r], pa[c])] = {d: coef * sb[r] / sa[c] for d, coef in p.items()}
        maps.append(m)
    return _apply_monomials(ghz_entries(2), a), _apply_monomials(W_ENTRIES, b), maps


# -- conversions to library values ----------------------------------------------


def lib_tensor(dims, entries):
    return Tensor(dims, {k: QC(v) for k, v in entries.items()}, RATIONAL)


def lib_eps_matrix(rows, cols, entries):
    return Matrix(rows, cols, {rc: EpsPoly({d: QC(c) for d, c in p.items()}) for rc, p in entries.items()}, EPS)


def real_pairs(entries):
    return {k: (v, Fraction(0)) for k, v in entries.items()}


def cert_maps(cert):
    return [(m.rows, m.cols, oracle.matrix_pairs(m)) for m in cert.maps]


def cert_canon(cert):
    return [[rows, cols, oracle.pairs_json(e)] for rows, cols, e in cert_maps(cert)]


# -- interp ---------------------------------------------------------------------


class Interp:
    """Random degenerations in the style of acceptance criterion 3."""

    name = "interp"
    round_ops = 32

    def _shape(self, shapes):
        """Sizes of one case: dims, out dims, eps degree per map, nnz counts."""
        k = shapes.randint(2, 4)
        dims = tuple(shapes.randint(2, 4) for _ in range(k))
        out_dims = tuple(shapes.randint(2, 3) for _ in range(k))
        tops = [shapes.choice((1, 1, 2)) for _ in range(k)]
        while sum(tops) > 6:  # e <= sum(tops) <= 6
            tops = [shapes.choice((1, 1, 2)) for _ in range(k)]
        nnz = max(1, round(0.4 * math.prod(dims)))
        col_nnz = [shapes.randint(1, rows) for rows in out_dims]
        return dims, out_dims, tops, nnz, col_nnz

    def _degeneration(self, rng, shape):
        """Seeded values on a fixed sparsity: t has ``nnz`` entries, column c of
        map j has ``col_nnz[j]`` entries, each a polynomial with every degree
        up to ``tops[j]``. Redrawn until the image is nonzero; e <= 6 holds
        by the choice of ``tops``. The lowest coefficient of the image is the
        target, an input of the op."""
        dims, out_dims, tops, nnz, col_nnz = shape
        cells = list(np.ndindex(*dims))
        while True:
            t = {}
            for idx in rng.sample(cells, nnz):
                t[tuple(int(i) for i in idx)] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 3)))
            maps = []
            for j, top in enumerate(tops):
                m = {}
                for c in range(dims[j]):
                    for r in rng.sample(range(out_dims[j]), col_nnz[j]):
                        m[(r, c)] = {d: Fraction(rng.choice((-2, -1, 1, 2))) for d in range(top + 1)}
                maps.append(m)
            image = oracle.eps_image(t, maps)
            if image:
                _d, e, low = oracle.degeneration_degrees(image)
                return t, maps, e, low

    def prepare(self, seed, workdir):
        # A fixed cycle of shapes and sparsity counts, the same for every
        # seed; positions and values come from the seed and the case index.
        shapes = random.Random(f"{self.name}-shapes")
        return Context(seed, {"cycle": [self._shape(shapes) for _ in range(self.round_ops)]})

    def case(self, ctx, i):
        shape = ctx.state["cycle"][i % self.round_ops]
        dims, out_dims = shape[0], shape[1]
        t, maps, e, low = self._degeneration(case_rng(self.name, ctx.seed, i), shape)
        copies = e + 1
        summed = {}
        for copy in range(copies):
            for idx, v in t.items():
                summed[tuple(x + copy * d for x, d in zip(idx, dims))] = v
        source, target = lib_tensor(dims, t), lib_tensor(out_dims, low)
        cert = DegenerationCertificate(tuple(
            lib_eps_matrix(out_dims[j], dims[j], m) for j, m in enumerate(maps)))
        direct_sum = lib_tensor(tuple(d * copies for d in dims), summed)
        return Case(i, "interpolate", (source, target, cert, direct_sum), (t, dims, low, out_dims, copies))

    def run(self, ctx, case):
        source, target, cert, direct_sum = case.args
        out = preorder.interpolate(source, target, cert)
        return out, preorder.verify_restriction(direct_sum, target, out)

    def check(self, ctx, case, output):
        cert, ok = output
        require(ok is True, "verify_restriction rejected the interpolated certificate")
        src, dims, low, out_dims, copies = case.data
        oracle.check_restriction(real_pairs(src), dims, real_pairs(low), out_dims, cert_maps(cert), copies)

    def canon(self, case, output):
        return {"ok": output[1], "maps": cert_canon(output[0])}


# -- lattice --------------------------------------------------------------------


class Lattice:
    """Edgewise lattice constructions from seeded base changes of GHZ_2 |> W."""

    name = "lattice"
    # One round: 12 n = 2 patches (6 of each family), 5 Triangular n = 3 and
    # 3 Kagome n = 3, the slowest. In the ``certify`` mix the median falls
    # among the n = 2 ops and p90 among the n = 3 ops. The mix is a choice,
    # not a measured usage pattern.
    cycle = (("Triangular", 2), ("Kagome", 2), ("Triangular", 3), ("Kagome", 2), ("Triangular", 2),
             ("Kagome", 3), ("Triangular", 2), ("Kagome", 2), ("Triangular", 3), ("Triangular", 2),
             ("Kagome", 2), ("Kagome", 3), ("Triangular", 2), ("Triangular", 3), ("Kagome", 2),
             ("Triangular", 2), ("Triangular", 3), ("Kagome", 2), ("Kagome", 3), ("Triangular", 3))
    round_ops = len(cycle)

    def prepare(self, seed, workdir):
        return Context(seed, {"families": {key: hypergraph.make_family(*key) for key in sorted(set(self.cycle))}})

    def case(self, ctx, i):
        family, n = self.cycle[i % self.round_ops]
        src, tgt, maps = seeded_w_border(case_rng(self.name, ctx.seed, i))
        cert = DegenerationCertificate(tuple(lib_eps_matrix(2, 2, m) for m in maps), d=1, e=2)
        return Case(i, f"{family}-{n}", (lib_tensor((2, 2, 2), src), lib_tensor((2, 2, 2), tgt), cert, family, n),
                    (src, tgt, family, n))

    def run(self, ctx, case):
        return asymptotic.lattice_construction(*case.args)

    def check(self, ctx, case, output):
        src, tgt, family, n = case.data
        h = ctx.state["families"][family, n]
        src_dims, src_struct = oracle.structure(h.n_vertices, h.edges, real_pairs(src), (2, 2, 2))
        tgt_dims, tgt_struct = oracle.structure(h.n_vertices, h.edges, real_pairs(tgt), (2, 2, 2))
        oracle.check_restriction(src_struct, src_dims, tgt_struct, tgt_dims, cert_maps(output), 2 * n + 1)

    def canon(self, case, output):
        return cert_canon(output)


# -- bounds ---------------------------------------------------------------------


def _koszul_rank(entries, d):
    return oracle.float_rank(oracle.koszul_dense(oracle.dense(real_pairs(entries), (d, d, d)), 1))


def bounds_tensor(rng, spec):
    """Entries of one ``bounds`` input; ``spec`` names its kind.

    ``("random", d, density, den)``: entries p/q, |p| <= den, q in {1, den}.
    ``("ghz",)``: GHZ_3 under random invertible base changes, so its Koszul
    rank is GHZ_3's own 6 and an obstruction against GHZ_3 is a tie.
    ``("koszul", k)``: a sparse tensor with Koszul rank k under random
    invertible base changes, which keep the rank.
    """
    if spec[0] == "random":
        _kind, d, density, den = spec
        entries = {}
        while not entries:
            entries = _random_entries(rng, (d, d, d), density, den, den)
        return entries
    entries = ghz_entries(3)
    if spec[0] == "koszul":
        entries = {}
        while not entries or _koszul_rank(entries, 3) != spec[1]:
            entries = _random_entries(rng, (3, 3, 3), 0.3, 2, 3)
    return _apply_dense_maps(entries, [_invertible(rng, 3, 2) for _ in range(3)])


class Bounds:
    """Exact-rank obstructions and bound reports on random 3x3x3 and 4x4x4 tensors."""

    name = "bounds"
    GHZ, K7, K8 = ("ghz",), ("koszul", 7), ("koszul", 8)
    D16, D3, H16, H3 = ("random", 3, 1.0, 16), ("random", 3, 1.0, 3), ("random", 3, 0.5, 16), ("random", 3, 0.5, 3)
    H3X4 = ("random", 4, 0.5, 3)
    # (op, tensor kind); one round. Obstructions against GHZ_3 at c = 1 and
    # c = 2 cover a tie (base-changed GHZ_3, answer False), Koszul ranks 7
    # and 8 and, at c = 2, a dense tensor (answer True). By cost, a round is
    # 6 cheap ops (c = 1, ratios), 6 disjoint_rank_bounds on 3x3x3, the c = 2
    # tie, 4 disjoint_rank_bounds on 4x4x4 and 3 slower c = 2 ops. In the
    # ``query`` mix the median and p75 fall in the band of the ``cli``
    # children, the c = 2 tie and the 4x4x4 ops, so a few ops more or less in
    # a run do not move them to another kind. The mix is a choice, not a
    # measured usage pattern.
    cycle = (
        ("obstruct-1", GHZ), ("disjoint", D16), ("ratio", D3), ("disjoint", H3X4), ("obstruct-2", GHZ),
        ("disjoint", H3), ("ratio", K7), ("disjoint", H3X4), ("obstruct-1", K7), ("disjoint", D3),
        ("obstruct-2", K7), ("disjoint", H3X4), ("ratio", K8), ("disjoint", H16), ("obstruct-2", K8),
        ("obstruct-1", K8), ("disjoint", H3X4), ("disjoint", D16), ("obstruct-2", D16), ("disjoint", H3),
    )
    round_ops = len(cycle)

    def prepare(self, seed, workdir):
        return Context(seed, {"catalog": catalog.Catalog.packaged(), "ghz3": lib_tensor((3, 3, 3), ghz_entries(3))})

    def case(self, ctx, i):
        op, spec = self.cycle[i % self.round_ops]
        entries = bounds_tensor(case_rng(self.name, ctx.seed, i), spec)
        d = 4 if spec is self.H3X4 else 3
        t = lib_tensor((d, d, d), entries)
        if op.startswith("obstruct"):
            args = (ctx.state["ghz3"], t, int(op[-1]), obstructions.KoszulSpec(d, 1))
        elif op == "ratio":
            args = (t, obstructions.KoszulSpec(d, 1))
        else:
            args = (t, ctx.state["catalog"])
        return Case(i, op, args, (entries, d))

    def run(self, ctx, case):
        if case.kind.startswith("obstruct"):
            return asymptotic.lattice_obstruction(*case.args)
        if case.kind == "ratio":
            return obstructions.flattening_ratio(*case.args, trials=16, seed=0)
        return asymptotic.disjoint_rank_bounds(*case.args, trials=16, seed=0)

    def check(self, ctx, case, output):
        entries, d = case.data
        a = oracle.dense(real_pairs(entries), (d, d, d))
        koszul = [oracle.float_rank(oracle.koszul_dense(a, p)) for p in range(1, d)]
        ratios = [Fraction(r, oracle.simple_koszul_rank(d, p)) for p, r in enumerate(koszul, 1)]
        if case.kind == "disjoint":
            expect = max([Fraction(r) for r in oracle.gauge_ranks(a)] + ratios)
            require(output.lower is not None and output.lower.value == expect,
                    f"disjoint lower bound {output.lower} != {expect}")
            require(output.upper is None, f"unexpected upper bound {output.upper}")
            return
        if case.kind == "ratio":
            expect = ratios[0]
        else:
            # The c-fold Kronecker power of a flattening has rank rank(F)^c.
            c = int(case.kind[-1])
            expect = _koszul_rank(ghz_entries(3), 3) ** c < koszul[0] ** c
        require(output == expect, f"{case.kind}: {output!r} != {expect!r}")

    def canon(self, case, output):
        if case.kind == "disjoint":
            return output.to_json()
        return str(output)


# -- cli ------------------------------------------------------------------------


def tensor_json(dims, entries):
    return {
        "order": len(dims),
        "dims": list(dims),
        "domain": "rational",
        "entries": [{"i": list(k), "re": oracle.frac_text(v[0]), "im": oracle.frac_text(v[1])}
                    for k, v in sorted(entries.items())],
    }


def eps_cert_json(maps, d, e):
    out = []
    for m in maps:
        entries = [{"i": list(rc), "coeffs": {str(deg): {"re": oracle.frac_text(c), "im": "0"}
                                              for deg, c in sorted(p.items())}}
                   for rc, p in sorted(m.items())]
        out.append({"rows": 2, "cols": 2, "domain": "eps", "entries": entries})
    return {"kind": "degeneration", "maps": out, "d": d, "e": e}


def parse_pairs(raw_entries):
    return {tuple(x["i"]): (Fraction(x["re"]), Fraction(x["im"])) for x in raw_entries}


def decomposition_entry(rng, entry_id, rank=3, d=3):
    """Catalog entry JSON: a random rank-r decomposition and the tensor it sums to."""
    terms = [[[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d)] for _ in range(3)]
             for _ in range(rank)]
    total = {}
    for a, b, c in terms:
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    v = a[i] * b[j] * c[k]
                    if v:
                        total[(i, j, k)] = total.get((i, j, k), 0) + v
    total = {k: (v, Fraction(0)) for k, v in total.items() if v}
    decomposition = [[[{"re": oracle.frac_text(x), "im": "0"} for x in vec] for vec in term] for term in terms]
    return {"id": entry_id, "tensor": tensor_json((d, d, d), total), "decomposition": decomposition,
            "metadata": {"provenance": "seeded benchmark decomposition"}}


ORBIT_REPS = {
    "Product": {(0, 0, 0): ONE},
    "EPR_12": {(0, 0, 0): ONE, (1, 1, 0): ONE},
    "EPR_13": {(0, 0, 0): ONE, (1, 0, 1): ONE},
    "EPR_23": {(0, 0, 0): ONE, (0, 1, 1): ONE},
    "W": W_ENTRIES,
    "GHZ": ghz_entries(2),
}


def mamu_entries(d):
    return {(i1 * d + i2, i2 * d + i3, i3 * d + i1): ONE
            for i1 in range(d) for i2 in range(d) for i3 in range(d)}


class Cli:
    """README commands, one ``python -m tpl.cli`` child at a time."""

    name = "cli"
    cycle = ("build", "classify", "cert-verify", "catalog-get", "cert-interpolate", "put",
             "obstruct", "bounds-disjoint", "catalog-verify", "hypergraph", "catalog-list", "put")
    round_ops = len(cycle)
    extra_entries = 8
    put_ids = ("bench-extra-0", "bench-extra-1")
    builds = (
        ("W", [], (2, 2, 2), W_ENTRIES),
        *(("GHZ", ["--r", str(r)], (r, r, r), ghz_entries(r)) for r in (2, 3, 4, 5)),
        ("MaMu", ["--d", "2"], (4, 4, 4), mamu_entries(2)),
    )

    def __init__(self, root, env):
        self.root = Path(root)
        self.env = env

    def prepare(self, seed, workdir):
        """The starting catalog (packaged entries plus seeded extras) and the shared inputs."""
        rng = random.Random(f"{self.name}-{seed}")
        workdir = Path(workdir)
        files = workdir / "inputs"
        files.mkdir(parents=True)
        packaged = self.root / "src" / "tpl" / "data" / "catalog"
        base = {}
        for path in sorted(packaged.glob("*.json")):
            if path.name != "manifest.json":
                base[path.stem] = json.loads(path.read_text(encoding="utf-8"))
        for i in range(self.extra_entries):
            entry_id = f"bench-extra-{i}"
            base[entry_id] = decomposition_entry(rng, entry_id)
        ctx = Context(seed, {"workdir": workdir, "files": files, "catalog": workdir / "catalog", "base": base})
        ctx.state["w_path"] = self._write(ctx, "w.json", tensor_json((2, 2, 2), real_pairs(W_ENTRIES)))
        self.reset(ctx)
        return ctx

    @staticmethod
    def _write(ctx, name, obj):
        path = ctx.state["files"] / name
        path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
        return str(path)

    def _w_border_files(self, ctx, rng, i):
        src, tgt, maps = seeded_w_border(rng)
        paths = [self._write(ctx, f"{name}{i}.json", obj) for name, obj in (
            ("src", tensor_json((2, 2, 2), real_pairs(src))),
            ("tgt", tensor_json((2, 2, 2), real_pairs(tgt))),
            ("cert", eps_cert_json(maps, 1, 2)))]
        return src, tgt, paths

    def case(self, ctx, i):
        rng = case_rng(self.name, ctx.seed, i)
        pos = i % self.round_ops
        kind = self.cycle[pos]
        cat = ["--catalog", str(ctx.state["catalog"])]
        stdin, data, writes = None, None, False
        if kind == "build":
            name, argv, dims, entries = rng.choice(self.builds)
            argv, data = ["build", "--name", name, *argv], (dims, entries)
        elif kind == "classify":
            cls = rng.choice(sorted(ORBIT_REPS))
            moved = _apply_dense_maps(ORBIT_REPS[cls], [_invertible(rng, 2, 3, (1, 2)) for _ in range(3)])
            stdin = json.dumps(tensor_json((2, 2, 2), real_pairs(moved)))
            argv, data = ["classify"], cls
        elif kind in ("cert-verify", "cert-interpolate"):
            src, tgt, (src_path, tgt_path, cert_path) = self._w_border_files(ctx, rng, i)
            argv, data = [kind, "--src", src_path, "--dst", tgt_path, "--cert", cert_path], (src, tgt)
        elif kind == "obstruct":
            d = rng.choice((2, 3))
            entries = {}
            while not entries:
                entries = _random_entries(rng, (d, d, d), 0.6, 4, 4)
            theta = [Fraction(1, 3)] * 3 if rng.random() < 0.5 else [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
            path = self._write(ctx, f"obstruct{i}.json", tensor_json((d, d, d), real_pairs(entries)))
            argv = ["obstruct", "--tensor", path, "--p", "1", "--theta", ",".join(map(str, theta))]
            data = (entries, (d, d, d), theta)
        elif kind == "bounds-disjoint":
            argv = ["bounds", "disjoint", "--tensor", ctx.state["w_path"], "--seed", str(i), *cat]
        elif kind == "hypergraph":
            _src, tgt, (_s, tgt_path, _c) = self._w_border_files(ctx, rng, i)
            argv, data = ["hypergraph", "--family", "Triangular", "--n", "2", "--tensor", tgt_path], tgt
        elif kind == "catalog-get":
            entry_id = rng.choice(sorted(ctx.state["base"]))
            argv, data = ["catalog", "get", "--id", entry_id, *cat], entry_id
        elif kind in ("catalog-verify", "catalog-list"):
            argv = ["catalog", kind.split("-")[1], *cat]
        else:
            # The round's first put overwrites one fixed id, its second the other.
            entry_id = self.put_ids[self.cycle[:pos].count("put") % len(self.put_ids)]
            entry = decomposition_entry(rng, entry_id)
            path = self._write(ctx, f"put{i}.json", entry)
            argv, data, writes = ["catalog", "put", "--file", path, *cat], entry, True
        return Case(i, kind, (argv, stdin), data, writes, child=True)

    def reset(self, ctx):
        """Write the starting catalog: packaged entries plus the seeded extras."""
        path = ctx.state["catalog"]
        if path.exists():
            shutil.rmtree(path)
        path.mkdir()
        for entry_id, obj in ctx.state["base"].items():
            (path / f"{entry_id}.json").write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
        (path / "manifest.json").write_text(json.dumps({"entries": sorted(ctx.state["base"])}, indent=2) + "\n",
                                            encoding="utf-8")
        ctx.state["model"] = dict(ctx.state["base"])

    def run(self, ctx, case):
        """One child; under a tracer, ``cli_child.py`` runs it traced and the spans are merged."""
        argv, stdin = case.args
        tr = ctx.state.get("tracer")
        if tr is None:
            command = [sys.executable, "-m", "tpl.cli", *argv]
        else:
            trace_file = ctx.state["workdir"] / "child-trace.json"
            command = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(trace_file), *argv]
        proc = subprocess.run(command, input=stdin, capture_output=True, text=True,
                              env=self.env, cwd=self.root, timeout=120)
        if tr is not None:
            data = json.loads(trace_file.read_text(encoding="utf-8"))
            tr.merge(data["spans"], data["counts"], data["keys"])
        model = ctx.state["model"]
        seen = model.get(case.data) if case.kind == "catalog-get" else None
        if case.kind == "put":
            model[case.data["id"]] = case.data
        return proc.returncode, proc.stdout, seen

    def check(self, ctx, case, output):
        code, out, seen = output
        require(code == 0, f"{case.kind}: exit code {code}")
        kind, data = case.kind, case.data
        if kind == "classify":
            require(out == data + "\n", f"classify printed {out!r}, expected {data!r}")
            return
        obj = json.loads(out)
        base = ctx.state["base"]
        if kind == "build":
            expect = tensor_json(data[0], real_pairs(data[1]))
            require(obj == expect, f"build printed {obj}, expected {expect}")
        elif kind == "cert-verify":
            require(obj == {"ok": True, "d": 1, "e": 2}, f"cert-verify printed {obj}")
        elif kind == "catalog-verify":
            require(obj == {"ok": True, "entries": len(base)}, f"catalog verify printed {obj}")
        elif kind == "catalog-list":
            require(obj == {"entries": sorted(base)}, f"catalog list printed {obj}")
        elif kind == "catalog-get":
            require(obj == seen, f"catalog get {data} differs from the stored entry")
        elif kind == "put":
            require(obj == {"stored": data["id"]}, f"put printed {obj}")
        elif kind == "cert-interpolate":
            maps = [(m["rows"], m["cols"], parse_pairs(m["entries"])) for m in obj["maps"]]
            require(obj["kind"] == "restriction", "interpolation did not return a restriction")
            oracle.check_restriction(real_pairs(data[0]), (2, 2, 2), real_pairs(data[1]), (2, 2, 2), maps, 3)
        elif kind == "hypergraph":
            h = hypergraph.make_family("Triangular", 2)
            dims, entries = oracle.structure(h.n_vertices, h.edges, real_pairs(data), (2, 2, 2))
            require(tuple(obj["dims"]) == dims and parse_pairs(obj["entries"]) == entries,
                    "structure tensor differs from the reference")
        elif kind == "bounds-disjoint":
            require(obj["lower"]["value"] == "2" and obj["upper"]["value"] == "2"
                    and obj["upper"]["ref"]["id"] == "w-border2-degeneration",
                    f"W disjoint-rank report {obj}")
        elif kind == "obstruct":
            entries, dims, theta = data
            self._check_obstruct(obj, real_pairs(entries), dims, theta)

    @staticmethod
    def _check_obstruct(obj, entries, dims, theta):
        a = oracle.dense(entries, dims)
        require(obj["gauge"] == oracle.gauge_ranks(a), f"gauge points {obj['gauge']}")
        if dims == (2, 2, 2):
            det = oracle.hyperdeterminant(entries)
            require(obj["det222"] == {"re": oracle.frac_text(det[0]), "im": oracle.frac_text(det[1])},
                    f"hyperdeterminant {obj['det222']}")
        else:
            require(obj["det222"] is None, "det222 reported for a non-2x2x2 tensor")
        rank = oracle.float_rank(oracle.koszul_dense(a, 1))
        ratio = Fraction(rank, oracle.simple_koszul_rank(dims[2], 1))
        require(obj["koszul"] == {"p": 1, "rank": rank, "ratio": f"{ratio.numerator}/{ratio.denominator}"},
                f"koszul report {obj['koszul']}")
        value = oracle.spectral_point(a, theta)
        require(abs(obj["qf"]["value"] - value) <= 1e-9 * max(1.0, value), f"qf value {obj['qf']}")

    def canon(self, case, output):
        return [output[0], output[1]]


# -- mixes --------------------------------------------------------------------


class Mix:
    """One round of each part, interleaved into a single round.

    Position ``j`` of a part's round sits at fraction ``(j + 0.5) / n`` of
    the mixed round, so each part's ops are spread evenly through it. Case
    ``i`` of the mix is case ``r * n + j`` of its part, where ``r`` is the
    round, so the parts' inputs never repeat either.
    """

    def __init__(self, name, parts, tail_percentile):
        self.name = name
        self.parts = {p.name: p for p in parts}
        self.tail_percentile = tail_percentile

    @property
    def round_ops(self):
        return sum(p.round_ops for p in self.parts.values())

    def _slot(self, i):
        """(part, index of the case in that part) for case ``i`` of the mix."""
        slots = sorted(((j + 0.5) / p.round_ops, k, p, j)
                       for k, p in enumerate(self.parts.values()) for j in range(p.round_ops))
        r, pos = divmod(i, self.round_ops)
        _f, _k, part, j = slots[pos]
        return part, r * part.round_ops + j

    def prepare(self, seed, workdir):
        return Context(seed, {"parts": {name: p.prepare(seed, Path(workdir) / name)
                                        for name, p in self.parts.items()}})

    def case(self, ctx, i):
        part, j = self._slot(i)
        case = part.case(ctx.state["parts"][part.name], j)
        case.index, case.part = i, part.name
        return case

    def reset(self, ctx):
        for name, p in self.parts.items():
            if hasattr(p, "reset"):
                p.reset(ctx.state["parts"][name])

    def _part(self, ctx, case):
        pctx = ctx.state["parts"][case.part]
        pctx.state["tracer"] = ctx.state.get("tracer")
        return self.parts[case.part], pctx

    def run(self, ctx, case):
        part, pctx = self._part(ctx, case)
        return part.run(pctx, case)

    def check(self, ctx, case, output):
        part, pctx = self._part(ctx, case)
        part.check(pctx, case, output)

    def canon(self, case, output):
        return self.parts[case.part].canon(case, output)


def make_part(name, root, env):
    """Part ``name``; ``root`` is the checkout, ``env`` the environment for children."""
    if name == "cli":
        return Cli(root, env)
    return {"interp": Interp, "lattice": Lattice, "bounds": Bounds}[name]()


def make(name, root, env):
    """Workload ``name``: a mix of two parts."""
    parts, tail_percentile = MIXES[name]
    return Mix(name, [make_part(p, root, env) for p in parts], tail_percentile)


# name -> (parts, tail percentile). The tail percentile is the highest of
# run.TAIL_LADDER that keeps ten samples beyond it and falls inside a band of
# ops of like cost at the mix's usual op count (see README.md).
MIXES = {
    "certify": (("interp", "lattice"), 90),
    "query": (("bounds", "cli"), 75),
}
WORKLOADS = tuple(MIXES)
