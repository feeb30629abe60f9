import random
from fractions import Fraction
from itertools import product

import pytest

import util
from tpl.cli import main
from tpl.hypergraph import (
    GroupingMap,
    Hypergraph,
    build_structure,
    fold,
    fold_to_fan,
    is_homomorphism,
    make_family,
    resolve_assignment,
    slot_structure,
    structure_dims,
)
from tpl.named import epr, ghz, mamu, w_state
from tpl.scalars import QC
from tpl.tensor import DENSE_ENTRY_GUARD, StructureTooLarge, Tensor, group, kron_power


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 0, 1)])
    with pytest.raises(ValueError):
        Hypergraph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 1)], uniformity=3)
    h = Hypergraph(3, [(0, 1), (0, 1)])
    assert h.n_edges == 2


def test_family_edge_counts():
    for family in ("Disjoint", "Strassen", "Triangular", "Kagome", "Fan"):
        for n in range(1, 15):
            assert make_family(family, n).n_edges == n


def test_family_shapes():
    d = make_family("Disjoint", 8, 3)
    assert d.n_vertices == 24 and d.n_edges == 8
    s = make_family("Strassen", 5, 4)
    assert s.n_vertices == 4 and s.edges == ((0, 1, 2, 3),) * 5
    f = make_family("Fan", 3)
    assert f.edges == ((0, 1, 2), (0, 1, 3), (0, 1, 4))


def test_triangular_one_is_strassen_one():
    assert make_family("Triangular", 1) == make_family("Strassen", 1, 3)


def test_triangular_patch_connected():
    # every prefix patch stays connected: consecutive faces share vertices
    for n in (2, 5, 6, 7, 13, 24):
        h = make_family("Triangular", n)
        seen = set(h.edges[0])
        remaining = list(h.edges[1:])
        changed = True
        while remaining and changed:
            changed = False
            for e in list(remaining):
                if seen & set(e):
                    seen.update(e)
                    remaining.remove(e)
                    changed = True
        assert not remaining, f"patch n={n} is disconnected"


def test_build_structure_strassen_is_kron_power():
    rng = random.Random(3)
    for n in (1, 2, 3):
        for dims in ((2, 2, 2), (3, 2, 3)):
            t = util.random_rational_tensor(rng, dims, density=0.6)
            if t.is_zero():
                continue
            h = make_family("Strassen", n, 3)
            assert build_structure(h, t) == kron_power(t, n)


def test_build_structure_triangle_is_matrix_multiplication():
    triangle = Hypergraph(3, [(0, 2), (1, 0), (2, 1)])
    for d in (2, 3):
        assert build_structure(triangle, epr(d)) == mamu(d)


def test_build_structure_disjoint_is_plain_power():
    w = w_state()
    h = make_family("Disjoint", 2, 3)
    s = build_structure(h, w)
    assert s.dims == (2,) * 6
    assert s.nnz() == 9


def test_build_structure_untouched_vertex_gets_dim_one():
    h = Hypergraph(3, [(0, 1)])
    t = ghz(2, 2)
    s = build_structure(h, t)
    assert s.dims == (2, 2, 1)


def test_build_structure_without_edges_is_the_unit():
    # The empty tensor product is the unit <1>: entry 1 at the origin.
    assert build_structure(Hypergraph(2, []), []) == Tensor((1, 1), {(0, 0): QC(1)})
    assert build_structure(Hypergraph(0, []), []) == Tensor((), {(): QC(1)})


def random_edge_tensor(rng, order, gaussian):
    dims = tuple(rng.choice((1, 2, 2, 3)) for _ in range(order))
    entries = {}
    for idx in product(*map(range, dims)):
        if rng.random() < 0.6:
            re = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
            im = Fraction(rng.randint(-4, 4), rng.choice((1, 2))) if gaussian else 0
            entries[idx] = QC(re, im)
    return Tensor(dims, entries)


@pytest.mark.parametrize("gaussian", [False, True], ids=["rational", "gaussian"])
def test_build_structure_matches_entry_combination_oracle(gaussian):
    rng = random.Random(20261018 + gaussian)
    hypergraphs = [make_family(f, n) for f in ("Disjoint", "Strassen", "Triangular", "Kagome", "Fan")
                   for n in range(1, 5)]
    # Isolated vertices first, in the middle and last.
    hypergraphs += [Hypergraph(5, [(1, 2, 3), (3, 4, 2)]), Hypergraph(4, [(1, 3), (3, 1)]),
                    Hypergraph(3, [(0, 1)])]
    for h in hypergraphs:
        tensors = [random_edge_tensor(rng, len(e), gaussian) for e in h.edges]
        assert build_structure(h, tensors) == util.structure_ref(h, tensors), h
        shared = random_edge_tensor(rng, len(h.edges[0]), gaussian)
        assert build_structure(h, shared) == util.structure_ref(h, shared), h


def test_build_structure_arity_mismatch():
    h = make_family("Strassen", 2, 3)
    with pytest.raises(ValueError):
        build_structure(h, ghz(2, 2))
    with pytest.raises(ValueError):
        resolve_assignment(h, [ghz(2)])


def test_build_structure_entry_guard(monkeypatch):
    # 3^13 > 10^6 entries: refused before any product is formed
    def no_product(*args):
        raise AssertionError("the guard let the product be built")

    monkeypatch.setattr("tpl.hypergraph.tensor_product", no_product)
    h = make_family("Strassen", 13, 3)
    with pytest.raises(StructureTooLarge, match="guard"):
        build_structure(h, ghz(3))


def test_make_family_size_guard(capsys, monkeypatch):
    # n above the guard is refused before any patch is built
    def no_patch(n):
        raise AssertionError("the guard let the patch be built")

    monkeypatch.setattr("tpl.hypergraph._triangular_patch", no_patch)
    n = DENSE_ENTRY_GUARD + 1
    with pytest.raises(StructureTooLarge, match="guard"):
        make_family("Triangular", n)
    assert main(["hypergraph", "--family", "Triangular", "--n", str(n)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("tpl: ") and err.count("\n") == 1


def test_structure_dims():
    # two ring faces share an edge of the lattice: 4 vertices, two of degree 2
    tri = make_family("Triangular", 2)
    dims = structure_dims(tri, ghz(2))
    assert sorted(dims) == [2, 2, 4, 4]


def test_slot_structure_matches_build():
    rng = random.Random(9)
    for family, n in (("Strassen", 2), ("Triangular", 2), ("Triangular", 6), ("Kagome", 2)):
        h = make_family(family, n)
        t = util.random_rational_tensor(rng, (2, 2, 2), density=0.7)
        slot_tensor, vertex_grouping = slot_structure(h, t)
        assert group(slot_tensor, vertex_grouping) == build_structure(h, t)


def test_slot_structure_of_the_edgeless_hypergraph_is_the_unit():
    h = Hypergraph(0, [])
    assert group(*slot_structure(h, [])) == build_structure(h, []) == Tensor((), {(): QC(1)})


def test_fold_identity():
    h = make_family("Triangular", 3)
    gm = GroupingMap(tuple(range(h.n_vertices)), h.n_vertices)
    res = fold(h, gm)
    assert res.hypergraph == h


def test_fold_disjoint_onto_strassen():
    n, k = 3, 3
    dis = make_family("Disjoint", n, k)
    gm = GroupingMap(tuple(v % k for v in range(n * k)), k)
    res = fold(dis, gm)
    assert res.hypergraph == make_family("Strassen", n, k)
    # the fold's grouping carries the disjoint structure onto the folded one
    w = w_state()
    assert group(build_structure(dis, w), res.slot_grouping) == build_structure(
        res.hypergraph, w
    )


def test_fold_slot_grouping_general():
    rng = random.Random(15)
    h = make_family("Triangular", 6)
    gm, _ = fold_to_fan("Triangular", 6)
    t = util.random_rational_tensor(rng, (2, 2, 2), density=0.8)
    res = fold(h, gm)
    slot_tensor, _ = slot_structure(h, t)
    assert group(slot_tensor, res.slot_grouping) == build_structure(res.hypergraph, t)


def test_fold_rejects_collapsing_edges():
    h = Hypergraph(3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        fold(h, GroupingMap((0, 0, 1), 2))


def test_is_homomorphism():
    n, k = 2, 3
    dis = make_family("Disjoint", n, k)
    strassen = make_family("Strassen", n, k)
    gm = GroupingMap(tuple(v % k for v in range(n * k)), k)
    assert is_homomorphism(dis, strassen, gm)
    bad = GroupingMap(tuple(0 if v < 3 else v - 2 for v in range(6)), 4)
    assert not is_homomorphism(dis, strassen, bad)


def test_fold_to_fan_triangular_covering_six():
    for n in (6, 12, 18):
        gm, covering = fold_to_fan("Triangular", n)
        assert covering == 6
        h = make_family("Triangular", n)
        res = fold(h, gm)
        fan = make_family("Fan", n // 6)
        counts = {}
        for e in res.hypergraph.edges:
            counts[e] = counts.get(e, 0) + 1
        assert set(counts) == set(fan.edges)
        assert all(c == 6 for c in counts.values())
        assert is_homomorphism(h, res.hypergraph, gm)


def test_fold_to_fan_kagome_covering_two():
    gm, covering = fold_to_fan("Kagome", 6)
    assert covering == 2


def test_fold_to_fan_incomplete_patch_rejected():
    with pytest.raises(ValueError):
        fold_to_fan("Triangular", 1)
    with pytest.raises(ValueError):
        fold_to_fan("Triangular", 8)
    with pytest.raises(ValueError):
        fold_to_fan("Kagome", 3)
    with pytest.raises(ValueError):
        fold_to_fan("Disjoint", 6)


def test_subadditive_split_reproduces_patch():
    # the split's own fold check is exercised here across families and sizes
    for family, n, n0 in [
        ("Disjoint", 10, 3),
        ("Strassen", 9, 4),
        ("Triangular", 6, None),
        ("Triangular", 14, None),
        ("Kagome", 7, None),
    ]:
        split = util.subadditive_split(family, n, n0)
        expected_n0 = {"Triangular": 6, "Kagome": 2}.get(family, n0)
        assert split.nu == n // expected_n0
        assert split.r == n % expected_n0
        assert fold(split.union, split.grouping).hypergraph == make_family(family, n)


def test_subadditive_split_rejects_bad_piece():
    with pytest.raises(ValueError):
        util.subadditive_split("Triangular", 12, 7)
    with pytest.raises(ValueError):
        util.subadditive_split("Fan", 4, 2)


def test_grouping_map_validation():
    with pytest.raises(ValueError):
        GroupingMap((0, 2), 2)
    with pytest.raises(ValueError):
        GroupingMap((0, 0), 2)
