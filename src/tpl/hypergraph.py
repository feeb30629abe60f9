"""Hypergraphs, the paradigm families, entanglement structures and folding.

A hypergraph is a vertex count plus an ordered list of ordered hyperedges
(whole-edge repeats allowed, vertices within an edge distinct). Placing a
tensor on every edge and merging the spaces that meet at each vertex gives
the structure tensor of the hypergraph.

Slot convention: vertex v receives one tensor factor ("slot") per incident
edge; its combined index is packed row-major over the slots sorted by
(position of v inside the edge, edge list index). Folding preserves both
components of that key, which keeps structure tensors and their groupings
bit-compatible across a fold.

The triangular family is a patch of the triangulated grid: faces are
3-colored so that every face has one vertex of each color, edges are
written (blue, yellow, red), and faces are enumerated star-by-star around
the red vertices (6 faces per star, stars swept row-major over a near
square window). The fan folding groups all blue vertices into one hub and
all yellow vertices into the other; red star centers stay separate and
become the fan leaves, six faces apiece. The kagome family does the same
with 2-face bowties around one edge-direction class of midpoints.
"""

from __future__ import annotations

import math
from functools import reduce

from . import scalars
from .scalars import RATIONAL, _Record, _set_field
from .tensor import GroupingSpec, Tensor, check_entry_count, group, tensor_product

FAMILIES = ("Disjoint", "Strassen", "Triangular", "Kagome", "Fan")


class Hypergraph:
    """Vertex count plus ordered list of ordered hyperedges."""

    __slots__ = ("n_vertices", "edges", "uniformity")

    def __init__(self, n_vertices, edges, uniformity=None):
        scalars.check_ints((n_vertices,), "vertex count")
        self.n_vertices = n_vertices
        if n_vertices < 0:
            raise ValueError("negative vertex count")
        cleaned = []
        for e in edges:
            e = scalars.check_ints(e, "hyperedge vertices")
            if len(set(e)) != len(e):
                raise ValueError(f"hyperedge {e} repeats a vertex")
            if any(not (0 <= v < self.n_vertices) for v in e):
                raise ValueError(f"hyperedge {e} outside vertex range")
            cleaned.append(e)
        self.edges = tuple(cleaned)
        if uniformity is not None:
            scalars.check_ints((uniformity,), "uniformity")
            if any(len(e) != uniformity for e in self.edges):
                raise ValueError(f"edges are not {uniformity}-uniform")
        self.uniformity = uniformity

    @property
    def n_edges(self):
        return len(self.edges)

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.n_vertices == other.n_vertices and self.edges == other.edges

    def __repr__(self):
        return f"Hypergraph({self.n_vertices} vertices, {self.n_edges} edges)"

    def vertex_slots(self):
        """Per vertex: incident (pos_in_edge, edge_index) keys, sorted."""
        slots = [[] for _ in range(self.n_vertices)]
        for e_idx, edge in enumerate(self.edges):
            for pos, v in enumerate(edge):
                slots[v].append((pos, e_idx))
        for s in slots:
            s.sort()
        return slots


class GroupingMap(_Record):
    """Surjective vertex map used to fold one hypergraph onto another."""

    __match_args__ = ("mapping", "n_targets")

    def __init__(self, mapping, n_targets):
        mapping = scalars.check_ints(mapping, "grouping map targets")
        scalars.check_ints((n_targets,), "grouping map target count")
        if any(not (0 <= v < n_targets) for v in mapping):
            raise ValueError("grouping map target out of range")
        if set(mapping) != set(range(n_targets)):
            raise ValueError("grouping map must be surjective")
        _set_field(self, "mapping", mapping)
        _set_field(self, "n_targets", n_targets)

    def __call__(self, v):
        return self.mapping[v]


def make_family(family, n, k=3):
    """Deterministic n-edge member of one of the paradigm families.

    ``n`` and ``k`` must be ints. Building takes time and memory linear in
    the incidence count n*k, so an n*k above ``DENSE_ENTRY_GUARD`` raises
    StructureTooLarge before anything is built.
    """
    scalars.check_ints((n, k), "family size n and uniformity k")
    if n < 1:
        raise ValueError("family size n must be >= 1")
    check_entry_count(n * k, f"family size n = {n} times uniformity k = {k}")
    if family == "Disjoint":
        if k < 2:
            raise ValueError("Disjoint needs k >= 2")
        edges = [tuple(range(i * k, (i + 1) * k)) for i in range(n)]
        return Hypergraph(n * k, edges, uniformity=k)
    if family == "Strassen":
        if k < 2:
            raise ValueError("Strassen needs k >= 2")
        return Hypergraph(k, [tuple(range(k))] * n, uniformity=k)
    if family == "Fan":
        if k != 3:
            raise ValueError("Fan is 3-uniform")
        return Hypergraph(2 + n, [(0, 1, 2 + i) for i in range(n)], uniformity=3)
    if family == "Triangular":
        if k != 3:
            raise ValueError("Triangular is 3-uniform")
        return _triangular_patch(n)
    if family == "Kagome":
        if k != 3:
            raise ValueError("Kagome is 3-uniform")
        return _kagome_patch(n)
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


# -- triangular patch ---------------------------------------------------------
#
# Grid points (x, y) triangulated with up faces {(x,y),(x+1,y),(x,y+1)} and
# down faces {(x+1,y),(x,y+1),(x+1,y+1)}. Vertex color = (x + 2y) mod 3;
# every face sees all three colors and the six faces around a red vertex
# (color 2) form its star. Faces are listed star by star, each star in a
# fixed ring order, star centers swept row-major in the red sublattice.


def _tri_color(pt):
    x, y = pt
    return (x + 2 * y) % 3


def _tri_up(x, y):
    return ((x, y), (x + 1, y), (x, y + 1))


def _tri_down(x, y):
    return ((x + 1, y), (x, y + 1), (x + 1, y + 1))


def _tri_star_faces(cx, cy):
    # Contiguous ring around the red center: consecutive faces share an
    # edge, and the leading face touches the stars at center - (1,1) and
    # center - (2,-1), so star-by-star prefixes stay connected.
    return [
        _tri_up(cx - 1, cy),
        _tri_down(cx - 1, cy),
        _tri_up(cx, cy),
        _tri_down(cx, cy - 1),
        _tri_up(cx, cy - 1),
        _tri_down(cx - 1, cy - 1),
    ]


def _tri_star_centers(count):
    # Red sublattice basis (1,1) and (2,-1) starting at (2,0); both steps
    # produce stars that share vertices, so a row-major sweep stays connected.
    width = max(1, math.isqrt(count - 1) + 1) if count > 1 else 1
    centers = []
    i = 0
    while len(centers) < count:
        b, a = divmod(i, width)
        centers.append((2 + a + 2 * b, a - b))
        i += 1
    return centers


def _rainbow(face):
    """The face ordered (blue, yellow, red)."""
    by_color = sorted(face, key=_tri_color)
    if [_tri_color(p) for p in by_color] != [0, 1, 2]:
        raise AssertionError(f"face {face} is not rainbow colored")
    return by_color


def _number_by_first_use(faces):
    """3-uniform hypergraph of the faces, vertices numbered in order of first use."""
    ids = {}
    edges = [tuple(ids.setdefault(p, len(ids)) for p in face) for face in faces]
    return Hypergraph(len(ids), edges, uniformity=3)


def _triangular_patch(n):
    n_stars = -(-n // 6)
    faces = []
    for cx, cy in _tri_star_centers(n_stars):
        faces.extend(_tri_star_faces(cx, cy))
    return _number_by_first_use(_rainbow(face) for face in faces[:n])


# -- kagome patch -------------------------------------------------------------
#
# Kagome vertices are the grid edge midpoints, colored by direction:
# horizontal {(x,y),(x+1,y)}, vertical {(x,y),(x,y+1)}, diagonal
# {(x+1,y),(x,y+1)}. Each face has one midpoint of each direction and each
# diagonal midpoint lies in exactly the two faces of its rhombus, giving
# 2-face bowties swept row-major.


def _kag_face_up(x, y):
    return (("h", x, y), ("v", x, y), ("g", x, y))


def _kag_face_down(x, y):
    return (("h", x, y + 1), ("v", x + 1, y), ("g", x, y))


def _kagome_patch(n):
    n_bowties = -(-n // 2)
    width = max(1, math.isqrt(n_bowties - 1) + 1) if n_bowties > 1 else 1
    faces = []
    for i in range(n_bowties):
        y, x = divmod(i, width)
        faces.append(_kag_face_up(x, y))
        faces.append(_kag_face_down(x, y))
    return _number_by_first_use(faces[:n])


# -- structures ---------------------------------------------------------------


def resolve_assignment(h, assignment):
    """Normalize an edge assignment into one tensor per edge.

    Accepts a single tensor (broadcast over all edges), a sequence, or a
    mapping from edge index to tensor. Tensor order must match edge size.
    """
    if isinstance(assignment, Tensor):
        tensors = [assignment] * h.n_edges
    elif isinstance(assignment, dict):
        if set(assignment) != set(range(h.n_edges)):
            raise ValueError("assignment must cover every edge index")
        tensors = [assignment[i] for i in range(h.n_edges)]
    else:
        tensors = list(assignment)
        if len(tensors) != h.n_edges:
            raise ValueError(f"{len(tensors)} tensors for {h.n_edges} edges")
    for e_idx, (edge, t) in enumerate(zip(h.edges, tensors)):
        if t.order != len(edge):
            raise ValueError(
                f"edge {e_idx} has size {len(edge)} but tensor order {t.order}"
            )
    return tensors


def structure_dims(h, assignment):
    """Per-vertex dimensions of the structure tensor."""
    tensors = resolve_assignment(h, assignment)
    dims = []
    for slots in h.vertex_slots():
        dims.append(math.prod(tensors[e].dims[pos] for pos, e in slots))
    return tuple(dims)


def _slot_blocks(edges, slots):
    """Per vertex, the positions of its slots among the edges' factors, edge by edge.

    ``slots`` is :meth:`Hypergraph.vertex_slots` of a hypergraph whose edges
    have the sizes of ``edges``; an isolated vertex gets an empty block.
    """
    offsets = [0]
    for e in edges:
        offsets.append(offsets[-1] + len(e))
    return [tuple(offsets[e] + pos for pos, e in vs) for vs in slots]


def _edge_tensors(h, assignment):
    """The edge tensors, once the product of their entry counts passes the guard."""
    tensors = resolve_assignment(h, assignment)
    entries = math.prod(t.nnz() for t in tensors)
    check_entry_count(entries, f"structure tensor of {entries} entries")
    return tensors


def _unit(tensors):
    """The order-0 unit <1> in the domain of ``tensors``, rational when there are none."""
    domain = tensors[0].domain if tensors else RATIONAL
    return Tensor((), {(): scalars.one(domain)}, domain)


def build_structure(h, assignment):
    """Structure tensor of order |V|: edge tensors merged vertex by vertex.

    The tensor product of the edge tensors, grouped into one block of slots
    per vertex. Each vertex touched by no edge gets one extra factor of
    dimension 1 holding 1, so it has dimension 1; with no edges at all the
    product is the unit <1>. Raises StructureTooLarge, before building
    anything, when the product of the edge tensors' entry counts exceeds
    ``DENSE_ENTRY_GUARD``.
    """
    tensors = _edge_tensors(h, assignment)
    unit = _unit(tensors)
    blocks = _slot_blocks(h.edges, h.vertex_slots())
    order = sum(len(e) for e in h.edges)
    for v, block in enumerate(blocks):
        if not block:
            blocks[v] = (order,)
            order += 1
            tensors.append(Tensor((1,), {(0,): unit.entries[()]}, unit.domain))
    return group(reduce(tensor_product, tensors, unit), GroupingSpec(blocks))


def slot_structure(h, assignment):
    """Ungrouped structure: one factor per (edge, position) slot.

    Returns ``(tensor, vertex_grouping)`` where grouping the slot tensor by
    ``vertex_grouping`` reproduces :func:`build_structure` exactly. Requires
    every vertex to be incident to at least one edge; with no vertices and no
    edges the slot tensor is the unit <1>. The entry guard of
    :func:`build_structure` applies.
    """
    tensors = _edge_tensors(h, assignment)
    blocks = _slot_blocks(h.edges, h.vertex_slots())
    if not all(blocks):
        raise ValueError("slot_structure needs every vertex on some edge")
    return reduce(tensor_product, tensors, _unit(tensors)), GroupingSpec(blocks)


class FoldResult(_Record):
    """Folded hypergraph plus the slot grouping it induces on structures."""

    __match_args__ = ("hypergraph", "slot_grouping")

    def __init__(self, hypergraph, slot_grouping):
        _set_field(self, "hypergraph", hypergraph)
        _set_field(self, "slot_grouping", slot_grouping)


def fold(h, grouping_map):
    """Fold a hypergraph along a vertex grouping map.

    The folded hypergraph keeps one image edge per source edge (multiplicity
    preserved, list order preserved). Raises when some edge image repeats a
    vertex, i.e. when the map is not a hypergraph homomorphism onto its
    image. The returned slot grouping regroups the slot structure of the
    source into the structure of the folded hypergraph, entrywise.
    """
    if not isinstance(grouping_map, GroupingMap):
        grouping_map = GroupingMap(tuple(grouping_map), max(grouping_map) + 1)
    if len(grouping_map.mapping) != h.n_vertices:
        raise ValueError("grouping map length differs from vertex count")
    edges = []
    for e in h.edges:
        image = tuple(grouping_map(v) for v in e)
        if len(set(image)) != len(image):
            raise ValueError(f"edge {e} folds onto {image} with a repeated vertex")
        edges.append(image)
    folded = Hypergraph(grouping_map.n_targets, edges, uniformity=h.uniformity)

    blocks = _slot_blocks(h.edges, folded.vertex_slots())
    if not all(blocks):
        raise ValueError("folded hypergraph has an isolated vertex")
    return FoldResult(folded, GroupingSpec(blocks))


def is_homomorphism(h_src, h_dst, grouping_map):
    """Check that every source edge maps onto an edge of the target."""
    try:
        result = fold(h_src, grouping_map)
    except ValueError:
        return False
    dst_edges = set(h_dst.edges)
    return all(e in dst_edges for e in result.hypergraph.edges)


def fold_to_fan(family, n):
    """Grouping map folding a lattice patch onto a fan, with its covering.

    For the triangular family the patch must consist of complete 6-face
    stars (n divisible by 6): blue and yellow vertices collapse into the two
    hubs, each red star center becomes a fan leaf carrying 6 faces. The
    kagome analogue folds complete 2-face bowties (n divisible by 2). Raises
    when the patch does not consist of complete stars.
    """
    if family == "Triangular":
        covering = 6
    elif family == "Kagome":
        covering = 2
    else:
        raise ValueError(f"fold_to_fan supports Triangular and Kagome, not {family!r}")
    if n < covering or n % covering != 0:
        raise ValueError(
            f"{family} patch with {n} faces does not split into complete "
            f"{covering}-face groups around its red vertices"
        )
    h = make_family(family, n)
    n_feathers = n // covering
    mapping = [None] * h.n_vertices
    for feather, start in enumerate(range(0, n, covering)):
        for e in h.edges[start : start + covering]:
            blue, yellow, red = e
            for v, target in ((blue, 0), (yellow, 1), (red, 2 + feather)):
                if mapping[v] is not None and mapping[v] != target:
                    raise AssertionError("inconsistent fan folding pattern")
                mapping[v] = target
    gm = GroupingMap(tuple(mapping), 2 + n_feathers)
    result = fold(h, gm)
    fan = make_family("Fan", n_feathers)
    counts = {}
    for e in result.hypergraph.edges:
        counts[e] = counts.get(e, 0) + 1
    if set(counts) != set(fan.edges) or any(c != covering for c in counts.values()):
        raise AssertionError("fan folding did not produce a uniform covering")
    return gm, covering
