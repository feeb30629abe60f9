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
from dataclasses import dataclass
from itertools import product as iterproduct

from .tensor import GroupingSpec, StructureTooLarge, Tensor, tensor_product

FAMILIES = ("Disjoint", "Strassen", "Triangular", "Kagome", "Fan")


class Hypergraph:
    """Vertex count plus ordered list of ordered hyperedges."""

    __slots__ = ("n_vertices", "edges", "uniformity")

    def __init__(self, n_vertices, edges, uniformity=None):
        self.n_vertices = int(n_vertices)
        if self.n_vertices < 0:
            raise ValueError("negative vertex count")
        cleaned = []
        for e in edges:
            e = tuple(int(v) for v in e)
            if len(set(e)) != len(e):
                raise ValueError(f"hyperedge {e} repeats a vertex")
            if any(not (0 <= v < self.n_vertices) for v in e):
                raise ValueError(f"hyperedge {e} outside vertex range")
            cleaned.append(e)
        self.edges = tuple(cleaned)
        if uniformity is not None:
            uniformity = int(uniformity)
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


@dataclass(frozen=True)
class GroupingMap:
    """Surjective vertex map used to fold one hypergraph onto another."""

    mapping: tuple
    n_targets: int

    def __post_init__(self):
        object.__setattr__(self, "mapping", tuple(int(v) for v in self.mapping))
        if any(not (0 <= v < self.n_targets) for v in self.mapping):
            raise ValueError("grouping map target out of range")
        if set(self.mapping) != set(range(self.n_targets)):
            raise ValueError("grouping map must be surjective")

    def __call__(self, v):
        return self.mapping[v]


def make_family(family, n, k=3):
    """Deterministic n-edge member of one of the paradigm families."""
    if n < 1:
        raise ValueError("family size n must be >= 1")
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


def _faces_to_hypergraph(faces):
    """Order each face (blue, yellow, red) and number vertices by first use."""
    ids = {}
    edges = []
    for face in faces:
        by_color = sorted(face, key=_tri_color)
        colors = [_tri_color(p) for p in by_color]
        if colors != [0, 1, 2]:
            raise AssertionError(f"face {face} is not rainbow colored")
        edge = []
        for p in by_color:
            if p not in ids:
                ids[p] = len(ids)
            edge.append(ids[p])
        edges.append(tuple(edge))
    return Hypergraph(len(ids), edges, uniformity=3)


def _triangular_patch(n):
    n_stars = -(-n // 6)
    faces = []
    for cx, cy in _tri_star_centers(n_stars):
        faces.extend(_tri_star_faces(cx, cy))
    return _faces_to_hypergraph(faces[:n])


# -- kagome patch -------------------------------------------------------------
#
# Kagome vertices are the grid edge midpoints, colored by direction:
# horizontal {(x,y),(x+1,y)}, vertical {(x,y),(x,y+1)}, diagonal
# {(x+1,y),(x,y+1)}. Each face has one midpoint of each direction and each
# diagonal midpoint lies in exactly the two faces of its rhombus, giving
# 2-face bowties swept row-major.


def _kag_mid(kind, x, y):
    return (kind, x, y)


def _kag_face_up(x, y):
    return (_kag_mid("h", x, y), _kag_mid("v", x, y), _kag_mid("g", x, y))


def _kag_face_down(x, y):
    return (_kag_mid("h", x, y + 1), _kag_mid("v", x + 1, y), _kag_mid("g", x, y))


def _kagome_patch(n):
    n_bowties = -(-n // 2)
    width = max(1, math.isqrt(n_bowties - 1) + 1) if n_bowties > 1 else 1
    faces = []
    for i in range(n_bowties):
        y, x = divmod(i, width)
        faces.append(_kag_face_up(x, y))
        faces.append(_kag_face_down(x, y))
    faces = faces[:n]
    ids = {}
    edges = []
    for face in faces:
        edge = []
        for p in face:
            if p not in ids:
                ids[p] = len(ids)
            edge.append(ids[p])
        edges.append(tuple(edge))
    return Hypergraph(len(ids), edges, uniformity=3)


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


def structure_entry_bound(h, assignment):
    """Upper bound on the number of structure entries (product of nnz)."""
    tensors = resolve_assignment(h, assignment)
    return math.prod(t.nnz() for t in tensors)


def structure_dims(h, assignment):
    """Per-vertex dimensions of the structure tensor."""
    tensors = resolve_assignment(h, assignment)
    dims = []
    for slots in h.vertex_slots():
        dims.append(math.prod(tensors[e].dims[pos] for pos, e in slots))
    return tuple(dims)


def build_structure(h, assignment, max_entries=None):
    """Structure tensor of order |V|: edge tensors merged vertex by vertex.

    Vertices touched by no edge get dimension 1. ``max_entries`` optionally
    guards against combinatorial blowup of the sparse product by raising
    StructureTooLarge.
    """
    tensors = resolve_assignment(h, assignment)
    if max_entries is not None and structure_entry_bound(h, assignment) > max_entries:
        raise StructureTooLarge("structure tensor exceeds the entry guard")
    slots = h.vertex_slots()
    dims = tuple(
        math.prod(tensors[e].dims[pos] for pos, e in vs) for vs in slots
    )
    domain = tensors[0].domain if tensors else "rational"
    entries = {}
    for combo in iterproduct(*(t.sorted_items() for t in tensors)):
        value = None
        for _, v in combo:
            value = v if value is None else value * v
        if value is None or not value:
            continue
        idx = []
        for v, vs in enumerate(slots):
            acc = 0
            for pos, e in vs:
                acc = acc * tensors[e].dims[pos] + combo[e][0][pos]
            idx.append(acc)
        idx = tuple(idx)
        prev = entries.get(idx)
        entries[idx] = value if prev is None else prev + value
    entries = {i: v for i, v in entries.items() if v}
    return Tensor(dims, entries, domain)


def slot_structure(h, assignment):
    """Ungrouped structure: one factor per (edge, position) slot.

    Returns ``(tensor, vertex_grouping)`` where grouping the slot tensor by
    ``vertex_grouping`` reproduces :func:`build_structure` exactly. Requires
    every vertex to be incident to at least one edge.
    """
    tensors = resolve_assignment(h, assignment)
    slots = h.vertex_slots()
    if any(not vs for vs in slots):
        raise ValueError("slot_structure needs every vertex on some edge")
    full = tensors[0]
    for t in tensors[1:]:
        full = tensor_product(full, t)
    offsets = []
    acc = 0
    for t in tensors:
        offsets.append(acc)
        acc += t.order
    blocks = [
        tuple(offsets[e] + pos for pos, e in vs) for vs in slots
    ]
    return full, GroupingSpec(blocks)


@dataclass(frozen=True)
class FoldResult:
    """Folded hypergraph plus the slot grouping it induces on structures."""

    hypergraph: Hypergraph
    slot_grouping: GroupingSpec


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

    offsets = []
    acc = 0
    for e in h.edges:
        offsets.append(acc)
        acc += len(e)
    target_slots = folded.vertex_slots()
    if any(not vs for vs in target_slots):
        raise ValueError("folded hypergraph has an isolated vertex")
    blocks = [
        tuple(offsets[e] + pos for pos, e in vs) for vs in target_slots
    ]
    return FoldResult(folded, GroupingSpec(blocks))


def is_homomorphism(h_src, h_dst, grouping_map):
    """Check that every source edge maps onto an edge of the target."""
    try:
        result = fold(h_src, grouping_map)
    except ValueError:
        return False
    dst_edges = set(h_dst.edges)
    return all(e in dst_edges for e in result.hypergraph.edges)


@dataclass(frozen=True)
class SubadditiveSplit:
    """Witness that H_n is a vertex grouping of nu copies of H_{n0} plus a
    remainder patch with r edges. Documentation of the family's
    subadditivity; not used in any bound computation."""

    nu: int
    r: int
    union: Hypergraph
    grouping: GroupingMap


def subadditive_split(family, n, n0=None):
    """Split H_n into nu disjoint copies of H_{n0} plus an r-edge remainder.

    The returned grouping folds the disjoint union back onto H_n exactly
    (same edge list, in order). Disjoint and Strassen split at any n0; the
    triangular family splits star by star (n0 = 6) and the kagome family
    bowtie by bowtie (n0 = 2), with the remainder the trailing partial
    group relabeled as a standalone patch.
    """
    if family in ("Disjoint", "Strassen"):
        if n0 is None or not (1 <= n0 <= n):
            raise ValueError("Disjoint/Strassen splits need 1 <= n0 <= n")
    elif family == "Triangular":
        if n0 is None:
            n0 = 6
        if n0 != 6:
            raise ValueError("the triangular family splits into 6-face stars")
    elif family == "Kagome":
        if n0 is None:
            n0 = 2
        if n0 != 2:
            raise ValueError("the kagome family splits into 2-face bowties")
    else:
        raise ValueError(f"no subadditive split for family {family!r}")
    target = make_family(family, n)
    nu, r = divmod(n, n0)
    piece = make_family(family, n0)
    union_edges = []
    mapping = []
    offset = 0
    for copy in range(nu):
        # copy c of H_{n0} covers target edges [c*n0, (c+1)*n0); local
        # vertices map to the target vertices in the matching positions
        local_to_target = {}
        for e_local, e_target in zip(piece.edges, target.edges[copy * n0 : (copy + 1) * n0]):
            for v_local, v_target in zip(e_local, e_target):
                prev = local_to_target.setdefault(v_local, v_target)
                if prev != v_target:
                    raise AssertionError("family patch is not translation consistent")
        union_edges.extend(
            tuple(v + offset for v in e) for e in piece.edges
        )
        mapping.extend(local_to_target[v] for v in range(piece.n_vertices))
        offset += piece.n_vertices
    if r:
        tail = target.edges[nu * n0 :]
        relabel = {}
        for e in tail:
            for v in e:
                relabel.setdefault(v, len(relabel) + offset)
        union_edges.extend(tuple(relabel[v] for v in e) for e in tail)
        back = {new: old for old, new in relabel.items()}
        mapping.extend(back[offset + i] for i in range(len(relabel)))
        offset += len(relabel)
    union = Hypergraph(offset, union_edges, uniformity=target.uniformity)
    grouping = GroupingMap(tuple(mapping), target.n_vertices)
    result = fold(union, grouping)
    if result.hypergraph != target:
        raise AssertionError("subadditive split failed to reproduce the patch")
    return SubadditiveSplit(nu=nu, r=r, union=union, grouping=grouping)


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
