"""Connes-Kreimer Hopf algebra of 1PI graphs and the BPHZ machinery.

The algebra is the free commutative algebra on isomorphism classes of 1PI
graphs.  Its elements (GraphSum) are integer combinations of multisets of
canonical labels, the empty multiset being the unit; those of its tensor
square (TensorSum) combine ordered pairs of such multisets.  Both are
`poly.LinComb` subclasses that define only the product and the text of a
key.  The coproduct sums over families of vertex-disjoint divergent
subgraphs; a family of size two or more stands for the disjoint union
(product) of its members.

Divergence models:
  phi4  connected 1PI subgraphs with one or more internal edges and exactly
        2 or 4 external legs (half-edges leaving the subgraph)
  gw    the same on ribbon graphs, additionally planar regular
  core  every connected 1PI subgraph with at least one internal edge

Subgraphs are edge subsets; their external legs are the cut half-edges plus
the host's own legs attached inside.  A host is searched as an index of
integers (`_GraphShapes`, `_RibbonShapes`): edge end positions, half-edge
numbers for a ribbon host, and members as bitmasks over edge positions.
The search walks edge subsets depth first on an explicit stack and tests
each for the leg count and for two half-edges at every vertex in O(1), then
for 1PI-ness, then (gw) for genus 0 and one broken face, traced on the
half-edge numbers.

Labels are canonical forms looked up by shape, the integer data the
canonical-form search reads (`Graph.shape`, `RibbonGraph.shape`): each shape
is searched once per HopfAlgebra instance, and each label keeps the shape
it was first registered with.  The instance also keeps each graph object's
label and the labels found 1PI, so repeated calls on one graph read its
shape and test it for 1PI once.  The coproduct, antipode and Rbar read a
label's members, and the shapes of its members and cographs, off an index
built from that shape, so they build no graph; `graph_of` builds one from
the shape only when asked.  `bogoliubov_forest` builds its member graphs
and cographs and labels them through `label`.

Shrinking a subgraph keeps ribbon structure by reading the cut half-edges
off the subgraph's single broken face, so the gw model stays inside ribbon
graphs.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Mapping, Sequence

from .formal import FormalAmplitude
from .graphs import Edge, EdgeSubset, Graph, Leg, _union_find, bridgeless_connected, canonical_code
from .poly import LinComb
from .ribbon import HalfEdges, RibbonGraph, Token, _cyclic_equal, is_leg_token, rotation_code

GraphLike = Graph | RibbonGraph

MODELS = ("phi4", "gw", "core")

Mono = tuple[str, ...]

# A `Graph.shape()` (vertex count, end-position pairs, legs per position) or a
# `RibbonGraph.shape()` (one block per vertex).  A plain shape is a triple whose
# first entry is an int and a ribbon shape holds only blocks, so the two kinds
# never share a key.
Shape = tuple


def underlying(g: GraphLike) -> Graph:
    return g.graph if isinstance(g, RibbonGraph) else g


# -- free commutative algebra elements -----------------------------------------


def _mono_text(mono: Mono) -> str:
    return "*".join(f"[{l}]" for l in mono) if mono else "1"


class GraphSum(LinComb):
    """Integer combination of multisets of canonical graph labels."""

    __slots__ = ()

    _key_mul = staticmethod(lambda m1, m2: tuple(sorted(m1 + m2)))
    _key_text = staticmethod(_mono_text)

    @staticmethod
    def unit() -> GraphSum:
        return GraphSum._of({(): 1})

    @staticmethod
    def from_label(label: str) -> GraphSum:
        return GraphSum._of({(label,): 1})

    @staticmethod
    def monomial(mono: Iterable[str]) -> GraphSum:
        return GraphSum._of({tuple(sorted(mono)): 1})

    def counit(self) -> int:
        """epsilon: coefficient of the empty multiset."""
        return self.terms.get((), 0)


class TensorSum(LinComb):
    """Integer combination of ordered pairs of GraphSum monomials."""

    __slots__ = ()

    _key_mul = staticmethod(
        lambda k1, k2: (tuple(sorted(k1[0] + k2[0])), tuple(sorted(k1[1] + k2[1])))
    )
    _key_text = staticmethod(lambda k: f"{_mono_text(k[0])} (x) {_mono_text(k[1])}")

    @staticmethod
    def unit() -> TensorSum:
        return TensorSum._of({((), ()): 1})

    @staticmethod
    def tensor(left: Iterable[str], right: Iterable[str], coeff: int = 1) -> TensorSum:
        return (TensorSum._of if coeff else TensorSum)({(tuple(sorted(left)), tuple(sorted(right))): coeff})


# -- structural subgraph machinery ------------------------------------------------


def member_vertices(g: GraphLike, member: EdgeSubset) -> frozenset[str]:
    base = underlying(g)
    verts: set[str] = set()
    for eid in member:
        e = base.edge(eid)
        verts.add(e.tail)
        verts.add(e.head)
    return frozenset(verts)


def _cut_leg_id(base: Graph, edge_id: str, end: str) -> str:
    """The leg id of a cut edge end: "cut.<edge>.<end>", with primes appended
    while a host edge or leg has the name."""
    lid = f"cut.{edge_id}.{end}"
    while lid in base._edge_by_id or lid in base._leg_by_id:
        lid += "'"
    return lid


def member_graph(g: GraphLike, member: EdgeSubset) -> GraphLike:
    """The subgraph as a standalone graph; cut half-edges become its legs."""
    base = underlying(g)
    mv = member_vertices(g, member)
    verts = [v for v in base.vertices if v in mv]
    edges = [e for e in base.edges if e.id in member]
    legs: list[Leg] = []
    for e in base.edges:
        if e.id in member:
            continue
        if e.tail in mv:
            legs.append(Leg(_cut_leg_id(base, e.id, "t"), e.tail, "out"))
        if e.head in mv:
            legs.append(Leg(_cut_leg_id(base, e.id, "h"), e.head, "in"))
    for l in base.legs:
        if l.vertex in mv:
            legs.append(l)
    sub = Graph(verts, edges, legs)
    if isinstance(g, Graph):
        return sub
    rot: dict[str, tuple[Token, ...]] = {}
    for v in verts:
        seq = []
        for t in g.rotation[v]:
            if is_leg_token(t) or t[0] in member:
                seq.append(t)
            else:
                seq.append((_cut_leg_id(base, t[0], t[1]), "x"))
        rot[v] = tuple(seq)
    return RibbonGraph(sub, rot)


def cograph(g: GraphLike, family: Iterable[EdgeSubset]) -> GraphLike:
    """Shrink each family member to a single vertex.

    For ribbon graphs the new vertex inherits the cyclic order of the cut
    half-edges along the member's single broken face.
    """
    base = underlying(g)
    members = sorted((frozenset(m) for m in family), key=sorted)
    vsets = [member_vertices(g, m) for m in members]
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if vsets[i] & vsets[j]:
                raise ValueError("family members must be vertex-disjoint")
    union_edges: set[str] = set()
    for m in members:
        union_edges |= m
    used = set(base.vertices)
    new_ids = []
    for m in members:
        nid = f"c.{min(m)}"
        while nid in used:
            nid += "'"
        used.add(nid)
        new_ids.append(nid)
    vmap: dict[str, str] = {}
    for vs, nid in zip(vsets, new_ids):
        for v in vs:
            vmap[v] = nid

    def ren(v: str) -> str:
        return vmap.get(v, v)

    verts = [v for v in base.vertices if v not in vmap] + new_ids
    edges = [Edge(e.id, ren(e.tail), ren(e.head)) for e in base.edges if e.id not in union_edges]
    legs = [Leg(l.id, ren(l.vertex), l.dir) for l in base.legs]
    shrunk = Graph(verts, edges, legs)
    if isinstance(g, Graph):
        return shrunk
    rot = {v: g.rotation[v] for v in base.vertices if v not in vmap}
    index, token = _RibbonShapes.of_graph(g), g.half_edges().token
    for m, nid in zip(members, new_ids):
        rot[nid] = tuple(token[h] for h in index.broken_face(index.mask(m)))
    return RibbonGraph(shrunk, rot)


# -- hosts as integer indices ------------------------------------------------------


_BYTE_BITS = [tuple(i for i in range(8) if m >> i & 1) for m in range(256)]


def _bits(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of `mask`, ascending, read a byte at a
    time."""
    if mask < 256:
        return _BYTE_BITS[mask]
    out: list[int] = []
    base = 0
    while mask:
        out += [base + i for i in _BYTE_BITS[mask & 255]]
        mask >>= 8
        base += 8
    return tuple(out)


def _edge_names(count: int) -> list[str]:
    """Edge ids for edge positions 0..count-1 whose sorted order is the
    position order: "e0".."e9", or "e00".."e11" and so on."""
    width = len(str(max(count - 1, 0)))
    return [f"e{i:0{width}d}" for i in range(count)]


class _HostIndex:
    """A host as integers, and the reader of its members' and cographs' shapes.

    `edges[i]` holds the end vertex positions of edge position i, `ids[i]`
    its id, and `degree[v]` the half-edges (edge ends and legs) at vertex
    position v.  Edge positions follow the sorted edge ids, so a member, a
    bitmask over edge positions, has its least id at its lowest bit.  An
    index read off a shape has the positions themselves as ids; `build`
    names edge i by `_edge_names`, whose sorted order is the same.
    `shape` is the host's shape and `canonical_form()` its label, so an
    index stands in for its host where `HopfAlgebra.divergent_members`
    takes one.
    """

    code: Callable[[Shape], str]

    def __init__(self, shape: Shape, edges: list[tuple[int, int]], degree: list[int], ids: Sequence[str] | range):
        self.shape = shape
        self.edges = edges
        self.degree = degree
        self.ids = ids
        self.bit_of = {e: 1 << i for i, e in enumerate(ids)}
        self.vbits = [1 << a | 1 << b for a, b in edges]  # the vertex bits of each edge position

    def canonical_form(self) -> str:
        return self.code(self.shape)

    def mask(self, member: Iterable) -> int:
        return sum(map(self.bit_of.__getitem__, member))

    def edge_set(self, mask: int) -> frozenset:
        return frozenset(map(self.ids.__getitem__, _bits(mask)))

    def vertex_mask(self, mask: int) -> int:
        vm = 0
        for i in _bits(mask):
            vm |= self.vbits[i]
        return vm

    def nullity(self) -> int:
        return len(self.edges) - len(self.degree) + _union_find(len(self.degree), self.edges)[1]


class _GraphShapes(_HostIndex):
    """A plain host's index: its shape (vertex count, end-position pairs,
    legs per position) with the edges in id order."""

    code = staticmethod(lambda shape: canonical_code(*shape))

    def __init__(self, shape: Shape, edges: list[tuple[int, int]], ids: Sequence[str] | range):
        self.legs = legs = shape[2]  # host legs per position
        degree = list(legs)
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        super().__init__(shape, edges, degree, ids)

    @staticmethod
    def of_shape(shape: Shape) -> _GraphShapes:
        return _GraphShapes(shape, list(shape[1]), range(len(shape[1])))

    @staticmethod
    def of_graph(g: Graph) -> _GraphShapes:
        ids = g.edge_ids()
        return _GraphShapes(g.shape(), [g._ends[e] for e in ids], ids)

    @staticmethod
    def build(shape: Shape) -> Graph:
        """The graph on vertices v0.. with edge i at the i-th pair of `shape`
        (named `_edge_names`) and legs f0..: its shape is `shape`."""
        n, pairs, legc = shape
        verts = [f"v{i}" for i in range(n)]
        edges = [Edge(e, verts[a], verts[b]) for e, (a, b) in zip(_edge_names(len(pairs)), pairs)]
        at = [v for v, count in enumerate(legc) for _ in range(count)]
        return Graph(verts, edges, [Leg(f"f{k}", verts[v], "in") for k, v in enumerate(at)])

    def member(self, mask: int) -> Shape:
        """The shape of `member_graph`: the member's vertices in host order,
        with the host degree less the member's own half-edges as legs."""
        ends = [self.edges[i] for i in _bits(mask)]
        own: dict[int, int] = {}  # host position -> the member's half-edges there
        for a, b in ends:
            own[a] = own.get(a, 0) + 1
            own[b] = own.get(b, 0) + 1
        verts = sorted(own)
        at = {v: i for i, v in enumerate(verts)}
        pairs = sorted((at[a], at[b]) if a <= b else (at[b], at[a]) for a, b in ends)
        return len(verts), tuple(pairs), tuple(self.degree[v] - own[v] for v in verts)

    def cograph(self, family: Iterable[int]) -> Shape:
        """The shape of `cograph`: the kept vertices in host order, then one
        position per member in `cograph`'s order (by least edge id),
        carrying the legs of the member's vertices; the other edges are
        mapped through."""
        edges, legs = self.edges, self.legs
        shrunk: dict[int, int] = {}  # host position -> index of its member
        union = 0
        members = sorted(family, key=lambda m: m & -m)
        for i, m in enumerate(members):
            union |= m
            for j in _bits(m):
                a, b = edges[j]
                shrunk[a] = shrunk[b] = i
        at = [0] * len(legs)
        legc = []
        for v, count in enumerate(legs):
            if v not in shrunk:
                at[v] = len(legc)
                legc.append(count)
        kept = len(legc)
        legc += [0] * len(members)
        for v, i in shrunk.items():
            at[v] = kept + i
            legc[kept + i] += legs[v]
        pairs = sorted(
            (at[a], at[b]) if at[a] <= at[b] else (at[b], at[a])
            for j, (a, b) in enumerate(edges)
            if not union >> j & 1
        )
        return len(legc), tuple(pairs), tuple(legc)


class _RibbonShapes(_HostIndex):
    """A ribbon host's index: its `HalfEdges`, whose `mate`, `nxt`, `bit`
    and `vmask` it reads, with `blocks[v]` the range of half-edge numbers at
    vertex position v.  An index read off a shape numbers its edges in the
    order of their first half-edge (`HalfEdges.of_shape`)."""

    code = staticmethod(rotation_code)

    def __init__(self, index: HalfEdges, ids: Sequence[str] | range):
        self.mate, self.nxt, self.bit, self.vmask = index.mate, index.nxt, index.bit, index.vmask
        self.blocks = [range(lo, hi) for lo, hi in zip(index.start, index.start[1:])]
        super().__init__(index.blocks, index.ends, list(map(len, index.blocks)), ids)

    @staticmethod
    def of_shape(blocks: Shape) -> _RibbonShapes:
        index = HalfEdges.of_shape(blocks)
        return _RibbonShapes(index, range(len(index.tail)))

    @staticmethod
    def of_graph(g: RibbonGraph) -> _RibbonShapes:
        index = g.half_edges()
        return _RibbonShapes(index, index.ids)

    @staticmethod
    def build(blocks: Shape) -> RibbonGraph:
        """The ribbon graph on vertices v0.. whose rotations list the
        half-edges of `blocks`, edge i (named `_edge_names`) running from
        its first half-edge to its second, and legs f0..: its shape is
        `blocks`."""
        index = _RibbonShapes.of_shape(blocks)
        names = _edge_names(len(index.edges))
        verts = [f"v{i}" for i in range(len(blocks))]
        edges = [Edge(e, verts[a], verts[b]) for e, (a, b) in zip(names, index.edges)]
        legs = []
        rotation = {}
        for v, block in zip(verts, index.blocks):
            seq = []
            for h in block:
                q = index.mate[h]
                if q < 0:
                    seq.append((f"f{len(legs)}", "x"))
                    legs.append(Leg(seq[-1][0], v, "in"))
                else:
                    seq.append((names[index.bit[h].bit_length() - 1], "t" if h < q else "h"))
            rotation[v] = seq
        return RibbonGraph(Graph(verts, edges, legs), rotation)

    def _faces(self, mask: int) -> list[list[int]]:
        """Per face of the member `mask`, the half-edges it passes by in face
        order: those at the member's vertices whose edge is not in `mask`,
        legs included.  Faces start at each untraced half-edge of `mask` in
        number order, as `HalfEdges.trace` starts them."""
        bit, mate, nxt = self.bit, self.mate, self.nxt
        seen = bytearray(len(bit))
        faces = []
        for first, b in enumerate(bit):
            if not b & mask or seen[first]:
                continue
            passed = []
            cur = first
            while True:
                seen[cur] = 1
                step = nxt[mate[cur]]
                while not bit[step] & mask:
                    passed.append(step)
                    step = nxt[step]
                cur = step
                if cur == first:
                    break
            faces.append(passed)
        return faces

    def broken_face(self, mask: int) -> tuple[int, ...]:
        """The half-edges that a member's one broken face passes by, in face
        order: the legs of `member_graph`.  Raises ValueError when the member
        has two or more broken faces."""
        broken = [f for f in self._faces(mask) if f]
        if len(broken) > 1:
            raise ValueError("ribbon shrink needs all subgraph legs on one boundary face")
        return tuple(broken[0]) if broken else ()

    def planar_regular(self, mask: int, n_verts: int) -> bool:
        """`member_graph(...).is_planar_regular()` for a connected member:
        genus 0 (V - E + F = 2) and one broken face."""
        faces = self._faces(mask)
        return n_verts - mask.bit_count() + len(faces) == 2 and sum(1 for f in faces if f) == 1

    def _layout(self, blocks: list[Iterable[int]], mask: int) -> Shape:
        """The shape of the ribbon graph whose vertices hold the host
        half-edges `blocks`, in order: the flat position there of each
        half-edge's mate, -1 for a leg or an edge whose bit is not in `mask`."""
        bit, mate = self.bit, self.mate
        flat = {h: i for i, h in enumerate(h for block in blocks for h in block)}
        return tuple(tuple(flat[mate[h]] if bit[h] & mask else -1 for h in block) for block in blocks)

    def member(self, mask: int) -> Shape:
        """The shape of `member_graph`: the host blocks at the member's
        vertices, each in host rotation order, with the other edges' ends
        as legs."""
        return self._layout([block for block, vm in zip(self.blocks, self.vmask) if vm & mask], mask)

    def cograph(self, family: Iterable[int]) -> Shape:
        """The shape of `cograph`: the kept host blocks, then per member, in
        `cograph`'s order (by least edge id), the half-edges its one broken
        face passes by."""
        union = 0
        faces = []
        for m in sorted(family, key=lambda m: m & -m):
            union |= m
            faces.append(self.broken_face(m))
        kept = [block for block, vm in zip(self.blocks, self.vmask) if not vm & union]
        return self._layout(kept + faces, ~union)


def _host_index(g: GraphLike | _HostIndex) -> _HostIndex:
    if isinstance(g, _HostIndex):
        return g
    return _RibbonShapes.of_graph(g) if isinstance(g, RibbonGraph) else _GraphShapes.of_graph(g)


# -- graph insertion (the dual of shrinking) -----------------------------------------


def insert(host: GraphLike, sub: GraphLike, gluing: Mapping[str, Token]) -> GraphLike:
    """Insert `sub` into `host` according to gluing data.

    `gluing` maps every external leg id of `sub` to a host half-edge token:
    either all incidences of one host vertex (vertex insertion, 4-leg
    subgraphs) or the two ends (edge_id, "t") / (edge_id, "h") of one host
    edge (propagator insertion, 2-leg subgraphs).  Ribbon insertion must
    respect the cyclic ordering and raises otherwise.
    """
    if isinstance(host, RibbonGraph) != isinstance(sub, RibbonGraph):
        raise ValueError("host and inserted graph must both be plain or both ribbon")
    hbase = underlying(host)
    sbase = underlying(sub)
    sub_leg_ids = {l.id for l in sbase.legs}
    if set(gluing) != sub_leg_ids:
        raise ValueError("gluing must cover exactly the inserted graph's legs")
    targets = {tuple(t): lid for lid, t in ((k, gluing[k]) for k in gluing)}
    if len(targets) != len(gluing):
        raise ValueError("gluing targets must be distinct")

    edge_targets = {t for t in targets if t[1] in ("t", "h")}
    leg_targets = {t for t in targets if t[1] == "x"}
    edge_ids_hit = {t[0] for t in edge_targets}
    if (
        len(gluing) == 2
        and not leg_targets
        and len(edge_ids_hit) == 1
        and {t[1] for t in edge_targets} == {"t", "h"}
    ):
        return _insert_on_edge(host, sub, targets)
    return _insert_at_vertex(host, sub, targets)


def _fresh_names(base_ids: set[str], wanted: Iterable[str]) -> dict[str, str]:
    out = {}
    for w in wanted:
        nid = f"i.{w}"
        while nid in base_ids:
            nid = "i." + nid
        base_ids.add(nid)
        out[w] = nid
    return out


def _token_vertex(g: Graph, tok: Token) -> str:
    if tok[1] == "t":
        return g.edge(tok[0]).tail
    if tok[1] == "h":
        return g.edge(tok[0]).head
    return g.leg(tok[0]).vertex


def _insert_at_vertex(host: GraphLike, sub: GraphLike, targets: dict[Token, str]) -> GraphLike:
    hbase = underlying(host)
    sbase = underlying(sub)
    sites = {_token_vertex(hbase, t) for t in targets}
    if len(sites) != 1:
        raise ValueError("vertex insertion needs all gluing targets at one vertex")
    site = sites.pop()
    incidences: list[Token] = []
    for e in hbase.edges:
        if e.tail == site:
            incidences.append((e.id, "t"))
        if e.head == site:
            incidences.append((e.id, "h"))
    for l in hbase.legs:
        if l.vertex == site:
            incidences.append((l.id, "x"))
    if set(incidences) != set(targets) or len(incidences) != len(targets):
        raise ValueError("gluing must exhaust the insertion vertex's incidences")

    used = set(hbase.vertices) | {e.id for e in hbase.edges} | {l.id for l in hbase.legs}
    vren = _fresh_names(used, sbase.vertices)
    eren = _fresh_names(used, [e.id for e in sbase.edges])
    leg_vertex = {l.id: vren[l.vertex] for l in sbase.legs}

    def attach(tok: Token) -> str:
        return leg_vertex[targets[tok]]

    verts = [v for v in hbase.vertices if v != site] + [vren[v] for v in sbase.vertices]
    edges = []
    for e in hbase.edges:
        tail = attach((e.id, "t")) if e.tail == site else e.tail
        head = attach((e.id, "h")) if e.head == site else e.head
        edges.append(Edge(e.id, tail, head))
    edges += [Edge(eren[e.id], vren[e.tail], vren[e.head]) for e in sbase.edges]
    legs = [
        Leg(l.id, attach((l.id, "x")) if l.vertex == site else l.vertex, l.dir)
        for l in hbase.legs
    ]
    merged = Graph(verts, edges, legs)
    if isinstance(host, Graph):
        return merged

    # ribbon: check that the gluing respects the cyclic ordering
    assert isinstance(host, RibbonGraph) and isinstance(sub, RibbonGraph)
    broken = [f for f in sub.faces() if f.broken]
    if len(broken) != 1:
        raise ValueError("ribbon insertion needs the subgraph legs on one boundary face")
    boundary = list(broken[0].leg_ids())
    host_seq = [targets[t] for t in host.rotation[site]]
    if not _cyclic_equal(host_seq, boundary):
        raise ValueError("gluing does not respect the cyclic ordering")

    def map_sub_token(tok: Token) -> Token:
        if is_leg_token(tok):
            inv = {lid: t for t, lid in targets.items()}
            return inv[tok[0]]
        return (eren[tok[0]], tok[1])

    rot = {v: seq for v, seq in host.rotation.items() if v != site}
    for v in sbase.vertices:
        rot[vren[v]] = tuple(map_sub_token(t) for t in sub.rotation[v])
    return RibbonGraph(merged, rot)


def _insert_on_edge(host: GraphLike, sub: GraphLike, targets: dict[Token, str]) -> GraphLike:
    hbase = underlying(host)
    sbase = underlying(sub)
    (eid,) = {t[0] for t in targets}
    e = hbase.edge(eid)
    leg_t = targets[(eid, "t")]
    leg_h = targets[(eid, "h")]

    used = set(hbase.vertices) | {x.id for x in hbase.edges} | {l.id for l in hbase.legs}
    vren = _fresh_names(used, sbase.vertices)
    eren = _fresh_names(used, [x.id for x in sbase.edges])
    new_eid = _fresh_names(used, [leg_h])[leg_h]
    va = vren[sbase.leg(leg_t).vertex]
    vb = vren[sbase.leg(leg_h).vertex]

    verts = list(hbase.vertices) + [vren[v] for v in sbase.vertices]
    edges = [x for x in hbase.edges if x.id != eid]
    edges.append(Edge(eid, e.tail, va))
    edges.append(Edge(new_eid, vb, e.head))
    edges += [Edge(eren[x.id], vren[x.tail], vren[x.head]) for x in sbase.edges]
    legs = list(hbase.legs)
    merged = Graph(verts, edges, legs)
    if isinstance(host, Graph):
        return merged

    assert isinstance(host, RibbonGraph) and isinstance(sub, RibbonGraph)

    def map_sub_token(tok: Token) -> Token:
        if is_leg_token(tok):
            if tok[0] == leg_t:
                return (eid, "h")
            if tok[0] == leg_h:
                return (new_eid, "t")
            raise AssertionError("unexpected leg token")
        return (eren[tok[0]], tok[1])

    rot = {}
    for v, seq in host.rotation.items():
        rot[v] = tuple((new_eid, "h") if t == (eid, "h") else t for t in seq)
    for v in sbase.vertices:
        rot[vren[v]] = tuple(map_sub_token(t) for t in sub.rotation[v])
    return RibbonGraph(merged, rot)


def _bfs_rank(n: int, ends: list[tuple[int, int]]) -> list[int]:
    """Breadth-first visiting order of the vertex positions 0..n-1, one
    component after another."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in ends:
        adj[a].append(b)
        adj[b].append(a)
    rank = [-1] * n
    seen = 0
    for root in range(n):
        if rank[root] >= 0:
            continue
        rank[root] = seen
        seen += 1
        queue = [root]
        for v in queue:
            for w in adj[v]:
                if rank[w] < 0:
                    rank[w] = seen
                    seen += 1
                    queue.append(w)
    return rank


def _grow(clash: list[int]) -> list[tuple[int, ...]]:
    """Every nonempty ascending tuple of indices below `len(clash)` no two of
    which clash (`clash[i]` has bit j set when i and j clash), in
    depth-first order: a tuple, then the tuples that extend it, then the
    next choice at its last place.  Pending choices wait on a stack."""
    out: list[tuple[int, ...]] = []
    stack: list[tuple[int, tuple[int, ...], int]] = [(0, (), 0)]  # (next index, tuple, its index bits)
    while stack:
        start, chosen, bits = stack.pop()
        for i in range(start, len(clash)):
            if not clash[i] & bits:
                picked = chosen + (i,)
                out.append(picked)
                stack.append((i + 1, chosen, bits))
                stack.append((i + 1, picked, bits | 1 << i))
                break
    return out


def _sharing(vmasks: list[int]) -> list[int]:
    """Per member, the bitmask of the members that share a vertex with it
    (itself included), from members' vertex bitmasks `vmasks`."""
    at: dict[int, int] = {}  # vertex position -> the members there
    for i, vm in enumerate(vmasks):
        for v in _bits(vm):
            at[v] = at.get(v, 0) | 1 << i
    out = []
    for vm in vmasks:
        share = 0
        for v in _bits(vm):
            share |= at[v]
        out.append(share)
    return out


# -- the Hopf algebra ---------------------------------------------------------------


class HopfAlgebra:
    """Coproduct, antipode and BPHZ operators for one divergence model.

    `include_tadpoles=False` drops subgraphs containing self-loops from the
    divergent class.  `products=False` restricts coproduct sums to single
    subgraphs (no disjoint unions); this deliberately breaks coassociativity
    and exists for the pinned negative test.
    """

    def __init__(self, model: str = "phi4", include_tadpoles: bool = True, products: bool = True):
        if model not in MODELS:
            raise ValueError(f"unknown model {model!r}; choose from {MODELS}")
        self.model = model
        self.include_tadpoles = include_tadpoles
        self.products = products
        self._shape_labels: dict[Shape, str] = {}
        # id(g) -> (g, its label), holding g so that its id is not reused
        self._object_labels: dict[int, tuple[GraphLike, str]] = {}
        self._one_pi: set[str] = set()  # labels whose graphs were found 1PI
        self._hosts: dict[str, tuple[type[_HostIndex], Shape]] = {}  # label -> its first shape
        self._indices: dict[str, _HostIndex] = {}
        self._graphs: dict[str, GraphLike] = {}
        self._split_cache: dict[str, list[tuple[Mono, str]]] = {}
        self._coproducts: dict[str, TensorSum] = {}
        self._antipodes: dict[str, GraphSum] = {}
        self._phi_minus: dict[str, FormalAmplitude] = {}

    # -- label registry ------------------------------------------------------

    def label(self, g: GraphLike) -> str:
        """The canonical form of `g`, looked up by `g.shape()`: each shape is
        searched once on this instance, and each graph object's shape is read
        once.  A new label keeps `g`'s shape, and `graph_of` returns `g`
        itself for it."""
        known = self._object_labels.get(id(g))
        if known is not None:
            return known[1]
        lbl = self._label_shape(g.shape(), _RibbonShapes if isinstance(g, RibbonGraph) else _GraphShapes, g)
        self._object_labels[id(g)] = (g, lbl)
        return lbl

    def _label_shape(self, shape: Shape, kind: type[_HostIndex], g: GraphLike | None = None) -> str:
        """The label `kind.code(shape)`, searched once per shape.  A new label
        keeps `(kind, shape)`, and `g` when it is given."""
        lbl = self._shape_labels.get(shape)
        if lbl is None:
            lbl = self._shape_labels[shape] = kind.code(shape)
            if lbl not in self._hosts:
                self._hosts[lbl] = (kind, shape)
                if g is not None:
                    self._graphs[lbl] = g
        return lbl

    def _index(self, label: str) -> _HostIndex:
        """The index of the shape `label` was first registered with."""
        index = self._indices.get(label)
        if index is None:
            kind, shape = self._hosts[label]
            index = self._indices[label] = kind.of_shape(shape)
        return index

    def graph_of(self, label: str) -> GraphLike:
        """The graph of a registered label: the one `label(g)` first met it
        in, or else one built from its shape on first use and kept."""
        g = self._graphs.get(label)
        if g is None:
            try:
                kind, shape = self._hosts[label]
            except KeyError:
                raise KeyError(f"label {label!r} was never registered") from None
            g = self._graphs[label] = kind.build(shape)
        return g

    def grading_label(self, label: str) -> int:
        return self._index(label).nullity()

    def grading_monomial(self, mono: Mono) -> int:
        return sum(self.grading_label(l) for l in mono)

    # -- divergent subgraphs ---------------------------------------------------

    def divergent_members(self, g: GraphLike | _HostIndex) -> list[EdgeSubset]:
        """Connected 1PI proper subgraphs that are divergent under the model,
        in (size, sorted ids) order: `_search` on `g`'s index, each bitmask
        mapped back to its edge ids.  `g` may be an index itself; one read
        off a shape has its edge positions as ids."""
        index = _host_index(g)
        return [index.edge_set(m) for m in self._search(index)]

    def _search(self, index: _HostIndex) -> list[int]:
        """The divergent members of a host as bitmasks over its edge
        positions, in (size, sorted positions) order.

        A depth-first walk adds edges in a fixed order, so each subset extends
        the one without its last edge: its vertex mask, the mask of vertices
        that carry two or more of its half-edges (a self-loop gives two), its
        degree sum and the legs it keeps in every extension each follow in
        O(1).  A subset keeps the legs and the ends of skipped edges at its
        vertices: no later edge can take them in.  Two filters read them
        before the bridge test: the 2 or 4 leg count (phi4, gw: the degree
        sum minus twice the size), and the necessary condition that every
        vertex of a bridgeless subgraph carries two of its half-edges.  A
        vertex short of two that no later edge touches stays short, and
        (phi4, gw) a subset that keeps more than 4 legs keeps them, so the
        walk leaves such a branch; edges go in breadth-first order of their
        later end, so vertices run out of edges early.  Self-loops are never
        added when tadpoles are excluded.  The walk goes on with the next
        edge taken; the subset without it waits on a stack.
        """
        planar = self.model == "gw"
        if planar and not isinstance(index, _RibbonShapes):
            raise ValueError("the gw model is defined on ribbon graphs")
        ends, deg = index.edges, index.degree
        n = len(deg)
        order = [i for i, (a, b) in enumerate(ends) if self.include_tadpoles or a != b]
        rank = _bfs_rank(n, [ends[i] for i in order])
        order.sort(key=lambda i: sorted((rank[ends[i][0]], rank[ends[i][1]]), reverse=True))
        # per walk position j: the end vertex bits, the degrees the ends add (a
        # loop's second end adds none), the half-edges at each end's vertex
        # that no edge from j on holds (legs, and the ends of skipped edges),
        # and the edge position
        later = [0] * n
        steps = []
        for i in reversed(order):
            a, b = ends[i]
            later[a] += 1
            later[b] += 1
            loop = a == b
            steps.append(
                (1 << a, 1 << b, deg[a], 0 if loop else deg[b], deg[a] - later[a], 0 if loop else deg[b] - later[b], i)
            )
        steps.reverse()
        # untouched[j]: the vertices no edge from walk position j on touches
        untouched = [0] * (len(steps) + 1)
        untouched[-1] = (1 << n) - 1
        for j in range(len(steps) - 1, -1, -1):
            untouched[j] = untouched[j + 1] & ~(steps[j][0] | steps[j][1])
        count_legs = self.model != "core"
        cap = 4 if count_legs else math.inf  # the most legs a member may keep
        proper = len(ends)
        found: list[tuple[int, list[int], int]] = []  # (size, sorted edge positions, edge mask)
        combo: list[int] = []  # the edge positions of the current subset, in walk order
        # the subsets still to extend without an edge: (walk position, vertex mask,
        # twice mask, degree sum, edge mask, size, legs it keeps in every extension)
        stack: list[tuple[int, int, int, int, int, int, int]] = []
        j = verts = twice = degsum = mask = r = kept = 0
        while True:
            if j == len(steps) or verts & ~twice & untouched[j] or kept > cap:
                if not stack:
                    break
                j, verts, twice, degsum, mask, r, kept = stack.pop()
                del combo[r:]
                continue
            bit_a, bit_b, deg_a, deg_b, held_a, held_b, i = steps[j]
            # without edge j, its ends at the subset's vertices stay legs
            stack.append((j + 1, verts, twice, degsum, mask, r, kept + (verts & bit_a != 0) + (verts & bit_b != 0)))
            if not verts & bit_a:
                degsum += deg_a
                kept += held_a
            if not verts & bit_b:
                degsum += deg_b
                kept += held_b
            both = bit_a | bit_b
            twice |= (verts & both) | (bit_a & bit_b)
            verts |= both
            mask |= 1 << i
            combo.append(i)
            r += 1
            j += 1
            if (
                twice == verts
                and r < proper
                and (not count_legs or degsum - 2 * r in (2, 4))
                and bridgeless_connected(_bits(verts), [ends[c] for c in combo])
                and (not planar or index.planar_regular(mask, verts.bit_count()))
            ):
                found.append((r, sorted(combo), mask))
        found.sort()
        return [m for _, _, m in found]

    def _members(self, g: GraphLike | _HostIndex) -> tuple[list[EdgeSubset], list[int], list[int]]:
        """`g`'s divergent members with their edge and vertex bitmasks.  Every
        route reads its members from `divergent_members`."""
        index = _host_index(g)
        found = self.divergent_members(index)
        masks = [index.mask(m) for m in found]
        return found, masks, [index.vertex_mask(m) for m in masks]

    def families(self, g: GraphLike | _HostIndex) -> list[tuple[EdgeSubset, ...]]:
        """Nonempty sets of pairwise vertex-disjoint divergent subgraphs."""
        found, _, vmasks = self._members(g)
        if not self.products:
            return [(m,) for m in found]
        return [tuple(found[i] for i in fam) for fam in _grow(_sharing(vmasks))]

    def zimmermann_forests(self, g: GraphLike) -> list[tuple[EdgeSubset, ...]]:
        """All sets of divergent subgraphs that are pairwise nested or disjoint."""
        found, masks, vmasks = self._members(g)
        # members clash when they share a vertex and neither holds the other
        clash = [
            sum(1 << j for j in _bits(share) if masks[i] & masks[j] not in (masks[i], masks[j]))
            for i, share in enumerate(_sharing(vmasks))
        ]
        return [()] + [tuple(found[i] for i in forest) for forest in _grow(clash)]

    # -- coproduct, counit, antipode ----------------------------------------------

    def _splits(self, lbl: str) -> list[tuple[Mono, str]]:
        """(labels of the members, label of the cograph) for every family of
        the registered label `lbl`.

        Kept per label, since isomorphic graphs have the same splits.
        `families` runs on the index of the shape `lbl` was first registered
        with, and each member's and cograph's shape is read off that index
        and labelled by shape, so no graph is built.
        """
        splits = self._split_cache.get(lbl)
        if splits is None:
            index = self._index(lbl)
            kind = type(index)
            families = self.families(index)
            masks = {m: index.mask(m) for fam in families for m in fam}
            member_label = {m: self._label_shape(index.member(mask), kind) for m, mask in masks.items()}
            splits = self._split_cache[lbl] = [
                (
                    tuple(sorted(member_label[m] for m in fam)),
                    self._label_shape(index.cograph([masks[m] for m in fam]), kind),
                )
                for fam in families
            ]
        return splits

    def coproduct(self, g: GraphLike) -> TensorSum:
        """The coproduct of the 1PI graph `g`; 1PI-ness is tested once per label."""
        lbl = self.label(g)
        if lbl not in self._one_pi:
            if not underlying(g).is_one_pi():
                raise ValueError("coproduct requires a 1PI graph")
            self._one_pi.add(lbl)
        return self._coproduct_label(lbl)

    def _coproduct_label(self, lbl: str) -> TensorSum:
        cached = self._coproducts.get(lbl)
        if cached is not None:
            return cached
        total = TensorSum.sum(
            itertools.chain(
                (TensorSum.tensor((lbl,), ()), TensorSum.tensor((), (lbl,))),
                (TensorSum.tensor(mono, (co,)) for mono, co in self._splits(lbl)),
            )
        )
        self._coproducts[lbl] = total
        return total

    def coproduct_monomial(self, mono: Mono) -> TensorSum:
        """Multiplicative extension: Delta(ab) = Delta(a) Delta(b).

        The labels are those of registered 1PI graphs: members and cographs
        of coproduct terms.
        """
        total = TensorSum.unit()
        for lbl in mono:
            total = total * self._coproduct_label(lbl)
        return total

    def antipode(self, g: GraphLike) -> GraphSum:
        return self._antipode_label(self.label(g))

    def _antipode_label(self, lbl: str) -> GraphSum:
        cached = self._antipodes.get(lbl)
        if cached is not None:
            return cached
        total = -GraphSum.sum(
            itertools.chain(
                (GraphSum.from_label(lbl),),
                (
                    self.antipode_monomial(mono) * GraphSum.from_label(co)
                    for mono, co in self._splits(lbl)
                ),
            )
        )
        self._antipodes[lbl] = total
        return total

    def antipode_monomial(self, mono: Mono) -> GraphSum:
        total = GraphSum.unit()
        for lbl in mono:
            total = total * self._antipode_label(lbl)
        return total

    # -- Hopf-axiom checks -----------------------------------------------------------

    def check_coassociativity(self, g: GraphLike) -> bool:
        delta = self.coproduct(g)
        left: dict[tuple[Mono, Mono, Mono], int] = {}
        right: dict[tuple[Mono, Mono, Mono], int] = {}
        for (a, b), c in delta.terms.items():
            for (a1, a2), c2 in self.coproduct_monomial(a).terms.items():
                key = (a1, a2, b)
                left[key] = left.get(key, 0) + c * c2
            for (b1, b2), c2 in self.coproduct_monomial(b).terms.items():
                key = (a, b1, b2)
                right[key] = right.get(key, 0) + c * c2
        left = {k: v for k, v in left.items() if v}
        right = {k: v for k, v in right.items() if v}
        return left == right

    def check_counit(self, g: GraphLike) -> bool:
        lbl = self.label(g)
        terms = self.coproduct(g).terms.items()
        from_left = GraphSum.sum(GraphSum.monomial(b) * c for (a, b), c in terms if not a)
        from_right = GraphSum.sum(GraphSum.monomial(a) * c for (a, b), c in terms if not b)
        want = GraphSum.from_label(lbl)
        return from_left == want and from_right == want

    def check_hopf_axioms(self, g: GraphLike) -> bool:
        """m (S x id) Delta = u eps = m (id x S) Delta, both sides."""
        terms = self.coproduct(g).terms.items()
        left = GraphSum.sum(
            self.antipode_monomial(a) * GraphSum.monomial(b) * c for (a, b), c in terms
        )
        right = GraphSum.sum(
            GraphSum.monomial(a) * self.antipode_monomial(b) * c for (a, b), c in terms
        )
        return left.is_zero() and right.is_zero()

    def check_grading(self, g: GraphLike) -> bool:
        total = underlying(g).nullity()
        for (a, b), _ in self.coproduct(g).terms.items():
            if self.grading_monomial(a) + self.grading_monomial(b) != total:
                return False
        return True

    # -- Feynman rules and BPHZ ---------------------------------------------------------

    def phi(self, mono: Mono) -> FormalAmplitude:
        total = FormalAmplitude.one()
        for lbl in mono:
            total = total * FormalAmplitude.phi(lbl)
        return total

    def _phi_minus_label(self, lbl: str) -> FormalAmplitude:
        cached = self._phi_minus.get(lbl)
        if cached is not None:
            return cached
        result = -(self._rbar(lbl).project())
        self._phi_minus[lbl] = result
        return result

    def twisted_antipode_monomial(self, mono: Mono) -> FormalAmplitude:
        total = FormalAmplitude.one()
        for lbl in mono:
            total = total * self._phi_minus_label(lbl)
        return total

    def convolution(
        self,
        f: Callable[[Mono], FormalAmplitude],
        h: Callable[[Mono], FormalAmplitude],
        g: GraphLike,
    ) -> FormalAmplitude:
        """(f * h)(Gamma) = m (f x h) Delta(Gamma)."""
        terms = self.coproduct(g).terms.items()
        return FormalAmplitude.sum(c * (f(a) * h(b)) for (a, b), c in terms)

    def renormalized(self, g: GraphLike) -> FormalAmplitude:
        """phi_plus = phi_minus convolved with phi."""
        return self.convolution(self.twisted_antipode_monomial, self.phi, g)

    def bogoliubov_hopf(self, g: GraphLike) -> FormalAmplitude:
        """Rbar(Gamma) = phi(Gamma) + sum phi_minus(gamma) phi(Gamma/gamma)."""
        return self._rbar(self.label(g))

    def _rbar(self, lbl: str) -> FormalAmplitude:
        return FormalAmplitude.sum(
            itertools.chain(
                (FormalAmplitude.phi(lbl),),
                (
                    self.twisted_antipode_monomial(mono) * FormalAmplitude.phi(co)
                    for mono, co in self._splits(lbl)
                ),
            )
        )

    def bogoliubov_forest(self, g: GraphLike) -> FormalAmplitude:
        """Rbar as the Zimmermann forest sum of counterterm products.

        Forests share members and maximal sets, so within one call each
        member graph, each outer label (per maximal tuple) and each shrunk
        member's label (per member and its inner maximal tuple) is made once.
        """
        members: dict[EdgeSubset, GraphLike] = {}
        outer_labels: dict[tuple[EdgeSubset, ...], str] = {}
        shrunk_labels: dict[tuple[EdgeSubset, tuple[EdgeSubset, ...]], str] = {}

        def forest_term(forest: tuple[EdgeSubset, ...]) -> FormalAmplitude:
            maximal = tuple(m for m in forest if not any(m < other for other in forest))
            outer = outer_labels.get(maximal)
            if outer is None:
                outer = outer_labels[maximal] = self.label(cograph(g, maximal) if maximal else g)
            term = FormalAmplitude.phi(outer)
            for m in forest:
                inside = [x for x in forest if x < m]
                inner_max = tuple(x for x in inside if not any(x < y for y in inside))
                lbl = shrunk_labels.get((m, inner_max))
                if lbl is None:
                    sub = members.get(m)
                    if sub is None:
                        sub = members[m] = member_graph(g, m)
                    lbl = shrunk_labels[m, inner_max] = self.label(cograph(sub, inner_max) if inner_max else sub)
                term = term * FormalAmplitude.phi(lbl).project()
            return -term if len(forest) % 2 else term

        return FormalAmplitude.sum(forest_term(f) for f in self.zimmermann_forests(g))
