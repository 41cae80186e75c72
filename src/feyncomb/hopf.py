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
the host's own legs attached inside.  The search walks edge subsets depth
first as bitmasks and tests each for the leg count and for two half-edges at
every vertex in O(1), then for 1PI-ness, then (gw) planarity.

Labels are canonical forms looked up by shape, the integer data the
canonical-form search reads (`Graph.shape`, `RibbonGraph.shape`): each shape
is searched once per HopfAlgebra instance.  The coproduct reads the shapes
of a host's members and cographs off the host's own index, and builds a
member graph or cograph only for a label it has not met before.

Shrinking a subgraph keeps ribbon structure by reading the cut half-edges
off the subgraph's single broken face, so the gw model stays inside ribbon
graphs.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Mapping

from .formal import FormalAmplitude
from .graphs import Edge, EdgeSubset, Graph, Leg, bridgeless_connected, canonical_code
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


def _vertex_mask(ends: Mapping[str, tuple[int, int]], member: EdgeSubset) -> int:
    """The bitmask of the vertex positions of a member's edges, read off a
    host's `Graph._ends`."""
    mask = 0
    for eid in member:
        a, b = ends[eid]
        mask |= 1 << a | 1 << b
    return mask


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
    index = g.half_edges()
    for m, vs, nid in zip(members, vsets, new_ids):
        rot[nid] = _broken_face(index, m, vs)
    return RibbonGraph(shrunk, rot)


def _broken_face(index: HalfEdges, member: EdgeSubset, vs: frozenset[str]) -> tuple[Token, ...]:
    """The half-edges that a member's one broken face passes by, in face
    order: the host legs and cut ends at its vertices `vs`, the legs of
    `member_graph`.  Raises ValueError when the member has two or more."""
    broken = []
    for f in index.trace(index.mask(member), True, True):
        passed = [t for t in f.cycle if is_leg_token(t) or t[0] not in member]
        if passed and f.vertex in vs:
            broken.append(passed)
    if len(broken) > 1:
        raise ValueError("ribbon shrink needs all subgraph legs on one boundary face")
    return tuple(broken[0]) if broken else ()


# -- member and cograph shapes on the host's index ---------------------------------


class _GraphShapes:
    """The shapes of a plain host's members and cographs, read off its edge
    end positions (`Graph._ends`) without building a graph."""

    code = staticmethod(lambda shape: canonical_code(*shape))

    def __init__(self, g: Graph):
        self.ends = g._ends
        index = {v: i for i, v in enumerate(g.vertices)}
        self.legs = [0] * len(g.vertices)  # host legs per position
        for l in g.legs:
            self.legs[index[l.vertex]] += 1
        self.degree = self.legs[:]
        for a, b in self.ends.values():
            self.degree[a] += 1
            self.degree[b] += 1

    def member(self, member: EdgeSubset) -> Shape:
        """The shape of `member_graph`: the member's vertices in host order,
        with the host degree less the member's own half-edges as legs."""
        ends = self.ends
        own: dict[int, int] = {}  # host position -> the member's half-edges there
        for eid in member:
            a, b = ends[eid]
            own[a] = own.get(a, 0) + 1
            own[b] = own.get(b, 0) + 1
        verts = sorted(own)
        at = {v: i for i, v in enumerate(verts)}
        pairs = sorted((at[a], at[b]) if a <= b else (at[b], at[a]) for a, b in map(ends.__getitem__, member))
        return len(verts), tuple(pairs), tuple(self.degree[v] - own[v] for v in verts)

    def cograph(self, family: tuple[EdgeSubset, ...]) -> Shape:
        """The shape of `cograph`: the kept vertices in host order, then one
        position per member in `cograph`'s order, carrying the legs of the
        member's vertices; the other edges are mapped through."""
        ends, legs = self.ends, self.legs
        members = sorted(family, key=sorted)
        shrunk: dict[int, int] = {}  # host position -> index of its member
        for i, m in enumerate(members):
            for eid in m:
                a, b = ends[eid]
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
        union = frozenset().union(*members)
        pairs = sorted(
            (at[a], at[b]) if at[a] <= at[b] else (at[b], at[a]) for e, (a, b) in ends.items() if e not in union
        )
        return len(legc), tuple(pairs), tuple(legc)


class _RibbonShapes:
    """The shapes of a ribbon host's members and cographs, read off its
    `HalfEdges` without building a graph."""

    code = staticmethod(rotation_code)

    def __init__(self, g: RibbonGraph):
        self.index = index = g.half_edges()
        self.at = {t: h for h, t in enumerate(index.token)}
        self.blocks = [range(lo, hi) for lo, hi in zip(index.start, index.start[1:])]

    def _layout(self, blocks: list[Iterable[int]], mask: int) -> Shape:
        """The shape of the ribbon graph whose vertices hold the host
        half-edges `blocks`, in order: the flat position there of each
        half-edge's mate, -1 for a leg or an edge whose bit is not in `mask`."""
        bit, mate = self.index.bit, self.index.mate
        flat = {h: i for i, h in enumerate(h for block in blocks for h in block)}
        return tuple(tuple(flat[mate[h]] if bit[h] & mask else -1 for h in block) for block in blocks)

    def member(self, member: EdgeSubset) -> Shape:
        """The shape of `member_graph`: the host blocks at the member's
        vertices, each in host rotation order, with the other edges' ends
        as legs."""
        mask = self.index.mask(member)
        return self._layout([block for block, vm in zip(self.blocks, self.index.vmask) if vm & mask], mask)

    def cograph(self, family: tuple[EdgeSubset, ...]) -> Shape:
        """The shape of `cograph`: the kept host blocks, then per member, in
        `cograph`'s order, the half-edges its one broken face passes by."""
        index, at = self.index, self.at
        union = 0
        faces = []
        for m in sorted(family, key=sorted):
            mask = index.mask(m)
            union |= mask
            vs = frozenset(index.vertices[i] for i, vm in enumerate(index.vmask) if vm & mask)
            faces.append([at[t] for t in _broken_face(index, m, vs)])
        kept = [block for block, vm in zip(self.blocks, index.vmask) if not vm & union]
        return self._layout(kept + faces, ~union)


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
        self._graphs: dict[str, GraphLike] = {}
        self._split_cache: dict[str, list[tuple[Mono, str]]] = {}
        self._coproducts: dict[str, TensorSum] = {}
        self._antipodes: dict[str, GraphSum] = {}
        self._phi_minus: dict[str, FormalAmplitude] = {}

    # -- label registry ------------------------------------------------------

    def label(self, g: GraphLike) -> str:
        """The canonical form of `g`, looked up by `g.shape()`: each shape is
        searched once on this instance.  A new label is registered to `g`."""
        code = _RibbonShapes.code if isinstance(g, RibbonGraph) else _GraphShapes.code
        return self._label_shape(g.shape(), code, lambda: g)

    def _label_shape(self, shape: Shape, code: Callable[[Shape], str], build: Callable[[], GraphLike]) -> str:
        """The label `code(shape)`, searched once per shape; `build()` makes
        the graph that `graph_of` returns, only for a label not yet
        registered."""
        lbl = self._shape_labels.get(shape)
        if lbl is None:
            lbl = self._shape_labels[shape] = code(shape)
            if lbl not in self._graphs:
                self._graphs[lbl] = build()
        return lbl

    def graph_of(self, label: str) -> GraphLike:
        try:
            return self._graphs[label]
        except KeyError:
            raise KeyError(f"label {label!r} was never registered") from None

    def grading_label(self, label: str) -> int:
        return underlying(self.graph_of(label)).nullity()

    def grading_monomial(self, mono: Mono) -> int:
        return sum(self.grading_label(l) for l in mono)

    @staticmethod
    def grading(g: GraphLike) -> int:
        """Loop-number grading: the nullity."""
        return underlying(g).nullity()

    # -- divergent subgraphs ---------------------------------------------------

    def divergent_members(self, g: GraphLike) -> list[EdgeSubset]:
        """Connected 1PI proper subgraphs that are divergent under the model,
        in (size, sorted ids) order.

        A depth-first walk adds edges in a fixed order, so each subset extends
        the one without its last edge: its vertex mask, the mask of vertices
        that carry two or more of its half-edges (a self-loop gives two) and
        its degree sum each follow in O(1).  Two filters read them before the
        bridge test: the 2 or 4 leg count (phi4, gw: the degree sum minus
        twice the size), and the necessary condition that every vertex of a
        bridgeless subgraph carries two of its half-edges.  A vertex short of
        two that no later edge touches stays short, so the walk leaves that
        branch; edges go in breadth-first order of their later end, so
        vertices run out of edges early.  Self-loops are never added when
        tadpoles are excluded.
        """
        if self.model == "gw" and not isinstance(g, RibbonGraph):
            raise ValueError("the gw model is defined on ribbon graphs")
        base = underlying(g)
        n = len(base.vertices)
        index = {v: i for i, v in enumerate(base.vertices)}
        deg = [0] * n
        for e in base.edges:
            deg[index[e.tail]] += 1
            deg[index[e.head]] += 1
        for l in base.legs:
            deg[index[l.vertex]] += 1
        edges = [e for e in base.edges if self.include_tadpoles or not e.is_loop]
        ends = [(index[e.tail], index[e.head]) for e in edges]
        rank = _bfs_rank(n, ends)
        order = sorted(range(len(edges)), key=lambda i: sorted((rank[x] for x in ends[i]), reverse=True))
        edges = [edges[i] for i in order]
        ends = [ends[i] for i in order]
        # untouched[j]: the vertices no edge from walk position j on touches
        untouched = [0] * (len(edges) + 1)
        untouched[-1] = (1 << n) - 1
        for j in range(len(edges) - 1, -1, -1):
            a, b = ends[j]
            untouched[j] = untouched[j + 1] & ~(1 << a) & ~(1 << b)
        count_legs = self.model != "core"
        proper = len(base.edges)
        combo: list[int] = []
        out: list[EdgeSubset] = []

        def walk(start: int, verts: int, twice: int, degsum: int) -> None:
            for j in range(start, len(edges)):
                if verts & ~twice & untouched[j]:
                    return
                a, b = ends[j]
                bit_a, bit_b = 1 << a, 1 << b
                now_verts = verts | bit_a | bit_b
                now_twice = twice | (verts & (bit_a | bit_b)) | (bit_a & bit_b)
                now_deg = degsum
                if not verts & bit_a:
                    now_deg += deg[a]
                if a != b and not verts & bit_b:
                    now_deg += deg[b]
                combo.append(j)
                r = len(combo)
                if (
                    now_twice == now_verts
                    and r < proper
                    and (not count_legs or now_deg - 2 * r in (2, 4))
                    and bridgeless_connected({v for c in combo for v in ends[c]}, [ends[c] for c in combo])
                ):
                    member = frozenset(edges[c].id for c in combo)
                    if self.model != "gw" or member_graph(g, member).is_planar_regular():
                        out.append(member)
                walk(j + 1, now_verts, now_twice, now_deg)
                combo.pop()

        walk(0, 0, 0, 0)
        out.sort(key=lambda m: (len(m), sorted(m)))
        return out

    def families(self, g: GraphLike) -> list[tuple[EdgeSubset, ...]]:
        """Nonempty sets of pairwise vertex-disjoint divergent subgraphs."""
        members = self.divergent_members(g)
        if not self.products:
            return [(m,) for m in members]
        ends = underlying(g)._ends
        vmasks = [_vertex_mask(ends, m) for m in members]
        out: list[tuple[EdgeSubset, ...]] = []

        def grow(start: int, chosen: list[EdgeSubset], used: int):
            for i in range(start, len(members)):
                if vmasks[i] & used:
                    continue
                picked = chosen + [members[i]]
                out.append(tuple(picked))
                grow(i + 1, picked, used | vmasks[i])

        grow(0, [], 0)
        return out

    def zimmermann_forests(self, g: GraphLike) -> list[tuple[EdgeSubset, ...]]:
        """All sets of divergent subgraphs that are pairwise nested or disjoint."""
        members = self.divergent_members(g)
        ends = underlying(g)._ends
        vmasks = {m: _vertex_mask(ends, m) for m in members}

        def compatible(a: EdgeSubset, b: EdgeSubset) -> bool:
            return not vmasks[a] & vmasks[b] or a < b or b < a

        out: list[tuple[EdgeSubset, ...]] = [()]

        def grow(start: int, chosen: list[EdgeSubset]):
            for i in range(start, len(members)):
                m = members[i]
                if all(compatible(m, c) for c in chosen):
                    picked = chosen + [m]
                    out.append(tuple(picked))
                    grow(i + 1, picked)

        grow(0, [])
        return out

    # -- coproduct, counit, antipode ----------------------------------------------

    def _splits(self, g: GraphLike, lbl: str) -> list[tuple[Mono, str]]:
        """(labels of the members, label of the cograph) for every family.

        Kept per label of `g`, since isomorphic graphs have the same splits.
        Each member and cograph is labelled by its shape, read off the
        host's index (`_GraphShapes`, `_RibbonShapes`); `member_graph` or
        `cograph` runs only for a label not yet registered.
        """
        if lbl not in self._split_cache:
            families = self.families(g)
            shapes = _RibbonShapes(g) if isinstance(g, RibbonGraph) else _GraphShapes(g)
            code = shapes.code
            # every member is also a family on its own: label each member once
            member_label = {
                fam[0]: self._label_shape(shapes.member(fam[0]), code, lambda m=fam[0]: member_graph(g, m))
                for fam in families
                if len(fam) == 1
            }
            self._split_cache[lbl] = [
                (
                    tuple(sorted(member_label[m] for m in fam)),
                    self._label_shape(shapes.cograph(fam), code, lambda fam=fam: cograph(g, fam)),
                )
                for fam in families
            ]
        return self._split_cache[lbl]

    def coproduct(self, g: GraphLike) -> TensorSum:
        if not underlying(g).is_one_pi():
            raise ValueError("coproduct requires a 1PI graph")
        return self._coproduct_label(self.label(g))

    def _coproduct_label(self, lbl: str) -> TensorSum:
        cached = self._coproducts.get(lbl)
        if cached is not None:
            return cached
        total = TensorSum.sum(
            itertools.chain(
                (TensorSum.tensor((lbl,), ()), TensorSum.tensor((), (lbl,))),
                (TensorSum.tensor(mono, (co,)) for mono, co in self._splits(self.graph_of(lbl), lbl)),
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
                    for mono, co in self._splits(self.graph_of(lbl), lbl)
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

    def twisted_antipode(self, g: GraphLike) -> FormalAmplitude:
        return self._phi_minus_label(self.label(g))

    def _phi_minus_label(self, lbl: str) -> FormalAmplitude:
        cached = self._phi_minus.get(lbl)
        if cached is not None:
            return cached
        result = -(self._rbar(self.graph_of(lbl), lbl).project())
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
        return self._rbar(g, self.label(g))

    def _rbar(self, g: GraphLike, lbl: str) -> FormalAmplitude:
        return FormalAmplitude.sum(
            itertools.chain(
                (FormalAmplitude.phi(lbl),),
                (
                    self.twisted_antipode_monomial(mono) * FormalAmplitude.phi(co)
                    for mono, co in self._splits(g, lbl)
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
