"""Ribbon graphs: multigraphs with a rotation system.

A rotation system assigns to each vertex the cyclic order of the half-edges
incident to it: two half-edges per internal edge, one per external leg.
Half-edge tokens are pairs: (edge_id, "t") / (edge_id, "h") for the tail and
head ends of an internal edge, (leg_id, "x") for an external leg.

`HalfEdges` is the one integer index of a rotation system: half-edge
numbers, mates, rotation links, vertex positions and edge ends and bits.
Face tracing, `subset_faces`, the shape, `RotationState` and the Hopf host
index all read it.

Faces are traced with the next-half-edge map: from an internal half-edge,
follow the edge to its partner half-edge, then walk forward in that vertex's
rotation; legs encountered on the way are recorded as face markers but do
not connect faces.  A vertex whose induced rotation carries no internal
half-edge contributes one face of its own.  The one walk runs on edge
subsets as bitmasks and on half-edge numbers (`HalfEdges.trace`), and gives
each face as the half-edges it walks; `faces` and `face_count` turn id sets
into masks, and `faces` turns the walks into `Face`s of tokens.  The Hopf
layer reads the same walks for a member's broken faces.

Corner rule.  Corner h is the gap after half-edge h in its vertex's
rotation, and prev is the inverse of the next-half-edge map.  Between two
edges a face of (V, H) crosses one vertex, through the gaps from one kept
half-edge to the next: a half-edge h that H leaves out (a leg, or an edge
not in H) joins corner prev[h] to corner h.  Along an edge of H with
half-edges h and h', each side of the ribbon leads from the corner before
one end to the corner after the other: it joins prev[h] to h' and prev[h']
to h.  So the faces of H are the classes of corners under these joins; a
vertex with no half-edge of H is one class, its corners all joined, and F(H)
is the number of classes plus the number of vertices with no half-edge at
all.  `RibbonGraph.subset_faces` keeps the classes in a union-find whose
joins are undone, so it counts faces for every subset in one walk.

Euler size rule.  A connected spanning sub-ribbon-graph H of an orientable
ribbon graph has V - |H| + F = 2 - 2g, so |H| = V - 2 + F + 2g with g >= 0.
Of the connected spanning subsets, only those of sizes V - 2 + F, V + F,
V + 2 + F, ... can be quasi-trees (F = 1) or two-quasi-trees (F = 2).

Deletion/contraction.  `rotation_leaves` walks the one edge-at-a-time
tree that the Bollobas-Riordan polynomial and Moyal U* share: for the
first non-loop edge e by id, R = R(G/e) + R(G-e) and U* = U*(G/e) +
alpha_e U*(G-e) when e is not a bridge, and R = x R(G/e) and U* = U*(G/e)
when it is, at any step (Bollobas & Riordan, Math. Ann. 323 (2002);
Krajewski, Rivasseau, Tanasa & Wang, arXiv:0811.0186).  Its leaves hold
only loops, whose faces `chord_faces` counts.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Mapping, Sequence

from .graphs import Edge, EdgeSubset, Graph, Leg, graph_from_json_dict, mask_edges

Token = tuple[str, str]  # (edge_id, "t"|"h") or (leg_id, "x")


def is_leg_token(tok: Token) -> bool:
    return tok[1] == "x"


def partner(tok: Token) -> Token:
    if tok[1] == "t":
        return (tok[0], "h")
    if tok[1] == "h":
        return (tok[0], "t")
    raise ValueError(f"leg token {tok} has no partner")


def token_str(tok: Token) -> str:
    return tok[0] if tok[1] == "x" else f"{tok[0]}.{tok[1]}"


@dataclass(frozen=True)
class Face:
    """One boundary component: its token cycle and an anchor vertex."""

    cycle: tuple[Token, ...]
    vertex: str

    def leg_ids(self) -> tuple[str, ...]:
        return tuple([t[0] for t in self.cycle if t[1] == "x"])

    @property
    def broken(self) -> bool:
        return any(is_leg_token(t) for t in self.cycle)


@dataclass(frozen=True)
class TwoQuasiTree:
    edges: EdgeSubset
    faces: tuple[Face, Face]


class RibbonGraph:
    """Immutable graph plus rotation system."""

    __slots__ = ("graph", "rotation", "_index")

    def __init__(self, graph: Graph, rotation: Mapping[str, Sequence[Token]]):
        rot = {v: tuple(seq) for v, seq in rotation.items()}
        if set(rot) != set(graph.vertices):
            raise ValueError("rotation must cover exactly the vertex set")
        expected: dict[Token, str] = {}
        for e in graph.edges:
            expected[(e.id, "t")] = e.tail
            expected[(e.id, "h")] = e.head
        for l in graph.legs:
            expected[(l.id, "x")] = l.vertex
        seen: set[Token] = set()
        for v, seq in rot.items():
            for tok in seq:
                if tok not in expected:
                    raise ValueError(f"unknown half-edge {token_str(tok)} at {v}")
                if expected[tok] != v:
                    raise ValueError(f"half-edge {token_str(tok)} listed at wrong vertex {v}")
                if tok in seen:
                    raise ValueError(f"half-edge {token_str(tok)} appears twice")
                seen.add(tok)
        if seen != set(expected):
            missing = sorted(token_str(t) for t in set(expected) - seen)
            raise ValueError(f"rotation misses half-edges: {missing}")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "_index", None)

    def __setattr__(self, name, value):
        raise AttributeError("RibbonGraph is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, RibbonGraph):
            return NotImplemented
        if self.graph != other.graph:
            return False
        # rotations compared as cyclic sequences
        for v in self.graph.vertices:
            if not _cyclic_equal(self.rotation[v], other.rotation[v]):
                return False
        return True

    def __hash__(self) -> int:
        # equal ribbon graphs have equal underlying graphs, whatever the rotation starts
        return hash(self.graph)

    def __repr__(self) -> str:
        g = self.graph
        return f"RibbonGraph(V={len(g.vertices)}, E={len(g.edges)}, legs={len(g.legs)})"

    # -- convenience passthroughs ------------------------------------------

    def underlying(self) -> Graph:
        return self.graph

    @property
    def vertices(self):
        return self.graph.vertices

    @property
    def edges(self):
        return self.graph.edges

    @property
    def legs(self):
        return self.graph.legs

    def all_edges(self) -> EdgeSubset:
        return self.graph.all_edges()

    # -- face tracing ----------------------------------------------------------

    def half_edges(self) -> HalfEdges:
        """The half-edge index, built on first use: the half-edges numbered
        vertex by vertex in rotation order, the edges in `edge_ids` order."""
        index = self._index
        if index is None:
            vertices, rotation, ids = self.graph.vertices, self.rotation, self.graph.edge_ids()
            token = [t for v in vertices for t in rotation[v]]
            at = {t: h for h, t in enumerate(token)}
            blocks = tuple(tuple(-1 if is_leg_token(t) else at[partner(t)] for t in rotation[v]) for v in vertices)
            index = HalfEdges(blocks, [at[e, "t"] for e in ids])
            index.token, index.vertices, index.ids = token, vertices, ids
            index.pos = {e: i for i, e in enumerate(ids)}
            object.__setattr__(self, "_index", index)
        return index

    def faces(self, subset: Iterable[str] | None = None) -> list[Face]:
        """Boundary components of the spanning sub-ribbon-graph (V, subset)."""
        return self._mask_faces(self.half_edges().mask(subset))

    def _mask_faces(self, mask: int) -> list[Face]:
        """The faces of (V, the edges of `mask`): each walk of a recording
        `HalfEdges.trace` as a `Face`, whose cycle holds the tokens of the
        walk's legs and half-edges of the mask, at the walk's vertex."""
        index = self.half_edges()
        token, vertices, bit, mate = index.token, index.vertices, index.bit, index.mate
        return [
            Face(tuple([token[h] for h in walk if bit[h] & mask or mate[h] < 0]), vertices[v])
            for v, walk in index.trace(mask, True)
        ]

    def face_count(self, subset: Iterable[str] | None = None) -> int:
        """The number of faces of (V, subset), from a count-mode
        `HalfEdges.trace`, which records no face."""
        index = self.half_edges()
        return index.trace(index.mask(subset), False)[0]

    def genus(self, subset: Iterable[str] | None = None) -> int:
        """Total genus, per connected component via V - E + F = 2 - 2g."""
        sub = self.all_edges() if subset is None else frozenset(subset)
        comps = self.graph.component_vertex_sets(sub)
        faces = self.faces(sub)
        total = 0
        for comp in comps:
            v_c = len(comp)
            e_c = sum(1 for eid in sub if self.graph.edge(eid).tail in comp)
            f_c = sum(1 for f in faces if f.vertex in comp)
            euler = v_c - e_c + f_c
            if euler % 2 != 0 or euler > 2:
                raise AssertionError(f"bad Euler characteristic {euler}")
            total += (2 - euler) // 2
        return total

    def broken_faces(self) -> int:
        return sum(1 for f in self.faces() if f.broken)

    def is_planar_regular(self) -> bool:
        return self.genus() == 0 and self.broken_faces() == 1

    def face_boundary_order(self, face: Face) -> list[tuple[str, int]]:
        """Legs along the face with incidence signs (+1 in, -1 out).

        The cyclic list is rotated to start at the smallest leg id; any
        cyclic rotation represents the same boundary order.
        """
        legs = list(face.leg_ids())
        if not legs:
            return []
        start = legs.index(min(legs))
        ordered = legs[start:] + legs[:start]
        return [(lid, self.graph.leg(lid).sign) for lid in ordered]

    # -- surgery -------------------------------------------------------------

    def ribbon_delete(self, edge_id: str) -> RibbonGraph:
        self.graph.edge(edge_id)
        rot = {
            v: tuple(t for t in seq if is_leg_token(t) or t[0] != edge_id)
            for v, seq in self.rotation.items()
        }
        return RibbonGraph(self.graph.delete_edge(edge_id), rot)

    def ribbon_contract(self, edge_id: str) -> RibbonGraph:
        """Contract a non-loop edge, splicing the two rotations."""
        e = self.graph.edge(edge_id)
        if e.is_loop:
            raise ValueError("ribbon contraction of a self-loop is not defined")
        seq_t = self.rotation[e.tail]
        seq_h = self.rotation[e.head]
        i = seq_t.index((edge_id, "t"))
        j = seq_h.index((edge_id, "h"))
        spliced = seq_t[:i] + seq_h[j + 1 :] + seq_h[:j] + seq_t[i + 1 :]
        merged = min(e.tail, e.head)
        rot = {v: seq for v, seq in self.rotation.items() if v not in (e.tail, e.head)}
        rot[merged] = spliced
        return RibbonGraph(self.graph.contract_edge(edge_id), rot)

    def reorient(self, edge_ids: Iterable[str]) -> RibbonGraph:
        """Flip edge orientations, keeping the embedding identical."""
        flip = set(edge_ids)

        def swap(tok: Token) -> Token:
            if tok[1] != "x" and tok[0] in flip:
                return (tok[0], "h" if tok[1] == "t" else "t")
            return tok

        rot = {v: tuple(swap(t) for t in seq) for v, seq in self.rotation.items()}
        return RibbonGraph(self.graph.reorient(flip), rot)

    # -- quasi-trees -----------------------------------------------------------

    def quasi_trees(self) -> list[EdgeSubset]:
        """Spanning connected sub-ribbon-graphs with exactly one face."""
        if not self.graph.is_connected():
            raise ValueError("quasi_trees requires a connected ribbon graph")
        ids = self.graph.edge_ids()
        return [mask_edges(ids, mask) for mask, _ in self._connected_with_faces(1)]

    def two_quasi_trees(self) -> list[TwoQuasiTree]:
        """Spanning connected sub-ribbon-graphs with exactly two faces."""
        if not self.graph.is_connected():
            raise ValueError("two_quasi_trees requires a connected ribbon graph")
        ids = self.graph.edge_ids()
        out = []
        for mask, _ in self._connected_with_faces(2):
            first, second = self._mask_faces(mask)
            out.append(TwoQuasiTree(mask_edges(ids, mask), (first, second)))
        return out

    def _connected_with_faces(self, n_faces: int, legs: bool = False) -> Iterator[tuple[int, tuple[int, ...] | None]]:
        """The connected spanning edge subsets with `n_faces` (1 or 2)
        faces, as masks in `Graph.edge_walk` order, each with the leg
        half-edges of its first face (those of `faces(...)[0].leg_ids()`, in
        `half_edges` numbering) or None.

        Each candidate gets one count-mode `HalfEdges.trace`, which notes the
        first face's legs as it counts, and only at the sizes V - 2 +
        n_faces + 2g (the Euler size rule of the module docstring).  Above
        the smallest size it stops at n_faces + 1 faces, enough to reject.
        At the smallest size no face needs counting: there a connected H has
        n_faces - 2g(H) >= 1 faces, so g(H) = 0.  There the trace walks the
        first face only, and only when `legs` asks for its legs; otherwise
        None stands in for them.
        """
        trace = self.half_edges().trace
        low = len(self.vertices) - 2 + n_faces
        for mask, _ in self.graph.edge_walk(1):
            size = mask.bit_count()
            if (size - low) & 1:
                continue
            if size == low:
                yield mask, trace(mask, False, 1)[1] if legs else None
            else:
                count, first = trace(mask, False, n_faces + 1)
                if count == n_faces:
                    yield mask, first

    # -- every subset with its faces ---------------------------------------------

    def subset_faces(self) -> Iterator[tuple[int, int, int]]:
        """Every edge subset H as (bitmask, k(H), F(H)): its component and
        face counts, edge i being `edge_ids()[i]` and bit i of the mask.

        One depth-first decision walk over the edges in id order, edge in
        before edge out, so each subset is one leaf.  Two union-finds, with
        union by size and no path compression, follow the decisions: one on
        the vertices, joining an edge's ends when it goes in, and one on the
        corners by the corner rule of the module docstring.  Each decision's
        joins are undone when the walk backs out of it.  Both children of
        the last edge are read off its four corner roots and two vertex
        roots, without a join.
        """
        index = self.half_edges()
        mate, prev, start, ends = index.mate, index.prev, index.start, index.ends
        n = len(self.vertices)
        # an edge in joins the corners (prev[t], h) and (prev[h], t); out, (prev[t], t) and (prev[h], h)
        joins_in = [(prev[t], h, prev[h], t) for t, h in zip(index.tail, index.head)]
        joins_out = [(prev[t], t, prev[h], h) for t, h in zip(index.tail, index.head)]

        vparent, vsize = list(range(n)), [1] * n
        cparent, csize = list(range(len(mate))), [1] * len(mate)

        def join(parent: list[int], size: list[int], a: int, b: int) -> int:
            """Link the roots of a and b; the root linked under the other, or -1."""
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a == b:
                return -1
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            size[a] += size[b]
            return b

        # F: the corner components, plus the vertices with no half-edge
        faces = len(mate) + sum(1 for i in range(n) if start[i] == start[i + 1])
        for h, m in enumerate(mate):
            if m < 0:  # a leg
                faces -= join(cparent, csize, prev[h], h) >= 0
        n_edges = len(ends)
        if not n_edges:
            yield 0, n, faces
            return

        k, mask, d, last = n, 0, 0, n_edges - 1
        linked = [(-1, -1, -1)] * n_edges  # the vertex root and corner roots linked at each depth
        while True:
            while d < last:  # take edge d in
                u, w = ends[d]
                b = join(vparent, vsize, u, w)
                k -= b >= 0
                p, q, r, s = joins_in[d]
                c1 = join(cparent, csize, p, q)
                c2 = join(cparent, csize, r, s)
                faces -= (c1 >= 0) + (c2 >= 0)
                linked[d] = (b, c1, c2)
                mask |= 1 << d
                d += 1
            # the last edge: roots a, b, r, s of prev[t], t, prev[h], h
            a, b, r, s = joins_out[d]
            while cparent[a] != a:
                a = cparent[a]
            while cparent[b] != b:
                b = cparent[b]
            while cparent[r] != r:
                r = cparent[r]
            while cparent[s] != s:
                s = cparent[s]
            u, w = ends[d]
            while vparent[u] != u:
                u = vparent[u]
            while vparent[w] != w:
                w = vparent[w]
            # in: a-s, then r-b, with s renamed a once joined
            if a == s:
                yield mask | 1 << d, k - (u != w), faces - (r != b)
            else:
                yield mask | 1 << d, k - (u != w), faces - 1 - ((a if r == s else r) != (a if b == s else b))
            # out: a-b, then r-s, with b renamed a once joined
            if a == b:
                yield mask, k, faces - (r != s)
            else:
                yield mask, k, faces - 1 - ((a if r == b else r) != (a if s == b else s))
            while True:  # back out of the decisions taken
                d -= 1
                if d < 0:
                    return
                b, c1, c2 = linked[d]
                for c in (c2, c1):
                    if c >= 0:
                        csize[cparent[c]] -= csize[c]
                        cparent[c] = c
                        faces += 1
                if b >= 0:
                    vsize[vparent[b]] -= vsize[b]
                    vparent[b] = b
                    k += 1
                if mask >> d & 1:  # take edge d out instead
                    mask ^= 1 << d
                    p, q, r, s = joins_out[d]
                    c1 = join(cparent, csize, p, q)
                    c2 = join(cparent, csize, r, s)
                    faces -= (c1 >= 0) + (c2 >= 0)
                    linked[d] = (-1, c1, c2)
                    d += 1
                    break

    # -- canonical form -----------------------------------------------------------

    def shape(self) -> tuple[tuple[int, ...], ...]:
        """What the canonical form reads: one block per vertex, in vertex
        order, holding for each half-edge of its rotation the flat position
        (in `HalfEdges` numbering) of its mate, -1 for a leg."""
        return self.half_edges().blocks

    def canonical_form(self) -> str:
        """Isomorphism-class key including the rotation system (orientation
        and ids ignored): `rotation_code` of `shape()`."""
        return rotation_code(self.shape())

    # -- JSON fixture format --------------------------------------------------------

    def to_json_dict(self) -> dict:
        d = self.graph.to_json_dict()
        d["type"] = "ribbon"
        d["rotation"] = {
            v: [token_str(t) for t in seq] for v, seq in sorted(self.rotation.items())
        }
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False) + "\n"


def rotation_code(blocks: Sequence[Sequence[int]]) -> str:
    """The canonical form of the ribbon graph whose vertex blocks are
    `blocks` (`RibbonGraph.shape`): block i lists, in rotation order, the
    flat position of each half-edge's mate (-1 for a leg), half-edges being
    numbered block after block.

    A layout puts the vertices in blocks, class by class in the order of
    their (rotation length, self-loops, legs) signatures, each block being
    the vertex's rotation read from some starting half-edge.  The key is the
    least code list over every layout, the code of a half-edge being the
    flat position of its partner in the layout (-1 for a leg).

    It is found by forced placement.  Every block of a class has the same
    length, so each block's flat offset is fixed before any choice is made.
    The scan reads the flat positions in order; at position p, with h the
    half-edge there and q its mate, every entry before p is already fixed.
    If q lies at a vertex u not placed yet, u goes to the first free block
    of its class, read starting from q.  That gives entry p the block's
    offset + 0, and any other completion gives it more: another start adds
    i >= 1, and a later block starts at least one block length further on.
    So no least key is lost, each entry is exact once it is scanned, and the
    blocks of a class fill in order.  Only when the scan reaches a block
    that is still empty (the first block of each component) does it branch,
    over each unplaced vertex of that block's class and each start.  The
    branches go on an explicit stack, and one is dropped once its fixed
    prefix is greater than the best key.
    """
    sizes = [len(block) for block in blocks]
    mate = [q for block in blocks for q in block]
    vertex = [v for v, n in enumerate(sizes) for _ in range(n)]
    first = list(accumulate(sizes, initial=0))  # block v holds half-edges first[v] .. first[v + 1] - 1
    loops = [sum(first[v] <= q < first[v] + i for i, q in enumerate(block)) for v, block in enumerate(blocks)]
    sig = [(n, loops[v], blocks[v].count(-1)) for v, n in enumerate(sizes)]
    by_sig = sorted(range(len(blocks)), key=sig.__getitem__)
    offset: list[int] = []  # per block position, its flat offset
    owner: list[tuple] = []  # per flat position, its block's class
    members: dict[tuple, list[int]] = {}  # per class, its vertices
    free: dict[tuple, int] = {}  # per class, its first free block position
    for k, v in enumerate(by_sig):
        offset.append(len(owner))
        owner += [sig[v]] * sizes[v]
        members.setdefault(sig[v], []).append(v)
        free.setdefault(sig[v], k)

    def place(u: int, s: int, at: list[int], flat: list[int], free: dict) -> None:
        """Vertex u in the first free block of its class, read from half-edge s."""
        lo, n, base = first[u], sizes[u], offset[free[sig[u]]]
        free[sig[u]] += 1
        for i in range(n):
            t = lo + (s - lo + i) % n
            at[t] = base + i
            flat[base + i] = t

    best = [len(mate)] * len(mate)  # greater than every code
    stack = [(0, [-1] * len(mate), [-1] * len(mate), free, [])]
    while stack:
        p, at, flat, free, code = stack.pop()
        if code > best[:p]:
            continue
        tight = code == best[:p]
        while p < len(mate):
            if flat[p] < 0:  # an empty block: branch over its class
                for u in reversed(members[owner[p]]):
                    if at[first[u]] < 0:
                        for s in reversed(range(first[u], first[u + 1])):
                            state = at[:], flat[:], dict(free)
                            place(u, s, *state)
                            stack.append((p, *state, code[:]))
                break
            q = mate[flat[p]]
            if q >= 0 and at[q] < 0:
                place(vertex[q], q, at, flat, free)
            c = at[q] if q >= 0 else -1
            if tight and c > best[p]:
                break
            tight = tight and c == best[p]
            code.append(c)
            p += 1
        else:
            best = code
    return f"R{'/'.join(str(sizes[v]) for v in by_sig)}|{','.join(map(str, best))}"


class HalfEdges:
    """The integer index of a rotation system: its half-edges as integers
    0..H-1, numbered block by block, and the edges they pair into.

    It is built from shape blocks (`RibbonGraph.shape`: block i lists, in
    rotation order, the number of each half-edge's mate at the i-th vertex,
    -1 for a leg) and the tail half-edge of each edge.  `mate[h]` is the
    other end of h's edge (-1 for a leg), `vert[h]` h's vertex position,
    `nxt[h]` the half-edge after h in its vertex's rotation (cyclically) and
    `prev` its inverse; the half-edges of the i-th vertex are start[i] ..
    start[i+1]-1.  Edge k has the half-edges `tail[k]` and `head[k]` and the
    end positions `ends[k]`.  An edge subset is a bitmask over the edges:
    `bit[h]` is the bit of h's edge (0 for a leg) and `vmask[i]` the union
    of the bits at the i-th vertex.

    `RibbonGraph.half_edges` numbers the edges in `edge_ids` order, as the
    bits of a `Graph.edge_walk` mask, and adds the names: `token[h]`, `ids`,
    the `vertices` and `pos`, each edge id's number.  `trace` reads no name,
    so an index of a shape alone traces faces too.
    """

    __slots__ = (
        "blocks", "start", "mate", "nxt", "prev", "vert", "tail", "head", "bit", "vmask", "ends",
        "token", "vertices", "ids", "pos",
    )

    def __init__(self, blocks: Sequence[Sequence[int]], tail: Sequence[int]):
        self.blocks = blocks
        self.start = start = list(accumulate(map(len, blocks), initial=0))
        self.mate = mate = [q for block in blocks for q in block]
        self.vert = vert = [i for i, block in enumerate(blocks) for _ in block]
        self.nxt = [lo + (i + 1) % (hi - lo) for lo, hi in zip(start, start[1:]) for i in range(hi - lo)]
        self.prev = [lo + (i - 1) % (hi - lo) for lo, hi in zip(start, start[1:]) for i in range(hi - lo)]
        self.tail = list(tail)
        self.head = [mate[t] for t in self.tail]
        self.ends = [(vert[t], vert[h]) for t, h in zip(self.tail, self.head)]
        self.bit = [0] * len(mate)
        self.vmask = [0] * len(blocks)
        for k, (t, h) in enumerate(zip(self.tail, self.head)):
            self.bit[t] = self.bit[h] = 1 << k
            self.vmask[vert[t]] |= 1 << k
            self.vmask[vert[h]] |= 1 << k

    @staticmethod
    def of_shape(blocks: Sequence[Sequence[int]]) -> HalfEdges:
        """The index of a shape alone, each edge numbered by, and running
        from, its first half-edge."""
        return HalfEdges(blocks, [h for h, q in enumerate(q for block in blocks for q in block) if h < q])

    def mask(self, subset: Iterable[str] | None) -> int:
        """The bitmask of an edge-id subset (every edge when None)."""
        if subset is None:
            return (1 << len(self.pos)) - 1
        pos = self.pos
        try:
            return sum(1 << pos[e] for e in set(subset))
        except KeyError as exc:
            raise KeyError(f"unknown edge id {exc.args[0]!r}") from None

    def trace(self, mask: int, record: bool, most: int = -1) -> list[tuple[int, list[int]]] | tuple[int, tuple[int, ...]]:
        """The faces of (V, the edges of `mask`, which holds only edge bits)
        as walks, or with `record` false their number and the leg half-edges
        of the first face.  With `most` positive the walk stops after `most`
        faces: it gives the first `most` walks, or min(F, most) and the same
        legs.

        A walk is (vertex position, the half-edges it walks in order): those
        of the mask and the ones it passes, legs and the ends of edges
        outside the mask, so every half-edge is in exactly one walk.  A face
        starts at each untraced half-edge of the mask in number order, at
        its vertex, until all 2|mask| of them are traced.  From the mate of
        its last half-edge the walk goes forward through that vertex's
        rotation, passing the half-edges h with `bit[h] & mask` zero, to the
        next one it keeps.  A vertex with no half-edge of the mask is a face
        of its own, after those, walking its rotation.  So the first face,
        whose passed half-edges the count mode notes, is the face of the
        lowest half-edge of the mask, or with no edge that of the first
        vertex (no legs when there is no vertex).
        """
        bit, mate, nxt = self.bit, self.mate, self.nxt
        seen = bytearray(len(bit))
        walks: list[tuple[int, list[int]]] = []
        passed: Sequence[int] = []  # in count mode, the half-edges the first face passes
        count = 0
        left = 2 * mask.bit_count()
        first = -1
        while left and count != most:
            first += 1
            if not bit[first] & mask or seen[first]:
                continue
            count += 1
            note = record or count == 1
            walk = [] if record else passed
            cur = first
            while True:
                seen[cur] = 1
                left -= 1
                if record:
                    walk.append(cur)
                step = nxt[mate[cur]]
                while not bit[step] & mask:
                    if note:
                        walk.append(step)
                    step = nxt[step]
                cur = step
                if cur == first:
                    break
            if record:
                walks.append((self.vert[first], walk))
        start = self.start
        for i, vm in enumerate(self.vmask):
            if count == most:
                break
            if vm & mask:
                continue
            count += 1
            if record:
                walks.append((i, list(range(start[i], start[i + 1]))))
            elif count == 1:
                passed = range(start[i], start[i + 1])
        if record:
            return walks
        return count, tuple([h for h in passed if mate[h] < 0])


class RotationState:
    """The integer state of the ribbon deletion/contraction walk
    (`rotation_leaves`), which contracts one state in place and keeps a
    `copy` per pending deletion.

    It is read off `HalfEdges`, with the legs dropped: they carry no face in
    U* or in the Bollobas-Riordan polynomial.  `nxt`/`prv` link the
    remaining half-edges of each vertex cyclically in rotation order,
    `mate[h]` is the other end of h's edge and `vert[h]` a label of h's
    vertex.  Edges are numbered in id order: edge k has id `ids[k]` and the
    half-edges `tail[k]` and `head[k]`, and `edges` lists the remaining
    ones.  `copy` shares everything that surgery does not change.
    """

    __slots__ = ("nxt", "prv", "mate", "vert", "ids", "tail", "head", "edges")

    def __init__(self, rg: RibbonGraph):
        index = rg.half_edges()
        self.nxt, self.prv, self.vert = index.nxt[:], index.prev[:], index.vert[:]
        self.mate, self.ids, self.tail, self.head = index.mate, index.ids, index.tail, index.head
        for h, m in enumerate(self.mate):
            if m < 0:
                self._splice(h)
        self.edges = list(range(len(self.ids)))

    def copy(self) -> RotationState:
        other = object.__new__(RotationState)
        other.nxt, other.prv, other.vert, other.edges = self.nxt[:], self.prv[:], self.vert[:], self.edges[:]
        other.mate, other.ids, other.tail, other.head = self.mate, self.ids, self.tail, self.head
        return other

    def _splice(self, h: int) -> None:
        """Take half-edge h out of its vertex's cycle."""
        p, n = self.prv[h], self.nxt[h]
        self.nxt[p] = n
        self.prv[n] = p

    def delete(self, k: int) -> None:
        """Delete edge k: splice both its half-edges out of their cycles."""
        self._splice(self.tail[k])
        self._splice(self.head[k])
        self.edges.remove(k)

    def contract(self, k: int) -> None:
        """Contract the non-loop edge k as `RibbonGraph.ribbon_contract` does.

        With t the tail and h the head half-edge, the merged rotation runs
        from the successor of t round to t's predecessor, then from the
        successor of h round to h's predecessor: with t and h removed, the
        successors of their former predecessors are swapped.  A vertex that
        held only t or only h leaves the other rotation less one half-edge.
        """
        nxt, prv, vert = self.nxt, self.prv, self.vert
        t, h = self.tail[k], self.head[k]
        pt, nt, ph, nh = prv[t], nxt[t], prv[h], nxt[h]
        if pt == t:
            self._splice(h)
        elif ph == h:
            self._splice(t)
        else:
            keep = vert[t]
            x = nh
            while x != h:
                vert[x] = keep
                x = nxt[x]
            nxt[pt], prv[nh], nxt[ph], prv[nt] = nh, pt, nt, ph
        self.edges.remove(k)

    def is_bridge(self, k: int) -> bool:
        """Whether the other remaining edges leave the ends of the non-loop
        edge k apart: a depth-first search from its tail's vertex, walking
        each reached vertex's cycle, that stops at its head's vertex.  An
        edge with an end alone at its vertex is a bridge at once."""
        nxt, mate, vert = self.nxt, self.mate, self.vert
        t, h = self.tail[k], self.head[k]
        if nxt[t] == t or nxt[h] == h:
            return True
        goal = vert[h]
        seen = {vert[t]}
        stack = [t]
        while stack:
            first = x = stack.pop()
            while True:
                if x != t and x != h:
                    y = mate[x]
                    v = vert[y]
                    if v not in seen:
                        if v == goal:
                            return False
                        seen.add(v)
                        stack.append(y)
                x = nxt[x]
                if x == first:
                    break
        return True

    def loop_faces(self, loops: Sequence[int]) -> tuple[int, ...]:
        """The face counts of one vertex with some of its loops, by subset.

        `loops` are remaining loops at one vertex.  Entry `mask` of the
        result counts the faces of that vertex alone with the loops
        loops[i] for the bits i of mask.  Read from the tail of loops[0],
        the vertex's cycle restricted to these loops is a chord diagram, the
        sequence of their positions i in `loops`; the counts depend on
        nothing else and are those of `chord_faces`.
        """
        bit = {}
        for i, k in enumerate(loops):
            bit[self.tail[k]] = bit[self.head[k]] = i
        shape = []
        if loops:
            nxt = self.nxt
            first = x = self.tail[loops[0]]
            while True:
                i = bit.get(x)
                if i is not None:
                    shape.append(i)
                x = nxt[x]
                if x == first:
                    break
        return chord_faces(tuple(shape))


def rotation_leaves(rg: RibbonGraph) -> Iterator[tuple[RotationState, int, int]]:
    """The leaves of the deletion/contraction tree of a ribbon graph, walked
    without recursion on `RotationState`s.

    At each state the first non-loop edge e by id is contracted in place;
    unless e is a bridge, a copy with e deleted is first put on a list of
    pending states.  The remaining edges before that first non-loop are
    loops, and stay loops under surgery, so the scan for it never goes
    back.  Each leaf, where only loops remain, yields its state, the number
    of bridges contracted on its path and the bitmask (bit k for edge k) of
    the edges deleted on it.
    """
    pending = [(RotationState(rg), 0, 0, 0)]
    while pending:
        state, start, bridges, deleted = pending.pop()
        vert, tail, head, edges = state.vert, state.tail, state.head, state.edges
        while start < len(edges):
            k = edges[start]
            if vert[tail[k]] == vert[head[k]]:
                start += 1
                continue
            if state.is_bridge(k):
                bridges += 1
            else:
                other = state.copy()
                other.delete(k)
                pending.append((other, start, bridges, deleted | 1 << k))
            state.contract(k)
        yield state, bridges, deleted


@functools.lru_cache(maxsize=1024)
def chord_faces(shape: tuple[int, ...]) -> tuple[int, ...]:
    """Face counts of a one-vertex ribbon graph, by subset of its loops.

    `shape` is the vertex's rotation as the loop number (0..L-1) of each
    half-edge.  Entry `mask` counts the faces with the loops of the bits of
    mask: a count-only walk of p -> (the next kept half-edge after the other
    end of p's loop).  The empty subset has one face.  Cached per process,
    so the counts come as a tuple.
    """
    ends: dict[int, list[int]] = {}
    for p, i in enumerate(shape):
        ends.setdefault(i, []).append(p)
    opposite = [0] * len(shape)
    for p, q in ends.values():
        opposite[p], opposite[q] = q, p
    succ = [0] * len(shape)
    faces = [1] * (1 << len(ends))
    for mask in range(1, len(faces)):
        kept = [p for p, i in enumerate(shape) if mask >> i & 1]
        prev = kept[-1]
        for p in kept:
            succ[prev] = p
            prev = p
        count = 0
        seen = 0
        for p in kept:
            if not seen >> p & 1:
                count += 1
                while not seen >> p & 1:
                    seen |= 1 << p
                    p = succ[opposite[p]]
        faces[mask] = count
    return tuple(faces)


def _cyclic_equal(a: Sequence, b: Sequence) -> bool:
    if len(a) != len(b):
        return False
    if not a:
        return True
    bb = list(b) + list(b)
    la = list(a)
    return any(bb[i : i + len(la)] == la for i in range(len(b)))


def ribbon_from_json_dict(data: dict) -> RibbonGraph:
    """Parse the fixture format with type "ribbon" (rotation required)."""
    if data.get("type") != "ribbon":
        raise ValueError(f"expected type 'ribbon', got {data.get('type')!r}")
    if not isinstance(data.get("rotation"), dict):
        raise ValueError("ribbon fixture field 'rotation' must be an object")
    base = dict(data)
    base["type"] = "graph"
    graph = graph_from_json_dict(base)
    edge_ids = {e.id for e in graph.edges}
    leg_ids = {l.id for l in graph.legs}
    rotation: dict[str, list[Token]] = {}
    for v, toks in data["rotation"].items():
        if not isinstance(toks, list) or not all(isinstance(t, str) for t in toks):
            raise ValueError(f"ribbon fixture rotation of vertex {v!r} must be a list of strings")
        seq = []
        for txt in toks:
            if txt in leg_ids:
                seq.append((txt, "x"))
            elif txt.endswith(".t") and txt[:-2] in edge_ids:
                seq.append((txt[:-2], "t"))
            elif txt.endswith(".h") and txt[:-2] in edge_ids:
                seq.append((txt[:-2], "h"))
            else:
                raise ValueError(f"rotation token {txt!r} matches no half-edge")
        rotation[v] = seq
    return RibbonGraph(graph, rotation)


def load_fixture(path_or_data: str | dict) -> Graph | RibbonGraph:
    """Load a graph or ribbon fixture from a JSON file path or parsed dict."""
    if isinstance(path_or_data, dict):
        data = path_or_data
    else:
        with open(path_or_data, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"malformed JSON in {path_or_data}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("a fixture must be a JSON object")
    kind = data.get("type")
    if kind == "graph":
        if "rotation" in data:
            raise ValueError("field 'rotation' is only allowed for type 'ribbon'")
        return graph_from_json_dict(data)
    if kind == "ribbon":
        return ribbon_from_json_dict(data)
    raise ValueError(f"fixture field 'type' must be 'graph' or 'ribbon', got {kind!r}")
