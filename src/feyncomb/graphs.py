"""Multigraphs with oriented internal edges and external legs.

A Graph has named vertices, internal edges (self-loops and parallel edges
allowed, each oriented tail -> head) and external legs, each leg attached to
a single vertex with a direction "in" or "out".  Orientation is bookkeeping
for momentum routing; every polynomial built on top of this module is
independent of it.

External legs never count toward edge sets, rank, or nullity.  They matter
only for two-tree momentum assignment, broken faces, and face incidence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

EdgeSubset = frozenset[str]


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str

    @property
    def is_loop(self) -> bool:
        return self.tail == self.head


@dataclass(frozen=True)
class Leg:
    id: str
    vertex: str
    dir: str  # "in" | "out"

    @property
    def sign(self) -> int:
        return 1 if self.dir == "in" else -1


@dataclass(frozen=True)
class TwoTree:
    """A spanning two-component forest with its vertex/leg split.

    `parts` lists the two vertex sets; the part containing the smallest
    vertex id comes first.  `legs` lists, for each part, the leg ids
    attached to it (sorted).
    """

    edges: EdgeSubset
    parts: tuple[frozenset[str], frozenset[str]]
    legs: tuple[tuple[str, ...], tuple[str, ...]]


class Graph:
    """Immutable multigraph with external legs."""

    __slots__ = ("vertices", "edges", "legs", "_edge_by_id", "_leg_by_id", "_ends")

    def __init__(
        self,
        vertices: Sequence[str],
        edges: Sequence[Edge | tuple[str, str, str]],
        legs: Sequence[Leg | tuple[str, str, str]] = (),
    ):
        vs = tuple(vertices)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate vertex ids")
        es = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)
        ls = tuple(l if isinstance(l, Leg) else Leg(*l) for l in legs)
        ids = [e.id for e in es] + [l.id for l in ls]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate edge/leg ids")
        pos = {v: i for i, v in enumerate(vs)}
        for e in es:
            if e.tail not in pos or e.head not in pos:
                raise ValueError(f"edge {e.id} has unknown endpoint")
        for l in ls:
            if l.vertex not in pos:
                raise ValueError(f"leg {l.id} attached to unknown vertex")
            if l.dir not in ("in", "out"):
                raise ValueError(f"leg {l.id} direction must be 'in' or 'out'")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", es)
        object.__setattr__(self, "legs", ls)
        object.__setattr__(self, "_edge_by_id", {e.id: e for e in es})
        object.__setattr__(self, "_leg_by_id", {l.id: l for l in ls})
        # edge id -> (tail, head) vertex positions, for the union-find
        object.__setattr__(self, "_ends", {e.id: (pos[e.tail], pos[e.head]) for e in es})

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            sorted(self.vertices) == sorted(other.vertices)
            and sorted(self.edges, key=lambda e: e.id) == sorted(other.edges, key=lambda e: e.id)
            and sorted(self.legs, key=lambda l: l.id) == sorted(other.legs, key=lambda l: l.id)
        )

    def __hash__(self) -> int:
        # ids only: equal graphs have equal id sets, and str hashes are cached
        return hash((frozenset(self.vertices), frozenset(self._edge_by_id), frozenset(self._leg_by_id)))

    def __repr__(self) -> str:
        return f"Graph(V={len(self.vertices)}, E={len(self.edges)}, legs={len(self.legs)})"

    # -- lookups ---------------------------------------------------------

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise KeyError(f"unknown edge id {edge_id!r}") from None

    def leg(self, leg_id: str) -> Leg:
        try:
            return self._leg_by_id[leg_id]
        except KeyError:
            raise KeyError(f"unknown leg id {leg_id!r}") from None

    def all_edges(self) -> EdgeSubset:
        return frozenset(e.id for e in self.edges)

    def degree(self, vertex: str) -> int:
        """Number of half-edges at the vertex, legs included; loops count twice."""
        d = 0
        for e in self.edges:
            d += (e.tail == vertex) + (e.head == vertex)
        d += sum(1 for l in self.legs if l.vertex == vertex)
        return d

    # -- connectivity ------------------------------------------------------

    def _forest(self, subset: Iterable[str] | None) -> tuple[list[int], int]:
        """`_union_find` of the vertex positions joined by the edges in
        `subset` (all edges when None)."""
        ends = self._ends
        pairs = ends.values() if subset is None else (ends[e] for e in subset)
        try:
            return _union_find(len(self.vertices), pairs)
        except KeyError as exc:
            raise KeyError(f"unknown edge id {exc.args[0]!r}") from None

    def components(self, subset: Iterable[str] | None = None) -> int:
        """Number of connected components of the spanning subgraph (V, subset)."""
        return self._forest(subset)[1]

    def component_vertex_sets(self, subset: Iterable[str] | None = None) -> list[frozenset[str]]:
        """The vertex sets of the components of (V, subset), ordered by smallest vertex id."""
        parent, _ = self._forest(subset)
        groups: dict[int, set[str]] = {}
        for i, v in enumerate(self.vertices):
            # parents come first, so parent[i]'s own parent is already its root
            parent[i] = root = parent[parent[i]]
            groups.setdefault(root, set()).add(v)
        return sorted((frozenset(vs) for vs in groups.values()), key=min)

    def edge_ids(self) -> list[str]:
        """The edge ids in sorted order: edge i of `edge_walk` is the i-th."""
        return sorted(self._ends)

    def edge_walk(self, components: int | None = None, forests: bool = False) -> Iterator[tuple[int, int]]:
        """Edge subsets as bitmasks, bit i being edge `edge_ids()[i]`: every
        subset as (mask, component count), or with c = `components` the
        spanning subsets with c components, or with `forests` the forests
        among them, as (mask, part), where part is the mask of the vertex
        positions in the component of position 0.

        One in/out decision walk over the edges in id order, on an explicit
        stack, so subsets of one size come in lexicographic order, with a
        union-find (by size, no path compression) undone on the way back.
        Each root keeps the positions of its tree, OR-ed in on a link and
        XOR-ed out on an undo; a vertex that is not a root keeps those of its
        subtree, which no later link changes.
        With c set, every branch ends in an answer: no edge is taken that
        leaves fewer than c parts or closes a forest's cycle, and an edge is
        left out only while the later edges can still make the joins left (a
        flood over the taken forest and the later edges' components tells).
        While no earlier decision has changed since the first descent, the
        taken forest joins what the earlier edges join, so such a flood runs
        over the whole graph but the edge: when it finds a bridge, one DFS
        (`bridge_mask`) marks every bridge of the graph, and no bridge is
        flooded for again.  So a long path walks in linear time.  A forest
        one join short takes each later edge that makes it; else both
        children of the last edge are read off its two roots.
        """
        ends = [self._ends[e] for e in self.edge_ids()]
        n, last = len(self.vertices), len(ends) - 1
        every = components is None
        c = 0 if every else components
        spans = _union_find(n, ends)[1]  # the parts left by the taken and the later edges
        if not (every or spans <= c <= n):
            return
        bridges = 0  # the graph's bridges, found once a flood shows there is one
        fresh = last  # no decision before this edge has changed since the first descent
        # later[d][v]: the vertices of v's component under the edges after
        # edge d, made from later[last] down to d when a flood first needs it
        later: list = [None] * last + [[1 << v for v in range(n)]]
        built = last
        # per root the positions of its tree, per other vertex those of its
        # subtree; part[n] holds every position, the one part when c is 1
        part = [1 << v for v in range(n)] + [(1 << n) - 1]
        parent, weight = list(range(n)), [1] * n
        linked = [(0, -1)] * last  # per edge decided: `spans` on reaching it, and the root it linked or -1
        k, mask, d, stop = n, 0, 0, c + 1 if forests else 0
        while True:
            while d < last and k > stop:
                a, b = ends[d]
                while parent[a] != a:
                    a = parent[a]
                while parent[b] != b:
                    b = parent[b]
                if a != b and k > c:
                    if weight[a] < weight[b]:
                        a, b = b, a
                    parent[b] = a
                    weight[a] += weight[b]
                    part[a] |= part[b]
                    linked[d] = spans, b
                    k -= 1
                    mask |= 1 << d
                else:
                    linked[d] = spans, -1
                    if a == b and not forests:
                        mask |= 1 << d
                d += 1
            if every:  # d is the last edge
                if last >= 0:
                    a, b = ends[last]
                    while parent[a] != a:
                        a = parent[a]
                    while parent[b] != b:
                        b = parent[b]
                    yield mask | 1 << last, k - (a != b)
                yield mask, k
            else:
                s = n  # the root of position 0, or n when c is 1
                if c > 1:
                    s = 0
                    while parent[s] != s:
                        s = parent[s]
                whole = part[s]
                for i in range(d, last + 1):  # the last edge, or each later edge a forest one join short may take
                    a, b = ends[i]
                    while parent[a] != a:
                        a = parent[a]
                    while parent[b] != b:
                        b = parent[b]
                    if a != b and k > c:
                        yield mask | 1 << i, part[a] | part[b] if s == a or s == b else whole
                    elif a == b and not forests:
                        yield mask | 1 << i, whole
                if k == c:
                    yield mask, whole
            while True:  # back out of the decisions taken
                d -= 1
                if d < 0:
                    return
                spans, b = linked[d]
                if b >= 0:
                    a = parent[b]
                    weight[a] -= weight[b]
                    part[a] ^= part[b]
                    parent[b] = b
                    k += 1
                if mask >> d & 1:  # leave edge d out instead, if the later edges allow
                    mask ^= 1 << d
                    linked[d] = spans, -1
                    if b >= 0 and not every:
                        cut = bridges >> d & 1
                        if not cut:
                            row = later[d]
                            if row is None:
                                while built > d:
                                    row = later[built]
                                    x, y = ends[built]
                                    joined = row[x] | row[y]
                                    built -= 1
                                    later[built] = row = [joined if r & joined else r for r in row]
                            u, w = ends[d]
                            seen = todo = row[u]
                            while todo and not seen >> w & 1:
                                v = (todo & -todo).bit_length() - 1
                                todo &= todo - 1
                                new = (row[v] | part[v] | 1 << parent[v]) & ~seen
                                seen |= new
                                todo |= new
                            cut = not seen >> w & 1
                            if cut and d <= fresh:  # the flood ran over every edge but d
                                bridges = bridge_mask(n, ends)
                        if cut:  # edge d is a bridge of the taken and later edges
                            if spans == c:
                                continue
                            spans += 1
                        if d < fresh:
                            fresh = d
                    d += 1
                    break

    def is_connected(self) -> bool:
        return len(self.vertices) > 0 and self.components() == 1

    def rank(self, subset: Iterable[str] | None = None) -> int:
        return len(self.vertices) - self.components(subset)

    def nullity(self, subset: Iterable[str] | None = None) -> int:
        n_edges = len(self.edges) if subset is None else len(frozenset(subset))
        return n_edges - self.rank(subset)

    # -- edge classification and local surgery ------------------------------

    def classify_edge(self, edge_id: str) -> str:
        """One of "bridge", "self_loop", "regular"."""
        e = self.edge(edge_id)
        if e.is_loop:
            return "self_loop"
        rest = self.all_edges() - {edge_id}
        if self.components(rest) > self.components():
            return "bridge"
        return "regular"

    def is_one_pi(self) -> bool:
        """1PI: connected and bridgeless.  Disconnected graphs are not 1PI."""
        return bridgeless_connected(self.vertices, [(e.tail, e.head) for e in self.edges])

    def delete_edge(self, edge_id: str) -> Graph:
        self.edge(edge_id)
        return Graph(
            self.vertices,
            [e for e in self.edges if e.id != edge_id],
            self.legs,
        )

    def contract_edge(self, edge_id: str) -> Graph:
        """Contract an edge; for a self-loop this equals deletion."""
        e = self.edge(edge_id)
        if e.is_loop:
            return self.delete_edge(edge_id)
        keep, gone = min(e.tail, e.head), max(e.tail, e.head)

        def ren(v: str) -> str:
            return keep if v == gone else v

        return Graph(
            [v for v in self.vertices if v != gone],
            [Edge(x.id, ren(x.tail), ren(x.head)) for x in self.edges if x.id != edge_id],
            [Leg(l.id, ren(l.vertex), l.dir) for l in self.legs],
        )

    def reorient(self, edge_ids: Iterable[str]) -> Graph:
        """Flip tail/head on the given edges; all polynomials must not care."""
        flip = set(edge_ids)
        return Graph(
            self.vertices,
            [Edge(e.id, e.head, e.tail) if e.id in flip else e for e in self.edges],
            self.legs,
        )

    # -- spanning structures ------------------------------------------------

    def spanning_trees(self) -> list[EdgeSubset]:
        """All spanning trees, as edge-id sets (connected graphs only)."""
        if not self.is_connected():
            raise ValueError("spanning_trees requires a connected graph")
        ids = self.edge_ids()
        return [mask_edges(ids, mask) for mask, _ in self.edge_walk(1, True)]

    def spanning_two_trees(self) -> list[TwoTree]:
        """All spanning two-component forests, with vertex and leg split,
        read off the part masks of `_two_forests`."""
        if not self.is_connected():
            raise ValueError("spanning_two_trees requires a connected graph")
        ids = self.edge_ids()
        at = {v: i for i, v in enumerate(self.vertices)}
        legs = sorted((l.id, at[l.vertex]) for l in self.legs)
        out = []
        for mask, part in self._two_forests():
            vs, ls = ([], []), ([], [])  # the vertices and the legs of each part
            for v, i in at.items():
                vs[not part >> i & 1].append(v)
            for lid, i in legs:
                ls[not part >> i & 1].append(lid)
            out.append(TwoTree(mask_edges(ids, mask), tuple(map(frozenset, vs)), tuple(map(tuple, ls))))
        return out

    def _two_forests(self) -> Iterator[tuple[int, int]]:
        """Each spanning two-component forest of a connected graph as (edge
        mask, mask of the `vertices` positions of its part holding the least
        vertex id), in `edge_walk` order: the walk's part of position 0, or
        the other part."""
        start = self.vertices.index(min(self.vertices))
        every = (1 << len(self.vertices)) - 1
        for mask, part in self.edge_walk(2, True):
            yield mask, part if part >> start & 1 else every ^ part

    # -- canonical form -------------------------------------------------------

    def shape(self) -> tuple[int, tuple[tuple[int, int], ...], tuple[int, ...]]:
        """What the canonical form reads: the vertex count, the sorted
        (min, max) end-position pairs of the edges, and the legs at each
        vertex position."""
        index = {v: i for i, v in enumerate(self.vertices)}
        legc = [0] * len(self.vertices)
        for l in self.legs:
            legc[index[l.vertex]] += 1
        pairs = sorted((a, b) if a <= b else (b, a) for a, b in self._ends.values())
        return len(self.vertices), tuple(pairs), tuple(legc)

    def canonical_form(self) -> str:
        """Isomorphism-class key (orientation, ids and leg directions
        ignored): `canonical_code` of `shape()`."""
        return canonical_code(*self.shape())

    # -- JSON fixture format ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "type": "graph",
            "vertices": list(self.vertices),
            "edges": [{"id": e.id, "tail": e.tail, "head": e.head} for e in self.edges],
            "external": [{"id": l.id, "vertex": l.vertex, "dir": l.dir} for l in self.legs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False) + "\n"


def canonical_code(n: int, pairs: Sequence[tuple[int, int]], legc: Sequence[int]) -> str:
    """The canonical form of the graph on vertex positions 0..n-1 with the
    edges `pairs` (end positions, in any order) and legc[v] legs at v.

    Vertices get positions class by class, in the order of their
    (degree, self-loops, legs) signatures; the key is the least sorted
    list of (min, max) edge position pairs over every such assignment.
    The leg positions follow from the signatures alone.  A pair (a, b) is
    coded as a * n + b, so lists of codes compare as lists of pairs.

    Placed-neighbour rule.  With positions 0..k-1 placed, position k takes
    only those unplaced vertices of its class whose edge multiplicities to
    positions 0, 1, ..., k-1 are lexicographically greatest (more edges to
    an earlier position win).  This keeps the least key: say v beats w
    first at position p, and a completion puts w at k and v at a later j of
    the same class.  Swapping v and w leaves the groups of pairs (q, x) for
    q < p unchanged, since v and w have equal multiplicities there.  Group
    p then gains a (p, k) pair where the completion has a larger entry, so
    the swapped key is smaller and that completion's key is never the
    least.

    Twin pruning.  Twins share a signature and have equal multiplicities
    to every third vertex, so swapping two is an automorphism and gives the
    same key; of tied twins only one is tried.  The search branches over
    what remains on an explicit stack and keeps the least key among the
    leaves.
    """
    nbrs: list[list[int]] = [[] for _ in range(n)]  # the far end of each non-loop edge
    loops = [0] * n
    for a, b in pairs:
        if a == b:
            loops[a] += 1
        else:
            nbrs[a].append(b)
            nbrs[b].append(a)
    sig = [(len(nbrs[v]) + 2 * loops[v] + legc[v], loops[v], legc[v]) for v in range(n)]
    by_sig = sorted(range(n), key=sig.__getitem__)
    same_sig: dict[tuple, list[int]] = {}
    for v in by_sig:
        same_sig.setdefault(sig[v], []).append(v)
    level_class = [same_sig[sig[v]] for v in by_sig]
    twin: list[int] | None = None  # found on the first tie

    at = [-1] * n  # position of each vertex, -1 while unplaced
    # per unplaced vertex, -p for each edge to a placed position p, in placing
    # order: the greatest of these lists has the greatest multiplicities
    seen: list[list[int]] = [[] for _ in range(n)]
    groups: list[list[int]] = [[] for _ in range(n)]  # codes of placed pairs, by smaller position
    placed: list[int] = []
    best: list[int] = []
    stack: list[list[int]] = []  # per placed position, the choices left to try
    while True:
        k = len(placed)
        if k < n:
            todo = [w for w in level_class[k] if at[w] < 0]
            if len(todo) > 1:
                top = max(seen[w] for w in todo)
                todo = [w for w in todo if seen[w] == top]
                if len(todo) > 1:
                    twin = twin or _twins(nbrs, sig)
                    todo = list({twin[w]: w for w in todo}.values())
            stack.append(todo)
        else:
            leaf = [c for group in groups for c in group]
            if not best or leaf < best:
                best = leaf
            if not any(stack):
                break
            while True:  # take back choices up to the last position with one left
                v = placed.pop()
                at[v] = -1
                for w in nbrs[v]:
                    p = at[w]
                    if p < 0:
                        seen[w].pop()
                    else:
                        groups[p].pop()
                groups[len(placed)].clear()
                if stack[-1]:
                    break
                stack.pop()
        v = stack[-1].pop()
        k = len(placed)
        placed.append(v)
        at[v] = k
        groups[k].extend([k * n + k] * loops[v])
        for w in nbrs[v]:
            p = at[w]
            if p < 0:
                seen[w].append(-k)
            else:
                groups[p].append(p * n + k)  # k exceeds every code already in the group
    edges_txt = ",".join(f"{c // n}-{c % n}" for c in best)
    legs_txt = ",".join(str(k) for k, v in enumerate(by_sig) for _ in range(legc[v]))
    return f"G{n}|{edges_txt}|{legs_txt}"


def _twins(nbrs: list[list[int]], sig: list[tuple]) -> list[int]:
    """Per vertex, the least vertex of its twin class.  Twins share a
    signature and have equal multiplicities to every third vertex.  Twins
    with no edge between them have the same neighbour lists; twins joined by
    m edges v-w have N(v) + m * [v] equal to N(w) + m * [w]."""
    twin = list(range(len(nbrs)))
    first: dict[tuple, int] = {}
    rows = [sorted(row) for row in nbrs]
    for v, row in enumerate(rows):
        twin[v] = first.setdefault((sig[v], tuple(row)), v)
    for v, row in enumerate(rows):
        for w in set(row):
            if v < w == twin[w] and sig[v] == sig[w]:
                m = row.count(w)
                if sorted(row + [v] * m) == sorted(rows[w] + [w] * m):
                    twin[w] = twin[v]
    return twin


def bridgeless_connected(verts: Iterable[Hashable], ends: Sequence[tuple]) -> bool:
    """Whether the graph on `verts` (indices or ids) with the (tail, head)
    edges `ends` is connected and bridgeless.

    One iterative DFS with low-links (Tarjan 1974).  The edge a vertex was
    reached by is skipped by its index, so a parallel edge closes a cycle.
    Self-loops are never bridges; an empty vertex set is not connected.
    """
    adj: dict[Hashable, list[tuple[Hashable, int]]] = {v: [] for v in verts}
    for i, (a, b) in enumerate(ends):
        if a != b:
            adj[a].append((b, i))
            adj[b].append((a, i))
    if not adj:
        return False
    root = next(iter(adj))
    disc = {root: 0}
    low = {root: 0}
    stack = [(root, -1, iter(adj[root]))]
    while stack:
        v, via, todo = stack[-1]
        for w, i in todo:
            if w not in disc:
                disc[w] = low[w] = len(disc)
                stack.append((w, i, iter(adj[w])))
                break
            if i != via:
                low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] > disc[u]:
                    return False  # the tree edge u-v is a bridge
                low[u] = min(low[u], low[v])
    return len(disc) == len(adj)


def bridge_mask(n: int, ends: Sequence[tuple[int, int]]) -> int:
    """The bridges of the graph on positions 0..n-1 with the edges `ends`,
    as a mask over the edge indices: one iterative DFS with low-links
    (Tarjan 1974) from each unreached position."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (a, b) in enumerate(ends):
        if a != b:
            adj[a].append((b, i))
            adj[b].append((a, i))
    disc, low = [-1] * n, [0] * n
    out = t = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = t
        t += 1
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, via, todo = stack[-1]
            for w, i in todo:
                if disc[w] < 0:
                    disc[w] = low[w] = t
                    t += 1
                    stack.append((w, i, iter(adj[w])))
                    break
                if i != via and disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if low[v] > disc[u]:
                        out |= 1 << via
                    elif low[v] < low[u]:
                        low[u] = low[v]
    return out


# -- parallel classes, the state of the deletion/contraction walk ------------------
#
# A walk state is a graph on vertex positions 0..n-1 with no self-loops, held
# as a dict from (a, b) with a < b to the payload of the parallel class of
# edges between a and b (the route's weight of the class).


def edge_classes(g: Graph) -> tuple[list[str], dict[tuple[int, int], list[str]]]:
    """The self-loop ids of `g`, and its other edge ids grouped into parallel
    classes keyed by their (smaller, larger) end positions."""
    loops: list[str] = []
    classes: dict[tuple[int, int], list[str]] = {}
    for e, (a, b) in g._ends.items():
        if a == b:
            loops.append(e)
        else:
            classes.setdefault((a, b) if a < b else (b, a), []).append(e)
    return loops, classes


def pick_class(classes: dict[tuple[int, int], Any]) -> tuple[int, int]:
    """The class to split on (of a nonempty state): the first in dict order
    at a vertex that meets the fewest classes.  A vertex that meets one class
    makes it a bridge class, which has one branch, and a vertex that meets
    two meets one after either branch."""
    count: dict[int, int] = {}
    for a, b in classes:
        count[a] = count.get(a, 0) + 1
        count[b] = count.get(b, 0) + 1
    low = min(count.values())
    return next(key for key in classes if count[key[0]] == low or count[key[1]] == low)


def contract_class(n: int, classes: dict[tuple[int, int], Any], key: tuple[int, int], merge: Callable) -> dict:
    """The classes of G/P for the class P at `key` = (a, b) of a state on
    positions 0..n-1.  Position b becomes a, then the last position n-1
    becomes b, so G/P lives on 0..n-2.  Two classes that come to share their
    ends are merged into one, with payload `merge(first, second)`; none
    becomes a self-loop, since P was the only class between a and b."""
    a, b = key
    last = n - 1
    out: dict[tuple[int, int], Any] = {}
    for (u, v), p in classes.items():
        if u == a and v == b:
            continue
        if u == b:  # u < v <= last, so u is never the last position
            u = a
        if v == b:
            v = a
        elif v == last:
            v = b
        k = (u, v) if u < v else (v, u)
        q = out.get(k)
        out[k] = p if q is None else merge(q, p)
    return out


def is_bridge_class(n: int, classes: dict[tuple[int, int], Any], key: tuple[int, int]) -> bool:
    """Whether deleting the class at `key` = (a, b) disconnects a from b."""
    parent, _ = _union_find(n, (k for k in classes if k != key))
    a, b = key
    while parent[a] != a:
        a = parent[a]
    while parent[b] != b:
        b = parent[b]
    return a != b


def class_leaves(
    n: int, classes: dict[tuple[int, int], Any], merge: Callable, step: Callable, one: Any
) -> Iterator[tuple[int, Any]]:
    """The leaves of the deletion/contraction tree of a state, walked without
    recursion: pending deletions wait on a list, and each contraction
    (`contract_class` with `merge`) continues in place.

    `step(payload, bridge)` gives the weights of deleting and of contracting
    the class at `pick_class`, the first None when G-P gets no branch; it
    may call `bridge()` for `is_bridge_class`.  Each leaf (no class left)
    yields its number of positions and the product from `one` of the
    weights on its path; a weight that is `one` itself is not multiplied in.
    """
    pending = [(n, classes, one)]
    while pending:
        n, classes, weight = pending.pop()
        while classes:
            key = pick_class(classes)
            drop, keep = step(classes[key], lambda: is_bridge_class(n, classes, key))
            if drop is not None:
                rest = dict(classes)
                del rest[key]
                pending.append((n, rest, weight if drop is one else weight * drop))
            classes = contract_class(n, classes, key, merge)
            n -= 1
            if keep is not one:
                weight = weight * keep
        yield n, weight


def mask_edges(ids: Sequence[str], mask: int) -> EdgeSubset:
    """The ids of the set bits of `mask`, bit i being ids[i]."""
    return frozenset([e for i, e in enumerate(ids) if mask >> i & 1])


def _union_find(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """Join vertex positions 0..n-1 along `pairs`: the parent list and the
    component count.  A larger root is linked under a smaller one, so every
    parent position is at most its child's."""
    parent = list(range(n))
    k = n
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            if a < b:
                parent[b] = a
            else:
                parent[a] = b
            k -= 1
    return parent, k


def graph_from_json_dict(data: dict) -> Graph:
    """Parse the repository-wide graph fixture format (type "graph")."""
    for field in ("type", "vertices", "edges"):
        if field not in data:
            raise ValueError(f"fixture missing field {field!r}")
    if data["type"] != "graph":
        raise ValueError(f"expected type 'graph', got {data['type']!r}")
    vertices = _json_list(data, "vertices", str)
    edges = [Edge(*e) for e in _json_records(data, "edges", "edge", ("id", "tail", "head"))]
    legs = [Leg(*x) for x in _json_records(data, "external", "leg", ("id", "vertex", "dir"))]
    return Graph(vertices, edges, legs)


def _json_list(data: dict, field: str, item_type: type) -> list:
    """A fixture field that must be a list of strings or of objects."""
    value = data.get(field, [])
    if not isinstance(value, list) or not all(isinstance(x, item_type) for x in value):
        kind = "strings" if item_type is str else "objects"
        raise ValueError(f"fixture field {field!r} must be a list of {kind}")
    return value


def _json_records(data: dict, field: str, kind: str, keys: tuple[str, ...]) -> list[tuple[str, ...]]:
    """The string fields `keys` of every object in a fixture list field."""
    out = []
    for i, item in enumerate(_json_list(data, field, dict)):
        for key in keys:
            if key not in item:
                raise ValueError(f"fixture {kind} {i} is missing field {key!r}")
            if not isinstance(item[key], str):
                raise ValueError(f"fixture {kind} {i} field {key!r} must be a string")
        out.append(tuple(item[key] for key in keys))
    return out
