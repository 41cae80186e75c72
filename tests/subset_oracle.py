"""A brute-force edge-subset oracle, independent of the library's walkers.

`edge_subsets` lists every edge subset of a graph with `itertools.combinations`
over its sorted edge ids, size by size, and counts the components of each by
breadth-first search.  The enumerator tests, and the product-built forms the
subset routes are compared with, read it.  `flooded_two_forests` gives the
parts of the spanning two-forests by a flood over each forest's edges.
"""

import itertools
from collections import deque


def bfs_components(g, subset):
    """Components of (V, subset) by breadth-first search, ordered by smallest vertex id."""
    adj = {v: [] for v in g.vertices}
    for eid in subset:
        e = g.edge(eid)
        adj[e.tail].append(e.head)
        adj[e.head].append(e.tail)
    seen = set()
    comps = []
    for v in g.vertices:
        if v in seen:
            continue
        seen.add(v)
        comp = [v]
        queue = deque([v])
        while queue:
            for w in adj[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        comps.append(frozenset(comp))
    return sorted(comps, key=min)


def edge_subsets(g, size=None):
    """Every edge subset as (frozenset of ids, component count of (V, subset)),
    size by size and within a size in lexicographic order of the sorted ids;
    with `size`, only the subsets of that many edges."""
    ids = sorted(g.all_edges())
    for r in range(len(ids) + 1) if size is None else (size,):
        for combo in itertools.combinations(ids, r):
            yield frozenset(combo), len(bfs_components(g, combo))


def flooded_two_forests(g):
    """Each spanning two-component forest of a connected graph as (edge mask,
    mask of the `vertices` positions of its part holding the least vertex id),
    in the order of `edge_subsets`: the part flooded over the forest's edges."""
    if len(g.vertices) < 2:
        return
    ids = sorted(g.all_edges())
    pos = {v: i for i, v in enumerate(g.vertices)}
    start = pos[min(g.vertices)]
    at = [[] for _ in g.vertices]  # per vertex position, the bit and far end of each edge there
    for i, eid in enumerate(ids):
        a, b = pos[g.edge(eid).tail], pos[g.edge(eid).head]
        at[a].append((1 << i, b))
        at[b].append((1 << i, a))
    for sub, k in edge_subsets(g, len(g.vertices) - 2):
        if k != 2:
            continue
        mask = sum(1 << i for i, eid in enumerate(ids) if eid in sub)
        part, todo, left = 1 << start, [start], mask
        while todo:
            for bit, w in at[todo.pop()]:
                if left & bit:
                    left ^= bit
                    part |= 1 << w
                    todo.append(w)
        yield mask, part
