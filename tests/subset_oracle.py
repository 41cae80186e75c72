"""A brute-force edge-subset oracle, independent of the library's walkers.

`edge_subsets` lists every edge subset of a graph with `itertools.combinations`
over its sorted edge ids, size by size, and counts the components of each by
breadth-first search.  The enumerator tests, and the product-built forms the
subset routes are compared with, read it.
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
