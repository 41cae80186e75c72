"""Size-parameterised graph families for the benchmark.

Every builder returns a fresh `feyncomb` object.
"""

from __future__ import annotations

import random

from feyncomb.graphs import Graph
from feyncomb.ribbon import RibbonGraph


def wheel(n: int) -> Graph:
    """W_n: a hub joined by n spokes to an n-cycle rim (2n edges)."""
    verts = ["h"] + [f"v{i}" for i in range(1, n + 1)]
    edges = [(f"s{i}", "h", f"v{i}") for i in range(1, n + 1)]
    edges += [(f"r{i}", f"v{i}", f"v{i % n + 1}") for i in range(1, n + 1)]
    return Graph(verts, edges)


def planar_wheel(n: int) -> RibbonGraph:
    """W_n with its plane embedding (genus 0)."""
    g = wheel(n)
    rotation = {"h": [(f"s{i}", "t") for i in range(1, n + 1)]}
    for i in range(1, n + 1):
        prev = (i - 2) % n + 1
        rotation[f"v{i}"] = [(f"s{i}", "h"), (f"r{prev}", "h"), (f"r{i}", "t")]
    return RibbonGraph(g, rotation)


def box_ladder(n: int) -> Graph:
    """Ladder with n rungs (2n vertices, 3n-2 edges) and a leg at each corner."""
    top = [f"t{i}" for i in range(1, n + 1)]
    bot = [f"b{i}" for i in range(1, n + 1)]
    edges = [(f"u{i}", top[i - 1], bot[i - 1]) for i in range(1, n + 1)]
    edges += [(f"p{i}", top[i - 1], top[i]) for i in range(1, n)]
    edges += [(f"q{i}", bot[i - 1], bot[i]) for i in range(1, n)]
    legs = [("f1", top[0], "in"), ("f2", bot[0], "in"), ("f3", top[-1], "out"), ("f4", bot[-1], "out")]
    return Graph(top + bot, edges, legs)


def complete(n: int) -> Graph:
    """K_n with one incoming and one outgoing leg."""
    verts = [f"v{i}" for i in range(1, n + 1)]
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            edges.append((f"e{i}_{j}", f"v{i}", f"v{j}"))
    return Graph(verts, edges, [("f1", "v1", "in"), ("f2", f"v{n}", "out")])


def cut_circulant(n: int) -> Graph:
    """C_n(1,2) with the edge v1-v2 cut into two legs: 4-regular, 2n-1 edges."""
    verts = [f"v{i}" for i in range(1, n + 1)]
    edges = []
    for step in (1, 2):
        for i in range(1, n + 1):
            if step == 1 and i == 1:
                continue
            edges.append((f"e{step}_{i}", f"v{i}", f"v{(i + step - 1) % n + 1}"))
    return Graph(verts, edges, [("f1", "v1", "in"), ("f2", "v2", "out")])


def ribbonize(g: Graph, rng: random.Random | None = None) -> RibbonGraph:
    """Attach a rotation system: insertion order, shuffled when `rng` is given."""
    rotation: dict[str, list] = {v: [] for v in g.vertices}
    for e in g.edges:
        rotation[e.tail].append((e.id, "t"))
        rotation[e.head].append((e.id, "h"))
    for leg in g.legs:
        rotation[leg.vertex].append((leg.id, "x"))
    if rng is not None:
        for v in g.vertices:
            rng.shuffle(rotation[v])
    return RibbonGraph(g, rotation)
