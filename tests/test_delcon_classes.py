"""Deletion/contraction by parallel classes against the independent routes.

Tutte and multivariate Tutte delcon are compared with their subset sums, and
U delcon with the spanning-tree sum, on multigraphs built class by class:
parallel classes of up to five edges, self-loops, bridge classes, isolated
vertices and disconnected graphs all occur in the seeded corpus.
"""

import random

import pytest

from feyncomb import polynomials
from feyncomb.graphs import Graph, edge_classes, is_bridge_class
from feyncomb.parametric import symanzik_u, symanzik_u_delcon
from feyncomb.polynomials import multivariate_tutte, tutte

FEATURES = ("class of 5", "self-loop", "bridge class", "cycle class", "isolated vertex", "disconnected", "connected")


def class_graph(n_vertices, classes, loops):
    """A graph on v0..v(n-1) with `m` parallel edges per (a, b, m) class,
    alternately oriented, and one self-loop per vertex index in `loops`."""
    verts = [f"v{i}" for i in range(n_vertices)]
    edges = []
    for a, b, m in classes:
        for j in range(m):
            tail, head = (a, b) if j % 2 == 0 else (b, a)
            edges.append((f"e{len(edges)}", verts[tail], verts[head]))
    for v in loops:
        edges.append((f"e{len(edges)}", verts[v], verts[v]))
    return Graph(verts, edges)


def random_class_graph(rng, max_vertices=5, max_edges=10):
    n = rng.randint(1, max_vertices)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    rng.shuffle(pairs)
    budget = rng.randint(0, max_edges)
    classes = []
    for a, b in pairs[: rng.randint(0, len(pairs))]:
        m = min(rng.randint(1, 5), budget)
        if m == 0:
            break
        classes.append((a, b, m))
        budget -= m
    loops = [rng.randrange(n) for _ in range(min(rng.randint(0, 2), budget))]
    return class_graph(n, classes, loops)


def features(g):
    loops, classes = edge_classes(g)
    state = {k: len(ids) for k, ids in classes.items()}
    n = len(g.vertices)
    touched = {v for e in g.edges for v in (e.tail, e.head)}
    bridges = [is_bridge_class(n, state, k) for k in state]
    return {
        "class of 5": 5 in state.values(),
        "self-loop": bool(loops),
        "bridge class": any(bridges),
        "cycle class": not all(bridges),
        "isolated vertex": any(v not in touched for v in g.vertices),
        "disconnected": g.components() > 1,
        "connected": g.is_connected(),
    }


def check_routes(g):
    assert tutte(g, "delcon") == tutte(g, "subset")
    assert multivariate_tutte(g, "delcon") == multivariate_tutte(g, "subset")
    if g.is_connected():
        assert symanzik_u_delcon(g) == symanzik_u(g)


def test_class_reductions_match_independent_routes():
    rng = random.Random(8081)
    seen = dict.fromkeys(FEATURES, False)
    for _ in range(300):
        g = random_class_graph(rng)
        for kind, present in features(g).items():
            seen[kind] |= present
        check_routes(g)
    assert all(seen.values()), seen


def test_class_reductions_on_small_cases():
    # one class of m edges: T = x + y + ... + y^(m-1); U = e_(m-1) of the alphas
    for m in range(1, 6):
        g = class_graph(2, [(0, 1, m)], [])
        check_routes(g)
    # a class that stops being a bridge only through a merged class, and
    # classes that merge when a shared neighbour is contracted
    check_routes(class_graph(4, [(0, 1, 2), (1, 2, 3), (0, 2, 1), (2, 3, 2)], [3, 3]))
    check_routes(class_graph(5, [(0, 1, 5), (2, 3, 1)], [4]))
    check_routes(class_graph(1, [], [0, 0]))


def test_multivariate_delcon_merges_parallel_classes(monkeypatch):
    """Contracting a class can make two others parallel; their payloads
    w = prod (1 + beta_e) - 1 then merge as w + w' + w w'."""
    merges = []
    merge = polynomials._parallel

    def counting(w, v):
        merges.append((w, v))
        return merge(w, v)

    monkeypatch.setattr(polynomials, "_parallel", counting)
    k4 = [(a, b, 1) for a in range(4) for b in range(a + 1, 4)]
    w4 = [(0, i, 1) for i in range(1, 5)] + [(i, i % 4 + 1, 1) for i in range(1, 5)]
    cases = {
        "K4": class_graph(4, k4, []),
        "W4": class_graph(5, w4, []),
        "triple edge and loop": class_graph(3, [(0, 1, 3), (1, 2, 1), (0, 2, 2)], [2]),
        "disconnected": class_graph(6, k4 + [(4, 5, 2)], [5]),
        "isolated vertex": class_graph(5, [(0, 1, 2), (1, 2, 1), (0, 2, 1)], []),
    }
    assert features(cases["disconnected"])["disconnected"]
    assert features(cases["isolated vertex"])["isolated vertex"]
    for name, g in cases.items():
        del merges[:]
        assert multivariate_tutte(g, "delcon") == multivariate_tutte(g, "subset"), name
        assert merges, name
        for w, v in merges:
            assert merge(w, v) == (1 + w) * (1 + v) - 1


def test_class_reductions_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def class_graphs(draw):
        n = draw(st.integers(1, 5))
        vertex = st.integers(0, n - 1)
        raw = draw(st.lists(st.tuples(vertex, vertex, st.integers(1, 5)), max_size=4))
        classes = [(a, b, m) for a, b, m in raw if a != b]
        loops = draw(st.lists(vertex, max_size=2))
        hypothesis.assume(sum(m for _, _, m in classes) + len(loops) <= 11)
        return class_graph(n, classes, loops)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(class_graphs())
    def check(g):
        check_routes(g)

    check()
