"""Face tracing against the token-dict tracer it replaced.

The oracle below rebuilds the induced rotation and its successor map for
every subset and walks the faces on tokens.  `RibbonGraph.faces` must
return the identical list of `Face` objects, cycles and order included,
and `face_count` its length; so must the mask walker `HalfEdges.trace` on
the masks of `Graph.edge_walk`.  The subset walk `RibbonGraph.subset_faces`
must give every subset once, with the component count of `edge_walk` and
the face count of `trace`.  A graph's `half_edges()` must be the index
`HalfEdges.of_shape` reads off its shape, up to the numbering of the edges.
"""

import random

import pytest

from feyncomb.checks import random_multigraph
from feyncomb.graphs import Graph, mask_edges
from feyncomb.ribbon import Face, HalfEdges, RibbonGraph, is_leg_token, partner

# -- the token-dict oracle -------------------------------------------------------------


def oracle_faces(rg, subset=None):
    keep = None if subset is None else frozenset(subset)
    rot = {
        v: tuple(t for t in seq if keep is None or is_leg_token(t) or t[0] in keep)
        for v, seq in rg.rotation.items()
    }
    succ = {}
    vertex_of = {}
    for v in rg.vertices:
        seq = rot[v]
        for i, tok in enumerate(seq):
            succ[tok] = seq[(i + 1) % len(seq)]
            vertex_of[tok] = v
    out = []
    visited = set()
    for v in rg.vertices:
        for tok in rot[v]:
            if is_leg_token(tok) or tok in visited:
                continue
            cycle = []
            cur = tok
            while True:
                visited.add(cur)
                cycle.append(cur)
                step = succ[partner(cur)]
                while is_leg_token(step):
                    cycle.append(step)
                    step = succ[step]
                cur = step
                if cur == tok:
                    break
            out.append(Face(tuple(cycle), vertex_of[tok]))
    for v in rg.vertices:
        seq = rot[v]
        if all(is_leg_token(t) for t in seq):
            out.append(Face(seq, v))
    return out


# -- corpus ------------------------------------------------------------------------------


def _ribbon(rng, max_vertices, max_edges, max_legs):
    g = random_multigraph(rng, max_vertices=max_vertices, max_edges=max_edges, min_edges=0)
    legs = [(f"f{i}", rng.choice(g.vertices), rng.choice(["in", "out"])) for i in range(rng.randint(0, max_legs))]
    g = Graph(g.vertices, g.edges, legs)
    rotation = {v: [] for v in g.vertices}
    for e in g.edges:
        rotation[e.tail].append((e.id, "t"))
        rotation[e.head].append((e.id, "h"))
    for l in g.legs:
        rotation[l.vertex].append((l.id, "x"))
    for seq in rotation.values():
        rng.shuffle(seq)
    return RibbonGraph(g, rotation)


def _features(rg, subset):
    g = rg.graph
    touched = {v for e in g.edges if e.id in subset for v in (e.tail, e.head)}
    return {
        "loop": any(e.is_loop for e in g.edges if e.id in subset),
        "legs": bool(g.legs),
        "isolated": any(v not in touched for v in g.vertices),
        "leg-only vertex": any(v not in touched for v in (l.vertex for l in g.legs)),
        "proper subset": len(subset) < len(g.edges),
    }


def _check(rg, subset):
    want = oracle_faces(rg, subset)
    assert rg.faces(subset) == want
    assert rg.face_count(subset) == len(want)


# -- tests -------------------------------------------------------------------------------


def test_faces_match_token_tracer_on_random_subsets():
    rng = random.Random(4401)
    seen = dict.fromkeys(("loop", "legs", "isolated", "leg-only vertex", "proper subset"), False)
    for _ in range(300):
        rg = _ribbon(rng, 5, 8, 4)
        _check(rg, None)
        ids = [e.id for e in rg.edges]
        for _ in range(6):
            subset = frozenset(e for e in ids if rng.random() < 0.5)
            for kind, present in _features(rg, subset).items():
                seen[kind] |= present
            _check(rg, subset)
            _check(rg, sorted(subset))  # any iterable of ids
    assert all(seen.values()), seen


def test_mask_walker_matches_token_tracer_on_every_subset():
    rng = random.Random(4402)
    seen = dict.fromkeys(("loop", "legs", "isolated", "disconnected", "genus"), False)
    for _ in range(80):
        rg = _ribbon(rng, 4, 6, 3)
        g = rg.graph
        index = rg.half_edges()
        ids = g.edge_ids()
        for mask, k in g.edge_walk():
            subset = mask_edges(ids, mask)
            want = oracle_faces(rg, subset)
            assert index.mask(subset) == mask
            assert index.trace(mask, True) == want
            assert index.trace(mask, False) == len(want)
            features = _features(rg, subset)
            seen["loop"] |= features["loop"]
            seen["legs"] |= features["legs"]
            seen["isolated"] |= features["isolated"]
            seen["disconnected"] |= k > 1
            # twice the genus: k - F + nullity
            seen["genus"] |= k - len(want) + len(subset) - len(g.vertices) + k > 0
    assert all(seen.values()), seen


def _walk_against_masks(rg):
    """The subset walk's {mask: (k, F)} against `edge_walk` and `trace`."""
    trace = rg.half_edges().trace
    got = [(mask, (k, f)) for mask, k, f in rg.subset_faces()]
    want = {mask: (k, trace(mask, False)) for mask, k in rg.graph.edge_walk()}
    assert len(got) == len(want) == 1 << len(rg.edges)
    assert dict(got) == want


def test_subset_walk_matches_edge_walk_and_trace():
    rng = random.Random(4403)
    corpus = [RibbonGraph(Graph([], []), {}), RibbonGraph(Graph(["v", "w"], []), {"v": [], "w": []})]
    corpus += [_ribbon(rng, 5, 8, 3) for _ in range(200)]
    seen = dict.fromkeys(("edgeless", "loop", "parallel", "legs", "disconnected", "bare vertex"), False)
    for rg in corpus:
        _walk_against_masks(rg)
        g = rg.graph
        pairs = [frozenset((e.tail, e.head)) for e in g.edges]
        seen["edgeless"] |= not g.edges
        seen["loop"] |= any(e.is_loop for e in g.edges)
        seen["parallel"] |= len(set(pairs)) < len(pairs)
        seen["legs"] |= bool(g.legs)
        seen["disconnected"] |= g.components() > 1
        seen["bare vertex"] |= any(not seq for seq in rg.rotation.values())
    assert all(seen.values()), seen


def test_subset_walk_matches_edge_walk_and_trace_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.integers(0, 2**32))
    def check(seed):
        _walk_against_masks(_ribbon(random.Random(seed), 5, 7, 3))

    check()


def test_unknown_edge_id_is_a_key_error():
    rg = _ribbon(random.Random(1), 3, 3, 0)
    with pytest.raises(KeyError, match="unknown edge id 'nope'"):
        rg.faces({"nope"})
    with pytest.raises(KeyError, match="unknown edge id 'nope'"):
        rg.face_count(["nope"])


def test_faces_of_empty_and_bare_graphs():
    _check(RibbonGraph(Graph([], []), {}), None)
    bare = RibbonGraph(Graph(["v", "w"], [], [("f1", "v", "in"), ("f2", "v", "out")]), {
        "v": [("f2", "x"), ("f1", "x")],
        "w": [],
    })
    _check(bare, None)
    assert [f.cycle for f in bare.faces()] == [(("f2", "x"), ("f1", "x")), ()]


def test_faces_match_token_tracer_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.integers(0, 2**32), st.integers(0, 2**16))
    def check(seed, mask):
        rng = random.Random(seed)
        rg = _ribbon(rng, 4, 7, 3)
        subset = frozenset(e.id for i, e in enumerate(rg.edges) if mask >> i & 1)
        _check(rg, subset)

    check()


def test_half_edge_index_of_a_graph_is_the_index_of_its_shape():
    rng = random.Random(4404)
    corpus = [RibbonGraph(Graph([], []), {}), RibbonGraph(Graph(["v", "w"], []), {"v": [], "w": []})]
    corpus += [_ribbon(rng, 5, 8, 3) for _ in range(200)]
    seen = dict.fromkeys(("legs", "loop", "bare vertex", "disconnected"), False)
    for rg in corpus:
        g = rg.graph
        index, twin = rg.half_edges(), HalfEdges.of_shape(rg.shape())
        for field in ("blocks", "start", "nxt", "prev", "vert"):
            assert getattr(index, field) == getattr(twin, field), field
        assert all(index.prev[index.nxt[h]] == h for h in range(len(index.mate)))
        ids = g.edge_ids()
        assert len(index.tail) == len(index.head) == len(index.ends) == len(ids)
        bits = [0] * len(index.mate)
        vmask = [0] * len(index.blocks)
        for k, (t, h) in enumerate(zip(index.tail, index.head)):
            assert index.mate[t] == h and index.mate[h] == t
            assert index.ends[k] == (index.vert[t], index.vert[h])
            assert index.token[t] == (ids[k], "t") and index.token[h] == (ids[k], "h")
            bits[t] = bits[h] = 1 << k
            vmask[index.vert[t]] |= 1 << k
            vmask[index.vert[h]] |= 1 << k
        assert index.bit == bits and index.vmask == vmask
        # the shape's own index runs each edge from its first half-edge
        pairs = [(min(t, h), max(t, h)) for t, h in zip(index.tail, index.head)]
        assert sorted(zip(twin.tail, twin.head)) == sorted(pairs)
        seen["legs"] |= bool(g.legs)
        seen["loop"] |= any(e.is_loop for e in g.edges)
        seen["bare vertex"] |= any(not seq for seq in rg.rotation.values())
        seen["disconnected"] |= g.components() > 1
    assert all(seen.values()), seen
