"""Rotation systems: faces, genus, quasi-trees, surgery, canonical form."""

import random

import pytest

from feyncomb import fixtures
from feyncomb.checks import random_multigraph, random_ribbon_graph, random_rotation
from feyncomb.graphs import Graph
from feyncomb.linalg import matrix_tree_count
from feyncomb.ribbon import (
    HalfEdges,
    RibbonGraph,
    RotationState,
    chord_faces,
    is_leg_token,
    load_fixture,
    rotation_leaves,
)
from subset_oracle import edge_subsets


def test_fig6_has_two_faces_both_broken():
    rg = fixtures.build("fig6")
    faces = rg.faces()
    assert len(faces) == 2
    assert all(f.broken for f in faces)
    assert rg.broken_faces() == 2
    assert rg.genus() == 0
    assert not rg.is_planar_regular()  # planar irregular


def test_isolated_vertex_one_face():
    rg = RibbonGraph(Graph(["v"], []), {"v": ()})
    assert rg.face_count() == 1
    assert rg.genus() == 0


def test_interleaved_loops_single_face_genus_one():
    rg = fixtures.build("interleaved")
    assert rg.face_count() == 1
    assert rg.genus() == 1
    assert rg.broken_faces() == 0


def test_tadpole_faces_and_planarity():
    rg = fixtures.build("tadpole")
    assert rg.face_count() == 2
    assert rg.genus() == 0


def test_tree_genus_zero():
    rg = fixtures.build("bridge")
    assert rg.genus() == 0
    assert rg.face_count() == 1


def test_single_leg_vertex_planar_regular():
    rg = RibbonGraph(Graph(["v"], [], [("f1", "v", "in")]), {"v": (("f1", "x"),)})
    assert rg.broken_faces() == 1
    assert rg.is_planar_regular()


def test_euler_relation_on_random_ribbon_graphs():
    rng = random.Random(23)
    for _ in range(40):
        rg = random_ribbon_graph(rng, max_vertices=4, max_edges=7)
        g = rg.underlying()
        assert g.components() == 1
        assert len(g.vertices) - len(g.edges) + rg.face_count() == 2 - 2 * rg.genus()


def test_face_deficiency_nonneg_and_even_when_connected():
    rng = random.Random(29)
    for _ in range(25):
        rg = random_ribbon_graph(rng, max_vertices=4, max_edges=6)
        g = rg.underlying()
        ids = sorted(g.all_edges())
        for mask in range(1 << len(ids)):
            sub = frozenset(ids[i] for i in range(len(ids)) if mask >> i & 1)
            defect = g.components(sub) - rg.face_count(sub) + g.nullity(sub)
            assert defect >= 0
            if g.components(sub) == 1:
                assert defect % 2 == 0
                assert defect == 2 * rg.genus(sub)


def test_ribbon_delete_fig6_loop():
    rg = fixtures.build("fig6")
    bare = rg.ribbon_delete("e1")
    assert len(bare.vertices) == 1 and not bare.edges and len(bare.legs) == 2
    assert bare.face_count() == 1


def test_ribbon_contract_bridge_splices():
    rg = RibbonGraph(
        Graph(["u", "v"], [("e", "u", "v")], [("f1", "u", "in"), ("f2", "v", "out")]),
        {"u": (("e", "t"), ("f1", "x")), "v": (("f2", "x"), ("e", "h"))},
    )
    out = rg.ribbon_contract("e")
    assert len(out.vertices) == 1
    (seq,) = out.rotation.values()
    assert set(seq) == {("f1", "x"), ("f2", "x")}
    with pytest.raises(ValueError):
        fixtures.build("tadpole").ribbon_contract("e1")


def test_delete_contract_commute_on_disjoint_edges():
    rg = fixtures.build("ribbonhost")
    a = rg.ribbon_delete("e2").ribbon_contract("e3")
    b = rg.ribbon_contract("e3").ribbon_delete("e2")
    assert a == b


def _assert_state_matches(state: RotationState, oracle: RibbonGraph, at: dict) -> None:
    """The state's rotations, loops, bridges and loop-subset faces are the oracle's."""
    index = {e: k for k, e in enumerate(state.ids)}
    assert sorted(state.ids[k] for k in state.edges) == sorted(e.id for e in oracle.edges)
    labels = set()
    for v in oracle.vertices:
        seq = [at[t] for t in oracle.rotation[v] if not is_leg_token(t)]
        if seq:
            cycle = [seq[0]]
            while state.nxt[cycle[-1]] != seq[0]:
                cycle.append(state.nxt[cycle[-1]])
            assert cycle == seq, v
            assert all(state.prv[state.nxt[h]] == h for h in seq)
            assert len({state.vert[h] for h in seq}) == 1
            labels.add(state.vert[seq[0]])
    assert len(labels) == sum(1 for v in oracle.vertices if any(not is_leg_token(t) for t in oracle.rotation[v]))
    g = oracle.graph
    for e in oracle.edges:
        k = index[e.id]
        assert (state.vert[state.tail[k]] == state.vert[state.head[k]]) == e.is_loop
        if not e.is_loop:
            assert state.is_bridge(k) == (g.classify_edge(e.id) == "bridge"), e.id
    others = len(g.vertices) - 1
    for v in g.vertices:
        loops = sorted(index[e.id] for e in oracle.edges if e.is_loop and e.tail == v)
        want = [
            oracle.face_count({state.ids[k] for i, k in enumerate(loops) if mask >> i & 1}) - others
            for mask in range(1 << len(loops))
        ]
        assert state.loop_faces(loops) == tuple(want), v


def test_rotation_state_surgery_matches_the_ribbon_oracles():
    rng = random.Random(61)
    for trial in range(60):
        if trial % 3:
            rg = random_ribbon_graph(rng, max_vertices=5, max_edges=8, max_legs=3)
        else:  # possibly disconnected
            rg = random_rotation(rng, random_multigraph(rng, max_vertices=5, max_edges=7))
        at = {t: h for h, t in enumerate(rg.half_edges().token)}
        state, oracle = RotationState(rg), rg
        _assert_state_matches(state, oracle, at)
        while oracle.edges:
            e = rng.choice(oracle.edges)
            k = state.ids.index(e.id)
            if e.is_loop or rng.random() < 0.4:
                state.delete(k)
                oracle = oracle.ribbon_delete(e.id)
            else:
                twin = state.copy()
                state.contract(k)
                oracle = oracle.ribbon_contract(e.id)
                assert k in twin.edges  # a copy is not changed by surgery on the original
            _assert_state_matches(state, oracle, at)


def test_rotation_leaves_are_the_spanning_trees():
    # Each leaf contracted a spanning tree, deleted the edges outside it that
    # are not left as loops, and holds only loops on one vertex.
    rng = random.Random(67)
    corpus = [fixtures.build(name) for name in ("fig6", "interleaved", "ribbonhost", "tadpole", "bridge")]
    corpus += [random_ribbon_graph(rng, max_vertices=5, max_edges=8, max_legs=2) for _ in range(60)]
    corpus.append(RibbonGraph(Graph(["v"], []), {"v": ()}))
    for rg in corpus:
        g = rg.graph
        ids = g.edge_ids()
        leaves = list(rotation_leaves(rg))
        assert len(leaves) == matrix_tree_count(g)
        trees = []
        for state, bridges, deleted in leaves:
            assert len({state.vert[h] for k in state.edges for h in (state.tail[k], state.head[k])}) <= 1
            left = sum(1 << k for k in state.edges)
            assert not left & deleted
            tree = frozenset(ids[k] for k in range(len(ids)) if not (left | deleted) >> k & 1)
            assert bridges <= len(tree) == len(g.vertices) - 1
            trees.append(tree)
        assert sorted(map(sorted, trees)) == sorted(map(sorted, g.spanning_trees()))


def test_chord_faces_examples():
    assert chord_faces(()) == (1,)
    assert chord_faces((0, 0)) == (1, 2)  # one loop
    assert chord_faces((0, 0, 1, 1)) == (1, 2, 2, 3)  # two planar loops
    assert chord_faces((0, 1, 0, 1)) == (1, 2, 2, 1)  # interlaced: one face, genus one


def test_quasi_trees_examples():
    assert fixtures.build("tadpole").quasi_trees() == [frozenset()]
    interleaved = fixtures.build("interleaved").quasi_trees()
    assert sorted(interleaved, key=sorted) == [frozenset(), frozenset({"e1", "e2"})]
    assert fixtures.build("bridge").quasi_trees() == [frozenset({"e1"})]


def test_two_quasi_trees_examples():
    assert [t.edges for t in fixtures.build("tadpole").two_quasi_trees()] == [frozenset({"e1"})]
    assert fixtures.build("bridge").two_quasi_trees() == []
    fig6 = fixtures.build("fig6")
    (tq,) = fig6.two_quasi_trees()
    assert tq.edges == frozenset({"e1"})
    assert all(f.broken for f in tq.faces)


def test_quasi_trees_contain_spanning_trees_and_size_bound():
    rng = random.Random(31)
    for _ in range(20):
        rg = random_ribbon_graph(rng, max_vertices=4, max_edges=6)
        g = rg.underlying()
        qts = rg.quasi_trees()
        n_min = len(g.vertices) - 1
        assert all(len(q) >= n_min for q in qts)
        for tree in g.spanning_trees():
            if rg.face_count(tree) == 1:
                assert tree in qts


def _with_faces_by_filter(rg, n_faces):
    """The unpruned oracle: every connected subset with `n_faces` faces."""
    return [sub for sub, k in edge_subsets(rg.graph) if k == 1 and rg.face_count(sub) == n_faces]


def _check_quasi_trees(rg):
    # sorted lists, not sets, so a subset given twice fails
    assert sorted(rg.quasi_trees(), key=sorted) == sorted(_with_faces_by_filter(rg, 1), key=sorted)
    want = [(sub, tuple(rg.faces(sub))) for sub in _with_faces_by_filter(rg, 2)]
    got = [(tq.edges, tq.faces) for tq in rg.two_quasi_trees()]
    assert sorted(got, key=lambda x: sorted(x[0])) == sorted(want, key=lambda x: sorted(x[0]))


def test_pruned_quasi_trees_equal_the_unpruned_filter():
    rng = random.Random(8111)
    corpus = [fixtures.build(name) for name in ("tadpole", "interleaved", "bridge", "fig6", "ribbonhost")]
    corpus += [random_ribbon_graph(rng, max_vertices=5, max_edges=8, max_legs=3) for _ in range(120)]
    genus_qt = genus_tq = False
    for rg in corpus:
        _check_quasi_trees(rg)
        n_v = len(rg.vertices)
        genus_qt |= any(len(q) > n_v - 1 for q in rg.quasi_trees())
        genus_tq |= any(len(tq.edges) > n_v for tq in rg.two_quasi_trees())
    assert genus_qt and genus_tq


def test_pruned_quasi_trees_equal_the_unpruned_filter_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.integers(0, 2**32))
    def check(seed):
        _check_quasi_trees(random_ribbon_graph(random.Random(seed), max_vertices=5, max_edges=8, max_legs=3))

    check()


def test_quasi_trees_record_no_faces(monkeypatch):
    walks = []
    trace = HalfEdges.trace

    def counted(self, mask, record):
        walks.append(record)
        return trace(self, mask, record)

    monkeypatch.setattr(HalfEdges, "trace", counted)
    rg = fixtures.build("interleaved")  # its two-loop quasi-tree is above the smallest size
    assert len(rg.quasi_trees()) == 2
    assert walks and walks.count(True) == 0
    walks.clear()
    assert len(rg.two_quasi_trees()) == walks.count(True) == 2


def test_face_boundary_order():
    fig6 = fixtures.build("fig6")
    faces = fig6.faces()
    legs_per_face = sorted(f.leg_ids() for f in faces)
    assert legs_per_face == [("f1",), ("f2",)]
    for f in faces:
        order = fig6.face_boundary_order(f)
        assert len(order) == 1
        lid, sign = order[0]
        assert sign == (1 if lid == "f1" else -1)
    closed = fixtures.build("tadpole")
    assert all(closed.face_boundary_order(f) == [] for f in closed.faces())


def test_rotation_validation():
    g = Graph(["v"], [("e1", "v", "v")])
    with pytest.raises(ValueError, match="misses"):
        RibbonGraph(g, {"v": (("e1", "t"),)})
    with pytest.raises(ValueError, match="twice"):
        RibbonGraph(g, {"v": (("e1", "t"), ("e1", "t"), ("e1", "h"))})
    with pytest.raises(ValueError, match="wrong vertex"):
        RibbonGraph(
            Graph(["a", "b"], [("e1", "a", "b")]),
            {"a": (("e1", "h"),), "b": (("e1", "t"),)},
        )
    with pytest.raises(ValueError, match="rotation"):
        load_fixture({"type": "ribbon", "vertices": ["v"], "edges": [], "external": []})
    with pytest.raises(ValueError, match="rotation"):
        load_fixture(
            {"type": "graph", "vertices": ["v"], "edges": [], "external": [], "rotation": {"v": []}}
        )


def test_reorient_keeps_embedding():
    rg = fixtures.build("fig6")
    flipped = rg.reorient(["e1"])
    assert flipped.face_count() == rg.face_count()
    assert flipped.genus() == rg.genus()
    assert flipped.canonical_form() == rg.canonical_form()


def test_canonical_form_invariance():
    rng = random.Random(37)
    for _ in range(10):
        rg = random_ribbon_graph(rng, max_vertices=3, max_edges=5)
        g = rg.underlying()
        perm = list(g.vertices)
        rng.shuffle(perm)
        ren = dict(zip(g.vertices, perm))
        g2 = Graph(
            sorted(perm),
            [(e.id, ren[e.tail], ren[e.head]) for e in g.edges],
            [(l.id, ren[l.vertex], l.dir) for l in g.legs],
        )
        k = rng.randint(0, 3)
        rot2 = {}
        for v, seq in rg.rotation.items():
            n = len(seq)
            rolled = tuple(seq[(i + k) % n] for i in range(n)) if n else ()
            rot2[ren[v]] = rolled
        rg2 = RibbonGraph(g2, rot2)
        assert rg.canonical_form() == rg2.canonical_form()


def test_canonical_form_distinguishes_embeddings():
    # planar vs interleaved pair of loops on one vertex
    planar = RibbonGraph(
        Graph(["v"], [("e1", "v", "v"), ("e2", "v", "v")]),
        {"v": (("e1", "t"), ("e1", "h"), ("e2", "t"), ("e2", "h"))},
    )
    assert planar.canonical_form() != fixtures.build("interleaved").canonical_form()
