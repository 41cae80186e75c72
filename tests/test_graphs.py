"""Multigraph structure: connectivity, surgery, spanning sets, canonical form."""

import json
import random

import pytest

from feyncomb import fixtures, graphs
from feyncomb.checks import random_conserved_momenta
from feyncomb.graphs import Graph, bridge_mask, graph_from_json_dict, mask_edges
from feyncomb.linalg import matrix_tree_count
from feyncomb.parametric import alpha_product, symanzik_v
from feyncomb.poly import MultiPoly
from feyncomb.ribbon import load_fixture
from subset_oracle import bfs_components, edge_subsets, flooded_two_forests


def fig3():
    return fixtures.build("fig3")


def triangle():
    return fixtures.build("k3")


def test_components_rank_nullity():
    g = Graph(["a", "b", "c"], [])
    assert g.components() == 3
    assert g.rank() == 0
    g3 = fig3()
    assert g3.components({"e1", "e2"}) == 1
    assert g3.components(frozenset()) == 3
    with pytest.raises(KeyError, match="unknown edge id 'e9'"):
        g3.components({"e1", "e9"})
    assert g3.rank() == 2
    assert g3.nullity() == 2  # two independent cycles
    single = Graph(["v"], [])
    assert single.components() == 1


def test_nullity_small_cases():
    tree = Graph(["a", "b"], [("e1", "a", "b")])
    assert tree.nullity() == 0
    loop = fixtures.build("selfloop")
    assert loop.nullity() == 1


def test_classify_edge():
    bridge = Graph(["a", "b"], [("e1", "a", "b")])
    assert bridge.classify_edge("e1") == "bridge"
    loop = fixtures.build("selfloop")
    assert loop.classify_edge("e1") == "self_loop"
    for e in triangle().edges:
        assert triangle().classify_edge(e.id) == "regular"
    with pytest.raises(KeyError):
        bridge.classify_edge("nope")


def test_delete_contract():
    bridge = Graph(["a", "b"], [("e1", "a", "b")])
    contracted = bridge.contract_edge("e1")
    assert len(contracted.vertices) == 1 and not contracted.edges
    path = triangle().delete_edge("e2")
    assert path.components() == 1 and len(path.edges) == 2
    loop = fixtures.build("selfloop")
    assert loop.contract_edge("e1") == loop.delete_edge("e1")


def test_surgery_counts():
    rng = random.Random(3)
    for _ in range(20):
        nv = rng.randint(2, 5)
        verts = [f"v{i}" for i in range(nv)]
        edges = [
            (f"e{i}", rng.choice(verts), rng.choice(verts)) for i in range(rng.randint(1, 7))
        ]
        g = Graph(verts, edges)
        e = rng.choice(g.edges).id
        deleted = g.delete_edge(e)
        assert len(deleted.edges) == len(g.edges) - 1
        assert g.components() <= deleted.components() <= g.components() + 1
        assert len(g.contract_edge(e).edges) == len(g.edges) - 1


def test_contract_moves_legs_to_merged_vertex():
    g = Graph(
        ["a", "b"],
        [("e1", "a", "b")],
        [("f1", "b", "in")],
    )
    merged = g.contract_edge("e1")
    assert merged.leg("f1").vertex == merged.vertices[0]


def test_spanning_trees():
    g3 = fig3()
    trees = {tuple(sorted(t)) for t in g3.spanning_trees()}
    assert trees == {("e1", "e2"), ("e1", "e3"), ("e1", "e4"), ("e2", "e3"), ("e2", "e4")}
    assert Graph(["v"], []).spanning_trees() == [frozenset()]
    assert len(triangle().spanning_trees()) == 3
    with pytest.raises(ValueError):
        Graph(["a", "b"], []).spanning_trees()


def test_trees_and_two_forests_keep_lexicographic_order():
    g3 = fig3()
    trees = [("e1", "e2"), ("e1", "e3"), ("e1", "e4"), ("e2", "e3"), ("e2", "e4")]
    assert g3.spanning_trees() == [frozenset(t) for t in trees]
    assert [t.edges for t in g3.spanning_two_trees()] == [frozenset({e}) for e in ("e1", "e2", "e3", "e4")]


def test_spanning_trees_count_matches_kirchhoff():
    rng = random.Random(5)
    for _ in range(25):
        nv = rng.randint(2, 5)
        verts = [f"v{i}" for i in range(nv)]
        edges = []
        for i in range(rng.randint(nv - 1, 8)):
            a, b = rng.sample(verts, 2)  # no self-loops
            edges.append((f"e{i}", a, b))
        g = Graph(verts, edges)
        if not g.is_connected():
            continue
        assert len(g.spanning_trees()) == matrix_tree_count(g)


def test_spanning_two_trees():
    bridge = Graph(["v1", "v2"], [("e1", "v1", "v2")])
    (tt,) = bridge.spanning_two_trees()
    assert tt.edges == frozenset()
    assert tt.parts == (frozenset({"v1"}), frozenset({"v2"}))
    assert len(triangle().spanning_two_trees()) == 3
    g3 = fig3()
    split = {tuple(sorted(t.edges)): t for t in g3.spanning_two_trees()}
    assert set(split) == {("e1",), ("e2",), ("e3",), ("e4",)}
    # the two-trees {e3} and {e4} isolate v1 and carry legs f1, f2 there
    assert split[("e3",)].legs == (("f1", "f2"), ("f3", "f4"))


def test_spanning_two_trees_match_component_split():
    # vertex order shuffled, so the part with the smallest id is often not
    # the part of the first vertex; legs in random id order
    rng = random.Random(61)
    for _ in range(40):
        verts = [f"v{i}" for i in range(rng.randint(2, 6))]
        rng.shuffle(verts)
        n_edges = rng.randint(len(verts) - 1, 8)
        edges = [(f"e{i}", rng.choice(verts), rng.choice(verts)) for i in range(n_edges)]
        legs = [(f"f{rng.randint(0, 9)}{i}", rng.choice(verts), "in") for i in range(rng.randint(0, 4))]
        g = Graph(verts, edges, legs)
        if not g.is_connected():
            continue
        expected = []
        for sub, k in edge_subsets(g, len(verts) - 2):
            if k == 2:
                a, b = bfs_components(g, sub)
                split = tuple(tuple(sorted(l.id for l in g.legs if l.vertex in part)) for part in (a, b))
                expected.append((sub, (a, b), split))
        assert [(t.edges, t.parts, t.legs) for t in g.spanning_two_trees()] == expected


def test_is_one_pi():
    assert not Graph(["a", "b"], [("e1", "a", "b")]).is_one_pi()
    assert fixtures.build("fig4").is_one_pi()
    two = Graph(["a", "b"], [], [])
    assert not two.is_one_pi()
    assert Graph(["a"], []).is_one_pi()
    assert not Graph([], []).is_one_pi()
    assert Graph(["a", "b"], [("e1", "a", "b"), ("e2", "b", "a")]).is_one_pi()
    assert Graph(["a"], [("e1", "a", "a")]).is_one_pi()


def _one_pi_by_classification(g):
    return g.is_connected() and all(g.classify_edge(e.id) != "bridge" for e in g.edges)


def _multigraph(n_vertices, pairs):
    verts = [f"v{i}" for i in range(n_vertices)]
    return Graph(verts, [(f"e{i}", verts[a], verts[b]) for i, (a, b) in enumerate(pairs)])


def test_is_one_pi_matches_bridge_classification():
    rng = random.Random(1974)
    corpus = [Graph([], [])]
    for _ in range(400):
        n = rng.randint(1, 6)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 10))]
        corpus.append(_multigraph(n, pairs))
    seen = set()
    for g in corpus:
        expected = _one_pi_by_classification(g)
        assert g.is_one_pi() == expected, g.to_json()
        touched = {v for e in g.edges for v in (e.tail, e.head)}
        pairs = [frozenset((e.tail, e.head)) for e in g.edges]
        seen |= {
            ("one_pi", expected),
            ("self_loop", any(e.is_loop for e in g.edges)),
            ("parallel", len(set(pairs)) < len(pairs)),
            ("isolated", len(g.vertices) > 1 and len(touched) < len(g.vertices)),
            ("disconnected", g.components() > 1),
            ("empty", not g.vertices),
        }
    assert all((kind, True) in seen for kind in ("self_loop", "parallel", "isolated", "disconnected", "empty"))
    assert ("one_pi", False) in seen and ("one_pi", True) in seen


def test_is_one_pi_matches_bridge_classification_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def multigraphs(draw):
        n = draw(st.integers(0, 6))
        if not n:
            return Graph([], [])
        index = st.integers(0, n - 1)
        return _multigraph(n, draw(st.lists(st.tuples(index, index), max_size=10)))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(multigraphs())
    def check(g):
        assert g.is_one_pi() == _one_pi_by_classification(g)

    check()


def _named_multigraph(names, pairs):
    """Vertices in the given (unsorted) order; edge ids listed against their sorted order."""
    n = len(pairs)
    return Graph(names, [(f"e{n - 1 - i}", names[a], names[b]) for i, (a, b) in enumerate(pairs)])


def _part_of_first(g, sub):
    """The positions of the component of (V, sub) holding position 0, as a mask."""
    (part,) = [p for p in bfs_components(g, sub) if g.vertices[0] in p]
    return sum(1 << i for i, v in enumerate(g.vertices) if v in part)


def _check_edge_walk(g):
    """Each mode of `Graph.edge_walk` against the brute-force oracle, and
    the two-forest parts and V against the flooded parts.

    Every mode must give each of its subsets once (sorted lists, so a
    subset given twice fails), and the subsets of one size in the oracle's
    lexicographic order; so trees and two-forests, all of one size, come in
    exactly the oracle's order.  With c set, each subset comes with the
    part of position 0.
    """
    ids = g.edge_ids()
    expected = list(edge_subsets(g))
    n = len(g.vertices)
    modes = [(None, False)] + [(c, forests) for c in (1, 2, 3) for forests in (False, True)]
    for c, forests in modes:
        want = [
            (sub, k if c is None else _part_of_first(g, sub))
            for sub, k in expected
            if c is None or k == c and (not forests or len(sub) == n - k)
        ]
        got = [(mask_edges(ids, mask), k) for mask, k in g.edge_walk(c, forests)]
        assert sorted(got, key=_by_ids) == sorted(want, key=_by_ids), (c, forests)
        for r in range(len(ids) + 1):
            assert [x for x in got if len(x[0]) == r] == [x for x in want if len(x[0]) == r], (c, forests, r)
    for sub, _ in expected:
        assert g.component_vertex_sets(sub) == bfs_components(g, sub)
    assert g.component_vertex_sets() == bfs_components(g, ids)
    pos = {v: i for i, v in enumerate(g.vertices)}
    bridges = bridge_mask(n, [(pos[g.edge(e).tail], pos[g.edge(e).head]) for e in ids])
    assert mask_edges(ids, bridges) == {e for e in ids if g.classify_edge(e) == "bridge"}
    if g.is_connected():
        flooded = list(flooded_two_forests(g))
        assert list(g._two_forests()) == flooded
        _check_v_against_flooded_parts(g, flooded)


def _check_v_against_flooded_parts(g, flooded):
    """V of `g` with a leg at each vertex, under both part choices, against
    the sum over the flooded two-forests of the complement alpha product
    times the squared momentum into the chosen part."""
    legs = [(f"f{i}", v, "in" if i % 2 else "out") for i, v in enumerate(g.vertices)]
    legged = Graph(g.vertices, g.edges, legs)
    ext = random_conserved_momenta(random.Random(len(g.edges)), legged)
    ids = g.edge_ids()
    flow = [tuple(l.sign * c for c in ext[l.id]) for l in legged.legs]  # leg i sits at vertex position i
    for choice in (0, 1):
        want = []
        for mask, part in flooded:
            side = part if choice == 0 else ~part
            p = [sum(c) for c in zip((0, 0, 0, 0), *(q for i, q in enumerate(flow) if side >> i & 1))]
            alphas = alpha_product(e for i, e in enumerate(ids) if not mask >> i & 1)
            want.append(alphas * sum(x * x for x in p))
        assert symanzik_v(legged, ext, component=choice) == MultiPoly.sum(want), choice


def _by_ids(pair):
    return sorted(pair[0]), pair[1]


def test_edge_subsets_match_bfs_oracle():
    """The subsets of every `edge_walk` mode match the oracle on a seeded corpus."""
    rng = random.Random(2011)
    corpus = [Graph([], []), _named_multigraph(["b", "a", "c"], [])]
    for _ in range(150):
        n = rng.randint(1, 7)
        names = [f"v{i}" for i in range(n)]
        rng.shuffle(names)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 7))]
        corpus.append(_named_multigraph(names, pairs))
    seen = set()
    for g in corpus:
        _check_edge_walk(g)
        touched = {v for e in g.edges for v in (e.tail, e.head)}
        pairs = [frozenset((e.tail, e.head)) for e in g.edges]
        seen |= {
            ("self_loop", any(e.is_loop for e in g.edges)),
            ("parallel", len(set(pairs)) < len(pairs)),
            ("isolated", len(touched) < len(g.vertices)),
            ("unsorted", list(g.vertices) != sorted(g.vertices)),
            ("disconnected", g.components() > 1),
            ("edgeless", not g.edges),
            ("two-forests", g.is_connected() and len(g.vertices) > 2 and len(g.edges) >= len(g.vertices)),
        }
    kinds = ("self_loop", "parallel", "isolated", "unsorted", "disconnected", "edgeless", "two-forests")
    assert all((kind, True) in seen for kind in kinds)


def test_edge_subsets_match_bfs_oracle_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def multigraphs(draw):
        n = draw(st.integers(0, 6))
        names = draw(st.permutations([f"v{i}" for i in range(n)]))
        if not n:
            return Graph([], [])
        index = st.integers(0, n - 1)
        return _named_multigraph(names, draw(st.lists(st.tuples(index, index), max_size=7)))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(multigraphs())
    def check(g):
        _check_edge_walk(g)

    check()


def test_edge_walk_on_a_long_path_between_two_triangles(monkeypatch):
    """Every path edge is a bridge, so each walk finds the bridges once, by
    one DFS, and then never floods for them: the counts are those of the
    two triangles (3 trees and 4 connected spanning subsets each), and a
    two-forest cuts one path edge or splits one triangle.  The ids sort out
    of path order."""
    dfs = []
    monkeypatch.setattr(graphs, "bridge_mask", lambda n, ends: dfs.append(n) or bridge_mask(n, ends))
    n = 100
    path = [(f"e{i}", f"p{i}", f"p{i + 1}") for i in range(n)]
    ends = [("a1", "p0", "x1"), ("a2", "x1", "x2"), ("a3", "x2", "p0")]
    ends += [("b1", f"p{n}", "y1"), ("b2", "y1", "y2"), ("b3", "y2", f"p{n}")]
    g = Graph([f"p{i}" for i in range(n + 1)] + ["x1", "x2", "y1", "y2"], path + ends)
    ids = g.edge_ids()
    trees = [mask_edges(ids, mask) for mask, _ in g.edge_walk(1, True)]
    assert len(trees) == 9 and all(len(t) == len(g.vertices) - 1 and g.components(t) == 1 for t in trees)
    assert len(list(g.edge_walk(1))) == 16
    forests = list(g._two_forests())
    assert len(forests) == n * 9 + 2 * 3 * 3
    for mask, part in forests[:: n // 4]:
        sub = mask_edges(ids, mask)
        first = min(bfs_components(g, sub), key=min)
        assert part == sum(1 << i for i, v in enumerate(g.vertices) if v in first)
    assert len(dfs) == 3


def test_reorient_preserves_structure():
    g3 = fig3()
    flipped = g3.reorient(["e1", "e3"])
    assert flipped.edge("e1").tail == "v2"
    assert flipped.canonical_form() == g3.canonical_form()


def test_canonical_form_relabel_invariance():
    g = triangle()
    relabeled = Graph(
        ["x", "y", "z"],
        [("p", "y", "z"), ("q", "z", "x"), ("r", "x", "y")],
    )
    assert g.canonical_form() == relabeled.canonical_form()
    path = Graph(["x", "y", "z"], [("p", "x", "y"), ("q", "y", "z")])
    assert g.canonical_form() != path.canonical_form()


def test_canonical_form_ten_vertex_random_relabel():
    rng = random.Random(17)
    verts = [f"v{i}" for i in range(10)]
    edges = []
    for i in range(14):
        a, b = rng.choice(verts), rng.choice(verts)
        edges.append((f"e{i}", a, b))
    legs = [("f0", rng.choice(verts), "in")]
    g = Graph(verts, edges, legs)
    perm = verts[:]
    rng.shuffle(perm)
    ren = dict(zip(verts, perm))
    g2 = Graph(
        sorted(perm),
        [(f"w{i}", ren[t], ren[h]) for i, (_, t, h) in enumerate((e.id, e.tail, e.head) for e in g.edges)],
        [("g0", ren[g.legs[0].vertex], "out")],
    )
    assert g.canonical_form() == g2.canonical_form()


def test_json_roundtrip_and_validation():
    g3 = fig3()
    again = graph_from_json_dict(json.loads(g3.to_json()))
    assert again == g3
    with pytest.raises(ValueError, match="type"):
        load_fixture({"type": "nope", "vertices": [], "edges": []})
    with pytest.raises(ValueError, match="endpoint"):
        graph_from_json_dict(
            {"type": "graph", "vertices": ["a"], "edges": [{"id": "e", "tail": "a", "head": "b"}]}
        )
    with pytest.raises(ValueError, match="missing field"):
        graph_from_json_dict({"type": "graph", "vertices": []})


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError):
        Graph(["a", "a"], [])
    with pytest.raises(ValueError):
        Graph(["a"], [("e", "a", "a"), ("e", "a", "a")])
    with pytest.raises(ValueError):
        Graph(["a"], [], [("f", "a", "sideways")])
