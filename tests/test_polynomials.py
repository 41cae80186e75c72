"""Tutte/BR family: pinned small values, engine agreement, oracles."""

import random

import pytest

from feyncomb import fixtures
from feyncomb.checks import random_multigraph, random_ribbon_graph, random_rotation
from feyncomb.graphs import Graph
from feyncomb.poly import MultiPoly
from feyncomb.ribbon import RibbonGraph
from feyncomb.polynomials import (
    bollobas_riordan,
    check_br_tutte_specialization,
    check_tutte_relation,
    chromatic,
    count_colorings_oracle,
    count_flows_oracle,
    flow_poly,
    multivariate_br,
    multivariate_tutte,
    tutte,
)

X = MultiPoly.var("x")
Y = MultiPoly.var("y")
Q = MultiPoly.var("q")
Z = MultiPoly.var("z")
K = MultiPoly.var("k")


def bridge_graph():
    return Graph(["a", "b"], [("e1", "a", "b")])


def loop_graph():
    return fixtures.build("selfloop")


def parallel_graph():
    return Graph(["a", "b"], [("e1", "a", "b"), ("e2", "a", "b")])


def test_tutte_terminal_forms():
    assert tutte(bridge_graph()) == X
    assert tutte(loop_graph()) == Y
    assert tutte(fixtures.build("k3")) == X**2 + X + Y
    assert tutte(bridge_graph()).eval_rational({"x": 2, "y": 2}) == 2


def test_tutte_engines_agree_on_fixtures():
    for name in fixtures.names():
        g = fixtures.build(name)
        g = g.underlying() if hasattr(g, "underlying") else g
        assert tutte(g, "subset") == tutte(g, "delcon"), name


def test_multivariate_tutte_values():
    b1 = MultiPoly.var("b.e1")
    assert multivariate_tutte(Graph(["v"], [])) == Q
    assert multivariate_tutte(bridge_graph()) == Q**2 + Q * b1
    assert multivariate_tutte(loop_graph()) == Q + Q * b1
    assert multivariate_tutte(bridge_graph(), "delcon") == Q**2 + Q * b1


def test_tutte_relation_examples():
    assert check_tutte_relation(bridge_graph())
    assert check_tutte_relation(fixtures.build("k3"))
    two_disjoint = Graph(["a", "b", "c", "d"], [("e1", "a", "b"), ("e2", "c", "d")])
    assert check_tutte_relation(two_disjoint)


def test_chromatic_small_values():
    assert chromatic(Graph(["v"], [])) == K
    assert chromatic(bridge_graph()) == K * (K - 1)
    assert chromatic(parallel_graph()) == K * (K - 1)
    assert chromatic(loop_graph()).is_zero()
    k3 = fixtures.build("k3")
    p = chromatic(k3)
    assert p.eval_rational({"k": 3}) == 6 == count_colorings_oracle(k3, 3)
    assert count_colorings_oracle(k3, 2) == 0
    path = Graph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
    assert count_colorings_oracle(path, 2) == 2
    assert count_colorings_oracle(path, 1) == 0
    with pytest.raises(ValueError):
        chromatic(Graph(["a", "b"], []))


def test_flow_small_values():
    assert flow_poly(Graph(["v"], [])) == MultiPoly.one()
    assert flow_poly(bridge_graph()).is_zero()
    assert flow_poly(loop_graph()) == K - 1
    assert flow_poly(parallel_graph()) == K - 1
    assert count_flows_oracle(loop_graph(), 2) == 1
    assert count_flows_oracle(parallel_graph(), 3) == 2
    with pytest.raises(ValueError):
        flow_poly(Graph(["a", "b"], []))


def test_flow_orientation_independent():
    g = fixtures.build("k3")
    assert count_flows_oracle(g, 4) == count_flows_oracle(g.reorient(["e1", "e3"]), 4)


def test_chromatic_flow_match_oracles_on_random_graphs():
    rng = random.Random(41)
    for _ in range(15):
        g = random_multigraph(rng, max_vertices=4, max_edges=6, connected=True)
        chrom = chromatic(g)
        for k in (1, 2, 3):
            assert chrom.eval_rational({"k": k}) == count_colorings_oracle(g, k)
        flow = flow_poly(g)
        for k in (2, 3):
            assert flow.eval_rational({"k": k}) == count_flows_oracle(g, k)


def test_bollobas_riordan_values():
    planar_loop = fixtures.build("tadpole")
    assert bollobas_riordan(planar_loop) == 1 + Y
    assert bollobas_riordan(fixtures.build("interleaved")) == 1 + 2 * Y + Y**2 * Z**2
    assert bollobas_riordan(fixtures.build("bridge")) == X


def test_multivariate_br_values():
    b1 = MultiPoly.var("b.e1")
    isolated = RibbonGraph(Graph(["v"], []), {"v": ()})
    assert multivariate_br(isolated) == X * Z
    assert multivariate_br(RibbonGraph(Graph(["v", "w"], []), {"v": (), "w": ()})) == X**2 * Z**2
    assert multivariate_br(fixtures.build("tadpole")) == X * Z + X * b1 * Z**2
    assert multivariate_br(fixtures.build("bridge")) == X**2 * Z**2 + X * b1 * Z


def test_br_engines_agree_on_fixtures():
    for name in fixtures.ribbon_fixture_names():
        rg = fixtures.build(name)
        assert bollobas_riordan(rg, "subset") == bollobas_riordan(rg, "delcon"), name


def test_br_tutte_specialization_on_random_rotation_systems():
    rng = random.Random(43)
    for _ in range(20):
        rg = random_ribbon_graph(rng, max_vertices=4, max_edges=6)
        assert check_br_tutte_specialization(rg)


def test_tutte_subset_equals_delcon_random():
    rng = random.Random(47)
    for _ in range(25):
        g = random_multigraph(rng, max_vertices=5, max_edges=7)
        assert tutte(g, "subset") == tutte(g, "delcon")


def test_delcon_routes_never_compute_canonical_forms(monkeypatch):
    from feyncomb.hopf import underlying

    def refuse(self):
        raise AssertionError("delcon computed a canonical form")

    monkeypatch.setattr(Graph, "canonical_form", refuse)
    monkeypatch.setattr(RibbonGraph, "canonical_form", refuse)
    hub_spokes = [(f"s{i}", "h", f"v{i}") for i in range(1, 6)]
    rim = [(f"r{i}", f"v{i}", f"v{i % 5 + 1}") for i in range(1, 6)]
    wheel = Graph(["h"] + [f"v{i}" for i in range(1, 6)], hub_spokes + rim)
    graphs = [wheel] + [underlying(fixtures.build(name)) for name in fixtures.names()]
    for g in graphs:
        assert tutte(g, "delcon") == tutte(g, "subset")
    ribbons = [fixtures.build(name) for name in fixtures.ribbon_fixture_names()]
    ribbons.append(random_ribbon_graph(random.Random(53), max_vertices=4, max_edges=7))
    for rg in ribbons:
        assert bollobas_riordan(rg, "delcon") == bollobas_riordan(rg, "subset")


def _br_corpus(seed: int) -> list[RibbonGraph]:
    """Shuffled rotations with legs, loops and parallel edges, non-planar
    wheels, and disconnected multigraphs."""
    rng = random.Random(seed)
    out = [random_ribbon_graph(rng, max_vertices=5, max_edges=8, max_legs=3) for _ in range(30)]
    for n in (3, 4, 5):
        spokes = [(f"s{i}", "h", f"v{i}") for i in range(1, n + 1)]
        rim = [(f"r{i}", f"v{i}", f"v{i % n + 1}") for i in range(1, n + 1)]
        out.append(random_rotation(rng, Graph(["h"] + [f"v{i}" for i in range(1, n + 1)], spokes + rim)))
    out += [random_rotation(rng, random_multigraph(rng, max_vertices=6, max_edges=7)) for _ in range(20)]
    return out


def test_br_delcon_equals_subset_on_a_seeded_corpus():
    corpus = _br_corpus(79)
    assert any(not rg.graph.is_connected() for rg in corpus)
    for rg in corpus:
        assert bollobas_riordan(rg, "delcon") == bollobas_riordan(rg, "subset")


def test_br_routes_agree_on_disconnected_and_isolated_vertices():
    cases = [
        RibbonGraph(Graph(["v"], []), {"v": ()}),
        RibbonGraph(Graph(["v", "w"], []), {"v": (), "w": ()}),
        # a planar loop at v1 and nothing at v2
        RibbonGraph(Graph(["v1", "v2"], [("e1", "v1", "v1")]), {"v1": [("e1", "t"), ("e1", "h")], "v2": []}),
        # a vertex with only legs beside an interleaved pair of loops
        RibbonGraph(
            Graph(["v", "w"], [("a", "v", "v"), ("b", "v", "v")], [("f1", "w", "in"), ("f2", "w", "out")]),
            {"v": [("a", "t"), ("b", "t"), ("a", "h"), ("b", "h")], "w": [("f1", "x"), ("f2", "x")]},
        ),
        # two bridges in two parts, and an isolated vertex
        RibbonGraph(
            Graph(["p", "q", "r", "s", "t"], [("a", "p", "q"), ("b", "r", "s")]),
            {"p": [("a", "t")], "q": [("a", "h")], "r": [("b", "t")], "s": [("b", "h")], "t": []},
        ),
    ]
    for rg in cases:
        assert bollobas_riordan(rg, "subset") == bollobas_riordan(rg, "delcon"), rg


def test_br_delcon_builds_no_graphs(monkeypatch):
    corpus = _br_corpus(83)[::3]
    want = [bollobas_riordan(rg, "subset") for rg in corpus]

    def refuse(*args, **kwargs):
        raise AssertionError("the recursion left the rotation state")

    for owner, attr in (
        (Graph, "__init__"),
        (Graph, "classify_edge"),
        (Graph, "delete_edge"),
        (Graph, "contract_edge"),
        (RibbonGraph, "__init__"),
        (RibbonGraph, "ribbon_delete"),
        (RibbonGraph, "ribbon_contract"),
    ):
        monkeypatch.setattr(owner, attr, refuse)
    assert [bollobas_riordan(rg, "delcon") for rg in corpus] == want


def test_legs_are_ignored_by_tutte_and_br():
    fig4 = fixtures.build("fig4")
    stripped = Graph(fig4.vertices, fig4.edges)
    assert tutte(fig4) == tutte(stripped)
    fig6 = fixtures.build("fig6")
    assert bollobas_riordan(fig6) == bollobas_riordan(fixtures.build("tadpole"))
