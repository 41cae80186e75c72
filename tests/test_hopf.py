"""Connes-Kreimer machinery: coproduct, antipode, forests, BPHZ, insertion."""

import itertools
import random

import pytest

from feyncomb import fixtures, hopf
from feyncomb.checks import random_multigraph, random_phi4_graph
from feyncomb.formal import FormalAmplitude
from feyncomb.graphs import Graph
from feyncomb.hopf import (
    GraphSum,
    HopfAlgebra,
    TensorSum,
    cograph,
    insert,
    member_graph,
    member_vertices,
)
from feyncomb.ribbon import RibbonGraph
from test_canonical import _relabelled as _relabelled_ribbon
from test_canonical import cut_circulant

GAMMA5 = frozenset({"e1", "e2"})


@pytest.fixture
def h():
    return HopfAlgebra("phi4")


def fig4():
    return fixtures.build("fig4")


def fig5():
    return fixtures.build("fig5")


def test_divergent_members_examples(h):
    assert h.divergent_members(fig4()) == []
    assert h.divergent_members(fig5()) == [GAMMA5]
    two = fixtures.build("twobubble")
    fams = h.families(two)
    assert sorted(tuple(sorted(sorted(m) for m in f)) for f in fams) == [
        (["e1", "e2"],),
        (["e1", "e2"], ["e4", "e5"]),
        (["e4", "e5"],),
    ]


def test_divergent_members_require_one_pi(h):
    bridge = Graph(["a", "b"], [("e1", "a", "b")])
    for _ in range(2):  # the label is kept, the refusal too
        with pytest.raises(ValueError, match="coproduct requires a 1PI graph"):
            h.coproduct(bridge)


def test_subgraph_external_legs(h):
    # the legs of a member are the half-edges its vertices hold beyond its own edges
    g5 = fig5()
    for member, legs in ((GAMMA5, 4), (g5.all_edges(), 3)):  # the whole host keeps its own 3 legs
        degrees = sum(g5.degree(v) for v in member_vertices(g5, member))
        assert len(member_graph(g5, member).legs) == degrees - 2 * len(member) == legs
    g4 = fig4()
    for v in g4.vertices:  # an edgeless member at v would have v's 4 half-edges as legs
        assert g4.degree(v) == 4


def test_cograph_shape(h):
    g5 = fig5()
    co = cograph(g5, [GAMMA5])
    assert len(co.vertices) == 3 and len(co.edges) == 4
    # the bubble pair e4/e6 survives as a double edge of the cograph
    pair = {tuple(sorted((e.tail, e.head))) for e in co.edges if e.id in ("e4", "e6")}
    assert len(pair) == 1
    whole = cograph(g4 := fig4(), [g4.all_edges()])
    assert len(whole.vertices) == 1 and not whole.edges and len(whole.legs) == 4


def test_member_graph_legs(h):
    sub = member_graph(fig5(), GAMMA5)
    assert len(sub.legs) == 4
    assert sub.canonical_form() == fig4().canonical_form()


def test_coproduct_examples(h):
    g4 = fig4()
    l4 = h.label(g4)
    assert h.coproduct(g4) == TensorSum.tensor((l4,), ()) + TensorSum.tensor((), (l4,))
    g5 = fig5()
    l5 = h.label(g5)
    lg = h.label(member_graph(g5, GAMMA5))
    lco = h.label(cograph(g5, [GAMMA5]))
    want = (
        TensorSum.tensor((l5,), ())
        + TensorSum.tensor((), (l5,))
        + TensorSum.tensor((lg,), (lco,))
    )
    assert h.coproduct(g5) == want
    assert h.coproduct_monomial(()) == TensorSum.unit()  # Delta(1) = 1 (x) 1


def test_coproduct_monomial_reuses_labels(h, monkeypatch):
    g5 = fig5()
    mono = tuple(sorted({lbl for (left, _), _ in h.coproduct(g5).terms.items() for lbl in left}))
    assert len(mono) == 2
    expected = h.coproduct_monomial(mono)
    calls = []
    canonical_form = Graph.canonical_form
    monkeypatch.setattr(Graph, "canonical_form", lambda g: calls.append(g) or canonical_form(g))
    assert h.coproduct_monomial(mono) == expected
    assert calls == []
    with pytest.raises(ValueError):
        h.coproduct(Graph(["a", "b"], [("e1", "a", "b")]))


def _fixture_models():
    """(fixture, model) for every fixture whose coproduct the model answers:
    the others are not 1PI, plain under gw, or have a member with two broken
    faces, which a ribbon shrink refuses."""
    out = []
    for name in sorted(fixtures.FIXTURES):
        for model in hopf.MODELS:
            try:
                HopfAlgebra(model).coproduct(fixtures.build(name))
            except ValueError:
                continue
            out.append((name, model))
    return out


@pytest.mark.parametrize("name, model", _fixture_models())
def test_each_graph_is_labelled_once_per_algebra(monkeypatch, name, model):
    # Labels are memoised by shape, and each label's splits are read off the
    # index of its shape: no shape is searched twice on one algebra, and the
    # label routes build no member graph, cograph, Graph or RibbonGraph.  The
    # algebra keeps each graph object's label and the labels found 1PI, so the
    # coproduct and the four axiom checks read the shape and test 1PI once.
    g = fixtures.build(name)
    h = HopfAlgebra(model)
    reads = []
    for owner in (Graph, RibbonGraph):
        monkeypatch.setattr(owner, "shape", lambda x, real=owner.shape: reads.append(("shape", x)) or real(x))
    monkeypatch.setattr(Graph, "is_one_pi", lambda x, real=Graph.is_one_pi: reads.append(("1pi", x)) or real(x))
    searched = []
    for cls in (hopf._GraphShapes, hopf._RibbonShapes):
        monkeypatch.setattr(cls, "code", staticmethod(lambda shape, real=cls.code: searched.append(shape) or real(shape)))
    built = []
    for owner, attr in ((hopf, "member_graph"), (hopf, "cograph"), (Graph, "__init__"), (RibbonGraph, "__init__")):
        real = getattr(owner, attr)
        monkeypatch.setattr(owner, attr, lambda *a, real=real, attr=attr: built.append(attr) or real(*a))
    h.coproduct(g)
    assert h.check_coassociativity(g) and h.check_hopf_axioms(g)
    assert h.check_counit(g) and h.check_grading(g)
    assert [(what, id(x)) for what, x in reads] == [("shape", id(g)), ("1pi", id(hopf.underlying(g)))]
    host = h.label(g)
    h.antipode(g)
    assert h.renormalized(g) == h.bogoliubov_hopf(g) - h.bogoliubov_hopf(g).project()
    assert built == []
    assert len(set(searched)) == len(searched)  # no shape twice
    assert searched[0] == g.shape() and h.graph_of(host) is g  # the host is labelled


def test_ribbon_hash_agrees_with_cyclic_equality():
    rg = fixtures.build("ribbonhost")
    rotated = RibbonGraph(rg.graph, {v: seq[1:] + seq[:1] for v, seq in rg.rotation.items()})
    assert rotated.rotation != rg.rotation
    assert rotated == rg and hash(rotated) == hash(rg)
    assert {rg: "label"}[rotated] == "label"


def test_counit(h):
    g4 = fig4()
    l4 = h.label(g4)
    assert GraphSum.unit().counit() == 1
    assert GraphSum.from_label(l4).counit() == 0
    mixed = GraphSum({(): 3, (l4,): 2})
    assert mixed.counit() == 3


def test_antipode_examples(h):
    assert h.antipode_monomial(()) == GraphSum.unit()  # S(1) = 1
    g4 = fig4()
    assert h.antipode(g4) == -GraphSum.from_label(h.label(g4))
    g5 = fig5()
    l5 = h.label(g5)
    lg = h.label(member_graph(g5, GAMMA5))
    lco = h.label(cograph(g5, [GAMMA5]))
    want = -GraphSum.from_label(l5) + GraphSum.monomial((lg, lco))
    assert h.antipode(g5) == want


def test_axioms_on_fixtures(h):
    for name in ("fig4", "fig5", "nestedchain", "twobubble"):
        g = fixtures.build(name)
        assert h.check_coassociativity(g), name
        assert h.check_hopf_axioms(g), name
        assert h.check_counit(g), name
        assert h.check_grading(g), name


def test_nested_chain_structure(h):
    chain = fixtures.build("nestedchain")
    members = h.divergent_members(chain)
    inner = frozenset({"e2", "e3"})
    outer = frozenset({"e1", "e2", "e3", "e4", "e5"})
    assert members == [inner, outer]
    # nested members never form one family, but both forests exist
    assert all(len(f) == 1 for f in h.families(chain))
    forests = {
        tuple(sorted(tuple(sorted(m)) for m in f)) for f in h.zimmermann_forests(chain)
    }
    nested_pair = tuple(sorted([tuple(sorted(inner)), tuple(sorted(outer))]))
    assert nested_pair in forests


def test_grading(h):
    assert h.grading_monomial(()) == 0
    assert h.grading_label(h.label(fig4())) == 1
    assert h.grading_label(h.label(fig5())) == 3


def test_zimmermann_forests_examples(h):
    assert h.zimmermann_forests(fig4()) == [()]
    assert h.zimmermann_forests(fig5()) == [(), (GAMMA5,)]
    two = fixtures.build("twobubble")
    assert len(h.zimmermann_forests(two)) == 4


def test_bogoliubov_examples(h):
    g4 = fig4()
    assert h.bogoliubov_forest(g4) == FormalAmplitude.phi(h.label(g4))
    g5 = fig5()
    want = FormalAmplitude.phi(h.label(g5)) - FormalAmplitude.phi(
        h.label(member_graph(g5, GAMMA5))
    ).project() * FormalAmplitude.phi(h.label(cograph(g5, [GAMMA5])))
    assert h.bogoliubov_hopf(g5) == want
    assert h.bogoliubov_forest(g5) == want


def test_two_bubble_forest_expansion(h):
    two = fixtures.build("twobubble")
    g1, g2 = frozenset({"e1", "e2"}), frozenset({"e4", "e5"})
    t1 = FormalAmplitude.phi(h.label(member_graph(two, g1))).project()
    t2 = FormalAmplitude.phi(h.label(member_graph(two, g2))).project()
    want = (
        FormalAmplitude.phi(h.label(two))
        - t1 * FormalAmplitude.phi(h.label(cograph(two, [g1])))
        - t2 * FormalAmplitude.phi(h.label(cograph(two, [g2])))
        + t1 * t2 * FormalAmplitude.phi(h.label(cograph(two, [g1, g2])))
    )
    assert h.bogoliubov_forest(two) == want
    assert h.bogoliubov_hopf(two) == want


def test_twisted_antipode_examples(h):
    assert h.twisted_antipode_monomial(()) == FormalAmplitude.one()  # phi_minus(1) = 1
    g4 = fig4()
    assert h.twisted_antipode_monomial((h.label(g4),)) == -FormalAmplitude.phi(h.label(g4)).project()
    g5 = fig5()
    # phi_minus(Gamma) = -T[ phi(Gamma) + phi_minus(gamma) phi(Gamma/gamma) ]
    inner = FormalAmplitude.phi(h.label(g5)) + h.twisted_antipode_monomial(
        (h.label(member_graph(g5, GAMMA5)),)
    ) * FormalAmplitude.phi(h.label(cograph(g5, [GAMMA5])))
    assert h.twisted_antipode_monomial((h.label(g5),)) == -inner.project()


def test_convolution_examples(h):
    g5 = fig5()

    def eps_unit(mono):
        return FormalAmplitude.one() if not mono else FormalAmplitude.zero()

    assert h.convolution(eps_unit, h.phi, g5) == h.phi((h.label(g5),))
    g4 = fig4()
    phi4_amp = FormalAmplitude.phi(h.label(g4))
    assert h.renormalized(g4) == phi4_amp - phi4_amp.project()
    # phi_minus * phi on the unit monomial is the unit
    total = FormalAmplitude.zero()
    for (a, b), c in h.coproduct_monomial(()).terms.items():
        total = total + c * (h.twisted_antipode_monomial(a) * h.phi(b))
    assert total == FormalAmplitude.one()


def test_grading_and_divergent_subgraphs_aliases(h):
    assert fig4().nullity() == 1
    assert fig5().nullity() == 3
    assert h.families(fig4()) == []
    assert h.families(fig5()) == [(GAMMA5,)]


def test_renormalized_is_id_minus_t_of_rbar(h):
    for name in ("fig4", "fig5", "nestedchain", "twobubble"):
        g = fixtures.build(name)
        rbar = h.bogoliubov_hopf(g)
        assert h.renormalized(g) == rbar - rbar.project(), name
        assert h.bogoliubov_forest(g) == rbar, name


def test_random_phi4_suite():
    rng = random.Random(97)
    h_phi4 = HopfAlgebra("phi4")
    h_core = HopfAlgebra("core")
    for _ in range(8):
        g = random_phi4_graph(rng, max_loops=3)
        assert h_phi4.check_coassociativity(g)
        assert h_phi4.check_hopf_axioms(g)
        assert h_core.check_coassociativity(g)
        assert h_phi4.bogoliubov_forest(g) == h_phi4.bogoliubov_hopf(g)


def test_single_subgraph_coproduct_breaks_coassociativity():
    h_neg = HopfAlgebra("phi4", products=False)
    assert not h_neg.check_coassociativity(fixtures.build("twobubble"))
    h_ok = HopfAlgebra("phi4", products=True)
    assert h_ok.check_coassociativity(fixtures.build("twobubble"))


def test_tadpole_flag_both_paths():
    host = fixtures.build("ribbonhost").underlying()
    with_tadpoles = HopfAlgebra("phi4", include_tadpoles=True)
    without = HopfAlgebra("phi4", include_tadpoles=False)
    assert frozenset({"e1"}) in with_tadpoles.divergent_members(host)
    assert frozenset({"e1"}) not in without.divergent_members(host)
    assert with_tadpoles.check_coassociativity(host)


def test_gw_model():
    h_gw = HopfAlgebra("gw")
    host = fixtures.build("ribbonhost")
    assert h_gw.divergent_members(host) == [frozenset({"e1"})]
    assert h_gw.check_coassociativity(host)
    assert h_gw.check_hopf_axioms(host)
    # the double edge alone is planar irregular, hence not divergent
    assert frozenset({"e2", "e3"}) not in h_gw.divergent_members(host)
    # but it is divergent for phi4 on the underlying graph
    h_phi4 = HopfAlgebra("phi4")
    assert frozenset({"e2", "e3"}) in h_phi4.divergent_members(host.underlying())
    with pytest.raises(ValueError):
        h_gw.divergent_members(fixtures.build("fig4"))
    with pytest.raises(ValueError):
        HopfAlgebra("nope")


def test_insert_trivial_vertex(h):
    g4 = fig4()
    triv = Graph(
        ["w"],
        [],
        [("p1", "w", "in"), ("p2", "w", "in"), ("p3", "w", "out"), ("p4", "w", "out")],
    )
    glue = {"p1": ("e1", "t"), "p2": ("e2", "t"), "p3": ("f1", "x"), "p4": ("f2", "x")}
    assert insert(g4, triv, glue).canonical_form() == g4.canonical_form()


def test_insert_four_leg_subgraph_and_duality(h):
    g4 = fig4()
    glue = {"f1": ("e1", "t"), "f2": ("e2", "t"), "f3": ("f1", "x"), "f4": ("f2", "x")}
    big = insert(g4, g4, glue)
    # vertex insertion of a 4-leg subgraph: V = V1+V2-1, I = I1+I2, E = E1
    assert len(big.vertices) == 3 and len(big.edges) == 4 and len(big.legs) == 4
    image = frozenset(e.id for e in big.edges if e.id.startswith("i."))
    assert cograph(big, [image]).canonical_form() == g4.canonical_form()
    assert member_graph(big, image).canonical_form() == g4.canonical_form()
    assert big.is_one_pi()


def test_insert_two_leg_subgraph_on_edge(h):
    host = fig4()
    sub = Graph(
        ["u", "w"],
        [("s1", "u", "w"), ("s2", "u", "w")],
        [("p1", "u", "in"), ("p2", "w", "out")],
    )
    glue = {"p1": ("e1", "t"), "p2": ("e1", "h")}
    big = insert(host, sub, glue)
    # propagator insertion: I = I1 + I2 + 1, external count unchanged
    assert len(big.edges) == len(host.edges) + len(sub.edges) + 1
    assert len(big.legs) == len(host.legs)
    assert len(big.vertices) == len(host.vertices) + len(sub.vertices)
    assert big.is_one_pi()


def test_phi4_leg_arithmetic_on_random_graphs():
    rng = random.Random(101)
    for _ in range(10):
        g = random_phi4_graph(rng, max_loops=3)
        assert 4 * len(g.vertices) == 2 * len(g.edges) + len(g.legs)


def test_insert_arity_mismatch(h):
    g4 = fig4()
    with pytest.raises(ValueError, match="legs"):
        insert(g4, g4, {"f1": ("e1", "t")})


def test_ribbon_insert_respects_cyclic_order():
    host = RibbonGraph(
        Graph(
            ["v1", "v2"],
            [("e2", "v1", "v2"), ("e3", "v1", "v2")],
            [("g1", "v1", "in"), ("g2", "v1", "out"), ("f1", "v2", "in"), ("f2", "v2", "out")],
        ),
        {
            "v1": (("e2", "t"), ("e3", "t"), ("g1", "x"), ("g2", "x")),
            "v2": (("e2", "h"), ("e3", "h"), ("f1", "x"), ("f2", "x")),
        },
    )
    sub = RibbonGraph(
        Graph(
            ["w"],
            [("s1", "w", "w")],
            [("p1", "w", "in"), ("p2", "w", "in"), ("p3", "w", "out"), ("p4", "w", "out")],
        ),
        {"w": (("s1", "t"), ("s1", "h"), ("p1", "x"), ("p2", "x"), ("p3", "x"), ("p4", "x"))},
    )
    good = {"p1": ("e2", "t"), "p2": ("e3", "t"), "p3": ("g1", "x"), "p4": ("g2", "x")}
    big = insert(host, sub, good)
    image = frozenset(e.id for e in big.edges if e.id.startswith("i."))
    assert cograph(big, [image]).canonical_form() == host.canonical_form()
    bad = {"p1": ("e2", "t"), "p2": ("g1", "x"), "p3": ("e3", "t"), "p4": ("g2", "x")}
    with pytest.raises(ValueError, match="cyclic"):
        insert(host, sub, bad)


def test_random_insertion_cograph_duality():
    rng = random.Random(103)
    g4 = fixtures.build("fig4")
    for _ in range(10):
        host = random_phi4_graph(rng, max_loops=3)
        site = rng.choice(host.vertices)
        incidences = []
        for e in host.edges:
            if e.tail == site:
                incidences.append((e.id, "t"))
            if e.head == site:
                incidences.append((e.id, "h"))
        for l in host.legs:
            if l.vertex == site:
                incidences.append((l.id, "x"))
        rng.shuffle(incidences)
        glue = dict(zip(("f1", "f2", "f3", "f4"), incidences))
        big = insert(host, g4, glue)
        image = frozenset(e.id for e in big.edges if e.id.startswith("i."))
        assert cograph(big, [image]).canonical_form() == host.canonical_form()
        assert member_graph(big, image).canonical_form() == g4.canonical_form()


def test_core_model_is_wider_than_phi4(h):
    g5 = fig5()
    h_core = HopfAlgebra("core")
    core_members = set(h_core.divergent_members(g5))
    assert set(h.divergent_members(g5)) <= core_members
    assert frozenset({"e3", "e5", "e6"}) in core_members  # a 5-leg triangle
    assert h_core.check_coassociativity(g5)
    assert h_core.check_hopf_axioms(g5)


def _two_leg_ribbon_host():
    """A 2-leg ribbon graph whose divergent members, stored as standalone
    graphs, carry legs named "cut.*"."""
    return RibbonGraph(
        Graph(
            ["v1", "v2", "v3"],
            [
                ("e1", "v1", "v2"),
                ("e2", "v3", "v1"),
                ("e3", "v3", "v1"),
                ("e4", "v2", "v3"),
                ("e5", "v3", "v2"),
            ],
            [("f1", "v1", "out"), ("f2", "v2", "out")],
        ),
        {
            "v1": (("f1", "x"), ("e2", "h"), ("e3", "h"), ("e1", "t")),
            "v2": (("e4", "t"), ("e1", "h"), ("f2", "x"), ("e5", "h")),
            "v3": (("e4", "h"), ("e5", "t"), ("e3", "t"), ("e2", "t")),
        },
    )


def test_gw_shrinks_inside_a_stored_subgraph_with_cut_legs():
    # shrinking inside a stored member must keep its "cut.*" legs as legs,
    # not read them as host edge ends
    rg = _two_leg_ribbon_host()
    h_gw = HopfAlgebra("gw")
    assert not h_gw.antipode(rg).is_zero()
    assert h_gw.check_coassociativity(rg)
    assert h_gw.check_hopf_axioms(rg)


def _brute_divergent_members(g, model, include_tadpoles=True):
    """The divergent-subgraph search built from whole induced graphs."""
    base = g.graph if isinstance(g, RibbonGraph) else g
    ids = sorted(base.all_edges())
    out = []
    for r in range(1, len(ids)):
        for combo in itertools.combinations(ids, r):
            member = frozenset(combo)
            edges = [base.edge(eid) for eid in combo]
            if not include_tadpoles and any(e.is_loop for e in edges):
                continue
            plain = Graph(sorted({v for e in edges for v in (e.tail, e.head)}), edges)
            if plain.components() != 1 or any(plain.classify_edge(e.id) == "bridge" for e in edges):
                continue
            if model != "core" and len(member_graph(g, member).legs) not in (2, 4):
                continue
            if model == "gw" and not member_graph(g, member).is_planar_regular():
                continue
            out.append(member)
    out.sort(key=lambda m: (len(m), sorted(m)))
    return out


def _ribbonize(g, rng):
    rotation = {v: [] for v in g.vertices}
    for e in g.edges:
        rotation[e.tail].append((e.id, "t"))
        rotation[e.head].append((e.id, "h"))
    for l in g.legs:
        rotation[l.vertex].append((l.id, "x"))
    for seq in rotation.values():
        rng.shuffle(seq)
    return RibbonGraph(g, {v: tuple(seq) for v, seq in rotation.items()})


def _relabelled(g, rng):
    """An isomorphic copy with new ids, shuffled lists and flipped edges."""
    verts = list(g.vertices)
    ren = dict(zip(verts, rng.sample([f"w{i}" for i in range(len(verts))], len(verts))))
    edges = [
        (f"d{i}", ren[e.head], ren[e.tail]) if rng.random() < 0.5 else (f"d{i}", ren[e.tail], ren[e.head])
        for i, e in enumerate(rng.sample(g.edges, len(g.edges)))
    ]
    legs = [(f"k{i}", ren[l.vertex], l.dir) for i, l in enumerate(g.legs)]
    return Graph(rng.sample(list(ren.values()), len(verts)), edges, legs)


def test_divergent_members_match_brute_force():
    rng = random.Random(1102)
    tadpoles_mattered = False
    for _ in range(30):
        g = random_phi4_graph(rng, max_loops=5)
        for model in ("phi4", "core"):
            assert HopfAlgebra(model).divergent_members(g) == _brute_divergent_members(g, model)
        without = HopfAlgebra("phi4", include_tadpoles=False).divergent_members(g)
        assert without == _brute_divergent_members(g, "phi4", include_tadpoles=False)
        tadpoles_mattered |= without != HopfAlgebra("phi4").divergent_members(g)
        rg = _ribbonize(g, rng)
        assert HopfAlgebra("gw").divergent_members(rg) == _brute_divergent_members(rg, "gw")
    assert tadpoles_mattered
    # the core model, where only the half-edge and bridge tests decide
    for g in [fixtures.build(n) for n in ("nestedchain", "twobubble", "fig5")] + [cut_circulant(5), cut_circulant(6)]:
        assert HopfAlgebra("core").divergent_members(g) == _brute_divergent_members(g, "core")
    # multigraphs of any degree, with self-loops, parallel edges and legs
    seen = {"loop": False, "parallel": False}
    for _ in range(40):
        g = random_multigraph(rng, max_vertices=5, max_edges=8, connected=True)
        g = Graph(g.vertices, g.edges, [(f"f{i}", rng.choice(g.vertices), "in") for i in range(rng.randint(0, 3))])
        pairs = [frozenset((e.tail, e.head)) for e in g.edges]
        seen["loop"] |= any(e.is_loop for e in g.edges)
        seen["parallel"] |= len(set(pairs)) < len(pairs)
        for model in ("phi4", "core"):
            for tadpoles in (True, False):
                got = HopfAlgebra(model, include_tadpoles=tadpoles).divergent_members(g)
                assert got == _brute_divergent_members(g, model, include_tadpoles=tadpoles)
    assert all(seen.values())


def test_split_cache_is_shared_by_isomorphic_graphs():
    rng = random.Random(4231)
    for _ in range(6):
        g = random_phi4_graph(rng, max_loops=3)
        for model in ("phi4", "core"):
            fresh, primed = HopfAlgebra(model), HopfAlgebra(model)
            primed.antipode(_relabelled(g, rng))
            assert primed.coproduct(g).render() == fresh.coproduct(g).render()
            assert primed.antipode(g).render() == fresh.antipode(g).render()
            assert primed.bogoliubov_hopf(g).render() == fresh.bogoliubov_hopf(g).render()


def _families_by_vertex_sets(h, g):
    """`HopfAlgebra.families` with disjointness tested on vertex-id sets."""
    members = h.divergent_members(g)
    if not h.products:
        return [(m,) for m in members]
    out = []

    def grow(start, chosen, used):
        for i in range(start, len(members)):
            vs = member_vertices(g, members[i])
            if not vs & used:
                out.append(tuple(chosen + [members[i]]))
                grow(i + 1, chosen + [members[i]], used | vs)

    grow(0, [], frozenset())
    return out


def _assert_splits_match_built_graphs(model, g, include_tadpoles=True):
    """Each shape read off the host's index is the shape of the member graph
    or cograph it stands for, and each label `_splits` returns is that
    graph's canonical form; where `cograph` raises, so do the shape and
    `_splits`, with the same message.  Whether `_splits` answered."""
    h = HopfAlgebra(model, include_tadpoles=include_tadpoles)
    families = h.families(g)
    assert families == _families_by_vertex_sets(h, g)
    shapes = hopf._host_index(g)
    assert shapes.shape == g.shape()
    errors = set()
    for fam in families:
        masks = [shapes.mask(m) for m in fam]
        for m, mask in zip(fam, masks):
            assert shapes.edge_set(mask) == m
            assert shapes.member(mask) == member_graph(g, m).shape()
        try:
            shrunk = cograph(g, fam)
        except ValueError as exc:
            errors.add(str(exc))
            with pytest.raises(ValueError) as caught:
                shapes.cograph(masks)
            assert str(caught.value) == str(exc)
            continue
        assert shapes.cograph(masks) == shrunk.shape()  # the very shape, not just an isomorphic one
    try:
        splits = h._splits(h.label(g))
    except ValueError as exc:
        assert str(exc) in errors
        return False
    # `_splits` reads the index of the label's shape, whose edge order may differ from `g`'s
    built = [
        (tuple(sorted(member_graph(g, m).canonical_form() for m in fam)), cograph(g, fam).canonical_form())
        for fam in families
    ]
    assert not errors and sorted(splits) == sorted(built)
    for lbl in {co for _, co in splits} | {m for mono, _ in splits for m in mono}:
        assert h.graph_of(lbl).canonical_form() == lbl
    return True


def test_split_labels_match_the_built_graphs():
    rng = random.Random(1717)
    seen = dict.fromkeys(("loop", "parallel", "legs", "split", "two-leg gw", "raised"), False)
    hosts = [random_phi4_graph(rng, max_loops=4) for _ in range(25)]
    for _ in range(25):
        g = random_multigraph(rng, max_vertices=5, max_edges=8, connected=True)
        hosts.append(Graph(g.vertices, g.edges, [(f"f{i}", rng.choice(g.vertices), "in") for i in range(rng.randint(0, 3))]))
    hosts += [fixtures.build(n) for n in ("nestedchain", "twobubble", "fig5")]
    for g in hosts:
        pairs = [frozenset((e.tail, e.head)) for e in g.edges]
        seen["loop"] |= any(e.is_loop for e in g.edges)
        seen["parallel"] |= len(set(pairs)) < len(pairs)
        seen["legs"] |= bool(g.legs)
        for copy in (g, _relabelled(g, rng)):
            for model in ("phi4", "core"):
                for tadpoles in (True, False):
                    seen["split"] |= _assert_splits_match_built_graphs(model, copy, tadpoles)
    ribbons = [_ribbonize(g, rng) for g in hosts[:25] + hosts[-3:]]
    ribbons += [_two_leg_ribbon_host(), fixtures.build("ribbonhost")]
    for rg in ribbons:
        for copy in (rg, _relabelled_ribbon(rg, rng)):
            if _assert_splits_match_built_graphs("gw", copy):
                seen["two-leg gw"] |= len(copy.legs) == 2
            for model in ("phi4", "core"):
                seen["raised"] |= not _assert_splits_match_built_graphs(model, copy)
    assert all(seen.values()), seen


def test_labels_met_by_coproduct_and_antipode_are_closed():
    """Each label that coproduct and antipode meet is the canonical form of
    its `graph_of` graph, and the splits read off its first shape are those
    a fresh algebra reads off that graph, off a relabelled copy of it, and
    off the member graphs and cographs built from the copy."""
    rng = random.Random(2207)
    cases = []
    for _ in range(10):
        g = random_phi4_graph(rng, max_loops=4)
        cases += [(model, tadpoles, g) for model in ("phi4", "core") for tadpoles in (True, False)]
    cases += [("gw", True, _ribbonize(random_phi4_graph(rng, max_loops=4), rng)) for _ in range(10)]
    cases.append(("gw", True, _two_leg_ribbon_host()))
    built_from_shape = 0
    for model, tadpoles, g in cases:
        h = HopfAlgebra(model, include_tadpoles=tadpoles)
        h.coproduct(g)
        h.antipode(g)
        for lbl in list(h._hosts):
            built_from_shape += lbl not in h._graphs
            graph = h.graph_of(lbl)
            assert graph.canonical_form() == lbl
            splits = sorted(h._splits(lbl))
            copy = _relabelled_ribbon(graph, rng)
            for host in (graph, copy):
                fresh = HopfAlgebra(model, include_tadpoles=tadpoles)
                assert sorted(fresh._splits(fresh.label(host))) == splits
            assert _assert_splits_match_built_graphs(model, copy, tadpoles)
    assert built_from_shape > 100


def test_plain_and_ribbon_shapes_never_share_a_label():
    rg = fixtures.build("ribbonhost")
    h = HopfAlgebra("core")
    assert h.label(rg.graph).startswith("G") and h.label(rg).startswith("R")
    assert h.graph_of(h.label(rg.graph)) is rg.graph and h.graph_of(h.label(rg)) is rg


def test_zero_free_constructors_keep_no_zero_term():
    """Negations, multiples by a nonzero int and the one-term constructors
    skip the zero filter; a zero coefficient or multiplier still drops."""
    assert TensorSum.tensor(("a",), ("b",), coeff=0) == TensorSum.zero()
    assert TensorSum.tensor(("a",), ("b",), coeff=0).terms == {}
    assert TensorSum.tensor(("b", "a"), (), coeff=-2).terms == {(("a", "b"), ()): -2}
    t = TensorSum.tensor(("a",), (), 3) + TensorSum.unit()
    assert (-t).terms == {(("a",), ()): -3, ((), ()): -1}
    assert (t * -2).terms == {(("a",), ()): -6, ((), ()): -2}
    assert (t * 0).terms == {} and (0 * t).is_zero()
    assert (t - t).is_zero()
    phi = FormalAmplitude.phi("G") + FormalAmplitude.one()
    assert (2 * phi - phi - phi).terms == {}
    assert GraphSum.from_label("G").terms == {("G",): 1} and GraphSum.unit().counit() == 1
    assert hash(-(-t)) == hash(t) and -(-t) == t
