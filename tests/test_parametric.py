"""Symanzik and Moyal parametric polynomials, all routes cross-checked."""

import random
from fractions import Fraction

import pytest

from feyncomb import fixtures
from feyncomb import parametric
from feyncomb.checks import (
    ROUTE_CHECKS,
    random_conserved_momenta,
    random_multigraph,
    random_ribbon_graph,
    random_rotation,
)
from feyncomb.graphs import Graph
from feyncomb.parametric import (
    Integrand,
    ThetaTracked,
    alpha_var,
    dot,
    load_momenta_json,
    momentum,
    nc_u,
    nc_u_delcon,
    nc_u_from_multivariate_br,
    nc_v_imag,
    nc_v_real,
    parametric_integrand,
    phase_psi,
    symanzik_u,
    symanzik_u_delcon,
    symanzik_u_via_det,
    symanzik_v,
    u_from_multivariate_tutte,
    validate_assignment,
    zero_assignment,
)
from feyncomb.poly import MultiPoly
from feyncomb.ribbon import RibbonGraph


def a(i: int) -> MultiPoly:
    return alpha_var(f"e{i}")


FIG3_U_STRING = "a.e1*a.e3 + a.e1*a.e4 + a.e2*a.e3 + a.e2*a.e4 + a.e3*a.e4"


def test_fig3_u_matches_printed_polynomial():
    assert symanzik_u(fixtures.build("fig3")).canonical_string() == FIG3_U_STRING


def test_u_terminal_cases():
    bridge = Graph(["x", "y"], [("e1", "x", "y")])
    assert symanzik_u(bridge) == MultiPoly.one()
    assert symanzik_u(fixtures.build("selfloop")) == a(1)


def test_fig3_v_momentum_probe():
    g = fixtures.build("fig3")
    ext = load_momenta_json(g, fixtures.FIG3_MOMENTA)
    want = 2 * a(1) * a(2) * (a(3) + a(4)) + 3 * a(1) * a(3) * a(4) + a(2) * a(3) * a(4)
    assert symanzik_v(g, ext) == want
    assert symanzik_v(g, zero_assignment(g)).is_zero()
    assert symanzik_v(g, ext, component=0) == symanzik_v(g, ext, component=1)


def test_momenta_are_int_first():
    p = momentum([2, Fraction(4, 2), Fraction(1, 2), 0])
    assert p == (2, 2, Fraction(1, 2), 0)
    assert [type(c) for c in p] == [int, int, Fraction, int]
    assert type(dot(momentum([1, 2, 3, 4]), momentum([4, 3, 2, 1]))) is int
    g = Graph(["v"], [], [("f1", "v", "in"), ("f2", "v", "out")])
    ext = {lid: {"p": ["4/2", 0, 0, 0]} for lid in ("f1", "f2")}
    assert type(load_momenta_json(g, ext)["f1"][0]) is int
    for bad in (0.5, True, "1"):
        with pytest.raises(TypeError):
            momentum([bad, 0, 0, 0])


def test_v_conservation_enforced():
    g = fixtures.build("fig3")
    bad = zero_assignment(g)
    bad["f1"] = momentum([1, 0, 0, 0])
    with pytest.raises(ValueError, match="conservation"):
        symanzik_v(g, bad)
    with pytest.raises(ValueError, match="missing"):
        validate_assignment(g, {"f1": momentum([0, 0, 0, 0])})


def test_u_det_route_examples():
    bridge = Graph(["x", "y"], [("e1", "x", "y")])
    assert symanzik_u_via_det(bridge) == MultiPoly.one()
    assert symanzik_u_via_det(fixtures.build("fig3")).canonical_string() == FIG3_U_STRING
    assert symanzik_u_via_det(fixtures.build("selfloop")) == a(1)


def test_u_det_invariances():
    g = fixtures.build("fig3")
    u = symanzik_u(g)
    for v in g.vertices:
        assert symanzik_u_via_det(g, drop_vertex=v) == u
    assert symanzik_u_via_det(g.reorient(["e2", "e4"])) == u


def test_u_delcon_examples():
    assert symanzik_u_delcon(fixtures.build("fig3")).canonical_string() == FIG3_U_STRING
    two_loops = Graph(["v"], [("e1", "v", "v"), ("e2", "v", "v")])
    assert symanzik_u_delcon(two_loops) == a(1) * a(2)
    bridge_loop = Graph(["x", "y"], [("e1", "x", "y"), ("e2", "y", "y")])
    assert symanzik_u_delcon(bridge_loop) == a(2)


def test_u_from_multivariate_tutte_examples():
    assert u_from_multivariate_tutte(Graph(["x", "y"], [("e1", "x", "y")])) == MultiPoly.one()
    assert u_from_multivariate_tutte(fixtures.build("k3")) == a(1) + a(2) + a(3)
    assert u_from_multivariate_tutte(fixtures.build("fig3")).canonical_string() == FIG3_U_STRING


def test_four_way_agreement_random():
    rng = random.Random(53)
    for _ in range(25):
        g = random_multigraph(rng, max_vertices=5, max_edges=7, connected=True)
        u = symanzik_u(g)
        assert symanzik_u_via_det(g) == u
        assert symanzik_u_delcon(g) == u
        assert u_from_multivariate_tutte(g) == u


def _box_ladder(n: int) -> Graph:
    top = [f"t{i}" for i in range(1, n + 1)]
    bot = [f"b{i}" for i in range(1, n + 1)]
    edges = [(f"r{i}", top[i], bot[i]) for i in range(n)]
    edges += [(f"u{i}", top[i], top[i + 1]) for i in range(n - 1)]
    edges += [(f"d{i}", bot[i], bot[i + 1]) for i in range(n - 1)]
    return Graph(top + bot, edges)


def _complete(n: int) -> Graph:
    verts = [f"v{i}" for i in range(1, n + 1)]
    return Graph(verts, [(f"e{i}{j}", verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)])


def _with_parallels_and_loops(rng: random.Random) -> Graph:
    """A random connected multigraph plus one parallel copy and one self-loop."""
    g = random_multigraph(rng, max_vertices=6, max_edges=9, connected=True)
    e = rng.choice(g.edges)
    extra = [("p1", e.tail, e.head), ("l1", *[rng.choice(g.vertices)] * 2)]
    return Graph(g.vertices, list(g.edges) + extra)


def test_u_det_route_on_larger_graphs():
    rng = random.Random(59)
    graphs = [_box_ladder(5), _box_ladder(6), _complete(6)]
    graphs += [_with_parallels_and_loops(rng) for _ in range(4)]
    for g in graphs:
        u = symanzik_u(g)
        assert symanzik_u_via_det(g) == u
        assert symanzik_u_delcon(g) == u
    for g in (graphs[0], graphs[3]):
        u = symanzik_u(g)
        assert all(symanzik_u_via_det(g, drop_vertex=v) == u for v in g.vertices)


def test_parametric_integrand_record():
    g = fixtures.build("fig3")
    ext = load_momenta_json(g, fixtures.FIG3_MOMENTA)
    rec = parametric_integrand(g, ext, Fraction(1, 2))
    assert isinstance(rec, Integrand)
    assert rec.u == symanzik_u(g)
    assert rec.v == symanzik_v(g, ext)
    assert rec.mass_term == MultiPoly.const(Fraction(1, 2)) * (a(1) + a(2) + a(3) + a(4))
    rec0 = parametric_integrand(g, zero_assignment(g), 1)
    assert rec0.v.is_zero()


# -- theta tracking ----------------------------------------------------------------


def test_theta_tracked_rules():
    alpha = a(1)
    t = ThetaTracked.from_poly(alpha, power=1)
    assert t.to_poly() == MultiPoly.const(Fraction(1, 2)) * MultiPoly.var("theta") * alpha
    s = t.shift(-1)
    assert s.to_poly() == alpha
    with pytest.raises(ValueError):
        ThetaTracked.from_poly(alpha, power=-1).to_poly()
    with pytest.raises(ValueError):
        ThetaTracked.from_poly(MultiPoly.var("theta"))
    assert (t + ThetaTracked.from_poly(-alpha, power=1)).is_zero()


# -- Moyal polynomials ------------------------------------------------------------


PINNED_USTAR = {
    "tadpole": "a.e1",
    "interleaved": "a.e1*a.e2 + 1/4*theta^2",
    "bridge": "1",
    "parallel": "a.e1 + a.e2",
    "fig6": "a.e1",
}


def test_nc_u_pinned_values():
    for name, want in PINNED_USTAR.items():
        rg = fixtures.build(name)
        assert nc_u(rg).to_poly().canonical_string() == want, name


def test_nc_u_delcon_examples():
    for name in PINNED_USTAR:
        rg = fixtures.build(name)
        assert nc_u_delcon(rg) == nc_u(rg), name
    # bridge plus planar loop contracts to the tadpole value
    rg = RibbonGraph(
        Graph(["x", "y"], [("e1", "x", "y"), ("e2", "y", "y")]),
        {"x": (("e1", "t"),), "y": (("e2", "t"), ("e2", "h"), ("e1", "h"))},
    )
    assert nc_u_delcon(rg).to_poly() == a(2)
    assert nc_u(rg).to_poly() == a(2)


def test_nc_u_from_multivariate_br_examples():
    for name in PINNED_USTAR:
        rg = fixtures.build(name)
        assert nc_u_from_multivariate_br(rg) == nc_u(rg), name


def test_commutative_limit_examples():
    commutative_limit_is_u = dict(ROUTE_CHECKS["ustar"])["commutative limit reproduces U"]
    for name, expected in (("tadpole", a(1)), ("interleaved", a(1) * a(2)), ("parallel", a(1) + a(2))):
        rg = fixtures.build(name)
        u_star = nc_u(rg)
        assert u_star.to_poly().substitute({"theta": 0}) == expected, name
        assert commutative_limit_is_u(rg, u_star, None), name


def test_moyal_chain_random():
    rng = random.Random(59)
    for _ in range(15):
        rg = random_ribbon_graph(rng, max_vertices=4, max_edges=6)
        u = nc_u(rg)
        assert nc_u_delcon(rg) == u
        assert nc_u_from_multivariate_br(rg) == u
        assert u.to_poly().substitute({"theta": MultiPoly.zero()}) == symanzik_u(rg.underlying())


def _wheel(n: int) -> Graph:
    spokes = [(f"s{i}", "h", f"v{i}") for i in range(1, n + 1)]
    rim = [(f"r{i}", f"v{i}", f"v{i % n + 1}") for i in range(1, n + 1)]
    return Graph(["h"] + [f"v{i}" for i in range(1, n + 1)], spokes + rim)


def _ustar_corpus(seed: int) -> list[RibbonGraph]:
    """Shuffled rotations with legs, non-planar wheels and ladders, and loops plus parallel edges."""
    rng = random.Random(seed)
    out = [random_ribbon_graph(rng, max_vertices=5, max_edges=8, max_legs=3) for _ in range(30)]
    out += [random_rotation(rng, _wheel(n)) for n in (3, 4, 5)]
    out += [random_rotation(rng, _box_ladder(n)) for n in (3, 4)]
    out += [random_rotation(rng, _with_parallels_and_loops(rng)) for _ in range(4)]
    return out


def test_nc_u_delcon_agrees_with_the_quasi_tree_and_br_routes():
    for rg in _ustar_corpus(67):
        u = nc_u(rg)
        assert nc_u_delcon(rg) == u
        assert nc_u_from_multivariate_br(rg) == u


def test_nc_u_delcon_powers_are_quasi_tree_sizes_on_chord_diagrams():
    rng = random.Random(71)
    for n_loops in range(6):
        for _ in range(4):
            g = Graph(["v"], [(f"e{i}", "v", "v") for i in range(1, n_loops + 1)])
            rg = random_rotation(rng, g)
            u = nc_u_delcon(rg)
            assert u == nc_u(rg)
            for power, part in u.terms.items():
                for mono in part.terms:
                    assert power == n_loops - len(mono)  # |S| for the quasi-tree S outside mono


def test_nc_u_delcon_builds_no_graphs(monkeypatch):
    corpus = _ustar_corpus(73)[:12]
    want = [nc_u(rg) for rg in corpus]

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
        (RibbonGraph, "quasi_trees"),
        (parametric, "nc_u"),
    ):
        monkeypatch.setattr(owner, attr, refuse)
    assert [nc_u_delcon(rg) for rg in corpus] == want


def test_nc_u_requires_connected():
    rg = RibbonGraph(Graph(["x", "y"], []), {"x": (), "y": ()})
    with pytest.raises(ValueError):
        nc_u(rg)


def test_nc_v_real_examples():
    fig6 = fixtures.build("fig6")
    zero = zero_assignment(fig6.underlying())
    assert nc_v_real(fig6, zero).is_zero()
    p = momentum([2, 3, 0, 1])
    ext = {"f1": p, "f2": p}  # in and out: conserved
    r0 = nc_v_real(fig6, ext, face_choice=0)
    r1 = nc_v_real(fig6, ext, face_choice=1)
    assert r0 == r1
    # b = 1, the only two-quasi-tree is {e1} with empty complement:
    # (theta/2)^2 * p^2 with p^2 = 4 + 9 + 0 + 1
    want = MultiPoly.const(Fraction(14, 4)) * MultiPoly.var("theta") ** 2
    assert r0.to_poly() == want
    # a graph without two-quasi-trees gives the empty sum
    bridge = fixtures.build("bridge")
    assert nc_v_real(bridge, zero_assignment(bridge.underlying())).is_zero()


def test_nc_v_imag_examples():
    fig6 = fixtures.build("fig6")
    p = momentum([1, 2, 3, 4])
    ext = {"f1": p, "f2": p}
    # both legs carry the same momentum: the self-wedge vanishes
    assert nc_v_imag(fig6, ext).is_zero()
    # with at most one nonzero momentum the phase is always zero
    host = fixtures.build("ribbonhost")
    ext2 = {"f1": momentum([1, 1, 0, 0]), "f2": momentum([1, 1, 0, 0])}
    assert nc_v_imag(host, ext2).is_zero()


def test_phase_psi_nonzero_and_cyclic_invariant():
    # one vertex, four legs around a planar loop traced into a single face
    g = Graph(
        ["v"],
        [("e1", "v", "v")],
        [("f1", "v", "in"), ("f2", "v", "in"), ("f3", "v", "out"), ("f4", "v", "out")],
    )
    rg = RibbonGraph(
        g,
        {
            "v": (
                ("e1", "t"),
                ("e1", "h"),
                ("f1", "x"),
                ("f2", "x"),
                ("f3", "x"),
                ("f4", "x"),
            )
        },
    )
    rng = random.Random(61)
    saw_nonzero = False
    for _ in range(20):
        ext = random_conserved_momenta(rng, g)
        for qt in rg.quasi_trees():
            boundary = rg.face_boundary_order(rg.faces(qt)[0])
            base = phase_psi(boundary, ext)
            saw_nonzero |= base != 0
            for s in range(1, len(boundary)):
                assert phase_psi(boundary, ext, start=s) == base
    assert saw_nonzero


def test_nc_v_real_face_choice_invariance_random():
    rng = random.Random(67)
    for _ in range(10):
        rg = random_ribbon_graph(rng, max_vertices=3, max_edges=4, max_legs=4)
        ext = random_conserved_momenta(rng, rg.underlying())
        assert nc_v_real(rg, ext, face_choice=0) == nc_v_real(rg, ext, face_choice=1)


def test_part_and_face_choice_accept_only_auto_0_and_1():
    g = fixtures.build("fig3")
    fig6 = fixtures.build("fig6")
    ext = {"f1": momentum([2, 3, 0, 1]), "f2": momentum([2, 3, 0, 1])}
    g_ext = random_conserved_momenta(random.Random(5), g)
    assert symanzik_v(g, g_ext, component=1) == symanzik_v(g, g_ext, component="auto")
    assert nc_v_real(fig6, ext, face_choice=1) == nc_v_real(fig6, ext, face_choice="auto")
    for bad in (2, -1, "0", 1.0, True, None):
        with pytest.raises(ValueError, match="component must be 'auto', 0 or 1"):
            symanzik_v(g, g_ext, component=bad)
        with pytest.raises(ValueError, match="face_choice must be 'auto', 0 or 1"):
            nc_v_real(fig6, ext, face_choice=bad)


def test_v_on_a_long_path():
    """Each two-forest of a path drops one edge e and carries p^2 alpha_e,
    so V = p^2 * sum_e alpha_e; 300 edges need no 2^150-entry key table."""
    n = 300
    g = Graph(
        [f"v{i}" for i in range(n + 1)],
        [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n)],
        [("f1", "v0", "in"), ("f2", f"v{n}", "out")],
    )
    p = momentum([1, Fraction(1, 2), 0, 2])
    want = MultiPoly.sum(MultiPoly.var(f"a.e{i}") for i in range(n)) * Fraction(21, 4)
    assert symanzik_v(g, {"f1": p, "f2": p}) == symanzik_v(g, {"f1": p, "f2": p}, component=1) == want


def test_momenta_json_rejects_floats_and_bad_dirs():
    g = fixtures.build("fig6")
    with pytest.raises(ValueError, match="exact"):
        load_momenta_json(g.underlying(), {"f1": {"p": [0.5, 0, 0, 0]}, "f2": {"p": [0, 0, 0, 0]}})
    with pytest.raises(ValueError, match="contradicts"):
        load_momenta_json(
            g.underlying(),
            {"f1": {"p": [0, 0, 0, 0], "dir": "out"}, "f2": {"p": [0, 0, 0, 0], "dir": "out"}},
        )
    ok = load_momenta_json(
        g.underlying(), {"f1": {"p": ["1/2", 0, 0, 0]}, "f2": {"p": ["1/2", 0, 0, 0]}}
    )
    assert ok["f1"][0] == Fraction(1, 2)
