"""The term-level sum routes against their product-built forms.

Every sum over edge subsets, spanning trees, two-trees, quasi-trees and
two-quasi-trees builds each term's monomial once and stores it in one dict.
Here each route is compared with the form that builds every term as a
product of one-variable polynomials, on seeded graph and ribbon corpora
whose edge ids sort awkwardly ("e2" after "e10", "E1" before both, and ids
that are also the names of global variables).  Every output monomial must
also be in stored form: strictly increasing variable names, positive
exponents.
"""

import functools
import operator
import random

from feyncomb import parametric
from feyncomb.checks import random_conserved_momenta, random_multigraph, random_ribbon_graph
from feyncomb.graphs import Graph
from feyncomb.parametric import ThetaTracked, dot, validate_assignment
from feyncomb.poly import MultiPoly, edge_monomial
from feyncomb.polynomials import multivariate_br, multivariate_tutte
from feyncomb.ribbon import RibbonGraph

AWKWARD_IDS = ("e2", "e10", "E1", "q", "x", "theta", "z", "e1", "b", "a.1", "Z")

Q, X, Z = MultiPoly.var("q"), MultiPoly.var("x"), MultiPoly.var("z")


def relabel(g, rng):
    """`g` with its edges renamed to distinct ids drawn from AWKWARD_IDS."""
    names = dict(zip((e.id for e in g.edges), rng.sample(AWKWARD_IDS, len(g.edges))))
    edges = [(names[e.id], e.tail, e.head) for e in g.edges]
    return Graph(g.vertices, edges, g.legs), names


def relabel_ribbon(rg, rng):
    g, names = relabel(rg.graph, rng)
    rotation = {v: [(names.get(i, i), side) for i, side in seq] for v, seq in rg.rotation.items()}
    return RibbonGraph(g, rotation)


def graph_corpus():
    rng = random.Random(909)
    out = []
    for i in range(40):
        g = random_multigraph(rng, max_vertices=4, max_edges=7, connected=i % 4 != 0)
        out.append(relabel(g, rng)[0])
    return out


def ribbon_corpus():
    rng = random.Random(910)
    return [relabel_ribbon(random_ribbon_graph(rng, max_vertices=3, max_edges=6, max_legs=4), rng) for _ in range(30)]


def test_corpora_sort_awkwardly():
    ids = {e.id for g in graph_corpus() + [rg.graph for rg in ribbon_corpus()] for e in g.edges}
    assert ids == set(AWKWARD_IDS)
    assert any(not g.is_connected() for g in graph_corpus())


# -- the product-built forms ------------------------------------------------------------


def product_of_vars(names):
    return functools.reduce(operator.mul, (MultiPoly.var(v) for v in names), MultiPoly.one())


def alphas(ids):
    return product_of_vars(f"a.{e}" for e in ids)


def betas(ids):
    return product_of_vars(f"b.{e}" for e in ids)


def ztutte_by_products(g):
    return MultiPoly.sum(Q**k * betas(subset) for subset, k in g.edge_subsets())


def zbr_by_products(rg):
    return MultiPoly.sum(X**k * Z ** rg.face_count(subset) * betas(subset) for subset, k in rg.graph.edge_subsets())


def u_by_products(g):
    all_ids = g.all_edges()
    return MultiPoly.sum(alphas(all_ids - tree) for tree in g.spanning_trees())


def v_by_products(g, ext):
    momenta = validate_assignment(g, ext)
    all_ids = g.all_edges()

    def term(tt):
        flow = [0] * 4
        for lid in tt.legs[0]:
            sign = g.leg(lid).sign
            for i in range(4):
                flow[i] += sign * momenta[lid][i]
        return alphas(all_ids - tt.edges) * dot(flow, flow)

    return MultiPoly.sum(term(tt) for tt in g.spanning_two_trees())


def u_tutte_limit_by_products(g):
    spanning = ztutte_by_products(g).coefficient_of("q", 1)
    forest = spanning.lowest_homogeneous_part([f"b.{e.id}" for e in g.edges])
    all_ids = g.all_edges()
    return MultiPoly.sum(alphas(all_ids - {v[2:] for v, _ in mono}) * c for mono, c in forest.terms.items())


def b_exponent(rg):
    return rg.face_count() - 1 + 2 * rg.genus()


def nc_u_by_products(rg):
    b, n, all_ids = b_exponent(rg), len(rg.edges), rg.all_edges()
    return ThetaTracked.sum(ThetaTracked.from_poly(alphas(all_ids - qt), b - (n - len(qt))) for qt in rg.quasi_trees())


def nc_v_real_by_products(rg, ext):
    momenta = validate_assignment(rg.graph, ext)
    b, n, all_ids = b_exponent(rg), len(rg.edges), rg.all_edges()

    def term(tq):
        keys = [min(f.leg_ids()) if f.leg_ids() else "~" for f in tq.faces]
        face = tq.faces[0] if keys[0] <= keys[1] else tq.faces[1]
        flow = [0] * 4
        for lid, sign in rg.face_boundary_order(face):
            for i in range(4):
                flow[i] += sign * momenta[lid][i]
        return ThetaTracked.from_poly(alphas(all_ids - tq.edges) * dot(flow, flow), b + 1 - (n - len(tq.edges)))

    return ThetaTracked.sum(term(tq) for tq in rg.two_quasi_trees())


def nc_v_imag_by_products(rg, ext):
    momenta = validate_assignment(rg.graph, ext)
    b, n, all_ids = b_exponent(rg), len(rg.edges), rg.all_edges()

    def term(qt):
        psi = parametric.phase_psi(rg.face_boundary_order(rg.faces(qt)[0]), momenta)
        return ThetaTracked.from_poly(alphas(all_ids - qt) * psi, b - (n - len(qt)))

    return ThetaTracked.sum(term(qt) for qt in rg.quasi_trees())


def nc_u_br_by_products(rg):
    """The x := 1, z^1 slice of the product-built multivariate BR polynomial."""
    shift = 1 - len(rg.vertices)
    all_ids = rg.all_edges()
    terms = []
    for mono, c in zbr_by_products(rg).terms.items():
        exps = dict(mono)
        if exps.get("z") == 1:
            subset = {v[2:] for v in exps if v.startswith("b.")}
            terms.append(ThetaTracked.from_poly(alphas(all_ids - subset) * c, len(subset) + shift))
    return ThetaTracked.sum(terms)


# -- the comparisons --------------------------------------------------------------


def assert_stored_form(value):
    polys = value.parts.values() if isinstance(value, ThetaTracked) else [value]
    for p in polys:
        for mono in p.terms:
            names = [v for v, _ in mono]
            assert all(u < w for u, w in zip(names, names[1:])), mono
            assert all(type(e) is int and e > 0 for _, e in mono), mono


def graph_routes(g):
    """(name, term-level result, product-built result) for every graph route."""
    yield "multivariate_tutte", multivariate_tutte(g, "subset"), ztutte_by_products(g)
    if g.is_connected():
        ext = random_conserved_momenta(random.Random(len(g.edges)), g)
        yield "symanzik_u", parametric.symanzik_u(g), u_by_products(g)
        yield "symanzik_v", parametric.symanzik_v(g, ext), v_by_products(g, ext)
        yield "u_from_multivariate_tutte", parametric.u_from_multivariate_tutte(g), u_tutte_limit_by_products(g)


def ribbon_routes(rg):
    ext = random_conserved_momenta(random.Random(len(rg.legs)), rg.graph)
    yield "multivariate_br", multivariate_br(rg), zbr_by_products(rg)
    yield "nc_u", parametric.nc_u(rg), nc_u_by_products(rg)
    yield "nc_v_real", parametric.nc_v_real(rg, ext), nc_v_real_by_products(rg, ext)
    yield "nc_v_imag", parametric.nc_v_imag(rg, ext), nc_v_imag_by_products(rg, ext)
    yield "nc_u_from_multivariate_br", parametric.nc_u_from_multivariate_br(rg), nc_u_br_by_products(rg)
    g = rg.graph
    yield "symanzik_v", parametric.symanzik_v(g, ext), v_by_products(g, ext)


def test_graph_routes_match_product_forms():
    for g in graph_corpus():
        for name, got, want in graph_routes(g):
            assert got == want, (name, g.edges)
            assert_stored_form(got)


def test_ribbon_routes_match_product_forms():
    nonzero_v = 0
    for rg in ribbon_corpus():
        for name, got, want in ribbon_routes(rg):
            assert got == want, (name, rg.rotation)
            assert_stored_form(got)
            nonzero_v += name == "nc_v_imag" and not got.is_zero()
    assert nonzero_v  # the phase-weighted sums are not all vacuous


def test_edge_monomial_is_stored_form():
    mono = edge_monomial("b.", AWKWARD_IDS, ("q", 0), ("theta", 2), ("x", 1), ("z", 0))
    assert MultiPoly({mono: 1}) == betas(AWKWARD_IDS) * MultiPoly.var("theta") ** 2 * X
    assert_stored_form(MultiPoly({mono: 1}))
    assert edge_monomial("a.", [], ("q", 0)) == ()


def test_alpha_product():
    want = alphas(["e10", "e2", "q"])
    assert parametric.alpha_product(["q", "e2", "e10", "e2"]) == want
    assert parametric.alpha_product(iter(["e2", "q", "e10"])) == want
    assert parametric.alpha_product([]) == MultiPoly.one()


def test_routes_multiply_no_polynomials(monkeypatch):
    graphs = [g for g in graph_corpus() if g.is_connected()][:5]
    ribbons = ribbon_corpus()[:5]
    original = MultiPoly.__mul__
    calls = []

    def counting(self, other):
        calls.append((self, other))
        return original(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counting)
    monkeypatch.setattr(MultiPoly, "__rmul__", counting)
    for g in graphs:
        ext = random_conserved_momenta(random.Random(1), g)
        multivariate_tutte(g, "subset")
        parametric.symanzik_u(g)
        parametric.symanzik_v(g, ext)
        parametric.u_from_multivariate_tutte(g)
    for rg in ribbons:
        ext = random_conserved_momenta(random.Random(2), rg.graph)
        multivariate_br(rg)
        parametric.nc_u(rg)
        parametric.nc_v_real(rg, ext)
        parametric.nc_v_imag(rg, ext)
        parametric.nc_u_from_multivariate_br(rg)
    assert calls == []
    # the counter does see products
    MultiPoly.var("x") * MultiPoly.var("y")
    assert len(calls) == 1

