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
from fractions import Fraction

from feyncomb import parametric
from feyncomb.checks import random_conserved_momenta, random_multigraph, random_ribbon_graph
from feyncomb.graphs import Graph
from feyncomb.parametric import ThetaTracked, dot, validate_assignment
from feyncomb.poly import MultiPoly, edge_monomial
from feyncomb.polynomials import bollobas_riordan, chromatic, flow_poly, multivariate_br, multivariate_tutte, tutte
from feyncomb.ribbon import HalfEdges, RibbonGraph
from subset_oracle import edge_subsets

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
    return MultiPoly.sum(Q**k * betas(subset) for subset, k in edge_subsets(g))


def zbr_by_products(rg):
    return MultiPoly.sum(X**k * Z ** rg.face_count(subset) * betas(subset) for subset, k in edge_subsets(rg.graph))


def u_by_products(g):
    all_ids = g.all_edges()
    return MultiPoly.sum(alphas(all_ids - tree) for tree in g.spanning_trees())


def v_by_products(g, ext, part=0):
    momenta = validate_assignment(g, ext)
    all_ids = g.all_edges()

    def term(tt):
        flow = [0] * 4
        for lid in tt.legs[part]:
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


def nc_v_real_by_products(rg, ext, choice="auto"):
    momenta = validate_assignment(rg.graph, ext)
    b, n, all_ids = b_exponent(rg), len(rg.edges), rg.all_edges()

    def term(tq):
        keys = [min(f.leg_ids()) if f.leg_ids() else "~" for f in tq.faces]
        face = tq.faces[choice if choice != "auto" else keys[0] > keys[1]]
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
    polys = value.terms.values() if isinstance(value, ThetaTracked) else [value]
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
        yield from v_routes(g, ext)
        yield "u_from_multivariate_tutte", parametric.u_from_multivariate_tutte(g), u_tutte_limit_by_products(g)


def ribbon_routes(rg):
    ext = random_conserved_momenta(random.Random(len(rg.legs)), rg.graph)
    yield "multivariate_br", multivariate_br(rg), zbr_by_products(rg)
    yield "nc_u", parametric.nc_u(rg), nc_u_by_products(rg)
    yield "nc_u_from_multivariate_br", parametric.nc_u_from_multivariate_br(rg), nc_u_br_by_products(rg)
    yield from vstar_routes(rg, ext)
    yield from v_routes(rg.graph, ext)


def v_routes(g, ext):
    """V for each choice of part, against the product-built form."""
    for part in ("auto", 0, 1):
        yield f"symanzik_v/{part}", parametric.symanzik_v(g, ext, part), v_by_products(g, ext, part == 1)


def vstar_routes(rg, ext):
    """Re V* for each choice of face, and Im V*, against the product-built forms."""
    for face in ("auto", 0, 1):
        yield f"nc_v_real/{face}", parametric.nc_v_real(rg, ext, face), nc_v_real_by_products(rg, ext, face)
    yield "nc_v_imag", parametric.nc_v_imag(rg, ext), nc_v_imag_by_products(rg, ext)


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


def fraction_momenta(rng, g):
    """Conserved momenta whose i-th components are divided by i + 2."""
    ext = random_conserved_momenta(rng, g)
    return {lid: parametric.momentum(Fraction(c, i + 2) for i, c in enumerate(p)) for lid, p in ext.items()}


def test_v_routes_match_product_forms_on_workload_sized_ribbons():
    """Ribbons of up to 9 edges and 4 legs, with int and Fraction momenta."""
    rng = random.Random(911)
    fractional = nonzero = 0
    sizes = set()
    for i in range(16):
        rg = random_ribbon_graph(rng, max_vertices=5, max_edges=9, max_legs=4)
        ext = (fraction_momenta if i % 2 else random_conserved_momenta)(rng, rg.graph)
        fractional += any(type(c) is Fraction for p in ext.values() for c in p)
        sizes.add((len(rg.edges), len(rg.legs)))
        for name, got, want in [*vstar_routes(rg, ext), *v_routes(rg.graph, ext)]:
            assert got == want, (name, rg.rotation)
            assert_stored_form(got)
            nonzero += name == "nc_v_imag" and not got.is_zero()
    assert fractional and nonzero
    assert (9, 4) in sizes


def _spy_traces(monkeypatch):
    """Record the `record` flag of every `HalfEdges.trace` call."""
    calls = []
    trace = HalfEdges.trace

    def spy(self, mask, record, *most):
        calls.append(record)
        return trace(self, mask, record, *most)

    monkeypatch.setattr(HalfEdges, "trace", spy)
    return calls


def test_face_sums_trace_each_candidate_once_and_each_key_in_full_once(monkeypatch):
    """Re V* (both face choices) and Im V* against their per-answer,
    full-trace sums, on seeded ribbons with conserved momenta, planar and
    not.  Each connected subset of an allowed size gets one counting trace;
    V* adds one recording trace per distinct first-face leg key and U* none."""
    rng = random.Random(913)
    genera, shared = set(), 0
    for _ in range(24):
        rg = random_ribbon_graph(rng, max_vertices=5, max_edges=8, max_legs=4)
        ext = random_conserved_momenta(rng, rg.graph)
        genera.add(rg.genus() > 0)
        for face in ("auto", 0, 1):
            assert parametric.nc_v_real(rg, ext, face) == nc_v_real_by_products(rg, ext, face), rg.rotation
        assert parametric.nc_v_imag(rg, ext) == nc_v_imag_by_products(rg, ext), rg.rotation
        two = {tq.faces[0].leg_ids() for tq in rg.two_quasi_trees()}
        one = [rg.faces(qt)[0].leg_ids() for qt in rg.quasi_trees()]
        shared += len(one) > len(set(one))
        n_v = len(rg.vertices)
        sizes = [mask.bit_count() for mask, _ in rg.graph.edge_walk(1)]
        calls = _spy_traces(monkeypatch)
        for run, n_faces, keys, weighed in (
            (lambda: parametric.nc_v_real(rg, ext), 2, len(two), True),
            (lambda: parametric.nc_v_imag(rg, ext), 1, len(set(one)), True),
            (lambda: parametric.nc_u(rg), 1, 0, False),
        ):
            calls.clear()
            run()
            low = n_v - 2 + n_faces
            # the smallest size is traced only for a weight
            counted = sum(not (size - low) & 1 and (weighed or size > low) for size in sizes)
            assert calls.count(True) == keys and calls.count(False) == counted
        monkeypatch.undo()
    assert genera == {False, True} and shared


def test_bouquet_empty_quasi_tree_is_a_bare_vertex_face():
    """One vertex, two interleaved loops and four legs: the empty edge set
    is a quasi-tree, whose one face is the vertex with its legs in rotation
    order, and its Im V* term carries the phase of that order."""
    legs = [("f1", "v", "in"), ("f2", "v", "out"), ("f3", "v", "in"), ("f4", "v", "out")]
    g = Graph(["v"], [("e1", "v", "v"), ("e2", "v", "v")], legs)
    order = ["f3", "e1.t", "f1", "e2.t", "e1.h", "f4", "e2.h", "f2"]
    rg = RibbonGraph(g, {"v": [(t, "x") if t[0] == "f" else tuple(t.split(".")) for t in order]})
    assert frozenset() in rg.quasi_trees()
    assert [f.leg_ids() for f in rg.faces(())] == [("f3", "f1", "f4", "f2")]
    rng = random.Random(912)
    phases = set()
    for make in (random_conserved_momenta, fraction_momenta):
        for _ in range(4):
            ext = make(rng, g)
            for name, got, want in [*vstar_routes(rg, ext), *v_routes(g, ext)]:
                assert got == want, name
            # b = 2 (one face, genus 1), so the term of the empty set has theta power 0
            empty = parametric.nc_v_imag(rg, ext).to_poly().coefficient_of("a.e1", 1).coefficient_of("a.e2", 1)
            psi = parametric.phase_psi([("f3", 1), ("f1", 1), ("f4", -1), ("f2", -1)], ext)
            assert empty == MultiPoly.const(psi)
            phases.add(psi)
    assert len(phases) > 1


def test_edge_monomial_is_stored_form():
    mono = edge_monomial("b.", AWKWARD_IDS, ("q", 0), ("theta", 2), ("x", 1), ("z", 0))
    assert MultiPoly({mono: 1}) == betas(AWKWARD_IDS) * MultiPoly.var("theta") ** 2 * X
    assert_stored_form(MultiPoly({mono: 1}))
    assert MultiPoly({edge_monomial("a.", [], ("q", 0)): 1}).terms == {(): 1}


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
        tutte(g, "subset")
        chromatic(g)
        flow_poly(g)
        parametric.symanzik_u(g)
        parametric.symanzik_v(g, ext)
        parametric.u_from_multivariate_tutte(g)
    for rg in ribbons:
        ext = random_conserved_momenta(random.Random(2), rg.graph)
        multivariate_br(rg)
        bollobas_riordan(rg, "subset")
        parametric.nc_u(rg)
        parametric.nc_v_real(rg, ext)
        parametric.nc_v_imag(rg, ext)
        parametric.nc_u_from_multivariate_br(rg)
    assert calls == []
    # the counter does see products
    MultiPoly.var("x") * MultiPoly.var("y")
    assert len(calls) == 1

