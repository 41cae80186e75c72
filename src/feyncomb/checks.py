"""The cross-validation corpus behind `feyncomb selftest` and the acceptance tests.

`ROUTE_CHECKS` says which routes pin each CLI operation; `--check` and
`--check-all` print its entries and the criteria run them on their corpora.
Each criterion function returns a list of (name, passed, detail) triples.
Randomized corpora use fixed seeds so every run, locally or in CI, checks
the same instances and produces byte-identical CLI output.  `run_all`
reports each criterion's wall time on its [PASS]/[FAIL] line, so the
`selftest` report is the one output that differs from run to run.
"""

from __future__ import annotations

import random
import tempfile
import time
from fractions import Fraction

from . import fixtures, linalg, parametric, polynomials
from .formal import FormalAmplitude
from .graphs import Graph
from .hopf import HopfAlgebra, underlying
from .poly import MultiPoly
from .ribbon import RibbonGraph

Check = tuple[str, bool, str]


def _ok(name: str, cond: bool, detail: str = "") -> Check:
    return (name, bool(cond), detail)


# -- route cross-checks ---------------------------------------------------------
#
# Each entry is (PASS/FAIL line name, predicate of (input, value, extra)).
# `value` is the command's own result (unused by entries that recompute
# both sides); `extra` is the momenta of `v`, `integrand` and the V*
# operations or the `HopfAlgebra` of the hopf operations.  Routes are looked
# up as module attributes at call time, so a patched or traced route is the
# one checked.


def _oracle_agrees(p: MultiPoly, oracle, g: Graph, ks: range) -> bool:
    return all(p.eval_rational({"k": k}) == oracle(g, k) for k in ks)


def _zbr_one_face_slice(rg: RibbonGraph, p: MultiPoly, _extra) -> bool:
    one_face = p.coefficient_of("z", 1).substitute({"x": MultiPoly.one()})
    subsets = {frozenset(v[2:] for v, _ in mono) for mono in one_face.terms}
    return subsets == set(rg.quasi_trees())


def _psi_start_irrelevant(rg: RibbonGraph, _value, ext) -> bool:
    for qt in rg.quasi_trees():
        boundary = rg.face_boundary_order(rg.faces(qt)[0])
        base = parametric.phase_psi(boundary, ext)
        if any(parametric.phase_psi(boundary, ext, start=s) != base for s in range(1, len(boundary))):
            return False
    return True


def _u_is_det(g: Graph, u: MultiPoly, _extra) -> bool:
    return u == parametric.symanzik_u_via_det(g)


def _v_component_free(g: Graph, _value, ext) -> bool:
    return parametric.symanzik_v(g, ext, component=0) == parametric.symanzik_v(g, ext, component=1)


def _renorm_is_id_minus_t(g, amp, h: HopfAlgebra) -> bool:
    rbar = h.bogoliubov_hopf(g)
    return amp == rbar - rbar.project()


_HOPF_AXIOMS = (
    ("coassociativity", lambda g, _, h: h.check_coassociativity(g)),
    ("Hopf antipode axiom", lambda g, _, h: h.check_hopf_axioms(g)),
    ("counit axiom", lambda g, _, h: h.check_counit(g)),
    ("grading compatibility", lambda g, _, h: h.check_grading(g)),
)

ROUTE_CHECKS = {
    "tutte": (
        ("subset == delcon", lambda g, *_: polynomials.tutte(g, "subset") == polynomials.tutte(g, "delcon")),
        ("multivariate relation", lambda g, *_: polynomials.check_tutte_relation(g)),
    ),
    "ztutte": (
        (
            "subset == delcon",
            lambda g, *_: polynomials.multivariate_tutte(g, "subset") == polynomials.multivariate_tutte(g, "delcon"),
        ),
    ),
    "chromatic": (
        (
            "matches brute-force colorings k=1..4",
            lambda g, p, _: _oracle_agrees(p, polynomials.count_colorings_oracle, g, range(1, 5)),
        ),
    ),
    "flow": (
        (
            "matches brute-force flows k=2..5",
            lambda g, p, _: _oracle_agrees(p, polynomials.count_flows_oracle, g, range(2, 6)),
        ),
    ),
    "br": (
        (
            "subset == delcon",
            lambda rg, *_: polynomials.bollobas_riordan(rg, "subset") == polynomials.bollobas_riordan(rg, "delcon"),
        ),
        ("z:=1 collapse equals Tutte", lambda rg, *_: polynomials.check_br_tutte_specialization(rg)),
    ),
    "zbr": (("z^1 slice enumerates the quasi-trees", _zbr_one_face_slice),),
    "u": (
        ("tree sum == determinant", _u_is_det),
        ("tree sum == deletion/contraction", lambda g, u, _: u == parametric.symanzik_u_delcon(g)),
        ("tree sum == Tutte limit", lambda g, u, _: u == parametric.u_from_multivariate_tutte(g)),
    ),
    "udet": (
        ("matches tree sum", lambda g, u, _: u == parametric.symanzik_u(g)),
        (
            "independent of dropped vertex",
            lambda g, u, _: all(parametric.symanzik_u_via_det(g, drop_vertex=v) == u for v in g.vertices),
        ),
    ),
    "v": (
        ("component choice irrelevant", _v_component_free),
        ("vanishes at zero momenta", lambda g, *_: parametric.symanzik_v(g, parametric.zero_assignment(g)).is_zero()),
    ),
    "integrand": (
        ("U: tree sum == determinant", lambda g, rec, ext: _u_is_det(g, rec.u, ext)),
        ("V: component choice irrelevant", lambda g, rec, ext: _v_component_free(g, rec.v, ext)),
    ),
    "ustar": (
        ("deletion/contraction route agrees", lambda rg, u, _: parametric.nc_u_delcon(rg) == u),
        ("multivariate BR limit agrees", lambda rg, u, _: parametric.nc_u_from_multivariate_br(rg) == u),
        (
            "commutative limit reproduces U",
            lambda rg, u, _: u.to_poly().substitute({"theta": MultiPoly.zero()})
            == parametric.symanzik_u(rg.underlying()),
        ),
    ),
    "vstar-re": (
        (
            "face choice irrelevant",
            lambda rg, _, ext: parametric.nc_v_real(rg, ext, face_choice=0)
            == parametric.nc_v_real(rg, ext, face_choice=1),
        ),
    ),
    "vstar-im": (("cyclic boundary start irrelevant", _psi_start_irrelevant),),
    "coproduct": _HOPF_AXIOMS,
    "antipode": _HOPF_AXIOMS,
    "forests": _HOPF_AXIOMS,
    "rbar": (("forest formula agrees", lambda g, amp, h: h.bogoliubov_forest(g) == amp),),
    "renorm": (("equals (id - T) of Rbar", _renorm_is_id_minus_t),),
}


def route_checks(op: str, x, value=None, extra=None) -> list[Check]:
    """Evaluate the ROUTE_CHECKS entries of `op` on input x, in table order."""
    return [_ok(name, pred(x, value, extra)) for name, pred in ROUTE_CHECKS[op]]


def _failed(op: str, x, value=None, extra=None) -> list[str]:
    """Names of the ROUTE_CHECKS entries of `op` that fail on x."""
    return [name for name, ok, _ in route_checks(op, x, value, extra) if not ok]


# -- random corpora -----------------------------------------------------------


def random_multigraph(
    rng: random.Random,
    max_vertices: int = 5,
    max_edges: int = 8,
    connected: bool = False,
    min_edges: int = 1,
) -> Graph:
    while True:
        nv = rng.randint(2 if connected else 1, max_vertices)
        ne = rng.randint(max(min_edges, nv - 1 if connected else min_edges), max_edges)
        verts = [f"v{i}" for i in range(1, nv + 1)]
        edges = []
        for i in range(1, ne + 1):
            a, b = rng.choice(verts), rng.choice(verts)
            edges.append((f"e{i}", a, b))
        g = Graph(verts, edges)
        if not connected or g.is_connected():
            return g


def random_ribbon_graph(
    rng: random.Random,
    max_vertices: int = 4,
    max_edges: int = 7,
    max_legs: int = 0,
) -> RibbonGraph:
    g = random_multigraph(rng, max_vertices, max_edges, connected=True)
    legs = []
    if max_legs:
        for i in range(1, rng.randint(0, max_legs) + 1):
            legs.append((f"f{i}", rng.choice(g.vertices), rng.choice(["in", "out"])))
    return random_rotation(rng, Graph(g.vertices, g.edges, legs))


def random_rotation(rng: random.Random, g: Graph) -> RibbonGraph:
    """`g` with a rotation system shuffled at every vertex."""
    rotation = {v: [] for v in g.vertices}
    for e in g.edges:
        rotation[e.tail].append((e.id, "t"))
        rotation[e.head].append((e.id, "h"))
    for l in g.legs:
        rotation[l.vertex].append((l.id, "x"))
    for v in g.vertices:
        rng.shuffle(rotation[v])
    return RibbonGraph(g, {v: tuple(seq) for v, seq in rotation.items()})


def random_phi4_graph(rng: random.Random, max_loops: int = 4) -> Graph:
    """Random 1PI graph with every vertex of degree four (legs included)."""
    while True:
        nv = rng.randint(2, 5)
        n_legs = rng.choice([2, 4])
        n_int = (4 * nv - n_legs) // 2
        if n_int - nv + 1 > max_loops or n_int <= 0:
            continue
        stubs = [f"v{i}" for i in range(1, nv + 1) for _ in range(4)]
        rng.shuffle(stubs)
        edges = []
        for i in range(n_int):
            edges.append((f"e{i + 1}", stubs[2 * i], stubs[2 * i + 1]))
        legs = [
            (f"f{j + 1}", stubs[2 * n_int + j], rng.choice(["in", "out"]))
            for j in range(n_legs)
        ]
        g = Graph([f"v{i}" for i in range(1, nv + 1)], edges, legs)
        if g.is_one_pi():
            return g


def random_conserved_momenta(rng: random.Random, g: Graph) -> dict[str, parametric.Momentum]:
    legs = sorted(l.id for l in g.legs)
    ext: dict[str, parametric.Momentum] = {}
    net = [Fraction(0)] * 4
    for lid in legs[:-1]:
        p = parametric.momentum([rng.randint(-3, 3) for _ in range(4)])
        ext[lid] = p
        sign = g.leg(lid).sign
        for i in range(4):
            net[i] += sign * p[i]
    if legs:
        last = legs[-1]
        sign = g.leg(last).sign
        ext[last] = parametric.momentum([-sign * c for c in net])
    return ext


def random_poly(rng: random.Random, variables: list[str], terms: int = 3) -> MultiPoly:
    def term() -> MultiPoly:
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        exps = {v: rng.randint(0, 2) for v in variables}
        return MultiPoly.from_exponents({v: e for v, e in exps.items() if e}, coeff)

    return MultiPoly.sum(term() for _ in range(terms))


def _random_entry(rng: random.Random, over_polys: bool) -> MultiPoly:
    if over_polys:
        return random_poly(rng, ["s", "t"], terms=2)
    return MultiPoly.const(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))


def random_skew_matrix(rng: random.Random, n: int, over_polys: bool) -> list[list[MultiPoly]]:
    a = [[MultiPoly.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            val = _random_entry(rng, over_polys)
            a[i][j] = val
            a[j][i] = -val
    return a


def random_diag_matrix(rng: random.Random, n: int, over_polys: bool) -> list[list[MultiPoly]]:
    d = [[MultiPoly.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        d[i][i] = _random_entry(rng, over_polys)
    return d


# -- acceptance criteria -------------------------------------------------------------


def criterion_1_fig3() -> list[Check]:
    """The worked three-vertex example: printed U, momentum-probed V."""
    out = []
    g = fixtures.build("fig3")
    u = parametric.symanzik_u(g)
    out.append(
        _ok(
            "fig3 U printed form",
            u.canonical_string()
            == "a.e1*a.e3 + a.e1*a.e4 + a.e2*a.e3 + a.e2*a.e4 + a.e3*a.e4",
            u.canonical_string(),
        )
    )

    a = {e: parametric.alpha_var(e) for e in ("e1", "e2", "e3", "e4")}

    def printed_v(c12: Fraction, c4: Fraction, c3: Fraction) -> MultiPoly:
        # (p_f1+p_f2)^2 a1 a2 (a3+a4) + p_f4^2 a1 a3 a4 + p_f3^2 a2 a3 a4
        return (
            MultiPoly.const(c12) * a["e1"] * a["e2"] * (a["e3"] + a["e4"])
            + MultiPoly.const(c4) * a["e1"] * a["e3"] * a["e4"]
            + MultiPoly.const(c3) * a["e2"] * a["e3"] * a["e4"]
        )

    probes = [
        ({"f1": (1, 0, 0, 0), "f2": (0, 1, 0, 0), "f3": (0, 0, 1, 0), "f4": (1, 1, -1, 0)},
         (Fraction(2), Fraction(3), Fraction(1))),
        ({"f1": (1, 0, 0, 0), "f2": (0, 2, 0, 0), "f3": (0, 0, 3, 0), "f4": (1, 2, -3, 0)},
         (Fraction(5), Fraction(14), Fraction(9))),
    ]
    for idx, (raw, (c12, c4, c3)) in enumerate(probes, 1):
        ext = {k: parametric.momentum(v) for k, v in raw.items()}
        v = parametric.symanzik_v(g, ext)
        out.append(_ok(f"fig3 V momentum probe {idx}", v == printed_v(c12, c4, c3)))
        bad = _failed("v", g, v, ext)
        out.append(_ok(f"fig3 V route checks, probe {idx}", not bad, str(bad)))
    ext0 = parametric.zero_assignment(g)
    out.append(_ok("fig3 V zero momenta", parametric.symanzik_v(g, ext0).is_zero()))
    return out


def _connected_graph_fixtures() -> list[tuple[str, Graph]]:
    out = []
    for name in fixtures.names():
        g = fixtures.build(name)
        base = underlying(g)
        if base.is_connected():
            out.append((name, base))
    return out


def criterion_2_four_way_u(n_random: int = 100) -> list[Check]:
    out = []
    rng = random.Random(20201)

    def agree(g: Graph, tag: str) -> Check:
        u = parametric.symanzik_u(g)
        bad = _failed("u", g, u)
        n_trees = len(g.spanning_trees())
        multiaffine = (
            all(all(e == 1 for _, e in mono) and c == 1 for mono, c in u.terms.items())
            and len(u.terms) == n_trees
        )
        return _ok(f"U four-way {tag}", not bad and multiaffine, f"mismatch: {bad}")

    for name, g in _connected_graph_fixtures():
        out.append(agree(g, name))
        bad = _failed("udet", g, parametric.symanzik_u_via_det(g))
        out.append(_ok(f"udet route checks on {name}", not bad, str(bad)))
    fails = 0
    for i in range(n_random):
        g = random_multigraph(rng, max_vertices=5, max_edges=8, connected=True)
        fails += not agree(g, f"random{i}")[1]
    out.append(_ok(f"U four-way on {n_random} random connected graphs", fails == 0, f"{fails} failures"))
    return out


def criterion_3_tutte_engines(n_random: int = 200) -> list[Check]:
    out = []
    rng = random.Random(20302)
    fails_engine = 0
    fails_relation = 0
    for _ in range(n_random):
        g = random_multigraph(rng, max_vertices=5, max_edges=8, connected=False)
        bad = _failed("tutte", g)
        fails_engine += ("subset == delcon" in bad) + bool(_failed("ztutte", g))
        fails_relation += "multivariate relation" in bad
    out.append(_ok(f"Tutte subset == delcon on {n_random} random graphs", fails_engine == 0))
    out.append(_ok(f"multivariate relation on {n_random} random graphs", fails_relation == 0))
    bad_fixtures = [
        n for n in fixtures.names() if "subset == delcon" in _failed("tutte", underlying(fixtures.build(n)))
    ]
    out.append(_ok("Tutte subset == delcon on fixtures", not bad_fixtures, str(bad_fixtures)))
    return out


def criterion_4_chromatic_flow() -> list[Check]:
    out = []
    rng = random.Random(20403)
    graphs = [
        (name, g)
        for name, g in _connected_graph_fixtures()
        if len(g.vertices) <= 6 and len(g.edges) <= 8
    ]
    bad_chromatic = [name for name, g in graphs if _failed("chromatic", g, polynomials.chromatic(g))]
    bad_flow = [name for name, g in graphs if _failed("flow", g, polynomials.flow_poly(g))]
    bad_orient = []
    for name, g in graphs:
        for _ in range(20):
            flips = [e.id for e in g.edges if rng.random() < 0.5]
            if polynomials.count_flows_oracle(g.reorient(flips), 3) != polynomials.count_flows_oracle(g, 3):
                bad_orient.append(name)
    out.append(_ok("chromatic matches brute force k=1..4", not bad_chromatic, str(bad_chromatic)))
    out.append(_ok("flow matches brute force k=2..5", not bad_flow, str(bad_flow)))
    out.append(_ok("flow counts orientation-invariant (20 flips/graph)", not bad_orient, str(bad_orient)))
    return out


def criterion_5_br_engines(n_random: int = 100) -> list[Check]:
    out = []
    rng = random.Random(20504)
    ribbons = [(n, fixtures.build(n)) for n in fixtures.ribbon_fixture_names()]
    for name, rg in ribbons:
        out.append(_ok(f"BR engines + z:=1 on {name}", not _failed("br", rg)))
        if rg.underlying().is_connected():
            bad = _failed("zbr", rg, polynomials.multivariate_br(rg))
            out.append(_ok(f"zbr route checks on {name}", not bad, str(bad)))
    fails = 0
    for _ in range(n_random):
        rg = random_ribbon_graph(rng, max_vertices=4, max_edges=7)
        fails += bool(_failed("br", rg))
    out.append(_ok(f"BR engines + z:=1 on {n_random} random rotation systems", fails == 0))
    return out


def criterion_6_moyal_chain(n_random: int = 50) -> list[Check]:
    out = []
    rng = random.Random(20605)
    pinned = {
        "tadpole": "a.e1",
        "interleaved": "a.e1*a.e2 + 1/4*theta^2",
        "bridge": "1",
        "parallel": "a.e1 + a.e2",
        "fig6": "a.e1",
    }

    for name, want in pinned.items():
        rg = fixtures.build(name)
        u = parametric.nc_u(rg)
        got = u.to_poly().canonical_string()
        out.append(_ok(f"U* pinned value for {name}", got == want, got))
        bad = _failed("ustar", rg, u)
        out.append(_ok(f"Moyal chain on {name}", not bad, str(bad)))
    fails = 0
    for _ in range(n_random):
        rg = random_ribbon_graph(rng, max_vertices=4, max_edges=6)
        fails += bool(_failed("ustar", rg, parametric.nc_u(rg)))
    out.append(_ok(f"Moyal chain on {n_random} random ribbon graphs", fails == 0))
    return out


def criterion_7_vstar_invariances(n_assignments: int = 30) -> list[Check]:
    out = []
    rng = random.Random(20706)
    cases: list[tuple[str, RibbonGraph]] = [(n, fixtures.build(n)) for n in fixtures.ribbon_fixture_names()]
    for i in range(6):
        cases.append((f"random-legful{i}", random_ribbon_graph(rng, max_vertices=3, max_edges=4, max_legs=4)))
    bad_real = []
    bad_imag = []
    saw_nonzero_psi = False
    for name, rg in cases:
        g = rg.underlying()
        for _ in range(n_assignments):
            ext = random_conserved_momenta(rng, g)
            if _failed("vstar-re", rg, None, ext):
                bad_real.append(name)
                break
            if _failed("vstar-im", rg, None, ext):
                bad_imag.append(name)
            saw_nonzero_psi = saw_nonzero_psi or any(
                parametric.phase_psi(rg.face_boundary_order(rg.faces(qt)[0]), ext) != 0
                for qt in rg.quasi_trees()
            )
    out.append(_ok("V*-real face-choice invariance", not bad_real, str(set(bad_real))))
    out.append(_ok("V*-imag cyclic-start invariance", not bad_imag, str(set(bad_imag))))
    out.append(_ok("V*-imag corpus exercises nonzero phases", saw_nonzero_psi))
    return out


def _hopf_graph_fixtures() -> list[tuple[str, Graph]]:
    return [(n, fixtures.build(n)) for n in ("fig4", "fig5", "nestedchain", "twobubble")]


def criterion_8_hopf_suite(n_random: int = 50) -> list[Check]:
    out = []
    rng = random.Random(20807)
    algebras = (HopfAlgebra("phi4"), HopfAlgebra("core"))
    for h in algebras:
        for name, g in _hopf_graph_fixtures():
            bad = _failed("coproduct", g, None, h)
            out.append(_ok(f"Hopf suite [{h.model}] {name}", not bad, str(bad)))
    fails = 0
    for _ in range(n_random):
        g = random_phi4_graph(rng, max_loops=4)
        fails += sum(bool(_failed("coproduct", g, None, h)) for h in algebras)
    out.append(_ok(f"Hopf suite on {n_random} random phi4 graphs (phi4+core)", fails == 0))

    h_gw = HopfAlgebra("gw")
    gw_ok = True
    for name in ("fig6", "tadpole", "interleaved", "ribbonhost", "parallel"):
        rg = fixtures.build(name)
        if rg.underlying().is_one_pi() and _failed("coproduct", rg, None, h_gw):
            gw_ok = False
    out.append(_ok("Hopf suite [gw] on ribbon fixtures", gw_ok))

    h_neg = HopfAlgebra("phi4", products=False)
    coassociative = dict(ROUTE_CHECKS["coproduct"])["coassociativity"]
    out.append(
        _ok(
            "pinned negative: single-subgraph coproduct breaks coassociativity",
            not coassociative(fixtures.build("twobubble"), None, h_neg),
        )
    )
    return out


def criterion_9_bphz() -> list[Check]:
    out = []
    h = HopfAlgebra("phi4")
    for name, g in _hopf_graph_fixtures():
        bad = _failed("rbar", g, h.bogoliubov_hopf(g), h) + _failed("renorm", g, h.renormalized(g), h)
        out.append(_ok(f"BPHZ forest == Hopf == (id-T) on {name}", not bad, str(bad)))
    fig5 = fixtures.build("fig5")
    gamma = frozenset(["e1", "e2"])
    from .hopf import cograph, member_graph

    want = FormalAmplitude.phi(h.label(fig5)) - (
        FormalAmplitude.phi(h.label(member_graph(fig5, gamma))).project()
        * FormalAmplitude.phi(h.label(cograph(fig5, [gamma])))
    )
    out.append(_ok("fig5 Rbar is Phi(G) - T[Phi(gamma)]*Phi(G/gamma)", h.bogoliubov_hopf(fig5) == want))
    return out


def criterion_10_pfaffian(n_random: int = 50) -> list[Check]:
    out = []
    rng = random.Random(21009)
    bad_sq = 0
    bad_id = 0
    for over_polys in (False, True):
        for _ in range(n_random // 2):
            n = rng.choice([2, 4])
            a = random_skew_matrix(rng, n, over_polys)
            pf = linalg.pfaffian(a)
            if pf * pf != linalg.det(a):
                bad_sq += 1
            if pf != linalg.pfaffian_recursive(a):
                bad_sq += 1
            m = rng.randint(1, 4)
            d = random_diag_matrix(rng, m, over_polys)
            s = random_skew_matrix(rng, m, over_polys)
            if not linalg.det_d_plus_a_identity(d, s):
                bad_id += 1
    out.append(_ok(f"Pf(A)^2 == det(A) on {n_random} random skew matrices", bad_sq == 0))
    out.append(_ok(f"det(D+A) Pfaffian identity on {n_random} random pairs", bad_id == 0))
    odd = linalg.pfaffian(random_skew_matrix(rng, 3, False))
    out.append(_ok("odd-dimension Pfaffian is zero", odd.is_zero()))
    return out


def cli_command_matrix(fixture_dir: str) -> list[list[str]]:
    """Every CLI invocation the determinism criterion replays."""
    import os

    cmds: list[list[str]] = []
    for name in fixtures.names():
        path = os.path.join(fixture_dir, f"{name}.json")
        data = fixtures.FIXTURES[name]
        is_ribbon = data["type"] == "ribbon"
        g = fixtures.build(name)
        base = underlying(g)
        cmds.append(["poly", "tutte", path])
        cmds.append(["poly", "tutte", path, "--method", "delcon"])
        cmds.append(["poly", "ztutte", path, "--json"])
        if base.is_connected():
            cmds.append(["poly", "chromatic", path])
            cmds.append(["poly", "flow", path])
            cmds.append(["param", "u", path, "--check-all"])
            cmds.append(["param", "udet", path])
            cmds.append(["param", "v", path])
            cmds.append(["param", "integrand", path])
        if is_ribbon:
            cmds.append(["poly", "br", path, "--check"])
            cmds.append(["poly", "zbr", path])
            cmds.append(["param", "ustar", path, "--check-all"])
            cmds.append(["param", "vstar-re", path])
            cmds.append(["param", "vstar-im", path])
        if base.is_one_pi():
            model = "gw" if is_ribbon else "phi4"
            cmds.append(["hopf", "coproduct", path, "--model", model])
            cmds.append(["hopf", "antipode", path, "--model", model])
            cmds.append(["hopf", "forests", path, "--model", model])
            cmds.append(["hopf", "rbar", path, "--model", model])
            cmds.append(["hopf", "renorm", path, "--model", model, "--json"])
    momenta = os.path.join(fixture_dir, "fig3_momenta.json")
    cmds.append(["param", "v", os.path.join(fixture_dir, "fig3.json"), "--momenta", momenta, "--check-all"])
    return cmds


def criterion_11_cli_determinism() -> list[Check]:
    from . import cli

    with tempfile.TemporaryDirectory() as tmp:
        fixtures.write_all(tmp)
        cmds = cli_command_matrix(tmp)

        def run_all() -> str:
            chunks = []
            for argv in cmds:
                code, text = cli.run(argv)
                if code != 0:
                    raise AssertionError(f"command failed: {argv}: {text}")
                chunks.append(text)
            return "\n".join(chunks)

        first = run_all()
        second = run_all()
    return [_ok(f"CLI determinism over {len(cmds)} invocations", first == second)]


CRITERIA = [
    ("1. fig3 U and V reproduction", criterion_1_fig3),
    ("2. four-way U agreement", criterion_2_four_way_u),
    ("3. Tutte engine agreement + relation", criterion_3_tutte_engines),
    ("4. chromatic/flow oracles", criterion_4_chromatic_flow),
    ("5. BR engine agreement + z:=1", criterion_5_br_engines),
    ("6. Moyal chain", criterion_6_moyal_chain),
    ("7. V* invariances", criterion_7_vstar_invariances),
    ("8. Hopf suite", criterion_8_hopf_suite),
    ("9. BPHZ equivalence", criterion_9_bphz),
    ("10. Pfaffian identities", criterion_10_pfaffian),
    ("11. CLI determinism", criterion_11_cli_determinism),
]


def run_all() -> tuple[bool, str]:
    lines = []
    all_ok = True
    for title, fn in CRITERIA:
        start = time.perf_counter()
        results = fn()
        seconds = time.perf_counter() - start
        crit_ok = all(okflag for _, okflag, _ in results)
        all_ok &= crit_ok
        lines.append(f"[{'PASS' if crit_ok else 'FAIL'}] {title} ({seconds:.2f} s)")
        for name, okflag, detail in results:
            suffix = f"  ({detail})" if detail and not okflag else ""
            lines.append(f"    {'ok' if okflag else 'FAIL'}: {name}{suffix}")
    lines.append("selftest: " + ("ALL CRITERIA PASS" if all_ok else "FAILURES PRESENT"))
    return all_ok, "\n".join(lines)
