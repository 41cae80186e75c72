"""The four job workloads: seeded inputs, jobs and their reference answers.

A job is one call into `feyncomb` plus the check of its output.  Jobs of
`tutte-br` and `symanzik-moyal` are checked against the same quantity
computed during set-up by a different route, so reference work is outside
the job's time.  `cli-matrix` jobs are checked against a transcript recorded
at the seed commit (`cli_reference.json`).  `hopf-bphz` jobs run the check
the CLI's `--check` runs for the operation, on a fresh `HopfAlgebra`, and
compare the coproduct's size with a count of divergent families made in
set-up without `feyncomb.hopf`; on the inputs that do not depend on the seed
they also compare the output's digest with `hopf_reference.json`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from feyncomb import checks, cli, fixtures, linalg, parametric, polynomials
from feyncomb.graphs import Graph
from feyncomb.hopf import HopfAlgebra, member_graph
from feyncomb.poly import MultiPoly
from feyncomb.ribbon import RibbonGraph

from families import box_ladder, complete, cut_circulant, planar_wheel, ribbonize, wheel

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "cli_reference.json")
HOPF_REFERENCE_PATH = os.path.join(HERE, "hopf_reference.json")
FIXTURE_TOKEN = "<fixtures>"


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _equals(ref) -> Callable[[object], bool]:
    return lambda out: out == ref


# -- cli-matrix -------------------------------------------------------------------


def cli_transcript_key(argv: list[str], fixture_dir: str) -> str:
    return " ".join(argv).replace(fixture_dir, FIXTURE_TOKEN)


def cli_output_digest(code: int, text: str, fixture_dir: str) -> list:
    normalized = text.replace(fixture_dir, FIXTURE_TOKEN)
    return [code, hashlib.sha256(normalized.encode("utf-8")).hexdigest()]


def cli_transcript(fixture_dir: str) -> dict[str, list]:
    """Exit code and output sha256 of every matrix command, paths normalized."""
    out = {}
    for argv in checks.cli_command_matrix(fixture_dir):
        code, text = cli.run(argv)
        out[cli_transcript_key(argv, fixture_dir)] = cli_output_digest(code, text, fixture_dir)
    return out


def cli_matrix(seed: int, fixture_dir: str) -> list[Job]:
    fixtures.write_all(fixture_dir)
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)
    cmds = checks.cli_command_matrix(fixture_dir)
    random.Random(seed).shuffle(cmds)
    jobs = []
    for argv in cmds:
        key = cli_transcript_key(argv, fixture_dir)
        ref = reference.get(key)  # a command missing from the reference fails its check
        jobs.append(
            Job(
                key,
                lambda argv=argv: cli.run(argv),
                lambda out, ref=ref: cli_output_digest(*out, fixture_dir) == ref,
            )
        )
    return jobs


# -- tutte-br -----------------------------------------------------------------------


# Random inputs are drawn at a fixed shape (vertex, edge and leg counts), so
# the work of a job list varies little from seed to seed.


def _multigraph(rng: random.Random, n_vertices: int, n_edges: int, n_loops: int | None = None) -> Graph:
    while True:
        g = checks.random_multigraph(rng, n_vertices, n_edges, connected=True, min_edges=n_edges)
        loops = sum(1 for e in g.edges if e.is_loop)
        if len(g.vertices) == n_vertices and n_loops in (None, loops):
            return g


def _phi4_graph(rng: random.Random, n_vertices: int, n_legs: int) -> Graph:
    while True:
        g = checks.random_phi4_graph(rng, max_loops=4)
        if len(g.vertices) == n_vertices and len(g.legs) == n_legs:
            return g


def _zbr_matches_br(rg: RibbonGraph, br: MultiPoly) -> Callable[[object], bool]:
    """Map Z(x, beta, z) onto R(x, y, z) term by term and compare with `br`.

    A subset H with k components, |H| edges and F faces contributes
    (x-1)^(k-k(E)) y^(|H|-V+k) z^(k-F+|H|-V+k) to R.
    """
    n_v = len(rg.vertices)
    k_all = rg.graph.components()
    xm = polynomials.X - 1

    def check(z3) -> bool:
        shape: dict[tuple[int, int, int], int] = {}
        for mono, coeff in z3.terms.items():
            exps = dict(mono)
            size = sum(1 for v in exps if v.startswith("b."))
            key = (exps.get("x", 0), size, exps.get("z", 0))
            shape[key] = shape.get(key, 0) + coeff
        total = MultiPoly.zero()
        for (k, size, faces), coeff in shape.items():
            null = size - n_v + k
            total = total + coeff * xm ** (k - k_all) * polynomials.Y**null * polynomials.Z ** (k - faces + null)
        return total == br

    return check


def _oracle_check(var_counts: dict[int, int]) -> Callable[[object], bool]:
    return lambda p: all(p.eval_rational({"k": k}) == n for k, n in var_counts.items())


def tutte_br(seed: int, fixture_dir: str) -> list[Job]:
    rng = random.Random(seed)
    graphs = [(f"rand{i}", _multigraph(rng, 5, 7, n_loops=i % 2)) for i in range(16)]
    graphs += [("W4", wheel(4)), ("W5", wheel(5))]
    # The ribbon jobs are the slowest after W5's and set job_p90_ms, and their
    # cost follows the rotation system.  So the underlying multigraphs are
    # fixed, the seed draws the rotation systems for E = 6-8 only, and E = 9-10
    # and the plane W4 are the same for every seed.
    ribbons = []
    for e in range(6, 11):
        base = random.Random(e)
        ribbons.append((f"ribbon{e}", ribbonize(_multigraph(base, 4, e), rng if e <= 8 else base)))
    ribbons.append(("planarW4", planar_wheel(4)))
    jobs = []
    for name, g in graphs:
        t_sub, t_dc = polynomials.tutte(g, "subset"), polynomials.tutte(g, "delcon")
        z_sub, z_dc = polynomials.multivariate_tutte(g, "subset"), polynomials.multivariate_tutte(g, "delcon")
        colorings = {k: polynomials.count_colorings_oracle(g, k) for k in range(1, 5)}
        flows = {k: polynomials.count_flows_oracle(g, k) for k in (2, 3)}
        jobs += [
            Job(f"tutte.subset:{name}", lambda g=g: polynomials.tutte(g, "subset"), _equals(t_dc)),
            Job(f"tutte.delcon:{name}", lambda g=g: polynomials.tutte(g, "delcon"), _equals(t_sub)),
            Job(f"ztutte.subset:{name}", lambda g=g: polynomials.multivariate_tutte(g, "subset"), _equals(z_dc)),
            Job(f"ztutte.delcon:{name}", lambda g=g: polynomials.multivariate_tutte(g, "delcon"), _equals(z_sub)),
            Job(f"chromatic:{name}", lambda g=g: polynomials.chromatic(g), _oracle_check(colorings)),
            Job(f"flow:{name}", lambda g=g: polynomials.flow_poly(g), _oracle_check(flows)),
        ]
    for name, rg in ribbons:
        r_sub, r_dc = polynomials.bollobas_riordan(rg, "subset"), polynomials.bollobas_riordan(rg, "delcon")
        jobs += [
            Job(f"br.subset:{name}", lambda rg=rg: polynomials.bollobas_riordan(rg, "subset"), _equals(r_dc)),
            Job(f"br.delcon:{name}", lambda rg=rg: polynomials.bollobas_riordan(rg, "delcon"), _equals(r_sub)),
            Job(f"zbr:{name}", lambda rg=rg: polynomials.multivariate_br(rg), _zbr_matches_br(rg, r_sub)),
        ]
    return jobs


# -- symanzik-moyal -----------------------------------------------------------------


def _merge_vertices(g: Graph, a: str, b: str) -> Graph:
    return Graph(
        [v for v in g.vertices if v != b],
        [(e.id, a if e.tail == b else e.tail, a if e.head == b else e.head) for e in g.edges],
    )


def v_from_merged_trees(g: Graph, ext: dict) -> MultiPoly:
    """V without two-trees: for conserved momenta P_T1^2 = -sum_{i in T1, j in T2} p_i.p_j,
    and the two-trees separating vertices a, b are the spanning trees of G with a = b."""
    legs = sorted(g.legs, key=lambda leg: leg.id)
    total = MultiPoly.zero()
    for i, li in enumerate(legs):
        for lj in legs[i + 1 :]:
            if li.vertex == lj.vertex:
                continue
            pi = [li.sign * c for c in ext[li.id]]
            pj = [lj.sign * c for c in ext[lj.id]]
            coeff = -parametric.dot(tuple(pi), tuple(pj))
            if coeff:
                total = total + coeff * parametric.symanzik_u(_merge_vertices(g, li.vertex, lj.vertex))
    return total


def _nc_v_imag_rotated(rg: RibbonGraph, ext: dict) -> parametric.ThetaTracked:
    """Im V* with every face boundary read from its last leg instead of its first."""
    b = rg.face_count() - 1 + 2 * rg.genus()
    total = parametric.ThetaTracked.zero()
    for qt in rg.quasi_trees():
        boundary = rg.face_boundary_order(rg.faces(qt)[0])
        psi = parametric.phase_psi(boundary, ext, start=max(0, len(boundary) - 1))
        if psi:
            power = b - (len(rg.edges) - len(qt))
            term = MultiPoly.const(psi) * parametric.alpha_product(rg.all_edges() - qt)
            total = total + parametric.ThetaTracked.from_poly(term, power)
    return total


def symanzik_moyal(seed: int, fixture_dir: str) -> list[Job]:
    rng = random.Random(seed)
    graphs = [
        ("ladder3", box_ladder(3)),
        ("ladder4", box_ladder(4)),
        ("K4", complete(4)),
        ("K5", complete(5)),
        ("W4", wheel(4)),
        ("C5cut", cut_circulant(5)),
        ("C6cut", cut_circulant(6)),
    ]
    jobs = []
    for name, g in graphs:
        u_tree, u_dc = parametric.symanzik_u(g), parametric.symanzik_u_delcon(g)
        jobs += [
            Job(f"u.tree:{name}", lambda g=g: parametric.symanzik_u(g), _equals(u_dc)),
            Job(f"u.delcon:{name}", lambda g=g: parametric.symanzik_u_delcon(g), _equals(u_tree)),
        ]
        if len(g.edges) <= 10:
            jobs.append(Job(f"u.det:{name}", lambda g=g: parametric.symanzik_u_via_det(g), _equals(u_tree)))
        if len(g.edges) <= 9:
            jobs.append(Job(f"u.tutte_limit:{name}", lambda g=g: parametric.u_from_multivariate_tutte(g), _equals(u_tree)))
        for i in range(2 if g.legs else 0):
            ext = checks.random_conserved_momenta(rng, g)
            v_ref = v_from_merged_trees(g, ext)
            jobs.append(Job(f"v.two_tree:{name}.{i}", lambda g=g, ext=ext: parametric.symanzik_v(g, ext), _equals(v_ref)))
    ribbons = [(f"{name}.{i}", ribbonize(g, rng)) for name, g in graphs if len(g.edges) <= 9 for i in range(2)]
    for name, rg in ribbons:
        ext = checks.random_conserved_momenta(rng, rg.graph)
        ncu, ncu_dc = parametric.nc_u(rg), parametric.nc_u_delcon(rg)
        jobs += [
            Job(f"nc_u:{name}", lambda rg=rg: parametric.nc_u(rg), _equals(ncu_dc)),
            Job(f"nc_u.delcon:{name}", lambda rg=rg: parametric.nc_u_delcon(rg), _equals(ncu)),
            Job(f"nc_u.br:{name}", lambda rg=rg: parametric.nc_u_from_multivariate_br(rg), _equals(ncu)),
            Job(
                f"nc_v.real:{name}",
                lambda rg=rg, ext=ext: parametric.nc_v_real(rg, ext),
                _equals(parametric.nc_v_real(rg, ext, face_choice=1)),
            ),
            Job(f"nc_v.imag:{name}", lambda rg=rg, ext=ext: parametric.nc_v_imag(rg, ext), _equals(_nc_v_imag_rotated(rg, ext))),
        ]
    for i in range(8):
        a = checks.random_skew_matrix(rng, 6, over_polys=True)
        pf, pf_rec = linalg.pfaffian(a), linalg.pfaffian_recursive(a)
        d = checks.random_diag_matrix(rng, 3, over_polys=True)
        s = checks.random_skew_matrix(rng, 3, over_polys=True)
        jobs += [
            Job(f"pfaffian:m{i}", lambda a=a: linalg.pfaffian(a), _equals(pf_rec)),
            Job(f"pfaffian_recursive:m{i}", lambda a=a: linalg.pfaffian_recursive(a), _equals(pf)),
            Job(f"det_d_plus_a_identity:m{i}", lambda d=d, s=s: linalg.det_d_plus_a_identity(d, s), _equals(True)),
        ]
    return jobs


# -- hopf-bphz ------------------------------------------------------------------------


def _connected_bridgeless(vertices: frozenset[str], edges: list) -> bool:
    """Connected and without a bridge, by plain graph search."""

    def reachable(src: str, skip=None) -> set[str]:
        seen, todo = {src}, [src]
        while todo:
            v = todo.pop()
            for e in edges:
                if e is not skip and v in (e.tail, e.head):
                    w = e.head if v == e.tail else e.tail
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
        return seen

    if reachable(next(iter(vertices))) != vertices:
        return False
    return all(e.is_loop or e.head in reachable(e.tail, skip=e) for e in edges)


def divergent_family_count(g, model: str) -> int:
    """Families of vertex-disjoint divergent subgraphs, found without `feyncomb.hopf`
    except for the gw model's planarity test of each candidate.

    A divergent subgraph is a proper nonempty edge subset that is connected and
    bridgeless; under phi4 and gw it has 2 or 4 external half-edges, and under
    gw its ribbon subgraph is also planar regular.  The coproduct's
    coefficients sum to 2 + this count.
    """
    base = g.graph if isinstance(g, RibbonGraph) else g
    degree = {v: sum(1 for leg in base.legs if leg.vertex == v) for v in base.vertices}
    for e in base.edges:
        degree[e.tail] += 1
        degree[e.head] += 1
    members = []
    for r in range(1, len(base.edges)):
        for combo in itertools.combinations(base.edges, r):
            verts = frozenset(v for e in combo for v in (e.tail, e.head))
            if not _connected_bridgeless(verts, list(combo)):
                continue
            if model != "core":
                if sum(degree[v] for v in verts) - 2 * r not in (2, 4):
                    continue
                if model == "gw" and not member_graph(g, frozenset(e.id for e in combo)).is_planar_regular():
                    continue
            members.append(verts)

    def grow(start: int, used: frozenset[str]) -> int:
        return sum(1 + grow(i + 1, used | members[i]) for i in range(start, len(members)) if not members[i] & used)

    return grow(0, frozenset())


def hopf_digest(value) -> str:
    """sha256 of a coproduct, antipode or amplitude as the CLI renders it."""
    return hashlib.sha256(value.render().encode("utf-8")).hexdigest()


def _hopf_jobs(name: str, model: str, g, digests: dict[str, str] | None = None) -> list[Job]:
    """Coproduct, antipode, Rbar and renormalization jobs on `g`.

    Each job returns (output, whether its checks held).  With `digests`, the
    output's digest must also equal the one recorded under the job's name.
    """
    coproduct_size = 2 + divergent_family_count(g, model)

    def axioms(h: HopfAlgebra) -> bool:
        return (
            h.check_coassociativity(g) and h.check_hopf_axioms(g) and h.check_counit(g) and h.check_grading(g)
            and sum(h.coproduct(g).terms.values()) == coproduct_size
        )

    def coproduct():
        h = HopfAlgebra(model)
        return h.coproduct(g), axioms(h)

    def antipode():
        h = HopfAlgebra(model)
        return h.antipode(g), axioms(h)

    def rbar():
        h = HopfAlgebra(model)
        amp = h.bogoliubov_hopf(g)
        return amp, h.bogoliubov_forest(g) == amp

    def renorm():
        h = HopfAlgebra(model)
        amp = h.renormalized(g)
        rb = h.bogoliubov_hopf(g)
        return amp, amp == rb - rb.project()

    def job(op: str, run) -> Job:
        key = f"{op}:{model}:{name}"
        if digests is None:
            return Job(key, run, lambda out: out[1] is True)
        ref = digests.get(key)  # a job missing from the reference fails its check
        return Job(key, run, lambda out: out[1] is True and hopf_digest(out[0]) == ref)

    return [job("coproduct", coproduct), job("antipode", antipode), job("rbar", rbar), job("renorm", renorm)]


def _fixed_hopf_inputs() -> list[tuple[str, str, object]]:
    """(name, model, graph) of the hopf-bphz inputs that do not depend on the seed."""
    inputs = [(n, model, fixtures.build(n)) for n in ("fig4", "fig5", "nestedchain", "twobubble") for model in ("phi4", "core")]
    # The core model's forest sum on the circulants takes minutes (C6: 70 s).
    inputs += [("C5cut", "phi4", cut_circulant(5)), ("C6cut", "phi4", cut_circulant(6))]
    return inputs


def hopf_transcript() -> dict[str, str]:
    """Output digest of every hopf-bphz job on an input that does not depend on the seed."""
    out = {}
    for name, model, g in _fixed_hopf_inputs():
        for job in _hopf_jobs(name, model, g):
            out[job.name] = hopf_digest(job.run()[0])
    return out


def hopf_bphz(seed: int, fixture_dir: str) -> list[Job]:
    rng = random.Random(seed)
    with open(HOPF_REFERENCE_PATH, encoding="utf-8") as fh:
        digests = json.load(fh)
    # Shapes (vertices, legs) whose Hopf work varies little from graph to graph;
    # the 4-loop (4, 2) graphs vary 2.5x under the core model.
    shapes = [(3, 2), (3, 4), (4, 4)] * 4
    jobs = []
    for i, (nv, nl) in enumerate(shapes):
        g = _phi4_graph(rng, nv, nl)
        for model in ("phi4", "core"):
            jobs += _hopf_jobs(f"phi4_{i}", model, g)
    for name, model, g in _fixed_hopf_inputs():
        jobs += _hopf_jobs(name, model, g, digests)
    # gw on some 2-leg ribbonized phi4 graphs raises ValueError in `hopf.cograph`
    # (a library defect, reproduced in CHANGES.md), so these graphs have 4 legs.
    for i in range(4):
        jobs += _hopf_jobs(f"ribbon{i}", "gw", ribbonize(_phi4_graph(rng, 3, 4), rng))
    return jobs


WORKLOADS = {
    "cli-matrix": cli_matrix,
    "tutte-br": tutte_br,
    "symanzik-moyal": symanzik_moyal,
    "hopf-bphz": hopf_bphz,
}
