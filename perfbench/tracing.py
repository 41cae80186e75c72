"""Per-layer spans recorded from the benchmark's own files.

`Tracer.install` replaces public functions of `feyncomb` with wrappers,
each at the place its callers look it up (a class attribute, or a module
global, also in every module that imported the name).  A wrapper records
one span per call: its count, its inclusive time (outermost call of the
same name only, so recursion is not counted twice) and its self time (its
duration minus the time covered by its child spans).  Spans are aggregated
in memory as they close.  `Tracer.uninstall` puts every original object
back.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from time import perf_counter

from feyncomb import cli, formal, graphs, hopf, linalg, parametric, poly, polynomials, ribbon

LAYERS = ("poly", "graphs", "ribbon", "polynomials", "parametric", "linalg", "formal", "hopf", "cli")

DELCON_SPANS = ("polynomials.tutte.delcon", "polynomials.multivariate_tutte.delcon", "polynomials.bollobas_riordan.delcon")
MEMO_DELCON_SPANS = ("polynomials.tutte.delcon", "polynomials.bollobas_riordan.delcon")


def _method(args, kwargs) -> str:
    return kwargs.get("method", args[1] if len(args) > 1 else "subset")


# -- counters run after a call returns: (tracer, args, kwargs, result) ------------


def _count_add(tr, args, kwargs, result):
    tr.counts["poly.add.terms_copied"] += len(args[0].terms)


def _count_mul(tr, args, kwargs, result):
    other = args[1]
    n_other = len(other.terms) if isinstance(other, poly.MultiPoly) else int(other != 0)
    tr.counts["poly.mul.term_products"] += len(args[0].terms) * n_other


def _count_trees(tr, args, kwargs, result):
    g = args[0]
    tr.counts["graphs.spanning_trees.found"] += len(result)
    tr.counts["graphs.spanning_trees.candidates"] += math.comb(len(g.edges), len(g.vertices) - 1)


def _count_two_trees(tr, args, kwargs, result):
    g = args[0]
    tr.counts["graphs.spanning_two_trees.found"] += len(result)
    if len(g.vertices) >= 2:
        tr.counts["graphs.spanning_two_trees.candidates"] += math.comb(len(g.edges), len(g.vertices) - 2)


def _count_quasi_trees(tr, args, kwargs, result):
    tr.counts["ribbon.quasi_trees.found"] += len(result)
    tr.counts["ribbon.quasi_trees.candidates"] += 2 ** len(args[0].edges)


def _count_divergent(tr, args, kwargs, result):
    tr.counts["hopf.divergent_members.found"] += len(result)
    tr.counts["hopf.divergent_members.candidates"] += 2 ** len(hopf.underlying(args[1]).edges) - 2
    tr.hosts[-1][id(args[1])] = args[1]


def _count_canonical(tr, args, kwargs, result):
    if any(tr.active[k] for k in MEMO_DELCON_SPANS):
        tr.counts["polynomials.delcon.nodes"] += 1


def _count_contract(tr, args, kwargs, result):
    # A ribbon contraction contracts its underlying graph too; count it once.
    if any(tr.active[k] for k in DELCON_SPANS) and not tr.active["ribbon.surgery"]:
        tr.counts["polynomials.delcon.contractions"] += 1


def _count_ribbon_contract(tr, args, kwargs, result):
    if any(tr.active[k] for k in DELCON_SPANS):
        tr.counts["polynomials.delcon.contractions"] += 1


# (owner, attribute, span name or function of (args, kwargs), layer, counter)
_POLY = poly.MultiPoly
_G = graphs.Graph
_R = ribbon.RibbonGraph
_FA = formal.FormalAmplitude
_H = hopf.HopfAlgebra
TARGETS = [
    (_POLY, "__init__", "poly.init", "poly", None),
    (_POLY, "__add__", "poly.add", "poly", _count_add),
    (_POLY, "__radd__", "poly.add", "poly", _count_add),
    (_POLY, "__mul__", "poly.mul", "poly", _count_mul),
    (_POLY, "__rmul__", "poly.mul", "poly", _count_mul),
    (_POLY, "substitute", "poly.substitute", "poly", None),
    (_POLY, "canonical_string", "poly.canonical_string", "poly", None),
    (_G, "components", "graphs.components", "graphs", None),
    (_G, "spanning_trees", "graphs.spanning_trees", "graphs", _count_trees),
    (_G, "spanning_two_trees", "graphs.spanning_two_trees", "graphs", _count_two_trees),
    (_G, "is_one_pi", "graphs.is_one_pi", "graphs", None),
    (_G, "classify_edge", "graphs.classify_edge", "graphs", None),
    (_G, "canonical_form", "graphs.canonical_form", "graphs", _count_canonical),
    (_G, "delete_edge", "graphs.surgery", "graphs", None),
    (_G, "contract_edge", "graphs.surgery", "graphs", _count_contract),
    (_G, "reorient", "graphs.surgery", "graphs", None),
    (_R, "faces", "ribbon.faces", "ribbon", None),
    (_R, "quasi_trees", "ribbon.quasi_trees", "ribbon", _count_quasi_trees),
    (_R, "two_quasi_trees", "ribbon.two_quasi_trees", "ribbon", None),
    (_R, "canonical_form", "ribbon.canonical_form", "ribbon", _count_canonical),
    (_R, "ribbon_delete", "ribbon.surgery", "ribbon", None),
    (_R, "ribbon_contract", "ribbon.surgery", "ribbon", _count_ribbon_contract),
    (_R, "reorient", "ribbon.surgery", "ribbon", None),
    (ribbon, "load_fixture", "ribbon.load_fixture", "ribbon", None),
    (cli, "load_fixture", "ribbon.load_fixture", "ribbon", None),
    (polynomials, "tutte", lambda a, k: "polynomials.tutte." + _method(a, k), "polynomials", None),
    (polynomials, "multivariate_tutte", lambda a, k: "polynomials.multivariate_tutte." + _method(a, k), "polynomials", None),
    (parametric, "multivariate_tutte", lambda a, k: "polynomials.multivariate_tutte." + _method(a, k), "polynomials", None),
    (polynomials, "bollobas_riordan", lambda a, k: "polynomials.bollobas_riordan." + _method(a, k), "polynomials", None),
    (polynomials, "multivariate_br", "polynomials.multivariate_br", "polynomials", None),
    (parametric, "multivariate_br", "polynomials.multivariate_br", "polynomials", None),
    (polynomials, "count_colorings_oracle", "polynomials.oracles", "polynomials", None),
    (polynomials, "count_flows_oracle", "polynomials.oracles", "polynomials", None),
    (parametric, "symanzik_u", "parametric.u_tree", "parametric", None),
    (parametric, "symanzik_u_via_det", "parametric.u_det", "parametric", None),
    (parametric, "symanzik_u_delcon", "parametric.u_delcon", "parametric", None),
    (parametric, "u_from_multivariate_tutte", "parametric.u_tutte_limit", "parametric", None),
    (parametric, "symanzik_v", "parametric.v_two_tree", "parametric", None),
    (parametric, "nc_u", "parametric.nc_u", "parametric", None),
    (parametric, "nc_u_delcon", "parametric.nc_u_delcon", "parametric", None),
    (parametric, "nc_u_from_multivariate_br", "parametric.nc_u_br", "parametric", None),
    (parametric, "nc_v_real", "parametric.nc_v_real", "parametric", None),
    (parametric, "nc_v_imag", "parametric.nc_v_imag", "parametric", None),
    (linalg, "det", "linalg.det", "linalg", None),
    (linalg, "divexact", "linalg.divexact", "linalg", None),
    (linalg, "pfaffian", "linalg.pfaffian", "linalg", None),
    (linalg, "pfaffian_recursive", "linalg.pfaffian", "linalg", None),
    (linalg, "det_d_plus_a_identity", "linalg.det_d_plus_a_identity", "linalg", None),
    (_FA, "__mul__", "formal.mul", "formal", None),
    (_FA, "__rmul__", "formal.mul", "formal", None),
    (_FA, "__add__", "formal.add", "formal", None),
    (_FA, "project", "formal.project", "formal", None),
    (_FA, "render", "formal.render", "formal", None),
    (_H, "divergent_members", "hopf.divergent_members", "hopf", _count_divergent),
    (_H, "families", "hopf.families", "hopf", None),
    (_H, "zimmermann_forests", "hopf.zimmermann_forests", "hopf", None),
    (_H, "label", "hopf.label", "hopf", None),
    (hopf, "member_graph", "hopf.member_graph", "hopf", None),
    (hopf, "cograph", "hopf.cograph", "hopf", None),
    (cli, "run", "cli.run", "cli", None),
    (cli, "build_parser", "cli.build_parser", "cli", None),
]


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.layer_self: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self.hosts: list[dict] = [{}]  # per job: graphs handed to divergent_members
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, layer, counter):
        tr = self
        fixed = isinstance(name, str)

        def wrapper(*args, **kwargs):
            span = name if fixed else name(args, kwargs)
            stack = tr._stack
            child = [0.0]
            stack.append(child)
            tr.active[span] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                tr.active[span] -= 1
                if stack:
                    stack[-1][0] += dt
                own = dt - child[0]
                tr.self_s[span] += own
                tr.layer_self[layer] += own
                tr.calls[span] += 1
                if not tr.active[span]:
                    tr.incl_s[span] += dt
            if counter is not None:
                counter(tr, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def begin_job(self) -> None:
        self.hosts.append({})

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for owner, attr, name, layer, counter in TARGETS:
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, layer, counter))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_total(self) -> float:
        return sum(self.layer_self.values())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _is_ratio(name: str) -> bool:
    return name.endswith(".yield") or name.endswith("_ratio") or name.startswith("share.")


def per_layer_metrics(tr: Tracer, job_wall_s: float, host_labels: int, scale: float, passes: int) -> dict[str, float]:
    """The per-layer metric values of one traced run (0 where a layer was not called).

    Counts and times are per pass over the job list, so they do not grow with
    the number of passes that fit in the time.  Times are multiplied by
    `scale`, which converts wall to reference seconds.
    """
    c, n = tr.calls, tr.counts
    s = defaultdict(float, {k: v * scale for k, v in tr.self_s.items()})
    i = defaultdict(float, {k: v * scale for k, v in tr.incl_s.items()})
    out = {
        "poly.init.calls": c["poly.init"],
        "poly.init.self_s": s["poly.init"],
        "poly.add.calls": c["poly.add"],
        "poly.add.self_s": s["poly.add"],
        "poly.add.terms_copied": n["poly.add.terms_copied"],
        "poly.mul.calls": c["poly.mul"],
        "poly.mul.self_s": s["poly.mul"],
        "poly.mul.term_products": n["poly.mul.term_products"],
        "poly.substitute.self_s": s["poly.substitute"],
        "poly.canonical_string.self_s": s["poly.canonical_string"],
        "graphs.components.calls": c["graphs.components"],
        "graphs.components.self_s": s["graphs.components"],
        "graphs.spanning_trees.self_s": s["graphs.spanning_trees"],
        "graphs.spanning_trees.yield": _ratio(n["graphs.spanning_trees.found"], n["graphs.spanning_trees.candidates"]),
        "graphs.spanning_two_trees.self_s": s["graphs.spanning_two_trees"],
        "graphs.spanning_two_trees.yield": _ratio(
            n["graphs.spanning_two_trees.found"], n["graphs.spanning_two_trees.candidates"]
        ),
        "graphs.is_one_pi.calls": c["graphs.is_one_pi"],
        "graphs.is_one_pi.self_s": s["graphs.is_one_pi"],
        "graphs.classify_edge.calls": c["graphs.classify_edge"],
        "graphs.canonical_form.calls": c["graphs.canonical_form"],
        "graphs.canonical_form.self_s": s["graphs.canonical_form"],
        "graphs.surgery.calls": c["graphs.surgery"],
        "ribbon.faces.calls": c["ribbon.faces"],
        "ribbon.faces.self_s": s["ribbon.faces"],
        "ribbon.quasi_trees.self_s": s["ribbon.quasi_trees"],
        "ribbon.quasi_trees.yield": _ratio(n["ribbon.quasi_trees.found"], n["ribbon.quasi_trees.candidates"]),
        "ribbon.two_quasi_trees.self_s": s["ribbon.two_quasi_trees"],
        "ribbon.canonical_form.calls": c["ribbon.canonical_form"],
        "ribbon.canonical_form.self_s": s["ribbon.canonical_form"],
        "ribbon.surgery.calls": c["ribbon.surgery"],
        "ribbon.load_fixture.self_s": s["ribbon.load_fixture"],
        "polynomials.tutte.subset_s": i["polynomials.tutte.subset"],
        "polynomials.tutte.delcon_s": i["polynomials.tutte.delcon"],
        "polynomials.multivariate_tutte.subset_s": i["polynomials.multivariate_tutte.subset"],
        "polynomials.multivariate_tutte.delcon_s": i["polynomials.multivariate_tutte.delcon"],
        "polynomials.bollobas_riordan.subset_s": i["polynomials.bollobas_riordan.subset"],
        "polynomials.bollobas_riordan.delcon_s": i["polynomials.bollobas_riordan.delcon"],
        "polynomials.multivariate_br_s": i["polynomials.multivariate_br"],
        "polynomials.oracles_s": i["polynomials.oracles"],
        "polynomials.delcon.nodes": n["polynomials.delcon.nodes"],
        "polynomials.delcon.contractions": n["polynomials.delcon.contractions"],
    }
    for route in (
        "u_tree", "u_det", "u_delcon", "u_tutte_limit", "v_two_tree",
        "nc_u", "nc_u_delcon", "nc_u_br", "nc_v_real", "nc_v_imag",
    ):
        out[f"parametric.{route}_s"] = i[f"parametric.{route}"]
    out.update(
        {
            "linalg.det.calls": c["linalg.det"],
            "linalg.det.self_s": s["linalg.det"],
            "linalg.divexact.calls": c["linalg.divexact"],
            "linalg.divexact.self_s": s["linalg.divexact"],
            "linalg.pfaffian.self_s": s["linalg.pfaffian"],
            "linalg.det_d_plus_a_identity_s": i["linalg.det_d_plus_a_identity"],
            "formal.mul.calls": c["formal.mul"],
            "formal.mul.self_s": s["formal.mul"],
            "formal.add.calls": c["formal.add"],
            "formal.project.calls": c["formal.project"],
            "formal.render.self_s": s["formal.render"],
            "hopf.divergent_members.calls": c["hopf.divergent_members"],
            "hopf.divergent_members.self_s": s["hopf.divergent_members"],
            "hopf.divergent_members.candidates": n["hopf.divergent_members.candidates"],
            "hopf.divergent_members.yield": _ratio(
                n["hopf.divergent_members.found"], n["hopf.divergent_members.candidates"]
            ),
            "hopf.divergent_members.repeat_ratio": _ratio(c["hopf.divergent_members"], host_labels),
            "hopf.families.self_s": s["hopf.families"],
            "hopf.zimmermann_forests.self_s": s["hopf.zimmermann_forests"],
            "hopf.member_graph.calls": c["hopf.member_graph"],
            "hopf.cograph.calls": c["hopf.cograph"],
            "hopf.cograph.self_s": s["hopf.cograph"],
            "hopf.label.calls": c["hopf.label"],
            "cli.run.calls": c["cli.run"],
            "cli.run.self_s": s["cli.run"],
            "cli.build_parser.self_s": s["cli.build_parser"],
        }
    )
    out = {name: value if _is_ratio(name) else value / passes for name, value in out.items()}
    for layer in LAYERS:
        out[f"share.{layer}"] = _ratio(tr.layer_self[layer], job_wall_s)
    return out
