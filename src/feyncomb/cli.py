"""Command-line interface: every operation on JSON fixtures, deterministically.

Commands:
  feyncomb poly  {tutte,ztutte,chromatic,flow,br,zbr} fixture.json
                 [--method subset|delcon] [--check] [--json]
  feyncomb param {u,v,udet,ustar,vstar-re,vstar-im,integrand} fixture.json
                 [--momenta momenta.json] [--check-all] [--json]
  feyncomb hopf  {coproduct,antipode,forests,rbar,renorm} fixture.json
                 --model {phi4,gw,core} [--check] [--json]
  feyncomb selftest

Exit codes: 0 success, 1 a --check/--check-all/selftest validation or an
internal invariant failed (one FAIL line), 2 malformed input or precondition
violation.  Output is byte-identical across runs, apart from the wall time
`selftest` prints for each criterion: no environment variables or
configuration files are consulted.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

from . import parametric, polynomials
from .graphs import Graph
from .hopf import HopfAlgebra, underlying
from .poly import MultiPoly
from .ribbon import RibbonGraph, load_fixture


def _poly_json(p: MultiPoly) -> dict:
    return {
        "polynomial": [
            {"coeff": str(c), "monomial": {v: e for v, e in mono}}
            for mono, c in p.sorted_terms()
        ]
    }


def _need_ribbon(g: Graph | RibbonGraph, what: str) -> RibbonGraph:
    if not isinstance(g, RibbonGraph):
        raise ValueError(f"{what} requires a ribbon fixture (type 'ribbon')")
    return g


class _Report:
    """Collects output lines and PASS/FAIL check results."""

    def __init__(self):
        self.lines: list[str] = []
        self.failed = False

    def say(self, text: str):
        self.lines.append(text)

    def check(self, name: str, ok: bool):
        self.lines.append(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            self.failed = True

    def emit_json(self, payload: dict):
        self.lines.append(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_poly(args) -> tuple[int, list[str]]:
    rep = _Report()
    fixture = load_fixture(args.fixture)
    g = underlying(fixture)
    op = args.operation
    if op == "tutte":
        p = polynomials.tutte(g, method=args.method)
        rep.say(p.canonical_string())
        if args.check:
            rep.check("subset == delcon", polynomials.tutte(g, "subset") == polynomials.tutte(g, "delcon"))
            rep.check("multivariate relation", polynomials.check_tutte_relation(g))
    elif op == "ztutte":
        p = polynomials.multivariate_tutte(g, method=args.method)
        rep.say(p.canonical_string())
        if args.check:
            rep.check(
                "subset == delcon",
                polynomials.multivariate_tutte(g, "subset") == polynomials.multivariate_tutte(g, "delcon"),
            )
    elif op == "chromatic":
        p = polynomials.chromatic(g)
        rep.say(p.canonical_string())
        if args.check:
            ok = all(
                p.eval_rational({"k": k}) == polynomials.count_colorings_oracle(g, k)
                for k in range(1, 5)
            )
            rep.check("matches brute-force colorings k=1..4", ok)
    elif op == "flow":
        p = polynomials.flow_poly(g)
        rep.say(p.canonical_string())
        if args.check:
            ok = all(
                p.eval_rational({"k": k}) == polynomials.count_flows_oracle(g, k)
                for k in range(2, 6)
            )
            rep.check("matches brute-force flows k=2..5", ok)
    elif op == "br":
        rg = _need_ribbon(fixture, "br")
        p = polynomials.bollobas_riordan(rg, method=args.method)
        rep.say(p.canonical_string())
        if args.check:
            rep.check(
                "subset == delcon",
                polynomials.bollobas_riordan(rg, "subset") == polynomials.bollobas_riordan(rg, "delcon"),
            )
            rep.check("z:=1 collapse equals Tutte", polynomials.check_br_tutte_specialization(rg))
    elif op == "zbr":
        rg = _need_ribbon(fixture, "zbr")
        p = polynomials.multivariate_br(rg)
        rep.say(p.canonical_string())
        if args.check and rg.underlying().is_connected():
            one_face = p.substitute({"x": MultiPoly.one()}).coefficient_of("z", 1)
            subsets = {frozenset(v[2:] for v, _ in mono) for mono in one_face.terms}
            rep.check("z^1 slice enumerates the quasi-trees", subsets == set(rg.quasi_trees()))
    else:  # pragma: no cover
        raise ValueError(f"unknown poly operation {op!r}")
    if args.json:
        rep.emit_json(_poly_json(p))
    return (1 if rep.failed else 0), rep.lines


def _momenta_for(args, g: Graph) -> dict:
    if args.momenta:
        with open(args.momenta, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"malformed momenta JSON: {exc}") from None
        return parametric.load_momenta_json(g, data)
    return parametric.zero_assignment(g)


def _cmd_param(args) -> tuple[int, list[str]]:
    rep = _Report()
    fixture = load_fixture(args.fixture)
    g = underlying(fixture)
    op = args.operation
    p = None
    if op == "u":
        p = parametric.symanzik_u(g)
        rep.say(p.canonical_string())
        if args.check_all:
            rep.check("tree sum == determinant", p == parametric.symanzik_u_via_det(g))
            rep.check("tree sum == deletion/contraction", p == parametric.symanzik_u_delcon(g))
            rep.check("tree sum == Tutte limit", p == parametric.u_from_multivariate_tutte(g))
    elif op == "udet":
        p = parametric.symanzik_u_via_det(g)
        rep.say(p.canonical_string())
        if args.check_all:
            rep.check("matches tree sum", p == parametric.symanzik_u(g))
            rep.check(
                "independent of dropped vertex",
                all(parametric.symanzik_u_via_det(g, drop_vertex=v) == p for v in g.vertices),
            )
    elif op == "v":
        ext = _momenta_for(args, g)
        p = parametric.symanzik_v(g, ext)
        rep.say(p.canonical_string())
        if args.check_all:
            rep.check(
                "component choice irrelevant",
                parametric.symanzik_v(g, ext, component=0) == parametric.symanzik_v(g, ext, component=1),
            )
            rep.check(
                "vanishes at zero momenta",
                parametric.symanzik_v(g, parametric.zero_assignment(g)).is_zero(),
            )
    elif op == "integrand":
        ext = _momenta_for(args, g)
        rec = parametric.parametric_integrand(g, ext, 1)
        rep.say("U: " + rec.u.canonical_string())
        rep.say("V: " + rec.v.canonical_string())
        rep.say("mass: " + rec.mass_term.canonical_string())
        if args.json:
            rep.emit_json(
                {"U": _poly_json(rec.u), "V": _poly_json(rec.v), "mass": _poly_json(rec.mass_term)}
            )
        return (1 if rep.failed else 0), rep.lines
    elif op == "ustar":
        rg = _need_ribbon(fixture, "ustar")
        tracked = parametric.nc_u(rg)
        p = tracked.to_poly()
        rep.say(p.canonical_string())
        if args.check_all:
            rep.check("deletion/contraction route agrees", parametric.nc_u_delcon(rg) == tracked)
            rep.check("multivariate BR limit agrees", parametric.nc_u_from_multivariate_br(rg) == tracked)
            rep.check(
                "commutative limit reproduces U",
                p.substitute({"theta": MultiPoly.zero()}) == parametric.symanzik_u(rg.underlying()),
            )
    elif op == "vstar-re":
        rg = _need_ribbon(fixture, "vstar-re")
        ext = _momenta_for(args, rg.underlying())
        p = parametric.nc_v_real(rg, ext).to_poly()
        rep.say(p.canonical_string())
        if args.check_all:
            rep.check(
                "face choice irrelevant",
                parametric.nc_v_real(rg, ext, face_choice=0) == parametric.nc_v_real(rg, ext, face_choice=1),
            )
    elif op == "vstar-im":
        rg = _need_ribbon(fixture, "vstar-im")
        ext = _momenta_for(args, rg.underlying())
        p = parametric.nc_v_imag(rg, ext).to_poly()
        rep.say(p.canonical_string())
        if args.check_all:
            ok = True
            for qt in rg.quasi_trees():
                boundary = rg.face_boundary_order(rg.faces(qt)[0])
                base = parametric.phase_psi(boundary, ext)
                ok &= all(
                    parametric.phase_psi(boundary, ext, start=s) == base
                    for s in range(1, len(boundary))
                )
            rep.check("cyclic boundary start irrelevant", ok)
    else:  # pragma: no cover
        raise ValueError(f"unknown param operation {op!r}")
    if args.json and p is not None:
        rep.emit_json(_poly_json(p))
    return (1 if rep.failed else 0), rep.lines


def _cmd_hopf(args) -> tuple[int, list[str]]:
    rep = _Report()
    fixture = load_fixture(args.fixture)
    if args.model == "gw":
        g: Graph | RibbonGraph = _need_ribbon(fixture, "the gw model")
    else:
        g = underlying(fixture)
    h = HopfAlgebra(args.model)
    op = args.operation
    payload: dict = {}
    if op == "coproduct":
        delta = h.coproduct(g)
        rep.say(delta.render())
        payload = {
            "terms": [
                {"left": list(a), "right": list(b), "coeff": c}
                for (a, b), c in sorted(delta.terms.items())
            ]
        }
    elif op == "antipode":
        s = h.antipode(g)
        rep.say(s.render())
        payload = {
            "terms": [{"monomial": list(m), "coeff": c} for m, c in sorted(s.terms.items())]
        }
    elif op == "forests":
        forests = h.zimmermann_forests(g)
        rendered = sorted(
            "{" + ", ".join("{" + ",".join(sorted(m)) + "}" for m in sorted(f, key=sorted)) + "}"
            for f in forests
        )
        for line in rendered:
            rep.say(line)
        payload = {"forests": sorted([sorted([sorted(m) for m in f]) for f in forests])}
    elif op == "rbar":
        amp = h.bogoliubov_hopf(g)
        rep.say(amp.render())
        payload = {"normal_form": amp.render()}
        if args.check:
            rep.check("forest formula agrees", h.bogoliubov_forest(g) == amp)
    elif op == "renorm":
        amp = h.renormalized(g)
        rep.say(amp.render())
        payload = {"normal_form": amp.render()}
        if args.check:
            rbar = h.bogoliubov_hopf(g)
            rep.check("equals (id - T) of Rbar", amp == rbar - rbar.project())
    else:  # pragma: no cover
        raise ValueError(f"unknown hopf operation {op!r}")
    if args.check and op in ("coproduct", "antipode", "forests"):
        rep.check("coassociativity", h.check_coassociativity(g))
        rep.check("Hopf antipode axiom", h.check_hopf_axioms(g))
        rep.check("counit axiom", h.check_counit(g))
        rep.check("grading compatibility", h.check_grading(g))
    if args.json:
        rep.emit_json(payload)
    return (1 if rep.failed else 0), rep.lines


def _cmd_selftest(_args) -> tuple[int, list[str]]:
    from . import checks

    ok, text = checks.run_all(verbose=True)
    return (0 if ok else 1), [text]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="feyncomb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("poly", help="graph polynomials")
    p_poly.add_argument("operation", choices=["tutte", "ztutte", "chromatic", "flow", "br", "zbr"])
    p_poly.add_argument("fixture")
    p_poly.add_argument("--method", choices=["subset", "delcon"], default="subset")
    p_poly.add_argument("--check", action="store_true")
    p_poly.add_argument("--json", action="store_true")
    p_poly.set_defaults(func=_cmd_poly)

    p_param = sub.add_parser("param", help="parametric-representation polynomials")
    p_param.add_argument(
        "operation",
        choices=["u", "v", "udet", "ustar", "vstar-re", "vstar-im", "integrand"],
    )
    p_param.add_argument("fixture")
    p_param.add_argument("--momenta", help="JSON file of external momenta")
    p_param.add_argument("--check-all", dest="check_all", action="store_true")
    p_param.add_argument("--json", action="store_true")
    p_param.set_defaults(func=_cmd_param)

    p_hopf = sub.add_parser("hopf", help="Hopf-algebra renormalization combinatorics")
    p_hopf.add_argument("operation", choices=["coproduct", "antipode", "forests", "rbar", "renorm"])
    p_hopf.add_argument("fixture")
    p_hopf.add_argument("--model", choices=["phi4", "gw", "core"], default="phi4")
    p_hopf.add_argument("--check", action="store_true")
    p_hopf.add_argument("--json", action="store_true")
    p_hopf.set_defaults(func=_cmd_hopf)

    p_self = sub.add_parser("selftest", help="run the full cross-validation corpus")
    p_self.set_defaults(func=_cmd_selftest)
    return parser


def run(argv: list[str]) -> tuple[int, str]:
    """Parse and execute; returns (exit code, combined output text)."""
    buf = io.StringIO()
    parser = build_parser()
    try:
        with redirect_stdout(buf), redirect_stderr(buf):
            args = parser.parse_args(argv)
            code, lines = args.func(args)
    except SystemExit as exc:  # argparse usage errors
        code = 2 if exc.code else 0
        return code, buf.getvalue()
    except (OSError, ValueError, KeyError) as exc:
        return 2, buf.getvalue() + f"error: {exc}\n"
    except AssertionError as exc:  # an internal invariant broke: report it like a failed check
        return 1, buf.getvalue() + f"FAIL internal invariant: {exc or 'assertion failed'}\n"
    text = buf.getvalue() + "\n".join(lines) + ("\n" if lines else "")
    return code, text


def main() -> None:
    code, text = run(sys.argv[1:])
    sys.stdout.write(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
