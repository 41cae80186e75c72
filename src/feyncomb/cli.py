"""Command-line interface: every operation on JSON fixtures, deterministically.

Commands:
  feyncomb poly  {tutte,ztutte,chromatic,flow,br,zbr} fixture.json
                 [--method subset|delcon] [--check] [--json]
  feyncomb param {u,v,udet,ustar,vstar-re,vstar-im,integrand} fixture.json
                 [--momenta momenta.json] [--check-all] [--json]
  feyncomb hopf  {coproduct,antipode,forests,rbar,renorm} fixture.json
                 --model {phi4,gw,core} [--check] [--json]
  feyncomb selftest

`--check`/`--check-all` print one PASS/FAIL line per entry of
`checks.ROUTE_CHECKS` for the operation: the same cross-checks, by the same
code, that `selftest` runs on its corpora.

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

from . import checks, parametric, polynomials
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

    def check(self, results: list[checks.Check]):
        for name, ok, _ in results:
            self.lines.append(f"{'PASS' if ok else 'FAIL'} {name}")
            self.failed |= not ok

    def emit_json(self, payload: dict):
        self.lines.append(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_poly(args) -> tuple[int, list[str]]:
    rep = _Report()
    fixture = load_fixture(args.fixture)
    g = x = underlying(fixture)
    op = args.operation
    if op == "tutte":
        p = polynomials.tutte(g, method=args.method)
    elif op == "ztutte":
        p = polynomials.multivariate_tutte(g, method=args.method)
    elif op == "chromatic":
        p = polynomials.chromatic(g)
    elif op == "flow":
        p = polynomials.flow_poly(g)
    elif op == "br":
        x = _need_ribbon(fixture, op)
        p = polynomials.bollobas_riordan(x, method=args.method)
    elif op == "zbr":
        x = _need_ribbon(fixture, op)
        p = polynomials.multivariate_br(x)
    else:  # pragma: no cover
        raise ValueError(f"unknown poly operation {op!r}")
    rep.say(p.canonical_string())
    # the quasi-tree slice is only defined on a connected ribbon graph
    if args.check and (op != "zbr" or g.is_connected()):
        rep.check(checks.route_checks(op, x, p))
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
    g = x = underlying(fixture)
    op = args.operation
    if op in ("ustar", "vstar-re", "vstar-im"):
        x = _need_ribbon(fixture, op)
    ext = _momenta_for(args, g) if op in ("v", "integrand", "vstar-re", "vstar-im") else None
    if op == "integrand":
        rec = parametric.parametric_integrand(g, ext, 1)
        rep.say("U: " + rec.u.canonical_string())
        rep.say("V: " + rec.v.canonical_string())
        rep.say("mass: " + rec.mass_term.canonical_string())
        if args.json:
            rep.emit_json(
                {"U": _poly_json(rec.u), "V": _poly_json(rec.v), "mass": _poly_json(rec.mass_term)}
            )
        return 0, rep.lines
    if op == "u":
        value = parametric.symanzik_u(g)
    elif op == "udet":
        value = parametric.symanzik_u_via_det(g)
    elif op == "v":
        value = parametric.symanzik_v(g, ext)
    elif op == "ustar":
        value = parametric.nc_u(x)
    elif op == "vstar-re":
        value = parametric.nc_v_real(x, ext)
    elif op == "vstar-im":
        value = parametric.nc_v_imag(x, ext)
    else:  # pragma: no cover
        raise ValueError(f"unknown param operation {op!r}")
    p = value if isinstance(value, MultiPoly) else value.to_poly()  # U* and V* are theta-tracked
    rep.say(p.canonical_string())
    if args.check_all:
        rep.check(checks.route_checks(op, x, value, ext))
    if args.json:
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
    value = None
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
    elif op in ("rbar", "renorm"):
        value = h.bogoliubov_hopf(g) if op == "rbar" else h.renormalized(g)
        rep.say(value.render())
        payload = {"normal_form": value.render()}
    else:  # pragma: no cover
        raise ValueError(f"unknown hopf operation {op!r}")
    if args.check:
        rep.check(checks.route_checks(op, g, value, h))
    if args.json:
        rep.emit_json(payload)
    return (1 if rep.failed else 0), rep.lines


def _cmd_selftest(_args) -> tuple[int, list[str]]:
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
    except RecursionError:  # a valid input too deep for a recursive route
        return 2, buf.getvalue() + "error: input too large for this route (recursion limit reached)\n"
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
