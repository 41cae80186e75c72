"""Command-line interface: every operation on JSON fixtures, deterministically.

Commands:
  feyncomb poly  {tutte,ztutte,chromatic,flow,br,zbr} fixture.json
                 [--method subset|delcon] [--check] [--json]
  feyncomb param {u,v,udet,ustar,vstar-re,vstar-im,integrand} fixture.json
                 [--momenta momenta.json] [--check-all] [--json]
  feyncomb hopf  {coproduct,antipode,forests,rbar,renorm} fixture.json
                 --model {phi4,gw,core} [--check] [--json]
  feyncomb selftest

`OPERATIONS` is the one list of operations: each entry gives its command,
its input (any fixture, a ribbon fixture, or a ribbon fixture under
`--model gw`), whether it reads `--momenta`, its route and its display.  The
parser's choices, the input checks and the output all come from it.  A
display returns the output lines and a function of no arguments that writes
the `--json` text, called only under `--json`.  A polynomial is sorted once
per display, and its line and its JSON block are both written from those
sorted terms.

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
import functools
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, NamedTuple

from . import checks, parametric, polynomials
from .graphs import Graph
from .hopf import HopfAlgebra, underlying
from .poly import Monomial, MultiPoly, Rational, terms_text
from .ribbon import RibbonGraph, load_fixture


# -- displays: a route's value -> (output lines, a function returning the --json text) --

# The one writer of JSON payloads of the Hopf displays, whose payloads are small.
_dumps = functools.partial(json.dumps, indent=2, sort_keys=True)


def _poly_block(rows: list[tuple[Monomial, Rational]], pad: str = "") -> str:
    """The JSON object {"polynomial": [{"coeff": "c", "monomial": {v: e}}, ...]}
    of sorted (monomial, coeff) rows, written as `_dumps` writes it, every line
    after the first indented by `pad`.  One f-string per term, the line of each
    (variable, exponent) pair made once: a monomial's names are already sorted,
    and a coefficient's text ([-0-9/]) needs no escaping."""
    if not rows:
        return f'{{\n{pad}  "polynomial": []\n{pad}}}'
    inner = pad + "        "
    line = {pair: f"{inner}{_quote(pair[0])}: {pair[1]}" for pair in {pair for mono, _ in rows for pair in mono}}
    close = f"\n{pad}      }}"
    items = []
    for mono, c in rows:
        body = "{\n" + ",\n".join(map(line.__getitem__, mono)) + close if mono else "{}"
        items.append(f'{pad}    {{\n{pad}      "coeff": "{c}",\n{pad}      "monomial": {body}\n{pad}    }}')
    return f'{{\n{pad}  "polynomial": [\n' + ",\n".join(items) + f"\n{pad}  ]\n{pad}}}"


def _show_poly(value) -> tuple[list[str], Callable[[], str]]:
    p = value if isinstance(value, MultiPoly) else value.to_poly()  # U* and V* are theta-tracked
    rows = p.sorted_terms()
    return [terms_text(rows)], lambda: _poly_block(rows)


def _show_integrand(rec) -> tuple[list[str], Callable[[], str]]:
    parts = [(key, p.sorted_terms()) for key, p in (("U", rec.u), ("V", rec.v), ("mass", rec.mass_term))]

    def json_text() -> str:  # U, V, mass: already the order of sort_keys
        return "{\n" + ",\n".join(f'  "{key}": {_poly_block(rows, "  ")}' for key, rows in parts) + "\n}"

    return [f"{key}: {terms_text(rows)}" for key, rows in parts], json_text


def _show_coproduct(delta) -> tuple[list[str], Callable[[], str]]:
    return [delta.render()], lambda: _dumps(
        {"terms": [{"left": list(a), "right": list(b), "coeff": c} for (a, b), c in sorted(delta.terms.items())]}
    )


def _show_antipode(s) -> tuple[list[str], Callable[[], str]]:
    return [s.render()], lambda: _dumps(
        {"terms": [{"monomial": list(m), "coeff": c} for m, c in sorted(s.terms.items())]}
    )


def _show_forests(forests) -> tuple[list[str], Callable[[], str]]:
    lines = sorted(
        "{" + ", ".join("{" + ",".join(sorted(m)) + "}" for m in sorted(f, key=sorted)) + "}"
        for f in forests
    )
    return lines, lambda: _dumps({"forests": sorted([sorted([sorted(m) for m in f]) for f in forests])})


def _show_amplitude(amp) -> tuple[list[str], Callable[[], str]]:
    text = amp.render()
    return [text], lambda: _dumps({"normal_form": text})


# -- the operation table ---------------------------------------------------------------


class Operation(NamedTuple):
    command: str  # poly, param or hopf
    input: str  # graph (any fixture), ribbon (a ribbon fixture), model (a ribbon fixture under --model gw)
    momenta: bool  # reads --momenta
    route: Callable  # (input, args, extra) -> value; extra is the momenta or the HopfAlgebra
    display: Callable  # value -> (lines, a function of no arguments returning the --json text)


# Routes look functions up as module attributes at call time, so a patched or
# traced route is the one that runs.
OPERATIONS = {
    "tutte": Operation("poly", "graph", False, lambda g, a, _: polynomials.tutte(g, a.method), _show_poly),
    "ztutte": Operation(
        "poly", "graph", False, lambda g, a, _: polynomials.multivariate_tutte(g, a.method), _show_poly
    ),
    "chromatic": Operation("poly", "graph", False, lambda g, *_: polynomials.chromatic(g), _show_poly),
    "flow": Operation("poly", "graph", False, lambda g, *_: polynomials.flow_poly(g), _show_poly),
    "br": Operation(
        "poly", "ribbon", False, lambda rg, a, _: polynomials.bollobas_riordan(rg, a.method), _show_poly
    ),
    "zbr": Operation("poly", "ribbon", False, lambda rg, *_: polynomials.multivariate_br(rg), _show_poly),
    "u": Operation("param", "graph", False, lambda g, *_: parametric.symanzik_u(g), _show_poly),
    "v": Operation("param", "graph", True, lambda g, _, ext: parametric.symanzik_v(g, ext), _show_poly),
    "udet": Operation("param", "graph", False, lambda g, *_: parametric.symanzik_u_via_det(g), _show_poly),
    "ustar": Operation("param", "ribbon", False, lambda rg, *_: parametric.nc_u(rg), _show_poly),
    "vstar-re": Operation("param", "ribbon", True, lambda rg, _, ext: parametric.nc_v_real(rg, ext), _show_poly),
    "vstar-im": Operation("param", "ribbon", True, lambda rg, _, ext: parametric.nc_v_imag(rg, ext), _show_poly),
    "integrand": Operation(
        "param", "graph", True, lambda g, _, ext: parametric.parametric_integrand(g, ext, 1), _show_integrand
    ),
    "coproduct": Operation("hopf", "model", False, lambda g, _, h: h.coproduct(g), _show_coproduct),
    "antipode": Operation("hopf", "model", False, lambda g, _, h: h.antipode(g), _show_antipode),
    "forests": Operation("hopf", "model", False, lambda g, _, h: h.zimmermann_forests(g), _show_forests),
    "rbar": Operation("hopf", "model", False, lambda g, _, h: h.bogoliubov_hopf(g), _show_amplitude),
    "renorm": Operation("hopf", "model", False, lambda g, _, h: h.renormalized(g), _show_amplitude),
}


def _momenta_for(args, g: Graph) -> dict:
    if args.momenta:
        with open(args.momenta, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"malformed momenta JSON: {exc}") from None
        return parametric.load_momenta_json(g, data)
    return parametric.zero_assignment(g)


def _cmd_operation(args) -> tuple[int, list[str]]:
    op = OPERATIONS[args.operation]
    fixture = load_fixture(args.fixture)
    g = underlying(fixture)
    needs_ribbon = op.input == "ribbon" or (op.input == "model" and args.model == "gw")
    if needs_ribbon and not isinstance(fixture, RibbonGraph):
        what = args.operation if op.input == "ribbon" else "the gw model"
        raise ValueError(f"{what} requires a ribbon fixture (type 'ribbon')")
    if getattr(args, "momenta", None) is not None and not op.momenta:
        raise ValueError(f"{args.operation} does not read --momenta")
    x = fixture if needs_ribbon else g
    if op.input == "model":
        extra = HopfAlgebra(args.model)
    else:
        extra = _momenta_for(args, g) if op.momenta else None
    value = op.route(x, args, extra)
    lines, json_text = op.display(value)
    failed = False
    if args.check and args.operation in checks.ROUTE_CHECKS:
        for name, ok, _ in checks.route_checks(args.operation, x, value, extra):
            lines.append(f"{'PASS' if ok else 'FAIL'} {name}")
            failed |= not ok
    if args.json:
        lines.append(json_text())
    return int(failed), lines


def _cmd_selftest(_args) -> tuple[int, list[str]]:
    ok, text = checks.run_all()
    return (0 if ok else 1), [text]


# command, help, its own option and that option's settings, the spelling of its check flag
_COMMANDS = (
    ("poly", "graph polynomials", "--method", {"choices": ["subset", "delcon"], "default": "subset"}, "--check"),
    (
        "param",
        "parametric-representation polynomials",
        "--momenta",
        {"help": "JSON file of external momenta"},
        "--check-all",
    ),
    (
        "hopf",
        "Hopf-algebra renormalization combinatorics",
        "--model",
        {"choices": ["phi4", "gw", "core"], "default": "phi4"},
        "--check",
    ),
)


# Help and usage text wrap at a fixed width, not at the terminal's or COLUMNS.
_FORMATTER = functools.partial(argparse.RawDescriptionHelpFormatter, width=78)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="feyncomb", description=__doc__, formatter_class=_FORMATTER)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text, flag, spec, check_flag in _COMMANDS:
        p = sub.add_parser(command, help=help_text, formatter_class=_FORMATTER)
        p.add_argument("operation", choices=[name for name, op in OPERATIONS.items() if op.command == command])
        p.add_argument("fixture")
        p.add_argument(flag, **spec)
        p.add_argument(check_flag, dest="check", action="store_true")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_cmd_operation)
    sub.add_parser("selftest", help="run the full cross-validation corpus", formatter_class=_FORMATTER).set_defaults(
        func=_cmd_selftest
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `run` uses, built once per process: parsing leaves no state in it."""
    return build_parser()


def run(argv: list[str]) -> tuple[int, str]:
    """Parse and execute; returns (exit code, combined output text)."""
    buf = io.StringIO()
    parser = _parser()
    try:
        with redirect_stdout(buf), redirect_stderr(buf):
            args = parser.parse_args(argv)
            code, lines = args.func(args)
    except SystemExit as exc:  # argparse usage errors
        code = 2 if exc.code else 0
        return code, buf.getvalue()
    except (OSError, ValueError, KeyError) as exc:
        return 2, buf.getvalue() + f"error: {exc}\n"
    except RecursionError:  # json.load on a fixture or momenta file nested too deeply
        return 2, buf.getvalue() + "error: JSON input nested too deeply to read (recursion limit reached)\n"
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
