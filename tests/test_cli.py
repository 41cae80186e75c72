"""CLI behavior: golden outputs, exit codes, flags, determinism."""

import json
import os
import re

import pytest

from feyncomb import cli, fixtures
from feyncomb.poly import MultiPoly

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def path(name: str) -> str:
    return os.path.join(FIXTURE_DIR, f"{name}.json")


def run(*argv: str):
    return cli.run(list(argv))


def test_param_u_fig3_golden():
    code, text = run("param", "u", path("fig3"))
    assert code == 0
    assert text == "a.e1*a.e3 + a.e1*a.e4 + a.e2*a.e3 + a.e2*a.e4 + a.e3*a.e4\n"


def test_poly_tutte_bridge_golden():
    code, text = run("poly", "tutte", path("bridge"))
    assert code == 0
    assert text == "x\n"


def test_param_ustar_tadpole_check_all():
    code, text = run("param", "ustar", path("tadpole"), "--check-all")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "a.e1"
    assert sum(1 for l in lines if l.startswith("PASS")) == 3
    assert not any(l.startswith("FAIL") for l in lines)


def test_param_v_with_momenta_file():
    code, text = run(
        "param", "v", path("fig3"), "--momenta", os.path.join(FIXTURE_DIR, "fig3_momenta.json")
    )
    assert code == 0
    assert text.splitlines()[0] == (
        "2*a.e1*a.e2*a.e3 + 2*a.e1*a.e2*a.e4 + 3*a.e1*a.e3*a.e4 + a.e2*a.e3*a.e4"
    )


def test_poly_json_block():
    code, text = run("poly", "tutte", path("k3"), "--json")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "x^2 + x + y"
    payload = json.loads("\n".join(lines[1:]))
    assert payload["polynomial"][0] == {"coeff": "1", "monomial": {"x": 2}}


# -- the --json text against json.dumps of each display's payload as a dict ----------


def _poly_json(p):
    return {"polynomial": [{"coeff": str(c), "monomial": {v: e for v, e in mono}} for mono, c in p.sorted_terms()]}


def _old_payload(operation, value):
    """The payload of a display as a dict: its --json text must equal
    json.dumps(payload, indent=2, sort_keys=True)."""
    if operation == "integrand":
        return {key: _poly_json(p) for key, p in (("U", value.u), ("V", value.v), ("mass", value.mass_term))}
    if operation == "coproduct":
        return {"terms": [{"left": list(a), "right": list(b), "coeff": c} for (a, b), c in sorted(value.terms.items())]}
    if operation == "antipode":
        return {"terms": [{"monomial": list(m), "coeff": c} for m, c in sorted(value.terms.items())]}
    if operation == "forests":
        return {"forests": sorted([sorted([sorted(m) for m in f]) for f in value])}
    if operation in ("rbar", "renorm"):
        return {"normal_form": value.render()}
    return _poly_json(value if isinstance(value, MultiPoly) else value.to_poly())


def _json_cases():
    momenta = os.path.join(FIXTURE_DIR, "fig3_momenta.json")
    for name in fixtures.names():
        for operation, op in cli.OPERATIONS.items():
            argv = [op.command, operation, path(name)]
            if op.command == "hopf":
                yield from (argv + ["--model", model] for model in ("phi4", "gw", "core"))
            else:
                yield argv
                if op.momenta and name == "fig3":
                    yield argv + ["--momenta", momenta]


def _check_json_against_old_payloads(monkeypatch, cases) -> set:
    """Run each command with and without --json; the --json run must print the
    same text followed by json.dumps of the old payload.  Returns the
    operations covered, commands the input does not admit skipped."""
    values = []
    for operation, op in list(cli.OPERATIONS.items()):
        def display(value, show=op.display):
            values.append(value)
            return show(value)

        monkeypatch.setitem(cli.OPERATIONS, operation, op._replace(display=display))
    covered = set()
    for argv in cases:
        code, plain = run(*argv)
        if code == 2:  # the operation is not defined on this fixture or model
            continue
        values.clear()
        code_json, text = run(*argv, "--json")
        assert code_json == code == 0, argv
        [value] = values
        want = json.dumps(_old_payload(argv[1], value), indent=2, sort_keys=True)
        assert text == plain + want + "\n", argv
        covered.add(argv[1] + (" --momenta" if "--momenta" in argv else ""))
    return covered


def test_json_blocks_match_json_dumps_of_the_old_payloads(monkeypatch):
    covered = _check_json_against_old_payloads(monkeypatch, _json_cases())
    assert covered == set(cli.OPERATIONS) | {"v --momenta", "integrand --momenta"}


def test_json_blocks_escape_names_like_json_dumps(tmp_path, monkeypatch):
    # edge ids with a quote, a backslash and a non-ASCII letter name the variables
    edges = [("e\"1", "v1", "v2"), ("\u00fc\\2", "v1", "v2"), ("e3", "v2", "v1"), ("e4", "v1", "v1")]
    fixture = tmp_path / "names.json"
    fixture.write_text(
        json.dumps({"type": "graph", "vertices": ["v1", "v2"], "edges": [{"id": i, "tail": t, "head": h} for i, t, h in edges]}),
        encoding="utf-8",
    )
    cases = [["poly", op, str(fixture)] for op in ("tutte", "ztutte")] + [["param", op, str(fixture)] for op in ("u", "v", "integrand")]
    assert _check_json_against_old_payloads(monkeypatch, cases) == {"tutte", "ztutte", "u", "v", "integrand"}


def test_json_text_is_built_only_under_json(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a --json text was built")

    monkeypatch.setattr(cli, "_poly_block", refuse)
    monkeypatch.setattr(cli, "_dumps", refuse)
    for argv in _json_cases():
        code, text = run(*argv)
        assert code in (0, 2) and "a --json text was built" not in text, argv


def test_a_display_sorts_each_polynomial_once(monkeypatch):
    calls = []
    sorted_terms = MultiPoly.sorted_terms

    def counted(self):
        calls.append(self)
        return sorted_terms(self)

    monkeypatch.setattr(MultiPoly, "sorted_terms", counted)
    momenta = os.path.join(FIXTURE_DIR, "fig3_momenta.json")
    for argv, n in (
        (("poly", "ztutte", path("nestedchain")), 1),
        (("param", "ustar", path("ribbonhost")), 1),
        (("param", "integrand", path("fig3"), "--momenta", momenta), 3),
    ):
        calls.clear()
        code, _ = run(*argv, "--json")
        assert code == 0 and len(calls) == n, argv


def test_hopf_commands():
    code, text = run("hopf", "forests", path("fig5"), "--model", "phi4")
    assert code == 0
    assert sorted(text.splitlines()) == sorted(["{}", "{{e1,e2}}"])
    code, text = run("hopf", "rbar", path("fig5"), "--model", "phi4", "--check")
    assert code == 0
    assert "PASS forest formula agrees" in text
    code, text = run("hopf", "coproduct", path("fig6"), "--model", "gw", "--check")
    assert code == 0
    assert "PASS coassociativity" in text


def test_exit_code_2_on_bad_input(tmp_path):
    code, text = run("poly", "tutte", str(tmp_path / "missing.json"))
    assert code == 2
    # a directory given as the fixture or as the momenta file
    code, text = run("poly", "tutte", str(tmp_path))
    assert code == 2 and text.startswith("error: ") and text.count("\n") == 1
    code, text = run("param", "v", path("fig3"), "--momenta", str(tmp_path))
    assert code == 2 and text.startswith("error: ") and text.count("\n") == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, text = run("poly", "tutte", str(bad))
    assert code == 2 and "malformed" in text
    field = tmp_path / "field.json"
    field.write_text(json.dumps({"type": "graph", "vertices": []}), encoding="utf-8")
    code, text = run("poly", "tutte", str(field))
    assert code == 2 and "edges" in text
    # precondition violation: chromatic of a disconnected graph
    disc = tmp_path / "disc.json"
    disc.write_text(
        json.dumps({"type": "graph", "vertices": ["a", "b"], "edges": []}), encoding="utf-8"
    )
    code, text = run("poly", "chromatic", str(disc))
    assert code == 2 and "connected" in text
    # malformed structure: a top-level array, a string of vertices, and a
    # momentum component with a zero denominator
    array = tmp_path / "array.json"
    array.write_text(json.dumps([fixtures.FIXTURES["k3"]]), encoding="utf-8")
    code, text = run("poly", "tutte", str(array))
    assert (code, text) == (2, "error: a fixture must be a JSON object\n")
    letters = tmp_path / "letters.json"
    letters.write_text(json.dumps({"type": "graph", "vertices": "ab", "edges": []}), encoding="utf-8")
    code, text = run("poly", "tutte", str(letters))
    assert (code, text) == (2, "error: fixture field 'vertices' must be a list of strings\n")
    momenta = tmp_path / "momenta.json"
    momenta.write_text(
        json.dumps({"f1": {"p": ["1/0", 0, 0, 0]}, "f2": {"p": [0, 0, 0, 0]}}), encoding="utf-8"
    )
    code, text = run("param", "v", path("fig6"), "--momenta", str(momenta))
    assert code == 2 and text.startswith("error: ") and text.count("\n") == 1 and "1/0" in text
    # malformed nested fields: a rotation entry, an edge id, a missing edge
    # id and a missing leg direction
    host = fixtures.FIXTURES["ribbonhost"]
    bad_nested = {
        "rotation": (
            {**host, "rotation": {**host["rotation"], "v1": [1, "e1.h"]}},
            "ribbon fixture rotation of vertex 'v1' must be a list of strings",
        ),
        "edge_id": (
            {**host, "edges": [{**host["edges"][0], "id": ["e1"]}] + host["edges"][1:]},
            "fixture edge 0 field 'id' must be a string",
        ),
        "no_edge_id": (
            {**host, "edges": [{"tail": "v1", "head": "v1"}] + host["edges"][1:]},
            "fixture edge 0 is missing field 'id'",
        ),
        "no_leg_dir": (
            {**host, "external": [host["external"][0], {"id": "f2", "vertex": "v2"}]},
            "fixture leg 1 is missing field 'dir'",
        ),
    }
    for name, (doc, message) in bad_nested.items():
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(doc), encoding="utf-8")
        assert run("poly", "tutte", str(f)) == (2, f"error: {message}\n"), name


def test_unknown_flags_rejected():
    code, _ = run("poly", "tutte", path("k3"), "--frobnicate")
    assert code == 2
    code, _ = run("poly", "nonsense", path("k3"))
    assert code == 2


def test_ribbon_required_commands(tmp_path):
    code, text = run("param", "vstar-im", path("fig5"))
    assert code == 2 and "ribbon" in text
    for name, op in cli.OPERATIONS.items():
        if op.input == "ribbon":
            # the ribbon requirement is reported before the momenta file is read
            momenta = ("--momenta", str(tmp_path)) if op.momenta else ()
            result = run(op.command, name, path("k3"), *momenta)
            assert result == (2, f"error: {name} requires a ribbon fixture (type 'ribbon')\n"), name
        elif op.input == "model":
            result = run(op.command, name, path("fig5"), "--model", "gw")
            assert result == (2, "error: the gw model requires a ribbon fixture (type 'ribbon')\n"), name


def test_momenta_directory_is_one_error_line(tmp_path):
    readers = [name for name, op in cli.OPERATIONS.items() if op.momenta]
    assert readers == ["v", "vstar-re", "vstar-im", "integrand"]
    for name in readers:
        code, text = run(cli.OPERATIONS[name].command, name, path("fig6"), "--momenta", str(tmp_path))
        assert code == 2 and text.startswith("error: ") and text.count("\n") == 1, name


def test_momenta_components_only_in_the_documented_forms(tmp_path):
    """A component is a JSON int or a string of a sign, digits and
    optionally "/" and digits; any other string exits 2 before it is
    converted, even one that `Fraction` would take."""
    momenta = tmp_path / "momenta.json"

    def v_with(first):
        doc = {lid: {"p": [0, 0, 0, 0]} for lid in ("f2", "f4")}
        doc.update({"f1": {"p": [first, 0, 0, 0]}, "f3": {"p": [1000, 0, 0, 0]}})
        momenta.write_text(json.dumps(doc), encoding="utf-8")
        return run("param", "v", path("fig3"), "--momenta", str(momenta))

    code, text = v_with(1000)
    assert code == 0 and text.startswith("1000000*")
    assert v_with("1000") == v_with("+1000") == v_with("2000/2") == (code, text)
    for bad in ("1e3", "1000.0", " 1000", "1_000", "2000/+2", "\u0661", "1e999999999"):
        assert v_with(bad) == (2, "error: momenta for 'f1' must be exact (int or 'n/d' string)\n"), bad


def test_symanzik_routes_on_a_disconnected_graph_name_themselves(tmp_path):
    disc = tmp_path / "disc.json"
    disc.write_text(json.dumps({"type": "graph", "vertices": ["a", "b"], "edges": []}), encoding="utf-8")
    for op, route in (("u", "symanzik_u"), ("udet", "symanzik_u_via_det"), ("v", "symanzik_v"), ("integrand", "symanzik_u")):
        assert run("param", op, str(disc)) == (2, f"error: {route} requires a connected graph\n"), op


def test_zbr_check_on_disconnected_ribbon_is_one_error_line(tmp_path):
    doc = {
        "type": "ribbon",
        "vertices": ["v1", "v2"],
        "edges": [{"id": "e1", "tail": "v1", "head": "v1"}],
        "rotation": {"v1": ["e1.t", "e1.h"], "v2": []},
        "external": [],
    }
    f = tmp_path / "disconnected.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    code, _ = run("poly", "zbr", str(f))
    assert code == 0
    assert run("poly", "zbr", str(f), "--check") == (2, "error: quasi_trees requires a connected ribbon graph\n")


def test_check_failure_exit_code(tmp_path, monkeypatch):
    # force a failing check by monkeypatching one engine out of agreement
    from feyncomb import polynomials

    real = polynomials.tutte

    def broken(g, method="subset"):
        p = real(g, method)
        if method == "delcon":
            return p + 1
        return p

    monkeypatch.setattr(polynomials, "tutte", broken)
    code, text = run("poly", "tutte", path("k3"), "--check")
    assert code == 1
    assert "FAIL" in text


def test_internal_invariant_failure_is_one_fail_line(monkeypatch):
    # `param ustar` reaches RibbonGraph.genus through parametric.nc_u
    from feyncomb.ribbon import RibbonGraph

    def broken(self, subset=None):
        raise AssertionError("bad Euler characteristic 3")

    monkeypatch.setattr(RibbonGraph, "genus", broken)
    code, text = run("param", "ustar", path("interleaved"))
    assert code == 1
    assert text == "FAIL internal invariant: bad Euler characteristic 3\n"


def test_byte_identical_reruns():
    cmds = [
        ("param", "u", path("fig3"), "--check-all"),
        ("poly", "br", path("interleaved"), "--check", "--json"),
        ("hopf", "coproduct", path("fig5"), "--model", "core"),
        ("param", "vstar-re", path("fig6")),
    ]
    for cmd in cmds:
        first = run(*cmd)
        second = run(*cmd)
        assert first == second and first[0] == 0


def test_fixture_files_match_registry():
    for name in fixtures.names():
        with open(path(name), "r", encoding="utf-8") as fh:
            assert json.load(fh) == fixtures.FIXTURES[name], name
    with open(os.path.join(FIXTURE_DIR, "fig3_momenta.json"), "r", encoding="utf-8") as fh:
        assert json.load(fh) == fixtures.FIG3_MOMENTA


def test_selftest_reports_wall_time_per_criterion(monkeypatch):
    from feyncomb import checks

    fakes = [
        ("fake passing", lambda: [("holds", True, "")]),
        ("fake failing", lambda: [("holds", True, ""), ("breaks", False, "why")]),
    ]
    monkeypatch.setattr(checks, "CRITERIA", fakes)
    code, text = run("selftest")
    assert code == 1
    lines = text.splitlines()
    assert re.fullmatch(r"\[PASS\] fake passing \(\d+\.\d\d s\)", lines[0])
    assert lines[1] == "    ok: holds"
    assert re.fullmatch(r"\[FAIL\] fake failing \(\d+\.\d\d s\)", lines[2])
    assert lines[3:] == ["    ok: holds", "    FAIL: breaks  (why)", "selftest: FAILURES PRESENT"]

    monkeypatch.setattr(checks, "CRITERIA", fakes[:1])
    code, text = run("selftest")
    assert code == 0 and text.endswith("selftest: ALL CRITERIA PASS\n")


def test_route_check_table_covers_every_checked_operation():
    from feyncomb import checks

    assert set(checks.ROUTE_CHECKS) == set(cli.OPERATIONS)


def test_parser_choices_follow_the_operation_table():
    import argparse

    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("poly", "param", "hopf"):
        choices = next(a for a in sub.choices[command]._actions if a.dest == "operation").choices
        assert choices == [name for name, op in cli.OPERATIONS.items() if op.command == command], command


def test_check_flags_print_the_table_entries_in_order():
    from feyncomb import checks

    momenta = ("--momenta", os.path.join(FIXTURE_DIR, "fig3_momenta.json"))
    cases = {
        "tutte": ("poly", "k3", "--check"),
        "ztutte": ("poly", "k3", "--check"),
        "chromatic": ("poly", "k3", "--check"),
        "flow": ("poly", "k3", "--check"),
        "br": ("poly", "interleaved", "--check"),
        "zbr": ("poly", "interleaved", "--check"),
        "u": ("param", "fig3", "--check-all"),
        "udet": ("param", "fig3", "--check-all"),
        "v": ("param", "fig3", "--check-all", *momenta),
        "integrand": ("param", "fig3", "--check-all", *momenta),
        "ustar": ("param", "tadpole", "--check-all"),
        "vstar-re": ("param", "fig6", "--check-all"),
        "vstar-im": ("param", "interleaved", "--check-all"),
        "coproduct": ("hopf", "fig5", "--check"),
        "antipode": ("hopf", "fig5", "--check"),
        "forests": ("hopf", "fig5", "--check"),
        "rbar": ("hopf", "fig5", "--check"),
        "renorm": ("hopf", "fig5", "--check"),
    }
    assert set(cases) == set(checks.ROUTE_CHECKS)
    for op, (command, fixture, *flags) in cases.items():
        code, text = run(command, op, path(fixture), *flags)
        assert code == 0, op
        printed = [l[len("PASS ") :] for l in text.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert printed == [name for name, _ in checks.ROUTE_CHECKS[op]], op


def test_one_table_drives_cli_and_selftest(monkeypatch):
    from feyncomb import checks, parametric

    real = parametric.nc_u_delcon
    wrong = parametric.ThetaTracked.from_poly(parametric.alpha_var("wrong"))
    monkeypatch.setattr(parametric, "nc_u_delcon", lambda rg: real(rg) + wrong)
    code, text = run("param", "ustar", path("interleaved"), "--check-all")
    assert code == 1
    assert "FAIL deletion/contraction route agrees" in text.splitlines()
    assert not all(ok for _, ok, _ in checks.criterion_6_moyal_chain(n_random=2))


def _graph_file(tmp_path, name, n, edges):
    """A fixture file of a graph on vertices v0..vn with the given edges."""
    doc = {
        "type": "graph",
        "vertices": [f"v{i}" for i in range(n + 1)],
        "edges": [{"id": f"e{i}", "tail": t, "head": h} for i, (t, h) in enumerate(edges)],
    }
    f = tmp_path / f"{name}.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    return str(f)


def test_deep_recursion_is_one_error_line(tmp_path):
    from feyncomb import parametric
    from feyncomb.poly import MultiPoly
    from feyncomb.ribbon import load_fixture

    n = 1100
    steps = [(f"v{i}", f"v{i + 1}") for i in range(n)]
    # no deletion/contraction route recurses: a long path is answered
    path_file = _graph_file(tmp_path, "path", n, steps)
    assert run("poly", "tutte", path_file, "--method", "delcon") == (0, f"x^{n}\n")
    assert parametric.symanzik_u_delcon(load_fixture(path_file)) == MultiPoly.one()
    # the member walk and the forest growth keep their state on stacks: a long
    # cycle, whose only 1PI subgraph is itself, has the empty forest alone
    cycle_file = _graph_file(tmp_path, "cycle", n, steps + [(f"v{n}", "v0")])
    assert run("hopf", "forests", cycle_file, "--model", "core") == (0, "{}\n")


def test_deeply_nested_json_is_one_error_line(tmp_path):
    # json.load is the one recursive reader left: nesting this deep in a
    # fixture or a momenta file is reported, not raised
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000, encoding="utf-8")
    message = "error: JSON input nested too deeply to read (recursion limit reached)\n"
    assert run("param", "v", str(deep)) == (2, message)
    assert run("param", "v", path("fig3"), "--momenta", str(deep)) == (2, message)


def _ribbon_path(tmp_path, n=1100):
    """A fixture file of a ribbon path with n edges."""
    rotation = {f"v{i}": [] for i in range(n + 1)}
    for i in range(n):
        rotation[f"v{i}"].append(f"e{i}.t")
        rotation[f"v{i + 1}"].append(f"e{i}.h")
    doc = {
        "type": "ribbon",
        "vertices": [f"v{i}" for i in range(n + 1)],
        "edges": [{"id": f"e{i}", "tail": f"v{i}", "head": f"v{i + 1}"} for i in range(n)],
        "rotation": rotation,
    }
    f = tmp_path / "ribbonpath.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    return str(f)


def test_deep_ribbon_path_br_delcon_answers(tmp_path):
    assert run("poly", "br", _ribbon_path(tmp_path), "--method", "delcon") == (0, "x^1100\n")


def test_long_ribbon_path_ustar_is_one(tmp_path):
    # a tree is its own only quasi-tree: the Euler size rule enumerates the one subset of size V - 1 = E
    assert run("param", "ustar", _ribbon_path(tmp_path)) == (0, "1\n")


@pytest.mark.parametrize("name, model, leg, renamed", [("fig5", "phi4", "f1", "cut.e3.t"), ("ribbonhost", "gw", "f1", "cut.e1.t")])
def test_a_leg_named_like_a_cut_end_changes_no_hopf_output(tmp_path, name, model, leg, renamed):
    # member graphs name cut edge ends "cut.<edge>.<end>"; here a host leg already has that name
    with open(path(name), encoding="utf-8") as f:
        text = f.read()
    f = tmp_path / "renamed.json"
    f.write_text(text.replace(f'"{leg}"', f'"{renamed}"'), encoding="utf-8")
    for op in ("coproduct", "antipode", "forests", "rbar", "renorm"):
        want = run("hopf", op, path(name), "--model", model, "--check")
        assert want[0] == 0, op
        assert run("hopf", op, str(f), "--model", model, "--check") == want, op


def test_momenta_for_an_operation_that_ignores_them_is_one_error_line(tmp_path):
    missing = str(tmp_path / "missing.json")
    for op, fixture in (("u", "k3"), ("udet", "k3"), ("ustar", "interleaved")):
        code, text = run("param", op, path(fixture), "--momenta", missing)
        assert (code, text) == (2, f"error: {op} does not read --momenta\n"), op
    # the ribbon requirement is reported first
    code, text = run("param", "ustar", path("k3"), "--momenta", missing)
    assert (code, text) == (2, "error: ustar requires a ribbon fixture (type 'ribbon')\n")


def test_help_keeps_the_docstring_layout():
    code, text = run("-h")
    assert code == 0
    assert "\n  feyncomb poly  {tutte,ztutte,chromatic,flow,br,zbr} fixture.json\n" in text


USAGE_CASES = (
    ("-h",),
    ("poly", "-h"),
    ("param", "-h"),
    ("hopf", "-h"),
    ("selftest", "-h"),
    (),
    ("poly",),
    ("poly", "nope", "x.json"),
    ("param", "u", "x.json", "--method", "delcon"),
    ("hopf", "coproduct", "x.json", "--model", "qed"),
)


def test_help_and_usage_ignore_the_terminal_width(monkeypatch):
    monkeypatch.delenv("COLUMNS", raising=False)
    plain = [run(*argv) for argv in USAGE_CASES]
    for width in ("40", "200"):
        monkeypatch.setenv("COLUMNS", width)
        assert [run(*argv) for argv in USAGE_CASES] == plain, width
    assert [code for code, _ in plain] == [0] * 5 + [2] * 5


def test_shared_parser_matches_fresh_parsers(monkeypatch):
    sequence = [argv for case in USAGE_CASES[5:] for argv in (case, ("poly", "tutte", path("k3")))]
    sequence += [("param", "u", path("fig3"), "--check-all"), ("hopf", "nope"), ("poly", "br", path("interleaved"))]
    shared = [run(*argv) for argv in sequence]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [run(*argv) for argv in sequence]
    assert shared == fresh
    assert shared[1] == (0, "x^2 + x + y\n")


def test_exponent_overflow_is_one_error_line(tmp_path):
    # 2^15 self-loops make T = y^32768, one past the largest packed degree
    n = 1 << 15
    doc = {
        "type": "graph",
        "vertices": ["v"],
        "edges": [{"id": f"e{i}", "tail": "v", "head": "v"} for i in range(n)],
    }
    f = tmp_path / "bouquet.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    code, text = run("poly", "tutte", str(f), "--method", "delcon")
    assert code == 2
    assert text.startswith("error: total degree 32768 exceeds 32767") and text.count("\n") == 1
    doc["edges"].pop()
    f.write_text(json.dumps(doc), encoding="utf-8")
    assert run("poly", "tutte", str(f), "--method", "delcon") == (0, "y^32767\n")


def test_a_route_summing_edge_keys_overflows_with_one_error_line(tmp_path):
    # U of a bouquet of 2^16 self-loops is the product of their alphas, whose
    # packed degree field would carry into the next field
    n = 1 << 16
    doc = {
        "type": "graph",
        "vertices": ["v"],
        "edges": [{"id": f"e{i}", "tail": "v", "head": "v"} for i in range(n)],
    }
    f = tmp_path / "bouquet.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    for op in ("u", "udet"):
        code, text = run("param", op, str(f))
        assert code == 2
        assert text == "error: total degree 65536 exceeds 32767, the largest a packed monomial holds\n"
