"""CLI behavior: golden outputs, exit codes, flags, determinism."""

import json
import os
import re

from feyncomb import cli, fixtures

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


def test_ribbon_required_commands():
    code, text = run("poly", "br", path("k3"))
    assert code == 2 and "ribbon" in text
    code, text = run("param", "vstar-im", path("fig5"))
    assert code == 2 and "ribbon" in text
    code, text = run("hopf", "coproduct", path("fig5"), "--model", "gw")
    assert code == 2 and "ribbon" in text


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
