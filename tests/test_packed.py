"""Packed monomials: the overflow contract, exact division, the name
boundary, and output that does not depend on the interning order.

The ring operations are checked against a name-tuple oracle in
test_packed_properties.py.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from feyncomb import fixtures, poly, polynomials
from feyncomb.graphs import Graph
from feyncomb.linalg import divexact
from feyncomb.poly import FIELD, MAX_DEGREE, ExponentOverflow, MultiPoly, edge_monomial, mask_keys
from feyncomb.polynomials import bollobas_riordan, chromatic, flow_poly, multivariate_br, multivariate_tutte, tutte
from feyncomb.ribbon import RibbonGraph

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

X = MultiPoly.var("x")


def test_mask_keys_sums_the_selected_keys_at_every_width():
    """Two half tables up to 24 keys; past that one table per chunk of 8
    keys, its entries shifted into place at lookup.  Random keys, and keys
    shaped like variables far up the fields (a degree of 1 or 2 in field 0
    and the exponent in one high field, some fields skipped), where the
    shift is what keeps the entries short."""
    rng = random.Random(3)
    for n in (0, 1, 7, 24, 25, 49, 200):
        fields = sorted(rng.sample(range(300, 300 + 2 * n), n))
        exps = [rng.choice((1, 1, 2)) for _ in range(n)]
        for keys in (
            [rng.getrandbits(48) for _ in range(n)],
            [e << FIELD * f | e for f, e in zip(fields, exps)],
        ):
            table = mask_keys(keys)
            for mask in [0, (1 << n) - 1] + [rng.getrandbits(n) if n else 0 for _ in range(40)]:
                assert table(mask) == sum(k for i, k in enumerate(keys) if mask >> i & 1)


# -- the overflow contract --------------------------------------------------------


def test_a_product_past_the_field_raises():
    top = MultiPoly.var("x", MAX_DEGREE)
    assert (top * 1).terms == {(("x", MAX_DEGREE),): 1}
    for make in (
        lambda: top * X,
        lambda: X * top,
        lambda: top**2,
        lambda: MultiPoly.var("y", 20000) * MultiPoly.var("z", 20000),
        lambda: (X**2).substitute({"x": top}),
        lambda: MultiPoly.var("x", MAX_DEGREE + 1),
        lambda: MultiPoly({(("x", MAX_DEGREE), ("y", 1)): 1}),
        lambda: MultiPoly.from_exponents({"x": 1 << 16}),
    ):
        with pytest.raises(ExponentOverflow, match="exceeds 32767"):
            make()
    assert issubclass(ExponentOverflow, ValueError)
    # nothing was wrapped on the way: the operands are intact
    assert top.terms == {(("x", MAX_DEGREE),): 1} and X.terms == {(("x", 1),): 1}
    assert (top * MultiPoly.var("y", 0)).terms == top.terms


def test_sums_of_edge_keys_raise_before_a_field_carries():
    # 2^16 terms of degree 1 summed would carry out of the degree field into
    # the field of the first interned variable, and read as degree 0
    many = [f"e{i}" for i in range(1 << 16)]
    with pytest.raises(ExponentOverflow, match="total degree 65536 exceeds 32767"):
        edge_monomial("a.", many)
    with pytest.raises(ExponentOverflow, match="total degree 32768 exceeds 32767"):
        edge_monomial("a.", many[:MAX_DEGREE], ("x", 1))
    isolated = [f"v{i}" for i in range(1 << 16)]
    with pytest.raises(ExponentOverflow, match="total degree 65536 exceeds 32767"):
        multivariate_tutte(Graph(isolated, []), "subset")  # q^65536
    half = isolated[: 1 << 15]
    with pytest.raises(ExponentOverflow, match="total degree 65536 exceeds 32767"):
        multivariate_br(RibbonGraph(Graph(half, []), {v: [] for v in half}))  # x^32768 z^32768


def test_table_routes_test_the_bound_before_any_key(monkeypatch):
    """The routes that assemble keys from integer tables or leaf shifts raise
    at a bound one below their degree before they fetch a single key, and
    answer at the bound itself, with a degree bound that holds."""
    rim = [(f"r{i}", f"v{i}", f"v{i % 4 + 1}") for i in range(1, 5)]
    w4 = Graph(["h", "v1", "v2", "v3", "v4"], [(f"s{i}", "h", f"v{i}") for i in range(1, 5)] + rim)
    looped = Graph(w4.vertices, [*w4.edges, ("l", "h", "h")])
    interleaved = fixtures.build("interleaved")
    routes = {
        "tutte subset": (lambda: tutte(w4, "subset"), None),
        "br subset": (lambda: bollobas_riordan(interleaved, "subset"), None),
        "chromatic": (lambda: chromatic(w4), None),
        "flow": (lambda: flow_poly(w4), None),
        "ztutte delcon": (lambda: multivariate_tutte(looped, "delcon"), len(looped.edges) + len(looped.vertices)),
    }
    for name, (route, bound) in routes.items():
        want = route()
        assert want._bound >= want.degree(), name
        bound = bound or want.degree()
        with monkeypatch.context() as m:
            m.setattr(poly, "MAX_DEGREE", bound)
            assert route() == want, name

            def refuse(v):
                raise AssertionError(f"{name} fetched the key of {v} before testing the bound")

            m.setattr(poly, "MAX_DEGREE", bound - 1)
            m.setattr(poly, "var_key", refuse)
            m.setattr(polynomials, "var_key", refuse)
            with pytest.raises(ExponentOverflow, match=f"total degree {bound} exceeds {bound - 1}"):
                route()


def test_inexact_divisions_raise():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    assert divexact(x**3 + 1, x + 1) == x**2 - x + 1
    for p, d in ((x**3 + 2, x + 1), (y, x), (x * y + 1, x * y), (x**2 * y, x**3), (x, x * y - 1)):
        with pytest.raises(ValueError, match="inexact"):
            divexact(p, d)
    with pytest.raises(ValueError, match="inexact"):
        (x * y + y).divexact_monomial({"x": 1})
    assert (x**2 * y + x * y).divexact_monomial({"x": 1, "y": 1}) == x + 1


def test_names_are_the_boundary():
    p = MultiPoly({(("y", 1), ("x", 2)): 3, (("x", 2), ("y", 1)): -1, (): Fraction(4, 2)})
    assert p.terms == {(("x", 2), ("y", 1)): 2, (): 2}
    assert type(p.terms[()]) is int
    assert p.sorted_terms() == [((("x", 2), ("y", 1)), 2), ((), 2)]
    assert p.variables() == {"x", "y"}
    assert MultiPoly({edge_monomial("b.", ["e2", "e10"], ("x", 2)): 1}).terms == {
        (("b.e10", 1), ("b.e2", 1), ("x", 2)): 1
    }
    # exponents of 256 and more take more than the low byte of their field
    high = MultiPoly.var("y", 2) * MultiPoly.var("x", 300) + MultiPoly.var("y", 256) - 1
    assert high.terms == {(("x", 300), ("y", 2)): 1, (("y", 256),): 1, (): -1}
    assert high.canonical_string() == "x^300*y^2 + y^256 - 1"


# -- interning order -----------------------------------------------------------------

REPLAY = """
import json, sys
from feyncomb import poly

for name in json.loads(sys.argv[2]):
    poly.var_key(name)
from feyncomb import checks, cli, fixtures

fixture_dir = sys.argv[1]
fixtures.write_all(fixture_dir)
cmds = checks.cli_command_matrix(fixture_dir)
for command, op, name in (
    ("param", "u", "fig3"),
    ("param", "udet", "fig3"),
    ("poly", "zbr", "interleaved"),
    ("param", "vstar-im", "interleaved"),
    ("param", "ustar", "fig6"),
):
    cmds.append([command, op, f"{fixture_dir}/{name}.json", "--json"])
json.dump({"names": poly._NAMES, "out": [cli.run(argv) for argv in cmds]}, sys.stdout)
"""


def _replay(fixture_dir, names):
    env = dict(os.environ, PYTHONHASHSEED="0")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", REPLAY, str(fixture_dir), json.dumps(names)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_output_does_not_depend_on_the_interning_order(tmp_path):
    first = _replay(tmp_path, [])
    reverse = first["names"][::-1]
    second = _replay(tmp_path, reverse)
    assert second["names"][: len(reverse)] == reverse != first["names"]
    assert second["out"] == first["out"]
    assert any('"polynomial"' in text for _, text in first["out"])
