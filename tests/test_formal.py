"""Normal forms of formal renormalization expressions."""

import random

import pytest

from feyncomb import fixtures
from feyncomb.checks import random_phi4_graph
from feyncomb.formal import FormalAmplitude
from feyncomb.hopf import HopfAlgebra
from feyncomb.poly import signed_sum_text
from test_canonical import cut_circulant


def phi(x: str) -> FormalAmplitude:
    return FormalAmplitude.phi(x)


def test_algebra_basics():
    a, b = phi("a"), phi("b")
    assert a + b == b + a
    assert a * b == b * a
    assert (a - a).is_zero()
    assert FormalAmplitude.one() * a == a
    assert 2 * a + a == 3 * a
    assert (a + b) * (a - b) == a * a - b * b


def test_projection_is_linear():
    a, b = phi("a"), phi("b")
    assert (a + b).project() == a.project() + b.project()
    assert (3 * a).project() == 3 * a.project()
    assert FormalAmplitude.zero().project().is_zero()


def test_projection_pulls_counterterms_out():
    a, b = phi("a"), phi("b")
    # T[ T[a] * b ] = T[a] * T[b]
    assert (a.project() * b).project() == a.project() * b.project()
    # and therefore the nested twisted-antipode expression flattens:
    nested = (a - a.project() * b).project()
    flat = a.project() - a.project() * b.project()
    assert nested == flat


def test_projection_keyed_by_normalized_argument():
    a, b = phi("a"), phi("b")
    assert (a * b).project() == (b * a).project()
    assert (a * b).project() != a.project() * b.project()


def test_render_deterministic():
    a, b = phi("a"), phi("b")
    expr = a - a.project() * b
    assert expr.render() == "Phi(a) - Phi(b)*T[Phi(a)]"
    assert FormalAmplitude.zero().render() == "0"
    assert FormalAmplitude.one().render() == "1"
    assert (-2 * a).render() == "-2*Phi(a)"


def test_projection_of_unit():
    one = FormalAmplitude.one()
    t1 = one.project()
    assert not t1.is_zero()
    assert t1.render() == "T[1]"


# -- the text guard -----------------------------------------------------------


def test_phi_rejects_labels_that_would_break_the_text_form():
    # "a)*Phi(b" would make Phi(a)*Phi(b) a single atom's text
    for bad in ("a)*Phi(b", "a(", "a)", "T[1]", "a]", "a*b"):
        with pytest.raises(ValueError):
            phi(bad)


def _corpus_hosts():
    """(model, host) pairs of the seeded Hopf corpora of selftest criteria 8
    and 9 and of tests/test_hopf.py, with the benchmark's cut circulants."""
    graphs = [fixtures.build(n) for n in ("fig4", "fig5", "nestedchain", "twobubble")]
    graphs += [cut_circulant(5), cut_circulant(6)]
    for seed, n, max_loops in ((20807, 50, 4), (97, 8, 3)):
        rng = random.Random(seed)
        graphs += [random_phi4_graph(rng, max_loops=max_loops) for _ in range(n)]
    hosts = [(model, g) for g in graphs for model in ("phi4", "core")]
    ribbons = [fixtures.build(n) for n in ("fig6", "tadpole", "interleaved", "ribbonhost", "parallel")]
    return hosts + [("gw", rg) for rg in ribbons if rg.underlying().is_one_pi()]


def test_every_corpus_label_is_a_valid_phi_label():
    kinds = set()
    for model, g in _corpus_hosts():
        h = HopfAlgebra(model)
        labels = {h.label(g)}
        for left, right in h.coproduct(g).terms:
            labels.update(left)
            labels.update(right)
        for lbl in labels:
            assert FormalAmplitude.phi(lbl).render() == f"Phi({lbl})"
            kinds.add(lbl[0])
    assert kinds == {"G", "R"}


# -- the nested-tuple normal form, kept as a differential oracle ---------------
#
# An oracle atom is ("phi", label) or ("T", nf), where nf is a canonical
# normal form: a tuple of (term, coeff) pairs, each term a tuple of atoms
# sorted by their text.  An oracle amplitude is a dict of term -> coeff.


def _atom_text(atom) -> str:
    if atom[0] == "phi":
        return f"Phi({atom[1]})"
    return "T[" + signed_sum_text((_term_body(t), c) for t, c in atom[1]) + "]"


def _term_body(term) -> str:
    return "*".join(_atom_text(a) for a in term)


def _term_order(term) -> tuple:
    return tuple(_atom_text(a) for a in term)


def _sort_term(atoms) -> tuple:
    return tuple(sorted(atoms, key=_atom_text))


def _canonical_nf(terms: dict) -> tuple:
    return tuple((t, terms[t]) for t in sorted(terms, key=_term_order) if terms[t])


def _oracle_add(x: dict, y: dict, scale: int = 1) -> dict:
    out = dict(x)
    for t, c in y.items():
        out[t] = out.get(t, 0) + scale * c
    return {t: c for t, c in out.items() if c}


def _oracle_mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for t1, c1 in x.items():
        for t2, c2 in y.items():
            t = _sort_term(t1 + t2)
            out[t] = out.get(t, 0) + c1 * c2
    return {t: c for t, c in out.items() if c}


def _oracle_project(x: dict) -> dict:
    out: dict = {}
    for term, coeff in x.items():
        phis = tuple(a for a in term if a[0] == "phi")
        ts = tuple(a for a in term if a[0] == "T")
        t = _sort_term(ts + (("T", _canonical_nf({phis: 1})),))
        out[t] = out.get(t, 0) + coeff
    return {t: c for t, c in out.items() if c}


def _oracle_render(x: dict) -> str:
    return signed_sum_text((_term_body(t), x[t]) for t in sorted(x, key=_term_order))


LABELS = ("a", "b", "G3|0-1,0-1,1-2|1,0,1", "R1/0,1|0")
SCALARS = (-2, -1, 2, 3)


def _evaluate(expr):
    """(FormalAmplitude, oracle dict) of an expression tree: ("phi", label),
    ("one",), (op, x, y) for op in add/sub/mul, ("scale", c, x), ("project", x)."""
    op = expr[0]
    if op == "phi":
        return phi(expr[1]), {(("phi", expr[1]),): 1}
    if op == "one":
        return FormalAmplitude.one(), {(): 1}
    if op == "scale":
        new, old = _evaluate(expr[2])
        return expr[1] * new, _oracle_add({}, old, expr[1])
    if op == "project":
        new, old = _evaluate(expr[1])
        return new.project(), _oracle_project(old)
    (new_x, old_x), (new_y, old_y) = _evaluate(expr[1]), _evaluate(expr[2])
    if op == "add":
        return new_x + new_y, _oracle_add(old_x, old_y)
    if op == "sub":
        return new_x - new_y, _oracle_add(old_x, old_y, -1)
    return new_x * new_y, _oracle_mul(old_x, old_y)


def _mirror(expr):
    """The same expression with the operands of every sum and product swapped."""
    op = expr[0]
    if op in ("add", "mul"):
        return (op, _mirror(expr[2]), _mirror(expr[1]))
    if op == "sub":
        return (op, _mirror(expr[1]), _mirror(expr[2]))
    if op == "scale":
        return (op, expr[1], _mirror(expr[2]))
    if op == "project":
        return (op, _mirror(expr[1]))
    return expr


def _random_expr(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.2:
        return ("phi", rng.choice(LABELS)) if rng.random() < 0.85 else ("one",)
    op = rng.choice(("add", "sub", "mul", "scale", "project", "project"))
    if op == "scale":
        return (op, rng.choice(SCALARS), _random_expr(rng, depth - 1))
    if op == "project":
        return (op, _random_expr(rng, depth - 1))
    return (op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def assert_forms_agree(x, y):
    """Both forms render x and y alike, and agree on whether x == y."""
    (new_x, old_x), (new_y, old_y) = _evaluate(x), _evaluate(y)
    assert new_x.render() == _oracle_render(old_x)
    assert new_y.render() == _oracle_render(old_y)
    assert (new_x == new_y) == (old_x == old_y)
    if new_x == new_y:
        assert new_x.render() == new_y.render() and hash(new_x) == hash(new_y)
    assert _evaluate(_mirror(x))[0] == new_x


def test_text_form_matches_nested_tuple_oracle():
    rng = random.Random(1801)
    exprs = [_random_expr(rng, 4) for _ in range(60)]
    # identities the projection must respect, so that equal pairs occur
    a, b = ("phi", "a"), ("phi", "b")
    exprs += [
        ("project", ("mul", ("project", a), b)),
        ("mul", ("project", a), ("project", b)),
        ("project", ("sub", a, ("mul", ("project", a), b))),
        ("sub", ("project", a), ("mul", ("project", a), ("project", b))),
        ("project", ("scale", 3, ("add", a, b))),
        ("scale", 3, ("add", ("project", a), ("project", b))),
    ]
    for x in exprs:
        for y in exprs:
            assert_forms_agree(x, y)


def test_text_form_matches_nested_tuple_oracle_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    leaves = st.one_of(st.sampled_from(LABELS).map(lambda lbl: ("phi", lbl)), st.just(("one",)))
    exprs = st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.tuples(st.sampled_from(("add", "sub", "mul")), kids, kids),
            st.tuples(st.just("scale"), st.sampled_from(SCALARS), kids),
            st.tuples(st.just("project"), kids),
        ),
        max_leaves=8,
    )

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(exprs, exprs)
    def check(x, y):
        assert_forms_agree(x, y)

    check()
