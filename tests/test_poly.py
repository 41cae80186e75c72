"""Exact polynomial ring: examples, ring-axiom properties and int-first coefficients."""

import random
from fractions import Fraction

import pytest

from feyncomb.checks import (
    random_conserved_momenta,
    random_diag_matrix,
    random_multigraph,
    random_poly,
    random_ribbon_graph,
    random_skew_matrix,
)
from feyncomb.linalg import det, pfaffian
from feyncomb.parametric import (
    ThetaTracked,
    nc_u,
    nc_v_imag,
    nc_v_real,
    symanzik_u,
    symanzik_u_via_det,
    symanzik_v,
)
from feyncomb.poly import MultiPoly, exact_div
from feyncomb.polynomials import bollobas_riordan, tutte

X = MultiPoly.var("x")
Y = MultiPoly.var("y")


def test_additive_inverse():
    assert (X + (-X)).is_zero()


def test_like_term_merge():
    assert (X + Y) + Y == X + 2 * Y


def test_fig3_u_assembles_by_addition():
    def a(i):
        return MultiPoly.var(f"a.e{i}")

    left = a(3) * a(4) + a(2) * a(4)
    right = a(2) * a(3) + a(1) * a(3) + a(1) * a(4)
    total = left + right
    assert total.canonical_string() == "a.e1*a.e3 + a.e1*a.e4 + a.e2*a.e3 + a.e2*a.e4 + a.e3*a.e4"


def test_mul_identity_and_binomial():
    p = 3 * X * Y + MultiPoly.const(Fraction(1, 2))
    assert MultiPoly.one() * p == p
    assert (X - 1) * (Y - 1) == X * Y - X - Y + 1


def test_theta_prefactor_cancellation_is_exact_monomial_division():
    theta = MultiPoly.var("theta")
    alpha = MultiPoly.var("a.e1")
    half_theta = MultiPoly.const(Fraction(1, 2)) * theta
    product = half_theta * (2 * alpha)  # theta * alpha
    assert product.divexact_monomial({"theta": 1}) == alpha
    with pytest.raises(ValueError):
        (alpha + 1).divexact_monomial({"theta": 1})


def test_substitute_examples():
    assert (X + Y).substitute({"x": MultiPoly.zero()}) == Y
    theta = MultiPoly.var("theta")
    a1, a2 = MultiPoly.var("a.e1"), MultiPoly.var("a.e2")
    p = a1 * a2 + MultiPoly.const(Fraction(1, 4)) * theta**2
    assert p.substitute({"theta": MultiPoly.zero()}) == a1 * a2


def test_coefficient_of():
    w = MultiPoly.var("w")
    b1 = MultiPoly.var("b.e1")
    q = MultiPoly.var("q")
    assert (w + b1 * w**2).coefficient_of("w", 1) == MultiPoly.one()
    assert (q**2 + q * b1).coefficient_of("q", 1) == b1
    assert (q**2 + q * b1).coefficient_of("q", 3).is_zero()


def test_lowest_homogeneous_part():
    b1, b2, b3 = (MultiPoly.var(f"b.e{i}") for i in (1, 2, 3))
    assert (b1 + b1 * b2).lowest_homogeneous_part(["b.e1", "b.e2"]) == b1
    assert (b1 * b2 + b1 * b2 * b3).lowest_homogeneous_part(["b.e1", "b.e2", "b.e3"]) == b1 * b2
    with pytest.raises(ValueError):
        MultiPoly.zero().lowest_homogeneous_part(["b.e1"])


def test_eval_rational():
    assert X.eval_rational({"x": Fraction(2)}) == 2
    p = X**2 + X + Y
    assert p.eval_rational({"x": 2, "y": 2}) == 8
    with pytest.raises(ValueError):
        p.eval_rational({"x": 1})


def test_canonical_string_basics():
    assert MultiPoly.zero().canonical_string() == "0"
    assert (X + Y).canonical_string() == (Y + X).canonical_string() == "x + y"
    assert (X**2 + Y + X).canonical_string() == "x^2 + x + y"
    quarter_theta_sq = MultiPoly.const(Fraction(1, 4)) * MultiPoly.var("theta") ** 2
    assert quarter_theta_sq.canonical_string() == "1/4*theta^2"
    assert ((X - 1) * (Y - 1)).canonical_string() == "x*y - x - y + 1"


def test_canonical_string_iff_equal():
    rng = random.Random(7)
    for _ in range(60):
        p = _random_poly(rng)
        q = _random_poly(rng)
        same_string = p.canonical_string() == q.canonical_string()
        assert same_string == ((p - q).is_zero())


def _random_poly(rng):
    total = MultiPoly.zero()
    for _ in range(rng.randint(0, 4)):
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        exps = {v: rng.randint(0, 2) for v in ("x", "y", "z")}
        total = total + MultiPoly.from_exponents({v: e for v, e in exps.items() if e}, coeff)
    return total


def test_ring_axioms_on_random_polynomials():
    rng = random.Random(11)
    for _ in range(40):
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


def test_substitute_is_ring_homomorphism():
    rng = random.Random(13)
    z = MultiPoly.var("z")
    bindings = {"x": z + 1, "y": z * z - 2}
    for _ in range(30):
        p, q = _random_poly(rng), _random_poly(rng)
        assert (p * q).substitute(bindings) == p.substitute(bindings) * q.substitute(bindings)
        assert (p + q).substitute(bindings) == p.substitute(bindings) + q.substitute(bindings)


def test_no_zero_terms_stored_and_hashable():
    p = X - X + Y
    assert list(p.terms) == [(("y", 1),)]
    assert hash(p) == hash(Y)
    with pytest.raises(AttributeError):
        p.terms = {}


def test_negative_powers_rejected():
    with pytest.raises(ValueError):
        MultiPoly.var("x", -1)
    with pytest.raises(ValueError):
        X ** (-1)


def test_inexact_coefficients_rejected():
    for bad in (0.5, 1.0, True, "1/2"):
        with pytest.raises(TypeError):
            MultiPoly({(): bad})
        with pytest.raises(TypeError):
            MultiPoly.const(bad)
    with pytest.raises(TypeError):
        X + 0.5
    with pytest.raises(TypeError):
        X * 0.5
    assert MultiPoly({(): Fraction(1, 2)}) == Fraction(1, 2)
    assert X + 1 == 1 + X


def test_sum_matches_repeated_addition():
    rng = random.Random(17)
    for _ in range(20):
        parts = [_random_poly(rng) for _ in range(rng.randint(0, 5))]
        total = MultiPoly.zero()
        for p in parts:
            total = total + p
        assert MultiPoly.sum(parts) == total
    assert MultiPoly.sum([X, Y, -X]).terms == {(("y", 1),): 1}


# -- int-first coefficients -----------------------------------------------------


def test_int_first_storage():
    two = MultiPoly({(): Fraction(4, 2)}).terms[()]
    assert type(two) is int and two == 2
    assert type(MultiPoly.const(Fraction(1, 2)).terms[()]) is Fraction
    assert type((Fraction(1, 2) * (2 * X)).terms[(("x", 1),)]) is int
    assert type((MultiPoly.const(Fraction(1, 3)) * 3).terms[()]) is int
    assert type(X.constant_term()) is int and X.constant_term() == 0
    assert type((X * Y + Fraction(3, 3) * X).coefficient_of("y", 0).terms[(("x", 1),)]) is int


def test_exact_div():
    assert type(exact_div(6, 3)) is int and exact_div(6, 3) == 2
    assert exact_div(-7, 2) == Fraction(-7, 2)
    assert type(exact_div(Fraction(3, 2), Fraction(1, 2))) is int
    assert exact_div(Fraction(3, 2), 2) == Fraction(3, 4)
    assert exact_div(5, Fraction(5, 2)) == 2
    with pytest.raises(ZeroDivisionError):
        exact_div(1, 0)


def _coefficients(value) -> list:
    """Every stored coefficient of a MultiPoly or a ThetaTracked."""
    if isinstance(value, ThetaTracked):
        polys = [*value.parts.values(), value.to_poly()]
    else:
        polys = [value]
    return [c for p in polys for c in p.terms.values()]


def test_no_float_and_no_integral_fraction_in_results():
    rng = random.Random(2011)
    results = []
    for _ in range(25):
        g = random_multigraph(rng, max_vertices=4, max_edges=6, connected=True)
        results += [tutte(g), tutte(g, method="delcon"), symanzik_u(g), symanzik_u_via_det(g)]
    for _ in range(20):
        rg = random_ribbon_graph(rng, max_vertices=3, max_edges=4, max_legs=4)
        ext = random_conserved_momenta(rng, rg.graph)
        results += [
            bollobas_riordan(rg),
            bollobas_riordan(rg, method="delcon"),
            symanzik_v(rg.graph, ext),
            nc_u(rg),
            nc_v_real(rg, ext),
            nc_v_imag(rg, ext),
        ]
    for _ in range(10):
        n = rng.randint(1, 4)
        over_polys = rng.random() < 0.5
        results += [
            det(random_diag_matrix(rng, n, over_polys)),
            det([[random_poly(rng, ["x", "y"], terms=2) for _ in range(n)] for _ in range(n)]),
            pfaffian(random_skew_matrix(rng, 2 * n, over_polys)),
        ]
    coeffs = [c for r in results for c in _coefficients(r)]
    assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in coeffs)
    # both kinds occur, so the check above is not vacuous
    assert {type(c) for c in coeffs} == {int, Fraction}


# -- substitute against the product-built oracle ----------------------------------


def _substitute_by_products(p, bindings):
    """The image of every term as a chain of polynomial products, then one sum."""
    subs = {v: MultiPoly._coerce(b) for v, b in bindings.items()}

    def image(mono, coeff):
        term = MultiPoly.const(coeff)
        for v, e in mono:
            term = term * (subs[v] ** e if v in subs else MultiPoly.var(v, e))
        return term

    return MultiPoly.sum(image(mono, coeff) for mono, coeff in p.terms.items())


SUBSTITUTED = ("w", "x", "y", "z")
CONSTANTS = (0, 1, -1, Fraction(-3, 2))


def _int_first(p):
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in p.terms.values())


def _random_bindings(rng):
    """Constants as numbers and as constant polynomials, polynomials, the zero
    polynomial, and a variable no polynomial of these tests contains."""
    bindings = {}
    for v in rng.sample(SUBSTITUTED + ("u",), rng.randint(1, 4)):
        kind = rng.randrange(4)
        if kind == 0:
            bindings[v] = rng.choice(CONSTANTS)
        elif kind == 1:
            bindings[v] = MultiPoly.const(rng.choice(CONSTANTS))
        elif kind == 2:
            bindings[v] = MultiPoly.zero()
        else:
            bindings[v] = random_poly(rng, rng.sample(["x", "y", "t"], 2), terms=rng.randint(1, 3))
    return bindings


def _poly_with_quarter_coefficients(rng):
    """Denominators 2, 4 and 9 make (-3/2)^e turn some coefficients integral."""
    total = []
    for _ in range(rng.randint(0, 5)):
        coeff = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 4, 9]))
        exps = {v: rng.randint(0, 3) for v in SUBSTITUTED + ("s",)}
        total.append(MultiPoly.from_exponents(exps, coeff))
    return MultiPoly.sum(total)


def test_substitute_matches_product_oracle():
    rng = random.Random(2024)
    for _ in range(300):
        p = _poly_with_quarter_coefficients(rng)
        bindings = _random_bindings(rng)
        got = p.substitute(bindings)
        assert got == _substitute_by_products(p, bindings)
        assert _int_first(got)
    folded = (Fraction(4, 9) * X**2 * Y).substitute({"x": Fraction(-3, 2)}).terms
    assert folded == {(("y", 1),): 1} and type(folded[(("y", 1),)]) is int
    assert MultiPoly.zero().substitute({"x": 2, "y": X}).is_zero()
    assert (X * Y).substitute({"x": 0}).is_zero()
    assert (X + Y).substitute({"u": 5}) == X + Y


def test_substitute_folds_constants_without_products(monkeypatch):
    p = _poly_with_quarter_coefficients(random.Random(5)) + X * Y**2
    calls = []
    original = MultiPoly.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counting)
    monkeypatch.setattr(MultiPoly, "__rmul__", counting)
    p.substitute({"x": Fraction(-3, 2), "y": MultiPoly.one(), "z": 0})
    assert calls == []


def test_substitute_matches_product_oracle_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    monos = st.dictionaries(st.sampled_from(SUBSTITUTED + ("s",)), st.integers(0, 3), max_size=3)
    polys = st.lists(st.tuples(monos, coeffs), max_size=5).map(
        lambda ts: MultiPoly.sum(MultiPoly.from_exponents(e, c) for e, c in ts)
    )
    value_monos = st.dictionaries(st.sampled_from(["x", "t"]), st.integers(0, 2))
    constants = st.sampled_from(CONSTANTS)
    values = st.one_of(
        constants,
        constants.map(MultiPoly.const),
        st.just(MultiPoly.zero()),
        st.lists(st.tuples(value_monos, coeffs), min_size=1, max_size=3).map(
            lambda ts: MultiPoly.sum(MultiPoly.from_exponents(e, c) for e, c in ts)
        ),
    )
    bindings = st.dictionaries(st.sampled_from(SUBSTITUTED + ("u",)), values, max_size=4)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(polys, bindings)
    def check(p, b):
        got = p.substitute(b)
        assert got == _substitute_by_products(p, b)
        assert _int_first(got)

    check()
