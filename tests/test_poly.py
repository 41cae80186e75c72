"""Exact polynomial ring: examples and ring-axiom properties."""

import random
from fractions import Fraction

import pytest

from feyncomb.poly import MultiPoly

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
