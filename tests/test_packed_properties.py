"""Packed monomials: the ring operations against a name-tuple oracle, and the
external form (decode, row order, evaluation) against direct definitions.

The oracle keeps every polynomial as a dict from name-tuple monomials to
Fractions and multiplies monomials by merging their exponents in a dict and
sorting it, the way the stored form did before monomials were packed.
"""

from fractions import Fraction

import pytest

from feyncomb.linalg import det, divexact
from feyncomb.poly import _NAMES, FIELD, FIELD_MASK, MultiPoly, _decode, monomial_key, var_key

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
settings = hypothesis.settings(max_examples=120, deadline=None)

VARS = ("x", "y", "theta", "a.e1", "b.e10", "b.e2")


# -- the name-tuple oracle --------------------------------------------------------


def o_clean(p):
    return {m: c for m, c in p.items() if c}


def o_mono_mul(m1, m2):
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def o_add(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + c
    return o_clean(out)


def o_neg(p):
    return {m: -c for m, c in p.items()}


def o_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = o_mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return o_clean(out)


def o_pow(p, e):
    out = {(): Fraction(1)}
    for _ in range(e):
        out = o_mul(out, p)
    return out


def o_substitute(p, bindings):
    total = {}
    for mono, c in p.items():
        image = {(): c}
        for v, e in mono:
            image = o_mul(image, o_pow(bindings[v], e) if v in bindings else {((v, e),): 1})
        total = o_add(total, image)
    return total


def o_coefficient_of(p, var, power):
    out = {}
    for mono, c in p.items():
        exps = dict(mono)
        if exps.pop(var, 0) == power:
            out[tuple(sorted(exps.items()))] = c
    return out


def o_lowest(p, vars):
    deg = {m: sum(e for v, e in m if v in vars) for m in p}
    low = min(deg.values())
    return {m: c for m, c in p.items() if deg[m] == low}


def o_det(rows):
    if not rows:
        return {(): 1}
    total = {}
    for j, entry in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        piece = o_mul(entry, o_det(minor))
        total = o_add(total, piece if j % 2 == 0 else o_neg(piece))
    return total


def assert_matches(got, want):
    assert got.terms == o_clean(want)
    assert all(type(c) is int or c.denominator != 1 for c in got.terms.values())


# -- properties ----------------------------------------------------------------------

monos = st.dictionaries(st.sampled_from(VARS), st.integers(1, 3), max_size=3).map(lambda d: tuple(sorted(d.items())))
coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
polys = st.dictionaries(monos, coeffs, max_size=5).map(o_clean)
nonzero = polys.filter(bool)


@settings
@hypothesis.given(polys, polys)
def test_ring_operations_match_the_oracle(p, q):
    a, b = MultiPoly(p), MultiPoly(q)
    assert_matches(a * b, o_mul(p, q))
    assert_matches(a + b, o_add(p, q))
    assert_matches(a - b, o_add(p, o_neg(q)))
    assert_matches(MultiPoly.sum([a, b, -a]), q)
    assert (a * b == MultiPoly(o_mul(p, q))) and hash(a * b) == hash(MultiPoly(o_mul(p, q)))
    assert (a * b).canonical_string() == MultiPoly(o_mul(q, p)).canonical_string()


@settings
@hypothesis.given(polys, st.dictionaries(st.sampled_from(VARS + ("u",)), st.one_of(polys, coeffs), max_size=3))
def test_substitute_matches_the_oracle(p, bindings):
    want = o_substitute(p, {v: b if isinstance(b, dict) else {(): b} for v, b in bindings.items()})
    got = MultiPoly(p).substitute({v: MultiPoly(b) if isinstance(b, dict) else b for v, b in bindings.items()})
    assert_matches(got, want)


@settings
@hypothesis.given(polys, st.sampled_from(VARS + ("unseen",)), st.integers(0, 3))
def test_coefficient_of_matches_the_oracle(p, var, power):
    assert_matches(MultiPoly(p).coefficient_of(var, power), o_coefficient_of(p, var, power))


@settings
@hypothesis.given(nonzero, st.sets(st.sampled_from(VARS + ("unseen",))))
def test_lowest_homogeneous_part_matches_the_oracle(p, vars):
    assert_matches(MultiPoly(p).lowest_homogeneous_part(vars), o_lowest(p, vars))


@settings
@hypothesis.given(polys, nonzero)
def test_divexact_matches_the_oracle(p, d):
    assert_matches(divexact(MultiPoly(o_mul(p, d)), MultiPoly(d)), p)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.integers(1, 3).flatmap(lambda n: st.lists(st.lists(polys, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_det_matches_the_oracle(rows):
    assert_matches(det([[MultiPoly(e) for e in row] for row in rows]), o_det(rows))


# -- the external form: decode, row order and evaluation ------------------------------

# 30 names, interned in an order unlike their sorted one, so the fields of a key
# are not in name order and each decode half spans fields far apart.
DECODE_NAMES = tuple(f"dec.{i:02d}" for i in range(30))
for _name in DECODE_NAMES[1::2] + DECODE_NAMES[::-2]:
    var_key(_name)


def naive_decode(key):
    """The monomial of a packed key, one interned variable at a time."""
    pairs = [(name, key >> FIELD * (i + 1) & FIELD_MASK) for i, name in enumerate(_NAMES)]
    return tuple(sorted((v, e) for v, e in pairs if e))


def sort_key(mono):
    """The render order: descending total degree, then the (variable, exponent) sequence."""
    return (-sum(e for _, e in mono), mono)


wide_monos = st.dictionaries(st.sampled_from(DECODE_NAMES + VARS), st.integers(1, 5), max_size=12)
wide_polys = st.dictionaries(wide_monos.map(lambda d: tuple(sorted(d.items()))), coeffs, max_size=24).map(o_clean)


@settings
@hypothesis.given(st.lists(wide_monos, max_size=24))
@hypothesis.example([{}])  # the constant alone: both halves empty
@hypothesis.example([{"dec.07": 3}])  # one variable: the lower half empty
@hypothesis.example([{}, {"x": 2}, {v: 1 for v in DECODE_NAMES}])  # 30 names in one term
def test_decode_matches_a_per_variable_decode(monos):
    terms = {monomial_key(m.items()): i + 1 for i, m in enumerate(monos)}
    assert list(_decode(terms).items()) == [(naive_decode(k), c) for k, c in terms.items()]


@settings
@hypothesis.given(st.one_of(polys, wide_polys))
def test_sorted_terms_match_the_sort_key_order(p):
    poly = MultiPoly(p)
    assert poly.sorted_terms() == [(m, poly.terms[m]) for m in sorted(poly.terms, key=sort_key)]


@settings
@hypothesis.given(polys, st.fixed_dictionaries({v: st.integers(-3, 3) for v in VARS}))
def test_eval_rational_is_the_same_at_int_and_fraction_points(p, point):
    poly = MultiPoly(p)
    at_ints = poly.eval_rational(point)
    at_fractions = poly.eval_rational({v: Fraction(x) for v, x in point.items()})
    want = Fraction(0)
    for mono, c in p.items():
        for v, e in mono:
            c *= Fraction(point[v]) ** e
        want += c
    assert type(at_ints) is type(at_fractions) is Fraction
    assert at_ints == at_fractions == want
