"""Exact determinants and Pfaffians over rationals and polynomials."""

import random
from fractions import Fraction

import pytest

from feyncomb import fixtures, linalg
from feyncomb.checks import random_diag_matrix, random_poly, random_skew_matrix
from feyncomb.graphs import Graph
from feyncomb.linalg import (
    build_skew_assembly,
    det,
    det_d_plus_a_identity,
    divexact,
    matrix_tree_count,
    pfaffian,
    pfaffian_recursive,
    pfaffian_sign_constant,
    promote_matrix,
)
from feyncomb.parametric import graph_matrix, symanzik_u, symanzik_u_via_det
from feyncomb.poly import MultiPoly


def det_cofactor(matrix):
    """Determinant by first-row cofactor expansion (the oracle of `det`)."""
    a = promote_matrix(matrix)

    def rec(rows):
        m = len(rows)
        if m == 0:
            return MultiPoly.one()
        if m == 1:
            return rows[0][0]

        def cofactor(j):
            minor = [[row[c] for c in range(m) if c != j] for row in rows[1:]]
            piece = rows[0][j] * rec(minor)
            return piece if j % 2 == 0 else -piece

        return MultiPoly.sum(cofactor(j) for j in range(m) if not rows[0][j].is_zero())

    return rec(a)


def test_det_identity_and_diagonal():
    one = MultiPoly.one()
    zero = MultiPoly.zero()
    eye3 = [[one if i == j else zero for j in range(3)] for i in range(3)]
    assert det(eye3) == one
    a1, a2 = MultiPoly.var("a.e1"), MultiPoly.var("a.e2")
    assert det([[a1, zero], [zero, a2]]) == a1 * a2
    assert det([]) == one


def test_det_needs_pivoting():
    zero, one = MultiPoly.zero(), MultiPoly.one()
    m = [[zero, one], [one, zero]]
    assert det(m) == -one
    assert det([[zero, zero], [zero, one]]).is_zero()


def test_det_matches_cofactor_on_random_matrices():
    rng = random.Random(71)
    for _ in range(15):
        n = rng.randint(1, 4)
        m = [[random_poly(rng, ["x", "y"], terms=2) for _ in range(n)] for _ in range(n)]
        assert det(m) == det_cofactor(m)


def test_det_alternating_multilinear_transpose():
    rng = random.Random(73)
    for _ in range(10):
        n = rng.randint(2, 4)
        m = [[random_poly(rng, ["x"], terms=2) for _ in range(n)] for _ in range(n)]
        swapped = [row[:] for row in m]
        swapped[0], swapped[1] = swapped[1], swapped[0]
        assert det(swapped) == -det(m)
        transposed = [[m[j][i] for j in range(n)] for i in range(n)]
        assert det(transposed) == det(m)
        c = Fraction(3, 2)
        scaled = [row[:] for row in m]
        scaled[0] = [c * x for x in scaled[0]]
        assert det(scaled) == MultiPoly.const(c) * det(m)


def test_divexact():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    p = (x + y) * (x - y) * (x + 2)
    assert divexact(p, x + y) == (x - y) * (x + 2)
    with pytest.raises(ValueError):
        divexact(x * y + 1, x)
    with pytest.raises(ZeroDivisionError):
        divexact(x, MultiPoly.zero())


DIVISION_VARS = ["x", "y", "z"]


def _check_divexact_round_trip(p: MultiPoly, d: MultiPoly) -> None:
    assert divexact(p * d, d) == p
    if not p.is_zero():
        # x to one more than its top degree in p divides no term of p
        top = max(dict(mono).get("x", 0) for mono in p.terms)
        with pytest.raises(ValueError):
            divexact(p, MultiPoly.var("x", top + 1))


def test_divexact_round_trip():
    rng = random.Random(2027)
    for _ in range(80):
        p = random_poly(rng, DIVISION_VARS, terms=rng.randint(0, 5))
        d = random_poly(rng, DIVISION_VARS, terms=rng.randint(1, 4))
        if not d.is_zero():
            _check_divexact_round_trip(p, d)


def test_divexact_round_trip_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    monomials = st.dictionaries(st.sampled_from(DIVISION_VARS), st.integers(1, 3), max_size=3)
    polys = st.lists(st.tuples(monomials, coeffs), max_size=5).map(
        lambda terms: MultiPoly.sum(MultiPoly.from_exponents(m, c) for m, c in terms)
    )

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(polys, polys.filter(bool))
    def check(p, d):
        _check_divexact_round_trip(p, d)

    check()


def test_det_matches_cofactor_with_fraction_entries():
    rng = random.Random(97)

    def entry() -> MultiPoly:
        # odd over even: never an integer
        return MultiPoly.sum(
            MultiPoly.from_exponents({"x": k}, Fraction(2 * rng.randint(-3, 3) + 1, 2 * rng.randint(1, 3)))
            for k in range(rng.randint(1, 2))
        )

    for _ in range(12):
        n = rng.randint(1, 4)
        m = [[entry() for _ in range(n)] for _ in range(n)]
        assert det(m) == det_cofactor(m)
    # a zero pivot forces the row swap
    zero = MultiPoly.zero()
    m = [[zero, entry(), entry()], [entry(), entry(), entry()], [entry(), zero, entry()]]
    assert det(m) == det_cofactor(m)


SPARSE_CONSTANTS = (1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2))


def _sparse_entry(rng: random.Random) -> MultiPoly:
    """Zero half the time, else a constant or a polynomial of one or two terms."""
    r = rng.random()
    if r < 0.5:
        return MultiPoly.zero()
    if r < 0.7:
        return MultiPoly.const(rng.choice(SPARSE_CONSTANTS))
    return random_poly(rng, ["x", "y", "z"], terms=rng.randint(1, 2))


def _sparse_matrix(rng: random.Random, n: int) -> list[list[MultiPoly]]:
    return [[_sparse_entry(rng) for _ in range(n)] for _ in range(n)]


def _nonconstant_poly(rng: random.Random) -> MultiPoly:
    while True:
        p = random_poly(rng, ["x", "y"], terms=2)
        if p.variables():
            return p


def _singular_matrices(rng: random.Random, n: int) -> list[list[list[MultiPoly]]]:
    """A zero row, two equal rows, and rank n - 1 that shows only at the last step."""
    zero_row = _sparse_matrix(rng, n)
    zero_row[rng.randrange(n)] = [MultiPoly.zero()] * n
    out = [zero_row]
    if n > 1:
        equal_rows = _sparse_matrix(rng, n)
        i, j = rng.sample(range(n), 2)
        equal_rows[j] = list(equal_rows[i])
        out.append(equal_rows)
    # the last row is a polynomial combination of the others, so the first
    # n - 1 pivots exist and the block left for the last one is zero
    late = _sparse_matrix(rng, n)
    late[-1] = [MultiPoly.zero()] * n
    for i in range(n - 1):
        c = _sparse_entry(rng)
        late[-1] = [x + c * y for x, y in zip(late[-1], late[i])]
    return out + [late]


def _off_diagonal_constants(rng: random.Random, n: int) -> list[list[MultiPoly]]:
    """Nonconstant entries, except a few constants away from the diagonal.

    The first pivot is the first of those constants, so it is reached by a
    row swap and a column swap whenever it is not in row 0.
    """
    zero = MultiPoly.zero()
    m = [[_nonconstant_poly(rng) if i == j or rng.random() < 0.6 else zero for j in range(n)] for i in range(n)]
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    for i, j in rng.sample(cells, min(len(cells), rng.randint(1, n))):
        m[i][j] = MultiPoly.const(rng.choice(SPARSE_CONSTANTS))
    return m


def test_det_matches_cofactor_on_sparse_mixed_matrices():
    rng = random.Random(101)
    for n in range(1, 8):
        for _ in range(6 if n < 6 else 2):
            m = _sparse_matrix(rng, n)
            assert det(m) == det_cofactor(m)
            m = _off_diagonal_constants(rng, n)
            assert det(m) == det_cofactor(m)
        for m in _singular_matrices(rng, n):
            assert det(m).is_zero()
            assert det_cofactor(m).is_zero()


def test_det_swaps_carry_the_sign():
    # the one constant sits at (1, 2): a row swap and a column swap bring it
    # to (0, 0), and each flips the sign
    x, y, z = (MultiPoly.var(v) for v in "xyz")
    m = [[x, y, z], [y, z, MultiPoly.const(-2)], [z, x + 1, y]]
    assert det(m) == det_cofactor(m)
    rows = [m[1], m[0], m[2]]
    assert det(rows) == -det(m)
    cols = [[row[2], row[1], row[0]] for row in m]
    assert det(cols) == -det(m)


def test_det_matches_cofactor_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    constants = st.sampled_from(SPARSE_CONSTANTS).map(MultiPoly.const)
    monomials = st.dictionaries(st.sampled_from(["x", "y"]), st.integers(1, 2), max_size=2)
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    polys = st.lists(st.tuples(monomials, coeffs), min_size=1, max_size=2).map(
        lambda terms: MultiPoly.sum(MultiPoly.from_exponents(m, c) for m, c in terms)
    )
    entries = st.one_of(st.just(MultiPoly.zero()), constants, polys)
    matrices = st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(matrices)
    def check(m):
        assert det(m) == det_cofactor(m)

    check()


def _multigraph(rng: random.Random, n: int, n_edges: int) -> Graph:
    """A random multigraph on v0..v(n-1): any ends, loops and parallels included."""
    verts = [f"v{i}" for i in range(n)]
    return Graph(verts, [(f"e{i}", rng.choice(verts), rng.choice(verts)) for i in range(n_edges)])


def _check_graph_matrices(g: Graph) -> None:
    """For every dropped vertex: det of the graph matrix against the
    cofactor oracle, and U by the determinant against U by trees."""
    u = symanzik_u(g)
    for v in g.vertices:
        m = graph_matrix(g, v)
        assert det(m) == det_cofactor(m), v
        assert symanzik_u_via_det(g, v) == u, v


def _negative_pivot_matrix(rng: random.Random, n: int) -> list[list[MultiPoly]]:
    """Integer entries, with the first nonzero one in row-major order (the
    first pivot) negative, and a few polynomial entries."""
    m = [[MultiPoly.const(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    i, j = rng.randrange(n), rng.randrange(n)
    for r in range(n):
        for c in range(n):
            if (r, c) < (i, j):
                m[r][c] = MultiPoly.zero()
    m[i][j] = MultiPoly.const(-rng.randint(1, 3))
    for _ in range(rng.randint(0, n)):
        r, c = rng.randrange(n), rng.randrange(n)
        if (r, c) > (i, j):
            m[r][c] = random_poly(rng, ["x", "y"], terms=rng.randint(1, 2))
    return m


def test_det_matches_cofactor_on_graph_matrices_and_negative_pivots():
    rng = random.Random(1968)
    for _ in range(60):
        g = _multigraph(rng, rng.randint(1, 5), rng.randint(0, 7))
        if g.is_connected():
            _check_graph_matrices(g)
    for n in range(1, 6):
        for _ in range(8):
            m = _negative_pivot_matrix(rng, n)
            assert det(m) == det_cofactor(m)
    # every pivot constant and negative
    m = [[MultiPoly.const(c) for c in row] for row in ([-1, 2, 0], [3, -2, 1], [0, 1, -3])]
    assert det(m) == det_cofactor(m) == MultiPoly.const(13)


def test_det_matches_cofactor_on_graph_matrices_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def connected_multigraphs(draw):
        n = draw(st.integers(1, 4))
        index = st.integers(0, n - 1)
        # a spanning path first, so the graph is connected, then any edges
        pairs = [(i, i + 1) for i in range(n - 1)] + draw(st.lists(st.tuples(index, index), max_size=3))
        order = draw(st.permutations(pairs))
        return Graph([f"v{i}" for i in range(n)], [(f"e{k}", f"v{a}", f"v{b}") for k, (a, b) in enumerate(order)])

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(connected_multigraphs())
    def check_graph(g):
        _check_graph_matrices(g)

    constants = st.integers(-3, 3).map(MultiPoly.const)
    monomials = st.dictionaries(st.sampled_from(["x", "y"]), st.integers(1, 2), max_size=2)
    polys = st.lists(st.tuples(monomials, st.integers(-3, 3)), min_size=1, max_size=2).map(
        lambda terms: MultiPoly.sum(MultiPoly.from_exponents(m, c) for m, c in terms)
    )
    entries = st.one_of(constants, constants, polys)
    matrices = st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(matrices)
    def check_integer(m):
        assert det(m) == det_cofactor(m)

    check_graph()
    check_integer()


def test_incidence_pivots_make_no_rescale_only_update(monkeypatch):
    """On W5's graph matrix every pivot of the incidence block is made +1,
    so no division is by a constant other than 1.  Left as they come, its
    pivots alternate -1, +1, and each step would rescale every nonzero
    trailing entry by -1."""
    calls = []
    divide = linalg._divide

    def counted(p, d):
        calls.append(d)
        return divide(p, d)

    monkeypatch.setattr(linalg, "_divide", counted)
    rim = [f"v{i}" for i in range(5)]
    spokes = [(f"s{i}", "h", v) for i, v in enumerate(rim)]
    w5 = Graph(["h"] + rim, spokes + [(f"r{i}", v, rim[(i + 1) % 5]) for i, v in enumerate(rim)])
    m = graph_matrix(w5)
    assert -det(m) == symanzik_u(w5)  # |V| - 1 = 5 is odd
    constant = [d for d in calls if not d.variables()]
    assert constant and all(d == 1 for d in constant)
    assert len(constant) < len(calls)  # the polynomial block divides by polynomials


def test_pfaffian_small_cases():
    a = MultiPoly.var("a")
    zero = MultiPoly.zero()
    assert pfaffian([[zero, a], [-a, zero]]) == a
    assert pfaffian([[zero] * 3 for _ in range(3)]).is_zero()
    with pytest.raises(ValueError):
        pfaffian([[MultiPoly.one()]])


def test_pfaffian_squares_to_det():
    rng = random.Random(79)
    for over_polys in (False, True):
        for n in (2, 4, 6):
            a = random_skew_matrix(rng, n, over_polys)
            pf = pfaffian(a)
            assert pf * pf == det(a)
            assert pf == pfaffian_recursive(a)


def test_pfaffian_sign_convention():
    # the A12 A34 ... term carries +1
    zero, one = MultiPoly.zero(), MultiPoly.one()
    a = [[zero] * 4 for _ in range(4)]
    a[0][1], a[1][0] = one, -one
    a[2][3], a[3][2] = one, -one
    assert pfaffian(a) == one


def test_det_d_plus_a_small_sign_derivation():
    # n = 1: det(D) = d, Pf of [[0, d], [-d, 0]] = d, sigma_1 = +1
    d = MultiPoly.var("d")
    assert pfaffian(build_skew_assembly([[d]], [[MultiPoly.zero()]])) == d
    assert pfaffian_sign_constant(1) == 1
    # n = 2 brute force: det(D+A) = d1 d2 + a^2, Pf(K) = -(d1 d2 + a^2)
    d1, d2, a = MultiPoly.var("d1"), MultiPoly.var("d2"), MultiPoly.var("a")
    zero = MultiPoly.zero()
    dm = [[d1, zero], [zero, d2]]
    am = [[zero, a], [-a, zero]]
    assert det([[d1, a], [-a, d2]]) == d1 * d2 + a * a
    assert pfaffian(build_skew_assembly(dm, am)) == -(d1 * d2 + a * a)
    assert pfaffian_sign_constant(2) == -1
    assert det_d_plus_a_identity(dm, am)


def test_det_d_plus_a_identity_random():
    rng = random.Random(83)
    for over_polys in (False, True):
        for _ in range(10):
            n = rng.randint(1, 4)
            d = random_diag_matrix(rng, n, over_polys)
            a = random_skew_matrix(rng, n, over_polys)
            assert det_d_plus_a_identity(d, a)
    with pytest.raises(ValueError, match="skew"):
        det_d_plus_a_identity([[MultiPoly.one()]], [[MultiPoly.one()]])


def test_det_d_plus_a_reduces_to_pf_squared_at_zero_d():
    rng = random.Random(89)
    n = 4
    a = random_skew_matrix(rng, n, False)
    zero_d = [[MultiPoly.zero()] * n for _ in range(n)]
    assert det_d_plus_a_identity(zero_d, a)


def test_matrix_tree_count():
    assert matrix_tree_count(fixtures.build("k3")) == 3
    assert matrix_tree_count(Graph(["a", "b"], [("e1", "a", "b")])) == 1
    fig3 = fixtures.build("fig3")
    assert matrix_tree_count(fig3) == 5 == len(fig3.spanning_trees())
    assert matrix_tree_count(Graph(["v"], [])) == 1
    with pytest.raises(ValueError):
        matrix_tree_count(Graph(["a", "b"], []))
