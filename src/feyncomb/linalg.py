"""Exact determinants and Pfaffians over the polynomial ring.

Matrices are plain lists of MultiPoly rows (ints and Fractions are
promoted).  The determinant uses fraction-free Bareiss elimination, whose
divisions are exact by construction, with full pivoting: each step takes
the nonzero entry of the trailing block with the fewest terms, then the
lowest total degree (the first in row-major order on a tie), so constants
are eliminated first and with constant divisors.  A negative constant
pivot has its row negated, so a block of unit pivots (the incidence part
of a graph matrix) runs at pivot 1 throughout.  Its oracle, a cofactor
expansion, lives in the tests.  The Pfaffian is a signed sum over perfect
matchings, with a recursive first-row expansion as the second route.
"""

from __future__ import annotations

import heapq
import operator
from typing import Sequence

from .graphs import Graph
from .poly import GUARD, Key, MultiPoly, Rational, _check_degree, _products, _promote, every_field, exact_div

PolyMatrix = list[list[MultiPoly]]


def promote_matrix(rows: Sequence[Sequence]) -> PolyMatrix:
    out = [[_promote(x) for x in row] for row in rows]
    n = len(out)
    if any(len(row) != n for row in out):
        raise ValueError("matrix must be square")
    return out


# -- exact division (internal; divisor known to divide) -----------------------


def divexact(p: MultiPoly, d: MultiPoly) -> MultiPoly:
    """Exact polynomial quotient p / d; raises if d does not divide p.

    Long division in the integer order of packed keys, a monomial order (the
    variable interned last first; see `poly`), so the leading term of a
    polynomial is its largest key.  The remainder is one dict, updated in
    place by each quotient term times d.  Its keys wait in a max-heap (the
    negated keys in `heapq`), each pushed once, when it enters the
    remainder; a key that has since cancelled is skipped when popped.

    d divides the leading term of the remainder iff their difference has no
    guard bit set.  In an exact division every remainder term has total
    degree and exponents at most those of p, so a leading term above the
    degree bound of p in any field means the division is inexact.  That
    test keeps every key the division makes below the next field, and it
    costs one subtraction per quotient term.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return MultiPoly.zero()
    guards, cap = every_field(GUARD), every_field(p._bound)
    dt = d._terms
    lm_d = max(dt)
    lc_d = dt[lm_d]
    rest_d = [(m, c) for m, c in dt.items() if m != lm_d]
    rem = dict(p._terms)
    heap = [-m for m in rem]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    quot: dict[Key, Rational] = {}
    while rem:
        lm_r = -pop(heap)
        lc_r = rem.pop(lm_r, None)
        if lc_r is None:
            continue
        q = lm_r - lm_d
        if (cap - lm_r) & guards or q & guards:
            raise ValueError("polynomial division is inexact")
        qcoeff = exact_div(lc_r, lc_d)
        quot[q] = qcoeff
        for m, c in rest_d:
            m += q
            c0 = rem.get(m)
            if c0 is None:
                rem[m] = -qcoeff * c
                push(heap, -m)
            else:
                c0 -= qcoeff * c
                if c0:
                    rem[m] = c0
                else:
                    del rem[m]
    return MultiPoly(quot)


# -- determinant ---------------------------------------------------------------


def _find_pivot(a: PolyMatrix, k: int) -> tuple[int, int] | None:
    """Position of the cheapest nonzero entry of the block a[k:, k:], or None.

    Cheapest is fewest terms, then lowest total degree; the first entry in
    row-major order wins a tie, and the first constant ends the scan, since
    nothing is cheaper.
    """
    n = len(a)
    best = None
    best_rank = None
    for i in range(k, n):
        row = a[i]
        for j in range(k, n):
            terms = row[j]._terms
            if not terms:
                continue
            if len(terms) == 1 and 0 in terms:
                return i, j
            rank = len(terms), row[j].degree()
            if best is None or rank < best_rank:
                best, best_rank = (i, j), rank
    return best


def _divide(p: MultiPoly, d: MultiPoly) -> MultiPoly:
    """p / d, exact; a constant d divides the coefficients alone."""
    dt = d._terms
    if len(dt) == 1 and 0 in dt:
        c = dt[0]
        if c == 1:
            return p
        return MultiPoly({m: exact_div(x, c) for m, x in p._terms.items()})
    return divexact(p, d)


def _cross(x: MultiPoly, p: MultiPoly, y: MultiPoly, z: MultiPoly) -> MultiPoly:
    """x*p - y*z, accumulated in one dict."""
    _check_degree(max(x._bound + p._bound, y._bound + z._bound))
    out = _products({}, x._terms, p._terms, operator.add)
    _products(out, {m: -c for m, c in y._terms.items()}, z._terms, operator.add)
    return MultiPoly(out)


def det(matrix: Sequence[Sequence]) -> MultiPoly:
    """Exact determinant via fraction-free Bareiss elimination, fully pivoted.

    Step k moves the cheapest nonzero entry of the trailing block (fewest
    terms, then lowest total degree, the first in row-major order on a tie)
    to position (k, k) by one row swap and one column swap, each flipping
    the sign; a zero block means a zero determinant.  Bareiss is exact
    under any such permutation: after step k every trailing entry is a
    (k+1)-minor, so the division by the previous pivot never leaves a
    remainder.  Constants are pivoted first, so a matrix with an integer
    block (the incidence part of a graph matrix) eliminates it with
    constant divisors, which divide the coefficients alone, and the
    polynomial work is left to what remains.  An update whose cross term
    vanishes only rescales a[i][j] by pivot / previous pivot, so it is
    skipped when a[i][j] is zero or that ratio is 1.

    A constant pivot that comes out negative has its row negated, and the
    sign flips.  This is exact: at step k, row k of the working matrix is
    linear in row k of the (permuted) input, since each of its entries is a
    (k+1)-minor whose last row is that input row, and no earlier pivot
    reads it.  Negating the working row is therefore negating that input
    row from the start: the determinant changes sign, every earlier pivot
    is unchanged, and every later entry is a minor of the negated matrix,
    so the divisions stay exact.  The +-1 pivots of a graph matrix's
    incidence block then all read +1, and those steps divide by 1 and
    rescale nothing.
    """
    a = promote_matrix(matrix)
    n = len(a)
    sign = 1
    prev = MultiPoly.one()
    for k in range(n):
        at = _find_pivot(a, k)
        if at is None:
            return MultiPoly.zero()
        p, q = at
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        if q != k:
            for row in a[k:]:
                row[k], row[q] = row[q], row[k]
            sign = -sign
        row_k = a[k]
        pivot = row_k[k]
        if pivot._terms.get(0, 0) < 0 and len(pivot._terms) == 1:
            for j in range(k, n):
                if row_k[j]:
                    row_k[j] = -row_k[j]
            sign = -sign
            pivot = row_k[k]
        same = pivot == prev
        for i in range(k + 1, n):
            row = a[i]
            aik = row[k]
            if not aik and same:
                continue
            for j in range(k + 1, n):
                x = row[j]
                if aik and row_k[j]:
                    row[j] = _divide(_cross(x, pivot, aik, row_k[j]), prev)
                elif x and not same:
                    row[j] = _divide(x * pivot, prev)
        prev = pivot
    return prev if sign == 1 else -prev


# -- Pfaffian ---------------------------------------------------------------------


def _check_skew(a: PolyMatrix) -> None:
    n = len(a)
    for i in range(n):
        if not a[i][i].is_zero():
            raise ValueError("matrix is not skew-symmetric (nonzero diagonal)")
        for j in range(i + 1, n):
            if a[i][j] != -a[j][i]:
                raise ValueError("matrix is not skew-symmetric")


def pfaffian(matrix: Sequence[Sequence]) -> MultiPoly:
    """Pfaffian as the signed sum over perfect matchings.

    The sign convention makes the A[0][1]*A[2][3]*... term +1.  Odd
    dimension gives 0; non-skew input raises.
    """
    a = promote_matrix(matrix)
    _check_skew(a)
    n = len(a)
    if n % 2 == 1:
        return MultiPoly.zero()

    def term(pairing: list[tuple[int, int]], sign: int) -> MultiPoly:
        out = MultiPoly.const(sign)
        for i, j in pairing:
            out = out * a[i][j]
        return out

    return MultiPoly.sum(term(p, s) for p, s in _pairings_with_sign(tuple(range(n))))


def _pairings_with_sign(items: tuple[int, ...]):
    """Yield (pairing, sign); sign is the parity of (i1 j1 i2 j2 ...)."""
    if not items:
        yield [], 1
        return
    first, rest = items[0], items[1:]
    for idx, j in enumerate(rest):
        remaining = rest[:idx] + rest[idx + 1 :]
        # moving j next to `first` crosses idx earlier elements
        pair_sign = -1 if idx % 2 == 1 else 1
        for sub, sub_sign in _pairings_with_sign(remaining):
            yield [(first, j)] + sub, pair_sign * sub_sign


def pfaffian_recursive(matrix: Sequence[Sequence]) -> MultiPoly:
    """Pfaffian by first-row expansion; must agree with the matching sum."""
    a = promote_matrix(matrix)
    _check_skew(a)
    if len(a) % 2 == 1:
        return MultiPoly.zero()

    def rec(rows: list[list[MultiPoly]]) -> MultiPoly:
        m = len(rows)
        if m == 0:
            return MultiPoly.one()

        def expansion_term(j: int) -> MultiPoly:
            keep = [k for k in range(1, m) if k != j]
            minor = [[rows[r][c] for c in keep] for r in keep]
            piece = rows[0][j] * rec(minor)
            return piece if j % 2 == 1 else -piece

        return MultiPoly.sum(expansion_term(j) for j in range(1, m) if not rows[0][j].is_zero())

    return rec(a)


# -- the diagonal-plus-skew Pfaffian identity ----------------------------------------


def pfaffian_sign_constant(n: int) -> int:
    """Sign sigma_n in det(D+A) = sigma_n * Pf([[A, D], [-D, -A]]).

    Derived on n = 1, 2 by brute-force expansion and matching the closed
    form (-1)^(n(n-1)/2); asserted for every n exercised by the tests.
    """
    return -1 if (n * (n - 1) // 2) % 2 else 1


def build_skew_assembly(d_mat: Sequence[Sequence], a_mat: Sequence[Sequence]) -> PolyMatrix:
    d = promote_matrix(d_mat)
    a = promote_matrix(a_mat)
    n = len(d)
    for i in range(n):
        for j in range(n):
            if i != j and not d[i][j].is_zero():
                raise ValueError("D must be diagonal")
    top = [list(a[i]) + list(d[i]) for i in range(n)]
    bot = [[-d[i][j] for j in range(n)] + [-a[i][j] for j in range(n)] for i in range(n)]
    return top + bot


def det_d_plus_a_identity(d_mat: Sequence[Sequence], a_mat: Sequence[Sequence]) -> bool:
    """Check det(D+A) = sigma_n * Pf of the doubled skew assembly."""
    d = promote_matrix(d_mat)
    a = promote_matrix(a_mat)
    _check_skew(a)
    n = len(d)
    if len(a) != n:
        raise ValueError("D and A must have the same dimension")
    total = [[d[i][j] + a[i][j] for j in range(n)] for i in range(n)]
    lhs = det(total)
    rhs = pfaffian(build_skew_assembly(d, a))
    sigma = pfaffian_sign_constant(n)
    return lhs == (rhs if sigma == 1 else -rhs)


# -- Kirchhoff oracle -------------------------------------------------------------------


def matrix_tree_count(g: Graph) -> int:
    """Number of spanning trees via the reduced Laplacian determinant.

    Self-loops are ignored (they belong to no spanning tree).
    """
    if not g.is_connected():
        raise ValueError("matrix_tree_count requires a connected graph")
    verts = list(g.vertices)
    if len(verts) == 1:
        return 1
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    lap = [[0] * n for _ in range(n)]
    for e in g.edges:
        if e.is_loop:
            continue
        i, j = idx[e.tail], idx[e.head]
        lap[i][i] += 1
        lap[j][j] += 1
        lap[i][j] -= 1
        lap[j][i] -= 1
    reduced = [[MultiPoly.const(lap[i][j]) for j in range(1, n)] for i in range(1, n)]
    value = det(reduced).constant_term()
    if value.denominator != 1:
        raise AssertionError("Kirchhoff determinant must be an integer")
    return int(value)
