"""The Tutte-family subset routes on integer tables against the forms they replace.

`tutte(g, "subset")` and `bollobas_riordan(rg, "subset")` count edge subsets
into an integer table and expand it once, by binomials, into packed keys;
`chromatic` and `flow_poly` are Whitney's sums off the same table.  Here the
tables are expanded by products of `Powers` tables instead, and chromatic
and flow are the specialisations of T, on a seeded corpus of multigraphs
with loops, parallel classes, isolated vertices and disconnected parts, and
in a Hypothesis twin.
"""

import random
from collections import Counter

import pytest

from feyncomb.checks import random_rotation
from feyncomb.poly import MultiPoly, Powers
from feyncomb.polynomials import bollobas_riordan, chromatic, flow_poly, tutte
from subset_oracle import edge_subsets
from test_delcon_classes import FEATURES, class_graph, features, random_class_graph

X, Y, Z, K = (MultiPoly.var(v) for v in "xyzk")


# -- the product-built forms ------------------------------------------------------------


def tutte_by_powers(g):
    n_v = len(g.vertices)
    r_all = g.rank()
    counts = Counter()
    for subset, k in edge_subsets(g):
        rank = n_v - k
        counts[r_all - rank, len(subset) - rank] += 1
    xp = Powers(X - 1)
    yp = Powers(Y - 1)
    return MultiPoly.sum(xp[a] * yp[b] * n for (a, b), n in counts.items())


def br_by_powers(rg):
    g = rg.graph
    n_v = len(g.vertices)
    r_all = g.rank()
    counts = Counter()
    for subset, k_h in edge_subsets(g):
        rank = n_v - k_h
        n_h = len(subset) - rank
        counts[r_all - rank, n_h, k_h - rg.face_count(subset) + n_h] += 1
    xp = Powers(X - 1)
    yp = Powers(Y)
    zp = Powers(Z)
    return MultiPoly.sum(xp[a] * yp[b] * zp[c] * n for (a, b, c), n in counts.items())


def chromatic_by_tutte(g):
    """(-1)^(|V|-1) k T(1-k, 0), with T by deletion/contraction."""
    p = tutte(g, "delcon").substitute({"x": MultiPoly.one() - K, "y": MultiPoly.zero()})
    sign = -1 if (len(g.vertices) - 1) % 2 else 1
    return MultiPoly.const(sign) * K * p


def flow_by_tutte(g):
    """(-1)^(|E|-|V|+1) T(0, 1-k), with T by deletion/contraction."""
    p = tutte(g, "delcon").substitute({"x": MultiPoly.zero(), "y": MultiPoly.one() - K})
    sign = -1 if (len(g.edges) - len(g.vertices) + 1) % 2 else 1
    return MultiPoly.const(sign) * p


# -- the comparisons --------------------------------------------------------------


def check_tables(g, rng):
    assert tutte(g, "subset") == tutte_by_powers(g)
    rg = random_rotation(rng, g)
    assert bollobas_riordan(rg, "subset") == br_by_powers(rg)
    if g.is_connected():
        assert chromatic(g) == chromatic_by_tutte(g)
        assert flow_poly(g) == flow_by_tutte(g)


def test_tables_match_product_forms():
    rng = random.Random(2020)
    seen = dict.fromkeys(FEATURES, False)
    for _ in range(150):
        g = random_class_graph(rng, max_vertices=5, max_edges=9)
        for kind, present in features(g).items():
            seen[kind] |= present
        check_tables(g, rng)
    assert all(seen.values()), seen


def test_tables_match_product_forms_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def class_graphs(draw):
        n = draw(st.integers(1, 5))
        vertex = st.integers(0, n - 1)
        raw = draw(st.lists(st.tuples(vertex, vertex, st.integers(1, 3)), max_size=5))
        classes = [(a, b, m) for a, b, m in raw if a != b]
        loops = draw(st.lists(vertex, max_size=2))
        hypothesis.assume(sum(m for _, _, m in classes) + len(loops) <= 9)
        return class_graph(n, classes, loops)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(class_graphs(), st.integers(0, 2**32))
    def check(g, seed):
        check_tables(g, random.Random(seed))

    check()
