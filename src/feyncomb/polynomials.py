"""Tutte and Bollobas-Riordan polynomial families, each by two routes.

Every polynomial here has a rank-nullity subset-sum definition (the semantic
reference) and a deletion/contraction route with terminal forms (the
cross-check).  The two must agree exactly; the acceptance suite pins them
together on fixtures and random corpora.  Chromatic and flow polynomials are
checked against brute-force counts instead.

The subset routes count, never multiply.  One walk of `Graph.edge_walk`
over every edge subset fills an integer table of the number of edge subsets
A with each (|A|, k(A)); T, and Whitney's sums

    P(k) = sum over A of (-1)^|A| k^k(A),
    F(k) = sum over A of (-1)^(|E|-|A|) k^(|A|-|V|+k(A)),

are read off that one table; Z sums one packed key per subset of the walk.
R is read off the number of subsets H of each (|H|, k(H), F(H)), which
`RibbonGraph.subset_faces` counts in one decision walk with a union-find on
corners (the corner rule of `ribbon`) instead of tracing the faces of each
subset.  `_expand` then turns a table {exponents e: n} into sum n * prod
(v_i + s_i)^e_i (s = -1 for the x-1 and y-1 slots of T and R, 0 otherwise)
by exact binomials, straight into packed keys: each polynomial is built
once, with no product of polynomials.

Tutte and multivariate Tutte delcon step over a whole parallel class P (m
edges between two vertices) at a time, on the position state of
`graphs.edge_classes`, walked by `graphs.class_leaves`.  Self-loops are
folded into a factor first: y each for T, (1 + beta_e) each for Z.  Then

    T = (x + y + ... + y^(m-1)) T(G/P)            if P is a bridge class,
    T = T(G-P) + (1 + y + ... + y^(m-1)) T(G/P)   otherwise;
    Z = Z(G-P) + w_P Z(G/P),  w_P = prod (1 + beta_e) - 1   (Sokal's parallel rule),

with terminal forms T = 1 and Z = q^|V| on the edgeless graph (Haggard,
Pearce & Royle, "Computing Tutte polynomials", 2010; Sokal, math/0503607);
each polynomial is the sum over the leaves of the terminal form times the
product of the branch factors on the way.  Each class carries its w_P, and
two classes that contraction makes parallel merge as w + w' + w w'; a leaf
on n vertices is shifted by the key of q^n into one dict.  The bridge factor
of T is made once per class size.  Z has no series rule without division.
Bollobas-Riordan delcon steps one edge at a time, since a ribbon
contraction splices rotations.  For the first non-loop edge e by id,

    R = R(G/e) + R(G-e)   if e is not a bridge,
    R = x R(G/e)          if e is a bridge,

the walk of `ribbon.rotation_leaves`, shared with Moyal U*, so no route
recurses.  When only loops remain, R is the product over vertices of the
sums of y^|H| z^2g(H) over the loop sets H at the vertex, read from the
face counts of its chord diagram.  The terms are counted by their (x, y,
z) exponents, and the polynomial is built once.

Variables: "x", "y" (Tutte), "q" and per-edge "b.<edge>" (multivariate
Tutte), "z" (Bollobas-Riordan face tracker), "k" (chromatic/flow argument).
External legs are ignored by everything in this module.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from typing import Callable, Mapping, Sequence

from .graphs import Graph, class_leaves, edge_classes
from .poly import MultiPoly, Powers, _check_degree, _new, edge_keys, mask_keys, var_key
from .ribbon import RibbonGraph, RotationState, rotation_leaves

X = MultiPoly.var("x")
Y = MultiPoly.var("y")
Z = MultiPoly.var("z")


def _beta_product(g: Graph) -> Callable[[int], int]:
    """The packed key of the beta product of the edge subset of each
    bitmask, bit i being edge `Graph.edge_ids()[i]`."""
    return mask_keys(list(edge_keys("b.", g.edge_ids()).values()))


# -- Tutte polynomial ------------------------------------------------------------


def tutte(g: Graph, method: str = "subset") -> MultiPoly:
    """Tutte polynomial T(x, y) of a multigraph (legs ignored)."""
    if len(g.vertices) == 0:
        raise ValueError("tutte requires at least one vertex")
    if method == "subset":
        return _tutte_subset(g)
    if method == "delcon":
        return _tutte_delcon(g)
    raise ValueError(f"unknown method {method!r}")


def _subset_table(g: Graph) -> Counter[tuple[int, int]]:
    """The number of edge subsets A of each (|A|, k(A)), counted off
    `Graph.edge_walk`: the table the Tutte, chromatic and flow sums share."""
    return Counter((mask.bit_count(), k) for mask, k in g.edge_walk())


def _expand(table: Mapping[tuple[int, ...], int], slots: Sequence[tuple[str, int]]) -> MultiPoly:
    """The sum of n * prod_i (v_i + s_i)^e_i over the entries (e, n) of
    `table`, for the (variable v_i, shift s_i) of `slots`.

    Each power is expanded by exact binomials straight into packed keys, so
    the polynomial is built once, with no polynomial product.  The total
    degree is tested once, before the first key is summed.
    """
    bound = _check_degree(max(map(sum, table), default=0))
    # rows[i][e]: the (key, coefficient) terms of (v_i + s_i)^e
    rows = []
    for i, (v, s) in enumerate(slots):
        key = var_key(v)
        top = max((e[i] for e in table), default=0)
        rows.append(
            [[(j * key, c) for j in range(e + 1) if (c := math.comb(e, j) * s ** (e - j))] for e in range(top + 1)]
        )
    acc: dict[int, int] = {}
    get = acc.get
    for exps, n in table.items():
        terms = [(0, n)]
        for row, e in zip(rows, exps):
            terms = [(k + k2, c * c2) for k, c in terms for k2, c2 in row[e]]
        for k, c in terms:
            c0 = get(k)
            acc[k] = c if c0 is None else c0 + c
    return _new(acc, bound)


def _tutte_subset(g: Graph) -> MultiPoly:
    """T = sum over A of (x-1)^(k(A)-k(E)) (y-1)^(|A|-|V|+k(A))."""
    n_v, k_all = len(g.vertices), g.components()
    table = {(k - k_all, size - n_v + k): n for (size, k), n in _subset_table(g).items()}
    return _expand(table, (("x", -1), ("y", -1)))


def _tutte_delcon(g: Graph) -> MultiPoly:
    loops, classes = edge_classes(g)
    yp = Powers(Y)
    one = MultiPoly.one()
    # series[m] = 1 + y + ... + y^(m-1), for every class size that contraction can merge
    series = [MultiPoly.zero(), one]
    for i in range(1, len(g.edges) - len(loops)):
        series.append(series[-1] + yp[i])
    bridge = [X - 1 + s for s in series]  # x + y + ... + y^(m-1)

    def step(m: int, is_bridge: Callable[[], bool]) -> tuple:
        return (None, bridge[m]) if is_bridge() else (one, series[m])

    state = {k: len(ids) for k, ids in classes.items()}
    leaves = class_leaves(len(g.vertices), state, operator.add, step, one)
    return yp[len(loops)] * MultiPoly.sum(w for _, w in leaves)


# -- multivariate Tutte polynomial -------------------------------------------------


def multivariate_tutte(g: Graph, method: str = "subset") -> MultiPoly:
    """Z(q, {beta_e}) = sum over edge subsets of q^k(A) * prod beta_e."""
    if len(g.vertices) == 0:
        raise ValueError("multivariate_tutte requires at least one vertex")
    if method == "subset":
        betas, q = _beta_product(g), var_key("q")
        _check_degree(len(g.edges) + len(g.vertices))  # |A| + k(A), before any key is summed
        return MultiPoly({betas(mask) + k * q: 1 for mask, k in g.edge_walk()})
    if method == "delcon":
        return _ztutte_delcon(g)
    raise ValueError(f"unknown method {method!r}")


def _parallel(w: MultiPoly, v: MultiPoly) -> MultiPoly:
    """The payload of two parallel classes merged: (1 + w)(1 + v) - 1."""
    return w + v + w * v


def _ztutte_delcon(g: Graph) -> MultiPoly:
    """Each class P carries w_P = prod (1 + beta_e) - 1, and a leaf on n
    positions adds its weight times q^n, by a key shift, into one dict."""
    _check_degree(len(g.edges) + len(g.vertices))  # |A| + k(A), before any key is summed
    keys = edge_keys("b.", g.edge_ids())
    loops, classes = edge_classes(g)

    def subsets(ids: list[str]) -> list[int]:
        """The keys of the beta products of the subsets of `ids`, the empty one first."""
        return list(map(mask_keys([keys[e] for e in ids]), range(1 << len(ids))))

    one = MultiPoly.one()
    state = {k: _new(dict.fromkeys(subsets(ids)[1:], 1), len(ids)) for k, ids in classes.items()}
    leaves = class_leaves(len(g.vertices), state, _parallel, lambda w, _: (one, w), one)
    q, loop_keys = var_key("q"), subsets(loops)  # the terms of prod (1 + beta_e) over the loops
    acc: dict[int, int] = {}
    get = acc.get
    bound = 0
    for n, w in leaves:
        bound = max(bound, w._bound + n)
        for loop_key in loop_keys:
            shift = loop_key + n * q
            for key, c in w._terms.items():
                key += shift
                c0 = get(key)
                acc[key] = c if c0 is None else c0 + c
    return _new(acc, bound + len(loops))


def check_tutte_relation(g: Graph) -> bool:
    """Multivariate-to-Tutte specialization, with the q power cleared.

    q^-|V| Z at beta_e = y-1, q = (x-1)(y-1) equals (x-1)^(k(E)-|V|) T(x,y);
    both sides are multiplied by ((x-1)(y-1))^|V| so only true polynomials
    are ever compared.
    """
    z = multivariate_tutte(g, method="subset")
    t = tutte(g, method="subset")
    xm = X - 1
    ym = Y - 1
    bindings: dict[str, MultiPoly] = {"q": xm * ym}
    for e in g.edges:
        bindings[f"b.{e.id}"] = ym
    lhs = z.substitute(bindings)
    k_all = g.components()
    rhs = xm**k_all * ym ** len(g.vertices) * t
    return lhs == rhs


# -- chromatic and flow specializations ----------------------------------------------


def chromatic(g: Graph) -> MultiPoly:
    """Chromatic polynomial P(k) of a connected graph, by Whitney's sum over
    the edge subsets A: P(k) = sum (-1)^|A| k^k(A)."""
    if not g.is_connected():
        raise ValueError("chromatic requires a connected graph")
    table: Counter[tuple[int]] = Counter()
    for (size, k), n in _subset_table(g).items():
        table[k,] += -n if size % 2 else n
    return _expand(table, (("k", 0),))


def count_colorings_oracle(g: Graph, k: int) -> int:
    """Brute-force proper-coloring count over all k^|V| assignments."""
    if k <= 0:
        raise ValueError("k must be positive")
    if any(e.is_loop for e in g.edges):
        return 0
    verts = list(g.vertices)
    count = 0
    total = k ** len(verts)
    for code in range(total):
        color = {}
        c = code
        for v in verts:
            color[v] = c % k
            c //= k
        if all(color[e.tail] != color[e.head] for e in g.edges):
            count += 1
    return count


def flow_poly(g: Graph) -> MultiPoly:
    """Nowhere-zero flow polynomial F(k) of a connected graph, by Whitney's
    sum over the edge subsets A: F(k) = sum (-1)^(|E|-|A|) k^(|A|-|V|+k(A))."""
    if not g.is_connected():
        raise ValueError("flow_poly requires a connected graph")
    n_e, n_v = len(g.edges), len(g.vertices)
    table: Counter[tuple[int]] = Counter()
    for (size, k), n in _subset_table(g).items():
        table[size - n_v + k,] += -n if (n_e - size) % 2 else n
    return _expand(table, (("k", 0),))


def count_flows_oracle(g: Graph, k: int) -> int:
    """Brute-force nowhere-zero Z_k flow count ((k-1)^|E| assignments).

    Conservation is checked mod k at every vertex with the stored edge
    orientations; the count is orientation-independent.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    edges = list(g.edges)
    count = 0
    total = (k - 1) ** len(edges)
    for code in range(total):
        value = {}
        c = code
        for e in edges:
            value[e.id] = 1 + c % (k - 1)
            c //= k - 1
        ok = True
        for v in g.vertices:
            net = 0
            for e in edges:
                if e.tail == v:
                    net += value[e.id]
                if e.head == v:
                    net -= value[e.id]
            if net % k != 0:
                ok = False
                break
        if ok:
            count += 1
    return count


# -- Bollobas-Riordan polynomial --------------------------------------------------------


def bollobas_riordan(rg: RibbonGraph, method: str = "subset") -> MultiPoly:
    """R(x, y, z) with z tracking the face deficiency k(H) - F(H) + n(H)."""
    if len(rg.vertices) == 0:
        raise ValueError("bollobas_riordan requires at least one vertex")
    if method == "subset":
        return _br_subset(rg)
    if method == "delcon":
        return _br_delcon(rg)
    raise ValueError(f"unknown method {method!r}")


def _br_subset(rg: RibbonGraph) -> MultiPoly:
    """R = sum over H of (x-1)^(k(H)-k(E)) y^n(H) z^(k(H)-F(H)+n(H)), counted
    by (|H|, k(H), F(H)) off `RibbonGraph.subset_faces`."""
    n_v, k_all = len(rg.vertices), rg.graph.components()
    table = Counter((mask.bit_count(), k, f) for mask, k, f in rg.subset_faces())
    counts: Counter[tuple[int, int, int]] = Counter()
    for (size, k, f), n in table.items():
        n_h = size - n_v + k
        counts[k - k_all, n_h, k - f + n_h] += n
    return _expand(counts, (("x", -1), ("y", 0), ("z", 0)))


def _br_delcon(rg: RibbonGraph) -> MultiPoly:
    """Each leaf of `rotation_leaves` adds its terms, its x power being the
    number of bridges contracted on its path."""
    counts: Counter[tuple[int, int, int]] = Counter()
    for state, x_power, _ in rotation_leaves(rg):
        _br_terminal(state, x_power, counts)
    x, y, z = map(var_key, "xyz")
    _check_degree(max(map(sum, counts), default=0))
    return MultiPoly({a * x + b * y + c * z: n for (a, b, c), n in counts.items()})


def _br_terminal(state: RotationState, x_power: int, counts: Counter[tuple[int, int, int]]) -> None:
    """Only self-loops remain: R is x^x_power times the product over vertices
    of the sums of y^|H| z^2g(H) over the sets H of loops at the vertex,
    where one vertex with |H| loops and F faces has 2g = 1 + |H| - F."""
    at_vertex: dict[int, list[int]] = {}
    for k in state.edges:
        at_vertex.setdefault(state.vert[state.tail[k]], []).append(k)
    product: Counter[tuple[int, int]] = Counter({(0, 0): 1})
    for loops in at_vertex.values():
        factor: Counter[tuple[int, int]] = Counter()
        for mask, faces in enumerate(state.loop_faces(loops)):
            size = mask.bit_count()
            factor[size, 1 + size - faces] += 1
        joint: Counter[tuple[int, int]] = Counter()
        for (a, b), m in product.items():
            for (c, d), n in factor.items():
                joint[a + c, b + d] += m * n
        product = joint
    for (y_power, z_power), n in product.items():
        counts[x_power, y_power, z_power] += n


def multivariate_br(rg: RibbonGraph) -> MultiPoly:
    """Z(x, {beta_e}, z) = sum over H of x^k(H) * prod beta_e * z^F(H)."""
    if len(rg.vertices) == 0:
        raise ValueError("multivariate_br requires at least one vertex")
    betas, x, z = _beta_product(rg.graph), var_key("x"), var_key("z")
    # |H| + k(H) + F(H) <= 2(|H| + k(H)), since each component has at most
    # one face more than it has edges (Euler)
    _check_degree(2 * (len(rg.edges) + len(rg.vertices)))
    return MultiPoly({betas(mask) + k * x + f * z: 1 for mask, k, f in rg.subset_faces()})


def check_br_tutte_specialization(rg: RibbonGraph) -> bool:
    """R(x, y-1, z:=1) must equal the Tutte polynomial of the underlying graph.

    With this module's variable convention the y slot of R carries y (not
    y-1), so the classical z:=1 collapse shifts y accordingly; the literal
    y-unshifted substitution already fails on a single planar self-loop.
    """
    r = bollobas_riordan(rg, method="subset")
    collapsed = r.substitute({"y": Y - 1, "z": MultiPoly.one()})
    return collapsed == tutte(rg.underlying(), method="subset")
