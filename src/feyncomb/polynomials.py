"""Tutte and Bollobas-Riordan polynomial families, each by two routes.

Every polynomial here has a rank-nullity subset-sum definition (the semantic
reference) and a deletion/contraction recursion with terminal forms (the
cross-check).  The two must agree exactly; the acceptance suite pins them
together on fixtures and random corpora.

Tutte and multivariate Tutte delcon step over a whole parallel class P (m
edges between two vertices) at a time, on the position state of
`graphs.edge_classes` and `graphs.contract_class`.  Self-loops are folded
into a factor first: y each for T, (1 + beta_e) each for Z.  Then

    T = (x + y + ... + y^(m-1)) T(G/P)            if P is a bridge class,
    T = T(G-P) + (1 + y + ... + y^(m-1)) T(G/P)   otherwise;
    Z = Z(G-P) + (prod (1 + beta_e) - 1) Z(G/P)   (Sokal's parallel rule),

with terminal forms T = 1 and Z = q^|V| on the edgeless graph (Haggard,
Pearce & Royle, "Computing Tutte polynomials", 2010; Sokal, math/0503607).
Z has no series rule without division.  Bollobas-Riordan delcon steps one
edge at a time, since a ribbon contraction splices rotations.

Variables: "x", "y" (Tutte), "q" and per-edge "b.<edge>" (multivariate
Tutte), "z" (Bollobas-Riordan face tracker), "k" (chromatic/flow argument).
External legs are ignored by everything in this module.
"""

from __future__ import annotations

import functools
import operator
from collections import Counter

from .graphs import Graph, contract_class, edge_classes, is_bridge_class, pick_class
from .poly import Monomial, MultiPoly, Powers, edge_monomial
from .ribbon import RibbonGraph

X = MultiPoly.var("x")
Y = MultiPoly.var("y")
Q = MultiPoly.var("q")
Z = MultiPoly.var("z")
K = MultiPoly.var("k")


def beta_var(edge_id: str) -> MultiPoly:
    return MultiPoly.var(f"b.{edge_id}")


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


def _tutte_subset(g: Graph) -> MultiPoly:
    n_v = len(g.vertices)
    r_all = g.rank()
    counts: Counter[tuple[int, int]] = Counter()
    for subset, k in g.edge_subsets():
        rank = n_v - k
        counts[r_all - rank, len(subset) - rank] += 1
    xp = Powers(X - 1)
    yp = Powers(Y - 1)
    return MultiPoly.sum(xp[a] * yp[b] * n for (a, b), n in counts.items())


def _tutte_delcon(g: Graph) -> MultiPoly:
    loops, classes = edge_classes(g)
    yp = Powers(Y)
    series = [MultiPoly.zero()]  # series[m] = 1 + y + ... + y^(m-1)
    for i in range(len(g.edges)):
        series.append(series[-1] + yp[i])
    state = {k: len(ids) for k, ids in classes.items()}
    return yp[len(loops)] * _tutte_classes(len(g.vertices), state, series)


def _tutte_classes(n: int, classes: dict[tuple[int, int], int], series: list[MultiPoly]) -> MultiPoly:
    """T of the loopless state `classes` (class -> multiplicity) on n positions."""
    if not classes:
        return MultiPoly.one()
    key = pick_class(classes)
    m = classes[key]
    contracted = _tutte_classes(n - 1, contract_class(n, classes, key, operator.add), series)
    if is_bridge_class(n, classes, key):
        return (X - 1 + series[m]) * contracted
    rest = dict(classes)
    del rest[key]
    return _tutte_classes(n, rest, series) + series[m] * contracted


# -- multivariate Tutte polynomial -------------------------------------------------


def multivariate_tutte(g: Graph, method: str = "subset") -> MultiPoly:
    """Z(q, {beta_e}) = sum over edge subsets of q^k(A) * prod beta_e."""
    if len(g.vertices) == 0:
        raise ValueError("multivariate_tutte requires at least one vertex")
    if method == "subset":
        return MultiPoly({edge_monomial("b.", subset, ("q", k)): 1 for subset, k in g.edge_subsets()})
    if method == "delcon":
        return _ztutte_delcon(g)
    raise ValueError(f"unknown method {method!r}")


def _ztutte_delcon(g: Graph) -> MultiPoly:
    loops, classes = edge_classes(g)
    one_plus = {e.id: 1 + beta_var(e.id) for e in g.edges}

    def product(ids: list[str]) -> MultiPoly:
        return functools.reduce(operator.mul, (one_plus[e] for e in ids), MultiPoly.one())

    state = {k: product(ids) for k, ids in classes.items()}
    return product(loops) * _ztutte_classes(len(g.vertices), state, Powers(Q))


def _ztutte_classes(n: int, classes: dict[tuple[int, int], MultiPoly], qp: Powers) -> MultiPoly:
    """Z of the loopless state `classes` (class -> prod (1 + beta_e)) on n positions."""
    if not classes:
        return qp[n]
    key = pick_class(classes)
    rest = dict(classes)
    del rest[key]
    contracted = _ztutte_classes(n - 1, contract_class(n, classes, key, operator.mul), qp)
    return _ztutte_classes(n, rest, qp) + (classes[key] - 1) * contracted


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
    """Chromatic polynomial P(k) of a connected graph."""
    if not g.is_connected():
        raise ValueError("chromatic requires a connected graph")
    t = tutte(g, method="subset")
    p = t.substitute({"x": MultiPoly.one() - K, "y": MultiPoly.zero()})
    sign = -1 if (len(g.vertices) - 1) % 2 else 1
    return MultiPoly.const(sign) * K * p


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
    """Nowhere-zero flow polynomial F(k) of a connected graph."""
    if not g.is_connected():
        raise ValueError("flow_poly requires a connected graph")
    t = tutte(g, method="subset")
    p = t.substitute({"x": MultiPoly.zero(), "y": MultiPoly.one() - K})
    sign = -1 if (len(g.edges) - len(g.vertices) + 1) % 2 else 1
    return MultiPoly.const(sign) * p


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
    g = rg.graph
    n_v = len(g.vertices)
    r_all = g.rank()
    counts: Counter[tuple[int, int, int]] = Counter()
    for subset, k_h in g.edge_subsets():
        rank = n_v - k_h
        n_h = len(subset) - rank
        counts[r_all - rank, n_h, k_h - rg.face_count(subset) + n_h] += 1
    xp = Powers(X - 1)
    yp = Powers(Y)
    zp = Powers(Z)
    return MultiPoly.sum(xp[a] * yp[b] * zp[c] * n for (a, b, c), n in counts.items())


def _br_delcon(rg: RibbonGraph) -> MultiPoly:
    g = rg.graph
    kinds = {e.id: g.classify_edge(e.id) for e in g.edges}
    regular = sorted(e for e, kind in kinds.items() if kind == "regular")
    bridges = sorted(e for e, kind in kinds.items() if kind == "bridge")
    if regular:
        e = regular[0]
        return _br_delcon(rg.ribbon_contract(e)) + _br_delcon(rg.ribbon_delete(e))
    if bridges:
        return X * _br_delcon(rg.ribbon_contract(bridges[0]))
    return _br_terminal(rg)


def _br_terminal(rg: RibbonGraph) -> MultiPoly:
    """Only self-loops remain: product over vertices of y^|H| z^2g(H) sums."""
    total = MultiPoly.one()
    for v in rg.vertices:
        seq = tuple(t for t in rg.rotation[v] if t[1] != "x")
        loop_ids = sorted({t[0] for t in seq})

        counts: Counter[Monomial] = Counter()
        for mask in range(1 << len(loop_ids)):
            chosen = frozenset(loop_ids[i] for i in range(len(loop_ids)) if mask >> i & 1)
            local = tuple(t for t in seq if t[0] in chosen)
            two_genus = 1 + len(chosen) - _one_vertex_face_count(local)
            counts[tuple(pair for pair in (("y", len(chosen)), ("z", two_genus)) if pair[1])] += 1
        total = total * MultiPoly(counts)
    return total


def _one_vertex_face_count(seq: tuple) -> int:
    if not seq:
        return 1
    succ = {tok: seq[(i + 1) % len(seq)] for i, tok in enumerate(seq)}
    visited = set()
    faces = 0
    for tok in seq:
        if tok in visited:
            continue
        faces += 1
        cur = tok
        while cur not in visited:
            visited.add(cur)
            mate = (cur[0], "h" if cur[1] == "t" else "t")
            cur = succ[mate]
    return faces


def multivariate_br(rg: RibbonGraph) -> MultiPoly:
    """Z(x, {beta_e}, z) = sum over H of x^k(H) * prod beta_e * z^F(H)."""
    if len(rg.vertices) == 0:
        raise ValueError("multivariate_br requires at least one vertex")
    face_count = rg.face_count
    return MultiPoly(
        {
            edge_monomial("b.", subset, ("x", k), ("z", face_count(subset))): 1
            for subset, k in rg.graph.edge_subsets()
        }
    )


def check_br_tutte_specialization(rg: RibbonGraph) -> bool:
    """R(x, y-1, z:=1) must equal the Tutte polynomial of the underlying graph.

    With this module's variable convention the y slot of R carries y (not
    y-1), so the classical z:=1 collapse shifts y accordingly; the literal
    y-unshifted substitution already fails on a single planar self-loop.
    """
    r = bollobas_riordan(rg, method="subset")
    collapsed = r.substitute({"y": Y - 1, "z": MultiPoly.one()})
    return collapsed == tutte(rg.underlying(), method="subset")
