"""Symanzik polynomials and their Moyal-space counterparts.

The commutative polynomials U and V live in the per-edge variables
"a.<edge>"; momenta are exact rational Euclidean 4-vectors, so V carries
rational coefficients (squared momentum sums), never symbols.

The noncommutative polynomials U*, Re V*, Im V* carry powers of theta/2.
They are assembled in ThetaTracked form: a finite sum of (theta/2)^n times
a theta-free polynomial, where n may go negative during assembly (the
2*alpha/theta edge factors) but must be nonnegative by the time a true
polynomial is rendered.

U, V, U*, Re V* and Im V* read each term off a `Graph.edge_walk` mask:
its alpha key is full - table(mask) from one `poly.mask_keys` table, and
the momentum weight of V and V* is memoised within the call by the part's
legged vertices (V) or by the leg half-edges of the first face, which the
counting `HalfEdges.trace` of the mask gives (V*).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Callable, Iterable, Mapping

from . import linalg
from .graphs import Graph, class_leaves, edge_classes, mask_edges
from .poly import Key, LinComb, MultiPoly, Rational, _exact, edge_keys, edge_monomial, exponent_reader, mask_keys
from .polynomials import multivariate_br, multivariate_tutte
from .ribbon import Face, RibbonGraph, rotation_leaves

THETA = "theta"

Momentum = tuple[Rational, Rational, Rational, Rational]


def alpha_var(edge_id: str) -> MultiPoly:
    return MultiPoly.var(f"a.{edge_id}")


def alpha_product(edge_ids: Iterable[str]) -> MultiPoly:
    return MultiPoly({edge_monomial("a.", set(edge_ids)): 1})


def _alpha_keys(g: Graph) -> tuple[list[Key], Key, Callable[[int], Key]]:
    """The alpha variable keys in `edge_ids` order, the key of their product
    and their `mask_keys` table: the alpha monomial of the edges outside S is
    the product's key minus the keys of S.  `edge_keys` checked the degree."""
    alphas = list(edge_keys("a.", g.edge_ids()).values())
    return alphas, sum(alphas), mask_keys(alphas)


# -- momenta -----------------------------------------------------------------


def momentum(components: Iterable[Rational]) -> Momentum:
    """An exact 4-vector: integral components as int, the rest as Fraction."""
    vals = tuple(_exact(c) for c in components)
    if len(vals) != 4:
        raise ValueError("momenta are 4-vectors")
    return vals  # type: ignore[return-value]


ZERO_MOMENTUM = momentum((0, 0, 0, 0))


def dot(p: Momentum, q: Momentum) -> Rational:
    return sum(a * b for a, b in zip(p, q))


def wedge(p: Momentum, q: Momentum) -> Rational:
    """Moyal wedge p^q = p1 q2 - p2 q1 + p3 q4 - p4 q3 (theta scaled out)."""
    return p[0] * q[1] - p[1] * q[0] + p[2] * q[3] - p[3] * q[2]


def validate_assignment(g: Graph, ext: Mapping[str, Iterable[Rational]]) -> dict[str, Momentum]:
    """Check leg coverage and momentum conservation; normalize with `momentum`."""
    out: dict[str, Momentum] = {}
    leg_ids = {l.id for l in g.legs}
    missing = leg_ids - set(ext)
    if missing:
        raise ValueError(f"momenta missing for legs: {sorted(missing)}")
    unknown = set(ext) - leg_ids
    if unknown:
        raise ValueError(f"momenta given for unknown legs: {sorted(unknown)}")
    for lid in sorted(leg_ids):
        out[lid] = momentum(ext[lid])
    net = [sum(l.sign * out[l.id][i] for l in g.legs) for i in range(4)]
    if any(c != 0 for c in net):
        raise ValueError(f"momentum conservation violated: net = {net}")
    return out


def zero_assignment(g: Graph) -> dict[str, Momentum]:
    return {l.id: ZERO_MOMENTUM for l in g.legs}


def load_momenta_json(g: Graph, data: Mapping) -> dict[str, Momentum]:
    """Parse the momenta JSON format {"f1": {"p": [1,0,0,0], "dir": "in"}}.

    Components may be ints or "n/d" strings (a sign, digits, and optionally
    "/" and digits); floats and other strings are rejected unconverted.
    """
    if not isinstance(data, dict):
        raise ValueError("momenta must be a JSON object")
    ext: dict[str, Momentum] = {}
    for lid, entry in data.items():
        if not isinstance(entry, dict) or not isinstance(entry.get("p"), list):
            raise ValueError(f"momenta entry {lid!r} needs a list field 'p'")
        comps = []
        for c in entry["p"]:
            exact = isinstance(c, int) or isinstance(c, str) and re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", c)
            if isinstance(c, bool) or not exact:
                raise ValueError(f"momenta for {lid!r} must be exact (int or 'n/d' string)")
            try:
                comps.append(Fraction(c))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"momenta for {lid!r}: {c!r} is not an exact rational") from None
        ext[lid] = momentum(comps)
        want = g.leg(lid).dir if any(l.id == lid for l in g.legs) else None
        if want is not None and "dir" in entry and entry["dir"] != want:
            raise ValueError(f"momenta direction for {lid!r} contradicts the fixture")
    return validate_assignment(g, ext)


# -- commutative Symanzik polynomials ------------------------------------------


def symanzik_u(g: Graph) -> MultiPoly:
    """First Symanzik polynomial: sum over spanning trees of the complement product."""
    if not g.is_connected():
        raise ValueError("symanzik_u requires a connected graph")
    _, full, table = _alpha_keys(g)
    return MultiPoly({full - table(mask): 1 for mask, _ in g.edge_walk(1, True)})


def symanzik_v(
    g: Graph,
    ext: Mapping[str, Momentum],
    component: int | str = "auto",
) -> MultiPoly:
    """Second Symanzik polynomial over spanning two-trees.

    Each two-tree contributes the complement alpha product times the squared
    total momentum flowing into one of its two components; by conservation
    the choice of component ("auto", 0, or 1) does not matter.  Component 0
    ("auto") is the part that holds the least vertex id.
    """
    pick = _choice("component", component)
    if not g.is_connected():
        raise ValueError("symanzik_v requires a connected graph")
    momenta = validate_assignment(g, ext)
    legs = [(1 << g.vertices.index(l.vertex), tuple(l.sign * c for c in momenta[l.id])) for l in g.legs]
    legged = sum({b for b, _ in legs})
    _, full, table = _alpha_keys(g)
    squares: dict[int, Rational] = {}
    terms = {}
    for mask, part in g._two_forests():
        side = legged & ~part if pick == 1 else legged & part
        w = squares.get(side)
        if w is None:
            w = squares[side] = _flow_square(p for b, p in legs if side & b)
        terms[full - table(mask)] = w
    return MultiPoly(terms)


def _choice(name: str, value: int | str) -> int | None:
    """A part or face choice: 0 or 1, or None for "auto"."""
    if value != "auto" and not (type(value) is int and value in (0, 1)):
        raise ValueError(f"{name} must be 'auto', 0 or 1, not {value!r}")
    return None if value == "auto" else value


def _flow_square(momenta: Iterable[Momentum]) -> Rational:
    """The square of the sum of `momenta`."""
    flow = [sum(c) for c in zip(*momenta)]
    return dot(flow, flow)  # type: ignore[arg-type]


def symanzik_u_via_det(g: Graph, drop_vertex: str | None = None) -> MultiPoly:
    """U via the determinant of the graph matrix (alpha diagonal vs incidence).

    Self-loops are peeled off as overall alpha factors (their incidence rows
    vanish), one vertex row/column pair is dropped to remove the zero mode,
    and the determinant is corrected by the sign (-1)^(|V|-1).  The result
    is independent of which vertex is dropped.

    `linalg.det` pivots on the constant incidence entries first: 2(|V|-1)
    steps, each pivot made +1 by negating its row, so every division in
    them is by 1 and no step rescales the trailing block.  The L x L block
    they leave is, up to sign, the loop matrix sum_e alpha_e c_e c_e^T,
    where c_e holds the signed multiplicity of edge e in each of L
    independent cycles (Bogner & Weinzierl, arXiv:1002.3458).  So this
    route costs about what a determinant of the loop matrix costs, not one
    of size E + |V| - 1.
    """
    if not g.is_connected():
        raise ValueError("symanzik_u_via_det requires a connected graph")
    peel = alpha_product(e.id for e in g.edges if e.is_loop)
    sign = -1 if (len(g.vertices) - 1) % 2 else 1
    return MultiPoly.const(sign) * peel * linalg.det(graph_matrix(g, drop_vertex))


def graph_matrix(g: Graph, drop_vertex: str | None = None) -> list[list[MultiPoly]]:
    """The graph matrix of `symanzik_u_via_det`: alpha_e on the diagonal of
    the non-loop edges e, and the negated signed incidence of e with every
    vertex but `drop_vertex` (the largest id when None) off it."""
    verts = list(g.vertices)
    drop = max(verts) if drop_vertex is None else drop_vertex
    if drop not in verts:
        raise ValueError(f"unknown vertex {drop!r}")
    cols = [v for v in verts if v != drop]
    nonloops = [e for e in g.edges if not e.is_loop]
    ne = len(nonloops)
    size = ne + len(cols)
    zero = MultiPoly.zero()
    q = [[zero] * size for _ in range(size)]
    for i, e in enumerate(nonloops):
        q[i][i] = alpha_var(e.id)
        for j, v in enumerate(cols):
            eps = (1 if e.tail == v else 0) - (1 if e.head == v else 0)
            if eps:
                q[i][ne + j] = MultiPoly.const(-eps)
                q[ne + j][i] = MultiPoly.const(-eps)
    return q


def symanzik_u_delcon(g: Graph) -> MultiPoly:
    """U via deletion/contraction over whole parallel classes.

    Self-loops are folded into the factor prod alpha_e first.  A class P of
    m edges then gives U = prod_P alpha * U(G-P) + e_(m-1)(alpha_P) * U(G/P):
    a spanning tree avoids P or uses exactly one of its edges.  G-P is
    disconnected, with U = 0, when P is a bridge class, so that branch is
    dropped.  The tree is walked by `graphs.class_leaves`; a leaf adds its
    branch weight when it is a single vertex, and nothing otherwise.
    """
    if not g.is_connected():
        raise ValueError("symanzik_u_delcon requires a connected graph")
    loops, classes = edge_classes(g)
    one = MultiPoly.one()
    state = {}
    for k, ids in classes.items():
        esym = MultiPoly.sum(alpha_product(ids[:i] + ids[i + 1 :]) for i in range(len(ids))) if ids[1:] else one
        state[k] = (alpha_product(ids), esym)

    def step(payload: tuple[MultiPoly, MultiPoly], bridge) -> tuple:
        prod, esym = payload
        return (None if bridge() else prod), esym

    leaves = class_leaves(len(g.vertices), state, _merge_u, step, one)
    return alpha_product(loops) * MultiPoly.sum(w for n, w in leaves if n == 1)


def _merge_u(p: tuple[MultiPoly, MultiPoly], q: tuple[MultiPoly, MultiPoly]) -> tuple[MultiPoly, MultiPoly]:
    """The payload of the union of two parallel classes: prod alpha and e_(m-1)(alpha)."""
    return p[0] * q[0], p[1] * q[0] + p[0] * q[1]


def u_from_multivariate_tutte(g: Graph) -> MultiPoly:
    """U recovered from the q -> 0 limit of the multivariate Tutte polynomial.

    Take the q^1 coefficient (maximally spanning subsets of a connected
    graph), keep the lowest homogeneous part in the beta variables (the
    spanning-tree polynomial), then turn each tree monomial into its
    complement alpha monomial, read off the beta fields of its packed key.
    No rational functions appear.
    """
    if not g.is_connected():
        raise ValueError("u_from_multivariate_tutte requires a connected graph")
    z = multivariate_tutte(g, method="subset")
    spanning = z.coefficient_of("q", 1)
    beta_vars = [f"b.{e}" for e in g.edge_ids()]
    forest = spanning.lowest_homogeneous_part(beta_vars) if not spanning.is_zero() else spanning
    alphas, full, _ = _alpha_keys(g)
    read = exponent_reader(beta_vars)
    return MultiPoly({full - sum(compress(alphas, read(m))): c for m, c in forest._terms.items()})


@dataclass(frozen=True)
class Integrand:
    """Symbolic pieces of the parametric representation; nothing is integrated."""

    u: MultiPoly
    v: MultiPoly
    mass_term: MultiPoly


def parametric_integrand(g: Graph, ext: Mapping[str, Momentum], m2: Rational) -> Integrand:
    mass = MultiPoly.sum(alpha_var(e.id) for e in g.edges)
    return Integrand(symanzik_u(g), symanzik_v(g, ext), MultiPoly.const(m2) * mass)


# -- theta-power tracking ------------------------------------------------------------


class ThetaTracked(LinComb):
    """A finite sum of (theta/2)^n times theta-free polynomials.

    A `poly.LinComb` keyed by the power n, with MultiPoly coefficients.
    Negative n is legal while assembling (edge factors contribute
    2 alpha/theta) but rendering to a true polynomial requires every
    surviving power to be nonnegative.
    """

    __slots__ = ()

    _scalars = (MultiPoly, int, Fraction)
    _key_mul = staticmethod(operator.add)

    def __init__(self, parts: Mapping[int, MultiPoly] | None = None):
        if parts and any(THETA in p.variables() for p in parts.values()):
            raise ValueError("ThetaTracked payloads must be theta-free")
        super().__init__(parts)

    @staticmethod
    def from_poly(p: MultiPoly, power: int = 0) -> ThetaTracked:
        return ThetaTracked({power: p})

    @staticmethod
    def from_terms(terms: Iterable[tuple[int, Key, Rational]]) -> ThetaTracked:
        """The sum of coeff * (theta/2)^power * monomial over (power, packed
        monomial, coeff) triples, accumulated in one dict per power."""
        parts: dict[int, dict[Key, Rational]] = {}
        for power, mono, coeff in terms:
            part = parts.get(power)
            if part is None:
                part = parts[power] = {}
            c0 = part.get(mono)
            part[mono] = coeff if c0 is None else c0 + coeff
        return ThetaTracked({n: MultiPoly(part) for n, part in parts.items()})

    def shift(self, k: int) -> ThetaTracked:
        """Multiply by (theta/2)^k."""
        return ThetaTracked({n + k: p for n, p in self.terms.items()})

    def __repr__(self) -> str:
        return f"ThetaTracked({self.to_poly().canonical_string()})"

    def to_poly(self) -> MultiPoly:
        """Expand into a polynomial in alpha and theta; negative powers error."""
        for n in self.terms:
            if n < 0:
                raise ValueError(f"negative theta power {n} cannot be rendered")
        return MultiPoly.sum(
            MultiPoly.var(THETA, n) * Fraction(1, 2**n) * p for n, p in self.terms.items()
        )


# -- Moyal-space polynomials -------------------------------------------------------------


def nc_u(rg: RibbonGraph) -> ThetaTracked:
    """Moyal U*: (theta/2)^b sum over quasi-trees of prod 2 alpha_e / theta."""
    return _face_sum(rg, 1, "nc_u", None, None)


def nc_u_delcon(rg: RibbonGraph) -> ThetaTracked:
    """U* via deletion/contraction on the first non-loop edge by id.

    U*(G) = alpha_e U*(G - e) + U*(G / e), where the deletion term is
    skipped for a bridge e (G - e is disconnected): the walk of
    `ribbon.rotation_leaves`, shared with Bollobas-Riordan.  Each leaf is
    one vertex with L loops, where V - E + F = 2 - 2g makes b = F - 1 + 2g
    equal L, so a one-face subset S of its loops is a quasi-tree with theta
    power |S| and the alpha product of the loops outside S and of the edges
    deleted on the way.
    """
    if not rg.graph.is_connected():
        raise ValueError("nc_u_delcon requires a connected ribbon graph")
    alphas, _, table = _alpha_keys(rg.graph)
    terms: list[tuple[int, Key, Rational]] = []
    for state, _, deleted in rotation_leaves(rg):
        loops = [alphas[k] for k in state.edges]
        every = table(deleted) + sum(loops)
        for mask, faces in enumerate(state.loop_faces(state.edges)):
            if faces == 1:
                inside = sum(a for i, a in enumerate(loops) if mask >> i & 1)
                terms.append((mask.bit_count(), every - inside, 1))
    return ThetaTracked.from_terms(terms)


def nc_v_real(
    rg: RibbonGraph,
    ext: Mapping[str, Momentum],
    face_choice: int | str = "auto",
) -> ThetaTracked:
    """Real part of V*: two-quasi-trees weighted by a squared face momentum.

    The momentum of a two-quasi-tree is the signed sum of the external
    momenta marking one of its two faces; conservation makes the face
    choice irrelevant ("auto" picks the face holding the smallest leg id).
    """
    pick = _choice("face_choice", face_choice)

    def square(faces: list[Face], momenta: Mapping[str, Momentum]) -> Rational:
        least = [min(f.leg_ids(), default="~") for f in faces]
        boundary = rg.face_boundary_order(faces[least[0] > least[1] if pick is None else pick])
        return _flow_square(tuple(sign * c for c in momenta[lid]) for lid, sign in boundary)

    return _face_sum(rg, 2, "nc_v_real", ext, square)


def _face_sum(rg: RibbonGraph, n_faces: int, name: str, ext: Mapping | None, weight: Callable | None) -> ThetaTracked:
    """The sum over connected spanning H with `n_faces` faces of (theta/2)^(b
    + n_faces - 1 - |E - H|) alpha_(E - H), times any weight(faces of H,
    momenta).  Here b = F - 1 + 2g of the whole graph, which V - E + F = 2 -
    2g makes E - V + 1, so the power is |H| + n_faces - V.  The legs of the
    first face fix the weight, so it is memoised by the leg half-edges that
    the counting trace of `_connected_with_faces` gives, and the faces are
    traced (`RibbonGraph._mask_faces`, one recording `HalfEdges.trace`) and
    weighed only for the first H of each key."""
    if not rg.graph.is_connected():
        raise ValueError(f"{name} requires a connected ribbon graph")
    momenta = None if weight is None else validate_assignment(rg.graph, ext)
    shift = n_faces - len(rg.vertices)
    _, full, table = _alpha_keys(rg.graph)
    weights: dict[tuple[int, ...], Rational] = {}
    terms = []
    for mask, legs in rg._connected_with_faces(n_faces, weight is not None):
        w = 1
        if weight is not None:
            w = weights.get(legs)
            if w is None:
                w = weights[legs] = weight(rg._mask_faces(mask), momenta)
        power = shift + mask.bit_count()
        if power < 0:
            raise AssertionError(f"negative theta power {power} for {sorted(mask_edges(rg.graph.edge_ids(), mask))}")
        terms.append((power, full - table(mask), w))
    return ThetaTracked.from_terms(terms)


def phase_psi(
    boundary: list[tuple[str, int]],
    momenta: Mapping[str, Momentum],
    start: int = 0,
) -> Rational:
    """Wedge phase of the momenta entering a face, in boundary order.

    `start` rotates the cyclic boundary list; with conserved momenta the
    result is rotation-invariant.
    """
    ordered = boundary[start:] + boundary[:start]
    signed = [tuple(sign * c for c in momenta[lid]) for lid, sign in ordered]
    return sum(wedge(p, q) for i, p in enumerate(signed) for q in signed[i + 1 :])  # type: ignore[arg-type]


def nc_v_imag(rg: RibbonGraph, ext: Mapping[str, Momentum]) -> ThetaTracked:
    """Imaginary part of V*: quasi-trees weighted by the face wedge phase."""
    return _face_sum(rg, 1, "nc_v_imag", ext, lambda faces, p: phase_psi(rg.face_boundary_order(faces[0]), p))


def nc_u_from_multivariate_br(rg: RibbonGraph) -> ThetaTracked:
    """U* from the multivariate Bollobas-Riordan polynomial.

    Take the single-face coefficient (z^1), evaluate it at x := 1 (which
    leaves z alone, so the order of the two steps does not change the value,
    and the substitution meets only the one-face terms), replace each subset
    monomial prod beta_e by (theta/2)^|H| times the complement alpha
    product, and normalize by (theta/2)^(1-|V|).  The normalization exponent
    1-|V| equals b - |E| for connected graphs by the Euler relation.  The
    subset H is read off the beta fields of each packed key.
    """
    if not rg.graph.is_connected():
        raise ValueError("nc_u_from_multivariate_br requires a connected ribbon graph")
    z3 = multivariate_br(rg)
    one_face = z3.coefficient_of("z", 1).substitute({"x": 1})
    shift = 1 - len(rg.vertices)
    alphas, full, _ = _alpha_keys(rg.graph)
    read = exponent_reader([f"b.{e}" for e in rg.graph.edge_ids()])

    def term(mono: Key, coeff: Rational) -> tuple[int, Key, Rational]:
        exps = read(mono)
        return sum(exps) + shift, full - sum(compress(alphas, exps)), coeff

    return ThetaTracked.from_terms(term(mono, coeff) for mono, coeff in one_face._terms.items())
