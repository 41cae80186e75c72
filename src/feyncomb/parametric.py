"""Symanzik polynomials and their Moyal-space counterparts.

The commutative polynomials U and V live in the per-edge variables
"a.<edge>"; momenta are exact rational Euclidean 4-vectors, so V carries
rational coefficients (squared momentum sums), never symbols.

The noncommutative polynomials U*, Re V*, Im V* carry powers of theta/2.
They are assembled in ThetaTracked form: a finite sum of (theta/2)^n times
a theta-free polynomial, where n may go negative during assembly (the
2*alpha/theta edge factors) but must be nonnegative by the time a true
polynomial is rendered.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from . import linalg
from .graphs import Graph, contract_class, edge_classes, is_bridge_class, pick_class
from .poly import LinComb, Monomial, MultiPoly, Rational, _exact, edge_monomial
from .polynomials import multivariate_br, multivariate_tutte
from .ribbon import RibbonGraph

THETA = "theta"

Momentum = tuple[Rational, Rational, Rational, Rational]


def alpha_var(edge_id: str) -> MultiPoly:
    return MultiPoly.var(f"a.{edge_id}")


def alpha_product(edge_ids: Iterable[str]) -> MultiPoly:
    return MultiPoly({edge_monomial("a.", set(edge_ids)): 1})


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
    net = [0] * 4
    for l in g.legs:
        for i in range(4):
            net[i] += l.sign * out[l.id][i]
    if any(c != 0 for c in net):
        raise ValueError(f"momentum conservation violated: net = {net}")
    return out


def zero_assignment(g: Graph) -> dict[str, Momentum]:
    return {l.id: ZERO_MOMENTUM for l in g.legs}


def load_momenta_json(g: Graph, data: Mapping) -> dict[str, Momentum]:
    """Parse the momenta JSON format {"f1": {"p": [1,0,0,0], "dir": "in"}}.

    Components may be ints or "n/d" strings; floats are rejected.
    """
    if not isinstance(data, dict):
        raise ValueError("momenta must be a JSON object")
    ext: dict[str, Momentum] = {}
    for lid, entry in data.items():
        if not isinstance(entry, dict) or not isinstance(entry.get("p"), list):
            raise ValueError(f"momenta entry {lid!r} needs a list field 'p'")
        comps = []
        for c in entry["p"]:
            if not isinstance(c, (int, str)) or isinstance(c, bool):
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
    all_ids = g.all_edges()
    return MultiPoly({edge_monomial("a.", all_ids - tree): 1 for tree in g.spanning_trees()})


def symanzik_v(
    g: Graph,
    ext: Mapping[str, Momentum],
    component: int | str = "auto",
) -> MultiPoly:
    """Second Symanzik polynomial over spanning two-trees.

    Each two-tree contributes the complement alpha product times the squared
    total momentum flowing into one of its two components; by conservation
    the choice of component ("auto", 0, or 1) does not matter.
    """
    momenta = validate_assignment(g, ext)
    signed = {l.id: tuple(l.sign * c for c in momenta[l.id]) for l in g.legs}
    pick = 0 if component == "auto" else int(component)
    all_ids = g.all_edges()

    def coeff(legs: tuple[str, ...]) -> Rational:
        flow = [0] * 4
        for lid in legs:
            p = signed[lid]
            for i in range(4):
                flow[i] += p[i]
        return dot(flow, flow)  # type: ignore[arg-type]

    return MultiPoly(
        {edge_monomial("a.", all_ids - tt.edges): coeff(tt.legs[pick]) for tt in g.spanning_two_trees()}
    )


def symanzik_u_via_det(g: Graph, drop_vertex: str | None = None) -> MultiPoly:
    """U via the determinant of the graph matrix (alpha diagonal vs incidence).

    Self-loops are peeled off as overall alpha factors (their incidence rows
    vanish), one vertex row/column pair is dropped to remove the zero mode,
    and the determinant is corrected by the sign (-1)^(|V|-1).  The result
    is independent of which vertex is dropped.
    """
    if not g.is_connected():
        raise ValueError("symanzik_u_via_det requires a connected graph")
    verts = list(g.vertices)
    drop = max(verts) if drop_vertex is None else drop_vertex
    if drop not in verts:
        raise ValueError(f"unknown vertex {drop!r}")
    cols = [v for v in verts if v != drop]
    nonloops = [e for e in g.edges if not e.is_loop]
    peel = alpha_product(e.id for e in g.edges if e.is_loop)
    ne, nv = len(nonloops), len(cols)
    size = ne + nv
    zero = MultiPoly.zero()
    q = [[zero] * size for _ in range(size)]
    for i, e in enumerate(nonloops):
        q[i][i] = alpha_var(e.id)
        for j, v in enumerate(cols):
            eps = (1 if e.tail == v else 0) - (1 if e.head == v else 0)
            if eps:
                q[i][ne + j] = MultiPoly.const(-eps)
                q[ne + j][i] = MultiPoly.const(-eps)
    d = linalg.det(q)
    sign = -1 if (len(verts) - 1) % 2 else 1
    return MultiPoly.const(sign) * peel * d


def symanzik_u_delcon(g: Graph) -> MultiPoly:
    """U via deletion/contraction over whole parallel classes.

    Self-loops are folded into the factor prod alpha_e first.  A class P of
    m edges then gives U = prod_P alpha * U(G-P) + e_(m-1)(alpha_P) * U(G/P):
    a spanning tree avoids P or uses exactly one of its edges.  G-P is
    disconnected, with U = 0, when P is a bridge class, so that branch is
    skipped.  Terminal form: 1 on a single vertex, and 0 otherwise.
    """
    if not g.is_connected():
        raise ValueError("symanzik_u_delcon requires a connected graph")
    loops, classes = edge_classes(g)
    state = {}
    for k, ids in classes.items():
        esym = MultiPoly.sum(alpha_product(ids[:i] + ids[i + 1 :]) for i in range(len(ids)))
        state[k] = (alpha_product(ids), esym)
    return alpha_product(loops) * _u_classes(len(g.vertices), state)


def _u_classes(n: int, classes: dict[tuple[int, int], tuple[MultiPoly, MultiPoly]]) -> MultiPoly:
    """U of the loopless state `classes` (class -> (prod alpha, e_(m-1)(alpha))) on n positions."""
    if not classes:
        return MultiPoly.one() if n == 1 else MultiPoly.zero()
    key = pick_class(classes)
    prod, esym = classes[key]
    contracted = esym * _u_classes(n - 1, contract_class(n, classes, key, _merge_u))
    if is_bridge_class(n, classes, key):
        return contracted
    rest = dict(classes)
    del rest[key]
    return prod * _u_classes(n, rest) + contracted


def _merge_u(p: tuple[MultiPoly, MultiPoly], q: tuple[MultiPoly, MultiPoly]) -> tuple[MultiPoly, MultiPoly]:
    """The payload of the union of two parallel classes: prod alpha and e_(m-1)(alpha)."""
    return p[0] * q[0], p[1] * q[0] + p[0] * q[1]


def u_from_multivariate_tutte(g: Graph) -> MultiPoly:
    """U recovered from the q -> 0 limit of the multivariate Tutte polynomial.

    Take the q^1 coefficient (maximally spanning subsets of a connected
    graph), keep the lowest homogeneous part in the beta variables (the
    spanning-tree polynomial), then turn each tree monomial into its
    complement alpha monomial.  No rational functions appear.
    """
    if not g.is_connected():
        raise ValueError("u_from_multivariate_tutte requires a connected graph")
    z = multivariate_tutte(g, method="subset")
    spanning = z.coefficient_of("q", 1)
    beta_vars = [f"b.{e.id}" for e in g.edges]
    forest = spanning.lowest_homogeneous_part(beta_vars) if not spanning.is_zero() else spanning
    all_ids = g.all_edges()
    return MultiPoly(
        {edge_monomial("a.", all_ids - {v[2:] for v, _ in mono}): c for mono, c in forest.terms.items()}
    )


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

    @property
    def parts(self) -> dict[int, MultiPoly]:
        return self.terms

    @staticmethod
    def from_poly(p: MultiPoly, power: int = 0) -> ThetaTracked:
        return ThetaTracked({power: p})

    @staticmethod
    def from_terms(terms: Iterable[tuple[int, Monomial, Rational]]) -> ThetaTracked:
        """The sum of coeff * (theta/2)^power * monomial over (power, monomial, coeff)
        triples, accumulated in one dict per power."""
        parts: dict[int, dict[Monomial, Rational]] = {}
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


def _b_exponent(rg: RibbonGraph) -> int:
    """b = F - 1 + 2g of the full ribbon graph."""
    return rg.face_count() - 1 + 2 * rg.genus()


def nc_u(rg: RibbonGraph) -> ThetaTracked:
    """Moyal U*: (theta/2)^b sum over quasi-trees of prod 2 alpha_e / theta."""
    if not rg.graph.is_connected():
        raise ValueError("nc_u requires a connected ribbon graph")
    b = _b_exponent(rg)
    n_edges = len(rg.edges)
    all_ids = rg.all_edges()

    def term(qt: frozenset[str]) -> tuple[int, Monomial, Rational]:
        power = b - (n_edges - len(qt))
        if power < 0:
            raise AssertionError(f"negative theta power {power} for quasi-tree {sorted(qt)}")
        return power, edge_monomial("a.", all_ids - qt), 1

    return ThetaTracked.from_terms(term(qt) for qt in rg.quasi_trees())


def nc_u_delcon(rg: RibbonGraph) -> ThetaTracked:
    """U* via deletion/contraction on semi-regular edges.

    One-vertex terminal forms are evaluated by the quasi-tree sum directly;
    disconnected intermediates contribute 0.
    """
    if not rg.graph.is_connected():
        raise ValueError("nc_u_delcon requires a connected ribbon graph")
    return _ncu_rec(rg)


def _ncu_rec(rg: RibbonGraph) -> ThetaTracked:
    if not rg.graph.is_connected():
        return ThetaTracked.zero()
    nonloops = sorted(e.id for e in rg.edges if not e.is_loop)
    if not nonloops:
        return nc_u(rg)
    e = nonloops[0]
    left = _ncu_rec(rg.ribbon_delete(e)) * alpha_var(e)
    return left + _ncu_rec(rg.ribbon_contract(e))


def commutative_limit(rg: RibbonGraph) -> MultiPoly:
    """theta -> 0 of U*, checked against the commutative U on the way out."""
    limit = nc_u(rg).to_poly().substitute({THETA: MultiPoly.zero()})
    expected = symanzik_u(rg.underlying())
    if limit != expected:
        raise AssertionError("theta -> 0 limit of U* disagrees with the commutative U")
    return limit


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
    if not rg.graph.is_connected():
        raise ValueError("nc_v_real requires a connected ribbon graph")
    momenta = validate_assignment(rg.graph, ext)
    b = _b_exponent(rg)
    n_edges = len(rg.edges)
    all_ids = rg.all_edges()

    def term(tq) -> tuple[int, Monomial, Rational]:
        if face_choice == "auto":
            keys = [min(f.leg_ids()) if f.leg_ids() else "~" for f in tq.faces]
            face = tq.faces[0] if keys[0] <= keys[1] else tq.faces[1]
        else:
            face = tq.faces[int(face_choice)]
        flow = [0] * 4
        for lid, sign in rg.face_boundary_order(face):
            for i in range(4):
                flow[i] += sign * momenta[lid][i]
        power = (b + 1) - (n_edges - len(tq.edges))
        return power, edge_monomial("a.", all_ids - tq.edges), dot(flow, flow)  # type: ignore[arg-type]

    return ThetaTracked.from_terms(term(tq) for tq in rg.two_quasi_trees())


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
    total = 0
    for i in range(len(ordered)):
        li, si = ordered[i]
        for j in range(i + 1, len(ordered)):
            lj, sj = ordered[j]
            total += wedge(
                tuple(si * c for c in momenta[li]),  # type: ignore[arg-type]
                tuple(sj * c for c in momenta[lj]),  # type: ignore[arg-type]
            )
    return total


def nc_v_imag(rg: RibbonGraph, ext: Mapping[str, Momentum]) -> ThetaTracked:
    """Imaginary part of V*: quasi-trees weighted by the face wedge phase."""
    if not rg.graph.is_connected():
        raise ValueError("nc_v_imag requires a connected ribbon graph")
    momenta = validate_assignment(rg.graph, ext)
    b = _b_exponent(rg)
    n_edges = len(rg.edges)
    all_ids = rg.all_edges()

    def term(qt: frozenset[str]) -> tuple[int, Monomial, Rational]:
        psi = phase_psi(rg.face_boundary_order(rg.faces(qt)[0]), momenta)
        return b - (n_edges - len(qt)), edge_monomial("a.", all_ids - qt), psi

    return ThetaTracked.from_terms(term(qt) for qt in rg.quasi_trees())


def nc_u_from_multivariate_br(rg: RibbonGraph) -> ThetaTracked:
    """U* from the multivariate Bollobas-Riordan polynomial.

    Evaluate at x := 1, take the single-face coefficient (z^1), replace each
    subset monomial prod beta_e by (theta/2)^|H| times the complement alpha
    product, and normalize by (theta/2)^(1-|V|).  The normalization exponent
    1-|V| equals b - |E| for connected graphs by the Euler relation.
    """
    if not rg.graph.is_connected():
        raise ValueError("nc_u_from_multivariate_br requires a connected ribbon graph")
    z3 = multivariate_br(rg)
    one_face = z3.substitute({"x": 1}).coefficient_of("z", 1)
    shift = 1 - len(rg.vertices)
    all_ids = rg.all_edges()

    def term(mono: Monomial, coeff: Rational) -> tuple[int, Monomial, Rational]:
        subset_ids = {v[2:] for v, _ in mono}
        return len(subset_ids) + shift, edge_monomial("a.", all_ids - subset_ids), coeff

    return ThetaTracked.from_terms(term(mono, coeff) for mono, coeff in one_face.terms.items())
