"""Exact linear combinations, and sparse multivariate polynomials over the rationals.

`LinComb` is the one implementation of the algebra the package's values
live in: a finite sum of keys with nonzero coefficients, added termwise and
multiplied through a product of keys.  Its subclasses supply only the key
product and the rendering of a key:

  MultiPoly        monomials                      (this module)
  GraphSum         multisets of graph labels      (hopf)
  TensorSum        pairs of such multisets        (hopf)
  FormalAmplitude  products of Phi/T atoms        (formal)
  ThetaTracked     powers of theta/2              (parametric)

`LinComb.sum` adds any number of elements into one dict, so a sum built
term by term never copies its partial sums.  The sums over edge subsets,
spanning trees and quasi-trees go one step further and assemble at the term
level: each term's monomial is built once (by `edge_monomial`, or for the
multivariate subset sums from per-edge pairs made once per call) and stored
with its coefficient in one dict, and one MultiPoly is made at the end; no
term is ever a one-term polynomial multiplied into another.  Distinct edge
subsets give distinct per-edge runs, so such a sum never meets a monomial
twice.

A polynomial is a mapping from monomials to nonzero exact rational
coefficients, stored int-first: every integer-valued coefficient is an
`int` (a Fraction with denominator 1 is normalised to its numerator) and a
`Fraction` appears only where a true denominator does.  Almost every
coefficient in the package is an integer, and int arithmetic is several
times cheaper than Fraction arithmetic.

A monomial is stored as a tuple of (variable, exponent) pairs, sorted by
variable name, with zero exponents omitted.  The empty tuple is the constant
monomial.  This representation is canonical: two MultiPoly objects are equal
iff they represent the same mathematical polynomial.

Variables are plain strings.  By convention the rest of the package uses
"x", "y", "z", "q", "w", "k", "theta" for global polynomial variables and
"a.<edge>" / "b.<edge>" for the per-edge alpha/beta variables.  In name
order "a.*" < "b.*" < "q" < "theta" < "x" < "z", which is what lets a term
append its global powers after its sorted per-edge run.

`substitute` folds a constant value into the coefficient (c**e, and 0 drops
the term) and multiplies only by nonconstant values.

No floating point is used anywhere: the MultiPoly constructor rejects float,
bool and str coefficients, and coefficients are divided only through
`exact_div`, which returns an int when the quotient is integral and a
Fraction otherwise (`/` on two ints would give a float).  Polynomial
division exists only as exact monomial division (`divexact_monomial`) and
`linalg.divexact`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

Monomial = tuple[tuple[str, int], ...]

Rational = int | Fraction


def signed_sum_text(pairs: Iterable[tuple[str, object]]) -> str:
    """Render (body, coeff) pairs as a signed sum, e.g. "-x + 2*y - 3".

    An empty body stands for the constant: its magnitude prints alone.  A
    unit magnitude prints the body alone.  The empty sum is "0".
    """
    pieces: list[str] = []
    for body, c in pairs:
        mag = abs(c)
        text = str(mag) if not body else body if mag == 1 else f"{mag}*{body}"
        if pieces:
            pieces.append((" + " if c > 0 else " - ") + text)
        else:
            pieces.append(text if c > 0 else "-" + text)
    return "".join(pieces) or "0"


class LinComb:
    """Immutable finite combination of keys with nonzero coefficients.

    Subclasses set `_key_mul` (the product of two keys), `_scalars` (the
    types `*` scales every coefficient by), `_sort_key` (the render order
    of keys; None is the keys' own order) and `_key_text` (the text of one
    key, empty for the unit key).
    """

    __slots__ = ("terms", "_hash")

    _scalars: tuple[type, ...] = (int,)
    _sort_key = None

    def __init__(self, terms: Mapping | None = None):
        clean = {k: c for k, c in terms.items() if c} if terms else {}
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def sum(cls, items: Iterable):
        """The sum of `items`, all of this type, accumulated in one dict."""
        acc: dict = {}
        get = acc.get
        for item in items:
            for k, c in item.terms.items():
                c0 = get(k)
                acc[k] = c if c0 is None else c0 + c
        return cls(acc)

    @classmethod
    def _coerce(cls, x):
        """`x` as an element of this type, or None if it is not one."""
        return x if type(x) is cls else None

    # -- ring structure ------------------------------------------------

    def __add__(self, other):
        if type(other) is not self.__class__:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        out = dict(self.terms)
        get = out.get
        for k, c in other.terms.items():
            c0 = get(k)
            out[k] = c if c0 is None else c0 + c
        return self.__class__(out)

    __radd__ = __add__

    def __neg__(self):
        return self.__class__({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        cls = self.__class__
        if type(other) is cls:
            key_mul = cls._key_mul
            out: dict = {}
            get = out.get
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    k = key_mul(k1, k2)
                    c0 = get(k)
                    out[k] = c1 * c2 if c0 is None else c0 + c1 * c2
            return cls(out)
        if isinstance(other, cls._scalars):
            return cls({k: c * other for k, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self.terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- canonical output ----------------------------------------------

    def render(self) -> str:
        """Deterministic signed-sum rendering, keys in `_sort_key` order."""
        key_text = self._key_text
        terms = self.terms
        return signed_sum_text((key_text(k), terms[k]) for k in sorted(terms, key=self._sort_key))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.render()})"


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    # Stored exponents are positive, so no sum of two of them vanishes.
    if not m1:
        return m2
    if not m2:
        return m1
    exps: dict[str, int] = dict(m1)
    get = exps.get
    for v, e in m2:
        exps[v] = get(v, 0) + e
    return tuple(sorted(exps.items()))


def edge_monomial(prefix: str, edge_ids: Iterable[str], *tail: tuple[str, int]) -> Monomial:
    """The monomial of one variable prefix + e per edge id e, then `tail`.

    A common prefix keeps the order of the ids, so the sorted ids give the
    sorted per-edge run.  `tail` holds (global variable, exponent) pairs in
    name order, and a pair with exponent 0 is left out.  Every per-edge name
    ("a.<edge>", "b.<edge>") sorts before every global one ("q" < "theta" <
    "x" < "z"), so the result is a stored monomial as it stands.
    """
    mono = [(prefix + e, 1) for e in sorted(edge_ids)]
    mono += [pair for pair in tail if pair[1]]
    return tuple(mono)


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _exact(c) -> Rational:
    """The coefficient coercion of MultiPoly: int or Fraction, nothing else.

    Integer values come back as int; a Fraction only keeps a denominator > 1.
    """
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, bool) or not isinstance(c, int):
        raise TypeError(f"polynomial coefficients must be int or Fraction, not {type(c).__name__}")
    return int(c)


def exact_div(a: Rational, b: Rational) -> Rational:
    """The exact quotient a / b of two coefficients: an int when b divides a."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _exact(Fraction(a) / b)


class MultiPoly(LinComb):
    """Immutable exact multivariate polynomial with rational coefficients."""

    __slots__ = ()

    _scalars = (int, Fraction)
    _key_mul = staticmethod(_mono_mul)

    @staticmethod
    def _sort_key(mono: Monomial):
        """Descending total degree, then the (variable, exponent) sequence."""
        return (-_mono_degree(mono), mono)

    @staticmethod
    def _key_text(mono: Monomial) -> str:
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)

    def __init__(self, terms: Mapping[Monomial, Rational] | None = None):
        clean: dict[Monomial, Rational] = {}
        if terms:
            for mono, c in terms.items():
                if type(c) is not int:
                    c = _exact(c)
                if c:
                    clean[mono] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _coerce(cls, x):
        if type(x) is MultiPoly:
            return x
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            return MultiPoly({(): x})
        return None

    # The shared operations bound in this class's own namespace, where
    # perfbench/tracing.py instruments the polynomial layer alone.
    __add__ = __radd__ = LinComb.__add__
    __mul__ = __rmul__ = LinComb.__mul__

    # Examples: "0", "x^2 + x + y", "x*y - x - y + 1", "1/4*theta^2"; the
    # golden-file contract of the CLI.
    canonical_string = LinComb.render

    # -- constructors -------------------------------------------------

    @staticmethod
    def one() -> MultiPoly:
        return MultiPoly({(): 1})

    @staticmethod
    def const(c: Rational) -> MultiPoly:
        return MultiPoly({(): c})

    @staticmethod
    def var(name: str, power: int = 1) -> MultiPoly:
        if not name:
            raise ValueError("variable name must be nonempty")
        if power < 0:
            raise ValueError("negative exponent not representable")
        if power == 0:
            return MultiPoly.one()
        return MultiPoly({((name, power),): 1})

    @staticmethod
    def from_exponents(exps: Mapping[str, int], coeff: Rational = 1) -> MultiPoly:
        if any(e < 0 for e in exps.values()):
            raise ValueError("negative exponent not representable")
        mono = tuple(sorted((v, e) for v, e in exps.items() if e > 0))
        return MultiPoly({mono: coeff})

    def __pow__(self, n: int) -> MultiPoly:
        return Powers(self)[n]

    # -- queries --------------------------------------------------------

    def variables(self) -> set[str]:
        return {v for mono in self.terms for v, _ in mono}

    def constant_term(self) -> Rational:
        return self.terms.get((), 0)

    # -- the operations the rest of the package is built on -------------

    def substitute(self, bindings: Mapping[str, MultiPoly | Rational]) -> MultiPoly:
        """Substitute polynomials for variables (ring homomorphism).

        Variables absent from `bindings` are left alone.  A constant value
        (a number or a constant polynomial) folds into each term's
        coefficient as c**e, and 0 drops the term; only the remaining,
        nonconstant values are multiplied in, through their `Powers`.
        """
        consts: dict[str, Rational] = {}
        subs: dict[str, Powers] = {}
        for v, value in bindings.items():
            p = _promote(value)
            if p.terms.keys() <= {()}:
                consts[v] = p.constant_term()
            else:
                subs[v] = Powers(p)
        acc: dict[Monomial, Rational] = {}
        get = acc.get
        for mono, coeff in self.terms.items():
            rest = []
            factors = []
            for v, e in mono:
                if v in consts:
                    coeff *= consts[v] ** e
                    if not coeff:
                        break
                elif v in subs:
                    factors.append(subs[v][e])
                else:
                    rest.append((v, e))
            else:
                if factors:
                    term = MultiPoly({tuple(rest): coeff})
                    for f in factors:
                        term = term * f
                    image = term.terms.items()
                else:
                    image = ((tuple(rest), coeff),)
                for m, c in image:
                    c0 = get(m)
                    acc[m] = c if c0 is None else c0 + c
        return MultiPoly(acc)

    def coefficient_of(self, var: str, power: int) -> MultiPoly:
        """Coefficient polynomial of var**power (var removed from the result)."""
        out: dict[Monomial, Rational] = {}
        for mono, coeff in self.terms.items():
            e = next((e_v for v, e_v in mono if v == var), 0)
            if e == power:
                rest = tuple(pair for pair in mono if pair[0] != var) if e else mono
                out[rest] = out.get(rest, 0) + coeff
        return MultiPoly(out)

    def lowest_homogeneous_part(self, vars: Iterable[str]) -> MultiPoly:
        """Sum of terms of minimal total degree in the given variables."""
        if not self.terms:
            raise ValueError("lowest_homogeneous_part of the zero polynomial")
        vset = set(vars)
        deg = {m: sum(e for v, e in m if v in vset) for m in self.terms}
        low = min(deg.values())
        return MultiPoly({m: c for m, c in self.terms.items() if deg[m] == low})

    def eval_rational(self, bindings: Mapping[str, Rational]) -> Fraction:
        """Evaluate at an all-variables-bound rational point."""
        missing = self.variables() - set(bindings)
        if missing:
            raise ValueError(f"unbound variables in evaluation: {sorted(missing)}")
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            val = coeff
            for v, e in mono:
                val *= Fraction(bindings[v]) ** e
            total += val
        return total

    def divexact_monomial(self, exps: Mapping[str, int]) -> MultiPoly:
        """Divide by a monomial, erroring if any term is not divisible."""
        div = {v: e for v, e in exps.items() if e != 0}
        out: dict[Monomial, Rational] = {}
        for mono, coeff in self.terms.items():
            cur = dict(mono)
            for v, e in div.items():
                have = cur.get(v, 0)
                if have < e:
                    raise ValueError(f"monomial division by {v}^{e} is inexact")
                if have == e:
                    del cur[v]
                else:
                    cur[v] = have - e
            out[tuple(sorted(cur.items()))] = coeff
        return MultiPoly(out)

    def sorted_terms(self) -> list[tuple[Monomial, Rational]]:
        """Terms in canonical_string order."""
        return [(m, self.terms[m]) for m in sorted(self.terms, key=self._sort_key)]


class Powers(dict):
    """The powers of one polynomial by exponent, each computed once on demand.

    `table[n]` is base**n.  The table always holds the exponents 0 .. len - 1,
    and a missing one is reached by one multiplication per step up.
    """

    __slots__ = ("base",)

    def __init__(self, base: MultiPoly):
        super().__init__({0: MultiPoly.one()})
        self.base = base

    def __missing__(self, n: int) -> MultiPoly:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        for k in range(len(self), n + 1):
            self[k] = self[k - 1] * self.base
        return self[n]


def _promote(p: MultiPoly | Rational) -> MultiPoly:
    q = MultiPoly._coerce(p)
    if q is None:
        raise TypeError(f"cannot coerce {type(p).__name__} to MultiPoly")
    return q
