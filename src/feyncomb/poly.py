"""Exact linear combinations, and sparse multivariate polynomials over the rationals.

`LinComb` is the one implementation of the algebra the package's values
live in: a finite sum of keys with nonzero coefficients, added termwise and
multiplied through a product of keys.  Its subclasses supply only the key
product and the rendering of a key:

  MultiPoly        packed monomials               (this module)
  GraphSum         multisets of graph labels      (hopf)
  TensorSum        pairs of such multisets        (hopf)
  FormalAmplitude  sorted tuples of Phi/T texts   (formal)
  ThetaTracked     powers of theta/2              (parametric)

`LinComb.sum` adds any number of elements into one dict, so a sum built
term by term never copies its partial sums.  The sums over edge subsets,
spanning trees and quasi-trees go one step further and assemble at the term
level: each term's monomial is built once, from packed keys of the edge
variables made once per call, and stored with its coefficient in one dict,
and one MultiPoly is made at the end; no term is ever a one-term polynomial
multiplied into another.

A polynomial is a mapping from monomials to nonzero exact rational
coefficients, stored int-first: every integer-valued coefficient is an
`int` (a Fraction with denominator 1 is normalised to its numerator) and a
`Fraction` appears only where a true denominator does.  Almost every
coefficient in the package is an integer, and int arithmetic is several
times cheaper than Fraction arithmetic.

Stored form.  A monomial is stored as one nonnegative int, its packed key
(Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007).  The key is a row of FIELD-bit
fields: field 0 holds the total degree, and field i + 1 the exponent of the
i-th variable of a process-wide, append-only interning table, in the order
the names were first seen.  The constant monomial is 0, the product of two
monomials is the sum of their keys, and the integer order of keys is a
monomial order (lexicographic, the variable interned last first).  The top
bit of each field is a guard bit: no stored exponent reaches it, so one
subtraction and one mask tell whether a monomial divides another.

Bound.  Every polynomial carries an upper bound on the total degree of its
terms: a sum takes the larger bound and a product the sum of the two.  A
product whose bound would pass MAX_DEGREE (2**15 - 1) raises
`ExponentOverflow`, a ValueError, before any key is added, so no field ever
carries into the next and no term is ever wrong; there is no per-term test.
The routes that assemble keys themselves, as sums of per-edge keys or of
the keys of an exponent table, test a bound on the total degree of their
terms once, before the first sum: `edge_keys` the number of edges, a route
that adds further variables the largest degree those can bring, and a table
expansion its largest exponent sum.

External form.  Names are the interface: `MultiPoly(...)` accepts monomials
as tuples of (variable, exponent) pairs, and `.terms`, `sorted_terms`,
`render`/`canonical_string`, `coefficient_of`, `substitute` and
`eval_rational` speak variable names.  `.terms` is decoded from the packed
keys on first use and kept: each monomial a tuple of (variable, exponent)
pairs sorted by name, with zero exponents omitted, the empty tuple being the
constant.  The decode reads each key once over the sorted names, or, when
there are more terms than a multiaffine polynomial's two halves of the
names can have, splits the names into those halves, each with its own
field mask; a key masked to a half is read once per call and its
half-tuple kept, so a monomial is the concatenation of its two half-tuples.
`sorted_terms` orders the terms by descending total degree, read off field
0 of each key, then by monomial; `canonical_string` is written from that
list, and so is the CLI's `--json` block.  No output depends on the
interning order or on hash order.

Variables are plain strings.  By convention the rest of the package uses
"x", "y", "z", "q", "w", "k", "theta" for global polynomial variables and
"a.<edge>" / "b.<edge>" for the per-edge alpha/beta variables.

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

import functools
import operator
import struct
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

Monomial = tuple[tuple[str, int], ...]  # the external form
Key = int  # the stored form: a packed monomial

Rational = int | Fraction

FIELD = 16
FIELD_MASK = (1 << FIELD) - 1
GUARD = 1 << FIELD - 1  # the top bit of a field, above every stored exponent
MAX_DEGREE = GUARD - 1
CHUNK = 8  # the keys per table of `mask_keys` past 24 keys


class ExponentOverflow(ValueError):
    """A monomial of total degree above MAX_DEGREE, which no packed key holds."""


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


def _accumulate(acc: dict, terms: Mapping) -> dict:
    """Add `terms` into `acc` in place, and return `acc`; zero sums stay."""
    get = acc.get
    for k, c in terms.items():
        c0 = get(k)
        acc[k] = c if c0 is None else c0 + c
    return acc


def _products(acc: dict, t1: Mapping, t2: Mapping, key_mul: Callable) -> dict:
    """Add every product of a term of `t1` and a term of `t2` into `acc` in
    place, and return `acc`; zero sums stay."""
    get = acc.get
    for k1, c1 in t1.items():
        for k2, c2 in t2.items():
            k = key_mul(k1, k2)
            c0 = get(k)
            acc[k] = c1 * c2 if c0 is None else c0 + c1 * c2
    return acc


class LinComb:
    """Immutable finite combination of keys with nonzero coefficients.

    Subclasses set `_key_mul` (the product of two keys), `_scalars` (the
    types `*` scales every coefficient by) and `_key_text` (the text of one
    key, empty for the unit key).  The stored terms are `_terms`; `terms`
    is their external form, the same dict unless a subclass says otherwise.
    """

    __slots__ = ("_terms", "_hash")

    _scalars: tuple[type, ...] = (int,)

    def __init__(self, terms: Mapping | None = None):
        clean = {k: c for k, c in terms.items() if c} if terms else {}
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _of(cls, terms: dict):
        """The element on `terms`, which hold no zero coefficient: no filter."""
        x = object.__new__(cls)
        object.__setattr__(x, "_terms", terms)  # `_hash` is set on first use
        return x

    terms = property(operator.attrgetter("_terms"))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def sum(cls, items: Iterable):
        """The sum of `items`, all of this type, accumulated in one dict."""
        acc: dict = {}
        for item in items:
            _accumulate(acc, item._terms)
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
        return self.__class__(_accumulate(dict(self._terms), other._terms))

    __radd__ = __add__

    def __neg__(self):
        return self._of({k: -c for k, c in self._terms.items()})

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
            return cls(_products({}, self._terms, other._terms, cls._key_mul))
        if isinstance(other, cls._scalars):
            terms = {k: c * other for k, c in self._terms.items()}
            return cls._of(terms) if type(other) is int and other else cls(terms)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(frozenset(self._terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    # -- canonical output ----------------------------------------------

    def render(self) -> str:
        """Deterministic signed-sum rendering, keys in their own order."""
        key_text = self._key_text
        terms = self.terms
        return signed_sum_text((key_text(k), terms[k]) for k in sorted(terms))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.render()})"


# -- packed monomials ---------------------------------------------------------

_NAMES: list[str] = []  # field i + 1 of a key is the exponent of _NAMES[i]
_KEYS: dict[str, Key] = {}  # name -> the key of the name to the first power


def var_key(name: str) -> Key:
    """The packed key of the variable `name` to the first power.

    A name seen for the first time is interned: it takes the next field.
    """
    key = _KEYS.get(name)
    if key is None:
        _NAMES.append(name)
        key = _KEYS[name] = 1 << FIELD * len(_NAMES) | 1
    return key


def _field_shift(key: Key) -> int:
    """The bit position of the field of a variable, from its `var_key`."""
    return key.bit_length() - 1


def _check_degree(degree: int) -> int:
    if degree > MAX_DEGREE:
        raise ExponentOverflow(f"total degree {degree} exceeds {MAX_DEGREE}, the largest a packed monomial holds")
    return degree


def monomial_key(pairs: Iterable[tuple[str, int]]) -> Key:
    """The packed key of a monomial given as (variable, exponent) pairs."""
    pairs = list(pairs)
    for v, e in pairs:
        if type(e) is not int or e < 0:
            raise ValueError(f"exponent {e!r} of {v!r} is not a nonnegative int")
    _check_degree(sum(e for _, e in pairs))
    return sum(e * var_key(v) for v, e in pairs if e)


def edge_monomial(prefix: str, edge_ids: Iterable[str], *tail: tuple[str, int]) -> Key:
    """The packed key of one variable prefix + e per edge id e, times the
    (global variable, exponent) pairs of `tail`."""
    ids = set(edge_ids)
    rest = monomial_key(tail)
    _check_degree(len(ids) + (rest & FIELD_MASK))
    return sum(edge_keys(prefix, ids).values()) + rest


def edge_keys(prefix: str, edge_ids: Iterable[str]) -> dict[str, Key]:
    """The packed key of the variable prefix + e of each edge id e.

    Made once per graph; the key of a term is then the sum of the keys of its
    edges.  New names are interned in sorted id order.  Their number is
    checked against MAX_DEGREE first, so the sum of any of these keys, each
    taken once, is a valid packed key: a route that builds a term from
    distinct edges alone needs no test of its own.
    """
    ids = sorted(set(edge_ids))
    _check_degree(len(ids))
    return {e: var_key(prefix + e) for e in ids}


def mask_keys(keys: Sequence[Key]) -> Callable[[int], Key]:
    """A function from a bitmask to the sum of `keys[i]` over its set bits i:
    the key of the product of the variables the mask selects.

    Up to 24 keys, two tables, of the sums over every subset of the low half
    of the bits and of the high half, are made once, so a mask costs two
    lookups and one addition.  Past 24 keys, the keys go in chunks of
    `CHUNK`, each with a table of its 2^CHUNK subset sums held short: a key
    k is split at `base`, the lowest bit of the chunk's variable fields,
    into k >> base and its bits below base (the degree field), and an entry
    holds the sum of the first, shifted left past the largest sum of the
    second, plus that sum.  A lookup shifts each part back into place.  So
    the tables take about 2^CHUNK short ints per CHUNK keys, however high
    the keys' fields lie, and a mask costs one lookup per chunk.
    """
    half = len(keys) // 2
    below = (1 << half) - 1
    if len(keys) <= 24:
        low, high = [0], [0]
        for k in keys[:half]:
            low += [t + k for t in low]
        for k in keys[half:]:
            high += [t + k for t in high]
        return lambda mask: low[mask & below] + high[mask >> half]
    chunks = []
    for at in range(0, len(keys), CHUNK):
        part = keys[at : at + CHUNK]
        fields = functools.reduce(operator.or_, (k >> FIELD for k in part))
        base = FIELD + max((fields & -fields).bit_length() - 1, 0)
        lows = (1 << base) - 1
        gap = sum(k & lows for k in part).bit_length()
        table = [0]
        for k in part:
            x = (k >> base << gap) + (k & lows)
            table += [t + x for t in table]
        chunks.append((table, gap, (1 << gap) - 1, base))
    width = (1 << CHUNK) - 1

    def lookup(mask: int) -> Key:
        key = 0
        for table, gap, lows, base in chunks:
            e = table[mask & width]
            mask >>= CHUNK
            key += (e >> gap << base) + (e & lows)
        return key

    return lookup


@functools.cache
def _ones(n_fields: int) -> int:
    """A 1 in each of the first `n_fields` fields."""
    return ((1 << FIELD * n_fields) - 1) // FIELD_MASK


def every_field(value: int) -> int:
    """`value` in every field in use, the degree field included.

    `a - b` of two stored keys has no bit of `every_field(GUARD)` set iff b
    divides a, and `every_field(bound) - a` none iff no field of a exceeds
    `bound`.
    """
    return value * _ones(len(_NAMES) + 1)


def _fields(key: Key) -> list[int]:
    """The indices into the interning table of the variables of `key`."""
    out = []
    key >>= FIELD
    i = 0
    while key:
        if key & FIELD_MASK:
            out.append(i)
        key >>= FIELD
        i += 1
    return out


def exponent_reader(names: Sequence[str]) -> Callable[[Key], tuple[int, ...]]:
    """A function from a packed key to its exponents of the distinct `names`,
    in the order of `names`.

    One struct unpack reads every field at once, with pad bytes over the
    fields of other variables.
    """
    if not names:
        return lambda key: ()
    shifts = [_field_shift(var_key(v)) for v in names]
    order = sorted(range(len(names)), key=shifts.__getitem__)
    fmt, at = ["<"], 0
    for i in order:
        field = shifts[i] // FIELD
        fmt.append(f"{2 * (field - at)}xH")
        at = field + 1
    unpack = struct.Struct("".join(fmt)).unpack
    n_bytes = 2 * at
    low = (1 << 8 * n_bytes) - 1
    if order == sorted(order):
        return lambda key: unpack((key & low).to_bytes(n_bytes, "little"))
    place = operator.itemgetter(*(order.index(j) for j in range(len(names))))
    return lambda key: place(unpack((key & low).to_bytes(n_bytes, "little")))


def _decode(terms: Mapping[Key, Rational]) -> dict[Monomial, Rational]:
    """`terms` with every packed key replaced by its name-tuple monomial.

    Each key is read field by field over the sorted names of the variables
    in use.  When there are more terms than a multiaffine polynomial's
    halves can have (2^h + 2^(n-h) over n names split into h and n - h),
    the names are split into those two halves instead, each with its own
    field mask: each distinct key masked to a half is read once to that
    half's pairs, and a monomial is the concatenation of its two halves.
    """
    fields = _fields(functools.reduce(operator.or_, terms, 0))
    fields.sort(key=_NAMES.__getitem__)
    named = [(_NAMES[i], FIELD * (i + 1)) for i in fields]
    half = len(named) // 2
    if len(terms) <= (1 << half) + (1 << len(named) - half):
        return {tuple((v, e) for v, shift in named if (e := k >> shift & FIELD_MASK)): c for k, c in terms.items()}
    pairs: dict[Key, Monomial] = {}
    masks = []
    for part in (named[:half], named[half:]):
        mask = sum(FIELD_MASK << shift for _, shift in part)
        masks.append(mask)
        for h in {k & mask for k in terms}:
            pairs[h] = tuple((v, e) for v, shift in part if (e := h >> shift & FIELD_MASK))
    low, high = masks
    return {pairs[k & low] + pairs[k & high]: c for k, c in terms.items()}


def terms_text(rows: Iterable[tuple[Monomial, Rational]]) -> str:
    """The signed-sum text of (monomial, coeff) rows, in their order, e.g.
    "x^2*y - x + 1"."""
    return signed_sum_text(("*".join(v if e == 1 else f"{v}^{e}" for v, e in mono), c) for mono, c in rows)


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


_setattr = object.__setattr__


def _new(terms: Mapping[Key, Rational], bound: int) -> MultiPoly:
    """The MultiPoly of packed `terms` whose total degrees are at most `bound`:
    zero coefficients dropped, integral Fractions made int."""
    clean: dict[Key, Rational] = {}
    for k, c in terms.items():
        if type(c) is not int:
            c = _exact(c)
        if c:
            clean[k] = c
    p = object.__new__(MultiPoly)
    _setattr(p, "_terms", clean)
    _setattr(p, "_bound", bound)
    return p


class MultiPoly(LinComb):
    """Immutable exact multivariate polynomial with rational coefficients."""

    __slots__ = ("_bound", "_names")  # `_names` and `_hash` are set on first use

    _scalars = (int, Fraction)
    _key_mul = staticmethod(operator.add)

    def __init__(self, terms: Mapping[Monomial | Key, Rational] | None = None):
        """From a mapping of monomials to coefficients.  Its keys are either
        all name-tuple monomials (like ones are added) or all packed keys."""
        clean: dict[Key, Rational] = {}
        if terms:
            for mono, c in terms.items():
                if type(c) is not int:
                    c = _exact(c)
                if type(mono) is int:
                    if c:
                        clean[mono] = c
                else:
                    key = monomial_key(mono)
                    c = _exact(clean.pop(key, 0) + c)
                    if c:
                        clean[key] = c
        _setattr(self, "_terms", clean)
        _setattr(self, "_bound", _check_degree(self.degree()))

    @property
    def terms(self) -> dict[Monomial, Rational]:
        """The terms by name-tuple monomial, decoded on first use and kept."""
        names = getattr(self, "_names", None)
        if names is None:
            names = _decode(self._terms)
            _setattr(self, "_names", names)
        return names

    @classmethod
    def _coerce(cls, x):
        if type(x) is MultiPoly:
            return x
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            return _new({0: x}, 0)
        return None

    @classmethod
    def sum(cls, items: Iterable[MultiPoly]) -> MultiPoly:
        """The sum of `items`, accumulated in one dict."""
        acc: dict[Key, Rational] = {}
        bound = 0
        for item in items:
            _accumulate(acc, item._terms)
            bound = max(bound, item._bound)
        return _new(acc, bound)

    # The ring operations, bound in this class's own namespace, where
    # perfbench/tracing.py instruments the polynomial layer alone.  They run
    # the accumulators of LinComb on packed keys.

    def __add__(self, other):
        if type(other) is not MultiPoly:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _new(_accumulate(dict(self._terms), other._terms), max(self._bound, other._bound))

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return _new({k: -c for k, c in self._terms.items()}, self._bound)

    def __mul__(self, other):
        if type(other) is MultiPoly:
            bound = _check_degree(self._bound + other._bound)
            return _new(_products({}, self._terms, other._terms, self._key_mul), bound)
        if isinstance(other, self._scalars):
            return _new({k: c * other for k, c in self._terms.items()}, self._bound)
        return NotImplemented

    __rmul__ = __mul__

    def canonical_string(self) -> str:
        """The text of `sorted_terms`: "0", "x^2 + x + y", "x*y - x - y + 1",
        "1/4*theta^2"; the golden-file contract of the CLI."""
        return terms_text(self.sorted_terms())

    render = canonical_string

    # -- constructors -------------------------------------------------

    @staticmethod
    def one() -> MultiPoly:
        return _new({0: 1}, 0)

    @staticmethod
    def const(c: Rational) -> MultiPoly:
        return _new({0: c}, 0)

    @staticmethod
    def var(name: str, power: int = 1) -> MultiPoly:
        if not name:
            raise ValueError("variable name must be nonempty")
        if power < 0:
            raise ValueError("negative exponent not representable")
        return _new({power * var_key(name): 1}, _check_degree(power))

    @staticmethod
    def from_exponents(exps: Mapping[str, int], coeff: Rational = 1) -> MultiPoly:
        if any(e < 0 for e in exps.values()):
            raise ValueError("negative exponent not representable")
        return MultiPoly({monomial_key(exps.items()): coeff})

    def __pow__(self, n: int) -> MultiPoly:
        return Powers(self)[n]

    # -- queries --------------------------------------------------------

    def variables(self) -> set[str]:
        return {_NAMES[i] for i in _fields(functools.reduce(operator.or_, self._terms, 0))}

    def constant_term(self) -> Rational:
        return self._terms.get(0, 0)

    def degree(self) -> int:
        """The largest total degree of a term; 0 for the zero polynomial."""
        return max(map(FIELD_MASK.__and__, self._terms), default=0)

    # -- the operations the rest of the package is built on -------------

    def substitute(self, bindings: Mapping[str, MultiPoly | Rational]) -> MultiPoly:
        """Substitute polynomials for variables (ring homomorphism).

        Variables absent from `bindings` are left alone.  A constant value
        (a number or a constant polynomial) folds into each term's
        coefficient as c**e, and 0 drops the term; only the remaining,
        nonconstant values are multiplied in, through their `Powers`.
        """
        used = functools.reduce(operator.or_, self._terms, 0)
        consts: list[tuple[int, Key, Rational]] = []  # (field shift, variable key, value)
        subs: list[tuple[int, Key, Powers]] = []
        for v, value in bindings.items():
            p = _promote(value)
            key = _KEYS.get(v)
            if key is None or not used >> _field_shift(key) & FIELD_MASK:
                continue
            if p._terms.keys() <= {0}:
                consts.append((_field_shift(key), key, p.constant_term()))
            else:
                subs.append((_field_shift(key), key, Powers(p)))
        if not consts and not subs:
            return self
        acc: dict[Key, Rational] = {}
        get = acc.get
        bound = self._bound
        for mono, coeff in self._terms.items():
            for shift, key, value in consts:
                e = mono >> shift & FIELD_MASK
                if e:
                    coeff *= value**e
                    if not coeff:
                        break
                    mono -= e * key
            else:
                factors = []
                for shift, key, powers in subs:
                    e = mono >> shift & FIELD_MASK
                    if e:
                        factors.append(powers[e])
                        mono -= e * key
                if factors:
                    term = _new({mono: coeff}, mono & FIELD_MASK)
                    for f in factors:
                        term = term * f
                    bound = max(bound, term._bound)
                    _accumulate(acc, term._terms)
                else:
                    c0 = get(mono)
                    acc[mono] = coeff if c0 is None else c0 + coeff
        return _new(acc, bound)

    def coefficient_of(self, var: str, power: int) -> MultiPoly:
        """Coefficient polynomial of var**power (var removed from the result)."""
        key = _KEYS.get(var)
        if key is None:
            return self if power == 0 else MultiPoly.zero()
        shift = _field_shift(key)
        drop = power * key
        # every kept term loses the same key, so no two of them meet
        return _new({m - drop: c for m, c in self._terms.items() if m >> shift & FIELD_MASK == power}, self._bound)

    def lowest_homogeneous_part(self, vars: Iterable[str]) -> MultiPoly:
        """Sum of terms of minimal total degree in the given variables."""
        if not self._terms:
            raise ValueError("lowest_homogeneous_part of the zero polynomial")
        mask = 0
        for v in vars:
            key = _KEYS.get(v)
            if key is not None:
                mask |= FIELD_MASK << _field_shift(key)
        # The fields of a key summed mod 2^FIELD - 1: exact, since no total
        # degree reaches it.
        deg = {m: (m & mask) % FIELD_MASK for m in self._terms}
        low = min(deg.values())
        return _new({m: c for m, c in self._terms.items() if deg[m] == low}, self._bound)

    def eval_rational(self, bindings: Mapping[str, Rational]) -> Fraction:
        """Evaluate at an all-variables-bound rational point."""
        names = sorted(self.variables())
        missing = set(names) - set(bindings)
        if missing:
            raise ValueError(f"unbound variables in evaluation: {sorted(missing)}")
        values = [x if type(x) is int else Fraction(x) for x in map(bindings.__getitem__, names)]
        read = exponent_reader(names)
        total = 0
        for mono, coeff in self._terms.items():
            val = coeff
            for x, e in zip(values, read(mono)):
                if e:
                    val *= x**e
            total += val
        return Fraction(total)

    def divexact_monomial(self, exps: Mapping[str, int]) -> MultiPoly:
        """Divide by a monomial, erroring if any term is not divisible."""
        div = monomial_key(exps.items())
        guards = every_field(GUARD)
        out: dict[Key, Rational] = {}
        for mono, coeff in self._terms.items():
            q = mono - div
            if q & guards:
                raise ValueError(f"monomial division by {next(iter(_decode({div: 1})))} is inexact")
            out[q] = coeff
        return _new(out, self._bound)

    def sorted_terms(self) -> list[tuple[Monomial, Rational]]:
        """The (monomial, coeff) terms in canonical_string order: descending
        total degree, then the monomial.  The rows sorted are (-degree,
        (monomial, coeff)), the degree read off field 0 of the key (`.terms`
        is decoded in the order of the stored keys), so no key function runs;
        no two monomials are equal, so no coefficient is compared."""
        rows = sorted(zip([-(k & FIELD_MASK) for k in self._terms], self.terms.items()))
        return [term for _, term in rows]


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
