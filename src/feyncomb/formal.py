"""Formal renormalization expressions: sums of products of Phi and T atoms.

A FormalAmplitude is an integer combination (a `poly.LinComb`) of products,
where each product multiplies Phi(<graph label>) atoms and T[...] atoms;
sums and products come from the shared base, and a product's atoms are kept
sorted, so every amplitude is in normal form.  The projection T is linear
and treats previously produced counterterms as scalars: T applied to a sum
distributes, and any T[...] factor inside the argument is pulled out front,

    T[ c * Phi(a) * T[x] * ... ]  ->  c * T[x] * ... * T[ Phi(a) * ... ].

That pull-out encodes the counterterm factorization rule the subtraction
operator relies on, and it is exactly what makes the forest formula and the
twisted-antipode recursion produce identical normal forms.  Beyond this, T
atoms are opaque: they are keyed by the normal form of their argument.
"""

from __future__ import annotations

from typing import Iterable

from .poly import LinComb, signed_sum_text

# An atom is ("phi", label) or ("T", nf) where nf is a canonical normal form:
# a tuple of (term, coeff) pairs, each term a tuple of atoms.
Atom = tuple
Term = tuple


def _atom_text(atom: Atom) -> str:
    if atom[0] == "phi":
        return f"Phi({atom[1]})"
    return "T[" + signed_sum_text((_term_body(t), c) for t, c in atom[1]) + "]"


def _term_body(term: Term) -> str:
    return "*".join(_atom_text(a) for a in term)


def _term_order(term: Term) -> tuple[str, ...]:
    return tuple(_atom_text(a) for a in term)


def _sort_term(atoms: Iterable[Atom]) -> Term:
    return tuple(sorted(atoms, key=_atom_text))


def _canonical_nf(terms: dict[Term, int]) -> tuple:
    return tuple((t, terms[t]) for t in sorted(terms, key=_term_order) if terms[t])


class FormalAmplitude(LinComb):
    """Integer combination of Phi/T products, always in normal form."""

    __slots__ = ()

    _key_mul = staticmethod(lambda t1, t2: _sort_term(t1 + t2))
    _sort_key = staticmethod(_term_order)
    _key_text = staticmethod(_term_body)

    # The shared operations bound in this class's own namespace, where
    # perfbench/tracing.py instruments the formal layer alone.
    __add__ = LinComb.__add__
    __mul__ = __rmul__ = LinComb.__mul__
    render = LinComb.render

    # -- constructors ---------------------------------------------------

    @staticmethod
    def one() -> FormalAmplitude:
        return FormalAmplitude({(): 1})

    @staticmethod
    def phi(label: str) -> FormalAmplitude:
        return FormalAmplitude({(("phi", label),): 1})

    # -- the projection ----------------------------------------------------------

    def project(self) -> FormalAmplitude:
        """Apply T to this amplitude (linear, counterterms pulled out)."""
        out: dict[Term, int] = {}
        for term, coeff in self.terms.items():
            phis = tuple(a for a in term if a[0] == "phi")
            ts = tuple(a for a in term if a[0] == "T")
            inner = _canonical_nf({phis: 1})
            new_term = _sort_term(ts + (("T", inner),))
            out[new_term] = out.get(new_term, 0) + coeff
        return FormalAmplitude(out)
