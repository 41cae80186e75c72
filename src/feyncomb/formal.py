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
twisted-antipode recursion produce identical normal forms.

An atom is its own normal-form text, made once with the atom: "Phi(<label>)",
or "T[" + the sorted Phi texts joined by "*" + "]" ("T[1]" for the empty
product).  After the pull-out, T's argument is always one product of Phi
atoms with coefficient 1, so that text is all a T atom needs.  A product is
the sorted tuple of its atoms' texts, and its rendering joins them by "*".
No label contains "(", ")", "[", "]" or "*", so two different products
never share a text.
"""

from __future__ import annotations

from .poly import LinComb

_RESERVED = frozenset("()[]*")


class FormalAmplitude(LinComb):
    """Integer combination of Phi/T products, always in normal form."""

    __slots__ = ()

    _key_mul = staticmethod(lambda t1, t2: tuple(sorted(t1 + t2)))
    _key_text = staticmethod("*".join)

    # The shared operations bound in this class's own namespace, where
    # perfbench/tracing.py instruments the formal layer alone.
    __add__ = LinComb.__add__
    __mul__ = __rmul__ = LinComb.__mul__
    render = LinComb.render

    # -- constructors ---------------------------------------------------

    @staticmethod
    def one() -> FormalAmplitude:
        return FormalAmplitude._of({(): 1})

    @staticmethod
    def phi(label: str) -> FormalAmplitude:
        if not _RESERVED.isdisjoint(label):
            raise ValueError(f"formal label {label!r} contains one of ( ) [ ] *")
        return FormalAmplitude._of({(f"Phi({label})",): 1})

    # -- the projection ----------------------------------------------------------

    def project(self) -> FormalAmplitude:
        """Apply T to this amplitude (linear, counterterms pulled out)."""
        out: dict[tuple, int] = {}
        for term, coeff in self.terms.items():
            t = "T[" + ("*".join(a for a in term if a[0] == "P") or "1") + "]"
            new_term = tuple(sorted([a for a in term if a[0] == "T"] + [t]))
            out[new_term] = out.get(new_term, 0) + coeff
        return FormalAmplitude(out)
