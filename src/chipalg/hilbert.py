"""Hilbert series of the toppling quotient, graded by the divisor class
group Z (+) Div_0(G).

Group-algebra elements are finite integer combinations of (t-degree,
class) pairs; classes are residue tuples against the invariant factors of
Div_0(G).  psi(u) denotes the image t^|u| q^div(u) of the monomial x^u on
the first n-1 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chipfiring import connected_flags, parking_ideal
from .monomials import standard_monomials
from .multigraph import Multigraph, div_class, divisor_class_group

__all__ = [
    "GradedPolynomial",
    "hilbert_numerator",
    "parking_sum",
    "hilbert_identity_check",
]


@dataclass(frozen=True)
class GradedPolynomial:
    """Element of the group algebra Z[Z (+) Div_0(G)].

    ``terms`` maps (t-degree, class residue tuple) to a nonzero integer
    coefficient; ``factors`` are the invariant factors defining class
    addition.
    """

    factors: tuple
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        for (t, q), c in self.terms.items():
            if len(q) != len(self.factors):
                raise ValueError("class tuple does not match invariant factors")
            if c == 0:
                raise ValueError("terms must have nonzero coefficients")

    def _check(self, other: "GradedPolynomial"):
        if self.factors != other.factors:
            raise ValueError("mismatched grading groups")

    def add(self, other: "GradedPolynomial") -> "GradedPolynomial":
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
            if out[k] == 0:
                del out[k]
        return GradedPolynomial(self.factors, out)

    def mul(self, other: "GradedPolynomial") -> "GradedPolynomial":
        self._check(other)
        out = {}
        for (t1, q1), c1 in self.terms.items():
            for (t2, q2), c2 in other.terms.items():
                k = (
                    t1 + t2,
                    tuple((a + b) % d for a, b, d in zip(q1, q2, self.factors)),
                )
                out[k] = out.get(k, 0) + c1 * c2
                if out[k] == 0:
                    del out[k]
        return GradedPolynomial(self.factors, out)

    def to_json(self) -> list:
        return [
            {"t": t, "q": list(q), "coeff": c}
            for (t, q), c in sorted(self.terms.items())
        ]


def _collect(g: Multigraph, signed) -> GradedPolynomial:
    """Sum of c * t^|u| q^div(u) over the (u, c) pairs of exponent tuples
    on [n-1], collected in one dict; zero coefficients are dropped.  Each u
    is classified as the divisor (u, -|u|) by the group's projection."""
    grp = divisor_class_group(g)
    terms = {}
    for u, c in signed:
        t = sum(u)
        k = (t, grp.class_of(u + (-t,)))
        terms[k] = terms.get(k, 0) + c
    return GradedPolynomial(grp.invariant_factors, {k: c for k, c in terms.items() if c})


def hilbert_numerator(g: Multigraph) -> GradedPolynomial:
    """Numerator of the graded Hilbert series of the toppling quotient.

    The graded Euler characteristic of the minimal free resolution: the sum,
    over the connected flags with k blocks and degree c, of
    (-1)^(k-1) psi(c) on the first n-1 nodes; the one-block flag
    contributes the constant term 1.
    """
    q = g.n - 1
    return _collect(g, ((c[:q], 1 if k % 2 else -1) for k, c in connected_flags(g)))


def parking_sum(g: Multigraph) -> GradedPolynomial:
    """Sum of t^|u| q^div(u) over all parking functions u (the standard
    monomials of the parking ideal); one term per spanning tree."""
    return _collect(g, ((u, 1) for u in standard_monomials(parking_ideal(g))))


def _times_one_minus(p: GradedPolynomial, cls) -> GradedPolynomial:
    """p * (1 - t q^cls): p minus a copy of p shifted by (1, cls).  Each
    class is shifted once, however many t-degrees it carries."""
    out = dict(p.terms)
    moved = {}
    for (t, q), c in p.terms.items():
        r = moved.get(q)
        if r is None:
            r = moved[q] = tuple((a + b) % d for a, b, d in zip(q, cls, p.factors))
        k = (t + 1, r)
        v = out.get(k, 0) - c
        if v:
            out[k] = v
        else:
            del out[k]
    return GradedPolynomial(p.factors, out)


def hilbert_identity_check(
    g: Multigraph, psum: GradedPolynomial, numerator: GradedPolynomial
) -> dict:
    """Verify psum * prod_{i<n} (1 - psi(x_i)) = numerator exactly, for
    ``psum = parking_sum(g)`` and ``numerator = hilbert_numerator(g)``.

    psi(x_i) is the single term t q^div(x_i), so each factor is a
    shift-and-subtract.
    """
    lhs = psum
    for i in range(g.n - 1):
        xi = tuple(1 if j == i else 0 for j in range(g.n - 1))
        lhs = _times_one_minus(lhs, div_class(g, xi))
    return {
        "lhs_terms": len(lhs.terms),
        "rhs_terms": len(numerator.terms),
        "pass": lhs == numerator,
    }
