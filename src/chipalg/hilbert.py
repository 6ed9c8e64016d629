"""Hilbert series of the toppling quotient, graded by the divisor class
group Z (+) Div_0(G).

Group-algebra elements are finite integer combinations of (t-degree,
class) pairs; classes are residue tuples against the invariant factors of
Div_0(G).  psi(u) denotes the image t^|u| q^div(u) of the monomial x^u on
the first n-1 nodes.

The parking functions, the standard monomials of the parking ideal, are
read as the columns of its staircase along x_{n-1} (``staircase_columns``),
walked once per graph.  The parking sum classifies one monomial per column
and the Hilbert identity is checked on the staircase's K-polynomial, taken
in the fine grading by exponent tuples before psi.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat

from .chipfiring import connected_flags, parking_ideal
from .monomials import staircase_columns
from .multigraph import GRAPH_CACHE_SIZE, Multigraph, div_class, divisor_class_group, tree_count

__all__ = [
    "GradedPolynomial",
    "hilbert_numerator",
    "parking_sum",
    "parking_sum_check",
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


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _parking_columns(g: Multigraph) -> tuple:
    """The staircase columns of the parking ideal (``staircase_columns``),
    for a graph with at least two nodes."""
    return tuple(staircase_columns(parking_ideal(g)))


def parking_sum(g: Multigraph) -> GradedPolynomial:
    """Sum of t^|u| q^div(u) over all parking functions u (the standard
    monomials of the parking ideal); one term per spanning tree.

    Each staircase column is classified once, at prefix + (0,); up the
    column, each step adds psi(x_{n-1}), so residue j of the class at
    prefix + (v,) is base_j + v * step_j.
    """
    if g.n == 1:
        return _collect(g, [((), 1)])
    grp = divisor_class_group(g)
    factors = grp.invariant_factors
    step = div_class(g, (0,) * (g.n - 2) + (1,))
    keys = []
    for prefix, bound in _parking_columns(g):
        low = sum(prefix)
        base = grp.class_of(prefix + (0, -low))
        residues = [[(b + v * s) % d for v in range(bound)] for b, s, d in zip(base, step, factors)]
        keys += zip(range(low, low + bound), zip(*residues) if factors else repeat(()))
    return GradedPolynomial(factors, dict(Counter(keys)))


def parking_sum_check(g: Multigraph, psum: GradedPolynomial) -> dict:
    """Check that ``psum = parking_sum(g)`` has one term per divisor class
    of degree 0, each with coefficient 1.  The parking functions u are the
    superstables, so the divisors (u, -|u|) are the q-reduced ones of
    degree 0, one per class (Baker and Norine, Adv. Math. 2007, section 3),
    and Div_0(G) has tree_count(g) classes."""
    trees = tree_count(g)
    classes = len({q for _, q in psum.terms})
    other = sum(c != 1 for c in psum.terms.values())
    return {
        "terms": len(psum.terms),
        "classes": classes,
        "tree_count": trees,
        "coefficients_not_one": other,
        "pass": len(psum.terms) == classes == trees and not other,
    }


def _staircase_k_polynomial(g: Multigraph) -> dict:
    """The K-polynomial of the parking staircase in the fine grading: the
    sum of x^u prod_{i<n} (1 - x_i) over the parking functions u, as a map
    from exponent tuples to nonzero coefficients.

    Times 1 - x_{n-1}, a column telescopes to x^(prefix, 0) -
    x^(prefix, bound), and no two columns share a prefix; the other factors
    are then applied one at a time, and the terms that cancel are dropped
    after each.
    """
    if g.n == 1:
        return {(): 1}
    terms = {}
    for prefix, bound in _parking_columns(g):
        terms[prefix + (0,)] = 1
        terms[prefix + (bound,)] = -1
    for i in range(g.n - 2):
        out = dict(terms)
        for u, c in terms.items():
            v = u[:i] + (u[i] + 1,) + u[i + 1 :]
            out[v] = out.get(v, 0) - c
        terms = {u: c for u, c in out.items() if c}
    return terms


def hilbert_identity_check(g: Multigraph, numerator: GradedPolynomial) -> dict:
    """Verify psum * prod_{i<n} (1 - psi(x_i)) = numerator exactly, for
    the parking sum psum (``parking_sum(g)``) and ``numerator =
    hilbert_numerator(g)``.

    psi is a ring map, so the left side is psi of the staircase's
    K-polynomial (Miller and Sturmfels, Combinatorial Commutative Algebra,
    ch. 8).  That is taken in the fine grading, where the columns telescope
    and most terms cancel, and only the terms left are classified; psum
    itself is not needed.
    """
    lhs = _collect(g, _staircase_k_polynomial(g).items())
    return {
        "lhs_terms": len(lhs.terms),
        "rhs_terms": len(numerator.terms),
        "pass": lhs == numerator,
    }
