"""Riemann-Roch theory for artinian monomial ideals.

The rank of a monomial is one less than the minimal degree one must divide
by to leave the ideal; for artinian ideals it is computed from the socle.
An ideal is Riemann-Roch when it is artinian, level, and reflection
invariant, and then rank satisfies the exact duality identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .monomials import (
    MonomialIdeal,
    degree,
    degree_plus,
    divides,
    intersect_irreducible,
    require_artinian,
    socle,
    vec_add,
    vec_sub,
)

__all__ = [
    "RRProfile",
    "RankWitness",
    "mono_rank_bruteforce",
    "mono_rank",
    "rr_profile",
    "rr_verify",
    "construct_rr_ideal",
]


@dataclass(frozen=True)
class RankWitness:
    rank: int
    witness: tuple | None  # minimal-degree a with x^(b-a) outside the ideal


@dataclass(frozen=True)
class RRProfile:
    """Socle-derived Riemann-Roch data of an artinian monomial ideal."""

    ideal: MonomialIdeal
    socle: tuple
    genus_min: int  # one plus the minimum socle degree
    genus_max: int  # one plus the maximum socle degree
    level: bool
    canonical: tuple | None  # lexicographically smallest valid K, if any
    canonical_candidates: tuple  # all valid K (ties reported)
    reflection_invariant: bool

    @property
    def genus(self) -> int:
        if not self.level:
            raise ValueError("genus is only defined for level ideals")
        return self.genus_min


def _exponents(M: MonomialIdeal, b) -> tuple:
    """b as a tuple with one exponent per variable of the artinian ideal M."""
    require_artinian(M)
    b = tuple(b)
    if len(b) != M.vars:
        raise ValueError("monomial length must equal the variable count")
    return b


def mono_rank_bruteforce(M: MonomialIdeal, b) -> RankWitness:
    """Rank by direct search: the smallest-degree a with 0 <= a <= b and
    x^(b-a) outside M; rank = degree(a) - 1.

    Ties within a degree are broken lexicographically.
    """
    b = _exponents(M, b)
    if any(e < 0 for e in b):
        raise ValueError("brute-force rank needs a non-negative monomial")
    best = None
    for a in product(*(range(e + 1) for e in b)):
        if M.contains(vec_sub(b, a)):
            continue
        if best is None or (degree(a), a) < (degree(best), best):
            best = a
    if best is None:
        raise AssertionError("artinian ideal cannot contain all divisors of b")
    return RankWitness(degree(best) - 1, best)


def mono_rank(M: MonomialIdeal, b) -> int:
    """Rank of a Laurent monomial: min over socle c of degree_plus(b - c), minus 1."""
    b = _exponents(M, b)
    return min(degree_plus(vec_sub(b, c)) for c in socle(M)) - 1


def rr_profile(M: MonomialIdeal) -> RRProfile:
    """Socle, genus bounds, level flag, and the canonical monomial search.

    K is valid when c -> K - c maps the socle onto itself.  Then K - c0 is
    a socle monomial for the first socle monomial c0, so the s sums c0 + d
    over socle monomials d exhaust the candidates.
    """
    require_artinian(M)
    soc = tuple(socle(M))
    socset = set(soc)
    degs = [degree(c) for c in soc]
    gmin, gmax = 1 + min(degs), 1 + max(degs)
    candidates = sorted(vec_add(soc[0], d) for d in soc)
    valid = tuple(K for K in candidates if all(vec_sub(K, c) in socset for c in soc))
    return RRProfile(
        ideal=M,
        socle=soc,
        genus_min=gmin,
        genus_max=gmax,
        level=gmin == gmax,
        canonical=valid[0] if valid else None,
        canonical_candidates=valid,
        reflection_invariant=bool(valid),
    )


def rr_verify(prof: RRProfile, K, b) -> dict:
    """Check rank(x^b) - rank(x^K/x^b) = degree(x^b) - genus + 1 exactly on
    the ideal ``prof.ideal`` profiled by ``prof``.

    Requires a level ideal that is reflection-invariant with K (the profile
    exists only for artinian ideals); a violated precondition is reported
    by name.
    """
    if not prof.level:
        raise ValueError("precondition failed: ideal is not level")
    K = tuple(K)
    if K not in prof.canonical_candidates:
        raise ValueError(
            "precondition failed: ideal is not reflection-invariant with this K"
        )
    b = tuple(b)
    rb = mono_rank(prof.ideal, b)
    rdual = mono_rank(prof.ideal, vec_sub(K, b))
    genus = prof.genus
    return {
        "rank_b": rb,
        "rank_dual": rdual,
        "degree": degree(b),
        "genus": genus,
        "pass": rb - rdual == degree(b) - genus + 1,
    }


def construct_rr_ideal(K, seeds) -> RRProfile:
    """Build a Riemann-Roch ideal with canonical monomial x^K; returns its
    profile, whose ``ideal`` is the ideal built.

    The socle is the seed set closed under c -> K - c; every seed must
    divide x^K and have degree degree(K)/2.  The ideal is the intersection
    of the irreducible ideals at socle + (1,...,1), and the construction is
    verified against its profile before returning.
    """
    K = tuple(K)
    if any(e < 0 for e in K):
        raise ValueError("canonical exponents must be non-negative")
    if degree(K) % 2:
        raise ValueError("degree of the canonical monomial must be even")
    half = degree(K) // 2
    soc = set()
    for s in seeds:
        s = tuple(s)
        if len(s) != len(K):
            raise ValueError(f"seed {s} must have {len(K)} exponents, as the canonical monomial has")
        if not divides(s, K) or any(e < 0 for e in s):
            raise ValueError(f"seed {s} does not divide the canonical monomial")
        if degree(s) != half:
            raise ValueError(f"seed {s} must have degree {half}")
        soc.add(s)
        soc.add(vec_sub(K, s))
    if not soc:
        raise ValueError("need at least one seed")
    e = (1,) * len(K)
    M = intersect_irreducible([vec_add(c, e) for c in sorted(soc)], len(K))
    prof = rr_profile(M)
    if set(prof.socle) != soc or K not in prof.canonical_candidates:
        raise AssertionError("constructed ideal failed its Riemann-Roch profile")
    return prof
