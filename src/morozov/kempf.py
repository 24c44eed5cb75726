"""Desk-scale instability optimization: enumerate cocharacters of the
standard maximal torus, compute the vanishing-order measure of a p-nil
subalgebra, pick the optimal direction, and build the associated
parabolic decomposition p = c + u by weight signs.

All comparisons are exact (integer cross-multiplication); the optimum is
stored as an indivisible lattice vector with deterministic lexicographic
tie-breaking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional, Sequence

from .gfp import Subspace
from .liealg import LieAlgebra
from . import radicals


@dataclass(frozen=True)
class Cocharacter:
    coords: tuple

    @property
    def norm_sq(self) -> int:
        return sum(c * c for c in self.coords)

    def indivisible(self) -> "Cocharacter":
        g = 0
        for c in self.coords:
            g = gcd(g, abs(c))
        if g <= 1:
            return self
        return Cocharacter(tuple(c // g for c in self.coords))

    def scale(self, k: int) -> "Cocharacter":
        return Cocharacter(tuple(k * c for c in self.coords))


def weights(g: LieAlgebra, lam: Cocharacter) -> list:
    """Integer weight of every basis vector under the cocharacter (zero on
    the torus part)."""
    if g.frame is None:
        raise ValueError("algebra has no torus frame")
    return [g.frame.weight(lam.coords, i) for i in range(g.dim)]


def support_indices(u: Subspace) -> set:
    out = set()
    for row in u.basis:
        out.update(i for i, c in enumerate(row) if c)
    return out


@dataclass(frozen=True)
class AlphaResult:
    status: str                 # "ok" | "zero-weight" | "no-limit"
    value: Optional[int] = None


def alpha(g: LieAlgebra, lam: Cocharacter, u: Subspace) -> AlphaResult:
    """Vanishing order of t -> conj(lam(t)) applied to a basis tuple of u,
    relative to the limit point 0: defined when every weight on the
    support is strictly positive, and then equal to the minimum weight.
    Nonnegative-with-zero weights mean the limit exists but is a nonzero
    point whose membership in the boundary stratum is not decided here."""
    if u.dim == 0:
        raise ValueError("alpha needs a nonzero subspace")
    w = weights(g, lam)
    vals = [w[i] for i in support_indices(u)]
    if any(v < 0 for v in vals):
        return AlphaResult("no-limit")
    if any(v == 0 for v in vals):
        return AlphaResult("zero-weight")
    return AlphaResult("ok", min(vals))


def enumerate_cocharacters(g: LieAlgebra, norm_sq_bound: int):
    """All nonzero lattice vectors with norm_sq <= bound (sum-zero slice
    for the sl/pgl convention)."""
    frame = g.frame
    rank = frame.cochar_rank
    r = isqrt(norm_sq_bound)
    if frame.sum_zero:
        def rec(prefix, remaining):
            if remaining == 1:
                last = -sum(prefix)
                vec = prefix + [last]
                if any(vec) and sum(c * c for c in vec) <= norm_sq_bound:
                    yield tuple(vec)
                return
            for c in range(-r, r + 1):
                if sum(x * x for x in prefix) + c * c <= norm_sq_bound:
                    yield from rec(prefix + [c], remaining - 1)
        yield from (Cocharacter(v) for v in rec([], rank))
    else:
        def rec(prefix, remaining):
            if remaining == 0:
                if any(prefix) and sum(c * c for c in prefix) <= norm_sq_bound:
                    yield tuple(prefix)
                return
            for c in range(-r, r + 1):
                if sum(x * x for x in prefix) + c * c <= norm_sq_bound:
                    yield from rec(prefix + [c], remaining - 1)
        yield from (Cocharacter(v) for v in rec([], rank))


@dataclass
class OptimalityCertificate:
    lam: Cocharacter
    alpha: int
    ratio_sq: Fraction          # alpha^2 / ||lam||^2
    search_bound: int           # cap on ||lam||^2
    enumerated_count: int
    admissible_count: int
    ties: int                   # indivisible optima (1 = unique)
    tie_set: tuple

    def as_dict(self) -> dict:
        return {
            "lambda": list(self.lam.coords),
            "alpha": self.alpha,
            "ratio_sq": str(self.ratio_sq),
            "search_bound": self.search_bound,
            "enumerated_count": self.enumerated_count,
            "admissible_count": self.admissible_count,
            "ties": self.ties,
            "tie_set": [list(t.coords) for t in self.tie_set],
        }


def default_bound(g: LieAlgebra) -> int:
    h = g.frame.rootdatum.coxeter_number()
    return 4 * h * h


def check_search_class(g: LieAlgebra, u: Subspace, budget: int = 10 ** 5) -> None:
    """The optimizer's input class: a nonzero bracket-closed p-nil subspace
    supported on root coordinates of the standard torus.

    "p-nil" is decided exactly at every size on gl, sl, sp and so, by the
    Engel flag of `radicals.is_p_nil_subalgebra`.  On pgl it is decided by
    enumerating u within the budget; above the budget only the basis is
    tested, which is a necessary check, not a proof."""
    if u.dim == 0:
        raise ValueError("optimization needs a nonzero subalgebra")
    torus = set(g.frame.torus_indices)
    if support_indices(u) & torus:
        raise ValueError(
            "subspace has support on the torus part; the fixed-torus search "
            "only covers subalgebras spanned inside the root coordinates")
    if not g.is_subalgebra(u):
        raise ValueError("input is not a subalgebra")
    verdict = radicals.is_p_nil_subalgebra(g, u, budget)
    if verdict is None:
        verdict = all(radicals.is_p_nilpotent(g.element(list(b)))
                      for b in u.basis)
    if not verdict:
        raise ValueError("input is not p-nil")


def optimize(g: LieAlgebra, u: Subspace,
             norm_sq_bound: Optional[int] = None) -> OptimalityCertificate:
    """Exhaustive maximization of alpha(lam)^2 / ||lam||^2 over the lattice
    ball; returns the indivisible optimum (lexicographically least among
    ties, all ties reported)."""
    check_search_class(g, u)
    bound = default_bound(g) if norm_sq_bound is None else norm_sq_bound
    best_num = 0         # alpha^2
    best_den = 1         # norm^2
    best: list = []
    enumerated = admissible = 0
    for lam in enumerate_cocharacters(g, bound):
        enumerated += 1
        res = alpha(g, lam, u)
        if res.status != "ok":
            continue
        admissible += 1
        a2 = res.value * res.value
        n2 = lam.norm_sq
        # compare a2/n2 with best_num/best_den exactly
        cmp = a2 * best_den - best_num * n2
        if cmp > 0:
            best_num, best_den = a2, n2
            best = [lam]
        elif cmp == 0 and best:
            best.append(lam)
    if not best:
        raise ValueError(f"no admissible cocharacter within ||lam||^2 <= {bound}")
    tie_set = sorted({l.indivisible().coords for l in best})
    lam = Cocharacter(tie_set[0])
    a = alpha(g, lam, u).value
    return OptimalityCertificate(
        lam=lam, alpha=a, ratio_sq=Fraction(a * a, lam.norm_sq),
        search_bound=bound, enumerated_count=enumerated,
        admissible_count=admissible, ties=len(tie_set),
        tie_set=tuple(Cocharacter(t) for t in tie_set),
    )


def parabolic_from_cochar(g: LieAlgebra, lam: Cocharacter) -> dict:
    """Weight-sign decomposition: p = (weights >= 0), u = (> 0),
    c = (= 0); p = c + u."""
    w = weights(g, lam)
    pvecs, uvecs, cvecs = [], [], []
    for i in range(g.dim):
        v = [0] * g.dim
        v[i] = 1
        if w[i] > 0:
            uvecs.append(v)
            pvecs.append(v)
        elif w[i] == 0:
            cvecs.append(v)
            pvecs.append(v)
    return {
        "p": g.subspace(pvecs),
        "u": g.subspace(uvecs),
        "c": g.subspace(cvecs),
        "weights": w,
    }


def verify_obstruction(g: LieAlgebra, u: Subspace,
                       cert: OptimalityCertificate) -> dict:
    """The computable equalities around the optimal parabolic: containment
    of u in the positive part, and the normalizer against p(lam)."""
    parts = parabolic_from_cochar(g, cert.lam)
    n = g.normalizer(u)
    return {
        "lambda": list(cert.lam.coords),
        "u_in_u_lambda": parts["u"].contains(u),
        "normalizer_in_p_lambda": parts["p"].contains(n),
        "normalizer_equals_p_lambda": n == parts["p"],
        "u_equals_u_lambda": u == parts["u"],
    }
