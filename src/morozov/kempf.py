"""Instability optimization on the standard maximal torus: the
vanishing-order measure of a p-nil subalgebra under a cocharacter, the
optimal cocharacter and its parabolic p(lambda), split into Levi and
nilradical by `liealg.parabolic_parts`.

The optimum lies on the ray of the point of least norm in the convex hull
of the roots on the support, found by Wolfe's algorithm in exact integer
arithmetic (`rootdata.min_norm_point`) and returned with a certificate
checked without any search, on one common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .gfp import Subspace
from .liealg import LieAlgebra, parabolic_parts
from .rootdata import _combine, _dot, min_norm_point
from . import radicals


@dataclass(frozen=True)
class Cocharacter:
    coords: tuple

    @property
    def norm_sq(self) -> int:
        return sum(c * c for c in self.coords)

    def indivisible(self) -> "Cocharacter":
        g = gcd(*self.coords)
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
    return {i for row in u.basis for i, c in enumerate(row) if c}


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


def support_weights(g: LieAlgebra, u: Subspace) -> list:
    """The distinct roots on the support of u, sorted."""
    return sorted({g.frame.index_root[i] for i in support_indices(u)})


def _common_point(active: Sequence, mu: Sequence) -> tuple:
    """(d, d x): x = sum mu_i w_i, d the lcm of mu's denominators."""
    d = lcm(*(m.denominator for m in mu))
    return d, _combine(active, [m.numerator * (d // m.denominator) for m in mu])


@dataclass
class OptimalityCertificate:
    lam: Cocharacter
    alpha: int
    ratio_sq: Fraction          # alpha^2 / ||lam||^2
    active: tuple               # support weights spanning the optimum
    mu: tuple                   # weights, integer walk's A / d as Fractions

    # No search is made.  `perfbench/layertrace.py` still reads these two
    # counts of the lattice-ball search this optimizer replaced; they stay
    # at 0, out of `as_dict`, until the benchmark drops them.
    enumerated_count = 0
    admissible_count = 0

    def as_dict(self) -> dict:
        return {
            "lambda": list(self.lam.coords),
            "alpha": self.alpha,
            "ratio_sq": str(self.ratio_sq),
            "active_weights": [list(w) for w in self.active],
            "mu": [str(m) for m in self.mu],
        }


def check_search_class(g: LieAlgebra, u: Subspace, budget=None) -> None:
    """The optimizer's input class: a nonzero bracket-closed p-nil subspace
    supported on root coordinates of the standard torus.  A u that is not
    a subalgebra, or not p-nil, is an input fault (`radicals.InputError`);
    the other refusals are ValueError, read as inadmissible.  The p-nil gate
    is `radicals.check_p_nil`: a certified root support, else one Engel
    flag, exact on every family with no budget; on a split u both checks
    run on root indices.  `budget` is unused: `perfbench/test_perfbench.py`
    still passes it, and it stays until the benchmark drops it."""
    if g.frame is None:
        raise ValueError("algebra has no torus frame")
    if u.dim == 0:
        raise ValueError("optimization needs a nonzero subalgebra")
    torus = set(g.frame.torus_indices)
    if support_indices(u) & torus:
        raise ValueError(
            "subspace has support on the torus part; the fixed-torus search "
            "only covers subalgebras spanned inside the root coordinates")
    if not g.is_subalgebra(u):
        raise radicals.InputError("input is not a subalgebra")
    radicals.check_p_nil(g, u)


def check_certificate(g: LieAlgebra, u: Subspace,
                      cert: OptimalityCertificate) -> None:
    """Kempf's optimality, checked without any search: mu > 0 sums to 1
    over support weights, so x = sum mu_w w lies in their convex hull;
    <x, w> >= <x, x> for every support weight w, so x is its point of
    least norm; lambda is the indivisible vector on the ray of x; all on
    d x, d the lcm of mu's denominators.  A failure is an optimizer bug."""
    support = support_weights(g, u)
    mu = cert.mu
    if not (mu and all(m > 0 for m in mu) and sum(mu) == 1
            and len(cert.active) == len(mu) and set(cert.active) <= set(support)):
        raise RuntimeError("Kempf certificate: mu is not a convex combination "
                           "of support weights")
    d, dx = _common_point(cert.active, mu)
    if not any(dx) or any(_dot(dx, w) * d < _dot(dx, dx) for w in support):
        raise RuntimeError("Kempf certificate: x is not the point of least "
                           "norm in the hull of the support weights")
    if cert.lam != Cocharacter(tuple(dx)).indivisible():
        raise RuntimeError("Kempf certificate: lambda is not the indivisible "
                           "vector on the ray of x")


def optimize(g: LieAlgebra, u: Subspace, budget=None) -> OptimalityCertificate:
    """The optimal cocharacter of u, the indivisible lambda maximizing
    alpha(lambda)^2 / ||lambda||^2: the ray of the point x of least norm
    in the convex hull of the support weights (Kempf, Ann. Math. 108,
    1978), unique by Kempf's theorem.  Raises ValueError when x = 0, as
    no cocharacter is admissible.  The certificate is checked on return.
    `budget` is unused: `perfbench/workloads.py` still passes it, and it
    stays until the benchmark drops it."""
    check_search_class(g, u)
    active, mu, x = min_norm_point(support_weights(g, u))
    if not any(x):
        raise ValueError("no admissible cocharacter: 0 lies in the convex "
                         "hull of the support weights")
    lam = Cocharacter(tuple(_common_point(active, mu)[1])).indivisible()
    a = alpha(g, lam, u).value
    cert = OptimalityCertificate(lam, a, Fraction(a * a, lam.norm_sq),
                                 tuple(active), tuple(mu))
    check_certificate(g, u, cert)
    return cert


def parabolic_from_cochar(g: LieAlgebra, lam: Cocharacter, *keys) -> dict:
    """The parts of p(lambda), the parabolic of the root subset
    {alpha : <lambda, alpha> >= 0}, by `liealg.parabolic_parts` under the
    keys asked for: u(lambda), the nilradical, holds the lines of weight
    > 0, and the Levi part t plus the lines of weight 0."""
    return parabolic_parts(g, [r for r in g.frame.index_root.values()
                               if _dot(lam.coords, r) >= 0], *keys)


def verify_obstruction(g: LieAlgebra, u: Subspace,
                       cert: OptimalityCertificate) -> dict:
    """The computable equalities around the optimal parabolic: containment
    of u in the positive part, and the normalizer against p(lam)."""
    parts = parabolic_from_cochar(g, cert.lam, "parabolic", "nilradical")
    n = g.normalizer(u)
    return {
        "lambda": list(cert.lam.coords),
        "u_in_u_lambda": parts["nilradical"].contains(u),
        "normalizer_in_p_lambda": parts["parabolic"].contains(n),
        "normalizer_equals_p_lambda": n == parts["parabolic"],
        "u_equals_u_lambda": u == parts["nilradical"],
    }
