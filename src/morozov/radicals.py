"""Solvable radical, nilradical, p-radical and p-nilpotency testing.

The public operations take an ambient realized algebra and a subspace h and
return subspaces in ambient coordinates.  Most of them also compute there:
largest h-ideals, spins under ad(h), the series of a subspace and the
ad_h-nilpotency of an element need only the ambient bracket.  Views,
subalgebras and quotients in their own coordinates, are built only where
h's own structure matters: the general solvable-radical path (h's centre
and Killing form, the recursion into a proper Killing kernel, and the
peeling of solvable ideals across quotients).
A view is a `LieAlgebra` without a realization whose structure table is
filled once from its parent's bracket, so the one subalgebra calculus of
`liealg` runs on it unchanged.

Strategy notes:
  * every abelian ideal of h lies in k = ker(kappa_h), and the last
    nonzero derived term of rad(h) is one, so k = 0 certifies rad(h) = 0;
    for a proper k, rad(k) is computed in k's own view and the largest
    ideal of h inside it is nonzero exactly when rad(h) is;
  * only when kappa_h vanishes identically is k scanned line by line:
    (ad v)^2 = 0 is necessary for v to lie in an abelian ideal, which
    makes the scan complete.  It walks one vector per line on the view's
    own bracket and drops a line at its first nonzero column [v, [v, b]].
    The caller's budget bounds it, and every memo key omits the budget,
    since a result that is returned is exact;
  * for torus-stable inputs the p-nilpotent and ad-nilpotent cones split
    along coordinates when the root support is closed and lies in a
    positive system, avoiding enumeration entirely ("structured" method);
    by Gordan's theorem the latter holds exactly when 0 is not in the
    convex hull of the support, that is when its point of least norm
    (`rootdata.min_norm_point`) is nonzero;
  * in that split, the torus part of rad(h) is one linear solve: a torus
    vector lies in rad(h) exactly when it kills every root line whose
    spin ideal is not solvable;
  * an element is p-nilpotent exactly when it has a nilpotent lift
    (`LieAlgebra.nilpotent_lift`: its matrix, shifted by a scalar on pgl);
  * the p-nil gate asks that u be nilpotent with a p-nilpotent basis.  This
    is necessary, by Engel's theorem, and sufficient when u has nilpotency
    class < p: then Jacobson's commutators of length p vanish on u, each
    b^[p] centralises u and the b^[p] commute, so the p-map is p-semilinear
    on the span of the iterates (Strade-Farnsteiner, Modular Lie Algebras
    and Their Representations, 1988, ch. 2).  Past that class the Engel
    flag of the basis lifts on the natural module decides, by Jacobson's
    theorem on weakly closed sets of nilpotent operators, except on pgl
    with p | n, where the lifts are not linear in x;
  * the tower's next u and rad_p(h) start from the set C of p-nilpotent
    elements of rad(h).  When C is not a subspace (seen only at p = 2) the
    answer is Undetermined; else rad_p(h) is the largest h-ideal inside C,
    since a p-nil ideal is nilpotent, so lies in rad(h) and in C;
  * enumeration with an explicit budget (one walk, `_enumerate_cone`, for
    the p- and ad_h-nilpotent cones of a radical) is the general fallback,
    and exceeding the budget is an Undetermined outcome, never a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

# kernel and rref are unused here; the benchmark tracer's self-test checks
# that rebinding reaches every module importing them by name
from .gfp import Subspace, image_flag, kernel, rref, solve_linear  # noqa: F401
from .liealg import Element, LieAlgebra, coordinate_split
from .rootdata import is_closed, min_norm_point

DEFAULT_BUDGET = 10 ** 7    # also the tower's


class Undetermined(Exception):
    """Raised when a computation cannot be certified within its budget."""


# ---------------------------------------------------------------------------
# Views: subalgebras and quotients as structure-constant algebras
# ---------------------------------------------------------------------------

class View(LieAlgebra):
    """A Lie algebra in local coordinates, carried by a parent algebra
    instead of a realization; local vectors are plain int lists.  A
    subclass gives only its coordinate maps: `lift` to the parent and
    `local` back, None when a parent vector leaves the carrier.  The
    structure table is filled once from the parent's bracket."""

    realization = frame = family = None

    def __init__(self, parent: LieAlgebra, dim: int):
        self.parent = parent
        self.p = parent.p
        self.dim = dim
        self._memo = {}

        def bracket_of(i, j):
            coords = self.local(parent.bracket_vec(self.lift(self.unit(i)),
                                                   self.lift(self.unit(j))))
            if coords is None:
                raise ValueError("subspace is not closed under the bracket")
            return coords
        self._set_structure(bracket_of)

    def lift(self, x) -> list:
        raise NotImplementedError

    def local(self, vec) -> Optional[list]:
        raise NotImplementedError

    def p_power_vec(self, x):
        """Local p-power, or None when it leaves the carrier."""
        up = self.parent.p_power_vec(self.lift(x))
        return None if up is None else self.local(up)


class AmbientView(View):
    """The parent algebra itself, as a view."""

    def __init__(self, g: LieAlgebra):
        super().__init__(g, g.dim)

    def lift(self, x) -> list:
        return list(x)

    local = lift


class SubView(View):
    """A bracket-closed subspace of a parent algebra, in its own
    coordinates; a subspace that is not closed raises ValueError."""

    def __init__(self, parent: LieAlgebra, sub: Subspace):
        self.sub = sub
        super().__init__(parent, sub.dim)

    def lift(self, x) -> list:
        vec = [0] * self.sub.ambient_dim
        for c, row in zip(x, self.sub.basis):
            if c:
                for i in range(self.sub.ambient_dim):
                    vec[i] = (vec[i] + c * row[i]) % self.p
        return vec

    def local(self, vec) -> Optional[list]:
        return self.sub.coordinates_of(vec)

    def lift_subspace(self, s: Subspace) -> Subspace:
        return Subspace.from_vectors([self.lift(list(b)) for b in s.basis],
                                     self.sub.ambient_dim, self.p)

    def restrict_subspace(self, s: Subspace) -> Subspace:
        coords = [self.local(list(b)) for b in s.basis]
        if None in coords:
            raise ValueError("subspace escapes the subalgebra")
        return Subspace.from_vectors(coords, self.dim, self.p)


class QuotientView(View):
    """Quotient of a parent algebra by an ideal, coordinatized by the
    non-pivot positions of the ideal's canonical basis."""

    def __init__(self, parent: LieAlgebra, ideal: Subspace):
        pivots = {next(j for j, x in enumerate(row) if x) for row in ideal.basis}
        self.ideal = ideal
        self.sections = [j for j in range(parent.dim) if j not in pivots]
        super().__init__(parent, len(self.sections))

    def lift(self, x) -> list:
        vec = [0] * self.parent.dim
        for c, j in zip(x, self.sections):
            vec[j] = c % self.p
        return vec

    def local(self, vec) -> list:
        red = self.ideal.reduce_vector(vec)
        return [red[j] for j in self.sections]

    def preimage(self, s: Subspace) -> Subspace:
        vecs = [self.lift(list(b)) for b in s.basis] + [list(b) for b in self.ideal.basis]
        return Subspace.from_vectors(vecs, self.parent.dim, self.p)


# ---------------------------------------------------------------------------
# p-nilpotency
# ---------------------------------------------------------------------------

def is_p_nilpotent(x: Element) -> bool:
    """x^[p]^m = 0 for some m: exactly when x has a nilpotent lift
    (`LieAlgebra.nilpotent_lift`), on every family, pgl included.  x must
    lie in a realized algebra, not in a view."""
    return x.algebra.nilpotent_lift(x.coords) is not None


def _enumerate_cone(g: LieAlgebra, r: Subspace, test, budget: int) -> tuple:
    """(span, is_subspace) of the nonzero elements v of r with test(v), by
    the one exhaustive enumeration of p^dim(r) vectors, within the budget."""
    if g.p ** r.dim > budget:
        raise Undetermined(
            f"enumeration of {g.p ** r.dim} elements exceeds budget {budget}")
    members = [v for v in r.enumerate_vectors() if any(v) and test(v)]
    span = Subspace.from_vectors(members, g.dim, g.p)
    return span, len(members) + 1 == g.p ** span.dim


def _p_nilpotent_test(g: LieAlgebra):
    return lambda v: is_p_nilpotent(g.element(v))


def _ad_nilpotent_test(g: LieAlgebra, h: Subspace):
    """v acts nilpotently on the subalgebra h containing it: the images
    of h under ad v reach 0 (`image_flag`)."""
    return lambda v: image_flag(
        h, [lambda w: g.bracket_vec(v, w)]) is not None


def is_p_nil_subalgebra(g: LieAlgebra, u: Subspace) -> bool:
    """Whether every element of the subalgebra u is p-nilpotent, with no
    budget: u is nilpotent with a p-nilpotent basis and, past nilpotency
    class p - 1, the Engel flag W_0 = F^n, W_(k+1) = span{L w} of the basis
    lifts L reaches 0 (module notes).  On pgl with p | n the lifts of ex2
    have [X, Y] = 1, and the basis rule's answer stands unproved."""
    series = g.lower_central_series(u)
    if series[-1].dim or not all(
            is_p_nilpotent(g.element(list(b))) for b in u.basis):
        return False
    n = g.realization.n
    if len(series) <= g.p or (g.realization.mod_scalars and n % g.p == 0):
        return True
    lifts = [g.nilpotent_lift(list(b)) for b in u.basis]
    return image_flag(Subspace.full(n, g.p),
                      [m.matvec for m in lifts]) is not None


def check_p_nil(g: LieAlgebra, u: Subspace, what: str = "input") -> None:
    """The one p-nil gate: ValueError when the subalgebra u is not p-nil."""
    if not is_p_nil_subalgebra(g, u):
        raise ValueError(f"{what} is not p-nil")


# ---------------------------------------------------------------------------
# Abelian ideals and the solvable radical
# ---------------------------------------------------------------------------

def _square_zero_lines(view: View, region: Subspace):
    """The lines of `region` with (ad v)^2 = 0, one v per line, in this
    order: the coefficient tuples whose first nonzero entry is 1, by lead
    position and then in base-p order of the trailing entries.  A line is
    dropped at the first basis vector b with [v, [v, b]] != 0."""
    p, basis = view.p, region.basis
    units = [view.unit(j) for j in range(view.dim)]
    # multiples[i][c] = c * basis[i], so that a product of multiples runs
    # through the trailing coefficients in base-p order
    multiples = [[[c * x % p for x in row] for c in range(p)] for row in basis]
    for lead, first in enumerate(basis):
        for tail in product(*multiples[lead + 1:]):
            v = [sum(col) % p for col in zip(first, *tail)]
            if not any(any(view.bracket_vec(v, view.bracket_vec(v, b)))
                       for b in units):
                yield v


def _abelian_spin_scan(view: View, region: Subspace, budget: int):
    """Complete scan for abelian ideals meeting `region` (which must
    contain every abelian ideal): the first abelian ideal of least
    dimension among the spins of `_square_zero_lines(view, region)`, or
    None."""
    if region.dim == 0:
        return None
    if view.p ** region.dim > budget:
        raise Undetermined(
            f"abelian-ideal scan needs {view.p ** region.dim} vectors, over budget {budget}")
    best = None
    for v in _square_zero_lines(view, region):
        spun = view.spin_submodule(v)
        if view.bracket_spaces(spun, spun).dim == 0:
            if best is None or spun.dim < best.dim:
                best = spun
                if best.dim == 1:
                    break
    return best


def _find_solvable_ideal(view: View, budget: int):
    """A nonzero solvable ideal of the view, or None certified to mean the
    solvable radical is zero.

    Every abelian ideal A lies in the Killing kernel k (for x in A,
    (ad x ad y)^2 = 0), and the last nonzero derived term of rad(view) is
    one.  So k = 0 certifies rad(view) = 0; for a proper k, the largest
    ideal of the view inside rad(k) is solvable and contains that term,
    hence nonzero exactly when rad(view) is.  Only when the Killing form
    vanishes identically is k left to the complete line scan, within the
    budget."""
    z = view.center()
    if z.dim:
        return z
    k = view.killing_kernel()
    if k.dim == 0:
        return None
    if k.dim == view.dim:
        return _abelian_spin_scan(view, k, budget)
    sub = SubView(view, k)
    rad_k = sub.lift_subspace(_solvable_radical_view(sub, budget))
    ideal = view.largest_ideal_inside(view.full_space(), rad_k)
    return ideal if ideal.dim else None


def _solvable_radical_view(view: View, budget: int) -> Subspace:
    if view.is_solvable(view.full_space()):
        return view.full_space()
    s = _find_solvable_ideal(view, budget)
    if s is None:
        return Subspace.zero(view.dim, view.p)
    quot = QuotientView(view, s)
    r = _solvable_radical_view(quot, budget)
    return quot.preimage(r)


def _structured_solvable_radical(g: LieAlgebra, h: Subspace) -> Optional[Subspace]:
    """rad(h) for a coordinate-split h, at every p.  rad(h) is a
    characteristic ideal, and it commutes with extension to the algebraic
    closure (Galois descent); the algebraic torus normalises h, and its
    root characters are pairwise distinct and nonzero.  So rad(h) is its
    torus part plus root lines: the sum of the solvable spin-ideals of the
    coordinate directions of h."""
    split = coordinate_split(g, h)
    if split is None:
        return None
    torus_part, lines = split
    total = Subspace.zero(g.dim, g.p)
    wild = []           # root lines whose spin ideal is not solvable
    for _, idx in lines:
        if total.contains_vector(g.unit(idx)):
            continue        # inside a solvable ideal already found
        spin = g.spin_submodule(g.unit(idx), h)
        if g.is_solvable(spin):
            total = total.sum(spin)
        else:
            wild.append(idx)
    # torus directions: spin(z) = <z> + the spins of the root lines z does
    # not kill, and the extra central line never affects solvability, so z
    # lies in rad(h) exactly when it kills every wild root line
    torus = solve_linear(torus_part, lambda z: [
        c for idx in wild for c in g.bracket_vec(z, g.unit(idx))])
    return total.sum(torus)


def solvable_radical(g: LieAlgebra, h: Subspace,
                     budget: int = DEFAULT_BUDGET) -> Subspace:
    """Maximal solvable ideal of the subalgebra h, in ambient coordinates.
    The budget bounds the abelian-ideal scan of the view path; a result
    that is returned is exact at any budget, so the memo key omits it."""
    key = ("rad", h.basis)
    if key in g._memo:
        return g._memo[key]
    if not g.is_subalgebra(h):
        raise ValueError("input is not a subalgebra")
    if g.frame is not None:
        structured = _structured_solvable_radical(g, h)
        if structured is not None:
            g._memo[key] = structured
            return structured
    view = SubView(g, h)
    local = _solvable_radical_view(view, budget)
    out = view.lift_subspace(local)
    g._memo[key] = out
    return out


# ---------------------------------------------------------------------------
# Structured (torus-stable) cone extraction
# ---------------------------------------------------------------------------

def _certified_root_support(g: LieAlgebra, roots) -> bool:
    """Whether a set of roots is closed and lies in a positive system.  By
    Gordan's theorem the second condition holds exactly when 0 is not in
    the convex hull of the roots, that is when their point of least norm
    is nonzero; a pair +-alpha puts 0 in the hull, and the empty set lies
    in every positive system."""
    return is_closed(g.frame.rootdatum, roots) and \
        (not roots or any(min_norm_point(roots)[2]))


def _structured_pnil_cone(g: LieAlgebra, r: Subspace) -> Optional[Subspace]:
    """The set of p-nilpotent elements of a torus-stable solvable r, when
    certifiable: the root part, provided the root support is closed and
    its minimum-norm point is nonzero, so that it lies in a positive system
    (then elements with nonzero torus component keep it under p-powers,
    and the root part consists of nilpotent matrices)."""
    split = coordinate_split(g, r)
    if split is None or not _certified_root_support(g, [a for a, _ in split[1]]):
        return None
    return g.subspace([g.unit(idx) for _, idx in split[1]])


def _structured_adnil_cone(g: LieAlgebra, h: Subspace, r: Subspace) -> Optional[Subspace]:
    """Elements of torus-stable solvable r acting nilpotently on the
    coordinate-split subalgebra h: the p-nilpotent cone of r (its root
    part) plus the torus part of r killing every root line of h."""
    cone = _structured_pnil_cone(g, r)
    split_h = coordinate_split(g, h)
    if cone is None or split_h is None:
        return None
    torus = solve_linear(coordinate_split(g, r)[0], lambda z: [
        c for _, idx in split_h[1] for c in g.bracket_vec(z, g.unit(idx))])
    return cone.sum(torus)


# ---------------------------------------------------------------------------
# Nilradical and p-radical
# ---------------------------------------------------------------------------

def pnil_part_of_radical(g: LieAlgebra, h: Subspace,
                         budget: int = DEFAULT_BUDGET) -> dict:
    """The set of p-nilpotent elements of rad(h), with its method; the
    tower consumes this directly.  Undetermined when that set is not a
    subspace, since its span need not be p-nil."""
    key = ("pnilpart", h.basis)
    if key in g._memo:
        return g._memo[key]
    r = solvable_radical(g, h, budget)
    cone = _structured_pnil_cone(g, r)
    method = "structured"
    if cone is None:
        method = "enumeration"
        cone, is_subspace = _enumerate_cone(g, r, _p_nilpotent_test(g), budget)
        if not is_subspace:
            raise Undetermined("the p-nilpotent elements of rad(h) do not "
                               "form a subspace")
    out = {"span": cone, "method": method, "radical": r}
    g._memo[key] = out
    return out


def p_radical(g: LieAlgebra, h: Subspace, budget: int = DEFAULT_BUDGET) -> dict:
    """Maximal p-nil ideal of h: the largest h-ideal inside the set of
    p-nilpotent elements of rad(h), which is a subspace or Undetermined
    (`pnil_part_of_radical`; module notes)."""
    part = pnil_part_of_radical(g, h, budget)
    cand = g.largest_ideal_inside(h, part["span"])
    p_closed = all(
        cand.contains_vector(g.p_power_vec(list(b))) for b in cand.basis)
    return {"rad_p": cand, "method": part["method"], "p_closed": p_closed,
            "radical": part["radical"]}


def nilradical(g: LieAlgebra, h: Subspace, budget: int = DEFAULT_BUDGET) -> dict:
    """Maximal nilpotent ideal of h."""
    r = solvable_radical(g, h, budget)
    cone = _structured_adnil_cone(g, h, r)
    method = "structured"
    if cone is None:
        method = "enumeration"
        cone, _ = _enumerate_cone(g, r, _ad_nilpotent_test(g, h), budget)
    cand = g.largest_ideal_inside(h, cone)
    if not g.is_nilpotent(cand):
        raise Undetermined("largest ideal inside the ad-nilpotent cone is "
                           "not nilpotent; nilradical undecided")
    return {"nil": cand, "method": method, "radical": r}


@dataclass
class RadicalReport:
    rad: Optional[Subspace]
    nil: Optional[Subspace]
    rad_p: Optional[Subspace]
    method_used: str
    p_closed: Optional[bool] = None
    status: str = "ok"
    detail: str = ""

    def as_dict(self) -> dict:
        def sub(s):
            return None if s is None else [list(r) for r in s.basis]
        return {
            "rad": sub(self.rad), "nil": sub(self.nil), "rad_p": sub(self.rad_p),
            "method_used": self.method_used, "p_closed": self.p_closed,
            "status": self.status, "detail": self.detail,
        }


def radical_report(g: LieAlgebra, h: Subspace,
                   budget: int = DEFAULT_BUDGET) -> RadicalReport:
    rad = nil = rad_p = p_closed = None
    method = "structured"
    status, detail = "ok", ""
    try:
        rad = solvable_radical(g, h, budget)
        nil_out = nilradical(g, h, budget)
        nil = nil_out["nil"]
        prad_out = p_radical(g, h, budget)
        rad_p = prad_out["rad_p"]
        p_closed = prad_out["p_closed"]
        method = prad_out["method"]
    except Undetermined as exc:
        status, detail = "undetermined", str(exc)
        method = "enumeration"
    return RadicalReport(rad, nil, rad_p, method, p_closed, status, detail)
