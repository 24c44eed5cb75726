"""Solvable radical, nilradical, p-radical and p-nilpotency testing.

The public operations take an ambient realized algebra and a subspace h and
return subspaces in ambient coordinates.  Most of them also compute there:
largest h-ideals, spins under ad(h) and the series of a subspace need only
the ambient bracket.  Views, subalgebras and quotients in their own
coordinates, are built only where h's own structure matters: the general
solvable-radical path (h's centre and Killing form, and the abelian-ideal
peeling recursion across quotients) and the ad_h-nilpotency enumeration.
A view is a `LieAlgebra` without a realization whose structure table is
filled once from its parent's bracket, so the one subalgebra calculus of
`liealg` runs on it unchanged.

Strategy notes:
  * an abelian ideal of h is always isotropic for h's own Killing form, so
    ker(kappa_h) = 0 certifies that no abelian ideal exists;
  * (ad v)^2 = 0 is necessary for v to lie in an abelian ideal, which makes
    the line scan over ker(kappa_h) a complete search;
  * for torus-stable inputs the p-nilpotent and ad-nilpotent cones split
    along coordinates when the root support is closed and lies in a
    positive system, avoiding enumeration entirely ("structured" method);
    by Gordan's theorem the latter holds exactly when 0 is not in the
    convex hull of the support, that is when its point of least norm
    (`rootdata.min_norm_point`) is nonzero;
  * in that split, the torus part of rad(h) is one linear solve: a torus
    vector lies in rad(h) exactly when it kills every root line whose
    spin ideal is not solvable;
  * "every element of the subalgebra u is p-nilpotent" is the Engel flag
    on the faithful families (gl, sl, sp, so): the iterated common kernel
    of u's basis matrices reaches the whole space exactly when u consists
    of nilpotent matrices (Engel's theorem holds in every characteristic),
    and there the p-power is the matrix p-th power;
  * enumeration with an explicit budget is the general fallback, and
    exceeding the budget is an Undetermined outcome, never a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# kernel and rref are unused here; the benchmark tracer's self-test checks
# that rebinding reaches every module importing them by name
from .gfp import Subspace, kernel, rref, solve_linear  # noqa: F401
from .liealg import Element, LieAlgebra, coordinate_split
from .rootdata import is_closed, min_norm_point

DEFAULT_BUDGET = 10 ** 7
SCAN_BUDGET = 4_000_000


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

def _faithful(g: LieAlgebra) -> bool:
    """Whether the p-power of g is the matrix p-th power of its
    realization: gl, sl, sp and so, but not pgl (realized up to scalars)
    and not a view (no realization)."""
    return g.realization is not None and not g.realization.mod_scalars


def _vec_p_nilpotent(alg: LieAlgebra, x) -> Optional[bool]:
    """x^[p]^m = 0 for some m <= dim, by iterating alg.p_power_vec; None
    when a p-power leaves the carrier of a view."""
    cur = list(x)
    for _ in range(alg.dim + 1):
        if not any(cur):
            return True
        cur = alg.p_power_vec(cur)
        if cur is None:
            return None
    return not any(cur)


def is_p_nilpotent(x: Element) -> bool:
    """x^[p]^m = 0 for some m <= dim.  On a faithful realization x^[p]^m
    is the matrix power x^(p^m), so this is nilpotency of x's matrix."""
    if _faithful(x.algebra):
        return x.matrix().is_nilpotent()
    return _vec_p_nilpotent(x.algebra, x.coords)


def _engel_flag_reaches_top(g: LieAlgebra, u: Subspace) -> bool:
    """Whether the flag 0 = W_0 < W_1 < ... with W_{k+1} = {v : b v in W_k
    for every basis matrix b of u} reaches the whole space V of the
    realization.  When it does, every element of u is nilpotent; for a Lie
    subalgebra u the converse is Engel's theorem."""
    n, p = g.realization.n, g.p
    mats = [g.matrix_of(b) for b in u.basis]
    top = Subspace.full(n, p)
    w = Subspace.zero(n, p)
    while w.dim < n:
        below = w
        w = solve_linear(top, lambda v: [
            c for m in mats for c in below.reduce_vector(m.matvec(v))])
        if w.dim == below.dim:
            return False
    return True


def is_p_nil_subalgebra(g: LieAlgebra, u: Subspace,
                        budget: int = DEFAULT_BUDGET) -> Optional[bool]:
    """Whether every element of the subalgebra u is p-nilpotent.  Exact at
    every size on the faithful families (the Engel flag); on pgl decided by
    enumerating u, and None when p^dim(u) exceeds the budget."""
    if _faithful(g):
        return _engel_flag_reaches_top(g, u)
    if g.p ** u.dim > budget:
        return None
    return all(is_p_nilpotent(g.element(v))
               for v in u.enumerate_vectors() if any(v))


# ---------------------------------------------------------------------------
# Abelian ideals and the solvable radical
# ---------------------------------------------------------------------------

def _abelian_spin_scan(view: View, region: Subspace, budget: int):
    """Complete scan for abelian ideals meeting `region` (which must
    contain every abelian ideal): spin all lines with (ad v)^2 = 0."""
    if region.dim == 0:
        return None
    if view.p ** region.dim > budget:
        raise Undetermined(
            f"abelian-ideal scan needs {view.p ** region.dim} vectors, over budget {budget}")
    import numpy as np

    from .bulk import bracket_tensor, square_zero_lines
    c = bracket_tensor(view)
    basis = np.array([list(b) for b in region.basis], dtype=np.int64)
    best = None
    for v in square_zero_lines(c, view.p, basis, max_vectors=budget):
        spun = view.spin_submodule(v)
        if view.bracket_spaces(spun, spun).dim == 0:
            if best is None or spun.dim < best.dim:
                best = spun
                if best.dim == 1:
                    break
    return best


def _centralizer_within(view: View, c: Subspace) -> Subspace:
    """{x in c : [x, c] = 0}; for an ideal c this is an abelian ideal of
    the whole view."""
    return solve_linear(c, lambda x: [
        v for b in c.basis for v in view.bracket_vec(x, list(b))])


def _find_solvable_ideal(view: View, budget: int):
    """A nonzero solvable ideal of the view, or None certified to mean the
    solvable radical is zero.

    Cheap certified constructions first (center; Killing kernel; the
    Cartan-style ideal orthogonal to [h,h]; centralizers and derived /
    lower-central limits of ideals already found), then the complete
    quadratic-cone scan of ker(kappa) as a last resort."""
    z = view.center()
    if z.dim:
        return z
    k = view.killing_kernel()
    if k.dim == 0:
        # every abelian ideal is kappa-isotropic; no abelian ideal means a
        # zero solvable radical
        return None
    full = view.full_space()
    d = view.orthogonal(view.bracket_spaces(full, full))
    worklist = [k, d, k.intersect(d)]
    seen = set()
    rounds = 0
    while worklist and rounds < 64:
        rounds += 1
        c = worklist.pop(0)
        if c.dim == 0 or c.basis in seen:
            continue
        seen.add(c.basis)
        if view.is_solvable(c):
            return c
        zc = _centralizer_within(view, c)
        if zc.dim:
            return zc
        worklist.append(view.bracket_spaces(c, c))
        worklist.append(view.lower_central_series(c)[-1])
        worklist.append(c.intersect(k))
    return _abelian_spin_scan(view, k, budget)


def _solvable_radical_view(view: View, budget: int) -> Subspace:
    if view.is_solvable(view.full_space()):
        return view.full_space()
    s = _find_solvable_ideal(view, budget)
    if s is None:
        return Subspace.zero(view.dim, view.p)
    quot = QuotientView(view, s)
    r = _solvable_radical_view(quot, budget)
    return quot.preimage(r)


def _distinct_torus_characters(g: LieAlgebra, roots) -> bool:
    """Whether the root characters on the finite torus T(F_p) are pairwise
    distinct and nontrivial: chi_a = chi_b iff a = b mod (p-1)."""
    m = g.p - 1
    items = [tuple(r) for r in roots] + [tuple([0] * g.frame.cochar_rank)]
    reduced = [tuple(x % m for x in r) for r in items]
    return len(set(reduced)) == len(items)


def _structured_solvable_radical(g: LieAlgebra, h: Subspace) -> Optional[Subspace]:
    """rad(h) for a coordinate-split h whose torus characters are pairwise
    distinct: every ideal of h is then coordinate-split (finite-torus
    Fourier projections), so the radical is the sum of the solvable
    spin-ideals of the coordinate directions of h."""
    split = coordinate_split(g, h)
    if split is None:
        return None
    torus_part, lines = split
    if not _distinct_torus_characters(g, [root for root, _ in lines]):
        return None
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


def solvable_radical(g: LieAlgebra, h: Subspace, budget: int = SCAN_BUDGET) -> Subspace:
    """Maximal solvable ideal of the subalgebra h, in ambient coordinates."""
    key = ("rad", h.basis, budget)
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
    coordinate-split subalgebra h: torus part killing every root line of h
    plus the whole root part of r."""
    split_r = coordinate_split(g, r)
    split_h = coordinate_split(g, h)
    if split_r is None or split_h is None or not _certified_root_support(
            g, [a for a, _ in split_r[1]]):
        return None
    # torus part: [z, e_beta] = 0 for every root line of h
    torus = solve_linear(split_r[0], lambda z: [
        c for _, idx in split_h[1] for c in g.bracket_vec(z, g.unit(idx))])
    vecs = [list(b) for b in torus.basis]
    vecs.extend(g.unit(idx) for _, idx in split_r[1])
    return g.subspace(vecs)


# ---------------------------------------------------------------------------
# Nilradical and p-radical
# ---------------------------------------------------------------------------

def _enumerate_cone(g: LieAlgebra, h: Subspace, r: Subspace, kind: str,
                    budget: int) -> tuple:
    """(span of the cone, is_subspace) by exhaustive enumeration of r: the
    p-nilpotent elements for kind "pnil", else those acting nilpotently
    on h."""
    if g.p ** r.dim > budget:
        raise Undetermined(
            f"enumeration of {g.p ** r.dim} elements exceeds budget {budget}")
    sub = SubView(g, h) if kind == "adnil" else None
    members = []
    for v in r.enumerate_vectors():
        if not any(v):
            continue
        if sub is None:
            ok = is_p_nilpotent(g.element(v))
        else:
            ok = sub.ad_matrix_vec(h.coordinates_of(v)).is_nilpotent()
        if ok:
            members.append(v)
    span = Subspace.from_vectors(members, g.dim, g.p)
    return span, len(members) + 1 == g.p ** span.dim


def pnil_part_of_radical(g: LieAlgebra, h: Subspace,
                         budget: int = DEFAULT_BUDGET) -> dict:
    """The set of p-nilpotent elements of rad(h): span, subspace flag and
    method; the tower consumes this directly."""
    key = ("pnilpart", h.basis, budget)
    if key in g._memo:
        return g._memo[key]
    r = solvable_radical(g, h)
    cone = _structured_pnil_cone(g, r)
    if cone is not None:
        out = {"span": cone, "cone_is_subspace": True, "method": "structured",
               "radical": r}
    else:
        span, is_sub = _enumerate_cone(g, h, r, "pnil", budget)
        out = {"span": span, "cone_is_subspace": is_sub, "method": "enumeration",
               "radical": r}
    g._memo[key] = out
    return out


def p_radical(g: LieAlgebra, h: Subspace, budget: int = DEFAULT_BUDGET) -> dict:
    """Maximal p-nil ideal of h: refine the p-nilpotent cone of rad(h) by
    the largest-ideal fixed point until every element is p-nilpotent."""
    part = pnil_part_of_radical(g, h, budget)
    span = part["span"]
    cone_flag = part["cone_is_subspace"]
    method = part["method"]
    while True:
        cand = g.largest_ideal_inside(h, span)
        if method == "structured":
            # cand sits inside the certified cone: all p-nilpotent
            break
        if is_p_nil_subalgebra(g, cand, budget):
            break
        if g.p ** cand.dim > budget:
            raise Undetermined("p-radical verification exceeds budget")
        good = [v for v in cand.enumerate_vectors()
                if any(v) and is_p_nilpotent(g.element(v))]
        span = Subspace.from_vectors(good, g.dim, g.p)
    p_closed = all(
        cand.contains_vector(g.p_power_vec(list(b))) for b in cand.basis)
    return {"rad_p": cand, "cone_is_subspace": cone_flag, "method": method,
            "p_closed": p_closed, "radical": part["radical"]}


def nilradical(g: LieAlgebra, h: Subspace, budget: int = DEFAULT_BUDGET) -> dict:
    """Maximal nilpotent ideal of h."""
    r = solvable_radical(g, h)
    cone = _structured_adnil_cone(g, h, r)
    method = "structured"
    if cone is None:
        method = "enumeration"
        cone, _ = _enumerate_cone(g, h, r, "adnil", budget)
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
    p_nilpotent_cone_is_subspace: Optional[bool]
    method_used: str
    p_closed: Optional[bool] = None
    status: str = "ok"
    detail: str = ""

    def as_dict(self) -> dict:
        def sub(s):
            return None if s is None else [list(r) for r in s.basis]
        return {
            "rad": sub(self.rad), "nil": sub(self.nil), "rad_p": sub(self.rad_p),
            "p_nilpotent_cone_is_subspace": self.p_nilpotent_cone_is_subspace,
            "method_used": self.method_used, "p_closed": self.p_closed,
            "status": self.status, "detail": self.detail,
        }


def radical_report(g: LieAlgebra, h: Subspace,
                   budget: int = DEFAULT_BUDGET) -> RadicalReport:
    rad = nil = rad_p = cone_flag = p_closed = None
    method = "structured"
    status, detail = "ok", ""
    try:
        rad = solvable_radical(g, h)
        nil_out = nilradical(g, h, budget)
        nil = nil_out["nil"]
        prad_out = p_radical(g, h, budget)
        rad_p = prad_out["rad_p"]
        cone_flag = prad_out["cone_is_subspace"]
        p_closed = prad_out["p_closed"]
        method = prad_out["method"]
    except Undetermined as exc:
        status, detail = "undetermined", str(exc)
        method = "enumeration"
    return RadicalReport(rad, nil, rad_p, cone_flag, method, p_closed,
                         status, detail)
