"""Solvable radical, nilradical, p-radical and p-nilpotency testing.

The public operations take an ambient realized algebra and a subspace h and
return subspaces in ambient coordinates.  Most of them also compute there:
largest h-ideals, the series of a subspace and the ad_h-nilpotency of an
element need only the ambient bracket.  rad(h) takes the first of four
exact steps that applies (`solvable_radical`): the structured path for a
coordinate-split h; h itself when its derived series in g reaches 0; the
structured path on P^-1 h P for h's flag frame P (`parabolic.flag_frame`),
conjugated back, when P^-1 h P is split, as on every conjugated parabolic;
else the one peel loop.  Conjugation by P is an automorphism of g (any P
on gl and sl, mod scalars on pgl, a similitude on sp and so) and rad is
characteristic, so rad(h) = P rad(P^-1 h P) P^-1, and the canonical
subspace found does not depend on the step.  Both moves are read off P's
images of g's basis (`parabolic.frame_images`): the split of P^-1 h P
(`parabolic.moved_split`) goes to the structured step as it is
(`_split_radical`), and its radical comes back as the span of the images
(`parabolic.frame_span`), with no matrix product.  One view, `SubView`,
the sub-quotient sub/ideal in its own coordinates, is built only where h's
own structure matters: the peel loop (`_view_radical`), which grows a
solvable ideal S of h by the preimage of a solvable ideal of h/S, found
from the centre and Killing form of h/S's view, until h/S is solvable or
has none.  A view is a `LieAlgebra` without a realization whose structure
table is filled once from its parent's bracket, so the one subalgebra
calculus of `liealg` runs on it unchanged.

Strategy notes:
  * every abelian ideal of h lies in k = ker(kappa_h), and the last
    nonzero derived term of rad(h) is one, so k = 0 certifies rad(h) = 0;
    for a proper k, rad(k) comes from the same peel loop on k inside h's
    view, and the largest ideal of h inside it is nonzero exactly when
    rad(h) is;
  * every radical ideal is read off the Jacobson radical J(A) of an
    associative envelope (`gfp.jacobson_radical`), exactly at every p.
    Let A be generated by 1 and the matrices lift(x), x in a Lie algebra L
    acting on a module V by lift.  An ideal I of L acting nilpotently
    kills every composition factor W of V, as W^I is nonzero (Jacobson's
    theorem on weakly closed sets of nilpotent operators) and L-stable; so
    lift(I) lies in J(A), and every x with lift(x) in J(A) acts
    nilpotently.  Where kappa_h vanishes identically, the nilradical
    {x : ad x in J(A_ad)} of h's view is therefore an ideal, nonzero
    exactly when rad(h) is.  nil(h) and rad_p(h) are the largest h-ideals
    inside P = {x in rad(h) : lift(x) in J(A)}, A generated by 1 and the
    lifts of rad(h): ad_h for nil(h), `LieAlgebra.linear_lift` for rad_p(h)
    (both radicals are ideals of rad(h) acting nilpotently), each kept as
    one memoised record of rad(h), P and the ideal (`_radical_ideal`), an
    undecided P as its reason.  The largest h-ideal inside the set C of x
    with lift(x) nilpotent, when C is a subspace, is the same radical: its
    lifts form a Lie algebra of nilpotent matrices, which acts nilpotently;
  * a coordinate-split subspace is read as its torus part and its set of
    root indices (`coordinate_split`) and written back by
    `liealg.split_sum` (`liealg` notes).  For a split h, the spin ideals
    of its root lines and their derived terms are root indices plus
    coroots [e_c, e_-c].  The spins are reachability in one graph on h's
    root lines (`LieAlgebra.line_graph`): a line points to its brackets
    with h's lines, and through each coroot it brackets to, to the lines
    that coroot does not kill; each line's spin is its reach, found by a
    plain search (`_reach`).  The derived terms come from `split_bracket`; a
    torus vector lies in rad(h) when it kills every root line whose spin
    ideal is not solvable; the structured rad(h) and cone are written by
    `split_sum`;
  * an element x is p-nilpotent exactly when `LieAlgebra.linear_lift`
    of x, a matrix linear in x, is nilpotent: the matrix of x, shifted by
    tr/n on pgl with p not dividing n; on pgl with p | n, ad x, as the
    centre of pgl_n is 0 and ad(x^[p]) = ad(x)^p;
  * the p-nil gate: a split u of root lines in a positive system is p-nil
    by the structured step's weight filtration; else u is p-nil exactly
    when the Engel flag of its basis lifts, which map u onto a Lie algebra
    of matrices, reaches 0, by Jacobson's theorem on weakly closed sets;
  * P comes from the first of two certificates (`_nilpotent_cone`).
    "structured": a coordinate-split rad(h) whose roots lie in a positive
    system gives its root part plus the torus elements with lift 0.
    "envelope": all of rad(h) when its lifts act nilpotently together,
    else one linear solve against J(A).  Past gfp's cap on A's word basis,
    "enumeration": the one walk (`_walk`) over the p^dim vectors of rad(h),
    within DEFAULT_BUDGET, gives C in place of P, or leaves it undecided
    when the budget is passed or C is no subspace: never a guess.  Only a
    radical ideal whose envelope passes that cap walks: the tower steps by
    rad_p (`tower` notes), which is certified wherever the envelope fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# kernel and rref are unused here; the benchmark tracer's self-test checks
# that rebinding reaches every module importing them by name
from .gfp import (FieldMatrix, InputError, Subspace,  # noqa: F401
                  image_flag, jacobson_radical, kernel, rref, solve_linear)
from .liealg import Element, LieAlgebra, coordinate_split, split_sum
from .parabolic import flag_frame, frame_images, frame_span, moved_split
from .rootdata import is_closed

DEFAULT_BUDGET = 10 ** 7    # the walk


class Undetermined(Exception):
    """Raised where the walk gives up: past DEFAULT_BUDGET, or on a set
    that is no subspace (`_walk`)."""


# ---------------------------------------------------------------------------
# The view: a sub-quotient as a structure-constant algebra
# ---------------------------------------------------------------------------

class SubView(LieAlgebra):
    """The sub-quotient sub/ideal of a parent algebra, for a bracket-closed
    subspace sub and an ideal of it (default 0), carried by the parent
    instead of a realization.  Its coordinates are those of the canonical
    basis of sub reduced modulo the ideal; local vectors are plain int
    lists.  The structure table is filled once from the parent's bracket,
    and a subspace that is not closed raises ValueError."""

    realization = frame = family = None

    def __init__(self, parent: LieAlgebra, sub: Subspace,
                 ideal: Optional[Subspace] = None):
        self.parent = parent
        self.p = parent.p
        self.ideal = ideal if ideal is not None and ideal.dim else None
        if self.ideal is not None:
            sub = Subspace.from_vectors(map(ideal.reduce_vector, sub.basis),
                                        sub.ambient_dim, self.p)
        self.sub = sub
        self.dim = sub.dim
        self._memo = {}

        def bracket_of(i, j):
            coords = self.local(parent.bracket_vec(self.lift(self.unit(i)),
                                                   self.lift(self.unit(j))))
            if coords is None:
                raise ValueError("subspace is not closed under the bracket")
            return coords
        self._set_structure(bracket_of)

    def lift(self, x) -> list:
        return self.sub.combine(x)

    def local(self, vec) -> Optional[list]:
        """Local coordinates of a parent vector, None off sub + ideal."""
        if self.ideal is not None:
            vec = self.ideal.reduce_vector(vec)
        return self.sub.coordinates_of(vec)

    def p_power_vec(self, x):
        """Local p-power, or None when it leaves sub + ideal."""
        up = self.parent.p_power_vec(self.lift(x))
        return None if up is None else self.local(up)

    def lift_subspace(self, s: Subspace) -> Subspace:
        """The preimage of s in the parent: its lifts plus the ideal."""
        vecs = [self.lift(list(b)) for b in s.basis]
        if self.ideal is not None:
            vecs += self.ideal.basis
        return Subspace.from_vectors(vecs, self.sub.ambient_dim, self.p)

    def restrict_subspace(self, s: Subspace) -> Subspace:
        coords = [self.local(list(b)) for b in s.basis]
        if None in coords:
            raise ValueError("subspace escapes the subalgebra")
        return Subspace.from_vectors(coords, self.dim, self.p)


# g as a view of itself; it stays only because perfbench/test_perfbench.py
# calls it
def AmbientView(g: LieAlgebra) -> SubView:
    return SubView(g, g.full_space())


# ---------------------------------------------------------------------------
# p-nilpotency
# ---------------------------------------------------------------------------

def is_p_nilpotent(x: Element) -> bool:
    """x^[p]^m = 0 for some m: exactly when the matrix
    `LieAlgebra.linear_lift` of x is nilpotent, on every family, pgl
    included.  x must lie in a realized algebra, not in a view."""
    return x.algebra.linear_lift(x.coords).is_nilpotent()


def is_p_nil_subalgebra(g: LieAlgebra, u: Subspace) -> bool:
    """Whether every element of the subalgebra u is p-nilpotent, with no
    budget.  A coordinate-split u of root lines with a certified root
    support is p-nil by the weight filtration of `_nilpotent_cone`'s
    structured step; else u is p-nil when the Engel flag W_0 = F^m,
    W_(k+1) = span{L w} of its basis lifts L (`LieAlgebra.linear_lift`,
    m x m matrices) reaches 0 (module notes)."""
    split = _certified_split(g, u)
    if split is not None and not split[0].dim:
        return True
    return _act_nilpotently([g.linear_lift(list(b)) for b in u.basis], g.p)


def _act_nilpotently(lifts, p: int) -> bool:
    """Whether the matrices `lifts` generate a nilpotent associative
    algebra: their Engel flag W_0 = F^m, W_(k+1) = span{L w} reaches 0."""
    return not lifts or image_flag(Subspace.full(lifts[0].rows, p),
                                   [m.matvec for m in lifts]) is not None


def check_p_nil(g: LieAlgebra, u: Subspace, what: str = "input") -> None:
    """The one p-nil gate (`is_p_nil_subalgebra`: a certified root support,
    else one Engel flag), exact on every family: InputError when the
    subalgebra u is not p-nil."""
    if not is_p_nil_subalgebra(g, u):
        raise InputError(f"{what} is not p-nil")


# ---------------------------------------------------------------------------
# The solvable radical
# ---------------------------------------------------------------------------

def _find_solvable_ideal(view: SubView):
    """A nonzero solvable ideal of the view, or None certified to mean the
    solvable radical is zero.

    Every abelian ideal A lies in the Killing kernel k (for x in A,
    (ad x ad y)^2 = 0), and the last nonzero derived term of rad(view) is
    one.  So k = 0 certifies rad(view) = 0; for a proper k, the largest
    ideal of the view inside rad(k) is solvable and contains that term,
    hence nonzero exactly when rad(view) is.  When the Killing form
    vanishes identically, the nilradical {x : ad x in J(A_ad)} is an ideal
    holding that term (module notes)."""
    z = view.center()
    if z.dim:
        return z
    k = view.killing_kernel()
    if k.dim == 0:
        return None
    if k.dim == view.dim:
        inside = _nilpotent_cone(view, k, view.ad_matrix_vec,
                                 "ad-nilpotent elements of a view")[0]
    else:
        inside = _view_radical(view, k)
    ideal = view.largest_ideal_inside(view.full_space(), inside)
    return ideal if ideal.dim else None


def _view_radical(parent: LieAlgebra, h: Subspace) -> Subspace:
    """rad(h) in the parent's coordinates, peeling solvable ideals: S grows
    by the preimage of a solvable ideal of h/S, read in h/S's own view,
    until h/S is solvable (rad(h) = h) or has none (rad(h) = S)."""
    s = Subspace.zero(parent.dim, parent.p)
    while True:
        view = SubView(parent, h, s)
        if view.is_solvable(view.full_space()):
            return h
        found = _find_solvable_ideal(view)
        if found is None:
            return s
        s = view.lift_subspace(found)


def _reach(succ: dict) -> dict:
    """Each node of the graph succ (node -> the set of its successors)
    mapped to the frozenset of nodes it reaches, itself included, by a
    plain search from each node: a line's reach in `LieAlgebra.line_graph`
    is the root part of its spin ideal."""
    reach = {}
    for v in succ:
        seen, todo = {v}, [v]
        while todo:
            new = succ[todo.pop()] - seen
            seen |= new
            todo.extend(new)
        reach[v] = frozenset(seen)
    return reach


def _structured_solvable_radical(g: LieAlgebra, h: Subspace) -> Optional[Subspace]:
    """rad(h) for a coordinate-split h (`_split_radical`), written by
    `split_sum`; None for any other h."""
    split = coordinate_split(g, h)
    if split is None:
        return None
    torus, lines = _split_radical(g, split)
    return split_sum(g, lines, torus)


def _split_radical(g: LieAlgebra, split: tuple) -> tuple:
    """rad(h) for a coordinate-split h, at every p, with no budget, from
    h's split (torus part, root indices) and in that form.
    rad(h) is a characteristic ideal, and it commutes with extension to the
    algebraic closure (Galois descent), so it is T-stable and split
    (`liealg` notes): the sum of the solvable spin-ideals of the coordinate
    directions of h, which, like their derived terms, are split.  The
    spins are read off one graph (`LieAlgebra.line_graph`, `_reach`), and
    the derived series is decided once per distinct spin."""
    torus_part, lines = split
    spins, solvable = _reach(g.line_graph(lines)), {}
    for spin in set(spins.values()):
        # the derived series reaches an abelian torus part, or stalls (one
        # term late: a term's torus vectors need not be a basis)
        term = (set(spin), g.split_bracket(spin, lines, ())[1])
        while term[0] and term != (
                derived := g.split_bracket(term[0], term[0], term[1])):
            term = derived
        solvable[spin] = not term[0]
    wild = [idx for idx in lines if not solvable[spins[idx]]]
    # spin(z) = <z> + the spins of the root lines z does not kill, and <z>
    # leaves solvability alone: z is in rad(h) iff it kills each wild line,
    # the coroots of the solvable spins among them
    return solve_linear(torus_part, lambda z: [
        g.character(z, idx) for idx in wild]), lines.difference(wild)


def _framed_radical(g: LieAlgebra, h: Subspace) -> Optional[Subspace]:
    """rad(h) = P rad(P^-1 h P) P^-1 for the flag frame P of h
    (`parabolic.flag_frame`), when P^-1 h P is coordinate-split; else None.
    Conjugation by P is an automorphism of g, and rad is characteristic.
    h is moved into the frame, and rad back out, through the frame's images
    of g's basis (`parabolic.frame_images`), with no matrix product."""
    frame = None if g.frame is None else flag_frame(g, h)
    if frame is None:
        return None
    images = frame_images(g, (frame, frame.inverse()))
    split = moved_split(g, images, h)
    return None if split is None else frame_span(
        g, images, _split_radical(g, split))


def solvable_radical(g: LieAlgebra, h: Subspace) -> Subspace:
    """Maximal solvable ideal of the subalgebra h, in ambient coordinates,
    from the first of four steps that applies: the structured path for a
    coordinate-split h; h itself when it is solvable, tested in g with no
    view; the structured path on P^-1 h P, conjugated back, when h's flag
    frame P makes it split (`_framed_radical`); else the peel loop.  Each
    is exact (module notes), so rad(h), a canonical subspace, does not
    depend on the step that found it."""
    key = ("rad", h.basis)
    if key not in g._memo:
        g.check_subalgebra(h)
        out = _structured_solvable_radical(g, h)
        if out is None:
            out = h if g.is_solvable(h) else _framed_radical(g, h)
        if out is None:
            out = _view_radical(g, h)
        g._memo[key] = out
    return g._memo[key]


# ---------------------------------------------------------------------------
# Nilpotent cones
# ---------------------------------------------------------------------------

def _certified_root_support(g: LieAlgebra, roots) -> bool:
    """Whether a set of roots is closed and lies in a positive system.  A
    closed set lies in a positive system exactly when it holds no pair
    +-alpha (Bourbaki, Lie VI, 1.7, Prop. 22)."""
    return is_closed(g.frame.rootdatum, roots) and \
        {tuple(-x for x in r) for r in roots}.isdisjoint(roots)


def _certified_split(g: LieAlgebra, s: Subspace) -> Optional[tuple]:
    """`coordinate_split` of s when its root indices have a certified
    support (`_certified_root_support`), else None."""
    split = coordinate_split(g, s)
    return split if split is not None and _certified_root_support(
        g, [g.frame.index_root[i] for i in split[1]]) else None


def _nilpotent_cone(g: LieAlgebra, r: Subspace, lift, what: str) -> tuple:
    """(P, method) for P = {x in r : lift(x) in J(A)}, A generated by 1
    and the lifts of r's basis, lift(x) a matrix linear in x, from the
    first certificate that holds.  Past gfp's cap on A's word basis P is
    the set C of x in r with a nilpotent lift, named `what`, from the walk
    (`_walk`): the largest h-ideal inside either P or C is the same radical
    (module notes).

    "structured": r is coordinate-split with a certified root support
    (`_certified_split`); P is r's root part plus the z in its torus
    part with lift(z) = 0, one linear solve, and it is every x in r with a
    nilpotent lift.  Write x = z + n, z in the torus part and n in the root
    part.  lift(z) is semisimple, the diagonal torus action on a z-stable
    space.  r's roots lie in a positive system, so a cocharacter is
    positive on each; lift(n) raises its weight and lift(z) keeps it.  On
    the graded pieces of the weight filtration of the lift's space lift(x)
    thus acts as lift(z): it is nilpotent exactly when the semisimple
    lift(z) is, that is, when lift(z) = 0; and the lifts that raise the
    filtration form a nilpotent ideal of A, inside J(A).
    "envelope": P = r when the lifts generate a nilpotent algebra N (none
    for r = 0), as then A = F + N and J(A) = N; else `gfp.jacobson_radical`
    of the lifts, and one linear solve."""
    split = _certified_split(g, r)
    if split is not None:
        torus = solve_linear(split[0], lambda z: lift(z).entries)
        return split_sum(g, split[1], torus), "structured"
    lifts = [lift(list(b)) for b in r.basis]
    if _act_nilpotently(lifts, r.p):
        return r, "envelope"
    radical = jacobson_radical(lifts)
    if radical is None:
        return _walk(r, lift, what), "enumeration"
    return solve_linear(r, lambda x: radical.reduce(lift(x).entries)), \
        "envelope"


def _walk(r: Subspace, lift, what: str) -> Subspace:
    """The set of x in r with lift(x) nilpotent, named `what`, by the one
    walk over the p^dim(r) vectors of r; Undetermined when it passes
    DEFAULT_BUDGET, or when the set is not a subspace, since its span need
    not act nilpotently."""
    if r.p ** r.dim > DEFAULT_BUDGET:
        raise Undetermined(f"enumeration of {r.p ** r.dim} elements "
                           f"exceeds budget {DEFAULT_BUDGET}")
    members = [v for v in r.enumerate_vectors()
               if any(v) and lift(v).is_nilpotent()]
    span = Subspace.from_vectors(members, r.ambient_dim, r.p)
    if len(members) + 1 != r.p ** span.dim:
        raise Undetermined(f"the {what} do not form a subspace")
    return span


def _ad_lift(g: LieAlgebra, h: Subspace):
    """x -> ad x on the subalgebra h, for x in h, as a matrix in the
    coordinates of h's canonical basis."""
    def lift(x):
        cols = [h.coordinates_of(g.bracket_vec(x, list(b))) for b in h.basis]
        return FieldMatrix(h.dim, h.dim, g.p, [c for row in zip(*cols)
                                               for c in row])
    return lift


# ---------------------------------------------------------------------------
# Nilradical and p-radical
# ---------------------------------------------------------------------------

def _radical_ideal(g: LieAlgebra, h: Subspace, kind: str) -> dict:
    """The one record of a radical ideal of h, memoised, an Undetermined
    too (exact under the one walk budget): "radical", rad(h); "cone", the
    P of `_nilpotent_cone` on it under the lift of `kind`,
    `LieAlgebra.linear_lift` for "rad_p" and ad_h (`_ad_lift`) for "nil",
    with its "method"; and under `kind`, the largest h-ideal inside P
    (module notes).  It never walks where the envelope fits."""
    key = (kind, h.basis)
    if key not in g._memo:
        try:
            r = solvable_radical(g, h)
            lift, nilpotent = ((g.linear_lift, "p") if kind == "rad_p"
                               else (_ad_lift(g, h), "ad"))
            cone, method = _nilpotent_cone(
                g, r, lift, f"{nilpotent}-nilpotent elements of rad(h)")
        except Undetermined as exc:
            g._memo[key] = str(exc)     # its reason, not its frames
            raise
        g._memo[key] = {kind: g.largest_ideal_inside(h, cone), "cone": cone,
                        "method": method, "radical": r}
    if isinstance(g._memo[key], str):
        raise Undetermined(g._memo[key])
    return g._memo[key]


def pnil_part_of_radical(g: LieAlgebra, h: Subspace) -> dict:
    """The record of rad_p(h) (`_radical_ideal`): "radical", its "cone"
    under `LieAlgebra.linear_lift` with its "method", and "rad_p"."""
    return _radical_ideal(g, h, "rad_p")


def p_radical(g: LieAlgebra, h: Subspace) -> dict:
    """Maximal p-nil ideal of h, "rad_p" of the record that
    `pnil_part_of_radical` reads: that call runs every time, so
    `perfbench/layertrace.py`, counting the cone's paths there, sees each
    use."""
    return pnil_part_of_radical(g, h)


def nilradical(g: LieAlgebra, h: Subspace) -> dict:
    """Maximal nilpotent ideal of h, "nil" of its record (`_radical_ideal`):
    the largest h-ideal inside the cone of ad_h on rad(h); by the
    structured step, which needs rad(h) split but not h, P is its root
    part plus its torus elements central in h."""
    return _radical_ideal(g, h, "nil")


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


def radical_report(g: LieAlgebra, h: Subspace) -> RadicalReport:
    rad = nil = rad_p = p_closed = None
    method = "structured"
    status, detail = "ok", ""
    try:
        rad = solvable_radical(g, h)
        nil = nilradical(g, h)["nil"]
        prad_out = p_radical(g, h)
        rad_p, method = prad_out["rad_p"], prad_out["method"]
        p_closed = g.is_p_closed(rad_p)
    except Undetermined as exc:
        status, detail, method = "undetermined", str(exc), "enumeration"
    return RadicalReport(rad, nil, rad_p, method, p_closed, status, detail)
