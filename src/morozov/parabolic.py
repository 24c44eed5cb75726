"""Parabolic-subalgebra detection and the Killing-form detector.

A "parabolic" verdict always carries a witness (torus, root subset) with
the subalgebra rebuilt exactly as torus + root spaces over a closed subset
Phi' with Phi' u -Phi' = Phi.  A subalgebra in standard position is read
off the standard frame.  Otherwise detection builds a conjugating frame
from the ideal N = [q, q n q^perp] (trace form): a realization matrix P,
normalising g, such that P^-1 q P stabilises a standard flag
(`flag_frame`).  On gl/sl/pgl the columns of P run through the q-stable
flag V > NV > N^2 V > ... > 0 of the natural module; on sp and so they
are a Witt basis adapted to that flag closed under orthogonal complements,
so P^T J P = cJ for the realization's form J.  A frame verdict reports the
root subset of P^-1 q P (a standard parabolic), the split torus P t P^-1
inside q as torus_used, and P as a list of rows with "frame_translate":
True in details.  Re-conjugating q by P gives the standard parabolic
exactly, so the verdict is exact however P was found.  No Weyl translate
of the Borel is searched for: every such translate contains t, and when
the root differentials on t are pairwise distinct and nonzero (sp at
p >= 5, for one) a q containing t is t plus root lines, which the
standard frame already decides.
A "not-parabolic" verdict at odd p is certified by the frame itself: there
the flag of N is the one every parabolic stabilises (see flag_frame), so
when neither q nor P^-1 q P passes the coordinate test, q is not
parabolic, over the algebraic closure too, since N, its flag and their
orthogonal complements commute with extension of scalars.  At p = 2, where
a root can vanish on the torus (sl_2) and no frame is complete, it is
certified by a battery of extension-stable isomorphism invariants that
separates the input from every standard parabolic of matching dimension
(conjugation over the algebraic closure preserves each of them).  Anything
else is "undetermined" - never a false negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Optional

from .gfp import (Echelon, FieldMatrix, Subspace, _combine, image_flag,
                  inv_mod, kernel, rref, solve_linear, trace_gram)
from .liealg import (LieAlgebra, conjugate_subspace, coordinate_split,
                     standard_borel, standard_parabolic, weyl_matrices)
from .radicals import SubView
from .rootdata import is_closed, simple_subsets


@dataclass
class ParabolicVerdict:
    status: str                        # parabolic | not-parabolic | undetermined
    torus_used: Optional[Subspace] = None
    root_subset: Optional[tuple] = None
    failure_reason: Optional[str] = None
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "torus_used": None if self.torus_used is None
            else [list(r) for r in self.torus_used.basis],
            "root_subset": None if self.root_subset is None
            else [list(r) for r in self.root_subset],
            "failure_reason": self.failure_reason,
            "details": self.details,
        }


def iso_invariants(g: LieAlgebra, q: Subspace) -> tuple:
    """Extension-stable invariants of the subalgebra (dimension data of
    canonical constructions plus ambient normalizer/centralizer)."""
    view = SubView(g, q)
    derived = tuple(s.dim for s in view.derived_series(view.full_space()))
    lcs = tuple(s.dim for s in view.lower_central_series(view.full_space()))
    return (
        q.dim,
        derived,
        lcs,
        view.center().dim,
        rref(view.killing_gram())[1],
        g.normalizer(q).dim,
        g.centralizer(q).dim,
    )


def _nil_maps(g: LieAlgebra, q: Subspace) -> list:
    """The matrices of N = [q, q n q^perp] on the natural module, as maps;
    q^perp is taken under the trace form.  I = q n q^perp is the kernel of
    the `trace_gram` of the linear lifts of q's basis (on pgl with p not
    dividing n the trace-0 lift, the one representative of a class in
    [gl, gl]), and N the lifts of [q, I].  On pgl with p | n a class fixes
    no matrix: there the Gram is of q's representatives plus the scalars,
    and N is spanned by their commutators with I."""
    n, p = g.realization.n, g.p
    if g.realization.mod_scalars and n % p == 0:
        mats = [g.matrix_of(list(v)) for v in q.basis] + [
            FieldMatrix.identity(n, p)]
        entries = [m.entries for m in mats]
        ideal = [FieldMatrix(n, n, p, _combine(c, entries, n * n, p))
                 for c in kernel(trace_gram(mats, p)).basis]
        vecs = [(x @ y - y @ x).entries for x in mats for y in ideal]
        return [FieldMatrix(n, n, p, x).matvec
                for x in Subspace.from_vectors(vecs, n * n, p).basis]
    ideal = [q.combine(c) for c in kernel(trace_gram(
        [g.linear_lift(list(v)) for v in q.basis], p)).basis]
    vecs = [g.bracket_vec(list(x), y) for x in q.basis for y in ideal]
    return [g.linear_lift(list(v)).matvec
            for v in Subspace.from_vectors(vecs, g.dim, p).basis]


def _adapted(steps, n: int, p: int) -> list:
    """A basis running through the increasing subspaces `steps`, each
    step's new vectors taken from its canonical basis."""
    span = Echelon(n, p)
    return [v for step in steps for v in step.basis if span.add(v)]


def _witt_frame(g: LieAlgebra, flag: list) -> Optional[list]:
    """The columns of a matrix P with P^T J P = cJ that form a Witt basis
    adapted to `flag` closed under orthogonal complements; None when that
    closure is not a chain.  In flag order (the realization's columns
    e_1..e_k, f_k..f_1 on sp, the antidiagonal order on so) position t
    pairs with n-1-t.  The low positions take a basis of the isotropic
    steps, deepest first, each made orthogonal to the partners found so far
    by adding earlier ones, then isotropic vectors of the nondegenerate
    rest; each gets a partner b in the rest with (a, b) = 1, made isotropic
    by subtracting (b, b) / 2 times a.  On so_(2m+1) an anisotropic z stays
    in the middle, and the partners are scaled by c = (z, z).  Any Witt
    basis of the rest will do, as a standard parabolic contains all of sp
    or so of its middle block: this is also the plane step of so_2m, whose
    N-flag stops at V_(m-1) when q stabilises both isotropic lines of
    V_(m-1)^perp / V_(m-1).  On so_2m, P is made proper (inner over the
    algebraic closure, so P^-1 q P has q's own type and not its image under
    the outer automorphism) by swapping positions m-1 and m when its
    Lagrangian meets the standard one in a dimension other than m mod 2."""
    n, p = g.realization.n, g.p
    perm, sign = g.frame.form

    def pair(x, y):
        return sum(x[perm[c]] * s * y[c] for c, s in enumerate(sign)) % p

    def perp(vecs, space):
        return solve_linear(space, lambda y: [pair(x, y) for x in vecs])

    rest = Subspace.full(n, p)
    chain = sorted(set(flag) | {perp(s.basis, rest) for s in flag},
                   key=lambda s: s.dim)
    if not all(b.contains(a) for a, b in zip(chain, chain[1:])):
        return None
    # a step of at most half dimension lies in its complement, which is in
    # the chain with at least its dimension: it is isotropic
    todo = _adapted([s for s in chain if 2 * s.dim <= n], n, p)
    low, high = [], []
    while rest.dim > 1:
        if len(low) < len(todo):
            v = todo[len(low)]
            a = _combine([1] + [-pair(v, b) for b in high], [v] + low, n, p)
        else:
            # the rest stays split (Witt cancellation); a hyperbolic plane
            # has two isotropic lines, and a form in three variables over
            # F_p has a zero (Chevalley-Warning)
            a = next(v for v in (_combine(c, rest.basis[:3], n, p) for c in
                                 product(range(p), repeat=min(rest.dim, 3)))
                     if any(v) and not pair(v, v))
        u = next(u for u in rest.basis if pair(a, u))
        t = inv_mod(pair(a, u), p)
        b = _combine([t, -t * t * pair(u, u) * inv_mod(2, p)], [u, a], n, p)
        low.append(a)
        high.append(b)
        rest = perp([a, b], rest)
    c = pair(rest.basis[0], rest.basis[0]) if rest.dim else 1
    cols = low + list(rest.basis) + [[c * x % p for x in v]
                                    for v in reversed(high)]
    m = n // 2
    if g.frame.family == "so" and n % 2 == 0 and Subspace.from_vectors(
            [v[m:] for v in cols[:m]], m, p).dim % 2:
        cols[m - 1], cols[m] = cols[m], cols[m - 1]
    # J pairs column j with perm[j], an involution: a column of the upper
    # half of the flag order sits at position n-1-perm[j]
    return [cols[j if 2 * j < n else n - 1 - perm[j]] for j in range(n)]


def flag_frame(g: LieAlgebra, q: Subspace) -> Optional[FieldMatrix]:
    """A conjugating frame: a matrix P, normalising g, such that P^-1 q P
    stabilises a standard flag, read off N = [q, q n q^perp] (`_nil_maps`).
    For a parabolic q, q n q^perp is the nilradical, plus the scalars for
    sl_n with p | n; the bracket with q removes the scalars, and [q, u] = u
    at odd p because every root is nonzero on the torus, so N is the
    nilradical and V > NV > N^2 V > ... > 0 is the flag q stabilises
    (Borel-Tits).  On gl/sl/pgl the columns of P run through that flag,
    deepest step first.  On sp and so the flag is self-dual, and P is a
    Witt basis adapted to it (`_witt_frame`), which exists over F_p by
    Witt's theorem, the form being split.  Either way P^-1 q P lies in the
    standard parabolic of that flag type and has its dimension, so it is
    that parabolic.  None when N = 0, when the images stall above 0, when
    the flag closed under complements is not a chain, and on sp at p = 2.
    So at odd p a failure is a certificate: when this is None, or P^-1 q P
    is not a standard parabolic, q is not parabolic."""
    if q.dim == 0 or (g.frame.form is not None and g.p == 2):
        return None
    n, p = g.realization.n, g.p
    maps = _nil_maps(g, q)
    flag = image_flag(Subspace.full(n, p), maps) if maps else None
    if flag is None:
        return None
    cols = (_adapted(reversed(flag), n, p) if g.frame.form is None
            else _witt_frame(g, flag))
    return None if cols is None else FieldMatrix.from_rows(cols, p).transpose()


def contains_borel(g: LieAlgebra, q: Subspace):
    """Search the Weyl-translate frame for a Borel inside q; returns the
    translating matrix or None.  The frame covers permutation conjugates
    (type A) and signed block permutations (type C).  Nothing in the
    engine calls it (see the module docstring); the benchmark's tracer
    still wraps it."""
    b = standard_borel(g)["parabolic"]
    for w in weyl_matrices(g):
        if q.contains(conjugate_subspace(g, w, b)):
            return w
    return None


def detect_parabolic(g: LieAlgebra, q: Subspace) -> ParabolicVerdict:
    """The verdict on a subalgebra q: "parabolic" from the standard frame or
    the flag frame, with the witness; "not-parabolic" at odd p when both
    fail, and at p = 2 when the invariant battery separates q from every
    standard parabolic; else "undetermined" (see the module docstring)."""
    if not g.is_subalgebra(q):
        raise ValueError("input is not a subalgebra")
    if g.frame is None:
        return ParabolicVerdict("undetermined", failure_reason="no-torus-found",
                                details={"note": "algebra has no torus frame"})
    rd = g.frame.rootdatum
    allroots = set(rd.roots)

    def coordinate_verdict(s, extra):
        """The verdict on s = t + root lines, or None for any other s."""
        split = coordinate_split(g, s)
        if split is None or split[0].dim < len(g.frame.torus_indices):
            return None
        roots = tuple(sorted(root for root, _ in split[1]))
        closed = is_closed(rd, roots)
        symmetric = {tuple(-x for x in r) for r in roots} | set(roots) == allroots
        if closed and symmetric:
            details = {"criterion": "torus + closed root subset with "
                                    "Phi' u -Phi' = Phi"}
            details.update(extra)
            return ParabolicVerdict("parabolic", split[0], roots,
                                    details=details)
        reason = "not-closed" if not closed else "not-parabolic-subset"
        return ParabolicVerdict("candidate-failed", split[0], roots,
                                failure_reason=reason, details=extra)

    # a coordinate subset failing the parabolic-subset conditions falls
    # through to the frame certificate or the invariant battery
    partial = coordinate_verdict(q, {})
    if partial is not None and partial.status == "parabolic":
        return partial

    # conjugating frame: the flag of N finds every parabolic at odd p
    frame = flag_frame(g, q)
    if frame is not None:
        inverse = frame.inverse()
        verdict = coordinate_verdict(
            conjugate_subspace(g, inverse, q, frame),
            {"frame_translate": True, "frame": frame.to_rows()})
        if verdict is not None and verdict.status == "parabolic":
            verdict.torus_used = conjugate_subspace(
                g, frame, verdict.torus_used, inverse)
            return verdict
    details = {}
    if partial is not None:
        details["coordinate_failure"] = partial.failure_reason
    reason = details.get("coordinate_failure", "not-parabolic-subset")

    # at odd p the frame finds every parabolic (see flag_frame), so its
    # failure is the certificate
    if g.p > 2:
        kind = "type-A" if g.frame.form is None else "Witt"
        details["criterion"] = (f"{kind} flag frame of N = [q, q n q^perp] "
                                "gives no standard parabolic")
        if frame is not None:
            details["frame"] = frame.to_rows()
        return ParabolicVerdict("not-parabolic", failure_reason=reason,
                                details=details)

    # p = 2, where a root can vanish on the torus (sl_2) and no frame is
    # complete: the invariant battery against every standard parabolic of
    # equal dimension, in mask order; their invariants are memoised by
    # dimension
    key = ("std-parab-inv", q.dim)
    if key not in g._memo:
        pars = [(s, standard_parabolic(g, s)["parabolic"])
                for s in simple_subsets(rd.rank)]
        g._memo[key] = [(s, iso_invariants(g, par)) for s, par in pars
                        if par.dim == q.dim]
    inv = iso_invariants(g, q)
    matches = [chosen for chosen, pinv in g._memo[key] if pinv == inv]
    details.update(invariants=repr(inv), matching_standard_parabolics=matches)
    if not matches:
        return ParabolicVerdict("not-parabolic", failure_reason=reason,
                                details=details)
    return ParabolicVerdict("undetermined",
                            failure_reason="no-torus-found", details=details)


def killing_detector(g: LieAlgebra, p_cand: Subspace) -> dict:
    """Corollary-style detector: if the Killing orthogonal of p_cand is a
    nilpotent subalgebra then p_cand must be parabolic; asserts and
    cross-checks p_cand = N_g(p_cand^perp)."""
    if not g.killing_nondegenerate():
        raise ValueError("ambient Killing form is degenerate")
    perp = g.orthogonal(p_cand)
    out: dict = {"perp_dim": perp.dim}
    for key, test, what in (
            ("perp_is_subalgebra", g.is_subalgebra, "a subalgebra"),
            ("perp_is_nilpotent", g.is_nilpotent, "nilpotent")):
        out[key] = test(perp)
        if not out[key]:
            out.update(status="precondition-failed",
                       reason=f"orthogonal is not {what}")
            return out
    verdict = detect_parabolic(g, p_cand)
    out["detect_status"] = verdict.status
    out["normalizer_check"] = (g.normalizer(perp) == p_cand)
    out["status"] = ("ok" if verdict.status == "parabolic"
                     and out["normalizer_check"] else "mismatch")
    return out
