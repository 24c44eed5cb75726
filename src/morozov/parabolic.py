"""Parabolic-subalgebra detection and the Killing-form detector.

A "parabolic" verdict always carries a witness (torus, root subset) with
the subalgebra rebuilt exactly as torus + root spaces over a closed subset
Phi' with Phi' u -Phi' = Phi.  A subalgebra in standard position is read
off the standard frame.  Otherwise `flag_frame` reads the flag
V > NV > N^2 V > ... > 0 of the natural module that every parabolic q
stabilises, for N = [q, q n q^perp] (trace form) at odd p and the
Jacobson radical of q's associative envelope at p = 2 and on pgl with
p | n.  It builds a realization matrix P, normalising g, such that
P^-1 q P stabilises a standard flag: on gl/sl/pgl its columns run through
the flag, on sp and so they are a Witt basis adapted to it, so
P^T J P = cJ for the realization's form J.  A frame verdict reports the
root subset of P^-1 q P (a standard parabolic), the split torus P t P^-1
inside q as torus_used, "frame_translate": True in details, and the frame
as the pair (P, P^-1), its `frame`, which the payload writes as P's rows
(details "frame"); conjugating q by it gives the standard parabolic
exactly.  A "not-parabolic" verdict carries its frame, if any, and is
certified by it, at every p: when neither q nor P^-1 q P passes the
coordinate test, q is not parabolic, over the algebraic closure too,
since N, its flag and their orthogonal complements commute with extension
of scalars.  "undetermined" is left for an algebra with no torus frame:
never a false negative.  The envelope of the frame is never capped, as
every realization read through J has n <= 10 and `gfp.jacobson_radical`
caps only past all of M_16.  The invariant battery `iso_invariants` and
`contains_borel` are off the detection path; the benchmark's tracer still
wraps them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Optional

from .gfp import (Echelon, FieldMatrix, Subspace, _combine, image_flag,
                  inv_mod, jacobson_radical, kernel, rref, solve_linear,
                  trace_gram)
from .liealg import (LieAlgebra, conjugate_subspace, coordinate_split,
                     standard_borel, weyl_matrices)
from .radicals import SubView
from .rootdata import is_closed


@dataclass
class ParabolicVerdict:
    status: str                        # parabolic | not-parabolic | undetermined
    torus_used: Optional[Subspace] = None
    root_subset: Optional[tuple] = None
    failure_reason: Optional[str] = None
    details: dict = field(default_factory=dict)
    frame: Optional[tuple] = None      # (P, P^-1) when flag_frame built P

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "torus_used": None if self.torus_used is None
            else [list(r) for r in self.torus_used.basis],
            "root_subset": None if self.root_subset is None
            else [list(r) for r in self.root_subset],
            "failure_reason": self.failure_reason,
            "details": self.details if self.frame is None
            else {**self.details, "frame": self.frame[0].to_rows()},
        }


def iso_invariants(g: LieAlgebra, q: Subspace) -> tuple:
    """Extension-stable invariants of the subalgebra (dimension data of
    canonical constructions plus ambient normalizer/centralizer)."""
    view = SubView(g, q)
    derived = tuple(s.dim for s in view.derived_series(view.full_space()))
    lcs = tuple(s.dim for s in view.lower_central_series(view.full_space()))
    return (q.dim, derived, lcs, view.center().dim,
            rref(view.killing_gram())[1], g.normalizer(q).dim,
            g.centralizer(q).dim)


def _nil_maps(g: LieAlgebra, q: Subspace) -> list:
    """Matrices spanning N = [q, q n q^perp] on the natural module, as maps:
    I = q n q^perp, under the trace form, is the kernel of the `trace_gram`
    of the linear lifts of q's basis (on pgl the trace-0 lift, in
    [gl, gl]), and N is spanned by the brackets [x, y], x in q's basis and
    y in I's, grown in one `Echelon`.  On a subalgebra q, N lies in I: the
    form is invariant and the lift a Lie homomorphism, so I is an ideal of
    q.  So the brackets stop once their rank is dim I, where N = I and the
    maps are the lifts of I's basis; below that rank they are the lifts of
    N's canonical rows.  `image_flag` reads only their span.  On any other
    q the maps are whatever the stop leaves: `detect_parabolic` then
    raises."""
    ideal = [q.combine(c) for c in kernel(trace_gram(
        [g.linear_lift(list(v)) for v in q.basis], g.p)).basis]
    span = Echelon(g.dim, g.p)
    for x in q.basis:
        for y in ideal:
            if span.add(g.bracket_vec(list(x), y)) \
                    and len(span.kept) == len(ideal):
                return [g.linear_lift(y).matvec for y in ideal]
    return [g.linear_lift(list(v)).matvec for v in span.rows(g.dim)]


def _by_jacobson(g: LieAlgebra) -> bool:
    """At p = 2 and on pgl with p | n the frame reads J(A(q))."""
    real = g.realization
    return g.p == 2 or (real.mod_scalars and real.n % g.p == 0)


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
    by subtracting (b, b) / 2 times a, a term dropped at p = 2, where the
    form of sp is alternating.  On so_(2m+1) an anisotropic z stays
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
        half = 0 if p == 2 else pair(u, u) * inv_mod(2, p)
        b = _combine([t, -t * t * half], [u, a], n, p)
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
    stabilises a standard flag, V > NV > N^2 V > ... > 0 for an ideal N of
    q's matrices; for a parabolic q, the flag q stabilises (Borel-Tits).
    At odd p, off pgl with p | n, N = [q, q n q^perp] (`_nil_maps`), the
    nilradical, inside the ideal q n q^perp: the bracket with q removes the
    scalars of q n q^perp (sl_n with p | n), and every root is nonzero on
    the torus.  At p = 2 (N = 0 for a Borel of sl_2) and on pgl with
    p | n, N = J(A(q)), A(q) generated by 1 and the `matrix_of` of q's
    basis (`gfp.jacobson_radical`).  J commutes with extension of scalars and
    with conjugation, so it suffices that J(A(q)) = U, the strictly
    block-triangular matrices of the flag, for a standard q: A(q) lies
    between U and the block-triangular matrices, and A(q)/U maps onto the
    full matrix algebra of each block, a subdirect product of simple
    algebras, so semisimple.  On gl/sl/pgl the columns of P run through
    the flag, deepest step first; on sp and so P is a Witt basis adapted
    to it (`_witt_frame`), which exists over F_p by Witt's theorem, the
    form being split.  P^-1 q P lies in the standard parabolic of that
    flag type and has its dimension, so it is that parabolic.  A failure
    thus certifies that q is not parabolic: None (N = 0, the images stall
    above 0, or the flag closed under complements is no chain), or a
    P^-1 q P that is not standard.  A(q) is n x n with n <= 10, far
    inside the envelope's word cap.  q need not be a subalgebra: on any
    other q, P is still a frame, and no P^-1 q P is standard."""
    if q.dim == 0:
        return None
    n, p = g.realization.n, g.p
    if _by_jacobson(g):
        radical = jacobson_radical([g.matrix_of(list(v)) for v in q.basis])
        maps = [FieldMatrix(n, n, p, row).matvec
                for row in radical.rows(n * n)]
    else:
        maps = _nil_maps(g, q)
    flag = image_flag(Subspace.full(n, p), maps) if maps else None
    if flag is None:
        return None
    cols = (_adapted(reversed(flag), n, p) if g.frame.form is None
            else _witt_frame(g, flag))
    return None if cols is None else FieldMatrix.from_rows(cols, p).transpose()


def contains_borel(g: LieAlgebra, q: Subspace):
    """A Weyl-group matrix (`weyl_matrices`, types A and C) moving the
    standard Borel into q, or None.  Off the detection path; the
    benchmark's tracer still wraps it."""
    b = standard_borel(g)["parabolic"]
    for w in weyl_matrices(g):
        if q.contains(conjugate_subspace(g, w, b)):
            return w
    return None


def detect_parabolic(g: LieAlgebra, q: Subspace) -> ParabolicVerdict:
    """The verdict on a subalgebra q: "parabolic" from the standard frame or
    the flag frame, with the witness; "not-parabolic" when both fail, at
    every p; "undetermined" with no torus frame (see the module
    docstring).  InputError when q is not a subalgebra, from the one gate
    `LieAlgebra.check_subalgebra`, which runs only where no verdict
    certifies it: a standard parabolic q or P^-1 q P, t plus a closed root
    subset, is a subalgebra, and so is q, conjugation by P being an
    automorphism of g (any P on type A, mod scalars on pgl, a similitude
    on sp and so).  The root-index test of that standard parabolic
    (`split_closed`) stays as the explicit check; the gate runs before a
    "not-parabolic" verdict."""
    if g.frame is None:
        g.check_subalgebra(q)
        return ParabolicVerdict("undetermined", failure_reason="no-torus-found",
                                details={"note": "algebra has no torus frame"})
    rd = g.frame.rootdatum
    allroots = set(rd.roots)

    def coordinate_verdict(split, frame=None):
        """The verdict on s = t + root lines, read as its `coordinate_split`,
        its torus moved back by the frame of s = P^-1 q P, or why it fails;
        None for any other s."""
        if split is None or split[0].dim < len(g.frame.torus_indices):
            return None
        roots = tuple(sorted(g.frame.index_root[i] for i in split[1]))
        if not is_closed(rd, roots):
            return "not-closed"
        if {tuple(-x for x in r) for r in roots} | set(roots) != allroots:
            return "not-parabolic-subset"
        details = {"criterion": "torus + closed root subset with "
                                "Phi' u -Phi' = Phi"}
        torus = split[0]
        if frame is not None:
            details["frame_translate"] = True
            torus = conjugate_subspace(g, frame[0], torus, frame[1])
        return ParabolicVerdict("parabolic", torus, roots, details=details,
                                frame=frame)

    # a standard parabolic q or P^-1 q P certifies that q is a subalgebra;
    # a coordinate subset failing the parabolic-subset conditions falls
    # through to the frame certificate
    split = coordinate_split(g, q)
    partial = coordinate_verdict(split)
    if isinstance(partial, ParabolicVerdict) and g.split_closed(split):
        return partial

    # conjugating frame: the flag of N finds every parabolic
    frame = flag_frame(g, q)
    if frame is not None:
        frame = (frame, frame.inverse())
        moved = coordinate_split(
            g, conjugate_subspace(g, frame[1], q, frame[0]))
        verdict = coordinate_verdict(moved, frame)
        if isinstance(verdict, ParabolicVerdict) and g.split_closed(moved):
            return verdict
    g.check_subalgebra(q)

    # the frame finds every parabolic (see flag_frame), so its failure is
    # the certificate
    details = {} if partial is None else {"coordinate_failure": partial}
    kind = "type-A" if g.frame.form is None else "Witt"
    nil = "J(A(q))" if _by_jacobson(g) else "N = [q, q n q^perp]"
    details["criterion"] = (f"{kind} flag frame of {nil} gives no "
                            "standard parabolic")
    return ParabolicVerdict("not-parabolic", details=details, frame=frame,
                            failure_reason=partial or "not-parabolic-subset")


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
