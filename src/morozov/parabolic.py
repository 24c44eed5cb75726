"""Parabolic-subalgebra detection and the Killing-form detector.

A "parabolic" verdict always carries a witness (torus, root subset) with
the subalgebra rebuilt exactly as torus + root spaces over a closed subset
Phi' with Phi' u -Phi' = Phi.  A subalgebra in standard position is read
off the standard frame.  Otherwise detection looks for a conjugating frame:
a realization matrix P such that P^-1 q P is a coordinate subspace passing
the same test.  For gl/sl/pgl, P is adapted to the q-stable flag of the
natural module cut out by the ideal N = [q, q n q^perp] (trace form); this
finds every type-A parabolic at odd p.  A frame verdict reports the root
subset of P^-1 q P (a standard parabolic), the split torus P t P^-1 inside
q as torus_used, and P as a list of rows with "frame_translate": True in
details.  Re-conjugating q by P gives the standard parabolic exactly, so
the verdict is exact however P was found.  No Weyl translate of the Borel
is searched for: every such translate contains t, and when the root
differentials on t are pairwise distinct and nonzero (sp at p >= 5, for
one) a q containing t is t plus root lines, which the standard frame
already decides.
A "not-parabolic" verdict on gl/sl/pgl at odd p is certified by the
frame itself: there the flag of N is the one every parabolic stabilises
(see flag_frame), so when neither q nor P^-1 q P passes the coordinate
test, q is not parabolic, over the algebraic closure too, since N and its
flag commute with extension of scalars.  On sp and so, and at p = 2, where
a root can vanish on the torus (sl_2), it is certified by a battery of
extension-stable isomorphism invariants that separates the input from
every standard parabolic of matching dimension (conjugation over the
algebraic closure preserves each of them).  Anything else is
"undetermined" - never a false negative.  That includes sp and so
parabolics out of standard position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .gfp import FieldMatrix, Subspace, image_flag, rref, solve_linear
from .liealg import (LieAlgebra, conjugate_subspace, coordinate_split,
                     standard_borel, standard_parabolic, weyl_matrices)
from .radicals import SubView
from .rootdata import is_closed


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


def flag_frame(g: LieAlgebra, q: Subspace) -> Optional[FieldMatrix]:
    """Type-A conjugating frame: a matrix P whose columns run through a
    q-stable flag V > NV > N^2 V > ... > 0, deepest step first, so that
    P^-1 q P stabilises the standard flag.  N = [q, q n q^perp] is an ideal
    of q, with q^perp taken under the trace form of gl_n (and q taken with
    the scalars for pgl).  For a parabolic q, q n q^perp is the nilradical,
    plus the scalars for sl_n with p | n; the bracket with q removes the
    scalars, and [q, u] = u because every root e_i - e_j is nonzero on the
    torus at odd p, so N is the nilradical and the flag is the one q
    stabilises: P^-1 q P lies in the standard parabolic of that flag type
    and has its dimension, so it is that parabolic.  None for other
    families, when N = 0, or when the images stall above 0.  So on
    gl/sl/pgl at odd p a failure is a certificate: when this is None, or
    P^-1 q P is not a standard parabolic, q is not parabolic."""
    if g.frame.family not in ("gl", "sl", "pgl") or q.dim == 0:
        return None
    n, p = g.realization.n, g.p
    mats = [g.matrix_of(list(v)) for v in q.basis]
    if g.realization.mod_scalars:
        mats.append(FieldMatrix.identity(n, p))
    span = Subspace.from_vectors([m.entries for m in mats], n * n, p)
    # q n q^perp: tr(xy) = sum x_ij y_ji, so the condition on y is x transposed
    forms = [FieldMatrix(n, n, p, x).transpose().entries for x in span.basis]
    ideal = [FieldMatrix(n, n, p, y) for y in solve_linear(span, lambda y: [
        sum(a * b for a, b in zip(f, y)) % p for f in forms]).basis]
    nil = [FieldMatrix(n, n, p, x) for x in Subspace.from_vectors(
        [(x @ y - y @ x).entries for x in mats for y in ideal], n * n, p).basis]
    if not nil:
        return None
    flag = image_flag(Subspace.full(n, p), [x.matvec for x in nil])
    if flag is None:
        return None
    cols = []
    adapted = Subspace.zero(n, p)
    for step in reversed(flag):
        for v in step.basis:
            if not adapted.contains_vector(v):
                cols.append(v)
                adapted = adapted.sum(Subspace.from_vectors([v], n, p))
    return FieldMatrix(n, n, p, [cols[j][i] for i in range(n) for j in range(n)])


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

    # conjugating frame: the type-A flag finds every type-A parabolic at
    # odd p
    frame = flag_frame(g, q)
    if frame is not None:
        verdict = coordinate_verdict(
            conjugate_subspace(g, frame.inverse(), q),
            {"frame_translate": True, "frame": frame.to_rows()})
        if verdict is not None and verdict.status == "parabolic":
            verdict.torus_used = conjugate_subspace(g, frame, verdict.torus_used)
            return verdict
    details = {}
    if partial is not None:
        details["coordinate_failure"] = partial.failure_reason
    reason = details.get("coordinate_failure", "not-parabolic-subset")

    # gl/sl/pgl at odd p: the frame finds every parabolic (see flag_frame),
    # so its failure is the certificate
    if g.frame.family in ("gl", "sl", "pgl") and g.p > 2:
        details["criterion"] = ("type-A flag frame of N = [q, q n q^perp] "
                                "gives no standard parabolic")
        if frame is not None:
            details["frame"] = frame.to_rows()
        return ParabolicVerdict("not-parabolic", failure_reason=reason,
                                details=details)

    # invariant battery against every standard parabolic of equal
    # dimension, in mask order; their invariants are memoised by dimension
    key = ("std-parab-inv", q.dim)
    if key not in g._memo:
        subsets = [tuple(i for i in range(rd.rank) if mask >> i & 1)
                   for mask in range(1 << rd.rank)]
        pars = [(s, standard_parabolic(g, s)["parabolic"]) for s in subsets]
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
    out["perp_is_subalgebra"] = g.is_subalgebra(perp)
    if not out["perp_is_subalgebra"]:
        out["status"] = "precondition-failed"
        out["reason"] = "orthogonal is not a subalgebra"
        return out
    out["perp_is_nilpotent"] = g.is_nilpotent(perp)
    if not out["perp_is_nilpotent"]:
        out["status"] = "precondition-failed"
        out["reason"] = "orthogonal is not nilpotent"
        return out
    verdict = detect_parabolic(g, p_cand)
    out["detect_status"] = verdict.status
    out["normalizer_check"] = (g.normalizer(perp) == p_cand)
    out["status"] = ("ok" if verdict.status == "parabolic"
                     and out["normalizer_check"] else "mismatch")
    return out
