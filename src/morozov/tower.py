"""The normaliser tower: starting from a p-nil subalgebra u, iterate
q <- N_g(u), u <- rad_p(q), track every step, and verify the expected
limit properties (fixed point, parabolicity, p-radical identity, agreement
with the optimal cocharacter's parabolic).

The u's form an increasing chain: u_(i-1) is a p-nil ideal of
q_i = N(u_(i-1)), so it lies in rad_p(q_i) = u_i.  The fixed points are
exactly the u with u = rad_p(N_g(u)), and rad_p is certified wherever the
envelope fits (`radicals` notes).  So dim u never decreases and is at most
dim g, and once u repeats the stop rule (u and q repeat) fires within one
more step.  A step whose u does not contain the last is an engine bug
(RuntimeError); one whose rad_p is undecided ends the tower
`budget-exceeded`, the reason in `detail`.  No step takes a budget.  An
input that is not a restricted p-nil subalgebra is no outcome of the
tower: `check_tower_input` raises `gfp.InputError` before the first
step.  Check (c), u = rad_p(q), rereads the last step's rad_p record, so
where (b) finds q parabolic it also holds u against the nilradical of
(b)'s witness in the verdict's frame, which a wrong rad_p would miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .gfp import InputError, Subspace
from .liealg import LieAlgebra, conjugate_subspace, parabolic_parts
from . import kempf, parabolic, radicals


@dataclass
class TowerStep:
    index: int
    u: Subspace
    q: Optional[Subspace]
    method: Optional[str] = None
    radical_dim: Optional[int] = None

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "u_dim": self.u.dim,
            "u": [list(r) for r in self.u.basis],
            "q_dim": None if self.q is None else self.q.dim,
            "q": None if self.q is None else [list(r) for r in self.q.basis],
            "method": self.method,
            "radical_dim": self.radical_dim,
        }


@dataclass
class TowerTrace:
    steps: list
    status: str                      # stabilized | budget-exceeded
    stabilized_at: Optional[int] = None
    detail: str = ""

    @property
    def u_limit(self) -> Optional[Subspace]:
        return self.steps[-1].u if self.status == "stabilized" else None

    @property
    def q_limit(self) -> Optional[Subspace]:
        return self.steps[-1].q if self.status == "stabilized" else None

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "stabilized_at": self.stabilized_at,
            "detail": self.detail,
            "steps": [s.as_dict() for s in self.steps],
        }


def check_tower_input(g: LieAlgebra, u: Subspace, budget=None) -> None:
    """Hypothesis check: u must be a restricted p-nil subalgebra, else
    `gfp.InputError`, from the subalgebra gate
    (`LieAlgebra.check_subalgebra`), the p-closure test or the p-nil gate.
    Each unit basis vector, every one on a split u of root lines, reads its
    p-power from the build (`LieAlgebra.is_p_closed`), with no matrix
    power.  The p-nil gate is `radicals.check_p_nil`: a certified root
    support, else one Engel flag, exact on every family with no budget; on
    a split u both checks run on root indices.  `budget` is unused:
    `perfbench/test_perfbench.py` still passes it, and it stays until the
    benchmark drops it."""
    g.check_subalgebra(u, "tower input")
    if not g.is_p_closed(u):
        raise InputError("tower input is not closed under the p-power map")
    radicals.check_p_nil(g, u, "tower input")


def tower_step(g: LieAlgebra, u: Subspace) -> tuple:
    """One iteration: (q, u_next, info), info the `radicals.p_radical` of
    q."""
    q = g.normalizer(u)
    prad = radicals.p_radical(g, q)
    return q, prad["rad_p"], prad


def run_tower(g: LieAlgebra, u0: Subspace) -> TowerTrace:
    """The tower from u0 until u and q repeat: an increasing chain of p-nil
    subalgebras (module notes), checked at every step."""
    check_tower_input(g, u0)
    steps = [TowerStep(0, u0, None)]
    while True:
        prev, i = steps[-1], len(steps)
        try:
            q, u, part = tower_step(g, prev.u)
        except radicals.Undetermined as exc:
            return TowerTrace(steps, "budget-exceeded", detail=str(exc))
        if not u.contains(prev.u):
            raise RuntimeError(f"tower: u_{i} does not contain u_{i - 1}")
        steps.append(TowerStep(i, u, q, part["method"], part["radical"].dim))
        if prev.q is not None and prev.u == u and prev.q == q:
            return TowerTrace(steps, "stabilized", stabilized_at=i)


@dataclass
class VerificationReport:
    checks: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return dict(self.checks)


def _witness_nilradical(g: LieAlgebra, verdict) -> Subspace:
    """The nilradical of a parabolic verdict's witness: `parabolic_parts`
    of its root subset, conjugated by the verdict's frame (P, P^-1) when
    the subset is that of P^-1 q P (`parabolic` notes)."""
    nil = parabolic_parts(g, verdict.root_subset, "nilradical")["nilradical"]
    if verdict.frame is not None:
        nil = conjugate_subspace(g, verdict.frame[0], nil, verdict.frame[1])
    return nil


def verify_morozov(g: LieAlgebra, trace: TowerTrace) -> VerificationReport:
    """At the tower's limit: (a) the fixed-point condition, (b) parabolicity
    of q, (c) u = rad_p(q), the nilradical of (b)'s witness (module
    notes), (d) q = p(lambda) for the optimal cocharacter."""
    rep = VerificationReport()
    if trace.status != "stabilized":
        rep.checks["stabilized"] = "fail"
        return rep
    rep.checks["stabilized"] = "pass"
    u, q = trace.u_limit, trace.q_limit

    # (a) takes the step again from u alone, (c) reads the limit's q; as
    # q = N(u), both read the memoised p_radical of the tower's last step
    u_next = radicals.p_radical(g, g.normalizer(u))["rad_p"]
    rep.checks["fixed_point"] = "pass" if u_next == u else "fail"

    verdict = parabolic.detect_parabolic(g, q)
    rep.checks["parabolic"] = {"parabolic": "pass",
                               "not-parabolic": "fail"}.get(verdict.status,
                                                            "undetermined")
    rep.checks["parabolic_status"] = verdict.status

    rad_p = radicals.p_radical(g, q)["rad_p"]
    holds = rad_p == u and (verdict.status != "parabolic"
                            or u == _witness_nilradical(g, verdict))
    rep.checks["u_is_p_radical"] = "pass" if holds else "fail"

    if u.dim == 0:
        rep.checks["kempf"] = "skipped"
    else:
        try:
            cert = kempf.optimize(g, u)
            parts = kempf.parabolic_from_cochar(g, cert.lam, "parabolic")
            rep.checks["kempf"] = "pass" if parts["parabolic"] == q else "fail"
            rep.checks["kempf_lambda"] = list(cert.lam.coords)
        except ValueError as exc:
            rep.checks["kempf"] = "skipped"
            rep.checks["kempf_reason"] = str(exc)
    return rep
