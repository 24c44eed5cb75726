"""The normaliser tower: starting from a p-nil subalgebra u, iterate
q <- N_g(u), u <- the p-nilpotent elements of rad(q), track every step, and
verify the expected limit properties (fixed point, parabolicity, p-radical
identity, agreement with the optimal cocharacter's parabolic).

Stabilization is detected by pair repetition with full-history cycle
detection; the step count is capped, and every anomaly lands in the
status field instead of an exception.  `morozov tower run --budget`
bounds the walk that decides the p-nilpotent elements of rad(q)
(`radicals.pnil_part_of_radical`); a step where they do not form a
subspace, or whose walk runs over the budget, ends the tower
`budget-exceeded` with the reason in `detail`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .gfp import Subspace
from .liealg import LieAlgebra
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
    status: str                      # stabilized | budget-exceeded | cycle-detected | max-steps | input-error
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
    """Hypothesis check: u must be a restricted p-nil subalgebra.  The
    p-nil gate is `radicals.check_p_nil`: a certified root support, else
    one Engel flag, exact on every family with no budget; on a split u
    both checks run on root indices.  `budget` is unused:
    `perfbench/test_perfbench.py` still passes it, and it stays until the
    benchmark drops it."""
    if not g.is_subalgebra(u):
        raise ValueError("tower input is not a subalgebra")
    for b in u.basis:
        if not u.contains_vector(g.p_power_vec(list(b))):
            raise ValueError("tower input is not closed under the p-power map")
    radicals.check_p_nil(g, u, "tower input")


def tower_step(g: LieAlgebra, u: Subspace,
               budget: int = radicals.DEFAULT_BUDGET) -> tuple:
    """One iteration: (q, u_next, info)."""
    q = g.normalizer(u)
    part = radicals.pnil_part_of_radical(g, q, budget)
    return q, part["span"], part


def run_tower(g: LieAlgebra, u0: Subspace,
              budget: int = radicals.DEFAULT_BUDGET) -> TowerTrace:
    max_steps = 2 * g.dim + 2
    try:
        check_tower_input(g, u0)
    except ValueError as exc:
        return TowerTrace([TowerStep(0, u0, None)], "input-error", detail=str(exc))
    steps = [TowerStep(0, u0, None)]
    history = {}
    u = u0
    for i in range(1, max_steps + 1):
        try:
            q, u_next, part = tower_step(g, u, budget)
        except radicals.Undetermined as exc:
            return TowerTrace(steps, "budget-exceeded", detail=str(exc))
        steps.append(TowerStep(i, u_next, q, part["method"],
                               part["radical"].dim))
        pair = (u_next.basis, q.basis)
        prev = steps[-2]
        if prev.q is not None and prev.u == u_next and prev.q == q:
            return TowerTrace(steps, "stabilized", stabilized_at=i)
        if pair in history:
            return TowerTrace(steps, "cycle-detected",
                              detail=f"pair repeats step {history[pair]}")
        history[pair] = i
        u = u_next
    return TowerTrace(steps, "max-steps", detail=f"no stabilization in {max_steps} steps")


@dataclass
class VerificationReport:
    checks: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return dict(self.checks)


def verify_morozov(g: LieAlgebra, trace: TowerTrace,
                   budget: int = radicals.DEFAULT_BUDGET) -> VerificationReport:
    """At the tower's limit: (a) the fixed-point condition, (b) parabolicity
    of q, (c) u = rad_p(q), (d) q = p(lambda) for the optimal cocharacter."""
    rep = VerificationReport()
    if trace.status != "stabilized":
        rep.checks["stabilized"] = "fail"
        return rep
    rep.checks["stabilized"] = "pass"
    u, q = trace.u_limit, trace.q_limit

    part = radicals.pnil_part_of_radical(g, g.normalizer(u), budget)
    rep.checks["fixed_point"] = "pass" if part["span"] == u else "fail"

    verdict = parabolic.detect_parabolic(g, q)
    rep.checks["parabolic"] = {"parabolic": "pass",
                               "not-parabolic": "fail"}.get(verdict.status,
                                                            "undetermined")
    rep.checks["parabolic_status"] = verdict.status

    try:
        prad = radicals.p_radical(g, q)
        rep.checks["u_is_p_radical"] = "pass" if prad["rad_p"] == u else "fail"
    except radicals.Undetermined:
        rep.checks["u_is_p_radical"] = "undetermined"

    if u.dim == 0:
        rep.checks["kempf"] = "skipped"
    else:
        try:
            cert = kempf.optimize(g, u)
            parts = kempf.parabolic_from_cochar(g, cert.lam)
            rep.checks["kempf"] = "pass" if parts["p"] == q else "fail"
            rep.checks["kempf_lambda"] = list(cert.lam.coords)
        except ValueError as exc:
            rep.checks["kempf"] = "skipped"
            rep.checks["kempf_reason"] = str(exc)
    return rep
