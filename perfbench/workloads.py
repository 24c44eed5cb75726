"""Workload definitions: seeded input generators, the case runners (the
library calls a CLI subcommand makes, plus its canonical-JSON payload) and
the answer gate.

Everything here is deterministic for a given (workload, seed).  The
generators touch no algebra memo (`g._memo`), so generating inputs before
the timed loop does not warm anything the cases later use.
"""

from __future__ import annotations

import hashlib
import json
import random

DEFAULT_SEED = 0

# (algebra as (family, n as passed to build(), p), standard parabolics by
# their sets of simple roots; None for all of them).  The sl4@5 Borel, the
# sl4@7 parabolics and the rank-2 algebras at p = 13 are left out for run
# length (see README.md).
TOWER_STD = [(("sl", 3, 5), None), (("sp", 4, 5), None), (("so", 5, 5), None),
             (("sl", 3, 7), None), (("sp", 4, 7), None), (("so", 5, 7), None),
             (("sl", 4, 5), [(0,), (1,), (0, 1), (2,), (0, 2), (1, 2),
                             (0, 1, 2)])]

# Seeded starts: (algebra, positive roots carrying the random element,
# conjugated?).  The support patterns and the roots of the
# conjugating word are fixed, so that a case's cost and outcome depend on
# the seed only through the coefficients; with random patterns and words
# the run time spread by a third between seeds.  Each pattern was kept only
# if its outcome did not change with the seed.  Regular elements under
# conjugation take 20-30 s per case today and are on the reach list.  The
# conjugated so5 starts on the long root (1, 1) end in the recorded
# `no Weyl frame for family so` failure.
TOWER_SEEDED = [
    (("sl", 3, 5), [(1, 0, -1)], True),
    (("sp", 4, 5), [(0, 2)], False),
    (("sp", 4, 5), [(0, 2), (1, -1)], False),
    (("sp", 4, 5), [(2, 0)], True),
    (("so", 5, 5), [(1, -1)], False),
    (("so", 5, 5), [(0, 1), (1, -1)], False),
    (("so", 5, 5), [(1, 1)], True),
]

# (algebra, conjugates per proper parabolic and per Levi, subsets whose
# Levi is run in standard position; None for all).  On sl5@7 a conjugated
# parabolic takes 0.25-0.4 s, so only g and the Levis of the maximal
# parabolics are run there.
DETECT = [(("sl", 3, 5), 2, None), (("sl", 4, 5), 2, None),
          (("sp", 4, 5), 2, None), (("so", 5, 5), 2, None),
          (("sl", 3, 7), 2, None), (("sl", 4, 7), 2, None),
          (("sp", 4, 7), 2, None), (("so", 5, 7), 2, None),
          (("sl", 5, 7), 0, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])]

# (algebra, standard parabolics whose nilradical is run).  sl5@7 is left
# out: its lattice ball takes about 15 s per case.  S = (1, 2) of sp6@7 and
# so7@7 spends 2 s in the p-nil input check, so it is left out too.  The
# rank-2 algebras and sl4@7 add small balls; on sl4@7 only the cases with a
# cheap input check are run.
KEMPF = [(("sp", 6, 7), [(), (0,), (1,), (0, 1), (2,), (0, 2)]),
         (("so", 7, 7), [(), (0,), (1,), (0, 1), (2,), (0, 2)]),
         (("sl", 4, 7), [(), (0, 1), (0, 2), (1, 2)]),
         (("sl", 3, 7), [(), (0,), (1,)]), (("sp", 4, 7), [(), (0,), (1,)]),
         (("so", 5, 7), [(), (0,), (1,)])]


def algebras(workload: str) -> list:
    """The algebras a workload builds during set-up."""
    if workload == "tower-std":
        return [alg for alg, _ in TOWER_STD]
    if workload == "tower-seeded":
        return sorted({alg for alg, *_ in TOWER_SEEDED})
    if workload == "detect-general":
        return [alg for alg, *_ in DETECT]
    if workload == "kempf-opt":
        return [alg for alg, _ in KEMPF]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("tower-std", "tower-seeded", "detect-general", "kempf-opt")


# -- generation ---------------------------------------------------------------

def _label(alg) -> str:
    fam, n, p = alg
    return f"{fam}{n}@{p}"


def _digest(basis) -> str:
    return hashlib.sha1(json.dumps(basis).encode()).hexdigest()[:8]


def _subsets(g) -> list:
    rank = g.frame.rootdatum.rank
    return [tuple(i for i in range(rank) if mask >> i & 1)
            for mask in range(1 << rank)]


def _s_label(chosen) -> str:
    return "S=" + (",".join(map(str, chosen)) if chosen else "-")


def root_group_word(g, rng):
    """exp(t x_-a1) ... exp(t x_-ar) exp(t x_a1) ... exp(t x_ar) over the
    simple roots a_i, each t != 0 drawn from rng: a word in root groups
    that moves standard subalgebras out of standard position and
    normalises g."""
    from morozov.gfp import FieldMatrix
    w = FieldMatrix.identity(g.realization.n, g.p)
    simples = g.frame.rootdatum.simple_roots
    for root in [tuple(-x for x in a) for a in simples] + list(simples):
        v = [0] * g.dim
        v[g.frame.root_index[tuple(root)]] = rng.randrange(1, g.p)
        w = w @ g.exp_trunc(g.element(v))
    return w


def _case(alg, ident, space, **extra) -> dict:
    basis = [list(r) for r in space.basis]
    return {"id": f"{_label(alg)}/{ident}", "alg": list(alg),
            "input": {"schema": 1, "ambient_dim": space.ambient_dim,
                      "p": space.p, "basis": basis}, **extra}


def _fresh(draw, seen: set, attempts: int = 100):
    """draw() until it gives a subspace no earlier case of the sweep has, so
    that no case is a memo hit of an identical earlier one."""
    for _ in range(attempts):
        space = draw()
        digest = _digest([list(r) for r in space.basis])
        if digest not in seen:
            seen.add(digest)
            return space, digest
    raise ValueError(f"no fresh input in {attempts} draws")


def generate(workload: str, seed: int) -> list:
    """The workload's case list for a seed, in the order it is run."""
    from morozov.liealg import build, conjugate_subspace, standard_parabolic
    rng = random.Random(f"{workload}:{seed}")
    cases, seen = [], set()
    if workload in ("tower-std", "kempf-opt"):
        for alg, subsets in TOWER_STD if workload == "tower-std" else KEMPF:
            g = build(*alg)
            for chosen in _subsets(g) if subsets is None else subsets:
                data = standard_parabolic(g, chosen)
                expect = {"parabolic": [list(r) for r in data["parabolic"].basis],
                          "nilradical": [list(r) for r in data["nilradical"].basis]}
                cases.append(_case(alg, _s_label(chosen), data["nilradical"],
                                   expect=expect))
    elif workload == "tower-seeded":
        for k, (alg, roots, conj) in enumerate(TOWER_SEEDED):
            g = build(*alg)

            def draw():
                x = [0] * g.dim
                for root in roots:
                    x[g.frame.root_index[tuple(root)]] = rng.randrange(1, g.p)
                u0 = g.subalgebra_closure([g.element(x)])
                if conj:
                    u0 = conjugate_subspace(g, root_group_word(g, rng), u0)
                return u0
            u0, digest = _fresh(draw, seen)
            tag = "+".join("".join(map(str, r)) for r in roots)
            ident = f"start{k}/{tag}/{'conj' if conj else 'plain'}#{digest}"
            cases.append(_case(alg, ident, u0))
    elif workload == "detect-general":
        for alg, copies, levis in DETECT:
            g = build(*alg)
            subsets = _subsets(g)
            for chosen in subsets:
                data = standard_parabolic(g, chosen)
                if chosen == subsets[-1]:       # g itself: no conjugate differs
                    cases.append(_case(alg, "full", data["parabolic"],
                                       role="parabolic"))
                    continue
                if levis is None or chosen in levis:
                    cases.append(_case(alg, f"levi/{_s_label(chosen)}",
                                       data["levi"], role="levi"))
                for name, space, role in [("par", data["parabolic"], "parabolic"),
                                          ("levi", data["levi"], "levi")]:
                    for j in range(copies):
                        moved, digest = _fresh(lambda: conjugate_subspace(
                            g, root_group_word(g, rng), space), seen)
                        ident = f"{name}/{_s_label(chosen)}/conj{j}#{digest}"
                        cases.append(_case(alg, ident, moved, role=role))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(cases)
    return cases


# -- the cases ----------------------------------------------------------------

def run_case(workload: str, case: dict, seed: int):
    """One user-level query: the library calls of the matching CLI
    subcommand and its canonical-JSON payload.  Returns (payload text,
    answer) where answer holds the fields the gate reads."""
    from morozov import kempf, parabolic, tower
    from morozov.liealg import build
    from morozov.serialize import canonical_json, subspace_from_dict
    g = build(*case["alg"])
    space = subspace_from_dict(case["input"], g)
    if workload in ("tower-std", "tower-seeded"):
        trace = tower.run_tower(g, space)
        report = tower.verify_morozov(g, trace) if trace.status == "stabilized" \
            else None
        payload = {"trace": trace.as_dict(),
                   "verification": None if report is None else report.as_dict()}
        answer = {"status": trace.status, "stabilized_at": trace.stabilized_at,
                  "checks": None if report is None else dict(report.checks)}
        if trace.status == "stabilized":
            answer["u"] = [list(r) for r in trace.u_limit.basis]
            answer["q"] = [list(r) for r in trace.q_limit.basis]
    elif workload == "detect-general":
        verdict = parabolic.detect_parabolic(g, space)
        payload = {"verdict": verdict.as_dict()}
        answer = {"status": verdict.status,
                  "root_subset": payload["verdict"]["root_subset"]}
    elif workload == "kempf-opt":
        cert = kempf.optimize(g, space, None)
        report = kempf.verify_obstruction(g, space, cert)
        payload = {"certificate": cert.as_dict(), "obstruction": report}
        answer = {"lambda": list(cert.lam.coords), "obstruction": report}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    text = canonical_json({"schema": 1, "seed": seed, **payload})
    return text, answer


# -- the answer gate ----------------------------------------------------------

TOWER_CHECKS = ("stabilized", "fixed_point", "parabolic", "u_is_p_radical",
                "kempf")
OBSTRUCTION_FLAGS = ("u_in_u_lambda", "normalizer_in_p_lambda",
                     "normalizer_equals_p_lambda", "u_equals_u_lambda")


def is_decided(workload: str, answer: dict) -> bool:
    if workload in ("tower-std", "tower-seeded"):
        return answer["status"] == "stabilized" and not any(
            v == "undetermined" for v in answer["checks"].values())
    if workload == "detect-general":
        return answer["status"] != "undetermined"
    return True


def construction_errors(workload: str, case: dict, answer: dict) -> list:
    """Ways in which the answer contradicts what is known about the input
    by construction; an undecided answer contradicts nothing."""
    errs = []
    if workload in ("tower-std", "tower-seeded"):
        if answer["status"] == "budget-exceeded":
            return errs
        if answer["status"] != "stabilized":
            return [f"tower status {answer['status']}"]
        checks = answer["checks"]
        bad = [k for k in TOWER_CHECKS if checks.get(k) == "fail"]
        if bad:
            errs.append(f"checks fail: {bad}")
        if workload == "tower-std":
            if answer["q"] != case["expect"]["parabolic"] or \
                    answer["u"] != case["expect"]["nilradical"]:
                errs.append("limit is not the standard parabolic/nilradical")
            for k in TOWER_CHECKS:
                v = checks.get(k)
                ok = v in ("pass", "undetermined") or (
                    k == "kempf" and v == "skipped" and not answer["u"])
                if not ok and k not in bad:
                    errs.append(f"check {k} reads {v}")
        else:
            if checks.get("fixed_point") != "pass":
                errs.append(f"fixed_point reads {checks.get('fixed_point')}")
            if checks.get("parabolic_status") == "not-parabolic":
                errs.append("limit reported not-parabolic")
    elif workload == "detect-general":
        if case["role"] == "parabolic" and answer["status"] == "not-parabolic":
            errs.append("a conjugated parabolic was reported not-parabolic")
        if case["role"] == "levi" and answer["status"] == "parabolic":
            errs.append("the Levi of a proper parabolic was reported parabolic")
    elif workload == "kempf-opt":
        off = [k for k in OBSTRUCTION_FLAGS if answer["obstruction"][k] is not True]
        if off:
            errs.append(f"obstruction flags false: {off}")
    return errs


def decided_fields(workload: str, answer: dict) -> dict:
    """The fields a later change may decide but never alter: no timings,
    no method or statistics fields."""
    if workload in ("tower-std", "tower-seeded"):
        if answer["status"] != "stabilized":
            return {}
        out = {"status": answer["status"],
               "stabilized_at": answer["stabilized_at"],
               "u": answer["u"], "q": answer["q"]}
        checks = answer["checks"]
        if checks.get("parabolic_status") not in (None, "undetermined"):
            out["verdict"] = checks["parabolic_status"]
        if "kempf_lambda" in checks:
            out["lambda"] = checks["kempf_lambda"]
        return out
    if workload == "detect-general":
        if answer["status"] == "undetermined":
            return {}
        return {"verdict": answer["status"], "root_subset": answer["root_subset"]}
    return {"lambda": answer["lambda"]}


def golden_errors(golden: dict, fields: dict) -> list:
    """A golden field must keep its value; it may not become undecided."""
    errs = []
    for key, want in golden.items():
        if key not in fields:
            errs.append(f"decided field {key!r} became undecided")
        elif fields[key] != want:
            errs.append(f"decided field {key!r} changed")
    return errs
