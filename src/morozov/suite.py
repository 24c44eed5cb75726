"""The acceptance battery: one callable per criterion, each returning a
CheckResult with pass/fail/undetermined status and a detail line.
`run_suite` runs the selected criteria and times each one; the CLI
`suite run` prints one line per criterion.  The brute-force oracles
kept here (`literal_p_nilpotent`, `enumerate_subspaces`) also serve the
tests.  Criterion 1 samples the restricted-structure laws on the engine's
own arithmetic (`LieAlgebra.bracket_vec`, `ad_matrix_vec`, `p_power_vec`
and `jacobson_defect`), so the battery checks the calculus it certifies.

Budgets and tolerances are pinned here; every check is exact (tolerance
zero) and deterministic for a fixed seed."""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass

from . import fixtures, hnslope, kempf, parabolic, radicals, rootdata, tower
from .gfp import Subspace
from .liealg import (LieAlgebra, build, jacobson_defect, standard_borel,
                     standard_parabolic)
from .radicals import SubView

LAW_SAMPLES = 1000
EXP_SAMPLES = 500
HN_SAMPLES = 1000

LAW_ALGEBRAS = [("sl", 2), ("sl", 3), ("sl", 4), ("gl", 3), ("pgl", 3), ("sp", 4)]
LAW_PRIMES = (3, 5, 7)

TOWER_CASES = [("sl", 3, (5, 7)), ("sl", 4, (5, 7)), ("sp", 4, (3, 5, 7))]


@dataclass
class CheckResult:
    criterion: str
    status: str                  # pass | fail | undetermined
    detail: str = ""
    elapsed: float = 0.0         # set by run_suite

    def line(self) -> str:
        return f"[{self.status.upper():12s}] {self.criterion} ({self.elapsed:.1f}s) {self.detail}"


def _result(criterion, ok, detail=""):
    return CheckResult(criterion, "pass" if ok else "fail", detail)


# -- criterion 1: restricted-structure laws, on LieAlgebra's own calculus ---

LAWS = ("antisymmetry", "jacobi", "ad-power", "scale-power", "jacobson")


def criterion_structure_laws(seed: int = 0) -> CheckResult:
    rng = random.Random(seed)
    failures = [f"{fam}{n}@{p}:{law}" for fam, n in LAW_ALGEBRAS
                for p in LAW_PRIMES for law in
                _structure_law_failures(build(fam, n, p), rng, LAW_SAMPLES)]
    return _result(
        "1 restricted-structure laws (Jacobi, antisymmetry, ad/scale p-power, "
        f"Jacobson) x{LAW_SAMPLES} samples",
        not failures, "; ".join(failures) or
        f"{len(LAW_ALGEBRAS) * len(LAW_PRIMES)} algebra/prime pairs")


def _structure_law_failures(g: LieAlgebra, rng: random.Random,
                            samples: int) -> list:
    """The names, in LAWS order, of the laws that fail on some of
    `samples` random x, y, z and lambda, checked on g's own bracket_vec,
    ad_matrix_vec, p_power_vec and jacobson_defect:
    [x, y] = -[y, x]; [x, [y, z]] = [[x, y], z] + [y, [x, z]];
    ad(x^[p]) = ad(x)^p; (lambda x)^[p] = lambda^p x^[p]; and
    (x + y)^[p] = x^[p] + y^[p] - W(x, y)."""
    p, d = g.p, g.dim
    failed = set()

    def law(name, lhs, rhs):
        if any((a - b) % p for a, b in zip(lhs, rhs)):
            failed.add(name)

    for _ in range(samples):
        x, y, z = ([rng.randrange(p) for _ in range(d)] for _ in range(3))
        lam = rng.randrange(p)
        xp, yp = g.p_power_vec(x), g.p_power_vec(y)
        xy = g.bracket_vec(x, y)
        law("antisymmetry", xy, [-c for c in g.bracket_vec(y, x)])
        law("jacobi", g.bracket_vec(x, g.bracket_vec(y, z)),
            [a + b for a, b in zip(g.bracket_vec(xy, z),
                                   g.bracket_vec(y, g.bracket_vec(x, z)))])
        law("ad-power", g.ad_matrix_vec(xp).entries,
            g.ad_matrix_vec(x).pow(p).entries)
        law("scale-power", g.p_power_vec([lam * c for c in x]),
            [pow(lam, p, p) * c for c in xp])
        w = jacobson_defect(g.element(x), g.element(y)).coords
        law("jacobson", g.p_power_vec([a + b for a, b in zip(x, y)]),
            [a + b - c for a, b, c in zip(xp, yp, w)])
    return [name for name in LAWS if name in failed]


# -- criteria 2-4: tower sweep and the cocharacter cross-check ---------------

@functools.cache
def _tower_sweep() -> list:
    rows = []
    for fam, n, ps in TOWER_CASES:
        for p in ps:
            g = build(fam, n, p)
            for chosen in rootdata.simple_subsets(g.frame.rootdatum.rank):
                data = standard_parabolic(g, chosen)
                trace = tower.run_tower(g, data["nilradical"])
                report = tower.verify_morozov(g, trace)
                rows.append({"tag": f"{fam}{n}@{p} S={chosen}", "g": g,
                             "data": data, "trace": trace, "report": report})
    return rows


def criterion_tower_sweep(seed: int = 0) -> CheckResult:
    bad = []
    for row in _tower_sweep():
        tr, data, rep = row["trace"], row["data"], row["report"]
        ok = (tr.status == "stabilized" and tr.stabilized_at <= 2
              and tr.q_limit == data["parabolic"]
              and tr.u_limit == data["nilradical"]
              and rep.checks.get("parabolic") == "pass"
              and rep.checks.get("u_is_p_radical") == "pass")
        if not ok:
            bad.append(row["tag"])
    return _result("2 Morozov tower sweep over standard parabolic subsets",
                   not bad, "; ".join(bad) or f"{len(_tower_sweep())} towers")


def criterion_seed_to_borel(seed: int = 0) -> CheckResult:
    g = build("sl", 3, 5)
    idx = g.labels.index("e13")
    u0 = g.subspace([[1 if i == idx else 0 for i in range(g.dim)]])
    tr = tower.run_tower(g, u0)
    b = standard_borel(g)
    ok = (tr.status == "stabilized" and tr.q_limit == b["parabolic"]
          and tr.u_limit == b["nilradical"])
    return _result("3 seed <e13> in sl3@5 climbs to the Borel", ok,
                   f"status={tr.status}, steps={tr.stabilized_at}")


def criterion_kempf_crosscheck(seed: int = 0) -> CheckResult:
    bad = []
    checked = 0
    for row in _tower_sweep():
        u = row["data"]["nilradical"]
        g = row["g"]
        if u.dim == 0:
            continue
        checked += 1
        cert = kempf.optimize(g, u)
        rep = kempf.verify_obstruction(g, u, cert)
        if not (rep["normalizer_equals_p_lambda"] and rep["u_equals_u_lambda"]
                and rep["u_in_u_lambda"]):
            bad.append(row["tag"])
    return _result("4 optimal cocharacter reproduces N(u) = p(lambda), "
                   "u = u(lambda) (minimum-norm point)",
                   not bad, "; ".join(bad) or f"{checked} optimizations")


# -- criterion 5: bad-prime regressions --------------------------------------

def criterion_bad_prime(seed: int = 0) -> CheckResult:
    problems = []
    sl3 = build("sl", 3, 3)
    pgl3 = build("pgl", 3, 3)
    borel = standard_borel(sl3)["parabolic"]
    for t in (1, 2):
        q = fixtures.ex1_sl3_subalgebra(sl3, t)
        if not sl3.is_subalgebra(q):
            problems.append(f"ex1 t={t}: not a subalgebra")
            continue
        if not q.contains(borel):
            problems.append(f"ex1 t={t}: the standard Borel is not inside")
        verdict = parabolic.detect_parabolic(sl3, q)
        if verdict.status != "not-parabolic":
            problems.append(f"ex1 t={t}: detect={verdict.status}")
        # the literal quotient-algebra reading fails to close: documented defect
        if pgl3.is_subalgebra(fixtures.ex1_pgl_pattern(pgl3, t)):
            problems.append(f"ex1 t={t}: pgl reading unexpectedly closes")
    u = fixtures.ex2_subalgebra(pgl3)
    n = pgl3.normalizer(u)
    corrected = fixtures.ex2_corrected_pattern(pgl3)
    printed = fixtures.ex2_printed_pattern(pgl3)
    if n != corrected:
        problems.append("ex2: normalizer differs from the corrected pattern")
    if not (printed.contains(n) and printed.dim == n.dim + 1):
        problems.append("ex2: printed pattern is not a codim-1 enlargement")
    tr = tower.run_tower(pgl3, u)
    rep = tower.verify_morozov(pgl3, tr)
    if rep.checks.get("parabolic") == "pass":
        problems.append("ex2: tower limit unexpectedly certified parabolic")
    if rep.checks.get("parabolic_status") != "not-parabolic":
        problems.append(f"ex2: limit status {rep.checks.get('parabolic_status')}")
    return _result("5 bad-prime regressions (p=3 counterexamples)",
                   not problems, "; ".join(problems) or
                   "both fixtures behave as non-parabolic with Borel content")


# -- criterion 6: Killing-form suite ------------------------------------------

def criterion_killing(seed: int = 0) -> CheckResult:
    problems = []
    algebras = [g for g in (build(fam, n, p) for fam, n in LAW_ALGEBRAS
                            for p in LAW_PRIMES) if g.killing_nondegenerate()]
    for g in algebras:
        tag = g.family + f"@{g.p}"
        b = standard_borel(g)["parabolic"]
        nil = radicals.nilradical(g, b)["nil"]
        if nil != g.orthogonal(b):
            problems.append(f"{tag}: nil(b) != b_perp")
        for chosen in rootdata.simple_subsets(g.frame.rootdatum.rank):
            par = standard_parabolic(g, chosen)["parabolic"]
            rep = parabolic.killing_detector(g, par)
            if rep.get("status") != "ok":
                problems.append(f"{tag} S={chosen}: detector {rep}")
        # a torus line is rejected with a precondition failure
        hline = g.subspace([[1 if i == g.frame.torus_indices[0] else 0
                             for i in range(g.dim)]])
        rep = parabolic.killing_detector(g, hline)
        if rep.get("status") != "precondition-failed":
            problems.append(f"{tag}: torus line not rejected ({rep.get('status')})")
    return _result("6 Killing suite: nil(b) = b_perp and the orthogonal "
                   "detector on standard parabolics",
                   not problems, "; ".join(problems) or
                   f"{len(algebras)} nondegenerate fixtures")


# -- criterion 7: exp/Ad compatibility ----------------------------------------

def _nilpotent_samples(g: LieAlgebra, count: int, seed: int) -> list:
    """Random elements of the positive / negative root-span (nilpotent
    matrices of order <= realization size)."""
    rng = random.Random(seed)
    ups = [i for i, r in g.frame.index_root.items()
           if g.frame.rootdatum.is_positive(r)]
    downs = [i for i in g.frame.index_root if i not in ups]
    out = []
    for k in range(count):
        side = ups if k % 2 == 0 else downs
        coords = [0] * g.dim
        for i in side:
            coords[i] = rng.randrange(g.p)
        if any(coords):
            out.append(g.element(coords))
    return out


def criterion_exp_ad(seed: int = 0) -> CheckResult:
    problems = []
    witness_report = {}
    assert_cases = [("sl", 2, 5), ("sl", 2, 7), ("sl", 3, 5), ("sl", 3, 7)]
    probe_cases = [("sl", 4, 5), ("sp", 4, 5)]
    for fam, n, p in assert_cases:
        g = build(fam, n, p)
        h = g.frame.rootdatum.coxeter_number()
        assert p > 2 * h - 2
        bad = 0
        for x in _nilpotent_samples(g, EXP_SAMPLES, seed + p):
            if not g.ad_exp_compat(x):
                bad += 1
        if bad:
            problems.append(f"{fam}{n}@{p}: {bad} compatibility failures")
    for fam, n, p in probe_cases:
        g = build(fam, n, p)
        h = g.frame.rootdatum.coxeter_number()
        assert h < p <= 2 * h - 2
        witnesses = 0
        for x in _nilpotent_samples(g, EXP_SAMPLES, seed + 17 * p):
            try:
                if not g.ad_exp_compat(x):
                    witnesses += 1
            except ValueError:
                continue
        witness_report[f"{fam}{n}@{p}"] = witnesses
    detail = "; ".join(f"{k}: {v} failure witnesses recorded (not asserted)"
                       for k, v in witness_report.items())
    return _result("7 Ad(exp x) = exp(ad x) for p > 2h-2; witnesses recorded "
                   "in the h < p <= 2h-2 band",
                   not problems, "; ".join(problems) or detail)


# -- criterion 8: characteristic-table data suite -----------------------------

EXPECTED_GOOD_ANOMALIES = {
    ("D", 3, 2), ("D", 3, 3),
    ("D", 4, 3), ("D", 5, 3), ("D", 6, 3), ("D", 7, 3), ("D", 8, 3),
}
EXPECTED_TORSION_EDGE = {("B", 2), ("D", 3)}


def criterion_table_data(seed: int = 0) -> CheckResult:
    problems = []
    primes = [q for q in range(2, 51) if rootdata.is_prime(q)]
    good_mismatches = set()
    torsion_edges = set()
    for row in rootdata.table_rows():
        label = row["type"]
        printed = rootdata.PRINTED_TABLE[label]
        for n in row["ranks"]:
            rd = rootdata.build_rootdatum(label, n)
            # Coxeter number: the formula vs the printed column
            h = rd.coxeter_number()
            printed_h = printed["h"]
            if label == "A":
                if h != n + 1:
                    problems.append(f"A{n}: formula coxeter {h} != n+1")
            else:
                expected = {"B": 2 * n, "C": 2 * n, "D": 2 * (n - 1)}.get(
                    label, printed_h if isinstance(printed_h, int) else None)
                if h != expected:
                    problems.append(f"{label}{n}: coxeter {h} != table {expected}")
            # torsion column as the largest highest-coroot coefficient
            maxb = max(rd.highest_coroot_coeffs)
            if maxb != printed["torsion"]:
                torsion_edges.add((label, n))
            # good / very good flags per prime
            for q in primes:
                pc = rootdata.classify_prime(rd, q)
                table_good = (printed["good_gt"] is None or q > printed["good_gt"])
                if label == "A":
                    table_vg = table_good and (n + 1) % q != 0
                else:
                    table_vg = q > printed["very_good_gt"]
                if (pc.is_good, pc.is_very_good) != (table_good, table_vg):
                    good_mismatches.add((label, n, q))
            # the rank/coxeter growth inequality
            rg = rd.rank
            if not (2 * h - 2 < 2 ** (2 * rg) <= 2 ** (2 * (rg + 1))):
                problems.append(f"{label}{n}: 2h-2 bound fails")
    if good_mismatches != EXPECTED_GOOD_ANOMALIES:
        problems.append(
            f"good/very-good mismatch set {sorted(good_mismatches)} != "
            f"documented D-row anomalies {sorted(EXPECTED_GOOD_ANOMALIES)}")
    if torsion_edges != EXPECTED_TORSION_EDGE:
        problems.append(
            f"torsion-column edge set {sorted(torsion_edges)} != "
            f"documented {sorted(EXPECTED_TORSION_EDGE)}")
    detail = ("; ".join(problems) if problems else
              "all rows match; documented anomalies: D-row good column at p=3 "
              "(and D3 at p=2), torsion column lists the generic-rank value "
              "at B2/D3, A_n coxeter entry is n vs formula n+1")
    return _result("8 characteristic-table data suite (p <= 50)",
                   not problems, detail)


# -- criterion 9: radical brute-force oracles ---------------------------------

def enumerate_subspaces(view):
    """All subspaces of the view's coordinate space in canonical RREF form."""
    from itertools import combinations, product
    d, p = view.dim, view.p
    yield Subspace.zero(d, p)
    for k in range(1, d + 1):
        for pivots in combinations(range(d), k):
            free_positions = []
            for r, c in enumerate(pivots):
                for j in range(c + 1, d):
                    if j not in pivots:
                        free_positions.append((r, j))
            for values in product(range(p), repeat=len(free_positions)):
                rows = [[0] * d for _ in range(k)]
                for r, c in enumerate(pivots):
                    rows[r][c] = 1
                for (r, j), v in zip(free_positions, values):
                    rows[r][j] = v
                yield Subspace(d, p, rows)


def literal_p_nilpotent(g: LieAlgebra, v) -> bool:
    """x^[p]^m = 0 for some m, by iterating g.p_power_vec until it reaches
    0 or repeats a nonzero vector, which it then cycles through: the
    definition, kept apart from the fast tests of `radicals`."""
    seen = set()
    while any(v) and tuple(v) not in seen:
        seen.add(tuple(v))
        v = g.p_power_vec(v)
    return not any(v)


def _brute_radicals(g: LieAlgebra, h: Subspace) -> dict:
    """Exhaustive-ideal-enumeration oracle: scan every subspace of h, keep
    the ideals, and take maxima of the solvable / nilpotent / p-nil ones."""
    view = SubView(g, h)
    pnil_lookup = {}
    for v in h.enumerate_vectors():
        pnil_lookup[tuple(v)] = literal_p_nilpotent(g, v)
    best = {"rad": Subspace.zero(view.dim, g.p),
            "nil": Subspace.zero(view.dim, g.p),
            "rad_p": Subspace.zero(view.dim, g.p)}
    for s in enumerate_subspaces(view):
        if s.dim == 0:
            continue
        if not all(s.contains_vector(view.bracket_vec(view.unit(i), list(b)))
                   for i in range(view.dim) for b in s.basis):
            continue
        if view.is_solvable(s) and s.dim > best["rad"].dim:
            best["rad"] = s
        if view.is_nilpotent(s) and s.dim > best["nil"].dim:
            best["nil"] = s
        if s.dim > best["rad_p"].dim:
            allp = all(pnil_lookup[tuple(view.lift(list(vv)))]
                       for vv in s.enumerate_vectors())
            if allp:
                best["rad_p"] = s
    return {k: view.lift_subspace(v) for k, v in best.items()}


def _subalgebras_of(g: LieAlgebra, h: Subspace):
    view = SubView(g, h)
    return [view.lift_subspace(s) for s in enumerate_subspaces(view)
            if all(s.contains_vector(view.bracket_vec(list(a), list(b)))
                   for a in s.basis for b in s.basis)]


def criterion_radical_oracles(seed: int = 0) -> CheckResult:
    problems = []
    checked = 0

    def compare(g, h, tag):
        nonlocal checked
        checked += 1
        oracle = _brute_radicals(g, h)
        rad = radicals.solvable_radical(g, h)
        if rad != oracle["rad"]:
            problems.append(f"{tag}: rad {rad.dim} != oracle {oracle['rad'].dim}")
            return
        rep = radicals.radical_report(g, h)
        if rep.status != "ok":
            problems.append(f"{tag}: report {rep.status}")
            return
        if rep.nil != oracle["nil"]:
            problems.append(f"{tag}: nil {rep.nil.dim} != oracle {oracle['nil'].dim}")
        if rep.rad_p != oracle["rad_p"]:
            problems.append(f"{tag}: rad_p {rep.rad_p.dim} != "
                            f"oracle {oracle['rad_p'].dim}")

    for p in (3, 5):
        sl2 = build("sl", 2, p)
        for h in _subalgebras_of(sl2, sl2.full_space()):
            if h.dim == 0:
                continue
            compare(sl2, h, f"sl2@{p} dim{h.dim}")
        sl3 = build("sl", 3, p)
        b = standard_borel(sl3)["parabolic"]
        compare(sl3, b, f"borel sl3@{p}")
        if p == 3:
            for h in _subalgebras_of(sl3, b):
                if h.dim == 0:
                    continue
                compare(sl3, h, f"sl3@{p} sub-borel dim{h.dim}")
    return _result("9 radical operations agree with the exhaustive-ideal "
                   "brute force", not problems,
                   "; ".join(problems[:6]) or f"{checked} inputs compared")


# -- criterion 10: slope arithmetic -------------------------------------------

def criterion_hnslope(seed: int = 0) -> CheckResult:
    rng = random.Random(seed)
    problems = []
    fuzz_total = fuzz_rejected = 0
    for trial in range(HN_SAMPLES):
        k = rng.randint(1, 4)
        slopes = sorted(rng.sample(range(1, 40), k), reverse=True)
        prefix = []
        for s in slopes:
            r = rng.randint(1, 4)
            prefix.append((r, r * s))
        f = hnslope.reflect_prefix(prefix, rng.randint(1, 5))
        if not hnslope.verify_hn(f):
            problems.append(f"generator produced non-decreasing slopes: {f.factors}")
            break
        if not hnslope.dual_pattern(f)["passes"]:
            problems.append(f"dual_pattern rejects generated {f.factors}")
            break
        pre = hnslope.e0_preconditions(f, 101, f.total_rank())
        if not (pre["below_strictly_positive"] and pre["above_strictly_negative"]):
            problems.append(f"e0 preconditions fail on generated {f.factors}")
            break
        if trial < 40:
            total_rank = f.total_rank()
            for idx in range(len(f.factors)):
                for dr, dd in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    fac = [list(x) for x in f.factors]
                    fac[idx][0] += dr
                    fac[idx][1] += dd
                    if fac[idx][0] <= 0:
                        continue
                    fuzz_total += 1
                    try:
                        pert = hnslope.HNFiltration.make(fac, f.zero_index)
                        ok = (pert.total_rank() == total_rank
                              and hnslope.verify_hn(pert)
                              and hnslope.dual_pattern(pert)["passes"])
                    except ValueError:
                        ok = False
                    if not ok:
                        fuzz_rejected += 1
    if fuzz_rejected != fuzz_total:
        problems.append(f"fuzzer: {fuzz_total - fuzz_rejected} perturbations "
                        "accepted")
    return _result("10 slope arithmetic: synthetic filtrations and the "
                   "perturbation fuzzer",
                   not problems,
                   "; ".join(problems) or
                   f"{HN_SAMPLES} filtrations, {fuzz_total} perturbations rejected")


CRITERIA = [
    ("1", criterion_structure_laws),
    ("2", criterion_tower_sweep),
    ("3", criterion_seed_to_borel),
    ("4", criterion_kempf_crosscheck),
    ("5", criterion_bad_prime),
    ("6", criterion_killing),
    ("7", criterion_exp_ad),
    ("8", criterion_table_data),
    ("9", criterion_radical_oracles),
    ("10", criterion_hnslope),
]


def run_suite(selected=None, seed: int = 0) -> list:
    """The results of the selected criteria (all when None), in CRITERIA
    order, each with its elapsed seconds."""
    out = []
    for key, fn in CRITERIA:
        if selected and key not in selected:
            continue
        t0 = time.time()
        res = fn(seed)
        res.elapsed = time.time() - t0
        out.append(res)
    return out
