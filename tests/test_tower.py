import importlib.util
import random
from functools import lru_cache
from pathlib import Path

import pytest

from morozov.gfp import FieldMatrix, Subspace
from morozov.kempf import check_search_class, optimize
from morozov.liealg import build, standard_borel, standard_parabolic
from morozov.radicals import InputError, p_radical, solvable_radical
from morozov.tower import (TowerTrace, check_tower_input, run_tower,
                           tower_step, verify_morozov)


def line(g, label):
    return g.subspace([g.element_by_label(label).coords])


def test_tower_step_zero():
    g = build("sl", 3, 5)
    q, u_next, _ = tower_step(g, g.subspace([]))
    assert q == g.full_space()
    assert u_next.dim == 0


def test_tower_step_e13():
    g = build("sl", 3, 5)
    b = standard_borel(g)
    q, u_next, _ = tower_step(g, line(g, "e13"))
    assert q == b["parabolic"]
    assert u_next == b["nilradical"]
    # from the nilradical the step is a fixed point
    q2, u2, _ = tower_step(g, b["nilradical"])
    assert q2 == b["parabolic"] and u2 == b["nilradical"]


def test_run_tower_seed_to_borel():
    g = build("sl", 3, 5)
    tr = run_tower(g, line(g, "e13"))
    b = standard_borel(g)
    assert tr.status == "stabilized" and tr.stabilized_at <= 2
    assert tr.q_limit == b["parabolic"] and tr.u_limit == b["nilradical"]


def test_run_tower_zero_seed():
    g = build("sl", 3, 5)
    tr = run_tower(g, g.subspace([]))
    assert tr.status == "stabilized"
    assert tr.q_limit == g.full_space()
    assert tr.u_limit.dim == 0


def test_run_tower_parabolic_fixed_points():
    for fam, n, p in (("sl", 3, 7), ("sp", 4, 3)):
        g = build(fam, n, p)
        for chosen in ((), (0,)):
            data = standard_parabolic(g, chosen)
            tr = run_tower(g, data["nilradical"])
            assert tr.status == "stabilized" and tr.stabilized_at <= 2
            assert tr.q_limit == data["parabolic"]
            assert tr.u_limit == data["nilradical"]


def test_input_validation():
    g = build("sl", 2, 5)
    h = line(g, "h1")
    with pytest.raises(InputError, match="^tower input is not p-nil$"):
        run_tower(g, h)
    # not a subalgebra
    bad = g.subspace([g.element_by_label("e12").coords,
                      g.element_by_label("f12").coords])
    with pytest.raises(InputError,
                       match="^tower input is not a subalgebra$"):
        run_tower(g, bad)
    with pytest.raises(ValueError):
        check_tower_input(g, h)


def test_tower_input_not_closed_under_the_p_power_map():
    # gl2@3 and u = <X>, X = [[0, 1], [1, 2]]: a line is a subalgebra, but
    # the characteristic polynomial t^2 + t + 2 of X is irreducible over
    # F_3, so X^3 = 2 - X lies outside u, and the tower refuses u before
    # its p-nil gate (X is not nilpotent either)
    g = build("gl", 2, 3)
    x = FieldMatrix.from_rows([[0, 1], [1, 2]], 3)
    u = g.subspace([g.coordinates_of_matrix(x)])
    cube = g.coordinates_of_matrix(x.pow(3))
    assert cube == g.coordinates_of_matrix(
        FieldMatrix.from_rows([[2, 2], [2, 0]], 3))
    assert g.is_subalgebra(u) and not u.contains_vector(cube)
    with pytest.raises(InputError, match="^tower input is not closed "
                                         "under the p-power map$"):
        run_tower(g, u)


def test_trace_reproducibility():
    g = build("sp", 4, 5)
    u = standard_parabolic(g, (0,))["nilradical"]
    t1 = run_tower(g, u)
    t2 = run_tower(g, u)
    assert t1.as_dict() == t2.as_dict()


def test_verify_morozov_sl3():
    g = build("sl", 3, 5)
    tr = run_tower(g, line(g, "e13"))
    rep = verify_morozov(g, tr)
    assert rep.checks["fixed_point"] == "pass"
    assert rep.checks["parabolic"] == "pass"
    assert rep.checks["u_is_p_radical"] == "pass"
    assert rep.checks["kempf"] == "pass"


def test_verify_morozov_sp4_small_p():
    # separably good characteristic below the Coxeter number
    g = build("sp", 4, 3)
    data = standard_parabolic(g, (1,))
    tr = run_tower(g, data["nilradical"])
    rep = verify_morozov(g, tr)
    assert rep.checks["parabolic"] == "pass"
    assert rep.checks["u_is_p_radical"] == "pass"


def test_verify_morozov_counterexample():
    from morozov.fixtures import ex2_subalgebra
    g = build("pgl", 3, 3)
    u = ex2_subalgebra(g)
    tr = run_tower(g, u)
    assert tr.status == "stabilized"
    rep = verify_morozov(g, tr)
    assert rep.checks["parabolic"] == "fail"
    assert rep.checks["parabolic_status"] == "not-parabolic"


def _random_subalgebras(g, count, seed):
    rng = random.Random(seed)
    seen = {}
    for _ in range(count):
        k = rng.randint(1, 3)
        gens = [g.element([rng.randrange(g.p) for _ in range(g.dim)])
                for _ in range(k)]
        h = g.subalgebra_closure(gens)
        if 0 < h.dim < g.dim:
            seen[h.basis] = h
    return list(seen.values())


@pytest.mark.parametrize("fam,n,p", [("sl", 2, 5), ("sl", 2, 7), ("sl", 3, 5)])
def test_maximal_subalgebra_dichotomy(fam, n, p):
    """Either p-reductive or the tower certifies a parabolic: probe the
    maximal elements of a seeded sample of generated subalgebras."""
    g = build(fam, n, p)
    candidates = _random_subalgebras(g, 60, seed=n * 100 + p)
    maximal = [h for h in candidates
               if not any(other.contains(h) and other.dim > h.dim
                          for other in candidates)]
    for h in maximal:
        out = p_radical(g, h)
        radp = out["rad_p"]
        if radp.dim == 0:
            continue   # p-reductive branch
        tr = run_tower(g, radp)
        assert tr.status == "stabilized"
        rep = verify_morozov(g, tr)
        assert rep.checks["parabolic"] == "pass"


def test_trace_serialization_shape():
    g = build("sl", 3, 5)
    tr = run_tower(g, line(g, "e13"))
    d = tr.as_dict()
    assert d["status"] == "stabilized"
    assert [s["u_dim"] for s in d["steps"]] == [1, 3, 3]
    assert d["steps"][1]["q_dim"] == 5


def test_p_nil_checks_and_radical_do_not_enumerate(monkeypatch):
    # the sl5@5 Borel nilradical has 5^10 vectors and the sl6@7 Borel a
    # 7^5-vector torus; neither check nor the radical may walk them
    def refuse(self):
        raise AssertionError("enumerate_vectors called")

    monkeypatch.setattr(Subspace, "enumerate_vectors", refuse)
    g = build.__wrapped__("sl", 5, 5)          # fresh memo
    nil = standard_borel(g)["nilradical"]
    check_tower_input(g, nil)
    check_search_class(g, nil)
    g = build.__wrapped__("sl", 6, 7)
    b = standard_borel(g)["parabolic"]
    assert solvable_radical(g, b) == b


def _conjugated_pgl3_root_sl2():
    """A seeded GL_3 conjugate of pgl3@5's root sl2 whose canonical basis
    is p-nilpotent: p-closed, but not p-nil (it contains a conjugate of h)."""
    from morozov.gfp import rref
    from morozov.liealg import conjugate_subspace
    from morozov.radicals import is_p_nilpotent
    g = build("pgl", 3, 5)
    root = tuple(g.frame.rootdatum.simple_roots[0])
    sl2 = g.subalgebra_closure([
        g.basis_element(g.frame.root_index[r])
        for r in (root, tuple(-x for x in root))])
    rng = random.Random("pgl-gate")
    for _ in range(500):
        m = FieldMatrix(3, 3, 5, [rng.randrange(5) for _ in range(9)])
        if rref(m)[1] < 3:
            continue
        u = conjugate_subspace(g, m, sl2)
        if all(is_p_nilpotent(g.element(list(b))) for b in u.basis):
            return g, u
    raise AssertionError("no conjugated sl2 with a p-nilpotent basis")


def test_pgl_input_over_budget_is_not_accepted():
    # a basis test proves nothing: the p-nil gate refuses the conjugated
    # root sl2 at any budget, and the tower does not start
    from morozov.radicals import is_p_nil_subalgebra
    g, u = _conjugated_pgl3_root_sl2()
    assert all(u.contains_vector(g.p_power_vec(list(b))) for b in u.basis)
    assert is_p_nil_subalgebra(g, u) is False
    for budget in (10, None):
        with pytest.raises(ValueError, match="not p-nil"):
            check_tower_input(g, u, budget=budget)
    with pytest.raises(InputError, match="^tower input is not p-nil$"):
        run_tower(g, u)
    # the pgl4@5 Borel nilradical, 5^6 vectors, is accepted at budget 10
    g = build("pgl", 4, 5)
    check_tower_input(g, standard_borel(g)["nilradical"], budget=10)


def test_kempf_input_class_on_pgl_needs_no_budget():
    # the optimizer's input check decides pgl inputs at any budget: the
    # pgl4@5 Borel nilradical is accepted, the conjugated root sl2 refused
    g = build("pgl", 4, 5)
    nil = standard_borel(g)["nilradical"]
    check_search_class(g, nil)
    check_search_class(g, nil, budget=10)
    g, u = _conjugated_pgl3_root_sl2()
    for budget in (10, None):
        with pytest.raises(ValueError):
            check_search_class(g, u, budget=budget)
        with pytest.raises(ValueError):
            optimize(g, u, budget)


def _towers_pass(g, chosen):
    """The tower from the nilradical of the standard parabolic `chosen`
    stabilises at it, and `verify_morozov` passes every check."""
    nil = standard_parabolic(g, chosen)["nilradical"]
    trace = run_tower(g, nil)
    checks = verify_morozov(g, trace).checks
    checks.pop("kempf_lambda")
    assert checks.pop("parabolic_status") == "parabolic", chosen
    assert set(checks.values()) == {"pass"}, (chosen, checks)
    assert trace.u_limit == nil, chosen


@pytest.mark.parametrize("n,p", [(6, 7), (8, 13)])
def test_pgl_borel_tower_is_decided(n, p):
    # the p-nil gate needs no walk over the p^dim(u) vectors of the
    # nilradical (7^15 and 13^28 here)
    g = build("pgl", n, p)
    _towers_pass(g, ())


def test_every_proper_standard_parabolic_of_sl5_at_3_is_decided():
    # p = 3: root characters coincide on the finite torus, and the
    # structured radical path still takes every coordinate-split h
    g = build("sl", 5, 3)
    rank = g.frame.rootdatum.rank
    for mask in range((1 << rank) - 1):
        _towers_pass(g, tuple(i for i in range(rank) if mask >> i & 1))


def _unipotent_word(g, rng):
    """A seeded product of 1 + X over root matrices X with X^2 = 0: an
    element of the group that normalises g at every p, p = 2 included."""
    n, p = g.realization.n, g.p
    w = FieldMatrix.identity(n, p)
    roots = g.frame.rootdatum.roots
    for _ in range(6):
        m = g.matrix_of(g.unit(g.frame.root_index[tuple(rng.choice(roots))]))
        if (m @ m).is_zero():
            w = w @ (FieldMatrix.identity(n, p) + m)
    return w


@pytest.mark.parametrize("fam,n", [("sl", 3), ("gl", 3), ("pgl", 3), ("sp", 4),
                                   ("sl", 4), ("sp", 6)])
def test_towers_at_2_stabilise_on_p_nil_limits_or_end_undetermined(fam, n):
    # every proper standard nilradical and one seeded conjugate of each:
    # rad_p of its normaliser, the parabolic, is the nilradical, so every
    # tower stabilises on u0, a limit that is p-nil vector by vector, and
    # none ends undetermined, though the p-nilpotent elements of the
    # parabolic's radical need not form a subspace at p = 2
    from morozov.liealg import conjugate_subspace
    from morozov.suite import literal_p_nilpotent
    g = build(fam, n, 2)
    rng = random.Random(f"tower:{fam}{n}@2")
    rank = g.frame.rootdatum.rank
    for mask in range((1 << rank) - 1):
        chosen = tuple(i for i in range(rank) if mask >> i & 1)
        nil = standard_parabolic(g, chosen)["nilradical"]
        for u0 in (nil, conjugate_subspace(g, _unipotent_word(g, rng), nil)):
            trace = run_tower(g, u0)
            assert trace.status == "stabilized" and trace.u_limit == u0, chosen
            checks = verify_morozov(g, trace).checks
            assert (checks["fixed_point"], checks["parabolic"],
                    checks["u_is_p_radical"]) == ("pass", "pass", "pass"), chosen
            assert all(literal_p_nilpotent(g, v) for v in
                       u0.enumerate_vectors() if any(v)), chosen


@lru_cache(maxsize=None)
def _workloads():
    """perfbench/workloads.py, loaded from its file without touching
    sys.path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _root_group_word(g, rng):
    """`root_group_word` of the benchmark's workloads."""
    return _workloads().root_group_word(g, rng)


def test_conjugated_sp6_tower_past_a_killing_form_that_vanishes():
    # a root-group conjugate of the sp6@7 nilradical S = (1, 2): the
    # normaliser's radical needs the peel loop, through a 14-dim view
    # whose Killing form vanishes and whose ad envelope has more than 128
    # words; its nilradical, read off J, decides it, and the tower
    # stabilises on the conjugate with every check of verify_morozov
    from morozov.liealg import conjugate_subspace
    g = build("sp", 6, 7)
    w = _root_group_word(g, random.Random("sweep:sp6@7:(1, 2)"))
    u = conjugate_subspace(g, w, standard_parabolic(g, (1, 2))["nilradical"])
    trace = run_tower(g, u)
    assert trace.status == "stabilized" and trace.u_limit == u
    checks = verify_morozov(g, trace).checks
    assert (checks["fixed_point"], checks["parabolic"],
            checks["u_is_p_radical"]) == ("pass", "pass", "pass")


def test_conjugated_pgl5_nilradical_tower_steps_through_rad_q():
    # the sweep's conjugate of the pgl5@5 nilradical S = (0, 1, 2): each
    # normaliser q is not split, and its rad_p is read off the envelope of
    # rad(q), of dimension 5.  Read off q's own envelope instead, the
    # 24 x 24 ad lifts pass the 113-word cap and the walk over q (5^20
    # vectors) is far past DEFAULT_BUDGET, so this tower would end
    # `budget-exceeded`
    from morozov.gfp import jacobson_radical
    from morozov.liealg import conjugate_subspace, coordinate_split
    g = build("pgl", 5, 5)
    w = _root_group_word(g, random.Random("sweep:pgl5@5:(0, 1, 2)"))
    nil = standard_parabolic(g, (0, 1, 2))["nilradical"]
    u = conjugate_subspace(g, w, nil)
    trace = run_tower(g, u)
    assert trace.status == "stabilized" and trace.u_limit == u
    assert all(coordinate_split(g, s.q) is None
               and (s.method, s.radical_dim) == ("envelope", 5)
               for s in trace.steps[1:])
    assert jacobson_radical([g.ad_matrix_vec(list(b))
                             for b in trace.q_limit.basis]) is None
    checks = verify_morozov(g, trace).checks
    assert (checks["fixed_point"], checks["parabolic"],
            checks["u_is_p_radical"]) == ("pass", "pass", "pass")


def _p_nil_closures(g, count, rng):
    """`count` seeded p-nil restricted subalgebras of g: the closure under
    the bracket and the p-power map of one or two sparse random elements of
    the Borel nilradical, every other one moved by a root-group word."""
    from morozov.liealg import conjugate_subspace
    nil = standard_borel(g)["nilradical"]
    out = []
    for k in range(count):
        gens = [nil.combine([rng.randrange(g.p) if rng.random() < 0.4 else 0
                             for _ in range(nil.dim)])
                for _ in range(rng.randint(1, 2))]
        u = g.subspace([])
        while not u.contains(g.subspace(gens)):
            u = g.subalgebra_closure([g.element(v) for v in gens])
            gens = [list(b) for b in u.basis] + [g.p_power_vec(list(b))
                                                 for b in u.basis]
        if k % 2:
            u = conjugate_subspace(g, _root_group_word(g, rng), u)
        out.append(u)
    return out


def _tower_inputs():
    """(algebra, u0) for the seeded p-nil closures of rank-2 and sl4 algebras
    at p = 2, 3, 5 and for every tower case of the benchmark at seeds
    0-2."""
    from morozov.serialize import subspace_from_dict
    for p in (2, 3, 5):
        for fam, n in (("sl", 3), ("gl", 3), ("pgl", 3), ("sl", 4), ("sp", 4),
                       ("so", 5)):
            if (fam, p) != ("so", 2):       # so is not built at p = 2
                g = build(fam, n, p)
                rng = random.Random(f"chain:{fam}{n}@{p}")
                for u in _p_nil_closures(g, 24, rng):
                    yield g, u
    workloads = _workloads()
    for workload in ("tower-std", "tower-seeded"):
        for seed in range(3):
            for case in workloads.generate(workload, seed):
                g = build(*case["alg"])
                yield g, subspace_from_dict(case["input"], g)


def test_tower_is_an_increasing_chain_of_subalgebras():
    # u_(i-1) is a p-nil ideal of N(u_(i-1)), so it lies in the next u,
    # rad_p(N(u_(i-1))), which is a subalgebra; dim u is bounded by dim g,
    # so every tower ends within dim g + 2 steps, and as rad_p is certified
    # wherever the envelope fits, every one of these stabilises
    ended = set()
    for g, u0 in _tower_inputs():
        trace = run_tower(g, u0)
        ended.add(trace.status)
        assert len(trace.steps) - 1 <= g.dim + 2
        for prev, step in zip(trace.steps, trace.steps[1:]):
            assert step.u.contains(prev.u) and g.is_subalgebra(step.u)
    assert ended == {"stabilized"}


def test_sp4_at_2_tower_from_a_line_stops_at_a_maximal_parabolic():
    # one seeded p-nil closure of the chain test, a line of sp4@2: its
    # normaliser is the Borel, whose rad_p is 3-dimensional, and that u's
    # normaliser, a maximal parabolic of dimension 7, has rad_p u again
    g = build("sp", 4, 2)
    u0 = _p_nil_closures(g, 11, random.Random("chain:sp4@2"))[10]
    assert u0.dim == 1
    trace = run_tower(g, u0)
    assert trace.status == "stabilized"
    assert [(s.u.dim, s.q and s.q.dim) for s in trace.steps] == [
        (1, None), (3, 6), (3, 7), (3, 7)]
    checks = verify_morozov(g, trace).checks
    assert [checks[c] for c in ("stabilized", "fixed_point", "parabolic",
                                "u_is_p_radical", "kempf")] == ["pass"] * 5


def test_check_c_fails_on_a_p_radical_that_loses_root_lines(monkeypatch):
    # a p_radical that keeps only the last root line of each structured
    # answer: every tower-std input of seed 0 with root lines breaks the
    # chain or fails (c); from the highest root line the tower stabilises
    # on that line, with q = N(u) a parabolic of larger nilradical, where
    # u = rad_p(q) alone would pass
    from morozov import radicals
    from morozov.liealg import coordinate_split, split_sum
    from morozov.serialize import subspace_from_dict
    real = radicals.p_radical

    def mutant(g, h):
        out = real(g, h)
        split = coordinate_split(g, out["rad_p"])
        if out["method"] != "structured" or split is None or not split[1]:
            return out
        return dict(out, rad_p=split_sum(g, sorted(split[1])[-1:], split[0]))
    monkeypatch.setattr(radicals, "p_radical", mutant)
    outcomes = set()
    for case in _workloads().generate("tower-std", 0):
        g = build(*case["alg"])
        u0 = subspace_from_dict(case["input"], g)
        try:
            trace = run_tower(g, u0)
        except RuntimeError:
            outcomes.add("chain")
            continue
        reading = verify_morozov(g, trace).checks["u_is_p_radical"]
        assert reading == "fail" or not u0.dim, case["id"]
        outcomes.add(reading)
    assert "chain" in outcomes
    for alg in (("sl", 3, 5), ("sp", 4, 5), ("so", 5, 5), ("sl", 3, 2)):
        g = build(*alg)
        # positive roots run by height, so the last is the highest
        top = g.frame.root_index[g.frame.rootdatum.positive_roots[-1]]
        u0 = g.subspace([g.unit(top)])
        trace = run_tower(g, u0)
        assert trace.u_limit == u0, alg
        assert mutant(g, trace.q_limit)["rad_p"] == u0
        checks = verify_morozov(g, trace).checks
        assert (checks["fixed_point"], checks["parabolic"],
                checks["u_is_p_radical"]) == ("pass", "pass", "fail"), alg


@pytest.mark.parametrize("fam,n,p", [
    ("sl", 3, 2), ("sl", 4, 3), ("gl", 3, 2), ("pgl", 3, 3), ("sp", 4, 2),
    ("sp", 4, 3), ("so", 5, 3)])
def test_check_c_reads_the_witness_of_conjugated_towers(fam, n, p):
    # the limit of a conjugated proper standard nilradical is the
    # nilradical of the verdict's witness, read off its root subset in the
    # flag frame and conjugated back by that frame; so is the witness by
    # the old rule, the lines whose negative root is absent, conjugated by
    # the frame rows of the verdict's payload
    from morozov.liealg import conjugate_subspace
    from morozov.parabolic import detect_parabolic
    from morozov.tower import _witness_nilradical
    g = build(fam, n, p)
    rng = random.Random(f"witness:{fam}{n}@{p}")
    rank, translated = g.frame.rootdatum.rank, 0
    for mask in range((1 << rank) - 1):
        chosen = tuple(i for i in range(rank) if mask >> i & 1)
        nil = standard_parabolic(g, chosen)["nilradical"]
        u0 = conjugate_subspace(g, _unipotent_word(g, rng), nil)
        trace = run_tower(g, u0)
        verdict = detect_parabolic(g, trace.q_limit)
        translated += bool(verdict.details.get("frame_translate"))
        assert _witness_nilradical(g, verdict) == trace.u_limit == u0, chosen
        roots = set(verdict.root_subset)
        old = g.subspace([g.unit(g.frame.root_index[r]) for r in roots
                          if tuple(-x for x in r) not in roots])
        rows = verdict.as_dict()["details"].get("frame")
        assert (rows is None) == (verdict.frame is None), chosen
        if rows is not None:
            old = conjugate_subspace(g, FieldMatrix.from_rows(rows, p), old)
        assert old == trace.u_limit, chosen
        assert verify_morozov(g, trace).checks["u_is_p_radical"] == "pass"
    assert translated, (fam, n, p)


def test_tower_past_the_walk_budget_ends_budget_exceeded(tmp_path, capsys):
    # the sweep's conjugate of the pgl8@2 nilradical S = (2, 3, 5, 6): the
    # first step's p-nilpotent cone is left to the walk over rad(q), 2^25
    # vectors, past DEFAULT_BUDGET, so the tower ends `budget-exceeded`
    # with u0 alone; verify_morozov reads the trace as not stabilised, and
    # `tower run` exits 2 on it (the memoised reason makes that run fast)
    import json
    from morozov.cli import EXIT_UNDETERMINED, main
    from morozov.liealg import conjugate_subspace
    from morozov.radicals import DEFAULT_BUDGET
    from morozov.serialize import canonical_json, subspace_to_dict
    g = build("pgl", 8, 2)
    chosen = (2, 3, 5, 6)
    w = _root_group_word(g, random.Random(f"sweep:pgl8@2:{chosen}"))
    u = conjugate_subspace(g, w, standard_parabolic(g, chosen)["nilradical"])
    trace = run_tower(g, u)
    detail = f"enumeration of {2 ** 25} elements exceeds budget {DEFAULT_BUDGET}"
    assert (trace.status, trace.detail, trace.u_limit) == (
        "budget-exceeded", detail, None)
    assert [step.u for step in trace.steps] == [u]
    assert verify_morozov(g, trace).checks == {"stabilized": "fail"}
    path = tmp_path / "u.json"
    path.write_text(canonical_json(subspace_to_dict(u)))
    assert main(["tower", "run", "--family", "pgl", "--n", "8", "--p", "2",
                 "--subspace", str(path)]) == EXIT_UNDETERMINED
    payload = json.loads(capsys.readouterr().out)
    assert payload["trace"] == json.loads(canonical_json(trace.as_dict()))
    assert payload["verification"] is None
