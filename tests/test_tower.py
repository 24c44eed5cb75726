import json
import random

import pytest

from morozov.gfp import FieldMatrix, Subspace
from morozov.kempf import check_search_class, optimize
from morozov.liealg import build, standard_borel, standard_parabolic
from morozov.radicals import p_radical, solvable_radical
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
    tr = run_tower(g, h)
    assert tr.status == "input-error"
    # not a subalgebra
    bad = g.subspace([g.element_by_label("e12").coords,
                      g.element_by_label("f12").coords])
    tr = run_tower(g, bad)
    assert tr.status == "input-error"
    with pytest.raises(ValueError):
        check_tower_input(g, h)


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


def test_tower_run_cli_verifies_within_the_given_budget(tmp_path, capsys,
                                                      monkeypatch):
    from morozov import tower
    from morozov.cli import EXIT_OK, main
    from morozov.serialize import canonical_json, subspace_to_dict
    budgets = []
    verify = tower.verify_morozov

    def recording(g, trace, **kwargs):
        budgets.append(kwargs.get("budget"))
        return verify(g, trace, **kwargs)

    monkeypatch.setattr(tower, "verify_morozov", recording)
    g = build("sl", 3, 5)
    path = tmp_path / "u.json"
    path.write_text(canonical_json(subspace_to_dict(line(g, "e13"))))
    assert main(["tower", "run", "--family", "sl", "--n", "3", "--p", "5",
                 "--subspace", str(path), "--budget", "4321"]) == EXIT_OK
    assert budgets == [4321]
    checks = json.loads(capsys.readouterr().out)["verification"]
    assert checks["u_is_p_radical"] == "pass"


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
    for tr in (run_tower(g, u, budget=10), run_tower(g, u)):
        assert tr.status == "input-error"
        assert tr.detail == "tower input is not p-nil"
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


def test_verify_morozov_hands_its_budget_to_the_radicals(monkeypatch):
    # the Kempf check needs no budget; the radicals, which may still
    # enumerate, get the caller's
    from morozov import radicals
    budgets = []

    def recording(name):
        original = getattr(radicals, name)

        def wrapper(g, h, budget=radicals.DEFAULT_BUDGET):
            budgets.append((name, budget))
            return original(g, h, budget)
        monkeypatch.setattr(radicals, name, wrapper)

    g = build("pgl", 3, 5)
    trace = run_tower(g, standard_borel(g)["nilradical"])
    recording("pnil_part_of_radical")
    recording("p_radical")
    for budget in (4321, 10):
        budgets.clear()
        checks = verify_morozov(g, trace, budget=budget).checks
        assert checks["kempf"] == "pass"
        assert checks["u_is_p_radical"] == "pass"
        assert set(budgets) == {("pnil_part_of_radical", budget),
                                ("p_radical", budget)}


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


@pytest.mark.parametrize("fam,n", [("sl", 3), ("gl", 3), ("pgl", 3), ("sp", 4)])
def test_towers_at_2_stabilise_on_p_nil_limits_or_end_undetermined(fam, n):
    # every proper standard nilradical and one seeded conjugate of each: a
    # tower that stabilises does so on a u that is p-nil vector by vector;
    # the others meet a set of p-nilpotent elements that is not a subspace
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
            if trace.status == "stabilized":
                assert all(literal_p_nilpotent(g, v) for v in
                           trace.u_limit.enumerate_vectors() if any(v)), chosen
            else:
                assert trace.status == "budget-exceeded", chosen
                assert "do not form a subspace" in trace.detail, chosen
