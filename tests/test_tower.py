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
